"""Determinism and fallback tests for the parallel run harness.

The contract under test: the merged output of a scenario matrix is a pure
function of the cells — identical bytes whether it ran in-process
(``jobs=1``) or fanned out over fork workers (``jobs=N``) — and the pool
degrades gracefully wherever forking is unavailable or pointless.
"""

import json

import pytest

from repro.parallel import CellResult, RunPool, grid, run_matrix
from repro.parallel.matrix import warmup_for
from repro.parallel.pool import _fork_available


def _tiny_cells():
    """A 4-cell grid small enough for the quick test lane."""
    return grid(
        ["de"],
        ["Oracle", "EXIST"],
        seeds=(7, 11),
        overrides=(("work_seconds", 0.05),),
    )


def _canonical(results):
    return json.dumps([r.to_dict() for r in results], sort_keys=True)


class TestDeterministicMerge:
    def test_jobs1_vs_jobs4_byte_identical(self):
        cells = _tiny_cells()
        serial = run_matrix(cells, jobs=1)
        parallel = run_matrix(cells, jobs=4)
        assert _canonical(serial) == _canonical(parallel)

    def test_results_indexed_like_cells(self):
        cells = _tiny_cells()
        results = run_matrix(cells, jobs=1)
        assert [(r.workload, r.scheme, r.seed) for r in results] == [
            (c.workload, c.scheme, c.seed) for c in cells
        ]
        assert all(isinstance(r, CellResult) for r in results)

    def test_repeated_runs_identical(self):
        cells = _tiny_cells()[:1]
        first = run_matrix(cells, jobs=1)
        second = run_matrix(cells, jobs=1)
        assert _canonical(first) == _canonical(second)

    def test_shared_pool_reused_across_grids(self):
        cells = _tiny_cells()[:2]
        with RunPool(max_workers=2, warmup=warmup_for(cells)) as pool:
            first = run_matrix(cells, pool=pool)
            second = run_matrix(cells, pool=pool)
        assert _canonical(first) == _canonical(second)
        assert _canonical(first) == _canonical(run_matrix(cells, jobs=1))


class TestGrid:
    def test_row_major_order(self):
        cells = grid(["a", "b"], ["X", "Y"], seeds=(1, 2))
        assert [(c.workload, c.scheme, c.seed) for c in cells] == [
            ("a", "X", 1), ("a", "X", 2), ("a", "Y", 1), ("a", "Y", 2),
            ("b", "X", 1), ("b", "X", 2), ("b", "Y", 1), ("b", "Y", 2),
        ]

    def test_common_kwargs_applied_to_every_cell(self):
        cells = grid(["a"], ["X"], seeds=(1,), warmup_s=0.02, window_s=0.5)
        assert cells[0].warmup_s == 0.02 and cells[0].window_s == 0.5

    def test_cells_are_hashable_and_picklable(self):
        import pickle

        cell = _tiny_cells()[0]
        assert hash(cell) == hash(pickle.loads(pickle.dumps(cell)))

    def test_warmup_deduplicates_profiles(self):
        cells = _tiny_cells()  # 4 cells, one (workload, overrides) pair
        assert len(warmup_for(cells)) == 1


class TestPoolFallback:
    def test_single_worker_runs_in_process(self):
        with RunPool(max_workers=1) as pool:
            assert not pool.parallel
            assert pool.map(lambda x: x * 2, [1, 2, 3]) == [2, 4, 6]

    def test_map_preserves_input_order(self):
        items = list(range(20))
        with RunPool(max_workers=4) as pool:
            assert pool.map(str, items) == [str(i) for i in items]

    def test_close_is_idempotent(self):
        pool = RunPool(max_workers=2)
        pool.close()
        pool.close()
        assert not pool.parallel
        assert pool.map(lambda x: x, [1]) == [1]

    @pytest.mark.skipif(not _fork_available(), reason="requires fork")
    def test_forked_pool_reports_parallel(self):
        with RunPool(max_workers=2) as pool:
            assert pool.parallel

    def test_warmup_runs_in_parent(self):
        seen = []
        with RunPool(max_workers=1, warmup=[lambda: seen.append(1)]):
            pass
        assert seen == [1]
