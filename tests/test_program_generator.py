"""Unit tests for synthetic binary generation."""

import pytest

from repro.program.binary import FunctionCategory as FC
from repro.program.generator import BinaryShape, generate_binary
from repro.program.path import PathModel


@pytest.fixture(scope="module")
def shaped_binary():
    shape = BinaryShape(
        n_functions=30,
        category_weights={FC.APP: 0.5, FC.MEM_COPY: 0.3, FC.SYNC_MUTEX: 0.2},
        indirect_branch_fraction=0.08,
    )
    return generate_binary("gen-test", shape, seed=7)


class TestGeneration:
    def test_deterministic(self):
        shape = BinaryShape(n_functions=10)
        a = generate_binary("same", shape, seed=3)
        b = generate_binary("same", shape, seed=3)
        assert [blk.address for blk in a.blocks] == [blk.address for blk in b.blocks]
        assert [blk.successors for blk in a.blocks] == [
            blk.successors for blk in b.blocks
        ]

    def test_seed_changes_layout(self):
        shape = BinaryShape(n_functions=10)
        a = generate_binary("same", shape, seed=3)
        b = generate_binary("same", shape, seed=4)
        assert [blk.size_bytes for blk in a.blocks] != [
            blk.size_bytes for blk in b.blocks
        ]

    def test_every_requested_category_present(self, shaped_binary):
        categories = {function.category for function in shaped_binary.functions}
        assert categories == {FC.APP, FC.MEM_COPY, FC.SYNC_MUTEX}

    def test_block_ids_dense(self, shaped_binary):
        for index, block in enumerate(shaped_binary.blocks):
            assert block.block_id == index

    def test_addresses_monotone_nonoverlapping(self, shaped_binary):
        prev_end = 0
        for block in shaped_binary.blocks:
            assert block.address >= prev_end
            prev_end = block.end_address

    def test_every_function_ends_in_ret(self, shaped_binary):
        for function in shaped_binary.functions:
            last = shaped_binary.block(function.block_ids[-1])
            assert last.terminator == "ret"
            assert last.successors == ()

    def test_call_blocks_have_return_site(self, shaped_binary):
        calls = [b for b in shaped_binary.blocks if b.terminator == "call"]
        assert calls, "shape should generate some call blocks"
        for block in calls:
            assert block.return_site is not None
            # the return site is in the same function
            assert (
                shaped_binary.block(block.return_site).function_id
                == block.function_id
            )

    def test_successor_probabilities_normalized(self, shaped_binary):
        for block in shaped_binary.blocks:
            if block.successors:
                total = sum(p for _, p in block.successors)
                assert total == pytest.approx(1.0)

    def test_call_targets_are_entries(self, shaped_binary):
        entries = {f.entry_block for f in shaped_binary.functions}
        for block in shaped_binary.blocks:
            if block.terminator == "call":
                for target, _ in block.successors:
                    assert target in entries

    def test_invalid_weights_rejected(self):
        with pytest.raises(ValueError):
            generate_binary(
                "bad", BinaryShape(category_weights={FC.APP: -1.0}), seed=1
            )


class TestExecutionWeighting:
    def test_walk_matches_category_weights(self, shaped_binary):
        """The Markov walk visits categories roughly per their weights."""
        path = PathModel(shaped_binary, seed=7, length=1 << 14)
        counts = path.visit_counts(0, path.length)
        totals = {}
        for block_id, visits in enumerate(counts):
            block = shaped_binary.block(block_id)
            category = shaped_binary.functions[block.function_id].category
            totals[category] = totals.get(category, 0) + visits * block.n_instructions
        shares = {c: v / sum(totals.values()) for c, v in totals.items()}
        # generous tolerance: walk dynamics only approximate the weights
        assert shares[FC.APP] > shares[FC.SYNC_MUTEX]
        assert 0.15 < shares[FC.APP] < 0.90
        assert sum(shares.values()) == pytest.approx(1.0)
