"""Fork-based process pool with deterministic in-process fallback.

The pool exists to run *independent simulation cells* (each builds its own
:class:`~repro.kernel.system.KernelSystem`) on separate cores.  Three
properties matter more than raw throughput:

* **determinism** — ``map`` preserves input order, and every cell derives
  all of its randomness from seeds carried in its own payload, so the
  merged output of ``jobs=1`` and ``jobs=N`` is byte-identical;
* **warm inheritance** — expensive memoized artifacts (generated
  binaries, path-model walks) are built in the *parent* before the
  workers fork, so every child inherits the warm caches through
  copy-on-write memory instead of regenerating them;
* **graceful degradation** — with ``max_workers <= 1``, on platforms
  without ``fork``, or when already inside a pool worker, the pool runs
  tasks in-process through the exact same code path.

:class:`RunPool` is a *facade*: the actual workers live in the
process-wide persistent :class:`~repro.parallel.workers.WorkerPool`
(forked once, reused by every ``RunPool`` for the life of the process,
reaped at interpreter exit).  Constructing a ``RunPool`` therefore costs
nothing after the first one, and ``close()`` merely detaches — which is
what makes back-to-back matrices, decode fan-outs, and reconcile waves
stop paying fork startup per call.  ``max_workers`` still means what it
says: a ``RunPool(max_workers=2)`` dispatches over at most two workers of
the shared pool, so ``--jobs`` keeps its CLI semantics.

Fork-safety of randomness: the simulation never touches the global
``random`` / ``numpy`` generators (all streams come from
:class:`repro.util.rng.RngFactory`), and the persistent workers reseed
the globals per *task* from ``derive_seed(base_seed, "task", index)`` so
any stray global-RNG use is a deterministic function of the task rather
than of worker placement.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Callable, Iterable, List, Optional, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

#: set in workers by the worker main loop; nested RunPools then run
#: in-process
_IN_WORKER = False


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


class RunPool:
    """Order-preserving map over the shared fork pool (or in-process).

    Parameters
    ----------
    max_workers:
        Dispatch width.  ``None`` means ``os.cpu_count()``; ``<= 1``
        forces the in-process fallback.  The shared persistent pool grows
        to the largest width any ``RunPool`` has asked for and never
        shrinks; narrower pools dispatch over a subset.
    base_seed:
        Root of the per-task global-RNG reseeding in workers (does not
        influence simulation results, which carry their own seeds).
    warmup:
        Zero-argument callables run *in the parent* — populate memoized
        caches here.  Workers forked after the warmup inherit the warm
        caches copy-on-write; workers forked earlier warm up lazily on
        first use and stay warm for every later map.
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        base_seed: int = 0,
        warmup: Sequence[Callable[[], object]] = (),
    ):
        if max_workers is None:
            max_workers = os.cpu_count() or 1
        self.base_seed = int(base_seed)
        for fn in warmup:
            fn()
        self.max_workers = max(1, int(max_workers))
        self.parallel = (
            self.max_workers > 1 and _fork_available() and not _IN_WORKER
        )
        self._pool = None
        if self.parallel:
            from repro.parallel.workers import process_pool

            self._pool = process_pool(self.max_workers, base_seed=self.base_seed)

    # -- mapping -----------------------------------------------------------

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
        """Apply ``fn`` to every item, returning results in input order.

        The guarantee consumers rely on: the result list is a pure
        function of (fn, items), independent of worker count and
        completion order.

        A task exception stops further dispatch, drains in-flight tasks,
        and re-raises in the caller — with every shared worker still
        alive for the next map.
        """
        items = list(items)
        if self._pool is None or self._pool.closed:
            return [fn(item) for item in items]
        return self._pool.map(fn, items, width=self.max_workers)

    def broadcast(self, fn: Callable[[], object], args: tuple = ()) -> List:
        """Run ``fn(*args)`` once in each worker this pool dispatches to.

        Used for warmups that must land in *worker* processes (e.g.
        regenerating a memoized binary so a later fan-out finds it hot).
        In-process pools just call ``fn`` once, preserving semantics.
        """
        if self._pool is None or self._pool.closed:
            return [fn(*args)]
        return self._pool.broadcast(fn, args, width=self.max_workers)

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Detach from the shared pool (idempotent).

        The persistent workers deliberately survive — they are owned by
        the process-wide pool and reaped at interpreter exit (or via
        :func:`repro.parallel.workers.shutdown_process_pool`).  After
        ``close()`` this ``RunPool`` runs maps in-process.
        """
        self._pool = None
        self.parallel = False

    def __enter__(self) -> "RunPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "fork" if self.parallel else "in-process"
        return f"RunPool(max_workers={self.max_workers}, {mode})"
