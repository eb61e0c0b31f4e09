"""Out-of-band span recording for the end-to-end benchmark.

Nothing under ``src/`` is instrumented.  :func:`install` replaces public
functions of the program with timing wrappers (every ``repro.*`` module
attribute that *is* the original function, so ``from x import f`` call
sites are covered too), and :func:`uninstall` puts the originals back.
Install before the worker pool forks: forked workers inherit the
wrappers.

Two kinds of wrapper:

* **boundary** calls (reconcile, pool map, decode, encode, ``run_cell``,
  ``run_vectorized`` ...) record one span each — name, start, end,
  parent span and the iteration's trace id;
* **hot** per-slice calls (``advance``, ``observe_slice``, tracepoint
  ``fire`` ...) only aggregate calls / inclusive / self time, so memory
  stays bounded however many slices a run simulates.

Every wrapper adds its elapsed time to its caller frame's child total;
self time is elapsed minus child time.  Worker processes record into
their own copy of the recorder: each pool task runs under a
``parallel.task`` span, and the task's spans and aggregates ride back
to the parent with its result, where they are re-parented under the
``parallel.map`` (or ``parallel.broadcast``) span that dispatched them.
All timestamps are ``perf_counter_ns`` readings (CLOCK_MONOTONIC, shared
by every process on the host), never wall-clock time.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Tuple

from repro.hwtrace.cache import process_decode_cache
from repro.util.rng import derive_seed

BOUNDARY = "span"
HOT = "hot"

#: span tuple: (trace_id, span_id, parent_id, name, start_ns, end_ns, pid, attrs)
Span = Tuple[str, int, Optional[int], str, int, int, int, Optional[dict]]


class Recorder:
    """Per-process span store, call aggregates and counters."""

    def __init__(self) -> None:
        self.clear()

    def clear(self) -> None:
        self.pid = os.getpid()
        #: open frames: [span id (inherited by hot frames), child ns]
        self.stack: List[list] = []
        self.spans: List[Span] = []
        #: name -> [calls, inclusive ns, self ns]
        self.calls: Dict[str, List[int]] = {}
        self.counters: Dict[str, float] = {}
        #: calls / counters absorbed from pool workers (kept apart: worker
        #: time overlaps the parent's wall time instead of adding to it)
        self.worker_calls: Dict[str, List[int]] = {}
        self.worker_counters: Dict[str, float] = {}
        self.trace_id = "0" * 32
        self._next_id = 0

    def new_span_id(self) -> int:
        self._next_id += 1
        return (self.pid << 40) | self._next_id

    def add_counter(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def absorb(self, payload) -> None:
        """Merge one worker task's recording under the open parent span."""
        _pid, spans, calls, counters = payload
        parent = self.stack[-1][0] if self.stack else None
        for _trace, span_id, span_parent, name, start, end, pid, attrs in spans:
            self.spans.append((
                self.trace_id, span_id,
                parent if span_parent is None else span_parent,
                name, start, end, pid, attrs,
            ))
        _merge_calls(self.worker_calls, calls)
        for name, value in counters.items():
            self.worker_counters[name] = self.worker_counters.get(name, 0) + value

    def export(self):
        """This process's recording, in the shape :meth:`absorb` takes."""
        return (self.pid, list(self.spans), dict(self.calls), dict(self.counters))


def _merge_calls(into: Dict[str, List[int]], calls: Dict[str, List[int]]) -> None:
    for name, (n, inclusive, self_ns) in calls.items():
        entry = into.setdefault(name, [0, 0, 0])
        entry[0] += n
        entry[1] += inclusive
        entry[2] += self_ns


#: The process's active recorder.  Module-global on purpose: a pool
#: worker reaches its own (forked) copy through it, which is the only way
#: a task wrapper can find the recorder across the fork boundary.
_RECORDER: Optional[Recorder] = None


def traced_call(recorder: Recorder, name: str, boundary: bool, fn, args, kwargs,
                pre=None, post=None, attrs=None):
    """Run ``fn`` as one timed call named ``name`` (see module docstring)."""
    stack = recorder.stack
    parent = stack[-1][0] if stack else None
    frame = [recorder.new_span_id() if boundary else parent, 0]
    state = pre(args) if pre is not None else None
    stack.append(frame)
    start = perf_counter_ns()
    try:
        result = fn(*args, **kwargs)
    finally:
        end = perf_counter_ns()
        stack.pop()
        elapsed = end - start
        if stack:
            stack[-1][1] += elapsed
        entry = recorder.calls.get(name)
        if entry is None:
            entry = recorder.calls[name] = [0, 0, 0]
        entry[0] += 1
        entry[1] += elapsed
        entry[2] += elapsed - frame[1]
        if boundary:
            recorder.spans.append((
                recorder.trace_id, frame[0], parent, name, start, end,
                recorder.pid, attrs(args) if attrs is not None else None,
            ))
    if post is not None:
        post(state, args, result, recorder)
    return result


def _wrapper(fn: Callable, name: str, boundary: bool, pre, post, attrs) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        recorder = _RECORDER
        if recorder is None:
            return fn(*args, **kwargs)
        return traced_call(recorder, name, boundary, fn, args, kwargs, pre, post, attrs)

    return wrapper


class _WorkerTask:
    """Picklable pool-task wrapper: run the task under a ``parallel.task``
    span in the worker and ship the worker's recording back with the
    result as ``(result, payload)``."""

    def __init__(self, fn: Callable):
        self.fn = fn

    def __call__(self, *args):
        recorder = _RECORDER
        if recorder is None:  # pragma: no cover - workers fork after install
            return self.fn(*args), (os.getpid(), [], {}, {})
        # drop whatever the fork inherited from the parent
        recorder.clear()
        before = cache_counts(process_decode_cache())
        result = traced_call(recorder, "parallel.task", True, self.fn, args, {})
        after = cache_counts(process_decode_cache())
        for key, old, new in zip(CACHE_COUNTS, before, after):
            recorder.add_counter(key, new - old)
        return result, recorder.export()


#: decode-cache counters the benchmark reports, as ``hwtrace.*`` counters
CACHE_COUNTS = (
    "hwtrace.cache_hits", "hwtrace.cache_misses",
    "hwtrace.cache_fallbacks", "hwtrace.cache_evictions",
)


def cache_counts(cache) -> Tuple[int, int, int, int]:
    """The :data:`CACHE_COUNTS` of one :class:`DecodeCache`, in order."""
    return cache.hits, cache.misses, cache.fallbacks, cache.evictions


def _pooled(method: Callable) -> Callable:
    """``WorkerPool.map``/``broadcast`` with task wrapping and absorption."""

    @functools.wraps(method)
    def call(pool, fn, *args, **kwargs):
        replies = method(pool, _WorkerTask(fn), *args, **kwargs)
        recorder = _RECORDER
        results = []
        for result, payload in replies:
            if recorder is not None:
                recorder.absorb(payload)
            results.append(result)
        return results

    return call


# -- counter hooks -----------------------------------------------------------


def _kernel_pre(args):
    system = args[0]
    return system.sim.events_fired, system.scheduler.total_context_switches


def _kernel_post(state, args, _result, recorder):
    system = args[0]
    recorder.add_counter("kernel.events", system.sim.events_fired - state[0])
    recorder.add_counter(
        "kernel.context_switches",
        system.scheduler.total_context_switches - state[1],
    )


def _build_pre(args):
    return args[0].materialized


def _build_post(was_built, _args, _result, recorder):
    if not was_built:
        recorder.add_counter("cluster.node_builds", 1)


def _encode_post(_state, _args, result, recorder):
    recorder.add_counter("hwtrace.encode_bytes", len(result))


def _decode_pre(args):
    return len(args[1])


def _decode_post(n_bytes, _args, result, recorder):
    recorder.add_counter("hwtrace.decode_bytes", n_bytes)
    recorder.add_counter("hwtrace.resyncs", result.resyncs)
    recorder.add_counter("hwtrace.bytes_skipped", result.bytes_skipped)


def _slot_post(_state, _args, outcome, recorder):
    recorder.add_counter("cluster.slots", 1)
    recorder.add_counter("cluster.slot_attempts", outcome.attempts)


def _engine_post(_state, _args, report, recorder):
    recorder.add_counter("services.engine_spans", report.spans_simulated)


def _cell_attrs(args):
    cell = args[0]
    return {"scheme": cell.scheme, "workload": cell.workload}


#: (name, module, attribute, kind, pre, post, attrs): the layer boundaries
#: the benchmark times.  Names are ``<layer>.<what>``; the layer is the
#: repro subpackage the function lives in.
TARGETS = (
    ("program.binary", "repro.program.workloads", "WorkloadProfile.binary", HOT, None, None, None),
    ("program.binary", "repro.program.workloads", "WorkloadProfile.path_model", HOT, None, None, None),
    ("program.advance", "repro.program.execution", "_ScriptedExecution.advance", HOT, None, None, None),
    ("kernel.run", "repro.kernel.system", "KernelSystem.run_for", BOUNDARY, _kernel_pre, _kernel_post, None),
    ("kernel.run", "repro.kernel.system", "KernelSystem.run_until_done", BOUNDARY, _kernel_pre, _kernel_post, None),
    ("kernel.fire", "repro.kernel.tracepoints", "TracepointRegistry.fire", HOT, None, None, None),
    ("hwtrace.observe", "repro.hwtrace.tracer", "CoreTracer.observe_slice", HOT, None, None, None),
    ("hwtrace.encode", "repro.hwtrace.decoder", "encode_trace", BOUNDARY, None, _encode_post, None),
    ("hwtrace.decode", "repro.hwtrace.decoder", "SoftwareDecoder.decode", BOUNDARY, _decode_pre, _decode_post, None),
    ("hwtrace.decode_chunk", "repro.hwtrace.decoder", "SoftwareDecoder.decode_chunk", HOT, None, None, None),
    ("analysis.histogram", "repro.hwtrace.decoder", "DecodedTrace.function_histogram", BOUNDARY, None, None, None),
    ("core.rco", "repro.core.rco", "RepetitionAwareCoverageOptimizer.orchestrate", BOUNDARY, None, None, None),
    ("core.rco", "repro.core.rco", "SpatialSampler.resample", BOUNDARY, None, None, None),
    ("tracing.cell", "repro.parallel.matrix", "run_cell", BOUNDARY, None, None, _cell_attrs),
    ("cluster.reconcile", "repro.cluster.master", "ClusterMaster.reconcile", BOUNDARY, None, None, None),
    ("cluster.shard", "repro.cluster.master", "_run_shard", BOUNDARY, None, None, None),
    ("cluster.slot", "repro.cluster.master", "_run_slot", BOUNDARY, None, _slot_post, None),
    ("cluster.trace_pod", "repro.cluster.node", "ClusterNode.trace_pod", BOUNDARY, None, None, None),
    ("cluster.node_run", "repro.cluster.node", "ClusterNode.run_for", BOUNDARY, None, None, None),
    ("cluster.node_build", "repro.cluster.node", "ClusterNode.materialize", HOT, _build_pre, _build_post, None),
    ("cluster.node_build", "repro.cluster.node", "ClusterNode.from_spec", BOUNDARY, None, None, None),
    ("streaming.submit", "repro.streaming.pipeline", "StreamingIngestor.submit", BOUNDARY, None, None, None),
    ("streaming.finish", "repro.streaming.pipeline", "StreamingIngestor.finish", BOUNDARY, None, None, None),
    ("faults.arm", "repro.faults.injector", "FaultInjector.arm_slot", BOUNDARY, None, None, None),
    ("faults.mangle", "repro.faults.injector", "FaultInjector.mangle", BOUNDARY, None, None, None),
    ("services.engine", "repro.services.engine", "run_vectorized", BOUNDARY, None, _engine_post, None),
    ("services.compile", "repro.services.engine", "CallProgram.compile", BOUNDARY, None, None, None),
    ("services.arrivals", "repro.services.workloads", "diurnal_arrival_times", BOUNDARY, None, None, None),
    ("services.campaign", "repro.services.workloads", "run_campaign", BOUNDARY, None, None, None),
    ("parallel.map", "repro.parallel.workers", "WorkerPool.map", BOUNDARY, None, None, None),
    ("parallel.broadcast", "repro.parallel.workers", "WorkerPool.broadcast", BOUNDARY, None, None, None),
)

_POOLED = frozenset({"parallel.map", "parallel.broadcast"})

#: (owner, attribute, original raw value) for every replacement made
_Installed = List[Tuple[object, str, object]]


def install(recorder: Recorder) -> _Installed:
    """Wrap every target and make ``recorder`` the process's recorder."""
    global _RECORDER
    if _RECORDER is not None:
        raise RuntimeError("span wrappers already installed")
    replaced: _Installed = []
    for name, module_name, qualname, kind, pre, post, attrs in TARGETS:
        module = importlib.import_module(module_name)
        owner_name, _, attribute = qualname.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        raw = vars(owner)[attribute]
        func = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
        body = _pooled(func) if name in _POOLED else func
        wrapped = _wrapper(body, name, kind == BOUNDARY, pre, post, attrs)
        if isinstance(raw, classmethod):
            wrapped = classmethod(wrapped)
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(wrapped)
        if owner is module:
            # every module that imported the function by name
            for loaded in [m for n, m in sorted(sys.modules.items())
                           if m is not None and (n == "repro" or n.startswith("repro."))]:
                for key, value in list(vars(loaded).items()):
                    if value is raw:
                        replaced.append((loaded, key, raw))
                        setattr(loaded, key, wrapped)
        else:
            replaced.append((owner, attribute, raw))
            setattr(owner, attribute, wrapped)
    _RECORDER = recorder
    return replaced


def uninstall(replaced: _Installed) -> None:
    """Restore every original replaced by :func:`install`."""
    global _RECORDER
    for owner, attribute, raw in reversed(replaced):
        setattr(owner, attribute, raw)
    _RECORDER = None


def trace_id_for(seed: int, workload: str, iteration: int) -> str:
    """W3C-format (32 hex digit) trace id of one iteration."""
    return "".join(
        f"{derive_seed(seed, workload, iteration, half):016x}" for half in ("hi", "lo")
    )


# -- output ------------------------------------------------------------------


def _attribute(key: str, value) -> dict:
    if isinstance(value, bool):
        return {"key": key, "value": {"boolValue": value}}
    if isinstance(value, int):
        return {"key": key, "value": {"intValue": str(value)}}
    if isinstance(value, float):
        return {"key": key, "value": {"doubleValue": value}}
    return {"key": key, "value": {"stringValue": str(value)}}


def write_otlp(path: str, spans: List[Span], resource: Dict[str, object]) -> None:
    """Write spans as OTLP/JSON ``resourceSpans`` (one resource, one scope)."""
    otlp_spans = []
    for trace_id, span_id, parent_id, name, start, end, pid, attrs in spans:
        span = {
            "traceId": trace_id,
            "spanId": f"{span_id:016x}",
            "name": name,
            "kind": 1,
            "startTimeUnixNano": str(start),
            "endTimeUnixNano": str(end),
            "attributes": [_attribute("process.pid", pid)] + [
                _attribute(key, value) for key, value in sorted((attrs or {}).items())
            ],
        }
        if parent_id is not None:
            span["parentSpanId"] = f"{parent_id:016x}"
        otlp_spans.append(span)
    document = {
        "resourceSpans": [{
            "resource": {
                "attributes": [
                    _attribute(key, value) for key, value in sorted(resource.items())
                ],
            },
            "scopeSpans": [{
                "scope": {"name": "benchmarks.e2e.spans", "version": "1"},
                "spans": otlp_spans,
            }],
        }]
    }
    with open(path, "w") as handle:
        json.dump(document, handle)
        handle.write("\n")


def layer_table(recorder: Recorder, iterations: int, wall_s: float) -> str:
    """Self time per span name, per iteration, parent and workers apart.

    The parent column is the blocking path: its self times plus the
    unattributed remainder add up to the iteration wall time.  Worker
    self times run concurrently with the parent's ``parallel.map``.
    """
    per_iteration = wall_s / iterations
    names = sorted(set(recorder.calls) | set(recorder.worker_calls))
    rows = [f"{'span':<22} {'parent self s':>13} {'share':>7} {'calls':>10}"
            f" {'worker self s':>13} {'calls':>10}"]
    parent_total = 0.0
    for name in names:
        n, _inclusive, self_ns = recorder.calls.get(name, (0, 0, 0))
        wn, _winclusive, wself_ns = recorder.worker_calls.get(name, (0, 0, 0))
        self_s = self_ns / 1e9 / iterations
        parent_total += self_s
        rows.append(
            f"{name:<22} {self_s:>13.4f} {self_s / per_iteration:>7.1%}"
            f" {n / iterations:>10.1f} {wself_ns / 1e9 / iterations:>13.4f}"
            f" {wn / iterations:>10.1f}"
        )
    rest = per_iteration - parent_total
    rows.append(f"{'(unattributed)':<22} {rest:>13.4f} {rest / per_iteration:>7.1%}")
    rows.append(f"{'iteration wall':<22} {per_iteration:>13.4f} {1:>7.1%}")
    return "\n".join(rows)
