"""Columnar service engine for open-loop and million-RPC service runs.

Every RPC of a run flows through one batched, array-based event loop:

* **Static call programs** — a request's call tree is a pure function
  of the graph, so it is compiled once (:class:`CallProgram`): DFS
  preorder slots, per-slot service ids, and precomputed
  completion-walk offsets.  Synchronous sequential RPC makes submit
  order DFS preorder, so slot ``j`` is the request's ``j``-th call.
* **Exact vectorized lognormals** — service times are
  ``max(1, int(math.exp(mu + sigma * normal_table[idx])))`` over a
  65536-entry common-random-numbers table, gathered as whole
  (request, call) matrices and exponentiated with ``np.exp``; entries
  within :data:`EXACT_BAND` of an integer, where a few ULP could flip
  the ``int`` truncation, are redone with ``math.exp``.  Two runs
  differing only in tracing inflation see identical noise indices.
* **Columnar event loop** — the heap holds one packed integer per
  *in-flight* call (``time``, submit sequence, and (request, slot)
  token packed into a single int), not one closure per event.  Worker
  reservation happens at submit time and queued calls can start
  *early* at a release (before their network arrival); see
  :func:`run_vectorized` for the full discipline.
* **SoA SpanLog** — spans live in int64 ``start/end/self`` columns,
  with a lazy :meth:`SpanLog.traces` compat view materializing
  :class:`~repro.services.rpc.RequestTrace` objects only on demand.

Tie order: events are ordered by (time, sequence), one global counter.
Request launches take sequence numbers ``0..n-1``, so an arrival wins a
same-nanosecond tie against any in-flight completion.  A call takes the
next number when it is submitted — to the event heap if a worker is
free, else to the service queue, which serves calls by (arrival,
sequence) — and a queued call takes a fresh one when a release starts
it.  Same-nanosecond completions run in that order.
"""

from __future__ import annotations

import heapq
import math
import zlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.services.graph import ServiceGraph
from repro.services.rpc import RequestTrace, Span, span_id_for
from repro.util.rng import derive_seed

#: multiplicative-hash constants of the common-random-numbers index:
#: a (request, service, call) triple always draws the same table entry
TABLE_BITS = 16
TABLE_MASK = (1 << TABLE_BITS) - 1
RID_MIX = 2654435761
SALT_MIX = 97
CALL_MIX = 7919
#: relative distance to an integer within which :func:`_lognormal_ns`
#: recomputes ``np.exp`` with ``math.exp`` (thousands of ULP)
EXACT_BAND = 2.0 ** -40



@dataclass(frozen=True)
class CallProgram:
    """One request's static call tree, compiled to flat slot tables.

    Slot ``j`` is the j-th call in DFS preorder (== submit order).
    ``table[j]`` drives the event loop without per-event graph walks::

        (service_id, is_leaf, next_slot, offset_ns, ends, next_service_id)

    For a non-leaf, ``next_slot``/``offset_ns`` are the first child and
    its network delay (arrival = own-processing end + offset).  For a
    leaf, they encode the *completion walk*: the next sibling call in
    DFS order and its arrival offset, or ``-1`` and the response-end
    offset when the walk closes the root.  ``ends`` (leaves only) lists
    ``(slot, offset_ns)`` for every span the walk closes — the leaf
    itself plus each ancestor it returns through as a last child.
    ``next_service_id`` is ``next_slot``'s service (-1 when none),
    denormalized so the submit path skips a second table lookup.
    """

    service_names: Tuple[str, ...]
    workers: Tuple[int, ...]
    n_slots: int
    sid: Tuple[int, ...]
    parent: Tuple[int, ...]
    net_in: Tuple[int, ...]
    table: Tuple[
        Tuple[int, bool, int, int, Optional[Tuple[Tuple[int, int], ...]], int], ...
    ]

    @classmethod
    def compile(cls, graph: ServiceGraph) -> "CallProgram":
        names = tuple(graph.services)
        index = {name: i for i, name in enumerate(names)}
        sid: List[int] = []
        parent: List[int] = []
        net_in: List[int] = []
        children: List[List[int]] = []

        def build(service: str, parent_slot: int, net: int) -> None:
            j = len(sid)
            sid.append(index[service])
            parent.append(parent_slot)
            net_in.append(net)
            children.append([])
            if parent_slot >= 0:
                children[parent_slot].append(j)
            for edge in graph.callees(service):
                for _ in range(edge.calls_per_request):
                    build(edge.callee, j, edge.network_ns)

        build(graph.root, -1, 0)

        table = []
        for j, kids in enumerate(children):
            if kids:
                c0 = kids[0]
                table.append((sid[j], False, c0, net_in[c0], None, sid[c0]))
                continue
            ends: List[Tuple[int, int]] = [(j, 0)]
            off = 0
            k = j
            while True:
                p = parent[k]
                if p < 0:
                    # walk closed the root: offset is response end - leaf end
                    table.append((sid[j], True, -1, off, tuple(ends), -1))
                    break
                off += net_in[k]  # return hop to the parent
                sibs = children[p]
                pos = sibs.index(k)
                if pos + 1 < len(sibs):
                    nxt = sibs[pos + 1]
                    table.append(
                        (sid[j], True, nxt, off + net_in[nxt], tuple(ends), sid[nxt])
                    )
                    break
                ends.append((p, off))  # k was the last child: p's span closes
                k = p
        return cls(
            service_names=names,
            workers=tuple(graph.services[n].workers for n in names),
            n_slots=len(sid),
            sid=tuple(sid),
            parent=tuple(parent),
            net_in=tuple(net_in),
            table=tuple(table),
        )


def normal_table_for(seed: int) -> np.ndarray:
    """The 65536-entry common-random-numbers table of ``seed``."""
    rng = np.random.default_rng(derive_seed(seed, "queueing"))
    return rng.standard_normal(1 << TABLE_BITS)


def _lognormal_ns(x: np.ndarray) -> np.ndarray:
    """``max(1, int(math.exp(v)))`` for every ``v`` in ``x``, as int64.

    ``np.exp`` is within a few ULP of ``math.exp``, so the truncations
    differ only within that error of an integer; such entries (and
    non-finite ones, so overflow raises) are redone with ``math.exp``.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        y = np.exp(x)
        # ``not (dist > band)`` also catches NaN and inf
        suspect = np.flatnonzero(~(np.abs(y - np.rint(y)) > y * EXACT_BAND))
    if len(suspect):
        y.flat[suspect] = [math.exp(v) for v in x.flat[suspect].tolist()]
    out = y.astype(np.int64)  # truncates toward zero, as int() does
    np.maximum(out, 1, out=out)
    return out


def service_time_matrix(
    graph: ServiceGraph,
    programs: Sequence[CallProgram],
    classes: Optional[np.ndarray],
    seed: int,
    n_requests: int,
) -> np.ndarray:
    """(n_requests, max_slots) int64 service times, CRN-exact.

    Entry ``[rid, j]`` is ``max(1, int(math.exp(mu + sigma * x)))`` for
    call ``j`` of request ``rid`` under the request's program class,
    with ``x`` the CRN table entry at index ``(rid * RID_MIX +
    crc32(service) * SALT_MIX + j * CALL_MIX) & TABLE_MASK`` and
    ``mu = log(inflated_mean) - sigma**2 / 2``.  Slots beyond a class's
    program are left at 1 and never visited by the event loop.
    """
    normal = normal_table_for(seed)
    k_max = max(p.n_slots for p in programs)
    svc = np.ones((n_requests, k_max), dtype=np.int64)
    rids = np.arange(n_requests, dtype=np.int64)
    for ci, prog in enumerate(programs):
        rows = rids if classes is None else rids[classes == ci]
        if len(rows) == 0:
            continue
        mix = rows * RID_MIX
        for j, s in enumerate(prog.sid):
            spec = graph.services[prog.service_names[s]]
            sigma = spec.service_time_sigma
            mu = math.log(spec.inflated_mean()) - 0.5 * sigma * sigma
            idx = (mix + zlib.crc32(spec.name.encode()) * SALT_MIX + j * CALL_MIX) & TABLE_MASK
            svc[rows, j] = _lognormal_ns(mu + sigma * normal[idx])
    return svc


@dataclass
class SpanLog:
    """SoA span storage over a contiguous request-id window.

    Columns are flat ``(rid_hi - rid_lo) * max_slots`` int64 arrays in
    (request, slot) order; slot layout comes from the per-class
    :class:`CallProgram`.  ``self_ns`` is the service-time matrix
    itself — no extra column is written in the hot loop.
    """

    rid_lo: int
    rid_hi: int
    programs: Tuple[CallProgram, ...]
    classes: Optional[np.ndarray]  # window-relative, None == all class 0
    start_ns: np.ndarray
    end_ns: np.ndarray
    self_ns: np.ndarray

    @property
    def max_slots(self) -> int:
        return max(p.n_slots for p in self.programs)

    def _program_of(self, rid: int) -> CallProgram:
        if self.classes is None:
            return self.programs[0]
        return self.programs[int(self.classes[rid - self.rid_lo])]

    def __len__(self) -> int:
        if self.classes is None:
            return (self.rid_hi - self.rid_lo) * self.programs[0].n_slots
        counts = np.bincount(self.classes, minlength=len(self.programs))
        return int(sum(c * p.n_slots for c, p in zip(counts, self.programs)))

    def columns(self) -> Dict[str, np.ndarray]:
        """Flattened valid spans as parallel int64 columns."""
        k = self.max_slots
        n_win = self.rid_hi - self.rid_lo
        rid_col = np.repeat(np.arange(self.rid_lo, self.rid_hi, dtype=np.int64), k)
        slot_col = np.tile(np.arange(k, dtype=np.int64), n_win)
        sid_col = np.empty(n_win * k, dtype=np.int64)
        parent_col = np.full(n_win * k, -1, dtype=np.int64)
        valid = np.zeros(n_win * k, dtype=bool)
        for ci, prog in enumerate(self.programs):
            if self.classes is None:
                rows = np.arange(n_win)
            else:
                rows = np.flatnonzero(self.classes == ci)
            if len(rows) == 0:
                continue
            base = rows * k
            for j in range(prog.n_slots):
                sid_col[base + j] = prog.sid[j]
                parent_col[base + j] = prog.parent[j]
                valid[base + j] = True
        return {
            "request_id": rid_col[valid],
            "slot": slot_col[valid],
            "service_id": sid_col[valid],
            "parent_slot": parent_col[valid],
            "start_ns": self.start_ns[valid],
            "end_ns": self.end_ns[valid],
            "self_ns": self.self_ns[valid],
        }

    def traces(self) -> List[RequestTrace]:
        """Materialize :class:`RequestTrace` objects (the compat view).

        Span ids derive from (request_id, slot) via
        :func:`~repro.services.rpc.span_id_for`, so the view is
        byte-deterministic across runs and worker placements.
        """
        k = self.max_slots
        out: List[RequestTrace] = []
        for rid in range(self.rid_lo, self.rid_hi):
            prog = self._program_of(rid)
            base = (rid - self.rid_lo) * k
            spans = []
            for j in range(prog.n_slots):
                p = prog.parent[j]
                spans.append(Span(
                    service=prog.service_names[prog.sid[j]],
                    start_ns=int(self.start_ns[base + j]),
                    end_ns=int(self.end_ns[base + j]),
                    parent=span_id_for(rid, p) if p >= 0 else None,
                    self_ns=int(self.self_ns[base + j]),
                    span_id=span_id_for(rid, j),
                ))
            out.append(RequestTrace(request_id=rid, spans=spans))
        return out


def run_vectorized(
    graph: ServiceGraph,
    arrival_times: np.ndarray,
    seed: int,
    warmup_fraction: float = 0.1,
    keep_traces: int = 0,
    programs: Optional[Sequence[CallProgram]] = None,
    classes: Optional[np.ndarray] = None,
    transform: Optional[Callable[[np.ndarray], np.ndarray]] = None,
):
    """Run the columnar event loop; returns a ``LatencyReport``.

    Discipline:

    * a worker is *reserved at submit time* — ``busy`` increments when
      the caller issues the RPC, before the network flight;
    * if no worker is free, the call enters the service's queue keyed
      by ``(future_arrival, submit_seq)``;
    * at each completion the worker is released and the queue head (if
      any) starts *immediately* — possibly before its own arrival
      time;
    * only then is the completing request's next call submitted
      (first child, next sibling from the completion walk, or the
      response recorded).

    Span columns are kept for the ``keep_traces`` requests after
    warmup (the report's ``span_log``).  ``programs``/``classes`` run
    heterogeneous request classes (retry storms) through per-class
    compiled programs; all programs must share the graph's service set.  ``transform`` may rescale the
    service-time matrix in place (hot-key skew) before the run.
    """
    from repro.services.latency import LatencyReport

    if not 0.0 <= warmup_fraction < 1.0:
        raise ValueError(
            f"warmup_fraction must be in [0, 1), got {warmup_fraction!r}"
        )
    arrival_times = np.asarray(arrival_times, dtype=np.int64)
    n = len(arrival_times)
    if programs is None:
        programs = (CallProgram.compile(graph),)
    for prog in programs[1:]:
        if prog.service_names != programs[0].service_names:
            raise ValueError("all programs must share one service set")
    warmup_count = int(n * warmup_fraction)
    if n - warmup_count <= 0:
        raise RuntimeError("no requests completed after warmup")

    svc_np = service_time_matrix(graph, programs, classes, seed, n)
    if transform is not None:
        svc_np = transform(svc_np)

    k = max(p.n_slots for p in programs)
    rec_lo = warmup_count
    rec_hi = min(n, warmup_count + max(0, keep_traces))
    n_rec = rec_hi - rec_lo
    starts_rec = np.zeros(n_rec * k, dtype=np.int64) if n_rec else None
    ends_rec = np.zeros(n_rec * k, dtype=np.int64) if n_rec else None

    # -- hot loop ---------------------------------------------------------
    # locals only: every name below is a plain list/int lookup.  Every
    # heap entry is ONE packed int — ``((time << seq_bits | seq)
    # << tok_bits) | tok`` with ``tok = rid << kbits | slot`` — so a
    # heap sift is a single int compare and a pop allocates nothing but
    # the decode shifts.  ``seq`` is a global submit-order counter:
    # launches take 0..n-1 (winning same-ns ties against sim events)
    # and service queues share the counter, so queued calls are served
    # in (arrival, seq) order.
    kbits = max(1, (k - 1).bit_length())
    kmask = (1 << kbits) - 1
    tok_bits = kbits + max(1, (n - 1).bit_length())
    seq_bits = (n + 2 * n * k + 2).bit_length()
    st_bits = seq_bits + tok_bits
    tok_mask = (1 << tok_bits) - 1
    tabs = [p.table for p in programs]
    tab0 = tabs[0]
    cls_l = classes.tolist() if classes is not None else None
    # free worker count per service (workers - busy)
    free_l = list(programs[0].workers)
    n_services = len(free_l)
    qheaps: List[List[int]] = [[] for _ in range(n_services)]
    arr_l = arrival_times.tolist()
    resp_np = np.zeros(n, dtype=np.int64)
    # request rows of the service-time matrix as plain int lists; small
    # runs pre-materialize, big runs materialize lazily and free rows at
    # request completion to bound resident memory
    if n * k <= (1 << 22):
        svc_rows: List[Optional[List[int]]] = svc_np.tolist()
    else:
        svc_rows = [None] * n
    heap: List[int] = []
    push = heapq.heappush
    pop = heapq.heappop
    seq = n
    ptr = 0
    # next launch key, recomputed only when a request launches — the
    # per-event cost is a single int compare against the heap head
    nlk = ((arr_l[0] << seq_bits) << tok_bits) if n else -1

    while True:
        if heap:
            if 0 <= nlk <= heap[0]:
                launch = True
            else:
                launch = False
        elif nlk >= 0:
            launch = True
        else:
            break
        if launch:
            # launch: submit the root call of request `ptr` at its arrival
            rid = ptr
            arrive = arr_l[ptr]
            ptr += 1
            nlk = ((((arr_l[ptr] << seq_bits) | ptr) << tok_bits)
                   if ptr < n else -1)
            tab = tab0 if cls_l is None else tabs[cls_l[rid]]
            nj = 0
            sid2 = tab[0][0]
            tok2 = rid << kbits
        else:
            hkey = pop(heap)
            tok = hkey & tok_mask
            e = hkey >> st_bits
            rid = tok >> kbits
            j = tok & kmask
            tab = tab0 if cls_l is None else tabs[cls_l[rid]]
            sid_j, is_leaf, nj, off, ends, sid2 = tab[j]
            # release the worker, then start the queue head (it may
            # start before its own arrival)
            free_l[sid_j] += 1
            q = qheaps[sid_j]
            if q:
                qtok = pop(q) & tok_mask
                free_l[sid_j] -= 1
                qrid = qtok >> kbits
                qj = qtok & kmask
                qrow = svc_rows[qrid]
                if qrow is None:
                    qrow = svc_rows[qrid] = svc_np[qrid].tolist()
                push(heap, ((((e + qrow[qj]) << seq_bits) | seq) << tok_bits) | qtok)
                seq += 1
                if qrid < rec_hi and qrid >= rec_lo:
                    starts_rec[(qrid - rec_lo) * k + qj] = e
            if is_leaf:
                if rid < rec_hi and rid >= rec_lo:
                    base = (rid - rec_lo) * k
                    for s2, o2 in ends:
                        ends_rec[base + s2] = e + o2
                if nj < 0:
                    # completion walk closed the root: request done
                    resp_np[rid] = e + off
                    svc_rows[rid] = None
                    continue
            arrive = e + off
            tok2 = tok - j + nj
        # submit slot `nj` of request `rid` arriving at `arrive`
        if free_l[sid2] > 0:
            free_l[sid2] -= 1
            row = svc_rows[rid]
            if row is None:
                row = svc_rows[rid] = svc_np[rid].tolist()
            push(heap, ((((arrive + row[nj]) << seq_bits) | seq) << tok_bits) | tok2)
            seq += 1
            if rid < rec_hi and rid >= rec_lo:
                starts_rec[(rid - rec_lo) * k + nj] = arrive
        else:
            push(qheaps[sid2], (((arrive << seq_bits) | seq) << tok_bits) | tok2)
            seq += 1
    if seq >= (1 << seq_bits):  # would corrupt packed keys
        raise OverflowError("event sequence overflowed its key field")
    stuck = [programs[0].service_names[i] for i, q in enumerate(qheaps) if q]
    if stuck:  # the heap is drained, so these queues will never move
        raise RuntimeError(f"requests left unfinished, queued at {', '.join(stuck)}")

    # -- assembly ---------------------------------------------------------
    responses = resp_np[warmup_count:] - arrival_times[warmup_count:]
    duration_ns = int(arrival_times[-1] - arrival_times[warmup_count]) or 1

    names = programs[0].service_names
    busy_ns = dict.fromkeys(names, 0)
    if classes is None:
        class_rows: List[Optional[np.ndarray]] = [None]
    else:
        class_rows = [np.flatnonzero(classes == ci) for ci in range(len(programs))]
    spans_simulated = 0
    for ci, prog in enumerate(programs):
        rows = class_rows[ci]
        if rows is not None and len(rows) == 0:
            continue
        block = svc_np if rows is None else svc_np[rows]
        spans_simulated += len(block) * prog.n_slots
        for j in range(prog.n_slots):
            busy_ns[names[prog.sid[j]]] += int(block[:, j].sum())

    span_log = None
    if n_rec:
        win_classes = None
        if classes is not None:
            win_classes = classes[rec_lo:rec_hi]
        span_log = SpanLog(
            rid_lo=rec_lo,
            rid_hi=rec_hi,
            programs=tuple(programs),
            classes=win_classes,
            start_ns=starts_rec,
            end_ns=ends_rec,
            self_ns=svc_np[rec_lo:rec_hi].reshape(-1),
        )

    return LatencyReport(
        response_times_ns=responses,
        completed=n - warmup_count,
        duration_ns=duration_ns,
        service_busy_ns=busy_ns,
        service_workers=dict(zip(names, programs[0].workers)),
        span_log=span_log,
        spans_simulated=spans_simulated,
    )
