"""FaultInjector: arms a :class:`FaultPlan` against a reconciling cluster.

The master drives reconciliation in *waves* (initial attempt + retries).
Before each wave's tracing window the injector picks the wave's timed
fault victims and then arms each traced slot:

* schedules node crashes and pod kills at ``at_fraction`` of the window
  (timed faults are one-shot: a crash spec fires in one wave only, so
  retry waves can actually make progress);
* squeezes ToPA outputs via :meth:`ToPAOutput.constrain`, forcing the
  compulsory stop-on-full path (§3.3) to engage early;
* taps the OTC sched-switch side channel to drop or delay 24-byte
  five-tuple records.

At upload time :meth:`mangle` corrupts or truncates the raw trace bytes
*before* they reach the object store, so the sequential and pooled decode
paths see byte-identical degraded input.

All randomness comes from :class:`~repro.util.rng.RngFactory` streams
keyed by stable logical names (spec index, node name, upload label, wave
number) — never by process-global ids — so an identical plan + seed
replays identically, including across ``jobs=1`` vs ``jobs=N``.
"""

from __future__ import annotations

from fnmatch import fnmatch
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

import numpy as np

from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.faults.report import DegradationReport
from repro.util.rng import RngFactory
from repro.util.units import MSEC

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import ClusterNode
    from repro.cluster.pod import Pod
    from repro.core.otc import TracingSession

#: one coordinator-assigned timed fault: (kind, pod_uid, at_fraction);
#: ``pod_uid`` is empty for node-scoped faults (crash)
TimedAssignment = Tuple[str, str, float]


class FaultInjector:
    """Runtime executor of one seeded fault plan."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.report = DegradationReport(faults=plan.render(), fault_seed=plan.seed)
        self._rngs = RngFactory(plan.seed)
        #: indices of one-shot (timed) specs that already fired
        self._consumed: set = set()

    # -- slot lifecycle -----------------------------------------------------------
    #
    # The control plane splits the injector's job in two.  The
    # *coordinator* picks timed-fault victims (a global choice: one rng
    # draw over all candidate slots) via :meth:`assign_timed`; the *slot
    # runners* — possibly in pool workers, each with its own injector
    # built from the same plan — arm the assignments plus all node-local
    # faults via :meth:`arm_slot`.  Every slot-local stream is keyed by
    # stable logical names (node name, wave number, upload label), so a
    # worker-side injector draws byte-identical faults to an in-process
    # one.

    def assign_timed(
        self,
        slots: Sequence[Tuple[str, str, str]],
        window_ns: int,
    ) -> dict:
        """Pick timed-fault victims for one dispatch round.

        ``slots`` are ``(node_name, pod_uid, label)`` triples in slot
        order.  Victim choice consumes each one-shot spec index once,
        draws from the spec's rng stream and emits the schedule notes;
        returns ``{node_name: [TimedAssignment, ...]}`` for the slot
        runners to arm locally.
        """
        assignments: dict = {}
        for index, spec in enumerate(self.plan.specs):
            if index in self._consumed:
                continue
            if spec.kind is FaultKind.NODE_CRASH:
                names = sorted({
                    name for name, _, _ in slots
                    if fnmatch(name, spec.target)
                })
                count = min(int(spec.magnitude), len(names))
                if count <= 0:
                    continue
                self._consumed.add(index)
                rng = self._rngs.stream("crash", index)
                picked = rng.choice(len(names), size=count, replace=False)
                for i in sorted(int(p) for p in picked):
                    name = names[i]
                    assignments.setdefault(name, []).append(
                        ("crash", "", spec.at_fraction)
                    )
                    self.report.note(
                        f"crash scheduled on {name}"
                        f" at +{spec.at_fraction:g} window"
                    )
            elif spec.kind is FaultKind.POD_KILL:
                candidates = [
                    slot for slot in slots if fnmatch(slot[0], spec.target)
                ]
                count = min(int(spec.magnitude), len(candidates))
                if count <= 0:
                    continue
                self._consumed.add(index)
                rng = self._rngs.stream("pod-kill", index)
                picked = rng.choice(len(candidates), size=count, replace=False)
                for i in sorted(int(p) for p in picked):
                    name, pod_uid, label = candidates[i]
                    assignments.setdefault(name, []).append(
                        ("pod-kill", pod_uid, spec.at_fraction)
                    )
                    self.report.note(
                        f"pod kill scheduled for {label}"
                        f" at +{spec.at_fraction:g} window"
                    )
        return assignments

    def arm_slot(
        self,
        node: "ClusterNode",
        pod: "Pod",
        session: "TracingSession",
        label: str,
        wave: int,
        window_ns: int,
        assignments: Sequence[TimedAssignment] = (),
        report: Optional[DegradationReport] = None,
    ) -> None:
        """Arm one slot's faults before its tracing window.

        Schedules the coordinator's timed assignments at their window
        fraction, squeezes ToPA outputs, and taps the node's sched
        channel — all accounting lands in ``report`` (the slot's scratch
        report under sharded reconcile) instead of ``self.report``.
        """
        report = report if report is not None else self.report
        for kind, pod_uid, at_fraction in assignments:
            at_ns = node.now + int(at_fraction * window_ns)
            if kind == "crash":
                node.schedule_crash(at_ns)
            elif kind == "pod-kill" and pod_uid == pod.uid:
                node.schedule_pod_kill(pod, session, at_ns)
        for spec in self.plan.specs_of(FaultKind.BUFFER_EXHAUST):
            if fnmatch(node.name, spec.target):
                self._squeeze_session(spec, node, session, label, report)
        self._tap_node(node, wave, report)

    def disarm_slot(self, node: "ClusterNode") -> None:
        """Remove this slot's sched tap after its window."""
        otc = node.facility.otc
        if otc is not None:
            otc.sched_fault = None

    # -- buffer pressure ---------------------------------------------------------

    def _squeeze_session(
        self,
        spec: FaultSpec,
        node: "ClusterNode",
        session: "TracingSession",
        label: str,
        report: DegradationReport,
    ) -> None:
        squeezed = 0
        for core_id in session.plan.traced_cores:
            tracer = node.facility.tracers.get(core_id)
            output = tracer.output if tracer is not None else None
            if output is None:
                continue
            if output.constrain(spec.magnitude) > 0:
                squeezed += 1
        if squeezed:
            report.buffers_exhausted += squeezed
            report.note(
                f"squeezed {squeezed} ToPA outputs of {label}"
                f" by {spec.magnitude:g}"
            )

    # -- sched side channel -------------------------------------------------------

    def _tap_node(
        self, node: "ClusterNode", wave: int, report: DegradationReport
    ) -> None:
        drop_specs = self.plan.specs_of(FaultKind.SCHED_DROP)
        delay_specs = self.plan.specs_of(FaultKind.SCHED_DELAY)
        if not drop_specs and not delay_specs:
            return
        drop_p = max((s.magnitude for s in drop_specs), default=0.0)
        delay_ns = int(max((s.magnitude for s in delay_specs), default=0.0) * MSEC)
        otc = node.facility.otc
        if otc is None:
            return
        rng = self._rngs.stream("sched", node.name, wave)

        def fault(session, five_tuple, _rng=rng):
            if drop_p and float(_rng.random()) < drop_p:
                report.sched_records_dropped += 1
                return None
            if delay_ns:
                report.sched_records_delayed += 1
                return (five_tuple[0] + delay_ns,) + tuple(five_tuple[1:])
            return five_tuple

        otc.sched_fault = fault

    # -- data-path mangling -------------------------------------------------------

    def mangle(
        self,
        raw: bytes,
        label: str,
        report: Optional[DegradationReport] = None,
    ) -> Tuple[bytes, int]:
        """Corrupt/truncate one uploaded trace; returns (bytes, dropped).

        ``dropped`` counts only bytes *removed* here (truncation).
        Corrupted-in-place bytes are not counted — the resilient decoder's
        ``bytes_skipped`` accounts for what the corruption actually cost,
        avoiding double counting.  The corruption stream is keyed only by
        (plan seed, label), so any injector built from the same plan —
        in-process or in a pool worker — mangles identically.
        """
        report = report if report is not None else self.report
        dropped = 0
        data = raw
        for spec in self.plan.specs_of(FaultKind.TRUNCATE):
            cut = int(len(data) * spec.magnitude)
            if cut > 0:
                data = data[: len(data) - cut]
                dropped += cut
                report.note(f"truncated {cut} bytes from {label}")
        for spec in self.plan.specs_of(FaultKind.CORRUPT):
            n = int(len(data) * spec.magnitude)
            if n <= 0 or not data:
                continue
            rng = self._rngs.stream("corrupt", label)
            positions = rng.integers(0, len(data), size=n)
            flips = rng.integers(1, 256, size=n)
            # XOR commutes and ``.at`` is unbuffered, so a position drawn
            # twice takes both flips, as a byte-by-byte loop would
            mutable = np.frombuffer(data, dtype=np.uint8).copy()
            np.bitwise_xor.at(mutable, positions, flips.astype(np.uint8))
            data = mutable.tobytes()
            report.note(f"corrupted {n} bytes of {label}")
        if dropped:
            report.bytes_dropped += dropped
        return data, dropped
