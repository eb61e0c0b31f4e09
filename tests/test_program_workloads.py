"""Unit tests for the workload library."""

import pytest

from repro.program.execution import ProgramExecution, ServerLoopExecution
from repro.program.workloads import (
    WORKLOADS,
    ProvisioningMode,
    WorkloadKind,
    get_workload,
    realworld_workloads,
    variant,
)


def _of_kind(kind):
    return [p for p in WORKLOADS.values() if p.kind is kind]


class TestLibraryContents:
    def test_table1_compute_set(self):
        names = {p.name for p in _of_kind(WorkloadKind.COMPUTE)}
        assert names == {"pb", "gcc", "mcf", "om", "xa", "x264", "de", "le", "ex", "xz"}

    def test_table1_online_set(self):
        assert {p.name for p in _of_kind(WorkloadKind.ONLINE)} == {"mc", "ng", "ms"}

    def test_realworld_sets(self):
        assert [p.name for p in realworld_workloads()] == [
            "Search1", "Search2", "Cache", "Pred", "Agent",
        ]
        extended = realworld_workloads(include_case_study=True)
        assert {p.name for p in extended} >= {"Matching", "Recommend"}

    def test_get_workload_unknown(self):
        with pytest.raises(KeyError):
            get_workload("nope")

    def test_xz_is_multithreaded(self):
        assert get_workload("xz").n_threads == 4

    def test_provisioning_modes(self):
        assert get_workload("Search1").provisioning is ProvisioningMode.CPU_SET
        assert get_workload("Search2").provisioning is ProvisioningMode.CPU_SHARE


class TestDerivedArtifacts:
    def test_binary_memoized(self):
        assert get_workload("om").binary() is get_workload("om").binary()

    def test_path_model_memoized(self):
        assert get_workload("om").path_model() is get_workload("om").path_model()

    def test_engine_types_by_kind(self):
        assert isinstance(get_workload("om").make_engine(0), ProgramExecution)
        assert isinstance(get_workload("mc").make_engine(0), ServerLoopExecution)
        assert isinstance(get_workload("Search1").make_engine(0), ServerLoopExecution)

    def test_engines_differ_per_thread(self):
        profile = get_workload("xz")
        a = profile.make_engine(0, seed=1)
        b = profile.make_engine(1, seed=1)
        # different seeds -> different syscall scripts, same path model
        assert a.path_model is b.path_model

    def test_work_total_scales_with_seconds(self):
        om = get_workload("om")
        assert om.work_total == pytest.approx(
            om.work_seconds * 1e9 * om.nominal_ips
        )

    def test_complexity_score_ordering(self):
        # the big prioritized production service is more complex than a
        # small low-priority SPEC benchmark
        assert (
            get_workload("Search1").complexity_score()
            > get_workload("ex").complexity_score()
        )

    def test_complexity_score_bounded(self):
        for profile in WORKLOADS.values():
            assert 0.0 <= profile.complexity_score() <= 1.0

    def test_variant_override(self):
        base = get_workload("om")
        tweaked = variant(base, n_threads=2)
        assert tweaked.n_threads == 2
        assert base.n_threads == 1


class TestSpawn:
    def test_spawn_creates_threads(self, small_system):
        process = get_workload("xz").spawn(small_system, cpuset=[0, 1, 2, 3])
        assert len(process.threads) == 4
        assert all(t.cpuset == (0, 1, 2, 3) for t in process.threads)
        assert process.profile.name == "xz"

    def test_spawn_registers_process(self, small_system):
        process = get_workload("om").spawn(small_system)
        assert small_system.process_by_name("om") is process


class TestCpuWeights:
    """Figure 2: latency-critical pods outrank best-effort ones."""

    def test_profile_weights(self):
        assert get_workload("Search1").cpu_weight == 4096
        assert get_workload("Cache").cpu_weight == 256
        assert get_workload("om").cpu_weight == 1024

    def test_weights_reach_threads(self, small_system):
        process = get_workload("Search1").spawn(small_system, cpuset=[0, 1, 2, 3])
        assert all(t.weight == 4096 for t in process.threads)

    def test_lc_outruns_be_under_contention(self):
        """Co-located on the same cores, the LC pod gets the larger CPU
        share in proportion to its weight."""
        from repro.kernel.system import KernelSystem, SystemConfig
        from repro.program.workloads import variant
        from repro.util.units import MSEC

        system = KernelSystem(SystemConfig.small_node(8, seed=3))
        lc = variant(get_workload("Search2"), name="LC", n_threads=2,
                     cpu_weight=4096)
        be = variant(get_workload("Cache"), name="BE", n_threads=2,
                     cpu_weight=256)
        lc_proc = lc.spawn(system, cpuset=[0, 1], seed=3)
        be_proc = be.spawn(system, cpuset=[0, 1], seed=4)
        system.run_for(300 * MSEC)
        lc_cpu = sum(t.cpu_ns for t in lc_proc.threads)
        be_cpu = sum(t.cpu_ns for t in be_proc.threads)
        assert lc_cpu > 1.5 * be_cpu


class TestVariantCaching:
    """variant() semantics around the per-name binary/path caches."""

    def test_same_name_variant_shares_binary(self):
        base = get_workload("om")
        tweaked = variant(base, nominal_ips=9.9)  # not shape-affecting
        assert tweaked.binary() is base.binary()
        assert tweaked.path_model() is base.path_model()

    def test_renamed_variant_gets_own_binary(self):
        base = get_workload("om")
        renamed = variant(base, name="om-renamed")
        assert renamed.binary() is not base.binary()
        assert renamed.binary().name == "om-renamed"

    def test_variant_does_not_pollute_registry(self):
        before = set(WORKLOADS)
        variant(get_workload("om"), name="om-ephemeral")
        assert set(WORKLOADS) == before
