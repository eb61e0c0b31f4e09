"""Property-based tests on EXIST core invariants (UMA plans, engines)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ExistConfig
from repro.core.uma import CoresetSampler
from repro.kernel.system import KernelSystem, SystemConfig
from repro.program.execution import ProgramExecution
from repro.program.workloads import get_workload
from repro.util.units import MIB, MSEC


# ---------------------------------------------------------------------------
# UMA coreset plans
# ---------------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(
    ratio=st.floats(0.05, 1.0),
    budget_mib=st.integers(16, 500),
    seed=st.integers(0, 1000),
)
def test_share_plan_invariants(ratio, budget_mib, seed):
    """For any sampling ratio/budget/seed: TCS ⊆ MCS, TCS non-empty,
    per-core buffers clamped, budget respected within the clamp floor."""
    config = ExistConfig(
        core_sampling_ratio=min(max(ratio, 0.01), 1.0),
        session_budget_bytes=budget_mib * MIB,
        node_budget_bytes=max(500 * MIB, budget_mib * MIB),
    )
    system = KernelSystem(SystemConfig.small_node(8, seed=seed % 7))
    target = get_workload("Search2").spawn(system, seed=seed % 7)
    system.run_for(20 * MSEC)
    plan = CoresetSampler(config, seed=seed).plan(system, target)

    assert plan.traced_cores, "TCS must never be empty"
    assert set(plan.traced_cores) <= set(plan.mapped_cores)
    assert len(set(plan.traced_cores)) == len(plan.traced_cores)
    for size in plan.buffer_bytes.values():
        assert config.per_core_buffer_min <= size <= config.per_core_buffer_max
    floor = len(plan.traced_cores) * config.per_core_buffer_min
    assert plan.total_bytes <= max(config.session_budget_bytes, floor) + MIB


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 100))
def test_cpu_set_plan_is_exactly_the_cpuset(seed):
    config = ExistConfig()
    system = KernelSystem(SystemConfig.small_node(8, seed=seed % 5))
    target = get_workload("Search1").spawn(system, cpuset=[0, 1, 2, 3], seed=seed)
    plan = CoresetSampler(config, seed=seed).plan(system, target)
    assert plan.traced_cores == (0, 1, 2, 3)


# ---------------------------------------------------------------------------
# execution engines
# ---------------------------------------------------------------------------

@settings(max_examples=20, deadline=None)
@given(
    slices=st.lists(st.integers(1_000, 3_000_000), min_size=1, max_size=40),
    work_rate=st.floats(0.2, 1.0),
)
def test_engine_progress_depends_only_on_total_budget(tiny_path_factory, slices, work_rate):
    """Any slicing of the same total budget yields identical progress and
    path position — the invariant every accuracy experiment rests on."""
    path = tiny_path_factory()
    total = sum(slices)

    sliced = ProgramExecution(
        path_model=path, work_total=1e12, nominal_ips=2.0,
        branch_per_instr=0.15, syscall_interval=1e18, seed=3,
    )
    for budget in slices:
        sliced.advance(budget, work_rate)

    bulk = ProgramExecution(
        path_model=path, work_total=1e12, nominal_ips=2.0,
        branch_per_instr=0.15, syscall_interval=1e18, seed=3,
    )
    bulk.advance(total, work_rate)

    assert sliced.instructions_done == pytest.approx(bulk.instructions_done)
    assert sliced.event_index == bulk.event_index


@settings(max_examples=20, deadline=None)
@given(
    budget=st.integers(10_000, 5_000_000),
    rate_a=st.floats(0.3, 1.0),
    rate_b=st.floats(0.3, 1.0),
)
def test_engine_work_scales_linearly_with_rate(tiny_path_factory, budget, rate_a, rate_b):
    path = tiny_path_factory()

    def run(rate):
        engine = ProgramExecution(
            path_model=path, work_total=1e12, nominal_ips=2.0,
            branch_per_instr=0.15, syscall_interval=1e18, seed=3,
        )
        return engine.advance(budget, rate).work_done

    assert run(rate_a) / run(rate_b) == pytest.approx(rate_a / rate_b, rel=1e-6)


@pytest.fixture(scope="module")
def tiny_path_factory(request):
    """Session path model factory usable inside hypothesis tests."""
    from repro.program.binary import FunctionCategory
    from repro.program.generator import BinaryShape, generate_binary
    from repro.program.path import PathModel

    binary = generate_binary(
        "prop-core", BinaryShape(n_functions=6,
                                 category_weights={FunctionCategory.APP: 1.0}),
        seed=44,
    )
    path = PathModel(binary, seed=44, length=4096, stride=1024)
    return lambda: path
