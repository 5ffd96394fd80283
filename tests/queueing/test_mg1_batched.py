"""Compiled M/G/1 recurrence vs the scalar reference loop.

With the fastpath on, ``_run`` hands the service model's program and the
run's generator to the compiled kernel, which draws every service time
live from the same stream the scalar loop would consume.  Its contract
is bit identity: every ``QueueResult`` field — wait/service arrays, idle
periods, busy time, window duration — must equal the scalar loop's, for
every service model with a program, and models without one must fall
back to the loop.  Randomized programs are in
``tests/uarch/test_queue_kernel_differential.py``.
"""

import dataclasses

import numpy as np
import pytest

from repro import prof
from repro.common.distributions import (
    Deterministic,
    Exponential,
    LogNormal,
    Mixture,
    Pareto,
    ScaledDistribution,
    SumDistribution,
    Uniform,
    is_stream_safe,
)
from repro.harness.metrics import DesignServiceModel
from repro.queueing import program
from repro.queueing.mg1 import (
    DistributionService,
    MG1Simulator,
    RestartPenaltyService,
)
from repro.queueing.program import program_of
from repro.uarch import fastpath
from repro.workloads import microservices as ms

pytestmark = pytest.mark.skipif(
    not fastpath.is_available(), reason="no C compiler for the fastpath kernel"
)

SAMPLER_OPS = [
    program.EXPONENTIAL, program.UNIFORM, program.LOGNORMAL, program.PARETO
]


@pytest.fixture(autouse=True)
def _restore_mode():
    yield
    fastpath.set_mode(None)


def run_both(make_sim, n, warmup):
    fastpath.set_mode("off")
    ref = make_sim().run(n, warmup)
    fastpath.set_mode("on")
    fast = make_sim().run(n, warmup)
    return ref, fast


def assert_identical(ref, fast):
    assert np.array_equal(ref.wait_times, fast.wait_times)
    assert np.array_equal(ref.service_times, fast.service_times)
    assert np.array_equal(ref.idle_periods, fast.idle_periods)
    assert ref.wait_times.dtype == fast.wait_times.dtype
    assert ref.idle_periods.dtype == fast.idle_periods.dtype
    assert ref.busy_time == fast.busy_time
    assert ref.duration == fast.duration
    assert ref.arrival_rate == fast.arrival_rate


SERVICES = {
    "exponential": lambda: Exponential(2e-6),
    "uniform": lambda: Uniform(1e-6, 4e-6),
    "lognormal": lambda: LogNormal(3e-6, 1.5),
    "pareto": lambda: Pareto(2e-6, 2.5),
    "deterministic": lambda: Deterministic(2e-6),
    "scaled-lognormal": lambda: ScaledDistribution(LogNormal(2e-6, 1.0), 1.7),
}


@pytest.mark.parametrize("name", sorted(SERVICES))
@pytest.mark.parametrize("seed", [0, 3, 12345])
def test_distribution_service_identical(name, seed):
    dist = SERVICES[name]()
    ref, fast = run_both(
        lambda: MG1Simulator.at_load(0.7, dist, seed=seed), 20_000, 2_000
    )
    assert_identical(ref, fast)


@pytest.mark.parametrize("penalty", [0.0, 5e-7])
@pytest.mark.parametrize("seed", [0, 5])
def test_restart_penalty_identical(penalty, seed):
    """Idle-triggered restart penalties are applied inside the compiled
    recurrence at the exact point the scalar loop applies them."""
    ref, fast = run_both(
        lambda: MG1Simulator.at_load(
            0.6, RestartPenaltyService(Exponential(2e-6), penalty), seed=seed
        ),
        20_000,
        2_000,
    )
    assert_identical(ref, fast)
    # Low load => idle periods exist, so penalties actually fired.
    assert ref.idle_periods.size > 0


@pytest.mark.parametrize(
    "workload,single_draw",
    [
        ("wordstem", True),  # single LogNormal phase, no stall draw
        ("flann_ha", False),  # compute + stall draws interleave per request
        ("rsc", False),
        ("mcrouter", False),
    ],
)
def test_design_service_model(workload, single_draw):
    """Every standard workload runs in the kernel, the multi-draw ones
    (two or three samplers per request) included."""
    service = DesignServiceModel(
        getattr(ms, workload)(),
        slowdown=1.3,
        per_stall_penalty_s=1e-8,
        start_penalty_s=3e-8,
    )
    ops, _ = program_of(service)
    draws = int(np.isin(ops, SAMPLER_OPS).sum())
    assert (draws == 1) == single_draw
    ref, fast = run_both(
        lambda: MG1Simulator.at_load(0.7, service, seed=11), 20_000, 2_000
    )
    assert_identical(ref, fast)


def test_design_multiphase_with_deterministic_terms():
    """Constant phases (Deterministic compute/stall) consume no draws;
    the program adds them in the scalar loop's order."""
    workload = ms.Microservice(
        name="synthetic",
        phases=(
            ms.Phase(Deterministic(2.0), Deterministic(1.5)),
            ms.Phase(LogNormal(4.0, 0.3), None),
            ms.Phase(Deterministic(0.5), None),
        ),
        profile=ms.wordstem().profile,
    )
    service = DesignServiceModel(
        workload, slowdown=1.2, per_stall_penalty_s=1e-8, start_penalty_s=3e-8
    )
    assert program_of(service) is not None
    ref, fast = run_both(
        lambda: MG1Simulator.at_load(0.6, service, seed=21), 20_000, 2_000
    )
    assert_identical(ref, fast)


@pytest.mark.parametrize(
    "dist_name",
    ["exponential", "uniform", "lognormal", "pareto", "scaled-lognormal"],
)
def test_stream_safety_empirical(dist_name):
    """The whitelist's defining property, asserted directly: bulk fills
    produce the same values and leave the generator in the same state as
    sequential scalar draws."""
    dist = SERVICES[dist_name]()
    assert is_stream_safe(dist)
    r1, r2 = np.random.default_rng(42), np.random.default_rng(42)
    bulk = dist.sample_many(r1, 500)
    seq = np.array([dist.sample(r2) for _ in range(500)])
    assert np.array_equal(bulk, seq)
    assert r1.bit_generator.state == r2.bit_generator.state


def test_stream_unsafe_compositions_excluded():
    combo = SumDistribution((Exponential(1e-6), Uniform(1e-6, 2e-6)))
    mix = Mixture((Exponential(1e-6), Exponential(3e-6)), (0.5, 0.5))
    assert not is_stream_safe(combo)
    assert not is_stream_safe(mix)
    # ...and simulations over them still agree (the sum runs in the
    # kernel, the mixture has no program and stays on the loop).
    assert program_of(DistributionService(combo)) is not None
    assert program_of(DistributionService(mix)) is None
    for service in (combo, mix):
        ref, fast = run_both(
            lambda: MG1Simulator.at_load(0.5, service, seed=2), 5_000, 500
        )
        assert_identical(ref, fast)


@pytest.mark.parametrize(
    "n,warmup",
    [(1, 0), (2, 1), (100, 99), (100, 0), (20_000, 19_999)],
    ids=["single", "pair", "all-warmup", "no-warmup", "one-retained"],
)
def test_window_edge_cases_identical(n, warmup):
    ref, fast = run_both(
        lambda: MG1Simulator.at_load(0.7, Exponential(2e-6), seed=3), n, warmup
    )
    assert_identical(ref, fast)


class TestIdlePeriodWindowAgreement:
    """Idle-period retention (`n > warmup`) at the smallest windows,
    where an off-by-one in either path would surface first."""

    @pytest.mark.parametrize("warmup", [0, 1])
    def test_minimal_warmup_idles_identical(self, warmup):
        ref, fast = run_both(
            lambda: MG1Simulator.at_load(0.3, Exponential(2e-6), seed=7),
            5_000,
            warmup,
        )
        assert_identical(ref, fast)
        # Low load: the window genuinely contains idle periods, so the
        # retention rule was exercised, not vacuously satisfied.
        assert ref.idle_periods.size > 0
        # Arrival `warmup` itself is excluded (strict `n > warmup`), so
        # at most one idle period per retained arrival after it.
        assert ref.idle_periods.size <= 5_000 - warmup - 1

    def test_first_retained_arrival_hits_idle_server(self):
        """A window whose first retained arrival finds the server idle:
        its wait is zero and the idle gap before it must be dropped by
        both paths (it belongs to arrival `warmup`, not `warmup + 1`)."""
        warmup = 50
        ref, fast = run_both(
            lambda: MG1Simulator.at_load(0.05, Exponential(2e-6), seed=1),
            2_000,
            warmup,
        )
        assert_identical(ref, fast)
        # rho = 0.05 => the first retained arrival found an empty queue.
        assert ref.wait_times[0] == 0.0
        assert ref.idle_periods.size > 0


def test_profiled_run_identical():
    """prof.record_mg1_run sees identical waits/services/penalized arrays
    from either path: full snapshot equality."""

    def snap_for(mode):
        fastpath.set_mode(mode)
        prof.reset()
        prof.enable()
        try:
            MG1Simulator.at_load(
                0.6, RestartPenaltyService(Exponential(2e-6), 5e-7), seed=5
            ).run(20_000, 2_000)
            return dataclasses.asdict(prof.snapshot())
        finally:
            prof.disable()
            prof.reset()

    assert snap_for("off") == snap_for("on")


def test_negative_service_raises_either_way():
    # Validation forbids negative values; bypass it so the kernel's own
    # check fires on the compiled leg.
    negative = Deterministic(1.0)
    object.__setattr__(negative, "value", -1.0)
    for mode in ("off", "on"):
        fastpath.set_mode(mode)
        sim = MG1Simulator(arrival_rate=1e5, service=negative, seed=0)
        with pytest.raises(ValueError, match="negative"):
            sim.run(100)


def test_off_mode_never_batches():
    """REPRO_FASTPATH=off must not even ask the model for its program."""
    called = []

    @dataclasses.dataclass(frozen=True)
    class SpyService(DistributionService):
        def program(self):
            called.append(True)
            return super().program()

    fastpath.set_mode("off")
    MG1Simulator.at_load(0.7, SpyService(Exponential(2e-6)), seed=3).run(
        1_000, 100
    )
    assert not called
    fastpath.set_mode("on")
    MG1Simulator.at_load(0.7, SpyService(Exponential(2e-6)), seed=3).run(
        1_000, 100
    )
    assert called == [True]
