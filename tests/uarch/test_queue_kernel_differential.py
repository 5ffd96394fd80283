"""Randomized differentials: the compiled queue kernels vs the Python
reference loops, byte for byte.

Hypothesis draws service programs (1-3 phases; compute and stall terms
from Deterministic, Exponential, Uniform, LogNormal, Pareto, Scaled and
Sum; random slowdowns and penalties), queue shapes and warm-ups
(including 0 and n - 1), and the bit generator behind every stream.
Each example runs once with the kernels and once on the reference loops
and compares every result field, the profiler and energy snapshots when
telemetry is on, and the end ``bit_generator.state`` of every generator
the run created.  Examples are derandomized (seeded) and bounded.
"""

from __future__ import annotations

import pickle
from contextlib import ExitStack
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import energy, prof
from repro.cluster.arrivals import MMPPArrivals
from repro.cluster.sim import ClusterSimulator
from repro.common.distributions import (
    Deterministic,
    Exponential,
    LogNormal,
    Pareto,
    ScaledDistribution,
    SumDistribution,
    Uniform,
)
from repro.harness.metrics import DesignServiceModel
from repro.queueing.mg1 import (
    DistributionService,
    MG1Simulator,
    RestartPenaltyService,
)
from repro.queueing.program import program_of
from repro.uarch import fastpath
from repro.uarch.fastpath import cluster as fp_cluster
from repro.uarch.fastpath.build import queue_kernel
from repro.workloads import microservices as ms

pytestmark = pytest.mark.skipif(
    queue_kernel()[0] is None, reason="queue kernels unavailable"
)

BUDGET = settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

BIT_GENERATORS = (np.random.PCG64, np.random.MT19937, np.random.SFC64,
                  np.random.Philox)

# -- strategies -------------------------------------------------------------


def leaves(scale: float):
    """Leaf distributions with means around ``scale``."""
    mean = st.floats(0.05 * scale, 2.0 * scale)
    return st.one_of(
        st.builds(Deterministic, st.one_of(st.just(0.0), mean)),
        st.builds(Exponential, mean),
        st.builds(
            lambda low, width: Uniform(low, low + width),
            st.floats(0.0, scale),
            st.floats(0.0, scale),
        ),
        st.builds(LogNormal, mean, st.floats(0.01, 4.0)),
        st.builds(Pareto, mean, st.floats(1.05, 4.0)),
    )


def distributions(scale: float):
    """Leaves, scaled terms and sums of them (nested sums included)."""
    return st.recursive(
        leaves(scale),
        lambda inner: st.one_of(
            st.builds(ScaledDistribution, inner, st.floats(0.1, 3.0)),
            st.builds(
                lambda parts: SumDistribution(tuple(parts)),
                st.lists(inner, min_size=1, max_size=3),
            ),
        ),
        max_leaves=4,
    )


phases = st.builds(
    ms.Phase,
    distributions(4.0),
    st.one_of(st.none(), distributions(4.0)),
)

design_services = st.builds(
    lambda phase_list, slowdown, per_stall, start: DesignServiceModel(
        ms.Microservice("synthetic", ms.wordstem().profile, tuple(phase_list)),
        slowdown=slowdown,
        per_stall_penalty_s=per_stall,
        start_penalty_s=start,
    ),
    st.lists(phases, min_size=1, max_size=3),
    st.floats(1.0, 3.0),
    st.one_of(st.just(0.0), st.floats(0.0, 1e-7)),
    st.one_of(st.just(0.0), st.floats(0.0, 1e-6)),
)

services = st.one_of(
    st.builds(DistributionService, distributions(4e-6)),
    st.builds(
        RestartPenaltyService,
        distributions(4e-6),
        st.one_of(st.just(0.0), st.floats(0.0, 1e-6)),
    ),
    design_services,
)


@st.composite
def windows(draw, max_requests: int):
    """``(n, warmup)`` with the warm-up edges 0 and n - 1 favoured."""
    n = draw(st.integers(1, max_requests))
    warmup = draw(
        st.one_of(st.just(0), st.just(n - 1), st.integers(0, n - 1))
    )
    return n, warmup


# -- harness ----------------------------------------------------------------


def _rate(service, load: float) -> float:
    """Arrival rate offering ``load`` (a zero-mean model, e.g. a
    Deterministic(0.0) term alone, gets an arbitrary rate)."""
    mean = service.mean_service_time()
    return load / mean if mean > 0 else 1e6


def _states_equal(a, b) -> bool:
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(
            _states_equal(a[k], b[k]) for k in a
        )
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def _same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _assert_queue_identical(a, b) -> None:
    assert _same_bytes(a.wait_times, b.wait_times)
    assert _same_bytes(a.service_times, b.service_times)
    assert _same_bytes(a.idle_periods, b.idle_periods)
    assert a.busy_time.hex() == b.busy_time.hex()
    assert a.duration.hex() == b.duration.hex()
    assert a.arrival_rate == b.arrival_rate


def _run_leg(run, *, kernel: bool, bit_generator, telemetry: bool):
    """``run()`` with the kernels on or off; returns the result, every
    generator it created (in creation order) and the telemetry bytes."""
    created = []

    def make(seed=None):
        rng = np.random.Generator(bit_generator(seed))
        created.append(rng)
        return rng

    with ExitStack() as stack:
        stack.enter_context(mock.patch.object(np.random, "default_rng", make))
        fastpath.set_mode("on" if kernel else "off")
        stack.callback(fastpath.set_mode, None)
        if telemetry:
            prof.reset()
            energy.reset()
            prof.enable()
            energy.enable()
            stack.callback(prof.reset)
            stack.callback(energy.reset)
            stack.callback(energy.disable)
            stack.callback(prof.disable)
        result = run()
        snapshots = (
            pickle.dumps((prof.snapshot(), energy.snapshot()))
            if telemetry
            else None
        )
    return result, created, snapshots


def _assert_legs_identical(kernel_leg, reference_leg, compare) -> None:
    (res_k, gens_k, snap_k), (res_r, gens_r, snap_r) = kernel_leg, reference_leg
    compare(res_k, res_r)
    assert snap_k == snap_r
    assert len(gens_k) == len(gens_r)
    for g_k, g_r in zip(gens_k, gens_r):
        assert _states_equal(g_k.bit_generator.state, g_r.bit_generator.state)


# -- M/G/1 ------------------------------------------------------------------


@BUDGET
@given(
    service=services,
    window=windows(1_500),
    load=st.floats(0.1, 0.9),
    seed=st.integers(0, 2**32 - 1),
    bit_generator=st.sampled_from(BIT_GENERATORS),
    telemetry=st.booleans(),
)
def test_mg1_kernel_matches_reference(
    service, window, load, seed, bit_generator, telemetry
):
    assert program_of(service) is not None
    n, warmup = window
    sim = MG1Simulator(_rate(service, load), service, seed=seed)

    def leg(kernel):
        return _run_leg(
            lambda: sim.run(n, warmup),
            kernel=kernel,
            bit_generator=bit_generator,
            telemetry=telemetry,
        )

    _assert_legs_identical(leg(True), leg(False), _assert_queue_identical)


# -- cluster ----------------------------------------------------------------


def _assert_cluster_identical(a, b) -> None:
    assert _same_bytes(a.sojourn_times, b.sojourn_times)
    assert a.duration.hex() == b.duration.hex()
    assert (a.arrival_rate, a.fanout, a.balancer) == (
        b.arrival_rate, b.fanout, b.balancer
    )
    assert a.arrival_dispersion == b.arrival_dispersion
    assert len(a.servers) == len(b.servers)
    for qa, qb in zip(a.servers, b.servers):
        _assert_queue_identical(qa, qb)


@st.composite
def clusters(draw):
    fanout = draw(st.integers(1, 4))
    n_servers = draw(st.integers(fanout, 6))
    return dict(
        balancer=draw(
            st.sampled_from(["random", "round_robin", "jsq", "power_of_two"])
        ),
        fanout=fanout,
        n_servers=n_servers,
        mmpp=draw(st.booleans()),
        load=draw(st.floats(0.2, 0.9)),
    )


@BUDGET
@given(
    service=services,
    shape=clusters(),
    window=windows(600),
    seed=st.integers(0, 2**32 - 1),
    bit_generator=st.sampled_from(BIT_GENERATORS),
    telemetry=st.booleans(),
    executor=st.sampled_from([False, True]),
    tiny_buffers=st.booleans(),
)
def test_cluster_kernels_match_reference(
    service, shape, window, seed, bit_generator, telemetry, executor,
    tiny_buffers,
):
    """Per-server kernel (random, round_robin) or event kernel (jsq,
    power_of_two, or any balancer with ``executor=True``) against the
    Python event loop; ``tiny_buffers`` forces the event kernel's
    output- and heap-growth ejects."""
    n, warmup = window
    rate = _rate(service, shape["load"]) * shape["n_servers"] / shape["fanout"]
    sim = ClusterSimulator(
        MMPPArrivals.bursty(rate) if shape["mmpp"] else rate,
        service,
        n_servers=shape["n_servers"],
        fanout=shape["fanout"],
        balancer=shape["balancer"],
        seed=seed,
    )

    def leg(kernel):
        sim.force_event_loop = executor if kernel else "python"
        with ExitStack() as stack:
            if tiny_buffers:
                stack.enter_context(mock.patch.object(fp_cluster, "HEAP_CAP", 1))
                stack.enter_context(
                    mock.patch.object(
                        fp_cluster, "initial_capacity", lambda *_: 1
                    )
                )
            return _run_leg(
                lambda: sim.run(n, warmup),
                kernel=kernel,
                bit_generator=bit_generator,
                telemetry=telemetry,
            )

    compiled = leg(True)
    degenerate = shape["n_servers"] == 1 and not shape["mmpp"]
    assert degenerate or compiled[0].fastpath_servers == shape["n_servers"]
    _assert_legs_identical(compiled, leg(False), _assert_cluster_identical)
