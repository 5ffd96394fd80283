"""Fastpath kernel lifecycle: the build without NumPy's sampler library,
and kernel worlds freed without the cyclic garbage collector."""

from __future__ import annotations

import gc

import pytest

from repro import obs
from repro.cluster.sim import ClusterSimulator
from repro.common.distributions import Exponential
from repro.harness import cache
from repro.harness.fidelity import FAST
from repro.harness.measure import clear_cache, measure
from repro.queueing.mg1 import MG1Simulator
from repro.uarch import fastpath
from repro.uarch.engine import TimingEngine
from repro.uarch.fastpath import adapter, build
from repro.workloads.microservices import mcrouter

pytestmark = pytest.mark.skipif(
    not fastpath.is_available(), reason="no C compiler for the fastpath kernel"
)


@pytest.fixture(autouse=True)
def _restore_mode():
    yield
    fastpath.set_mode(None)


@pytest.fixture
def no_disk_cache():
    config = cache.current_config()
    cache.configure(enabled=False)
    clear_cache()
    yield
    clear_cache()
    cache.configure(**config)


def test_missing_archive_keeps_engine_and_counts_queue_fallback(
    tmp_path, monkeypatch, no_disk_cache
):
    """Without libnpyrandom.a the kernel still builds and binds engines;
    the queues run their reference loops and say why."""
    monkeypatch.setenv("REPRO_FASTPATH_CACHE", str(tmp_path))
    monkeypatch.setattr(build, "npyrandom_archive", lambda: None)
    build.reset_for_tests()
    fastpath.set_mode("on")
    obs.reset()
    obs.enable()
    try:
        assert build.load_kernel() is not None
        assert build.queue_kernel() == (None, "no_npyrandom")
        bound = []
        real_run = adapter.run_engine

        def spy(engine, *args):
            ran = real_run(engine, *args)
            bound.append(ran)
            return ran

        monkeypatch.setattr(adapter, "run_engine", spy)
        measure("baseline", mcrouter(), FAST)
        assert bound and all(bound)

        MG1Simulator(1e5, Exponential(2e-6), seed=1).run(200, 20)
        ClusterSimulator(
            2e5, Exponential(2e-6), n_servers=4, fanout=2, balancer="jsq"
        ).run(200, 20)
        assert obs.value("fastpath.fallback.mg1.no_npyrandom") == 1
        assert obs.value("fastpath.fallback.cluster.events.no_npyrandom") == 1
        (span,) = [s for s in obs.spans() if s.name == "mg1"]
        assert span.attrs["fallback"] == "no_npyrandom"
    finally:
        obs.reset()
        build.reset_for_tests()


def test_measure_leaves_no_world_for_the_cyclic_collector(
    monkeypatch, no_disk_cache
):
    """Engines bound to the kernel, their schedulers and their worlds are
    freed by reference counting once ``measure()``'s result is dropped:
    nothing is left for gen-2, and every world's ``rfp_free`` has run."""
    finalizers = []
    real_init = adapter._World.__init__

    def init(self, lib):
        real_init(self, lib)
        finalizers.append(self._finalizer)

    monkeypatch.setattr(adapter._World, "__init__", init)
    fastpath.set_mode("on")
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for design in ("baseline", "duplexity"):
            measure(design, mcrouter(), FAST)
        clear_cache()
        gc.collect()
        leaked = [
            type(o).__name__
            for o in gc.garbage
            if isinstance(o, (adapter._World, adapter._Binding, TimingEngine))
        ]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert finalizers
    assert leaked == []
    assert not any(f.alive for f in finalizers)
