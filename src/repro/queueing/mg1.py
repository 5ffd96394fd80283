"""M/G/1 FCFS queue simulation at request granularity.

This is the reproduction's BigHouse: Poisson arrivals, general service
times, one FCFS server.  The paper (Section V) measures IPC in the core
model, scales the measured service-time distribution by the IPC slowdown,
and simulates the queue at request granularity; this module is that last
stage.

The simulation uses the Lindley recurrence

    W_{n+1} = max(0, W_n + S_n - A_{n+1})

which is exact for G/G/1-FCFS and directly yields waiting times, sojourn
times, idle-period durations and server utilization.

Service models may react to the idle period that preceded a request: this
is how architecture-dependent effects (a Duplexity master-core paying a
~50-cycle restart after running filler threads, a MorphCore paying a
microcode register reload) enter the queueing layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Protocol

import numpy as np

from repro import energy, obs, prof
from repro.common.distributions import Distribution
from repro.queueing.program import START, ServiceProgram


class ServiceModel(Protocol):
    """Produces a service time for each request.  A model may also offer
    ``program()`` (:mod:`repro.queueing.program`) to run in the kernels."""

    def service_time(self, rng: np.random.Generator, idle_before: float) -> float:
        """Service time (seconds) given the server idle time preceding
        this request (0.0 if the request queued behind another)."""
        ...

    def mean_service_time(self) -> float:
        """Approximate mean, used to convert load factors to arrival rates."""
        ...


@dataclass(frozen=True)
class DistributionService:
    """A service model that ignores server state."""

    dist: Distribution

    def service_time(self, rng: np.random.Generator, idle_before: float) -> float:
        return self.dist.sample(rng)

    def mean_service_time(self) -> float:
        return self.dist.mean()

    def program(self) -> ServiceProgram | None:
        """This model as a kernel program (``None``: reference loop)."""
        program = ServiceProgram()
        return program if program.sample(self.dist) else None


@dataclass(frozen=True)
class RestartPenaltyService:
    """Base service time plus a fixed penalty after any idle period.

    Models cores that must switch out of filler-thread mode before serving
    a request that arrives while the master-thread is idle (Duplexity's
    fast restart, MorphCore's microcode reload).  ``penalty`` is charged
    only when ``idle_before`` is positive, i.e. the core had morphed.
    """

    dist: Distribution
    penalty: float

    def __post_init__(self) -> None:
        if self.penalty < 0:
            raise ValueError(f"penalty must be non-negative, got {self.penalty!r}")

    def service_time(self, rng: np.random.Generator, idle_before: float) -> float:
        base = self.dist.sample(rng)
        return base + self.penalty if idle_before > 0 else base

    def program(self) -> ServiceProgram | None:
        """This model as a kernel program (``None``: reference loop)."""
        program = ServiceProgram()
        if not program.sample(self.dist):
            return None
        program.emit(START, self.penalty)
        return program

    def mean_service_time(self) -> float:
        # The penalty applies to the (load-dependent) fraction of requests
        # arriving at an idle server; for rate conversion we use the base
        # mean, which keeps offered-load definitions consistent across
        # designs.  The penalty then manifests as extra utilization/tail.
        return self.dist.mean()


@dataclass(frozen=True)
class QueueResult:
    """Outcome of one M/G/1 simulation run.  Times in seconds.

    All fields describe the same *measurement window*: the post-warmup
    span from the first retained arrival to the last departure.  Waiting
    and service times, idle periods, busy time and duration are trimmed
    consistently, so ``utilization`` and the idle-period CDF agree with
    the sojourn statistics about which requests are being measured.
    """

    wait_times: np.ndarray
    service_times: np.ndarray
    idle_periods: np.ndarray
    busy_time: float
    duration: float
    #: Offered Poisson arrival rate (requests/s); 0.0 when unknown (e.g.
    #: a hand-built result).  Lets :mod:`repro.validate` test Little's
    #: law and utilization-vs-rho conservation against the offered load.
    arrival_rate: float = 0.0

    @property
    def sojourn_times(self) -> np.ndarray:
        return self.wait_times + self.service_times

    @property
    def utilization(self) -> float:
        return self.busy_time / self.duration if self.duration > 0 else 0.0

    @property
    def num_requests(self) -> int:
        return int(self.wait_times.size)

    def tail_latency(self, q: float = 0.99) -> float:
        from repro.queueing.stats import percentile

        return percentile(self.sojourn_times, q)


class MG1Simulator:
    """Poisson arrivals into a single FCFS server."""

    def __init__(
        self,
        arrival_rate: float,
        service: ServiceModel | Distribution,
        seed: int = 0,
    ):
        if arrival_rate <= 0:
            raise ValueError(f"arrival rate must be positive, got {arrival_rate!r}")
        if isinstance(service, Distribution):
            service = DistributionService(service)
        self.arrival_rate = arrival_rate
        self.service = service
        self.seed = seed

    @classmethod
    def at_load(
        cls,
        load: float,
        service: ServiceModel | Distribution,
        seed: int = 0,
    ) -> "MG1Simulator":
        """Build a simulator offered ``load`` (rho) of the service capacity."""
        if not 0 < load < 1:
            raise ValueError(f"load must be in (0, 1), got {load!r}")
        if isinstance(service, Distribution):
            service = DistributionService(service)
        mean = service.mean_service_time()
        if mean <= 0:
            raise ValueError("service model must have positive mean")
        return cls(arrival_rate=load / mean, service=service, seed=seed)

    def run(self, num_requests: int, warmup: int = 0) -> QueueResult:
        """Simulate ``num_requests`` arrivals; drop the first ``warmup``
        from the reported statistics (they still shape queue state).

        Every reported field covers the same measurement window,
        ``[arrival of request warmup, last departure]``: warmup requests
        shape the queue state carried into the window (their residual
        backlog is served — and counted as busy time — inside it), but
        their waiting/service times, the idle periods that preceded
        them, and the wall time they occupied are all excluded.
        Previously only ``wait_times``/``service_times`` were trimmed,
        so ``utilization`` and the Fig 1(b) idle-period CDF mixed warmup
        transients into otherwise warmup-free statistics.
        """
        if num_requests <= 0:
            raise ValueError("need a positive number of requests")
        if not 0 <= warmup < num_requests:
            raise ValueError("warmup must be in [0, num_requests)")
        with obs.span(
            "mg1",
            rate=float(self.arrival_rate),
            requests=int(num_requests),
            warmup=int(warmup),
        ) as span:
            return self._run(num_requests, warmup, span)

    def _run(self, num_requests: int, warmup: int, span=None) -> QueueResult:
        from repro.uarch.fastpath import queue as fastpath_queue

        rng = np.random.default_rng(self.seed)
        inter_arrivals = rng.exponential(1.0 / self.arrival_rate, size=num_requests)
        # Which requests arrived at an idle server (and so paid any
        # restart penalty the service model charges).  Tracked only for
        # the profiler; the simulation itself never reads it.
        penalized = (
            np.zeros(num_requests, dtype=bool) if prof.is_enabled() else None
        )
        # The compiled recurrence draws the same stream live; both paths
        # produce bit-identical results and generator states.
        kernel = fastpath_queue.kernel_for(self.service, "mg1", span)
        run = partial(fastpath_queue.mg1, *kernel) if kernel else self._reference
        waits, services, idles, arrival, backlog, window_start = run(
            rng, inter_arrivals, warmup, penalized
        )

        # Window: first retained arrival -> last departure.  The server
        # spends the first waits[warmup] seconds of it clearing the
        # residual warmup backlog, then serves every retained request.
        last_departure = arrival + backlog
        duration = float(last_departure - window_start)
        busy = float(waits[warmup] + services[warmup:].sum())
        obs.add("mg1.runs")
        obs.add("mg1.requests_completed", num_requests - warmup)
        if penalized is not None:
            penalty = float(getattr(self.service, "penalty", 0.0) or 0.0)
            prof.record_mg1_run(
                rate=self.arrival_rate,
                waits=waits[warmup:],
                services=services[warmup:],
                penalized=penalized[warmup:] if penalty > 0 else None,
                penalty=penalty,
                seed=self.seed,
            )
            if energy.is_enabled():
                energy.record_mg1_run(
                    rate=self.arrival_rate,
                    requests=num_requests - warmup,
                    busy_s=busy,
                    duration_s=duration,
                    penalized=penalized[warmup:] if penalty > 0 else None,
                    penalty=penalty,
                )
        return QueueResult(
            wait_times=waits[warmup:],
            service_times=services[warmup:],
            idle_periods=idles,
            busy_time=busy,
            duration=duration,
            arrival_rate=self.arrival_rate,
        )

    def _reference(
        self,
        rng: np.random.Generator,
        inter_arrivals: np.ndarray,
        warmup: int,
        penalized: np.ndarray | None,
    ) -> tuple:
        """The Python Lindley loop: the specification the kernel matches."""
        num_requests = int(inter_arrivals.size)
        waits = np.empty(num_requests)
        services = np.empty(num_requests)
        idles: list[float] = []
        arrival = 0.0  # arrival epoch of request n (first gap included)
        window_start = 0.0
        backlog = 0.0  # W_n + S_n carried into the next arrival
        for n in range(num_requests):
            gap = inter_arrivals[n]
            arrival += gap
            residual = backlog - gap
            if residual >= 0:
                wait = residual
                idle_before = 0.0
            else:
                wait = 0.0
                idle_before = -residual
                # An idle period is retained only if it ends at a
                # retained arrival strictly inside the window (the idle
                # preceding request ``warmup`` lies before the window;
                # the one before the very first arrival is artificial).
                if n > warmup:
                    idles.append(idle_before)
                if penalized is not None:
                    penalized[n] = True
            if n == warmup:
                window_start = arrival
            service = self.service.service_time(rng, idle_before)
            if service < 0:
                raise ValueError("service model produced a negative time")
            waits[n] = wait
            services[n] = service
            backlog = wait + service
        idle_periods = np.asarray(idles, dtype=float)
        return waits, services, idle_periods, arrival, backlog, window_start
