"""One benchmark pass: set up, run a workload's fixed work, check it.

A pass runs in its own process (see ``child.py``) so every pass starts
from empty result caches and pays its own set-up.  The work is a closed
loop with one client: each operation (one grid cell or one cluster cell)
starts when the previous one returns.

An operation fails when it raises or when ``repro.validate`` reports any
violation for it; the run goes on with the next operation either way.
All simulated outputs go into a digest (``digest``) that must repeat
exactly for a seed, whatever the hash seed, tracing or telemetry.

The shared host's per-core speed swings by up to 2-3x from one second
to the next, so ``setup_s`` and ``wall_s`` are host times scaled to a
reference speed: a fixed probe, weighted like the workload's mix of
interpreted and native code, samples the host's speed during the pass
(see :class:`SpeedSampler` and :func:`speed_corrected`).
"""

from __future__ import annotations

import bisect
import dataclasses
import hashlib
import math
import resource
import signal
import statistics
import struct
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tracing import Tracer, layer_metrics


@dataclass(frozen=True)
class Workload:
    """The fixed work of one benchmark workload."""

    name: str
    #: ``"grid"`` runs paper-figure cells, ``"cluster"`` fork-join cells.
    kind: str
    designs: tuple[str, ...]
    services: tuple[str, ...]
    loads: tuple[float, ...]
    #: Cluster cells as (balancer, mid-tier requests); each cell warms
    #: up on the first 5% of its requests.
    cells: tuple[tuple[str, int], ...] = ()
    n_servers: int = 16
    fanout: int = 8
    #: Tail records plus energy ledgers (energy also turns on prof), as
    #: ``repro cluster --tail-report --energy`` runs them.
    telemetry: bool = False
    #: Share of the timed work spent in interpreted code: the weight of
    #: the interpreted half of the speed probe (see :class:`SpeedSampler`).
    interpreted_share: float = 0.0


GRID = Workload(
    name="grid",
    kind="grid",
    # repro.core.designs.DESIGN_NAMES, in figure-legend order.
    designs=(
        "baseline",
        "smt",
        "smt_plus",
        "morphcore",
        "morphcore_plus",
        "duplexity_replication",
        "duplexity",
    ),
    services=("McRouter", "RSC", "WordStem"),
    loads=(0.3, 0.5, 0.7),
    # The scalar M/G/1 loop is ~2/3 of the sweep; the compiled core
    # engine and trace generator most of the rest.
    interpreted_share=2 / 3,
)

CLUSTER = Workload(
    name="cluster",
    kind="cluster",
    designs=("duplexity",),
    services=("WordStem",),
    loads=(0.7,),
    cells=(("random", 1_000_000), ("jsq", 1_000_000)),
    # NumPy stages and the compiled event kernel.
    interpreted_share=0.0,
)

# With tail records on, JSQ leaves the compiled event kernel for the
# interpreted loop (~60 us per request instead of ~2 us), so its cell
# is 20x smaller here.  The random cell keeps the size it has in
# ``cluster``, so each telemetry plane's cost there is a plain
# difference.  A smaller interpreted share also keeps this workload's
# spread near the others': on a shared host the interpreted loop's
# speed drifts more than the compiled and NumPy paths do.
CLUSTER_TELEMETRY = dataclasses.replace(
    CLUSTER,
    name="cluster_telemetry",
    cells=(("random", 1_000_000), ("jsq", 50_000)),
    telemetry=True,
    # The interpreted JSQ loop is ~45% of the timed work, and the tail
    # and energy record paths run partly in the interpreter.
    interpreted_share=0.5,
)

WORKLOADS = {w.name: w for w in (GRID, CLUSTER, CLUSTER_TELEMETRY)}


# ----------------------------------------------------------------------
# Output digest
# ----------------------------------------------------------------------


def canonical_bytes(value) -> bytes:
    """A byte encoding of a result that is the same in every process.

    Floats keep all 64 bits (so ``-0.0`` and infinities stay distinct)
    except NaN, whose payload varies and which is written as one token.
    Nothing depends on ``hash()``, object identity, paths or time.
    """
    if value is None:
        return b"N"
    if isinstance(value, bool):
        return b"T" if value else b"F"
    if isinstance(value, int):
        return b"i%d;" % value
    if isinstance(value, float):
        if math.isnan(value):
            return b"fnan"
        return b"f" + struct.pack("<d", value)
    if isinstance(value, str):
        raw = value.encode("utf-8")
        return b"s%d:" % len(raw) + raw
    if dataclasses.is_dataclass(value):
        parts = [b"D", canonical_bytes(type(value).__name__)]
        for field in dataclasses.fields(value):
            parts.append(canonical_bytes(field.name))
            parts.append(canonical_bytes(getattr(value, field.name)))
        return b"".join(parts)
    if isinstance(value, (list, tuple)):
        return b"L%d:" % len(value) + b"".join(canonical_bytes(v) for v in value)
    # NumPy scalars reach here; convert to the Python type first.
    if hasattr(value, "item"):
        return canonical_bytes(value.item())
    raise TypeError(f"no canonical encoding for {type(value).__name__}")


def digest(results) -> str:
    """SHA-256 over the canonical bytes of every result, in order."""
    return hashlib.sha256(canonical_bytes(list(results))).hexdigest()


# ----------------------------------------------------------------------
# Host-speed correction
# ----------------------------------------------------------------------

#: Doubles the native half sorts, and how many times.
PROBE_KEYS = 16_000
PROBE_SORTS = 8
#: Lindley-recursion steps of the interpreted half.
PROBE_STEPS = 2000
#: Host seconds of each half at the reference speed, about their medians
#: on the 2-vCPU Xeon host the benchmark was defined on, so corrected
#: times read as host seconds at that speed.
NATIVE_REFERENCE_S = 0.001
INTERPRETED_REFERENCE_S = 0.0013
#: Seconds between timer-driven probes.
PROBE_PERIOD_S = 0.05


def interpreted_probe() -> float:
    """Host seconds of a Lindley recursion over an LCG stream in the
    interpreter, the kind of loop the scalar M/G/1 simulator runs."""
    start = time.perf_counter()
    wait, x = 0.0, 12345
    for _ in range(PROBE_STEPS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        wait = max(0.0, wait + x / 2147483648.0 - 0.5)
    return time.perf_counter() - start


class SpeedSampler:
    """Samples the host's speed while a pass runs.

    A probe runs the native half and, when ``interpreted_share`` is not
    0, the interpreted half; its slowdown is their times over the
    reference times, weighted by that share.  Between :meth:`start` and
    :meth:`stop` a timer signal runs a probe every
    :data:`PROBE_PERIOD_S`.  The handler runs between two bytecodes of
    the main thread, so a long native call defers it.  :meth:`sample`
    runs one more probe on demand.  ``samples`` holds (start, host
    seconds, slowdown) in time order.
    """

    def __init__(self, interpreted_share: float) -> None:
        self.interpreted_share = interpreted_share
        self.samples: list[tuple[float, float, float]] = []
        # 128 KiB, sorted in place from a fixed copy: the native half
        # stays in the core's caches and allocates nothing.
        self._keys = np.random.default_rng(0x5EED).random(PROBE_KEYS)
        self._buffer = np.empty_like(self._keys)
        self._busy = False
        self._running = False
        self._previous = None

    def _native_probe(self) -> float:
        """Host seconds of sorting a cache-resident array."""
        start = time.perf_counter()
        for _ in range(PROBE_SORTS):
            self._buffer[:] = self._keys
            self._buffer.sort()
        return time.perf_counter() - start

    def sample(self) -> None:
        # Stopped, or the timer fired during a probe.
        if not self._running or self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        share = self.interpreted_share
        native = self._native_probe()
        interpreted = interpreted_probe() if share else 0.0
        slowdown = (1 - share) * native / NATIVE_REFERENCE_S + (
            share * interpreted / INTERPRETED_REFERENCE_S
        )
        self.samples.append((start, native + interpreted, slowdown))
        self._busy = False

    def start(self) -> None:
        self._previous = signal.signal(
            signal.SIGALRM, lambda signum, frame: self.sample()
        )
        self._running = True
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        self.sample()

    def stop(self) -> None:
        if self._running:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
            self._running = False


def speed_corrected(steps, samples) -> tuple[float, float]:
    """(host seconds, corrected seconds) of the timed ``steps``.

    ``steps`` are the (start, end) host times of the timed steps, and
    ``samples`` the (start, seconds, slowdown) probes of a
    :class:`SpeedSampler`, with one probe before the first step and one
    after each.  A step's host seconds leave out the probes run inside
    it.  Its slowdown is the median of those probes' and of the nearest
    one's on each side, so one probe caught in a momentary stall does
    not move a step.
    """
    starts = [start for start, _, _ in samples]
    host = corrected = 0.0
    for begin, end in steps:
        first = bisect.bisect_left(starts, begin)
        last = bisect.bisect_left(starts, end)
        net = end - begin - sum(d for _, d, _ in samples[first:last])
        slowdown = statistics.median(
            x for _, _, x in samples[max(first - 1, 0) : last + 1]
        )
        host += net
        corrected += net / slowdown
    return host, corrected


# ----------------------------------------------------------------------
# Operations
# ----------------------------------------------------------------------


@dataclass
class Operation:
    label: str
    run: object  # () -> result
    result: object = None
    error: str | None = None
    violations: int = 0

    @property
    def failed(self) -> bool:
        return self.error is not None or self.violations > 0


def _services(workload: Workload) -> dict:
    from repro.workloads.microservices import standard_microservices

    by_name = {s.name: s for s in standard_microservices()}
    return {name: by_name[name] for name in workload.services}


def _grid_operations(workload: Workload, fidelity) -> list[Operation]:
    from repro.harness.parallel import run_grid_cells

    services = _services(workload)
    ops = []
    # Workload-major, then design, then load: the order a single
    # run_grid_cells sweep evaluates, so the measurement and tail caches
    # see the same reuse.
    for service in services.values():
        for design in workload.designs:
            for load in workload.loads:
                def run(design=design, service=service, load=load):
                    return run_grid_cells(
                        designs=[design],
                        workloads=[service],
                        loads=(load,),
                        fidelity=fidelity,
                        workers=1,
                    )[0]

                ops.append(Operation(f"{design}/{service.name}@{load:g}", run))
    return ops


def _cluster_operations(workload: Workload, fidelity) -> list[Operation]:
    """One cell per balancer; the cells are labelled by balancer."""
    import repro.cluster.experiment as experiment

    (design,) = workload.designs
    (service,) = _services(workload).values()
    (load,) = workload.loads
    ops = []
    for balancer, requests in workload.cells:
        config = experiment.ClusterConfig(
            n_servers=workload.n_servers,
            fanout=workload.fanout,
            balancer=balancer,
            arrivals="poisson",
            num_requests=requests,
            warmup=requests // 20,
        )

        def run(config=config):
            # Looked up at call time so a traced pass runs the wrapped
            # entry.
            return experiment.run_cluster_cell(
                design, service, load, config, fidelity
            )

        ops.append(Operation(balancer, run))
    return ops


def _grid_law_owners(ops: list[Operation], violation) -> list[Operation]:
    """The operations a sweep-wide grid violation belongs to.

    The load-monotonicity law names the (design, service) series and
    carries the offending cell's tail as its observed value.
    """
    series = [
        op for op in ops
        if op.result is not None
        and violation.subject
        == f"grid:{op.result.design_name}/{op.result.workload_name}"
    ]
    exact = [op for op in series if op.result.tail_99_us == violation.observed]
    return exact or series


def _sweep_laws(ops: list[Operation]) -> list:
    """The cross-cell grid laws over the whole sweep, reported once.

    Each cell's own laws already ran in its ``run_grid_cells`` call, so
    of the sweep-wide check only the ``grid:`` series violations are
    new; the per-cell ones would repeat.
    """
    from repro import validate

    cells = [op.result for op in ops if op.result is not None]
    return validate.report([
        v for v in validate.check(cells, subject="grid")
        if v.subject.startswith("grid:")
    ])


# ----------------------------------------------------------------------
# The pass
# ----------------------------------------------------------------------


def _reset_planes() -> None:
    from repro import energy, obs, prof
    from repro.cluster import tailobs

    obs.disable()
    tailobs.reset()
    energy.reset()
    prof.disable()
    prof.reset()


def _isolate_caches(cache_dir: Path | None) -> None:
    """Empty the in-memory result caches and use a private disk cache."""
    from repro.cluster.experiment import clear_cluster_cache
    from repro.harness import cache as disk_cache
    from repro.harness.experiment import clear_tail_cache
    from repro.harness.measure import clear_cache as clear_measure_cache

    clear_measure_cache()
    clear_tail_cache()
    clear_cluster_cache()
    if cache_dir is None:
        disk_cache.configure(enabled=False)
    else:
        if cache_dir.exists() and any(cache_dir.iterdir()):
            raise RuntimeError(f"disk cache {cache_dir} is not empty")
        disk_cache.configure(root=cache_dir)


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_pass(
    workload: Workload,
    seed: int,
    *,
    t0: float,
    cache_dir: Path | None,
    traced: bool = False,
    check_reference: bool = False,
    trace_path: Path | None = None,
    setup_only: bool = False,
) -> dict:
    """Set up, run ``workload`` once, check its outputs; return a record.

    ``t0`` is a ``time.monotonic()`` reading taken by the parent just
    before it spawned this process: set-up time runs from it, through
    interpreter start-up and every import, to the first timed operation.
    In a traced pass the wrappers are in place during set-up too; its
    spans carry the cell :data:`~tracing.SETUP_CELL`.
    ``check_reference`` re-runs a telemetry workload's cells with
    telemetry off (outside the timed region) and compares them.
    ``setup_only`` stops after set-up and returns only the set-up times.

    An untraced pass samples the host's speed from the start of its
    set-up to the end of its timed work.  ``setup_s`` and ``wall_s`` are
    scaled to the reference speed; ``host_setup_s`` and ``host_wall_s``
    are plain host seconds, without the probes.  A traced pass does not
    probe the host, so the probes stay out of its spans, and its scaled
    and host times are equal.
    """
    sampler = SpeedSampler(workload.interpreted_share)
    try:
        return _run_pass(
            workload, seed, t0, cache_dir, sampler, traced=traced,
            check_reference=check_reference, trace_path=trace_path,
            setup_only=setup_only,
        )
    finally:
        sampler.stop()


def _run_pass(
    workload: Workload,
    seed: int,
    t0: float,
    cache_dir: Path | None,
    sampler: SpeedSampler,
    *,
    traced: bool,
    check_reference: bool,
    trace_path: Path | None,
    setup_only: bool,
) -> dict:
    from repro import energy, validate
    from repro.cluster import tailobs
    from repro.harness.fidelity import FAST
    from repro.uarch import fastpath

    if not fastpath.is_available():
        raise RuntimeError(
            "fastpath kernel unavailable: refusing to time the interpreted path"
        )
    if not traced:
        sampler.start()
    _reset_planes()
    _isolate_caches(cache_dir)
    fidelity = dataclasses.replace(FAST, seed=seed)

    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    if workload.kind == "grid":
        ops = _grid_operations(workload, fidelity)
    else:
        if workload.telemetry:
            tailobs.enable()
            energy.enable()
        # The core measurements behind the service model are set-up: the
        # timed cells read them from the in-memory cache.  Imported here,
        # after the wrappers are in, so a traced pass times them.
        from repro.harness.measure import measure

        (service,) = _services(workload).values()
        measure(workload.designs[0], service, fidelity)
        measure("baseline", service, fidelity)
        ops = _cluster_operations(workload, fidelity)
    host_setup_s = time.monotonic() - t0 - sum(d for _, d, _ in sampler.samples)
    sampler.sample()
    setup_s = (
        host_setup_s / statistics.median(x for _, _, x in sampler.samples)
        if sampler.samples
        else host_setup_s
    )
    if setup_only:
        _reset_planes()
        return {"setup_s": setup_s, "host_setup_s": host_setup_s}

    # Host (start, end) of each timed step; the sampler, when running,
    # probes the host during the steps and after each.
    steps: list[tuple[float, float]] = []
    with validate.collecting() as found:
        for op in ops:
            if tracer is not None:
                tracer.cell = op.label
            before = len(found)
            begin = time.perf_counter()
            try:
                op.result = op.run()
            except Exception as exc:  # the run goes on to the next cell
                op.error = "".join(
                    traceback.format_exception_only(type(exc), exc)
                ).strip()
            steps.append((begin, time.perf_counter()))
            op.violations += len(found) - before
            sampler.sample()
        if tracer is not None:
            tracer.cell = ""
        if workload.kind == "grid":
            begin = time.perf_counter()
            unowned = 0
            for violation in _sweep_laws(ops):
                owners = _grid_law_owners(ops, violation)
                unowned += not owners
                for op in owners:
                    op.violations += 1
            steps.append((begin, time.perf_counter()))
            sampler.sample()
    sampler.stop()
    if sampler.samples:
        host_wall_s, wall_s = speed_corrected(steps, sampler.samples)
    else:
        host_wall_s = wall_s = sum(end - begin for begin, end in steps)
    peak_rss_mb = _peak_rss_mb()

    checks: dict[str, bool] = {}
    if workload.kind == "grid":
        checks["grid_laws_owned"] = unowned == 0
    layers = None
    if tracer is not None:
        tracer.uninstall()
        records = sum(len(run.records) for run in tailobs.snapshot().runs)
        layers = layer_metrics(
            tracer, host_wall_s, tailobs_records=records,
            violations=len(found),
        )
        if trace_path is not None:
            tracer.write(trace_path)

    results = [op.result for op in ops]
    if workload.telemetry:
        esnap = energy.snapshot()
        checks["energy_conserved"] = (not esnap.empty) and esnap.conserved()
        checks["tail_records"] = not tailobs.snapshot().empty
        if check_reference:
            checks["telemetry_off_identical"] = _telemetry_off_identical(
                workload, fidelity, ops
            )
    _reset_planes()

    return {
        "workload": workload.name,
        "seed": seed,
        "traced": traced,
        "setup_s": setup_s,
        "host_setup_s": host_setup_s,
        "wall_s": wall_s,
        "host_wall_s": host_wall_s,
        "slowdown": (
            statistics.median(x for _, _, x in sampler.samples)
            if sampler.samples
            else None
        ),
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(ops),
        "failed": sum(op.failed for op in ops),
        "failures": [
            {"op": op.label, "error": op.error, "violations": op.violations}
            for op in ops
            if op.failed
        ],
        "violations": [str(v) for v in found],
        "digest": digest(results),
        "checks": checks,
        "layers": layers,
        "fastpath_mode": fastpath.mode(),
    }


def _telemetry_off_identical(workload: Workload, fidelity, ops) -> bool:
    """Each telemetry cell equals the telemetry-off cell at its seed."""
    reference = dataclasses.replace(workload, telemetry=False)
    _reset_planes()
    _isolate_caches(None)
    off = _cluster_operations(reference, fidelity)
    for on_op, off_op in zip(ops, off):
        if on_op.result is None:
            return False
        if canonical_bytes(on_op.result) != canonical_bytes(off_op.run()):
            return False
    return True
