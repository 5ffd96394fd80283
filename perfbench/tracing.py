"""Per-layer tracing for the benchmark, from outside the program.

A traced pass wraps each layer's public entry points with a timing
wrapper, at every place the entry is bound: a function imported by name
into another module is replaced there too, and a method is replaced on
every class that defines it.  Nothing under ``src/`` changes.

Spans are kept in memory, tagged with the operation (cell) they serve,
and written out when the pass ends.  The wrappers go in before the
pass's set-up, so spans opened there (the cluster workloads' core
measurements) carry the cell :data:`SETUP_CELL`: they count in each
layer's figures but not in the timed work that ``unattributed_ratio``
covers.  Spans nest strictly (the benchmark is one serial thread), so a
span's self time is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

#: (span name, module, class or None, attribute, include subclasses).
SPANS = (
    ("harness.run_cell", "repro.harness.experiment", None, "run_cell", False),
    ("harness.measure", "repro.harness.measure", None, "measure", False),
    ("harness.tail", "repro.harness.metrics", None, "tail_latency_s", False),
    ("harness.cache.get", "repro.harness.cache", "DiskCache", "get", False),
    ("harness.cache.put", "repro.harness.cache", "DiskCache", "put", False),
    ("queueing.mg1", "repro.queueing.mg1", "MG1Simulator", "run", False),
    ("queueing.stats", "repro.queueing.stats", None,
     "batch_means_percentile", False),
    ("uarch.engine", "repro.uarch.engine", "TimingEngine", "run", False),
    ("workloads.tracegen", "repro.workloads.tracegen", None,
     "generate_trace", False),
    ("core.dyad", "repro.core.server", "Dyad", "simulate", False),
    ("core.dyad", "repro.core.server", "Dyad", "idle_fill_ipc", False),
    ("validate", "repro.validate", None, "check", False),
    ("cluster.cell", "repro.cluster.experiment", None, "run_cluster_cell",
     False),
    ("cluster.arrivals", "repro.cluster.arrivals", "ArrivalProcess", "epochs",
     True),
    ("cluster.balancers.assign", "repro.cluster.balancers", "Balancer",
     "assignments", True),
    ("cluster.sim", "repro.cluster.sim", "ClusterSimulator", "run", False),
    ("uarch.fastpath.cluster_events", "repro.uarch.fastpath.cluster", None,
     "run_cluster_events", False),
    ("cluster.metrics.summarize", "repro.cluster.metrics", None, "summarize",
     False),
    ("cluster.tailobs.record", "repro.cluster.tailobs", None,
     "record_cluster_run", False),
    ("prof.record", "repro.prof", None, "record_mg1_run", False),
    ("energy.record", "repro.energy", None, "record_mg1_run", False),
    ("energy.record", "repro.energy", None, "record_cluster_run", False),
    ("energy.record", "repro.cluster.metrics", None, "energy_summary", False),
)

#: Entries that are counted, not timed: (counter, module, class, attr).
COUNTED = (
    ("engine_try", "repro.uarch.fastpath", None, "try_run"),
    ("tracegen_try", "repro.uarch.fastpath", None, "try_tracegen"),
    ("batch_base", "repro.queueing.mg1", "DistributionService", "batch_base"),
    ("batch_base", "repro.queueing.mg1", "RestartPenaltyService", "batch_base"),
    ("batch_base", "repro.harness.metrics", "DesignServiceModel", "batch_base"),
)

#: The cell of spans opened before the first timed operation.
SETUP_CELL = "setup"

#: The cluster workloads run one cell per balancer; per-cell metrics
#: carry the balancer as a suffix.
BALANCERS = ("random", "jsq")

#: Every per-layer metric a traced run prints, with its unit.
PER_LAYER_UNITS = {
    "queueing.mg1.s": "s",
    "queueing.mg1.calls": "count",
    "queueing.mg1.requests": "count",
    "queueing.mg1.ns_per_request": "ns",
    "queueing.mg1.batch_calls": "count",
    "queueing.mg1.batched_ratio": "ratio",
    "uarch.engine.s": "s",
    "uarch.engine.calls": "count",
    "uarch.engine.sim_instructions": "count",
    "uarch.engine.sim_cycles": "count",
    "uarch.engine.sim_minstr_per_s": "Minstr/s",
    "uarch.fastpath.engine_calls": "count",
    "uarch.fastpath.engine_bound_ratio": "ratio",
    "workloads.tracegen.s": "s",
    "workloads.tracegen.calls": "count",
    "workloads.tracegen.compiled_ratio": "ratio",
    "core.dyad.s": "s",
    "core.dyad.self_s": "s",
    "core.dyad.calls": "count",
    "harness.run_cell.calls": "count",
    "harness.run_cell.p50_s": "s",
    "harness.run_cell.phigh_s": "s",
    "harness.run_cell.phigh_pct": "%",
    "harness.measure.s": "s",
    "harness.measure.calls": "count",
    "harness.tail.s": "s",
    "harness.tail.calls": "count",
    "harness.cache.get_s": "s",
    "harness.cache.put_s": "s",
    "harness.cache.gets": "count",
    "harness.cache.puts": "count",
    "harness.cache.hit_ratio": "ratio",
    "validate.s": "s",
    "validate.calls": "count",
    "validate.violations": "count",
    "cluster.cell.s.random": "s",
    "cluster.cell.s.jsq": "s",
    "cluster.cell.self_s": "s",
    "cluster.arrivals.s": "s",
    "cluster.balancers.assign_s": "s",
    **{
        f"cluster.sim.{metric}.{balancer}": unit
        for metric, unit in (
            ("run_s", "s"),
            ("self_s", "s"),
            ("leaves", "count"),
            ("ns_per_leaf", "ns"),
            ("servers", "count"),
            ("kernel_server_ratio", "ratio"),
        )
        for balancer in BALANCERS
    },
    "uarch.fastpath.cluster_events_s": "s",
    "uarch.fastpath.cluster_events_calls": "count",
    "uarch.fastpath.cluster_events_bound_ratio": "ratio",
    "cluster.metrics.summarize_s": "s",
    "queueing.stats.s": "s",
    "cluster.tailobs.record_s": "s",
    "cluster.tailobs.records": "count",
    "prof.record_s": "s",
    "energy.record_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "unattributed_ratio": "ratio",
    "trace_overhead_ratio": "ratio",
}


def import_layers() -> None:
    """Import every module that defines or binds a wrapped entry, so no
    binding is created after the wrappers are in place."""
    for module in (
        *(entry[1] for entry in SPANS + COUNTED),
        "repro.harness.parallel",
        "repro.workloads.filler",
        "repro.workloads.spec",
        "repro.core.chip",
    ):
        importlib.import_module(module)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _after_engine(tracer, args, kwargs, result):
    tracer.counts["sim_instructions"] += result.instructions
    tracer.counts["sim_cycles"] += result.cycles


def _after_mg1(tracer, args, kwargs, result):
    tracer.counts["mg1_requests"] += _arg(args, kwargs, 1, "num_requests")


def _after_cluster_sim(tracer, args, kwargs, result):
    sim = args[0]
    cell = tracer.cell_counts[tracer.cell]
    cell["leaves"] += _arg(args, kwargs, 1, "num_requests") * sim.fanout
    cell["servers"] += sim.n_servers
    cell["kernel_servers"] += result.fastpath_servers


def _after_cache_get(tracer, args, kwargs, result):
    tracer.counts["cache_hits"] += result is not None


def _after_cluster_events(tracer, args, kwargs, result):
    tracer.counts["cluster_events_bound"] += result is not None


_AFTER = {
    "uarch.engine": _after_engine,
    "queueing.mg1": _after_mg1,
    "cluster.sim": _after_cluster_sim,
    "harness.cache.get": _after_cache_get,
    "uarch.fastpath.cluster_events": _after_cluster_events,
}


class Tracer:
    """In-memory spans and counters of one traced pass."""

    def __init__(self) -> None:
        #: The operation being run; stamped on every span it opens.
        self.cell = SETUP_CELL
        #: [name, cell, start, end, parent index, outermost, child seconds]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.cell_counts: dict[str, Counter] = defaultdict(Counter)
        self._stack: list[int] = []
        self._depth: Counter = Counter()
        self._undo: list = []

    # -- wrappers ---------------------------------------------------------

    def _timed(self, name, fn):
        spans, stack, depth = self.spans, self._stack, self._depth
        after = _AFTER.get(name)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = [name, tracer.cell, 0.0, 0.0, parent, depth[name] == 0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            depth[name] += 1
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                span[3] = end
                stack.pop()
                depth[name] -= 1
                if parent is not None:
                    spans[parent][6] += end - span[2]
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return wrapper

    def _counted(self, counter, fn):
        counts, stack, spans = self.counts, self._stack, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if counter == "batch_base":
                # Only the M/G/1 simulator's own pre-draw request: the
                # cluster executors call batch_base too.
                if not stack or spans[stack[-1]][0] != "queueing.mg1":
                    return result
                ok = result is not None
            else:
                ok = bool(result)
            counts[counter + "_calls"] += 1
            counts[counter + "_ok"] += ok
            return result

        return wrapper

    # -- installation -----------------------------------------------------

    def _replace_function(self, module: str, attr: str, make) -> None:
        original = getattr(importlib.import_module(module), attr)
        wrapper = make(original)
        bound = 0
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, original))
                    bound += 1
        if not bound:
            raise RuntimeError(f"{module}.{attr} is bound nowhere")

    def _replace_method(
        self, module: str, cls_name: str, attr: str, make, subclasses: bool
    ) -> None:
        base = getattr(importlib.import_module(module), cls_name)
        classes, todo = [], [base]
        while todo:
            cls = todo.pop()
            classes.append(cls)
            if subclasses:
                todo.extend(cls.__subclasses__())
        for cls in classes:
            if attr in vars(cls):
                original = vars(cls)[attr]
                setattr(cls, attr, make(original))
                self._undo.append((cls, attr, original))

    def install(self) -> None:
        """Wrap every entry in :data:`SPANS` and :data:`COUNTED`."""
        import_layers()
        for name, module, cls_name, attr, subclasses in SPANS:
            make = functools.partial(self._timed, name)
            if cls_name is None:
                self._replace_function(module, attr, make)
            else:
                self._replace_method(module, cls_name, attr, make, subclasses)
        for counter, module, cls_name, attr in COUNTED:
            make = functools.partial(self._counted, counter)
            if cls_name is None:
                self._replace_function(module, attr, make)
            else:
                self._replace_method(module, cls_name, attr, make, False)

    def uninstall(self) -> None:
        """Restore every original binding."""
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines (times relative to the first)."""
        origin = self.spans[0][2] if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            out.write(json.dumps({"fields": [
                "name", "cell", "start_s", "dur_s", "parent", "self_s",
            ]}) + "\n")
            for name, cell, start, end, parent, _outer, child in self.spans:
                out.write(json.dumps([
                    name, cell, start - origin, end - start, parent,
                    end - start - child,
                ]) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _phigh(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and
    that percentile (0, 0 with ten samples or fewer)."""
    n = len(values)
    if n <= 10:
        return 0.0, 0.0
    rank = n - 10
    return sorted(values)[rank - 1], 100.0 * rank / n


def layer_metrics(
    tracer: Tracer, wall_s: float, *, tailobs_records: int, violations: int
) -> dict:
    """Per-layer metrics of one traced pass whose timed work took
    ``wall_s`` and which reported ``violations``; ``trace.untraced_wall_s``
    and ``trace_overhead_ratio`` are left for the caller, which ran the
    untraced pass."""
    total = Counter()  # outermost spans only: no double counting
    own = Counter()
    calls = Counter()
    cell_total = Counter()
    cell_own = Counter()
    attributed = 0.0
    run_cell = []
    for name, cell, start, end, parent, outer, child in tracer.spans:
        dur = end - start
        calls[name] += 1
        own[name] += dur - child
        cell_own[name, cell] += dur - child
        if outer:
            total[name] += dur
            cell_total[name, cell] += dur
        if parent is None and cell != SETUP_CELL:
            attributed += dur
        if name == "harness.run_cell":
            run_cell.append(dur)

    c = tracer.counts
    phigh, phigh_pct = _phigh(run_cell)
    m = {
        "queueing.mg1.s": total["queueing.mg1"],
        "queueing.mg1.calls": calls["queueing.mg1"],
        "queueing.mg1.requests": c["mg1_requests"],
        "queueing.mg1.ns_per_request": 1e9 * _ratio(
            total["queueing.mg1"], c["mg1_requests"]
        ),
        "queueing.mg1.batch_calls": c["batch_base_calls"],
        "queueing.mg1.batched_ratio": _ratio(
            c["batch_base_ok"], c["batch_base_calls"]
        ),
        "uarch.engine.s": total["uarch.engine"],
        "uarch.engine.calls": calls["uarch.engine"],
        "uarch.engine.sim_instructions": c["sim_instructions"],
        "uarch.engine.sim_cycles": c["sim_cycles"],
        "uarch.engine.sim_minstr_per_s": 1e-6 * _ratio(
            c["sim_instructions"], total["uarch.engine"]
        ),
        "uarch.fastpath.engine_calls": c["engine_try_calls"],
        "uarch.fastpath.engine_bound_ratio": _ratio(
            c["engine_try_ok"], c["engine_try_calls"]
        ),
        "workloads.tracegen.s": total["workloads.tracegen"],
        "workloads.tracegen.calls": calls["workloads.tracegen"],
        "workloads.tracegen.compiled_ratio": _ratio(
            c["tracegen_try_ok"], calls["workloads.tracegen"]
        ),
        "core.dyad.s": total["core.dyad"],
        "core.dyad.self_s": own["core.dyad"],
        "core.dyad.calls": calls["core.dyad"],
        "harness.run_cell.calls": calls["harness.run_cell"],
        "harness.run_cell.p50_s": statistics.median(run_cell) if run_cell else 0.0,
        "harness.run_cell.phigh_s": phigh,
        "harness.run_cell.phigh_pct": phigh_pct,
        "harness.measure.s": total["harness.measure"],
        "harness.measure.calls": calls["harness.measure"],
        "harness.tail.s": total["harness.tail"],
        "harness.tail.calls": calls["harness.tail"],
        "harness.cache.get_s": total["harness.cache.get"],
        "harness.cache.put_s": total["harness.cache.put"],
        "harness.cache.gets": calls["harness.cache.get"],
        "harness.cache.puts": calls["harness.cache.put"],
        "harness.cache.hit_ratio": _ratio(
            c["cache_hits"], calls["harness.cache.get"]
        ),
        "validate.s": total["validate"],
        "validate.calls": calls["validate"],
        "validate.violations": violations,
        "cluster.cell.s.random": cell_total["cluster.cell", "random"],
        "cluster.cell.s.jsq": cell_total["cluster.cell", "jsq"],
        "cluster.cell.self_s": own["cluster.cell"],
        "cluster.arrivals.s": total["cluster.arrivals"],
        "cluster.balancers.assign_s": total["cluster.balancers.assign"],
        "uarch.fastpath.cluster_events_s": total["uarch.fastpath.cluster_events"],
        "uarch.fastpath.cluster_events_calls": calls[
            "uarch.fastpath.cluster_events"
        ],
        "uarch.fastpath.cluster_events_bound_ratio": _ratio(
            c["cluster_events_bound"], calls["uarch.fastpath.cluster_events"]
        ),
        "cluster.metrics.summarize_s": total["cluster.metrics.summarize"],
        "queueing.stats.s": total["queueing.stats"],
        "cluster.tailobs.record_s": total["cluster.tailobs.record"],
        "cluster.tailobs.records": tailobs_records,
        "prof.record_s": total["prof.record"],
        "energy.record_s": total["energy.record"],
        "trace.wall_s": wall_s,
        "unattributed_ratio": _ratio(max(wall_s - attributed, 0.0), wall_s),
    }
    for balancer in BALANCERS:
        run_s = cell_total["cluster.sim", balancer]
        cell = tracer.cell_counts[balancer]
        m[f"cluster.sim.run_s.{balancer}"] = run_s
        m[f"cluster.sim.self_s.{balancer}"] = cell_own["cluster.sim", balancer]
        m[f"cluster.sim.leaves.{balancer}"] = cell["leaves"]
        m[f"cluster.sim.ns_per_leaf.{balancer}"] = 1e9 * _ratio(
            run_s, cell["leaves"]
        )
        m[f"cluster.sim.servers.{balancer}"] = cell["servers"]
        m[f"cluster.sim.kernel_server_ratio.{balancer}"] = _ratio(
            cell["kernel_servers"], cell["servers"]
        )
    return m
