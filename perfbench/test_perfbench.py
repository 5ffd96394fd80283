"""Tests of the benchmark's own code.

    PYTHONPATH=src python3 -m pytest perfbench -q

They run tiny versions of the workloads in-process (a few seconds in
all); the full workloads run only through ``run.py``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
for path in (str(HERE), str(SRC)):
    if path not in sys.path:
        sys.path.insert(0, path)

import bench  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

TINY_GRID = dataclasses.replace(
    bench.GRID,
    name="tiny_grid",
    designs=("baseline", "duplexity"),
    services=("WordStem",),
    loads=(0.3, 0.7),
)
TINY_CELLS = (("random", 4000), ("jsq", 4000))
TINY_CLUSTER = dataclasses.replace(
    bench.CLUSTER, name="tiny_cluster", cells=TINY_CELLS
)
TINY_CLUSTER_TELEMETRY = dataclasses.replace(
    bench.CLUSTER_TELEMETRY, name="tiny_cluster_telemetry", cells=TINY_CELLS
)
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(autouse=True)
def _restore_program_state():
    from repro.harness import cache as disk_cache
    from repro.uarch import fastpath

    yield
    fastpath.set_mode(None)
    disk_cache.reset()


def _pass(workload, tmp_path, **kwargs):
    cache_dir = tmp_path / f"cache-{len(list(tmp_path.iterdir()))}"
    return bench.run_pass(
        workload, 0, t0=time.monotonic(), cache_dir=cache_dir, **kwargs
    )


def test_digest_repeats_across_hash_seeds(tmp_path):
    script = (
        "import time, bench, test_perfbench as t\n"
        "from pathlib import Path\n"
        "for i, w in enumerate((t.TINY_GRID, t.TINY_CLUSTER)):\n"
        "    rec = bench.run_pass(w, 3, t0=time.monotonic(),\n"
        "                         cache_dir=Path(%r) / str(i))\n"
        "    print(rec['digest'])\n"
    )
    digests = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join((str(HERE), str(SRC))))
        out = subprocess.run(
            [sys.executable, "-c", script % str(tmp_path / hash_seed)],
            env=env, cwd=HERE, capture_output=True, text=True, timeout=300,
            check=True,
        ).stdout.split()
        digests.append(out)
    assert len(digests[0]) == 2
    assert digests[0] == digests[1]


def test_canonical_bytes_is_nan_safe():
    nan = float("nan")
    other_nan = -nan
    assert bench.canonical_bytes([nan, 1.0]) == bench.canonical_bytes(
        [other_nan, 1.0]
    )
    assert bench.canonical_bytes(0.0) != bench.canonical_bytes(-0.0)
    assert bench.canonical_bytes(None) != bench.canonical_bytes("N")


def test_traced_pass_keeps_the_digest(tmp_path):
    from repro.harness import experiment

    plain = _pass(TINY_GRID, tmp_path)
    traced = _pass(TINY_GRID, tmp_path, traced=True,
                   trace_path=tmp_path / "spans.jsonl")
    assert plain["failed"] == traced["failed"] == 0
    assert traced["digest"] == plain["digest"]
    assert plain["slowdown"] > 0 and plain["wall_s"] > 0
    assert plain["setup_s"] > 0 and plain["host_setup_s"] > 0
    # A traced pass does not probe the host.
    assert traced["slowdown"] is None
    assert traced["wall_s"] == traced["host_wall_s"]
    layers = traced["layers"]
    assert layers["harness.run_cell.calls"] == 4
    assert layers["queueing.mg1.calls"] > 0
    assert layers["uarch.engine.sim_instructions"] > 0
    assert 0 <= layers["unattributed_ratio"] < 0.05
    # Uninstalled afterwards.
    assert not hasattr(experiment.run_cell, "__wrapped__")
    header = json.loads((tmp_path / "spans.jsonl").read_text().splitlines()[0])
    assert header["fields"][0] == "name"


def test_speed_correction_scales_each_step_by_the_probes_around_it():
    d = 0.001
    # Probes are (start, seconds, slowdown); steps are (start, end).  A
    # host at half the reference speed reads as the reference.
    slow = [(0.0, d, 2.0), (1.0, d, 2.0), (3.0, d, 2.0)]
    host, corrected = bench.speed_corrected([(0.5, 1.0), (1.5, 3.0)], slow)
    assert host == pytest.approx(2.0)
    assert corrected == pytest.approx(1.0)
    # Probes run inside a step are not part of its time, and one
    # stalled probe does not move it.
    stalled = [
        (0.0, d, 1.0), (0.3, d, 1.0), (0.5, 9 * d, 9.0), (0.7, d, 1.0),
        (1.0, d, 1.0),
    ]
    host, corrected = bench.speed_corrected([(0.1, 1.0)], stalled)
    assert host == pytest.approx(0.9 - 11 * d)
    assert corrected == pytest.approx(host)
    # A lasting slowdown is taken out of the steps it covers.
    host, corrected = bench.speed_corrected(
        [(0.1, 1.0), (1.1, 2.0)],
        [(0.0, d, 1.0), (1.0, d, 3.0), (1.05, d, 3.0), (2.0, d, 3.0)],
    )
    assert host == pytest.approx(0.9 + 0.9)
    assert corrected == pytest.approx(0.9 / 2 + 0.9 / 3)


def test_speed_sampler_weights_the_probe_halves():
    native = bench.SpeedSampler(0.0)
    mixed = bench.SpeedSampler(bench.GRID.interpreted_share)
    mixed.sample()  # not started: no probe
    assert mixed.samples == []
    native.start()
    try:
        time.sleep(3 * bench.PROBE_PERIOD_S)
    finally:
        native.stop()
    mixed.start()
    mixed.stop()
    assert len(native.samples) >= 2
    for _, seconds, slowdown in native.samples:
        assert slowdown == pytest.approx(seconds / bench.NATIVE_REFERENCE_S)
    ((_, seconds, slowdown),) = mixed.samples
    # The interpreted half runs too, and both halves count.
    assert seconds > 0 and slowdown > 0
    assert slowdown != pytest.approx(seconds / bench.NATIVE_REFERENCE_S)


def test_wrappers_reach_every_binding_site():
    import importlib

    tracer = tracing.Tracer()
    originals = {
        (module, attr): getattr(importlib.import_module(module), attr)
        for _, module, cls, attr, _ in tracing.SPANS
        if cls is None
    }
    tracer.install()
    try:
        for (module, attr), original in originals.items():
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("repro"):
                    assert all(v is not original for v in vars(mod).values()), (
                        f"{mod.__name__} still binds the unwrapped {attr}"
                    )
        import repro.cluster.experiment as cluster_experiment
        import repro.workloads.microservices as microservices

        assert cluster_experiment.measure is not originals[
            "repro.harness.measure", "measure"]
        assert microservices.generate_trace is not originals[
            "repro.workloads.tracegen", "generate_trace"]
    finally:
        tracer.uninstall()
    for (module, attr), original in originals.items():
        assert getattr(importlib.import_module(module), attr) is original


def test_names_match_the_benchmark_description(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert end_to_end == run.END_TO_END_UNITS
    assert per_layer == tracing.PER_LAYER_UNITS
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(bench.WORKLOADS)

    plain = _pass(TINY_CLUSTER, tmp_path)
    traced = _pass(TINY_CLUSTER, tmp_path, traced=True)
    correct, e2e, _ = run.summarize([plain], [])
    assert correct
    correct, layers, _ = run.summarize([plain], [traced])
    assert correct
    assert set(e2e) == set(end_to_end)
    assert set(layers) == set(per_layer)
    for name in (*e2e, *layers, *bench.WORKLOADS):
        assert NAME.fullmatch(name), name
    assert layers["cluster.sim.leaves.jsq"]["value"] == 4000 * 8
    assert layers["uarch.fastpath.cluster_events_bound_ratio"]["value"] == 1.0


def test_injected_exception_fails_only_that_cell(tmp_path, monkeypatch):
    from repro.harness import experiment

    real = experiment.run_cell

    def flaky(design, workload, load, fidelity):
        if design == "duplexity" and load == 0.3:
            raise RuntimeError("injected")
        return real(design, workload, load, fidelity)

    monkeypatch.setattr(experiment, "run_cell", flaky)
    rec = _pass(TINY_GRID, tmp_path)
    assert rec["attempted"] == 4
    assert rec["failed"] == 1
    (failure,) = rec["failures"]
    assert failure["op"] == "duplexity/WordStem@0.3"
    assert "injected" in failure["error"]


def test_injected_violation_fails_only_that_cell(tmp_path, monkeypatch):
    from repro import validate

    real = validate.check_cluster_cell

    def strict(cell, subject=""):
        found = real(cell, subject)
        if cell.balancer == "jsq":
            found.append(validate.Violation("injected", subject, "injected"))
        return found

    monkeypatch.setattr(validate, "check_cluster_cell", strict)
    rec = _pass(TINY_CLUSTER, tmp_path)
    assert rec["attempted"] == 2
    assert [f["op"] for f in rec["failures"]] == ["jsq"]
    correct, _, _ = run.summarize([rec], [])
    assert not correct


def test_grid_law_violation_belongs_to_the_offending_cell():
    from repro.validate import Violation

    def op(load, tail):
        cell = SimpleNamespace(design_name="d", workload_name="w", load=load,
                               tail_99_us=tail)
        return bench.Operation(f"d/w@{load:g}", None, result=cell)

    ops = [op(0.3, 5.0), op(0.5, 4.0), op(0.7, 6.0)]
    monotone = Violation("tail-monotone", "grid:d/w", "drop", observed=4.0,
                         expected=5.0)
    assert bench._grid_law_owners(ops, monotone) == [ops[1]]


def test_cell_violation_is_counted_once(tmp_path, monkeypatch):
    from repro import validate

    real = validate.check_cell

    def strict(cell, subject=""):
        found = real(cell, subject)
        if cell.design_name == "duplexity" and cell.load == 0.7:
            found.append(validate.Violation("injected", subject, "injected"))
        return found

    monkeypatch.setattr(validate, "check_cell", strict)
    rec = _pass(TINY_GRID, tmp_path, traced=True)
    assert rec["failures"] == [
        {"op": "duplexity/WordStem@0.7", "error": None, "violations": 1}
    ]
    assert len(rec["violations"]) == 1
    assert rec["layers"]["validate.violations"] == 1
    assert rec["checks"]["grid_laws_owned"]


def test_traced_setup_is_outside_the_timed_work(tmp_path):
    spans = tmp_path / "spans.jsonl"
    rec = _pass(TINY_CLUSTER, tmp_path, traced=True, trace_path=spans)
    layers = rec["layers"]
    rows = [json.loads(line) for line in spans.read_text().splitlines()[1:]]
    setup = [r for r in rows if r[1] == tracing.SETUP_CELL]
    # The two core measurements behind the service model.
    assert [r[0] for r in setup if r[4] is None] == ["harness.measure"] * 2
    assert {r[0] for r in setup} >= {"uarch.engine", "workloads.tracegen"}
    assert layers["uarch.engine.calls"] > 0
    assert layers["harness.measure.calls"] >= 2
    timed = sum(r[3] for r in rows if r[4] is None and r[1] != "setup")
    assert layers["unattributed_ratio"] == pytest.approx(
        1 - timed / layers["trace.wall_s"]
    )


def test_small_cluster_matches_fastpath_off(tmp_path):
    from repro.uarch import fastpath

    compiled = _pass(TINY_CLUSTER, tmp_path)
    fastpath.set_mode("off")
    reference = _pass(TINY_CLUSTER, tmp_path)
    assert reference["fastpath_mode"] == "off"
    assert compiled["failed"] == reference["failed"] == 0
    assert compiled["digest"] == reference["digest"]
    assert compiled["slowdown"] > 0


def test_telemetry_pass_checks_against_telemetry_off(tmp_path):
    on = _pass(TINY_CLUSTER_TELEMETRY, tmp_path, check_reference=True)
    assert on["checks"] == {
        "energy_conserved": True,
        "tail_records": True,
        "telemetry_off_identical": True,
    }
    assert on["digest"] == _pass(TINY_CLUSTER, tmp_path)["digest"]


def test_run_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid", "--seed",
         "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
