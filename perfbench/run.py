"""Benchmark of the Duplexity reproduction: one workload, one seed.

    python3 perfbench/run.py --workload grid --seed 0 --seconds 40 --trace 0

Run from anywhere; the program is taken from ``src/`` next to this
directory and nothing is installed.  A run first builds (or loads) the
compiled kernel in a separate process, then runs passes of the
workload's fixed work, each in a fresh process, one after the other,
until the next pass would end after ``--seconds``.  At least one pass
always runs.

``--trace 0`` prints the end-to-end metrics: the median over passes of
``wall_s`` (the timed work) and ``peak_rss_mb``, and the median of
``setup_s`` (process spawn to the first timed operation) over the
passes and the set-up-only processes run between them.  Both times are
scaled to the host's reference speed (see ``bench.SpeedSampler``).  ``--trace 1``
alternates untraced and traced passes and prints the per-layer metrics
of the traced ones (medians over traced passes).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Files go under
``.perfbench/`` at the root of the checkout: the kernel build, per-pass
result caches (deleted after each pass) and the span files of traced
passes.  A run that cannot start (no ``src/repro``, no kernel, a pass
that crashes) prints no result and exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

WORKLOADS = ("grid", "cluster", "cluster_telemetry")
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
#: A run must end within 180 s; passes are killed past this budget.
RUN_BUDGET_S = 170.0
#: Set-up-only processes after each untraced pass.  They are cheap, so
#: a run's set-up samples outnumber its passes and spread over the run.
SETUPS_PER_ROUND = 2
#: Set-up samples per untraced run, at least: a run short of them adds
#: set-up-only processes at its end.
MIN_SETUPS = 15


class PassError(RuntimeError):
    """A pass process failed or overran the run budget."""


def _pins(cache_dir: Path | None) -> dict[str, str]:
    pins = {
        "PYTHONPATH": str(SRC),
        "PYTHONHASHSEED": "0",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        # The kernel build's compiler writes its temporaries here.
        "TMPDIR": str(WORK / "tmp"),
        "REPRO_FASTPATH_CACHE": str(WORK / "fastpath"),
    }
    if cache_dir is not None:
        pins["REPRO_CACHE_DIR"] = str(cache_dir)
    return pins


def pinned_env(cache_dir: Path | None = None) -> dict[str, str]:
    """The environment of every pass.

    Inherited ``REPRO_*`` variables and ``PYTHONDONTWRITEBYTECODE`` are
    dropped (bytecode is cached, so no pass compiles it in its set-up)
    and the pins above are set.  ``REPRO_FASTPATH`` stays unset: ``auto``.
    """
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith("REPRO_") and k != "PYTHONDONTWRITEBYTECODE"
    }
    env.update(_pins(cache_dir))
    return env


def _describe_env() -> str:
    pins = _pins(WORK / "runs" / "RUN" / "cache-PASS")
    shown = " ".join(
        f"{k}={os.path.relpath(v, ROOT) if v.startswith('/') else v}"
        for k, v in pins.items()
    )
    dropped = sorted(k for k in os.environ if k.startswith("REPRO_"))
    return (
        shown
        + "; every other REPRO_* unset (REPRO_FASTPATH unset = auto)"
        + (f"; dropped from the caller: {', '.join(dropped)}" if dropped else "")
    )


def _child(args: list[str], env: dict, deadline: float) -> None:
    remaining = deadline - time.monotonic()
    if remaining <= 1:
        raise PassError("run budget exhausted")
    try:
        # The child's set-up time starts here, before the spawn.
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *args,
             "--spawned", repr(time.monotonic())],
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise PassError(f"pass overran the {RUN_BUDGET_S:.0f} s run budget")
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise PassError(f"pass exited {proc.returncode}:\n{tail}")


def host_facts(run_dir: Path, deadline: float) -> dict:
    out = run_dir / "host.json"
    try:
        _child(["--host-facts", "--out", str(out)], pinned_env(), deadline)
    except PassError as exc:
        raise PassError(
            "the compiled kernel is unavailable; refusing to time the"
            f" interpreted path ({exc})"
        ) from None
    return json.loads(out.read_text())


def run_pass(workload, seed, index, run_dir, deadline, *, traced=False,
             check_reference=False, setup_only=False) -> dict:
    cache_dir = run_dir / f"cache-{index}"
    out = run_dir / f"pass-{index}.json"
    args = [
        "--workload", workload, "--seed", str(seed), "--out", str(out),
        "--cache-dir", str(cache_dir),
    ]
    if traced:
        trace_file = WORK / "traces" / f"{workload}-seed{seed}-pass{index}.jsonl"
        args += ["--trace", "--trace-file", str(trace_file)]
    if check_reference:
        args.append("--check-reference")
    if setup_only:
        args.append("--setup-only")
    try:
        _child(args, pinned_env(cache_dir), deadline)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return json.loads(out.read_text())


def run_passes(workload, seed, seconds, traced, run_dir, deadline):
    """Untraced and (when ``traced``) traced pass records, and the set-up
    times of the untraced passes and of the set-up-only processes (none
    in a traced run, which reports no ``setup_s``)."""
    plain, with_trace, setups, rounds = [], [], [], []
    index = 0

    def spawn(**kwargs) -> dict:
        nonlocal index
        record = run_pass(workload, seed, index, run_dir, deadline, **kwargs)
        index += 1
        return record

    start = time.monotonic()
    while True:
        t = time.monotonic()
        plain.append(spawn(check_reference=not plain))
        if traced:
            with_trace.append(spawn(traced=True))
        rounds.append(time.monotonic() - t)
        if not traced:
            setups.append(plain[-1]["setup_s"])
            for _ in range(SETUPS_PER_ROUND):
                setups.append(spawn(setup_only=True)["setup_s"])
        # Another round if its passes would end within ``seconds``.
        if time.monotonic() - start + statistics.median(rounds) > seconds:
            break
    while not traced and len(setups) < MIN_SETUPS:
        setups.append(spawn(setup_only=True)["setup_s"])
    return plain, with_trace, setups


def _median(records, key):
    return statistics.median(r[key] for r in records)


def summarize(plain, with_trace, setups=()) -> tuple[bool, dict, list[str]]:
    """(correct, metrics, report lines) over a run's pass records and
    set-up samples (by default, those of the untraced passes)."""
    records = plain + with_trace
    digests = sorted({r["digest"] for r in records})
    checks: dict[str, bool] = {}
    for r in records:
        for name, ok in r["checks"].items():
            checks[name] = checks.get(name, True) and ok
    checks["no_failed_operations"] = all(r["failed"] == 0 for r in records)
    checks["digest_repeats"] = len(digests) == 1
    correct = all(checks.values())

    lines = []
    for r in records:
        slowdown = "" if r["slowdown"] is None else f" slowdown={r['slowdown']:.3f}"
        lines.append(
            f"pass {'traced  ' if r['traced'] else 'untraced'}"
            f" setup_s={r['setup_s']:.4f} host_setup_s={r['host_setup_s']:.4f}"
            f" wall_s={r['wall_s']:.4f} host_wall_s={r['host_wall_s']:.4f}"
            f"{slowdown}"
            f" peak_rss_mb={r['peak_rss_mb']:.1f}"
            f" ops={r['attempted']} failed={r['failed']}"
            f" digest={r['digest'][:16]}"
        )
        for failure in r["failures"]:
            lines.append(f"  failed {failure}")
        for violation in r["violations"]:
            lines.append(f"  violation {violation}")
    lines.append(f"output digest: {' '.join(digests)}")
    lines.append(
        "checks: " + " ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in checks.items())
    )
    lines.append(f"verdict: {'correct' if correct else 'INCORRECT'}")

    if not with_trace:
        setups = setups or [r["setup_s"] for r in plain]
        lines.append("setup_s samples: " + " ".join(f"{s:.4f}" for s in setups))
        values = {
            "wall_s": _median(plain, "wall_s"),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": _median(plain, "peak_rss_mb"),
        }
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }
        return correct, metrics, lines

    from tracing import PER_LAYER_UNITS

    layers = [r["layers"] for r in with_trace]
    values = {name: statistics.median(l[name] for l in layers) for name in layers[0]}
    values["trace.untraced_wall_s"] = _median(plain, "host_wall_s")
    values["trace_overhead_ratio"] = (
        values["trace.wall_s"] / values["trace.untraced_wall_s"]
    )
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit in PER_LAYER_UNITS.items()
    }
    return correct, metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'repro'}", file=sys.stderr)
        return 2
    # Termination unwinds like an error, so the running pass is killed
    # and waited for, and the run's files are removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + RUN_BUDGET_S
    for sub in ("runs", "tmp"):
        (WORK / sub).mkdir(parents=True, exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK / "runs"))
    try:
        facts = host_facts(run_dir, deadline)
        if Path(facts["repro"]) != (SRC / "repro").resolve():
            raise PassError(f"imported repro from {facts['repro']}, not {SRC}")
        plain, with_trace, setups = run_passes(
            args.workload, args.seed, args.seconds, bool(args.trace), run_dir,
            deadline,
        )
    except PassError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    correct, metrics, lines = summarize(plain, with_trace, setups)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g}"
          f" trace {args.trace}: {len(plain)} untraced + {len(with_trace)}"
          " traced passes, one serial client")
    print("host: " + " ".join(f"{k}={v}" for k, v in facts.items() if k != "repro"))
    print("env: " + _describe_env())
    for line in lines:
        print(line)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    attempted = sum(r["attempted"] for r in plain + with_trace)
    failed = sum(r["failed"] for r in plain + with_trace)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
