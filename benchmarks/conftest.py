"""Shared fixtures for the benchmark suite.

The full evaluation grid (Figures 5a-5f and 6) is simulated once per
session at BENCH fidelity and shared by every figure bench; each bench
then extracts, validates and reports its figure. Reports are also written
to ``benchmarks/output/`` for inclusion in EXPERIMENTS.md.

The grid runs through the parallel runner (``REPRO_BENCH_WORKERS``
processes, default one per workload) on top of the persistent result
cache, which lives under ``benchmarks/output/cache`` unless
``REPRO_CACHE_DIR`` points elsewhere — so a re-run after an interrupted
or repeated session only simulates what is missing.
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import pickle

import pytest

import repro
from repro.harness import cache
from repro.harness.fidelity import BENCH
from repro.harness.figures import EvaluationGrid, evaluation_grid
from repro.workloads.microservices import standard_microservices

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"


def _source_digest() -> str:
    """SHA-256 over the simulator's sources (``kernel.c`` included) and
    the cache schema: any change makes a saved grid stale."""
    root = pathlib.Path(repro.__file__).parent
    digest = hashlib.sha256(f"schema={cache.SCHEMA_VERSION}".encode())
    for path in sorted(root.rglob("*")):
        if path.suffix in (".py", ".c"):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


_GRID_CACHE = OUTPUT_DIR / f"grid-{BENCH.name}-{BENCH.seed}-{_source_digest()}.pkl"


def _bench_workers() -> int:
    raw = os.environ.get("REPRO_BENCH_WORKERS")
    if raw:
        return max(1, int(raw))
    return min(len(standard_microservices()), os.cpu_count() or 1)


@pytest.fixture(scope="session", autouse=True)
def bench_cache() -> None:
    """Keep the persistent cache next to the benchmark outputs."""
    if not os.environ.get("REPRO_CACHE_DIR"):
        cache.configure(root=OUTPUT_DIR / "cache")


@pytest.fixture(scope="session")
def grid(bench_cache) -> EvaluationGrid:
    """The full design x workload x load evaluation matrix.

    Saved to ``benchmarks/output/grid-*.pkl`` (not committed), keyed on
    the sources and the cache schema; an unreadable or stale file is a
    miss.  A re-simulation then reads what it can from the persistent
    result cache under ``benchmarks/output/cache``.
    """
    try:
        with _GRID_CACHE.open("rb") as fh:
            saved = pickle.load(fh)
        if isinstance(saved, EvaluationGrid):
            return saved
    except Exception:
        pass
    result = evaluation_grid(fidelity=BENCH, workers=_bench_workers())
    OUTPUT_DIR.mkdir(exist_ok=True)
    with _GRID_CACHE.open("wb") as fh:
        pickle.dump(result, fh)
    return result


@pytest.fixture(scope="session")
def report_dir() -> pathlib.Path:
    OUTPUT_DIR.mkdir(exist_ok=True)
    return OUTPUT_DIR


def save_report(report_dir: pathlib.Path, name: str, text: str) -> None:
    (report_dir / f"{name}.txt").write_text(text + "\n")
    print()
    print(text)
