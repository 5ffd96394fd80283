"""One benchmark pass in a fresh process; ``run.py`` spawns it.

    python3 perfbench/child.py --workload NAME --seed N --spawned T
        --out FILE --cache-dir DIR [--trace --trace-file FILE
        | --check-reference | --setup-only]
    python3 perfbench/child.py --host-facts --out FILE

``T`` is the parent's ``time.monotonic()`` just before the spawn (the
clock is system-wide): set-up time runs from there, through interpreter
start-up and every import, to the first timed operation.
``--host-facts`` loads (and so builds, when its cache is cold) the
compiled kernel and records the host; it exits 3 when the kernel cannot
be loaded.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path


def _compiler() -> str:
    """The C compiler the kernel build picks, with its version line."""
    from repro.uarch.fastpath.build import _compiler as kernel_compiler

    cc = kernel_compiler()
    if cc is None:
        return "none"
    try:
        out = subprocess.run(
            [cc, "--version"], capture_output=True, text=True, timeout=30
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return cc
    return f"{cc}: {out.splitlines()[0] if out else '?'}"


def host_facts() -> dict:
    import numpy

    import repro
    from repro.uarch import fastpath
    from tracing import import_layers

    # Compiles the bytecode of every module a pass imports, so no pass
    # pays for that in its set-up time.
    import_layers()

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "compiler": _compiler(),
        "kernel_available": fastpath.is_available(),
        "fastpath_mode": fastpath.mode(),
        "repro": str(Path(repro.__file__).resolve().parent),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--spawned", type=float)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--cache-dir", type=Path)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--trace-file", type=Path)
    parser.add_argument("--check-reference", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--host-facts", action="store_true")
    args = parser.parse_args(argv)

    if args.host_facts:
        facts = host_facts()
        args.out.write_text(json.dumps(facts))
        return 0 if facts["kernel_available"] else 3

    from bench import WORKLOADS, run_pass

    if args.spawned is None:
        parser.error("a pass needs --spawned")
    record = run_pass(
        WORKLOADS[args.workload],
        args.seed,
        t0=args.spawned,
        cache_dir=args.cache_dir,
        traced=args.trace,
        check_reference=args.check_reference,
        trace_path=args.trace_file,
        setup_only=args.setup_only,
    )
    args.out.write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
