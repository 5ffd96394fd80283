"""Drivers for the compiled Lindley kernels (``rfp_lindley``,
``rfp_lindley_epochs``).

A queue runs in the kernel when the fastpath is on, the kernel links
NumPy's sampler library, and the service model has a
:class:`~repro.queueing.program.ServiceProgram`; the kernel then draws
every service time live from the run's generator.  Otherwise
:func:`kernel_for` records why and the caller runs its reference loop.
"""

from __future__ import annotations

import contextlib

import numpy as np

from repro.queueing.program import program_of
from repro.uarch import fastpath
from repro.uarch.fastpath.build import queue_kernel


def kernel_for(service, site: str, span=None):
    """``(lib, (ops, args))`` when ``service`` can run in the queue
    kernels, else ``None`` with the fallback recorded against ``site``."""
    if fastpath.mode() == "off":
        reason = "off"
    else:
        lib, reason = queue_kernel()
        if lib is not None:
            program = program_of(service)
            if program is not None:
                return lib, program
            reason = "service"
    fastpath.fallback(site, reason, span)
    return None


def bitgen(rng: np.random.Generator) -> int:
    """The address of ``rng``'s ``bitgen_t`` (hold its lock while used)."""
    return rng.bit_generator.ctypes.bit_generator.value


@contextlib.contextmanager
def locked(*generators: np.random.Generator):
    """Hold every distinct generator's lock, as NumPy's samplers do."""
    locks = {id(g.bit_generator): g.bit_generator.lock for g in generators}
    with contextlib.ExitStack() as stack:
        for lock in locks.values():
            stack.enter_context(lock)
        yield


def _lindley(entry, program, rng, times: np.ndarray, warmup: int, *extra):
    """Call a Lindley kernel over ``times``; ``(waits, services, idles)``."""
    ops, args = program
    times = np.ascontiguousarray(times, dtype=np.float64)
    n = int(times.size)
    waits, services, idles = np.empty(n), np.empty(n), np.empty(n)
    with locked(rng):
        nidles = entry(
            times.ctypes.data, n, warmup,
            ops.ctypes.data, args.ctypes.data, ops.size, bitgen(rng),
            waits.ctypes.data, services.ctypes.data, idles.ctypes.data,
            *extra,
        )
    if nidles < 0:
        raise ValueError("service model produced a negative time")
    return waits, services, idles[:nidles].copy()


def mg1(lib, program, rng, gaps: np.ndarray, warmup: int, penalized):
    """:class:`~repro.queueing.mg1.MG1Simulator`'s recurrence over
    ``gaps``: ``(waits, services, idles, arrival, backlog,
    window_start)`` like its reference loop.  ``penalized`` (a bool
    array, or ``None``) marks requests that found the server idle."""
    out3 = np.zeros(3)
    mark = penalized.ctypes.data if penalized is not None else None
    queue = _lindley(
        lib.rfp_lindley, program, rng, gaps, warmup, mark, out3.ctypes.data
    )
    return (*queue, *out3)


def server(lib, program, rng, epochs: np.ndarray, warmup: int):
    """One cluster server's epoch recurrence: ``(waits, services, idles,
    last_departure)`` like :func:`repro.cluster.sim._simulate_server_scalar`."""
    out1 = np.zeros(1)
    queue = _lindley(
        lib.rfp_lindley_epochs, program, rng, epochs, warmup, out1.ctypes.data
    )
    return (*queue, float(out1[0]))
