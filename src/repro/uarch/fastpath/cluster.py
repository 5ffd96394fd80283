"""Driver for the compiled cluster event loop (``rfp_cluster_events``).

:func:`run_cluster_events` executes the global-order executor of
:class:`repro.cluster.sim.ClusterSimulator` inside the C kernel.  The
dispatch generator (JSQ keys, power-of-two probes and tie-breaks) and
each server's generator (its service program) are drawn live through
their ``bitgen_t`` handles, so every stream advances exactly as in the
interpreted loop.  When a per-server output row or the departure heap
could fill, the kernel *ejects*; the driver doubles the arrays and
re-enters — the same resume contract as the engine adapter.
Ineligible configurations return ``None`` with every stream untouched
and the reason recorded (``fastpath.fallback.cluster.events.*``).
"""

from __future__ import annotations

import numpy as np

from repro.uarch import fastpath
from repro.uarch.fastpath.queue import bitgen, kernel_for, locked

#: Initial capacity of the global departure heap (grown by doubling).
HEAP_CAP = 1024

#: Kernel return codes (keep in sync with kernel.c).
_DONE = 0
_GROW_OUT = 2
_GROW_HEAP = 3
_ERR_NEGATIVE = -1

_SITE = "cluster.events"


def initial_capacity(num_requests: int, fanout: int, n_servers: int) -> int:
    """Per-server output capacity: expected leaf count plus ~12% slack.

    Balanced policies (JSQ, power-of-two) spread leaves almost evenly,
    so most runs never grow; a hot server just doubles its way up.
    """
    expected = num_requests * fanout // max(n_servers, 1)
    return max(64, expected + max(32, expected // 8))


def run_cluster_events(
    *,
    epochs: np.ndarray,
    assign: np.ndarray | None,
    fanout: int,
    n_servers: int,
    num_requests: int,
    warmup: int,
    service,
    rngs: list[np.random.Generator],
    dispatch_rng: np.random.Generator | None,
    balancer,
    span=None,
) -> tuple[np.ndarray, list[tuple]] | None:
    """Run the cluster event loop in the kernel, or ``None`` if ineligible.

    Returns ``(sojourns, per_server)`` where ``per_server`` entries are
    ``(waits, services, idles, last_departure, warmup_count)`` — the
    exact tuples ``ClusterSimulator._assemble`` consumes.  On ``None``
    every generator (dispatch and servers) is untouched.
    """
    from repro.cluster.balancers import JSQBalancer, PowerOfTwoBalancer

    if assign is not None:
        mode = 0
    elif type(balancer) is JSQBalancer:
        mode = 1
    elif type(balancer) is PowerOfTwoBalancer:
        mode = 2
    else:
        fastpath.fallback(_SITE, "balancer", span)
        return None
    kernel = kernel_for(service, _SITE, span)
    if kernel is None:
        return None
    lib, (ops, args) = kernel

    cap = initial_capacity(num_requests, fanout, n_servers)
    waits = np.empty((n_servers, cap))
    services = np.empty((n_servers, cap))
    idles = np.empty((n_servers, cap))
    out_cnt = np.zeros(n_servers, dtype=np.int64)
    idle_cnt = np.zeros(n_servers, dtype=np.int64)
    warmup_cnt = np.zeros(n_servers, dtype=np.int64)
    completion = np.zeros(n_servers)
    qlen = np.zeros(n_servers, dtype=np.int64)
    heap_cap = HEAP_CAP
    while heap_cap < fanout:
        heap_cap *= 2
    heap_t = np.empty(heap_cap)
    heap_s = np.empty(heap_cap, dtype=np.int64)
    sojourns = np.empty(num_requests)
    scratch_d = np.empty(n_servers)
    scratch_i = np.empty(2 * fanout, dtype=np.int64)
    ctl = np.zeros(2, dtype=np.int64)
    assign_arr = (
        np.ascontiguousarray(assign, dtype=np.int64)
        if assign is not None
        else None
    )
    generators = rngs if mode == 0 else [dispatch_rng, *rngs]
    with locked(*generators):
        servers = np.array([bitgen(rng) for rng in rngs], dtype=np.uint64)
        dispatch = bitgen(dispatch_rng) if mode != 0 else None
        while True:
            rc = lib.rfp_cluster_events(
                epochs.ctypes.data,
                num_requests,
                warmup,
                fanout,
                n_servers,
                mode,
                assign_arr.ctypes.data if assign_arr is not None else None,
                dispatch,
                ops.ctypes.data,
                args.ctypes.data,
                ops.size,
                servers.ctypes.data,
                cap,
                waits.ctypes.data,
                services.ctypes.data,
                idles.ctypes.data,
                out_cnt.ctypes.data,
                idle_cnt.ctypes.data,
                warmup_cnt.ctypes.data,
                completion.ctypes.data,
                qlen.ctypes.data,
                heap_t.ctypes.data,
                heap_s.ctypes.data,
                heap_cap,
                sojourns.ctypes.data,
                scratch_d.ctypes.data,
                scratch_i.ctypes.data,
                ctl.ctypes.data,
            )
            if rc == _DONE:
                break
            if rc == _ERR_NEGATIVE:
                raise ValueError("service model produced a negative time")
            if rc == _GROW_OUT:
                waits, services, idles = (
                    _grown(rows, 2 * cap) for rows in (waits, services, idles)
                )
                cap *= 2
            elif rc == _GROW_HEAP:
                heap_cap *= 2
                heap_t = _grown(heap_t, heap_cap)
                heap_s = _grown(heap_s, heap_cap)
            else:  # pragma: no cover - kernel/driver contract violation
                raise RuntimeError(f"unexpected cluster kernel return code {rc}")

    per_server = [
        (
            waits[i, : int(out_cnt[i])].copy(),
            services[i, : int(out_cnt[i])].copy(),
            idles[i, : int(idle_cnt[i])].copy(),
            float(completion[i]),
            int(warmup_cnt[i]),
        )
        for i in range(n_servers)
    ]
    return sojourns, per_server


def _grown(arr: np.ndarray, size: int) -> np.ndarray:
    """``arr`` copied into a fresh array whose last axis has ``size``."""
    fresh = np.empty(arr.shape[:-1] + (size,), dtype=arr.dtype)
    fresh[..., : arr.shape[-1]] = arr
    return fresh
