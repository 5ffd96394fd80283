"""Compiled execution fast path for the timing engine and the queues.

``repro.uarch.fastpath`` precompiles each workload's instruction stream
into typed column arrays and advances whole runs inside a small C kernel
(compiled on demand, loaded via ctypes) instead of interpreting one
instruction per Python ``_step()`` call.  The same kernel runs the M/G/1
and cluster queues, drawing service times live from NumPy's own
samplers (:mod:`repro.uarch.fastpath.queue`).  The kernel is a faithful
transliteration of the reference semantics: results, statistics, slot
attributions and golden snapshots are byte-identical, so the cache
``SCHEMA_VERSION`` does not bump.

The switch is ``REPRO_FASTPATH``:

* ``auto`` (default) — compile when a run has enough remaining work to
  amortize binding, or when the engine shares structures with an
  already-compiled engine; otherwise stay on the reference path.
* ``on`` — always use the kernel when it loads.
* ``off`` — never.

Everything degrades gracefully: no compiler, an ineligible structure
(subclassed caches, exotic predictors, heartbeats, custom schedulers)
or an ``off`` switch all land on the pure-Python reference path.  This
module is the only fastpath import the engine makes; the marshalling
layer (``adapter``) is imported lazily to keep the circular
``engine -> fastpath -> adapter -> engine`` chain safe and to keep
reference-path startup free of any fastpath cost.
"""

from __future__ import annotations

import os

_MODES = ("auto", "on", "off")

_mode: str | None = None  # resolved lazily from the environment


def _parse(value: str) -> str:
    v = value.strip().lower()
    if v in ("on", "1", "true", "yes"):
        return "on"
    if v in ("off", "0", "false", "no"):
        return "off"
    return "auto"


def mode() -> str:
    """The active fastpath mode: ``auto``, ``on`` or ``off``."""
    global _mode
    if _mode is None:
        _mode = _parse(os.environ.get("REPRO_FASTPATH", "auto"))
    return _mode


def set_mode(value: str | None) -> None:
    """Override the fastpath mode (``None`` re-reads the environment)."""
    global _mode
    if value is not None and value not in _MODES:
        raise ValueError(f"unknown fastpath mode {value!r}")
    _mode = value


def is_available() -> bool:
    """Whether the compiled kernel can be (or already was) loaded."""
    from repro.uarch.fastpath.build import load_kernel

    return load_kernel() is not None


def config_for_worker() -> dict:
    """The parent's fastpath config for :func:`configure_worker`."""
    return {"mode": mode()}


def configure_worker(config: dict) -> None:
    """Apply a parent's :func:`config_for_worker` inside a pool worker."""
    if config:
        set_mode(config.get("mode"))


def fallback(site: str, reason: str, span=None) -> None:
    """Record that ``site`` ran its Python reference loop and why: the
    ``fastpath.fallback.<site>.<reason>`` counter, and a ``fallback``
    attribute on ``span`` (the run's :func:`repro.obs.span`)."""
    from repro import obs

    obs.add(f"fastpath.fallback.{site}.{reason}")
    if span is not None:
        span.set("fallback", reason)


def try_run(
    engine,
    *,
    until_cycle: int | None,
    max_instructions: int | None,
    stop_after_remote: bool,
) -> bool:
    """Run one engine window in the kernel if possible.

    Returns True when the kernel executed the window (engine state is
    fully synchronized), False when the caller must run the reference
    loop instead.
    """
    m = mode()
    if m == "off":
        if getattr(engine, "_fp_binding", None) is not None:
            from repro.uarch.fastpath import adapter

            adapter.eject_engine(engine)
        return False
    from repro.uarch.fastpath import adapter

    return adapter.run_engine(engine, m, until_cycle, max_instructions, stop_after_remote)


def try_fast_forward(engine, cycle: int) -> bool:
    """Fast-forward a bound engine kernel-side; False if not bound."""
    if getattr(engine, "_fp_binding", None) is None:
        return False
    from repro.uarch.fastpath import adapter

    return adapter.fast_forward_engine(engine, cycle)


def try_tracegen(**kwargs) -> bool:
    """Fill trace columns with the compiled tracegen loop if possible.

    Accepts the keyword arguments of
    :func:`repro.uarch.fastpath.tracegen.fill`; returns False when the
    mode is ``off`` or the kernel is unavailable, leaving the caller to
    run the reference loop.
    """
    if mode() == "off":
        return False
    from repro.uarch.fastpath import tracegen

    return tracegen.fill(**kwargs)


def eject_engine(engine) -> None:
    """Restore a bound engine's shared state to Python (no-op if unbound).

    Called by the engine before any structural mutation the kernel does
    not model (adding threads, external activation).
    """
    if getattr(engine, "_fp_binding", None) is None:
        return
    from repro.uarch.fastpath import adapter

    adapter.eject_engine(engine)


__all__ = [
    "config_for_worker",
    "configure_worker",
    "eject_engine",
    "fallback",
    "is_available",
    "mode",
    "set_mode",
    "try_fast_forward",
    "try_run",
    "try_tracegen",
]
