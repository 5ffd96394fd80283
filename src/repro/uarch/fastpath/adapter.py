"""Marshalling between the Python timing structures and the C kernel.

The adapter owns the *world* abstraction: one compiled kernel instance
holding every structure a group of engines shares (caches, TLBs, BTBs,
predictor tables, hierarchies).  Binding an engine imports its current
Python state into the world; thereafter each ``run()`` does a light
scalar sync in, executes entirely in C, and exports scalars, statistics
counters, queue contents and profiler charges back out.  Array contents
(cache sets, TLB entries, BTB tags, the run heap, the slot-allocator
maps) stay kernel-authoritative between runs and are only re-exported on
*eject* — the full restore that runs whenever Python needs to mutate
engine structure (``add_thread``/``activate``), a heartbeat appears, or
profiling state becomes inconsistent.  After an eject the engine
continues on the pure-Python reference path with byte-identical state.

Faithfulness contract: every exit from compiled execution leaves the
Python objects exactly as the reference implementation would have left
them — the differential suite in ``tests/uarch`` compares full state,
not just results.
"""

from __future__ import annotations

import ctypes
import weakref

import numpy as np

from repro import prof
from repro.branch.btb import BranchTargetBuffer
from repro.branch.predictors import (
    BimodalPredictor,
    GsharePredictor,
    TournamentPredictor,
)
from repro.caches.cache import SetAssociativeCache
from repro.caches.hierarchy import CacheLevel, MemoryHierarchy
from repro.caches.tlb import TLB
from repro.common.units import quantize_cycles
from repro.prof.taxonomy import NUM_CAUSES, SlotCause
from repro.uarch.engine import ThreadState, TimingEngine
from repro.uarch.fastpath.build import load_kernel
from repro.uarch.hsmt import HSMTScheduler
from repro.uarch.slots import SlotAllocator

#: Below this much estimated remaining work (total un-executed trace
#: instructions across threads), ``REPRO_FASTPATH=auto`` stays on the
#: reference path: binding costs more than it saves.
AUTO_MIN_INSTRUCTIONS = 16384

_EXIT_DONE = 1
_EXIT_BOUNDARY = 2

#: Slot-cause ids handed to the kernel, in its fixed argument order.
_CAUSE_ORDER = (
    SlotCause.FRONTEND_ICACHE,
    SlotCause.FRONTEND_ITLB,
    SlotCause.FRONTEND_BTB,
    SlotCause.FRONTEND_BANDWIDTH,
    SlotCause.BAD_SPECULATION,
    SlotCause.BACKEND_MEMORY_DCACHE,
    SlotCause.BACKEND_MEMORY_DTLB,
    SlotCause.BACKEND_CORE_ROB,
    SlotCause.BACKEND_CORE_LQ,
    SlotCause.BACKEND_CORE_SQ,
    SlotCause.BACKEND_CORE_DEP,
    SlotCause.BACKEND_CORE_SERIAL,
    SlotCause.BACKEND_CORE_ISSUE,
    SlotCause.REMOTE_STALL,
)

_TSYNC = 21  # per-thread slots in the light sync buffer


class _Ineligible(Exception):
    """A structure cannot be represented in the kernel; stay on the
    reference path."""


def _ptr(arr: np.ndarray) -> int:
    return arr.ctypes.data


def _live(refs: list[weakref.ref]):
    """``(world index, object)`` for every referent still alive."""
    for idx, ref in enumerate(refs):
        obj = ref()
        if obj is not None:
            yield idx, obj


class _World:
    """One kernel instance plus the Python objects mirrored into it."""

    def __init__(self, lib):
        self.lib = lib
        cause_ids = np.array([int(c) for c in _CAUSE_ORDER], dtype=np.int64)
        ptr = lib.rfp_new(_ptr(cause_ids))
        if not ptr:
            raise MemoryError("rfp_new failed")
        self.ptr = ptr
        self.dead = False
        # Python objects by world index (list position == kernel index),
        # held weakly: each holds its world (``_fp_world``/``_fp_binding``),
        # so the world is freed by reference counting once the last goes,
        # and a live structure keeps it (and its kernel state) for eject.
        self.caches: list[weakref.ref[SetAssociativeCache]] = []
        self.tlbs: list[weakref.ref[TLB]] = []
        self.btbs: list[weakref.ref[BranchTargetBuffer]] = []
        self.preds: list[weakref.ref] = []
        self.hiers: list[weakref.ref[MemoryHierarchy]] = []
        self.engines: list[weakref.ref[TimingEngine]] = []
        #: Objects whose buffers the kernel borrows (traces, predictor
        #: tables) — must outlive the world.
        self.keepalive: list[object] = []
        #: Precomputed stall-cycle columns keyed by (id(trace), hz).
        self.stallc: dict[tuple[int, float], np.ndarray] = {}
        self.scratch = np.zeros(16, dtype=np.int64)
        self._finalizer = weakref.finalize(self, lib.rfp_free, ptr)

    def free(self) -> None:
        self.dead = True
        self._finalizer()

    # -- structure registration (bind-time import) -----------------------

    def cache_index(self, cache) -> int:
        bound = getattr(cache, "_fp_world", None)
        if bound is self:
            return cache._fp_idx
        if bound is not None and not bound.dead:
            raise _Ineligible("cache already bound to another world")
        if type(cache) is not SetAssociativeCache:
            raise _Ineligible("cache subclass")
        nsets = cache._num_sets
        assoc = cache.config.associativity
        idx = self.lib.rfp_add_cache(
            self.ptr,
            nsets,
            assoc,
            1 if cache.config.write_through else 0,
            cache._line_shift,
        )
        if idx < 0:
            raise MemoryError("rfp_add_cache failed")
        cnt = np.zeros(nsets, dtype=np.int64)
        lines = np.zeros(nsets * assoc, dtype=np.int64)
        for s, ways in enumerate(cache._sets):
            n = len(ways)
            if n > assoc:
                raise _Ineligible("overfull cache set")
            cnt[s] = n
            if n:
                lines[s * assoc : s * assoc + n] = ways
        counters = np.array(
            [cache.hits, cache.misses, cache.evictions, cache.invalidations],
            dtype=np.int64,
        )
        self.lib.rfp_cache_seed(self.ptr, idx, _ptr(cnt), _ptr(lines), _ptr(counters))
        cache._fp_world = self
        cache._fp_idx = idx
        self.caches.append(weakref.ref(cache))
        return idx

    def tlb_index(self, tlb) -> int:
        bound = getattr(tlb, "_fp_world", None)
        if bound is self:
            return tlb._fp_idx
        if bound is not None and not bound.dead:
            raise _Ineligible("TLB already bound to another world")
        if type(tlb) is not TLB:
            raise _Ineligible("TLB subclass")
        idx = self.lib.rfp_add_tlb(
            self.ptr,
            tlb.config.entries,
            tlb._page_shift,
            tlb.config.miss_latency_cycles,
        )
        if idx < 0:
            raise MemoryError("rfp_add_tlb failed")
        n = len(tlb._entries)
        if n > tlb.config.entries:
            raise _Ineligible("overfull TLB")
        vpns = np.array(tlb._entries or [0], dtype=np.int64)
        self.lib.rfp_tlb_seed(self.ptr, idx, n, _ptr(vpns), tlb.hits, tlb.misses)
        tlb._fp_world = self
        tlb._fp_idx = idx
        self.tlbs.append(weakref.ref(tlb))
        return idx

    def btb_index(self, btb) -> int:
        bound = getattr(btb, "_fp_world", None)
        if bound is self:
            return btb._fp_idx
        if bound is not None and not bound.dead:
            raise _Ineligible("BTB already bound to another world")
        if type(btb) is not BranchTargetBuffer:
            raise _Ineligible("BTB subclass")
        idx = self.lib.rfp_add_btb(self.ptr, btb.entries)
        if idx < 0:
            raise MemoryError("rfp_add_btb failed")
        tags = np.array(
            [0 if t is None else t for t in btb._tags], dtype=np.int64
        )
        valid = np.array(
            [0 if t is None else 1 for t in btb._tags], dtype=np.uint8
        )
        targets = np.array(btb._targets, dtype=np.int64)
        self.lib.rfp_btb_seed(
            self.ptr, idx, _ptr(tags), _ptr(valid), _ptr(targets), btb.hits, btb.misses
        )
        btb._fp_world = self
        btb._fp_idx = idx
        self.btbs.append(weakref.ref(btb))
        return idx

    @staticmethod
    def _table(arr) -> np.ndarray:
        if (
            not isinstance(arr, np.ndarray)
            or arr.dtype != np.int8
            or arr.ndim != 1
            or not arr.flags["C_CONTIGUOUS"]
        ):
            raise _Ineligible("predictor table layout")
        return arr

    def pred_index(self, pred) -> int:
        bound = getattr(pred, "_fp_world", None)
        if bound is self:
            return pred._fp_idx
        if bound is not None and not bound.dead:
            raise _Ineligible("predictor already bound to another world")
        # Tables are borrowed zero-copy: the kernel reads/writes the same
        # int8 buffers Python sees, so direct predictor use between runs
        # stays coherent (only the unused internal `_history` is Python-
        # side, and the engine always passes explicit history).
        if type(pred) is BimodalPredictor:
            args = (0, _ptr(self._table(pred._table)), pred._mask, 0, 0, 0, 0, 0)
        elif type(pred) is GsharePredictor:
            args = (
                1,
                0,
                0,
                _ptr(self._table(pred._table)),
                pred._mask,
                pred.history_bits,
                0,
                0,
            )
        elif type(pred) is TournamentPredictor:
            args = (
                2,
                _ptr(self._table(pred.bimodal._table)),
                pred.bimodal._mask,
                _ptr(self._table(pred.gshare._table)),
                pred.gshare._mask,
                pred.gshare.history_bits,
                _ptr(self._table(pred._selector)),
                pred._selector_mask,
            )
        else:
            raise _Ineligible("unknown predictor kind")
        idx = self.lib.rfp_add_pred(self.ptr, *args)
        if idx < 0:
            raise MemoryError("rfp_add_pred failed")
        pred._fp_world = self
        pred._fp_idx = idx
        self.preds.append(weakref.ref(pred))
        return idx

    def hier_index(self, hier) -> int:
        bound = getattr(hier, "_fp_world", None)
        if bound is self:
            return hier._fp_idx
        if bound is not None and not bound.dead:
            raise _Ineligible("hierarchy already bound to another world")
        if type(hier) is not MemoryHierarchy:
            raise _Ineligible("hierarchy subclass")
        nlev = len(hier.levels)
        if nlev > 8:
            raise _Ineligible("too many cache levels")
        cache_idx = np.zeros(nlev, dtype=np.int64)
        hit_lat = np.zeros(nlev, dtype=np.int64)
        extra = np.zeros(nlev, dtype=np.int64)
        hook_cnt = np.zeros(nlev, dtype=np.int64)
        hooks_flat: list[int] = []
        invalidate_line = SetAssociativeCache.invalidate_line
        for i, level in enumerate(hier.levels):
            if type(level) is not CacheLevel:
                raise _Ineligible("cache-level subclass")
            cache_idx[i] = self.cache_index(level.cache)
            hit_lat[i] = level.hit_latency
            extra[i] = hier.extra_cycles_after.get(i, 0)
            if len(level.on_evict) > 8:
                raise _Ineligible("too many eviction hooks")
            hook_cnt[i] = len(level.on_evict)
            for hook in level.on_evict:
                if getattr(hook, "__func__", None) is not invalidate_line:
                    raise _Ineligible("non-invalidate eviction hook")
                hooks_flat.append(self.cache_index(hook.__self__))
        hooks = np.array(hooks_flat or [0], dtype=np.int64)
        idx = self.lib.rfp_add_hier(
            self.ptr,
            nlev,
            _ptr(cache_idx),
            _ptr(hit_lat),
            _ptr(extra),
            _ptr(hook_cnt),
            _ptr(hooks),
            hier.memory_latency_cycles,
            1 if hier.prefetch_next_line else 0,
            hier._line_bytes,
            hier._last_line,
        )
        if idx < 0:
            raise MemoryError("rfp_add_hier failed")
        counters = np.array(
            [
                hier.accesses,
                hier.total_latency,
                hier.memory_lookups,
                hier.prefetches,
                hier._last_line,
                *hier.level_lookups,
            ],
            dtype=np.int64,
        )
        self.lib.rfp_hier_seed(self.ptr, idx, _ptr(counters))
        hier._fp_world = self
        hier._fp_idx = idx
        self.hiers.append(weakref.ref(hier))
        return idx

    def trace_columns(self, trace) -> tuple[np.ndarray, ...]:
        cols = (
            trace.op,
            trace.dst,
            trace.src1,
            trace.src2,
            trace.addr,
            trace.pc,
            trace.taken,
            trace.target,
        )
        if not getattr(trace, "_fp_checked", False):
            dtypes = (
                np.uint8,
                np.int8,
                np.int8,
                np.int8,
                np.int64,
                np.int64,
                np.bool_,
                np.int64,
            )
            n = len(trace)
            for arr, want in zip(cols, dtypes):
                if (
                    not isinstance(arr, np.ndarray)
                    or arr.dtype != want
                    or arr.ndim != 1
                    or len(arr) != n
                    or not arr.flags["C_CONTIGUOUS"]
                ):
                    raise _Ineligible("trace column layout")
            stall = trace.stall_ns
            if (
                not isinstance(stall, np.ndarray)
                or stall.dtype != np.float64
                or stall.ndim != 1
                or len(stall) != n
                or not stall.flags["C_CONTIGUOUS"]
            ):
                raise _Ineligible("trace stall column layout")
            if n == 0:
                raise _Ineligible("empty trace")
            if int(trace.op.max()) > 6:
                raise _Ineligible("unknown opcode")
            for regs in (trace.dst, trace.src1, trace.src2):
                if int(regs.min()) < -1 or int(regs.max()) >= 32:
                    raise _Ineligible("register out of range")
            for nonneg in (trace.addr, trace.pc, trace.target):
                if int(nonneg.min()) < 0:
                    raise _Ineligible("negative address")
            trace._fp_checked = True
        return cols

    def stallc_for(self, trace, frequency_hz: float) -> np.ndarray:
        key = (id(trace), frequency_hz)
        col = self.stallc.get(key)
        if col is None:
            # Elementwise float64 multiply/divide then int64 truncation is
            # IEEE-identical to the scalar quantize_cycles() the reference
            # engine applies per instruction.
            col = np.ascontiguousarray(
                (trace.stall_ns * frequency_hz / 1e9).astype(np.int64)
            )
            self.stallc[key] = col
            self.keepalive.append(trace)
        return col


class _Binding:
    """Per-engine handle into a world."""

    __slots__ = (
        "world",
        "eidx",
        "sync",
        "tp_ids",
        "nthr",
        "rob_buf",
        "lq_buf",
        "sq_buf",
        "regs",
        "lens",
        "e9",
        "charges",
        "regsrc",
    )

    def __init__(self, world: _World, eidx: int, nthr: int, max_caps):
        self.world = world
        self.eidx = eidx
        self.nthr = nthr
        self.sync = np.zeros(2 + _TSYNC * nthr, dtype=np.int64)
        self.tp_ids: list[int | None] = [None] * nthr
        rob_cap, lq_cap, sq_cap = max_caps
        self.rob_buf = np.zeros(rob_cap, dtype=np.int64)
        self.lq_buf = np.zeros(lq_cap, dtype=np.int64)
        self.sq_buf = np.zeros(sq_cap, dtype=np.int64)
        self.regs = np.zeros(32, dtype=np.int64)
        self.lens = np.zeros(3, dtype=np.int64)
        self.e9 = np.zeros(9, dtype=np.int64)
        self.charges = np.zeros(NUM_CAUSES, dtype=np.int64)
        self.regsrc = np.zeros(32, dtype=np.int64)


# ----------------------------------------------------------------------
# Eligibility + binding
# ----------------------------------------------------------------------


def _check_engine(engine) -> None:
    if type(engine) is not TimingEngine:
        raise _Ineligible("engine subclass")
    if engine.heartbeat is not None:
        raise _Ineligible("heartbeat attached")
    if not engine.threads:
        raise _Ineligible("no threads")
    sched = engine.scheduler
    if sched is not None and (
        type(sched) is not HSMTScheduler or sched.engine is not engine
    ):
        raise _Ineligible("unknown scheduler")
    for alloc in (engine.fetch_slots, engine.issue_slots, engine.commit_slots):
        if type(alloc) is not SlotAllocator or alloc.width != engine.width:
            raise _Ineligible("slot allocator mismatch")
    for t in engine.threads:
        if type(t) is not ThreadState:
            raise _Ineligible("thread subclass")
        if t.remote_policy == "scheduler" and sched is None:
            raise _Ineligible("scheduler policy without scheduler")
        if t.slot_reserve and engine.width - t.slot_reserve < 1:
            raise _Ineligible("slot reserve leaves no capacity")
        if min(t.rob_cap, t.lq_cap, t.sq_cap) < 1:
            raise _Ineligible("zero-capacity queue")
        if (
            len(t.rob) > t.rob_cap
            or len(t.lq) > t.lq_cap
            or len(t.sq) > t.sq_cap
        ):
            raise _Ineligible("overfull queue")


def _structures(engine):
    """Every taggable shared structure this engine touches."""
    seen = set()
    for t in engine.threads:
        ports = t.ports
        for hier in (ports.ihier, ports.dhier):
            if id(hier) not in seen:
                seen.add(id(hier))
                yield hier
                for level in getattr(hier, "levels", ()):
                    cache = getattr(level, "cache", None)
                    if cache is not None and id(cache) not in seen:
                        seen.add(id(cache))
                        yield cache
                    for hook in getattr(level, "on_evict", ()):
                        target = getattr(hook, "__self__", None)
                        if target is not None and id(target) not in seen:
                            seen.add(id(target))
                            yield target
        for obj in (ports.itlb, ports.dtlb, ports.predictor, ports.btb):
            if obj is not None and id(obj) not in seen:
                seen.add(id(obj))
                yield obj


def _find_worlds(engine) -> list[_World]:
    worlds: list[_World] = []
    for obj in _structures(engine):
        w = getattr(obj, "_fp_world", None)
        if w is not None and not w.dead and w not in worlds:
            worlds.append(w)
    return worlds


def estimated_instructions(engine) -> float:
    total = 0
    for t in engine.threads:
        if t.done:
            continue
        if t.loop:
            return float("inf")
        total += len(t.trace) - t.cursor
    return float(total)


def _register_engine(w: _World, engine) -> _Binding:
    lib, ptr = w.lib, w.ptr
    eidx = lib.rfp_add_engine(ptr, engine.width, engine.frontend_depth)
    if eidx < 0:
        raise MemoryError("rfp_add_engine failed")
    scalars = np.array(
        [engine.now, engine.instructions, engine._seq, engine._prune_countdown],
        dtype=np.int64,
    )
    lib.rfp_engine_seed(ptr, eidx, _ptr(scalars))
    for which, alloc in enumerate(
        (engine.fetch_slots, engine.issue_slots, engine.commit_slots)
    ):
        items = list(alloc._used.items())
        cyc = np.array([c for c, _ in items] or [0], dtype=np.int64)
        cnts = np.array([u for _, u in items] or [0], dtype=np.int64)
        lib.rfp_alloc_seed(
            ptr, eidx, which, alloc._floor, alloc.allocated, len(items), _ptr(cyc), _ptr(cnts)
        )
    for t in engine.threads:
        op, dst, src1, src2, addr, pc, taken, target = w.trace_columns(t.trace)
        stallc = w.stallc_for(t.trace, engine.frequency_hz)
        cfg = np.array(
            [
                1 if t.kind == "inorder" else 0,
                1 if t.loop else 0,
                1 if t.remote_policy == "scheduler" else 0,
                t.rob_cap,
                t.lq_cap,
                t.sq_cap,
                t.slot_reserve,
                t.priority,
                w.hier_index(t.ports.ihier),
                w.hier_index(t.ports.dhier),
                -1 if t.ports.itlb is None else w.tlb_index(t.ports.itlb),
                -1 if t.ports.dtlb is None else w.tlb_index(t.ports.dtlb),
                -1 if t.ports.predictor is None else w.pred_index(t.ports.predictor),
                -1 if t.ports.btb is None else w.btb_index(t.ports.btb),
            ],
            dtype=np.int64,
        )
        tidx = lib.rfp_add_thread(
            ptr,
            eidx,
            _ptr(op),
            _ptr(dst),
            _ptr(src1),
            _ptr(src2),
            _ptr(addr),
            _ptr(pc),
            _ptr(taken),
            _ptr(target),
            _ptr(stallc),
            len(t.trace),
            _ptr(cfg),
        )
        if tidx < 0:
            raise MemoryError("rfp_add_thread failed")
        regs = np.array(t.reg_ready, dtype=np.int64)
        rob = np.array(t.rob or [0], dtype=np.int64)
        lq = np.array(t.lq or [0], dtype=np.int64)
        sq = np.array(t.sq or [0], dtype=np.int64)
        lib.rfp_thread_seed(
            ptr,
            eidx,
            tidx,
            _ptr(regs),
            len(t.rob),
            _ptr(rob),
            len(t.lq),
            _ptr(lq),
            len(t.sq),
            _ptr(sq),
        )
    quads = np.array(
        [v for entry in engine._heap for v in entry] or [0], dtype=np.int64
    )
    if lib.rfp_heap_seed(ptr, eidx, len(engine._heap), _ptr(quads)) < 0:
        raise MemoryError("rfp_heap_seed failed")
    max_caps = (
        max(t.rob_cap for t in engine.threads),
        max(t.lq_cap for t in engine.threads),
        max(t.sq_cap for t in engine.threads),
    )
    return _Binding(w, eidx, len(engine.threads), max_caps)


def _bind(engine, lib) -> _Binding | None:
    """Import ``engine`` into a world (joining one its structures already
    live in).  Returns None — with foreign worlds safely ejected and the
    engine poisoned — when anything is unrepresentable."""
    try:
        _check_engine(engine)
    except _Ineligible:
        _eject_foreign(engine, poison=True)
        return None
    worlds = _find_worlds(engine)
    if len(worlds) > 1:
        # Structures span two live worlds (a shared cache got rewired).
        # Restore everything to Python and start over with one world.
        for w in worlds:
            eject_world(w)
        worlds = []
    w = worlds[0] if worlds else _World(lib)
    try:
        binding = _register_engine(w, engine)
    except _Ineligible:
        # The partially-registered structures hold coherent just-seeded
        # snapshots; ejecting restores and untags them (and unbinds any
        # co-resident engines, which will re-bind on their next run).
        eject_world(w)
        engine._fp_ineligible = True
        return None
    engine._fp_binding = binding
    w.engines.append(weakref.ref(engine))
    return binding


def _eject_foreign(engine, *, poison: bool) -> None:
    """An engine that must run on the reference path shares structures
    with bound engines: restore those worlds to Python so the reference
    path sees fresh state.  ``poison`` additionally marks every involved
    engine ineligible, preventing a bind/eject thrash where each side
    repeatedly undoes the other."""
    worlds = _find_worlds(engine)
    if not worlds:
        return
    engine._fp_ineligible = True
    for w in worlds:
        if poison:
            for _, other in _live(w.engines):
                other._fp_ineligible = True
        eject_world(w)


# ----------------------------------------------------------------------
# Per-run synchronisation
# ----------------------------------------------------------------------


def _sync_in(engine, binding: _Binding) -> None:
    buf = binding.sync
    buf[0] = engine.now
    buf[1] = engine.instructions
    o = 2
    for t in engine.threads:
        buf[o] = t.cursor
        buf[o + 1] = 1 if t.done else 0
        buf[o + 2] = 1 if t.active else 0
        buf[o + 3] = t.next_fetch
        buf[o + 4] = t.last_issue
        buf[o + 5] = t.last_commit
        buf[o + 6] = t.last_line
        buf[o + 7] = t.last_page
        buf[o + 8] = t.instructions
        buf[o + 9] = t.mispredicts
        buf[o + 10] = t.branches
        buf[o + 11] = t.remote_ops
        buf[o + 12] = t.remote_stall_cycles
        buf[o + 13] = t.activated_at
        buf[o + 14] = -1 if t.first_fetch is None else t.first_fetch
        buf[o + 15] = t.bp_history
        buf[o + 16] = t.last_remote_issue
        buf[o + 17] = t.last_remote_complete
        o += _TSYNC
    binding.world.lib.rfp_sync_in(binding.world.ptr, binding.eidx, _ptr(buf))


def _apply_sync_out(engine, binding: _Binding) -> None:
    buf = binding.sync
    binding.world.lib.rfp_sync_out(binding.world.ptr, binding.eidx, _ptr(buf))
    vals = buf.tolist()  # plain Python ints
    engine.now = vals[0]
    engine.instructions = vals[1]
    o = 2
    for t in engine.threads:
        t.cursor = vals[o]
        t.done = bool(vals[o + 1])
        t.active = bool(vals[o + 2])
        t.next_fetch = vals[o + 3]
        t.last_issue = vals[o + 4]
        t.last_commit = vals[o + 5]
        t.last_line = vals[o + 6]
        t.last_page = vals[o + 7]
        t.instructions = vals[o + 8]
        t.mispredicts = vals[o + 9]
        t.branches = vals[o + 10]
        t.remote_ops = vals[o + 11]
        t.remote_stall_cycles = vals[o + 12]
        t.activated_at = vals[o + 13]
        ff = vals[o + 14]
        t.first_fetch = None if ff < 0 else ff
        t.bp_history = vals[o + 15]
        t.last_remote_issue = vals[o + 16]
        t.last_remote_complete = vals[o + 17]
        o += _TSYNC


def _seed_sched(engine, binding: _Binding) -> bool:
    s = engine.scheduler
    index = {id(t): i for i, t in enumerate(engine.threads)}
    try:
        ready = np.array(
            [index[id(t)] for t in s.ready] or [0], dtype=np.int64
        )
        blocked = np.array(
            [v for c, q, t in s._blocked for v in (c, q, index[id(t)])] or [0],
            dtype=np.int64,
        )
    except KeyError:
        return False
    scal = np.array(
        [s._seq, s.active_count, s.swaps, s.preemptions], dtype=np.int64
    )
    rc = binding.world.lib.rfp_engine_sched(
        binding.world.ptr,
        binding.eidx,
        s.physical_contexts,
        s.swap_cycles,
        -1 if s.quantum_cycles is None else s.quantum_cycles,
        _ptr(scal),
        len(s.ready),
        _ptr(ready),
        len(s._blocked),
        _ptr(blocked),
    )
    if rc < 0:
        raise MemoryError("rfp_engine_sched failed")
    return True


def _export_counters(world: _World) -> None:
    lib, ptr, buf = world.lib, world.ptr, world.scratch
    bp = _ptr(buf)
    for idx, cache in _live(world.caches):
        lib.rfp_cache_counters(ptr, idx, bp)
        cache.hits = int(buf[0])
        cache.misses = int(buf[1])
        cache.evictions = int(buf[2])
        cache.invalidations = int(buf[3])
    for idx, tlb in _live(world.tlbs):
        lib.rfp_tlb_counters(ptr, idx, bp)
        tlb.hits = int(buf[0])
        tlb.misses = int(buf[1])
    for idx, btb in _live(world.btbs):
        lib.rfp_btb_counters(ptr, idx, bp)
        btb.hits = int(buf[0])
        btb.misses = int(buf[1])
    for idx, hier in _live(world.hiers):
        nlev = len(hier.levels)
        hbuf = np.zeros(5 + nlev, dtype=np.int64)
        lib.rfp_hier_dump(ptr, idx, _ptr(hbuf))
        hier.accesses = int(hbuf[0])
        hier.total_latency = int(hbuf[1])
        hier.memory_lookups = int(hbuf[2])
        hier.prefetches = int(hbuf[3])
        hier._last_line = int(hbuf[4])
        hier.level_lookups[:] = [int(v) for v in hbuf[5 : 5 + nlev]]


def _export_queues(engine, binding: _Binding) -> None:
    lib, ptr, eidx = binding.world.lib, binding.world.ptr, binding.eidx
    lens = binding.lens
    for i, t in enumerate(engine.threads):
        lib.rfp_thread_regs_dump(ptr, eidx, i, _ptr(binding.regs))
        t.reg_ready[:] = binding.regs.tolist()
        lib.rfp_thread_queues_dump(
            ptr,
            eidx,
            i,
            _ptr(binding.rob_buf),
            _ptr(binding.lq_buf),
            _ptr(binding.sq_buf),
            _ptr(lens),
        )
        t.rob[:] = binding.rob_buf[: int(lens[0])].tolist()
        t.lq[:] = binding.lq_buf[: int(lens[1])].tolist()
        t.sq[:] = binding.sq_buf[: int(lens[2])].tolist()


def _export_engine_scalars(engine, binding: _Binding) -> None:
    lib, ptr, eidx = binding.world.lib, binding.world.ptr, binding.eidx
    e9 = binding.e9
    lib.rfp_engine_dump(ptr, eidx, _ptr(e9))
    engine._seq = int(e9[0])
    engine._prune_countdown = int(e9[1])
    s = engine.scheduler
    if s is not None:
        s._seq = int(e9[3])
        s.active_count = int(e9[4])
        s.swaps = int(e9[5])
        s.preemptions = int(e9[6])
        r_len, b_len = int(e9[7]), int(e9[8])
        ready = np.zeros(max(r_len, 1), dtype=np.int64)
        blocked = np.zeros(max(b_len * 3, 1), dtype=np.int64)
        lib.rfp_sched_dump(ptr, eidx, _ptr(ready), _ptr(blocked))
        threads = engine.threads
        s.ready.clear()
        s.ready.extend(threads[j] for j in ready[:r_len].tolist())
        bl = blocked[: b_len * 3].tolist()
        s._blocked[:] = [
            (bl[k], bl[k + 1], threads[bl[k + 2]]) for k in range(0, b_len * 3, 3)
        ]


def _export_run_end(engine, binding: _Binding) -> None:
    _apply_sync_out(engine, binding)
    _export_counters(binding.world)
    _export_queues(engine, binding)
    _export_engine_scalars(engine, binding)


def _seed_prof(binding: _Binding, tidx: int, tp) -> None:
    charges = np.array(tp.charges, dtype=np.int64)
    regsrc = np.array(list(tp.reg_src), dtype=np.int64)
    binding.world.lib.rfp_prof_seed(
        binding.world.ptr,
        binding.eidx,
        tidx,
        _ptr(charges),
        NUM_CAUSES,
        tp.retired,
        _ptr(regsrc),
    )


def _dump_prof(engine, binding: _Binding) -> None:
    lib, ptr, eidx = binding.world.lib, binding.world.ptr, binding.eidx
    retired = ctypes.c_int64(0)
    for i, t in enumerate(engine.threads):
        lib.rfp_prof_dump(
            ptr,
            eidx,
            i,
            _ptr(binding.charges),
            NUM_CAUSES,
            ctypes.byref(retired),
            _ptr(binding.regsrc),
        )
        tp = t.prof
        dumped = binding.charges.tolist()
        charges = tp.charges
        for cause in range(NUM_CAUSES):
            if dumped[cause]:
                charges[cause] += dumped[cause]
        tp.retired += retired.value
        tp.reg_src[:] = binding.regsrc.tolist()


# ----------------------------------------------------------------------
# Public entry points (called via repro.uarch.fastpath)
# ----------------------------------------------------------------------


def run_engine(
    engine,
    mode: str,
    until_cycle: int | None,
    max_instructions: int | None,
    stop_after_remote: bool,
) -> bool:
    """Execute one ``TimingEngine.run`` body in the kernel.  Returns False
    (with all shared state restored to Python) when the engine must take
    the reference path instead."""
    binding = getattr(engine, "_fp_binding", None)
    if binding is not None and binding.world.dead:
        engine._fp_binding = binding = None
    if binding is None:
        if getattr(engine, "_fp_ineligible", False):
            _eject_foreign(engine, poison=True)
            return False
        joins = _find_worlds(engine)
        if not joins and mode == "auto" and (
            estimated_instructions(engine) < AUTO_MIN_INSTRUCTIONS
        ):
            return False
        lib = load_kernel()
        if lib is None:
            return False
        binding = _bind(engine, lib)
        if binding is None:
            return False
    w = binding.world
    if engine.heartbeat is not None or binding.nthr != len(engine.threads):
        eject_world(w)
        return False
    profs = [t.prof for t in engine.threads]
    n_on = sum(p is not None for p in profs)
    if n_on == 0:
        prof_on = 0
        if any(i is not None for i in binding.tp_ids):
            # Profiling shed its scratch; a future re-enable gets fresh
            # ThreadProfs and re-seeds.
            binding.tp_ids = [None] * binding.nthr
    elif n_on == binding.nthr:
        prof_on = 1
        for i, tp in enumerate(profs):
            if binding.tp_ids[i] != id(tp):
                _seed_prof(binding, i, tp)
                binding.tp_ids[i] = id(tp)
    else:
        eject_world(w)
        return False
    _sync_in(engine, binding)
    if engine.scheduler is not None and not _seed_sched(engine, binding):
        eject_world(w)
        return False
    boundary = 1 if engine._prof_sampler is not None else 0
    until = -1 if until_cycle is None else until_cycle
    maxi = -1 if max_instructions is None else max_instructions
    executed = ctypes.c_int64(0)
    swap = ctypes.c_int64(0)
    swap_total = 0
    lib = w.lib
    while True:
        rc = lib.rfp_run(
            w.ptr,
            binding.eidx,
            until,
            maxi,
            1 if stop_after_remote else 0,
            prof_on,
            boundary,
            ctypes.byref(executed),
            ctypes.byref(swap),
        )
        swap_total += swap.value
        if rc < 0:
            # The kernel may have mutated shared state partway; do not
            # silently fall back to the reference path.
            raise RuntimeError(f"fastpath kernel failed (error {rc})")
        if rc & _EXIT_BOUNDARY:
            # The reference samples from the amortized bookkeeping block;
            # surface the same engine state at the same instant.
            _apply_sync_out(engine, binding)
            _export_counters(w)
            _export_queues(engine, binding)
            sampler = engine._prof_sampler
            if sampler is not None:
                sampler.sample(engine)
        if rc & _EXIT_DONE or not (rc & _EXIT_BOUNDARY):
            break
    _export_run_end(engine, binding)
    if prof_on:
        _dump_prof(engine, binding)
    if swap_total > 0:
        # HSMT swap-in overhead accumulated kernel-side (matching the
        # scheduler's per-activation charge_core calls).
        prof.charge_core(engine, SlotCause.CONTEXT_SWAP, swap_total)
    return True


def fast_forward_engine(engine, cycle: int) -> bool:
    binding = getattr(engine, "_fp_binding", None)
    if binding is None or binding.world.dead:
        return False
    _sync_in(engine, binding)
    rc = binding.world.lib.rfp_fast_forward(
        binding.world.ptr, binding.eidx, cycle
    )
    if rc < 0:
        raise RuntimeError(f"fastpath kernel failed (error {rc})")
    _apply_sync_out(engine, binding)
    return True


def eject_engine(engine) -> None:
    binding = getattr(engine, "_fp_binding", None)
    if binding is None:
        return
    if binding.world.dead:
        engine._fp_binding = None
        return
    eject_world(binding.world)


def eject_world(w: _World) -> None:
    """Export the complete kernel state back into the Python objects,
    untag everything, and free the world."""
    if w.dead:
        return
    lib, ptr = w.lib, w.ptr
    for _, engine in _live(w.engines):
        binding = getattr(engine, "_fp_binding", None)
        if binding is None or binding.world is not w:
            continue
        _apply_sync_out(engine, binding)
        _export_queues(engine, binding)
        _export_engine_scalars(engine, binding)
        heap_len = int(binding.e9[2])
        quads = np.zeros(max(heap_len * 4, 1), dtype=np.int64)
        n = lib.rfp_heap_dump(ptr, binding.eidx, _ptr(quads))
        ql = quads[: n * 4].tolist()
        # The kernel heap layout satisfies the same invariant under the
        # same (cycle, priority, seq) order, so heapq can consume it
        # directly; pop order is identical since seq is unique.
        engine._heap[:] = [
            (ql[k], ql[k + 1], ql[k + 2], ql[k + 3]) for k in range(0, n * 4, 4)
        ]
        for which, alloc in enumerate(
            (engine.fetch_slots, engine.issue_slots, engine.commit_slots)
        ):
            live = lib.rfp_alloc_size(ptr, binding.eidx, which)
            hdr = np.zeros(2, dtype=np.int64)
            cyc = np.zeros(max(live, 1), dtype=np.int64)
            cnts = np.zeros(max(live, 1), dtype=np.int64)
            nlive = lib.rfp_alloc_dump(
                ptr, binding.eidx, which, _ptr(hdr), _ptr(cyc), _ptr(cnts)
            )
            alloc._floor = int(hdr[0])
            alloc.allocated = int(hdr[1])
            alloc._used = dict(
                zip(cyc[:nlive].tolist(), cnts[:nlive].tolist())
            )
        engine._fp_binding = None
    _export_counters(w)
    for _, cache in _live(w.caches):
        nsets = cache._num_sets
        assoc = cache.config.associativity
        cnt = np.zeros(nsets, dtype=np.int64)
        lines = np.zeros(nsets * assoc, dtype=np.int64)
        counters = np.zeros(4, dtype=np.int64)
        lib.rfp_cache_dump(
            ptr, cache._fp_idx, _ptr(cnt), _ptr(lines), _ptr(counters)
        )
        cl = cnt.tolist()
        ll = lines.tolist()
        cache._sets = [
            ll[s * assoc : s * assoc + cl[s]] for s in range(nsets)
        ]
        del cache._fp_world, cache._fp_idx
    for _, tlb in _live(w.tlbs):
        vpns = np.zeros(tlb.config.entries, dtype=np.int64)
        counters = np.zeros(2, dtype=np.int64)
        n = lib.rfp_tlb_dump(ptr, tlb._fp_idx, _ptr(vpns), _ptr(counters))
        tlb._entries = vpns[:n].tolist()
        del tlb._fp_world, tlb._fp_idx
    for _, btb in _live(w.btbs):
        n = btb.entries
        tags = np.zeros(n, dtype=np.int64)
        valid = np.zeros(n, dtype=np.uint8)
        targets = np.zeros(n, dtype=np.int64)
        counters = np.zeros(2, dtype=np.int64)
        lib.rfp_btb_dump(
            ptr, btb._fp_idx, _ptr(tags), _ptr(valid), _ptr(targets), _ptr(counters)
        )
        tl, vl = tags.tolist(), valid.tolist()
        btb._tags = [tl[i] if vl[i] else None for i in range(n)]
        btb._targets = targets.tolist()
        del btb._fp_world, btb._fp_idx
    for _, pred in _live(w.preds):
        # Tables were borrowed zero-copy; nothing to export.
        del pred._fp_world, pred._fp_idx
    for _, hier in _live(w.hiers):
        del hier._fp_world, hier._fp_idx
    w.engines.clear()
    w.free()


__all__ = [
    "AUTO_MIN_INSTRUCTIONS",
    "eject_engine",
    "eject_world",
    "estimated_instructions",
    "fast_forward_engine",
    "run_engine",
]
