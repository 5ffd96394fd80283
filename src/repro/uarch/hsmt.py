"""Hierarchical SMT (HSMT) virtual-context scheduling (Section III-A).

A lender-core's datapath supports ``physical_contexts`` simultaneous
threads, but maintains a FIFO *run queue* of additional virtual contexts
in a dedicated memory region.  When an active context initiates a
microsecond-scale REMOTE access, its architectural state is dumped to the
tail of the run queue and a ready context is loaded in its place
(``swap_cycles`` of overhead).  A round-robin quantum (100 microseconds in
the paper) bounds starvation.

The scheduler plugs into :class:`~repro.uarch.engine.TimingEngine` through
its ``Scheduler`` protocol; contexts must use ``remote_policy =
"scheduler"``.

Compiled-path contract (``repro.uarch.fastpath``): the kernel mirrors
this scheduler exactly, importing ``ready``/``_blocked`` and the scalar
counters at every run start and exporting them back at every run end.
Between runs the Python objects are therefore authoritative, which is
what lets :meth:`steal_context`/:meth:`return_context` mutate the run
queue freely from the dyad without any fastpath coordination (context
activation routes through ``engine.activate``, which restores Python
authority first if needed).
"""

from __future__ import annotations

import heapq
import weakref
from collections import deque

from repro import prof
from repro.prof.taxonomy import SlotCause
from repro.uarch.engine import ThreadState, TimingEngine


class HSMTScheduler:
    """Two-level virtual/physical context scheduler with a FIFO run queue."""

    def __init__(
        self,
        engine: TimingEngine,
        *,
        physical_contexts: int = 8,
        swap_cycles: int = 40,
        quantum_cycles: int | None = None,
    ):
        if physical_contexts <= 0:
            raise ValueError("need at least one physical context")
        if swap_cycles < 0:
            raise ValueError("swap cost cannot be negative")
        # Weak: the engine owns its scheduler, so dropping the engine
        # frees both (and its kernel world) without the cyclic collector.
        self._engine = weakref.ref(engine)
        self.physical_contexts = physical_contexts
        self.swap_cycles = swap_cycles
        self.quantum_cycles = quantum_cycles
        self.ready: deque[ThreadState] = deque()
        self._blocked: list[tuple[int, int, ThreadState]] = []
        self._seq = 0
        self.active_count = 0
        self.swaps = 0
        self.preemptions = 0
        engine.scheduler = self

    @property
    def engine(self) -> TimingEngine:
        return self._engine()

    # -- context management -----------------------------------------------

    def add_context(self, thread: ThreadState) -> ThreadState:
        """Register a virtual context; it activates immediately if a
        physical context is free, otherwise joins the run queue."""
        if thread.remote_policy != "scheduler":
            raise ValueError(
                "HSMT contexts must use remote_policy='scheduler' "
                f"(thread {thread.name!r} uses {thread.remote_policy!r})"
            )
        thread.active = False
        self.engine.add_thread(thread)
        if self.active_count < self.physical_contexts:
            self._activate(thread, self.engine.now)
        else:
            self.ready.append(thread)
        return thread

    def steal_context(self) -> ThreadState | None:
        """Remove and return the head of the run queue (master-core borrow,
        Section III-A: 'stealing a virtual context from the head of its
        run queue')."""
        self._drain_blocked(self.engine.now)
        if self.ready:
            return self.ready.popleft()
        return None

    def return_context(self, thread: ThreadState) -> None:
        """Give a borrowed context back to the tail of the run queue."""
        thread.active = False
        self.ready.append(thread)
        self._fill(self.engine.now)

    def _activate(self, thread: ThreadState, now: int) -> None:
        self.active_count += 1
        self.swaps += 1
        if prof.is_enabled():
            # Swap-in overhead belongs to the core (the incoming context
            # did not choose to pay it), so charge the shared row.
            prof.charge_core(
                self.engine, SlotCause.CONTEXT_SWAP, self.swap_cycles
            )
        self.engine.activate(thread, now + self.swap_cycles)

    def _fill(self, now: int) -> None:
        while self.active_count < self.physical_contexts and self.ready:
            thread = self.ready.popleft()
            if thread.done:
                continue
            self._activate(thread, now)

    def _drain_blocked(self, now: int) -> None:
        while self._blocked and self._blocked[0][0] <= now:
            _, _, thread = heapq.heappop(self._blocked)
            self.ready.append(thread)

    # -- Scheduler protocol -------------------------------------------------

    def on_remote(self, thread: ThreadState, issue: int, complete: int) -> None:
        """Swap the stalled context out; wake it when the access returns.

        The replacement context loads from ``issue`` (the moment the stall
        is detected), not from the engine's high-water commit time, which
        can run ahead of the stalling context's frontier.
        """
        thread.active = False
        self.active_count -= 1
        heapq.heappush(self._blocked, (complete, self._seq, thread))
        self._seq += 1
        self._drain_blocked(issue)
        self._fill(issue)

    def before_instruction(self, thread: ThreadState, now: int) -> bool:
        self._drain_blocked(now)
        if (
            self.quantum_cycles is not None
            and self.ready
            and now - thread.activated_at >= self.quantum_cycles
        ):
            # Round-robin preemption: rotate to the run-queue tail.
            thread.active = False
            self.active_count -= 1
            self.preemptions += 1
            self.ready.append(thread)
            self._fill(now)
            return False
        self._fill(now)
        return True

    def on_idle(self, now: int) -> int | None:
        self._drain_blocked(now)
        if not self.ready:
            if not self._blocked:
                return None
            wake = self._blocked[0][0]
            self._drain_blocked(wake)
            now = wake
        self._fill(now)
        return now

    # -- statistics ----------------------------------------------------------

    @property
    def queue_length(self) -> int:
        return len(self.ready)

    @property
    def blocked_count(self) -> int:
        return len(self._blocked)
