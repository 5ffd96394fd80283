"""Service models as programs for the compiled queueing kernels.

The kernels in :mod:`repro.uarch.fastpath` draw each request's service
time live from the caller's NumPy generator, through the C samplers the
scalar ``service_time`` reaches.  A :class:`ServiceProgram` spells the
model out for them as a short stack-machine program (the ``PG_*`` ops of
``kernel.c``) whose float operations are the scalar code's, in its
order.  A model that cannot be spelled (a ``Mixture``, an unknown
``Distribution`` subclass, a custom service class) has no program and
stays on the Python reference loop.
"""

from __future__ import annotations

import numpy as np

from repro.common.distributions import (
    Deterministic,
    Distribution,
    Exponential,
    LogNormal,
    Pareto,
    ScaledDistribution,
    SumDistribution,
    Uniform,
)

(CONST, EXPONENTIAL, UNIFORM, LOGNORMAL, PARETO, MUL, DIV, ADD, START,
 DIVMULADD, DIVADD, ADDC) = range(12)

#: Stack-depth change of each op.
_PUSHES = (1, 1, 1, 1, 1, 0, 0, -1, 0, -1, -1, 0)

#: The kernel's stack size (``PG_DEPTH``); deeper programs are refused.
MAX_DEPTH = 16


class ServiceProgram:
    """A service model's per-request ``service_time`` as kernel ops."""

    def __init__(self) -> None:
        self.ops: list[int] = []
        self.args: list[float] = []
        self._depth = 0
        self._max_depth = 0

    def emit(self, op: int, a: float = 0.0, b: float = 0.0) -> None:
        """Append ``op``; an ``ADD`` folds into a preceding ``DIV, MUL``,
        ``DIV`` or ``CONST`` (same float operations, one dispatch)."""
        if op == ADD:
            tail = self.ops[-2:]
            if tail == [DIV, MUL]:
                op, a, b = DIVMULADD, self.args[-4], self.args[-2]
                self._pop(2)
            elif tail[-1:] == [DIV]:
                op, a = DIVADD, self.args[-2]
                self._pop(1)
            elif tail[-1:] == [CONST] and self._depth > 1:
                op, a = ADDC, self.args[-2]
                self._pop(1)
        self.ops.append(op)
        self.args += (float(a), float(b))
        self._depth += _PUSHES[op]
        self._max_depth = max(self._max_depth, self._depth)

    def _pop(self, count: int) -> None:
        for _ in range(count):
            self._depth -= _PUSHES[self.ops.pop()]
            del self.args[-2:]

    def sample(self, dist: Distribution) -> bool:
        """Append ``dist.sample(rng)``; False if ``dist`` has no spelling.

        Exact-type checks: a subclass may override ``sample`` at will.
        """
        kind = type(dist)
        if kind is Deterministic:
            self.emit(CONST, dist.value)
        elif kind is Exponential:
            self.emit(EXPONENTIAL, dist.mean_value)
        elif kind is Uniform:
            # Generator.uniform hands the sampler (low, high - low).
            self.emit(UNIFORM, dist.low, float(dist.high) - float(dist.low))
        elif kind is LogNormal:
            self.emit(LOGNORMAL, *dist._params())
        elif kind is Pareto:
            self.emit(PARETO, dist._scale(), dist.shape)
        elif kind is ScaledDistribution:
            if not self.sample(dist.base):
                return False
            self.emit(MUL, dist.factor)
        elif kind is SumDistribution:
            self.emit(CONST, 0.0)
            for component in dist.components:
                if not self.sample(component):
                    return False
                self.emit(ADD)
        else:
            return False
        return True

    def arrays(self) -> tuple[np.ndarray, np.ndarray] | None:
        """``(ops, args)`` for the kernel, or ``None`` if the program
        does not leave exactly one value within the kernel's stack or
        has a ``START`` before its last op."""
        if self._depth != 1 or self._max_depth > MAX_DEPTH:
            return None
        if START in self.ops[:-1]:
            return None
        return (
            np.array(self.ops, dtype=np.int64),
            np.array(self.args, dtype=np.float64),
        )


def program_of(service) -> tuple[np.ndarray, np.ndarray] | None:
    """The kernel arrays of ``service``'s program, or ``None`` when the
    model cannot describe itself (it then stays on the reference loop)."""
    describe = getattr(service, "program", None)
    program = describe() if describe is not None else None
    return program.arrays() if program is not None else None
