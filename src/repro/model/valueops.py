"""Dual-mode value operations for block computations.

Every block computes its outputs through a :class:`ValueOps` instance so the
same block code runs in two modes:

* **concrete** — operands are plain Python values (bool/int/float/tuple);
  operations are direct Python arithmetic.  This is the hot path for dynamic
  execution and the random-search baseline.
* **symbolic** — operands are expression nodes (or plain values, lifted);
  operations build expression trees via the smart constructors, folding
  wherever operands are constant.  This is how the step template is
  produced, which one-step encodings (STCG) specialize and multi-step
  unrollings (the SLDV-like baseline) compose.
"""

from __future__ import annotations

from repro.expr import ops as x
from repro.expr import semantics
from repro.expr.ast import Expr


class ValueOps:
    """Abstract operation table; see :data:`CONCRETE` and :data:`SYMBOLIC`."""

    symbolic = False
    #: True for the interval-domain table in :mod:`repro.analysis`.
    abstract = False

    def add(self, a, b):
        raise NotImplementedError

    # The remaining operations are defined by the concrete/symbolic tables.


class _ConcreteOps(ValueOps):
    """Plain Python arithmetic on canonical values."""

    symbolic = False

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def sub(a, b):
        return a - b

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def div(a, b):
        return semantics.real_div(float(a), float(b))

    @staticmethod
    def idiv(a, b):
        return semantics.c_idiv(int(a), int(b))

    @staticmethod
    def mod(a, b):
        return semantics.c_mod(int(a), int(b))

    @staticmethod
    def minimum(a, b):
        return min(a, b)

    @staticmethod
    def maximum(a, b):
        return max(a, b)

    @staticmethod
    def absolute(a):
        return abs(a)

    @staticmethod
    def neg(a):
        return -a

    @staticmethod
    def saturate(v, lo, hi):
        return min(max(v, lo), hi)

    @staticmethod
    def lt(a, b):
        return a < b

    @staticmethod
    def le(a, b):
        return a <= b

    @staticmethod
    def gt(a, b):
        return a > b

    @staticmethod
    def ge(a, b):
        return a >= b

    @staticmethod
    def eq(a, b):
        return a == b

    @staticmethod
    def ne(a, b):
        return a != b

    @staticmethod
    def land(a, b):
        return bool(a) and bool(b)

    @staticmethod
    def lor(a, b):
        return bool(a) or bool(b)

    @staticmethod
    def lxor(a, b):
        return bool(a) != bool(b)

    @staticmethod
    def lnot(a):
        return not a

    @staticmethod
    def ite(c, t, e):
        return t if c else e

    @staticmethod
    def select(arr, idx):
        return arr[int(idx)]

    @staticmethod
    def store(arr, idx, val):
        items = list(arr)
        items[int(idx)] = val
        return tuple(items)

    @staticmethod
    def to_int(a):
        return int(a)

    @staticmethod
    def to_real(a):
        return float(a)

    @staticmethod
    def to_bool(a):
        return bool(a)

    @staticmethod
    def is_true(a) -> bool:
        """Concrete truth of a boolean value (always decidable here)."""
        return bool(a)

    @staticmethod
    def is_concrete(a) -> bool:
        return True


class _SymbolicOps(ValueOps):
    """Expression-building arithmetic via the smart constructors."""

    symbolic = True

    add = staticmethod(x.add)
    sub = staticmethod(x.sub)
    mul = staticmethod(x.mul)
    div = staticmethod(x.div)
    idiv = staticmethod(x.idiv)
    mod = staticmethod(x.mod)
    minimum = staticmethod(x.minimum)
    maximum = staticmethod(x.maximum)
    absolute = staticmethod(x.absolute)
    neg = staticmethod(x.neg)
    saturate = staticmethod(x.saturate)
    lt = staticmethod(x.lt)
    le = staticmethod(x.le)
    gt = staticmethod(x.gt)
    ge = staticmethod(x.ge)
    eq = staticmethod(x.eq)
    ne = staticmethod(x.ne)
    land = staticmethod(x.land)
    lor = staticmethod(x.lor)
    lxor = staticmethod(x.lxor)
    lnot = staticmethod(x.lnot)
    ite = staticmethod(x.ite)
    select = staticmethod(x.select)
    store = staticmethod(x.store)
    to_int = staticmethod(x.to_int)
    to_real = staticmethod(x.to_real)
    to_bool = staticmethod(x.to_bool)

    @staticmethod
    def is_true(a) -> bool:
        """Truth of a *constant* boolean expression; raises otherwise."""
        expr = x.lift(a)
        return bool(expr.const_value())

    @staticmethod
    def is_concrete(a) -> bool:
        if isinstance(a, Expr):
            return a.is_const
        return True


CONCRETE = _ConcreteOps()
SYMBOLIC = _SymbolicOps()
