"""Arithmetic blocks: gains, sums, products, saturation, casts, Fcn."""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.errors import ModelError
from repro.expr.ast import Expr, Var
from repro.expr.evaluator import evaluate
from repro.expr.parser import parse_expr
from repro.expr.types import BOOL, INT, REAL, Type
from repro.expr.variables import substitute
from repro.model.block import Block


class Gain(Block):
    """``y = k * u``."""

    def __init__(self, name: str, gain):
        super().__init__(name, 1, 1)
        self.gain = gain

    def compute(self, ctx, inputs: List[object]) -> List[object]:
        return [ctx.vo.mul(self.gain, inputs[0])]


class Bias(Block):
    """``y = u + b``."""

    def __init__(self, name: str, bias):
        super().__init__(name, 1, 1)
        self.bias = bias

    def compute(self, ctx, inputs: List[object]) -> List[object]:
        return [ctx.vo.add(inputs[0], self.bias)]


class Sum(Block):
    """N-input sum with a sign string, e.g. ``"++-"``."""

    def __init__(self, name: str, signs: str = "++"):
        if not signs or any(s not in "+-" for s in signs):
            raise ModelError(f"invalid sign string {signs!r}")
        super().__init__(name, len(signs), 1)
        self.signs = signs

    def compute(self, ctx, inputs: List[object]) -> List[object]:
        vo = ctx.vo
        total = inputs[0] if self.signs[0] == "+" else vo.neg(inputs[0])
        for sign, value in zip(self.signs[1:], inputs[1:]):
            total = vo.add(total, value) if sign == "+" else vo.sub(total, value)
        return [total]


class Product(Block):
    """N-input product with an op string of ``*`` and ``/``, e.g. ``"**/"``."""

    def __init__(self, name: str, ops: str = "**"):
        if not ops or any(o not in "*/" for o in ops):
            raise ModelError(f"invalid op string {ops!r}")
        if ops[0] == "/":
            raise ModelError("first operand of Product must be '*'")
        super().__init__(name, len(ops), 1)
        self.ops = ops

    def compute(self, ctx, inputs: List[object]) -> List[object]:
        vo = ctx.vo
        total = inputs[0]
        for op, value in zip(self.ops[1:], inputs[1:]):
            total = vo.mul(total, value) if op == "*" else vo.div(total, value)
        return [total]


class Abs(Block):
    """``y = |u|``."""

    def __init__(self, name: str):
        super().__init__(name, 1, 1)

    def compute(self, ctx, inputs: List[object]) -> List[object]:
        return [ctx.vo.absolute(inputs[0])]


class MinMax(Block):
    """N-input minimum or maximum."""

    def __init__(self, name: str, mode: str, n_in: int = 2):
        if mode not in ("min", "max"):
            raise ModelError(f"mode must be 'min' or 'max', got {mode!r}")
        if n_in < 2:
            raise ModelError("MinMax needs at least two inputs")
        super().__init__(name, n_in, 1)
        self.mode = mode

    def compute(self, ctx, inputs: List[object]) -> List[object]:
        vo = ctx.vo
        combine = vo.minimum if self.mode == "min" else vo.maximum
        total = inputs[0]
        for value in inputs[1:]:
            total = combine(total, value)
        return [total]


class Saturation(Block):
    """Clamp into ``[lo, hi]``."""

    def __init__(self, name: str, lo, hi):
        if not lo <= hi:
            raise ModelError(f"saturation bounds inverted: [{lo}, {hi}]")
        super().__init__(name, 1, 1)
        self.lo = lo
        self.hi = hi

    def compute(self, ctx, inputs: List[object]) -> List[object]:
        return [ctx.vo.saturate(inputs[0], self.lo, self.hi)]


class TypeCast(Block):
    """Cast to bool / int / real (Simulink Data Type Conversion)."""

    def __init__(self, name: str, target: Type):
        super().__init__(name, 1, 1)
        self.target = target

    def compute(self, ctx, inputs: List[object]) -> List[object]:
        vo = ctx.vo
        if self.target is BOOL:
            return [vo.to_bool(inputs[0])]
        if self.target is INT:
            return [vo.to_int(inputs[0])]
        if self.target is REAL:
            return [vo.to_real(inputs[0])]
        raise ModelError(f"cannot cast to {self.target!r}")


class Quantizer(Block):
    """Round to the nearest multiple of ``interval``."""

    def __init__(self, name: str, interval: float):
        if interval <= 0:
            raise ModelError("quantizer interval must be positive")
        super().__init__(name, 1, 1)
        self.interval = float(interval)

    def compute(self, ctx, inputs: List[object]) -> List[object]:
        import math

        if ctx.vo.abstract:
            from repro.analysis.intervalops import lift
            from repro.solver.interval import Interval

            value = lift(inputs[0])
            return [Interval(
                math.floor(value.lo / self.interval + 0.5) * self.interval,
                math.floor(value.hi / self.interval + 0.5) * self.interval,
            )]
        if ctx.vo.symbolic:
            from repro.expr import ops as x

            scaled = x.div(inputs[0], self.interval)
            return [x.mul(x.to_real(x.floor(x.add(scaled, 0.5))), self.interval)]
        return [math.floor(float(inputs[0]) / self.interval + 0.5) * self.interval]


class Fcn(Block):
    """An expression block (Simulink ``Fcn``): one DSL expression over
    named inputs.

    ``args`` names the input ports in order; each entry is a name (typed
    REAL, like Simulink's double-everything Fcn) or a ``(name, type)`` pair
    for integer/boolean operands.  Purely arithmetic — no coverage
    instrumentation, matching how Simulink treats Fcn blocks.
    """

    def __init__(self, name: str, args: Sequence, text: str):
        if not args:
            raise ModelError("Fcn needs at least one argument")
        names = []
        types = []
        for arg in args:
            if isinstance(arg, tuple):
                arg_name, arg_ty = arg
            else:
                arg_name, arg_ty = arg, REAL
            names.append(arg_name)
            types.append(arg_ty)
        super().__init__(name, len(names), 1)
        self.args = tuple(names)
        self.arg_types = tuple(types)
        self.text = text
        self.template = parse_expr(
            text, {n: Var(n, t) for n, t in zip(self.args, self.arg_types)}
        )

    def compute(self, ctx, inputs: List[object]) -> List[object]:
        if ctx.vo.abstract:
            from repro.analysis.interval_eval import interval_eval

            return [interval_eval(self.template, dict(zip(self.args, inputs)))]
        if ctx.vo.symbolic:
            from repro.expr import ops as x

            # The concrete path reads each argument as its declared type.
            convert = {BOOL: x.to_bool, INT: x.to_int, REAL: x.to_real}
            bindings: Dict[str, Expr] = {
                arg: convert.get(ty, x.lift)(value)
                for arg, ty, value in zip(self.args, self.arg_types, inputs)
            }
            return [substitute(self.template, bindings)]
        env = dict(zip(self.args, inputs))
        return [evaluate(self.template, env)]
