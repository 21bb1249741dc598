"""1-D lookup table with linear interpolation and end clipping."""

from __future__ import annotations

from typing import List, Sequence

from repro.errors import ModelError
from repro.model.block import Block


class Lookup1D(Block):
    """Piecewise-linear interpolation over monotonically increasing
    breakpoints; input outside the table clips to the end values.

    In symbolic mode the table unfolds into an ITE chain over the segments,
    which is how a formal encoding of a Simulink lookup block behaves.
    """

    def __init__(self, name: str, breakpoints: Sequence[float], values: Sequence[float]):
        if len(breakpoints) != len(values):
            raise ModelError("breakpoints and values must have equal length")
        if len(breakpoints) < 2:
            raise ModelError("lookup table needs at least two points")
        bps = [float(b) for b in breakpoints]
        if any(b2 <= b1 for b1, b2 in zip(bps, bps[1:])):
            raise ModelError("breakpoints must be strictly increasing")
        super().__init__(name, 1, 1)
        self.breakpoints = tuple(bps)
        self.values = tuple(float(v) for v in values)

    def compute(self, ctx, inputs: List[object]) -> List[object]:
        vo = ctx.vo
        u = vo.to_real(inputs[0])
        if not vo.symbolic:
            return [self._interp_concrete(float(u))]
        result = vo.to_real(self.values[-1])
        # Build the chain back to front: ... ite(u <= bp[i+1], seg_i, rest)
        for index in range(len(self.breakpoints) - 2, -1, -1):
            segment = self._segment_expr(vo, u, index)
            result = vo.ite(
                vo.le(u, self.breakpoints[index + 1]), segment, result
            )
        result = vo.ite(
            vo.le(u, self.breakpoints[0]), vo.to_real(self.values[0]), result
        )
        return [result]

    def _segment_expr(self, vo, u, index: int):
        v1, b1, slope = self._segment(index)
        return vo.add(v1, vo.mul(slope, vo.sub(u, b1)))

    def _segment(self, index: int):
        """``(v1, b1, slope)`` of segment ``index``: its value is
        ``v1 + slope * (u - b1)`` in both modes."""
        b1 = self.breakpoints[index]
        b2 = self.breakpoints[index + 1]
        v1 = self.values[index]
        v2 = self.values[index + 1]
        return v1, b1, (v2 - v1) / (b2 - b1)

    def _interp_concrete(self, u: float) -> float:
        """The symbolic ITE chain, evaluated: the first segment whose
        upper breakpoint is ``>= u`` (so ``u == bps[-1]`` takes the last
        segment), ``values[-1]`` past the table."""
        bps = self.breakpoints
        if u <= bps[0]:
            return self.values[0]
        for index in range(len(bps) - 1):
            if u <= bps[index + 1]:
                v1, b1, slope = self._segment(index)
                return v1 + slope * (u - b1)
        return self.values[-1]
