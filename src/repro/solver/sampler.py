"""Candidate-point generation inside a contracted variable box."""

from __future__ import annotations

import math
import random
from typing import Dict, List

from repro.expr.types import BOOL, INT
from repro.solver.box import Box
from repro.solver.interval import Interval


def clamp_to_domain(value: float, domain: Interval, is_int: bool) -> float:
    """Clamp a scalar into a domain, rounding integers."""
    if domain.is_empty:
        return value
    lo = domain.lo if math.isfinite(domain.lo) else -1.0e9
    hi = domain.hi if math.isfinite(domain.hi) else 1.0e9
    value = min(max(value, lo), hi)
    if is_int:
        value = float(round(value))
        value = min(max(value, math.ceil(lo)), math.floor(hi))
    return value


def sample_point(box: Box, rng: random.Random) -> Dict[str, object]:
    """Draw one random assignment inside the box (uniform per variable)."""
    env: Dict[str, object] = {}
    for name, domain in box:
        var = box.var(name)
        env[name] = _draw(domain, var.ty, rng)
    return env


def corner_points(box: Box, limit: int = 8) -> List[Dict[str, object]]:
    """A few deterministic candidates: midpoints, lows, highs, zeros."""
    mids: Dict[str, object] = {}
    los: Dict[str, object] = {}
    his: Dict[str, object] = {}
    zeros: Dict[str, object] = {}
    for name, domain in box:
        var = box.var(name)
        is_int = var.ty is INT or var.ty is BOOL
        lo = domain.lo if math.isfinite(domain.lo) else -1.0e6
        hi = domain.hi if math.isfinite(domain.hi) else 1.0e6
        mid = clamp_to_domain((lo + hi) / 2.0, domain, is_int)
        mids[name] = _to_value(mid, var.ty)
        los[name] = _to_value(clamp_to_domain(lo, domain, is_int), var.ty)
        his[name] = _to_value(clamp_to_domain(hi, domain, is_int), var.ty)
        zeros[name] = _to_value(clamp_to_domain(0.0, domain, is_int), var.ty)
    candidates = [mids, zeros, los, his]
    return candidates[:limit]


def _draw(domain: Interval, ty, rng: random.Random):
    if ty is BOOL:
        if domain.is_empty:
            return False
        if domain.lo > 0:
            return True
        if domain.hi < 1:
            return False
        return rng.random() < 0.5
    lo = domain.lo if math.isfinite(domain.lo) else -1.0e6
    hi = domain.hi if math.isfinite(domain.hi) else 1.0e6
    if domain.is_empty:
        lo, hi = -1.0e6, 1.0e6
    if ty is INT:
        ilo = math.ceil(lo)
        ihi = math.floor(hi)
        if ilo > ihi:
            return int(round(lo))
        roll = rng.random()
        # Mix domain corners and small magnitudes with uniform draws:
        # branch conditions compare against small constants and extremes.
        if roll < 0.1:
            return ilo
        if roll < 0.2:
            return ihi
        if roll < 0.6 and ilo <= 0 <= ihi:
            bound = min(16, max(abs(ilo), abs(ihi)))
            return rng.randint(max(ilo, -bound), min(ihi, bound))
        return rng.randint(ilo, ihi)
    roll = rng.random()
    if roll < 0.1:
        return lo
    if roll < 0.2:
        return hi
    if roll < 0.45 and lo <= 0.0 <= hi:
        return rng.uniform(max(lo, -16.0), min(hi, 16.0))
    return rng.uniform(lo, hi)


def _to_value(value: float, ty):
    if ty is BOOL:
        return bool(round(value))
    if ty is INT:
        return int(round(value))
    return float(value)
