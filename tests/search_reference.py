"""One-dimensional bracketing and golden-section kernels, the tests' reference search.

These are the kernels the generic cash-additive hull once ran on, with
absolute widths (golden tolerance 1e-10, ``scale = max(1, max|X|)``): the
full-bracket hull ``reference_cash_hull`` of ``test_risk_core`` and the
numeric conjugate of ``test_orlicz`` still use them.  Objectives may return
``math.inf``; comparisons treat it as larger than any finite value, which
keeps the search inside the finite valley of a convex function.

The probe checkers ``reference_fgh2`` and ``reference_fgh1`` are the numeric
(FGH) checkers the exact ``fgh2_check`` and ``fgh1_check`` replaced: they
return ``None`` where their probes decide nothing.
"""

from __future__ import annotations

import math

from scenrisk import TriState, g_inv_one

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
MAX_ITER = 200


class BracketError(RuntimeError):
    """Raised when no descent bracket exists within the doubling budget."""


def bracket_minimum(fn, s0: float, step: float = 1.0, max_doublings: int = 60,
                    window: float = math.inf):
    """Walk downhill from ``s0`` with doubling steps until the value stops decreasing.

    Returns (a, b) with a < b containing a minimizer of a convex ``fn``.
    ``fn(s0)`` must be finite.  A plateau (new value == previous) counts as an
    attained flat minimum, but only within ``window`` of the start: an
    objective decaying to an unattained infimum also flattens in floating
    point once |s| is astronomically large, and that must keep walking until
    the doubling budget runs out.  A genuinely attained minimum sits at the
    scale of the data, far inside any sensible window.
    """
    f0 = fn(s0)
    if not f0 < math.inf:
        raise ValueError("bracket_minimum needs a finite starting value")
    fl, fr = fn(s0 - step), fn(s0 + step)
    if f0 <= fl and f0 <= fr:
        return s0 - step, s0 + step
    direction = -1.0 if fl < fr else 1.0
    prev2, prev = s0, s0 + direction * step
    f_prev = fl if direction < 0 else fr
    for _ in range(max_doublings):
        step *= 2.0
        cur = prev + direction * step
        f_cur = fn(cur)
        if f_cur == math.inf or (f_cur >= f_prev and abs(cur - s0) <= window):
            lo, hi = sorted((prev2, cur))
            return lo, hi
        prev2, prev, f_prev = prev, cur, min(f_cur, f_prev)
    raise BracketError("no bracket after doubling budget; objective looks non-coercive")


def golden_section(fn, a: float, b: float, tol: float = 1e-10, max_iter: int = MAX_ITER):
    """Minimize a unimodal ``fn`` on [a, b]; returns (best_x, best_f, width).

    Tracks the best evaluated point, so the returned value is a true upper
    bound on the minimum even when the final interval is wider than ``tol``.
    """
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    best_x, best_f = (c, fc) if fc <= fd else (d, fd)
    for _ in range(max_iter):
        if (b - a) <= tol:
            break
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = fn(d)
        if fc < best_f:
            best_x, best_f = c, fc
        if fd < best_f:
            best_x, best_f = d, fd
    return best_x, best_f, b - a


def scan_finite(fn, center: float, scale: float = 1.0, max_doublings: int = 60):
    """Find any point with a finite value near ``center``; None if all probes are inf."""
    if fn(center) < math.inf:
        return center
    for k in range(max_doublings + 1):
        off = scale * (2.0 ** k)
        for s in (center + off, center - off):
            if fn(s) < math.inf:
                return s
    return None


def slope_lower_bound(fn, grows_from: float = 0.0):
    """Certified lower bound on lim_{s->inf} fn(s)/s via difference quotients
    at geometrically growing arguments (slopes are nondecreasing by convexity).
    Returns inf as soon as fn hits an infinite value."""
    best = -math.inf
    prev_s = grows_from
    prev_v = fn(prev_s)
    if prev_v == math.inf:
        return math.inf
    for k in range(0, 61):
        s = 2.0 ** k
        if s <= prev_s:
            continue
        v = fn(s)
        if v == math.inf:
            return math.inf
        if math.isfinite(v) and math.isfinite(prev_v):
            best = max(best, (v - prev_v) / (s - prev_s))
        prev_s, prev_v = s, v
    return best


def reference_fgh2(t):
    """(FGH2) by slope probes: difference quotients certify HOLDS, and the
    kinds' analytic slopes refute; None when neither decides."""
    ginv1 = g_inv_one(t.g)
    a_lb = slope_lower_bound(t.f)
    b_lb = slope_lower_bound(t.h)
    if a_lb == math.inf and b_lb > 0:
        return TriState.HOLDS
    if b_lb == math.inf and a_lb > 0:
        return TriState.HOLDS
    if a_lb > 0 and b_lb > 0 and a_lb * b_lb > ginv1 + 1e-9:
        return TriState.HOLDS
    if t.f.slope_at_infinity * t.h.slope_at_infinity <= ginv1 + 1e-9:
        return TriState.FAILS
    return None


def reference_fgh1(t):
    """(FGH1) by a search for s, eps with F((H(s) + eps) / G^{-1}(1)) finite.

    Existential, so the search can certify HOLDS but never failure (None)."""
    ginv1 = g_inv_one(t.g)
    probes = [0.0]
    for k in range(0, 41):
        probes.extend((2.0 ** k, -(2.0 ** k)))
    for eps in (1.0, 1e-3, 1e-6):
        for s in probes:
            arg = (t.h(s) + eps) / ginv1
            if math.isfinite(t.f(arg)):
                return TriState.HOLDS
    return None
