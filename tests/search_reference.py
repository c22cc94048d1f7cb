"""One-dimensional bracketing and golden-section kernels, the tests' reference search.

These are the kernels the generic cash-additive hull once ran on, with
absolute widths (golden tolerance 1e-10, ``scale = max(1, max|X|)``): the
full-bracket hull ``reference_cash_hull`` of ``test_risk_core`` and the
numeric conjugate of ``test_orlicz`` still use them.  Objectives may return
``math.inf``; comparisons treat it as larger than any finite value, which
keeps the search inside the finite valley of a convex function.
"""

from __future__ import annotations

import math

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
