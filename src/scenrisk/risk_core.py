"""Risk functionals: AVaR, the transformed-norm family and its cash-additive hull.

The transformed-norm measure pairs an outer transform F, a norm generator G
and a loss reshaper H:

    T(X) = inf_s { F(||H(s - X)||_G) - s }.

:func:`transformed_T` computes T exactly wherever a closed form exists: the
higher-order member T_{c,p} (linear F, built-in power or linear G, H = x^+)
reads its own kernel on the law of X, :func:`higher_order_T`; every
H = exp triple is kappa_F - min X + log ||e^(min X - X)||_G, every
cap_at(theta) G with H = x^+ gives -min X - F*(theta), and a cap_at(theta)
F with H = x^+ is minus the bisected root of ||(s - X)^+||_G = theta.  The
H = x^+ triples that are left run :func:`cash_hull`, a one-dimensional
search from min X whose widths are relative to max|X|.  The slope condition
(FGH2) makes the hull objective coercive so the infimum is attained; (FGH1)
rules out an identically-infinite T.  Both are decided exactly from the
kinds' data, with no probe: (FGH2) from the asymptotic slopes of F and H and
the number G^{-1}(1), (FGH1) from where F is finite.  A triple computes its
(FGH2) verdict once, on first use, and keeps it.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import CoercivityError, ParameterError, require_finite
from .orlicz import HFunction, OrliczFunction, g_inv_one, luxemburg_norm
from .prob_core import RandomVariable

INF = math.inf
OMEGA = 0.5671432904097838  # the omega constant: OMEGA * exp(OMEGA) = 1
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_DOUBLINGS = 60  # upward doublings of the hull's walk from min X

# kappa_F = min_u {F(u) - log u}, by the kind's parameters (+inf for cap_at(0))
_LOG_OFFSET = {
    "linear": lambda c: 1.0 + math.log(c),
    "power": lambda p, coef: (1.0 + math.log(p * coef)) / p,
    "cap": lambda theta: -math.log(theta) if theta > 0.0 else INF,
    "exp_minus_one": lambda: 1.0 / OMEGA + OMEGA - 1.0,
    "entropy_conjugate": lambda: 2.0 - 1.0 / OMEGA - OMEGA,
}


class TriState(enum.Enum):
    HOLDS = "holds"
    FAILS = "fails"


@dataclass(frozen=True)
class OrliczTriple:
    """Descriptor (F, G, H) of a transformed-norm risk measure.

    ``f`` is convex increasing on [0, inf), extended-real, left-continuous,
    not identically infinite.  ``g`` is a real-valued Orlicz function.  ``h``
    is convex increasing on all of R with values in [0, inf), growing to
    infinity.
    """

    f: OrliczFunction
    g: OrliczFunction
    h: HFunction

    @functools.cached_property
    def fgh2(self) -> TriState:
        """The (FGH2) verdict of :func:`fgh2_check`, computed on first use."""
        return fgh2_check(self)


@dataclass(frozen=True)
class RiskFunctional:
    """Evaluatable risk descriptor; never returns -inf.

    Families: ``avar(alpha)``, ``higher_order(c, p)`` and
    ``transformed(triple)``.  Calling evaluates on a RandomVariable.
    """

    kind: str
    alpha: Optional[float] = None
    c: Optional[float] = None
    p: Optional[float] = None
    triple: Optional[OrliczTriple] = None
    label: str = ""

    @classmethod
    def avar(cls, alpha: float) -> "RiskFunctional":
        if not (0.0 < alpha <= 1.0):
            raise ParameterError("alpha must lie in (0, 1]")
        return cls(kind="avar", alpha=alpha, label=f"avar({alpha:g})")

    @classmethod
    def higher_order(cls, c: float, p: float) -> "RiskFunctional":
        _check_higher_order_params(c, p)
        return cls(kind="higher_order", c=c, p=p, label=f"higher_order({c:g},{p:g})")

    @classmethod
    def transformed(cls, triple: OrliczTriple) -> "RiskFunctional":
        return cls(kind="transformed", triple=triple, label="transformed")

    def __call__(self, x: RandomVariable) -> float:
        if self.kind == "avar":
            return avar(x, self.alpha)
        if self.kind == "higher_order":
            return higher_order_T(x, self.c, self.p)
        if self.kind == "transformed":
            return transformed_T(x, self.triple)
        raise ValueError(f"unknown risk kind {self.kind!r}")


def _check_higher_order_params(c: float, p: float):
    require_finite(c=c, p=p)
    if p == 1.0:
        # documented degenerate mode: c = 1/alpha reproduces AVaR_alpha
        if c < 1.0:
            raise ParameterError("with p = 1, c must be >= 1 (AVaR mode c = 1/alpha)")
    elif not (c > 1.0 and p > 1.0):
        raise ParameterError("higher-order measure needs c > 1 and p > 1")


# ---------------------------------------------------------------------------
# AVaR
# ---------------------------------------------------------------------------


def avar(x: RandomVariable, alpha: float) -> float:
    """Average value at risk: (1/alpha) * integral of VaR_t over (0, alpha].

    The VaR curve is piecewise constant, so the integral is an exact finite
    sum over the sorted points of :meth:`RandomVariable.law` -- no quadrature error.
    """
    if not (0.0 < alpha <= 1.0):
        raise ParameterError("alpha must lie in (0, 1]")
    v, pr = x.law()
    order = np.argsort(v, kind="stable")
    v, pr = v[order], pr[order]
    cum = np.cumsum(pr)
    cum_prev = cum - pr
    w = np.clip(np.minimum(cum, alpha) - cum_prev, 0.0, None)
    return float(-(v @ w) / alpha)


def avar_many(x: RandomVariable, alphas: np.ndarray) -> np.ndarray:
    """Vectorized ``avar`` over a whole level grid (single sort of the law)."""
    alphas = np.asarray(alphas, dtype=float)
    if not np.all((alphas > 0.0) & (alphas <= 1.0)):
        raise ParameterError("every alpha must lie in (0, 1]")
    v, pr = x.law()
    order = np.argsort(v, kind="stable")
    v, pr = v[order], pr[order]
    cum = np.cumsum(pr)
    partial = np.concatenate([[0.0], np.cumsum(v * pr)])
    m = np.searchsorted(cum, alphas, side="right")
    full_mass = np.concatenate([[0.0], cum])[m]
    extra = np.where(m < v.size, (alphas - full_mass) * v[np.minimum(m, v.size - 1)], 0.0)
    return -(partial[m] + extra) / alphas


# ---------------------------------------------------------------------------
# the transformed-norm family
# ---------------------------------------------------------------------------


def f_transformed(x: RandomVariable, t: OrliczTriple) -> float:
    """f(X) = F(||H(-X)||_G), extended-real (+inf is a legal value).

    An H value beyond float range means the norm exceeds every bracket, so
    the value saturates to inf.  Convexity, monotonicity and dilatation
    monotonicity are consequences of the shape axioms and are enforced by
    the property suite, not here.
    """
    hvals = t.h.eval_array(-x.values)
    if not np.all(np.isfinite(hvals)):
        return INF
    hx = RandomVariable(x.space, hvals)
    norm = luxemburg_norm(hx, t.g)
    if not math.isfinite(norm):
        return INF
    return t.f(norm)


def cash_hull(f_eval: Callable, x: RandomVariable):
    """Attained minimum of psi(s) = f(X - s) - s together with a minimizer,
    for an f that depends only on the shortfall (s - X)^+ and is finite at 0.

    Then psi is finite at m = min X and falls up to it (psi(s) = f(0) - s
    below m), so the search starts there.  Widths are relative to the data
    unit u = max|X| (1 when X = 0).  An upward walk from m with steps doubling
    from max(u, 1), where a flat stretch counts as attained only within
    1e6 max(u, 1) of m (a decay to an unattained infimum also flattens far
    out); a golden section, seeded with the walk's lowest point, to width
    1e-10 u, or until its interior points no longer split; a snap to the data
    values within the final width plus 1e-6 u of its minimizer, the kinks of a
    piecewise-linear objective (by convexity a farther kink cannot beat the
    golden value by more than the golden tolerance).  Sixty fruitless
    doublings raise CoercivityError.
    """

    def psi(s: float) -> float:
        return float(f_eval(x - s)) - s

    m = float(x.values.min())
    unit = float(np.max(np.abs(x.values))) or 1.0
    reach = step = max(unit, 1.0)
    s_best, f_best = m, psi(m)
    before, prev = m, m
    for _ in range(_DOUBLINGS):
        cur = prev + step
        f_cur = psi(cur)
        if f_cur == INF or (f_cur >= f_best and cur - m <= 1e6 * reach):
            lo, hi = before, cur
            break
        before, prev, step = prev, cur, 2.0 * step
        if f_cur < f_best:
            s_best, f_best = cur, f_cur
    else:
        raise CoercivityError(f"no bracket after {_DOUBLINGS} doublings; objective non-coercive")

    c, d = hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo)
    fc, fd = psi(c), psi(d)
    s_best, f_best = min((s_best, f_best), (c, fc), (d, fd), key=lambda pair: pair[1])
    while hi - lo > 1e-10 * unit and lo < c < d < hi:
        if fc <= fd:
            hi, d, fd = d, c, fc
            c = hi - _GOLDEN * (hi - lo)
            fc = psi(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _GOLDEN * (hi - lo)
            fd = psi(d)
        s_best, f_best = min((s_best, f_best), (c, fc), (d, fd), key=lambda pair: pair[1])
    near = x.values[np.abs(x.values - s_best) <= hi - lo + 1e-6 * unit]
    for v in np.unique(near):
        fv = psi(float(v))
        if fv < f_best:
            s_best, f_best = float(v), fv
    return f_best, s_best


def transformed_T(x: RandomVariable, t: OrliczTriple) -> float:
    """T(X) = inf_s {F(||H(s - X)||_G) - s}, the cash-additive hull of
    ``f_transformed``; refuses to run when the triple's (FGH2) verdict is
    FAILS.  (linear(c), coef t^p, x^+) is T_{c coef^(1/p), p} and
    (linear(c), linear(a), x^+) is its AVaR mode p = 1 at c a, both read off
    :func:`higher_order_T` (a passing verdict puts that c above 1).  With
    G = cap_at(theta) and H = x^+ the norm is (s - min X)^+ / theta, so
    T = -min X - F*(theta); F = cap_at(theta) gives -:func:`_shortfall_root`.
    With H = exp, ||e^(s - X)||_G = e^(s - m) K with m = min X and
    K = ||e^(m - X)||_G, and u = e^(s - m) K turns the hull into
    T = kappa_F - m + log K, kappa_F = min_u {F(u) - log u} (+inf for
    F = cap_at(0), where T is identically +inf).  Other triples run
    :func:`cash_hull`, whose missing bracket surfaces as CoercivityError.
    """
    _require_fgh2(t)
    if t.h.name == "positive_part" and t.f.name == "linear":
        c = t.f.params[0]
        if t.g.name == "power":
            p, coef = t.g.params
            return higher_order_T(x, c * coef ** (1.0 / p), p)
        if t.g.name == "linear":
            return higher_order_T(x, c * t.g.params[0], 1.0)
    m = float(x.values.min())
    if t.h.name == "exponential":
        k = luxemburg_norm(RandomVariable(x.space, np.exp(m - x.values)), t.g)
        return _LOG_OFFSET[t.f.name](*t.f.params) - m + math.log(k)
    if t.g.name == "cap":
        return -m - t.f.conjugate()(t.g.params[0])
    if t.f.name == "cap":
        return -_shortfall_root(x, t.g, t.f.params[0])
    value, _ = cash_hull(lambda y: f_transformed(y, t), x)
    return value


def _shortfall_root(x: RandomVariable, g: OrliczFunction, theta: float) -> float:
    """The largest s with ||(s - X)^+||_G <= theta, bisected to adjacent floats
    from min X (where the norm is 0) and an upper end doubled until it fails;
    the norm is continuous and nondecreasing in s.  theta = 0 gives min X."""
    v, lo = x.values, float(x.values.min())
    if theta == 0.0:
        return lo

    def fits(s: float) -> bool:
        return luxemburg_norm(RandomVariable(x.space, np.maximum(s - v, 0.0)), g) <= theta

    step = max(float(np.max(np.abs(v))), 1.0)
    while fits(hi := lo + step):
        lo, step = hi, 2.0 * step
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if fits(mid) else (lo, mid)
    return lo


def _require_fgh2(t: OrliczTriple) -> None:
    """Raise CoercivityError when the triple's (FGH2) verdict is FAILS."""
    if t.fgh2 is TriState.FAILS:
        raise CoercivityError("FGH2 fails: hull objective is not coercive")


def _gap_weights(v: np.ndarray, s: float, m: float) -> np.ndarray:
    """(s - X)^+ / (s - m), m = min X, and its limit 1_{X = m} at s = m."""
    if s == m:
        return (v == m).astype(float)
    return np.maximum(s - v, 0.0) / (s - m)


def _higher_order_bracket(v: np.ndarray, probs: np.ndarray, c: float, p: float):
    """Minimizer of phi(s) = c ||(s - X)^+||_p - s for p > 1, as ``(min X, None)``
    when the vertex is optimal (the right slope c P(X = min X)**(1/p) - 1 of
    the convex phi there is nonnegative), else as adjacent floats ``lo < hi``
    with phi'(lo) <= 0 < phi'(hi).  phi'(s) = c E[w^(p-1)] / E[w^p]^((p-1)/p) - 1
    with w the gap weights tends to c - 1 > 0; its sign is bisected until the
    midpoint no longer splits."""
    m = float(v.min())
    if c * float(probs[v == m].sum()) ** (1.0 / p) >= 1.0:
        return m, None

    def slope(s: float) -> float:
        w = _gap_weights(v, s, m)
        wp1 = w ** (p - 1.0)
        return c * float(probs @ wp1) / float(probs @ (wp1 * w)) ** ((p - 1.0) / p) - 1.0

    width = float(v.max()) - m
    while slope(m + width) <= 0.0:
        width *= 2.0
    lo, hi = m, m + width
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if slope(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return lo, hi


def higher_order_T(x: RandomVariable, c: float, p: float) -> float:
    """inf_s phi(s), phi(s) = c ||(s - X)^+||_p - s (F = c*x, G = x**p, H = x^+).

    ``p = 1`` is AVaR_{1/c} by Rockafellar-Uryasev (-E[X] at c = 1); for p > 1
    the smaller value at the ends of :func:`_higher_order_bracket` is taken.
    Both read :meth:`RandomVariable.law`: a conditional expectation's K cells.
    """
    _check_higher_order_params(c, p)
    if p == 1.0:
        return avar(x, 1.0 / c)
    v, probs = x.law()
    lo, hi = _higher_order_bracket(v, probs, c, p)
    if hi is None:
        return -lo
    m = float(v.min())

    def phi(s: float) -> float:
        return c * (s - m) * float(probs @ _gap_weights(v, s, m) ** p) ** (1.0 / p) - s

    return min(phi(lo) if lo > m else -m, phi(hi))


# ---------------------------------------------------------------------------
# FGH condition checkers
# ---------------------------------------------------------------------------


def fgh2_check(t: OrliczTriple) -> TriState:
    """Decide lim_{s->inf} (F(H(s)) - G^{-1}(1) * s) = inf from exact slopes.

    With a = lim F(s)/s and b = lim H(s)/s, carried by every kind, the
    condition holds iff a > 0 and a*b > G^{-1}(1) + 1e-9 (convexity makes the
    boundary case fail); a > 0 is read first, so 0 * inf never compares.
    """
    ginv1 = g_inv_one(t.g)
    a, b = t.f.slope_at_infinity, t.h.slope_at_infinity
    return TriState.HOLDS if a > 0 and a * b > ginv1 + 1e-9 else TriState.FAILS


def fgh1_check(t: OrliczTriple) -> TriState:
    """Decide whether some s, eps > 0 make F((H(s) + eps) / G^{-1}(1)) finite.

    Both H kinds have infimum 0, so it holds iff F is finite somewhere on
    (0, inf), which fails only for cap_at(0).  A G without a finite G^{-1}(1)
    is refused, as in :func:`fgh2_check`.
    """
    g_inv_one(t.g)
    return TriState.FAILS if (t.f.name, t.f.params) == ("cap", (0.0,)) else TriState.HOLDS
