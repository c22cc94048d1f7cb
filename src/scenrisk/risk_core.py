"""Risk functionals: AVaR, the transformed-norm family and its cash-additive hull.

The transformed-norm measure pairs an outer transform F, a norm generator G
and a loss reshaper H:

    T(X) = inf_s { F(||H(s - X)||_G) - s },

the cash-additive hull of f(X) = F(||H(-X)||_G), computed by the generic
:func:`cash_hull`; the higher-order member T_{c,p} has its own kernel on the
plain value array, :func:`higher_order_T`, with ``cash_hull`` as the tests'
slow reference.  The slope condition (FGH2) makes the hull objective
coercive so the infimum is attained; (FGH1) rules out an identically-infinite
T.  Both are probed by checkers returning a tri-state, because a numeric
probe can certify growth (convexity gives certified slope lower bounds) but
refuting a limit statement needs analytic slope data.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import CoercivityError, ParameterError, require_finite
from .orlicz import HFunction, OrliczFunction, g_inv_one, luxemburg_norm
from .prob_core import RandomVariable
from .scalarmin import BracketError, bracket_minimum, golden_section, scan_finite

INF = math.inf


class TriState(enum.Enum):
    HOLDS = "holds"
    FAILS = "fails"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class OrliczTriple:
    """Descriptor (F, G, H) of a transformed-norm risk measure.

    ``f`` is convex increasing on [0, inf), extended-real, left-continuous,
    not identically infinite.  ``g`` is a real-valued Orlicz function.  ``h``
    is convex increasing on all of R with values in [0, inf), growing to
    infinity.  The tri-state flags cache the FGH condition checks.
    """

    f: OrliczFunction
    g: OrliczFunction
    h: HFunction
    fgh1: TriState = TriState.UNKNOWN
    fgh2: TriState = TriState.UNKNOWN

    @classmethod
    def checked(cls, f, g, h) -> "OrliczTriple":
        """Build a triple with both condition flags populated."""
        t = cls(f=f, g=g, h=h)
        return replace(t, fgh1=fgh1_check(t), fgh2=fgh2_check(t))


@dataclass(frozen=True)
class RiskFunctional:
    """Evaluatable risk descriptor; never returns -inf.

    Families: ``avar(alpha)``, ``higher_order(c, p)``, ``transformed(triple)``
    and ``custom(fn)``.  Calling evaluates on a RandomVariable.
    """

    kind: str
    alpha: Optional[float] = None
    c: Optional[float] = None
    p: Optional[float] = None
    triple: Optional[OrliczTriple] = None
    fn: Optional[Callable] = None
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

    @classmethod
    def custom(cls, fn: Callable, label: str = "custom") -> "RiskFunctional":
        return cls(kind="custom", fn=fn, label=label)

    def __call__(self, x: RandomVariable) -> float:
        if self.kind == "avar":
            return avar(x, self.alpha)
        if self.kind == "higher_order":
            return higher_order_T(x, self.c, self.p)
        if self.kind == "transformed":
            return transformed_T(x, self.triple)
        if self.kind == "custom":
            return float(self.fn(x))
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
    sum over sorted atoms -- no quadrature error.
    """
    if not (0.0 < alpha <= 1.0):
        raise ParameterError("alpha must lie in (0, 1]")
    order = np.argsort(x.values, kind="stable")
    v = x.values[order]
    pr = x.space.probs[order]
    cum = np.cumsum(pr)
    cum_prev = cum - pr
    w = np.clip(np.minimum(cum, alpha) - cum_prev, 0.0, None)
    return float(-(v @ w) / alpha)


def avar_many(x: RandomVariable, alphas: np.ndarray) -> np.ndarray:
    """Vectorized ``avar`` over a whole level grid (single sort)."""
    alphas = np.asarray(alphas, dtype=float)
    order = np.argsort(x.values, kind="stable")
    v = x.values[order]
    pr = x.space.probs[order]
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


def cash_hull(f_eval: Callable, x: RandomVariable, step: float = 1.0):
    """Attained minimum of s -> f(X - s) - s together with a minimizer.

    Brackets by doubling outward from s0 = -E[x] (walking downhill; a flat
    asymptote counts as attained), golden-sections to argument width 1e-10,
    then polishes against the kinks at the data values so piecewise-linear
    objectives are resolved exactly.  Sixty fruitless doublings signal a
    non-coercive objective (FGH2 violated or a custom f without growth).
    """

    def psi(s: float) -> float:
        return float(f_eval(x - s)) - s

    s0 = -x.mean()
    scale = max(1.0, float(np.max(np.abs(x.values))))
    start = scan_finite(psi, s0, scale)
    if start is None:
        return INF, s0
    try:
        lo, hi = bracket_minimum(psi, start, step=step, window=1e6 * scale)
    except BracketError as exc:
        raise CoercivityError(str(exc)) from exc
    s_best, f_best, _ = golden_section(psi, lo, hi, tol=1e-10)
    margin = 1e-6 * scale
    for v in np.unique(x.values):
        if lo - margin <= v <= hi + margin:
            fv = psi(float(v))
            if fv < f_best:
                s_best, f_best = float(v), fv
    return f_best, s_best


def transformed_T(x: RandomVariable, t: OrliczTriple) -> float:
    """T(X) = inf_s {F(||H(s - X)||_G) - s}, the cash-additive hull of
    ``f_transformed``; refuses to run when (FGH2) is known to fail.

    An UNKNOWN flag is resolved by running the checker; if it stays unknown
    the hull is attempted anyway and a missing bracket surfaces as
    CoercivityError.
    """
    flag = t.fgh2
    if flag is TriState.UNKNOWN:
        flag = fgh2_check(t)
    if flag is TriState.FAILS:
        raise CoercivityError("FGH2 fails: hull objective is not coercive")
    value, _ = cash_hull(lambda y: f_transformed(y, t), x)
    return value


def higher_order_T(x: RandomVariable, c: float, p: float) -> float:
    """inf_s phi(s), phi(s) = c ||(s - X)^+||_p - s (F = c*x, G = x**p, H = x^+).

    ``p = 1`` is AVaR_{1/c} by Rockafellar-Uryasev (-E[X] at c = 1).  For
    p > 1 the vertex s = min X is optimal when the right slope of the convex
    phi there, c P(X = min X)**(1/p) - 1, is nonnegative.  Otherwise the sign
    of phi'(s) = c E[w^(p-1)] / E[w^p]^((p-1)/p) - 1, w = (s - X)^+ / (s - min X),
    which tends to c - 1 > 0, is bisected until the midpoint no longer splits.
    """
    _check_higher_order_params(c, p)
    if p == 1.0:
        return avar(x, 1.0 / c)
    v, probs = x.values, x.space.probs
    m = float(v.min())
    if c * float(probs[v == m].sum()) ** (1.0 / p) >= 1.0:
        return -m

    def w_at(s: float) -> np.ndarray:  # (s - X)^+ scaled to peak at one, for s > m
        return np.maximum(s - v, 0.0) / (s - m)

    def phi(s: float) -> float:
        return c * (s - m) * float(probs @ w_at(s) ** p) ** (1.0 / p) - s

    def slope(s: float) -> float:
        w = w_at(s)
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
    return min(phi(lo) if lo > m else -m, phi(hi))


# ---------------------------------------------------------------------------
# FGH condition checkers
# ---------------------------------------------------------------------------


def _slope_lower_bound(fn: Callable, grows_from: float = 0.0):
    """Certified lower bound on lim_{s->inf} fn(s)/s via difference quotients
    at geometrically growing arguments (slopes are nondecreasing by convexity).
    Returns inf as soon as fn hits an infinite value."""
    best = -INF
    prev_s = grows_from
    prev_v = fn(prev_s)
    if prev_v == INF:
        return INF
    for k in range(0, 61):
        s = 2.0 ** k
        if s <= prev_s:
            continue
        v = fn(s)
        if v == INF:
            return INF
        if math.isfinite(v) and math.isfinite(prev_v):
            best = max(best, (v - prev_v) / (s - prev_s))
        prev_s, prev_v = s, v
    return best


def fgh2_check(t: OrliczTriple) -> TriState:
    """Decide lim_{s->inf} (F(H(s)) - G^{-1}(1) * s) = inf via slope products.

    With a = lim F(s)/s and b = lim H(s)/s the condition holds iff
    a*b > G^{-1}(1) (convexity makes the boundary case fail).  Difference
    quotients give certified lower bounds; refutation needs the analytic
    slopes carried by the built-in kinds.
    """
    ginv1 = g_inv_one(t.g)
    a_lb = _slope_lower_bound(t.f)
    b_lb = _slope_lower_bound(t.h)
    if a_lb == INF and b_lb > 0:
        return TriState.HOLDS
    if b_lb == INF and a_lb > 0:
        return TriState.HOLDS
    if a_lb > 0 and b_lb > 0 and a_lb * b_lb > ginv1 + 1e-9:
        return TriState.HOLDS
    a_ub = t.f.slope_at_infinity
    b_ub = t.h.slope_at_infinity
    if a_ub is not None and b_ub is not None:
        if a_ub * b_ub <= ginv1 + 1e-9:
            return TriState.FAILS
    return TriState.UNKNOWN


def fgh1_check(t: OrliczTriple) -> TriState:
    """Search for s, eps with F((H(s) + eps) / G^{-1}(1)) finite.

    Existential, so the checker can certify HOLDS but never failure."""
    ginv1 = g_inv_one(t.g)
    probes = [0.0]
    for k in range(0, 41):
        probes.extend((2.0 ** k, -(2.0 ** k)))
    for eps in (1.0, 1e-3, 1e-6):
        for s in probes:
            arg = (t.h(s) + eps) / ginv1
            if math.isfinite(t.f(arg)):
                return TriState.HOLDS
    return TriState.UNKNOWN
