"""Orlicz-type scalar convex functions, their conjugates, and the two norms.

An Orlicz function G maps [0, inf) to [0, inf], is left-continuous, convex,
nondecreasing, vanishes at 0 and grows to infinity.  It generates the
Luxemburg norm  inf{lam > 0 : E[G(|X|/lam)] <= 1}  and the Orlicz norm
sup{E[XY] : ||Y||_G <= 1}.  The Orlicz norm is in closed form for the
power, linear, cap and exp_minus_one kinds and refused for any other G; the
Luxemburg norm is in closed form for the power, linear and cap kinds and
bisected otherwise.

Extended values are plain IEEE ``math.inf``.

The same class doubles as the outer transform F of a risk triple, which obeys
relaxed axioms (F(0) need not be 0 and F may jump to infinity anywhere).  The
family is closed: every function comes from a constructor here, with an array
evaluator, a closed-form conjugate and an exact asymptotic slope, and the
norms and the duality layer dispatch on its ``name``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InvalidOrliczError, ParameterError, UnresolvedConjugateError, require_finite
from .prob_core import FiniteProbSpace, RandomVariable

INF = math.inf

BISECT_REL_TOL = 1e-12


@dataclass(frozen=True)
class OrliczFunction:
    """Scalar convex increasing function on [0, inf) with extended values.

    Every kind carries a closed-form conjugate and its exact asymptotic
    slope lim G(t)/t; the four public ones (power, linear, cap, exp_minus_one)
    also carry closed-form Orlicz norms.
    """

    name: str
    params: tuple
    _evaluate: Callable = field(repr=False)
    _evaluate_array: Callable = field(repr=False)
    _conjugate_factory: Callable = field(repr=False)
    slope_at_infinity: float

    def __call__(self, t: float) -> float:
        if t < 0:
            raise ParameterError("Orlicz-type functions are defined on [0, inf)")
        try:
            return float(self._evaluate(t))
        except OverflowError:  # nondecreasing, so inf beyond float range
            return INF

    def eval_array(self, arr: np.ndarray) -> np.ndarray:
        return np.asarray(self._evaluate_array(arr), dtype=float)

    def conjugate(self) -> "OrliczFunction":
        return self._conjugate_factory()


# ---------------------------------------------------------------------------
# built-in kinds
# ---------------------------------------------------------------------------


def _scaled_power(coef: float, p: float) -> OrliczFunction:
    q = p / (p - 1.0)

    def conj():
        return _scaled_power((p * coef) ** (1.0 - q) / q, q)

    return OrliczFunction(
        name="power",
        params=(p, coef),
        _evaluate=lambda t: coef * t ** p,
        _evaluate_array=lambda a: coef * np.power(a, p),
        _conjugate_factory=conj,
        slope_at_infinity=INF,
    )


def power(p: float) -> OrliczFunction:
    """G(x) = x**p.  ``power(1)`` degenerates to ``linear(1)``."""
    require_finite(p=p)
    if p < 1:
        raise ParameterError("power exponent must be >= 1")
    if p == 1:
        return linear(1.0)
    return _scaled_power(1.0, p)


def linear(slope: float) -> OrliczFunction:
    """G(x) = slope * x; conjugate is the 0/inf indicator of [0, slope]."""
    require_finite(slope=slope)
    if slope <= 0:
        raise ParameterError("slope must be positive")
    return OrliczFunction(
        name="linear",
        params=(slope,),
        _evaluate=lambda t: slope * t,
        _evaluate_array=lambda a: slope * np.asarray(a, dtype=float),
        _conjugate_factory=lambda: cap_at(slope),
        slope_at_infinity=slope,
    )


def cap_at(threshold: float) -> OrliczFunction:
    """G(x) = 0 for x <= threshold, inf above (left-continuous jump)."""
    require_finite(threshold=threshold)
    if threshold < 0:
        raise ParameterError("threshold must be >= 0")

    def conj():
        if threshold == 0.0:
            return _zero_function()
        return linear(threshold)

    return OrliczFunction(
        name="cap",
        params=(threshold,),
        _evaluate=lambda t: 0.0 if t <= threshold else INF,
        _evaluate_array=lambda a: np.where(np.asarray(a) <= threshold, 0.0, INF),
        _conjugate_factory=conj,
        slope_at_infinity=INF,
    )


def _zero_function() -> OrliczFunction:
    # conjugate of cap_at(0); identically zero, conjugate back is cap_at(0)
    return OrliczFunction(
        name="zero",
        params=(),
        _evaluate=lambda t: 0.0,
        _evaluate_array=lambda a: np.zeros_like(np.asarray(a, dtype=float)),
        _conjugate_factory=lambda: cap_at(0.0),
        slope_at_infinity=0.0,
    )


def _entropy_conjugate() -> OrliczFunction:
    def _scalar(y):
        return 0.0 if y <= 1.0 else y * math.log(y) - y + 1.0

    def _array(a):
        a = np.asarray(a, dtype=float)
        out = np.zeros_like(a)
        big = a > 1.0
        ab = a[big]
        out[big] = ab * np.log(ab) - ab + 1.0
        return out

    return OrliczFunction(
        name="entropy_conjugate",
        params=(),
        _evaluate=_scalar,
        _evaluate_array=_array,
        _conjugate_factory=exp_minus_one,
        slope_at_infinity=INF,
    )


_EXP_SATURATION = 709.0  # beyond this exp() exceeds float range; treat as inf


def _expm1_saturating(a):
    a = np.asarray(a, dtype=float)
    out = np.full(a.shape, INF)
    small = a < _EXP_SATURATION
    out[small] = np.expm1(a[small])
    return out


def _exp_saturating(a):
    a = np.asarray(a, dtype=float)
    out = np.full(a.shape, INF)
    small = a < _EXP_SATURATION
    out[small] = np.exp(a[small])
    return out


def exp_minus_one() -> OrliczFunction:
    """G(x) = exp(x) - 1; conjugate y*log(y) - y + 1 on [1, inf), 0 below."""
    return OrliczFunction(
        name="exp_minus_one",
        params=(),
        _evaluate=lambda t: math.expm1(t) if t < _EXP_SATURATION else INF,
        _evaluate_array=_expm1_saturating,
        _conjugate_factory=_entropy_conjugate,
        slope_at_infinity=INF,
    )


# ---------------------------------------------------------------------------
# H: convex increasing on all of R, values in [0, inf)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HFunction:
    """Convex increasing function on the whole real line, [0, inf)-valued,
    growing to infinity.  The duality layer dispatches on ``name``."""

    name: str
    params: tuple
    _evaluate: Callable = field(repr=False)
    _evaluate_array: Callable = field(repr=False)
    slope_at_infinity: float

    def __call__(self, v: float) -> float:
        return float(self._evaluate(v))

    def eval_array(self, arr: np.ndarray) -> np.ndarray:
        return np.asarray(self._evaluate_array(arr), dtype=float)


def positive_part() -> HFunction:
    """H(x) = max(x, 0)."""
    return HFunction(
        name="positive_part",
        params=(),
        _evaluate=lambda v: v if v > 0 else 0.0,
        _evaluate_array=lambda a: np.maximum(np.asarray(a, dtype=float), 0.0),
        slope_at_infinity=1.0,
    )


def exponential() -> HFunction:
    """H(x) = exp(x)."""
    return HFunction(
        name="exponential",
        params=(),
        _evaluate=lambda v: math.exp(v) if v < _EXP_SATURATION else INF,
        _evaluate_array=_exp_saturating,
        slope_at_infinity=INF,
    )


# ---------------------------------------------------------------------------
# G^{-1}(1) and the two norms
# ---------------------------------------------------------------------------


def g_inv_one(g: OrliczFunction) -> float:
    """sup{t > 0 : G(t) <= 1}: log 2 for exp_minus_one, else 1 / luxemburg_norm(1, G)."""
    if g.name == "exp_minus_one":
        return math.log(2.0)
    return 1.0 / luxemburg_norm(RandomVariable(FiniteProbSpace.uniform(1), [1.0]), g)


def _p_norm(values: np.ndarray, probs: np.ndarray, p: float, coef: float = 1.0) -> float:
    """(coef E|values|^p)^(1/p), scaled by the largest magnitude so that a
    large p neither overflows nor underflows the power."""
    a = np.abs(values)
    amax = float(a.max())
    if not 0.0 < amax < INF:
        return amax
    return amax * float((coef * (probs @ (a / amax) ** p)) ** (1.0 / p))


def luxemburg_norm(x: RandomVariable, g: OrliczFunction) -> float:
    """inf{lam > 0 : E[G(|X|/lam)] <= 1}.

    Closed forms for the power/linear/cap kinds.  Otherwise the norm, which is
    positively homogeneous, is solved at ``|x| / max|x|`` and scaled back: the
    map lam -> E[G(a/lam)] is nonincreasing, so lam is bracketed by doubling
    and halving from E[a] + 1 and bisected to 1e-12 relative width.  A G that
    never exceeds 1 before lam leaves the normal float range generates no
    finite norm and raises InvalidOrliczError.
    """
    pr = x.space.probs
    if g.name == "power":
        p, coef = g.params
        return _p_norm(x.values, pr, p, coef)
    a = np.abs(x.values)
    amax = float(a.max())
    if amax == 0.0:
        return 0.0
    if g.name == "linear":
        return float(g.params[0] * (pr @ a))
    if g.name == "cap":
        theta = g.params[0]
        if theta == 0.0:
            raise InvalidOrliczError("cap_at(0) generates no finite norm")
        return amax / theta
    a = a / amax

    def mass(lam: float) -> float:
        vals = g.eval_array(a / lam)
        if np.isinf(vals).any():
            return INF
        return float(pr @ vals)

    hi = float(pr @ a) + 1.0
    while mass(hi) > 1.0:
        hi *= 2.0
        if hi == INF:
            raise InvalidOrliczError(f"{g.name}: no finite Luxemburg norm found")
    lo = 0.5 * hi
    while mass(lo) <= 1.0:
        hi, lo = lo, 0.5 * lo
        if lo < sys.float_info.min:  # a few more halvings and 1 / lo overflows
            raise InvalidOrliczError(f"{g.name}: G does not exceed 1 in the float range")
    while hi - lo > BISECT_REL_TOL * hi:
        mid = 0.5 * (lo + hi)
        if mass(mid) <= 1.0:
            hi = mid
        else:
            lo = mid
    return amax * hi


def orlicz_norm(x: RandomVariable, g: OrliczFunction) -> float:
    """sup{E[XY] : ||Y||_G <= 1}, which is the Amemiya form
    inf_{k>0} (1/k) (1 + E[G*(k |x|)]), in closed form for each public kind:

    - ``power`` G = coef t^p: coef^(-1/p) ||x||_q with q = p/(p-1);
    - ``linear(a)``: max|x| / a, attained by Y on an atom of max|x|;
    - ``cap_at(theta)``: theta E|x|, attained by Y = theta sign(x);
    - ``exp_minus_one``: at a = |x| / max|x| the optimal k solves
      E[(k a - 1)^+] = 1, which is piecewise linear in k over the sorted a,
      so the atoms it charges and then k are read off cumulative sums; the
      norm is max|x| (1 + E[G*(k a)]) / k, whose stationarity in k makes it
      insensitive to rounding in k.

    Any other G raises UnresolvedConjugateError.
    """
    pr = x.space.probs
    if g.name == "power":
        p, coef = g.params
        q = p / (p - 1.0)
        return _p_norm(x.values, pr, q, coef ** (1.0 - q))
    a = np.abs(x.values)
    if g.name == "linear":
        return float(a.max()) / g.params[0]
    if g.name == "cap":
        return g.params[0] * float(pr @ a)
    if g.name != "exp_minus_one":
        raise UnresolvedConjugateError(f"no closed-form Orlicz norm for G = {g.name}")
    amax = float(a.max())
    if amax == 0.0:
        return 0.0
    a = a / amax
    order = np.argsort(a)[::-1]
    s, w = a[order], pr[order]
    cum_w, cum_ws = np.cumsum(w), np.cumsum(w * s)
    # at k = 1 / s_i, where atom i joins, E[(k a - 1)^+] is the sum over the
    # atoms before it, cum_ws[i-1] / s_i - cum_w[i-1]; atom i is charged iff
    # that is below 1
    charged = 1 + int(np.count_nonzero(cum_ws[:-1] < s[1:] * (1.0 + cum_w[:-1])))
    k = (1.0 + cum_w[charged - 1]) / cum_ws[charged - 1]
    ka = k * a
    on = ka > 1.0
    y = ka[on]
    conj = np.sum(pr[on] * (y * np.log(y) - y + 1.0))
    return amax * float((1.0 + conj) / k)
