"""Orlicz-type scalar convex functions, their conjugates, and the two norms.

An Orlicz function G maps [0, inf) to [0, inf], is left-continuous, convex,
nondecreasing, vanishes at 0 and grows to infinity.  It generates the
Luxemburg norm  inf{lam > 0 : E[G(|X|/lam)] <= 1}  and the Orlicz norm
sup{E[XY] : ||Y||_G <= 1}, computed here through the Amemiya form.

Extended values are plain IEEE ``math.inf``.

The same class doubles as the outer transform F of a risk triple, which obeys
relaxed axioms (F(0) need not be 0 and F may jump to infinity anywhere), so
shape validation is explicit (:func:`validate_orlicz`) rather than baked into
construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import InvalidOrliczError, ParameterError
from .prob_core import FiniteProbSpace, RandomVariable
from .scalarmin import golden_section

INF = math.inf

BISECT_REL_TOL = 1e-12
BISECT_MAX_ITER = 200


@dataclass(frozen=True)
class OrliczFunction:
    """Scalar convex increasing function on [0, inf) with extended values.

    Built-in kinds carry closed-form conjugates and exact asymptotic slopes;
    custom functions must supply their conjugate (numeric conjugation is only
    a cross-check, see :func:`conjugate_value_numeric`).
    """

    name: str
    params: tuple
    _evaluate: Callable = field(repr=False)
    _evaluate_array: Optional[Callable] = field(repr=False, default=None)
    _conjugate_factory: Optional[Callable] = field(repr=False, default=None)
    slope_at_infinity: Optional[float] = None  # None = unknown

    def __call__(self, t: float) -> float:
        if t < 0:
            raise ParameterError("Orlicz-type functions are defined on [0, inf)")
        return float(self._evaluate(t))

    def eval_array(self, arr: np.ndarray) -> np.ndarray:
        if self._evaluate_array is not None:
            return np.asarray(self._evaluate_array(arr), dtype=float)
        return np.array([self._evaluate(float(t)) for t in np.asarray(arr)], dtype=float)

    def conjugate(self) -> "OrliczFunction":
        if self._conjugate_factory is None:
            raise InvalidOrliczError(
                f"{self.name}: custom functions must supply their conjugate"
            )
        return self._conjugate_factory()


def conjugate(g: OrliczFunction) -> OrliczFunction:
    """Convex conjugate G*(y) = sup_{x>=0} {xy - G(x)} (again Orlicz-shaped)."""
    return g.conjugate()


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
    if p < 1:
        raise ParameterError("power exponent must be >= 1")
    if p == 1:
        return linear(1.0)
    return _scaled_power(1.0, p)


def linear(slope: float) -> OrliczFunction:
    """G(x) = slope * x; conjugate is the 0/inf indicator of [0, slope]."""
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


# names the public constructors give; the norms and the duality layer dispatch on them
_BUILTIN_NAMES = frozenset({"power", "linear", "cap", "exp_minus_one", "positive_part",
                            "exponential"})


def _require_custom_name(name: str) -> None:
    if name in _BUILTIN_NAMES:
        raise ParameterError(f"{name!r} names a built-in kind; pick another name")


def custom(
    fn: Callable,
    conjugate_fn: Optional[Callable] = None,
    array_fn: Optional[Callable] = None,
    conjugate_array_fn: Optional[Callable] = None,
    slope_at_infinity: Optional[float] = None,
    name: str = "custom",
) -> OrliczFunction:
    """Wrap a user-supplied evaluator.  The conjugate evaluator is required
    for anything feeding the duality layer.  The name of a built-in kind is
    refused, since the norms and the duality layer dispatch on ``name``."""
    _require_custom_name(name)
    factory = None
    if conjugate_fn is not None:

        def factory():
            return custom(
                conjugate_fn,
                conjugate_fn=fn,
                array_fn=conjugate_array_fn,
                conjugate_array_fn=array_fn,
                name=name + "_conjugate",
            )

    return OrliczFunction(
        name=name,
        params=(),
        _evaluate=fn,
        _evaluate_array=array_fn,
        _conjugate_factory=factory,
        slope_at_infinity=slope_at_infinity,
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
    _evaluate_array: Optional[Callable] = field(repr=False, default=None)
    slope_at_infinity: Optional[float] = None

    def __call__(self, v: float) -> float:
        return float(self._evaluate(v))

    def eval_array(self, arr: np.ndarray) -> np.ndarray:
        if self._evaluate_array is not None:
            return np.asarray(self._evaluate_array(arr), dtype=float)
        return np.array([self._evaluate(float(v)) for v in np.asarray(arr)], dtype=float)


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


def custom_h(
    fn: Callable,
    array_fn: Optional[Callable] = None,
    slope_at_infinity: Optional[float] = None,
    name: str = "custom_h",
) -> HFunction:
    """Wrap a user-supplied H; the name of a built-in kind is refused."""
    _require_custom_name(name)
    return HFunction(
        name=name,
        params=(),
        _evaluate=fn,
        _evaluate_array=array_fn,
        slope_at_infinity=slope_at_infinity,
    )


# ---------------------------------------------------------------------------
# shape validation (explicit; construction does not police custom inputs)
# ---------------------------------------------------------------------------


def validate_orlicz(g: OrliczFunction) -> None:
    """Check the Orlicz axioms on a probe grid; raises InvalidOrliczError.

    Checks: G(0) = 0, nondecreasing, midpoint convexity within 1e-10 on
    finite values, growth to infinity at large arguments, and a finite left
    approach at any jump to infinity.
    """
    if abs(g(0.0)) > 1e-12:
        raise InvalidOrliczError(f"{g.name}: G(0) must be 0")
    ts = np.concatenate([[0.0], np.geomspace(1e-9, 2.0 ** 40, 80)])
    vals = np.array([g(float(t)) for t in ts])
    finite = np.isfinite(vals)
    fv = vals[finite]
    if np.any(np.diff(fv) < -1e-12):
        raise InvalidOrliczError(f"{g.name}: not nondecreasing")
    if np.any(finite[1:] & ~finite[:-1] & (ts[1:] > 0).astype(bool)):
        raise InvalidOrliczError(f"{g.name}: finite after infinite (not nondecreasing)")
    # midpoint convexity on consecutive finite grid points
    for i in range(len(ts) - 2):
        a, b = ts[i], ts[i + 2]
        fa, fb = vals[i], vals[i + 2]
        if math.isfinite(fa) and math.isfinite(fb):
            mid = g((a + b) / 2.0)
            if mid > 0.5 * (fa + fb) + 1e-10 * (1.0 + abs(fa) + abs(fb)):
                raise InvalidOrliczError(f"{g.name}: midpoint convexity fails near {a}")
    tail = g(2.0 ** 200)
    if not (tail == INF or tail > 1e3):
        raise InvalidOrliczError(f"{g.name}: does not grow to infinity")
    if not finite.all():
        # locate the jump and probe the left approach
        j = int(np.argmax(~finite))
        lo, hi = float(ts[j - 1]), float(ts[j])
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if math.isfinite(g(mid)):
                lo = mid
            else:
                hi = mid
        if not math.isfinite(g(lo)):
            raise InvalidOrliczError(f"{g.name}: no finite left approach at the jump")


# ---------------------------------------------------------------------------
# G^{-1}(1) and the two norms
# ---------------------------------------------------------------------------


def g_inv_one(g: OrliczFunction) -> float:
    """sup{t > 0 : G(t) <= 1}, which is 1 / luxemburg_norm(1, G)."""
    return 1.0 / luxemburg_norm(RandomVariable(FiniteProbSpace.uniform(1), [1.0]), g)


def luxemburg_norm(x: RandomVariable, g: OrliczFunction) -> float:
    """inf{lam > 0 : E[G(|X|/lam)] <= 1}.

    Closed forms for the power/linear/cap kinds.  Otherwise the norm, which is
    positively homogeneous, is solved at ``|x| / max|x|`` and scaled back: the
    map lam -> E[G(a/lam)] is nonincreasing, so lam is bracketed by doubling
    and halving from E[a] + 1 and bisected to 1e-12 relative width.  A G that
    stays at or below 1 within the halving budget generates no finite norm
    and raises InvalidOrliczError.
    """
    a = np.abs(x.values)
    amax = float(a.max(initial=0.0))
    if amax == 0.0:
        return 0.0
    pr = x.space.probs
    if g.name == "power":
        p, coef = g.params
        return amax * float((coef * (pr @ (a / amax) ** p)) ** (1.0 / p))
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
    for _ in range(BISECT_MAX_ITER):
        if mass(hi) <= 1.0:
            break
        hi *= 2.0
    else:
        raise InvalidOrliczError(f"{g.name}: no finite Luxemburg norm found")
    lo = hi
    for _ in range(BISECT_MAX_ITER):
        lo /= 2.0
        if mass(lo) > 1.0:
            break
    else:
        raise InvalidOrliczError(f"{g.name}: G does not exceed 1 within the halving budget")
    for _ in range(BISECT_MAX_ITER):
        if hi - lo <= BISECT_REL_TOL * hi:
            break
        mid = 0.5 * (lo + hi)
        if mass(mid) <= 1.0:
            hi = mid
        else:
            lo = mid
    return amax * hi


def orlicz_norm(x: RandomVariable, g: OrliczFunction) -> float:
    """sup{E[XY] : ||Y||_G <= 1} via the Amemiya form
    inf_{k>0} (1/k) (1 + E[G*(k |x|)]).

    Substituting u = 1/k makes the objective u + u * E[G*(|x|/u)], which is
    convex in u (a perspective), so a coarse geometric scan plus golden
    section suffices.  Requires a conjugate finite near 0 (true for all
    built-in kinds).  The norm is positively homogeneous, so it is solved at
    ``x / max|x|`` and scaled back: the grid is then relative to the input.
    """
    a = np.abs(x.values)
    amax = float(a.max(initial=0.0))
    if amax == 0.0:
        return 0.0
    a = a / amax
    pr = x.space.probs
    gstar = g.conjugate()

    def obj(u: float) -> float:
        if u <= 0.0:
            return INF
        vals = gstar.eval_array(a / u)
        if np.isinf(vals).any():
            return INF
        return u * (1.0 + float(pr @ vals))

    grid = np.geomspace(2e-13, 128.0, 64)
    fg = np.array([obj(float(u)) for u in grid])
    i = int(np.argmin(fg))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, len(grid) - 1)]
    u_best, f_best, _ = golden_section(obj, float(lo), float(hi), tol=2e-12)
    return amax * min(f_best, float(fg[i]))


def conjugate_value_numeric(g: OrliczFunction, y: float, t_max: float = 2.0 ** 40) -> float:
    """Numeric sup_{t>=0} {t*y - G(t)}; a cross-check for closed-form conjugates.

    Diverging objectives are reported as inf once they exceed 1e12.
    """
    def neg_obj(t: float) -> float:
        if t < 0:
            return INF
        v = g(t)
        return INF if v == INF else -(t * y - v)

    ts = np.concatenate([[0.0], np.geomspace(1e-9, t_max, 120)])
    fv = np.array([neg_obj(float(t)) for t in ts])
    i = int(np.argmin(fv))
    if -fv[i] > 1e12:
        return INF
    lo = float(ts[max(i - 1, 0)])
    hi = float(ts[min(i + 1, len(ts) - 1)])
    _, f_best, _ = golden_section(neg_obj, lo, hi, tol=1e-12 * (1.0 + hi))
    return max(-f_best, float(-fv[i]))
