"""Conjugates, duality certificates, the density dual and Kusuoka mixtures.

The conjugate of a risk functional over simple variables,

    rho#(Y) = sup_X { E[XY] - rho(X) },

is computed exactly by :func:`conjugate_sharp`, or refused.  Every built-in
family is cash-additive and monotone, so rho#(-Z) = +inf unless Z is a
density; on a density it is the family's penalty in closed form: the 0/inf
indicator of a density box or ball for AVaR and T_{c,p}, and
:func:`t_sharp_eta` for a transformed triple with H = x^+ or H = exp.  Other
functionals and triples raise UnresolvedConjugateError; nothing is searched.

The higher-order dual  max{ E[-X Z] : Z >= 0, E[Z] = 1, ||Z||_q <= c }  has
no search of its own: its optimum is the Hoelder equality case
Z ~ ((s* - X)^+)^(p-1) at the primal minimizer s*, read off the bracket that
the primal kernel ``higher_order_T`` bisects.  The densities at the
bracket's two ends are mixed to unit mass, and one rounding step toward the
uniform density keeps the mix inside the ball.  The Kusuoka layer reads the
same optimum off as a mixture of AVaR levels: the optimal density is a step
spectrum on the distribution breakpoints, so the mixture is exact and needs
no search; the mixture constraint is evaluated once as its certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import ParameterError, ScenRiskError, UnresolvedConjugateError, require_finite
from .orlicz import orlicz_norm
from .prob_core import FiniteProbSpace, Partition, RandomVariable, cond_exp
from .risk_core import (OrliczTriple, RiskFunctional, _gap_weights, _higher_order_bracket,
                        _require_fgh2, avar_many)

INF = math.inf
OMEGA = 0.5671432904097838  # the omega constant: OMEGA * exp(OMEGA) = 1


@dataclass(frozen=True)
class Density:
    """Nonnegative values with probability-weighted mean one (a dQ/dP)."""

    space: FiniteProbSpace
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.space.atom_count,):
            raise ValueError("one value per atom required")
        if np.any(v < -1e-12):
            raise ValueError("density values must be nonnegative")
        v = np.clip(v, 0.0, None)
        mean = float(self.space.probs @ v)
        if abs(mean - 1.0) > 1e-10:
            raise ValueError(f"density mean {mean!r} is not 1 within 1e-10")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def as_variable(self) -> RandomVariable:
        return RandomVariable(self.space, self.values)


@dataclass(frozen=True)
class MixingMeasure:
    """Weights on a strictly increasing grid of AVaR levels in (0, 1]."""

    levels: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        lv = np.asarray(self.levels, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if lv.ndim != 1 or lv.shape != w.shape or lv.size == 0:
            raise ValueError("levels and weights must be matching 1-d vectors")
        if np.any(lv <= 0.0) or np.any(lv > 1.0) or np.any(np.diff(lv) <= 0.0):
            raise ValueError("levels must be strictly increasing inside (0, 1]")
        if np.any(w < -1e-12):
            raise ValueError("weights must be nonnegative")
        w = np.clip(w, 0.0, None)
        total = float(w.sum())
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"weights sum to {total!r}, not 1 within 1e-10")
        lv = lv.copy()
        w = w / total
        lv.flags.writeable = False
        w.flags.writeable = False
        object.__setattr__(self, "levels", lv)
        object.__setattr__(self, "weights", w)

    @classmethod
    def point_mass(cls, level: float) -> "MixingMeasure":
        return cls(np.array([level]), np.array([1.0]))


def _q_norm(values: np.ndarray, probs: np.ndarray, q: float) -> float:
    """||values||_q under probs, scaled by the largest magnitude so that a
    large q neither overflows nor underflows the power."""
    a = np.abs(values)
    scale = float(a.max())
    if not 0.0 < scale < INF:
        return scale
    return scale * float((probs @ (a / scale) ** q) ** (1.0 / q))


# ---------------------------------------------------------------------------
# exact conjugate
# ---------------------------------------------------------------------------


def _dual_ball(rho: RiskFunctional):
    """The density set whose 0/inf indicator is the penalty of AVaR or T_{c,p}:
    ("box", bound) for sup-bounded densities, ("ball", c, q) for q-norm-bounded
    ones."""
    if rho.kind == "avar":
        return ("box", 1.0 / rho.alpha)
    c, p = rho.c, rho.p
    if p == 1.0:
        return ("box", c)
    return ("ball", c, p / (p - 1.0))


def _ball_membership(ball, z: np.ndarray, probs: np.ndarray) -> bool:
    if ball[0] == "box":
        return float(np.max(z)) <= ball[1] * (1.0 + 1e-12) + 1e-12
    _, c, q = ball
    return _q_norm(z, probs, q) <= c + 1e-9


def _positive_part_penalty(t: OrliczTriple, z) -> float:
    """F*(||z||*_G), the penalty of the density z for a triple with H = x^+.

    With W = s - X and E[z] = 1 the conjugate is sup_W {E[Wz] - F(||W^+||_G)}.
    The best W is nonnegative, and sup{E[Wz] : W >= 0, ||W||_G = r} is
    r ||z||*_G, with ||.||*_G the Orlicz (Amemiya) norm; the sup over r >= 0
    is F*(||z||*_G).  A linear F = c x gives the 0/inf indicator of the ball
    ||z||*_G <= c."""
    norm = orlicz_norm(z, t.g)
    if t.f.name == "linear":
        return 0.0 if norm <= t.f.params[0] + 1e-9 else INF
    return t.f.conjugate()(norm)


# kappa_F = min_u {F(u) - log u}, by the kind's parameters
_LOG_OFFSET = {
    "linear": lambda c: 1.0 + math.log(c),
    "power": lambda p, coef: (1.0 + math.log(p * coef)) / p,
    "cap": lambda theta: -math.log(theta),
    "exp_minus_one": lambda: 1.0 / OMEGA + OMEGA - 1.0,
}
# sup{E[z log W] : ||W||_G <= 1}, from the entropy E[z log z] and the kind's parameters
_LOG_SUP = {
    "power": lambda entropy, p, coef: (entropy - math.log(coef)) / p,
    "linear": lambda entropy, a: entropy - math.log(a),
    "cap": lambda entropy, theta: math.log(theta),
}


def _exponential_penalty(t: OrliczTriple, z: np.ndarray, probs: np.ndarray) -> float:
    """T#(-z) for a triple with H = exp, in closed form.

    ||e^(s - X)||_G = e^s ||e^(-X)||_G, so substituting u = e^s ||e^(-X)||_G in
    the hull gives T(X) = kappa_F + log ||e^(-X)||_G with
    kappa_F = min_u {F(u) - log u}.  With W = e^(-X) / ||e^(-X)||_G and
    E[z] = 1 the conjugate is sup{E[z log W] : ||W||_G <= 1} - kappa_F.  By
    Gibbs' inequality the sup sits at W^p = z / coef for G = coef x^p, at
    W = z / a for G = a x, and at W = theta for cap_at(theta); E[z log z] is
    summed over z > 0.  Any other F or G raises UnresolvedConjugateError, and
    cap_at(0) as F or G, which makes T identically +inf, ParameterError.
    """
    f, g = t.f, t.g
    if f.name not in _LOG_OFFSET or g.name not in _LOG_SUP:
        raise UnresolvedConjugateError(
            f"no exact conjugate for H = exp with F = {f.name} and G = {g.name}")
    if ("cap", (0.0,)) in ((f.name, f.params), (g.name, g.params)):
        raise ParameterError("cap_at(0) as F or G makes T identically +inf for H = exp")
    pos = z > 0.0
    entropy = float(probs[pos] @ (z[pos] * np.log(z[pos])))
    return _LOG_SUP[g.name](entropy, *g.params) - _LOG_OFFSET[f.name](*f.params)


def t_sharp_eta(t: OrliczTriple, z) -> float:
    """The penalty T#(-z) of the triple t at a density z (a Density, or a
    RandomVariable holding one): the minimum of the eta-form
    E[eta H*(z / eta)] + F*(||eta||*_G), in closed form.  For H = x^+, H* is the
    indicator of [0, 1], eta = z is optimal and the value is F*(||z||*_G); H = exp
    goes to :func:`_exponential_penalty`; other H raise UnresolvedConjugateError.
    """
    if t.h.name == "positive_part":
        return _positive_part_penalty(t, z)
    if t.h.name == "exponential":
        return _exponential_penalty(t, z.values, z.space.probs)
    raise UnresolvedConjugateError(
        f"no exact conjugate for a transformed triple with H = {t.h.name}")


def conjugate_sharp(rho: RiskFunctional, y: RandomVariable) -> float:
    """rho#(y) = sup_X {E[Xy] - rho(X)}, exact, or a refusal.

    Every built-in family is cash-additive and monotone, so rho#(y) = +inf
    unless z = -y is a density (nonnegative within 1e-12, unit mass within
    1e-9).  On a density the conjugate is the family's penalty: the 0/inf
    indicator of the density box or ball for AVaR and T_{c,p}, and
    :func:`t_sharp_eta` for a transformed triple.  Raises
    UnresolvedConjugateError for a custom functional and for a triple that
    ``t_sharp_eta`` refuses, and CoercivityError for a triple whose (FGH2)
    fails, as ``transformed_T`` does.
    """
    if rho.kind == "custom":
        raise UnresolvedConjugateError("a custom functional has no exact conjugate")
    z, probs = -y.values, y.space.probs
    if np.any(z < -1e-12) or abs(float(probs @ z) - 1.0) > 1e-9:
        return INF
    if rho.kind != "transformed":
        return 0.0 if _ball_membership(_dual_ball(rho), z, probs) else INF
    _require_fgh2(rho.triple)
    return t_sharp_eta(rho.triple, -y)


def fenchel_gap(rho: RiskFunctional, x: RandomVariable, y: RandomVariable) -> float:
    """rho(x) + rho#(y) - E[xy]; nonnegative by Fenchel's inequality.

    The dual representation is certified at x when some y drives the gap
    below 1e-5."""
    conj = conjugate_sharp(rho, y)
    pairing = float(x.space.probs @ (x.values * y.values))
    return float(rho(x)) + conj - pairing


def conjugate_dilatation_check(rho: RiskFunctional, y: RandomVariable, p: Partition) -> bool:
    """Check rho#(E[Y|p]) <= rho#(Y) + 1e-5 (coarsening never increases the
    conjugate)."""
    rhs = conjugate_sharp(rho, y)
    return rhs == INF or conjugate_sharp(rho, cond_exp(y, p)) <= rhs + 1e-5


# ---------------------------------------------------------------------------
# higher-order dual density problem
# ---------------------------------------------------------------------------


def dual_higher_order(x: RandomVariable, c: float, q: float) -> Tuple[float, Density]:
    """max E[-X Z] over {Z >= 0, E[Z] = 1, ||Z||_q <= c}, read off the primal.

    With p = q/(q-1), the optimal density is the Hoelder equality case at the
    minimizer s* of phi(s) = c ||(s - X)^+||_p - s, whose mass E[Z_s] is
    1 + phi'(s).  The hull's bracket gives either the vertex, where Z is the
    indicator of X = min X over its probability, or adjacent floats lo < hi
    with E[Z_lo] <= 1 < E[Z_hi]; the two densities are mixed to unit mass,
    which by convexity stays in the ball and weighs a class entering the
    support between lo and hi.  When rounding leaves ||Z||_q above c, one
    step toward the uniform density (norm 1 < c) brings it back inside, by
    the triangle inequality.  Returns the value E[-X Z], which matches the
    primal within 1e-7 (strong duality), and Z as the certificate.
    """
    require_finite(c=c, q=q)
    if not (c > 1.0 and q > 1.0):
        raise ParameterError("need c > 1 and q = p/(p-1) > 1")
    p = q / (q - 1.0)
    v, probs = x.values, x.space.probs
    lo, hi = _higher_order_bracket(v, probs, c, p)
    if hi is None:
        z = (v == lo) / float(probs[v == lo].sum())
    else:
        m = float(v.min())

        def holder(s: float) -> np.ndarray:  # c w^(p-1) / ||w||_p^(p-1), w = (s - X)^+
            w = _gap_weights(v, s, m)
            wp1 = w ** (p - 1.0)
            return c * wp1 / float(probs @ (wp1 * w)) ** ((p - 1.0) / p)

        z_lo, z_hi = holder(lo), holder(hi)
        e_lo, e_hi = float(probs @ z_lo), float(probs @ z_hi)
        t = min(max((e_hi - 1.0) / (e_hi - e_lo), 0.0), 1.0) if e_hi != e_lo else 1.0
        z = t * z_lo + (1.0 - t) * z_hi
    norm = _q_norm(z, probs, q)
    if norm > c:
        t = (norm - c * (1.0 - 4.0 * np.finfo(float).eps)) / (norm - 1.0)
        z = (1.0 - t) * z + t
    return float(probs @ (-v * z)), Density(x.space, z)


# ---------------------------------------------------------------------------
# Kusuoka layer
# ---------------------------------------------------------------------------


def kusuoka_constraint(mu: MixingMeasure, q: float) -> float:
    """Exact value of the mixture constraint integral.

    sigma(alpha) = sum of w_i / a_i over grid levels a_i >= alpha is
    piecewise constant between levels, so the integral of sigma**q over (0,1]
    is a finite sum -- no quadrature error."""
    if q <= 1.0:
        raise ValueError("q must exceed 1")
    lv, w = mu.levels, mu.weights
    sigma = np.cumsum((w / lv)[::-1])[::-1]
    edges = np.concatenate([[0.0], lv])
    return float(np.sum(sigma ** q * np.diff(edges)))


def _distribution_breaks(x: RandomVariable):
    """Cumulative probabilities at the sorted distinct values (last pinned to 1),
    plus the first atom index of each value class."""
    _, first_idx, inverse = np.unique(x.values, return_index=True, return_inverse=True)
    class_prob = np.bincount(inverse, weights=x.space.probs)
    breaks = np.cumsum(class_prob)
    breaks[-1] = 1.0
    return breaks, first_idx


def kusuoka_value(x: RandomVariable, c: float, p: float) -> Tuple[float, MixingMeasure]:
    """Exact AVaR-mixture value of T_{c,p}(x), read off the optimal dual density.

    The optimal density Z* of :func:`dual_higher_order` is constant on value
    classes and nonincreasing against the sorted values: a step spectrum
    sigma_j on the distribution breakpoints F_j.  Written as a sum of AVaR
    kernels it gives the weights w_j = F_j (sigma_j - sigma_{j+1}), with
    sigma_{m+1} = 0.  They sum to E[Z*] = 1, the mixture value is the dual
    optimum E[-X Z*], and the constraint integral is E[Z*^q] <= c**q.
    :func:`kusuoka_constraint` is evaluated once as the certificate; a measure
    over c**q beyond relative float noise raises rather than being repaired.
    """
    require_finite(c=c, p=p)
    if not (c > 1.0 and p > 1.0):
        raise ParameterError("need c > 1 and p > 1")
    q = p / (p - 1.0)
    _, zstar = dual_higher_order(x, c, q)
    breaks, first_idx = _distribution_breaks(x)
    sigma = zstar.values[first_idx]
    w = breaks * (sigma - np.append(sigma[1:], 0.0))
    keep = w > 0.0
    # breakpoints that round together (or past 1) merge into one level
    levels, inverse = np.unique(np.minimum(breaks[keep], 1.0), return_inverse=True)
    mu = MixingMeasure(levels, np.bincount(inverse, weights=w[keep]))
    constraint = kusuoka_constraint(mu, q)
    if constraint > c ** q * (1.0 + 1e-12):
        raise ScenRiskError(
            f"Kusuoka certificate failed: constraint {constraint!r} exceeds c**q = {c ** q!r}"
        )
    return float(mu.weights @ avar_many(x, mu.levels)), mu
