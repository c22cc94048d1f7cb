"""Conjugates, duality certificates, the density dual and Kusuoka mixtures.

The conjugate of a risk functional over simple variables,

    rho#(Y) = sup_X { E[XY] - rho(X) },

is not finitely computable for arbitrary rho, so :func:`conjugate_sharp` is
honest about status: closed forms where the family pins them down (AVaR and
the higher-order family have indicator conjugates over density sets),
divergence flags along the rays that force +inf for cash-additive monotone
functionals, and certified lower bounds from multi-start ascent otherwise.

The higher-order dual  max{ E[-X Z] : Z >= 0, E[Z] = 1, ||Z||_q <= c }  is
solved in closed form through its stationarity structure
Z ~ ((a - lam)^+)^{1/(q-1)}, a = -X, with an outer bisection on lam.  The
Kusuoka layer reads the same optimum off as a mixture of AVaR levels: the
optimal density is a step spectrum on the distribution breakpoints, so the
mixture is exact and needs no search; the mixture constraint is evaluated
once as its certificate.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import ParameterError, ScenRiskError, UnresolvedConjugateError, require_finite
from .orlicz import orlicz_norm, perspective
from .prob_core import FiniteProbSpace, Partition, RandomVariable, cond_exp
from .risk_core import OrliczTriple, RiskFunctional, avar_many

INF = math.inf

DIVERGENCE_THRESHOLD = 1e6


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


def _direction_norm(v: np.ndarray, probs: np.ndarray, q: float) -> float:
    """q-norm of a density-dual search direction: its entries lie in [0, 1]
    and peak at exactly one, so the power needs no scaling."""
    return float((probs @ v ** q) ** (1.0 / q))


def _mass_excess(v: np.ndarray, probs: np.ndarray, c: float, q: float) -> float:
    """E[Z] - 1 for the direction v rescaled onto the sphere ||Z||_q = c."""
    return c * float(probs @ v) / _direction_norm(v, probs, q) - 1.0


# ---------------------------------------------------------------------------
# conjugate with certificate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConjugateValue:
    """Conjugate evaluation with provenance.

    status: "closed_form" (exact), "diverged" (certified +inf along a ray) or
    "lower_bound" (best ascent value only; not a certified conjugate).
    """

    value: float
    status: str
    lower_bound: float
    best_point: Optional[np.ndarray] = None

    @property
    def resolved(self) -> bool:
        return self.status != "lower_bound"


def _dual_ball(rho: RiskFunctional):
    """Recognize families whose conjugate is the indicator of a density set.

    Returns ("box", bound) for sup-bounded densities (AVaR-type) or
    ("ball", c, q) for q-norm-bounded densities (higher-order type); None if
    the family is not recognized.
    """
    if rho.kind == "avar":
        return ("box", 1.0 / rho.alpha)
    if rho.kind == "higher_order":
        c, p = rho.c, rho.p
        if p == 1.0:
            return ("box", c)
        return ("ball", c, p / (p - 1.0))
    if rho.kind == "transformed" and rho.triple is not None:
        t = rho.triple
        if t.f.name == "linear" and t.h.name == "positive_part":
            c = t.f.params[0]
            if t.g.name == "linear":
                return ("box", c * t.g.params[0])
            if t.g.name == "power" and t.g.params[1] == 1.0:
                p = t.g.params[0]
                return ("ball", c, p / (p - 1.0))
    return None


def _ball_membership(ball, z: np.ndarray, probs: np.ndarray) -> bool:
    if np.any(z < -1e-12):
        return False
    if abs(float(probs @ z) - 1.0) > 1e-9:
        return False
    if ball[0] == "box":
        return float(np.max(z)) <= ball[1] * (1.0 + 1e-12) + 1e-12
    _, c, q = ball
    return _q_norm(z, probs, q) <= c + 1e-9


def _ray_divergence(obj: Callable, y: np.ndarray) -> bool:
    """Probe the rays that force an infinite conjugate for cash-additive
    monotone functionals: constants (mass mismatch) and indicators of the
    sign sets of y (monotonicity violation), plus single-atom spikes."""
    n = y.size
    rays = [np.ones(n), -np.ones(n)]
    if np.any(y > 0):
        rays.append((y > 0).astype(float))
    if np.any(y < 0):
        rays.append(-(y < 0).astype(float))
    for i in range(n):
        e = np.zeros(n)
        e[i] = -1.0
        rays.append(e)
    for d in rays:
        for k in range(0, 22):
            if obj((2.0 ** k) * d) > DIVERGENCE_THRESHOLD:
                return True
    return False


def _pattern_search(obj: Callable, x0: np.ndarray, iters: int = 200):
    x = x0.copy()
    fx = obj(x)
    step = 1.0
    for _ in range(iters):
        improved = False
        for i in range(x.size):
            for d in (step, -step):
                cand = x.copy()
                cand[i] += d
                fc = obj(cand)
                if fc > fx:
                    x, fx = cand, fc
                    improved = True
        if improved:
            step = min(step * 2.0, 1e6)  # grow the search box while it pays
        else:
            step *= 0.5
            if step < 1e-9:
                break
    return x, fx


def conjugate_sharp(rho: RiskFunctional, y: RandomVariable,
                    restarts: int = 2, seed: int = 0) -> ConjugateValue:
    """Best-effort rho#(y) = sup_X {E[Xy] - rho(X)} with a certificate.

    Recognized families resolve exactly (indicator of their density set).
    Otherwise ray probes certify divergence, and multi-start pattern search
    supplies a certified lower bound (any evaluated point is one).
    """
    probs = y.space.probs

    def obj(vals: np.ndarray) -> float:
        xv = RandomVariable(y.space, vals)
        r = rho(xv)
        if r == INF:
            return -INF
        return float(probs @ (vals * y.values)) - r

    ball = _dual_ball(rho)
    closed = None
    if ball is not None:
        closed = 0.0 if _ball_membership(ball, -y.values, probs) else INF

    diverged = _ray_divergence(obj, y.values) if closed is None or restarts > 0 else False

    lower = -INF
    best_point = None
    if restarts > 0:
        rng = np.random.default_rng(seed)
        starts = [np.zeros(y.space.atom_count), -y.values.copy()]
        for _ in range(max(0, restarts - 1)):
            starts.append(rng.normal(scale=2.0, size=y.space.atom_count))
        for s in starts:
            pt, val = _pattern_search(obj, s)
            if val > lower:
                lower, best_point = val, pt

    if closed is not None:
        return ConjugateValue(closed, "closed_form", lower, best_point)
    if diverged:
        return ConjugateValue(INF, "diverged", max(lower, DIVERGENCE_THRESHOLD), best_point)
    return ConjugateValue(lower, "lower_bound", lower, best_point)


def fenchel_gap(rho: RiskFunctional, x: RandomVariable, y: RandomVariable,
                restarts: int = 2, seed: int = 0) -> float:
    """rho(x) + rho#(y) - E[xy]; nonnegative for every resolved pair.

    The dual representation is certified at x when some y drives the gap
    below 1e-5.  Refuses when the conjugate is only a lower bound."""
    cs = conjugate_sharp(rho, y, restarts=restarts, seed=seed)
    if not cs.resolved:
        raise UnresolvedConjugateError(
            "conjugate is lower-bound-only; gap would be meaningless"
        )
    pairing = float(x.space.probs @ (x.values * y.values))
    return float(rho(x)) + cs.value - pairing


def conjugate_dilatation_check(rho: RiskFunctional, y: RandomVariable, p: Partition,
                               restarts: int = 0, seed: int = 0) -> bool:
    """Check rho#(E[Y|p]) <= rho#(Y) + 1e-5 (coarsening never increases the
    conjugate).  Raises when either side is unresolved."""
    lhs = conjugate_sharp(rho, cond_exp(y, p), restarts=restarts, seed=seed)
    rhs = conjugate_sharp(rho, y, restarts=restarts, seed=seed)
    if not (lhs.resolved and rhs.resolved):
        raise UnresolvedConjugateError("conjugate unresolved on one side")
    if rhs.value == INF:
        return True
    return lhs.value <= rhs.value + 1e-5


# ---------------------------------------------------------------------------
# higher-order dual density problem
# ---------------------------------------------------------------------------


def _blend_feasible(z: np.ndarray, probs: np.ndarray, c: float, q: float) -> np.ndarray:
    """Restore ||z||_q <= c exactly by mixing toward the uniform density
    (norm 1 < c), preserving the unit mass; a no-op when already feasible."""
    if _q_norm(z, probs, q) <= c:
        return z
    lo, hi = 0.0, 1.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if _q_norm((1.0 - mid) * z + mid, probs, q) <= c:
            hi = mid
        else:
            lo = mid
    return (1.0 - hi) * z + hi


def _enter_at_kink(d, probs, c, q, r, tau_e):
    """Direction when the mass root sits at (or below float resolution of) an
    entry kink: freeze the already-entered coordinates at the kink, which are
    constant to machine precision across the unresolvable gap, and solve the
    entering class's coordinate w directly.  The mass of the rescaled
    direction is increasing in w, so bisection applies."""
    u = np.clip(d + tau_e, 0.0, None)
    v = (u / tau_e) ** r
    entering = (-d == tau_e)

    def mass(w: float) -> float:
        return _mass_excess(np.where(entering, w, v), probs, c, q)

    if mass(0.0) >= 0.0:
        return v
    w_lo, w_hi = 0.0, 1.0
    if mass(1.0) < 0.0:
        return np.where(entering, 1.0, v)  # best effort: blend repairs the rest
    for _ in range(200):
        mid = 0.5 * (w_lo + w_hi)
        if mass(mid) < 0.0:
            w_lo = mid
        else:
            w_hi = mid
    return np.where(entering, 0.5 * (w_lo + w_hi), v)


def _root_segment(excess: Callable[[float], float], entries: np.ndarray):
    """Consecutive sorted entries (lo, hi) with excess(lo) <= 0 < excess(hi),
    by bisection; hi is None when the excess stays <= 0 through the last one."""
    if entries.size == 0 or excess(float(entries[0])) > 0.0:
        raise ScenRiskError("density dual: no bracket below the first entry")
    k = bisect.bisect_left(range(entries.size), True, lo=1,
                           key=lambda i: excess(float(entries[i])) > 0.0)
    return float(entries[k - 1]), float(entries[k]) if k < entries.size else None


def dual_higher_order(x: RandomVariable, c: float, q: float) -> Tuple[float, Density]:
    """max E[-X Z] over {Z >= 0, E[Z] = 1, ||Z||_q <= c} by stationarity.

    Interior case: the vertex Z = 1_{X = min X} / P(min) when its q-norm
    already fits inside the ball.  Active case: Z is proportional to
    ((a - lam)^+)^{1/(q-1)} with a = -X, rescaled onto the sphere; the mass
    constraint E[Z] = 1 pins lam: its excess is monotone in lam, so bisection
    over the sorted support-entry ladder finds the root's segment in O(log N)
    evaluations (no bracket raises ScenRiskError) and a relative zoom resolves
    the root in it.  The optimum value matches the primal hull within 1e-7
    (strong duality), and Z is returned as the certificate.
    """
    require_finite(c=c, q=q)
    if not (c > 1.0 and q > 1.0):
        raise ParameterError("need c > 1 and q = p/(p-1) > 1")
    probs = x.space.probs
    a = -x.values
    amax = float(a.max())
    # group ulp-scale near-ties: a gap the lam-bisection cannot resolve anyway
    tie_tol = 4.0 * np.finfo(float).eps * max(1.0, abs(amax))
    at_max = a >= amax - tie_tol
    z_vertex = at_max / float(probs @ at_max)
    if _q_norm(z_vertex, probs, q) <= c * (1.0 + 1e-12):
        return float(probs @ (a * z_vertex)), Density(x.space, z_vertex)

    r = 1.0 / (q - 1.0)
    # solve in the gap tau = amax - lam > 0: u_i = (a_i - amax) + tau avoids
    # the catastrophic cancellation of a_i - lam when tau is tiny, and the
    # normalized direction (u/tau)**r never exceeds one
    d = a - amax

    def mass_excess(tau: float) -> float:
        return _mass_excess((np.clip(d + tau, 0.0, None) / tau) ** r, probs, c, q)

    def finish(v: np.ndarray):
        z = c * v / _direction_norm(v, probs, q)
        z = z / float(probs @ z)
        z = _blend_feasible(z, probs, c, q)
        return float(probs @ (a * z)), Density(x.space, z)

    # atoms join the support as tau crosses the entry ladder -d_i > 0; the
    # mass excess is continuous and nondecreasing in tau, constant before the
    # first entry, with limit c - 1 > 0, so bisecting its exact signs at the
    # entries (u vanishes exactly there) finds the root's segment
    seg_lo, seg_hi = _root_segment(mass_excess, np.unique(-d[d < 0.0]))
    if seg_hi is None:  # root beyond the last entry: all atoms active, no kink ahead
        seg_hi = 2.0 * seg_lo
        for _ in range(200):
            if mass_excess(seg_hi) > 0.0:
                break
            seg_hi *= 2.0
        else:
            raise ScenRiskError("density dual: no bracket beyond the last entry")

    # zoom in the distance delta to the lower kink: the entering coordinate
    # grows like delta**r (infinite slope when q > 2), so the root needs
    # relative resolution in delta.  Work on the precomputed base d + seg_lo
    # rather than on tau = seg_lo + delta: the sum would quantize delta at
    # ulp(seg_lo) and reintroduce the cancellation this stage exists to avoid.
    base = d + seg_lo

    def dir_at(delta: float) -> np.ndarray:
        return (np.clip(base + delta, 0.0, None) / (seg_lo + delta)) ** r

    def excess_at(delta: float) -> float:
        return _mass_excess(dir_at(delta), probs, c, q)

    delta_hi = seg_hi - seg_lo
    delta_lo = None
    probe = delta_hi
    for _ in range(500):
        probe /= 16.0
        if probe <= 0.0 or not probe > 5e-324:
            break  # below float resolution: root is at the kink
        if excess_at(probe) < 0.0:
            delta_lo = probe
            break
        delta_hi = probe
    if delta_lo is None:
        return finish(_enter_at_kink(d, probs, c, q, r, seg_lo))
    for _ in range(400):
        if delta_hi <= delta_lo * (1.0 + 1e-14):
            break
        mid = math.sqrt(delta_lo * delta_hi)
        if excess_at(mid) > 0.0:
            delta_hi = mid
        else:
            delta_lo = mid
    delta = math.sqrt(delta_lo * delta_hi)
    if abs(excess_at(delta)) > 1e-9:
        return finish(_enter_at_kink(d, probs, c, q, r, seg_lo))
    return finish(dir_at(delta))


# ---------------------------------------------------------------------------
# eta-form of the transformed-norm conjugate
# ---------------------------------------------------------------------------


def t_sharp_eta(t: OrliczTriple, z: Density, eta_grid: int = 200) -> float:
    """min over eta >= 0 with {eta = 0} inside {z = 0} of
    E[eta * Hconj(z/eta on the support)] + Fconj(||eta||*_G).

    For a linear outer transform with positive-part reshaping the problem
    collapses: feasible (value 0) exactly when the Orlicz norm of z stays
    within the slope, +inf otherwise.  Other triples go through a projected
    subgradient on eta seeded at z; the result is a best-effort upper value.
    """
    probs = z.space.probs
    if t.f.name == "linear" and t.h.name == "positive_part":
        c = t.f.params[0]
        return 0.0 if orlicz_norm(z.as_variable(), t.g) <= c + 1e-9 else INF

    fstar = t.f.conjugate()
    support = z.values > 0.0

    def objective(eta: np.ndarray) -> float:
        if np.any(eta < 0.0) or np.any(support & (eta <= 0.0)):
            return INF
        total = 0.0
        for pi, zi, ei in zip(probs, z.values, eta):
            term = perspective(ei, zi, t.h.conjugate_value)
            if term == INF:
                return INF
            total += pi * term
        tail = fstar(orlicz_norm(RandomVariable(z.space, eta), t.g))
        if tail == INF:
            return INF
        return total + tail

    eta = np.where(support, z.values, 0.0)
    best = objective(eta)
    iters = max(50, int(eta_grid))
    floor = 1e-12
    scale = max(1.0, float(z.values.max()))
    for k in range(iters):
        step = 0.5 * scale / math.sqrt(1.0 + k)
        grad = np.zeros_like(eta)
        f0 = objective(eta)
        if f0 == INF:
            break
        h = 1e-6 * scale
        for i in range(eta.size):
            bump = eta.copy()
            bump[i] += h
            fp = objective(bump)
            if fp == INF:
                grad[i] = 1.0
                continue
            grad[i] = (fp - f0) / h
        gnorm = float(np.max(np.abs(grad)))
        if gnorm < 1e-14:
            break
        eta = eta - step * grad / gnorm
        eta = np.clip(eta, 0.0, None)
        eta[support] = np.maximum(eta[support], floor)
        cur = objective(eta)
        if cur < best:
            best = cur
    return best


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
