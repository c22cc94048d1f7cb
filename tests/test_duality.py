import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenrisk import (
    CoercivityError,
    Density,
    FiniteProbSpace,
    MixingMeasure,
    OrliczTriple,
    Partition,
    RandomVariable,
    RiskFunctional,
    ScenRiskError,
    UnresolvedConjugateError,
    avar,
    cap_at,
    conjugate_dilatation_check,
    conjugate_sharp,
    dual_higher_order,
    exp_minus_one,
    exponential,
    fenchel_gap,
    higher_order_T,
    kusuoka_constraint,
    kusuoka_value,
    linear,
    positive_part,
    power,
    t_sharp_eta,
    transformed_T,
)
from scenrisk.duality import _q_norm

from conftest import spaces, variables

INF = math.inf


def random_density(space, rng, cap=None):
    z = rng.uniform(0.0, 1.0, size=space.atom_count)
    z = z / float(space.probs @ z)
    if cap is not None:
        for _ in range(200):
            if z.max() <= cap:
                break
            z = np.minimum(z, cap)
            z = z / float(space.probs @ z)
    return Density(space, z)


# ---------------------------------------------------------------------------
# conjugate_sharp
# ---------------------------------------------------------------------------

def test_conjugate_avar_feasible_density(uniform4):
    rho = RiskFunctional.avar(0.5)
    z = np.array([2.0, 2.0, 0.0, 0.0])  # density, bounded by 1/alpha = 2
    y = RandomVariable(uniform4, -z)
    assert conjugate_sharp(rho, y) == 0.0


def test_conjugate_diverges_off_mass_one(uniform4):
    rho = RiskFunctional.avar(0.5)
    y = RandomVariable.constant(uniform4, -2.0)  # E[y] = -2 != -1
    assert conjugate_sharp(rho, y) == INF


def test_conjugate_higher_order_ball(coin):
    rho = RiskFunctional.higher_order(2.0, 2.0)
    y = RandomVariable(coin.space, np.array([-2.0, 0.0]))  # -z, ||z||_2 = sqrt2 <= 2
    assert conjugate_sharp(rho, y) == 0.0


def test_conjugate_box_violation_is_infinite(uniform4):
    rho = RiskFunctional.avar(0.5)
    z = np.array([2.5, 0.5, 0.5, 0.5])  # mean 1 but exceeds 1/alpha
    assert conjugate_sharp(rho, RandomVariable(uniform4, -z)) == INF


def test_conjugate_refuses_what_has_no_closed_form(uniform4):
    y = RandomVariable.constant(uniform4, -1.0)
    exp_g = RiskFunctional.transformed(
        OrliczTriple(f=linear(2.0), g=exp_minus_one(), h=exponential()))
    with pytest.raises(UnresolvedConjugateError):
        conjugate_sharp(exp_g, y)
    # cap_at(0) as F or G makes T identically +inf under H = exp
    for f, g in ((cap_at(0.0), power(2)), (linear(2.0), cap_at(0.0))):
        with pytest.raises(ScenRiskError, match="cap_at"):
            conjugate_sharp(RiskFunctional.transformed(OrliczTriple(f=f, g=g, h=exponential())), y)
    # a triple whose (FGH2) fails is refused as transformed_T refuses it
    flat = RiskFunctional.transformed(OrliczTriple(f=linear(1.0), g=power(2), h=positive_part()))
    with pytest.raises(CoercivityError):
        conjugate_sharp(flat, y)


def test_conjugate_of_a_peaked_density_is_finite():
    # regression: ray probes called this conjugate +inf once the objective
    # passed 1e6; it is F*(||z||_2) = F*(1e5) with F* the entropy conjugate
    t = OrliczTriple(f=exp_minus_one(), g=power(2), h=positive_part())
    space = FiniteProbSpace(np.array([1e-10, 1.0 - 1e-10]))
    y = RandomVariable(space, np.array([-1e10, 0.0]))
    value = conjugate_sharp(RiskFunctional.transformed(t), y)
    assert value == pytest.approx(1e5 * math.log(1e5) - 1e5 + 1.0, rel=1e-9)
    assert value == pytest.approx(1_051_293.546497023, rel=1e-9)


def _density_values(data, space):
    raw = np.asarray(data.draw(st.lists(st.floats(0.0, 1.0), min_size=space.atom_count,
                                        max_size=space.atom_count)))
    raw = raw ** data.draw(st.sampled_from([1.0, 3.0]))
    if raw.max() == 0.0:
        raw = np.ones(space.atom_count)
    raw = raw / raw.max()  # a subnormal draw would underflow the mass to 0
    return raw / float(space.probs @ raw)


@given(st.data(), st.sampled_from(["exp", "cap", "exp_h"]))
@settings(max_examples=90, deadline=None)
def test_transformed_conjugate_fenchel_and_attainment(data, outer):
    # T#(-Z) = F*(||Z||_2) for (F, x^2, x^+); the sup over X is attained at
    # X = -r* Z / ||Z||_2 with r* the maximizer of r ||Z||_2 - F(r).  With
    # H = exp it is attained at X = -log W*, W* = Z^(1/p) for G = x^p,
    # W* = Z for G = a x and W* = theta for G = cap_at(theta); every built-in
    # (F, G) pair is checked on each drawn density
    space = data.draw(spaces(min_atoms=1, max_atoms=7))
    z = _density_values(data, space)
    norm = _q_norm(z, space.probs, 2.0)
    if outer == "exp_h":
        z = 0.9 * z + 0.1  # positive, so log W* is finite
        w_stars = ((power(2), np.sqrt(z)), (power(3), np.cbrt(z)), (linear(1.5), z),
                   (cap_at(2.0), np.full(z.size, 2.0)))
        cases = [(OrliczTriple(f, g, exponential()), -np.log(w_star))
                 for f in (linear(2.0), exp_minus_one(), exp_minus_one().conjugate(),
                           cap_at(0.5), power(2))
                 for g, w_star in w_stars]
    else:
        if outer == "exp":
            f, r_star = exp_minus_one(), math.log(norm)
        else:
            theta = data.draw(st.sampled_from([0.5, 2.0]))
            f, r_star = cap_at(theta), theta
        cases = [(OrliczTriple(f, power(2), positive_part()), -r_star * z / norm)]
    x = data.draw(variables(space=space, lo=-5.0, hi=5.0))
    for t, x_star in cases:
        conj = conjugate_sharp(RiskFunctional.transformed(t), RandomVariable(space, -z))
        assert math.isfinite(conj)

        def lower(v):  # E[-XZ] - T#(-Z), at most T(X) by Fenchel's inequality
            return float(space.probs @ (-v * z)) - conj

        best = transformed_T(RandomVariable(space, x_star), t)
        assert abs(best - lower(x_star)) <= 1e-9 * max(1.0, abs(best))
        value = transformed_T(x, t)
        assert value >= lower(x.values) - 1e-9 * max(1.0, abs(value))


@pytest.mark.parametrize("g, atoms, z, expected", [
    # W* = sqrt(Z) attains the hull at X = -log W*
    (power(2), 2, [1.8, 0.2], -1.509115076975697),
    # one atom: T(X) = -X + 1 + log 2.6, so the penalty is -1 - log 2.6
    (linear(1.3), 1, [1.0], -1.0 - math.log(2.6)),
])
def test_exponential_h_conjugate_is_exact(g, atoms, z, expected):
    # regressions: the projected subgradient search returned -1.0 and -1.8722
    t = OrliczTriple(linear(2.0), g, exponential())
    space = FiniteProbSpace.uniform(atoms)
    y = RandomVariable(space, -np.array(z))
    assert conjugate_sharp(RiskFunctional.transformed(t), y) == pytest.approx(expected, rel=1e-12)
    assert t_sharp_eta(t, Density(space, np.array(z))) == pytest.approx(expected, rel=1e-12)


def test_transformed_conjugate_matches_the_box_and_ball_closed_forms():
    rng = np.random.default_rng(1313)
    checked = 0
    for _ in range(300):
        space = FiniteProbSpace.from_weights(rng.uniform(0.2, 1.0, size=int(rng.integers(1, 9))))
        z = rng.uniform(0.0, 1.0, size=space.atom_count) ** float(rng.uniform(0.5, 3.0))
        y = RandomVariable(space, -z / float(space.probs @ z))
        if rng.random() < 0.2:
            y = y * float(rng.choice([0.5, -1.0]))  # off mass one, or negative
        c = float(rng.choice([1.5, 2.0, 4.0]))
        if rng.random() < 0.5:  # (c x, x^p, x^+) is T_{c,p}: a q-norm ball
            p = float(rng.choice([1.5, 2.0, 3.0]))
            g, closed = power(p), RiskFunctional.higher_order(c, p)
            excess = _q_norm(y.values, space.probs, p / (p - 1.0)) - c
        else:  # (c x, a x, x^+) is AVaR at 1 / (c a): a box
            a = float(rng.choice([0.75, 1.0, 2.0]))
            g, closed = linear(a), RiskFunctional.avar(1.0 / (c * a))
            excess = float(np.max(-y.values)) - c * a
        if abs(excess) <= 2e-9:
            continue  # boundary band: either answer is within tolerance
        checked += 1
        rho = RiskFunctional.transformed(OrliczTriple(f=linear(c), g=g, h=positive_part()))
        assert conjugate_sharp(rho, y) == conjugate_sharp(closed, y)
    assert checked >= 250


# ---------------------------------------------------------------------------
# fenchel gap
# ---------------------------------------------------------------------------

def test_fenchel_gap_tight_pair(coin):
    rho = RiskFunctional.higher_order(2.0, 2.0)
    y = RandomVariable(coin.space, np.array([-2.0, 0.0]))
    gap = fenchel_gap(rho, coin, y)
    # rho(x) = 1, rho#(y) = 0, E[xy] = 1
    assert gap == pytest.approx(0.0, abs=1e-9)


def test_fenchel_gap_constant_against_uniform_density(uniform4):
    rho = RiskFunctional.avar(0.5)
    x = RandomVariable.constant(uniform4, 3.0)
    y = RandomVariable.constant(uniform4, -1.0)
    assert fenchel_gap(rho, x, y) == pytest.approx(0.0, abs=1e-9)


def test_fenchel_gap_zero_dual_is_infinite(x1234):
    rho = RiskFunctional.avar(0.5)
    y = RandomVariable.constant(x1234.space, 0.0)  # E[y] = 0 != -1: diverges
    assert fenchel_gap(rho, x1234, y) == INF


def test_fenchel_gap_refuses_unresolved(uniform4):
    rho = RiskFunctional.transformed(
        OrliczTriple(f=linear(2.0), g=exp_minus_one(), h=exponential()))
    y = RandomVariable.constant(uniform4, -1.0)
    with pytest.raises(UnresolvedConjugateError):
        fenchel_gap(rho, RandomVariable.constant(uniform4, 1.0), y)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_weak_duality(data):
    x = data.draw(variables(lo=-5, hi=5, max_atoms=6))
    rng = np.random.default_rng(4)
    z = random_density(x.space, rng)
    rho = RiskFunctional.higher_order(2.0, 2.0)
    conj = conjugate_sharp(rho, -z.as_variable())
    pairing = float(x.space.probs @ (x.values * -z.values))
    if conj == INF:
        return
    assert rho(x) >= pairing - conj - 1e-7


# ---------------------------------------------------------------------------
# dual_higher_order: oracle and strong duality
# ---------------------------------------------------------------------------

def test_dual_coin_grid_oracle(coin):
    # two-variable feasibility grid: z = (z1, 2 - z1), maximize (z1 - (2-z1))/2
    z1 = np.linspace(0.0, 2.0, 200001)
    feasible = np.sqrt((z1 ** 2 + (2.0 - z1) ** 2) / 2.0) <= 2.0
    oracle = float(np.max(z1[feasible] - 1.0))
    assert oracle == pytest.approx(1.0, abs=1e-9)
    value, z = dual_higher_order(coin, 2.0, 2.0)
    assert value == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(z.values, [2.0, 0.0], atol=1e-9)


def test_dual_constant_has_trivial_value(uniform4):
    x = RandomVariable.constant(uniform4, 1.5)
    value, z = dual_higher_order(x, 2.0, 2.0)
    assert value == pytest.approx(-1.5, abs=1e-12)
    assert abs(float(uniform4.probs @ z.values) - 1.0) <= 1e-10


@given(variables(lo=-6, hi=6, max_atoms=6, min_atoms=2))
@settings(max_examples=40, deadline=None)
def test_strong_duality_random(x):
    primal = higher_order_T(x, 1.5, 3.0)
    dual, z = dual_higher_order(x, 1.5, 1.5)
    assert abs(primal - dual) <= 1e-6
    assert _q_norm(z.values, x.space.probs, 1.5) <= 1.5 + 1e-9


def test_dual_active_constraint_case():
    space = FiniteProbSpace.uniform(2)
    x = RandomVariable(space, np.array([-1.0, 1.0]))
    value, z = dual_higher_order(x, 1.1, 2.0)
    # by hand: the primal minimizer solves s/sqrt(s^2+1) = 1/1.1, i.e.
    # s* = sqrt(1/0.21), and the value collapses to sqrt(0.21)
    assert _q_norm(z.values, space.probs, 2.0) == pytest.approx(1.1, abs=1e-9)
    assert value == pytest.approx(math.sqrt(0.21), abs=1e-9)
    assert abs(value - higher_order_T(x, 1.1, 2.0)) <= 1e-7


# ---------------------------------------------------------------------------
# eta-form
# ---------------------------------------------------------------------------

def test_t_sharp_eta_feasible_cases():
    t = OrliczTriple(f=linear(2.0), g=power(2), h=positive_part())
    sp2 = FiniteProbSpace.uniform(2)
    z = Density(sp2, np.array([2.0, 0.0]))  # ||z||_2 = sqrt2 <= 2
    assert t_sharp_eta(t, z) == 0.0
    sp4 = FiniteProbSpace.uniform(4)
    z_boundary = Density(sp4, np.array([4.0, 0.0, 0.0, 0.0]))  # ||z||_2 = 2 exactly
    assert t_sharp_eta(t, z_boundary) == 0.0


def test_t_sharp_eta_infeasible_flags_inf():
    t = OrliczTriple(f=linear(2.0), g=power(2), h=positive_part())
    # a genuine density whose 2-norm is sqrt(8) > 2: all mass on one of 8 atoms
    sp8 = FiniteProbSpace.uniform(8)
    z = Density(sp8, np.concatenate([[8.0], np.zeros(7)]))
    assert _q_norm(z.values, sp8.probs, 2.0) == pytest.approx(math.sqrt(8.0))
    assert t_sharp_eta(t, z) == INF


def test_t_sharp_eta_consistent_with_dual_ball():
    rng = np.random.default_rng(10)
    t = OrliczTriple(f=linear(1.5), g=power(3), h=positive_part())
    q = 1.5
    for i in range(40):
        space = FiniteProbSpace.uniform(int(rng.integers(2, 8)))
        z = random_density(space, rng)
        norm = _q_norm(z.values, space.probs, q)
        if abs(norm - 1.5) < 1e-9:
            continue
        finite = math.isfinite(t_sharp_eta(t, z))
        assert finite == (norm <= 1.5)


def test_t_sharp_eta_box_variant():
    # G linear: the dual set caps the density pointwise at c * slope
    t = OrliczTriple(f=linear(2.0), g=linear(1.0), h=positive_part())
    sp4 = FiniteProbSpace.uniform(4)
    inside = Density(sp4, np.array([2.0, 1.0, 0.5, 0.5]))  # max 2 = bound
    outside = Density(sp4, np.array([2.5, 0.5, 0.5, 0.5]))
    assert t_sharp_eta(t, inside) == 0.0
    assert t_sharp_eta(t, outside) == INF


def test_dual_root_hugging_an_entry_kink():
    # regression: with q large (p near 1) the stationarity root can sit
    # ~1e-10 above the support-entry kink of a near-tied value pair; the
    # solver must resolve the kink distance relatively, not through tau
    probs = np.array([0.036624250871553986, 0.58251090931885208, 0.38086483980959396])
    v = np.array([-1.4999999999999727, -2.0, -1.5])
    space = FiniteProbSpace(probs)
    x = RandomVariable(space, v)
    c, p = 1.5, 1.1
    q = p / (p - 1.0)
    primal = higher_order_T(x, c, p)
    dual, z = dual_higher_order(x, c, q)
    assert abs(primal - dual) <= 1e-9
    assert _q_norm(z.values, space.probs, q) <= c + 1e-12
    # the near-tied pair must carry near-equal weight
    assert abs(z.values[0] - z.values[2]) <= 1e-4


@pytest.mark.parametrize("weights, values, p", [
    ([0.3, 0.7], [0.0, 1.0], 1.5),
    # here the bracket's lower end is min X itself
    ([1.0, 7.0, 7.0], [0.0, 1.0, 1.0], 2.0),
])
@pytest.mark.parametrize("ulps", [-2, -1, 0, 1, 2])
def test_dual_stays_in_the_ball_at_the_vertex_boundary(weights, values, p, ulps):
    # c P(min)**(1/p) = 1 up to rounding: the vertex density sits on the
    # sphere, and on either side of the boundary it must not leave the ball
    space = FiniteProbSpace.from_weights(np.array(weights))
    x = RandomVariable(space, np.array(values))
    c = float(space.probs[0]) ** (-1.0 / p)
    for _ in range(abs(ulps)):
        c = float(np.nextafter(c, math.copysign(INF, ulps)))
    q = p / (p - 1.0)
    value, z = dual_higher_order(x, c, q)
    assert _q_norm(z.values, space.probs, q) <= c
    assert abs(value - higher_order_T(x, c, p)) <= 1e-12


def test_dual_stress_wide_parameters():
    rng = np.random.default_rng(515)
    worst_gap, worst_excess = 0.0, 0.0
    for trial in range(300):
        n = int(rng.integers(2, 12))
        space = (FiniteProbSpace.uniform(n) if rng.random() < 0.5
                 else FiniteProbSpace.from_weights(rng.uniform(0.05, 1.0, n)))
        vals = rng.normal(scale=2.0, size=n)
        if trial % 3 == 0:
            vals = np.round(vals * 2.0) / 2.0  # heavy ties
        if trial % 5 == 0:
            vals = vals * 1e5
        x = RandomVariable(space, vals)
        c = float(rng.choice([1.05, 1.5, 4.0, 8.0]))
        p = float(rng.choice([1.2, 2.0, 5.0]))
        q = p / (p - 1.0)
        scale = max(1.0, float(np.max(np.abs(vals))))
        primal = higher_order_T(x, c, p)
        dual, z = dual_higher_order(x, c, q)
        worst_gap = max(worst_gap, abs(primal - dual) / scale)
        worst_excess = max(worst_excess, _q_norm(z.values, space.probs, q) - c)
    assert worst_gap <= 1e-9
    assert worst_excess <= 0.0


@pytest.mark.filterwarnings("error")
def test_q_norm_scales_before_the_power():
    probs = np.array([0.5, 0.5])
    assert _q_norm(np.array([1e3, 2.0]), probs, 150.0) == pytest.approx(
        1e3 * 0.5 ** (1.0 / 150.0), rel=1e-12)
    rng = np.random.default_rng(31)
    for _ in range(200):
        n = int(rng.integers(1, 20))
        space = FiniteProbSpace.from_weights(rng.uniform(0.1, 1.0, size=n))
        v = rng.normal(size=n) * 10.0 ** rng.uniform(-3.0, 3.0)
        q = float(rng.choice([1.5, 2.0, 3.0, 10.0, 50.0]))
        with np.errstate(all="ignore"):
            unscaled = float((space.probs @ np.abs(v) ** q) ** (1.0 / q))
        if math.isfinite(unscaled) and unscaled > 0.0:
            assert _q_norm(v, space.probs, q) == pytest.approx(unscaled, rel=1e-12)


def test_strong_duality_on_a_large_book():
    rng = np.random.default_rng(77)
    n = 10_000
    space = FiniteProbSpace.from_weights(rng.gamma(2.0, size=n))
    x = RandomVariable(space, rng.standard_t(3, size=n))
    for c, p in ((1.5, 2.0), (2.0, 3.0), (4.0, 1.5)):
        q = p / (p - 1.0)
        dual, z = dual_higher_order(x, c, q)
        assert abs(higher_order_T(x, c, p) - dual) <= 1e-7
        assert _q_norm(z.values, space.probs, q) <= c * (1.0 + 1e-12)


def test_dual_and_kusuoka_reject_non_finite_parameters(coin):
    for name, call in (("q", lambda: dual_higher_order(coin, 2.0, INF)),
                       ("c", lambda: dual_higher_order(coin, math.nan, 2.0)),
                       ("p", lambda: kusuoka_value(coin, 2.0, INF)),
                       ("c", lambda: kusuoka_value(coin, INF, 2.0))):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            call()


def test_t_sharp_eta_generic_path_runs():
    # a non-linear outer transform with H = x^+ collapses to F*(||z||*_G)
    t = OrliczTriple(f=power(2), g=power(2), h=positive_part())
    sp2 = FiniteProbSpace.uniform(2)
    z = Density(sp2, np.array([1.2, 0.8]))
    val = t_sharp_eta(t, z)
    assert val == pytest.approx(_q_norm(z.values, sp2.probs, 2.0) ** 2 / 4.0, rel=1e-12)


# ---------------------------------------------------------------------------
# Kusuoka layer
# ---------------------------------------------------------------------------

def test_kusuoka_constraint_point_masses():
    assert kusuoka_constraint(MixingMeasure([1.0], [1.0]), 2.0) == pytest.approx(1.0, abs=1e-15)
    assert kusuoka_constraint(MixingMeasure([0.5], [1.0]), 2.0) == pytest.approx(2.0, abs=1e-15)
    mix = MixingMeasure(np.array([0.5, 1.0]), np.array([0.5, 0.5]))
    assert kusuoka_constraint(mix, 2.0) == pytest.approx(1.25, abs=1e-15)


def kusuoka_constraint_oracle(mu, q):
    """Definition-based: sigma evaluated pointwise at interval midpoints; the
    integrand is piecewise constant, so midpoint sums are exact."""
    edges = np.concatenate([[0.0], mu.levels])
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid = 0.5 * (lo + hi)
        sigma = sum(w / a for a, w in zip(mu.levels, mu.weights) if a >= mid)
        total += sigma ** q * (hi - lo)
    return total


def test_kusuoka_constraint_matches_definition():
    rng = np.random.default_rng(21)
    for _ in range(50):
        m = int(rng.integers(1, 9))
        levels = np.sort(rng.uniform(0.01, 1.0, size=m))
        levels = np.unique(levels)
        w = rng.uniform(0.0, 1.0, size=levels.size) + 1e-3
        mu = MixingMeasure(levels, w / w.sum())
        for q in (1.5, 2.0, 3.0):
            got = kusuoka_constraint(mu, q)
            want = kusuoka_constraint_oracle(mu, q)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_kusuoka_exemplar_attains_primal(coin):
    value, mu = kusuoka_value(coin, 2.0, 2.0)
    primal = higher_order_T(coin, 2.0, 2.0)
    assert abs(value - primal) <= 1e-9
    # the point mass at 1/2 is feasible (constraint 2 <= 4) and attains it
    at_half = mu.weights[np.isclose(mu.levels, 0.5)]
    assert at_half.sum() == pytest.approx(1.0, abs=1e-9)


def test_kusuoka_constant(uniform4):
    x = RandomVariable.constant(uniform4, 2.0)
    value, _ = kusuoka_value(x, 2.0, 2.0)
    assert value == pytest.approx(-2.0, abs=1e-9)


def test_kusuoka_measure_is_feasible(coin):
    value, mu = kusuoka_value(coin, 2.0, 2.0)
    assert kusuoka_constraint(mu, 2.0) <= 2.0 ** 2 * (1.0 + 1e-9)


@pytest.mark.parametrize("space", [
    # the middle atom is too light to move the cumulative probability 0.5
    FiniteProbSpace(np.array([0.5, 1e-20, 0.5])),
    # the cumulative probability before the light last atom rounds past 1
    FiniteProbSpace.from_weights(np.array([0.236, 0.3, 0.4, 1e-25])),
])
def test_kusuoka_merges_breakpoints_that_round_together(space):
    x = RandomVariable(space, np.arange(space.atom_count, dtype=float))
    value, mu = kusuoka_value(x, 1.05, 2.0)
    assert mu.levels[-1] == 1.0
    assert value == pytest.approx(higher_order_T(x, 1.05, 2.0), abs=1e-9)

@st.composite
def books(draw):
    """Books of 1-500 atoms: uniform or gamma weights, values with or
    without ties on a half-unit grid."""
    n = draw(st.integers(1, 500))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        space = FiniteProbSpace.uniform(n)
    else:
        shape = draw(st.sampled_from([0.3, 1.0, 5.0]))
        space = FiniteProbSpace.from_weights(rng.gamma(shape, size=n) + 1e-9)
    values = rng.standard_t(4, size=n) * draw(st.sampled_from([0.01, 1.0, 100.0]))
    if draw(st.booleans()):
        values = np.round(values * 2.0) / 2.0
    return RandomVariable(space, values)


@given(books(), st.sampled_from([1.5, 2.0, 4.0]), st.sampled_from([1.5, 2.0, 3.0]))
@settings(max_examples=60, deadline=None)
def test_kusuoka_read_off_is_exact_and_feasible(x, c, p):
    q = p / (p - 1.0)
    value, mu = kusuoka_value(x, c, p)
    primal = higher_order_T(x, c, p)
    assert abs(value - primal) <= 1e-9 * max(1.0, abs(primal))
    assert kusuoka_constraint(mu, q) <= c ** q * (1.0 + 1e-12)
    distinct, inverse = np.unique(x.values, return_inverse=True)
    breaks = np.cumsum(np.bincount(inverse, weights=x.space.probs))
    assert np.all(np.min(np.abs(mu.levels[:, None] - breaks[None, :]), axis=1) <= 1e-12)
    # no feasible point mass at a breakpoint does better than the mixture
    slack = 1e-9 * max(1.0, abs(value))
    for a in np.minimum(breaks, 1.0):
        if a ** (1.0 - q) <= c ** q:
            assert avar(x, a) <= value + slack


@given(books(), st.sampled_from([1.01, 2.0, 1e200]), st.sampled_from([1.0000001, 1.00001]))
@settings(max_examples=40, deadline=None)
def test_kusuoka_certifies_at_a_huge_q(x, c, p):
    # q ~ 1e5-1e7: the old c**q overflowed; the q-norm of the spectrum rebuilt
    # from K levels then sits up to K/2 eps above c (measured on 400 seeded
    # books of up to 2,000 atoms), inside the certificate's 2 K eps floor
    value, _ = kusuoka_value(x, c, p)
    primal = higher_order_T(x, c, p)
    assert abs(value - primal) <= 1e-9 * max(1.0, abs(primal))


# ---------------------------------------------------------------------------
# conjugate dilatation monotonicity
# ---------------------------------------------------------------------------

def test_conjugate_dilatation_examples(uniform4):
    rho = RiskFunctional.avar(0.5)
    y = RandomVariable(uniform4, np.array([-2.0, -2.0, 0.0, 0.0]))
    pairing = Partition.from_labels(uniform4, [0, 1, 0, 1])
    assert conjugate_dilatation_check(rho, y, pairing)
    assert conjugate_dilatation_check(rho, y, Partition.trivial(uniform4))
    assert conjugate_dilatation_check(rho, y, Partition.finest(uniform4))


def test_conjugate_dilatation_random_trials():
    rng = np.random.default_rng(31)
    rho = RiskFunctional.avar(0.5)
    for i in range(60):
        n = int(rng.integers(2, 9))
        space = FiniteProbSpace.uniform(n)
        y = RandomVariable(space, -rng.uniform(0.0, 2.5, size=n))
        labels = rng.integers(0, max(1, n // 2), size=n)
        part = Partition.from_labels(space, labels)
        assert conjugate_dilatation_check(rho, y, part)
