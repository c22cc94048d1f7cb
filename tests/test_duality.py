import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenrisk import (
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
    conjugate_dilatation_check,
    conjugate_sharp,
    dual_higher_order,
    fenchel_gap,
    higher_order_T,
    kusuoka_constraint,
    kusuoka_value,
    linear,
    positive_part,
    power,
    t_sharp_eta,
)
from scenrisk.duality import _q_norm, _root_segment

from conftest import variables

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
    cs = conjugate_sharp(rho, y, restarts=2, seed=0)
    assert cs.status == "closed_form"
    assert cs.value == 0.0
    # ascent stagnates at the closed-form value
    assert cs.lower_bound <= 1e-6
    assert cs.lower_bound >= -1e-6


def test_conjugate_diverges_off_mass_one(uniform4):
    rho = RiskFunctional.avar(0.5)
    y = RandomVariable.constant(uniform4, -2.0)  # E[y] = -2 != -1
    cs = conjugate_sharp(rho, y, restarts=0, seed=0)
    assert cs.value == INF


def test_conjugate_higher_order_ball(coin):
    rho = RiskFunctional.higher_order(2.0, 2.0)
    y = RandomVariable(coin.space, np.array([-2.0, 0.0]))  # -z, ||z||_2 = sqrt2 <= 2
    cs = conjugate_sharp(rho, y, restarts=1, seed=1)
    assert cs.status == "closed_form"
    assert cs.value == 0.0


def test_conjugate_box_violation_is_infinite(uniform4):
    rho = RiskFunctional.avar(0.5)
    z = np.array([2.5, 0.5, 0.5, 0.5])  # mean 1 but exceeds 1/alpha
    cs = conjugate_sharp(rho, RandomVariable(uniform4, -z), restarts=0, seed=0)
    assert cs.value == INF


def test_conjugate_custom_is_lower_bound_only(uniform4):
    rho = RiskFunctional.custom(lambda x: -x.mean() + 0.1 * x.abs().mean())
    y = RandomVariable(uniform4, np.array([-1.0, -1.0, -1.0, -1.0]))
    cs = conjugate_sharp(rho, y, restarts=2, seed=0)
    assert cs.status in ("lower_bound", "diverged")
    if cs.status == "lower_bound":
        assert math.isfinite(cs.lower_bound)


def test_conjugate_custom_cash_additive_diverges_on_rays(uniform4):
    # a custom cash-additive monotone functional: only the ray probes can
    # certify the infinite conjugate here
    rho = RiskFunctional.custom(lambda x: -x.mean())
    y = RandomVariable.constant(uniform4, -2.0)  # E[y] != -1
    cs = conjugate_sharp(rho, y, restarts=1, seed=0)
    assert cs.status == "diverged"
    assert cs.value == INF


# ---------------------------------------------------------------------------
# fenchel gap
# ---------------------------------------------------------------------------

def test_fenchel_gap_tight_pair(coin):
    rho = RiskFunctional.higher_order(2.0, 2.0)
    y = RandomVariable(coin.space, np.array([-2.0, 0.0]))
    gap = fenchel_gap(rho, coin, y, restarts=0)
    # rho(x) = 1, rho#(y) = 0, E[xy] = 1
    assert gap == pytest.approx(0.0, abs=1e-9)


def test_fenchel_gap_constant_against_uniform_density(uniform4):
    rho = RiskFunctional.avar(0.5)
    x = RandomVariable.constant(uniform4, 3.0)
    y = RandomVariable.constant(uniform4, -1.0)
    assert fenchel_gap(rho, x, y, restarts=0) == pytest.approx(0.0, abs=1e-9)


def test_fenchel_gap_zero_dual_is_infinite(x1234):
    rho = RiskFunctional.avar(0.5)
    y = RandomVariable.constant(x1234.space, 0.0)  # E[y] = 0 != -1: diverges
    assert fenchel_gap(rho, x1234, y, restarts=0) == INF


def test_fenchel_gap_refuses_unresolved(uniform4):
    rho = RiskFunctional.custom(lambda x: -x.mean())
    y = RandomVariable.constant(uniform4, -1.0)
    with pytest.raises(UnresolvedConjugateError):
        fenchel_gap(rho, RandomVariable.constant(uniform4, 1.0), y, restarts=1)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_weak_duality(data):
    x = data.draw(variables(lo=-5, hi=5, max_atoms=6))
    rng = np.random.default_rng(4)
    z = random_density(x.space, rng)
    rho = RiskFunctional.higher_order(2.0, 2.0)
    cs = conjugate_sharp(rho, -z.as_variable(), restarts=0, seed=0)
    pairing = float(x.space.probs @ (x.values * -z.values))
    if cs.value == INF:
        return
    assert rho(x) >= pairing - cs.value - 1e-7


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


def test_root_segment_brackets_or_raises():
    entries = np.array([1.0, 2.0, 4.0])
    with pytest.raises(ScenRiskError):
        _root_segment(lambda tau: 1.0, entries)
    with pytest.raises(ScenRiskError):
        _root_segment(lambda tau: -1.0, np.array([]))
    assert _root_segment(lambda tau: -1.0, entries) == (4.0, None)
    assert _root_segment(lambda tau: tau - 3.0, entries) == (2.0, 4.0)


def test_t_sharp_eta_generic_path_runs():
    # non-linear outer transform exercises the subgradient path
    from scenrisk import custom
    f = custom(lambda v: v * v, conjugate_fn=lambda y: y * y / 4.0, name="square")
    t = OrliczTriple(f=f, g=power(2), h=positive_part())
    sp2 = FiniteProbSpace.uniform(2)
    z = Density(sp2, np.array([1.2, 0.8]))
    val = t_sharp_eta(t, z, eta_grid=120)
    assert math.isfinite(val)
    # eta = z is feasible, so the minimum is at most the seeded objective
    fstar_at_seed = (  # E[eta Hstar(z/eta)] = 0 at eta = z; Fstar(||z||*_2)
        _q_norm(z.values, sp2.probs, 2.0) ** 2 / 4.0
    )
    assert val <= fstar_at_seed + 1e-6


# ---------------------------------------------------------------------------
# Kusuoka layer
# ---------------------------------------------------------------------------

def test_kusuoka_constraint_point_masses():
    assert kusuoka_constraint(MixingMeasure.point_mass(1.0), 2.0) == pytest.approx(1.0, abs=1e-15)
    assert kusuoka_constraint(MixingMeasure.point_mass(0.5), 2.0) == pytest.approx(2.0, abs=1e-15)
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


def _linear_scan(excess, entries):
    """The root's segment found one entry at a time: the slow reference."""
    seg_lo = None
    for tau_e in entries:
        if excess(float(tau_e)) > 0.0:
            return seg_lo, float(tau_e)
        seg_lo = float(tau_e)
    return seg_lo, None


@given(books(), st.sampled_from([1.05, 1.5, 2.0, 4.0]), st.sampled_from([1.2, 1.5, 2.0, 3.0]))
@settings(max_examples=60, deadline=None)
def test_dual_bisected_segment_matches_a_linear_scan(x, c, p):
    calls = []

    def recording(excess, entries):
        seg = _root_segment(excess, entries)
        calls.append((excess, entries, seg))
        return seg

    with mock.patch("scenrisk.duality._root_segment", recording):
        dual_higher_order(x, c, p / (p - 1.0))
    for excess, entries, seg in calls:
        assert seg == _linear_scan(excess, entries)


# ---------------------------------------------------------------------------
# conjugate dilatation monotonicity
# ---------------------------------------------------------------------------

def test_conjugate_dilatation_examples(uniform4):
    rho = RiskFunctional.avar(0.5)
    y = RandomVariable(uniform4, np.array([-2.0, -2.0, 0.0, 0.0]))
    pairing = Partition(uniform4, ((0, 2), (1, 3)))
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
