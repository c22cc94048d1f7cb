import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scenrisk import (
    CoercivityError,
    FiniteProbSpace,
    OrliczTriple,
    RandomVariable,
    TriState,
    avar,
    cap_at,
    cash_hull,
    cond_exp,
    custom_h,
    exponential,
    f_transformed,
    fgh1_check,
    fgh2_check,
    higher_order_T,
    linear,
    luxemburg_norm,
    positive_part,
    power,
    transformed_T,
)

from conftest import variable_with_partition, variables

INF = math.inf
SQRT2 = math.sqrt(2.0)


def triple(c=2.0, p=2.0):
    return OrliczTriple(f=linear(c), g=power(p), h=positive_part())


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def ru_grid_oracle(x, alpha, lo=-10.0, hi=10.0, n=200001):
    """inf_s {(1/alpha) E[(s-X)^+] - s} on a dense grid (step 1e-4)."""
    s = np.linspace(lo, hi, n)
    short = np.clip(s[:, None] - x.values[None, :], 0.0, None)
    return float(np.min((short @ x.space.probs) / alpha - s))


def hull_grid_oracle(x, c, p, lo=-10.0, hi=10.0, n=200001):
    """Dense s-grid value of inf_s {c ||(s-X)^+||_p - s}."""
    s = np.linspace(lo, hi, n)
    short = np.clip(s[:, None] - x.values[None, :], 0.0, None)
    norms = (short ** p @ x.space.probs) ** (1.0 / p)
    return float(np.min(c * norms - s))


# ---------------------------------------------------------------------------
# AVaR
# ---------------------------------------------------------------------------

def test_avar_derived_examples(x1234, coin):
    # frozen from the dense-grid oracle (grid hits the optimal s exactly)
    assert ru_grid_oracle(x1234, 0.5) == pytest.approx(-1.5, abs=1e-9)
    assert avar(x1234, 0.5) == pytest.approx(-1.5, abs=1e-12)
    assert ru_grid_oracle(coin, 0.5) == pytest.approx(1.0, abs=1e-9)
    assert avar(coin, 0.5) == pytest.approx(1.0, abs=1e-12)


@given(variables(lo=-8, hi=8, max_atoms=8))
@settings(max_examples=60, deadline=None)
def test_avar_one_is_negative_mean(x):
    assert avar(x, 1.0) == pytest.approx(-x.mean(), abs=1e-12)


@given(variables(lo=-8, hi=8, max_atoms=8))
@settings(max_examples=60, deadline=None)
def test_avar_many_matches_scalar(x):
    from scenrisk import avar_many
    alphas = np.array([0.05, 0.2, 0.25, 0.5, 0.75, 1.0])
    batch = avar_many(x, alphas)
    for a, got in zip(alphas, batch):
        assert got == pytest.approx(avar(x, float(a)), abs=1e-12)


@pytest.mark.parametrize("level", [1.5, -0.1, 0.0, math.nan])
def test_avar_many_rejects_levels_outside_the_unit_interval(x1234, level):
    from scenrisk import ParameterError, avar_many
    for call in (lambda: avar(x1234, level), lambda: avar_many(x1234, [0.5, level])):
        with pytest.raises(ParameterError):
            call()


@given(variables(lo=-6, hi=6, max_atoms=6))
@settings(max_examples=40, deadline=None)
def test_avar_matches_ru_grid(x):
    for alpha in (0.25, 0.5, 0.8):
        # grid resolution limits the oracle to ~1e-4 / alpha
        assert avar(x, alpha) == pytest.approx(ru_grid_oracle(x, alpha), abs=1e-3)


def test_avar_rejects_bad_alpha(x1234):
    with pytest.raises(ValueError):
        avar(x1234, 0.0)


# ---------------------------------------------------------------------------
# f_transformed
# ---------------------------------------------------------------------------

def test_f_transformed_nonnegative_position(x1234):
    t = triple()
    # x >= 0 so H(-x) = 0 and f(x) = F(0) = 0
    assert f_transformed(x1234, t) == pytest.approx(0.0, abs=1e-12)


def test_f_transformed_coin_value(coin):
    t = triple()
    # independently composed from the tested norm op: 2 * ||(1,0)||_2 = sqrt(2)
    hx = RandomVariable(coin.space, np.array([1.0, 0.0]))
    composed = 2.0 * luxemburg_norm(hx, power(2))
    assert composed == pytest.approx(SQRT2, abs=1e-12)
    assert f_transformed(coin, t) == pytest.approx(SQRT2, abs=1e-10)


def test_f_transformed_jump_outer_gives_inf():
    space = FiniteProbSpace.uniform(2)
    x = RandomVariable(space, np.array([-10.0, -12.0]))
    t = OrliczTriple(f=cap_at(0.5), g=power(2), h=positive_part())
    assert f_transformed(x, t) == INF


@given(variable_with_partition(lo=-8, hi=8))
@settings(max_examples=60, deadline=None)
def test_f_transformed_dilatation_monotone(xp):
    x, p = xp
    t = triple()
    fx = f_transformed(x, t)
    fce = f_transformed(cond_exp(x, p), t)
    if math.isfinite(fx) and math.isfinite(fce):
        assert fce <= fx + 1e-9


# ---------------------------------------------------------------------------
# cash-additive hull
# ---------------------------------------------------------------------------

def test_cash_hull_coin_example(coin):
    t = triple()
    value, s_star = cash_hull(lambda y: f_transformed(y, t), coin)
    # frozen from the dense grid: value 1 at s = -1
    assert hull_grid_oracle(coin, 2.0, 2.0) == pytest.approx(1.0, abs=1e-8)
    assert value == pytest.approx(1.0, abs=1e-9)
    assert s_star == pytest.approx(-1.0, abs=1e-8)


def test_cash_hull_constant_normalization(uniform4):
    t = triple()
    for m in (-3.0, 0.0, 2.5):
        x = RandomVariable.constant(uniform4, m)
        value, s_star = cash_hull(lambda y: f_transformed(y, t), x)
        assert value == pytest.approx(-m, abs=1e-9)
        assert s_star == pytest.approx(m, abs=1e-7)


def test_cash_hull_non_coercive_raises(coin):
    t = OrliczTriple(f=linear(1.0), g=power(2), h=positive_part())
    with pytest.raises(CoercivityError):
        cash_hull(lambda y: f_transformed(y, t), coin)


def test_cash_hull_minimizer_dominates_grid(coin):
    t = triple(c=1.7, p=2.5)
    value, s_star = cash_hull(lambda y: f_transformed(y, t), coin)
    s = np.linspace(s_star - 5.0, s_star + 5.0, 10001)
    short = np.clip(s[:, None] - coin.values[None, :], 0.0, None)
    grid = 1.7 * (short ** 2.5 @ coin.space.probs) ** (1.0 / 2.5) - s
    assert np.all(value <= grid + 1e-8)


# ---------------------------------------------------------------------------
# transformed_T / higher_order_T
# ---------------------------------------------------------------------------

def test_transformed_constant(uniform4):
    x = RandomVariable.constant(uniform4, 1.25)
    assert transformed_T(x, triple()) == pytest.approx(-1.25, abs=1e-9)


def test_transformed_coin(coin):
    assert transformed_T(coin, triple()) == pytest.approx(1.0, abs=1e-9)


def test_transformed_refuses_failing_fgh2(coin):
    t = OrliczTriple(f=linear(1.0), g=power(2), h=positive_part(), fgh2=TriState.FAILS)
    with pytest.raises(CoercivityError):
        transformed_T(coin, t)


@given(variables(lo=-6, hi=6, max_atoms=8))
@settings(max_examples=50, deadline=None)
def test_transformed_ru_identity(x):
    # F = (1/alpha) x, G linear, H = x^+ reproduces AVaR
    for alpha in (0.25, 0.5):
        t = OrliczTriple(f=linear(1.0 / alpha), g=power(1), h=positive_part())
        assert transformed_T(x, t) == pytest.approx(avar(x, alpha), abs=1e-9)


def test_higher_order_examples(coin, uniform4):
    assert higher_order_T(coin, 2.0, 2.0) == pytest.approx(1.0, abs=1e-9)
    m = RandomVariable.constant(uniform4, 4.0)
    assert higher_order_T(m, 2.0, 2.0) == pytest.approx(-4.0, abs=1e-9)
    x = RandomVariable(uniform4, np.array([1.0, 2.0, 3.0, 4.0]))
    assert higher_order_T(x, 2.0, 1.0) == pytest.approx(avar(x, 0.5), abs=1e-9)


@st.composite
def hull_books(draw):
    """Books of 1-500 atoms at scales 1e-6 to 1e6: distinct values, ties,
    ulp-near ties, or tiny and subnormal values mixed in."""
    n = draw(st.integers(1, 500))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        space = FiniteProbSpace.uniform(n)
    else:
        space = FiniteProbSpace.from_weights(rng.gamma(draw(st.sampled_from([0.3, 2.0])), size=n) + 1e-9)
    scale = draw(st.sampled_from([1e-6, 1e-3, 1.0, 1e3, 1e6]))
    values = rng.standard_t(3, size=n) * scale
    kind = draw(st.sampled_from(["distinct", "ties", "near_ties", "tiny"]))
    if kind == "ties":
        values = np.round(values * 2.0 / scale) * scale / 2.0
    elif kind == "near_ties":
        base = values[rng.integers(0, max(1, n // 3), size=n)]
        values = base + rng.integers(-2, 3, size=n) * np.spacing(base)
    elif kind == "tiny":
        tiny = rng.random(n) < 0.3
        values[tiny] = rng.choice([-1e-172, 1e-172, 0.0, -5e-324, 5e-324], size=int(tiny.sum()))
    return RandomVariable(space, values)


@given(hull_books(), st.floats(1.05, 8.0), st.sampled_from([1.02, 1.5, 2.0, 3.0, 10.0]))
@example(RandomVariable(FiniteProbSpace.uniform(4), np.array([0.0, 0.0, 1.0, -1.0e-172])), 2.0, 2.0)
@settings(max_examples=150, deadline=None)
def test_higher_order_kernel_matches_the_generic_hull(x, c, p):
    t = triple(c, p)
    slow, _ = cash_hull(lambda y: f_transformed(y, t), x)
    fast = higher_order_T(x, c, p)
    assert abs(fast - slow) <= 1e-9 * max(1.0, abs(slow))


@given(hull_books(), st.floats(1.0, 8.0))
@settings(max_examples=40, deadline=None)
def test_higher_order_p1_is_avar(x, c):
    assert higher_order_T(x, c, 1.0) == avar(x, 1.0 / c)


def test_transformed_exponential_h_large_positions():
    # exp(s - x) saturates to inf at far shifts; the hull must treat that as
    # an infinite objective value, not crash on a non-finite variable
    space = FiniteProbSpace.uniform(2)
    x = RandomVariable(space, np.array([-1000.0, 1000.0]))
    t = OrliczTriple(f=linear(1.5), g=power(2), h=exponential())
    value = transformed_T(x, t)
    # by hand: K = ||exp(-X)||_2 ~ e^1000/sqrt(2) (the e^-1000 branch is
    # negligible), so T = 1 + log(1.5 K) = 1001 + log(1.5/sqrt(2))
    assert value == pytest.approx(1001.0 + math.log(1.5 / math.sqrt(2.0)), abs=1e-6)


def test_transformed_family_axioms_across_triples():
    from scenrisk import exp_minus_one
    from scenrisk.extension import random_partition
    triples = (
        OrliczTriple(f=linear(2.0), g=power(2), h=positive_part()),
        OrliczTriple(f=power(2), g=power(2), h=positive_part()),
        OrliczTriple(f=linear(2.0), g=exp_minus_one(), h=positive_part()),
        OrliczTriple(f=linear(1.5), g=power(3), h=exponential()),
    )
    rng = np.random.default_rng(64)
    for t in triples:
        assert fgh2_check(t) is TriState.HOLDS
        for _ in range(12):
            n = int(rng.integers(2, 8))
            space = FiniteProbSpace.uniform(n)
            x = RandomVariable(space, rng.normal(size=n))
            s = float(rng.uniform(-3, 3))
            tx = transformed_T(x, t)
            assert abs(transformed_T(x + s, t) + s - tx) <= 1e-7
            part = random_partition(space, rng)
            assert transformed_T(cond_exp(x, part), t) <= tx + 1e-7
            lift = RandomVariable(space, rng.uniform(0, 2, size=n))
            assert transformed_T(x + lift, t) <= tx + 1e-7


def test_transformed_exponential_h_closed_form(uniform4):
    # H = exp gives a smooth hull with an analytic optimum:
    # objective c * e^s * K - s with K = ||exp(-x)||_G, minimized at
    # s* = -log(cK) with value 1 + log(cK)
    x = RandomVariable(uniform4, np.array([0.4, -0.3, 1.2, 0.0]))
    for c, g in ((2.0, power(2)), (1.5, power(3))):
        t = OrliczTriple(f=linear(c), g=g, h=exponential())
        k_const = luxemburg_norm(x.apply(lambda v: np.exp(-v)), g)
        expected = 1.0 + math.log(c * k_const)
        assert transformed_T(x, t) == pytest.approx(expected, abs=1e-8)


def test_transformed_exp_norm_generator(coin):
    # exp_minus_one G exercises the generic Luxemburg bisection inside the hull
    from scenrisk import exp_minus_one
    t = OrliczTriple(f=linear(2.0), g=exp_minus_one(), h=positive_part())
    value = transformed_T(coin, t)
    # independent dense-grid evaluation of the same objective
    s_grid = np.linspace(-3.0, 3.0, 2401)
    best = math.inf
    for s in s_grid:
        hx = RandomVariable(coin.space, np.maximum(s - coin.values, 0.0))
        best = min(best, 2.0 * luxemburg_norm(hx, exp_minus_one()) - s)
    assert value <= best + 1e-8
    assert value >= best - 5e-3  # grid resolution limits the oracle


def test_higher_order_param_validation(coin):
    with pytest.raises(ValueError):
        higher_order_T(coin, 1.0, 2.0)
    with pytest.raises(ValueError):
        higher_order_T(coin, 2.0, 0.5)
    with pytest.raises(ValueError):
        higher_order_T(coin, 0.5, 1.0)
    for c, p in ((INF, 2.0), (2.0, INF), (math.nan, 1.0), (INF, 1.0)):
        with pytest.raises(ValueError, match="must be finite"):
            higher_order_T(coin, c, p)
    # boundary AVaR_1 mode is allowed
    assert higher_order_T(coin, 1.0, 1.0) == pytest.approx(-coin.mean(), abs=1e-9)


# ---------------------------------------------------------------------------
# axioms of the hull (property battery)
# ---------------------------------------------------------------------------

@given(st.data())
@settings(max_examples=40, deadline=None)
def test_cash_additivity(data):
    x = data.draw(variables(lo=-6, hi=6, max_atoms=8))
    s = data.draw(st.floats(-5.0, 5.0))
    t = triple()
    assert abs(transformed_T(x + s, t) + s - transformed_T(x, t)) <= 1e-7


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_monotonicity(data):
    y = data.draw(variables(lo=-6, hi=6, max_atoms=8))
    lift = data.draw(
        st.lists(st.floats(0.0, 3.0), min_size=y.space.atom_count, max_size=y.space.atom_count)
    )
    x = y + RandomVariable(y.space, np.asarray(lift))
    t = triple()
    assert transformed_T(x, t) <= transformed_T(y, t) + 1e-7


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_convexity(data):
    x = data.draw(variables(lo=-6, hi=6, max_atoms=8))
    y = data.draw(variables(space=x.space, lo=-6, hi=6))
    lam = data.draw(st.floats(0.05, 0.95))
    t = triple()
    mix = lam * x + (1.0 - lam) * y
    assert transformed_T(mix, t) <= lam * transformed_T(x, t) + (1.0 - lam) * transformed_T(y, t) + 1e-7


@given(variable_with_partition(lo=-6, hi=6, max_atoms=8))
@settings(max_examples=40, deadline=None)
def test_dilatation_monotonicity(xp):
    x, p = xp
    t = triple()
    assert transformed_T(cond_exp(x, p), t) <= transformed_T(x, t) + 1e-7


def test_normalization_at_zero(uniform4):
    zero = RandomVariable.constant(uniform4, 0.0)
    assert transformed_T(zero, triple()) == pytest.approx(0.0, abs=1e-9)


@given(variables(lo=-6, hi=6, max_atoms=8))
@settings(max_examples=30, deadline=None)
def test_avar_dominance(x):
    # c >= 1/alpha and p >= 1 dominate AVaR_alpha
    for alpha, c, p in ((0.5, 2.0, 2.0), (0.5, 3.0, 1.5), (0.25, 4.0, 3.0)):
        assert higher_order_T(x, c, p) >= avar(x, alpha) - 1e-7


# ---------------------------------------------------------------------------
# FGH checkers
# ---------------------------------------------------------------------------

def test_fgh2_tristates():
    assert fgh2_check(triple(c=2.0)) is TriState.HOLDS  # a*b = 2 > 1
    t_fail = OrliczTriple(f=linear(1.0), g=power(2), h=positive_part())
    assert fgh2_check(t_fail) is TriState.FAILS  # a*b = 1 = G^{-1}(1)
    t_jump = OrliczTriple(f=cap_at(3.0), g=power(2), h=positive_part())
    assert fgh2_check(t_jump) is TriState.HOLDS  # F takes inf, a = inf


def test_fgh2_unknown_without_slope_data():
    from scenrisk import custom
    # slope product lands exactly on the boundary and no analytic slope given
    f = custom(lambda t: t, name="anon_linear")
    t = OrliczTriple(f=f, g=power(2), h=positive_part())
    assert fgh2_check(t) is TriState.UNKNOWN


def test_fgh1_tristates():
    assert fgh1_check(triple()) is TriState.HOLDS  # real-valued F
    t_cap = OrliczTriple(f=cap_at(3.0), g=power(2), h=positive_part())
    assert fgh1_check(t_cap) is TriState.HOLDS  # small s keeps H(s)+eps below the jump
    shifted_exp = custom_h(
        lambda v: math.exp(v) + 1.0 if v < 700 else INF,
        array_fn=lambda a: np.where(np.asarray(a) < 700, np.exp(np.minimum(a, 700)) + 1.0, INF),
        name="exp_plus_one",
    )
    t_stuck = OrliczTriple(f=cap_at(0.0), g=power(2), h=shifted_exp)
    assert fgh1_check(t_stuck) is TriState.UNKNOWN  # H >= 1 and F jumps at 0+


def test_fgh2_exponential_h():
    t = OrliczTriple(f=linear(1.0), g=power(2), h=exponential())
    assert fgh2_check(t) is TriState.HOLDS  # b = inf


def test_fgh2_boundary_against_exp_norm_generator():
    from scenrisk import exp_minus_one
    # G^{-1}(1) = log 2 ~ 0.693: slope products straddle it
    below = OrliczTriple(f=linear(0.5), g=exp_minus_one(), h=positive_part())
    above = OrliczTriple(f=linear(0.8), g=exp_minus_one(), h=positive_part())
    assert fgh2_check(below) is TriState.FAILS
    assert fgh2_check(above) is TriState.HOLDS


def test_checked_constructor_populates_flags():
    t = OrliczTriple.checked(linear(2.0), power(2), positive_part())
    assert t.fgh1 is TriState.HOLDS
    assert t.fgh2 is TriState.HOLDS
