import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scenrisk import (
    FiniteProbSpace,
    InvalidOrliczError,
    RandomVariable,
    cap_at,
    cond_exp,
    conjugate,
    conjugate_value_numeric,
    custom,
    exp_minus_one,
    g_inv_one,
    linear,
    luxemburg_norm,
    orlicz_norm,
    power,
    validate_orlicz,
)

from conftest import variable_with_partition, variables

INF = math.inf


def generic_power(p):
    """power(p) wrapped as a custom function: forces the bisection path."""
    return custom(
        lambda t: t ** p,
        conjugate_fn=lambda y: (p - 1.0) * (y / p) ** (p / (p - 1.0)),
        array_fn=lambda a: np.power(a, p),
        name="generic_power",
    )


# ---------------------------------------------------------------------------
# independent oracle: sup over the unit Luxemburg ball by Lagrangian
# water-filling (numeric derivative inversion + multiplier bisection)
# ---------------------------------------------------------------------------

def _numeric_slope(g, y, h=1e-7):
    lo = max(y - h, 0.0)
    return (g(y + h) - g(lo)) / (y + h - lo)


def _stationary_y(g, target_slope, hi_start=1.0):
    """Smallest y with g'(y) >= target_slope (g' nondecreasing)."""
    if target_slope <= 0.0:
        return 0.0
    hi = hi_start
    while _numeric_slope(g, hi) < target_slope:
        hi *= 2.0
        if hi > 1e12:
            return hi
    lo = 0.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):  # no double left between: further steps change nothing
            break
        if _numeric_slope(g, mid) < target_slope:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def sup_ball_oracle(x, g):
    """sup{E[xY] : ||Y||_G <= 1} for smooth real-valued G.

    KKT: the optimal |Y| satisfies lam * G'(|y_i|) = |x_i| for a multiplier
    lam chosen so E[G(|Y|)] = 1; the sign of Y follows x.  Independent of the
    Amemiya route used by the implementation.  Solved at x / max|x| and
    scaled back, as the problem is positively homogeneous in x."""
    pr = x.space.probs
    amax = float(np.abs(x.values).max())
    if amax == 0.0:
        return 0.0
    a = np.abs(x.values) / amax

    def mass(lam):
        y = np.array([_stationary_y(g, ai / lam) for ai in a])
        return float(pr @ g.eval_array(y)), y

    lam_hi = 1.0
    while mass(lam_hi)[0] > 1.0:
        lam_hi *= 2.0
    lam_lo = lam_hi
    while mass(lam_lo / 2.0)[0] <= 1.0:
        lam_lo /= 2.0
    lam_lo /= 2.0
    for _ in range(200):
        mid = 0.5 * (lam_lo + lam_hi)
        if mid in (lam_lo, lam_hi):
            break
        if mass(mid)[0] > 1.0:
            lam_lo = mid
        else:
            lam_hi = mid
    _, y = mass(lam_hi)
    return amax * float(pr @ (a * y))


# ---------------------------------------------------------------------------
# conjugates
# ---------------------------------------------------------------------------

def test_conjugate_power_two_closed_form():
    gstar = conjugate(power(2))
    for y in (0.0, 0.5, 1.0, 3.0, 10.0):
        assert gstar(y) == pytest.approx(y * y / 4.0, rel=1e-12)


def test_conjugate_linear_is_indicator():
    fstar = conjugate(linear(2.0))
    assert fstar(0.0) == 0.0
    assert fstar(2.0) == 0.0
    assert fstar(2.0 + 1e-9) == INF


def test_conjugate_cap_is_linear():
    gstar = conjugate(cap_at(1.5))
    for y in (0.0, 1.0, 4.0):
        assert gstar(y) == pytest.approx(1.5 * y, rel=1e-12)


def test_biconjugation_round_trips():
    for g in (power(2), power(3), linear(2.0), cap_at(1.0), exp_minus_one()):
        gss = conjugate(conjugate(g))
        for t in (0.0, 0.3, 1.0, 2.5):
            a, b = g(t), gss(t)
            if a == INF or b == INF:
                assert a == b
            else:
                assert b == pytest.approx(a, rel=1e-10, abs=1e-12)


def test_numeric_conjugate_cross_check():
    for g, ys in ((power(2), (0.5, 1.0, 3.0)), (exp_minus_one(), (1.5, 3.0))):
        gstar = conjugate(g)
        for y in ys:
            assert conjugate_value_numeric(g, y) == pytest.approx(gstar(y), rel=1e-6, abs=1e-8)


def test_custom_without_conjugate_refuses():
    g = custom(lambda t: t ** 4)
    with pytest.raises(InvalidOrliczError):
        conjugate(g)


# ---------------------------------------------------------------------------
# G^{-1}(1)
# ---------------------------------------------------------------------------

def test_g_inv_one_values():
    assert g_inv_one(power(2)) == pytest.approx(1.0, abs=1e-11)
    assert g_inv_one(power(3.5)) == pytest.approx(1.0, abs=1e-11)
    assert g_inv_one(exp_minus_one()) == pytest.approx(math.log(2.0), abs=1e-11)
    assert g_inv_one(cap_at(1.0)) == pytest.approx(1.0, abs=1e-11)
    assert g_inv_one(linear(4.0)) == pytest.approx(0.25, abs=1e-11)


def test_g_inv_one_vs_norm_of_one():
    space = FiniteProbSpace.uniform(3)
    one = RandomVariable.constant(space, 1.0)
    for g in (power(2), power(3), linear(2.0), exp_minus_one(), cap_at(0.7)):
        assert g_inv_one(g) * luxemburg_norm(one, g) == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# Luxemburg norm
# ---------------------------------------------------------------------------

def test_luxemburg_examples(uniform4):
    one = RandomVariable.constant(uniform4, 1.0)
    assert luxemburg_norm(one, power(2)) == pytest.approx(1.0, abs=1e-11)
    spike = RandomVariable(uniform4, np.array([2.0, 0.0, 0.0, 0.0]))
    assert luxemburg_norm(spike, power(2)) == pytest.approx(1.0, abs=1e-11)
    x = RandomVariable(uniform4, np.array([-3.0, 1.0, 2.0, 0.5]))
    assert luxemburg_norm(x, cap_at(1.0)) == pytest.approx(3.0, abs=1e-11)
    zero = RandomVariable.constant(uniform4, 0.0)
    assert luxemburg_norm(zero, exp_minus_one()) == 0.0


@given(variables(lo=-10, hi=10))
@settings(max_examples=100, deadline=None)
def test_luxemburg_power_equals_lp(x):
    for p in (1.5, 2.0, 3.0):
        lp = float((x.space.probs @ np.abs(x.values) ** p) ** (1.0 / p))
        assert luxemburg_norm(x, power(p)) == pytest.approx(lp, rel=1e-9, abs=1e-12)


@pytest.mark.filterwarnings("error")
def test_luxemburg_power_scales_before_the_power():
    x = RandomVariable(FiniteProbSpace.uniform(2), np.array([1e3, 2.0]))
    assert luxemburg_norm(x, power(150)) == pytest.approx(1e3 * 0.5 ** (1.0 / 150.0), rel=1e-12)
    rng = np.random.default_rng(31)
    for _ in range(200):
        n = int(rng.integers(1, 20))
        space = FiniteProbSpace.from_weights(rng.uniform(0.1, 1.0, size=n))
        v = rng.normal(size=n) * 10.0 ** rng.uniform(-3.0, 3.0)
        p = float(rng.choice([1.5, 2.0, 3.0, 10.0, 50.0]))
        with np.errstate(all="ignore"):
            unscaled = float((space.probs @ np.abs(v) ** p) ** (1.0 / p))
        if math.isfinite(unscaled) and unscaled > 0.0:
            assert luxemburg_norm(RandomVariable(space, v), power(p)) == pytest.approx(unscaled, rel=1e-12)


@given(variables(lo=-10, hi=10, max_atoms=6))
@settings(max_examples=60, deadline=None)
def test_luxemburg_bisection_agrees_with_closed_form(x):
    # generic bisection path (custom wrapper) vs the power fast path
    fast = luxemburg_norm(x, power(2))
    slow = luxemburg_norm(x, generic_power(2))
    assert slow == pytest.approx(fast, rel=1e-9, abs=1e-12)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_luxemburg_norm_axioms(data):
    x = data.draw(variables(lo=-10, hi=10))
    y = data.draw(variables(space=x.space, lo=-10, hi=10))
    c = data.draw(st.floats(-4.0, 4.0))
    for g in (power(2), exp_minus_one()):
        nx = luxemburg_norm(x, g)
        ny = luxemburg_norm(y, g)
        assert luxemburg_norm(x * c, g) == pytest.approx(abs(c) * nx, rel=1e-9, abs=1e-9)
        assert luxemburg_norm(x + y, g) <= nx + ny + 1e-9


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_luxemburg_monotone_in_modulus(data):
    y = data.draw(variables(lo=-10, hi=10))
    shrink = data.draw(
        st.lists(st.floats(0.0, 1.0), min_size=y.space.atom_count, max_size=y.space.atom_count)
    )
    x = RandomVariable(y.space, np.asarray(shrink) * y.values)
    for g in (power(2), exp_minus_one()):
        assert luxemburg_norm(x, g) <= luxemburg_norm(y, g) + 1e-12


@given(variable_with_partition(lo=-10, hi=10))
@settings(max_examples=80, deadline=None)
def test_luxemburg_contracts_under_conditioning(xp):
    x, p = xp
    for g in (power(2), power(3), exp_minus_one()):
        assert luxemburg_norm(cond_exp(x.abs(), p), g) <= luxemburg_norm(x.abs(), g) + 1e-9


# ---------------------------------------------------------------------------
# Orlicz norm
# ---------------------------------------------------------------------------

def test_orlicz_norm_examples(uniform4):
    one = RandomVariable.constant(uniform4, 1.0)
    assert orlicz_norm(one, power(2)) == pytest.approx(1.0, abs=1e-9)
    zero = RandomVariable.constant(uniform4, 0.0)
    assert orlicz_norm(zero, power(2)) == 0.0


@given(variables(lo=-5, hi=5, max_atoms=4, min_atoms=2))
@example(RandomVariable(FiniteProbSpace.uniform(2), np.array([0.0, 5e-324])))
@settings(max_examples=30, deadline=None)
def test_orlicz_norm_power_is_dual_lq(x):
    for p in (1.5, 2.0, 3.0):
        q = p / (p - 1.0)
        got = orlicz_norm(x, power(p))
        a = np.abs(x.values)
        amax = float(a.max())  # scaled, so that a subnormal x does not underflow
        lq = amax * float((x.space.probs @ (a / amax) ** q) ** (1.0 / q)) if amax else 0.0
        assert got == pytest.approx(lq, rel=1e-8, abs=0.0)
        oracle = sup_ball_oracle(x, power(p))
        assert abs(got - oracle) <= 1e-6 * abs(got)


@pytest.mark.parametrize("scale", [1e-300, 1e-20, 1e-14, 1e-12, 1.0, 1e150])
def test_orlicz_norm_has_no_absolute_floor(scale):
    x = RandomVariable(FiniteProbSpace.uniform(3), np.array([1.0, -2.0, 0.5]) * scale)
    l2 = scale * math.sqrt((1.0 + 4.0 + 0.25) / 3.0)
    assert orlicz_norm(x, power(2)) == pytest.approx(l2, rel=1e-12, abs=0.0)


def test_orlicz_norm_linear_is_sup(uniform4):
    x = RandomVariable(uniform4, np.array([-3.0, 1.0, 2.0, 0.5]))
    assert orlicz_norm(x, linear(1.0)) == pytest.approx(3.0, rel=1e-9)


def test_orlicz_norm_exp_kind_against_oracle(uniform4):
    x = RandomVariable(uniform4, np.array([-2.0, 0.5, 1.0, 0.0]))
    got = orlicz_norm(x, exp_minus_one())
    oracle = sup_ball_oracle(x, exp_minus_one())
    assert abs(got - oracle) <= 1e-6 * (1.0 + abs(got))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_hoelder_pairing(data):
    x = data.draw(variables(lo=-8, hi=8))
    y = data.draw(variables(space=x.space, lo=-8, hi=8))
    for p in (1.5, 2.0, 3.0):
        g = power(p)
        pairing = float(x.space.probs @ (x.values * y.values))
        assert pairing <= luxemburg_norm(x, g) * orlicz_norm(y, g) + 1e-9


# ---------------------------------------------------------------------------
# shape validation
# ---------------------------------------------------------------------------

def test_validate_accepts_builtins():
    for g in (power(2), power(1.5), linear(0.5), cap_at(2.0), exp_minus_one()):
        validate_orlicz(g)


def test_validate_rejects_bad_shapes():
    with pytest.raises(InvalidOrliczError):
        validate_orlicz(custom(lambda t: t + 1.0))  # G(0) != 0
    with pytest.raises(InvalidOrliczError):
        validate_orlicz(custom(lambda t: math.sqrt(t)))  # concave, bounded slope
    with pytest.raises(InvalidOrliczError):
        validate_orlicz(custom(lambda t: 0.0))  # never reaches infinity
