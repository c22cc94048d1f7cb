import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scenrisk import (
    Density,
    FiniteProbSpace,
    InvalidOrliczError,
    OrliczTriple,
    ParameterError,
    RandomVariable,
    RiskFunctional,
    UnresolvedConjugateError,
    cap_at,
    cond_exp,
    conjugate_sharp,
    exp_minus_one,
    fgh2_check,
    g_inv_one,
    linear,
    luxemburg_norm,
    orlicz_norm,
    positive_part,
    power,
    t_sharp_eta,
)

from conftest import generic_orlicz, variable_with_partition, variables
from search_reference import golden_section

INF = math.inf


def generic_power(p):
    """power(p) outside the built-in kinds: forces the bisection path."""
    return generic_orlicz("generic_power", lambda t: t ** p, lambda a: np.power(a, p))


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
    gstar = power(2).conjugate()
    for y in (0.0, 0.5, 1.0, 3.0, 10.0):
        assert gstar(y) == pytest.approx(y * y / 4.0, rel=1e-12)


def test_conjugate_linear_is_indicator():
    fstar = linear(2.0).conjugate()
    assert fstar(0.0) == 0.0
    assert fstar(2.0) == 0.0
    assert fstar(2.0 + 1e-9) == INF


def test_conjugate_cap_is_linear():
    gstar = cap_at(1.5).conjugate()
    for y in (0.0, 1.0, 4.0):
        assert gstar(y) == pytest.approx(1.5 * y, rel=1e-12)


def test_biconjugation_round_trips():
    for g in (power(2), power(3), linear(2.0), cap_at(1.0), exp_minus_one()):
        gss = g.conjugate().conjugate()
        for t in (0.0, 0.3, 1.0, 2.5):
            a, b = g(t), gss(t)
            if a == INF or b == INF:
                assert a == b
            else:
                assert b == pytest.approx(a, rel=1e-10, abs=1e-12)


def conjugate_value_numeric(g, y, t_max=2.0 ** 40):
    """Numeric sup_{t>=0} {t*y - G(t)}: a geometric scan plus golden section.

    Diverging objectives are reported as inf once they exceed 1e12.
    """
    def neg_obj(t):
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


def test_numeric_conjugate_cross_check():
    for g, ys in ((power(2), (0.5, 1.0, 3.0)), (exp_minus_one(), (1.5, 3.0))):
        gstar = g.conjugate()
        for y in ys:
            assert conjugate_value_numeric(g, y) == pytest.approx(gstar(y), rel=1e-6, abs=1e-8)


@pytest.mark.parametrize("build", [
    lambda: power(math.nan), lambda: power(INF),
    lambda: linear(math.nan), lambda: linear(INF),
    lambda: cap_at(math.nan), lambda: cap_at(INF),
], ids=["power_nan", "power_inf", "linear_nan", "linear_inf", "cap_nan", "cap_inf"])
def test_kinds_reject_non_finite_parameters(build):
    # power(nan) as G made transformed_T return 3.0 on [1, 2, -3, 0.5] with F = power(2), and
    # cap_at(inf) gave a zero Luxemburg norm and a ZeroDivisionError in g_inv_one
    with pytest.raises(ParameterError, match="must be finite"):
        build()


# ---------------------------------------------------------------------------
# G^{-1}(1)
# ---------------------------------------------------------------------------

def test_g_inv_one_values():
    assert g_inv_one(power(2)) == 1.0
    assert g_inv_one(power(3.5)) == pytest.approx(1.0, abs=1e-11)
    assert g_inv_one(exp_minus_one()) == math.log(2.0)
    assert g_inv_one(cap_at(1.0)) == 1.0
    assert g_inv_one(linear(4.0)) == 0.25


def test_g_inv_one_refuses_cap_at_zero():
    # sup{t > 0 : G(t) <= 1} is +inf; a made-up tiny value used to come back
    with pytest.raises(InvalidOrliczError):
        g_inv_one(cap_at(0.0))
    with pytest.raises(InvalidOrliczError):
        fgh2_check(OrliczTriple(f=linear(2.0), g=cap_at(0.0), h=positive_part()))


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


@pytest.mark.parametrize("g", [exp_minus_one(), generic_power(3)], ids=["exp", "custom_power"])
def test_luxemburg_generic_path_is_homogeneous(g):
    # the bisection runs at |x| / max|x|, so there is no absolute floor
    base = np.array([1.0, -2.0, 0.5])
    space = FiniteProbSpace.uniform(3)
    unit = luxemburg_norm(RandomVariable(space, base), g)
    for scale in 10.0 ** np.arange(-300, 151, 10):
        got = luxemburg_norm(RandomVariable(space, base * scale), g)
        assert got == pytest.approx(scale * unit, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("g", [
    generic_orlicz("capped_line", lambda t: min(t, 1.0), lambda a: np.minimum(a, 1.0)),
    generic_orlicz("zero_fn", lambda t: 0.0, lambda a: np.zeros_like(a)),
], ids=["min_t_1", "zero"])
def test_luxemburg_refuses_g_that_never_exceeds_one(g):
    x = RandomVariable(FiniteProbSpace.uniform(3), np.array([1.0, -2.0, 0.5]))
    with pytest.raises(InvalidOrliczError):
        luxemburg_norm(x, g)
    with pytest.raises(InvalidOrliczError):
        g_inv_one(g)


@pytest.mark.parametrize("slope", [1e-5, 1e-20, 1e-70, 1e-150, 1e-200, 1e-250, 1e-300])
def test_luxemburg_generic_path_reaches_tiny_slopes(slope):
    # G^{-1}(1) = 1 / slope: lam is halved to near the bottom of the float range
    g = generic_orlicz("tiny_slope", lambda t: slope * t, lambda a: slope * a)
    x = RandomVariable(FiniteProbSpace.uniform(3), np.array([1.0, 3.0, 2.0]))
    want = luxemburg_norm(x, linear(slope))
    assert luxemburg_norm(x, g) == pytest.approx(want, rel=1e-11, abs=0.0)


def test_luxemburg_refuses_g_that_is_infinite_off_zero():
    g = generic_orlicz("wall", lambda t: 0.0 if t == 0.0 else INF,
                       lambda a: np.where(a == 0.0, 0.0, INF))
    with pytest.raises(InvalidOrliczError):
        g_inv_one(g)


@given(variables(lo=-10, hi=10, max_atoms=6))
@settings(max_examples=60, deadline=None)
def test_luxemburg_bisection_agrees_with_closed_form(x):
    # generic bisection path vs the power fast path
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
        ax = RandomVariable(x.space, np.abs(x.values))
        assert luxemburg_norm(cond_exp(ax, p), g) <= luxemburg_norm(ax, g) + 1e-9


# ---------------------------------------------------------------------------
# Orlicz norm
# ---------------------------------------------------------------------------

def reference_orlicz_norm(x, g):
    """The Amemiya form inf_{u>0} u (1 + E[G*(|x| / u)]) searched numerically:
    the perspective is convex in u, so a 64-point geometric grid at
    |x| / max|x| plus golden section around its best point.  Its floor
    u = 2e-13 leaves up to about 1e-11 relative on the linear and cap kinds."""
    a = np.abs(x.values)
    amax = float(a.max(initial=0.0))
    if amax == 0.0:
        return 0.0
    a = a / amax
    pr = x.space.probs
    gstar = g.conjugate()

    def obj(u):
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
    _, f_best, _ = golden_section(obj, float(lo), float(hi), tol=2e-12)
    return amax * min(f_best, float(fg[i]))


@st.composite
def t3_books(draw, max_atoms=200):
    """1-200 atoms, uniform or gamma(2) weights, t(3) values scaled by 1e-6
    to 1e6, sometimes with zeros or ties."""
    n = draw(st.integers(1, max_atoms))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        space = FiniteProbSpace.uniform(n)
    else:
        space = FiniteProbSpace.from_weights(rng.gamma(2.0, size=n) + 1e-9)
    values = rng.standard_t(3, size=n)
    kind = draw(st.sampled_from(["plain", "zeros", "ties"]))
    if kind == "zeros":
        values[rng.random(n) < 0.5] = 0.0
    elif kind == "ties":
        values = np.round(values * 2.0) / 2.0
    return RandomVariable(space, values * 10.0 ** draw(st.floats(-6.0, 6.0)))


@given(t3_books(), st.sampled_from(["p1.5", "p2", "p3", "p3_conjugate", "exp"]))
@example(RandomVariable(FiniteProbSpace.uniform(1), np.array([1.0])), "exp")
@example(RandomVariable(FiniteProbSpace.uniform(3), np.array([0.0, 2.0, -2.0])), "exp")
@settings(max_examples=150, deadline=None)
def test_orlicz_norm_closed_forms_match_the_amemiya_search(x, kind):
    g = {"p1.5": power(1.5), "p2": power(2), "p3": power(3),
         "p3_conjugate": power(3).conjugate(), "exp": exp_minus_one()}[kind]
    want = reference_orlicz_norm(x, g)
    assert orlicz_norm(x, g) == pytest.approx(want, rel=1e-12, abs=0.0)


@given(t3_books(), st.sampled_from([0.5, 1.0, 2.0]))
@settings(max_examples=100, deadline=None)
def test_orlicz_norm_linear_and_cap_are_attained(x, theta):
    v, pr = x.values, x.space.probs
    top = int(np.argmax(np.abs(v)))
    if v[top] == 0.0:
        return
    # linear(theta): all of Y's Luxemburg budget E[theta |Y|] = 1 on an atom of max|x|
    g = linear(theta)
    y = np.zeros_like(v)
    y[top] = np.sign(v[top]) / (theta * pr[top])
    assert luxemburg_norm(RandomVariable(x.space, y), g) == pytest.approx(1.0, rel=1e-14)
    assert orlicz_norm(x, g) == pytest.approx(float(pr @ (v * y)), rel=1e-14)
    # cap_at(theta): Y = theta sign(x) has max|Y| / theta = 1
    g = cap_at(theta)
    y = theta * np.sign(v)
    assert luxemburg_norm(RandomVariable(x.space, y), g) == pytest.approx(1.0, rel=1e-14)
    assert orlicz_norm(x, g) == pytest.approx(float(pr @ (v * y)), rel=1e-14)


def test_orlicz_norm_linear_and_cap_match_the_search():
    # the search stops short at its floor u = 2e-13: 5.8e-12 relative at most here
    rng = np.random.default_rng(1616)
    for _ in range(300):
        n = int(rng.integers(1, 201))
        space = FiniteProbSpace.from_weights(rng.gamma(2.0, size=n))
        x = RandomVariable(space, rng.standard_t(3, size=n) * 10.0 ** rng.uniform(-6, 6))
        for g in (linear(1.0), cap_at(1.0)):
            want = reference_orlicz_norm(x, g)
            assert orlicz_norm(x, g) == pytest.approx(want, rel=1e-11, abs=0.0)


@pytest.mark.parametrize("g", [generic_power(2), exp_minus_one().conjugate()],
                         ids=["custom", "entropy_conjugate"])
def test_orlicz_norm_refuses_g_without_closed_form(g, uniform4):
    x = RandomVariable(uniform4, np.array([-3.0, 1.0, 2.0, 0.5]))
    with pytest.raises(UnresolvedConjugateError):
        orlicz_norm(x, g)
    # so does the penalty F*(||Z||*_G) of a triple with H = x^+ (FGH2 holds:
    # 4 > G^{-1}(1), which is 1 and e)
    t = OrliczTriple(f=linear(4.0), g=g, h=positive_part())
    z = Density(uniform4, np.array([0.4, 1.2, 1.6, 0.8]))
    with pytest.raises(UnresolvedConjugateError):
        t_sharp_eta(t, z)
    with pytest.raises(UnresolvedConjugateError):
        conjugate_sharp(RiskFunctional.transformed(t), -z.as_variable())

def test_orlicz_norm_examples(uniform4):
    one = RandomVariable.constant(uniform4, 1.0)
    assert orlicz_norm(one, power(2)) == pytest.approx(1.0, abs=1e-9)
    zero = RandomVariable.constant(uniform4, 0.0)
    assert orlicz_norm(zero, power(2)) == 0.0
    x = RandomVariable(uniform4, np.array([-3.0, 1.0, 2.0, 0.5]))
    assert orlicz_norm(x, cap_at(0.0)) == 0.0


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
    assert orlicz_norm(x, linear(1.0)) == 3.0


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
# shape validation: a probe of the Orlicz axioms, kept as a check on the
# built-in kinds (construction does not police shapes)
# ---------------------------------------------------------------------------

def validate_orlicz(g):
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


def test_validate_accepts_builtins():
    for g in (power(2), power(1.5), linear(0.5), cap_at(2.0), exp_minus_one()):
        validate_orlicz(g)


def test_validate_rejects_bad_shapes():
    with pytest.raises(InvalidOrliczError):
        validate_orlicz(generic_orlicz("shifted", lambda t: t + 1.0))  # G(0) != 0
    with pytest.raises(InvalidOrliczError):
        validate_orlicz(generic_orlicz("sqrt", math.sqrt))  # concave, bounded slope
    with pytest.raises(InvalidOrliczError):
        validate_orlicz(generic_orlicz("zero_fn", lambda t: 0.0))  # never reaches infinity
