from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings

from scenrisk import (
    FiniteProbSpace,
    Partition,
    RandomVariable,
    RiskFunctional,
    SpaceTooCoarseError,
    avar,
    cond_exp,
    discretization_slack,
    extend_sup,
    higher_order_T,
    lemma21_sequence,
    refinement_convergence,
)

from conftest import cell_shuffle_average, full_cycle, variable_with_partition, variables


def discretized_normal(n):
    nd = NormalDist()
    space = FiniteProbSpace.uniform(n)
    return RandomVariable(space, np.array([nd.inv_cdf((i + 0.5) / n) for i in range(n)]))


def discretized_lognormal(n):
    base = discretized_normal(n)
    return RandomVariable(base.space, np.exp(base.values))


def two_point(n):
    space = FiniteProbSpace.uniform(n)
    k = int(round(0.3 * n))
    return RandomVariable(space, np.where(np.arange(n) < k, -3.0, 2.0))


# ---------------------------------------------------------------------------
# extend_sup
# ---------------------------------------------------------------------------

def test_extend_sup_avar_on_1234(x1234, uniform4):
    rho = RiskFunctional.avar(0.5)
    res = extend_sup(rho, x1234, budget=4, seed=1)
    assert res.value == pytest.approx(-1.5, abs=1e-9)
    assert res.best_partition == Partition.finest(uniform4)
    assert all(v <= res.value + 1e-9 for _, v in res.samples)


def test_extend_sup_avar_one_partition_invariant(x1234):
    rho = RiskFunctional.avar(1.0)
    res = extend_sup(rho, x1234, budget=6, seed=2)
    for _, v in res.samples:
        assert v == pytest.approx(-x1234.mean(), abs=1e-12)


def test_extend_sup_higher_order_coin(coin):
    rho = RiskFunctional.higher_order(2.0, 2.0)
    res = extend_sup(rho, coin, budget=3, seed=3)
    assert res.value == pytest.approx(1.0, abs=1e-9)
    assert res.value == pytest.approx(higher_order_T(coin, 2.0, 2.0), abs=1e-9)


def test_extend_sup_validates_budget(coin):
    with pytest.raises(ValueError):
        extend_sup(RiskFunctional.avar(0.5), coin, budget=0, seed=0)


def test_extend_sup_single_atom_space():
    space = FiniteProbSpace.uniform(1)
    x = RandomVariable(space, np.array([3.0]))
    res = extend_sup(RiskFunctional.avar(0.5), x, budget=2, seed=0)
    assert res.value == pytest.approx(-3.0, abs=1e-12)


@given(variables(lo=-6, hi=6, max_atoms=10))
@settings(max_examples=40, deadline=None)
def test_extend_sup_attains_direct_value(x):
    rho = RiskFunctional.avar(0.4)
    res = extend_sup(rho, x, budget=5, seed=11)
    direct = rho(x)
    assert res.value == pytest.approx(direct, abs=1e-9)
    assert all(v <= direct + 1e-9 for _, v in res.samples)


# ---------------------------------------------------------------------------
# refinement convergence
# ---------------------------------------------------------------------------

def test_refinement_constant(uniform4):
    x = RandomVariable.constant(uniform4, 2.0)
    curve = refinement_convergence(RiskFunctional.avar(0.5), x, depth=4)
    for pt in curve:
        assert pt.value == pytest.approx(-2.0, abs=1e-12)
        assert pt.l1_gap == pytest.approx(0.0, abs=1e-15)


def test_refinement_reaches_exact_value_at_separation(x1234):
    rho = RiskFunctional.avar(0.5)
    curve = refinement_convergence(rho, x1234, depth=3)
    assert curve[1].value == pytest.approx(rho(x1234), abs=1e-12)  # level 2 separates
    assert curve[1].l1_gap == pytest.approx(0.0, abs=1e-15)


def test_refinement_monotone_random_64():
    rng = np.random.default_rng(77)
    space = FiniteProbSpace.uniform(64)
    x = RandomVariable(space, rng.normal(scale=2.0, size=64))
    rho = RiskFunctional.higher_order(2.0, 2.0)
    curve = refinement_convergence(rho, x, depth=8)
    values = [pt.value for pt in curve]
    for nxt, cur in zip(values[1:], values):
        assert nxt >= cur - 1e-9
    assert abs(values[-1] - rho(x)) <= 1e-7
    assert curve[-1].l1_gap <= 1e-12


# ---------------------------------------------------------------------------
# the constructive bounded sequence
# ---------------------------------------------------------------------------

def test_lemma21_constant_is_exact():
    space = FiniteProbSpace.uniform(64)
    x = RandomVariable.constant(space, 5.0)
    for part, k1, eps in lemma21_sequence(x, 8):
        ce = cond_exp(x, part)
        assert np.array_equal(ce.values, x.values)


def test_lemma21_normal_bounds():
    x = discretized_normal(2000)
    delta = discretization_slack(x)
    seq = lemma21_sequence(x, 10)
    part, k1, eps = seq[-1]  # n = 10
    assert k1 == 1.0  # P(|N| <= 1) ~ 0.68 > 1/2
    ce = cond_exp(x, part)
    assert np.all(np.abs(ce.values) <= np.abs(x.values) + k1 + 1.0 + delta)
    assert (ce - x).l1() < eps * (3.0 + 2.0 * k1) + delta


def test_lemma21_two_point_bounds():
    x = two_point(1000)
    delta = discretization_slack(x)
    seq = {round(1.0 / eps): (part, k1, eps) for part, k1, eps in lemma21_sequence(x, 10)}
    for n in (2, 5, 10):
        part, k1, eps = seq[n]
        ce = cond_exp(x, part)
        assert (ce - x).l1() < (3.0 + 2.0 * k1) / n + delta


def test_lemma21_gap_vanishes_with_n():
    x = discretized_lognormal(1500)
    gaps = []
    for part, k1, eps in lemma21_sequence(x, 12):
        gaps.append((cond_exp(x, part) - x).l1())
        # uniform domination at every n
        delta = discretization_slack(x)
        assert np.all(np.abs(cond_exp(x, part).values) <= np.abs(x.values) + k1 + 1.0 + delta)
    assert gaps[-1] <= gaps[0]
    assert gaps[-1] < 0.75  # eps * (3 + 2k1) at n = 12 with k1 = 2


def reference_lemma21_integers(x, n_max):
    """k1 and the k2 of each n in 2..n_max, counted up one integer at a time."""
    absx, probs = np.abs(x.values), x.space.probs
    k1 = 0
    while x.space.expect(absx <= k1) <= 0.5:
        k1 += 1
    k2s, k2 = [], k1 + 1
    for n in range(2, n_max + 1):
        while float(probs @ (absx * (absx > k2))) >= 1.0 / n:
            k2 += 1
        k2s.append(k2)
    return k1, k2s


@pytest.mark.parametrize("scale", [0.01, 1.0, 37.0, 400.0])
def test_lemma21_integers_match_counting_by_one(scale):
    rng = np.random.default_rng(21)
    n = 800
    x = RandomVariable(FiniteProbSpace.from_weights(rng.gamma(2.0, size=n)),
                       rng.standard_t(3, size=n) * scale)
    k1, k2s = reference_lemma21_integers(x, 12)
    absx = np.abs(x.values)
    for (part, got_k1, eps), k2 in zip(lemma21_sequence(x, 12), k2s):
        assert got_k1 == k1
        # the closing cell is the carved set A inside {|X| <= k1}, which holds
        # the first such atom, and the tail above k2
        closing = part.labels == part.labels[np.flatnonzero(absx <= k1)[0]]
        assert np.array_equal(closing & (absx > k1), absx > k2)


def test_lemma21_takes_logarithmically_many_passes_on_a_large_unit(monkeypatch):
    rng = np.random.default_rng(7)
    n = 2000
    space = FiniteProbSpace.uniform(n)
    x = RandomVariable(space, rng.standard_t(3, size=n) * 1e9)
    passes = []
    inner = FiniteProbSpace.expect
    monkeypatch.setattr(FiniteProbSpace, "expect", lambda self, v: passes.append(None) or inner(self, v))
    (_, k1, _), = lemma21_sequence(x, 2)
    assert k1 > 1e8
    assert len(passes) <= 2 * np.log2(k1) + 2


@pytest.mark.parametrize("scale", [1e15, 1e17, 1e18])
def test_lemma21_value_bins_stay_narrow_past_int64(scale):
    # (X - min X) / (eps / 2) passes 2^63 from scale 1e17 here; the bins must
    # not wrap around, so every cell but the closing one spans < eps / 2
    rng = np.random.default_rng(0)
    x = RandomVariable(FiniteProbSpace.uniform(400), rng.standard_t(3, size=400) * scale)
    for part, _, eps in lemma21_sequence(x, 20):
        hi = np.full(part.n_cells, -np.inf)
        lo = np.full(part.n_cells, np.inf)
        np.maximum.at(hi, part.labels, x.values)
        np.minimum.at(lo, part.labels, x.values)
        assert np.count_nonzero(hi - lo >= eps / 2.0) <= 1
    assert part.n_cells == 381  # every value left out of the closing cell has its own bin


def test_lemma21_rejects_coarse_space(x1234):
    with pytest.raises(SpaceTooCoarseError):
        lemma21_sequence(x1234, 5)


def test_lemma21_nonuniform_fine_space():
    # the construction never uses uniformity, only small atoms
    rng = np.random.default_rng(44)
    n = 1500
    space = FiniteProbSpace.from_weights(rng.uniform(0.5, 1.5, size=n))
    x = RandomVariable(space, rng.normal(scale=1.5, size=n))
    delta = discretization_slack(x)
    for part, k1, eps in lemma21_sequence(x, 12):
        ce = cond_exp(x, part)
        assert np.all(np.abs(ce.values) <= np.abs(x.values) + k1 + 1.0 + delta)
        assert (ce - x).l1() < eps * (3.0 + 2.0 * k1) + delta


# ---------------------------------------------------------------------------
# shuffle + quasiconvexity mechanism for law-invariant functionals
# ---------------------------------------------------------------------------

@given(variable_with_partition(uniform_only=True, lo=-6, hi=6))
@settings(max_examples=60, deadline=None)
def test_shuffle_average_never_increases_avar(xp):
    x, p = xp
    mixed = cell_shuffle_average(x, p, full_cycle(p))
    for alpha in (0.3, 0.7, 1.0):
        assert avar(mixed, alpha) <= avar(x, alpha) + 1e-9
