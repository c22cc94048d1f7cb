import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenrisk import (
    Density,
    FiniteProbSpace,
    MixingMeasure,
    ParameterError,
    Partition,
    RandomVariable,
    ScenRiskError,
    SpaceMismatchError,
    cond_exp,
    dyadic_chain,
    kusuoka_constraint,
    power,
)

from conftest import (cell_shuffle_average, full_cycle, nested_partitions,
                      reference_is_refinement_of, variable_with_partition, variables)

ATOL = 1e-12


COIN_SPACE = FiniteProbSpace.uniform(2)
BAD_INPUTS = {
    "space_empty": lambda: FiniteProbSpace(np.array([])),
    "space_nan": lambda: FiniteProbSpace(np.array([0.5, np.nan])),
    "space_zero_atom": lambda: FiniteProbSpace(np.array([1.0, 0.0])),
    "space_sum": lambda: FiniteProbSpace(np.array([0.5, 0.6])),
    "space_uniform_zero": lambda: FiniteProbSpace.uniform(0),
    "space_weights": lambda: FiniteProbSpace.from_weights([1.0, -1.0]),
    "variable_shape": lambda: RandomVariable(COIN_SPACE, np.array([1.0])),
    "variable_inf": lambda: RandomVariable(COIN_SPACE, np.array([1.0, np.inf])),
    "partition_shape": lambda: Partition(COIN_SPACE, np.array([0, 0, 1])),
    "density_shape": lambda: Density(COIN_SPACE, np.array([1.0])),
    "density_negative": lambda: Density(COIN_SPACE, np.array([2.5, -0.5])),
    "density_mass": lambda: Density(COIN_SPACE, np.array([1.0, 2.0])),
    "mixing_shape": lambda: MixingMeasure(np.array([0.5]), np.array([0.5, 0.5])),
    "mixing_levels": lambda: MixingMeasure(np.array([0.5, 0.5]), np.array([0.5, 0.5])),
    "mixing_negative": lambda: MixingMeasure(np.array([0.5, 1.0]), np.array([1.5, -0.5])),
    "mixing_mass": lambda: MixingMeasure(np.array([0.5, 1.0]), np.array([0.5, 0.6])),
    "kusuoka_q": lambda: kusuoka_constraint(MixingMeasure([0.5], [1.0]), 1.0),
    "orlicz_negative_argument": lambda: power(2)(-1.0),
}


@pytest.mark.parametrize("build", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_input_checks_raise_scenrisk_errors(build):
    with pytest.raises(ScenRiskError):
        build()


# ---------------------------------------------------------------------------
# value at risk: the sorted read-off against an independent oracle that
# enumerates thresholds literally (the package takes AVaR directly)
# ---------------------------------------------------------------------------

def quantile_var(x, t):
    """Value at risk at level ``t``: inf of {m : P(X + m < 0) <= t}, read off
    the sorted distinct values; no interpolation, piecewise constant in ``t``."""
    if not (0.0 < t <= 1.0):
        raise ParameterError("t must lie in (0, 1]")
    distinct, inverse = np.unique(x.values, return_inverse=True)
    class_prob = np.bincount(inverse, weights=x.space.probs)
    below = np.concatenate([[0.0], np.cumsum(class_prob)[:-1]])
    k = int(np.searchsorted(below, t, side="right")) - 1
    return float(-distinct[k])


def var_enumeration_oracle(x, t):
    """inf{m : P(X + m < 0) <= t} scanned over the candidate thresholds
    m = -v for the distinct values v (plus a sentinel above the maximum)."""
    values = np.sort(np.unique(x.values))
    candidates = [-v for v in values[::-1]]
    feasible = []
    for m in candidates:
        p_below = float(x.space.probs @ (x.values + m < 0))
        if p_below <= t:
            feasible.append(m)
    return min(feasible)


# frozen via the oracle: for (1,2,3,4)/uniform it returns -1 at t=0.2, -2 at t=0.3
def test_quantile_var_derived_examples(x1234):
    assert var_enumeration_oracle(x1234, 0.2) == -1.0
    assert var_enumeration_oracle(x1234, 0.3) == -2.0
    assert quantile_var(x1234, 0.2) == pytest.approx(-1.0, abs=ATOL)
    assert quantile_var(x1234, 0.3) == pytest.approx(-2.0, abs=ATOL)


def test_quantile_var_constant():
    space = FiniteProbSpace.uniform(3)
    x = RandomVariable.constant(space, 2.5)
    for t in (0.1, 0.5, 1.0):
        assert quantile_var(x, t) == pytest.approx(-2.5, abs=ATOL)


@given(variable_with_partition(max_atoms=8))
@settings(max_examples=150, deadline=None)
def test_quantile_matches_oracle(xp):
    x, _ = xp
    for t in (0.1, 0.35, 0.7, 1.0):
        assert quantile_var(x, t) == pytest.approx(var_enumeration_oracle(x, t), abs=ATOL)


def test_quantile_var_rejects_bad_level(x1234):
    with pytest.raises(ValueError):
        quantile_var(x1234, 0.0)
    with pytest.raises(ValueError):
        quantile_var(x1234, 1.5)


@given(variables(max_atoms=8))
@settings(max_examples=80, deadline=None)
def test_quantile_var_nonincreasing_in_level(x):
    levels = np.linspace(0.01, 1.0, 23)
    vars_ = [quantile_var(x, float(t)) for t in levels]
    for nxt, cur in zip(vars_[1:], vars_):
        assert nxt <= cur


def test_quantile_var_with_ties():
    space = FiniteProbSpace.uniform(6)
    x = RandomVariable(space, np.array([1.0, 1.0, 1.0, 2.0, 2.0, 3.0]))
    # P(X < 1) = 0, P(X < 2) = 1/2, P(X < 3) = 5/6
    assert quantile_var(x, 0.4) == -1.0
    assert quantile_var(x, 0.5) == -2.0
    assert quantile_var(x, 0.9) == -3.0


# ---------------------------------------------------------------------------
# space and variable validation
# ---------------------------------------------------------------------------

def test_space_rejects_bad_probabilities():
    with pytest.raises(ValueError):
        FiniteProbSpace(np.array([0.5, 0.0, 0.5]))
    with pytest.raises(ValueError):
        FiniteProbSpace(np.array([0.6, -0.1, 0.5]))
    with pytest.raises(ValueError):
        FiniteProbSpace(np.array([0.5, 0.5 - 1e-6]))  # sum off by 1e-6: rejected


def test_space_normalizes_tiny_drift():
    space = FiniteProbSpace(np.array([0.5, 0.5 - 1e-10]))
    assert space.probs.sum() == pytest.approx(1.0, abs=1e-15)


def test_variable_rejects_wrong_length_and_nonfinite(uniform4):
    with pytest.raises(ValueError):
        RandomVariable(uniform4, np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        RandomVariable(uniform4, np.array([1.0, np.inf, 0.0, 0.0]))


def test_partition_must_cover_disjointly(uniform4):
    with pytest.raises(ValueError):
        Partition.from_labels(uniform4, [0, 0, 1])  # too short
    with pytest.raises(ValueError):
        Partition.from_labels(uniform4, [0, 0, 1, 1, 2])  # too long
    with pytest.raises(ValueError):
        Partition.from_labels(uniform4, [[0, 0], [1, 1]])  # 2-d
    with pytest.raises(ValueError):
        Partition.from_labels(uniform4, [[0, 0, 1, 1]])  # 2-d, one row


@pytest.mark.parametrize("labels", [[1, "a"], [None, None]])
def test_partition_refuses_labels_that_cannot_be_ordered(labels):
    with pytest.raises(ParameterError, match="comparable"):
        Partition(FiniteProbSpace.uniform(2), np.array(labels, dtype=object))


def test_partition_labels_are_canonical_and_read_only():
    space = FiniteProbSpace.uniform(6)
    base = Partition.from_labels(space, [0, 1, 0, 2, 1, 2])
    same = [
        Partition.from_labels(space, [5, 3, 5, 0, 3, 0]),  # permuted ids
        Partition.from_labels(space, [-4, -1, -4, -9, -1, -9]),
        Partition.from_labels(space, ["b", "a", "b", "c", "a", "c"]),
    ]
    for p in same:
        assert p == base
        assert hash(p) == hash(base)
        assert p.cells == base.cells == ((0, 2), (1, 4), (3, 5))
        assert np.array_equal(p.labels, [0, 1, 0, 2, 1, 2])
    with pytest.raises(ValueError):
        base.labels[0] = 1


def test_partition_api_used_by_the_benchmark():
    # perfbench wraps from_labels through Partition.__dict__ and reads cells
    assert isinstance(Partition.__dict__["from_labels"], classmethod)
    space = FiniteProbSpace.uniform(7)
    cells = Partition.from_labels(space, np.array([7, 3, 7, 1, 3, 9, 1])).cells
    assert cells == ((0, 2), (1, 4), (3, 6), (5,))
    assert sorted(i for c in cells for i in c) == list(range(7))
    assert all(type(i) is int for c in cells for i in c)


@pytest.mark.parametrize("n_cells", [1, 255, 256, 257, 65_535, 65_536, 65_537])
def test_cell_order_matches_the_wide_label_sort(n_cells):
    # the cell order sorts narrowed labels; at the uint8 and uint16 limits it
    # must still be the stable sort of the int64 labels
    rng = np.random.default_rng(n_cells)
    n = n_cells + 1_000
    labels = rng.permutation(np.concatenate([np.arange(n_cells), rng.integers(0, n_cells, 1_000)]))
    part = Partition.from_labels(FiniteProbSpace.uniform(n), labels)
    assert part.n_cells == n_cells
    order = part._by_cell()[0]
    assert np.array_equal(order, np.argsort(part.labels.astype(np.int64), kind="stable"))
    assert part.labels.dtype == np.intp


# ---------------------------------------------------------------------------
# conditional expectation
# ---------------------------------------------------------------------------

def test_cond_exp_examples(x1234, uniform4):
    finest = Partition.finest(uniform4)
    assert np.allclose(cond_exp(x1234, finest).values, [1, 2, 3, 4], atol=ATOL)
    trivial = Partition.trivial(uniform4)
    assert np.allclose(cond_exp(x1234, trivial).values, [2.5] * 4, atol=ATOL)
    pairs = Partition.from_labels(uniform4, [0, 0, 1, 1])
    assert np.allclose(cond_exp(x1234, pairs).values, [1.5, 1.5, 3.5, 3.5], atol=ATOL)


def test_cond_exp_weighted_space():
    space = FiniteProbSpace(np.array([0.5, 0.3, 0.2]))
    x = RandomVariable(space, np.array([10.0, 0.0, -5.0]))
    p = Partition.from_labels(space, [0, 1, 1])
    # cell {1,2}: (0.3*0 + 0.2*(-5)) / 0.5 = -2
    assert np.allclose(cond_exp(x, p).values, [10.0, -2.0, -2.0], atol=1e-12)


@given(variable_with_partition())
@settings(max_examples=100, deadline=None)
def test_cond_exp_carries_one_law_point_per_cell(xp):
    x, p = xp
    ce = cond_exp(x, p)
    values, probs = ce.law()
    assert len(values) == len(probs) == p.n_cells
    assert np.array_equal(values[p.labels], ce.values)
    assert abs(probs.sum() - 1.0) <= 1e-12


def test_law_of_an_atom_level_variable_is_the_atom_pair(x1234):
    assert x1234.law()[0] is x1234.values and x1234.law()[1] is x1234.space.probs
    ce = cond_exp(x1234, Partition.from_labels(x1234.space, [0, 0, 1, 1]))
    shifted = ce + 0.0  # arithmetic builds a new variable without the cell law
    values, probs = shifted.law()
    assert values is shifted.values and probs is shifted.space.probs


def test_random_variable_takes_no_law_argument(x1234):
    law = (np.array([2.5]), np.array([1.0]))
    with pytest.raises(TypeError):
        RandomVariable(x1234.space, x1234.values, law)
    with pytest.raises(TypeError):
        RandomVariable(x1234.space, x1234.values, _law=law)


def test_cond_exp_space_mismatch(x1234):
    other = Partition.trivial(FiniteProbSpace.uniform(3))
    with pytest.raises(SpaceMismatchError):
        cond_exp(x1234, other)
    with pytest.raises(SpaceMismatchError):
        x1234 + RandomVariable.constant(FiniteProbSpace.uniform(3), 1.0)


@given(variable_with_partition())
@settings(max_examples=200, deadline=None)
def test_cond_exp_contracts_and_preserves_mean(xp):
    x, p = xp
    ce = cond_exp(x, p)
    assert ce.l1() <= x.l1() + 1e-12
    assert abs(ce.mean() - x.mean()) <= 1e-12


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_tower_property(data):
    x = data.draw(variables(max_atoms=8))
    fine, coarse = data.draw(nested_partitions(x.space))
    assert reference_is_refinement_of(fine.cells, coarse.cells)
    direct = cond_exp(x, coarse)
    towered = cond_exp(cond_exp(x, fine), coarse)
    assert np.max(np.abs(direct.values - towered.values)) <= 1e-12


@given(variable_with_partition())
@settings(max_examples=100, deadline=None)
def test_jensen_cellwise(xp):
    x, p = xp
    for phi in (np.abs, np.square):
        lhs = phi(cond_exp(x, p).values)
        rhs = cond_exp(RandomVariable(x.space, phi(x.values)), p).values
        assert np.all(lhs <= rhs + 1e-9 * (1.0 + np.abs(rhs)))


# ---------------------------------------------------------------------------
# dyadic chain
# ---------------------------------------------------------------------------

def test_dyadic_chain_constant(uniform4):
    x = RandomVariable.constant(uniform4, 3.0)
    for p in dyadic_chain(uniform4, x, 4):
        assert p == Partition.trivial(uniform4)


def test_dyadic_chain_separates_four_values(x1234, uniform4):
    chain = dyadic_chain(uniform4, x1234, 2)
    assert chain[1] == Partition.finest(uniform4)  # value classes are singletons


def test_dyadic_chain_is_refining_and_gap_monotone():
    rng = np.random.default_rng(20240501)
    space = FiniteProbSpace.uniform(64)
    x = RandomVariable(space, rng.normal(scale=3.0, size=64))
    chain = dyadic_chain(space, x, 8)
    for fine, coarse in zip(chain[1:], chain[:-1]):
        assert reference_is_refinement_of(fine.cells, coarse.cells)
    gaps = [(cond_exp(x, p) - x).l1() for p in chain]
    for g_next, g in zip(gaps[1:], gaps):
        assert g_next <= g + 1e-12
    assert gaps[-1] <= 1e-12  # depth 8 separates 64 distinct values


def test_dyadic_chain_past_depth_62_stays_refining():
    # bins from level 64 on overflowed int64 and broke the nesting;
    # from the separating depth on every level is the value-class partition
    rng = np.random.default_rng(70)
    space = FiniteProbSpace.from_weights(rng.uniform(0.2, 1.0, size=16))
    x = RandomVariable(space, rng.normal(size=16).round(1))
    chain = dyadic_chain(space, x, 70)
    assert len(chain) == 70
    for fine, coarse in zip(chain[1:], chain[:-1]):
        assert reference_is_refinement_of(fine.cells, coarse.cells)
    _, classes = np.unique(x.values, return_inverse=True)
    assert chain[-1] == Partition.from_labels(space, classes)


def test_dyadic_chain_refuses_books_needing_more_than_62_levels():
    space = FiniteProbSpace(np.array([1e-20, 1.0]))  # separates at level 68
    x = RandomVariable(space, np.array([0.0, 1.0]))
    assert len(dyadic_chain(space, x, 62)) == 62
    with pytest.raises(ParameterError, match="62"):
        dyadic_chain(space, x, 63)


# ---------------------------------------------------------------------------
# cell shuffle average
# ---------------------------------------------------------------------------

def test_shuffle_full_cycle_is_cond_exp(x1234, uniform4):
    p = Partition.from_labels(uniform4, [0, 0, 1, 1])
    out = cell_shuffle_average(x1234, p, full_cycle(p))
    assert np.max(np.abs(out.values - cond_exp(x1234, p).values)) <= 1e-12


def test_shuffle_single_is_identity(x1234, uniform4):
    p = Partition.from_labels(uniform4, [0, 0, 1, 1])
    out = cell_shuffle_average(x1234, p, 1)
    assert np.array_equal(out.values, x1234.values)


def _single_shift(x, p, r):
    out = np.empty_like(x.values)
    for cell in p.cells:
        idx = np.asarray(cell)
        out[idx] = x.values[np.roll(idx, -r)]
    return out


def test_shuffle_preserves_distribution():
    rng = np.random.default_rng(8)
    space = FiniteProbSpace.uniform(8)
    x = RandomVariable(space, rng.normal(size=8))
    p = Partition.from_labels(space, [0, 0, 0, 1, 1, 1, 1, 2])
    cycle = full_cycle(p)
    # each individual shift is a permutation: sorted multisets agree
    shifts = [_single_shift(x, p, r) for r in range(cycle)]
    for s in shifts:
        assert np.array_equal(np.sort(s), np.sort(x.values))
    # and their running averages are what cell_shuffle_average returns
    for j in range(1, cycle + 1):
        expect = np.mean(shifts[:j], axis=0)
        got = cell_shuffle_average(x, p, j)
        assert np.allclose(got.values, expect, atol=1e-12)


def test_shuffle_rejects_nonuniform():
    space = FiniteProbSpace(np.array([0.5, 0.25, 0.25]))
    x = RandomVariable(space, np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ParameterError):
        cell_shuffle_average(x, Partition.trivial(space), 1)


@given(variable_with_partition(uniform_only=True))
@settings(max_examples=100, deadline=None)
def test_shuffle_full_cycle_matches_cond_exp_everywhere(xp):
    x, p = xp
    out = cell_shuffle_average(x, p, full_cycle(p))
    assert np.max(np.abs(out.values - cond_exp(x, p).values)) <= 1e-12
