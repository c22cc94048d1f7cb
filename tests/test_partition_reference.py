"""Label-array partition kernels against the kernels they replaced.

The references below keep the earlier representations: a partition is the
sorted tuple of its sorted cells, and every kernel loops over the cells; labels
are renumbered through one ``np.unique`` sort of the labels.  They are slow and
exact, and the fast kernels in ``prob_core`` must agree with them.
"""

import math
from statistics import NormalDist

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from scenrisk import (
    FiniteProbSpace,
    Partition,
    RandomVariable,
    cond_exp,
    dyadic_chain,
    lemma21_sequence,
    random_partition,
)

from conftest import cell_shuffle_average, full_cycle, is_uniform, spaces


# ---------------------------------------------------------------------------
# the tuple-of-cells references
# ---------------------------------------------------------------------------

def reference_cells(labels):
    """Group atom indices by label, then sort each cell and the cells."""
    cells = {}
    for i, lab in enumerate(labels):
        cells.setdefault(lab, []).append(i)
    return tuple(sorted(tuple(sorted(c)) for c in cells.values()))


def reference_labels(labels):
    """Renumber by first occurrence through one sort of the labels."""
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    rank = np.empty(first.size, dtype=np.intp)
    rank[np.argsort(first)] = np.arange(first.size)
    return rank[inverse]


def reference_random_partition(space, rng, max_cells=8):
    """random_partition with its emptiness test through ``np.unique``."""
    n = space.atom_count
    if n == 1:
        return np.zeros(1, dtype=np.intp)
    m = int(rng.integers(2, min(max_cells, n) + 1))
    while True:
        labels = rng.integers(0, m, size=n)
        if np.unique(labels).size == m:
            return reference_labels(labels)


def reference_dyadic_labels(x, depth):
    """The levels of dyadic_chain as bins of the left class mass, per atom."""
    _, inverse = np.unique(x.values, return_inverse=True)
    class_prob = np.bincount(inverse, weights=x.space.probs)
    exact = min(depth, max(1, math.ceil(math.log2(1.0 / class_prob.min())) + 1))
    left_cum = np.concatenate([[0.0], np.cumsum(class_prob)[:-1]])
    levels = [reference_labels(np.floor(left_cum * 2.0 ** j).astype(np.int64)[inverse])
              for j in range(1, exact + 1)]
    return levels + [levels[-1]] * (depth - exact)


def reference_cond_exp(x, cells):
    probs = x.space.probs
    out = np.empty(x.space.atom_count)
    for cell in cells:
        idx = np.asarray(cell, dtype=int)
        w = probs[idx]
        out[idx] = float(w @ x.values[idx]) / float(w.sum())
    return out


def reference_shuffle(x, cells, j):
    acc = np.zeros(x.space.atom_count)
    idx_cells = [np.asarray(c, dtype=int) for c in cells]
    for r in range(j):
        for idx in idx_cells:
            acc[idx] += x.values[np.roll(idx, -r)]
    return acc / j


def reference_lemma21_cells(x, n_max):
    """The cells of lemma21_sequence as the tuple construction built them."""
    space, probs, vals = x.space, x.space.probs, x.values
    absx = np.abs(vals)
    k1 = 0
    while space.expect(absx <= k1) <= 0.5:
        k1 += 1
    out = []
    small = np.flatnonzero(absx <= k1)
    for n in range(2, n_max + 1):
        eps = 1.0 / n
        cum = np.cumsum(probs[small])
        stop = int(np.searchsorted(cum, eps, side="left")) + 1
        a_idx = small[:stop]
        k2 = k1 + 1
        while float(probs @ (absx * (absx > k2))) >= eps:
            k2 += 1
        in_a = np.zeros(space.atom_count, dtype=bool)
        in_a[a_idx] = True
        omega_prime = (absx <= k2) & ~in_a
        cells = []
        op_idx = np.flatnonzero(omega_prime)
        if op_idx.size:
            v = vals[op_idx]
            bins = np.floor((v - v.min()) / (eps / 2.0)).astype(int)
            for b in np.unique(bins):
                cells.append(tuple(op_idx[bins == b].tolist()))
        closing = np.flatnonzero(~omega_prime)
        if closing.size:
            cells.append(tuple(closing.tolist()))
        out.append(tuple(sorted(cells)))
    return out


# ---------------------------------------------------------------------------
# the property
# ---------------------------------------------------------------------------

@st.composite
def space_values_and_two_labelings(draw):
    space = draw(spaces(min_atoms=1, max_atoms=12))
    n = space.atom_count
    vals = draw(st.lists(st.floats(-50.0, 50.0), min_size=n, max_size=n))
    ids = st.integers(-3, max(0, n - 1))
    a = draw(st.lists(ids, min_size=n, max_size=n))
    b = draw(st.one_of(
        st.lists(ids, min_size=n, max_size=n),
        st.permutations(range(-3, n)).map(lambda perm: [perm[i + 3] for i in a]),
    ))
    return RandomVariable(space, np.asarray(vals)), a, b


@given(space_values_and_two_labelings())
@settings(max_examples=300, deadline=None)
def test_label_kernels_match_the_cell_references(case):
    x, a, b = case
    space = x.space
    p, q = Partition.from_labels(space, a), Partition.from_labels(space, b)
    pc, qc = reference_cells(a), reference_cells(b)

    assert p.cells == pc and q.cells == qc
    assert p.n_cells == len(pc)
    assert (p == q) == (pc == qc)

    tol = 1e-12 * max(1.0, float(np.abs(x.values).max()))
    assert np.max(np.abs(cond_exp(x, p).values - reference_cond_exp(x, pc))) <= tol

    assert full_cycle(p) == math.lcm(*(len(c) for c in pc))
    if is_uniform(space):
        for j in range(1, full_cycle(p) + 1):
            assert np.array_equal(cell_shuffle_average(x, p, j).values,
                                  reference_shuffle(x, pc, j))


@st.composite
def labelings(draw):
    """One label per atom, of every kind Partition accepts."""
    n = draw(st.integers(1, 64))

    def ints(lo, hi, dtype=np.int64):
        return np.array(draw(st.lists(st.integers(lo, hi), min_size=n, max_size=n)),
                        dtype=dtype)

    offset = draw(st.integers(-(2 ** 62), 0))
    span = draw(st.integers(0, 8 * n))  # either side of the dense range
    kind = draw(st.sampled_from(["offset", "sparse", "int8", "uint8", "uint64",
                                 "uint64_top", "bool", "float", "str", "canonical",
                                 "finest"]))
    if kind == "offset":
        return ints(offset, offset + span)
    if kind == "sparse":
        return ints(-(2 ** 63), 2 ** 63 - 1)
    if kind == "int8":  # differences above 127 overflow int8
        return ints(-128, min(127, span - 128), np.int8)
    if kind == "uint8":
        return ints(0, 255, np.uint8)
    if kind == "uint64":
        return ints(0, span, np.uint64)
    if kind == "uint64_top":  # above the int64 range
        return ints(2 ** 64 - 1 - span, 2 ** 64 - 1, np.uint64)
    if kind == "bool":
        return ints(0, 1).astype(bool)
    if kind == "float":
        return np.array(draw(st.lists(st.sampled_from([-0.5, 0.0, 1e-300, 2.5, 1e300]),
                                      min_size=n, max_size=n)))
    if kind == "str":
        return np.array(draw(st.lists(st.sampled_from(["a", "b", "cc", ""]),
                                      min_size=n, max_size=n)))
    if kind == "canonical":
        return reference_labels(ints(0, span))
    return np.arange(n)


@given(labelings())
@settings(max_examples=400, deadline=None)
def test_labels_match_the_sorted_renumbering(labels):
    before = labels.copy()
    got = Partition(FiniteProbSpace.uniform(labels.size), labels).labels
    assert got.dtype == np.intp and not got.flags.writeable
    assert np.array_equal(got, reference_labels(labels))
    assert np.array_equal(labels, before) and labels.flags.writeable


def test_random_partition_matches_the_unique_acceptance_loop():
    for n in (1, 2, 3, 5, 9, 40, 3000):
        space = FiniteProbSpace.uniform(n)
        for seed in (0, 7, 1729):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(6):
                got = random_partition(space, rng).labels
                assert np.array_equal(got, reference_random_partition(space, ref_rng))
            assert rng.integers(2 ** 62) == ref_rng.integers(2 ** 62)  # same draws taken


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_dyadic_chain_matches_the_per_atom_bins(data):
    space = data.draw(spaces(min_atoms=1, max_atoms=30))
    grid = data.draw(st.sampled_from([0.5, 0.1, 1e-3]))  # coarse grids tie values
    vals = data.draw(st.lists(st.integers(-20, 20), min_size=space.atom_count,
                              max_size=space.atom_count))
    x = RandomVariable(space, np.asarray(vals) * grid)
    depth = data.draw(st.integers(1, 14))
    got = [p.labels for p in dyadic_chain(space, x, depth)]
    assert len(got) == depth
    for g, want in zip(got, reference_dyadic_labels(x, depth)):
        assert np.array_equal(g, want)


def test_dyadic_chain_matches_the_per_atom_bins_on_a_large_book():
    rng = np.random.default_rng(12)
    n = 30_000
    space = FiniteProbSpace.from_weights(rng.uniform(0.5, 1.5, size=n))
    for values in (rng.standard_t(4, size=n), np.round(rng.normal(size=n), 2)):
        x = RandomVariable(space, values)
        got = [p.labels for p in dyadic_chain(space, x, 12)]
        for g, want in zip(got, reference_dyadic_labels(x, 12)):
            assert np.array_equal(g, want)


def test_lemma21_cells_match_the_tuple_construction():
    for seed in (3, 17):
        rng = np.random.default_rng(seed)
        n = 1200
        space = FiniteProbSpace.from_weights(rng.uniform(0.5, 1.5, size=n))
        x = RandomVariable(space, rng.standard_t(4, size=n) * 1.5)
        got = [part.cells for part, _, _ in lemma21_sequence(x, 12)]
        assert got == reference_lemma21_cells(x, 12)


# ---------------------------------------------------------------------------
# accuracy of the cell sums
# ---------------------------------------------------------------------------

def test_cond_exp_sums_large_cells_pairwise():
    # the normal grid of scripts/convergence_study.py at 10^6 atoms, split
    # into halves of 5 * 10^5 atoms; a sum in atom order is off by ~1e-11
    n = 1_000_000
    nd = NormalDist()
    x = RandomVariable(FiniteProbSpace.uniform(n),
                       np.array([nd.inv_cdf((i + 0.5) / n) for i in range(n)]))
    half = n // 2
    p = Partition.from_labels(x.space, np.arange(n) >= half)
    ce = cond_exp(x, p).values
    for cell in (slice(0, half), slice(half, n)):
        exact = math.fsum(x.values[cell].tolist()) / half
        assert np.all(np.abs(ce[cell] - exact) <= 1e-14 * abs(exact))
