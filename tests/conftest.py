import math

import numpy as np
import pytest
from hypothesis import strategies as st

from scenrisk import FiniteProbSpace, OrliczFunction, ParameterError, Partition, RandomVariable


@st.composite
def spaces(draw, min_atoms=1, max_atoms=10, uniform_only=False):
    n = draw(st.integers(min_atoms, max_atoms))
    if uniform_only or draw(st.booleans()):
        return FiniteProbSpace.uniform(n)
    w = draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    return FiniteProbSpace.from_weights(np.asarray(w))


@st.composite
def variables(draw, space=None, lo=-20.0, hi=20.0, **space_kwargs):
    if space is None:
        space = draw(spaces(**space_kwargs))
    vals = draw(
        st.lists(
            st.floats(lo, hi, allow_nan=False, allow_infinity=False),
            min_size=space.atom_count,
            max_size=space.atom_count,
        )
    )
    return RandomVariable(space, np.asarray(vals))


@st.composite
def partitions(draw, space):
    n = space.atom_count
    labels = draw(st.lists(st.integers(0, max(0, n - 1)), min_size=n, max_size=n))
    return Partition.from_labels(space, np.asarray(labels))


@st.composite
def variable_with_partition(draw, **space_kwargs):
    x = draw(variables(**space_kwargs))
    return x, draw(partitions(x.space))


@st.composite
def nested_partitions(draw, space):
    """(fine, coarse) pair with coarse coarser than fine."""
    fine = draw(partitions(space))
    k = fine.n_cells
    merge = draw(st.lists(st.integers(0, max(0, k - 1)), min_size=k, max_size=k))
    return fine, Partition.from_labels(space, np.asarray(merge)[fine.labels])


def generic_orlicz(name, fn, array_fn=None):
    """An OrliczFunction outside the built-in kinds, built directly: the norms
    meet it under a name they do not dispatch on, so its Luxemburg norm is
    bisected and its Orlicz norm refused.  ``array_fn`` defaults to ``fn``
    mapped over the array; it has no conjugate and an unknown (nan) slope."""
    if array_fn is None:
        array_fn = np.vectorize(fn, otypes=[float])
    return OrliczFunction(name=name, params=(), _evaluate=fn, _evaluate_array=array_fn,
                          _conjugate_factory=None, slope_at_infinity=math.nan)


@pytest.fixture
def uniform4():
    return FiniteProbSpace.uniform(4)


@pytest.fixture
def x1234(uniform4):
    return RandomVariable(uniform4, np.array([1.0, 2.0, 3.0, 4.0]))


@pytest.fixture
def coin():
    space = FiniteProbSpace.uniform(2)
    return RandomVariable(space, np.array([-1.0, 1.0]))


def reference_is_refinement_of(fine_cells, coarse_cells):
    """True when every cell of ``fine_cells`` sits inside one of ``coarse_cells``."""
    owner = {}
    for k, cell in enumerate(coarse_cells):
        for i in cell:
            owner[i] = k
    return all(len({owner[i] for i in cell}) == 1 for cell in fine_cells)


# ---------------------------------------------------------------------------
# within-cell cyclic shuffles: the mechanism behind the extension identity for
# law-invariant functionals, kept here as a reference (the package never
# shuffles)
# ---------------------------------------------------------------------------

def is_uniform(space, tol=1e-12):
    p = space.probs
    return float(p.max() - p.min()) <= tol * float(p.max())


def full_cycle(p):
    """Smallest shift count after which every cell has cycled (lcm of sizes)."""
    return math.lcm(*p.cell_sizes.tolist())


def cell_shuffle_average(x, p, j):
    """Average of the first ``j`` simultaneous within-cell cyclic shifts of ``x``.

    Requires a uniform space: each individual shift is then a permutation of
    atoms, hence has the same distribution as ``x``.  A full cycle
    (``j`` = lcm of cell sizes) reproduces ``cond_exp(x, p)``.
    """
    if not is_uniform(x.space):
        raise ParameterError("cell_shuffle_average needs equal atom probabilities")
    full = full_cycle(p)
    if not (1 <= j <= full):
        raise ParameterError(f"j must lie in [1, {full}] (lcm of cell sizes)")
    # shift r gives the atom at position t of its cell the value at position
    # (t + r) mod size, as np.roll(cell, -r) does
    order, sizes, starts = p._by_cell()
    cell = p.labels[order]
    start, size = starts[cell], sizes[cell]
    pos = np.arange(order.size) - start
    acc = np.zeros(x.space.atom_count)
    for r in range(j):
        acc[order] += x.values[order[start + (pos + r) % size]]
    return RandomVariable(x.space, acc / j)
