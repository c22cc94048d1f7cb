import numpy as np
import pytest
from hypothesis import strategies as st

from scenrisk import FiniteProbSpace, Partition, RandomVariable


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
