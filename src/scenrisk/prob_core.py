"""Finite probability spaces, random variables, partitions and conditional expectations.

Everything downstream acts on simple random variables over a finite space of
atoms with strictly positive probabilities.  A partition is one integer label
per atom, numbered by first occurrence; atoms sharing a label form a cell, and
conditioning on a partition replaces values by probability-weighted cell
means.  Nonatomic constructions are emulated by fine discretizations, so
the quality of any coarsening statement carries an explicit atom-size slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ParameterError, SpaceMismatchError, UnsupportedSpaceError

PROB_SUM_TOL = 1e-9


def _frozen(a) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class FiniteProbSpace:
    """Atoms with strictly positive probabilities summing to one.

    Probabilities are renormalized exactly on construction provided their raw
    sum is within ``PROB_SUM_TOL`` of one; anything further off is rejected so
    that bad data cannot hide behind silent normalization.
    """

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("probabilities must form a nonempty 1-d vector")
        if not np.all(np.isfinite(p)):
            raise ValueError("probabilities must be finite")
        if np.any(p <= 0.0):
            raise ValueError("every atom probability must be strictly positive")
        total = float(p.sum())
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ValueError(
                f"probabilities sum to {total!r}; more than {PROB_SUM_TOL} away from 1"
            )
        object.__setattr__(self, "probs", _frozen(p / total))

    @classmethod
    def uniform(cls, n: int) -> "FiniteProbSpace":
        if n < 1:
            raise ValueError("need at least one atom")
        return cls(np.full(n, 1.0 / n))

    @classmethod
    def from_weights(cls, weights) -> "FiniteProbSpace":
        """Build a space from positive weights, normalizing them first.

        Unlike the constructor this accepts any positive total; use it for
        synthetic construction, not for ingesting external data.
        """
        w = np.asarray(weights, dtype=float)
        if np.any(w <= 0.0) or not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite and strictly positive")
        return cls(w / w.sum())

    @property
    def atom_count(self) -> int:
        return int(self.probs.size)

    def expect(self, values) -> float:
        return float(self.probs @ np.asarray(values, dtype=float))

    def is_uniform(self, tol: float = 1e-12) -> bool:
        p = self.probs
        return float(p.max() - p.min()) <= tol * float(p.max())

    def matches(self, other: "FiniteProbSpace") -> bool:
        return self is other or (
            self.atom_count == other.atom_count and np.array_equal(self.probs, other.probs)
        )

    def __repr__(self):  # keep short: spaces can be large
        return f"FiniteProbSpace(atoms={self.atom_count})"


def _require_same_space(a: FiniteProbSpace, b: FiniteProbSpace, what: str):
    if not a.matches(b):
        raise SpaceMismatchError(f"{what}: operands live on different spaces")


@dataclass(frozen=True, eq=False)
class RandomVariable:
    """A real value per atom (a simple random variable, e.g. a monetary position)."""

    space: FiniteProbSpace
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.space.atom_count,):
            raise ValueError(
                f"expected {self.space.atom_count} values, got shape {v.shape}"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("values must be finite")
        object.__setattr__(self, "values", _frozen(v))

    @classmethod
    def constant(cls, space: FiniteProbSpace, value: float) -> "RandomVariable":
        return cls(space, np.full(space.atom_count, float(value)))

    def mean(self) -> float:
        return self.space.expect(self.values)

    def l1(self) -> float:
        """E|X|, the L1 norm on the space."""
        return self.space.expect(np.abs(self.values))

    def abs(self) -> "RandomVariable":
        return RandomVariable(self.space, np.abs(self.values))

    def apply(self, fn: Callable) -> "RandomVariable":
        """Pointwise map; ``fn`` must accept numpy arrays."""
        return RandomVariable(self.space, np.asarray(fn(self.values), dtype=float))

    def min(self) -> float:
        return float(self.values.min())

    def max(self) -> float:
        return float(self.values.max())

    # -- small arithmetic surface used throughout the functional layer --

    def _coerce(self, other):
        if isinstance(other, RandomVariable):
            _require_same_space(self.space, other.space, "arithmetic")
            return other.values
        return float(other)

    def __add__(self, other):
        return RandomVariable(self.space, self.values + self._coerce(other))

    __radd__ = __add__

    def __sub__(self, other):
        return RandomVariable(self.space, self.values - self._coerce(other))

    def __rsub__(self, other):
        return RandomVariable(self.space, self._coerce(other) - self.values)

    def __neg__(self):
        return RandomVariable(self.space, -self.values)

    def __mul__(self, other):
        return RandomVariable(self.space, self.values * self._coerce(other))

    __rmul__ = __mul__

    def __repr__(self):
        return f"RandomVariable({np.array2string(self.values, threshold=8)})"


@dataclass(frozen=True, eq=False)
class Partition:
    """Cells of atoms given by one label per atom; atoms sharing a label form a cell.

    Any labels ``np.unique`` can sort (integers, strings) are accepted and
    renumbered ``0 .. n_cells - 1`` by first occurrence, so cell ``k`` is the
    cell whose smallest atom ranks ``k``-th and partitions compare by content.
    Every cell is nonempty and the cells cover the space disjointly by
    construction.  ``labels`` is read-only, so the hash cannot drift.
    """

    space: FiniteProbSpace
    labels: np.ndarray

    def __post_init__(self):
        lab = np.asarray(self.labels)
        if lab.shape != (self.space.atom_count,):
            raise ValueError(f"one label per atom required, got shape {lab.shape}")
        _, first, inverse = np.unique(lab, return_index=True, return_inverse=True)
        rank = np.empty(first.size, dtype=np.intp)
        rank[np.argsort(first)] = np.arange(first.size)
        canon = rank[inverse]
        canon.flags.writeable = False
        object.__setattr__(self, "labels", canon)

    @classmethod
    def trivial(cls, space: FiniteProbSpace) -> "Partition":
        return cls(space, np.zeros(space.atom_count, dtype=int))

    @classmethod
    def finest(cls, space: FiniteProbSpace) -> "Partition":
        return cls(space, np.arange(space.atom_count))

    @classmethod
    def from_labels(cls, space: FiniteProbSpace, labels) -> "Partition":
        return cls(space, labels)

    @property
    def n_cells(self) -> int:
        return int(self.labels.max()) + 1

    @property
    def cell_sizes(self) -> np.ndarray:
        """Atom count of each cell, in cell order."""
        return np.bincount(self.labels)

    @property
    def cells(self) -> tuple:
        """The cells as sorted tuples of atom indices, ordered by smallest atom."""
        order, _, starts = self._by_cell()
        return tuple(tuple(cell.tolist()) for cell in np.split(order, starts[1:]))

    def _by_cell(self):
        """Atoms grouped by cell (ascending inside each), cell sizes, cell starts;
        labels narrowed to uint8 or uint16 make the stable sort a radix sort."""
        sizes = self.cell_sizes
        narrow = self.labels.astype(np.min_scalar_type(sizes.size - 1))
        return np.argsort(narrow, kind="stable"), sizes, np.cumsum(sizes) - sizes

    def is_refinement_of(self, coarser: "Partition") -> bool:
        """True when every cell of ``self`` sits inside a cell of ``coarser``."""
        _require_same_space(self.space, coarser.space, "is_refinement_of")
        owner = np.empty(self.n_cells, dtype=np.intp)
        owner[self.labels] = coarser.labels
        return bool(np.array_equal(owner[self.labels], coarser.labels))

    def __eq__(self, other):
        return (
            isinstance(other, Partition)
            and self.space.matches(other.space)
            and np.array_equal(self.labels, other.labels)
        )

    def __hash__(self):
        return hash(self.labels.tobytes())

    def __repr__(self):
        return f"Partition(cells={self.n_cells})"


def cond_exp(x: RandomVariable, p: Partition) -> RandomVariable:
    """Conditional expectation of ``x`` given the partition ``p``.

    The result is constant on each cell, equal to the probability-weighted
    cell mean.  It preserves the mean and contracts the L1 norm.  Each cell is
    summed pairwise (``np.add.reduceat`` over the atoms grouped by cell), not
    in atom order, which keeps large cells accurate.
    """
    _require_same_space(x.space, p.space, "cond_exp")
    order, _, starts = p._by_cell()
    w = x.space.probs[order]
    means = np.add.reduceat(w * x.values[order], starts) / np.add.reduceat(w, starts)
    return RandomVariable(x.space, means[p.labels])


def refine(p: Partition, q: Partition) -> Partition:
    """Common refinement: nonempty pairwise intersections of cells."""
    _require_same_space(p.space, q.space, "refine")
    return Partition(p.space, p.labels * q.n_cells + q.labels)


def dyadic_chain(space: FiniteProbSpace, x: RandomVariable, depth: int):
    """Refining chain of partitions binning atoms by x-value quantiles.

    Level ``j`` buckets the distinct values of ``x`` into at most ``2**j``
    quantile bins (atoms sharing a value are never separated).  Dyadic cuts
    nest, so the chain is increasing in refinement, and conditioning along it
    converges to ``x`` in L1 -- exactly once bins separate all distinct values.
    Levels from the separating depth on are the value-class partition; a book
    needing more than 62 levels (the int64 bin labels) raises ParameterError.
    """
    _require_same_space(space, x.space, "dyadic_chain")
    if depth < 1:
        raise ParameterError("depth must be >= 1")
    _, inverse = np.unique(x.values, return_inverse=True)
    class_prob = np.bincount(inverse, weights=space.probs)
    separating = _separating_depth(class_prob)
    exact = min(depth, separating)
    if exact > 62:
        raise ParameterError(f"separating the values needs {separating} > 62 dyadic levels")
    left_cum = np.concatenate([[0.0], np.cumsum(class_prob)[:-1]])
    chain = []
    for j in range(1, exact + 1):
        bins = np.floor(left_cum * (2.0 ** j)).astype(np.int64)
        chain.append(Partition.from_labels(space, bins[inverse]))
    return chain + [chain[-1]] * (depth - exact)


def _separating_depth(class_prob: np.ndarray) -> int:
    """Dyadic level that surely separates value classes of these probabilities:
    2**-depth is at most half the lightest class."""
    return max(1, int(math.ceil(math.log2(1.0 / float(class_prob.min())))) + 1)


def quantile_var(x: RandomVariable, t: float) -> float:
    """Value at risk at level ``t``: inf of {m : P(X + m < 0) <= t}.

    Evaluated literally by enumerating thresholds over the sorted distinct
    values; no interpolation.  Piecewise constant in ``t``.
    """
    if not (0.0 < t <= 1.0):
        raise ParameterError("t must lie in (0, 1]")
    distinct, inverse = np.unique(x.values, return_inverse=True)
    class_prob = np.bincount(inverse, weights=x.space.probs)
    below = np.concatenate([[0.0], np.cumsum(class_prob)[:-1]])
    k = int(np.searchsorted(below, t, side="right")) - 1
    return float(-distinct[k])


def cell_shuffle_average(x: RandomVariable, p: Partition, j: int) -> RandomVariable:
    """Average of the first ``j`` simultaneous within-cell cyclic shifts of ``x``.

    Requires a uniform space: each individual shift is then a permutation of
    atoms, hence has the same distribution as ``x``.  A full cycle
    (``j`` = lcm of cell sizes) reproduces ``cond_exp(x, p)``.
    """
    _require_same_space(x.space, p.space, "cell_shuffle_average")
    if not x.space.is_uniform():
        raise UnsupportedSpaceError(
            "cell_shuffle_average needs equal atom probabilities"
        )
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


def full_cycle(p: Partition) -> int:
    """Smallest shift count after which every cell has cycled (lcm of sizes)."""
    return math.lcm(*p.cell_sizes.tolist())
