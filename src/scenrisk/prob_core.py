"""Finite probability spaces, random variables, partitions and conditional expectations.

Everything downstream acts on simple random variables over a finite space of
atoms with strictly positive probabilities.  A partition groups atoms into
cells; conditioning on a partition replaces values by probability-weighted
cell means.  Nonatomic constructions are emulated by fine discretizations, so
the quality of any coarsening statement carries an explicit atom-size slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

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


def _canonical_cells(cells: Iterable[Iterable[int]]):
    canon = tuple(sorted((tuple(sorted(int(i) for i in cell)) for cell in cells)))
    return canon


@dataclass(frozen=True, eq=False)
class Partition:
    """Disjoint nonempty cells of atom indices covering the whole space.

    Cells automatically have positive probability because atoms do.  Cells are
    canonicalized (sorted) so partitions compare by content.
    """

    space: FiniteProbSpace
    cells: tuple

    def __post_init__(self):
        canon = _canonical_cells(self.cells)
        n = self.space.atom_count
        seen = [i for cell in canon for i in cell]
        if any(len(cell) == 0 for cell in canon):
            raise ValueError("cells must be nonempty")
        if sorted(seen) != list(range(n)):
            raise ValueError("cells must partition the atom indices exactly")
        object.__setattr__(self, "cells", canon)

    @classmethod
    def trivial(cls, space: FiniteProbSpace) -> "Partition":
        return cls(space, (tuple(range(space.atom_count)),))

    @classmethod
    def finest(cls, space: FiniteProbSpace) -> "Partition":
        return cls(space, tuple((i,) for i in range(space.atom_count)))

    @classmethod
    def from_labels(cls, space: FiniteProbSpace, labels) -> "Partition":
        lab = np.asarray(labels)
        if lab.shape != (space.atom_count,):
            raise ValueError("one label per atom required")
        cells = {}
        for i, l in enumerate(lab):
            cells.setdefault(l.item() if hasattr(l, "item") else l, []).append(i)
        return cls(space, tuple(tuple(v) for v in cells.values()))

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    def is_refinement_of(self, coarser: "Partition") -> bool:
        """True when every cell of ``self`` sits inside a cell of ``coarser``."""
        owner = {}
        for k, cell in enumerate(coarser.cells):
            for i in cell:
                owner[i] = k
        return all(len({owner[i] for i in cell}) == 1 for cell in self.cells)

    def __eq__(self, other):
        return (
            isinstance(other, Partition)
            and self.space.matches(other.space)
            and self.cells == other.cells
        )

    def __hash__(self):
        return hash(self.cells)

    def __repr__(self):
        return f"Partition(cells={self.n_cells})"


def cond_exp(x: RandomVariable, p: Partition) -> RandomVariable:
    """Conditional expectation of ``x`` given the partition ``p``.

    The result is constant on each cell, equal to the probability-weighted
    cell mean.  It preserves the mean and contracts the L1 norm.
    """
    _require_same_space(x.space, p.space, "cond_exp")
    probs = x.space.probs
    out = np.empty(x.space.atom_count)
    for cell in p.cells:
        idx = np.asarray(cell, dtype=int)
        w = probs[idx]
        out[idx] = float(w @ x.values[idx]) / float(w.sum())
    return RandomVariable(x.space, out)


def refine(p: Partition, q: Partition) -> Partition:
    """Common refinement: nonempty pairwise intersections of cells."""
    _require_same_space(p.space, q.space, "refine")
    cells = []
    qsets = [set(c) for c in q.cells]
    for cp in p.cells:
        sp = set(cp)
        for sq in qsets:
            inter = sp & sq
            if inter:
                cells.append(tuple(sorted(inter)))
    return Partition(p.space, tuple(cells))


def dyadic_chain(space: FiniteProbSpace, x: RandomVariable, depth: int):
    """Refining chain of partitions binning atoms by x-value quantiles.

    Level ``j`` buckets the distinct values of ``x`` into at most ``2**j``
    quantile bins (atoms sharing a value are never separated).  Dyadic cuts
    nest, so the chain is increasing in refinement, and conditioning along it
    converges to ``x`` in L1 -- exactly once bins separate all distinct values.
    """
    _require_same_space(space, x.space, "dyadic_chain")
    if depth < 1:
        raise ParameterError("depth must be >= 1")
    _, inverse = np.unique(x.values, return_inverse=True)
    class_prob = np.bincount(inverse, weights=space.probs)
    left_cum = np.concatenate([[0.0], np.cumsum(class_prob)[:-1]])
    chain = []
    for j in range(1, depth + 1):
        bins = np.floor(left_cum * (2.0 ** j)).astype(int)
        chain.append(Partition.from_labels(space, bins[inverse]))
    return chain


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
    full = math.lcm(*(len(c) for c in p.cells))
    if not (1 <= j <= full):
        raise ParameterError(f"j must lie in [1, {full}] (lcm of cell sizes)")
    acc = np.zeros(x.space.atom_count)
    idx_cells = [np.asarray(c, dtype=int) for c in p.cells]
    for r in range(j):
        for idx in idx_cells:
            acc[idx] += x.values[np.roll(idx, -r)]
    return RandomVariable(x.space, acc / j)


def full_cycle(p: Partition) -> int:
    """Smallest shift count after which every cell has cycled (lcm of sizes)."""
    return math.lcm(*(len(c) for c in p.cells))
