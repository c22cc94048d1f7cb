"""Coarsening extension of a risk functional and its convergence diagnostics.

The extension of a dilatation monotone functional evaluates it on conditional
expectations over every finite partition and takes the supremum.  On a finite
space the finest partition already reproduces the variable, so the supremum
equals the direct value; the interest is in the sampled coarse values, which
climb toward it along refinements, and in the constructive bounded sequence
built by :func:`lemma21_sequence`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, List, NamedTuple, Tuple

import numpy as np

from .errors import ParameterError, SpaceTooCoarseError
from .prob_core import (
    FiniteProbSpace,
    Partition,
    RandomVariable,
    _dyadic_levels,
    cond_exp,
    dyadic_chain,
)


class ConvergencePoint(NamedTuple):
    level: int
    value: float
    l1_gap: float


@dataclass(frozen=True)
class ExtensionResult:
    """Supremum over sampled partitions with its argmax and the full sample."""

    value: float
    best_partition: Partition
    samples: tuple  # (label, value) pairs, diagnostics only


def random_partition(space: FiniteProbSpace, rng: np.random.Generator,
                     max_cells: int = 8) -> Partition:
    """Seeded random coarsening: random cell count in [2, min(8, N)], uniform
    atom assignment, resampled until no cell is empty."""
    n = space.atom_count
    if n == 1:
        return Partition.trivial(space)
    hi = min(max_cells, n)
    m = int(rng.integers(2, hi + 1))
    while True:
        labels = rng.integers(0, m, size=n)
        if np.bincount(labels, minlength=m).all():
            return Partition.from_labels(space, labels)


def extend_sup(rho: Callable, x: RandomVariable, budget: int, seed: int) -> ExtensionResult:
    """sup over sampled partitions of rho(E[X|pi]): the dyadic chain of x,
    ``budget`` seeded random partitions, and the finest partition.

    For a dilatation monotone rho the finest partition attains the supremum,
    so the value equals rho(x) up to evaluation noise; the samples are the
    convergence diagnostic.
    """
    if budget < 1:
        raise ParameterError("budget must be >= 1")
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    space = x.space
    rng = np.random.default_rng(seed)
    finest = Partition.finest(space)

    def candidates() -> Iterator[Tuple[str, Partition]]:  # built one at a time
        yield "trivial", Partition.trivial(space)
        for j, p in enumerate(_dyadic_levels(space, x), start=1):
            yield f"dyadic:{j}", p
        for b in range(budget):
            yield f"random:{b}", random_partition(space, rng)
        yield "finest", finest

    best_value = -math.inf
    best_partition = finest
    samples = []
    for label, p in candidates():
        v = float(rho(cond_exp(x, p)))
        samples.append((label, v))
        if v >= best_value:  # ties resolve to the latest, i.e. most refined
            best_value, best_partition = v, p
    return ExtensionResult(best_value, best_partition, tuple(samples))


def refinement_convergence(rho: Callable, x: RandomVariable, depth: int) -> List[ConvergencePoint]:
    """Values of rho along the dyadic chain together with the L1 gaps.

    For the dilatation monotone families the values are nondecreasing in the
    level, and the final value matches rho(x) once the chain separates all
    distinct values of x.
    """
    if depth < 1:
        raise ParameterError("depth must be >= 1")
    out = []
    for j, p in enumerate(dyadic_chain(x.space, x, depth), start=1):
        coarse = cond_exp(x, p)
        gap = (coarse - x).l1()
        out.append(ConvergencePoint(j, float(rho(coarse)), gap))
    return out


def discretization_slack(x: RandomVariable) -> float:
    """Atom-size slack added to the constructive bounds: finite atoms cannot
    realize P(A) = eps exactly, so 2 * (max atom probability) * range(x)."""
    rng = x.max() - x.min()
    return 2.0 * float(x.space.probs.max()) * rng


def _least_integer(holds: Callable[[int], bool], lo: int) -> int:
    """Smallest integer k >= lo with ``holds(k)`` for a predicate that stays true
    once true: steps 1, 2, 4, ... up from lo, then bisection; O(log k) calls."""
    hi, step = lo, 1
    while not holds(hi):
        lo, hi, step = hi + 1, hi + step, 2 * step
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if holds(mid) else (mid + 1, hi)
    return hi


def lemma21_sequence(x: RandomVariable, n_max: int) -> List[Tuple[Partition, float, float]]:
    """Constructive partition sequence with uniform domination bounds.

    For each n in 2..n_max (eps = 1/n) the returned partition pi_n satisfies,
    up to the discretization slack delta of :func:`discretization_slack`,

        |E[X|pi_n]| <= |X| + k1 + 1 + delta        (componentwise)
        ||E[X|pi_n] - X||_1 < eps * (3 + 2*k1) + delta

    where k1 is the smallest integer with P(|X| <= k1) > 1/2.  Construction:
    carve a set A inside {|X| <= k1} with P(A) ~ eps, drop the tail above the
    smallest integer k2 > k1 with E[|X| 1_{|X| > k2}] < eps, bin the remainder
    by value bins of width eps/2 (cell means then sit within eps of every
    member), and lump A with the tail into one closing cell.
    """
    if n_max < 2:
        raise ParameterError("n_max must be >= 2")
    space = x.space
    probs = space.probs
    vals = x.values
    absx = np.abs(vals)
    max_atom = float(probs.max())
    eps_min = 1.0 / n_max
    if max_atom > eps_min / 4.0:
        raise SpaceTooCoarseError(
            f"atom probability {max_atom:g} exceeds eps/4 = {eps_min / 4.0:g} at n = {n_max}"
        )

    k1 = _least_integer(lambda k: space.expect(absx <= k) > 0.5, 0)

    out = []
    small = np.flatnonzero(absx <= k1)
    cum = np.cumsum(probs[small])
    k2 = k1 + 1
    for n in range(2, n_max + 1):
        eps = 1.0 / n
        # A subset of {|x| <= k1} with P(A) in [eps, eps + max atom)
        stop = int(np.searchsorted(cum, eps, side="left")) + 1
        a_idx = small[:stop]

        # the tail mean falls in k2, so the smallest k2 grows as eps falls
        k2 = _least_integer(lambda k: float(probs @ (absx * (absx > k))) < eps, k2)

        in_a = np.zeros(space.atom_count, dtype=bool)
        in_a[a_idx] = True
        omega_prime = (absx <= k2) & ~in_a

        labels = np.full(space.atom_count, -1)  # -1: the closing cell
        if omega_prime.any():
            bins = vals[omega_prime]  # a copy, binned in place
            np.floor((bins - bins.min()) / (eps / 2.0), out=bins)
            if bins.max() >= 2.0 ** 62:  # past int64: float labels, compressed by Partition
                labels = labels.astype(float)
            labels[omega_prime] = bins
        out.append((Partition(space, labels), float(k1), eps))
    return out
