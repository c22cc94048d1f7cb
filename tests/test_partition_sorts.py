"""Building partitions sorts no label array.

A partition renumbers its labels by first occurrence in O(N + K log K) for N
atoms and K cells.  Building the dyadic chain, a random partition and the
Lemma 2.1 sequence of a 3 * 10^4-atom book may therefore sort N items once:
the values, inside ``dyadic_chain``.  ``numpy.unique``, ``numpy.argsort`` and
``numpy.sort`` are wrapped to see every sort and its size.
"""

import numpy as np

from scenrisk import (
    FiniteProbSpace,
    RandomVariable,
    dyadic_chain,
    lemma21_sequence,
    random_partition,
)

N = 30_000


def test_building_partitions_sorts_no_label_array(monkeypatch):
    rng = np.random.default_rng(11)
    space = FiniteProbSpace.uniform(N)
    x = RandomVariable(space, rng.standard_t(4, size=N))
    sorts = []

    def watched(name, sort):
        def wrapped(a, *args, **kwargs):
            sorts.append((name, a))
            return sort(a, *args, **kwargs)
        return wrapped

    for name in ("unique", "argsort", "sort"):
        monkeypatch.setattr(np, name, watched(name, getattr(np, name)))
    dyadic_chain(space, x, 12)
    random_partition(space, rng)
    lemma21_sequence(x, 15)
    monkeypatch.undo()

    assert any(name == "argsort" for name, _ in sorts)  # the wrappers see the cell ranks
    large = [(name, a is x.values) for name, a in sorts if np.size(a) >= N]
    assert large == [("unique", True)]
