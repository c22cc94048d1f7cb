#!/usr/bin/env python3
"""Primal/dual/mixture agreement table on random scenario instances.

For each instance: the scalar hull value of the higher-order measure, the
density-dual value with its certificate norm, the constrained AVaR-mixture
value with its constraint integral as a fraction of c**q, and the gaps to
the primal.

Usage: python scripts/duality_study.py [--instances 20] [--seed 1729]
"""

import argparse

import numpy as np

from scenrisk import (
    FiniteProbSpace,
    RandomVariable,
    dual_higher_order,
    higher_order_T,
    kusuoka_constraint,
    kusuoka_value,
)
from scenrisk.duality import _q_norm


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--instances", type=int, default=20)
    ap.add_argument("--seed", type=int, default=1729)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    print("n,c,p,primal,dual,mixture,cert_norm,constraint,dual_gap,mixture_gap")
    for _ in range(args.instances):
        n = int(rng.integers(3, 13))
        space = FiniteProbSpace.uniform(n)
        x = RandomVariable(space, rng.normal(scale=2.0, size=n))
        c = float(rng.choice([1.5, 2.0, 4.0]))
        p = float(rng.choice([1.5, 2.0, 3.0]))
        q = p / (p - 1.0)
        primal = higher_order_T(x, c, p)
        dual, z = dual_higher_order(x, c, q)
        mix, mu = kusuoka_value(x, c, p)
        print(
            f"{n},{c:g},{p:g},{primal:.10g},{dual:.10g},{mix:.10g},"
            f"{_q_norm(z.values, space.probs, q):.6g},"
            f"{kusuoka_constraint(mu, q) / c ** q:.6g},"
            f"{abs(primal - dual):.2e},{abs(primal - mix):.2e}"
        )


if __name__ == "__main__":
    main()
