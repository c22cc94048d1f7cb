"""Command-line surface: one verb per engine artifact.

  eval     one measure on one variable
  extend   refinement study (sup over coarsenings + convergence curve)
  dual     density-dual certificates for the higher-order family
  kusuoka  constrained AVaR-mixture value and weights
  lemma21  constructive bounded-sequence bounds
  battery  the randomized property battery with report emission

The default seed is printed in every output and can be overridden by the
SCENRISK_SEED environment variable or --seed.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from .duality import conjugate_sharp, dual_higher_order, kusuoka_value
from .errors import ParameterError, ScenRiskError
from .extension import discretization_slack, extend_sup, lemma21_sequence, refinement_convergence
from .harness import (
    DEFAULT_SEED,
    SEED_ENV_VAR,
    BatteryConfig,
    emit_report,
    ingest_csv,
    run_battery,
)
from .prob_core import cond_exp
from .risk_core import RiskFunctional, higher_order_T


def _seed_default() -> int:
    env = os.environ.get(SEED_ENV_VAR)
    if not env:
        return DEFAULT_SEED
    try:
        return int(env)
    except ValueError:
        raise ParameterError(f"{SEED_ENV_VAR}={env!r} is not an integer") from None


def _build_measure(args) -> RiskFunctional:
    if args.measure == "avar":
        return RiskFunctional.avar(args.alpha)
    if args.measure == "higher_order":
        return RiskFunctional.higher_order(args.c, args.p)
    raise ScenRiskError(f"unknown measure {args.measure!r}")


def _add_common(sp):
    sp.add_argument("csv", help="scenario CSV (probability column first)")
    sp.add_argument("--column", default=None, help="value column (default: first)")
    sp.add_argument("--seed", type=int, default=None)  # None: resolved per call in main


def main(argv=None) -> int:
    try:
        seed = _seed_default()  # read on every call, so a later SCENRISK_SEED applies
        args = _parser().parse_args(argv)
        args.seed = seed if args.seed is None else args.seed
        return _dispatch(args)
    except ScenRiskError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="scenrisk", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="verb", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one measure on one variable")
    _add_common(p_eval)
    p_eval.add_argument("--measure", choices=("avar", "higher_order"), default="avar")
    p_eval.add_argument("--alpha", type=float, default=0.5)
    p_eval.add_argument("--c", type=float, default=2.0)
    p_eval.add_argument("--p", type=float, default=2.0)

    p_ext = sub.add_parser("extend", help="refinement study")
    _add_common(p_ext)
    p_ext.add_argument("--measure", choices=("avar", "higher_order"), default="avar")
    p_ext.add_argument("--alpha", type=float, default=0.5)
    p_ext.add_argument("--c", type=float, default=2.0)
    p_ext.add_argument("--p", type=float, default=2.0)
    p_ext.add_argument("--depth", type=int, default=6)
    p_ext.add_argument("--budget", type=int, default=8)
    p_ext.add_argument("--format", choices=("text", "curves"), default="text")

    p_dual = sub.add_parser("dual", help="duality certificates")
    _add_common(p_dual)
    p_dual.add_argument("--c", type=float, default=2.0)
    p_dual.add_argument("--p", type=float, default=2.0)

    p_kus = sub.add_parser("kusuoka", help="constrained AVaR-mixture value")
    _add_common(p_kus)
    p_kus.add_argument("--c", type=float, default=2.0)
    p_kus.add_argument("--p", type=float, default=2.0)

    p_lem = sub.add_parser("lemma21", help="constructive bounded-sequence bounds")
    _add_common(p_lem)
    p_lem.add_argument("--n-max", type=int, default=10)

    p_bat = sub.add_parser("battery", help="randomized property battery")
    _add_common(p_bat)
    p_bat.add_argument("--trials", type=int, default=25)
    p_bat.add_argument("--format", choices=("text", "curves"), default="text")

    return parser


def _dispatch(args) -> int:
    table = ingest_csv(args.csv)
    x = table.variable(args.column)
    print(f"seed: {args.seed}")

    if args.verb == "eval":
        rho = _build_measure(args)
        print(f"measure: {rho.label}")
        print(f"value: {rho(x):.12g}")
        return 0

    if args.verb == "extend":
        rho = _build_measure(args)
        res = extend_sup(rho, x, budget=args.budget, seed=args.seed)
        curve = refinement_convergence(rho, x, depth=args.depth)
        direct = rho(x)
        print(f"measure: {rho.label}")
        print(f"direct: {direct:.12g}")
        print(f"sup_over_partitions: {res.value:.12g}")
        print(f"best_partition_cells: {res.best_partition.n_cells}")
        if args.format == "curves":
            print("level,value,l1_gap")
            for pt in curve:
                print(f"{pt.level},{pt.value:.17g},{pt.l1_gap:.17g}")
        else:
            for label, v in res.samples:
                print(f"sample: partition={label} value={v:.12g}")
            for pt in curve:
                print(f"curve: level={pt.level} value={pt.value:.12g} l1_gap={pt.l1_gap:.3g}")
        return 0

    if args.verb == "dual":
        if not args.p > 1.0:
            raise ParameterError("the density dual needs p > 1")
        q = args.p / (args.p - 1.0)
        primal = higher_order_T(x, args.c, args.p)
        dual_val, z = dual_higher_order(x, args.c, q)
        # the Fenchel gap rho(x) + rho#(-z) - E[x(-z)], with E[x(-z)] = dual_val
        rho = RiskFunctional.higher_order(args.c, args.p)
        gap = primal + conjugate_sharp(rho, -z.as_variable()) - dual_val
        print(f"primal: {primal:.12g}")
        print(f"dual: {dual_val:.12g}")
        print(f"duality_gap: {abs(primal - dual_val):.3g}")
        print(f"fenchel_gap: {gap:.3g}")
        print("density: " + " ".join(f"{v:.6g}" for v in z.values))
        return 0

    if args.verb == "kusuoka":
        primal = higher_order_T(x, args.c, args.p)
        value, mu = kusuoka_value(x, args.c, args.p)
        print(f"primal: {primal:.12g}")
        print(f"mixture_value: {value:.12g}")
        print(f"gap: {primal - value:.3g}")
        top = np.argsort(mu.weights)[::-1][:5]
        for i in top:
            if mu.weights[i] > 1e-12:
                print(f"weight: level={mu.levels[i]:.6g} w={mu.weights[i]:.6g}")
        return 0

    if args.verb == "lemma21":
        delta = discretization_slack(x)
        sequence = lemma21_sequence(x, args.n_max)
        print(f"slack: {delta:.6g}")
        for part, k1, eps in sequence:
            ce = cond_exp(x, part)
            dom = float(np.max(np.abs(ce.values) - np.abs(x.values)))
            l1 = (ce - x).l1()
            bound = eps * (3.0 + 2.0 * k1) + delta
            ok = "ok" if (dom <= k1 + 1.0 + delta and l1 < bound) else "VIOLATED"
            print(
                f"n={round(1 / eps)} k1={k1:g} cells={part.n_cells} "
                f"dom_excess={dom:.6g} l1={l1:.6g} bound={bound:.6g} {ok}"
            )
        return 0

    if args.verb == "battery":
        config = BatteryConfig(trials=args.trials, seed=args.seed)
        report = run_battery(table, config, command=f"battery {args.csv}")
        sys.stdout.write(emit_report(report, format=args.format).decode())
        return 0 if report.all_passed else 1

    raise ScenRiskError(f"unknown verb {args.verb!r}")


if __name__ == "__main__":
    sys.exit(main())
