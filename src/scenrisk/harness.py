"""Scenario ingestion, the randomized property battery, and report emission.

CSV schema (UTF-8): first column ``probability``, remaining columns are named
value variables.  Every field is an ASCII decimal or exponent literal such as
``-1.5``, ``.25`` or ``2e-3``, optionally quoted, with surrounding whitespace
allowed; thousands separators, ``_`` digit groups, non-ASCII digits, empty
fields, ``nan``/``inf`` and blank lines are rejected, naming the row.
Probabilities must be strictly positive and sum to within 1e-9 of one before
normalization -- anything further off is rejected so rounding noise is
tolerated but bad data is not.

Reports are deterministic byte-for-byte for a fixed seed; per-check runtimes
are recorded on the records but excluded from emission unless asked for.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import time
from dataclasses import dataclass
from statistics import NormalDist
from typing import Dict, List, Optional, Tuple

import numpy as np

from .duality import dual_higher_order, kusuoka_value
from .errors import ParameterError, ScenRiskError
from .extension import (
    ConvergencePoint,
    discretization_slack,
    extend_sup,
    lemma21_sequence,
    random_partition,
    refinement_convergence,
)
from .orlicz import linear, positive_part, power
from .prob_core import FiniteProbSpace, RandomVariable, cond_exp
from .risk_core import OrliczTriple, RiskFunctional, higher_order_T

DEFAULT_SEED = 1729
SEED_ENV_VAR = "SCENRISK_SEED"


@dataclass(frozen=True)
class ScenarioTable:
    """Validated scenario file: one space, one RandomVariable per value column."""

    space: FiniteProbSpace
    names: Tuple[str, ...]
    columns: Dict[str, RandomVariable]
    raw_prob_sum: float
    source: str = ""

    def variable(self, name: Optional[str] = None) -> RandomVariable:
        if name is None:
            name = self.names[0]
        if name not in self.columns:
            raise ScenRiskError(f"no column named {name!r}; have {list(self.names)}")
        return self.columns[name]


def _number(cell: str) -> float:
    """``float`` restricted to the ASCII grammar that ``np.loadtxt`` reads."""
    token = cell.strip()
    if token.isascii() and "_" not in token:
        with contextlib.suppress(ValueError):
            return float(token)
    raise ValueError(f"could not convert string to float: {cell!r}")


def _parse_rows(path: str, reader, width: int) -> np.ndarray:
    """Row-by-row parse of the body; raises naming the first offending row."""
    try:
        rows = list(reader)
    except csv.Error as exc:
        raise ScenRiskError(f"{path}: cannot read: {exc}") from exc
    for rownum, row in enumerate(rows, start=2):
        if len(row) != width:
            raise ScenRiskError(f"{path}: row {rownum}: expected {width} fields")
        try:
            vals = [_number(c) for c in row]
        except ValueError as exc:
            raise ScenRiskError(f"{path}: row {rownum}: malformed number: {exc}") from exc
        if not all(math.isfinite(v) for v in vals):
            raise ScenRiskError(f"{path}: row {rownum}: non-finite entry")
        if vals[0] <= 0.0:
            raise ScenRiskError(f"{path}: row {rownum}: non-positive probability {vals[0]!r}")
        rows[rownum - 2] = vals
    return np.array(rows, dtype=float).reshape(len(rows), width)


def ingest_csv(path: str) -> ScenarioTable:
    """Parse and validate a scenario CSV; errors carry the offending row number.

    The body is parsed in one ``np.loadtxt`` pass and checked as an array; only
    a body that fails, or has fewer rows than lines, goes through ``_parse_rows``.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            lines = fh.readlines()
        reader = csv.reader(lines)
        header = next(reader, None)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ScenRiskError(f"{path}: cannot read: {exc}") from exc
    if header is None:
        raise ScenRiskError(f"{path}: empty file")
    header = [h.strip() for h in header]
    if not header or header[0] != "probability":
        raise ScenRiskError(f"{path}: first column must be named 'probability'")
    names = tuple(header[1:])
    if not names:
        raise ScenRiskError(f"{path}: need at least one value column")
    for k, name in enumerate(names):
        if name in names[:k]:
            raise ScenRiskError(f"{path}: duplicate column name {name!r}")
    body = lines[reader.line_num:]
    data = None
    with contextlib.suppress(ValueError):
        if any(map(str.strip, body)):  # np.loadtxt warns on a body without rows
            data = np.loadtxt(body, delimiter=",", quotechar='"', comments=None,
                              ndmin=2, dtype=float)
    if (data is None or data.shape != (len(body), len(header))
            or not np.isfinite(data).all() or (data[:, 0] <= 0.0).any()):
        data = _parse_rows(path, reader, len(header))
    total = float(sum(data[:, 0].tolist()))  # sequential, not np.sum's pairwise sum
    if abs(total - 1.0) > 1e-9:
        raise ScenRiskError(f"{path}: probabilities sum to {total!r}; outside the 1e-9 tolerance")
    space = FiniteProbSpace(data[:, 0])
    columns = {name: RandomVariable(space, data[:, k]) for k, name in enumerate(names, 1)}
    return ScenarioTable(space, names, columns, total, source=path)


# ---------------------------------------------------------------------------
# battery
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckRecord:
    name: str
    status: str  # pass / fail / skip
    lhs: float
    rhs: float
    tolerance: float
    runtime: float
    trial_seed: int


@dataclass(frozen=True)
class RunReport:
    command: str
    seed: int
    space_probs: Tuple[float, ...]
    variable_names: Tuple[str, ...]
    checks: Tuple[CheckRecord, ...]
    curves: Tuple[Tuple[str, Tuple[ConvergencePoint, ...]], ...]

    @property
    def all_passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)


@dataclass(frozen=True)
class BatteryConfig:
    families: Tuple[str, ...] = ("avar", "higher_order", "transformed")
    trials: int = 25
    seed: int = DEFAULT_SEED
    tolerance: float = 1e-7

    def __post_init__(self):
        if self.trials < 1:
            raise ParameterError(f"trials must be at least 1, got {self.trials}")
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")

    def rho_pool(self) -> List[RiskFunctional]:
        pool: List[RiskFunctional] = []
        for fam in self.families:
            if fam == "avar":
                pool.extend(RiskFunctional.avar(a) for a in (0.25, 0.5, 0.9))
            elif fam == "higher_order":
                pool.extend(RiskFunctional.higher_order(c, p)
                            for c, p in ((1.5, 2.0), (2.0, 2.0), (2.0, 3.0)))
            elif fam == "transformed":
                # T_{2,2} again, as an explicit triple: transformed_T routes it
                # to the higher-order kernel, not to the generic hull
                pool.append(RiskFunctional.transformed(
                    OrliczTriple(linear(2.0), power(2.0), positive_part())))
            else:
                raise ParameterError(f"unknown family {fam!r}")
        return pool


def _trial_variables(space: FiniteProbSpace, table: ScenarioTable,
                     rng: np.random.Generator, count: int) -> List[RandomVariable]:
    pool = [table.columns[n] for n in table.names]
    for _ in range(count):
        pool.append(RandomVariable(space, rng.normal(scale=2.0, size=space.atom_count)))
    return pool


def run_battery(table: ScenarioTable, config: BatteryConfig = BatteryConfig(),
                command: str = "battery") -> RunReport:
    """Execute the randomized property checks on the ingested scenario.

    The constructive bounded-sequence check needs atoms finer than typical desk tables, so
    it runs on an internally synthesized uniform discretization (seeded) and
    validates the library rather than the table.  Everything else runs on the
    table's own space.  Deterministic for a fixed seed.
    """
    rng = np.random.default_rng(config.seed)
    space = table.space
    tol = config.tolerance
    records: List[CheckRecord] = []

    def record(name: str, tolerance: float, trials) -> None:
        """Run a check's trials, each yielding (gap, lhs, rhs, trial_seed); the
        first trial with the largest gap is recorded, failing if that gap > 0."""
        t0 = time.perf_counter()
        worst, wl, wr, wseed = -math.inf, 0.0, 0.0, config.seed
        for gap, lhs, rhs, seed in trials:
            if gap > worst:
                worst, wl, wr, wseed = gap, lhs, rhs, seed
        records.append(CheckRecord(name, "pass" if worst <= 0.0 else "fail", wl, wr,
                                   tolerance, time.perf_counter() - t0, wseed))

    rhos = config.rho_pool()
    variables = _trial_variables(space, table, rng, config.trials)
    memo: Dict[Tuple[int, int], float] = {}

    def pooled(rho: RiskFunctional, x: RandomVariable) -> float:  # once per run
        key = (id(rho), id(x))
        if key not in memo:
            memo[key] = rho(x)
        return memo[key]

    def dilatation():  # rho(E[X|pi]) <= rho(X) + tol
        for i in range(config.trials):
            x = variables[i % len(variables)]
            coarse = cond_exp(x, random_partition(space, rng))
            for rho in rhos:
                lhs, rhs = rho(coarse), pooled(rho, x) + tol
                yield lhs - rhs, lhs, rhs, config.seed + i
    record("dilatation_monotonicity", tol, dilatation())

    def cash_additivity():
        for i in range(config.trials):
            x = variables[i % len(variables)]
            s = float(rng.uniform(-5.0, 5.0))
            for rho in rhos:
                lhs = abs(rho(x + s) + s - pooled(rho, x))
                yield lhs - tol, lhs, tol, config.seed + i
    record("cash_additivity", tol, cash_additivity())

    def convexity():
        for i in range(config.trials):
            x = variables[i % len(variables)]
            y = variables[(i + 1) % len(variables)]
            lam = float(rng.uniform(0.05, 0.95))
            mix = lam * x + (1.0 - lam) * y
            for rho in rhos:
                lhs, rhs = rho(mix), lam * pooled(rho, x) + (1.0 - lam) * pooled(rho, y) + tol
                yield lhs - rhs, lhs, rhs, config.seed + i
    record("convexity", tol, convexity())

    def monotonicity():  # x >= y componentwise -> rho(x) <= rho(y) + tol
        for i in range(config.trials):
            y = variables[i % len(variables)]
            x = y + RandomVariable(space, rng.uniform(0.0, 2.0, size=space.atom_count))
            for rho in rhos:
                lhs, rhs = rho(x), pooled(rho, y) + tol
                yield lhs - rhs, lhs, rhs, config.seed + i
    record("monotonicity", tol, monotonicity())

    def extension_agreement():  # sup over sampled coarsenings equals the direct value
        for i in range(min(config.trials, 10)):
            x = variables[i % len(variables)]
            for rho in rhos[:3]:
                res = extend_sup(rho, x, budget=4, seed=config.seed + i)
                direct = pooled(rho, x)
                yield abs(res.value - direct) - 1e-9, res.value, direct, config.seed + i
    record("extension_agreement", 1e-9, extension_agreement())

    def strong_duality():  # for the higher-order family
        for i in range(min(config.trials, 10)):
            x = variables[i % len(variables)]
            c, p = (1.5, 2.0) if i % 2 == 0 else (2.0, 3.0)
            primal = higher_order_T(x, c, p)
            dual_val, _ = dual_higher_order(x, c, p / (p - 1.0))
            yield abs(primal - dual_val) - 1e-6, dual_val, primal, config.seed + i
    record("strong_duality", 1e-6, strong_duality())

    def kusuoka_sandwich():
        for i in range(min(config.trials, 5)):
            x = variables[i % len(variables)]
            primal = higher_order_T(x, 2.0, 2.0)
            val, _ = kusuoka_value(x, 2.0, 2.0)
            gap = max(val - (primal + 1e-6), (primal - 1e-3) - val)
            yield gap, val, primal, config.seed + i
    record("kusuoka_sandwich", 1e-6, kusuoka_sandwich())

    def lemma21_bounds():  # constructive bounded sequence on a synthesized fine space
        fine = FiniteProbSpace.uniform(1000)
        nd = NormalDist()
        xfine = RandomVariable(
            fine, np.array([nd.inv_cdf((i + 0.5) / 1000) for i in range(1000)])
        )
        delta = discretization_slack(xfine)
        for part, k1, eps in lemma21_sequence(xfine, 10):
            ce = cond_exp(xfine, part)
            dom = float(np.max(np.abs(ce.values) - (np.abs(xfine.values) + k1 + 1.0 + delta)))
            bound = eps * (3.0 + 2.0 * k1) + delta
            l1 = (ce - xfine).l1()
            yield max(dom, l1 - bound), l1, bound, config.seed
    record("lemma21_bounds", 0.0, lemma21_bounds())

    # convergence curve for the report
    curve = refinement_convergence(rhos[0], variables[0], depth=6)
    return RunReport(
        command=command,
        seed=config.seed,
        space_probs=tuple(float(p) for p in space.probs),
        variable_names=table.names,
        checks=tuple(records),
        curves=(("refinement", tuple(curve)),),
    )


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def emit_report(report: RunReport, format: str = "text",
                include_runtime: bool = False) -> bytes:
    """Render a report; stable field order.

    ``text`` is the self-describing key/value document; ``curves`` is the flat
    CSV of convergence curves (header: level,value,l1_gap).  Runtimes vary
    run-to-run, so they are excluded unless requested, keeping emission
    byte-identical for a fixed seed.
    """
    if format == "curves":
        rows = [f"{pt.level},{pt.value:.17g},{pt.l1_gap:.17g}\n"
                for _, points in report.curves for pt in points]
        return ("level,value,l1_gap\n" + "".join(rows)).encode()
    if format != "text":
        raise ParameterError(f"unsupported report format {format!r}")
    out = io.StringIO()
    out.write("scenrisk-report 1\n")
    out.write(f"command: {report.command}\n")
    out.write(f"seed: {report.seed}\n")
    out.write(f"atoms: {len(report.space_probs)}\n")
    out.write("probabilities: " + " ".join(f"{p:.17g}" for p in report.space_probs) + "\n")
    out.write("variables: " + " ".join(report.variable_names) + "\n")
    out.write(f"checks: {len(report.checks)}\n")
    for c in report.checks:
        line = (f"check: name={c.name} status={c.status} lhs={c.lhs:.12g} "
                f"rhs={c.rhs:.12g} tolerance={c.tolerance:.3g} trial_seed={c.trial_seed}")
        if include_runtime:
            line += f" runtime={c.runtime:.3f}s"
        out.write(line + "\n")
    out.write(f"curves: {len(report.curves)}\n")
    for name, points in report.curves:
        out.write(f"curve: name={name} points={len(points)}\n")
        for pt in points:
            out.write(f"  {pt.level} {pt.value:.17g} {pt.l1_gap:.17g}\n")
    return out.getvalue().encode()
