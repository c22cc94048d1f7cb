"""Span recorder wrapped around scenrisk's public functions, from outside the program.

A span is (name, start, end, parent index); spans stay in memory until the
run ends.  A function is replaced at every module of the package that binds
its name, so calls made inside the package are seen as well.  Self time is a
span's duration minus the durations of its direct children; on one thread
children nest inside their parent and do not overlap, so that is the part of
the span that no child covers.
"""

from __future__ import annotations

import functools
import math
import statistics
import time
from collections import Counter

import numpy as np

import workloads

SPANNED = {
    "prob_core": ("cond_exp", "dyadic_chain"),
    "orlicz": ("luxemburg_norm",),
    "risk_core": ("avar", "cash_hull", "higher_order_T"),
    "extension": ("extend_sup", "refinement_convergence", "lemma21_sequence"),
    "duality": ("dual_higher_order", "kusuoka_value"),
    "harness": ("ingest_csv", "run_battery", "emit_report"),
    "cli": ("main",),
}
# hot inner calls: counted, not spanned, to keep the recorder cheap
COUNTED = {"risk_core": ("f_transformed",), "duality": ("kusuoka_constraint",)}
MODULES = ("prob_core", "orlicz", "risk_core", "extension", "duality", "harness", "cli")


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()

    def spanned(self, name, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent)

        return traced

    def counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def tallied(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return tallied

    def install(self, package) -> None:
        mods = [package] + [getattr(package, m) for m in MODULES]
        for table, make in ((SPANNED, self.spanned), (COUNTED, self.counted)):
            for modname, names in table.items():
                mod = getattr(package, modname)
                for fname in names:
                    orig = getattr(mod, fname)
                    wrapper = make(f"{modname}.{fname}", orig)
                    for m in mods:
                        for attr, val in list(vars(m).items()):
                            if val is orig:
                                setattr(m, attr, wrapper)
        partition = package.prob_core.Partition
        from_labels = partition.__dict__["from_labels"].__func__
        partition.from_labels = classmethod(self.spanned("prob_core.from_labels", from_labels))
        rv = package.prob_core.RandomVariable
        rv.__post_init__ = self.counted("prob_core.rv_built", rv.__post_init__)

    def mark(self):
        """(number of spans so far, calls counted so far), to cut out one op."""
        return len(self.spans), dict(self.counts)

    def self_times(self):
        """Per span index: (name, duration, self time, parent)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [(s[0], s[2] - s[1], s[2] - s[1] - child[i], s[3])
                for i, s in enumerate(self.spans)]


def overhead_per_call(reps: int = 20000):
    """Seconds a spanned and a counted wrapper add to one call (median of 5)."""
    probe = Tracer()

    def noop():
        return None

    variants = (noop, probe.spanned("probe", noop), probe.counted("probe", noop))
    best = []
    for fn in variants:
        samples = []
        for _ in range(5):
            start = time.perf_counter()
            for _ in range(reps):
                fn()
            samples.append((time.perf_counter() - start) / reps)
        best.append(statistics.median(samples))
    return best[1] - best[0], best[2] - best[0]


def per_layer(tracer: Tracer, records, windows):
    """Per-layer metrics of the timed loop, per op.

    `windows` holds each op's (tracer.mark() before, tracer.mark() after), so
    the set-ups run between ops count only in `harness.ingest_csv.self_ms`.
    """
    ops = len(records)
    rows = tracer.self_times()
    calls, self_s, counts = Counter(), Counter(), Counter()
    op_rows = []
    for (first, before), (end, after) in windows:
        op_rows.append(rows[first:end])
        for name, _, own, _ in rows[first:end]:
            calls[name] += 1
            self_s[name] += own
        for k, v in after.items():
            counts[k] += v - before.get(k, 0)

    m = {}
    for name in ("prob_core.from_labels", "prob_core.cond_exp", "orlicz.luxemburg_norm",
                 "risk_core.cash_hull", "duality.dual_higher_order", "duality.kusuoka_value"):
        m[f"{name}.calls"] = (calls[name] / ops, "count")
    for name in ("prob_core.from_labels", "prob_core.dyadic_chain", "prob_core.cond_exp",
                 "orlicz.luxemburg_norm", "risk_core.cash_hull", "risk_core.avar",
                 "duality.dual_higher_order", "duality.kusuoka_value", "extension.extend_sup",
                 "extension.refinement_convergence", "extension.lemma21_sequence",
                 "harness.run_battery", "harness.emit_report", "cli.main"):
        m[f"{name}.self_ms"] = (self_s[name] / ops * 1e3, "ms")
    m["prob_core.rv_built_per_op"] = (counts.get("prob_core.rv_built", 0) / ops, "count")
    m["risk_core.f_evals_per_hull"] = (_ratio(counts.get("risk_core.f_transformed", 0),
                                              calls["risk_core.cash_hull"]), "ratio")
    m["duality.constraint_evals_per_kusuoka"] = (
        _ratio(counts.get("duality.kusuoka_constraint", 0), calls["duality.kusuoka_value"]), "ratio")
    # set-up ingests too, so this one is per call over the whole run, not per op
    ingest = [own for name, _, own, _ in rows if name == "harness.ingest_csv"]
    m["harness.ingest_csv.self_ms"] = (statistics.mean(ingest) * 1e3 if ingest else 0.0, "ms")

    verbs = {"eval": [], "dual": [], "extend": [], "kusuoka": [], "battery": []}
    for record, spans in zip(records, op_rows):
        mains = [dur for name, dur, _, parent in spans if name == "cli.main" and parent < 0]
        if record[0] in verbs and len(mains) == 1:
            verbs[record[0]].append(mains[0])
    for verb, durs in verbs.items():
        m[f"cli.{verb}.p50_ms"] = (statistics.median(durs) * 1e3 if durs else 0.0, "ms")

    wall = sum(r[1] for r in records)
    span_cost, count_cost = overhead_per_call()
    added = sum(len(spans) for spans in op_rows) * span_cost + sum(counts.values()) * count_cost
    m["trace.op_mean_ms"] = (wall / ops * 1e3, "ms")
    m["trace.overhead_pct"] = (100.0 * added / (wall - added), "%")
    return m


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


# each probe call is repeated until this much time is spent, and the median taken
PROBE_SECONDS = 0.5


def _timed(fn) -> float:
    samples = []
    spent = 0.0
    while spent < PROBE_SECONDS:
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
        spent += samples[-1]
    return statistics.median(samples)


def scaling_exponents(api, seed: int):
    """Log-log slope of one call's time between two atom counts, on the
    workloads' own generators: 1e3 -> 1e4 for the hull and the dual, 1e4 -> 1e5
    for the partition functions.  Run it before the tracer is installed."""
    rng = np.random.default_rng(seed)
    rho = api.RiskFunctional.avar(workloads.COARSE_ALPHA)
    out = {}
    times = {}
    for n in (1_000, 10_000):
        space = api.FiniteProbSpace.uniform(n)
        x = api.RandomVariable(space, workloads.large_book_values(rng, n, "student_t3"))
        times.setdefault("risk_core.higher_order_T", []).append(
            _timed(lambda: api.higher_order_T(x, 2.0, 2.0)))
        times.setdefault("duality.dual_higher_order", []).append(
            _timed(lambda: api.dual_higher_order(x, 2.0, 2.0)))
    for n in (10_000, 100_000):
        space = api.FiniteProbSpace.uniform(n)
        values = workloads.coarsening_values(rng, n, "normal_icdf")
        x = api.RandomVariable(space, values)
        labels = np.argsort(np.argsort(values)) // 8  # cells of 8 neighbouring values
        part = api.Partition.from_labels(space, labels)
        times.setdefault("prob_core.from_labels", []).append(
            _timed(lambda: api.Partition.from_labels(space, labels)))
        times.setdefault("prob_core.cond_exp", []).append(_timed(lambda: api.cond_exp(x, part)))
        times.setdefault("extension.extend_sup", []).append(
            _timed(lambda: api.extend_sup(rho, x, budget=8, seed=0)))
    for name, (small, large) in times.items():
        out[f"{name}.scaling_exp"] = (math.log(large / small) / math.log(10.0), "1")
    return out
