"""The three workloads: inputs made from the seed, the operations, and their checks.

Each workload writes its scenario files, then `setup()` ingests them the way
a user would (that is the timed set-up), and `round()` returns the same list
of operations every time.  An operation is `Op(kind, run, check)`: `run()`
makes only program calls and returns their raw results, `check()` returns
"" or a failure message and is never timed.
"""

from __future__ import annotations

import contextlib
import io
import os
from statistics import NormalDist
from typing import Callable, List, NamedTuple

import numpy as np

import reference as ref

PAIRS = ((1.5, 2.0), (2.0, 2.0), (2.0, 3.0), (4.0, 1.5))


class Op(NamedTuple):
    kind: str
    run: Callable
    check: Callable
    known_fault: bool = False  # a request the program is known to mishandle


def _close(value: float, want: float, tol: float) -> bool:
    return abs(value - want) <= tol * max(1.0, abs(want))


def _write_csv(path: str, probs: np.ndarray, columns: dict) -> None:
    names = list(columns)
    with open(path, "w") as fh:
        fh.write(",".join(["probability"] + names) + "\n")
        for i in range(probs.size):
            fh.write(",".join(f"{v:.17g}" for v in [probs[i]] + [columns[n][i] for n in names]) + "\n")


def _weights(rng, n: int, kind: str) -> np.ndarray:
    w = rng.gamma(2.0, size=n) if kind == "gamma" else np.ones(n)
    return w / w.sum()


def _distinct(draw: Callable, n: int) -> np.ndarray:
    while True:
        x = draw(n)
        if np.unique(x).size == n:
            return x


# ---------------------------------------------------------------------------
# desk_cli
# ---------------------------------------------------------------------------

# (atoms, probabilities, values); books of at most 12 atoms also get `battery`
DESK_BOOKS = (
    (4, "uniform", "normal"), (8, "gamma", "student_t"), (12, "uniform", "rounded"),
    (25, "gamma", "normal"), (50, "uniform", "student_t"), (100, "gamma", "rounded"),
    (180, "uniform", "normal"), (260, "gamma", "student_t"), (380, "uniform", "rounded"),
    (500, "gamma", "normal"),
)
DESK_ALPHAS = (0.05, 0.1, 0.25, 0.5)
MALFORMED = (
    ("eval", "--column", "nosuch"),
    ("eval", "--alpha", "2"),
    ("eval", "--measure", "higher_order", "--c", "0.5"),
    ("extend", "--depth", "0"),
)


def _desk_values(rng, n: int, kind: str) -> np.ndarray:
    if kind == "normal":
        return rng.normal(0.2, 1.5, size=n)
    if kind == "student_t":
        return rng.standard_t(4, size=n)
    return np.round(rng.normal(0.0, 1.5, size=n) * 2.0) / 2.0  # ties on a 0.5 grid


class CliResult(NamedTuple):
    code: object
    out: str
    err: str
    escaped: str


def _fields(out: str, key: str) -> List[str]:
    prefix = key + ":"
    return [line[len(prefix):].strip() for line in out.splitlines() if line.startswith(prefix)]


def _field(out: str, key: str) -> float:
    return float(_fields(out, key)[0])


def _kv(text: str) -> dict:
    return dict(part.split("=", 1) for part in text.split() if "=" in part)


class DeskCli:
    """About ten small books through `scenrisk.cli.main(argv)`, in process."""

    def __init__(self, api, seed: int, workdir: str):
        self.api = api
        rng = np.random.default_rng(seed)
        self.books = []
        for i, (n, wkind, vkind) in enumerate(DESK_BOOKS):
            probs = _weights(rng, n, wkind)
            cols = {"pnl": _desk_values(rng, n, vkind), "hedge": _desk_values(rng, n, vkind)}
            path = os.path.join(workdir, f"book{i:02d}_{n}.csv")
            _write_csv(path, probs, cols)
            self.books.append((path, probs, cols))
        self._t_cache = {}

    def setup(self):
        self.tables = [self.api.ingest_csv(path) for path, _, _ in self.books]

    def _cli(self, argv) -> CliResult:
        out, err = io.StringIO(), io.StringIO()
        code, escaped = None, ""
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.api.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # the benchmark records the escape as a failed op
                escaped = f"{type(exc).__name__}: {exc}"
        return CliResult(code, out.getvalue(), err.getvalue(), escaped)

    def _ref_t(self, book: int, col: str, c: float, p: float) -> float:
        key = (book, col, c, p)
        if key not in self._t_cache:
            _, probs, cols = self.books[book]
            self._t_cache[key] = ref.higher_order_t(cols[col], probs, c, p)
        return self._t_cache[key]

    def round(self) -> List[Op]:
        ops = []
        for i, (path, probs, cols) in enumerate(self.books):
            alpha = DESK_ALPHAS[i % len(DESK_ALPHAS)]
            c, p = PAIRS[i % len(PAIRS)]
            cp = ["--c", f"{c:g}", "--p", f"{p:g}"]

            def request(argv):
                return lambda: self._cli(argv)

            ops.append(Op("eval", request(["eval", path, "--measure", "avar", "--alpha", f"{alpha:g}"]),
                          self._check_eval_avar(probs, cols["pnl"], alpha)))
            ops.append(Op("eval", request(["eval", path, "--measure", "higher_order", *cp,
                                           "--column", "hedge"]),
                          self._check_eval_t(i, c, p)))
            ops.append(Op("dual", request(["dual", path, *cp]), self._check_dual(i, c, p)))
            ops.append(Op("extend", request(["extend", path, "--measure", "higher_order", *cp,
                                             "--column", "hedge"]),
                          self._check_extend(i, c, p)))
            ops.append(Op("kusuoka", request(["kusuoka", path, *cp]), self._check_kusuoka(i, c, p)))
            verb, *rest = MALFORMED[i % len(MALFORMED)]
            ops.append(Op("malformed", request([verb, path, *rest]), _check_malformed, True))
            if probs.size <= 12:
                ops.append(Op("battery", request(["battery", path]), _check_battery))
        return ops

    # -- checks -------------------------------------------------------------

    def _check_eval_avar(self, probs, x, alpha):
        def check(res: CliResult) -> str:
            bad = _cli_error(res)
            if bad:
                return bad
            want = ref.avar(x, probs, alpha)
            got = _field(res.out, "value")
            return "" if _close(got, want, 1e-9) else f"avar {got!r} != reference {want!r}"
        return check

    def _check_eval_t(self, book, c, p):
        def check(res: CliResult) -> str:
            bad = _cli_error(res)
            if bad:
                return bad
            want = self._ref_t(book, "hedge", c, p)
            got = _field(res.out, "value")
            return "" if _close(got, want, 1e-6) else f"T {got!r} != reference {want!r}"
        return check

    def _check_dual(self, book, c, p):
        def check(res: CliResult) -> str:
            bad = _cli_error(res)
            if bad:
                return bad
            probs = self.books[book][1]
            want = self._ref_t(book, "pnl", c, p)
            primal, dual = _field(res.out, "primal"), _field(res.out, "dual")
            z = np.array(_fields(res.out, "density")[0].split(), dtype=float)
            if not _close(primal, want, 1e-6):
                return f"dual primal {primal!r} != reference T {want!r}"
            if _field(res.out, "duality_gap") > 1e-6 or not _close(dual, want, 1e-6):
                return f"dual {dual!r} does not close the gap to T {want!r}"
            if z.size != probs.size or z.min() < 0.0 or abs(float(probs @ z) - 1.0) > 1e-5:
                return "printed density is not a probability density"
            return ""
        return check

    def _check_extend(self, book, c, p):
        def check(res: CliResult) -> str:
            bad = _cli_error(res)
            if bad:
                return bad
            direct = _field(res.out, "direct")
            want = self._ref_t(book, "hedge", c, p)
            if not _close(direct, want, 1e-6):
                return f"extend direct {direct!r} != reference T {want!r}"
            if not _close(_field(res.out, "sup_over_partitions"), direct, 1e-9):
                return "extension identity: sup over partitions != direct value"
            slack = 1e-7 * max(1.0, abs(direct))
            samples = [float(_kv(s)["value"]) for s in _fields(res.out, "sample")]
            if not samples or max(samples) > direct + slack:
                return "a sampled coarsening exceeds the direct value"
            curve = [float(_kv(s)["value"]) for s in _fields(res.out, "curve")]
            if not curve or any(b < a - slack for a, b in zip(curve, curve[1:])):
                return "refinement curve decreases"
            return ""
        return check

    def _check_kusuoka(self, book, c, p):
        def check(res: CliResult) -> str:
            bad = _cli_error(res)
            if bad:
                return bad
            _, probs, cols = self.books[book]
            want = self._ref_t(book, "pnl", c, p)
            scale = max(1.0, abs(want))
            primal, value = _field(res.out, "primal"), _field(res.out, "mixture_value")
            if not _close(primal, want, 1e-6):
                return f"kusuoka primal {primal!r} != reference T {want!r}"
            if not (want - 1e-3 * scale <= value <= want + 1e-6 * scale):
                return f"Kusuoka sandwich: mixture {value!r} outside [T - 1e-3, T + 1e-6], T = {want!r}"
            # the CLI prints the five largest weights to 6 digits; when they carry all
            # the mass, re-evaluate that measure with the reference
            pts = [_kv(s) for s in _fields(res.out, "weight")]
            levels = np.array([float(d["level"]) for d in pts])
            weights = np.array([float(d["w"]) for d in pts])
            if abs(weights.sum() - 1.0) <= 1e-5:
                q = p / (p - 1.0)
                mix = ref.mixture_value(cols["pnl"], probs, levels, weights)
                tol = 1e-4 * max(scale, float(np.ptp(cols["pnl"])))
                if abs(mix - value) > tol:
                    return f"printed mixing measure gives {mix!r}, not {value!r}"
                if ref.kusuoka_constraint(levels, weights, q) > c ** q * (1.0 + 1e-4):
                    return "printed mixing measure violates the Kusuoka constraint"
            return ""
        return check


def _cli_error(res: CliResult) -> str:
    if res.escaped:
        return f"exception escaped cli.main: {res.escaped}"
    if res.code != 0:
        return f"exit code {res.code!r}: {res.err.strip()[:200]}"
    return ""


def _check_malformed(res: CliResult) -> str:
    if res.escaped:
        return f"exception escaped cli.main: {res.escaped}"
    if res.code != 2:
        return f"exit code {res.code!r}, want 2"
    if not any(line.startswith("error:") for line in res.err.splitlines()):
        return "no error: line on stderr"
    return ""


def _check_battery(res: CliResult) -> str:
    bad = _cli_error(res)
    if bad:
        return bad
    checks = _fields(res.out, "check")
    if not checks:
        return "battery printed no checks"
    failing = [c for c in checks if _kv(c).get("status") != "pass"]
    return f"battery checks not passing: {failing[:3]}" if failing else ""


# ---------------------------------------------------------------------------
# large_book
# ---------------------------------------------------------------------------

LARGE_ATOMS = 10_000
LARGE_ALPHAS = (0.01, 0.05, 0.25)
P1_ALPHA = 0.05  # the p = 1 mode higher_order_T(x, 1/alpha, 1) is AVaR_alpha


def large_book_values(rng, n: int, kind: str) -> np.ndarray:
    """Book values with every atom distinct."""
    if kind == "student_t3":
        return _distinct(lambda m: rng.standard_t(3, size=m), n)
    if kind == "mixture":
        def draw(m):
            wide = rng.random(m) < 0.3
            return np.where(wide, rng.normal(-1.5, 2.5, size=m), rng.normal(0.3, 1.0, size=m))
        return _distinct(draw, n)
    return _distinct(lambda m: rng.normal(0.1, 1.0, size=m), n)


LARGE_BOOKS = (("student_t3", "uniform"), ("mixture", "uniform"), ("normal", "gamma"))


class LargeBook:
    """Books of 10^4 distinct values, certified through the API at four (c, p)."""

    def __init__(self, api, seed: int, workdir: str):
        self.api = api
        rng = np.random.default_rng(seed)
        self.books = []
        for vkind, wkind in LARGE_BOOKS:
            probs = _weights(rng, LARGE_ATOMS, wkind)
            x = large_book_values(rng, LARGE_ATOMS, vkind)
            path = os.path.join(workdir, f"{vkind}.csv")
            _write_csv(path, probs, {"pnl": x})
            self.books.append((path, probs, x))
        self._refs = {}

    def setup(self):
        self.vars = [self.api.ingest_csv(path).variable("pnl") for path, _, _ in self.books]

    def round(self) -> List[Op]:
        return [Op("certify", self._run(b, c, p), self._check(b, c, p))
                for b in range(len(self.books)) for c, p in PAIRS]

    def _run(self, book, c, p):
        api = self.api

        def run():
            x = self.vars[book]
            primal = api.higher_order_T(x, c, p)
            dual, z = api.dual_higher_order(x, c, p / (p - 1.0))
            avars = [api.avar(x, a) for a in LARGE_ALPHAS]
            p1 = api.higher_order_T(x, 1.0 / P1_ALPHA, 1.0)
            return primal, dual, z.values, avars, p1
        return run

    def _reference(self, book, c, p):
        key = (book, c, p)
        if key not in self._refs:
            _, probs, x = self.books[book]
            self._refs[key] = (ref.higher_order_t(x, probs, c, p),
                               [ref.avar(x, probs, a) for a in LARGE_ALPHAS],
                               ref.avar(x, probs, P1_ALPHA))
        return self._refs[key]

    def _check(self, book, c, p):
        def check(res) -> str:
            primal, dual, z, avars, p1 = res
            _, probs, x = self.books[book]
            want_t, want_avars, want_p1 = self._reference(book, c, p)
            q = p / (p - 1.0)
            if not _close(primal, want_t, 1e-6):
                return f"T {primal!r} != reference {want_t!r}"
            if z.min() < 0.0 or abs(float(probs @ z) - 1.0) > 1e-10:
                return "dual density is negative or has mass != 1"
            top = float(z.max())
            if top * float(probs @ (z / top) ** q) ** (1.0 / q) > c * (1.0 + 1e-9):
                return "dual density leaves the ball ||Z||_q <= c"
            pairing = -float(probs @ (x * z))
            if not (_close(pairing, dual, 1e-6) and _close(pairing, primal, 1e-6)):
                return f"E[-XZ] = {pairing!r} does not match dual {dual!r} and primal {primal!r}"
            for a, got, want in zip(LARGE_ALPHAS, avars, want_avars):
                if not _close(got, want, 1e-9):
                    return f"avar({a}) {got!r} != reference {want!r}"
            if not _close(p1, want_p1, 1e-9):
                return f"p = 1 mode {p1!r} != reference AVaR {want_p1!r}"
            return ""
        return check


# ---------------------------------------------------------------------------
# coarsening
# ---------------------------------------------------------------------------

COARSE_ATOMS = 30_000
COARSE_ALPHA = 0.05
CHAIN_DEPTH = 12
LEMMA_N_MAX = 15


def coarsening_values(rng, n: int, kind: str) -> np.ndarray:
    if kind == "normal_icdf":  # stratified: one jittered point per 1/n quantile slice
        nd = NormalDist()
        u = (np.arange(n) + rng.uniform(0.01, 0.99, size=n)) / n
        return np.array([nd.inv_cdf(float(t)) for t in u])
    if kind == "student_t":
        return rng.standard_t(4, size=n)
    return np.round(rng.normal(0.0, 1.0, size=n), 2)


COARSE_POSITIONS = ("normal_icdf", "student_t", "rounded")


def dyadic_labels(x: np.ndarray, probs: np.ndarray, level: int) -> np.ndarray:
    """Level-`level` dyadic quantile bins over the distinct values of x."""
    _, inverse = np.unique(x, return_inverse=True)
    class_prob = np.bincount(inverse, weights=probs)
    left = np.concatenate([[0.0], np.cumsum(class_prob)[:-1]])
    bins = np.floor(left * 2.0 ** level).astype(np.int64)
    return np.unique(bins[inverse], return_inverse=True)[1]


class Coarsening:
    """Refinement studies on 3*10^4 uniform atoms through the API."""

    def __init__(self, api, seed: int, workdir: str):
        self.api = api
        rng = np.random.default_rng(seed)
        self.probs = np.full(COARSE_ATOMS, 1.0 / COARSE_ATOMS)
        self.cols = {k: coarsening_values(rng, COARSE_ATOMS, k) for k in COARSE_POSITIONS}
        self.path = os.path.join(workdir, "positions.csv")
        _write_csv(self.path, self.probs, self.cols)
        self.labels = {k: dyadic_labels(v, self.probs, CHAIN_DEPTH) for k, v in self.cols.items()}
        self._avar = {k: ref.avar(v, self.probs, COARSE_ALPHA) for k, v in self.cols.items()}

    def setup(self):
        table = self.api.ingest_csv(self.path)
        self.vars = {k: table.variable(k) for k in COARSE_POSITIONS}

    def round(self) -> List[Op]:
        return [Op("refinement_study", self._run(k, i), self._check(k))
                for i, k in enumerate(COARSE_POSITIONS)]

    def _run(self, key, seed):
        api = self.api
        rho = api.RiskFunctional.avar(COARSE_ALPHA)

        def run():
            x = self.vars[key]
            curve = api.refinement_convergence(rho, x, depth=CHAIN_DEPTH)
            ext = api.extend_sup(rho, x, budget=8, seed=seed)
            seq = api.lemma21_sequence(x, LEMMA_N_MAX)
            last = api.cond_exp(x, api.Partition.from_labels(x.space, self.labels[key]))
            return curve, ext.value, seq, last.values
        return run

    def _check(self, key):
        def check(res) -> str:
            curve, ext_value, seq, last = res
            x, probs = self.cols[key], self.probs
            want = self._avar[key]
            if not _close(ext_value, want, 1e-9):
                return f"extend_sup {ext_value!r} != reference AVaR {want!r}"
            values = [pt.value for pt in curve]
            slack = 1e-9 * max(1.0, abs(want))
            if len(values) != CHAIN_DEPTH or any(b < a - slack for a, b in zip(values, values[1:])):
                return "refinement curve decreases"
            if np.max(np.abs(last - ref.cond_exp(x, probs, self.labels[key]))) > 1e-12 * max(1.0, np.abs(x).max()):
                return "cond_exp at the last chain level != bincount reference"
            delta = 2.0 * float(probs.max()) * float(np.ptp(x))
            k1 = ref.k1_of(x, probs)
            if len(seq) != LEMMA_N_MAX - 1:
                return "lemma21_sequence returned the wrong number of partitions"
            for part, got_k1, eps in seq:
                if not ref.covers_exactly(part.cells, x.size):
                    return f"Lemma 2.1 partition at eps={eps:g} does not cover the atoms exactly"
                if got_k1 != k1:
                    return f"Lemma 2.1 k1 {got_k1!r} != {k1!r}"
                ce = ref.cond_exp(x, probs, ref.labels_from_cells(part.cells, x.size))
                if np.any(np.abs(ce) > np.abs(x) + k1 + 1.0 + delta):
                    return f"Lemma 2.1 domination fails at eps={eps:g}"
                if not float(probs @ np.abs(ce - x)) < eps * (3.0 + 2.0 * k1) + delta:
                    return f"Lemma 2.1 L1 bound fails at eps={eps:g}"
            return ""
        return check


WORKLOADS = {"desk_cli": DeskCli, "large_book": LargeBook, "coarsening": Coarsening}
