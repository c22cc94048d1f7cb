import csv
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenrisk import (
    BatteryConfig,
    RiskFunctional,
    RunReport,
    ScenRiskError,
    dual_higher_order,
    emit_report,
    fenchel_gap,
    ingest_csv,
    run_battery,
)
from scenrisk.cli import main

DATA = Path(__file__).parent / "data"


def write_csv(tmp_path, text, name="scn.csv"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# ---------------------------------------------------------------------------
# ingestion
# ---------------------------------------------------------------------------

def test_ingest_bundled_example():
    table = ingest_csv(str(DATA / "uniform4.csv"))
    assert table.space.atom_count == 4
    assert table.names == ("pnl", "hedge")
    assert np.allclose(table.variable("pnl").values, [1, 2, 3, 4])
    assert table.variable().values[0] == 1.0  # default column is the first


def test_ingest_rejects_sum_off_by_1e6(tmp_path):
    path = write_csv(tmp_path, "probability,x\n0.5,1\n0.499999,2\n")
    with pytest.raises(ScenRiskError, match="sum"):
        ingest_csv(path)


def test_ingest_accepts_tiny_drift_and_normalizes(tmp_path):
    path = write_csv(tmp_path, "probability,x\n0.5,1\n0.4999999999,2\n")
    table = ingest_csv(path)
    assert table.space.probs.sum() == pytest.approx(1.0, abs=1e-15)
    assert table.raw_prob_sum == pytest.approx(1.0 - 1e-10, abs=1e-13)


def test_ingest_errors_carry_row_numbers(tmp_path):
    path = write_csv(tmp_path, "probability,x\n0.5,1\n-0.1,2\n0.6,3\n")
    with pytest.raises(ScenRiskError, match="row 3"):
        ingest_csv(path)
    path = write_csv(tmp_path, "probability,x\n0.5,1\n0.5,oops\n")
    with pytest.raises(ScenRiskError, match="row 3"):
        ingest_csv(path)
    path = write_csv(tmp_path, "probability,x\n0.5,1,9\n0.5,2\n")
    with pytest.raises(ScenRiskError, match="row 2"):
        ingest_csv(path)


def test_ingest_rejects_duplicate_column_names(tmp_path):
    path = write_csv(tmp_path, "probability,pnl,hedge,pnl\n1.0,1,2,3\n")
    with pytest.raises(ScenRiskError, match="duplicate column name 'pnl'"):
        ingest_csv(path)


def test_ingest_unreadable_file_is_a_clean_error(tmp_path, capsys):
    missing = str(tmp_path / "missing.csv")
    with pytest.raises(ScenRiskError, match="cannot read"):
        ingest_csv(missing)
    binary = tmp_path / "binary.csv"
    binary.write_bytes(b"probability,x\n\xff\xfe,1\n")
    with pytest.raises(ScenRiskError, match="cannot read"):
        ingest_csv(str(binary))
    assert main(["eval", missing]) == 2
    assert capsys.readouterr().err.startswith("error:")


def reference_ingest(path):
    """The row-by-row parser that ``ingest_csv`` replaced, kept as the slow
    reference: (probs, columns, raw sum) or the ScenRiskError message."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header = [h.strip() for h in rows[0]]
    probs, cols = [], [[] for _ in header[1:]]
    for rownum, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            return f"{path}: row {rownum}: expected {len(header)} fields"
        try:
            vals = [float(c) for c in row]
        except ValueError as exc:
            return f"{path}: row {rownum}: malformed number: {exc}"
        if not all(math.isfinite(v) for v in vals):
            return f"{path}: row {rownum}: non-finite entry"
        if vals[0] <= 0.0:
            return f"{path}: row {rownum}: non-positive probability {vals[0]!r}"
        probs.append(vals[0])
        for k, v in enumerate(vals[1:]):
            cols[k].append(v)
    total = float(sum(probs))
    if abs(total - 1.0) > 1e-9:
        return f"{path}: probabilities sum to {total!r}; outside the 1e-9 tolerance"
    return np.asarray(probs), [np.asarray(c) for c in cols], total


FAULTS = ("short", "long", "blank", "blank_end", "token", "empty", "non_finite",
          "non_positive")


@st.composite
def scenario_files(draw):
    """A book in one of several number and field formats, with zero, one or
    two injected faults."""
    n = draw(st.integers(1, 25))
    k = draw(st.integers(1, 3))
    w = np.asarray(draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)))
    probs = w / w.sum()
    values = draw(st.lists(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                    min_size=k, max_size=k), min_size=n, max_size=n))
    fmt = draw(st.sampled_from(["%.17g", "repr"]))
    quote = draw(st.sampled_from(["never", "always", "mixed"]))
    pad = draw(st.sampled_from(["", " ", "  ", "\t"]))
    eol = draw(st.sampled_from(["\n", "\r\n"]))

    def cell(v):
        tok = repr(float(v)) if fmt == "repr" else "%.17g" % v
        tok = pad + tok + pad
        if quote == "always" or (quote == "mixed" and draw(st.booleans())):
            tok = '"' + tok + '"'
        return tok

    rows = [[cell(p)] + [cell(v) for v in vals] for p, vals in zip(probs, values)]
    faults = draw(st.lists(st.tuples(st.sampled_from(FAULTS), st.integers(0, n - 1)),
                           max_size=2))
    blanks = []
    for fault, i in faults:
        row = rows[i]
        if fault == "short":
            row.pop()
        elif fault == "long":
            row.append(cell(1.0))
        elif fault in ("blank", "blank_end"):
            blanks.append(n if fault == "blank_end" else i)
        elif fault == "token":
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(
                ["oops", "1e", "--1", "0x10", "1.5.2", " 1 2 ", '"1"x']))
        elif fault == "empty":
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(["", '""', " "]))
        elif fault == "non_finite":
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(
                ["nan", "inf", "-inf", " NaN", "1e999"]))
        else:
            row[0] = draw(st.sampled_from(["0", "-0.0", "-0.5", "-1e-300"]))
    lines = ["probability," + ",".join(f"x{j}" for j in range(k))]
    lines += [",".join(row) for row in rows]
    for b in sorted(blanks, reverse=True):
        lines.insert(b + 1, "")
    text = eol.join(lines)
    if blanks and max(blanks) == n or draw(st.booleans()):
        text += eol
    return text


@given(scenario_files())
@settings(max_examples=200, deadline=None)
def test_ingest_matches_the_row_by_row_reference(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("book") / "scn.csv"
    path.write_bytes(text.encode())
    want = reference_ingest(str(path))
    if isinstance(want, str):
        with pytest.raises(ScenRiskError) as err:
            ingest_csv(str(path))
        assert str(err.value) == want
        return
    table = ingest_csv(str(path))
    probs, cols, total = want
    assert table.raw_prob_sum.hex() == total.hex()
    assert table.space.probs.tobytes() == (probs / probs.sum()).tobytes()
    for name, col in zip(table.names, cols):
        assert table.columns[name].values.tobytes() == col.tobytes()


def test_ingest_first_offending_row_wins(tmp_path):
    path = write_csv(tmp_path, "probability,x\n-0.5,1\n0.5,oops\n")
    with pytest.raises(ScenRiskError) as err:
        ingest_csv(path)
    assert str(err.value) == f"{path}: row 2: non-positive probability -0.5"
    path = write_csv(tmp_path, "probability,x\n0.5,1\n\n0.5,nan\n")
    with pytest.raises(ScenRiskError, match="row 3: expected 2 fields"):
        ingest_csv(path)


@pytest.mark.parametrize("token", ["1_000", "1_0.5", "\u0661", "1\u0660", "\uff11.5"])
def test_ingest_rejects_digit_groups_and_non_ascii_digits(tmp_path, token):
    path = write_csv(tmp_path, f"probability,x\n0.5,1\n0.5,{token}\n", name="d.csv")
    with pytest.raises(ScenRiskError) as err:
        ingest_csv(path)
    assert str(err.value) == (f"{path}: row 3: malformed number: "
                              f"could not convert string to float: {token!r}")


def test_ingest_reads_quoted_fields_spanning_lines(tmp_path):
    path = write_csv(tmp_path, 'probability,x\n"0.5\n",1\n0.5," 2\r\n"\n')
    table = ingest_csv(path)
    assert table.space.atom_count == 2
    assert table.variable().values.tolist() == [1.0, 2.0]


def test_ingest_decodes_utf8_whatever_the_locale(tmp_path):
    path = tmp_path / "euro.csv"
    path.write_bytes("probability,pnl \u20ac\n1.0,2\n".encode())
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
               PYTHONPATH=src)
    code = "import sys; from scenrisk import ingest_csv; print(ascii(ingest_csv(sys.argv[1]).names))"
    out = subprocess.run([sys.executable, "-c", code, str(path)], env=env,
                         capture_output=True, check=True)
    assert out.stdout == b"('pnl \\u20ac',)\n"


def test_ingest_requires_probability_header(tmp_path):
    path = write_csv(tmp_path, "prob,x\n1.0,1\n")
    with pytest.raises(ScenRiskError, match="probability"):
        ingest_csv(path)


def test_battery_on_weighted_space(tmp_path):
    path = write_csv(
        tmp_path,
        "probability,x\n0.4,-2\n0.3,0.5\n0.2,1\n0.1,4\n",
        name="weighted.csv",
    )
    table = ingest_csv(path)
    report = run_battery(table, BatteryConfig(trials=6, seed=5))
    assert report.all_passed


# ---------------------------------------------------------------------------
# battery and reports
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def battery_report():
    table = ingest_csv(str(DATA / "uniform4.csv"))
    config = BatteryConfig(trials=8, seed=424242)
    return run_battery(table, config, command="battery uniform4.csv")


def test_battery_all_checks_pass(battery_report):
    names = [c.name for c in battery_report.checks]
    assert names == [
        "dilatation_monotonicity",
        "cash_additivity",
        "convexity",
        "monotonicity",
        "extension_agreement",
        "strong_duality",
        "kusuoka_sandwich",
        "lemma21_bounds",
    ]
    assert battery_report.all_passed
    for c in battery_report.checks:
        assert c.status == "pass"


def test_battery_deterministic():
    table = ingest_csv(str(DATA / "uniform4.csv"))
    config = BatteryConfig(trials=5, seed=7)
    a = emit_report(run_battery(table, config), format="text")
    b = emit_report(run_battery(table, config), format="text")
    assert a == b


def test_battery_zero_tolerance_reports_failures():
    table = ingest_csv(str(DATA / "uniform4.csv"))
    config = BatteryConfig(trials=6, seed=3, tolerance=0.0)
    report = run_battery(table, config)
    failed = [c for c in report.checks if c.status == "fail"]
    assert failed  # float noise must trip a zero tolerance somewhere
    for c in failed:
        assert np.isfinite(c.lhs) and np.isfinite(c.rhs)
    assert not report.all_passed


def test_emit_text_structure(battery_report):
    doc = emit_report(battery_report, format="text").decode()
    assert doc.startswith("scenrisk-report 1\n")
    assert doc.count("check: name=") == len(battery_report.checks)
    assert "seed: 424242" in doc
    assert "runtime" not in doc  # excluded by default for determinism


def test_emit_round_trips_probabilities(battery_report):
    doc = emit_report(battery_report, format="text").decode()
    line = next(l for l in doc.splitlines() if l.startswith("probabilities:"))
    parsed = [float(tok) for tok in line.split()[1:]]
    for got, want in zip(parsed, battery_report.space_probs):
        assert got == pytest.approx(want, rel=1e-12)


def test_emit_curves_csv(battery_report):
    csv_bytes = emit_report(battery_report, format="curves")
    lines = csv_bytes.decode().splitlines()
    assert lines[0] == "level,value,l1_gap"
    assert len(lines) > 1
    for line in lines[1:]:
        level, value, gap = line.split(",")
        int(level), float(value), float(gap)


def test_emit_document_counts_records():
    from scenrisk import CheckRecord
    report = RunReport(
        command="battery two",
        seed=4,
        space_probs=(0.5, 0.5),
        variable_names=("x",),
        checks=(
            CheckRecord("alpha", "pass", 1.0, 2.0, 1e-7, 0.0, 4),
            CheckRecord("beta", "fail", 3.0, 2.5, 1e-7, 0.0, 5),
        ),
        curves=(),
    )
    doc = emit_report(report, format="text").decode()
    assert doc.count("check: name=") == 2
    assert "status=fail" in doc and "trial_seed=5" in doc
    assert not report.all_passed


def test_emit_empty_battery_is_valid():
    report = RunReport(
        command="battery empty",
        seed=1,
        space_probs=(1.0,),
        variable_names=("x",),
        checks=(),
        curves=(),
    )
    doc = emit_report(report, format="text").decode()
    assert "checks: 0" in doc
    assert emit_report(report, format="curves").decode() == "level,value,l1_gap\n"


def test_emit_rejects_unknown_format(battery_report):
    with pytest.raises(ValueError):
        emit_report(battery_report, format="yaml")


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_eval(capsys):
    rc = main(["eval", str(DATA / "uniform4.csv"), "--measure", "avar", "--alpha", "0.5"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "value: -1.5" in out
    assert "seed:" in out


def test_cli_eval_higher_order(capsys):
    rc = main(["eval", str(DATA / "uniform4.csv"), "--measure", "higher_order",
               "--c", "2", "--p", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "value: -1.5" in out  # RU mode reproduces AVaR_(1/2)


def test_cli_extend(capsys):
    rc = main(["extend", str(DATA / "uniform4.csv"), "--measure", "avar",
               "--alpha", "0.5", "--depth", "4", "--budget", "3", "--seed", "5"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "sup_over_partitions: -1.5" in out
    assert "curve: level=4" in out


def test_cli_extend_curves_format(capsys):
    rc = main(["extend", str(DATA / "uniform4.csv"), "--measure", "higher_order",
               "--c", "2", "--p", "2", "--depth", "3", "--format", "curves"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "level,value,l1_gap" in out


def test_cli_dual(capsys):
    rc = main(["dual", str(DATA / "uniform4.csv"), "--c", "2", "--p", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    gap = float(re.search(r"duality_gap: ([-\d.e+]+)", out).group(1))
    assert gap <= 1e-6


def test_cli_dual_bisects_the_bracket_twice(monkeypatch, capsys):
    # the primal and the dual solve the bracket; the Fenchel gap reuses the
    # primal and the pairing E[x(-z)], which is the dual value
    import scenrisk.duality as duality_mod
    import scenrisk.risk_core as risk_mod
    calls = []
    inner = risk_mod._higher_order_bracket

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(risk_mod, "_higher_order_bracket", counted)
    monkeypatch.setattr(duality_mod, "_higher_order_bracket", counted)
    assert main(["dual", str(DATA / "uniform4.csv"), "--c", "1.5", "--p", "2"]) == 0
    out = capsys.readouterr().out
    assert len(calls) == 2
    x = ingest_csv(str(DATA / "uniform4.csv")).variable()
    _, z = dual_higher_order(x, 1.5, 2.0)
    gap = fenchel_gap(RiskFunctional.higher_order(1.5, 2.0), x, -z.as_variable())
    assert f"fenchel_gap: {gap:.3g}\n" in out


def test_cli_extend_past_depth_62(capsys):
    # levels from 64 on overflowed the bin labels: the curve fell and the L1 gap rose
    rc = main(["extend", str(DATA / "uniform4.csv"), "--depth", "2000", "--format", "curves"])
    out = capsys.readouterr().out
    assert rc == 0
    rows = out[out.index("level,value,l1_gap\n"):].splitlines()[1:]
    assert len(rows) == 2000
    values = [float(r.split(",")[1]) for r in rows]
    assert all(nxt >= cur for nxt, cur in zip(values[1:], values))
    assert float(rows[-1].split(",")[2]) == 0.0


def test_cli_kusuoka(capsys):
    rc = main(["kusuoka", str(DATA / "uniform4.csv"), "--c", "2", "--p", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    gap = float(re.search(r"gap: ([-\d.e+]+)", out).group(1))
    assert abs(gap) <= 1e-9


@pytest.mark.parametrize("argv, env_seed", [
    (["eval", "--column", "nosuch"], None),
    (["eval", "--alpha", "2"], None),
    (["eval", "--measure", "higher_order", "--c", "0.5"], None),
    (["extend", "--depth", "0"], None),
    (["dual", "--p", "1"], None),
    (["kusuoka", "--p", "1"], None),
    (["kusuoka", "--c", "1"], None),
    (["eval"], "abc"),
    (["eval", "--measure", "higher_order", "--p", "inf"], None),
    (["dual", "--p", "inf"], None),
    (["kusuoka", "--c", "inf"], None),
    (["eval", "--measure", "higher_order", "--c", "nan"], None),
    (["lemma21"], None),
    (["lemma21", "--n-max", "1"], None),
    (["battery", "--trials", "0"], None),
    (["battery", "--trials", "-3"], None),
    (["extend", "--seed", "-1"], None),
    (["battery", "--seed", "-1"], None),
    (["extend"], "-1"),
])
def test_cli_bad_request_exits_2_with_one_error_line(argv, env_seed, monkeypatch, capsys):
    if env_seed is not None:
        monkeypatch.setenv("SCENRISK_SEED", env_seed)
    verb, *rest = argv
    rc = main([verb, str(DATA / "uniform4.csv"), *rest])
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert rc == 2
    assert len(err) == 1 and err[0].startswith("error:")
    for flag, value in zip(rest, rest[1:]):
        if value in ("inf", "nan"):
            assert f"{flag[2:]} must be finite" in err[0]
    # parameters are validated before any result line is printed
    assert all(line.startswith("seed:") for line in captured.out.splitlines())


def test_cli_lemma21_fine_and_coarse(tmp_path, capsys):
    nd = NormalDist()
    n = 400
    rows = "\n".join(f"{1.0 / n},{nd.inv_cdf((i + 0.5) / n)}" for i in range(n))
    fine = write_csv(tmp_path, "probability,x\n" + rows + "\n", name="fine.csv")
    rc = main(["lemma21", fine, "--n-max", "5"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "VIOLATED" not in out
    rc = main(["lemma21", str(DATA / "uniform4.csv"), "--n-max", "5"])
    assert rc == 2  # atoms too coarse: clean error path


def test_cli_battery_exit_code(capsys):
    rc = main(["battery", str(DATA / "uniform4.csv"), "--trials", "4", "--seed", "9"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "scenrisk-report 1" in out


def test_cli_battery_exit_nonzero_on_failure(capsys, monkeypatch):
    import scenrisk.cli as cli_mod

    def broken_battery(table, config, command=""):
        return run_battery(table, BatteryConfig(trials=4, seed=3, tolerance=0.0),
                           command=command)

    monkeypatch.setattr(cli_mod, "run_battery", broken_battery)
    rc = main(["battery", str(DATA / "uniform4.csv")])
    capsys.readouterr()
    assert rc == 1


def test_cli_seed_env_override(capsys, monkeypatch):
    monkeypatch.setenv("SCENRISK_SEED", "31337")
    rc = main(["eval", str(DATA / "uniform4.csv")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "seed: 31337" in out
