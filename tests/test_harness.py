import re
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest

from scenrisk import (
    BatteryConfig,
    RunReport,
    ScenRiskError,
    emit_report,
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
