"""The CLI's bytes on ``tests/data/uniform4.csv`` match the recorded outputs.

Each case runs ``cli.main`` in process with ``SCENRISK_SEED`` unset, from the
repository root, and compares stdout, stderr and the exit code with the files
under ``tests/data/golden/``.  After a change that is meant to move an output,
rewrite the files with ``PYTHONPATH=src python tests/test_cli_golden.py`` and
record each moved line.
"""

import contextlib
import io
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "golden"
CSV = "tests/data/uniform4.csv"

CASES = {
    "eval_avar": ["eval", CSV, "--measure", "avar"],
    "eval_higher_order": ["eval", CSV, "--measure", "higher_order"],
    "dual": ["dual", CSV],
    "kusuoka": ["kusuoka", CSV],
    "extend_text": ["extend", CSV],
    "extend_curves": ["extend", CSV, "--format", "curves"],
    "lemma21": ["lemma21", CSV],
    "battery": ["battery", CSV],
    "battery_seed5": ["battery", CSV, "--seed", "5"],
    "battery_seed11": ["battery", CSV, "--seed", "11"],
    "battery_curves": ["battery", CSV, "--format", "curves"],
}


def run_cli(argv):
    """(stdout, stderr, exit code) of one in-process CLI run, as bytes."""
    from scenrisk import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return out.getvalue().encode(), err.getvalue().encode(), code


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, monkeypatch):
    monkeypatch.delenv("SCENRISK_SEED", raising=False)
    monkeypatch.chdir(ROOT)
    stdout, stderr, code = run_cli(CASES[name])
    assert stdout == (GOLDEN / f"{name}.stdout").read_bytes()
    assert stderr == (GOLDEN / f"{name}.stderr").read_bytes()
    assert code == int((GOLDEN / f"{name}.exit").read_text())


def regenerate():
    os.environ.pop("SCENRISK_SEED", None)
    os.chdir(ROOT)
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name, argv in CASES.items():
        stdout, stderr, code = run_cli(argv)
        (GOLDEN / f"{name}.stdout").write_bytes(stdout)
        (GOLDEN / f"{name}.stderr").write_bytes(stderr)
        (GOLDEN / f"{name}.exit").write_text(f"{code}\n")
        print(f"{name}: exit {code}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
