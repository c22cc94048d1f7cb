"""The study scripts run end to end against the package in ``src``."""

import csv
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_duality_study_certifies_every_instance():
    out = run_script("duality_study.py", "--instances", "3")
    lines = out.splitlines()
    assert lines[0] == "n,c,p,primal,dual,mixture,cert_norm,constraint,dual_gap,mixture_gap"
    rows = list(csv.DictReader(lines))
    assert len(rows) == 3
    for row in rows:
        assert float(row["dual_gap"]) <= 1e-9
        assert float(row["mixture_gap"]) <= 1e-9
        assert float(row["constraint"]) <= 1.0 + 1e-12


def test_convergence_study_curves_are_nondecreasing():
    out = run_script("convergence_study.py", "--atoms", "256", "--depth", "4", "--n-max", "5")
    curves = {}
    measure = None
    for line in out.splitlines():
        if line.startswith("# measure="):
            measure = line.split()[1]
            curves[measure] = []
        elif line.startswith("#") or not line:
            measure = None
        elif measure is not None and line[0].isdigit():
            curves[measure].append(float(line.split(",")[1]))
    assert set(curves) == {"measure=avar(0.25)", "measure=avar(0.5)",
                           "measure=higher_order(2,2)"}
    for values in curves.values():
        assert len(values) == 4
        assert all(a <= b for a, b in zip(values, values[1:]))
