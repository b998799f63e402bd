"""The scripts the README documents run against the current engine."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name),
                           *args], capture_output=True, text=True, env=env,
                          timeout=120)


def test_control_demo_runs():
    r = run_script("control_demo.py")
    assert (r.returncode, r.stderr) == (0, "")
    assert "verdict:" in r.stdout and "FAILED" not in r.stdout


def test_torsion_stress_agrees():
    # a draw agrees when torsion = defect, each torsion generator's
    # annihilator matches the elimination from scratch and the definition,
    # both kernel embeddings' column bases contain the module's relations,
    # and HomModule.classes results are their own normal forms
    r = run_script("torsion_stress.py", "--count", "3")
    assert (r.returncode, r.stderr) == (0, "")
    last = r.stdout.splitlines()[-1]
    head, _, tail = last.partition("annihilator mismatches: 0 of ")
    assert head == "agreement: 3/3, "
    count, _, tail = tail.partition(", ")
    assert int(count) > 0
    assert tail == "span mismatches: 0, normal form mismatches: 0"


def test_check_digests_passes_on_one_workload():
    r = run_script("check_digests.py", "--workload", "torsion-xy")
    assert (r.returncode, r.stderr) == (0, "")
    assert r.stdout.splitlines()[-1] == "digests: 64/64 match"
