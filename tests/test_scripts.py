"""The scripts under scripts/ run end to end on small inputs: each exits 0
and prints its table."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv",
    [
        ("omega_triangle.py", "--scan", "--kmax", "3"),
        ("dimension_scan.py", "--kmax", "2", "--check-rank"),
        ("spectral_table.py", "--seq", "1,-1", "--m", "2", "--n", "2", "--delta", "0"),
    ],
    ids=lambda argv: argv[0],
)
def test_script_runs(argv):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
