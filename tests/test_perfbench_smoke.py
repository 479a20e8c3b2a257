"""The benchmark's own smoke run, at tiny sizes, as part of the test suite.

It checks every decoded score against the teacher-forced likelihood and
that training checkpoints reload, through capgen's public functions.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke_passes():
    proc = subprocess.run([sys.executable, "perfbench/smoke.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
