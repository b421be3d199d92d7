"""Smoke test: every script under demos/ runs to completion as its own
process, against the same kgsemcom this test session imports."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import kgsemcom

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("script, args", [
    ("ber_curves.py", ["--bits", "2000", "--snr", "4", "8"]),
    ("make_synthetic_corpus.py", ["--sentences", "5", "--out", "{tmp}/corpus.txt"]),
    ("run_single_transmission.py", ["--snr", "6"]),
    ("sweep_demo.py", ["--trials", "1", "--snr", "6", "--out", "{tmp}/sweep.csv"]),
])
def test_demo_runs(tmp_path, script, args):
    src = str(Path(kgsemcom.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = [a.format(tmp=tmp_path) for a in args]
    proc = subprocess.run([sys.executable, str(DEMOS / script), *argv], cwd=tmp_path,
                          capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
