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
    ("rate_schedule.py", ["--seeds", "100", "--trials", "1", "--snr", "12"]),
    ("seed_margin.py", ["--seeds", "100", "--trials", "1", "--snr", "0", "--nats", "0", "3"]),
])
def test_demo_runs(tmp_path, script, args):
    stdout = _run_demo(tmp_path, script, args)
    assert stdout.strip()


def test_single_transmission_shows_both_classes(tmp_path):
    # the default sentence's 6 dB frame protects a seed and leaves one uncoded
    stdout = _run_demo(tmp_path, "run_single_transmission.py", ["--snr", "6"])
    frame = stdout.split("[4 frame] ")[1].split(" seeds")[0]
    n_p, n_u = (int(n) for n in frame.removesuffix(" unprotected").split(" protected / "))
    assert n_p >= 1 and n_u >= 1


def test_rate_schedule_rule_picks_the_shipped_table(tmp_path):
    # the rule, on the held-out graphs and seeds, gives convcode.PUNCTURES
    stdout = _run_demo(tmp_path, "rate_schedule.py", [])
    assert ("schedule: rate 2/3 from -inf dB, rate 3/4 from 10 dB, rate 7/8 from 12 dB\n"
            "convcode.PUNCTURES is this schedule: True") in stdout


def test_rate_schedule_prints_each_higher_rate_s_cost(tmp_path):
    # one cost line per graph at the one SNR: rate 2/3's similarity in the
    # table less each higher rate's, beside the tolerance
    stdout = _run_demo(tmp_path, "rate_schedule.py", ["--seeds", "100", "--trials", "1",
                                                      "--snr", "12"])
    similarity = {}
    for row in stdout.splitlines():
        if row.startswith("| synthkg "):
            graph, rate, cell = row.strip("| ").split(" | ")
            similarity[graph, rate] = float(cell.split(" @ ")[0])
    lines = [row for row in stdout.splitlines() if row.startswith("cost against rate 2/3")]
    assert len(lines) == 2
    for line in lines:
        head, _, rest = line.partition(": ")
        graph = head.removeprefix("cost against rate 2/3 at 12 dB on ")
        costs, _, tolerance = rest.partition(" (tolerance ")
        assert tolerance == "0.002)"
        pairs = [cell.split(" ") for cell in costs.split(", ")]
        assert [rate for rate, _ in pairs] == ["3/4", "5/6", "7/8"]
        for rate, value in pairs:
            want = similarity[graph, "2/3"] - similarity[graph, rate]
            assert float(value) == pytest.approx(want, abs=1.5e-4)


def _run_demo(tmp_path, script, args) -> str:
    """Run a demo as its own process; it must exit 0. -> its stdout."""
    src = str(Path(kgsemcom.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = [a.format(tmp=tmp_path) for a in args]
    proc = subprocess.run([sys.executable, str(DEMOS / script), *argv], cwd=tmp_path,
                          capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout
