"""Command-line interface: the five subcommands, their outputs, and the JSON
error contract (single stderr line, exit code 2)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import requests

from kgsemcom import cli, remote
from kgsemcom import kg as kgmod
from kgsemcom.harness import PipelineContext, run_pipeline


def _run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _error(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == 2
    lines = err.strip().splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert set(payload) == {"error", "message"}
    return payload


# -- build-kg ----------------------------------------------------------------------

def test_build_kg_roundtrip(capsys, tmp_path, sample_kg_path, sample_kg):
    out = tmp_path / "rebuilt.tsv"
    code, stdout, _ = _run(capsys, ["build-kg", "--input", str(sample_kg_path),
                                    "--out", str(out)])
    assert code == 0
    assert f"wrote {len(sample_kg.entities)} entities" in stdout
    rebuilt = kgmod.load(out)
    assert rebuilt.entities == sample_kg.entities
    assert rebuilt.communities == sample_kg.communities
    key = lambda t: (t.subject, t.relation, t.object)
    assert sorted(rebuilt.triples, key=key) == sorted(sample_kg.triples, key=key)


def test_build_kg_rejects_malformed_file(capsys, tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("E\t0\tName\tnowhere\t\t\n", encoding="utf-8")
    payload = _error(capsys, ["build-kg", "--input", str(bad), "--out",
                              str(tmp_path / "out.tsv")])
    assert payload["error"] == "kg-format"


# -- extract -----------------------------------------------------------------------

def test_extract_shows_stages(capsys, sample_kg_path, sample_corpus):
    code, stdout, stderr = _run(capsys, ["extract", "--kg", str(sample_kg_path),
                                         "--sentence", sample_corpus[0]])
    assert code == 0
    assert "mentions (" in stdout
    assert "candidates (" in stdout
    assert "selected (" in stdout
    assert "Alan Bean" in stdout
    for stage in ("recognize", "expand", "select"):
        assert f"time[{stage}]:" in stderr
    assert "time[" not in stdout  # timings stay out of the deterministic output


def test_extract_missing_kg_file(capsys, tmp_path):
    payload = _error(capsys, ["extract", "--kg", str(tmp_path / "nope.tsv"),
                              "--sentence", "x"])
    assert payload["error"] == "io"
    assert "not found" in payload["message"]


# -- send --------------------------------------------------------------------------

def test_send_noiseless_full_trace(capsys, sample_kg_path, sample_corpus):
    code, stdout, _ = _run(capsys, ["send", "--kg", str(sample_kg_path),
                                    "--sentence", sample_corpus[0],
                                    "--snr", "inf", "--seed", "0"])
    assert code == 0
    for stage in range(1, 10):
        assert f"[{stage} " in stdout
    assert "header consistent: True" in stdout
    assert "decoded info-bit errors 0/" in stdout
    payload_ids = stdout.split("payload ids: ")[1].splitlines()[0]
    received_ids = stdout.split("[6 receive] ids: ")[1].splitlines()[0]
    assert payload_ids == received_ids


@pytest.mark.parametrize("sentence", ["no graph words here", ""], ids=["no-match", "empty"])
def test_send_nothing_recognized(capsys, sample_kg_path, sentence):
    code, stdout, _ = _run(capsys, ["send", "--kg", str(sample_kg_path),
                                    "--sentence", sentence,
                                    "--snr", "6", "--seed", "1"])
    assert code == 0
    assert "nothing recognized; no transmission" in stdout


def test_send_undecodable_argv_byte(capsys, sample_kg_path):
    # Python decodes argv with surrogateescape: a stray 0xff byte arrives as a
    # lone surrogate, which must embed like any other character
    code, stdout, _ = _run(capsys, ["send", "--kg", str(sample_kg_path),
                                    "--sentence", "Alan Bean \udcff walked",
                                    "--snr", "6", "--seed", "0"])
    assert code == 0
    assert "[9 similarity] " in stdout


def test_send_matches_sweep_record(capsys, sample_kg, sample_kg_path, sample_corpus):
    # send and the sweep share one pipeline: same seed, same bits and score
    ctx = PipelineContext(sample_kg)
    for sentence_id in (0, 3, 7):
        sentence = sample_corpus[sentence_id]
        for snr in (0, 6, 12):
            code, stdout, _ = _run(capsys, ["send", "--kg", str(sample_kg_path),
                                            "--sentence", sentence,
                                            "--snr", str(snr), "--seed", "5"])
            assert code == 0
            record = run_pipeline(ctx, sentence, sentence_id, float(snr), seed=5)
            channel = int(stdout.split(" bits, channel ")[1].split(" bits")[0])
            assert channel == record.channel_bits
            if "[9 similarity] " in stdout:
                printed = stdout.split("[9 similarity] ")[1].splitlines()[0]
            else:
                assert "empty reconstruction; similarity 0.0" in stdout
                printed = "0.0000"
            assert printed == f"{record.similarity:.4f}"


def test_send_at_minus_inf_snr_warns_nothing(sample_kg_path, sample_corpus):
    # every symbol part is infinite at -inf dB; slicing it must stay silent
    # and keep its bits (NaN axes slice like +inf)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "kgsemcom.cli", "send", "--kg", str(sample_kg_path),
         "--sentence", sample_corpus[0], "--snr=-inf", "--seed", "0"],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0
    assert "RuntimeWarning" not in proc.stderr
    for line in ("[5 channel] decoded info-bit errors 27/42, uncoded bit errors 0/0, "
                 "header consistent: False",
                 "[6 receive] ids: [401, -1, -1, 8]",
                 "[9 similarity] 0.0177"):
        assert line in proc.stdout.splitlines()


def test_send_rejects_bad_snr(capsys, sample_kg_path):
    payload = _error(capsys, ["send", "--kg", str(sample_kg_path),
                              "--sentence", "x", "--snr", "loud", "--seed", "0"])
    assert payload["error"] == "usage"
    payload = _error(capsys, ["send", "--kg", str(sample_kg_path),
                              "--sentence", "x", "--snr", "nan", "--seed", "0"])
    assert payload["error"] == "usage"
    assert "NaN" in payload["message"]


def test_send_rejects_bad_alpha(capsys, sample_kg_path, sample_corpus):
    payload = _error(capsys, ["send", "--kg", str(sample_kg_path),
                              "--sentence", sample_corpus[0], "--snr", "6",
                              "--seed", "0", "--alpha", "2"])
    assert payload["error"] == "usage"
    assert "alpha" in payload["message"]


def test_negative_seed_is_usage_error(capsys, tmp_path, sample_kg_path, sample_corpus):
    # rejected while parsing, before any stage prints
    for argv in (["send", "--kg", str(sample_kg_path), "--sentence", sample_corpus[0],
                  "--snr", "6", "--seed", "-1"],
                 ["baseline", "--corpus", str(tmp_path / "any.txt"),
                  "--out", str(tmp_path / "o.csv"), "--seed", "-1"]):
        code, stdout, err = _run(capsys, argv)
        assert code == 2
        assert stdout == ""
        payload = json.loads(err)
        assert payload["error"] == "usage"
        assert "seed" in payload["message"]


# -- sweep -------------------------------------------------------------------------

@pytest.fixture()
def sweep_config_path(tmp_path, sample_kg_path, sample_corpus):
    corpus = tmp_path / "two.txt"
    corpus.write_text("\n".join(sample_corpus[:2]) + "\n", encoding="utf-8")
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({
        "kg_path": str(sample_kg_path), "corpus_path": str(corpus),
        "snr_grid": [0.0], "schemes": ["kgrag", "ascii"],
    }), encoding="utf-8")
    return cfg


def test_sweep_writes_deterministic_csv(capsys, tmp_path, sweep_config_path):
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    code, stdout, _ = _run(capsys, ["sweep", "--config", str(sweep_config_path),
                                    "--out", str(out_a)])
    assert code == 0
    assert "wrote 4 trial records" in stdout
    assert cli.main(["sweep", "--config", str(sweep_config_path),
                     "--out", str(out_b)]) == 0
    capsys.readouterr()
    assert out_a.read_bytes() == out_b.read_bytes()
    assert out_a.read_text(encoding="utf-8").startswith("record_type,")


def test_sweep_missing_and_invalid_config(capsys, tmp_path):
    payload = _error(capsys, ["sweep", "--config", str(tmp_path / "none.json"),
                              "--out", str(tmp_path / "o.csv")])
    assert payload["error"] == "io"
    bad = tmp_path / "bad.json"
    bad.write_text('{"kg_path": "x", "corpus_path": "y", "mystery": 1}', encoding="utf-8")
    payload = _error(capsys, ["sweep", "--config", str(bad),
                              "--out", str(tmp_path / "o.csv")])
    assert payload["error"] == "config"
    assert "mystery" in payload["message"]


def _sweep_error(capsys, tmp_path, sweep_config_path, **override):
    raw = json.loads(sweep_config_path.read_text(encoding="utf-8"))
    cfg = tmp_path / "late.json"
    cfg.write_text(json.dumps({**raw, **override}), encoding="utf-8")
    return _error(capsys, ["sweep", "--config", str(cfg), "--out", str(tmp_path / "o.csv")])


@pytest.mark.parametrize("override", [
    {"alpha": 2.0},
    {"threshold_policy": [[0.0, 0.8], [12.0, 0.2]]},
    {"top_k": 0},
    {"keep_all_components": "no"},
])
def test_sweep_rejects_bad_importance_config(capsys, tmp_path, sweep_config_path, override):
    payload = _sweep_error(capsys, tmp_path, sweep_config_path, **override)
    assert payload["error"] == "config"


@pytest.mark.parametrize("name, bad", [("snr_grid", ["x"]), ("snr_grid", 5),
                                       ("threshold_policy", [[1]]), ("schemes", "kgrag")])
def test_sweep_config_error_names_the_field(capsys, tmp_path, sweep_config_path, name, bad):
    payload = _sweep_error(capsys, tmp_path, sweep_config_path, **{name: bad})
    assert payload["error"] == "config"
    assert name in payload["message"]


def test_sweep_rejects_empty_corpus(capsys, tmp_path, sweep_config_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing\n\n", encoding="utf-8")
    payload = _sweep_error(capsys, tmp_path, sweep_config_path, corpus_path=str(empty))
    assert payload["error"] == "config"
    assert "no sentences" in payload["message"]


def test_sweep_rejects_malformed_kg(capsys, tmp_path, sweep_config_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("E\t0\tName\tnowhere\t\t\n", encoding="utf-8")
    payload = _sweep_error(capsys, tmp_path, sweep_config_path, kg_path=str(bad))
    assert payload["error"] == "kg-format"


# -- remote backends without an endpoint -------------------------------------------

def test_http_backend_without_endpoint_is_config_error(capsys, monkeypatch, tmp_path,
                                                        sample_kg_path, sample_corpus,
                                                        sweep_config_path):
    monkeypatch.delenv("KGSEMCOM_API_BASE", raising=False)
    raw = json.loads(sweep_config_path.read_text(encoding="utf-8"))
    http_sweep = tmp_path / "http.json"
    http_sweep.write_text(json.dumps({**raw, "generate_backend": "http"}), encoding="utf-8")
    kg = str(sample_kg_path)
    for argv in (["extract", "--kg", kg, "--sentence", sample_corpus[0],
                  "--extract-backend", "http"],
                 ["build-kg", "--input", kg, "--out", str(tmp_path / "k.tsv"),
                  "--enrich", "http"],
                 ["send", "--kg", kg, "--sentence", sample_corpus[0], "--snr", "inf",
                  "--seed", "0", "--gen-backend", "http"],
                 ["sweep", "--config", str(http_sweep), "--out", str(tmp_path / "o.csv")]):
        code, stdout, err = _run(capsys, argv)
        assert code == 2, argv
        assert stdout == ""
        payload = json.loads(err)
        assert payload["error"] == "config"
        assert "KGSEMCOM_API_BASE" in payload["message"]


@pytest.mark.parametrize("command", ["extract", "send", "build-kg"])
def test_unreachable_endpoint_is_io_error(capsys, monkeypatch, tmp_path, sample_kg_path,
                                          sample_corpus, command):
    # every attempt fails at the transport; the backoff is skipped, not slept
    def refuse(url, **kwargs):
        raise requests.ConnectionError(f"refused: {url}")

    monkeypatch.setenv("KGSEMCOM_API_BASE", "http://endpoint.invalid/v1")
    monkeypatch.setattr(remote.requests, "post", refuse)
    monkeypatch.setattr(remote.time, "sleep", lambda seconds: None)
    kg = str(sample_kg_path)
    bare = tmp_path / "bare.tsv"  # an entity without a description to fill
    bare.write_text("C\tc0\tlabel\tsummary\nE\t0\tName\tc0\t\t\n", encoding="utf-8")
    argv = {"extract": ["extract", "--kg", kg, "--sentence", sample_corpus[0],
                        "--extract-backend", "http"],
            "send": ["send", "--kg", kg, "--sentence", sample_corpus[0], "--snr", "inf",
                     "--seed", "0", "--gen-backend", "http"],
            "build-kg": ["build-kg", "--input", str(bare), "--out", str(tmp_path / "k.tsv"),
                         "--enrich", "http"]}[command]
    payload = _error(capsys, argv)
    assert payload["error"] == "io"
    assert "after 3 attempts" in payload["message"]
    assert "refused" in payload["message"]


# -- baseline ----------------------------------------------------------------------

def test_baseline_noiseless_perfect_similarity(capsys, tmp_path, sample_corpus):
    corpus = tmp_path / "three.txt"
    corpus.write_text("\n".join(sample_corpus[:3]) + "\n", encoding="utf-8")
    out = tmp_path / "base.csv"
    code, stdout, _ = _run(capsys, ["baseline", "--corpus", str(corpus),
                                    "--out", str(out)])
    assert code == 0
    assert "wrote 6 trial records" in stdout
    rows = [line.split(",") for line in out.read_text(encoding="utf-8").splitlines()[1:]
            if line.startswith("trial,")]
    assert len(rows) == 6
    assert all(row[2] == "inf" for row in rows)
    assert all(float(row[8]) == pytest.approx(1.0, abs=1e-6) for row in rows)


def test_baseline_empty_corpus(capsys, tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing\n", encoding="utf-8")
    payload = _error(capsys, ["baseline", "--corpus", str(empty),
                              "--out", str(tmp_path / "o.csv")])
    assert payload["error"] == "config"


def test_repeated_snr_is_rejected(capsys, tmp_path, sample_kg_path, sample_corpus_path):
    payload = _error(capsys, ["baseline", "--corpus", str(sample_corpus_path),
                              "--out", str(tmp_path / "o.csv"), "--snr", "4", "4"])
    assert payload["error"] == "usage"
    assert "--snr" in payload["message"]
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"kg_path": str(sample_kg_path),
                               "corpus_path": str(sample_corpus_path),
                               "snr_grid": [0.0, -0.0]}), encoding="utf-8")
    payload = _error(capsys, ["sweep", "--config", str(cfg), "--out", str(tmp_path / "s.csv")])
    assert payload["error"] == "config"
    assert "snr_grid" in payload["message"]
    assert not (tmp_path / "o.csv").exists() and not (tmp_path / "s.csv").exists()


# -- parser-level errors -----------------------------------------------------------

def test_missing_required_argument(capsys, sample_kg_path):
    payload = _error(capsys, ["extract", "--kg", str(sample_kg_path)])
    assert payload["error"] == "usage"


def test_unknown_subcommand(capsys):
    payload = _error(capsys, ["teleport"])
    assert payload["error"] == "usage"


def test_module_entrypoint_runs_as_process(sample_kg_path, sample_corpus):
    # the child imports the same kgsemcom as this process, installed or not
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "kgsemcom.cli", "extract", "--kg",
         str(sample_kg_path), "--sentence", sample_corpus[0]],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0
    assert "selected (" in proc.stdout
