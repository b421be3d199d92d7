"""Command-line interface: the five subcommands, their outputs, and the JSON
error contract (single stderr line, exit code 2)."""

import ast
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
import requests

from kgsemcom import cli, remote
from kgsemcom import kg as kgmod
from kgsemcom.extraction import recognize
from kgsemcom.harness import (PipelineContext, baseline_records, render_report,
                              run_pipeline)


def _run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# a KG file that is not valid UTF-8: a stray 0xff byte in an entity name
NOT_UTF8_KG = b"C\tc0\tL\tS\nE\t0\tCaf\xff\tc0\t\t\n"


def _not_utf8_kg(tmp_path) -> Path:
    path = tmp_path / "latin.tsv"
    path.write_bytes(NOT_UTF8_KG)
    return path


def _assert_not_utf8_error(payload):
    assert payload["error"] == "kg-format"
    assert f"byte {NOT_UTF8_KG.index(0xff)}" in payload["message"]


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
    _assert_not_utf8_error(_error(capsys, ["build-kg", "--input", str(_not_utf8_kg(tmp_path)),
                                           "--out", str(tmp_path / "out.tsv")]))


def test_build_kg_accepts_a_byte_order_mark(capsys, tmp_path, sample_kg_path, sample_kg):
    marked = tmp_path / "bom.tsv"
    marked.write_bytes(b"\xef\xbb\xbf" + Path(sample_kg_path).read_bytes())
    out = tmp_path / "rebuilt.tsv"
    code, stdout, _ = _run(capsys, ["build-kg", "--input", str(marked), "--out", str(out)])
    assert code == 0
    assert f"wrote {len(sample_kg.entities)} entities" in stdout
    assert kgmod.load(out) == sample_kg


# -- extract -----------------------------------------------------------------------

def test_extract_shows_stages(capsys, sample_kg, sample_kg_path, sample_corpus, embedder,
                             sample_index):
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
    # each mention line names the community the index routes it to
    mentions = recognize(sample_corpus[0], sample_kg)
    assert mentions
    for m in mentions:
        community = sample_index.best_community(embedder.embed_one(m.surface))
        assert f"  [{m.start}:{m.end}] {m.surface}  -> community {community}: [(" in stdout


def test_extract_missing_kg_file(capsys, tmp_path):
    payload = _error(capsys, ["extract", "--kg", str(tmp_path / "nope.tsv"),
                              "--sentence", "x"])
    assert payload["error"] == "io"
    assert "not found" in payload["message"]
    latin = str(_not_utf8_kg(tmp_path))
    _assert_not_utf8_error(_error(capsys, ["extract", "--kg", latin, "--sentence", "x"]))
    _assert_not_utf8_error(_error(capsys, ["send", "--kg", latin, "--sentence", "x",
                                           "--snr", "6", "--seed", "0"]))


def test_graph_without_communities_links_nothing(capsys, tmp_path):
    # a KG with no C line is valid; a capitalized fallback mention finds no
    # community to route to, so nothing is selected and nothing is sent
    kg = tmp_path / "bare.tsv"
    kg.write_text("# no communities, no entities\n", encoding="utf-8")
    sentence = "Alan Bean met Pete Conrad"
    code, stdout, _ = _run(capsys, ["extract", "--kg", str(kg), "--sentence", sentence])
    assert code == 0
    assert "mentions (2):" in stdout
    assert "candidates (0):" in stdout
    code, stdout, _ = _run(capsys, ["send", "--kg", str(kg), "--sentence", sentence,
                                    "--snr", "6", "--seed", "1"])
    assert code == 0
    assert "nothing recognized; no transmission" in stdout


# -- send --------------------------------------------------------------------------

def test_send_noiseless_full_trace(capsys, sample_kg_path, sample_corpus):
    code, stdout, _ = _run(capsys, ["send", "--kg", str(sample_kg_path),
                                    "--sentence", sample_corpus[0],
                                    "--snr", "inf", "--seed", "0"])
    assert code == 0
    for stage in range(1, 10):
        assert f"[{stage} " in stdout
    assert "decoded info-bit errors 0/" in stdout

    def lists(stage: str) -> list[list[int]]:
        line = stdout.split(f"[{stage}] ")[1].splitlines()[0]
        return [ast.literal_eval(ids) for ids in re.findall(r"\[[-\d, ]*\]", line)]

    # only the seeds are sent; the receiver re-derives the rest of the subgraph
    mcsg, seeds = lists("2 subgraph")
    assert set(seeds) < set(mcsg)
    assert [sorted(ids) for ids in lists("6 receive")] == [seeds]
    assert lists("7 reconstruct") == [seeds, mcsg]
    # the text states only the reconstruction's facts with a seed at either end
    kg = kgmod.load(str(sample_kg_path))
    inside = {t for t in kg.triples if t.subject in mcsg and t.object in mcsg}
    star = {t for t in inside if t.subject in seeds or t.object in seeds}
    assert len(star) < len(inside)
    assert f"[8 generate] {len(star)} of {len(inside)} facts, those with a seed end: " in stdout
    n_p, n_u = _frame_counts(stdout)
    assert n_p + n_u == len(seeds)


def _frame_counts(stdout: str) -> tuple[int, int]:
    """(protected, unprotected) seed counts from the `[4 frame]` line."""
    n_p, n_u = (int(n) for n in stdout.split("[4 frame] ")[1].split(" unprotected")[0]
                .split(" protected / "))
    return n_p, n_u


# sends 4 seeds; at 6 dB a hop node of its subgraph outscores every one of them
HUB_NEIGHBOUR_SENTENCE = ("After the Intrepid lander settled onto the Ocean of Storms, Alan "
                          "Bean joined Pete Conrad on the dusty surface while their crewmate "
                          "kept watch overhead.")


@pytest.mark.parametrize("snr", ["0", "6", "12"])
def test_send_marks_exactly_the_frame_s_classes(capsys, sample_kg_path, sample_corpus, snr):
    for sentence in (sample_corpus[0], HUB_NEIGHBOUR_SENTENCE):
        code, stdout, _ = _run(capsys, ["send", "--kg", str(sample_kg_path),
                                        "--sentence", sentence, "--snr", snr, "--seed", "0"])
        assert code == 0
        rows = stdout.split("[3 importance] ")[1].split("[4 frame] ")[0].splitlines()[1:]
        marks = [row.split()[0] for row in rows]
        assert (marks.count("P"), marks.count("-")) == _frame_counts(stdout)
        assert len(marks) == len(stdout.split("sent ids (the seeds): ")[1]
                                 .splitlines()[0].split(","))


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
        for snr, rate in ((0, "2/3"), (6, "2/3"), (10, "3/4"), (12, "7/8")):
            code, stdout, _ = _run(capsys, ["send", "--kg", str(sample_kg_path),
                                            "--sentence", sentence,
                                            "--snr", str(snr), "--seed", "5"])
            assert code == 0
            record = run_pipeline(ctx, sentence, sentence_id, float(snr), seed=5)
            channel = int(stdout.split(" bits, channel ")[1].split(" bits")[0])
            assert channel == record.channel_bits
            assert f" bits, protected ids at code rate {rate}\n" in stdout
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
    # every coded metric is erased, so the decoder returns the all-zero word
    for line in ("[5 channel] decoded info-bit errors 2/14, uncoded bit errors 0/0",
                 "[6 receive] ids: [1, 1]",
                 "[9 similarity] 0.1046"):
        assert line in proc.stdout.splitlines()


@pytest.mark.parametrize("value", ["-inf", "-Infinity"])
def test_send_reads_a_bare_minus_inf_snr_as_a_value(capsys, sample_kg_path, sample_corpus,
                                                   value):
    argv = ["send", "--kg", str(sample_kg_path), "--sentence", sample_corpus[0], "--seed", "0"]
    code, spaced, _ = _run(capsys, argv + ["--snr", value])
    assert code == 0
    assert _run(capsys, argv + ["--snr=-inf"]) == (0, spaced, "")
    assert "[9 similarity] 0.1046" in spaced.splitlines()


@pytest.mark.parametrize("value", ["-1e-3", "-1E+2"])
def test_send_reads_a_negative_snr_in_exponent_form_as_a_value(capsys, sample_kg_path,
                                                               sample_corpus, value):
    argv = ["send", "--kg", str(sample_kg_path), "--sentence", sample_corpus[0], "--seed", "0"]
    code, spaced, _ = _run(capsys, argv + ["--snr", value])
    assert code == 0
    assert _run(capsys, argv + [f"--snr={value}"]) == (0, spaced, "")
    assert f"at {float(value):g} dB" in spaced


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


def test_sweep_reads_a_config_and_corpus_with_a_byte_order_mark(capsys, tmp_path,
                                                                 sweep_config_path):
    raw = json.loads(sweep_config_path.read_text(encoding="utf-8"))
    corpus = Path(raw["corpus_path"])
    marked_corpus = tmp_path / "bom.txt"
    marked_corpus.write_bytes(b"\xef\xbb\xbf# two sentences\n" + corpus.read_bytes())
    marked = tmp_path / "bom.json"
    marked.write_bytes(b"\xef\xbb\xbf" + json.dumps(
        {**raw, "corpus_path": str(marked_corpus)}).encode())
    out_plain, out_marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    assert cli.main(["sweep", "--config", str(sweep_config_path), "--out", str(out_plain)]) == 0
    code, stdout, _ = _run(capsys, ["sweep", "--config", str(marked), "--out", str(out_marked)])
    assert code == 0
    assert "wrote 4 trial records" in stdout
    assert out_marked.read_bytes() == out_plain.read_bytes()


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


@pytest.mark.parametrize("document, kind", [('"abc"', "string"), ("[1]", "array"),
                                            ("5", "number"), ("null", "null")])
def test_sweep_config_that_is_not_an_object(capsys, tmp_path, document, kind):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(document, encoding="utf-8")
    payload = _error(capsys, ["sweep", "--config", str(cfg), "--out", str(tmp_path / "o.csv")])
    assert payload == {"error": "config",
                       "message": f"config must be a JSON object, got {kind}"}


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
    _assert_not_utf8_error(_sweep_error(capsys, tmp_path, sweep_config_path,
                                        kg_path=str(_not_utf8_kg(tmp_path))))


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
    monkeypatch.setattr(requests, "post", refuse)
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
    # an endpoint that answers, but with no message in its reply
    monkeypatch.setattr(remote, "post_json", lambda config, path, data: {"choices": []})
    variants = [argv]
    if command == "send":  # the selector's reply as well as the generator's
        variants.append(argv[:-2] + ["--extract-backend", "http"])
    for args in variants:
        payload = _error(capsys, args)
        assert payload["error"] == "io"
        assert payload["message"] == "malformed chat completion response: {'choices': []}"


def test_sweep_flags_a_malformed_reply_and_keeps_going(capsys, monkeypatch, tmp_path,
                                                       sweep_config_path):
    # a sweep flags the failing rows, as for any other stage error
    monkeypatch.setenv("KGSEMCOM_API_BASE", "http://endpoint.invalid/v1")
    monkeypatch.setattr(remote, "post_json", lambda config, path, data: {"choices": []})
    raw = json.loads(sweep_config_path.read_text(encoding="utf-8"))
    http_sweep = tmp_path / "http.json"
    http_sweep.write_text(json.dumps({**raw, "extract_backend": "http"}), encoding="utf-8")
    out = tmp_path / "o.csv"
    code, _, err = _run(capsys, ["sweep", "--config", str(http_sweep), "--out", str(out)])
    assert code == 0 and err == ""
    rows = [line.split(",") for line in out.read_text(encoding="utf-8").splitlines()
            if line.startswith("trial,")]
    assert {(row[3], row[-1]) for row in rows} == {("kgrag", "error:ValueError"), ("ascii", "")}


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


def test_baseline_reads_minus_inf_in_an_snr_list(capsys, tmp_path, sample_corpus):
    corpus = tmp_path / "two.txt"
    corpus.write_text("\n".join(sample_corpus[:2]) + "\n", encoding="utf-8")
    out = tmp_path / "base.csv"
    payload = _error(capsys, ["baseline", "--corpus", str(corpus), "--out", str(out),
                              "--snr", "0", "-inf", "-INF"])
    assert "repeats a value" in payload["message"]
    code, stdout, _ = _run(capsys, ["baseline", "--corpus", str(corpus), "--out", str(out),
                                    "--snr", "0", "-inf"])
    assert code == 0
    assert "wrote 8 trial records" in stdout
    grid = [0.0, -math.inf]
    assert (out.read_text(encoding="utf-8")
            == render_report(baseline_records(sample_corpus[:2], grid, seed=0), grid))


@pytest.mark.parametrize("value", ["-1e-3", "-1E+2"])
def test_baseline_reads_a_negative_snr_in_exponent_form_as_a_value(capsys, tmp_path,
                                                                   sample_corpus, value):
    corpus = tmp_path / "two.txt"
    corpus.write_text("\n".join(sample_corpus[:2]) + "\n", encoding="utf-8")
    out = tmp_path / "base.csv"
    code, stdout, _ = _run(capsys, ["baseline", "--corpus", str(corpus), "--out", str(out),
                                    "--snr", "0", value])
    assert code == 0
    assert "wrote 8 trial records" in stdout
    grid = [0.0, float(value)]
    assert (out.read_text(encoding="utf-8")
            == render_report(baseline_records(sample_corpus[:2], grid, seed=0), grid))


def test_baseline_labels_minus_inf_rows_minus_inf(capsys, tmp_path, sample_corpus):
    # -inf rows are written "-inf", never "inf", so the two infinite SNRs stay
    # apart in every row kind
    corpus = tmp_path / "two.txt"
    corpus.write_text("\n".join(sample_corpus[:2]) + "\n", encoding="utf-8")
    out = tmp_path / "base.csv"
    code, _, _ = _run(capsys, ["baseline", "--corpus", str(corpus), "--out", str(out),
                               "--snr", "0", "-inf"])
    assert code == 0
    rows = [line.split(",") for line in out.read_text(encoding="utf-8").splitlines()[1:]]
    labels = {}
    for row in rows:
        labels.setdefault(row[0], []).append(row[2])
    assert sorted(labels) == ["cumulative", "summary", "trial"]
    for kind, snrs in labels.items():
        assert set(snrs) == {"0", "-inf"}, kind
        assert snrs.count("-inf") == snrs.count("0")


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


@pytest.mark.parametrize("snrs", [["0", "1e-7"], ["-0.000000001", "-0.000000002"],
                                  ["2", "2.0000001"]],
                         ids=["0-1e-7", "minus0-minus0", "2-2.0000001"])
def test_snrs_that_share_a_report_label_are_rejected(capsys, tmp_path, sample_kg_path,
                                                      sample_corpus_path, snrs):
    # both values would be written with one snr_db label, so their summary rows
    # and cumulative blocks would read as one point repeated
    payload = _error(capsys, ["baseline", "--corpus", str(sample_corpus_path),
                              "--out", str(tmp_path / "o.csv"), "--snr", *snrs])
    assert payload["error"] == "usage"
    assert "--snr repeats a value" in payload["message"]
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"kg_path": str(sample_kg_path),
                               "corpus_path": str(sample_corpus_path),
                               "snr_grid": [float(s) for s in snrs]}), encoding="utf-8")
    payload = _error(capsys, ["sweep", "--config", str(cfg), "--out", str(tmp_path / "s.csv")])
    assert payload["error"] == "config"
    assert "snr_grid repeats a value" in payload["message"]
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
