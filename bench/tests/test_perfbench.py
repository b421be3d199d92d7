"""Tests of the benchmark's own code: input generator, tracing, checks.

    python3 -m pytest bench/tests -q
"""

import hashlib
import json
from importlib import resources

import run
import synthkg
import tracing
import workloads
from kgsemcom import harness
from kgsemcom import kg as kgmod
from kgsemcom.harness import ExperimentRecord, SweepConfig, render_report

DATA = resources.files("kgsemcom") / "data"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_generator_is_deterministic():
    first = synthkg.generate(7, 300, 20)
    second = synthkg.generate(7, 300, 20)
    assert [_sha(t) for t in first] == [_sha(t) for t in second]
    assert synthkg.generate(8, 300, 20)[0] != first[0]


def test_generated_graph_loads_and_matches_the_fixture_shape():
    kg_text, corpus_text = synthkg.generate(3, 260, 30)
    kg = kgmod.ingest(kg_text.splitlines())
    assert len(kg.entities) == 260
    assert len(kg.communities) == 20  # 260 / (104 / 8)
    assert len(kg.triples) > 0.95 * 3 * 260  # duplicates collapse on ingest
    for cid, community in kg.communities.items():
        members = {e.name for e in kg.entities.values() if e.community == cid}
        assert set(community.summary.rstrip(".").split(", ")) == members
    sentences = corpus_text.splitlines()
    assert len(sentences) == 30
    names = [e.name for e in kg.entities.values()]
    assert all(sum(name in s for name in names) >= 2 for s in sentences)


def test_self_time_of_nested_spans():
    # outer [0, 10] holds inner [2, 5] (which holds leaf [3, 4]) and inner [6, 7]
    spans = [(1, 0, "inner", 2.0, 5.0, 0), (2, 1, "leaf", 3.0, 4.0, 0),
             (0, -1, "outer", 0.0, 10.0, 0), (3, 0, "inner", 6.0, 7.0, 0)]
    self_s, calls = tracing.self_times(spans)
    assert self_s == {"outer": 6.0, "inner": 3.0, "leaf": 1.0}
    assert calls == {"outer": 1, "inner": 2, "leaf": 1}


def test_wrapped_calls_record_parents_and_self_time():
    tracer = tracing.Tracer()

    def leaf():
        return sum(range(1000))

    traced_leaf = tracer.wrap("leaf", leaf)
    outer = tracer.wrap("outer", lambda: traced_leaf() + traced_leaf())
    assert outer() == 2 * sum(range(1000))
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span[2], []).append(span)
    (root,) = by_name["outer"]
    assert [s[1] for s in by_name["leaf"]] == [root[0], root[0]]
    self_s, _ = tracing.self_times(tracer.spans)
    assert abs(sum(self_s.values()) - (root[4] - root[3])) < 1e-9


def test_tracing_keeps_the_report_and_restores_the_program(tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("\n".join((DATA / "fixture_corpus.txt").read_text(
        encoding="utf-8").splitlines()[1:3]) + "\n", encoding="utf-8")
    config = SweepConfig(kg_path=str(DATA / "sample_kg.tsv"), corpus_path=str(corpus),
                         snr_grid=[4.0], trials_per_point=2, seed=0)
    originals = (harness.run_sweep, harness.semantic_similarity,
                 harness.PipelineContext.__dict__["from_config"])
    plain = render_report(harness.run_sweep(config), config.snr_grid)
    tracer = tracing.Tracer()
    with tracer.install():
        ctx = harness.PipelineContext.from_config(config)
        records = harness.run_sweep(config, ctx)
    traced = render_report(records, config.snr_grid)
    assert traced == plain
    assert (harness.run_sweep, harness.semantic_similarity,
            harness.PipelineContext.__dict__["from_config"]) == originals
    names = {s[2] for s in tracer.spans}
    assert {"harness.setup", "phy.convcode.viterbi", "phy.huffman.decode",
            "semgraph.reconstruct", "harness.semantic_similarity"} <= names
    assert {s[5] for s in tracer.spans if s[2] == "harness.semantic_similarity"} == {0, 1}
    metrics = tracing.per_layer_metrics(tracer, ctx, 1.0, 1.0)
    assert set(metrics) == set(tracing.PER_LAYER)
    # every record but an empty kgrag selection or reconstruction scores once
    assert metrics["harness.semantic_similarity.calls"] == sum(
        1 for r in records if "empty_" not in r.flags)


def _records(n: int, flags: str = "") -> list[ExperimentRecord]:
    return [ExperimentRecord(0, 4.0, "ascii", t, t, 8, 8, 0.5, 0, 0, 0, flags=flags)
            for t in range(n)]


class _FakeHarness:
    """Stands in for kgsemcom.harness: set-up is free, the sweep is canned."""

    def __init__(self, records):
        self.records = records
        self.PipelineContext = self

    def from_config(self, config):
        return None

    def run_sweep(self, config, ctx):
        return self.records


def test_error_flagged_record_counts_as_failed():
    config = SweepConfig(kg_path=str(DATA / "sample_kg.tsv"),
                         corpus_path=str(DATA / "fixture_corpus.txt"),
                         snr_grid=[4.0], trials_per_point=1, schemes=("ascii",))
    n = workloads.expected_records(config)
    clean = run.Run(_FakeHarness(_records(n)), workloads, config)
    clean.measure(0)
    assert clean.correct
    assert run.end_to_end_metrics(clean, workloads)["ok_share"] == 1.0

    records = _records(n)
    records[3] = _records(1, flags="generation_fallback;error:ValueError")[0]
    broken = run.Run(_FakeHarness(records), workloads, config)
    broken.measure(0)
    assert broken.failed == 1
    assert not broken.correct
    assert run.end_to_end_metrics(broken, workloads)["ok_share"] == (n - 1) / n


def test_record_count_and_report_hash_are_checked():
    config = SweepConfig(kg_path=str(DATA / "sample_kg.tsv"),
                         corpus_path=str(DATA / "fixture_corpus.txt"),
                         snr_grid=[4.0], trials_per_point=1, schemes=("ascii",))
    short = run.Run(_FakeHarness(_records(3)), workloads, config)
    short.cycle()
    assert short.failed == 0 and not short.correct
    drifting = run.Run(_FakeHarness(_records(workloads.expected_records(config))),
                       workloads, config)
    drifting.cycle()
    drifting.harness.records = _records(len(drifting.harness.records), flags="x")
    drifting.cycle()
    assert len(drifting.hashes) == 2 and not drifting.correct


def test_benchmark_json_matches_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert tuple(w["name"] for w in spec["workloads"]) == workloads.WORKLOADS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracing.PER_LAYER
