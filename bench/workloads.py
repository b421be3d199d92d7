"""The benchmark's workloads, their output checks and their end-to-end metrics.

Each workload is one ``SweepConfig`` whose seed draws all channel noise. The
``large_kg`` graph and corpus come from ``synthkg`` with a fixed generator
seed: with a graph drawn per run seed, the deterministic quality metrics
spread by 13-15% across seeds, more than any regression bound can absorb.
The program only ever sees these generated inputs.
"""

import hashlib
from importlib import resources
from pathlib import Path

from kgsemcom.harness import SweepConfig, load_corpus, render_report

import synthkg

# fixture_sweep's report at seed 0, as pinned in ROADMAP.md
GOLDEN_FIXTURE_SHA256 = "966e9116bcb844aca8f76db993c94759d4bae9de4beca2e9cc6abfaac98a9a7f"

LARGE_KG_ENTITIES = 20_000
LARGE_KG_SENTENCES = 160
LARGE_KG_GRAPH_SEED = 0

# why each exists is recorded in BENCHMARK.json and README.md
WORKLOADS = ("fixture_sweep", "large_kg")


def sweep_config(name: str, seed: int, input_dir: Path) -> SweepConfig:
    """Write the workload's inputs under ``input_dir`` and describe the sweep."""
    data = resources.files("kgsemcom") / "data"
    kg_path, corpus_path = str(data / "sample_kg.tsv"), str(data / "fixture_corpus.txt")
    if name == "fixture_sweep":
        return SweepConfig(kg_path=kg_path, corpus_path=corpus_path,
                           trials_per_point=5, seed=seed)
    if name == "large_kg":
        kg_text, corpus_text = synthkg.generate(LARGE_KG_GRAPH_SEED, LARGE_KG_ENTITIES,
                                                LARGE_KG_SENTENCES)
        input_dir.mkdir(parents=True, exist_ok=True)
        kg_file, corpus_file = input_dir / "large_kg.tsv", input_dir / "large_kg_corpus.txt"
        kg_file.write_text(kg_text, encoding="utf-8")
        corpus_file.write_text(corpus_text, encoding="utf-8")
        return SweepConfig(kg_path=str(kg_file), corpus_path=str(corpus_file),
                           snr_grid=[0.0, 6.0, 12.0], trials_per_point=5, seed=seed,
                           schemes=("kgrag",))
    raise ValueError(f"unknown workload {name!r}")


def expected_records(config: SweepConfig) -> int:
    sentences = len(load_corpus(config.corpus_path))
    return sentences * len(config.snr_grid) * config.trials_per_point * len(config.schemes)


def record_failures(records) -> int:
    """Records flagged ``error:*`` or with a similarity outside [-1, 1]."""
    return sum(1 for r in records
               if any(f.startswith("error:") for f in r.flags.split(";"))
               or not -1.0 <= r.similarity <= 1.0)


def report_sha256(records, config: SweepConfig) -> str:
    return hashlib.sha256(render_report(records, config.snr_grid).encode("utf-8")).hexdigest()


def quality_metrics(records) -> dict[str, float]:
    """Deterministic per-scheme means; a scheme the sweep lacks is absent."""
    out = {}
    for scheme, key in (("kgrag", "sim_kgrag"), ("huffman_baseline", "sim_huffman"),
                        ("ascii", "sim_ascii")):
        sims = [r.similarity for r in records if r.scheme == scheme]
        if sims:
            out[key] = sum(sims) / len(sims)
    kgrag_bits = [r.channel_bits for r in records if r.scheme == "kgrag"]
    if kgrag_bits:
        out["kgrag_channel_bits"] = sum(kgrag_bits) / len(kgrag_bits)
    return out
