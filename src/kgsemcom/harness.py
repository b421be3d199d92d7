"""Experiment harness: metrics, single-shot pipeline runs, SNR sweeps, CSV
reports. Three schemes share the channel: "kgrag" (id payload with UEP),
"huffman_baseline" (corpus-frequency Huffman, uncoded), and "ascii"
(8 bits per character, uncoded).

Determinism: every trial's channel seed derives from (sweep seed, sentence,
SNR index, trial, scheme) through a SeedSequence, so identical configs yield
byte-identical reports and any single row can be replayed in isolation.
"""

import csv
import io
import json
import math
from collections.abc import Sequence
from dataclasses import dataclass, field, fields as dc_fields
from functools import cached_property
from pathlib import Path

import numpy as np

from . import kg as kgmod
from .embedding import EmbeddingIndex, TrigramEmbedder, cosine
from .extraction import (ExtractionConfig, HttpSelector, SelectedEntities, StubSelector,
                         extract_trace)
from .generation import HttpGenerator, StubGenerator, build_prompt
from .importance import ImportanceConfig, ImportanceTable, ThresholdPolicy, importance_scores, partition_uep
from .phy import (ChannelConfig, TransmissionFrame, awgn, channel_bit_cost,
                  HuffmanTable, huffman_build, huffman_decode, huffman_encode, payload_bits,
                  qam16_demodulate, qam16_modulate, transmit_many)
from .remote import RemoteConfig
from .semgraph import Mcsg, build_mcsg, reconstruct

SCHEMES = ("kgrag", "huffman_baseline", "ascii")

CSV_COLUMNS = ("record_type", "sentence_id", "snr_db", "scheme", "trial", "seed",
               "payload_bits", "channel_bits", "similarity", "n_selected",
               "n_mcsg_nodes", "n_received_valid", "flags")


@dataclass(frozen=True)
class ExperimentRecord:
    sentence_id: int
    snr_db: float
    scheme: str
    trial: int
    seed: int
    payload_bits: int
    channel_bits: int
    similarity: float
    n_selected: int
    n_mcsg_nodes: int
    n_received_valid: int
    flags: str = ""

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.payload_bits < 0 or self.channel_bits < 0:
            raise ValueError("bit counts must be non-negative")
        if not math.isfinite(self.similarity):
            raise ValueError("similarity must be finite")


@dataclass
class SweepConfig:
    kg_path: str
    corpus_path: str
    snr_grid: list[float] = field(default_factory=lambda: [0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0])
    trials_per_point: int = 1
    seed: int = 0
    schemes: tuple[str, ...] = SCHEMES
    alpha: float = 0.5
    threshold_policy: tuple[tuple[float, float], ...] = ((0.0, 0.0), (12.0, 0.8))
    keep_all_components: bool = False
    top_k: int = 3
    max_selected: int = 8
    embedding_dim: int = 384
    extract_backend: str = "stub"   # "stub" | "http"
    generate_backend: str = "stub"  # "stub" | "http"

    def __post_init__(self):
        for name in ("kg_path", "corpus_path"):
            if not isinstance(getattr(self, name), str):
                raise ValueError(f"{name} must be a string")
        if not self.snr_grid:
            raise ValueError("snr_grid must be non-empty")
        if any(not isinstance(v, (int, float)) or isinstance(v, bool) or math.isnan(v)
               for v in self.snr_grid):
            raise ValueError("snr_grid values must be numbers, not NaN")
        for name, low in (("seed", 0), ("trials_per_point", 1), ("top_k", 1),
                          ("max_selected", 1), ("embedding_dim", 1)):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        if not self.schemes:
            raise ValueError("schemes must be non-empty")
        for s in self.schemes:
            if s not in SCHEMES:
                raise ValueError(f"unknown scheme {s!r}")
        if not isinstance(self.keep_all_components, bool):
            raise ValueError("keep_all_components must be true or false")
        for name in ("extract_backend", "generate_backend"):
            if getattr(self, name) not in ("stub", "http"):
                raise ValueError(f"{name} must be 'stub' or 'http', got {getattr(self, name)!r}")
        self._importance_config()  # validates alpha and threshold_policy

    def _importance_config(self) -> ImportanceConfig:
        return ImportanceConfig(self.alpha, ThresholdPolicy(self.threshold_policy))

    @classmethod
    def from_json(cls, path: str | Path) -> "SweepConfig":
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
        known = {f.name for f in dc_fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if "snr_grid" in raw:
            raw["snr_grid"] = [float(v) for v in raw["snr_grid"]]
        if "threshold_policy" in raw:
            raw["threshold_policy"] = tuple((float(a), float(b)) for a, b in raw["threshold_policy"])
        if "schemes" in raw:
            raw["schemes"] = tuple(raw["schemes"])
        return cls(**raw)


def load_corpus(path: str | Path) -> list[str]:
    """One sentence per line; blank lines and '#' comments are skipped."""
    sentences = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            sentences.append(stripped)
    if not sentences:
        raise ValueError(f"corpus {path} holds no sentences")
    return sentences


def semantic_similarity(a: str, b: str, embedder) -> float:
    """Cosine of the sentence embeddings; empty text scores 0.0 by convention."""
    if not a.strip() or not b.strip():
        return 0.0
    va, vb = embedder.embed([a, b])
    return max(-1.0, min(1.0, cosine(va, vb)))


@dataclass
class SentenceAnalysis:
    selected: SelectedEntities
    mcsg: Mcsg
    table: ImportanceTable


def select_backends(extract_backend: str, generate_backend: str) -> tuple[object, object]:
    """-> (selector, generator) for the backend names "stub" and "http". An
    http backend reads its endpoint from the environment (RemoteConfig.from_env
    raises RuntimeError when none is set)."""
    remote = RemoteConfig.from_env() if "http" in (extract_backend, generate_backend) else None
    selector = HttpSelector(remote) if extract_backend == "http" else StubSelector()
    generator = HttpGenerator(remote) if generate_backend == "http" else StubGenerator()
    return selector, generator


class PipelineContext:
    """Shared state for runs: KG, embedder, index, backends, caches.

    Extraction, importance, generation, and similarity are deterministic
    functions of their inputs, so per-sentence and per-reconstruction caches
    change nothing observable besides speed. The corpus only feeds the sweep's
    sentence list and the Huffman table, which is built on first use.
    """

    def __init__(self, kg: kgmod.KnowledgeGraph, corpus: Sequence[str] = (),
                 embedder=None, selector=None, generator=None,
                 importance_config: ImportanceConfig | None = None,
                 top_k: int = 3, max_selected: int = 8,
                 keep_all_components: bool = False, embedding_dim: int = 384):
        self.kg = kg
        self.corpus = corpus
        self.embedder = embedder or TrigramEmbedder(dim=embedding_dim)
        self.index = EmbeddingIndex.build(kg, self.embedder)
        self.extraction = ExtractionConfig(embedder=self.embedder,
                                           selector=selector or StubSelector(),
                                           top_k=top_k, max_selected=max_selected)
        self.generator = generator or StubGenerator()
        self.importance_config = importance_config or ImportanceConfig()
        self.keep_all_components = keep_all_components
        self._analysis_cache: dict[str, SentenceAnalysis] = {}
        self._generation_cache: dict[tuple, tuple[str, bool]] = {}

    @classmethod
    def from_config(cls, config: SweepConfig) -> "PipelineContext":
        kg = kgmod.load(config.kg_path)
        corpus = load_corpus(config.corpus_path)
        selector, generator = select_backends(config.extract_backend, config.generate_backend)
        return cls(kg, corpus, selector=selector, generator=generator,
                   importance_config=config._importance_config(), top_k=config.top_k,
                   max_selected=config.max_selected,
                   keep_all_components=config.keep_all_components,
                   embedding_dim=config.embedding_dim)

    @cached_property
    def huffman_table(self) -> HuffmanTable:
        return huffman_build("\n".join(self.corpus))

    def analyze(self, sentence: str) -> SentenceAnalysis:
        hit = self._analysis_cache.get(sentence)
        if hit is None:
            trace = extract_trace(sentence, self.kg, self.index, self.extraction)
            mcsg = build_mcsg(trace.selected, self.kg)
            table = importance_scores(mcsg, self.importance_config)
            hit = SentenceAnalysis(trace.selected, mcsg, table)
            self._analysis_cache[sentence] = hit
        return hit

    def generate_text(self, recon: Mcsg) -> tuple[str, bool]:
        key = tuple(sorted(recon.nodes))
        hit = self._generation_cache.get(key)
        if hit is None:
            result = self.generator.generate(build_prompt(recon, self.kg))
            hit = (result.text, result.degraded)
            self._generation_cache[key] = hit
        return hit

    def receive(self, sentence: str, received_ids: list[int]) -> tuple[Mcsg, str, float, str]:
        """Receiver half of one transmission: reconstruct the subgraph from
        the received ids, generate text and score it against ``sentence``.
        -> (reconstruction, text, similarity, ";"-joined flags); an empty
        reconstruction yields no text and similarity 0.0."""
        recon = reconstruct(received_ids, self.kg, keep_all_components=self.keep_all_components)
        if not recon.nodes:
            return recon, "", 0.0, "empty_reconstruction"
        text, degraded = self.generate_text(recon)
        similarity = semantic_similarity(sentence, text, self.embedder)
        return recon, text, similarity, "generation_fallback" if degraded else ""


def derive_seed(base_seed: int, sentence_id: int, snr_index: int, trial: int,
                scheme: str) -> int:
    entropy = (base_seed, sentence_id, snr_index, trial, SCHEMES.index(scheme))
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def _kgrag_records(ctx: PipelineContext, sentence: str, sentence_id: int,
                   snr_db: float, seeds: list[tuple[int, int]]) -> list[ExperimentRecord]:
    """One record per (trial, seed); the channel pass is batched over trials."""
    analysis = ctx.analyze(sentence)
    n_selected = len(analysis.selected.ids)
    if n_selected == 0:
        return [ExperimentRecord(sentence_id, snr_db, "kgrag", trial, seed, 0, 0, 0.0,
                                 0, 0, 0, flags="empty_selection")
                for trial, seed in seeds]
    protected, unprotected = partition_uep(analysis.table, snr_db, ctx.importance_config)
    frame = TransmissionFrame(tuple(protected), tuple(unprotected))
    n_ids = len(analysis.mcsg.nodes)
    payload = payload_bits(n_ids)
    channel_bits = channel_bit_cost(len(protected), len(unprotected))
    results = transmit_many(frame, [ChannelConfig(snr_db, seed) for _, seed in seeds])
    records = []
    for (trial, seed), result in zip(seeds, results):
        received = list(result.received_ids)
        n_valid = len({i for i in received if i in ctx.kg.entities})
        _, _, similarity, flags = ctx.receive(sentence, received)
        records.append(ExperimentRecord(
            sentence_id, snr_db, "kgrag", trial, seed, payload, channel_bits,
            similarity, n_selected, n_ids, n_valid, flags=flags))
    return records


def _ascii_bits(text: str) -> np.ndarray:
    # '?' stands in for non-Latin-1 characters
    return np.unpackbits(np.frombuffer(text.encode("latin-1", "replace"), dtype=np.uint8))


def _bits_to_ascii(bits: np.ndarray) -> str:
    return np.packbits(bits[:len(bits) - len(bits) % 8]).tobytes().decode("latin-1")


def _text_records(embedder, huffman_table, scheme: str, sentence: str, sentence_id: int,
                  snr_db: float, seeds: list[tuple[int, int]]) -> list[ExperimentRecord]:
    """One record per (trial, seed) for an uncoded text scheme; the sentence
    is encoded and modulated once, then each trial draws its own noise."""
    huffman = scheme == "huffman_baseline"
    bits = huffman_encode(sentence, huffman_table) if huffman else _ascii_bits(sentence)
    symbols = qam16_modulate(bits)
    records = []
    for trial, seed in seeds:
        rx = qam16_demodulate(awgn(symbols, ChannelConfig(snr_db, seed)))
        decoded = huffman_decode(rx, huffman_table) if huffman else _bits_to_ascii(rx)
        similarity = semantic_similarity(sentence, decoded, embedder)
        records.append(ExperimentRecord(sentence_id, snr_db, scheme, trial, seed,
                                        len(bits), len(bits), similarity, 0, 0, 0,
                                        flags="" if decoded else "empty_decode"))
    return records


def _records(ctx: PipelineContext, scheme: str, sentence: str, sentence_id: int,
             snr_db: float, seeds: list[tuple[int, int]]) -> list[ExperimentRecord]:
    """encode -> channel -> decode -> score for one (sentence, SNR, scheme),
    one record per (trial, seed)."""
    if scheme == "kgrag":
        return _kgrag_records(ctx, sentence, sentence_id, snr_db, seeds)
    return _text_records(ctx.embedder, ctx.huffman_table, scheme, sentence,
                         sentence_id, snr_db, seeds)


def baseline_records(corpus: list[str], snr_grid: list[float] | None = None,
                     seed: int = 0, embedder=None) -> list[ExperimentRecord]:
    """Text-only schemes (huffman_baseline, ascii) over a corpus; no KG needed."""
    snr_grid = snr_grid if snr_grid is not None else [math.inf]
    embedder = embedder or TrigramEmbedder()
    table = huffman_build("\n".join(corpus))
    records = []
    for sentence_id, sentence in enumerate(corpus):
        for snr_index, snr_db in enumerate(snr_grid):
            for scheme in ("huffman_baseline", "ascii"):
                seeds = [(0, derive_seed(seed, sentence_id, snr_index, 0, scheme))]
                records += _text_records(embedder, table, scheme, sentence,
                                         sentence_id, snr_db, seeds)
    return records


def run_pipeline(ctx: PipelineContext, sentence: str, sentence_id: int,
                 snr_db: float, seed: int, scheme: str = "kgrag",
                 trial: int = 0) -> ExperimentRecord:
    """Single (sentence, SNR, seed, scheme) run -> one record."""
    return _records(ctx, scheme, sentence, sentence_id, snr_db, [(trial, seed)])[0]


def _error_record(sentence_id: int, snr_db: float, scheme: str, trial: int,
                  seed: int, exc: Exception) -> ExperimentRecord:
    reason = f"error:{type(exc).__name__}"
    return ExperimentRecord(sentence_id, snr_db, scheme, trial, seed,
                            0, 0, 0.0, 0, 0, 0, flags=reason)


def run_sweep(config: SweepConfig, ctx: PipelineContext | None = None) -> list[ExperimentRecord]:
    """All (sentence, snr, trial, scheme) records in deterministic order.
    A stage failure is captured into the records of the affected (sentence,
    SNR, scheme) as an error flag; the sweep keeps going."""
    ctx = ctx or PipelineContext.from_config(config)
    schemes = [s for s in SCHEMES if s in config.schemes]
    records: list[ExperimentRecord] = []
    for sentence_id, sentence in enumerate(ctx.corpus):
        for snr_index, snr_db in enumerate(config.snr_grid):
            per_scheme = []
            for scheme in schemes:
                seeds = [(trial, derive_seed(config.seed, sentence_id, snr_index, trial, scheme))
                         for trial in range(config.trials_per_point)]
                try:
                    rows = _records(ctx, scheme, sentence, sentence_id, snr_db, seeds)
                except Exception as exc:
                    rows = [_error_record(sentence_id, snr_db, scheme, trial, seed, exc)
                            for trial, seed in seeds]
                per_scheme.append(rows)
            for trial_rows in zip(*per_scheme):
                records.extend(trial_rows)
    return records


def _fmt_float(x: float) -> str:
    if math.isinf(x):
        return "inf"
    return f"{x:.6f}".rstrip("0").rstrip(".") if x != int(x) else str(int(x))


def render_report(records: list[ExperimentRecord], snr_grid: list[float]) -> str:
    """CSV text: trial rows, per-SNR per-scheme mean-similarity summary rows,
    and per-(SNR, scheme) cumulative bit series over the corpus ordering.
    Byte-identical for identical inputs."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in records:
        writer.writerow(["trial", r.sentence_id, _fmt_float(r.snr_db), r.scheme, r.trial,
                         r.seed, r.payload_bits, r.channel_bits, f"{r.similarity:.6f}",
                         r.n_selected, r.n_mcsg_nodes, r.n_received_valid, r.flags])
    for snr_db in snr_grid:
        for scheme in SCHEMES:
            sims = [r.similarity for r in records
                    if r.scheme == scheme and r.snr_db == snr_db]
            if sims:
                writer.writerow(["summary", "", _fmt_float(snr_db), scheme, "", "",
                                 "", "", f"{sum(sims) / len(sims):.6f}", "", "", "",
                                 f"n={len(sims)}"])
    # One cumulative block per (snr, scheme): payload bits never depend on
    # the channel, but kgrag channel bits follow the SNR-driven UEP split.
    by_point: dict[tuple[float, str], dict[int, tuple[int, int]]] = {}
    for r in records:
        by_point.setdefault((r.snr_db, r.scheme), {})[r.sentence_id] = (
            r.payload_bits, r.channel_bits)
    for snr_db in snr_grid:
        for scheme in SCHEMES:
            per_sentence = by_point.get((snr_db, scheme))
            if not per_sentence:
                continue
            payload_total = channel_total = 0
            for sentence_id in sorted(per_sentence):
                payload, channel = per_sentence[sentence_id]
                payload_total += payload
                channel_total += channel
                writer.writerow(["cumulative", sentence_id, _fmt_float(snr_db),
                                 scheme, "", "", payload_total, channel_total,
                                 "", "", "", "", ""])
    return buf.getvalue()


def write_report(records: list[ExperimentRecord], snr_grid: list[float],
                 path: str | Path) -> None:
    Path(path).write_text(render_report(records, snr_grid), encoding="utf-8")
