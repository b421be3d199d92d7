"""Experiment harness: metrics, single-shot pipeline runs, SNR sweeps, CSV
reports. Three schemes share the channel: "kgrag" (the seed ids of the
sentence's subgraph, with UEP; the receiver re-derives their one-hop
neighbours from its copy of the KG), "huffman_baseline" (corpus-frequency
Huffman, uncoded), and "ascii" (8 bits per character, uncoded).

Determinism: every trial's channel seed derives from (sweep seed, sentence,
SNR index, trial, scheme) as ``SeedSequence`` would derive it (one
``phy.seed_state`` pass per sentence), so identical configs yield
byte-identical reports and any single row can be replayed in isolation.
"""

import csv
import io
import json
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field, fields as dc_fields, replace
from functools import cached_property
from operator import itemgetter
from pathlib import Path

import numpy as np

from . import kg as kgmod
from .embedding import EmbeddingIndex, TrigramEmbedder
from .extraction import ExtractionConfig, HttpSelector, StubSelector, extract_trace
from .generation import HttpGenerator, StubGenerator, build_prompt
from .importance import ImportanceConfig, ThresholdPolicy, importance_scores, partition_uep
from .phy import (ChannelConfig, TransmissionFrame, TransmitResult, HuffmanTable, WordPrior,
                  huffman_build, huffman_decode, huffman_encode, payload_bits, seed_state,
                  transmit_bits, transmit_many, word_prior)
from .remote import RemoteConfig
from .semgraph import Mcsg, build_mcsg, one_hop, reconstruct

SCHEMES = ("kgrag", "huffman_baseline", "ascii")

# most generated texts a context keeps; past it the oldest entry goes first.
# A seed-0 benchmark sweep fills 248 (fixture_sweep: 159 node sets, each with
# one or more seed sets) or 445 (large_kg), so none of its hits is lost.
GENERATION_CACHE_SIZE = 2048

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
        self.snr_grid = [_number("snr_grid", v) for v in _list("snr_grid", self.snr_grid)]
        check_snr_grid("snr_grid", self.snr_grid)
        for name, low in (("seed", 0), ("trials_per_point", 1), ("top_k", 1),
                          ("max_selected", 1), ("embedding_dim", 1)):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        self.schemes = tuple(_list("schemes", self.schemes))
        for s in self.schemes:
            if s not in SCHEMES:
                raise ValueError(f"unknown scheme {s!r}")
        if not isinstance(self.keep_all_components, bool):
            raise ValueError("keep_all_components must be true or false")
        for name in ("extract_backend", "generate_backend"):
            if getattr(self, name) not in ("stub", "http"):
                raise ValueError(f"{name} must be 'stub' or 'http', got {getattr(self, name)!r}")
        self.alpha = _number("alpha", self.alpha)
        policy = _list("threshold_policy", self.threshold_policy)
        if any(not isinstance(p, (list, tuple)) or len(p) != 2 for p in policy):
            raise ValueError(f"threshold_policy must be [snr_db, threshold] pairs, got {policy!r}")
        self.threshold_policy = tuple(tuple(_number("threshold_policy", v) for v in p)
                                      for p in policy)
        self._importance_config()  # validates the alpha range and the policy's order

    def _importance_config(self) -> ImportanceConfig:
        return ImportanceConfig(self.alpha, ThresholdPolicy(self.threshold_policy))

    @classmethod
    def from_json(cls, path: str | Path) -> "SweepConfig":
        raw = json.loads(Path(path).read_text(encoding="utf-8-sig"))
        if not isinstance(raw, dict):
            raise ValueError(f"config must be a JSON object, got {_JSON_TYPES[type(raw)]}")
        known = {f.name for f in dc_fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**raw)


_JSON_TYPES = {str: "string", int: "number", float: "number", bool: "boolean",
               list: "array", type(None): "null"}  # what json.loads returns besides dict


def _list(name: str, value):
    if not isinstance(value, (list, tuple)) or not value:
        raise ValueError(f"{name} must be a non-empty list, got {value!r}")
    return value


def _number(name: str, value) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool) or math.isnan(value):
        raise ValueError(f"{name}: expected a number, not NaN, got {value!r}")
    return float(value)


def load_corpus(path: str | Path) -> list[str]:
    """One sentence per line; blank lines, '#' comments and a leading BOM are skipped."""
    sentences = []
    for line in Path(path).read_text(encoding="utf-8-sig").splitlines():
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            sentences.append(stripped)
    if not sentences:
        raise ValueError(f"corpus {path} holds no sentences")
    return sentences


def semantic_similarity(a: str, b: str, embedder) -> float:
    """Cosine of the unit sentence embeddings (their dot product); empty text scores 0.0."""
    if not a.strip() or not b.strip():
        return 0.0
    return max(-1.0, min(1.0, float(embedder.embed_one(a) @ embedder.embed_one(b))))


@dataclass
class SentenceAnalysis:
    """A sentence's transmitter-side state: the one-hop subgraph of its
    selected entities, whose ``seed_nodes`` are those entities and the ids
    sent, and the seeds' importance rows in it (``importance_scores``)."""
    mcsg: Mcsg
    table: dict[kgmod.NodeId, tuple[int, float, float]]


def select_backends(extract_backend: str, generate_backend: str) -> tuple[object, object]:
    """-> (selector, generator) for the backend names "stub" and "http". An
    http backend reads its endpoint from the environment (RemoteConfig.from_env
    raises RuntimeError when none is set)."""
    remote = RemoteConfig.from_env() if "http" in (extract_backend, generate_backend) else None
    selector = HttpSelector(remote) if extract_backend == "http" else StubSelector()
    generator = HttpGenerator(remote) if generate_backend == "http" else StubGenerator()
    return selector, generator


class PipelineContext:
    """Shared state for runs: KG, embedder, index, backends and the
    generation memo.

    ``analyze`` is a plain function of the sentence; the sweep calls it once
    per sentence. ``send_frame`` is the one sender and ``receive`` the one
    receiver: ``kgsemcom send``, ``run_pipeline`` and the sweep all call
    them, and each scores the text ``receive`` returns. Only a sentence's
    seeds cross the channel; both ends derive the rest of its subgraph from
    the seeds and the KG they share. Generation is a deterministic function
    of the reconstructed node set and its seeds (the prompt states only the
    triples with a seed end, and one node set can come from several seed
    sets), so texts are memoized by the pair, up to GENERATION_CACHE_SIZE
    entries and oldest out first, which changes nothing observable besides
    speed. The corpus only feeds the sweep's sentence list and the Huffman
    table, which is built on first use.

    The receiver also decodes with the KG. ``seed_prior``, built on first
    use in one pass over the triples, lists the words a protected stream
    plausibly carries: any entity's rank for one seed, and the sorted ranks
    of any two entities a triple joins for two. Every kgrag sender (the
    sweep, ``run_pipeline`` and ``kgsemcom send``) passes it to the link,
    whose decoder then trades a Viterbi word the list lacks for the most
    likely listed word, if that word's log-likelihood is within
    ``convcode.PRIOR_NATS`` of the Viterbi word's (a margin in metric steps
    that shrinks as the SNR rises) and some received bit disagrees with the
    Viterbi word. Frames of three or more protected seeds keep the Viterbi
    word. ``convcode.decode_in_prior`` holds the exact search and its
    shortcuts.
    """

    def __init__(self, kg: kgmod.KnowledgeGraph, corpus: Sequence[str] = (),
                 selector=None, generator=None,
                 importance_config: ImportanceConfig | None = None,
                 top_k: int = 3, max_selected: int = 8,
                 keep_all_components: bool = False, embedding_dim: int = 384):
        self.kg = kg
        self.corpus = corpus
        self.embedder = TrigramEmbedder(dim=embedding_dim)
        self.index = EmbeddingIndex.build(kg, self.embedder)
        self.extraction = ExtractionConfig(embedder=self.embedder,
                                           selector=selector or StubSelector(),
                                           top_k=top_k, max_selected=max_selected)
        self.generator = generator or StubGenerator()
        self.importance_config = importance_config or ImportanceConfig()
        self.keep_all_components = keep_all_components
        # an id travels as its rank among the sorted entity ids, in the W bits
        # the largest rank N - 1 needs; ranks >= N name no entity and map to
        # -1, which reconstruction drops
        self.id_width = max(1, (len(kg.entities) - 1).bit_length())
        self._id_of_rank = np.full(1 << self.id_width, -1, dtype=np.int64)
        self._id_of_rank[:len(kg.entities)] = sorted(kg.entities)
        self._generation_cache: dict[tuple[frozenset[int], frozenset[int]],
                                     tuple[str, bool]] = {}

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
    def seed_prior(self) -> WordPrior:
        """The protected words the receiver deems plausible: any rank below
        N, and the sorted rank pair of each triple's two ends."""
        ids = self._id_of_rank[:len(self.kg.entities)]

        def ranks(end: int) -> np.ndarray:
            return np.searchsorted(ids, np.fromiter(map(itemgetter(end), self.kg.triples),
                                                    dtype=np.int64, count=len(self.kg.triples)))

        return word_prior(max(len(ids), 1), (ranks(0), ranks(2)))

    @cached_property
    def huffman_table(self) -> HuffmanTable:
        return huffman_build("\n".join(self.corpus))

    def analyze(self, sentence: str) -> SentenceAnalysis:
        trace = extract_trace(sentence, self.kg, self.index, self.extraction)
        mcsg = build_mcsg(trace.selected.ids, self.kg)
        return SentenceAnalysis(mcsg, importance_scores(mcsg, self.importance_config))

    def send_frame(self, analysis: SentenceAnalysis, snr_db: float) -> TransmissionFrame:
        """The one sender: the wire frame of a sentence's seeds at ``snr_db``.
        The importance table holds exactly the seeds, so its UEP classes are
        the frame's classes; each seed travels as its rank among the sorted
        entity ids. The seeds' neighbours are not sent: the receiver
        re-derives them."""
        ranks = self._id_of_rank[:len(self.kg.entities)]
        classes = partition_uep(analysis.table, snr_db, self.importance_config)
        return TransmissionFrame(*(tuple(np.searchsorted(ranks, ids).tolist()) for ids in classes),
                                 self.id_width)

    def received_ids(self, result: TransmitResult) -> list[int]:
        """KG ids for the received words, protected first; -1 for a word no
        entity holds."""
        return self._id_of_rank[list(result.received_ids)].tolist()

    def generate_text(self, recon: Mcsg) -> tuple[str, bool]:
        cache = self._generation_cache
        key = recon.nodes, recon.seed_nodes
        hit = cache.get(key)
        if hit is None:
            result = self.generator.generate(build_prompt(recon, self.kg))
            if len(cache) >= GENERATION_CACHE_SIZE:
                del cache[next(iter(cache))]  # dicts keep insertion order
            hit = cache[key] = (result.text, result.degraded)
        return hit

    def receive(self, received_ids: Iterable[int]) -> tuple[Mcsg, str, str]:
        """The one receiver: drop the received ids no entity holds, expand the
        surviving seeds by one hop in the KG, ``reconstruct`` the subgraph of
        that node set and generate text from its triples with a kept seed at
        either end. -> (reconstruction, text, flags); the reconstruction's
        seed nodes are the received seeds it kept, and an empty
        reconstruction yields no text."""
        seeds = frozenset(i for i in received_ids if i in self.kg.entities)
        recon = reconstruct(one_hop(seeds, self.kg), self.kg,
                            keep_all_components=self.keep_all_components)
        recon = replace(recon, seed_nodes=seeds & recon.nodes)
        if not recon.nodes:
            return recon, "", "empty_reconstruction"
        text, degraded = self.generate_text(recon)
        return recon, text, "generation_fallback" if degraded else ""


class SentenceVectors:
    """Sentence embeddings by text, for the records of one sentence: each of
    them scores against the same reference, and noisy channels repeat
    decoded texts. Made per sentence and dropped with it; ``add`` embeds a
    batch of texts at once, and ``embed_one`` returns exactly what the
    wrapped embedder's does."""

    def __init__(self, embedder):
        self.embedder = embedder
        self._vectors: dict[str, np.ndarray] = {}

    def add(self, texts: Sequence[str]) -> None:
        """Embed, in one batch, each text the memo lacks that scoring would
        embed (a blank one scores 0.0 unembedded)."""
        missing = list(dict.fromkeys(t for t in texts if t.strip() and t not in self._vectors))
        if missing:
            self._vectors.update(zip(missing, self.embedder.embed(missing)))

    def embed_one(self, text: str) -> np.ndarray:
        vector = self._vectors.get(text)
        if vector is None:
            vector = self._vectors[text] = self.embedder.embed_one(text)
        return vector


def derive_seed(base_seed: int, sentence_id: int, snr_index, trial, scheme):
    """The channel seed of one trial: ``SeedSequence((base_seed, sentence_id,
    snr_index, trial, SCHEMES.index(scheme)))``'s first uint64 word, as an
    int. Given equal-length arrays of ``snr_index`` and ``trial`` and a
    sequence of scheme names, it returns a uint64 array with one seed per
    element, from one ``seed_state`` pass."""
    if isinstance(scheme, str):
        scheme_index = SCHEMES.index(scheme)
    else:
        scheme_index = np.array([SCHEMES.index(s) for s in scheme], dtype=np.int64)
    entropy = (base_seed, sentence_id, snr_index, trial, scheme_index)
    seeds = seed_state(entropy, 1)[:, 0]
    if all(np.ndim(e) == 0 for e in entropy):
        return int(seeds[0])
    return seeds


# One (SNR, trials) point of a (sentence, scheme): the SNR and its
# (trial, seed) pairs.
Point = tuple[float, list[tuple[int, int]]]
# One trial's reception: (text, flags, n_received_valid).
Reception = tuple[str, str, int]
# What a scheme's sender makes of one point: the record fields its trials
# share, (payload_bits, channel_bits, n_selected, n_mcsg_nodes), and one
# reception per trial; or the exception a per-point stage raised there.
SentPoint = tuple[tuple[int, int, int, int], list[Reception]] | Exception


def _attempt(stage, *args):
    """``stage(*args)``, or the exception it raised."""
    try:
        return stage(*args)
    except Exception as exc:
        return exc


def _send_kgrag(ctx: PipelineContext, sentence: str, points: list[Point]) -> list[SentPoint]:
    """Analysis once, ``ctx.send_frame`` once per SNR, one channel call for
    every point, and ``ctx.receive`` once per distinct set of valid seeds
    the sentence's receptions hold."""
    analysis = ctx.analyze(sentence)
    if not analysis.mcsg.seed_nodes:
        return [((0, 0, 0, 0), [("", "empty_selection", 0)] * len(seeds)) for _, seeds in points]
    n_selected, n_mcsg = len(analysis.mcsg.seed_nodes), len(analysis.mcsg.nodes)
    frames = [_attempt(ctx.send_frame, analysis, snr_db) for snr_db, _ in points]
    sent = [(frame, ChannelConfig(snr_db, seed))
            for (snr_db, seeds), frame in zip(points, frames)
            if not isinstance(frame, Exception) for _, seed in seeds]
    results = iter(transmit_many([f for f, _ in sent], [c for _, c in sent], ctx.seed_prior))
    # the receiver's output depends only on the valid seeds, and this
    # sentence's receptions often repeat them: valid seeds -> reception
    receptions: dict[frozenset[int], Reception] = {}

    def receive(result: TransmitResult) -> Reception:
        seeds = frozenset(i for i in ctx.received_ids(result) if i in ctx.kg.entities)
        if seeds not in receptions:
            _, text, flags = ctx.receive(seeds)
            receptions[seeds] = text, flags, len(seeds)
        return receptions[seeds]

    def point(frame: TransmissionFrame, point_results: list[TransmitResult]) -> SentPoint:
        # every trial of a point sends the same frame, so the same channel bits
        n_sent = len(frame.protected_ids) + len(frame.unprotected_ids)
        return ((payload_bits(n_sent, frame.width), point_results[0].channel_bits, n_selected,
                 n_mcsg), [receive(result) for result in point_results])

    return [frame if isinstance(frame, Exception)
            else _attempt(point, frame, [next(results) for _ in seeds])
            for (_, seeds), frame in zip(points, frames)]


def _ascii_bits(text: str) -> np.ndarray:
    # '?' stands in for non-Latin-1 characters
    return np.unpackbits(np.frombuffer(text.encode("latin-1", "replace"), dtype=np.uint8))


def _bits_to_ascii(bits: np.ndarray) -> str:
    return np.packbits(bits[:len(bits) - len(bits) % 8]).tobytes().decode("latin-1")


def _send_text(ctx: PipelineContext, scheme: str, sentence: str,
               points: list[Point]) -> list[SentPoint]:
    """An uncoded text scheme: the sentence is encoded once and crosses the
    channel in one call for every trial of every point; each reception is
    decoded to text."""
    huffman = scheme == "huffman_baseline"
    bits = huffman_encode(sentence, ctx.huffman_table) if huffman else _ascii_bits(sentence)
    received = iter(transmit_bits(bits, [ChannelConfig(snr_db, seed)
                                         for snr_db, seeds in points for _, seed in seeds]))

    def decode(rx_rows) -> SentPoint:
        texts = [huffman_decode(rx, ctx.huffman_table) if huffman else _bits_to_ascii(rx)
                 for rx in rx_rows]
        return (len(bits), len(bits), 0, 0), [(t, "" if t else "empty_decode", 0) for t in texts]

    return [_attempt(decode, [next(received) for _ in seeds]) for _, seeds in points]


def _points(ctx: PipelineContext, vectors: SentenceVectors, scheme: str, sentence: str,
            sentence_id: int, points: list[Point]) -> list[list[ExperimentRecord] | Exception]:
    """One (sentence, scheme) at every point: the scheme's sender, one
    embedding batch for every text received, then each point's records, or
    the exception that point raised. A text is scored iff it is non-empty;
    an empty one scores 0.0."""
    sent = (_send_kgrag(ctx, sentence, points) if scheme == "kgrag"
            else _send_text(ctx, scheme, sentence, points))
    texts = [text for s in sent if not isinstance(s, Exception) for text, _, _ in s[1] if text]
    if texts:
        vectors.add([sentence, *texts])

    def score(snr_db: float, seeds: list[tuple[int, int]], shared: tuple[int, int, int, int],
              receptions: list[Reception]) -> list[ExperimentRecord]:
        payload, channel_bits, n_selected, n_ids = shared
        return [ExperimentRecord(sentence_id, snr_db, scheme, trial, seed, payload, channel_bits,
                                 semantic_similarity(sentence, text, vectors) if text else 0.0,
                                 n_selected, n_ids, n_valid, flags=flags)
                for (trial, seed), (text, flags, n_valid) in zip(seeds, receptions)]

    return [s if isinstance(s, Exception) else _attempt(score, snr_db, seeds, *s)
            for (snr_db, seeds), s in zip(points, sent)]


def _error_records(sentence_id: int, snr_db: float, scheme: str,
                   seeds: list[tuple[int, int]], exc: Exception) -> list[ExperimentRecord]:
    reason = f"error:{type(exc).__name__}"
    return [ExperimentRecord(sentence_id, snr_db, scheme, trial, seed, 0, 0, 0.0, 0, 0, 0,
                             flags=reason) for trial, seed in seeds]


def baseline_records(corpus: list[str], snr_grid: list[float] | None = None,
                     seed: int = 0) -> list[ExperimentRecord]:
    """Text-only schemes (huffman_baseline, ascii) over a corpus, one trial
    per SNR point (default: a noiseless channel), through the sweep's engine:
    the records equal those ``run_sweep`` gives for these schemes, and a
    failure is flagged the same way. No KG needed: the text schemes never
    read the graph, so the context holds an empty one."""
    snr_grid = snr_grid if snr_grid is not None else [math.inf]
    return _sweep(PipelineContext(kgmod.ingest([]), corpus), snr_grid, 1, seed,
                  ("huffman_baseline", "ascii"))


def run_pipeline(ctx: PipelineContext, sentence: str, sentence_id: int,
                 snr_db: float, seed: int, scheme: str = "kgrag",
                 trial: int = 0) -> ExperimentRecord:
    """Single (sentence, SNR, seed, scheme) run -> one record; a stage
    failure raises."""
    (rows,) = _points(ctx, SentenceVectors(ctx.embedder), scheme, sentence, sentence_id,
                      [(snr_db, [(trial, seed)])])
    if isinstance(rows, Exception):
        raise rows
    return rows[0]


def run_sweep(config: SweepConfig, ctx: PipelineContext | None = None) -> list[ExperimentRecord]:
    """All (sentence, snr, trial, scheme) records of ``config`` in
    deterministic order, on ``ctx`` (default: one built from ``config``).

    The sweep works one sentence at a time: one ``derive_seed`` pass gives
    every seed of the sentence, and each scheme sends all its SNR points and
    trials through one channel call. ``ctx.receive`` runs once per distinct
    set of valid seeds a sentence's kgrag receptions hold, and one embedding
    batch serves each (sentence, scheme)'s scores. A failure is captured as
    an ``error:<type>`` flag and the sweep keeps going. A per-point stage
    (``send_frame``'s UEP split and frame, decode, reception, scoring) flags
    only the records of its (sentence, SNR, scheme); a shared step (analysis,
    encoding, the channel call) flags the records of every point it covered."""
    return _sweep(ctx or PipelineContext.from_config(config), config.snr_grid,
                  config.trials_per_point, config.seed, config.schemes)


def _sweep(ctx: PipelineContext, grid: list[float], trials: int, seed: int,
           schemes: Sequence[str]) -> list[ExperimentRecord]:
    """The one sweep loop behind ``run_sweep`` and ``baseline_records``. A
    repeated SNR label would merge report rows, so it raises ValueError."""
    check_snr_grid("snr grid", grid)
    schemes = [s for s in SCHEMES if s in schemes]
    shape = (len(grid), trials, len(schemes))
    snr_index, trial_index, scheme_index = np.indices(shape).reshape(3, -1)
    scheme_names = [schemes[k] for k in scheme_index]
    records: list[ExperimentRecord] = []
    for sentence_id, sentence in enumerate(ctx.corpus):
        sentence_seeds = derive_seed(seed, sentence_id, snr_index, trial_index,
                                     scheme_names).reshape(shape).tolist()
        vectors = SentenceVectors(ctx.embedder)
        per_scheme = []
        for k, scheme in enumerate(schemes):
            points = [(snr_db, [(t, sentence_seeds[i][t][k]) for t in range(trials)])
                      for i, snr_db in enumerate(grid)]
            try:
                rows = _points(ctx, vectors, scheme, sentence, sentence_id, points)
            except Exception as exc:  # a shared step: every point fails with it
                rows = [exc] * len(points)
            per_scheme.append([_error_records(sentence_id, snr_db, scheme, seeds, r)
                               if isinstance(r, Exception) else r
                               for (snr_db, seeds), r in zip(points, rows)])
        for i in range(len(grid)):
            for t in range(trials):
                records += [rows[i][t] for rows in per_scheme]
    return records


def _fmt_float(x: float) -> str:
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return f"{x:.6f}".rstrip("0").rstrip(".") if x != int(x) else str(int(x))


def check_snr_grid(name: str, grid: Sequence[float]) -> None:
    """Raise ValueError if two SNRs of ``grid`` share a report label, as 0.0
    and -0.0 do, or 0 and 1e-7 (both "0"): their rows would be one point."""
    labels = [_fmt_float(x) for x in grid]
    if len(set(labels)) < len(labels):
        raise ValueError(f"{name} repeats a value as the report labels it: {' '.join(labels)}")


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
    # one pass groups the records by (snr, scheme), in record order
    by_point: dict[tuple[float, str], list[ExperimentRecord]] = {}
    for r in records:
        by_point.setdefault((r.snr_db, r.scheme), []).append(r)
    points = [(snr_db, scheme, by_point[snr_db, scheme]) for snr_db in snr_grid
              for scheme in SCHEMES if (snr_db, scheme) in by_point]
    for snr_db, scheme, group in points:
        writer.writerow(["summary", "", _fmt_float(snr_db), scheme, "", "", "", "",
                         f"{sum(r.similarity for r in group) / len(group):.6f}", "", "", "",
                         f"n={len(group)}"])
    # One cumulative block per (snr, scheme): payload bits never depend on
    # the channel, but kgrag channel bits follow the SNR-driven UEP split.
    for snr_db, scheme, group in points:
        per_sentence = {r.sentence_id: (r.payload_bits, r.channel_bits) for r in group}
        payload_total = channel_total = 0
        for sentence_id, (payload, channel) in sorted(per_sentence.items()):
            payload_total += payload
            channel_total += channel
            writer.writerow(["cumulative", sentence_id, _fmt_float(snr_db),
                             scheme, "", "", payload_total, channel_total,
                             "", "", "", "", ""])
    return buf.getvalue()


def write_report(records: list[ExperimentRecord], snr_grid: list[float],
                 path: str | Path) -> None:
    Path(path).write_text(render_report(records, snr_grid), encoding="utf-8")
