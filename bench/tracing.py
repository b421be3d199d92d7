"""In-memory span tracing around the public functions of each kgsemcom layer.

The program itself carries no tracing. ``install`` swaps each layer function
for a wrapper in every ``kgsemcom`` module namespace that refers to it (the
harness imports most of them by name), records one span per call, and puts
the originals back on exit. A span is ``(id, parent, name, start, end,
sentence)``; ``sentence`` is the corpus index the sweep was serving when the
span opened, or -1 during set-up. Spans stay in memory until ``write``.
"""

import gzip
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from kgsemcom import embedding, extraction, generation, harness, importance
from kgsemcom import kg as kgmod
from kgsemcom import semgraph
from kgsemcom.phy import convcode, frame, huffman, link, qam

# span name -> functions that open it. Names are <module>.<function>; the frame
# layer's serializer and parser share one span name.
LAYER_FUNCTIONS = {
    "harness.run_sweep": [harness.run_sweep],
    "kg.load": [kgmod.load],
    "extraction.extract_trace": [extraction.extract_trace],
    "extraction.recognize": [extraction.recognize],
    "extraction.expand": [extraction.expand],
    "extraction.select": [extraction.select],
    "semgraph.build_mcsg": [semgraph.build_mcsg],
    "semgraph.reconstruct": [semgraph.reconstruct],
    "importance.importance_scores": [importance.importance_scores],
    "importance.partition_uep": [importance.partition_uep],
    "phy.link.transmit_many": [link.transmit_many],
    "phy.frame": [frame.serialize_frame, frame.parse_coded_stream],
    "phy.convcode.encode": [convcode.conv_encode],
    "phy.convcode.viterbi": [convcode.viterbi_decode_frames],
    "phy.qam.modulate": [qam.qam16_modulate],
    "phy.qam.awgn": [qam.awgn],
    "phy.qam.demodulate": [qam.qam16_demodulate],
    "phy.huffman.encode": [huffman.huffman_encode],
    "phy.huffman.decode": [huffman.huffman_decode],
    "generation.build_prompt": [generation.build_prompt],
    "harness.semantic_similarity": [harness.semantic_similarity],
}

# span name -> (class, attribute) for methods, wrapped on the class itself
LAYER_METHODS = {
    "harness.setup": (harness.PipelineContext, "from_config"),
    "embedding.index_build": (embedding.EmbeddingIndex, "build"),
    "harness.analyze": (harness.PipelineContext, "analyze"),
    "harness.generate_text": (harness.PipelineContext, "generate_text"),
    "generation.generate": (generation.StubGenerator, "generate"),
}

# self time of these spans; harness.run_sweep's own is reported as harness.other
SELF_TIME_SPANS = (
    "harness.setup", "kg.load", "embedding.index_build",
    "harness.analyze", "extraction.extract_trace", "extraction.recognize",
    "extraction.expand", "extraction.select", "semgraph.build_mcsg",
    "importance.importance_scores", "importance.partition_uep",
    "phy.link.transmit_many", "phy.frame", "phy.convcode.encode",
    "phy.convcode.viterbi", "phy.qam.modulate", "phy.qam.awgn",
    "phy.qam.demodulate", "phy.huffman.encode", "phy.huffman.decode",
    "semgraph.reconstruct", "harness.generate_text", "generation.build_prompt",
    "generation.generate", "harness.semantic_similarity",
)
CALL_COUNT_SPANS = ("harness.semantic_similarity", "phy.huffman.encode",
                    "phy.convcode.viterbi", "semgraph.reconstruct")

# name -> (unit, better)
PER_LAYER = {
    **{f"{span}.self_s": ("s", "lower") for span in SELF_TIME_SPANS},
    "harness.other.self_s": ("s", "lower"),
    **{f"{span}.calls": ("count", "lower") for span in CALL_COUNT_SPANS},
    "harness.semantic_similarity.distinct_text_share": ("ratio", "lower"),
    "embedding.index.community_evals": ("count", "lower"),
    "embedding.index.entity_evals": ("count", "lower"),
    "phy.convcode.viterbi.trellis_steps": ("count", "lower"),
    "phy.qam.symbols": ("count", "lower"),
    "phy.link.coded_bit_errors": ("count", "lower"),
    "phy.link.uncoded_bit_errors": ("count", "lower"),
    "importance.protected_share": ("ratio", "higher"),
    "semgraph.reconstruct.valid_id_share": ("ratio", "higher"),
    "extraction.selected_nonempty_share": ("ratio", "higher"),
    "harness.analyze.hit_share": ("ratio", "higher"),
    "harness.generate_text.hit_share": ("ratio", "higher"),
    "trace.records_per_s": ("1/s", "higher"),
    "trace.untraced_records_per_s": ("1/s", "higher"),
    "trace.overhead_share": ("ratio", "lower"),
    "trace.spans": ("count", "lower"),
}


def _count_texts(tracer, args, result):
    tracer.texts.update(args[:2])
    tracer.counters["similarity_texts"] += 2


def _count_partition(tracer, args, result):
    protected, unprotected = result
    tracer.counters["protected_ids"] += len(protected)
    tracer.counters["partitioned_ids"] += len(protected) + len(unprotected)


def _count_bit_errors(tracer, args, result):
    for r in result:
        tracer.counters["coded_bit_errors"] += r.coded_bit_errors
        tracer.counters["uncoded_bit_errors"] += r.uncoded_bit_errors


def _count_trellis(tracer, args, result):
    batch, n = args[0].shape
    tracer.counters["trellis_steps"] += batch * (n // 2)


def _count_symbols(tracer, args, result):
    tracer.counters["symbols"] += len(args[0].symbols)


def _count_valid_ids(tracer, args, result):
    received, kg = args[0], args[1]
    tracer.counters["received_ids"] += len(received)
    tracer.counters["valid_received_ids"] += sum(1 for i in received if i in kg.entities)


def _count_selection(tracer, args, result):
    tracer.counters["selected_nonempty"] += bool(result.selected.ids)


# span name -> hook run after each call, outside the span, to count work
HOOKS = {
    "harness.semantic_similarity": _count_texts,
    "importance.partition_uep": _count_partition,
    "phy.link.transmit_many": _count_bit_errors,
    "phy.convcode.viterbi": _count_trellis,
    "phy.qam.awgn": _count_symbols,
    "semgraph.reconstruct": _count_valid_ids,
    "extraction.extract_trace": _count_selection,
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float, int]] = []
        self.counters: Counter = Counter()
        self.texts: set[str] = set()
        self.sentence = -1
        self._stack: list[int] = []
        self._next_id = 0

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((span_id, parent, name, start, end, self.sentence))
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def _mark_sentence(self, fn):
        # derive_seed(base_seed, sentence_id, ...) runs before every trial's work
        def marked(*args, **kwargs):
            self.sentence = args[1]
            return fn(*args, **kwargs)
        return marked

    @contextmanager
    def install(self):
        """Swap in the wrappers everywhere the originals are referenced."""
        by_id = {id(fn): self.wrap(name, fn)
                 for name, fns in LAYER_FUNCTIONS.items() for fn in fns}
        by_id[id(harness.derive_seed)] = self._mark_sentence(harness.derive_seed)
        saved = []
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("kgsemcom"):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = by_id.get(id(value))
                if wrapper is not None:
                    saved.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        for name, (cls, attr) in LAYER_METHODS.items():
            raw = cls.__dict__[attr]
            saved.append((cls, attr, raw))
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self.wrap(name, raw.__func__)))
            else:
                setattr(cls, attr, self.wrap(name, raw))
        try:
            yield self
        finally:
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)

    def write(self, path) -> None:
        """Spans as gzip TSV, times in seconds from the first span's start."""
        t0 = min((s[3] for s in self.spans), default=0.0)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\tsentence\n")
            for span_id, parent, name, start, end, sentence in self.spans:
                fh.write(f"{span_id}\t{parent}\t{name}\t{start - t0:.9f}\t"
                         f"{end - t0:.9f}\t{sentence}\n")


def self_times(spans) -> tuple[dict[str, float], dict[str, int]]:
    """Per span name: total self time (duration minus the time its direct
    children cover) and call count. Children nest inside their parent, since
    the traced program runs on one thread."""
    child_time: dict[int, float] = defaultdict(float)
    for _, parent, _, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for span_id, _, name, start, end, _ in spans:
        self_s[name] += (end - start) - child_time[span_id]
        calls[name] += 1
    return dict(self_s), dict(calls)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer, ctx, traced_rate: float,
                      untraced_rate: float) -> dict[str, float]:
    """The PER_LAYER metrics of one traced cycle that used context ``ctx``."""
    self_s, calls = self_times(tracer.spans)
    c = tracer.counters
    metrics = {f"{span}.self_s": self_s.get(span, 0.0) for span in SELF_TIME_SPANS}
    metrics["harness.other.self_s"] = self_s.get("harness.run_sweep", 0.0)
    metrics.update({f"{span}.calls": calls.get(span, 0) for span in CALL_COUNT_SPANS})
    metrics.update({
        "harness.semantic_similarity.distinct_text_share":
            _ratio(len(tracer.texts), c["similarity_texts"]),
        "embedding.index.community_evals": ctx.index.eval_counts["community"],
        "embedding.index.entity_evals": ctx.index.eval_counts["entity"],
        "phy.convcode.viterbi.trellis_steps": c["trellis_steps"],
        "phy.qam.symbols": c["symbols"],
        "phy.link.coded_bit_errors": c["coded_bit_errors"],
        "phy.link.uncoded_bit_errors": c["uncoded_bit_errors"],
        "importance.protected_share": _ratio(c["protected_ids"], c["partitioned_ids"]),
        "semgraph.reconstruct.valid_id_share":
            _ratio(c["valid_received_ids"], c["received_ids"]),
        "extraction.selected_nonempty_share":
            _ratio(c["selected_nonempty"], calls.get("extraction.extract_trace", 0)),
        "harness.analyze.hit_share": 1.0 - _ratio(calls.get("extraction.extract_trace", 0),
                                                  calls.get("harness.analyze", 0)),
        "harness.generate_text.hit_share":
            1.0 - _ratio(calls.get("generation.build_prompt", 0),
                         calls.get("harness.generate_text", 0)),
        "trace.records_per_s": traced_rate,
        "trace.untraced_records_per_s": untraced_rate,
        "trace.overhead_share": 1.0 - _ratio(traced_rate, untraced_rate),
        "trace.spans": len(tracer.spans),
    })
    return metrics
