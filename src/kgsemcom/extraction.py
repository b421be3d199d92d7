"""Three-stage entity extraction against a shared knowledge graph.

Stage 1 recognizes mention spans with a gazetteer over KG names and aliases
(longest match, left to right, case-insensitive) plus a capitalized-span
fallback for out-of-KG names. Stage 2 expands each mention to its TOP_K
candidate entities via the hierarchical embedding index. Stage 3 selects the
final ids, either with a deterministic offline rule or a remote chat model,
and keeps at most MAX_SELECTED of them.
"""

import re
import time
from dataclasses import dataclass, field

from .embedding import EmbeddingIndex
from .kg import KnowledgeGraph, NodeId, canonical_name

_TOKEN_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9'\-]*")
# StubSelector keeps a candidate whose provenance similarity reaches this
SIMILARITY_THRESHOLD = 0.5
# candidates expand takes per mention, and most ids a selector keeps
TOP_K = 3
MAX_SELECTED = 8


@dataclass(frozen=True)
class Mention:
    surface: str
    start: int
    end: int


@dataclass
class CandidateSet:
    # the candidates: id -> (its highest-similarity source mention, that similarity)
    provenance: dict[NodeId, tuple[Mention, float]]
    # diagnostic: (mention, routed community, ranked (id, sim)) per mention
    per_mention: list[tuple[Mention, str, list[tuple[NodeId, float]]]] = field(default_factory=list)


@dataclass(frozen=True)
class SelectedEntities:
    ids: tuple[NodeId, ...]


@dataclass
class ExtractionTrace:
    mentions: list[Mention]
    candidates: CandidateSet
    selected: SelectedEntities
    stage_seconds: dict[str, float]


def recognize(sentence: str, kg: KnowledgeGraph) -> list[Mention]:
    """Gazetteer pass over KG names/aliases, then capitalized runs of two or
    more tokens among the uncovered positions."""
    tokens = list(_TOKEN_RE.finditer(sentence))
    mentions: list[Mention] = []
    covered = [False] * len(tokens)

    i = 0
    while i < len(tokens):
        hit = None
        for j in range(min(i + kg.max_name_words, len(tokens)) - 1, i - 1, -1):
            start, end = tokens[i].start(), tokens[j].end()
            if kg.id_of(sentence[start:end]) is not None:
                hit = (j, start, end)
                break
        if hit is not None:
            j, start, end = hit
            mentions.append(Mention(sentence[start:end], start, end))
            for t in range(i, j + 1):
                covered[t] = True
            i = j + 1
        else:
            i += 1

    # fallback: maximal runs of >=2 capitalized uncovered tokens
    run: list[int] = []
    for idx in range(len(tokens) + 1):
        is_cap = (idx < len(tokens) and not covered[idx]
                  and tokens[idx].group()[0].isupper())
        if is_cap:
            run.append(idx)
            continue
        if len(run) >= 2:
            start, end = tokens[run[0]].start(), tokens[run[-1]].end()
            mentions.append(Mention(sentence[start:end], start, end))
        run = []

    mentions.sort(key=lambda m: m.start)
    return mentions


def expand(mentions: list[Mention], index: EmbeddingIndex, embedder,
           k: int = TOP_K) -> CandidateSet:
    """Route each mention to its best community, then take the top-k entities
    there. The mentions are embedded in one batch, and then, in one more, the
    entities of every routed community the index does not hold yet.
    Provenance keeps the highest-similarity source mention per id. An index
    without communities holds no entity, so nothing is linked."""
    cset = CandidateSet(provenance={})
    if not index.community_ids:
        return cset
    queries = embedder.embed([m.surface for m in mentions])
    routed = [index.best_community(query) for query in queries]
    index.entities(routed)
    for mention, query, community in zip(mentions, queries, routed):
        ranked = index.top_k_in_community(community, query, k=k)
        cset.per_mention.append((mention, community, ranked))
        for nid, sim in ranked:
            prev = cset.provenance.get(nid)
            if prev is None or sim > prev[1]:
                cset.provenance[nid] = (mention, sim)
    return cset


def _capped(ids, candidates: CandidateSet, max_selected: int) -> SelectedEntities:
    """The ``max_selected`` of ``ids`` with the highest provenance similarity,
    ties to the smaller id, in ascending id order: both selectors' cap."""
    ranked = sorted(ids, key=lambda nid: (-candidates.provenance[nid][1], nid))
    return SelectedEntities(ids=tuple(sorted(ranked[:max_selected])))


class StubSelector:
    """Deterministic offline stage 3: keep a candidate iff its canonical name
    occurs in the canonicalized sentence or its provenance similarity clears
    SIMILARITY_THRESHOLD; cap the result by descending similarity."""

    def select(self, sentence: str, candidates: CandidateSet, kg: KnowledgeGraph,
               max_selected: int = MAX_SELECTED) -> SelectedEntities:
        canon_sentence = canonical_name(sentence)
        keep = [nid for nid, (_, sim) in candidates.provenance.items()
                if canonical_name(kg.entities[nid].name) in canon_sentence
                or sim >= SIMILARITY_THRESHOLD]
        return _capped(keep, candidates, max_selected)


class HttpSelector:
    """Stage 3 via a chat-completion endpoint. The model sees the sentence and
    the candidate list and answers with entity names, one per line, as
    ``selector_v1.txt`` asks (a name may hold a comma, as "Washington, D.C."
    does); unmatched and non-candidate names are dropped, and the rest capped
    by descending similarity, as in ``StubSelector``."""

    def __init__(self, config, prompt_template: str | None = None):
        from .prompts import load_prompt
        self.config = config
        self.template = prompt_template or load_prompt("selector_v1.txt")

    def select(self, sentence: str, candidates: CandidateSet, kg: KnowledgeGraph,
               max_selected: int = MAX_SELECTED) -> SelectedEntities:
        from .remote import chat_completion
        listing = "\n".join(
            f"- {kg.entities[nid].name}: {kg.entities[nid].description}"
            for nid in sorted(candidates.provenance))
        prompt = self.template.format(sentence=sentence, candidates=listing)
        reply = chat_completion(self.config, prompt)
        chosen: set[NodeId] = set()
        for line in reply.splitlines():
            name = line.strip().strip("-* \t")
            if not name:
                continue
            nid = kg.id_of(name)
            if nid is not None and nid in candidates.provenance:
                chosen.add(nid)
        return _capped(chosen, candidates, max_selected)


def select(sentence: str, candidates: CandidateSet, kg: KnowledgeGraph,
           backend, max_selected: int = MAX_SELECTED) -> SelectedEntities:
    return backend.select(sentence, candidates, kg, max_selected=max_selected)


def extract_trace(sentence: str, kg: KnowledgeGraph, index: EmbeddingIndex,
                  embedder, selector) -> ExtractionTrace:
    t0 = time.perf_counter()
    mentions = recognize(sentence, kg)
    t1 = time.perf_counter()
    candidates = expand(mentions, index, embedder)
    t2 = time.perf_counter()
    selected = select(sentence, candidates, kg, selector)
    t3 = time.perf_counter()
    timings = {"recognize": t1 - t0, "expand": t2 - t1, "select": t3 - t2}
    return ExtractionTrace(mentions, candidates, selected, timings)
