"""Text embeddings and hierarchical (community-first) similarity search.

The offline embedder is signed feature hashing (Weinberger et al. 2009): each
character trigram adds +1 or -1 to one hashed coordinate, so lexically
overlapping texts land near each other. Integer counts sum exactly, so a text
has one bitwise vector on every platform, run and batch, and needs no cache.
A short text sets only a few of the ``dim`` coordinates (a mention about 13 of
384), so the index stores its community summaries coordinate-major and routes a
query by reading only the query's nonzero coordinates.
"""

import math
from typing import Iterable, Sequence

import numpy as np

from .kg import KnowledgeGraph, NodeId

DEFAULT_DIM = 384
SUMMARY_BATCH = 128  # community summaries per embed call of EmbeddingIndex.build

Vector = np.ndarray


def _tie_decimals(query: Vector) -> int:
    """Decimals to round scores against ``query`` to before ranking, so that
    summation-order noise cannot split a real-valued tie: 12 for a unit query,
    and one fewer per tenfold of its norm (12 for a zero query). Scores scale
    with the norm, and so does their rounding noise."""
    norm = float(np.linalg.norm(query))
    return 12 - round(math.log10(norm)) if 0.0 < norm < math.inf else 12


_EMPTY_KEY = 1 << 63 | 0x02 << 21 | 0x03  # the top bit no trigram sets


def _framed(text: str) -> str:
    """The casefolded, whitespace-collapsed text framed by \x02 and \x03."""
    return "\x02" + " ".join(text.split()).casefold() + "\x03"


def _window_keys(s: str) -> np.ndarray:
    """One uint64 ``c0<<42 | c1<<21 | c2`` per 3-character window of s."""
    c = np.frombuffer(s.encode("utf-32-le", "surrogatepass"), dtype=np.uint32).astype(np.uint64)
    return c[:-2] << 42 | c[1:-1] << 21 | c[2:]


def _signed_coords(keys: np.ndarray, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """splitmix64 finalizer h of each key -> (h % dim, +-1 by h's top bit)."""
    h = (keys ^ keys >> 30) * np.uint64(0xBF58476D1CE4E5B9)
    h = (h ^ h >> 27) * np.uint64(0x94D049BB133111EB)
    h ^= h >> 31
    return (h % dim).astype(np.intp), np.copysign(1.0, h.view(np.int64))


class TrigramEmbedder:
    """Deterministic offline embedder: signed feature hashing of trigrams."""

    def __init__(self, dim: int = DEFAULT_DIM):
        self.dim = dim

    def embed_one(self, text: str) -> Vector:
        """The vector of one text: ``embed`` of a one-text batch."""
        return self.embed([text])[0]

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        """One unit vector per text, from one encode of all framed texts, one
        hashing pass and one bincount; no row depends on the rest of its batch.
        A text whose signed counts cancel gets the one-hot of its first trigram."""
        if not texts:
            return np.zeros((0, self.dim))
        framed = [_framed(t) for t in texts]
        lengths = np.array([len(f) for f in framed])
        ends = np.cumsum(lengths)
        starts = ends - lengths
        # two padding characters give every position one window; the last two
        # windows of each text cross into the next and are dropped, except
        # that an empty text keeps its first one, re-keyed
        keys = _window_keys("".join(framed) + "\x00\x00")
        keep = np.ones(len(keys), dtype=bool)
        keep[ends - 1] = keep[ends - 2] = False
        empty = starts[lengths == 2]
        keys[empty], keep[empty] = _EMPTY_KEY, True
        coords, signs = _signed_coords(keys[keep], self.dim)
        rows = np.repeat(np.arange(len(texts)), lengths)[keep]
        m = np.bincount(rows * self.dim + coords, weights=signs,
                        minlength=len(texts) * self.dim).reshape(len(texts), self.dim)
        norms = np.sqrt(np.einsum("ij,ij->i", m, m))
        cancelled = np.flatnonzero(norms == 0.0)
        if len(cancelled):
            # a text's first window is always kept: its rank among kept windows
            first = (np.cumsum(keep) - 1)[starts[cancelled]]
            m[cancelled, coords[first]], norms[cancelled] = signs[first], 1.0
        m /= norms[:, None]
        return m


class EmbeddingIndex:
    """Per-community index over entity embeddings plus one summary embedding
    per community. ``build`` embeds the summaries only, into one ``(dim, C)``
    array whose column j is community j's summary; ``best_community`` gathers
    the rows of the query's nonzero coordinates, so a route costs nnz(query)
    x C multiply-adds. A community's entity texts ("name: description") are
    embedded on first use, through ``entities``, and kept for the index's
    life. Rows of ``embed`` do not depend on their batch, so every score
    equals that of an index embedded whole up front. Queries count similarity
    evaluations so the search-space reduction of the hierarchical scheme is
    observable."""

    def __init__(self, dim: int):
        self.dim = dim
        self.community_ids: list[str] = []
        self._summaries: Vector | None = None  # (dim, C), coordinate-major
        self._member_ids: dict[str, list[NodeId]] = {}  # ascending, per community
        # the communities embedded so far: member ids and one row per member
        self._entities: dict[str, tuple[list[NodeId], Vector]] = {}
        self._kg: KnowledgeGraph | None = None
        self._embedder = None
        self.eval_counts = {"community": 0, "entity": 0}

    @classmethod
    def build(cls, kg: KnowledgeGraph, embedder) -> "EmbeddingIndex":
        index = cls(dim=embedder.dim)
        index._kg, index._embedder = kg, embedder
        index.community_ids = sorted(kg.communities)
        summaries = [kg.communities[c].summary for c in index.community_ids]
        # rows do not depend on their batch: batches only bound the working memory
        index._summaries = np.empty((embedder.dim, len(summaries)))
        for start in range(0, len(summaries), SUMMARY_BATCH):
            stop = start + SUMMARY_BATCH
            index._summaries[:, start:stop] = embedder.embed(summaries[start:stop]).T
        index._member_ids = {cid: [] for cid in index.community_ids}
        for nid in sorted(kg.entities):
            index._member_ids[kg.entities[nid].community].append(nid)
        return index

    def entities(self, communities: Iterable[str]) -> list[tuple[list[NodeId], Vector]]:
        """(member ids ascending, one embedded row per member) of each
        community, in order. The members of every community not yet held are
        embedded in one batch and kept."""
        communities = list(communities)
        missing = [c for c in dict.fromkeys(communities) if c not in self._entities]
        if missing:
            ents = self._kg.entities
            texts = [f"{ents[i].name}: {ents[i].description}"
                     for c in missing for i in self._member_ids[c]]
            rows = self._embedder.embed(texts)
            start = 0
            for c in missing:
                ids = self._member_ids[c]
                self._entities[c] = (ids, rows[start:start + len(ids)])
                start += len(ids)
        return [self._entities[c] for c in communities]

    def best_community(self, query: Vector) -> str:
        if not self.community_ids:
            raise ValueError("index has no communities")
        if np.shape(query) != (self.dim,):
            raise ValueError(f"query shape {np.shape(query)} does not match dim {self.dim}")
        # a zero coordinate adds exactly 0.0 to every score, so only the order
        # in which the nonzero terms are summed differs from a dense product,
        # and the rounding below absorbs that
        nz = np.flatnonzero(query)
        sims = query[nz] @ self._summaries[nz]
        self.eval_counts["community"] += len(self.community_ids)
        # ids are sorted and argmax takes the first maximum of the rounded
        # scores, so the smallest id wins real-valued ties
        return self.community_ids[int(np.argmax(np.round(sims, _tie_decimals(query))))]

    def top_k_in_community(self, community: str, query: Vector,
                           k: int = 3) -> list[tuple[NodeId, float]]:
        if k <= 0:
            raise ValueError("k must be positive")
        [(ids, matrix)] = self.entities([community])
        if not ids:
            return []
        sims = matrix @ query
        self.eval_counts["entity"] += len(ids)
        ranked = np.round(sims, _tie_decimals(query))  # real-valued ties go to the smaller id
        order = sorted(range(len(ids)), key=lambda i: (-ranked[i], ids[i]))
        return [(ids[i], float(sims[i])) for i in order[:k]]
