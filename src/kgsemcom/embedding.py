"""Text embeddings and hierarchical (community-first) similarity search.

The offline embedder hashes character trigrams to deterministic pseudorandom
unit vectors and sums them, so lexically overlapping texts land near each
other. Identical text gives an identical vector on every platform and run.
"""

import hashlib
from typing import Sequence

import numpy as np

from .kg import KnowledgeGraph, NodeId

DEFAULT_DIM = 384

Vector = np.ndarray


def cosine(a: Vector, b: Vector) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise ValueError("zero-norm vector has no direction")
    return float(np.dot(a, b) / (na * nb))


def _trigrams(text: str) -> list[str]:
    # \x02/\x03 mark the ends so one- and two-char texts still yield a token
    s = "\x02" + " ".join(text.split()).casefold() + "\x03"
    if len(s) < 3:
        return [s]
    return [s[i:i + 3] for i in range(len(s) - 2)]


class TrigramEmbedder:
    """Deterministic offline embedder: hashed-trigram random projections."""

    def __init__(self, dim: int = DEFAULT_DIM):
        self.dim = dim
        self._tri_cache: dict[str, Vector] = {}
        self._text_cache: dict[str, Vector] = {}

    def _trigram_vector(self, tri: str) -> Vector:
        v = self._tri_cache.get(tri)
        if v is None:
            digest = hashlib.blake2b(tri.encode("utf-8"), digest_size=8).digest()
            seed = int.from_bytes(digest, "big")
            rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
            v = rng.standard_normal(self.dim)
            v /= np.linalg.norm(v)
            self._tri_cache[tri] = v
        return v

    def embed_one(self, text: str) -> Vector:
        v = self._text_cache.get(text)
        if v is not None:
            return v
        acc = np.zeros(self.dim)
        for tri in _trigrams(text):
            acc += self._trigram_vector(tri)
        norm = np.linalg.norm(acc)
        if norm < 1e-12:
            # vanishingly unlikely cancellation; keep the output a unit vector
            acc = self._trigram_vector(_trigrams(text)[0]).copy()
            norm = np.linalg.norm(acc)
        acc /= norm
        acc.setflags(write=False)
        self._text_cache[text] = acc
        return acc

    def embed(self, texts: Sequence[str]) -> list[Vector]:
        return [self.embed_one(t) for t in texts]


class EmbeddingIndex:
    """Flat per-community index over entity embeddings plus one summary
    embedding per community. Queries count similarity evaluations so the
    search-space reduction of the hierarchical scheme is observable."""

    def __init__(self, dim: int):
        self.dim = dim
        self.community_ids: list[str] = []
        self._community_matrix: Vector | None = None
        self._entities: dict[str, tuple[list[NodeId], Vector]] = {}
        self.eval_counts = {"community": 0, "entity": 0}

    @classmethod
    def build(cls, kg: KnowledgeGraph, embedder) -> "EmbeddingIndex":
        probe = embedder.embed_one("probe")
        index = cls(dim=len(probe))
        index.community_ids = sorted(kg.communities)
        summaries = [kg.communities[c].summary for c in index.community_ids]
        index._community_matrix = np.stack(embedder.embed(summaries)) if summaries else None
        members: dict[str, list[NodeId]] = {cid: [] for cid in index.community_ids}
        for e in kg.entities.values():
            members[e.community].append(e.node_id)
        for cid in index.community_ids:
            ids = sorted(members[cid])
            texts = [f"{kg.entities[i].name}: {kg.entities[i].description}" for i in ids]
            matrix = np.stack(embedder.embed(texts)) if ids else np.zeros((0, index.dim))
            index._entities[cid] = (ids, matrix)
        return index

    def reset_counts(self) -> None:
        self.eval_counts = {"community": 0, "entity": 0}

    def best_community(self, query: Vector) -> str:
        if not self.community_ids:
            raise ValueError("index has no communities")
        sims = self._community_matrix @ query
        self.eval_counts["community"] += len(self.community_ids)
        # ids are sorted, argmax returns the first maximum: smallest id wins ties
        return self.community_ids[int(np.argmax(sims))]

    def top_k_in_community(self, community: str, query: Vector,
                           k: int = 3) -> list[tuple[NodeId, float]]:
        if k <= 0:
            raise ValueError("k must be positive")
        ids, matrix = self._entities[community]
        if not ids:
            return []
        sims = matrix @ query
        self.eval_counts["entity"] += len(ids)
        order = sorted(range(len(ids)), key=lambda i: (-sims[i], ids[i]))
        return [(ids[i], float(sims[i])) for i in order[:k]]

    def community_size(self, community: str) -> int:
        return len(self._entities[community][0])
