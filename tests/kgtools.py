"""Helpers for module tests: small hand-written graphs, the benchmark's
synthetic graph generator, and cosine and embedding oracles. A plain module
rather than conftest.py, so the import works whichever conftest pytest
loaded last."""

import importlib.util
import math
from collections import Counter
from pathlib import Path

import numpy as np

from kgsemcom import KnowledgeGraph, ingest


def cosine(a, b) -> float:
    """Cosine similarity from its definition, as an oracle for the program's
    dot products of unit vectors."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise ValueError("zero-norm vector has no direction")
    return float(np.dot(a, b) / (na * nb))


def tiny_kg(*, triples=("A r B", "B s C"), community="c0",
            extra_entities=()) -> KnowledgeGraph:
    """KG from shorthand 'Subject rel Object' strings; single community.
    Entity ids are assigned densely in first-appearance order."""
    names: list[str] = []
    for spec_line in triples:
        s, _, o = spec_line.split()
        for n in (s, o):
            if n not in names:
                names.append(n)
    for n in extra_entities:
        if n not in names:
            names.append(n)
    records = [f"C\t{community}\tlabel\tsummary"]
    records += [f"E\t\t{n}\t{community}\t\t" for n in names]
    for spec_line in triples:
        s, r, o = spec_line.split()
        records.append(f"T\t{names.index(s)}\t{r}\t{names.index(o)}")
    return ingest(records)


def load_synthkg():
    """``bench/synthkg.py``, the benchmark's seeded synthetic KG and corpus
    generator, loaded by file path: ``bench`` is not an installed package."""
    path = Path(__file__).resolve().parents[1] / "bench" / "synthkg.py"
    spec = importlib.util.spec_from_file_location("synthkg", path)
    synthkg = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(synthkg)
    return synthkg


def _splitmix64_finalizer(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & (2**64 - 1)
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & (2**64 - 1)
    return z ^ (z >> 31)


def reference_hashes(text: str, dim: int) -> list[tuple[int, int]]:
    """(coordinate, sign) per trigram, in plain integers."""
    points = [ord(ch) for ch in "\x02" + " ".join(text.split()).casefold() + "\x03"]
    if len(points) < 3:
        keys = [1 << 63 | points[0] << 21 | points[1]]
    else:
        keys = [a << 42 | b << 21 | c for a, b, c in zip(points, points[1:], points[2:])]
    hashes = [_splitmix64_finalizer(key) for key in keys]
    return [(h % dim, -1 if h >> 63 else 1) for h in hashes]


def reference_counts(text: str, dim: int) -> np.ndarray:
    """Signed feature hashing in integers: one Counter over coordinates, or the
    one-hot of the first trigram when the signed counts cancel."""
    hashes = reference_hashes(text, dim)
    counts: Counter = Counter()
    for coord, sign in hashes:
        counts[coord] += sign
    v = np.zeros(dim, dtype=np.int64)
    if not any(counts.values()):
        coord, sign = hashes[0]
        v[coord] = sign
        return v
    for coord, count in counts.items():
        v[coord] = count
    return v


def reference_embedding(text: str, dim: int) -> np.ndarray:
    """The unit vector of ``reference_counts``."""
    counts = reference_counts(text, dim)
    return counts / math.sqrt(sum(int(c) * int(c) for c in counts))
