"""Helpers for module tests: small hand-written graphs and a cosine oracle.
A plain module rather than conftest.py, so the import works whichever
conftest pytest loaded last."""

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
