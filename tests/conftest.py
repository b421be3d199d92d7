"""Shared fixtures: the bundled sample KG/corpus and session-scoped
embedding machinery (building the index embeds every entity, so tests share
one instance)."""

from importlib import resources

import pytest

from kgsemcom import (
    EmbeddingIndex,
    KnowledgeGraph,
    TrigramEmbedder,
    load_corpus,
)
from kgsemcom import kg as kgmod


def data_path(name: str) -> str:
    return str(resources.files("kgsemcom").joinpath("data", name))


@pytest.fixture(scope="session")
def sample_kg_path() -> str:
    return data_path("sample_kg.tsv")


@pytest.fixture(scope="session")
def sample_corpus_path() -> str:
    return data_path("fixture_corpus.txt")


@pytest.fixture(scope="session")
def sample_kg(sample_kg_path) -> KnowledgeGraph:
    return kgmod.load(sample_kg_path)


@pytest.fixture(scope="session")
def sample_corpus(sample_corpus_path) -> list[str]:
    return load_corpus(sample_corpus_path)


@pytest.fixture(scope="session")
def embedder() -> TrigramEmbedder:
    return TrigramEmbedder()


@pytest.fixture(scope="session")
def sample_index(sample_kg, embedder) -> EmbeddingIndex:
    return EmbeddingIndex.build(sample_kg, embedder)
