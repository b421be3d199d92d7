"""Seeded synthetic knowledge graph and corpus for the ``large_kg`` workload.

The graph mirrors the bundled fixture's shape at a larger size: about 13
entities per community (the fixture's 104/8), community summaries that list
their members' names, and three outgoing edges per entity, most of them
inside the entity's own community. The corpus verbalizes random
edges with both names verbatim, so the gazetteer can find them. Everything is
drawn from one Philox stream, so one seed always yields the same bytes.
"""

import numpy as np

from kgsemcom.generation import verbalize_relation

ENTITIES_PER_COMMUNITY = 104 / 8
EDGES_PER_ENTITY = 3
LOCAL_EDGE_SHARE = 0.8

_SYLLABLES = ("ba", "ce", "di", "fo", "gu", "ha", "je", "ki", "lo", "mu",
              "na", "pe", "ri", "so", "tu", "va", "we", "xi", "yo", "za",
              "bar", "cel", "dun", "fen", "gor", "hal", "jin", "kor", "lum", "mer",
              "nor", "pel", "ran", "sil", "tor", "vin", "wes", "yar", "zel", "quin")
_ADJECTIVES = ("old", "northern", "quiet", "famous", "restored", "remote",
               "storied", "modest", "vast", "hidden")
_NOUNS = ("archive", "observatory", "guild", "harbor", "foundry", "survey",
          "workshop", "expedition", "collection", "station")
_RELATIONS = ("partOf", "studiedBy", "recordedIn", "maintainedBy", "listedIn",
              "documentedBy", "associatedWith", "affiliatedWith", "joinedAt",
              "displayedAt", "composed", "trackedBy")
_OPENERS = ("According to the archive, {s} {r} {o}",
            "Records kept by the survey team confirm that {s} {r} {o}",
            "It is well documented that {s} {r} {o}",
            "Historians often note that {s} {r} {o}",
            "The catalogue explains that {s} {r} {o}")
_FILLERS = ("a detail the curators repeat in every guided tour",
            "which the annual report discusses at considerable length",
            "though the precise circumstances took decades to establish",
            "a fact that still surprises first-time visitors",
            "and the connection has been studied ever since")
MIN_SENTENCE_CHARS = 130


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def _word(rng: np.random.Generator) -> str:
    n = 2 + int(rng.integers(2))
    return "".join(_SYLLABLES[int(i)] for i in rng.integers(len(_SYLLABLES), size=n)).capitalize()


def _unique_names(rng: np.random.Generator, count: int) -> list[str]:
    names: list[str] = []
    seen: set[str] = set()
    while len(names) < count:
        name = f"{_word(rng)} {_word(rng)}"
        if name.casefold() not in seen:
            seen.add(name.casefold())
            names.append(name)
    return names


def generate(seed: int, n_entities: int, n_sentences: int) -> tuple[str, str]:
    """-> (KG file text in the ``kgsemcom.kg`` record format, corpus text)."""
    if n_entities < 2 or n_sentences < 1:
        raise ValueError("need at least two entities and one sentence")
    rng = _rng(seed)
    n_communities = max(1, round(n_entities / ENTITIES_PER_COMMUNITY))
    names = _unique_names(rng, n_entities)
    labels = _unique_names(rng, n_communities)
    community_of = rng.permutation(n_entities) % n_communities
    members: list[list[int]] = [[] for _ in range(n_communities)]
    for i, c in enumerate(community_of):
        members[int(c)].append(i)

    lines = [f"# synthetic knowledge graph: {n_entities} entities, seed {seed}"]
    for c in range(n_communities):
        summary = ", ".join(names[i] for i in members[c]) + "."
        lines.append(f"C\tc{c}\t{labels[c]}\t{summary}")
    for i in range(n_entities):
        adjective = _ADJECTIVES[int(rng.integers(len(_ADJECTIVES)))]
        noun = _NOUNS[int(rng.integers(len(_NOUNS)))]
        label = labels[int(community_of[i])]
        lines.append(f"E\t{i + 1}\t{names[i]}\tc{community_of[i]}\t"
                     f"{adjective} {noun} of the {label} circle\t")
    edges: list[tuple[int, str, int]] = []
    for s in range(n_entities):
        local = members[int(community_of[s])]
        for _ in range(EDGES_PER_ENTITY):
            o = s
            while o == s:
                if len(local) > 1 and rng.random() < LOCAL_EDGE_SHARE:
                    o = local[int(rng.integers(len(local)))]
                else:
                    o = int(rng.integers(n_entities))
            relation = _RELATIONS[int(rng.integers(len(_RELATIONS)))]
            edges.append((s, relation, o))
            lines.append(f"T\t{s + 1}\t{relation}\t{o + 1}")
    kg_text = "\n".join(lines) + "\n"

    sentences = []
    for _ in range(n_sentences):
        s, relation, o = edges[int(rng.integers(len(edges)))]
        opener = _OPENERS[int(rng.integers(len(_OPENERS)))]
        sentence = opener.format(s=names[s], r=verbalize_relation(relation), o=names[o])
        for k in rng.permutation(len(_FILLERS)):
            if len(sentence) >= MIN_SENTENCE_CHARS:
                break
            sentence += f", {_FILLERS[int(k)]}"
        sentences.append(sentence + ".")
    return kg_text, "\n".join(sentences) + "\n"
