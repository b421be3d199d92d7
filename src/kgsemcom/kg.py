"""Knowledge graph store: entities with descriptions, communities, relation triples.

File format (UTF-8, one record per line, tab-separated, '#' comments ignored;
a leading byte-order mark is skipped):

    C<TAB>community_id<TAB>label<TAB>summary
    E<TAB>node_id<TAB>name<TAB>community_id<TAB>description<TAB>alias1|alias2|...
    T<TAB>subject_id<TAB>relation<TAB>object_id

Description and aliases may be empty. An empty node_id field requests dense
auto-assignment (first free id starting at 0, in file order). dump() inverts
load(). Graphs are immutable after ingestion; all queries are read-only.

load() builds the graph in one pass: it drops the file's bytes once they are
decoded and feeds ingest() the lines chunk by chunk, never as one list; ingest()
turns each T line into its Triple as it reads it and keeps one string object
per distinct relation label and community id, and one int object per node id:
every triple end is the very key of its entity.
"""

import codecs
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, NoReturn

NodeId = int
MAX_NODE_ID = 2**32 - 1
LINE_CHUNK = 1 << 16  # characters of decoded text that load splits at a time


class KgFormatError(ValueError):
    """Malformed or inconsistent KG records."""


def canonical_name(name: str) -> str:
    """Case-folded, whitespace-collapsed form used for all name lookups."""
    return " ".join(name.split()).casefold()


class Triple(NamedTuple):
    """A directed labeled edge; compares, hashes and sorts as the tuple
    (subject, relation, object)."""
    subject: NodeId
    relation: str
    object: NodeId


class Entity(NamedTuple):
    """A node: its id, name, community, description and aliases; a plain
    tuple, so ingest builds one cheaply per E line."""
    node_id: NodeId
    name: str
    community: str
    description: str = ""
    aliases: tuple[str, ...] = ()


@dataclass(frozen=True)
class Community:
    community_id: str
    label: str = ""
    summary: str = ""


class KnowledgeGraph:
    """Immutable store of entities, communities, and directed labeled triples."""

    def __init__(self, entities: dict[NodeId, Entity], communities: dict[str, Community],
                 triples: list[Triple], name_index: dict[str, NodeId] | None = None):
        """``name_index`` maps each entity's canonical name to its id; it is
        computed from ``entities`` when not given."""
        self.entities = entities
        self.communities = communities
        self.triples = triples
        # canonical name or alias -> id: every name first, then each alias that
        # no name or earlier entity holds, so an alias never shadows a name
        self.lookup: dict[str, NodeId] = dict(
            name_index if name_index is not None
            else ((canonical_name(ent.name), ent.node_id) for ent in entities.values()))
        for ent in entities.values():
            for alias in ent.aliases:
                self.lookup.setdefault(canonical_name(alias), ent.node_id)
        # longest lookup key in words, so recognition bounds its span search
        self.max_name_words = max((len(k.split()) for k in self.lookup), default=1)
        # per-node incidence lists: each triple under its subject and its object,
        # a self-loop once, so subgraph queries never scan the whole graph
        self._incident: dict[NodeId, list[Triple]] = {i: [] for i in entities}
        for t in triples:
            self._incident[t.subject].append(t)
            if t.object != t.subject:
                self._incident[t.object].append(t)

    # -- queries ------------------------------------------------------------

    def entity_by_id(self, node_id: NodeId) -> Entity | None:
        return self.entities.get(node_id)

    def id_of(self, name: str) -> NodeId | None:
        return self.lookup.get(canonical_name(name))

    def neighbors(self, node_id: NodeId) -> set[tuple[str, NodeId]]:
        """Edges touching node_id in either direction, as (relation, other) pairs."""
        if node_id not in self.entities:
            raise KeyError(f"unknown node id {node_id}")
        return {(t.relation, t.object if t.subject == node_id else t.subject)
                for t in self._incident[node_id]}

    def induced_edges(self, nodes: frozenset[NodeId]) -> tuple[Triple, ...]:
        """Triples with both ends in nodes, sorted by (subject, relation, object).
        Walks only the incidence lists of nodes; unknown ids touch no triple."""
        edges = [t for n in nodes for t in self._incident.get(n, ())
                 if t.subject == n and t.object in nodes]
        edges.sort()
        return tuple(edges)

    def __len__(self) -> int:
        return len(self.entities)

    def __eq__(self, other) -> bool:
        if not isinstance(other, KnowledgeGraph):
            return NotImplemented
        return (self.entities == other.entities and self.communities == other.communities
                and self.triples == other.triples)

    # -- persistence ---------------------------------------------------------

    def to_records(self) -> list[str]:
        lines = []
        for cid in sorted(self.communities):
            c = self.communities[cid]
            lines.append(f"C\t{c.community_id}\t{c.label}\t{c.summary}")
        for nid in sorted(self.entities):
            e = self.entities[nid]
            lines.append(f"E\t{e.node_id}\t{e.name}\t{e.community}\t{e.description}\t"
                         f"{'|'.join(e.aliases)}")
        for t in self.triples:
            lines.append(f"T\t{t.subject}\t{t.relation}\t{t.object}")
        return lines

    def dump(self, path: str | Path) -> None:
        Path(path).write_text("\n".join(self.to_records()) + "\n", encoding="utf-8")


def _parse_node_id(text: str, lineno: int) -> NodeId:
    try:
        value = int(text)
    except ValueError:
        raise KgFormatError(f"line {lineno}: node id {text!r} is not an integer") from None
    if not 0 <= value <= MAX_NODE_ID:
        raise KgFormatError(f"line {lineno}: node id {value} outside unsigned 32-bit range")
    return value


class _IdTable(dict):
    """Id text -> node id, one int object per id: a text seen for the first
    time is parsed with ``int()`` (its ValueError propagates) and mapped to the
    object already held for that id's canonical text, if any."""

    def __missing__(self, text: str) -> NodeId:
        value = int(text)
        nid = self[text] = self.setdefault(str(value), value)
        return nid


def ingest(records: Iterable[str]) -> KnowledgeGraph:
    """Build a KnowledgeGraph from record lines in one pass: each T line
    becomes its Triple as it is read, every relation label and community id
    is kept as one shared string, and every node id as one shared int. T
    lines are checked after all entities are known, so they may reference
    entities declared later in the stream; a repeated triple is kept once,
    at its first line."""
    entities: dict[NodeId, Entity] = {}
    communities: dict[str, Community] = {}
    name_index: dict[str, NodeId] = {}  # canonical name -> id
    names_seen: dict[str, int] = {}  # canonical name -> its E line
    shared: dict[str, str] = {}  # one object per relation label and community id
    ids = _IdTable()  # one object per node id, for T and E lines alike
    # insertion-ordered dict: dedup keeps each triple's first line
    triples: dict[Triple, int] = {}
    bad_edge: tuple[int, str, str, str] | None = None  # first T line with a bad field
    next_auto = 0

    for lineno, raw in enumerate(records, start=1):
        line = raw.rstrip("\n")
        fields = line.split("\t")
        kind = fields[0]
        if kind == "T" and len(fields) == 4:
            _, s_text, relation, o_text = fields
            try:  # the common case: a relation and two integer ids
                s, o = ids[s_text], ids[o_text]
                ok = relation
            except ValueError:
                ok = False
            if ok:
                # tuple.__new__ skips the NamedTuple constructor's argument handling
                triple = tuple.__new__(Triple, (s, shared.setdefault(relation, relation), o))
                triples.setdefault(triple, lineno)
            elif bad_edge is None:
                bad_edge = (lineno, s_text, relation, o_text)
            continue
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        if kind == "C":
            if len(fields) != 4:
                raise KgFormatError(f"line {lineno}: C record needs 4 fields, got {len(fields)}")
            _, cid, label, summary = fields
            if cid in communities:
                raise KgFormatError(f"line {lineno}: duplicate community id {cid!r}")
            cid = shared.setdefault(cid, cid)
            communities[cid] = Community(cid, label, summary)
        elif kind == "E":
            if len(fields) not in (5, 6):
                raise KgFormatError(f"line {lineno}: E record needs 5 or 6 fields, got {len(fields)}")
            id_text, name, cid = fields[1], fields[2], fields[3]
            description = fields[4]
            aliases = tuple(a for a in (fields[5].split("|") if len(fields) == 6 else []) if a)
            if not name.strip():
                raise KgFormatError(f"line {lineno}: entity name is empty")
            if id_text.strip() == "":
                while next_auto in entities:
                    next_auto += 1
                nid = next_auto
                next_auto += 1
            else:
                nid = _parse_node_id(id_text, lineno)
            nid = ids.setdefault(str(nid), nid)
            if nid in entities:
                raise KgFormatError(f"line {lineno}: duplicate node id {nid}")
            key = canonical_name(name)
            if key in names_seen:
                raise KgFormatError(
                    f"line {lineno}: duplicate canonical name {key!r} "
                    f"(first defined on line {names_seen[key]})")
            names_seen[key] = lineno
            name_index[key] = nid
            entities[nid] = Entity(nid, name, shared.setdefault(cid, cid), description, aliases)
        elif kind == "T":
            raise KgFormatError(f"line {lineno}: T record needs 4 fields, got {len(fields)}")
        else:
            raise KgFormatError(f"line {lineno}: unknown record kind {kind!r}")

    for ent in entities.values():
        if ent.community not in communities:
            raise KgFormatError(
                f"entity {ent.node_id} ({ent.name!r}) references unknown community "
                f"{ent.community!r}")

    # the first line of a triple that reaches outside the graph; a repeat
    # fails as its first line did, so the dict's order is line order
    unknown = next(((lineno, str(t.subject), t.relation, str(t.object))
                    for t, lineno in triples.items()
                    if t.subject not in entities or t.object not in entities), None)
    failures = [f for f in (bad_edge, unknown) if f is not None]
    if failures:
        _edge_error(entities, *min(failures))

    return KnowledgeGraph(entities, communities, list(triples), name_index)


def _edge_error(entities: dict, lineno: int, s_text: str, relation: str,
                o_text: str) -> NoReturn:
    """Raise the KgFormatError of the first check this T record fails."""
    if not relation:
        raise KgFormatError(f"line {lineno}: empty relation label")
    s = _parse_node_id(s_text, lineno)
    o = _parse_node_id(o_text, lineno)
    for nid in (s, o):
        if nid not in entities:
            raise KgFormatError(
                f"line {lineno}: edge ({s}, {relation!r}, {o}) references unknown node {nid}")


def _lines(text: str) -> Iterator[str]:
    """``text.splitlines()``, one chunk of about LINE_CHUNK characters at a
    time; each chunk ends just after a newline, so no line break is split."""
    return chain.from_iterable(map(str.splitlines, _chunks(text)))


def _chunks(text: str) -> Iterator[str]:
    start = 0
    while start < len(text):
        end = text.find("\n", start + LINE_CHUNK) + 1 or len(text)
        yield text[start:end]
        start = end


def load(path: str | Path) -> KnowledgeGraph:
    """The graph of a UTF-8 file; a leading byte-order mark is skipped. The
    raw bytes are dropped once decoded, and ingest reads the text chunk by
    chunk, so no list of all its lines is ever built."""
    data = Path(path).read_bytes()
    bom = len(codecs.BOM_UTF8) if data.startswith(codecs.BOM_UTF8) else 0
    try:
        text = data[bom:].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise KgFormatError(f"{path}: not valid UTF-8 at byte {bom + exc.start}") from None
    del data
    return ingest(_lines(text))
