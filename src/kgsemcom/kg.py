"""Knowledge graph store: entities with descriptions, communities, relation triples.

File format (UTF-8, one record per line, tab-separated, '#' comments ignored;
a leading byte-order mark is skipped):

    C<TAB>community_id<TAB>label<TAB>summary
    E<TAB>node_id<TAB>name<TAB>community_id<TAB>description<TAB>alias1|alias2|...
    T<TAB>subject_id<TAB>relation<TAB>object_id

Description and aliases may be empty. An empty node_id field requests dense
auto-assignment (first free id starting at 0, in file order). dump() inverts
load(). Graphs are immutable after ingestion; all queries are read-only.

load() drops the file's bytes once they are decoded and feeds ingest() the
lines chunk by chunk, never as one list. ingest() reads C and E lines one at a
time and each run of T lines in pieces of LINE_CHUNK // 32 lines (at most
LINE_CHUNK characters while lines stay under 32): one split of a piece's
lines joined by tabs gives all its fields, and two numpy columns take its ids
and its relation codes, indices into one list of the distinct labels. Once
every entity is known the ids become ranks, an entity's rank being its id's
position among the sorted ids; a repeated triple is dropped at all but its
first line, and a CSR (compressed sparse row) index lists the triples at each
rank, once by subject and once by object. No Triple is built at load: a
query builds those at the nodes it reads, once per node and side, and
kg.triples builds them all on first use. Every triple end is the very key of
its entity, and the graph keeps one string object per distinct relation label
and community id.
"""

import codecs
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, groupby, islice, repeat
from operator import methodcaller
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

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


class TripleColumns(NamedTuple):
    """A graph's triples as int32 columns over its entities' ranks, an
    entity's rank being its id's position among the sorted ids: row i is the
    triple (keys[subject[i]], labels[relation[i]], keys[object[i]])."""
    keys: list[NodeId]  # rank -> the entity's key
    ids: np.ndarray  # rank -> the entity's id, int64
    subject: np.ndarray
    relation: np.ndarray
    object: np.ndarray
    labels: list[str]

    @classmethod
    def of(cls, entities: dict[NodeId, "Entity"], triples: Sequence[Triple]) -> "TripleColumns":
        """The columns of a list of triples; an end no entity holds raises KeyError."""
        keys, ids = _rank_table(entities)
        subject, relation, obj = zip(*triples) if triples else ((), (), ())
        labels = list(dict.fromkeys(relation))
        rank, code = dict(zip(keys, range(len(keys)))), dict(zip(labels, range(len(labels))))

        def column(table: dict, values: tuple) -> np.ndarray:
            return np.fromiter(map(table.__getitem__, values), np.int32, len(values))

        return cls(keys, ids, column(rank, subject), column(code, relation), column(rank, obj),
                   labels)


def _rank_table(entities: dict) -> tuple[list[NodeId], np.ndarray]:
    keys = sorted(entities)
    return keys, np.fromiter(keys, np.int64, len(keys))


class KnowledgeGraph:
    """Immutable store of entities, communities, and directed labeled triples.

    ``ids`` is the rank table, the entity ids in ascending order (int64).
    ``subject_ranks``, ``relation_codes`` and ``object_ranks`` are the
    triples' int32 columns in the order of ``triples``; a code indexes
    ``relation_labels``."""

    def __init__(self, entities: dict[NodeId, Entity], communities: dict[str, Community],
                 triples: Sequence[Triple] | TripleColumns,
                 name_index: dict[str, NodeId] | None = None):
        """``triples`` is a list of Triples or their ``TripleColumns``;
        ``name_index`` maps each entity's canonical name to its id; it is
        computed from ``entities`` when not given."""
        self.entities = entities
        self.communities = communities
        if not isinstance(triples, TripleColumns):
            self.triples = triples
            triples = TripleColumns.of(entities, triples)
        self._keys, self.ids, subject, relation, obj, self.relation_labels = triples
        self.subject_ranks, self.relation_codes, self.object_ranks = subject, relation, obj
        # canonical name or alias -> id: every name first, then each alias that
        # no name or earlier entity holds, so an alias never shadows a name
        self.lookup: dict[str, NodeId] = dict(
            name_index if name_index is not None
            else ((canonical_name(ent.name), ent.node_id) for ent in entities.values()))
        for ent in entities.values():
            for alias in ent.aliases:
                self.lookup.setdefault(canonical_name(alias), ent.node_id)
        # longest lookup key in words, so recognition bounds its span search
        self.max_name_words = max(map(len, map(str.split, self.lookup)), default=1)
        # the triples at each node, as subject and as object
        self._out = _Incidence(entities, triples, triples.subject)
        self._in = _Incidence(entities, triples, triples.object)

    @cached_property
    def triples(self) -> list[Triple]:
        """Every triple, each once, in the order of its first line; built on
        first use, each end the very key of its entity."""
        keys, labels = self._keys, self.relation_labels
        return list(map(tuple.__new__, repeat(Triple), zip(
            map(keys.__getitem__, self.subject_ranks.tolist()),
            map(labels.__getitem__, self.relation_codes.tolist()),
            map(keys.__getitem__, self.object_ranks.tolist()))))

    # -- queries ------------------------------------------------------------

    def entity_by_id(self, node_id: NodeId) -> Entity | None:
        return self.entities.get(node_id)

    def id_of(self, name: str) -> NodeId | None:
        return self.lookup.get(canonical_name(name))

    def neighbors(self, node_id: NodeId) -> set[tuple[str, NodeId]]:
        """Edges touching node_id in either direction, as (relation, other) pairs."""
        if node_id not in self.entities:
            raise KeyError(f"unknown node id {node_id}")
        return ({(t.relation, t.object) for t in self._out[node_id]}
                | {(t.relation, t.subject) for t in self._in[node_id]})

    def induced_edges(self, nodes: frozenset[NodeId]) -> tuple[Triple, ...]:
        """Triples with both ends in nodes, sorted by (subject, relation, object).
        Reads only the triples whose subject is in nodes; unknown ids touch none."""
        edges = [t for n in nodes for t in self._out[n] if t.object in nodes]
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


class _Incidence(dict):
    """Node id -> the Triples whose end in ``ends`` (their subject or object
    ranks) is that node, built when a query first asks from a CSR (compressed
    sparse row) index of the graph's rank columns, so no query scans the
    whole graph. An id no entity holds has none."""

    def __init__(self, entities: dict[NodeId, Entity], columns: TripleColumns,
                 ends: np.ndarray):
        super().__init__()
        self.entities, self.keys, self.labels = entities, columns.keys, columns.labels
        # rows indptr[r] to indptr[r + 1] are the triples whose end has rank r,
        # in no particular order: no query depends on it
        order = ends.argsort()
        self.indptr = ends[order].searchsorted(np.arange(len(self.keys) + 1))
        self.rows = np.array((columns.subject, columns.relation, columns.object)).T[order]

    def __missing__(self, node_id: NodeId) -> list[Triple]:
        if node_id not in self.entities:
            return []
        keys, labels, indptr = self.keys, self.labels, self.indptr
        rank = bisect_left(keys, node_id)
        found = self[node_id] = [
            tuple.__new__(Triple, (keys[s], labels[r], keys[o]))
            for s, r, o in self.rows[indptr[rank]:indptr[rank + 1]].tolist()]
        return found


def _parse_node_id(text: str, lineno: int) -> NodeId:
    try:
        value = int(text)
    except ValueError:
        raise KgFormatError(f"line {lineno}: node id {text!r} is not an integer") from None
    if not 0 <= value <= MAX_NODE_ID:
        raise KgFormatError(f"line {lineno}: node id {value} outside unsigned 32-bit range")
    return value


def _check_edge(lineno: int, s_text: str, relation: str, o_text: str,
                entities: dict | None = None) -> None:
    """Raise the KgFormatError of the first check this T record's fields
    fail; the check that both ends are entities runs when ``entities`` is
    given."""
    if not relation:
        raise KgFormatError(f"line {lineno}: empty relation label")
    s = _parse_node_id(s_text, lineno)
    o = _parse_node_id(o_text, lineno)
    for nid in (s, o) if entities is not None else ():
        if nid not in entities:
            raise KgFormatError(
                f"line {lineno}: edge ({s}, {relation!r}, {o}) references unknown node {nid}")


class _IdTable(dict):
    """Id text -> node id; a text seen for the first time is parsed with
    ``int()``, and one that is not an id in the unsigned 32-bit range raises
    ValueError."""

    def __missing__(self, text: str) -> NodeId:
        value = int(text)
        if not 0 <= value <= MAX_NODE_ID:
            raise ValueError(f"node id {value} out of range")
        self[text] = value
        return value


class _LabelTable(dict):
    """Relation label -> its code, the order of first appearance; an empty
    label raises ValueError."""

    def __missing__(self, label: str) -> int:
        if not label:
            raise ValueError("empty relation label")
        code = self[label] = len(self)
        return code


_starts_edge = methodcaller("startswith", "T\t")


class _EdgeReader:
    """The T records of one ingest, read a piece of lines at a time. A piece
    whose lines all have four fields, two ids and a relation is converted at
    once: its subject and object ids, in turn, into one column and its
    relation codes into another. Any other piece is read line by line with
    the checks of ``_check_edge``: a field count other than four raises at
    once, the first other failure is kept, and the lines after it only have
    their fields counted, since ingest will fail anyway."""

    def __init__(self):
        self.ids = _IdTable()
        self.labels = _LabelTable()
        self.lines: list[tuple[int, int]] = []  # (first line, line count) per piece read
        # per piece read: the ids of each line's subject and object, in turn
        self.ends: list[np.ndarray] = [np.zeros(0, np.int64)]
        self.relation: list[np.ndarray] = [np.zeros(0, np.int32)]  # and its relation codes
        self.bad: tuple[int, str, str, str] | None = None  # the first failing T record

    def read(self, piece: list[str], first: int) -> None:
        """Read the T lines ``piece``, the first of which is line ``first``."""
        if self.bad is None:
            try:
                self._convert(piece, first)
                return
            except ValueError:
                pass
        valid = piece if self.bad is None else []
        for lineno, raw in enumerate(piece, start=first):
            fields = raw.rstrip("\n").split("\t")
            if len(fields) != 4:
                raise KgFormatError(f"line {lineno}: T record needs 4 fields, got {len(fields)}")
            if self.bad is None:
                try:
                    _check_edge(lineno, *fields[1:])
                except KgFormatError:
                    self.bad = (lineno, *fields[1:])
                    valid = piece[:lineno - first]
        if valid:
            self._convert(valid, first)

    def _convert(self, piece: list[str], first: int) -> None:
        n = len(piece)
        text = "\t\n".join(piece)
        fields = text.split("\t")
        # with no line break inside a line, the fields "\nT" are exactly where
        # lines 2 to n start, so every line has four fields if they fall on
        # every fourth field; otherwise each line's tabs are counted
        if len(fields) != 4 * n or not (
                fields[4::4].count("\nT") == n - 1 if text.count("\n") == n - 1
                else set(map(str.count, piece, repeat("\t"))) == {3}):
            raise ValueError("a T record without four fields")
        ends = np.fromiter(map(self.ids.__getitem__, fields[1::2]), np.int64, 2 * n)
        self.relation.append(np.fromiter(map(self.labels.__getitem__, fields[2::4]), np.int32, n))
        self.ends.append(ends)
        self.lines.append((first, n))

    def columns(self, entities: dict[NodeId, Entity]) -> TripleColumns:
        """The columns of the records read, each triple at its first line;
        raises the KgFormatError of the first record that fails a check."""
        keys, ids = _rank_table(entities)
        ends, relation = np.concatenate(self.ends), np.concatenate(self.relation)
        ranks = ids.searchsorted(ends)
        # rank len(ids), past every id, holds none
        known = np.concatenate((ids, (-1,)))[ranks] == ends
        if not known.all():  # an unknown end comes before any other failure
            row = line = int(np.argmin(known)) // 2
            for first, count in self.lines:
                if line < count:
                    break
                line -= count
            _check_edge(first + line, str(ends[2 * row]), list(self.labels)[relation[row]],
                        str(ends[2 * row + 1]), entities)
        if self.bad is not None:
            _check_edge(*self.bad)
        # a repeated triple is kept at its first line: one int64 key a row,
        # or the rows themselves where ranks and codes are too wide for it
        ranks = ranks.reshape(-1, 2)
        n, r = len(keys), len(self.labels)
        if n * n * r < 2**63:
            _, first = np.unique((ranks[:, 0] * r + relation) * n + ranks[:, 1], return_index=True)
        else:
            _, first = np.unique(np.column_stack((ranks, relation)), return_index=True, axis=0)
        if len(first) < len(ranks):
            first.sort()
            ranks, relation = ranks[first], relation[first]
        ranks = ranks.astype(np.int32)
        return TripleColumns(keys, ids, ranks[:, 0], relation, ranks[:, 1], list(self.labels))


def ingest(records: Iterable[str]) -> KnowledgeGraph:
    """Build a KnowledgeGraph from record lines in one pass. C and E lines
    are read one at a time; runs of T lines are read in pieces (see
    ``_EdgeReader``). T lines are checked after all entities are known, so
    they may reference entities declared later in the stream; a repeated
    triple is kept once, at its first line."""
    entities: dict[NodeId, Entity] = {}
    communities: dict[str, Community] = {}
    name_index: dict[str, NodeId] = {}  # canonical name -> id
    names_seen: dict[str, int] = {}  # canonical name -> its E line
    shared: dict[str, str] = {}  # one object per community id
    edges = _EdgeReader()
    next_auto = 0

    lineno = 0
    for edge_run, lines in groupby(records, _starts_edge):
        if edge_run:
            while piece := list(islice(lines, max(1, LINE_CHUNK // 32))):
                edges.read(piece, lineno + 1)
                lineno += len(piece)
            continue
        for lineno, raw in enumerate(lines, start=lineno + 1):
            line = raw.rstrip("\n")
            fields = line.split("\t")
            kind = fields[0]
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
                    raise KgFormatError(
                        f"line {lineno}: E record needs 5 or 6 fields, got {len(fields)}")
                id_text, name, cid = fields[1], fields[2], fields[3]
                description = fields[4]
                aliases = tuple(filter(None, fields[5].split("|"))) if len(fields) == 6 else ()
                if not name.strip():
                    raise KgFormatError(f"line {lineno}: entity name is empty")
                if id_text.strip() == "":
                    while next_auto in entities:
                        next_auto += 1
                    nid = next_auto
                    next_auto += 1
                else:
                    # T lines that name this id by the same text find it parsed
                    nid = edges.ids[id_text] = _parse_node_id(id_text, lineno)
                if nid in entities:
                    raise KgFormatError(f"line {lineno}: duplicate node id {nid}")
                key = canonical_name(name)
                if key in names_seen:
                    raise KgFormatError(
                        f"line {lineno}: duplicate canonical name {key!r} "
                        f"(first defined on line {names_seen[key]})")
                names_seen[key] = lineno
                name_index[key] = nid
                # tuple.__new__ skips the NamedTuple constructor's argument handling
                entities[nid] = tuple.__new__(
                    Entity, (nid, name, shared.setdefault(cid, cid), description, aliases))
            elif not line.strip() or line.lstrip().startswith("#"):
                continue
            elif kind == "T":
                raise KgFormatError(f"line {lineno}: T record needs 4 fields, got {len(fields)}")
            else:
                raise KgFormatError(f"line {lineno}: unknown record kind {kind!r}")

    for ent in entities.values():
        if ent.community not in communities:
            raise KgFormatError(
                f"entity {ent.node_id} ({ent.name!r}) references unknown community "
                f"{ent.community!r}")

    return KnowledgeGraph(entities, communities, edges.columns(entities), name_index)


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
