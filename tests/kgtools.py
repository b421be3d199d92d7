"""Small hand-written graphs for module tests. A plain module rather than
conftest.py, so the import works whichever conftest pytest loaded last."""

from kgsemcom import KnowledgeGraph, ingest


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
