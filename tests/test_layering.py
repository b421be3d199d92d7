"""The package's layering, read from the source with ``ast``: each module's
imports inside ``kgsemcom``, deferred ones in function bodies included."""

import ast
from pathlib import Path

import pytest

import kgsemcom

PACKAGE = Path(kgsemcom.__file__).resolve().parent


def _module_name(path: Path) -> str:
    parts = ("kgsemcom",) + path.relative_to(PACKAGE).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _is_module(name: str) -> bool:
    rel = Path(*name.split(".")[1:])
    return (PACKAGE / rel).with_suffix(".py").is_file() or (PACKAGE / rel / "__init__.py").is_file()


def _package_imports(path: Path) -> set[str]:
    """The kgsemcom modules that the file at ``path`` imports."""
    name = _module_name(path)
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.rsplit(".", node.level - 1)[0]
                base = f"{anchor}.{base}" if base else anchor
            # `from . import kg` names a module; `from .kg import Triple` names an attribute
            found.update(f"{base}.{a.name}" if _is_module(f"{base}.{a.name}") else base
                         for a in node.names)
    return {m for m in found if m == "kgsemcom" or m.startswith("kgsemcom.")} - {name}


IMPORTS = {_module_name(p): _package_imports(p) for p in sorted(PACKAGE.rglob("*.py"))}


def _closure(name: str) -> set[str]:
    seen, todo = set(), [name]
    while todo:
        for dep in IMPORTS[todo.pop()] - seen:
            seen.add(dep)
            todo.append(dep)
    return seen


def test_the_import_reader_sees_the_known_edges():
    assert "kgsemcom.kg" in IMPORTS["kgsemcom.harness"]  # `from . import kg as kgmod`
    assert "kgsemcom.phy" in IMPORTS["kgsemcom.harness"]
    assert "kgsemcom.phy.bits" in IMPORTS["kgsemcom.phy.frame"]
    assert "kgsemcom.remote" in IMPORTS["kgsemcom.generation"]  # deferred, in a function


@pytest.mark.parametrize("module", sorted(m for m in IMPORTS if m.startswith("kgsemcom.phy")))
def test_phy_imports_only_phy(module):
    assert {m for m in IMPORTS[module] if not m.startswith("kgsemcom.phy")} == set()


@pytest.mark.parametrize("module, allowed", [
    ("kgsemcom.kg", set()),
    ("kgsemcom.semgraph", {"kgsemcom.kg"}),
    ("kgsemcom.importance", {"kgsemcom.kg", "kgsemcom.semgraph"}),
])
def test_lower_layers_import_only_what_they_build_on(module, allowed):
    assert IMPORTS[module] <= allowed


@pytest.mark.parametrize("module", ["kgsemcom.semgraph", "kgsemcom.importance",
                                    "kgsemcom.generation"])
def test_graph_and_text_layers_do_not_load_extraction(module):
    assert _closure(module) & {"kgsemcom.extraction", "kgsemcom.embedding"} == set()
