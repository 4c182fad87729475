"""No program code that only tests run.

Every top-level function and class in ``src/cstj_sim`` must be referenced by
name somewhere in the package or in the benchmark harness (``bench/*.py``),
outside its own definition, or else be exported in ``cstj_sim.__all__``.
References are ``Name`` and ``Attribute`` nodes of the parsed sources; the
tests and the harness's own tests do not count.
"""

import ast
from collections import Counter
from pathlib import Path

import cstj_sim

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cstj_sim"
HARNESS = ROOT / "bench"


def _names(node) -> Counter:
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
    return names


def unreferenced_definitions(package: Path = PACKAGE, harness: Path = HARNESS) -> list[str]:
    """``module.name`` of each top-level definition nothing references."""
    modules = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))}
    references = Counter()
    for tree in [*modules.values(), *(ast.parse(p.read_text(encoding="utf-8")) for p in harness.glob("*.py"))]:
        references.update(_names(tree))
    unused = []
    for module, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            outside = references[node.name] - _names(node)[node.name]
            if outside == 0 and node.name not in cstj_sim.__all__:
                unused.append(f"{module}.{node.name}")
    return unused


def test_every_definition_is_used_or_exported():
    assert unreferenced_definitions() == []


def test_guard_sees_an_unused_definition(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "a.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else used()\n\n\n"
        "class Orphan:\n    pass\n",
        encoding="utf-8",
    )
    assert unreferenced_definitions(package, tmp_path / "no_harness") == ["a.recursive", "a.Orphan"]
