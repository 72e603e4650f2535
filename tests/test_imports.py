"""Every name a package module imports is used in that module, and every
module-level function or class is referred to somewhere in the package.

Deletions tend to leave imports and dead definitions behind; this keeps them
from piling up. ``__init__.py`` is exempt from both checks, since its imports
are the package's re-exports, and a re-export is not a reference: a public
helper that no package module calls is flagged unless it is allowlisted.
``__future__`` imports are exempt from the first check.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parent.parent / "src" / "agentpad"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detects_an_unused_import():
    source = "from __future__ import annotations\nimport os\nfrom sys import argv, path\nprint(path)\n"
    assert unused_imports(source) == ["line 2: os", "line 3: argv"]
    assert MODULES


def referenced_names(tree: ast.AST) -> Counter:
    """Names, attributes and ``from`` imports in ``tree``, with their counts."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def unreferenced_definitions(sources: dict[str, str]) -> list[str]:
    """Module-level functions and classes that nothing in ``sources`` but
    ``__init__.py`` refers to outside their own definition; ``sources`` maps
    file names to source text."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    referenced = sum(
        (referenced_names(tree) for name, tree in trees.items() if name != "__init__.py"),
        Counter(),
    )
    return [
        f"{name}: {node.name}"
        for name, tree in trees.items()
        if name != "__init__.py"
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and referenced[node.name] == referenced_names(node)[node.name]
    ]


# Public names that no package module calls. key_for_ciphertext is the
# constructive witness of the paper's "a key for every same-length plaintext",
# which acceptance criterion 3 runs, so the package keeps exporting it.
EXPORTED_ONLY = ["cipher.py: key_for_ciphertext"]


def test_no_unreferenced_definitions():
    sources = {path.name: path.read_text() for path in PACKAGE.glob("*.py")}
    assert unreferenced_definitions(sources) == EXPORTED_ONLY


def test_detects_an_unreferenced_definition():
    sources = {
        "__init__.py": "from .a import exported\ndef package_only(): pass\n",
        "a.py": (
            "def exported(): pass\n"
            "def imported(): pass\n"
            "def by_attribute(): pass\n"
            "def recursive(): recursive()\n"
            "class Dead: pass\n"
        ),
        "b.py": "import a\nfrom .a import imported\na.by_attribute()\n",
    }
    assert unreferenced_definitions(sources) == ["a.py: exported", "a.py: recursive", "a.py: Dead"]
