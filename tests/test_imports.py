"""Every package module parses under the oldest Python that pyproject.toml
declares, every name a package module imports is used in that module, every
module-level function, class or constant is referred to somewhere in the
package, every parameter of a package function is read in its body, only
``codec.py`` defines wire layouts (``encode_*`` and ``decode_*`` functions,
``MESSAGE_CODECS`` and ``*_OCTETS`` sizes), only ``__main__.py`` starts
the program, and no package module assigns to a field of a ``Register`` or
an ``AgentDataArea``, which are not frozen.

Deletions tend to leave imports, dead definitions and parameters behind; this
keeps them from piling up. ``__init__.py`` is exempt from these checks, and it
must hold no import at all, so that each name has one import path: its own
module. The tests keep to that path too: each ``from agentpad.<module> import
name`` names the module that defines ``name``. ``__future__`` imports are
exempt from the first check.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

TESTS = Path(__file__).parent
PACKAGE = TESTS.parent / "src" / "agentpad"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def minimum_python(pyproject: str) -> tuple[int, int]:
    """The (major, minor) of ``requires-python = ">=X.Y"`` in ``pyproject``,
    read with a regex because tomllib needs Python 3.11."""
    found = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)', pyproject, re.MULTILINE)
    return int(found[1]), int(found[2])


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_parses_under_minimum_python(path):
    version = minimum_python((TESTS.parent / "pyproject.toml").read_text())
    ast.parse(path.read_text(), feature_version=version)


def test_minimum_python_parse_refuses_newer_syntax():
    assert minimum_python('name = "x"\nrequires-python = ">=3.10"\n') == (3, 10)
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(source, feature_version=(3, 11))
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=(3, 10))


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


def import_statements(source: str) -> list[str]:
    return [
        f"line {node.lineno}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]


def test_package_root_imports_nothing():
    # a re-export would give a name a second import path besides its module
    assert import_statements((PACKAGE / "__init__.py").read_text()) == []
    assert import_statements("import os\nif os:\n    from sys import argv\n") == ["line 1", "line 3"]


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


def defined_names(node: ast.stmt) -> list[str]:
    """The names a module-level statement defines: a function, a class, or
    the plain names an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def unreferenced_definitions(sources: dict[str, str]) -> list[str]:
    """Module-level functions, classes and constants that nothing in
    ``sources`` but ``__init__.py`` refers to outside their own statement;
    ``sources`` maps file names to source text."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    referenced = sum(
        (referenced_names(tree) for name, tree in trees.items() if name != "__init__.py"),
        Counter(),
    )
    return [
        f"{name}: {defined}"
        for name, tree in trees.items()
        if name != "__init__.py"
        for node in tree.body
        for defined in defined_names(node)
        if referenced[defined] == referenced_names(node)[defined]
    ]


# Public names that no package module calls. key_for_ciphertext is the
# constructive witness of the paper's "a key for every same-length plaintext":
# the tests call it when acceptance criterion 3 runs, so cipher.py keeps it.
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
            "READ = 1\n"
            "DEAD_CONSTANT = READ + 1\n"
            "ANNOTATED: int = 3\n"
            "USED, UNUSED = 1, 2\n"
            "print(USED)\n"
        ),
        "b.py": "import a\nfrom .a import imported\na.by_attribute()\nprint(a.ANNOTATED)\n",
    }
    assert unreferenced_definitions(sources) == [
        "a.py: exported",
        "a.py: recursive",
        "a.py: Dead",
        "a.py: DEAD_CONSTANT",
        "a.py: UNUSED",
    ]


WIRE_LAYOUT = re.compile(r"(encode|decode)_\w+|MESSAGE_CODECS|\w+_OCTETS")


def wire_layouts_outside_codec(sources: dict[str, str]) -> list[str]:
    """Module-level names in ``sources`` outside ``codec.py`` that define a
    wire layout: an ``encode_*`` or ``decode_*`` function, ``MESSAGE_CODECS``
    or a ``*_OCTETS`` size; ``sources`` maps file names to source text."""
    return [
        f"{name}: {defined}"
        for name, source in sources.items()
        if name != "codec.py"
        for node in ast.parse(source).body
        for defined in defined_names(node)
        if WIRE_LAYOUT.fullmatch(defined)
    ]


def test_wire_layouts_live_in_codec():
    # one module owns every octet on the wire
    sources = {path.name: path.read_text() for path in MODULES}
    assert wire_layouts_outside_codec(sources) == []


def test_detects_a_wire_layout_outside_codec():
    sources = {
        "codec.py": "def encode_x(v, p): pass\nMESSAGE_CODECS = {}\nID_OCTETS = 8\n",
        "roles.py": (
            "from .codec import ID_OCTETS, encode_x\n"
            "def encode_y(v, p): pass\n"
            "def _decode_z(raw): pass\n"
            "def decoder(raw): pass\n"
            "def decode_y(raw, p):\n"
            "    def encode_inner(): pass\n"
            "MESSAGE_CODECS: dict = {}\n"
            "KEY_OCTETS, padded_octets = 4, 5\n"
        ),
    }
    assert wire_layouts_outside_codec(sources) == [
        "roles.py: encode_y",
        "roles.py: decode_y",
        "roles.py: MESSAGE_CODECS",
        "roles.py: KEY_OCTETS",
    ]


def misrouted_imports(sources: dict[str, str], package: dict[str, str]) -> list[str]:
    """Each ``from agentpad.<module> import name`` in ``sources`` whose module
    does not itself define ``name``; both dicts map file names to source text,
    and ``package`` holds the package's modules."""
    defined = {
        Path(name).stem: {d for node in ast.parse(source).body for d in defined_names(node)}
        for name, source in package.items()
    }
    return [
        f"{name} line {node.lineno}: {alias.name} from {node.module}"
        for name, source in sources.items()
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("agentpad.")
        for alias in node.names
        if alias.name not in defined.get(node.module.removeprefix("agentpad."), ())
    ]


def test_tests_import_each_name_from_its_module():
    sources = {path.name: path.read_text() for path in TESTS.glob("*.py")}
    package = {path.name: path.read_text() for path in MODULES}
    assert misrouted_imports(sources, package) == []


def test_detects_a_misrouted_import():
    package = {
        "a.py": "from .b import Moved\ndef f(): pass\nclass C: pass\nK = 1\n",
        "b.py": "class Moved: pass\n",
    }
    sources = {
        "test_x.py": (
            "from agentpad.a import f, C, K\n"
            "from agentpad.a import Moved\n"
            "from agentpad.gone import f\n"
            "from agentpad import a\n"
            "from oracles import f\n"
            "def test():\n"
            "    from agentpad.b import Moved, f\n"
        ),
    }
    assert misrouted_imports(sources, package) == [
        "test_x.py line 2: Moved from agentpad.a",
        "test_x.py line 3: f from agentpad.gone",
        "test_x.py line 7: f from agentpad.b",
    ]


def unread_parameters(source: str) -> list[str]:
    """Each function or lambda in ``source`` whose body never reads some of its
    parameters, as ``name(parameter, ...)`` in line order. The codecs of a
    ``MESSAGE_CODECS`` table may leave ``params`` unread: the table gives every
    codec the same ``(value, params)`` signature."""
    tree = ast.parse(source)
    codecs = {
        n.id
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        and "MESSAGE_CODECS" in defined_names(node)
        for n in ast.walk(node.value)
        if isinstance(n, ast.Name)
    }
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [
            arg.arg for arg in (*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg) if arg
        ]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {
            n.id
            for stmt in body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        name = getattr(node, "name", "<lambda>")
        unread = [p for p in params if p not in read and not (name in codecs and p == "params")]
        if unread:
            found.append((node.lineno, f"{name}({', '.join(unread)})"))
    return [entry for _, entry in sorted(found)]


# server_reconcile keeps its unread server and agent parameters while the
# bench's reconcile hook reads its arguments by position (args[2] and args[3]);
# ROADMAP item 1 moves that hook to read them by name, and then they go.
UNREAD_ALLOWED = ["protocol.py: server_reconcile(server, agent)"]


def test_every_parameter_is_read():
    found = [
        f"{path.name}: {entry}" for path in MODULES for entry in unread_parameters(path.read_text())
    ]
    assert found == UNREAD_ALLOWED


def test_detects_an_unread_parameter():
    source = (
        "def spread(a, b, /, c, *args, d, **kw):\n"
        "    return a + c + d\n"
        "def outer(x):\n"
        "    def inner(z):\n"
        "        return x\n"
        "    return inner\n"
        "def encode(value, params):\n"
        "    return value\n"
        "def helper(value, params):\n"
        "    return value\n"
        "MESSAGE_CODECS = {'kind': (encode, encode)}\n"
        "pick = lambda u, v: u\n"
    )
    assert unread_parameters(source) == [
        "spread(b, args, kw)",
        "inner(z)",
        "helper(params)",
        "<lambda>(v)",
    ]


def main_guards(source: str) -> list[str]:
    """Each module-level ``if __name__ == "__main__":`` block in ``source``."""
    return [
        f"line {node.lineno}"
        for node in ast.parse(source).body
        if isinstance(node, ast.If)
        and isinstance(node.test, ast.Compare)
        and isinstance(node.test.left, ast.Name)
        and node.test.left.id == "__name__"
        and any(isinstance(c, ast.Constant) and c.value == "__main__" for c in node.test.comparators)
    ]


def test_only_main_module_starts_the_program():
    # one way to start the CLI: ``python -m agentpad`` or the agentpad script
    found = [
        f"{path.name}: {entry}"
        for path in PACKAGE.glob("*.py")
        if path.name != "__main__.py"
        for entry in main_guards(path.read_text())
    ]
    assert found == []
    assert len(main_guards((PACKAGE / "__main__.py").read_text())) == 1


def test_detects_a_main_guard():
    source = (
        "import sys\n"
        "if __name__ == '__main__':\n"
        "    sys.exit(0)\n"
        "def f():\n"
        "    if __name__ == '__main__':\n"
        "        pass\n"
        "if __name__ == 'other':\n"
        "    pass\n"
        'if __name__ == "__main__":\n'
        "    pass\n"
    )
    assert main_guards(source) == ["line 2", "line 9"]



# The fields of cipher.Register and codec.AgentDataArea. Both are slotted but
# not frozen, because a frozen dataclass costs several times as much to
# build, so this lint is what keeps them unchanged once built.
FROZEN_FIELDS = {"mode", "length", "data_field", "masked_cw", "masked_mfd", "agent", "registers"}
SETTERS = {"setattr", "delattr", "__setattr__", "__delattr__"}


def field_assignments(source: str) -> list[str]:
    """Each place in ``source`` that assigns, augments or deletes an attribute
    named in ``FROZEN_FIELDS``, or passes such a name as a string to
    ``setattr``, ``delattr``, or any ``__setattr__`` or ``__delattr__``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del)):
            if node.attr in FROZEN_FIELDS:
                found.append((node.lineno, f".{node.attr}"))
        elif isinstance(node, ast.Call):
            func = node.func
            setter = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if setter in SETTERS:
                found += [
                    (node.lineno, f"{setter}({arg.value!r})")
                    for arg in node.args
                    if isinstance(arg, ast.Constant) and arg.value in FROZEN_FIELDS
                ]
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_registers_and_areas_are_never_assigned():
    # Channel.endpoints and OneTimeKey.consumed are not among these fields
    found = [
        f"{path.name} {entry}" for path in MODULES for entry in field_assignments(path.read_text())
    ]
    assert found == []


def test_detects_an_assigned_register_or_area_field():
    source = (
        "reg.length = 3\n"
        "reg.masked_cw ^= 1\n"
        "del area.registers\n"
        "area.agent, n = b'', 0\n"
        "for reg.mode in modes: pass\n"
        "setattr(reg, 'data_field', b'')\n"
        "object.__setattr__(reg, 'masked_mfd', 0)\n"
        "reg.__delattr__('length')\n"
        "key.consumed = True\n"
        "object.__setattr__(self, 'endpoints', ends)\n"
        "table[reg.mode] = reg.length\n"
        "length = reg.length\n"
        "Register(mode=reg.mode, length=0)\n"
        "getattr(reg, 'length')\n"
    )
    assert field_assignments(source) == [
        "line 1: .length",
        "line 2: .masked_cw",
        "line 3: .registers",
        "line 4: .agent",
        "line 5: .mode",
        "line 6: setattr('data_field')",
        "line 7: __setattr__('masked_mfd')",
        "line 8: __delattr__('length')",
    ]
