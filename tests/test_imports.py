"""No module of the package or of its tests imports a name it never uses.

No linter runs on this repository, so this `ast` scan stands in for
one.  A name listed in the module's `__all__` is a re-export, and a
name on a line marked `# noqa: F401` is a binding kept for the
benchmark's tracer to wrap; both count as used.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*(ROOT / "src" / "qcap").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list[tuple[int, str]]:
    """`(line, name)` of every imported name the source never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                if alias.name != "*" and "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported.append((alias.lineno, alias.asname or alias.name.split(".")[0]))
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        ):
            used.update(elt.value for elt in node.value.elts)
    return [(line, name) for line, name in imported if name not in used]


def test_scanner_flags_only_unused_names():
    source = (
        "import os\n"
        "import numpy.linalg\n"
        "from json import dumps, loads as parse\n"
        "from sys import argv  # noqa: F401\n"
        "from math import pi\n"
        "__all__ = ['pi']\n"
        "numpy.linalg.norm(parse('1'))\n"
    )
    assert unused_imports(source) == [(1, "os"), (3, "dumps")]


def test_no_unused_imports():
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in SOURCES
        for line, name in unused_imports(path.read_text())
    ]
    assert found == []
