"""No module of the package or of its tests imports a name it never uses,
no private helper of the package is left without a caller, no private
helper keeps an option that no call passes, no module constant of the
package is left unnamed, no code of the command line module but its
`main` catches an exception, the package's `__all__` lists exactly the
public names its `__init__` imports, each of which resolves and is
needed by the package's own code or the acceptance tests, no code of
the package computes eigenvectors only to discard them, no memo of the
package that takes arguments can grow without bound, and no code of the
package needs a numpy name newer than the numpy 1.24 it declares.

No linter runs on this repository, so these `ast` scans stand in for
one.  A name listed in the module's `__all__` is a re-export, and a
name on a line marked `# noqa: F401` is a binding kept for the
benchmark's tracer to wrap; both count as used.
"""

import ast
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "qcap").glob("*.py"))
SOURCES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py")])


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


def unreferenced_private_defs(sources: list[str]) -> list[str]:
    """Module-level private functions and classes no source names elsewhere.

    A definition counts as referenced when an `ast.Name` or `ast.Attribute`
    of its name appears in any of `sources` outside its own body, so
    neither recursion nor a mention in a comment or string keeps it.
    """
    trees = [ast.parse(source) for source in sources]
    refs = defaultdict(list)
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs[node.id].append(node)
            elif isinstance(node, ast.Attribute):
                refs[node.attr].append(node)
    dead = []
    for tree in trees:
        for node in tree.body:
            name = getattr(node, "name", "")
            if not (
                isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and name.startswith("_")
                and not name.startswith("__")
            ):
                continue
            own = {id(inner) for inner in ast.walk(node)}
            if all(id(ref) in own for ref in refs[name]):
                dead.append(name)
    return dead


def test_dead_helper_scanner_flags_only_unreferenced_defs():
    sources = [
        "def _called():\n    return 1\n"
        "def _recursive(n):\n    return _recursive(n - 1)\n"
        "class _Unused:\n    pass\n"
        "def public():\n    # _Unused is named in a comment only\n    return _called(), '_Unused'\n"
        "def __getattr__(name):\n    pass\n",
        "import other\nother._by_attribute()\n",
        "def _by_attribute():\n    pass\n",
    ]
    assert unreferenced_private_defs(sources) == ["_recursive", "_Unused"]


def test_no_dead_private_helpers():
    assert unreferenced_private_defs([path.read_text() for path in PACKAGE]) == []


def _passes(call: ast.Call, index: int | None, param: str) -> bool:
    # Whether `call` passes the parameter at positional `index` (None for
    # keyword-only) named `param`; `*args` and `**kwargs` pass any.
    if any(kw.arg in (param, None) for kw in call.keywords):
        return True
    if index is None:
        return False
    return len(call.args) > index or any(isinstance(arg, ast.Starred) for arg in call.args)


def unpassed_private_defaults(sources: list[str]) -> list[str]:
    """`function.parameter` of each defaulted parameter that no call passes.

    Only module-level private functions are scanned.  A parameter counts
    as passed when any call in `sources` of the function's name, bare or
    as an attribute, passes it by position or by keyword.
    """
    trees = [ast.parse(source) for source in sources]
    calls = defaultdict(list)
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                calls[getattr(func, "id", getattr(func, "attr", None))].append(node)
    unpassed = []
    for tree in trees:
        for node in tree.body:
            if not (
                isinstance(node, ast.FunctionDef)
                and node.name.startswith("_")
                and not node.name.startswith("__")
            ):
                continue
            args = node.args
            positional = [*args.posonlyargs, *args.args]
            first = len(positional) - len(args.defaults)
            defaulted = [(i, arg.arg) for i, arg in enumerate(positional) if i >= first]
            defaulted += [
                (None, arg.arg)
                for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                if default is not None
            ]
            unpassed += [
                f"{node.name}.{param}"
                for index, param in defaulted
                if not any(_passes(call, index, param) for call in calls[node.name])
            ]
    return unpassed


def test_default_scanner_flags_only_unpassed_options():
    sources = [
        "def _f(x, by_position=1, by_keyword=2, *, kw_only=3, unpassed=4, required):\n"
        "    pass\n"
        "def public(flag=False):\n    pass\n"
        "_f(0, 1, by_keyword=2, required=0)\n",
        "import m\nm._f(0, kw_only=1, required=0)\n"
        "def _star(a=1, b=2):\n    pass\n"
        "_star(*values)\n"
        "def _double_star(*, a=1):\n    pass\n"
        "_double_star(**options)\n"
        "def _never_called(a, b=2):\n    pass\n",
    ]
    assert unpassed_private_defaults(sources) == ["_f.unpassed", "_never_called.b"]


def test_no_private_option_left_at_its_default():
    assert unpassed_private_defaults([path.read_text() for path in PACKAGE]) == []


def unnamed_constants(package: list[str], others: list[str]) -> list[str]:
    """Module-level UPPER_CASE constants of `package` that no source names.

    A constant counts as named when an `ast.Name`, `ast.Attribute` or
    imported name of it appears in any of `package` or `others` outside
    the assignment that defines it.
    """
    trees = [ast.parse(source) for source in [*package, *others]]
    refs = defaultdict(list)
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs[node.id].append(node)
            elif isinstance(node, ast.Attribute):
                refs[node.attr].append(node)
            elif isinstance(node, ast.alias):
                refs[node.name].append(node)
    unnamed = []
    for tree in trees[: len(package)]:
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            own = {id(inner) for inner in ast.walk(node)}
            unnamed += [
                target.id
                for target in targets
                if isinstance(target, ast.Name)
                and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", target.id)
                and all(id(ref) in own for ref in refs[target.id])
            ]
    return unnamed


def test_constant_scanner_flags_only_unnamed_constants():
    package = [
        "LIMIT = 16\n_PRIVATE = 2\nTYPED: int = 3\nUNUSED = 4\n_SELF = _SELF_BASE = 5\n"
        "__all__ = ['x']\nlower = 6\n"
        "def f():\n    return _PRIVATE  # UNUSED is named in a comment only\n",
        "from .a import LIMIT\nimport m\nm.TYPED\nLIMIT\n",
    ]
    others = ["'UNUSED'\n"]
    assert unnamed_constants(package, others) == ["UNUSED", "_SELF", "_SELF_BASE"]


def test_no_unnamed_module_constants():
    tests = sorted((ROOT / "tests").glob("*.py"))
    assert unnamed_constants(
        [path.read_text() for path in PACKAGE], [path.read_text() for path in tests]
    ) == []


def tries_outside(source: str, function: str) -> list[int]:
    """Line of every `try` statement not inside a `def` named `function`."""
    tree = ast.parse(source)
    inside = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == function:
            inside.update(id(inner) for inner in ast.walk(node))
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        # `try`/`except*` parses to `ast.TryStar`, new in Python 3.11.
        if isinstance(node, (ast.Try, getattr(ast, "TryStar", ast.Try))) and id(node) not in inside
    )


def test_try_scanner_flags_only_tries_outside_the_function():
    source = (
        "def main():\n"
        "    try:\n        pass\n    except ValueError:\n        pass\n"
        "def helper():\n"
        "    try:\n        pass\n    finally:\n        pass\n"
        "try:\n    pass\nexcept OSError:\n    pass\n"
    )
    assert tries_outside(source, "main") == [7, 11]


def test_only_cli_main_maps_exceptions():
    # `cli.main` alone turns an exception into an exit code, so no helper
    # may catch and re-raise what `main` already maps.
    assert tries_outside((ROOT / "src" / "qcap" / "cli.py").read_text(), "main") == []


def export_gaps(source: str) -> tuple[list[str], list[str]]:
    """Public names the source imports but leaves out of `__all__`, and
    `__all__` entries it never imports."""
    tree = ast.parse(source)
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    listed = {
        elt.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for elt in node.value.elts
    }
    public = {name for name in imported if not name.startswith("_")}
    return sorted(public - listed), sorted(listed - public)


def test_export_scanner_flags_both_gaps():
    source = (
        "from __future__ import annotations\n"
        "from .a import Kept, Unlisted, _private\n"
        "import numpy as np\n"
        "__version__ = '1'\n"
        "__all__ = ['Kept', 'np', 'Gone']\n"
    )
    assert export_gaps(source) == (["Unlisted"], ["Gone"])


def test_all_matches_the_package_imports():
    import qcap

    assert [name for name in qcap.__all__ if not hasattr(qcap, name)] == []
    assert export_gaps((ROOT / "src" / "qcap" / "__init__.py").read_text()) == ([], [])


def unneeded_exports(init: str, modules: list[str], acceptance: str) -> list[str]:
    """Names in the `__all__` of `init` that no module code needs.

    A name counts as needed when an `ast.Name` or `ast.Attribute` of it
    appears in any of `modules` outside the `def`, `class` or assignment
    that defines it, or when `acceptance` names it in any form, an import
    included.  An import in `modules` alone does not count, so a name that
    only the package's `__init__` re-exports is flagged.
    """
    listed = [
        elt.value
        for node in ast.parse(init).body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for elt in node.value.elts
    ]
    needed = set()
    for source in modules:
        tree = ast.parse(source)
        own = defaultdict(set)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [target.id for target in targets if isinstance(target, ast.Name)]
            else:
                continue
            for name in names:
                own[name].update(id(inner) for inner in ast.walk(node))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            if id(node) not in own[name]:
                needed.add(name)
    for node in ast.walk(ast.parse(acceptance)):
        if isinstance(node, ast.Name):
            needed.add(node.id)
        elif isinstance(node, ast.Attribute):
            needed.add(node.attr)
        elif isinstance(node, ast.alias):
            needed.add(node.name)
    return sorted(set(listed) - needed)


def test_export_scanner_flags_only_unneeded_names():
    init = (
        "from .a import LIMIT, by_acceptance, by_attribute, called, only_tests, recursive\n"
        "__all__ = ['LIMIT', 'by_acceptance', 'by_attribute', 'called', 'only_tests',"
        " 'recursive']\n"
    )
    modules = [
        init,
        "LIMIT = 16\n"
        "def called():\n    return LIMIT\n"
        "def only_tests():\n    'called is named in a docstring only'\n"
        "def recursive(n):\n    return recursive(n - 1)\n"
        "def by_acceptance():\n    pass\n"
        "def by_attribute():\n    pass\n",
        "from .a import called, only_tests\nfrom . import a\ncalled()\na.by_attribute()\n",
    ]
    acceptance = "from qcap import by_acceptance\n"
    assert unneeded_exports(init, modules, acceptance) == ["only_tests", "recursive"]


def test_every_export_is_needed():
    # The package exports what its own code or the acceptance tests use; a
    # helper that only other tests call lives in `tests/support.py`.
    init = (ROOT / "src" / "qcap" / "__init__.py").read_text()
    acceptance = (ROOT / "tests" / "test_acceptance.py").read_text()
    assert unneeded_exports(init, [path.read_text() for path in PACKAGE], acceptance) == []


_EIGENVECTOR_SOLVERS = {"herm_eig", "eigh"}


def _solves_eigenvectors(node: ast.AST) -> bool:
    # Whether `node` is a call of `herm_eig` or `eigh`, bare or as an
    # attribute such as `np.linalg.eigh`.
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return getattr(func, "id", getattr(func, "attr", None)) in _EIGENVECTOR_SOLVERS


def discarded_eigenvectors(source: str) -> list[int]:
    """Line of every `herm_eig` or `eigh` call whose eigenvectors are unread.

    The call is flagged when its pair is unpacked into `w, _`, when only
    its item 0 is taken, or when only its `eigenvalues` field is read.
    Code that needs only eigenvalues calls `eigvalsh` instead.
    """
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assign) and _solves_eigenvectors(node.value):
            lines += [
                node.lineno
                for target in node.targets
                if isinstance(target, ast.Tuple)
                and len(target.elts) == 2
                and isinstance(target.elts[1], ast.Name)
                and target.elts[1].id == "_"
            ]
        elif isinstance(node, ast.Subscript) and _solves_eigenvectors(node.value):
            if isinstance(node.slice, ast.Constant) and node.slice.value == 0:
                lines.append(node.lineno)
        elif isinstance(node, ast.Attribute) and _solves_eigenvectors(node.value):
            if node.attr == "eigenvalues":
                lines.append(node.lineno)
    return sorted(lines)


def test_eigenvector_scanner_flags_only_discarded_vectors():
    source = (
        "w, _ = herm_eig(H)\n"
        "w, V = np.linalg.eigh(H)\n"
        "lam = np.linalg.eigh(H)[0][-1]\n"
        "ket = np.linalg.eigh(H)[1][..., -1]\n"
        "top = linalg.herm_eig(H).eigenvalues\n"
        "vecs = herm_eig(H).eigenvectors\n"
        "_, V = herm_eig(H)\n"
        "w, _ = np.linalg.eig(H)\n"
        "w = np.linalg.eigvalsh(H)\n"
    )
    assert discarded_eigenvectors(source) == [1, 3, 5]


def test_no_discarded_eigenvectors():
    found = [
        f"{path.relative_to(ROOT)}:{line}"
        for path in PACKAGE
        for line in discarded_eigenvectors(path.read_text())
    ]
    assert found == []


def _maxsize(call: ast.Call, constants: dict) -> object:
    # The `maxsize` an `lru_cache(...)` call passes, a module constant's
    # value if it names one, or the call's default of 128.
    args = [kw.value for kw in call.keywords if kw.arg == "maxsize"] or call.args[:1]
    if not args:
        return 128
    node = args[0]
    if isinstance(node, ast.Name):
        return constants.get(node.id)
    return node.value if isinstance(node, ast.Constant) else None


def unbounded_memos(source: str) -> list[int]:
    """Line of every function taking arguments whose memo has no finite bound.

    Flagged are `functools.cache` and an `lru_cache` whose `maxsize` is not
    an integer literal or a module constant bound to one.  A function of no
    arguments has one value to keep, so it may use either.
    """
    tree = ast.parse(source)
    constants = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            constants.update(dict.fromkeys(names, node.value.value))
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        if not (a.posonlyargs or a.args or a.vararg or a.kwonlyargs or a.kwarg):
            continue
        for deco in node.decorator_list:
            call = deco if isinstance(deco, ast.Call) else None
            func = deco if call is None else call.func
            name = getattr(func, "id", getattr(func, "attr", None))
            bounded = call is not None and type(_maxsize(call, constants)) is int
            if name == "cache" or (name == "lru_cache" and call is not None and not bounded):
                lines.append(deco.lineno)
    return sorted(lines)


def test_memo_scanner_flags_only_unbounded_memos():
    source = (
        "import functools\n"
        "from functools import cache, lru_cache\n"
        "ENTRIES = 8\n"
        "@functools.cache\ndef a(x): pass\n"
        "@lru_cache(maxsize=None)\ndef b(x): pass\n"
        "@functools.lru_cache(None)\ndef c(*x): pass\n"
        "@cache\ndef d(): pass\n"
        "@lru_cache(maxsize=ENTRIES, typed=True)\ndef e(x): pass\n"
        "@lru_cache\ndef f(x): pass\n"
        "@lru_cache(32)\ndef g(x): pass\n"
        "@lru_cache(maxsize=UNKNOWN)\ndef h(x): pass\n"
    )
    assert unbounded_memos(source) == [4, 6, 8, 18]


def test_no_unbounded_memos():
    found = [
        f"{path.relative_to(ROOT)}:{line}"
        for path in PACKAGE
        for line in unbounded_memos(path.read_text())
    ]
    assert found == []


# Names first released in numpy 2.0, by namespace, while `pyproject.toml`
# declares numpy>=1.24: top-level functions, `numpy.linalg` functions
# and the `.mT` array attribute.
_NUMPY_2_NAMES = {
    "numpy": {
        "vecdot", "matvec", "vecmat", "matrix_transpose", "permute_dims", "concat", "astype",
        "isdtype", "unique_all", "unique_counts", "unique_inverse", "unique_values",
        "cumulative_sum", "cumulative_prod", "bitwise_count", "acos", "asin", "atan", "atan2",
        "acosh", "asinh", "atanh", "pow", "bitwise_left_shift", "bitwise_right_shift",
        "bitwise_invert",
    },
    "numpy.linalg": {
        "vecdot", "matrix_norm", "vector_norm", "svdvals", "diagonal", "trace", "outer",
        "cross", "tensordot", "matmul", "matrix_transpose",
    },
}


def _dotted(node: ast.AST) -> str | None:
    # `a.b.c` of an attribute chain on a bare name, else None.
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return None if base is None else f"{base}.{node.attr}"
    return None


def numpy_2_uses(source: str) -> list[tuple[int, str]]:
    """`(line, name)` of every numpy 2.x name the source uses.

    An attribute of a name bound to `numpy` or `numpy.linalg` (through
    `import numpy as np`, `import numpy.linalg as la` or
    `from numpy import linalg`), a name imported from either, and any
    `.mT` attribute are checked against `_NUMPY_2_NAMES`.
    """
    tree = ast.parse(source)
    modules = {}  # local name -> the numpy module it is bound to
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "numpy":
                    local = alias.asname or "numpy"
                    modules[local] = alias.name if alias.asname else "numpy"
        elif isinstance(node, ast.ImportFrom) and node.module in _NUMPY_2_NAMES:
            for alias in node.names:
                if alias.name in _NUMPY_2_NAMES[node.module]:
                    found.append((node.lineno, f"{node.module}.{alias.name}"))
                elif f"{node.module}.{alias.name}" in _NUMPY_2_NAMES:
                    modules[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        if node.attr == "mT":
            found.append((node.lineno, ".mT"))
            continue
        head, _, rest = (_dotted(node.value) or "").partition(".")
        if head not in modules:
            continue
        module = f"{modules[head]}.{rest}" if rest else modules[head]
        if node.attr in _NUMPY_2_NAMES.get(module, ()):
            found.append((node.lineno, f"{module}.{node.attr}"))
    return sorted(found)


def test_numpy_2_scanner_flags_only_new_names():
    source = (
        "import numpy as np\n"
        "import numpy.linalg as la\n"
        "from numpy import linalg, vecdot\n"
        "from numpy.linalg import norm, vector_norm\n"
        "np.vecdot(a, b)\n"
        "np.einsum('i,i', a, b)\n"
        "np.linalg.matrix_norm(a)\n"
        "np.linalg.norm(a) + np.outer(a, b) + np.trace(a) + pow(2, 3)\n"
        "la.svdvals(a) + linalg.outer(a, b) + linalg.eigh(a)\n"
        "a.mT + a.astype(float) + a.T\n"
    )
    assert numpy_2_uses(source) == [
        (3, "numpy.vecdot"),
        (4, "numpy.linalg.vector_norm"),
        (5, "numpy.vecdot"),
        (7, "numpy.linalg.matrix_norm"),
        (9, "numpy.linalg.outer"),
        (9, "numpy.linalg.svdvals"),
        (10, ".mT"),
    ]


def test_package_needs_no_numpy_2_name():
    # `np.vecdot` once reached review before its numpy 2.0 floor was seen.
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in PACKAGE
        for line, name in numpy_2_uses(path.read_text())
    ]
    assert found == []
