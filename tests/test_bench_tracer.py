"""The benchmark's tracer must be able to wrap every name it expects.

`bench/tracing.py::install` replaces functions by name in the qcap
modules that call them.  A refactor that drops or renames one of those
bindings would only surface as an AttributeError under `--trace 1`;
this test makes it fail here instead.  The second test checks the
other direction: a binding kept only for the tracer is one it wraps.
"""

import ast
from pathlib import Path

import numpy as np

import qcap.channels
import qcap.cli
import qcap.entropy
import qcap.linalg
import qcap.solver

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
MODULES = (qcap.channels, qcap.cli, qcap.entropy, qcap.linalg, qcap.solver, np, np.linalg)


def installed_wrappers(monkeypatch) -> tuple[list, dict]:
    """`(module, name)` of each binding `install` replaces, and every
    module's bindings from before it ran."""
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    before = {mod: dict(vars(mod)) for mod in MODULES}
    with tracing.install(tracing.Tracer()):
        wrapped = [(mod, name) for mod in MODULES for name, fn in vars(mod).items()
                   if fn is not before[mod].get(name)]
        for mod, name in wrapped:
            assert getattr(mod, name).__wrapped__ is before[mod][name]
    return wrapped, before


def test_install_wraps_and_restores_every_name(monkeypatch):
    wrapped, before = installed_wrappers(monkeypatch)
    names = {f"{mod.__name__}.{name}" for mod, name in wrapped}
    assert {"qcap.solver._log_psd_batch", "qcap.entropy._apply_batch", "numpy.einsum"} <= names
    for mod, old in before.items():
        for name, fn in old.items():
            assert vars(mod)[name] is fn, f"{mod.__name__}.{name} not restored"


def test_tracer_only_imports_are_wrapped(monkeypatch):
    # An import marked `# noqa: F401` is kept only for the tracer, so it
    # must name a binding `install` wraps in that same module; once the
    # tracer stops wrapping it, the import goes too.
    wrapped, _ = installed_wrappers(monkeypatch)
    wrapped = {f"{mod.__name__}.{name}" for mod, name in wrapped}
    kept = []
    for path in sorted((ROOT / "src" / "qcap").glob("*.py")):
        module = "qcap" if path.stem == "__init__" else f"qcap.{path.stem}"
        lines = path.read_text().splitlines()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                kept += [f"{module}.{alias.asname or alias.name}" for alias in node.names
                         if "# noqa: F401" in lines[alias.lineno - 1]]
    assert kept
    assert [name for name in kept if name not in wrapped] == []
