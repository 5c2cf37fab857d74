"""The benchmark's tracer must be able to wrap every name it expects.

`bench/tracing.py::install` replaces functions by name in the qcap
modules that call them.  A refactor that drops or renames one of those
bindings would only surface as an AttributeError under `--trace 1`;
this test makes it fail here instead.
"""

import sys
from pathlib import Path

import numpy as np

import qcap.channels
import qcap.cli
import qcap.entropy
import qcap.linalg
import qcap.solver

BENCH = Path(__file__).resolve().parent.parent / "bench"
MODULES = (qcap.channels, qcap.cli, qcap.entropy, qcap.linalg, qcap.solver, np, np.linalg)


def test_install_wraps_and_restores_every_name(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    before = {mod: dict(vars(mod)) for mod in MODULES}
    with tracing.install(tracing.Tracer()):
        wrapped = [(mod, name) for mod in MODULES for name, fn in vars(mod).items()
                   if fn is not before[mod].get(name)]
        for mod, name in wrapped:
            assert getattr(mod, name).__wrapped__ is before[mod][name]
    names = {f"{mod.__name__}.{name}" for mod, name in wrapped}
    assert {"qcap.solver._log_psd_batch", "qcap.entropy._apply_batch", "numpy.einsum"} <= names
    for mod, old in before.items():
        for name, fn in old.items():
            assert vars(mod)[name] is fn, f"{mod.__name__}.{name} not restored"
