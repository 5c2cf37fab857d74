"""Reports rendered from the result arrays against `json.dumps` of lists.

`cli._render` writes the ensemble's states from their complex array
through `cli._array_template`.  The reference is the path it replaced:
each state turned into nested `[re, im]` lists by `_matrix_to_wire`, and
the whole report passed through `json.dumps(indent=2, sort_keys=True)`.
Every report must match it byte for byte, on stdout and in `--out`.
"""

import json

import numpy as np
import pytest

from qcap import cli
from qcap.channels import _matrix_to_wire
from qcap.entropy import Ensemble
from qcap.solver import CapacityResult, IterationTrace

# Floats whose `repr` takes each form `json` can write: a signed zero,
# subnormals, an exponent at both ends and a 17-digit mantissa.
EDGE_VALUES = [-0.0, 5e-324, 2.5e-310, 1e16, 1e-7, 0.1, 1 / 3]


def reference_report(report: dict) -> str:
    ensemble = report["ensemble"]
    states = [_matrix_to_wire(S) for S in ensemble["states"]]
    listed = {**report, "ensemble": {**ensemble, "states": states}}
    return json.dumps(listed, indent=2, sort_keys=True) + "\n"


def nested(level: int, value):
    for _ in range(level):
        value = [value]
    return value


@pytest.mark.parametrize("level", [0, 1, 2, 3])
@pytest.mark.parametrize("shape", [(0,), (3, 0), (2, 0, 2), (1, 1, 1, 2), (7,), (2, 3, 2), (3, 2, 2, 2)])
def test_template_matches_json_layout(shape, level):
    values = np.resize(EDGE_VALUES, shape)
    expected = json.dumps(nested(level, values.tolist()), indent=2)
    head, tail = json.dumps(nested(level, "<block>"), indent=2).split('"<block>"')
    block = cli._array_template(shape, level).format(*values.ravel().tolist())
    assert head + block + tail == expected


def write_scalar_channel(path):
    # A 1 x 1 channel: its ensemble states have shape (n, 1, 1).
    path.write_text(json.dumps(
        {"name": "scalar", "kind": "kraus", "kraus": [[[[0.6, 0.0]]], [[[0.8, 0.0]]]]}
    ))
    return str(path)


def check_report(argv, tmp_path, monkeypatch, capsys):
    # One solve: the command writes through `--out`, and the same report
    # object is emitted again to stdout and rendered by the reference.
    emitted = []
    real_emit = cli._emit

    def spy(report, out):
        emitted.append(reference_report(report))
        real_emit(report, None)
        real_emit(report, out)

    monkeypatch.setattr(cli, "_emit", spy)
    out = tmp_path / "report.json"
    assert cli.main([*argv, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert len(emitted) == 1
    assert stdout == emitted[0]
    assert out.read_text() == emitted[0]
    return json.loads(stdout)


COMMANDS = {
    **{f"capacity-gamma{g}": ["capacity", "--channel", f"gamma{g}"] for g in range(1, 6)},
    "additivity-gamma2-gamma4": ["additivity", "--lhs", "gamma2", "--rhs", "gamma4"],
    "regularized-2": ["regularized", "--channel", "gamma1", "--copies", "2"],
    "regularized-3": ["regularized", "--channel", "gamma1", "--copies", "3"],
    "one-state": ["capacity", "--channel", "gamma2", "--states", "1"],
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_report_bytes_match_reference(name, tmp_path, monkeypatch, capsys):
    check_report(COMMANDS[name], tmp_path, monkeypatch, capsys)


def test_one_by_one_channel_report(tmp_path, monkeypatch, capsys):
    path = write_scalar_channel(tmp_path / "scalar.json")
    report = check_report(["capacity", "--channel", path], tmp_path, monkeypatch, capsys)
    assert np.shape(report["ensemble"]["states"])[1:] == (1, 1, 2)


@pytest.mark.slow
def test_four_copy_report(tmp_path, monkeypatch, capsys):
    argv = ["regularized", "--channel", "gamma1", "--copies", "4", "--starts", "1"]
    report = check_report(argv, tmp_path, monkeypatch, capsys)
    assert np.shape(report["ensemble"]["states"]) == (256, 16, 16, 2)


@pytest.mark.parametrize("entry", [np.nan, np.inf, complex(0, np.nan), complex(0, -np.inf)])
@pytest.mark.parametrize("to_file", [False, True])
def test_non_finite_state_exits_3(entry, to_file, tmp_path, monkeypatch, capsys):
    # An off-diagonal entry keeps the unit trace the ensemble checks, so
    # only the report's finiteness check can stop it.
    states = np.array([[[1.0, entry], [np.conj(entry), 0.0]]], dtype=complex)
    result = CapacityResult(
        capacity=0.5, ensemble=Ensemble(np.ones(1), states), converged=True,
        iterations_used=1, start_index=0, trace=IterationTrace(np.array([0.5])),
    )
    monkeypatch.setattr(cli, "multi_start", lambda *args, **kwargs: result)
    out = tmp_path / "report.json"
    argv = ["capacity", "--channel", "gamma1"] + (["--out", str(out)] if to_file else [])
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert "numerical failure" in captured.err
    assert captured.out == ""
    assert not out.exists()
