"""Reports streamed from the result arrays against `json.dumps` of lists.

`cli._emit` writes a report in pieces from `cli._report_pieces`: the
`json.dumps` head, one block per ensemble state through
`cli._array_template` (formatted once per distinct state), and the tail.
The reference is the path it replaced: each state turned into nested
`[re, im]` lists by `support.matrix_to_wire`, and the whole report passed
through `json.dumps(indent=2, sort_keys=True)`.  Every report must match
it byte for byte, on stdout and in `--out`.
"""

import io
import json
import tracemalloc

import numpy as np
import pytest

from qcap import cli
from qcap.entropy import Ensemble
from qcap.solver import CapacityResult, IterationTrace
from support import matrix_to_wire

# Floats whose `repr` takes each form `json` can write: a signed zero,
# subnormals, an exponent at both ends and a 17-digit mantissa.
EDGE_VALUES = [-0.0, 5e-324, 2.5e-310, 1e16, 1e-7, 0.1, 1 / 3]


def reference_report(report: dict) -> str:
    ensemble = report["ensemble"]
    states = [matrix_to_wire(S) for S in ensemble["states"]]
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


def test_only_the_state_template_is_built(monkeypatch, capsys):
    # The list around the states is written from constants, so the
    # template calls at the report's own levels (its recursion goes
    # deeper) are the one state template, not a frame per component.
    calls = []
    real_template = cli._array_template

    def spy(shape, level):
        calls.append((shape, level))
        return real_template(shape, level)

    monkeypatch.setattr(cli, "_array_template", spy)
    argv = ["regularized", "--channel", "gamma1", "--copies", "4", "--starts", "1"]
    assert cli.main(argv) == 0
    assert len(json.loads(capsys.readouterr().out)["ensemble"]["states"]) == 256
    assert [call for call in calls if call[1] <= 3] == [((16, 16, 2), 3)]


def synthetic_report(states) -> dict:
    states = np.asarray(states, dtype=complex)
    n = len(states)
    return {"capacity_nats": 0.5, "ensemble": {"weights": [1.0 / n] * n, "states": states}}


def emitted_report(report, capsys) -> str:
    capsys.readouterr()
    cli._emit(report, None)
    return capsys.readouterr().out


def test_signed_zero_states_keep_their_own_repr(capsys):
    # Equal as numbers, different as bytes: each state keeps its own block.
    A = np.array([[0.5, 0.0], [0.0, 0.5]], dtype=complex)
    B = A.copy()
    B[0, 1] = complex(-0.0, 0.0)
    report = synthetic_report([A, B])
    text = emitted_report(report, capsys)
    assert text == reference_report(report)
    assert text.count("-0.0") == 1


def test_repeated_state_reuses_its_block_in_place(capsys):
    A = np.array([[1 / 3, 0.1j], [-0.1j, 2 / 3]])
    B = np.array([[2.5e-310, 1e16], [1e16, 1e-7]], dtype=complex)
    report = synthetic_report([A, B, A])
    text = emitted_report(report, capsys)
    assert text == reference_report(report)
    listed = json.loads(text)["ensemble"]["states"]
    assert listed[0] == listed[2] != listed[1]


def test_single_component_report(capsys):
    report = synthetic_report([[[1.0, 0.0], [0.0, 0.0]]])
    assert emitted_report(report, capsys) == reference_report(report)


class NullStream(io.TextIOBase):
    """Counts the characters written to it and keeps none of them."""

    def __init__(self):
        self.length = 0

    def write(self, text):
        self.length += len(text)
        return len(text)


def test_four_copy_shaped_report_is_never_held_whole(monkeypatch):
    # Shaped like the `gamma1` 4-copy report: 256 components of 16 x 16,
    # 16 distinct states.  Holding the whole text, its template or its
    # float list would take more than the report's own length.
    rng = np.random.default_rng(0)
    kets = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    kets /= np.linalg.norm(kets, axis=1, keepdims=True)
    distinct = np.einsum("na,nb->nab", kets, kets.conj())
    report = synthetic_report(distinct[rng.permutation(np.arange(256) % 16)])
    sink = NullStream()
    monkeypatch.setattr(cli.sys, "stdout", sink)
    tracemalloc.start()
    try:
        cli._emit(report, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.length == len(reference_report(report))
    assert peak < sink.length


@pytest.mark.parametrize("entry", [np.nan, np.inf, complex(0, np.nan), complex(0, -np.inf)])
@pytest.mark.parametrize("to_file", [False, True])
def test_non_finite_state_exits_3(entry, to_file, tmp_path, monkeypatch, capsys):
    # `Ensemble` refuses a non-finite state, so the entry is written into
    # a valid ensemble after its checks: the report's own finiteness check
    # must still stop it, before any report or trace is written.
    ensemble = Ensemble(np.ones(1), np.array([[[1.0, 0.0], [0.0, 0.0]]], dtype=complex))
    states = np.array([[[1.0, entry], [np.conj(entry), 0.0]]], dtype=complex)
    object.__setattr__(ensemble, "states", states)
    result = CapacityResult(
        capacity=0.5, ensemble=ensemble, converged=True,
        iterations_used=1, start_index=0, trace=IterationTrace(np.array([0.5])),
    )
    monkeypatch.setattr(cli, "multi_start", lambda *args, **kwargs: result)
    out, trace = tmp_path / "report.json", tmp_path / "trace.csv"
    commands = (["capacity", "--channel", "gamma1"], ["additivity", "--lhs", "gamma1", "--rhs", "gamma1"])
    for command in commands:
        for traced in (False, True):
            argv = command + (["--out", str(out)] if to_file else [])
            argv += ["--trace", str(trace)] if traced else []
            assert cli.main(argv) == 3
            captured = capsys.readouterr()
            assert "numerical failure" in captured.err
            assert captured.out == ""
            assert not out.exists()
            assert not trace.exists()
