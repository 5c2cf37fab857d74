"""The Pauli-basis step of qubit -> qubit solves against the ket step.

`solver._iterate` steps a qubit -> qubit map in real Pauli coordinates,
with closed-form entropies, logs and top eigenvectors, and every other
map on kets with eigendecompositions.  Here the same qubit solves run on
both steps, the ket step forced, and must take the same iterations to
the same numbers.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import qcap
from qcap import Channel, Ensemble, SolverConfig
from support import random_density, random_qubit_kraus

# Both steps compute the same quantities in a different order, so they
# differ by rounding alone.
TOL = 1e-12


def on_both_steps(solve, monkeypatch):
    pauli = solve()
    with monkeypatch.context() as m:
        m.setattr(qcap.solver, "_pauli_path", lambda ch, ent_dims: False)
        kets = solve()
    return pauli, kets


def assert_same(pauli, kets):
    for p, k in zip(pauli, kets, strict=True):
        assert (p.iterations_used, p.converged) == (k.iterations_used, k.converged)
        assert abs(p.capacity - k.capacity) <= TOL
        assert_allclose(p.trace.mutual_info, k.trace.mutual_info, rtol=0, atol=TOL)
        assert_allclose(p.ensemble.weights, k.ensemble.weights, rtol=0, atol=TOL)
        # States are compared weighted: a state's part in every reported
        # number scales with its weight, and the iteration amplifies
        # rounding in a state whose weight vanishes (on the ket step
        # alone, nudging one start by 1e-15 moved a state of weight 3e-5
        # by 2e-11 over 156 iterations).
        dev = np.abs(p.ensemble.states - k.ensemble.states).max(axis=(1, 2))
        assert (p.ensemble.weights * dev).max() <= TOL


def solve_both(ch, cfg, monkeypatch):
    # Every start `multi_start` would make.
    assert qcap.solver._pauli_path(ch, None)
    cfg = cfg.resolved(ch)
    starts = qcap.solver._starts(2, cfg.n_states, cfg.seed, range(cfg.starts))
    assert_same(*on_both_steps(lambda: qcap.solver._iterate(ch, *starts, cfg), monkeypatch))


@pytest.mark.parametrize("seed", [0, 42])
@pytest.mark.parametrize("name", ["gamma1", "gamma2", "gamma3", "gamma4"])
def test_fixtures_every_start(monkeypatch, name, seed):
    # gamma3 is the signed (not completely positive) map.
    solve_both(qcap.fixture_channel(name), SolverConfig(seed=seed), monkeypatch)


@pytest.mark.parametrize("seed", range(16))
def test_random_channels(monkeypatch, seed):
    # 128 channels with 1 to 4 Kraus operators; the one-operator channels
    # are unitary, so their outputs are pure and both steps clamp the log's
    # zero eigenvalue.
    rng = np.random.default_rng([seed, 2])
    for i in range(8):
        ch = Channel(random_qubit_kraus(rng, 1 + i % 4))
        solve_both(ch, SolverConfig(seed=seed), monkeypatch)


def test_replacement_channel(monkeypatch):
    # Every input goes to one fixed state, so every dual image is a
    # multiple of the identity: both steps take |1> and capacity 0.
    p = np.sqrt([0.7, 0.3])
    kraus = [p[a] * np.outer(np.eye(2)[a], np.eye(2)[b]) for a in range(2) for b in range(2)]
    ch = Channel(np.array(kraus))
    solve_both(ch, SolverConfig(seed=3), monkeypatch)
    res = qcap.multi_start(ch, SolverConfig(seed=3))
    assert_allclose(res.ensemble.states, np.tile(np.diag([0.0, 1.0]), (4, 1, 1)), atol=0)
    assert abs(res.capacity) <= TOL


def test_non_trace_preserving_map(monkeypatch):
    # The Pauli transfer matrix covers any Hermiticity-preserving map;
    # here the outputs have trace 0.81.
    ch = Channel(random_qubit_kraus(np.random.default_rng(5), 2))
    solve_both(Channel(0.9 * ch.kraus), SolverConfig(seed=5), monkeypatch)


@pytest.mark.parametrize("name", ["gamma2", "gamma3"])
def test_run_from_mixed_states(monkeypatch, rng, name):
    ch = qcap.fixture_channel(name)
    for _ in range(3):
        init = Ensemble(np.full(4, 0.25), np.array([random_density(rng, 2) for _ in range(4)]))
        pauli, kets = on_both_steps(lambda: qcap.run(ch, init), monkeypatch)
        assert_same([pauli], [kets])
