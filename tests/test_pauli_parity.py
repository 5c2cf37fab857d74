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
from support import assert_same_runs, every_start, patched, random_density, random_qubit_kraus
from support import replacement_channel

# Both steps compute the same quantities in a different order, so they
# differ by rounding alone.
TOL = 1e-12


def on_both_steps(solve):
    return solve(), patched(solve, _pauli_path=lambda ch, ent_dims: False)


def solve_both(ch, cfg):
    assert qcap.solver._pauli_path(ch, None)
    assert_same_runs(*on_both_steps(lambda: every_start(ch, cfg)), TOL, TOL)


@pytest.mark.parametrize("seed", [0, 42])
@pytest.mark.parametrize("name", ["gamma1", "gamma2", "gamma3", "gamma4"])
def test_fixtures_every_start(name, seed):
    # gamma3 is the signed (not completely positive) map.
    solve_both(qcap.fixture_channel(name), SolverConfig(seed=seed))


@pytest.mark.parametrize("seed", range(16))
def test_random_channels(seed):
    # 128 channels with 1 to 4 Kraus operators; the one-operator channels
    # are unitary, so their outputs are pure and both steps clamp the log's
    # zero eigenvalue.
    rng = np.random.default_rng([seed, 2])
    for i in range(8):
        ch = Channel(random_qubit_kraus(rng, 1 + i % 4))
        solve_both(ch, SolverConfig(seed=seed))


def test_replacement_channel():
    # Every input goes to one fixed state, so every dual image is a
    # multiple of the identity: both steps take |1> and capacity 0.
    ch = replacement_channel([0.7, 0.3])
    solve_both(ch, SolverConfig(seed=3))
    res = qcap.multi_start(ch, SolverConfig(seed=3))
    assert_allclose(res.ensemble.states, np.tile(np.diag([0.0, 1.0]), (4, 1, 1)), atol=0)
    assert abs(res.capacity) <= TOL


def test_non_trace_preserving_map():
    # The Pauli transfer matrix covers any Hermiticity-preserving map;
    # here the outputs have trace 0.81.
    ch = Channel(random_qubit_kraus(np.random.default_rng(5), 2))
    solve_both(Channel(0.9 * ch.kraus), SolverConfig(seed=5))


@pytest.mark.parametrize("name", ["gamma2", "gamma3"])
def test_run_from_mixed_states(rng, name):
    ch = qcap.fixture_channel(name)
    for _ in range(3):
        init = Ensemble(np.full(4, 0.25), np.array([random_density(rng, 2) for _ in range(4)]))
        pauli, kets = on_both_steps(lambda: qcap.run(ch, init))
        assert_same_runs([pauli], [kets], TOL, TOL)
