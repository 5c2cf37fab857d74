"""The ket step's top kets by inverse iteration against a full eigh.

`solver._ascend` takes the top ket of each dual image from
`linalg._top_kets`: one eigvalsh, then inverse iteration, with eigh only
for rows that have no gap below the top.  Here the same solves run once
with `_top_kets` replaced by the last column of a full eigh, as the
step took it before, and once as shipped, and must take the same
iterations to the same numbers.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import qcap
from qcap import Channel, Ensemble, SolverConfig, tensor

# Where a dual image's top has a gap, both kets lie within rounding of
# the exact one (`eps * radius / gap` each; inverse iteration adds at most
# `(shift / gap)^2`, below 1e-12 at the smallest gap it accepts), and a
# row without a gap takes eigh's ket itself.  The two runs therefore
# differ by rounding in the states, and capacities and traces, which move
# only at second order in the states near the top ket, by rounding alone.
TOL = 1e-12
# Weights are rescaled by `exp(score)` every iteration, so a rounding-level
# difference in a score compounds over the run (2.1e-12 at most over 84
# starts of fixture products and gamma1 copies).  States are compared
# weighted, as in the Pauli parity test, since the iteration amplifies
# rounding in a state whose weight vanishes.
WEIGHT_TOL = 1e-10


def eigh_top_kets(H):
    return np.linalg.eigh(H)[1][..., -1]


def on_both(solve, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(qcap.solver, "_top_kets", eigh_top_kets)
        reference = solve()
    return reference, solve()


def assert_same(reference, shipped):
    for r, s in zip(reference, shipped, strict=True):
        assert (r.iterations_used, r.converged) == (s.iterations_used, s.converged)
        assert abs(r.capacity - s.capacity) <= TOL
        assert_allclose(r.trace.mutual_info, s.trace.mutual_info, rtol=0, atol=TOL)
        assert_allclose(r.ensemble.weights, s.ensemble.weights, rtol=0, atol=WEIGHT_TOL)
        dev = np.abs(r.ensemble.states - s.ensemble.states).max(axis=(1, 2))
        assert (r.ensemble.weights * dev).max() <= WEIGHT_TOL


def solve_both(ch, cfg, monkeypatch):
    # Every start `multi_start` would make.
    assert not qcap.solver._pauli_path(ch, None)
    cfg = cfg.resolved(ch)
    starts = qcap.solver._starts(ch.dim_in, cfg.n_states, cfg.seed, range(cfg.starts))
    assert_same(*on_both(lambda: qcap.solver._iterate(ch, *starts, cfg), monkeypatch))


def product(a, b):
    return tensor(qcap.fixture_channel(a), qcap.fixture_channel(b))


CHANNELS = {
    "gamma5": lambda: qcap.fixture_channel("gamma5"),
    "gamma6": lambda: qcap.fixture_channel("gamma6"),
    "gamma2xgamma4": lambda: product("gamma2", "gamma4"),
    "gamma1xgamma5": lambda: product("gamma1", "gamma5"),
    "gamma5xgamma6": lambda: product("gamma5", "gamma6"),
}


@pytest.mark.parametrize(
    "name, seed",
    [(name, seed) for name in ("gamma5", "gamma6", "gamma2xgamma4") for seed in (0, 1)]
    + [
        ("gamma1xgamma5", 0),
        # gamma1xgamma5 takes about 5 s a seed; gamma5xgamma6, at the d = 9
        # of the qutrit additivity rows, about 11 s.
        pytest.param("gamma1xgamma5", 1, marks=pytest.mark.slow),
        pytest.param("gamma5xgamma6", 0, marks=pytest.mark.slow),
    ],
)
def test_every_start(monkeypatch, name, seed):
    solve_both(CHANNELS[name](), SolverConfig(seed=seed), monkeypatch)


def test_qutrit_replacement_channel(monkeypatch):
    # Every input goes to one fixed state, so every dual image is a
    # multiple of the identity: both runs take eigh's |2> and capacity 0.
    p = np.sqrt([0.5, 0.3, 0.2])
    kraus = [p[a] * np.outer(np.eye(3)[a], np.eye(3)[b]) for a in range(3) for b in range(3)]
    ch = Channel(np.array(kraus, dtype=complex))
    solve_both(ch, SolverConfig(seed=3), monkeypatch)
    res = qcap.multi_start(ch, SolverConfig(seed=3))
    assert_allclose(res.ensemble.states, np.tile(np.diag([0.0, 0.0, 1.0]), (9, 1, 1)), atol=0)
    assert abs(res.capacity) <= TOL


def weyl_depolarizing(p):
    # `(1 - p) rho + p I/3` from the nine Weyl operators `X^a Z^b`.
    omega = np.exp(2j * np.pi / 3)
    X = np.roll(np.eye(3), 1, axis=0)
    Z = np.diag(omega ** np.arange(3))
    weyl = [np.linalg.matrix_power(X, a) @ np.linalg.matrix_power(Z, b) for a in range(3) for b in range(3)]
    coef = np.sqrt([1 - 8 * p / 9] + [p / 9] * 8)
    return Channel(np.array([c * W for c, W in zip(coef, weyl)]))


def test_qutrit_depolarizing_channel(monkeypatch):
    ch = weyl_depolarizing(0.4)
    solve_both(ch, SolverConfig(seed=5), monkeypatch)
    # From the maximally mixed state and |0> at equal weights the average
    # output is diag(a, b, b), so the first state's dual image is diagonal
    # with its top eigenvalue twice over; later steps start from eigh's ket.
    init = Ensemble(np.full(2, 0.5), np.array([np.eye(3) / 3, np.diag([1.0, 0, 0])], dtype=complex))
    tops = []
    with monkeypatch.context() as m:
        top_kets = qcap.solver._top_kets

        def recording(H):
            w = np.linalg.eigvalsh(H)
            tops.append(w[:, -1] - w[:, -2] <= qcap.linalg.TOP_GAP_REL * np.abs(w).max(axis=1))
            return top_kets(H)

        m.setattr(qcap.solver, "_top_kets", recording)
        qcap.run(ch, init)
    assert tops[0].tolist() == [True, False]
    reference, shipped = on_both(lambda: qcap.run(ch, init), monkeypatch)
    assert_same([reference], [shipped])
