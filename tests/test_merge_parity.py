"""The ket step's merge of coincident kets against an unmerged run.

Every `MERGE_EVERY` updates `solver._iterate` merges the kets of each
start that lie within `MERGE_TOL` of one another into one row with their
summed weight, and expands each result back to all components.  Here
the same solves run once with `_merge` replaced by a no-op, as the step
ran before, and once as shipped, and must take the same iterations to
the same numbers.
"""

from functools import reduce

import numpy as np
import pytest
from numpy.testing import assert_allclose

import qcap
from qcap import Channel, Ensemble, SolverConfig, initial_ensemble, run, tensor

# Exact duplicates stay exact duplicates and keep their weight ratio, so
# merging them changes the run by rounding alone; a merged near-duplicate
# moves its state by at most MERGE_TOL = 1e-12, and capacities and traces
# move only at second order in the states near the optimum.
TOL = 1e-12
# Weights are rescaled by `exp(score)` every iteration, so a rounding-level
# difference in a score compounds over the run.  States are compared
# weighted, as in the other parity tests, since the iteration amplifies
# rounding in a state whose weight vanishes.
WEIGHT_TOL = 1e-10


def no_merge(weights, kets, outs, *bookkeeping):
    return weights, kets, outs


def widths(solve, monkeypatch):
    # The solve's result, and the row count of every stack `_ascend` took.
    seen = []
    ascend = qcap.solver._ascend

    def recording(ch, weights, phis):
        seen.append(weights.shape[1])
        return ascend(ch, weights, phis)

    with monkeypatch.context() as m:
        m.setattr(qcap.solver, "_ascend", recording)
        result = solve()
    return result, seen


def on_both(solve, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(qcap.solver, "_merge", no_merge)
        reference = solve()
    shipped, seen = widths(solve, monkeypatch)
    return reference, shipped, seen


def assert_same(reference, shipped):
    for r, s in zip(reference, shipped, strict=True):
        assert (r.iterations_used, r.converged) == (s.iterations_used, s.converged)
        assert abs(r.capacity - s.capacity) <= TOL
        assert_allclose(r.trace.mutual_info, s.trace.mutual_info, rtol=0, atol=TOL)
        if r.trace.ent is not None:
            assert_allclose(r.trace.ent, s.trace.ent, rtol=0, atol=TOL)
        assert r.ensemble.n_states == s.ensemble.n_states
        assert_allclose(r.ensemble.weights, s.ensemble.weights, rtol=0, atol=WEIGHT_TOL)
        dev = np.abs(r.ensemble.states - s.ensemble.states).max(axis=(1, 2))
        assert (r.ensemble.weights * dev).max() <= WEIGHT_TOL


def solve_both(ch, cfg, monkeypatch, ent_dims=None):
    # Every start `multi_start` would make; the shipped run must merge.
    assert not qcap.solver._pauli_path(ch, ent_dims)
    cfg = cfg.resolved(ch)
    starts = qcap.solver._starts(ch.dim_in, cfg.n_states, cfg.seed, range(cfg.starts))
    reference, shipped, seen = on_both(
        lambda: qcap.solver._iterate(ch, *starts, cfg, ent_dims), monkeypatch
    )
    assert min(seen) < cfg.n_states
    assert_same(reference, shipped)


def copies(n):
    return reduce(tensor, [qcap.fixture_channel("gamma1")] * n)


def product(a, b):
    return tensor(qcap.fixture_channel(a), qcap.fixture_channel(b))


CHANNELS = {
    "gamma1^3": lambda: copies(3),
    "gamma1^4": lambda: copies(4),
    "gamma2xgamma4": lambda: product("gamma2", "gamma4"),
    "gamma1xgamma5": lambda: product("gamma1", "gamma5"),
}


@pytest.mark.parametrize(
    "name, seed",
    [
        ("gamma1^3", 0),
        ("gamma1^3", 1),
        # gamma2xgamma4 holds 4 distinct states of 16, but at seeds 0-2 its
        # kets are not yet within MERGE_TOL when the stop rule fires.
        ("gamma2xgamma4", 3),
        ("gamma1xgamma5", 0),
        # Three starts over 256 kets: about 20 s for both runs.
        pytest.param("gamma1^4", 0, marks=pytest.mark.slow),
    ],
)
def test_every_start(monkeypatch, name, seed):
    solve_both(CHANNELS[name](), SolverConfig(seed=seed), monkeypatch)


def test_traced_entanglement(monkeypatch):
    # The monitor reads the merged stack: each row's Schmidt term once,
    # times the summed weight of its group.  At seed 1 start 1 keeps 9
    # rows and the others 8, so the narrower starts carry padding.
    solve_both(copies(3), SolverConfig(seed=1), monkeypatch, ent_dims=(2, 4))


def test_qutrit_replacement_channel(monkeypatch):
    # Every input goes to one fixed state, so every ket is eigh's |2>: all
    # nine components merge into one row and come back as nine.
    p = np.sqrt([0.5, 0.3, 0.2])
    kraus = [p[a] * np.outer(np.eye(3)[a], np.eye(3)[b]) for a in range(3) for b in range(3)]
    ch = Channel(np.array(kraus, dtype=complex))
    solve_both(ch, SolverConfig(seed=3), monkeypatch)
    res, seen = widths(lambda: qcap.multi_start(ch, SolverConfig(seed=3)), monkeypatch)
    assert seen[-1] == 1
    assert_allclose(res.ensemble.states, np.tile(np.diag([0.0, 0.0, 1.0]), (9, 1, 1)), atol=0)
    assert_allclose(res.ensemble.weights, np.full(9, 1 / 9), rtol=0, atol=TOL)
    assert abs(res.capacity) <= TOL


@pytest.mark.parametrize("name", ["gamma5", "gamma2xgamma4"])
def test_duplicated_start_takes_the_deduplicated_steps(name):
    # Each ket twice at half weight: the pairs step alike until they merge,
    # then as one row, so the run is the deduplicated one.
    ch = qcap.fixture_channel(name) if "x" not in name else product(*name.split("x"))
    init = initial_ensemble(ch.dim_in, ch.dim_in**2, 7, 1)
    doubled = Ensemble(np.repeat(init.weights / 2, 2), np.repeat(init.states, 2, axis=0))
    single, double = run(ch, init), run(ch, doubled)
    assert (double.iterations_used, double.converged) == (single.iterations_used, single.converged)
    assert abs(double.capacity - single.capacity) <= TOL
    pairs = double.ensemble.weights.reshape(-1, 2)
    assert_allclose(pairs.sum(axis=1), single.ensemble.weights, rtol=0, atol=WEIGHT_TOL)
    assert_allclose(pairs[:, 0], pairs[:, 1], rtol=0, atol=0)
    states = double.ensemble.states.reshape(-1, 2, ch.dim_in, ch.dim_in)
    assert_allclose(states[:, 0], states[:, 1], rtol=0, atol=0)


def test_zero_weight_duplicate_keeps_zero_weight(monkeypatch):
    ch = product("gamma2", "gamma4")
    init = initial_ensemble(4, 16, 0, 2)
    states = np.concatenate([init.states, init.states[:1]])
    padded = Ensemble(np.append(init.weights, 0.0), states)
    res, seen = widths(lambda: run(ch, padded), monkeypatch)
    assert min(seen) < 17
    assert res.ensemble.n_states == 17
    assert res.ensemble.weights[-1] == 0.0
    assert_allclose(res.ensemble.states[-1], res.ensemble.states[0], rtol=0, atol=0)
    assert abs(res.capacity - run(ch, init).capacity) <= TOL


def test_merge_fires_on_three_copies(monkeypatch):
    # The converged gamma1^(x)3 ensemble holds 8 distinct states among 64,
    # and by the last update start 0 iterates each of them once.
    res, seen = widths(lambda: run(copies(3), initial_ensemble(8, 64, 0, 0)), monkeypatch)
    assert res.converged and res.ensemble.n_states == 64
    assert seen[0] == 64
    assert seen[-1] <= 8
