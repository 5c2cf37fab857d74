"""The ket step's merge of coincident kets against an unmerged run.

Every `MERGE_EVERY` updates `solver._iterate` merges the kets of each
start that lie within `MERGE_TOL` of one another into one row with their
summed weight, and expands each result back to all components.  Here
the same solves run once with `_merge` replaced by a no-op, as the step
ran before, and once as shipped, and must take the same iterations to
the same numbers.
"""

import inspect

import numpy as np
import pytest
from numpy.testing import assert_allclose

import qcap
from qcap import Ensemble, SolverConfig, initial_ensemble, run
from support import assert_same_runs, every_start, patched, product, replacement_channel

# Exact duplicates stay exact duplicates and keep their weight ratio, so
# merging them changes the run by rounding alone; a merged near-duplicate
# moves its state by at most MERGE_TOL = 1e-12, and capacities and traces
# move only at second order in the states near the optimum.
TOL = 1e-12
# Weights are rescaled by `exp(score)` every iteration, so a rounding-level
# difference in a score compounds over the run.  States are compared
# weighted (`support.assert_same_runs`), since the iteration amplifies
# rounding in a state whose weight vanishes.
WEIGHT_TOL = 1e-10


def no_merge(weights, kets, tops, outs, rows, groups, shares):
    return weights, kets, tops, outs


def recording_ascend(seen):
    # `_ascend`, recording the row count of every stack it takes in `seen`.
    ascend = qcap.solver._ascend

    def recording(R, weights, phis, kets, tops):
        seen.append(weights.shape[1])
        return ascend(R, weights, phis, kets, tops)

    return recording


def widths(solve):
    # The solve's result, and the row count of every stack `_ascend` took.
    seen = []
    return patched(solve, _ascend=recording_ascend(seen)), seen


def test_patches_keep_the_real_signatures():
    # A patch that took `*args` would run whatever the step passed it, and
    # one that dropped a stack would hand the step back the wrong arrays.
    def names(fn):
        return list(inspect.signature(fn).parameters)

    assert names(no_merge) == names(qcap.solver._merge)
    assert names(recording_ascend([])) == names(qcap.solver._ascend)


def solve_both(ch, cfg, ent_dims=None):
    # The shipped run must merge.
    assert not qcap.solver._pauli_path(ch, ent_dims)
    reference = patched(lambda: every_start(ch, cfg, ent_dims), _merge=no_merge)
    shipped, seen = widths(lambda: every_start(ch, cfg, ent_dims))
    assert min(seen) < cfg.resolved(ch).n_states
    assert_same_runs(reference, shipped, TOL, WEIGHT_TOL)


CHANNELS = {
    "gamma1^3": lambda: product(*["gamma1"] * 3),
    "gamma1^4": lambda: product(*["gamma1"] * 4),
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
def test_every_start(name, seed):
    solve_both(CHANNELS[name](), SolverConfig(seed=seed))


def test_traced_entanglement():
    # The monitor reads the merged stack: each row's Schmidt term once,
    # times the summed weight of its group.  At seed 1 start 1 keeps 9
    # rows and the others 8, so the narrower starts carry padding.
    solve_both(product(*["gamma1"] * 3), SolverConfig(seed=1), ent_dims=(2, 4))


def test_qutrit_replacement_channel():
    # Every input goes to one fixed state, so every ket is eigh's |2>: all
    # nine components merge into one row and come back as nine.
    ch = replacement_channel([0.5, 0.3, 0.2])
    solve_both(ch, SolverConfig(seed=3))
    res, seen = widths(lambda: qcap.multi_start(ch, SolverConfig(seed=3)))
    assert seen[-1] == 1
    assert_allclose(res.ensemble.states, np.tile(np.diag([0.0, 0.0, 1.0]), (9, 1, 1)), atol=0)
    assert_allclose(res.ensemble.weights, np.full(9, 1 / 9), rtol=0, atol=TOL)
    assert abs(res.capacity) <= TOL


@pytest.mark.parametrize("name", ["gamma5", "gamma2xgamma4"])
def test_duplicated_start_takes_the_deduplicated_steps(name):
    # Each ket twice at half weight: the pairs step alike until they merge,
    # then as one row, so the run is the deduplicated one.
    ch = product(*name.split("x"))
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


def test_zero_weight_duplicate_keeps_zero_weight():
    ch = product("gamma2", "gamma4")
    init = initial_ensemble(4, 16, 0, 2)
    states = np.concatenate([init.states, init.states[:1]])
    padded = Ensemble(np.append(init.weights, 0.0), states)
    res, seen = widths(lambda: run(ch, padded))
    assert min(seen) < 17
    assert res.ensemble.n_states == 17
    assert res.ensemble.weights[-1] == 0.0
    assert_allclose(res.ensemble.states[-1], res.ensemble.states[0], rtol=0, atol=0)
    assert abs(res.capacity - run(ch, init).capacity) <= TOL


def test_merge_fires_on_three_copies():
    # The converged gamma1^(x)3 ensemble holds 8 distinct states among 64,
    # and by the last update start 0 iterates each of them once.
    res, seen = widths(lambda: run(product(*["gamma1"] * 3), initial_ensemble(8, 64, 0, 0)))
    assert res.converged and res.ensemble.n_states == 64
    assert seen[0] == 64
    assert seen[-1] <= 8
