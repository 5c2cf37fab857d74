"""The ket step's top kets by inverse iteration against a full eigh.

`solver._ascend` takes the top ket of each dual image from
`linalg._top_kets`, its one entry point for top kets: inverse iteration
from the row's previous ket where Weyl's and Temple's bounds certify it,
else one eigvalsh and inverse iteration, with eigh only for rows that
have no gap below the top.  Here the same solves run once with
`_top_kets` replaced by the last column of a full eigh, as the step took
it before, and once as shipped, and must take the same iterations to the
same numbers.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import qcap
from qcap import Ensemble, SolverConfig
from qcap.linalg import _herm_operators
from support import (
    assert_same_runs,
    every_start,
    patched,
    product,
    replacement_channel,
    weyl_depolarizing,
)

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
# weighted (`support.assert_same_runs`), since the iteration amplifies
# rounding in a state whose weight vanishes.
WEIGHT_TOL = 1e-10


def refuse(*args, **kwargs):
    pytest.fail("the reference run took a top ket around the patched `_top_kets`")


def reference(solve):
    # The solve with every top ket taken from a full eigh.  `_top_kets` must
    # be the step's only way to a top ket: the run calls the patch once per
    # update and makes no solve and no eigvalsh (none of these solves traces
    # entanglement), so no second entry point can stand in for it.
    calls = []

    def eigh_top_kets(y, start, bounds):
        calls.append(len(y))
        return np.linalg.eigh(_herm_operators(y))[1][..., -1]

    with pytest.MonkeyPatch.context() as m:
        m.setattr(np.linalg, "solve", refuse)
        m.setattr(np.linalg, "eigvalsh", refuse)
        results = patched(solve, _top_kets=eigh_top_kets)
    assert len(calls) == max(r.iterations_used for r in results) - 1
    return results


def on_both(solve):
    return reference(solve), solve()


def solve_both(ch, cfg):
    assert not qcap.solver._pauli_path(ch, None)
    assert_same_runs(*on_both(lambda: every_start(ch, cfg)), TOL, WEIGHT_TOL)


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
def test_every_start(name, seed):
    solve_both(product(*name.split("x")), SolverConfig(seed=seed))


def test_qutrit_replacement_channel():
    # Every input goes to one fixed state, so every dual image is a
    # multiple of the identity: both runs take eigh's |2> and capacity 0.
    ch = replacement_channel([0.5, 0.3, 0.2])
    solve_both(ch, SolverConfig(seed=3))
    res = qcap.multi_start(ch, SolverConfig(seed=3))
    assert_allclose(res.ensemble.states, np.tile(np.diag([0.0, 0.0, 1.0]), (9, 1, 1)), atol=0)
    assert abs(res.capacity) <= TOL


def test_qutrit_depolarizing_channel():
    ch = weyl_depolarizing(0.4)
    solve_both(ch, SolverConfig(seed=5))
    # From the maximally mixed state and |0> at equal weights the average
    # output is diag(a, b, b), so the first state's dual image is diagonal
    # with its top eigenvalue twice over; later steps start from eigh's ket.
    init = Ensemble(np.full(2, 0.5), np.array([np.eye(3) / 3, np.diag([1.0, 0, 0])], dtype=complex))
    tops = []
    top_kets = qcap.solver._top_kets

    def recording(y, start, bounds):
        w = np.linalg.eigvalsh(_herm_operators(y))
        tops.append(w[:, -1] - w[:, -2] <= qcap.linalg.TOP_GAP_REL * np.abs(w).max(axis=1))
        return top_kets(y, start, bounds)

    patched(lambda: qcap.run(ch, init), _top_kets=recording)
    assert tops[0].tolist() == [True, False]
    assert_same_runs(*on_both(lambda: [qcap.run(ch, init)]), TOL, WEIGHT_TOL)
