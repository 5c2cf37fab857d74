"""Relations that hold for every channel, golden values or none.

A map's `validate` verdict and its capacity belong to the map, not to
how its generators are written: adding a cancelling pair `(a W, +1)`,
`(a W, -1)`, or splitting a generator V into two copies of V / sqrt(2),
leaves both as they are.  The maps are seeded, and each base channel
takes a different path: amplitude damping is a CP qubit map (the Pauli
step), `gamma3` is not CP, and `gamma5` is a qutrit map (the ket step).
"""

import numpy as np
import pytest

import qcap
from qcap import Channel, SolverConfig, multi_start, validate

# Amplitude damping at gamma = 0.3.
AMPLITUDE_DAMPING = np.array(
    [[[1, 0], [0, np.sqrt(0.7)]], [[0, np.sqrt(0.3)], [0, 0]]], dtype=complex
)


def base_channel(name):
    if name == "amplitude-damping":
        return Channel(AMPLITUDE_DAMPING)
    ch = qcap.fixture_channel(name)
    return Channel(ch.kraus, ch.signs)  # without the affine data, as its rewrites are


def rewritten(ch, how):
    # The same map with its generators written another way.
    K, s = ch.kraus, ch.signs
    if how == "split":
        half = K[:1] / np.sqrt(2)
        return Channel(np.concatenate([half, half, K[1:]]), np.concatenate([s[:1], s]))
    a = float(how.removeprefix("pair-"))
    d = ch.dim_in
    G = np.random.default_rng(21).standard_normal((2, d, d))
    U, _ = np.linalg.qr(G[0] + 1j * G[1])
    return Channel(np.concatenate([K, [a * U, a * U]]), np.concatenate([s, [1.0, -1.0]]))


@pytest.mark.parametrize("how", ["pair-1e4", "pair-1e5", "split"])
@pytest.mark.parametrize("name", ["amplitude-damping", "gamma3", "gamma5"])
def test_rewritten_generators_keep_verdict_and_capacity(name, how):
    ch = base_channel(name)
    new = rewritten(ch, how)
    before, after = validate(ch), validate(new)
    assert (after.tp_ok, after.cp_ok, after.passed) == (before.tp_ok, before.cp_ok, before.passed)
    assert before.tp_ok and before.cp_ok == (name != "gamma3")
    cfg = SolverConfig(seed=3)
    # Both solves meet one stop rule, which fixes a capacity to
    # `decimal_places` decimals, and the rewritten map equals the original
    # only up to the rounding of its summed terms, which `validate` allows
    # as `4 eps sum_k ||V_k||_F^2` on the Choi operator.
    size = np.vdot(new.kraus, new.kraus).real
    tol = 10.0 ** -cfg.decimal_places + 4 * np.finfo(float).eps * size
    assert abs(multi_start(new, cfg).capacity - multi_start(ch, cfg).capacity) <= tol
