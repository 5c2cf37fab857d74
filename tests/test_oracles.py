"""Channels whose capacity is known in closed form, against the solver.

- Unital qubit maps `theta -> R1 diag(lam) R2 theta`, with R1 and R2
  rotations: `C = log 2 - h((1 + max|lam_i|) / 2)` (King,
  quant-ph/0103156).  These take the Pauli step.
- The Weyl depolarizing qutrit `(1 - p) rho + p I/3`:
  `C = log 3 + a log a + 2 b log b`, with `a = 1 - 2p/3` and `b = p/3`.
  It takes the ket step.
- Two copies of a qubit depolarizing channel D: `C(D (x) D) = 2 C(D)`
  (King, quant-ph/0204172), on the ket step at d = 4.
- The Werner-Holevo qutrit `(I - rho^T) / 2`: covariant, with minimal
  output entropy log 2, so `C = log 3 - log 2` (Werner-Holevo,
  quant-ph/0203003).  It takes the ket step.
- The measure-and-prepare qubit map E with generators `|0><0|` and
  `|+><1|`, entanglement breaking: `C(E) = h((1 + 1/sqrt 2) / 2)`, the
  entropy of the average of its two equiprobable outputs, and
  `C(E (x) G) = C(E) + C(G)` for every G (Shor, quant-ph/0201149).

Every bound is one-sided from `I(pi) <= C`: a reported capacity is the
mutual information of the ensemble the solver returns, so it lies above
C by rounding alone, and the stop rule, which settles `decimal_places`
decimals of it, leaves it at most `10 ** -decimal_places` below C.  The
sum rule compares three such solves, so its bound on `c(E (x) G) - c(E)
- c(G)` is two-sided.
"""

import numpy as np
import pytest

import qcap
from qcap import AffineQubit, Channel, SolverConfig, affine_to_channel, multi_start, tensor, validate
from support import PAULIS, binary_entropy, werner_holevo, weyl_depolarizing

CONFIG = SolverConfig(seed=3)
BELOW = 10.0 ** -CONFIG.decimal_places


def above(ch):
    # How far a computed `I(pi)` may exceed the exact one.  An entropy's
    # log clamps an eigenvalue w below `LOG_FLOOR` to the floor, which
    # lowers `-w log w` by at most `LOG_FLOOR / e`, so an output entropy by
    # at most `d_out LOG_FLOOR / e`; I subtracts a weighted mean of output
    # entropies, so it rises by at most that.  The remaining
    # `(1 - 1/e) d_out LOG_FLOOR`, over 5000 eps at d_out = 2, covers the
    # eps-level rounding of the entropies, each at most log d_out, that I
    # sums, and of the channel the solver holds.
    return ch.dim_out * qcap.linalg.LOG_FLOOR


def assert_capacity(ch, C):
    got = multi_start(ch, CONFIG).capacity
    assert C - BELOW <= got <= C + above(ch)


def rotation(rng):
    Q, R = np.linalg.qr(rng.standard_normal((3, 3)))
    Q = Q * np.sign(np.diag(R))
    return Q * np.linalg.det(Q)


def unital_qubit_maps(count):
    # Seeded draws of `lam` uniform in the cube; the CP ones are kept.
    rng = np.random.default_rng(29)
    maps = []
    while len(maps) < count:
        lam = rng.uniform(-1, 1, 3)
        ch = affine_to_channel(AffineQubit(rotation(rng) @ np.diag(lam) @ rotation(rng), np.zeros(3)))
        if validate(ch).passed:
            maps.append((lam, ch))
    return maps


@pytest.mark.parametrize("lam, ch", unital_qubit_maps(30), ids=[f"map{i}" for i in range(30)])
def test_unital_qubit_capacity(lam, ch):
    assert qcap.solver._pauli_path(ch, None)
    assert_capacity(ch, np.log(2) - binary_entropy((1 + np.abs(lam).max()) / 2))


@pytest.mark.parametrize("p", [0.2, 0.4, 0.7])
def test_weyl_depolarizing_qutrit_capacity(p):
    ch = weyl_depolarizing(p)
    assert validate(ch).passed and not qcap.solver._pauli_path(ch, None)
    a, b = 1 - 2 * p / 3, p / 3
    assert_capacity(ch, np.log(3) + a * np.log(a) + 2 * b * np.log(b))


def qubit_depolarizing(p):
    # `(1 - p) rho + p I/2`: Bloch vectors shrink by 1 - p.
    return Channel(np.concatenate([[np.sqrt(1 - 3 * p / 4) * np.eye(2)], np.sqrt(p / 4) * PAULIS]))


@pytest.mark.parametrize("p", [0.1, 0.3, 0.6])
def test_two_depolarizing_copies_double_the_capacity(p):
    D = qubit_depolarizing(p)
    assert validate(D).passed
    C = np.log(2) - binary_entropy(1 - p / 2)  # Bloch radius 1 - p
    assert_capacity(D, C)
    assert_capacity(tensor(D, D), 2 * C)


def test_werner_holevo_qutrit_capacity():
    ch = werner_holevo(3)
    assert validate(ch).passed and not qcap.solver._pauli_path(ch, None)
    assert_capacity(ch, np.log(3 / 2))


# Measure in the computational basis, prepare |0> or |+>.
KET_0, KET_1, KET_PLUS = np.array([1, 0]), np.array([0, 1]), np.array([1, 1]) / np.sqrt(2)
MEASURE_PREPARE = Channel(np.array([np.outer(KET_0, KET_0), np.outer(KET_PLUS, KET_1)]))


def test_measure_prepare_capacity():
    assert validate(MEASURE_PREPARE).passed
    assert_capacity(MEASURE_PREPARE, binary_entropy((1 + 1 / np.sqrt(2)) / 2))


@pytest.mark.parametrize("name", ["gamma1", "gamma5", "gamma6"])
def test_entanglement_breaking_factor_adds_its_capacity(name):
    E, G = MEASURE_PREPARE, qcap.fixture_channel(name)
    EG = tensor(E, G)
    c_EG, c_E, c_G = (multi_start(ch, CONFIG).capacity for ch in (EG, E, G))
    gap = c_EG - c_E - c_G
    # Each solve lies in [C - BELOW, C + above] of its own channel (module
    # docstring), and C(E (x) G) = C(E) + C(G), so the gap is at least the
    # product's shortfall less both factors' excesses, and at most the
    # product's excess plus both factors' shortfalls.
    assert -BELOW - above(E) - above(G) <= gap <= above(EG) + 2 * BELOW
