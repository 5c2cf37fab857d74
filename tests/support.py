"""Shared helpers and independent oracles for the test suite.

The oracles are deliberately written against raw numpy (not the
package's own linalg helpers) so that agreement between a test and the
library is evidence, not circularity.  The parity harness at the end
runs the solver's own kernel twice, once with a part of it replaced by
a reference, and compares the runs.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import qcap
from qcap import Channel, tensor

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = np.stack([PAULI_X, PAULI_Y, PAULI_Z])


def vn_entropy(rho, floor=1e-12):
    """von Neumann entropy from eigenvalues, in nats."""
    w = np.linalg.eigvalsh(np.asarray(rho, dtype=complex))
    return float(-(w * np.log(np.maximum(w, floor))).sum())


def exp_herm(H):
    """Matrix exponential of a Hermitian matrix via eigendecomposition."""
    w, V = np.linalg.eigh(np.asarray(H, dtype=complex))
    return (V * np.exp(w)) @ V.conj().T


def log_psd(rho, floor=1e-12):
    """Matrix logarithm of a PSD matrix via eigendecomposition, eigenvalues floored."""
    w, V = np.linalg.eigh(np.asarray(rho, dtype=complex))
    return (V * np.log(np.maximum(w, floor))) @ V.conj().T


def apply_channel(ch, rho):
    """`sum_k s_k V_k rho V_k^dag`, summed over the generators as written."""
    return np.einsum("k,kai,ij,kbj->ab", ch.signs, ch.kraus, rho, ch.kraus.conj())


def phi_operator(sigma, rho, ch):
    """`Phi = log G(sigma) - log G(rho)`, the solver's ascent operator."""
    return log_psd(apply_channel(ch, sigma)) - log_psd(apply_channel(ch, rho))


def bloch_state(theta):
    """Density matrix `(I + theta . sigma) / 2` of a Bloch vector."""
    return (np.eye(2) + np.einsum("i,iab->ab", np.asarray(theta, dtype=float), PAULIS)) / 2


def bloch_vector(rho):
    """Bloch vector of a qubit operator, `Re Tr[sigma_i rho]` per axis."""
    return np.einsum("iab,ba->i", PAULIS, np.asarray(rho, dtype=complex)).real


def matrix_to_wire(M):
    """A complex array as the nested `[re, im]` lists of a channel file."""
    M = np.asarray(M, dtype=complex)
    return np.stack([M.real, M.imag], axis=-1).tolist()


def channel_to_dict(ch):
    """A channel's descriptor; one built from affine data keeps kind 'affine_qubit'."""
    if ch.origin is not None:
        return {
            "name": ch.name,
            "kind": "affine_qubit",
            "affine": {"A": ch.origin.A.tolist(), "b": ch.origin.b.tolist()},
        }
    if not np.all(ch.signs == 1.0):
        raise ValueError("signed channels without affine origin have no descriptor form")
    return {"name": ch.name, "kind": "kraus", "kraus": matrix_to_wire(ch.kraus)}


def save_channel(ch, path):
    """Write a channel's descriptor as a formatted JSON file."""
    Path(path).write_text(json.dumps(channel_to_dict(ch), indent=2, sort_keys=True) + "\n")


def random_density(rng, dim, rank=None):
    """Random full-rank (or fixed-rank) density matrix."""
    rank = dim if rank is None else rank
    G = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = G @ G.conj().T
    return rho / np.trace(rho).real


def random_hermitian(rng, dim, scale=1.0):
    G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * (G + G.conj().T) / 2


def random_hermitians(rng, n, d, scale=1.0):
    G = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
    return scale * (G + G.conj().swapaxes(1, 2)) / 2


def random_qubit_kraus(rng, n_kraus):
    """Kraus stack `(n_kraus, 2, 2)` cut from a random Stinespring isometry.

    The isometry is the Q factor of a complex Gaussian `(2 n_kraus, 2)`
    matrix, so the channel is trace preserving to rounding.
    """
    G = rng.standard_normal((2 * n_kraus, 2)) + 1j * rng.standard_normal((2 * n_kraus, 2))
    Q, _ = np.linalg.qr(G)
    return Q.reshape(n_kraus, 2, 2)


def large_entry_kraus():
    """Two 3 x 3 generators with entries near 1e4, far from trace preserving.

    Their Choi operator's rounding leaves it about 2e-8 from Hermitian,
    far past `linalg.HERM_ATOL`.
    """
    rng = np.random.default_rng(0)
    return (rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3))) * 1e4


def random_pure_ensemble(rng, dim, n):
    """Uniform ensemble over n random pure states (plain numpy construction)."""
    psi = rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    states = np.einsum("na,nb->nab", psi, psi.conj())
    return np.full(n, 1.0 / n), states


def merged_components(weights, states, weight_tol=1e-4, state_tol=1e-4):
    """Collapse an ensemble to its distinct components.

    Components below `weight_tol` are dropped; the rest are clustered by
    max-abs distance between density matrices and their weights summed.
    Returns (weights, states) sorted by descending weight.
    """
    reps: list[np.ndarray] = []
    sums: list[float] = []
    order = np.argsort(weights)[::-1]
    for i in order:
        if weights[i] < weight_tol:
            continue
        for j, rep in enumerate(reps):
            if np.abs(states[i] - rep).max() < state_tol:
                sums[j] += weights[i]
                break
        else:
            reps.append(states[i])
            sums.append(float(weights[i]))
    order = np.argsort(sums)[::-1]
    return np.array(sums)[order], [reps[i] for i in order]


def binary_entropy(p):
    """`h(p)` in nats, clipped away from 0 and 1."""
    p = np.clip(p, 1e-300, 1 - 1e-16)
    return -p * np.log(p) - (1 - p) * np.log1p(-p)


def affine_holevo_quantity(A, b, weights, states):
    """Holevo quantity of a qubit ensemble sent through the map r -> A r + b.

    Works on Bloch vectors alone: the entropy of a qubit state depends
    only on the length of its Bloch vector.  In nats.
    """
    weights = np.asarray(weights, dtype=float)
    r = np.array(
        [[np.trace(rho @ P).real for P in (PAULI_X, PAULI_Y, PAULI_Z)] for rho in states]
    )
    w = r @ np.asarray(A, dtype=float).T + np.asarray(b, dtype=float)
    S = binary_entropy((1 + np.linalg.norm(w, axis=1)) / 2)
    S_avg = binary_entropy((1 + np.linalg.norm(weights @ w)) / 2)
    return float(S_avg - weights @ S)


def _pair_grid_best(A, b, th1, ph1, th2, ph2, lams):
    # Best two-point mutual information over the outer product of two
    # Bloch angular grids and a weight grid, evaluated through output
    # Bloch radii only (entropy of a qubit state depends on |r| alone).
    def outputs(th, ph):
        T, P = np.meshgrid(th, ph, indexing="ij")
        n = np.stack(
            [np.sin(T) * np.cos(P), np.sin(T) * np.sin(P), np.cos(T)], axis=-1
        ).reshape(-1, 3)
        return n @ A.T + b

    w1 = outputs(th1, ph1)
    w2 = outputs(th2, ph2)
    S1 = binary_entropy((1 + np.linalg.norm(w1, axis=1)) / 2)
    S2 = binary_entropy((1 + np.linalg.norm(w2, axis=1)) / 2)
    n1sq = (w1 * w1).sum(axis=1)
    n2sq = (w2 * w2).sum(axis=1)
    best_val = -np.inf
    best_idx = (0, 0, 0.5)
    chunk = 512
    for i0 in range(0, len(w1), chunk):
        G = w1[i0 : i0 + chunk] @ w2.T
        a2 = n1sq[i0 : i0 + chunk][:, None]
        b2 = n2sq[None, :]
        s1 = S1[i0 : i0 + chunk][:, None]
        s2 = S2[None, :]
        for lam in lams:
            mix_sq = lam * lam * a2 + (1 - lam) ** 2 * b2 + 2 * lam * (1 - lam) * G
            r = np.sqrt(np.clip(mix_sq, 0.0, None))
            val = binary_entropy((1 + r) / 2) - lam * s1 - (1 - lam) * s2
            k = int(np.argmax(val))
            if val.flat[k] > best_val:
                best_val = float(val.flat[k])
                ci, j = np.unravel_index(k, val.shape)
                best_idx = (i0 + ci, int(j), float(lam))
    return best_val, best_idx


def two_point_bloch_oracle(A, b):
    """Brute-force two-point capacity of an affine qubit channel.

    Pure grid search over two Bloch-sphere points and a mixing weight:
    a global coarse pass followed by three local zooms, ending at an
    effective angular resolution far finer than 200x100 per state and a
    weight resolution finer than 1e-3.  Knows nothing about the
    iterative solver.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    th = np.linspace(0, np.pi, 25)
    ph = np.linspace(0, 2 * np.pi, 50, endpoint=False)
    lams = np.linspace(0, 1, 101)
    val, (i, j, lam) = _pair_grid_best(A, b, th, ph, th, ph, lams)
    t1, p1 = th[i // len(ph)], ph[i % len(ph)]
    t2, p2 = th[j // len(ph)], ph[j % len(ph)]
    dth, dph, dl = th[1] - th[0], ph[1] - ph[0], lams[1] - lams[0]
    for _ in range(3):
        th1 = np.linspace(max(t1 - dth, 0), min(t1 + dth, np.pi), 17)
        ph1 = np.linspace(p1 - dph, p1 + dph, 17)
        th2 = np.linspace(max(t2 - dth, 0), min(t2 + dth, np.pi), 17)
        ph2 = np.linspace(p2 - dph, p2 + dph, 17)
        lams = np.linspace(max(lam - dl, 0), min(lam + dl, 1), 21)
        val, (i, j, lam) = _pair_grid_best(A, b, th1, ph1, th2, ph2, lams)
        t1, p1 = th1[i // len(ph1)], ph1[i % len(ph1)]
        t2, p2 = th2[j // len(ph2)], ph2[j % len(ph2)]
        dth, dph, dl = th1[1] - th1[0], ph1[1] - ph1[0], lams[1] - lams[0]
    return val


def identity_channel(dim=2):
    return Channel(np.eye(dim, dtype=complex)[None])


def replacement_channel(probs):
    """Every input goes to `diag(probs)`: generators `sqrt(p_a) |a><b|`."""
    p = np.sqrt(probs)
    e = np.eye(len(p))
    return Channel(np.array([p[a] * np.outer(e[a], b) for a in range(len(p)) for b in e]))


def weyl_depolarizing(p):
    """Qutrit `(1 - p) rho + p I/3` from the nine Weyl operators `X^a Z^b`."""
    omega = np.exp(2j * np.pi / 3)
    X = np.roll(np.eye(3), 1, axis=0)
    Z = np.diag(omega ** np.arange(3))
    weyl = [np.linalg.matrix_power(X, a) @ np.linalg.matrix_power(Z, b) for a in range(3) for b in range(3)]
    coef = np.sqrt([1 - 8 * p / 9] + [p / 9] * 8)
    return Channel(np.array([c * W for c, W in zip(coef, weyl)]))


def product(*names):
    """Tensor product of the named fixture channels, in order."""
    return functools.reduce(tensor, [qcap.fixture_channel(name) for name in names])


def every_start(ch, config, ent_dims=None):
    """The results of every start `multi_start` makes, each validated."""
    cfg = config.resolved(ch)
    starts = qcap.solver._starts(ch.dim_in, cfg.n_states, cfg.seed, range(cfg.starts))
    ends, to_states = qcap.solver._iterate(ch, *starts, cfg, ent_dims)
    return [qcap.solver._result(end, i, to_states) for i, end in enumerate(ends)]


def patched(solve, **replacements):
    """`solve()` with the named bindings of `qcap.solver` replaced."""
    with pytest.MonkeyPatch.context() as m:
        for name, value in replacements.items():
            m.setattr(qcap.solver, name, value)
        return solve()


def assert_same_runs(reference, shipped, tol, weight_tol):
    """Two lists of results take the same iterations to the same numbers.

    Capacities and traces agree within `tol`, weights and weight-scaled
    states within `weight_tol`.
    """
    for r, s in zip(reference, shipped, strict=True):
        assert (r.iterations_used, r.converged) == (s.iterations_used, s.converged)
        assert abs(r.capacity - s.capacity) <= tol
        assert_allclose(r.trace.mutual_info, s.trace.mutual_info, rtol=0, atol=tol)
        if r.trace.ent is not None:
            assert_allclose(r.trace.ent, s.trace.ent, rtol=0, atol=tol)
        assert r.ensemble.n_states == s.ensemble.n_states
        assert_allclose(r.ensemble.weights, s.ensemble.weights, rtol=0, atol=weight_tol)
        # States are compared weighted: a state's part in every reported
        # number scales with its weight, and the iteration amplifies
        # rounding in a state whose weight vanishes (on the ket step
        # alone, nudging one start by 1e-15 moved a state of weight 3e-5
        # by 2e-11 over 156 iterations).
        dev = np.abs(r.ensemble.states - s.ensemble.states).max(axis=(1, 2))
        assert (r.ensemble.weights * dev).max() <= weight_tol


_HUGE = "1" + "0" * 399  # an integer literal no 64-bit type holds
_IDENTITY_A = "[[1, 0, 0], [0, 1, 0], [0, 0, 1]]"


def _kraus_file(kraus: str, name: str = '"x"') -> bytes:
    return f'{{"name": {name}, "kind": "kraus", "kraus": {kraus}}}'.encode()


def _affine_file(A: str = _IDENTITY_A, b: str = "[0, 0, 0]", name: str = '"x"') -> bytes:
    return f'{{"name": {name}, "kind": "affine_qubit", "affine": {{"A": {A}, "b": {b}}}}}'.encode()


# Malformed channel files, by case: the file's bytes and a fragment of the
# one error that loading it must raise.
MALFORMED_FILES = {
    "kraus-huge-integer": (_kraus_file(f"[[[[{_HUGE}, 0], [0, 0]], [[0, 0], [1, 0]]]]"),
                           "kraus must be"),
    "kraus-2**64": (_kraus_file("[[[[18446744073709551616, 0], [0, 0]], [[0, 0], [1, 0]]]]"),
                    "integers too large"),
    "kraus-string": (_kraus_file('[[[["1", 0], [0, 0]], [[0, 0], [1, 0]]]]'), "not JSON numbers"),
    "kraus-ragged-rows": (_kraus_file("[[[[1, 0]], [[0, 0], [1, 0]]]]"), "ragged"),
    "kraus-mixed-shapes": (_kraus_file("[[[[1, 0], [0, 0]], [[0, 0], [1, 0]]], [[[1, 0]]]]"),
                           "ragged"),
    "kraus-triples": (_kraus_file("[[[[1, 0, 0], [0, 0, 0]], [[0, 0, 0], [1, 0, 0]]]]"),
                      "3 numbers, not 2"),
    "kraus-empty": (_kraus_file("[]"), "nest 1 deep, not 4"),
    "kraus-empty-generator": (_kraus_file("[[]]"), "nest 2 deep, not 4"),
    "kraus-zero-dimension": (_kraus_file("[[[]]]"), "nest 3 deep, not 4"),
    "affine-huge-integer": (_affine_file(A=f"[[{_HUGE}, 0, 0], [0, 1, 0], [0, 0, 1]]"),
                            "A must be"),
    "affine-numeric-string": (_affine_file(A='[["0.5", 0, 0], [0, 1, 0], [0, 0, 1]]'),
                              "A must be"),
    "affine-null": (_affine_file(b="[0, null, 0]"), "b must be"),
    "affine-flat-matrix": (_affine_file(A="[1, 0, 0, 0, 1, 0, 0, 0, 1]"), "nest 1 deep, not 2"),
    "name-nan": (_affine_file(name="NaN"), "name must be a string or null, got float"),
    "name-object": (_affine_file(name='{"a": [1]}'), "name must be a string or null, got dict"),
    "deeply-nested": (_kraus_file("[" * 100_000 + "]" * 100_000), "invalid JSON"),
    # A valid descriptor but for its encoding: "café" in Latin-1, not UTF-8.
    "name-latin-1": (_affine_file(name='"café"').decode().encode("latin-1"),
                     "'utf-8' codec can't decode byte 0xe9"),
}
