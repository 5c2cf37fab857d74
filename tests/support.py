"""Shared helpers and independent oracles for the test suite.

Everything here is deliberately written against raw numpy (not the
package's own linalg helpers) so that agreement between a test and the
library is evidence, not circularity.
"""

from __future__ import annotations

import numpy as np

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def vn_entropy(rho, floor=1e-12):
    """von Neumann entropy from eigenvalues, in nats."""
    w = np.linalg.eigvalsh(np.asarray(rho, dtype=complex))
    return float(-(w * np.log(np.maximum(w, floor))).sum())


def exp_herm(H):
    """Matrix exponential of a Hermitian matrix via eigendecomposition."""
    w, V = np.linalg.eigh(np.asarray(H, dtype=complex))
    return (V * np.exp(w)) @ V.conj().T


def random_density(rng, dim, rank=None):
    """Random full-rank (or fixed-rank) density matrix."""
    rank = dim if rank is None else rank
    G = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = G @ G.conj().T
    return rho / np.trace(rho).real


def random_hermitian(rng, dim, scale=1.0):
    G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * (G + G.conj().T) / 2


def random_qubit_kraus(rng, n_kraus):
    """Kraus stack `(n_kraus, 2, 2)` cut from a random Stinespring isometry.

    The isometry is the Q factor of a complex Gaussian `(2 n_kraus, 2)`
    matrix, so the channel is trace preserving to rounding.
    """
    G = rng.standard_normal((2 * n_kraus, 2)) + 1j * rng.standard_normal((2 * n_kraus, 2))
    Q, _ = np.linalg.qr(G)
    return Q.reshape(n_kraus, 2, 2)


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


def _binary_entropy(p):
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
    S = _binary_entropy((1 + np.linalg.norm(w, axis=1)) / 2)
    S_avg = _binary_entropy((1 + np.linalg.norm(weights @ w)) / 2)
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
    S1 = _binary_entropy((1 + np.linalg.norm(w1, axis=1)) / 2)
    S2 = _binary_entropy((1 + np.linalg.norm(w2, axis=1)) / 2)
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
            val = _binary_entropy((1 + r) / 2) - lam * s1 - (1 - lam) * s2
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
