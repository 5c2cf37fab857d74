"""Hermitian linear algebra helpers shared by the channel and solver code.

Everything here works on plain complex numpy arrays.  Matrices are
row-major, states live on tensor factors ordered left to right, and the
matrix logarithm is the natural one (entropies downstream are in nats).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

HERM_ATOL = 1e-10
PSD_ATOL = 1e-9
LOG_FLOOR = 1e-12

_MINUS_PLUS = np.array([-1.0, 1.0])
_TINY = np.finfo(float).tiny


class EigenDecomposition(NamedTuple):
    """Eigenvalues in descending order, eigenvectors as matching columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _require_square(M: np.ndarray, name: str) -> np.ndarray:
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {M.shape}")
    return M


def _require_hermitian(M: np.ndarray, name: str, atol: float = HERM_ATOL) -> np.ndarray:
    M = _require_square(M, name)
    dev = np.abs(M - M.conj().T).max() if M.size else 0.0
    if not (dev <= atol):
        raise ValueError(f"{name} is not Hermitian (max deviation {dev:.3e})")
    return M


def hermitize(M: np.ndarray) -> np.ndarray:
    """Project onto the Hermitian part, `(M + M†)/2`, of a matrix or a stack.

    Used to scrub the order-1e-16 asymmetry that accumulates in products
    of Hermitian factors before feeding them back into an eigensolver.
    """
    M = np.asarray(M)
    # Halved in place: the iteration hermitizes several stacks per step.
    H = np.add(M, M.conj().swapaxes(-1, -2), dtype=np.result_type(M.dtype, 0.5))
    H /= 2
    return H


def herm_eig(H: np.ndarray) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix with a fixed convention.

    Eigenvalues come back in descending order.  Each eigenvector is
    rephased so that its first component of magnitude above 1e-12 is real
    and positive, which makes the output deterministic for identical
    input instead of depending on LAPACK's arbitrary phases.

    Raises ValueError if `H` is not square or deviates from Hermiticity
    by more than 1e-10 in any entry.
    """
    H = _require_hermitian(H, "H")
    w, V = np.linalg.eigh(H)
    order = np.argsort(w)[::-1]
    w = w[order]
    V = V[:, order]
    for j in range(V.shape[1]):
        col = V[:, j]
        idx = np.flatnonzero(np.abs(col) > 1e-12)
        if idx.size:
            pivot = col[idx[0]]
            col *= np.abs(pivot) / pivot
    return EigenDecomposition(w, V)


def matrix_log_psd(P: np.ndarray, floor: float = LOG_FLOOR) -> np.ndarray:
    """Hermitian logarithm of a positive semidefinite matrix.

    Eigenvalues below `floor` are clamped to `floor` before taking logs,
    so rank-deficient density matrices get a large negative but finite
    log on their kernel.  An eigenvalue below -1e-9 means the input is
    not PSD and raises ValueError.
    """
    P = _require_hermitian(P, "P")
    w_min = np.linalg.eigvalsh(P)[0]
    if w_min < -PSD_ATOL:
        raise ValueError(f"matrix is not PSD (min eigenvalue {w_min:.3e})")
    return _log_psd_batch(P[None], floor)[0]


def kron(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Kronecker product with the left factor on the first tensor slot."""
    return np.kron(np.asarray(A), np.asarray(B))


def partial_trace(X: np.ndarray, dim_a: int, dim_b: int, keep: str) -> np.ndarray:
    """Trace out one tensor factor of a bipartite operator.

    `X` acts on a space of dimension `dim_a * dim_b`; `keep` selects
    which factor survives, "first" or "second".
    """
    da, db = dim_a, dim_b
    X = _require_square(X, "X")
    if X.shape[0] != da * db:
        raise ValueError(f"operator has dimension {X.shape[0]}, expected {da * db}")
    T = X.reshape(da, db, da, db)
    if keep == "first":
        return np.trace(T, axis1=1, axis2=3)
    if keep == "second":
        return np.trace(T, axis1=0, axis2=2)
    raise ValueError(f"keep must be 'first' or 'second', got {keep!r}")


def trace_product(A: np.ndarray, B: np.ndarray) -> complex:
    """`Tr[A B]` without forming the product matrix."""
    A = _require_square(np.asarray(A), "A")
    B = _require_square(np.asarray(B), "B")
    if A.shape != B.shape:
        raise ValueError(f"shape mismatch {A.shape} vs {B.shape}")
    return complex(np.einsum("ij,ji->", A, B))


def _entropy_and_log(P: np.ndarray, floor: float = LOG_FLOOR) -> tuple[np.ndarray, np.ndarray]:
    # One eigh of a (..., d, d) stack gives both the von Neumann entropies
    # `-sum_j w_j log w_j` and the Hermitian logs, eigenvalues clamped at
    # `floor` inside the log.  The phase convention is skipped (both are
    # basis-independent).  Eigenvalues below `floor` are clamped without
    # complaint: callers feed channel outputs, which can dip marginally
    # below zero along the iteration when a signed map acts on entangled
    # states, and the ascent only needs the clamped log there.
    w, V = np.linalg.eigh(P)
    logs = np.log(np.maximum(w, floor))
    return -(w * logs).sum(axis=-1), hermitize((V * logs[..., None, :]) @ V.conj().swapaxes(-1, -2))


def _log_psd_batch(P: np.ndarray, floor: float = LOG_FLOOR) -> np.ndarray:
    # Batched clamped Hermitian log of a (n, d, d) stack.
    return _entropy_and_log(P, floor)[1]


def _pauli_entropy_and_log(y: np.ndarray, floor: float = LOG_FLOOR) -> tuple[np.ndarray, np.ndarray]:
    # `_entropy_and_log` of a (..., 4) stack of qubit operators given by
    # their Pauli coordinates `y = (t, r)`, `y_j = Tr[s_j P]`, in closed
    # form: P has eigenvalues `(t -+ |r|)/2`, clamped at `floor` inside the
    # log as there, and its log has coordinates
    # `(l_- + l_+, (l_+ - l_-) r / |r|)`.  No eigendecomposition.
    r = y[..., 1:]
    norm = np.sqrt(np.einsum("...j,...j->...", r, r))
    w = (y[..., :1] + norm[..., None] * _MINUS_PLUS) / 2
    logs = np.log(np.maximum(w, floor))
    # Where |r| is 0 (or below the smallest normal double) both logs are
    # equal, so any positive divisor gives the 0 that is wanted there.
    coords = y * ((logs[..., 1] - logs[..., 0]) / np.maximum(norm, _TINY))[..., None]
    coords[..., 0] = logs[..., 0] + logs[..., 1]
    return -np.einsum("...j,...j->...", w, logs), coords
