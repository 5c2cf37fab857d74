"""Hermitian linear algebra helpers shared by the channel and solver code.

Everything here works on plain numpy arrays: complex matrices, or the
real Hermitian coordinates `h(X) = Re X + Im X` in which the solver's
step on kets runs (`_herm_coords`).  Matrices are row-major, states live
on tensor factors ordered left to right, and the matrix logarithm is the
natural one (entropies downstream are in nats).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

HERM_ATOL = 1e-10
PSD_ATOL = 1e-9
LOG_FLOOR = 1e-12

# `_top_kets` takes a ket by inverse iteration only on a row whose top
# eigenvalue stands this far above the next one, relative to the row's
# spectral radius; other rows (degenerate tops, multiples of the
# identity) take eigh's ket.  Each inverse-iteration step shrinks every
# other eigenvector in the ket by about `shift/gap`, at most 1e-6 at this
# gap and `_SHIFT_REL` below, so two steps from a fixed start leave
# 1e-12 of it at most.
TOP_GAP_REL = 1e-6
# ... and only while the unit ket's residual `|Hx - lambda x|` stays below
# this share of the radius; eigh's own kets leave about 1e-15.  A ket
# taken in one step from a warm start (the row's previous ket) must meet
# a tenth of it, since a residual r leaves up to `r/gap` of the other
# eigenvectors and one step is not yet at rounding; a row that misses
# takes a second step, held to the full share.
TOP_RESIDUAL_REL = 1e-12
# Inverse iteration shifts the top eigenvalue up by this share of the
# radius.  A shift of a few ulps let an LU pivot round to exactly 0 (on a
# `gamma1^(x)4` dual image); one this large keeps every pivot far above
# rounding.
_SHIFT_REL = 1e-12

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


def _require_hermitian(M: np.ndarray, name: str) -> np.ndarray:
    M = _require_square(M, name)
    dev = np.abs(M - M.conj().T).max() if M.size else 0.0
    if not (dev <= HERM_ATOL):
        raise ValueError(f"{name} is not Hermitian (max deviation {dev:.3e})")
    return M


def hermitize(M: np.ndarray) -> np.ndarray:
    """Project onto the Hermitian part, `(M + M†)/2`, of a matrix or a stack.

    Used to scrub the order-1e-16 asymmetry that accumulates in products
    of Hermitian factors before feeding them back into an eigensolver.
    """
    M = np.asarray(M)
    return (M + M.conj().swapaxes(-1, -2)) / 2


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
    if V.size:
        # Each column's pivot is its first entry above 1e-12; a unit column
        # always has one, so no pivot is 0.
        pivot = V[np.argmax(np.abs(V) > 1e-12, axis=0), np.arange(V.shape[1])]
        V *= np.abs(pivot) / pivot
    return EigenDecomposition(w, V)


def _top_kets(H: np.ndarray, start: np.ndarray | None) -> np.ndarray:
    # Unit kets of the top eigenvalue of each matrix of an (m, d, d)
    # Hermitian stack, as an (m, d) array; each ket is fixed up to phase.
    # One eigvalsh gives every row's top eigenvalue `lam`, the gap below it
    # and its radius; inverse iteration on `H - (lam + shift)` then gives
    # the ket.  With no `start`, it takes two steps from a fixed vector.
    # Given an (m, d) stack of unit starts (the kets of the previous
    # update, which converging rows barely move), it takes one step and
    # a second only on the rows whose residual misses the warm gate
    # above.  A row whose gap or residual fails the checks above takes
    # the last column of eigh instead, the ket eigh would give in any case
    # (for a multiple of the identity, |d-1>).  No solve runs on a row
    # without a gap, so none is singular.
    m, d = H.shape[0], H.shape[-1]
    if d == 1:
        return np.ones((m, 1), dtype=complex)
    w = np.linalg.eigvalsh(H)
    lam = w[:, -1]
    radius = np.maximum(-w[:, 0], lam)
    kets = np.empty((m, d), dtype=complex)
    rows = np.flatnonzero(lam - w[:, -2] > TOP_GAP_REL * radius)
    if rows.size:
        shift = _SHIFT_REL * radius[rows, None]
        A = H[rows]  # a copy, shifted on its diagonal in place
        A.reshape(-1, d * d)[:, :: d + 1] -= lam[rows, None] + shift
        if start is None:
            # A fixed start with no structure, so that no symmetry of H makes
            # it orthogonal to the top ket.
            x = np.exp(1j * np.arange(d)) / np.sqrt(d)
            x = _inverse_step(A, shift, _inverse_step(A, shift, x))
            residual = _shifted_residual(A, shift, x)
        else:
            x = _inverse_step(A, shift, start[rows])
            residual = _shifted_residual(A, shift, x)
            redo = np.flatnonzero(residual > TOP_RESIDUAL_REL / 10 * radius[rows])
            if redo.size:
                A, shift = A[redo], shift[redo]
                x[redo] = _inverse_step(A, shift, x[redo])
                residual[redo] = _shifted_residual(A, shift, x[redo])
        good = residual <= TOP_RESIDUAL_REL * radius[rows]
        rows = rows[good]
        kets[rows] = x[good]
    rest = np.ones(m, dtype=bool)
    rest[rows] = False
    if rest.any():
        kets[rest] = np.linalg.eigh(H[rest])[1][..., -1]
    return kets


def _inverse_step(A: np.ndarray, shift: np.ndarray, x: np.ndarray) -> np.ndarray:
    # One step of inverse iteration on the shifted (r, d, d) stack A from
    # the kets x, normalized.  Each right-hand side is scaled by its row's
    # (r, 1) shift, which keeps the solutions near unit length.
    x = np.linalg.solve(A, (shift * x)[..., None])[..., 0]
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    return x


def _shifted_residual(A: np.ndarray, shift: np.ndarray, x: np.ndarray) -> np.ndarray:
    # `|Hx - lam x|` of each unit ket, read off the shifted matrix.
    return np.linalg.norm((A @ x[..., None])[..., 0] + shift * x, axis=1)


def matrix_log_psd(P: np.ndarray) -> np.ndarray:
    """Hermitian logarithm of a positive semidefinite matrix.

    Eigenvalues below `LOG_FLOOR` (1e-12) are clamped to it before taking
    logs, so rank-deficient density matrices get a large negative but
    finite log on their kernel.  An eigenvalue below -1e-9 means the
    input is not PSD and raises ValueError.
    """
    P = _require_hermitian(P, "P")
    w_min = np.linalg.eigvalsh(P)[0]
    if w_min < -PSD_ATOL:
        raise ValueError(f"matrix is not PSD (min eigenvalue {w_min:.3e})")
    return _log_psd_batch(P[None])[0]


def kron(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Kronecker product with the left factor on the first tensor slot."""
    return np.kron(np.asarray(A), np.asarray(B))


def partial_trace(X: np.ndarray, dim_a: int, dim_b: int, keep: str) -> np.ndarray:
    """Trace out one tensor factor of a bipartite operator or a stack of them.

    `X` is a (..., d, d) array with `d = dim_a * dim_b`; `keep` selects
    which factor survives, "first" or "second".
    """
    da, db = dim_a, dim_b
    X = np.asarray(X)
    if X.ndim < 2 or X.shape[-1] != X.shape[-2]:
        raise ValueError(f"X must be a square matrix, got shape {X.shape}")
    if X.shape[-1] != da * db:
        raise ValueError(f"operator has dimension {X.shape[-1]}, expected {da * db}")
    T = X.reshape(*X.shape[:-2], da, db, da, db)
    if keep == "first":
        return np.einsum("...abcb->...ac", T)
    if keep == "second":
        return np.einsum("...abad->...bd", T)
    raise ValueError(f"keep must be 'first' or 'second', got {keep!r}")


def trace_product(A: np.ndarray, B: np.ndarray) -> complex:
    """`Tr[A B]` without forming the product matrix."""
    A = _require_square(np.asarray(A), "A")
    B = _require_square(np.asarray(B), "B")
    if A.shape != B.shape:
        raise ValueError(f"shape mismatch {A.shape} vs {B.shape}")
    return complex(np.einsum("ij,ji->", A, B))


def _herm_coords(X: np.ndarray) -> np.ndarray:
    # Hermitian coordinates `h(X) = Re X + Im X` of a (..., d, d) stack,
    # flattened row-major to (..., d*d) reals.  For Hermitian X, Re X is
    # symmetric and Im X antisymmetric, so h is an isometry onto R^(d*d):
    # `<h(A), h(B)> = Tr[AB]`.  A Hermiticity-preserving map is then a real
    # matrix on coordinates (`channels.Channel._transfer`).
    return (X.real + X.imag).reshape(*X.shape[:-2], -1)


def _herm_operators(y: np.ndarray) -> np.ndarray:
    # The inverse of `_herm_coords`: the (..., d, d) matrices
    # `(Y + Y')/2 + i (Y - Y')/2` of a (..., d*d) real stack, Hermitian
    # to the last bit (each entry pair is formed from the same two numbers).
    d = math.isqrt(y.shape[-1])
    Y = y.reshape(*y.shape[:-1], d, d)
    Yt = Y.swapaxes(-1, -2)
    H = np.empty(Y.shape, dtype=complex)
    np.add(Y, Yt, out=H.real)
    np.subtract(Y, Yt, out=H.imag)
    halves = H.view(float)
    halves *= 0.5
    return H


def _pure_coords(kets: np.ndarray) -> np.ndarray:
    # `_herm_coords` of the pure states `|psi><psi|` of an (n, d) ket stack,
    # from real arithmetic alone: for `psi = a + ib`,
    # `h(psi psi^dag) = (a + b) a' + (b - a) b'`.
    a, b = kets.real, kets.imag
    P = (a + b)[:, :, None] * a[:, None, :]
    P += (b - a)[:, :, None] * b[:, None, :]
    return P.reshape(kets.shape[0], -1)


def _clamped_logs(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # The one clamp of the package: for a (..., k) stack of spectra, the
    # von Neumann entropies `-sum_j w_j log w_j` and the logs, each
    # eigenvalue clamped at LOG_FLOOR inside the log.  Eigenvalues below
    # the floor are clamped without complaint: channel outputs can dip
    # marginally below zero along the iteration when a signed map acts on
    # entangled states, and the ascent only needs the clamped log there.
    logs = np.log(np.maximum(w, LOG_FLOOR))
    return -(w * logs).sum(axis=-1), logs


def _entropy_and_log(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # One eigh of a (..., d*d) stack of Hermitian coordinates gives both the
    # entropies and the coordinates of the logs (`_clamped_logs`).  The
    # phase convention is skipped (both are basis-independent).  For
    # eigenvectors `V = a + ib` and logs L, the log `V L V^dag` has
    # coordinates `(a + b) L a' + (b - a) L b'` (as in `_pure_coords`): two
    # real products in place of one complex one.
    w, V = np.linalg.eigh(_herm_operators(y))
    ents, logs = _clamped_logs(w)
    a, b = V.real, V.imag
    logs = logs[..., None, :]
    P = ((a + b) * logs) @ a.swapaxes(-1, -2)
    P += ((b - a) * logs) @ b.swapaxes(-1, -2)
    return ents, P.reshape(*P.shape[:-2], -1)


def _log_psd_batch(P: np.ndarray) -> np.ndarray:
    # Batched clamped Hermitian log of a (n, d, d) stack.
    return _herm_operators(_entropy_and_log(_herm_coords(P))[1])


def _pauli_entropy_and_log(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # `_entropy_and_log` of a (..., 4) stack of qubit operators given by
    # their Pauli coordinates `y = (t, r)`, `y_j = Tr[s_j P]`, in closed
    # form: P has eigenvalues `(t -+ |r|)/2`, and its clamped log has
    # coordinates `(l_- + l_+, (l_+ - l_-) r / |r|)`.  No eigendecomposition.
    r = y[..., 1:]
    norm = np.sqrt(np.einsum("...j,...j->...", r, r))
    ents, logs = _clamped_logs((y[..., :1] + norm[..., None] * _MINUS_PLUS) / 2)
    # Where |r| is 0 (or below the smallest normal double) both logs are
    # equal, so any positive divisor gives the 0 that is wanted there.
    coords = y * ((logs[..., 1] - logs[..., 0]) / np.maximum(norm, _TINY))[..., None]
    coords[..., 0] = logs[..., 0] + logs[..., 1]
    return ents, coords
