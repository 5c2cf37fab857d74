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
# identity) take eigh's ket.  A certified row is held to the same share,
# of its bounds (`_certified_kets`).  Each inverse-iteration step shrinks
# every other eigenvector in the ket by about `shift/gap`, at most 1e-6 at
# this gap and `_SHIFT_REL` below, so two steps from a fixed start leave
# 1e-12 of it at most.
TOP_GAP_REL = 1e-6
# ... and only while the unit ket's residual `|Hx - rho x|` stays below
# this share of the radius (of its lower bound, on a certified row); eigh's
# own kets leave about 1e-15.  A ket taken from a warm start (the row's
# previous ket) must meet a tenth of it, since a residual r leaves up to
# `r/gap` of the other eigenvectors and a step from a poor start need not
# reach rounding; a row that misses takes another step, up to
# `_WARM_STEPS` in all.
TOP_RESIDUAL_REL = 1e-12
# Inverse iteration shifts past an upper bound on the top eigenvalue (the
# exact one, or Temple's on a certified row) by this share of the radius
# (of its upper bound), so the shift stands at least this far above the
# top eigenvalue.  A shift of a few ulps let an LU pivot round to exactly
# 0 (on a `gamma1^(x)4` dual image); one this large keeps every pivot far
# above rounding.
_SHIFT_REL = 1e-12
# A warm row takes at most this many steps, each from the best shift
# known (`_inverse_iteration`).  From a ket off the top by e, a step
# shifted past Temple's bound leaves about e^3 of the other eigenvectors
# (as a Rayleigh-quotient step does), so a ket whose image moved by a
# quarter of its gap needs three.  On the benchmark products at seed 1, a
# third step raised the certified share of row updates after the first
# from 80-94 % to 86-96 %.
_WARM_STEPS = 3

_MINUS_PLUS = np.array([-1.0, 1.0])
_TINY = np.finfo(float).tiny
_EPS = np.finfo(float).eps


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


def _top_kets(y: np.ndarray, start: np.ndarray | None, bounds: np.ndarray) -> np.ndarray:
    # Unit kets of the top eigenvalue of each Hermitian matrix of an
    # (m, d*d) coordinate stack `y` (`_herm_operators`), as an (m, d) array;
    # each ket is fixed up to phase.  `start` holds the (m, d) kets of the
    # previous call, None on the first.  `bounds` is the (m, d*d + 3) record
    # that each row carries from one call to the next, rewritten in place:
    # the coordinates y' of the row's previous matrix H', an upper bound on
    # the second eigenvalue of H', and a lower and an upper bound on its
    # least.  A row with a start first tries the certificate
    # (`_certified_kets`), which takes no eigenvalue of H.  Every other row
    # (all of the first call, and any row that fails a gate of the
    # certificate) takes the exact path (`_exact_kets`), which also resets
    # the row's bounds from its spectrum.
    m, dd = y.shape
    d = math.isqrt(dd)
    if d == 1:
        return np.ones((m, 1), dtype=complex)
    if start is None:
        bounds[:, :dd] = y
        rest = slice(None)
        kets, w = _exact_kets(y, rest, None)
    else:
        kets = np.empty((m, d), dtype=complex)
        rest = np.flatnonzero(~_certified_kets(y, start, bounds, kets))
        if not rest.size:
            return kets
        kets[rest], w = _exact_kets(y, rest, start[rest])
    bounds[rest, dd] = w[:, -2]
    bounds[rest, dd + 1 :] = w[:, :1]
    return kets


def _certified_kets(y, start, bounds, kets) -> np.ndarray:
    # The top kets of the rows of `y` that their bounds certify, written to
    # `kets`; returns the mask of those rows.  Every row's bounds are moved
    # to H.  For a row with warm ket x:
    # 1. `E >= ||H - H'||_2`, since `||y - y'|| = ||H - H'||_F` (`h` is an
    #    isometry), plus rounding (below).  By Weyl, the second eigenvalue
    #    of H is at most `beta = beta' + E`, and its least moves by E at most.
    # 2. With `rho = x'Hx` and `r = |Hx - rho x|`, if `rho > beta` the top
    #    eigenvalue lies in `[rho, rho + r^2/(rho - beta)]` (Temple).
    # 3. The gap gate: `rho - beta > TOP_GAP_REL` of the radius's upper
    #    bound, the larger of Temple's and minus the least's lower bound.
    # 4. `_inverse_iteration` from x, shifted past Temple's bound.
    # 5. The ket is kept if its residual meets the warm share of
    #    `TOP_RESIDUAL_REL` of the radius's lower bound, `max(rho, -least+)`,
    #    and if `rho - r > beta`: some eigenvalue lies within r of rho, and
    #    only the top one can.
    # A non-finite row fails every comparison and is left to the exact path.
    # E also takes in rounding: the computed `||y - y'||` sums d*d rounded
    # squares after one subtraction and before a square root, (d*d + 2) eps
    # of itself; H' and its bounds were taken within `_slack(d) |y'|`, with
    # `|y'| <= |y| + ||y - y'||`; and this call's numbers are within
    # `_slack(d) |y|`.
    m, dd = y.shape
    d = start.shape[1]
    prev = bounds[:, :dd]
    np.subtract(y, prev, out=prev)
    change = _norms(prev)
    prev[...] = y
    change = change * (1 + (d * d + 2) * _EPS) + _slack(d) * (2 * _norms(y) + change)
    beta, low, high = (bounds[:, dd + j] for j in range(3))
    beta += change
    low -= change
    high += change
    H = _herm_operators(y)
    rho, res = _rayleigh(H, 0.0, start)
    gap = rho - beta
    top = rho + np.divide(res * res, gap, out=np.full(m, np.inf), where=gap > 0)
    reach = np.maximum(top, -low)
    gated = gap > TOP_GAP_REL * reach
    if not gated.any():
        return gated
    return _inverse_iteration(H, gated, top, _SHIFT_REL * reach, beta, high, start, kets)


def _exact_kets(y, subset, start) -> tuple[np.ndarray, np.ndarray]:
    # The top kets of the `subset` of the rows of `y` and their spectra
    # from one eigvalsh: inverse iteration from `start` (or, if None, from a
    # fixed vector) on a row with a gap below its top, shifted past its top
    # eigenvalue.  A row whose gap or residual fails the gates above takes
    # the last column of eigh instead, the ket eigh would give in any case
    # (for a multiple of the identity, |d-1>).  A row without a gap rides
    # through the solves as the identity, so no solve is singular.
    H = _herm_operators(y[subset])
    m, d = H.shape[:2]
    w = np.linalg.eigvalsh(H)
    lam = w[:, -1]
    radius = np.maximum(-w[:, 0], lam)
    kets = np.empty((m, d), dtype=complex)
    gapped = lam - w[:, -2] > TOP_GAP_REL * radius
    good = gapped
    if gapped.any():
        # A fixed start with no structure, so that no symmetry of H makes
        # it orthogonal to the top ket.
        x = np.exp(1j * np.arange(d)) / np.sqrt(d) if start is None else start
        # The second eigenvalue as `_inverse_iteration` needs it: an upper
        # bound, so that Temple's bound stays above the top.
        second = w[:, -2] + _slack(d) * _norms(y[subset])
        good = _inverse_iteration(H, gapped, lam, _SHIFT_REL * radius, second, w[:, 0], x, kets)
    if not good.all():
        kets[~good] = np.linalg.eigh(_herm_operators(y[subset][~good]))[1][..., -1]
    return kets, w


def _slack(d: int) -> float:
    # The rounding that each number `_top_kets` compares on a row may carry,
    # per `|y| = ||H||_F`, which bounds `||H||_2`, every eigenvalue and so
    # every shift; eps is the machine epsilon.  `_herm_operators` rounds each
    # entry of H once (eps |y|).  eigvalsh is backward stable: the spectrum
    # it gives is that of a matrix within a few eps |y| of H, which moves no
    # eigenvalue further (Weyl; d eps |y| here).  A Rayleigh quotient and its
    # residual are read off `A = H - sigma`, of norm at most
    # `(1 + sqrt(d)) |y|`, whose product with a unit ket sums d complex
    # products per entry (within `2d (1 + sqrt(d)) eps |y|` each).  In all
    # at most `4d (d + 2) eps`, 9e-14 at d = 9.
    return 4 * d * (d + 2) * _EPS


def _norms(y: np.ndarray) -> np.ndarray:
    # The Euclidean norm of each row of a real (m, k) stack (of a complex
    # one, through its float view).
    return np.sqrt(np.einsum("ij,ij->i", y, y))


def _inverse_iteration(A, gapped, top, shift, second, least, x, kets) -> np.ndarray:
    # Inverse iteration on the rows of an (m, d, d) Hermitian stack A that
    # pass a gap gate (the mask `gapped`), given per row an upper bound `top` on its top eigenvalue and
    # upper bounds `second` on its second (rounding included, `_slack`) and
    # `least` on its least.  A is shifted in place to `H - sigma` with
    # `sigma = top + shift`, so the LU pivots stay at least `shift` from 0;
    # every other row is overwritten with the identity, which the solves
    # carry along unshifted and no gate keeps, so that the gated rows need
    # not be copied out.  From a fixed (d,) vector x it takes two steps, held to
    # `TOP_RESIDUAL_REL`.  From an (m, d) stack of warm kets it takes one,
    # and another on each row that misses a tenth of that share, up to
    # `_WARM_STEPS`, each shifted past the lower of the last `sigma` and
    # Temple's bound on the new Rayleigh quotient.  Writes the kets of the
    # rows that pass both gates of `_certified_kets` step 5 into `kets`
    # and returns their mask.
    d = A.shape[-1]
    A[~gapped] = np.eye(d)
    shift = np.where(gapped, shift, 1.0)
    sigma = np.where(gapped, top + shift, 0.0)
    second = np.where(gapped, second, np.inf)
    A.reshape(-1, d * d)[:, :: d + 1] -= sigma[:, None]
    shift = shift[:, None]
    if x.ndim == 1:
        share = TOP_RESIDUAL_REL
        x = _inverse_step(A, shift, _inverse_step(A, shift, x))
        rho, res = _rayleigh(A, sigma, x)
    else:
        share = TOP_RESIDUAL_REL / 10
        x = _inverse_step(A, shift, x)
        rho, res = _rayleigh(A, sigma, x)
        redo = np.arange(len(x))
        for _ in range(_WARM_STEPS - 1):
            miss = res[redo] > share * np.maximum(rho[redo], -least[redo])
            if not miss.any():
                break
            redo, A, shift, old = redo[miss], A[miss], shift[miss], sigma[miss]
            gap = rho[redo] - second[redo]
            temple = np.divide(res[redo] ** 2, gap, out=np.full(redo.size, np.inf), where=gap > 0)
            sigma = np.minimum(old, rho[redo] + temple + shift[:, 0])
            A.reshape(-1, d * d)[:, :: d + 1] += (old - sigma)[:, None]
            x[redo] = _inverse_step(A, shift, x[redo])
            rho[redo], res[redo] = _rayleigh(A, sigma, x[redo])
    good = (res <= share * np.maximum(rho, -least)) & (rho - res > second)
    kets[good] = x[good]
    return good


def _inverse_step(A: np.ndarray, shift: np.ndarray, x: np.ndarray) -> np.ndarray:
    # One step of inverse iteration on the shifted (r, d, d) stack A from
    # the kets x, normalized.  Each right-hand side is scaled by its row's
    # (r, 1) shift, which keeps the solutions near unit length.
    x = np.linalg.solve(A, (shift * x)[..., None])[..., 0]
    x /= _norms(x.view(float))[:, None]
    return x


def _rayleigh(A: np.ndarray, sigma, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # The Rayleigh quotient `rho = x'Hx` of each unit ket and its residual
    # `|Hx - rho x|`, read off `A = H - sigma` as `Ax + sigma x`.
    u = (A @ x[..., None])[..., 0]
    q = np.einsum("ma,ma->m", x.conj(), u).real
    u -= q[:, None] * x
    return q + sigma, _norms(u.view(float))


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
