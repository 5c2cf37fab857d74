"""Finite-dimensional quantum channels in operator-sum form.

A channel is stored as a stack of generators `V_k` together with signs
`s_k`, acting as `G(rho) = sum_k s_k V_k rho V_k^dag`.  Genuine
(completely positive) channels have every sign equal to +1; the signed
form exists so that trace-preserving maps whose Choi operator has a
negative eigenvalue can still be applied, tensored and fed to the
capacity solver.  Qubit channels may alternatively be specified by
their action on the Bloch ball, `theta -> A theta + b`.

Channels preserve Hermiticity, so a channel is held as a real matrix on
Hermitian coordinates.  The coordinates of a Hermitian d x d matrix are
`h(X) = Re X + Im X`, flattened row-major to d^2 reals
(`linalg._herm_coords`).  Re X is symmetric and Im X antisymmetric, so h
is an isometry: `<h(A), h(B)> = Tr[AB]`.  `Channel._transfer` is the
real `d_out^2 x d_in^2` matrix `R` with `h(G(X)) = R h(X)`, and the dual
map is its transpose, `h(G*(Y)) = R' h(Y)`.  `R` is built once per
channel from the Choi operator and cached, so a batch of inputs costs
one real matrix product however many generators the channel has.
`apply`, `dual_apply` and their batched forms accept any complex matrix,
split into Hermitian parts as `X = A + iB`.  A qubit -> qubit map also
caches the real 4 x 4 form of the map in the Pauli basis.  A channel's
arrays are read-only, which keeps the cached matrices in step with the
generators.

This module owns the qubit Pauli convention: `PAULI_BASIS` and its
batched conversions `_pauli_coords`, `_pauli_operators` and
`_bloch_states` serve the affine maps, the Bloch helpers and the
solver's Pauli-basis step alike.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .linalg import (
    PSD_ATOL,
    _herm_coords,
    _herm_operators,
    herm_eig,
    hermitize,
    kron,
)

TP_ATOL = 1e-9
KRAUS_CUT = 1e-12

# Rows are the row-major flattened `s_0 = I, s_x, s_y, s_z`, so the Pauli
# coordinates `x_j = Tr[s_j X]` of a 2 x 2 X are `vec(X) conj(PAULI_BASIS)'`
# and `X = x PAULI_BASIS / 2`.
PAULI_BASIS = np.array(
    [[1, 0, 0, 1], [0, 1, 1, 0], [0, -1j, 1j, 0], [1, 0, 0, -1]],
    dtype=complex,
)


def _pauli_coords(X: np.ndarray) -> np.ndarray:
    # Pauli coordinates `x_j = Tr[s_j X]` of a (..., 2, 2) stack, real
    # parts only: exact for Hermitian X.
    return (X.reshape(*X.shape[:-2], 4) @ PAULI_BASIS.conj().T).real


def _pauli_operators(x: np.ndarray) -> np.ndarray:
    # The (..., 2, 2) operators `x . s / 2` of a (..., 4) coordinate stack.
    return (x @ PAULI_BASIS / 2).reshape(*x.shape[:-1], 2, 2)


def _bloch_states(theta: np.ndarray) -> np.ndarray:
    # The (..., 2, 2) states `(I + theta . s) / 2` of a (..., 3) Bloch stack.
    return _pauli_operators(np.concatenate([np.ones((*theta.shape[:-1], 1)), theta], axis=-1))


class CompletePositivityError(ValueError):
    """Raised when a map that must be completely positive is not."""


def _require_finite(X: np.ndarray, name: str) -> None:
    bad = np.argwhere(~np.isfinite(X))
    if bad.size:
        first = tuple(bad[0].tolist())
        raise ValueError(f"{name} has {len(bad)} non-finite entries, the first at {first}")


@dataclass(frozen=True)
class AffineQubit:
    """Qubit map on Bloch vectors, `theta -> A theta + b`."""

    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if A.shape != (3, 3):
            raise ValueError(f"A must be 3x3, got shape {A.shape}")
        if b.shape != (3,):
            raise ValueError(f"b must be a 3-vector, got shape {b.shape}")
        _require_finite(A, "A")
        _require_finite(b, "b")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)


@dataclass(frozen=True, eq=False)
class Channel:
    """Signed operator-sum map between complex matrix spaces.

    `kraus` is an (m, d_out, d_in) stack, `signs` an (m,) vector of
    +1/-1 factors.  Construction checks shapes and finiteness only; use
    `validate` to test trace preservation and complete positivity.  Both
    arrays are stored as read-only copies.
    """

    kraus: np.ndarray
    signs: np.ndarray = None
    name: str | None = None
    origin: AffineQubit | None = field(default=None, repr=False)

    def __post_init__(self):
        K = np.array(self.kraus, dtype=complex)
        if K.ndim != 3:
            raise ValueError(f"kraus must be a (m, d_out, d_in) stack, got shape {K.shape}")
        _require_finite(K, "kraus")
        s = self.signs
        s = np.ones(K.shape[0]) if s is None else np.array(s, dtype=float)
        if s.shape != (K.shape[0],) or not np.all(np.abs(s) == 1.0):
            raise ValueError("signs must be a +1/-1 vector, one entry per generator")
        K.flags.writeable = False
        s.flags.writeable = False
        object.__setattr__(self, "kraus", K)
        object.__setattr__(self, "signs", s)

    @property
    def dim_in(self) -> int:
        return self.kraus.shape[2]

    @property
    def dim_out(self) -> int:
        return self.kraus.shape[1]

    @property
    def n_generators(self) -> int:
        return self.kraus.shape[0]

    @property
    def generators(self) -> list[np.ndarray]:
        return list(self.kraus)

    def __call__(self, rho: np.ndarray) -> np.ndarray:
        return apply(self, rho)

    @cached_property
    def _transfer(self) -> np.ndarray:
        # `h(G(X)) = R h(X)`.  Column (i, j) of R is `h(G(E))` for the
        # Hermitian E with `h(E)` the unit vector at (i, j): E holds
        # `(1 + 1j)/2` at (i, j) and `(1 - 1j)/2` at (j, i), or 1 if i = j.
        # So `R[(a, b), (i, j)] = Re T[a, b, i, j] + Im T[a, b, j, i]`.
        do, di = self.dim_out, self.dim_in
        T = _realigned_choi(self)
        return (T.real + T.imag.swapaxes(2, 3)).reshape(do * do, di * di)

    @cached_property
    def _pauli_transfer(self) -> np.ndarray:
        # Qubit -> qubit maps only: `R[j, k] = Tr[s_j G(s_k)] / 2`, real for
        # any Hermiticity-preserving map, so that `G` takes the Pauli
        # coordinates x of its input to `R x`.
        return (PAULI_BASIS.conj() @ _realigned_choi(self).reshape(4, 4) @ PAULI_BASIS.T).real / 2


def _realigned_choi(ch: Channel) -> np.ndarray:
    # `T[a, b, i, j] = sum_k s_k V_k[a, i] conj(V_k[b, j])`, so that
    # `G(X)[a, b] = sum_ij T[a, b, i, j] X[i, j]`.
    di, do = ch.dim_in, ch.dim_out
    return choi(ch).reshape(di, do, di, do).transpose(1, 3, 0, 2)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the trace-preservation and complete-positivity checks."""

    tp_residual: float
    tp_ok: bool
    choi_min_eigenvalue: float
    cp_ok: bool
    affine_min_eigenvalue: float | None
    checks_agree: bool | None
    passed: bool


def apply(ch: Channel, rho: np.ndarray) -> np.ndarray:
    """Evaluate `G(rho) = sum_k s_k V_k rho V_k^dag`."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (ch.dim_in, ch.dim_in):
        raise ValueError(f"state has shape {rho.shape}, channel expects {(ch.dim_in,) * 2}")
    return _apply_batch(ch, rho[None])[0]


def dual_apply(ch: Channel, Y: np.ndarray) -> np.ndarray:
    """Evaluate the dual map `G*(Y) = sum_k s_k V_k^dag Y V_k`."""
    Y = np.asarray(Y, dtype=complex)
    if Y.shape != (ch.dim_out, ch.dim_out):
        raise ValueError(f"operator has shape {Y.shape}, channel outputs are {(ch.dim_out,) * 2}")
    return _dual_apply_batch(ch, Y[None])[0]


def _apply_batch(ch: Channel, states: np.ndarray) -> np.ndarray:
    # states: (n, d_in, d_in) -> (n, d_out, d_out)
    return _map_batch(states, ch._transfer.T)


def _dual_apply_batch(ch: Channel, Ys: np.ndarray) -> np.ndarray:
    # Ys: (n, d_out, d_out) -> (n, d_in, d_in)
    return _map_batch(Ys, ch._transfer)


def _map_batch(X: np.ndarray, M: np.ndarray) -> np.ndarray:
    # The linear map `h(X) -> h(X) M` on Hermitian coordinates, applied to
    # a complex (n, d, d) stack: `X = A + iB` with `A = (X + X^dag)/2` and
    # `B = (X - X^dag)/2i` Hermitian, and both parts take one matmul.
    n = X.shape[0]
    parts = _herm_operators(_herm_coords(np.concatenate([hermitize(X), hermitize(-1j * X)])) @ M)
    return parts[:n] + 1j * parts[n:]


def choi(ch: Channel) -> np.ndarray:
    """Choi operator `sum_kl E_kl (x) G(E_kl)` on input (x) output space.

    Equals `sum_m s_m u_m u_m^dag` with `u_m` the column-stacked
    generator, so it is PSD exactly when the map is completely positive.
    """
    u = ch.kraus.transpose(0, 2, 1).reshape(ch.n_generators, -1)
    return (u.T * ch.signs) @ u.conj()


def tp_residual(ch: Channel) -> float:
    """Max-entry deviation of `sum_k s_k V_k^dag V_k` from the identity."""
    S = np.einsum("k,kba,kbc->ac", ch.signs, ch.kraus.conj(), ch.kraus)
    return float(np.abs(S - np.eye(ch.dim_in)).max())


def _channel_from_choi(
    C: np.ndarray,
    dim_in: int,
    dim_out: int,
    name: str | None,
    origin: AffineQubit | None,
    allow_non_cp: bool,
) -> Channel:
    w, U = herm_eig(C)
    if w[-1] < -PSD_ATOL and not allow_non_cp:
        raise CompletePositivityError(
            f"map is not completely positive (min Choi eigenvalue {w[-1]:.6e})"
        )
    ops, signs = [], []
    for mu, u in zip(w, U.T):
        if abs(mu) <= KRAUS_CUT:
            continue
        ops.append((np.sqrt(abs(mu)) * u).reshape(dim_in, dim_out).T)
        signs.append(1.0 if mu > 0 else -1.0)
    return Channel(np.array(ops), np.array(signs), name=name, origin=origin)


def affine_to_channel(aff: AffineQubit, name: str | None = None, *, allow_non_cp: bool = False) -> Channel:
    """Convert a Bloch-ball affine map to operator-sum form.

    `(A, b)` is the Pauli transfer matrix `R = [[1, 0], [b, A]]`, from
    which the Choi operator is built and eigendecomposed; components
    below 1e-12 in magnitude are dropped.  A Choi eigenvalue below -1e-9
    means the affine data is not completely positive, which raises
    CompletePositivityError unless `allow_non_cp` is set, in which case
    the offending components are kept with sign -1 and the returned map
    reproduces the affine action exactly.
    """
    R = np.block([[np.ones((1, 1)), np.zeros((1, 3))], [aff.b[:, None], aff.A]])
    T = PAULI_BASIS.T @ R @ PAULI_BASIS.conj() / 2  # inverts `Channel._pauli_transfer`
    C = T.reshape(2, 2, 2, 2).transpose(2, 0, 3, 1).reshape(4, 4)
    return _channel_from_choi(hermitize(C), 2, 2, name, aff, allow_non_cp)


def affine_cp_matrix(aff: AffineQubit) -> np.ndarray:
    """Closed-form 4x4 complete-positivity test matrix of `(A, b)`.

    The affine map is completely positive iff this matrix is PSD.  It is
    built from a direct reparameterization of the twelve affine
    coefficients, independent of the Choi construction, and serves as a
    cross-check on `choi`.
    """
    A, b = aff.A, aff.b
    p = (b[2] + A[2, 2]) / 2
    q = (b[2] - A[2, 2]) / 2
    r = (A[2, 0] + 1j * A[2, 1]) / 2
    x = (A[0, 2] + b[0]) / 2 - 1j * (A[1, 2] + b[1]) / 2
    z = (b[0] - A[0, 2]) / 2 + 1j * (A[1, 2] - b[1]) / 2
    w = (A[0, 0] + A[1, 1]) / 2 + 1j * (A[0, 1] - A[1, 0]) / 2
    y = (A[0, 0] - A[1, 1]) / 2 + 1j * (A[0, 1] + A[1, 0]) / 2
    return np.array(
        [
            [0.5 + p, x, r, w],
            [np.conj(x), 0.5 - p, y, -r],
            [np.conj(r), np.conj(y), 0.5 + q, z],
            [np.conj(w), -np.conj(r), np.conj(z), 0.5 - q],
        ]
    )


def tensor(ch1: Channel, ch2: Channel) -> Channel:
    """Tensor product channel acting on the joint input space.

    Generators are the pairwise Kronecker products with multiplied
    signs, so the signed form composes the same way genuine Kraus
    representations do.
    """
    ops = np.array([kron(V1, V2) for V1 in ch1.kraus for V2 in ch2.kraus])
    signs = np.array([s1 * s2 for s1 in ch1.signs for s2 in ch2.signs])
    name = None
    if ch1.name and ch2.name:
        name = f"{ch1.name}(x){ch2.name}"
    return Channel(ops, signs, name=name)


def validate(ch: Channel) -> ValidationReport:
    """Check trace preservation and complete positivity.

    For channels carrying affine-qubit origin data the Choi verdict is
    cross-checked against the closed-form 4x4 criterion and the report
    records whether the two agree.
    """
    resid = tp_residual(ch)
    tp_ok = resid <= TP_ATOL
    w, _ = herm_eig(choi(ch))
    cmin = float(w[-1])
    cp_ok = cmin >= -PSD_ATOL
    amin = None
    agree = None
    if ch.origin is not None:
        aw, _ = herm_eig(affine_cp_matrix(ch.origin))
        amin = float(aw[-1])
        agree = (amin >= -PSD_ATOL) == cp_ok
    passed = tp_ok and cp_ok and (agree is not False)
    return ValidationReport(resid, tp_ok, cmin, cp_ok, amin, agree, passed)


def bloch_state(theta) -> np.ndarray:
    """Density matrix `(I + theta . sigma) / 2` of a Bloch vector."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (3,):
        raise ValueError(f"Bloch vector must have 3 components, got shape {theta.shape}")
    return _bloch_states(theta)


def bloch_vector(rho: np.ndarray) -> np.ndarray:
    """Bloch vector of a qubit operator, `Tr[sigma_i rho]` per axis."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {rho.shape}")
    return _pauli_coords(rho)[1:]


def _matrix_to_wire(M: np.ndarray) -> list:
    M = np.asarray(M, dtype=complex)
    return np.stack([M.real, M.imag], axis=-1).tolist()


def _matrix_from_wire(rows) -> np.ndarray:
    try:
        M = np.array([[complex(re, im) for re, im in row] for row in rows])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed complex matrix: {exc}") from None
    if M.ndim != 2:
        raise ValueError("malformed complex matrix: ragged rows")
    return M


def channel_to_dict(ch: Channel) -> dict:
    """JSON-compatible descriptor; affine-origin channels keep kind 'affine_qubit'."""
    if ch.origin is not None:
        return {
            "name": ch.name,
            "kind": "affine_qubit",
            "affine": {
                "A": [[float(v) for v in row] for row in ch.origin.A],
                "b": [float(v) for v in ch.origin.b],
            },
        }
    if not np.all(ch.signs == 1.0):
        raise ValueError("signed channels without affine origin have no descriptor form")
    return {
        "name": ch.name,
        "kind": "kraus",
        "kraus": [_matrix_to_wire(V) for V in ch.kraus],
    }


def channel_from_dict(d: dict, *, allow_non_cp: bool = False) -> Channel:
    """Build a channel from a parsed descriptor, checking the schema."""
    if not isinstance(d, dict):
        raise ValueError("channel descriptor must be a JSON object")
    kind = d.get("kind")
    name = d.get("name")
    if kind == "kraus":
        if "kraus" not in d:
            raise ValueError("kind 'kraus' requires a 'kraus' list of generator matrices")
        ops = [_matrix_from_wire(rows) for rows in d["kraus"]]
        shapes = {V.shape for V in ops}
        if len(shapes) != 1:
            raise ValueError(f"generators disagree on shape: {sorted(shapes)}")
        return Channel(np.array(ops), name=name)
    if kind == "affine_qubit":
        aff = d.get("affine")
        if not isinstance(aff, dict) or "A" not in aff or "b" not in aff:
            raise ValueError("kind 'affine_qubit' requires 'affine' with fields 'A' and 'b'")
        try:
            data = AffineQubit(np.array(aff["A"], dtype=float), np.array(aff["b"], dtype=float))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"malformed affine data: {exc}") from None
        return affine_to_channel(data, name=name, allow_non_cp=allow_non_cp)
    raise ValueError(f"unknown channel kind {kind!r} (expected 'kraus' or 'affine_qubit')")


def load_channel(path: str | Path, *, allow_non_cp: bool = False) -> Channel:
    """Read a channel descriptor file (JSON)."""
    text = Path(path).read_text()
    try:
        d = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON ({exc})") from None
    return channel_from_dict(d, allow_non_cp=allow_non_cp)


def save_channel(ch: Channel, path: str | Path) -> None:
    """Write the channel descriptor as formatted JSON."""
    Path(path).write_text(json.dumps(channel_to_dict(ch), indent=2, sort_keys=True) + "\n")
