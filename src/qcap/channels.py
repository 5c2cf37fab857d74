"""Finite-dimensional quantum channels in operator-sum form.

A channel is stored as a stack of generators `V_k` together with signs
`s_k`, acting as `G(rho) = sum_k s_k V_k rho V_k^dag`.  Genuine
(completely positive) channels have every sign equal to +1; the signed
form exists so that trace-preserving maps whose Choi operator has a
negative eigenvalue can still be applied, tensored and fed to the
capacity solver.  Qubit channels may alternatively be specified by
their action on the Bloch ball, `theta -> A theta + b`.  Every map is
built as given but for exactly cancelling generator pairs, and `validate`
alone judges complete positivity: the `validate` command exits 2 on a
map that fails it, and the solve commands warn and go on.

Channels preserve Hermiticity, so the solver holds a channel as a real
matrix on Hermitian coordinates.  The coordinates of a Hermitian d x d
matrix are `h(X) = Re X + Im X`, flattened row-major to d^2 reals
(`linalg._herm_coords`).  Re X is symmetric and Im X antisymmetric, so h
is an isometry: `<h(A), h(B)> = Tr[AB]`.  `Channel._transfer` is the
real `d_out^2 x d_in^2` matrix `R` with `h(G(X)) = R h(X)`, and the dual
map is its transpose, `h(G*(Y)) = R' h(Y)`.  `R` is built once per
channel from the Choi operator and cached, so a batch of inputs costs
one real matrix product however many generators the channel has.
`apply`, `dual_apply` and their batched forms evaluate the operator sum
and its dual `sum_k s_k V_k^dag Y V_k` as written, so they check `R`
rather than share it.  A qubit -> qubit map also caches the real 4 x 4
form of the map in the Pauli basis.  A channel's arrays are read-only,
which keeps the cached matrices in step with the generators.

This module owns the qubit Pauli convention: `PAULI_BASIS` and its
batched conversions `_pauli_coords` and `_pauli_operators` serve the
affine maps and the solver's Pauli-basis step alike.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .linalg import PSD_ATOL, herm_eig, hermitize

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
    +1/-1 factors, both stored as read-only copies less every pair of
    bit-identical generators with opposite signs (a stack of such pairs
    alone, the zero map, is refused).  Construction checks shapes and
    finiteness; `validate` tests trace preservation and complete positivity.
    """

    kraus: np.ndarray
    signs: np.ndarray = None
    name: str | None = None
    origin: AffineQubit | None = field(default=None, repr=False)

    def __post_init__(self):
        K = np.array(self.kraus, dtype=complex, order="C")
        if K.ndim != 3 or 0 in K.shape:
            raise ValueError(f"kraus must be a nonempty (m, d_out, d_in) stack, got {K.shape}")
        _require_finite(K, "kraus")
        s = self.signs
        s = np.ones(K.shape[0]) if s is None else np.array(s, dtype=float)
        if s.shape != (K.shape[0],) or not np.all(np.abs(s) == 1.0):
            raise ValueError("signs must be a +1/-1 vector, one entry per generator")
        if (s < 0).any():
            K, s = _uncancelled(K, s)
            if not len(K):
                raise ValueError("kraus generators all cancel in pairs: the zero map")
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
    # `sum_k s_k V_k X V_k^dag` of an (n, d_in, d_in) stack, (n, d_out, d_out).
    VX = ch.kraus[:, None] @ states
    return np.einsum("k,knai,kbi->nab", ch.signs, VX, ch.kraus.conj())


def _dual_apply_batch(ch: Channel, Ys: np.ndarray) -> np.ndarray:
    # `sum_k s_k V_k^dag Y V_k` of an (n, d_out, d_out) stack, (n, d_in, d_in).
    YV = Ys @ ch.kraus[:, None]
    return np.einsum("k,kai,knaj->nij", ch.signs, ch.kraus.conj(), YV)


def choi(ch: Channel) -> np.ndarray:
    """Choi operator `sum_kl E_kl (x) G(E_kl)` on input (x) output space.

    Equals `sum_m s_m u_m u_m^dag` with `u_m` the column-stacked
    generator, so it is PSD exactly when the map is completely positive.
    """
    u = ch.kraus.transpose(0, 2, 1).reshape(ch.n_generators, ch.dim_in * ch.dim_out)
    return (u.T * ch.signs) @ u.conj()


def _uncancelled(K: np.ndarray, signs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # The generators and signs less every pair of bit-identical generators
    # with opposite signs, each paired with the latest unpaired one before
    # it; as given if no pair cancels.
    waiting = {}  # generator bytes -> unpaired indices, all of one sign
    drop = []
    for k, V in enumerate(K):
        seen = waiting.setdefault(V.tobytes(), [])
        if seen and signs[seen[-1]] != signs[k]:
            drop += [seen.pop(), k]
        else:
            seen.append(k)
    if not drop:
        return K, signs
    keep = np.ones(len(K), dtype=bool)
    keep[drop] = False
    return K[keep], signs[keep]


def tp_residual(ch: Channel) -> float:
    """Max-entry deviation of `sum_k s_k V_k^dag V_k` from the identity."""
    S = np.einsum("k,kba,kbc->ac", ch.signs, ch.kraus.conj(), ch.kraus)
    return float(np.abs(S - np.eye(ch.dim_in)).max())


def affine_to_channel(aff: AffineQubit, name: str | None = None) -> Channel:
    """Convert a Bloch-ball affine map to signed operator-sum form.

    `(A, b)` is the Pauli transfer matrix `R = [[1, 0], [b, A]]`, from
    which the Choi operator is built and eigendecomposed; components
    below 1e-12 in magnitude are dropped.  The map is built as given:
    each negative Choi eigenvalue gives a generator of sign -1, so the
    result reproduces the affine action whether or not it is completely
    positive.  `validate` alone gives the CP verdict: `qcap validate`
    exits 2 on a map that fails it, and the solve commands warn.
    """
    R = np.block([[np.ones((1, 1)), np.zeros((1, 3))], [aff.b[:, None], aff.A]])
    T = PAULI_BASIS.T @ R @ PAULI_BASIS.conj() / 2  # inverts `Channel._pauli_transfer`
    C = T.reshape(2, 2, 2, 2).transpose(2, 0, 3, 1).reshape(4, 4)
    w, U = herm_eig(hermitize(C))
    keep = np.abs(w) > KRAUS_CUT
    ops = [(np.sqrt(abs(mu)) * u).reshape(2, 2).T for mu, u in zip(w[keep], U.T[keep])]
    return Channel(np.array(ops), np.sign(w[keep]), name=name, origin=aff)


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
    (m1, o1, i1), (m2, o2, i2) = ch1.kraus.shape, ch2.kraus.shape
    # The products `np.kron` forms, in its order, by one broadcast multiply.
    ops = ch1.kraus[:, None, :, None, :, None] * ch2.kraus[:, None, :, None, :]
    ops = ops.reshape(m1 * m2, o1 * o2, i1 * i2)
    signs = np.outer(ch1.signs, ch2.signs).ravel()
    name = None
    if ch1.name and ch2.name:
        name = f"{ch1.name}(x){ch2.name}"
    return Channel(ops, signs, name=name)


def validate(ch: Channel) -> ValidationReport:
    """Check trace preservation and complete positivity.

    For channels carrying affine-qubit origin data the Choi verdict is
    cross-checked against the closed-form 4x4 criterion and the report
    records whether the two agree.  Each check allows its tolerance plus
    `4 eps sum_k ||V_k||_F^2`, the rounding its sums can carry, so a
    map's verdict does not depend on how its generators are written.
    Raises ValueError when the generators are too large for either check
    to be finite (entries from about 1e154 up).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        resid = tp_residual(ch)
        C = choi(ch)
        size = float(np.vdot(ch.kraus, ch.kraus).real)
    if not (np.isfinite(resid) and np.isfinite(size) and np.isfinite(C).all()):
        raise ValueError("kraus entries overflow float64 in the trace-preservation sum "
                         "or the Choi operator")
    # The rounding of a sum grows with its terms, not with the sum, and the
    # generators of a map may cancel, leaving small sums of large terms.  An
    # entry of C, or of `sum_k s_k V_k^dag V_k`, sums products
    # `s_k V_k[a, i] conj(V_k[b, j])` whose moduli form a PSD matrix of trace
    # `size`, so that matrix's entries and norm are at most `size`.  A
    # complex product rounds by under 3 eps of its modulus (2 sqrt(2) eps),
    # and `eigvalsh` returns the spectrum of a matrix within about
    # eps ||C|| <= eps size of C, which moves no eigenvalue further (Weyl):
    # 4 eps size in all.  Each addition also rounds by eps of its running
    # sum, which adds up with the number of terms only if every rounding
    # takes one sign.  A CP trace-preserving map has `size` = d_in, so its
    # tolerances grow by about 1e-14 at most.  A non-CP part within this
    # rounding cannot be told from it.
    slack = 4 * float(np.finfo(float).eps) * size
    tp_ok = resid <= TP_ATOL + slack
    # `eigvalsh` reads one triangle: with entries near 1e4 a Choi operator
    # already misses `herm_eig`'s absolute Hermiticity check.
    cmin = float(np.linalg.eigvalsh(C)[0])
    cp_ok = cmin >= -(PSD_ATOL + slack)
    amin = None
    agree = None
    if ch.origin is not None:
        amin = float(np.linalg.eigvalsh(affine_cp_matrix(ch.origin))[0])
        agree = (amin >= -(PSD_ATOL + slack)) == cp_ok
    passed = tp_ok and cp_ok and (agree is not False)
    return ValidationReport(resid, tp_ok, cmin, cp_ok, amin, agree, passed)


# What each descriptor field holds, and how deep its lists nest.
_WIRE_FIELDS = {
    "kraus": ("a list of generators, each a matrix of [re, im] pairs", 4),
    "A": ("a matrix", 2),
    "b": ("a vector", 1),
}


def _array_from_wire(value, field: str) -> np.ndarray:
    # The one acceptance rule for a descriptor's numbers: equal-length
    # lists, nested to the field's depth, of JSON numbers that a float64
    # or a 64-bit integer holds.  `np.array` with no dtype raises on
    # ragged lists (and on lists more than 64 deep), and gives strings,
    # nulls, objects and larger integers a dtype outside bool, int, uint
    # and float.  The last axis of `kraus` holds the `[re, im]` pairs,
    # read as complex numbers by a view, which keeps a -0.0 part as is.
    form, depth = _WIRE_FIELDS[field]
    try:
        a = np.array(value)
    except ValueError:
        raise ValueError(f"{field} must be {form}: its lists are ragged or nest too deep") from None
    if a.dtype.kind not in "biuf":
        raise ValueError(f"{field} must be {form}: it holds entries that are not JSON numbers "
                         "or are integers too large for 64 bits")
    if a.ndim != depth:
        raise ValueError(f"{field} must be {form}: its lists nest {a.ndim} deep, not {depth}")
    a = a.astype(float)
    if field != "kraus":
        return a
    if a.shape[-1] != 2:
        raise ValueError(f"{field} must be {form}: its entries have {a.shape[-1]} numbers, not 2")
    return a.view(complex)[..., 0]


def channel_from_dict(d: dict) -> Channel:
    """Build a channel from a parsed descriptor, checking the schema."""
    if not isinstance(d, dict):
        raise ValueError("channel descriptor must be a JSON object")
    kind = d.get("kind")
    name = d.get("name")
    if name is not None and not isinstance(name, str):
        raise ValueError(f"name must be a string or null, got {type(name).__name__}")
    if kind == "kraus":
        if "kraus" not in d:
            raise ValueError("kind 'kraus' requires a 'kraus' list of generator matrices")
        return Channel(_array_from_wire(d["kraus"], "kraus"), name=name)
    if kind == "affine_qubit":
        aff = d.get("affine")
        if not isinstance(aff, dict) or "A" not in aff or "b" not in aff:
            raise ValueError("kind 'affine_qubit' requires 'affine' with fields 'A' and 'b'")
        data = AffineQubit(_array_from_wire(aff["A"], "A"), _array_from_wire(aff["b"], "b"))
        return affine_to_channel(data, name=name)
    raise ValueError(f"unknown channel kind {kind!r} (expected 'kraus' or 'affine_qubit')")


def load_channel(path: str | Path) -> Channel:
    """Read a channel descriptor file (JSON, UTF-8)."""
    try:
        d = json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"{path}: invalid JSON ({exc})") from None
    return channel_from_dict(d)

