"""Entropic quantities for input ensembles of a channel.

All entropies are in nats.  Logarithms of rank-deficient density
matrices are taken with eigenvalues clamped at a small floor, which
leaves every quantity finite and matches the exact value whenever the
usual support conditions hold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import Channel
from .linalg import (
    _clamped_logs,
    _entropy_and_log,
    _herm_coords,
    matrix_log_psd,
    partial_trace,
    trace_product,
)

# Not called here, but bench/tracing.py wraps these bindings, so they stay.
from .channels import _apply_batch  # noqa: F401
from .linalg import _log_psd_batch  # noqa: F401

WEIGHT_ATOL = 1e-9


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Finite input ensemble: weights `(n,)` over states `(n, d, d)`.

    Weights must be finite, nonnegative and sum to one within 1e-9;
    states must be finite and carry unit trace.  Positivity of the states
    is not re-checked here because the solver only ever produces outer
    products.
    """

    weights: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        S = np.asarray(self.states, dtype=complex)
        if w.ndim != 1 or S.ndim != 3 or S.shape[0] != w.shape[0] or S.shape[1] != S.shape[2]:
            raise ValueError(f"inconsistent ensemble shapes {w.shape} / {S.shape}")
        # Each check passes only when its comparison holds, so NaN fails it.
        if not (w.min(initial=0.0) >= -WEIGHT_ATOL and abs(w.sum() - 1.0) <= WEIGHT_ATOL):
            raise ValueError("weights must be nonnegative and sum to 1")
        traces = np.einsum("ndd->n", S)
        if S.shape[0] and not (np.abs(traces - 1.0).max() <= WEIGHT_ATOL):
            raise ValueError("states must have unit trace")
        if not np.isfinite(S).all():
            raise ValueError("states must be finite")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "states", S)

    @property
    def n_states(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    def average_state(self) -> np.ndarray:
        return np.einsum("n,nab->ab", self.weights, self.states)


def rel_entropy(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Quantum relative entropy `D(rho || sigma) = Tr[rho (log rho - log sigma)]`."""
    diff = matrix_log_psd(rho) - matrix_log_psd(sigma)
    return trace_product(np.asarray(rho, dtype=complex), diff).real


def _holevo_terms(
    weights: np.ndarray, outs: np.ndarray, entropy_and_log=_entropy_and_log
) -> tuple[np.ndarray, np.ndarray]:
    # The one place the iteration's maths lives.  For each row of an
    # (s, n) weight stack and its channel outputs `G(s_i)`: the mutual
    # information `S(G(rho_bar)) - sum_i w_i S(G(s_i))` and the ascent
    # operators `Phi_i = log G(s_i) - log G(rho_bar)`, with
    # `G(rho_bar) = sum_i w_i G(s_i)`.  Outputs and ascent operators are
    # real coordinate stacks: (s, n, d*d) Hermitian coordinates
    # (`linalg._herm_coords`) with `_entropy_and_log`, or, for qubits,
    # (s, n, 4) Pauli coordinates with `linalg._pauli_entropy_and_log`.
    # The averages are linear either way, so they are appended to the
    # outputs, (s, n + 1, .), and one call gives every entropy and log,
    # clamped at LOG_FLOOR: on Hermitian coordinates, one eigh of the
    # outputs and averages together.
    avg = np.einsum("sn,sn...->s...", weights, outs)
    ents, logs = entropy_and_log(np.concatenate([outs, avg[:, None]], axis=1))
    ents, ent_bar, phis, log_bar = ents[:, :-1], ents[:, -1], logs[:, :-1], logs[:, -1]
    phis -= log_bar[:, None]
    return ent_bar - np.einsum("sn,sn->s", weights, ents), phis


def mutual_info(pi: Ensemble, ch: Channel) -> float:
    """Holevo mutual information `sum_i w_i D(G(s_i) || G(rho_bar))`.

    Since `G(rho_bar) = sum_i w_i G(s_i)`, this equals
    `S(G(rho_bar)) - sum_i w_i S(G(s_i))` with the same clamped logs,
    which is how the solver's kernel computes it.  Zero-weight
    components are skipped, so padding an ensemble with unused states
    does not change the value.
    """
    mask = pi.weights > 0
    info, _ = _holevo_terms(pi.weights[mask][None], _output_coords(ch, pi.states[mask])[None])
    return float(info[0])


def _output_coords(ch: Channel, states: np.ndarray) -> np.ndarray:
    # Hermitian coordinates of the outputs of an (n, d, d) stack of states.
    return _herm_coords(states) @ ch._transfer.T


def j_functional(pi: Ensemble, pi_p: Ensemble, ch: Channel) -> float:
    """Surrogate objective `J(pi, pi')` driving the alternating update.

    `J = -sum_i w_i log(w_i / w'_i)
         + sum_i w_i Tr[G(s_i) Phi(s'_i, rho_bar')]`
    with `rho_bar'` the average state of `pi'`.  It touches `pi` only
    through linear and classical-entropy terms, coincides with the
    mutual information at `pi = pi'`, and never exceeds the mutual
    information of `pi`.
    """
    if pi.n_states != pi_p.n_states:
        raise ValueError("ensembles must have the same number of components")
    w, wp = pi.weights, pi_p.weights
    mask = w > 0
    with np.errstate(divide="ignore"):
        classical = float(w[mask] @ (np.log(w[mask]) - np.log(wp[mask])))
    outs = _output_coords(ch, pi.states[mask])
    _, phis = _holevo_terms(wp[None], _output_coords(ch, pi_p.states)[None])
    quantum = float(w[mask] @ np.einsum("nj,nj->n", outs, phis[0, mask]))
    return -classical + quantum


def entanglement(pi: Ensemble, dim_a: int, dim_b: int) -> float:
    """Average relative entropy of entanglement proxy of a bipartite ensemble.

    `Ent = sum_i w_i D(s_i || s_i^A (x) s_i^B)` with the marginals taken
    per component, evaluated through the identity
    `D(s || s^A (x) s^B) = S(s^A) + S(s^B) - S(s)`.
    """
    mask = pi.weights > 0
    return float(pi.weights[mask] @ _entanglement_terms(pi.states[mask], dim_a, dim_b))


def _entanglement_terms(states: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    # Per-component `S(s^A) + S(s^B) - S(s)` of a (..., d, d) stack: three
    # eigvalsh calls however many starts and components it holds, each
    # spectrum clamped as `_entropy_and_log` clamps it (`_clamped_logs`).
    d = states.shape[-1]
    if d != dim_a * dim_b:
        raise ValueError(f"ensemble dimension {d} does not split as {dim_a}x{dim_b}")
    rho_a, rho_b = (partial_trace(states, dim_a, dim_b, keep) for keep in ("first", "second"))
    S_a, S_b, S = (_clamped_logs(np.linalg.eigvalsh(X))[0] for X in (rho_a, rho_b, states))
    return S_a + S_b - S


def _schmidt_terms(kets: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    # The same terms for a (..., d) stack of unit kets, whose states are
    # pure: then `D(s || s^A (x) s^B) = 2 S(smaller marginal)`, and that
    # marginal is `M M'` with `M` the ket as a (min, max) matrix, so one
    # small eigvalsh replaces three.  Its spectrum is clipped to [0, 1],
    # which removes only rounding and leaves every term nonnegative.
    d = kets.shape[-1]
    if d != dim_a * dim_b:
        raise ValueError(f"ensemble dimension {d} does not split as {dim_a}x{dim_b}")
    M = kets.reshape(-1, dim_a, dim_b)
    if dim_a > dim_b:
        M = M.swapaxes(1, 2)
    p = np.clip(np.linalg.eigvalsh(M @ M.conj().swapaxes(1, 2)), 0.0, 1.0)
    return 2.0 * _clamped_logs(p)[0].reshape(kets.shape[:-1])
