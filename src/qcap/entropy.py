"""Entropic quantities for input ensembles of a channel.

All entropies are in nats.  Logarithms of rank-deficient density
matrices are taken with eigenvalues clamped at a small floor, which
leaves every quantity finite and matches the exact value whenever the
usual support conditions hold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import Channel, _apply_batch, apply
from .linalg import LOG_FLOOR, _log_psd_batch, matrix_log_psd, trace_product

WEIGHT_ATOL = 1e-9


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Finite input ensemble: weights `(n,)` over states `(n, d, d)`.

    Weights must be finite, nonnegative and sum to one within 1e-9;
    states must carry unit trace.  Positivity of the states is not
    re-checked here because the solver only ever produces outer products.
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


def rel_entropy(rho: np.ndarray, sigma: np.ndarray, floor: float = LOG_FLOOR) -> float:
    """Quantum relative entropy `D(rho || sigma) = Tr[rho (log rho - log sigma)]`."""
    diff = matrix_log_psd(rho, floor) - matrix_log_psd(sigma, floor)
    return trace_product(np.asarray(rho, dtype=complex), diff).real


def _holevo_terms(weights: np.ndarray, states: np.ndarray, ch: Channel):
    # The one place the iteration's maths lives: outputs `G(s_i)` and
    # ascent operators `Phi_i = log G(s_i) - log G(rho_bar)`, with
    # `G(rho_bar) = sum_i w_i G(s_i)`.  Logs are clamped at LOG_FLOOR.
    outs = _apply_batch(ch, states)
    out_bar = np.einsum("n,nab->ab", weights, outs)
    return outs, _log_psd_batch(outs) - _log_psd_batch(out_bar[None])


def _entropy_batch(stack: np.ndarray) -> np.ndarray:
    # von Neumann entropies of a (n, d, d) stack, eigenvalues clamped at
    # LOG_FLOOR inside the log exactly as `_log_psd_batch` clamps them.
    w = np.linalg.eigvalsh(stack)
    return -(w * np.log(np.maximum(w, LOG_FLOOR))).sum(axis=1)


def mutual_info(pi: Ensemble, ch: Channel) -> float:
    """Holevo mutual information `sum_i w_i D(G(s_i) || G(rho_bar))`.

    Since `G(rho_bar) = sum_i w_i G(s_i)`, this equals
    `S(G(rho_bar)) - sum_i w_i S(G(s_i))` with the same clamped logs, so
    it is computed from eigenvalues alone.  Zero-weight components are
    skipped, so padding an ensemble with unused states does not change
    the value.
    """
    mask = pi.weights > 0
    w = pi.weights[mask]
    outs = _apply_batch(ch, pi.states[mask])
    out_bar = np.einsum("n,nab->ab", w, outs)
    return float(_entropy_batch(out_bar[None])[0] - w @ _entropy_batch(outs))


def phi_operator(sigma_p: np.ndarray, rho_p: np.ndarray, ch: Channel) -> np.ndarray:
    """`Phi = log G(sigma') - log G(rho')`, the solver's ascent direction seed."""
    logs = _log_psd_batch(np.stack([apply(ch, sigma_p), apply(ch, rho_p)]))
    return logs[0] - logs[1]


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
    outs = _apply_batch(ch, pi.states[mask])
    _, phis = _holevo_terms(wp, pi_p.states, ch)
    quantum = float(w[mask] @ np.einsum("nab,nba->n", outs, phis[mask]).real)
    return -classical + quantum


def entanglement(pi: Ensemble, dim_a: int, dim_b: int) -> float:
    """Average relative entropy of entanglement proxy of a bipartite ensemble.

    `Ent = sum_i w_i D(s_i || s_i^A (x) s_i^B)` with the marginals taken
    per component, evaluated through the identity
    `D(s || s^A (x) s^B) = S(s^A) + S(s^B) - S(s)`.
    """
    da, db = dim_a, dim_b
    if pi.dim != da * db:
        raise ValueError(f"ensemble dimension {pi.dim} does not split as {da}x{db}")
    mask = pi.weights > 0
    T = pi.states[mask].reshape(-1, da, db, da, db)
    rho_a = np.einsum("nabcb->nac", T)
    rho_b = np.einsum("nabad->nbd", T)
    ent = _entropy_batch(rho_a) + _entropy_batch(rho_b) - _entropy_batch(pi.states[mask])
    return float(pi.weights[mask] @ ent)
