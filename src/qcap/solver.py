"""Alternating-maximization solver for the Holevo capacity.

The capacity `C = max_pi I(pi)` is approached by alternating between
two coupled ensembles.  Given the current ensemble, each state is
replaced by the top eigenvector of the dual image of its own ascent
operator `Phi_i = log G(s_i) - log G(rho_bar)`, and each weight is
rescaled by `exp(Tr[G(s_new_i) Phi_i])`.  The mutual information is
non-decreasing along the iteration, sandwiched by the surrogate `J`
between consecutive ensembles, and the run stops once a fixed number of
successive values agree to a fixed number of decimals.

Random restarts guard against the non-concavity of `I` in the states;
`multi_start` runs a deterministic first start plus seeded random ones
and keeps the best.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .channels import Channel, _apply_batch, _dual_apply_batch
from .entropy import Ensemble, _holevo_terms, entanglement, mutual_info
from .linalg import hermitize

# Not called here, but bench/tracing.py wraps this binding, so it stays.
from .linalg import _log_psd_batch  # noqa: F401

# A later start replaces the best one only when it gains more than this
# many nats, so ties decided by rounding keep the earliest start.
START_TIE_NATS = 1e-12


@dataclass(frozen=True)
class SolverConfig:
    """Iteration controls; `None` fields fall back to per-dimension defaults."""

    n_states: int | None = None
    starts: int | None = None
    seed: int = 0
    decimal_places: int = 6
    patience: int = 10
    max_iters: int = 100000
    weight_floor: float = 0.0

    def resolved(self, ch: Channel) -> "SolverConfig":
        n = self.n_states if self.n_states is not None else default_n_states(ch.dim_in)
        s = self.starts if self.starts is not None else default_starts(ch.dim_in)
        if n < 1 or s < 1 or self.max_iters < 1:
            raise ValueError("n_states, starts and max_iters must be positive")
        if self.patience < 2:
            raise ValueError("patience must be at least 2")
        if not (0 <= self.weight_floor < 1):
            raise ValueError("weight_floor must be finite, nonnegative and below 1")
        return dataclasses.replace(self, n_states=n, starts=s)


@dataclass(frozen=True)
class IterationTrace:
    """Per-iteration mutual information, plus entanglement when tracked."""

    mutual_info: np.ndarray
    ent: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.mutual_info)

    @property
    def k(self) -> np.ndarray:
        return np.arange(1, len(self.mutual_info) + 1)


@dataclass(frozen=True)
class CapacityResult:
    capacity: float
    ensemble: Ensemble
    converged: bool
    iterations_used: int
    start_index: int
    trace: IterationTrace


def default_n_states(dim: int) -> int:
    """Ensemble size `dim ** 2`, enough to support any capacity maximizer."""
    return dim * dim


def default_starts(dim: int) -> int:
    """Five starts, dropped to three for dimension 9 and up to bound runtime."""
    return 3 if dim >= 9 else 5


def random_start(dim: int, n_states: int, rng: np.random.Generator) -> Ensemble:
    """Uniform weights over `n_states` independent random pure states.

    Vectors are isotropic complex Gaussians, normalized, so on composite
    spaces the states are generically entangled across any factor split.
    """
    psi = rng.standard_normal((n_states, dim)) + 1j * rng.standard_normal((n_states, dim))
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    states = np.einsum("na,nb->nab", psi, psi.conj())
    return Ensemble(np.full(n_states, 1.0 / n_states), states)


def canonical_qubit_start() -> Ensemble:
    """Fixed four-state qubit ensemble used as the deterministic first start.

    Uniform weights over four pure states spread over the Bloch sphere:
    the +x and -y axis states, the north pole, and a fourth state tilted
    off every axis.
    """
    s3 = np.sqrt(3.0)
    states = np.array(
        [
            [[0.5, 0.5], [0.5, 0.5]],
            [[0.5, 0.5j], [-0.5j, 0.5]],
            [[1.0, 0.0], [0.0, 0.0]],
            [
                [(s3 - 1) / (2 * s3), (-1 - 1j) / (2 * s3)],
                [(-1 + 1j) / (2 * s3), (s3 + 1) / (2 * s3)],
            ],
        ],
        dtype=complex,
    )
    return Ensemble(np.full(4, 0.25), states)


def initial_ensemble(dim: int, n_states: int, seed: int, index: int) -> Ensemble:
    """Start ensemble for restart `index`: deterministic at 0, seeded random after."""
    if index == 0 and dim == 2 and n_states == 4:
        return canonical_qubit_start()
    return random_start(dim, n_states, np.random.default_rng([seed, index]))


def ab_step(pi: Ensemble, ch: Channel, cfg: SolverConfig = SolverConfig()) -> Ensemble:
    """One alternating update; returns a new ensemble of pure states.

    Weight renormalization happens in shifted log space, so extreme
    `exp(Tr[...])` factors cannot overflow.  Zero weights stay zero;
    weights that land below `cfg.weight_floor` are zeroed outright.
    """
    if pi.dim != ch.dim_in:
        raise ValueError(f"ensemble dimension {pi.dim} != channel input {ch.dim_in}")
    _, phis = _holevo_terms(pi.weights, pi.states, ch)
    _, vecs = np.linalg.eigh(hermitize(_dual_apply_batch(ch, phis)))
    psi = vecs[..., -1]
    new_states = np.einsum("na,nb->nab", psi, psi.conj())
    scores = np.einsum("nab,nba->n", _apply_batch(ch, new_states), phis).real
    new_w = pi.weights * np.exp(scores - scores.max())
    if cfg.weight_floor > 0:
        new_w[new_w < cfg.weight_floor * new_w.sum()] = 0.0
    return Ensemble(new_w / new_w.sum(), new_states)


def run(
    ch: Channel,
    init: Ensemble,
    config: SolverConfig = SolverConfig(),
    ent_dims: tuple[int, int] | None = None,
) -> CapacityResult:
    """Iterate from `init` until the mutual information settles.

    Convergence means `patience` successive values agree after rounding
    to `decimal_places`.  The reported capacity is the mutual
    information of the returned ensemble itself, recorded before any
    further step.  When `ent_dims` is given the per-component
    entanglement of the ensemble is traced each iteration as well.

    Raises `np.linalg.LinAlgError` if the mutual information is not
    finite.
    """
    if init.dim != ch.dim_in:
        raise ValueError(f"initial ensemble dimension {init.dim} != channel input {ch.dim_in}")
    cfg = config.resolved(ch)
    pi = init
    values: list[float] = []
    ents: list[float] | None = [] if ent_dims is not None else None
    rounded: list[float] = []
    converged = False
    iterations = 0
    for k in range(1, cfg.max_iters + 1):
        iterations = k
        value = mutual_info(pi, ch)
        if not np.isfinite(value):
            raise np.linalg.LinAlgError(f"mutual information is {value} at iteration {k}")
        values.append(value)
        if ents is not None:
            ents.append(entanglement(pi, *ent_dims))
        rounded.append(round(value, cfg.decimal_places))
        if k >= cfg.patience and len(set(rounded[-cfg.patience :])) == 1:
            converged = True
            break
        if k == cfg.max_iters:
            break
        pi = ab_step(pi, ch, cfg)
    trace = IterationTrace(np.array(values), np.array(ents) if ents is not None else None)
    return CapacityResult(values[-1], pi, converged, iterations, 0, trace)


def multi_start(
    ch: Channel,
    config: SolverConfig = SolverConfig(),
    ent_dims: tuple[int, int] | None = None,
) -> CapacityResult:
    """Best of `starts` runs; ties in capacity keep the earliest start.

    A later start wins only if its capacity exceeds the best so far by
    more than `START_TIE_NATS` (1e-12 nats), so capacities that differ
    by rounding alone count as tied.

    Start 0 is deterministic (the fixed four-state ensemble when the
    input is a qubit and `n_states` is 4, a seeded random ensemble
    otherwise); starts `i >= 1` draw fresh seeded random ensembles, so
    the whole search is reproducible from `config.seed`.
    """
    cfg = config.resolved(ch)
    best: CapacityResult | None = None
    for idx in range(cfg.starts):
        init = initial_ensemble(ch.dim_in, cfg.n_states, cfg.seed, idx)
        res = run(ch, init, cfg, ent_dims)
        res = dataclasses.replace(res, start_index=idx)
        if best is None or res.capacity > best.capacity + START_TIE_NATS:
            best = res
    return best
