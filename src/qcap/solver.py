"""Alternating-maximization solver for the Holevo capacity.

The capacity `C = max_pi I(pi)` is approached by alternating between
two coupled ensembles.  Given the current ensemble, each state is
replaced by the top eigenvector of the dual image of its own ascent
operator `Phi_i = log G(s_i) - log G(rho_bar)`, and each weight is
rescaled by `exp(Tr[G(s_new_i) Phi_i])`.  Nothing else of the dual
image's spectrum is read, so its top eigenpair is all that is computed.
The mutual information is non-decreasing along the iteration,
sandwiched by the surrogate `J` between consecutive ensembles, and the
run stops once a fixed number of successive values agree to a fixed
number of decimals.

Random restarts guard against the non-concavity of `I` in the states;
`multi_start` runs a deterministic first start plus seeded random ones
and keeps the best.  All starts of a solve iterate together as one
stack, and each leaves the stack once it settles, so every start takes
exactly the steps it would take alone.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .channels import Channel, _apply_batch, _bloch_states, _dual_apply_batch, _pauli_coords
from .entropy import Ensemble, _entanglement_terms, _holevo_terms, _schmidt_terms
from .linalg import _entropy_and_log, _pauli_entropy_and_log, _top_kets, hermitize

# Not called here, but bench/tracing.py wraps these bindings, so they stay.
from .entropy import entanglement, mutual_info  # noqa: F401
from .linalg import _log_psd_batch  # noqa: F401

# A later start replaces the best one only when it gains more than this
# many nats, so ties decided by rounding keep the earliest start.
START_TIE_NATS = 1e-12

# Doubles resolve a capacity of a few nats to about 15 decimals, so a
# stricter stop rule could never be met.
MAX_DECIMAL_PLACES = 15


@dataclass(frozen=True)
class SolverConfig:
    """Iteration controls; `None` fields fall back to per-dimension defaults."""

    n_states: int | None = None
    starts: int | None = None
    seed: int = 0
    decimal_places: int = 6
    patience: int = 10
    max_iters: int = 100000

    def resolved(self, ch: Channel) -> "SolverConfig":
        n = self.n_states if self.n_states is not None else default_n_states(ch.dim_in)
        s = self.starts if self.starts is not None else default_starts(ch.dim_in)
        if n < 1 or s < 1 or self.max_iters < 1:
            raise ValueError("n_states, starts and max_iters must be positive")
        if self.patience < 2:
            raise ValueError("patience must be at least 2")
        places = self.decimal_places
        if not (isinstance(places, (int, np.integer)) and 1 <= places <= MAX_DECIMAL_PLACES):
            raise ValueError(
                f"decimal_places must be an integer from 1 to {MAX_DECIMAL_PLACES}, got {places!r}"
            )
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


def _projectors(kets: np.ndarray) -> np.ndarray:
    # The pure states `|psi><psi|` of an (n, d) ket stack.
    return np.einsum("na,nb->nab", kets, kets.conj())


def random_start(dim: int, n_states: int, rng: np.random.Generator) -> Ensemble:
    """Uniform weights over `n_states` independent random pure states.

    Vectors are isotropic complex Gaussians, normalized, so on composite
    spaces the states are generically entangled across any factor split.
    """
    psi = rng.standard_normal((n_states, dim)) + 1j * rng.standard_normal((n_states, dim))
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    return Ensemble(np.full(n_states, 1.0 / n_states), _projectors(psi))


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


def _ascend(ch: Channel, weights: np.ndarray, phis: np.ndarray):
    # The alternating update of every row of an (s, n) weight stack, given
    # its (s, n, d_out, d_out) ascent operators: each state becomes the top
    # eigenvector of `G*(Phi_i)`, each weight is rescaled by
    # `exp(Tr[G(s_new_i) Phi_i])`.  Only the top eigenpair is read, so the
    # dual images take one eigvalsh and inverse iteration (`_top_kets`),
    # not a full eigh.  Returns the new weights, the (s, n, d) kets of the
    # new states and their outputs, which the next iteration's Holevo
    # terms take as given.
    s, n = weights.shape
    d, do = ch.dim_in, ch.dim_out
    phis = phis.reshape(s * n, do, do)
    psi = _top_kets(hermitize(_dual_apply_batch(ch, phis)))
    outs = _apply_batch(ch, _projectors(psi))
    scores = np.einsum("nab,nba->n", outs, phis).real.reshape(s, n)
    return _reweight(weights, scores), psi.reshape(s, n, d), outs.reshape(s, n, do, do)


def _reweight(weights: np.ndarray, scores: np.ndarray) -> np.ndarray:
    # Each weight times `exp(score)`, shifted by the row's largest score so
    # that no factor overflows, renormalized per row.
    new_w = weights * np.exp(scores - scores.max(axis=1, keepdims=True))
    new_w /= new_w.sum(axis=1, keepdims=True)
    return new_w


def _pauli_path(ch: Channel, ent_dims: tuple[int, int] | None) -> bool:
    # Whether `_iterate` takes the Pauli-basis step; the entanglement
    # monitor reads kets, so a tracked run keeps the ket step.
    return ch.dim_in == ch.dim_out == 2 and ent_dims is None


def _pauli_ascend(R: np.ndarray, weights: np.ndarray, phis: np.ndarray):
    # `_ascend` for a qubit -> qubit map with Pauli transfer matrix R, on
    # (s, n, 4) Pauli coordinates of the ascent operators.  The dual image
    # `G*(Phi_i)` has coordinates `g = phi R`; its top eigenvector is the
    # pure state with Bloch vector `g_vec / |g_vec|` and eigenvalue
    # `(g_0 + |g_vec|)/2`, the score.  A zero `g_vec` (every state is then
    # optimal) takes `(0, 0, -1)`, the |1> that eigh returns for a multiple
    # of the identity.  Returns the new weights, the (s, n, 3) Bloch
    # vectors of the new states and the Pauli coordinates of their outputs.
    g = phis @ R
    gv = g[..., 1:]
    norm = np.sqrt(np.einsum("snj,snj->sn", gv, gv))
    theta = np.divide(gv, norm[..., None], out=np.zeros_like(gv), where=norm[..., None] > 0)
    theta[norm == 0, 2] = -1.0
    new_w = _reweight(weights, (g[..., 0] + norm) / 2)
    return new_w, theta, R[:, 0] + theta @ R[:, 1:].T


def _iterate(
    ch: Channel,
    inits: list[Ensemble],
    cfg: SolverConfig,
    ent_dims: tuple[int, int] | None = None,
) -> list[CapacityResult]:
    """Iterate every start in `inits` as one stack; one result per start.

    Each iteration takes the mutual information and ascent operators of
    all starts from one eigh of their outputs and one of their averages.
    It updates them with one eigvalsh of the dual images, whose top kets
    then come by inverse iteration (eigh only for a row with no gap below
    its top), and one apply of the new states, whose outputs the next
    iteration reuses.  A start that meets the stop rule (or `max_iters`)
    leaves the stack with its result; the others go on.  Starts never
    mix, so each result is the one the start would reach alone.

    After the first update the stack is held as kets, and a state matrix
    is built only for a returned result.  The tracked entanglement of the
    initial states, which may be mixed, takes the general form; that of
    every later stack takes the pure-state Schmidt form, one small
    eigvalsh per update.

    A qubit -> qubit map without tracked entanglement takes the same
    steps in real Pauli coordinates instead (`_pauli_ascend`): a qubit
    map is affine on the Bloch ball, so every entropy, log and top
    eigenvector has a closed form, and the stack is held as Bloch
    vectors.  Only the step differs; the stop rule and the results do not.
    """
    weights = np.stack([p.weights for p in inits])
    states = np.stack([p.states for p in inits])
    s, n, d, _ = states.shape
    do = ch.dim_out
    if _pauli_path(ch, ent_dims):
        op = ch._pauli_transfer  # what the step applies: this matrix, or the channel
        outs = _pauli_coords(states) @ op.T
        entropy_and_log, ascend, pure_states = _pauli_entropy_and_log, _pauli_ascend, _bloch_states
    else:
        op = ch
        outs = _apply_batch(ch, states.reshape(s * n, d, d)).reshape(s, n, do, do)
        entropy_and_log, ascend, pure_states = _entropy_and_log, _ascend, _projectors
    if ent_dims is not None:
        terms = _entanglement_terms(states, *ent_dims)
    pure = None  # the updated stack's kets or Bloch vectors; until then `states`
    rows = list(range(s))  # start index of each row still in the stack
    values: list[list[float]] = [[] for _ in rows]
    ents: list[list[float]] = [[] for _ in rows]
    last = [None] * s  # last rounded value and how many times in a row it came
    streak = [0] * s
    results: list[CapacityResult | None] = [None] * s
    for k in range(1, cfg.max_iters + 1):
        info, phis = _holevo_terms(weights, outs, entropy_and_log)
        del outs  # each dead stack is released before the next one is built
        if ent_dims is not None:
            ent = np.einsum("sn,sn->s", weights, terms)
        keep = []
        for row, idx in enumerate(rows):
            value = float(info[row])
            if not math.isfinite(value):
                raise np.linalg.LinAlgError(f"mutual information is {value} at iteration {k}")
            values[idx].append(value)
            if ent_dims is not None:
                ents[idx].append(float(ent[row]))
            rounded = round(value, cfg.decimal_places)
            streak[idx] = streak[idx] + 1 if rounded == last[idx] else 1
            last[idx] = rounded
            converged = streak[idx] >= cfg.patience
            if converged or k == cfg.max_iters:
                trace = IterationTrace(
                    np.array(values[idx]), np.array(ents[idx]) if ent_dims is not None else None
                )
                final = states[row].copy() if pure is None else pure_states(pure[row])
                pi = Ensemble(weights[row].copy(), final)
                results[idx] = CapacityResult(value, pi, converged, k, idx, trace)
            else:
                keep.append(row)
        if not keep:
            break
        if len(keep) < len(rows):
            rows = [rows[r] for r in keep]
            weights, phis = weights[keep], phis[keep]
        states = None  # the initial stack, read only until the first update
        weights, pure, outs = ascend(op, weights, phis)
        del phis
        if ent_dims is not None:
            terms = _schmidt_terms(pure, *ent_dims)
    return results


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
    cfg = dataclasses.replace(config, n_states=init.n_states).resolved(ch)
    return _iterate(ch, [init], cfg, ent_dims)[0]


def ab_step(pi: Ensemble, ch: Channel, cfg: SolverConfig = SolverConfig()) -> Ensemble:
    """One update of the solver's kernel; returns a new ensemble of pure states.

    This is `run` stopped after its first update, so it takes the step
    `run` takes: on a qubit -> qubit map the Pauli step, whose output
    differs from the ket step's by rounding (about 1e-15).  Weights are
    rescaled in shifted log space, so extreme `exp(Tr[...])` factors
    cannot overflow, and zero weights stay zero.  Like `run`, it raises
    `np.linalg.LinAlgError` if the mutual information is not finite.
    """
    return run(ch, pi, dataclasses.replace(cfg, max_iters=2)).ensemble


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
    the whole search is reproducible from `config.seed`.  The starts
    iterate together, and each gives the result `run` gives from it.
    """
    cfg = config.resolved(ch)
    inits = [initial_ensemble(ch.dim_in, cfg.n_states, cfg.seed, i) for i in range(cfg.starts)]
    best: CapacityResult | None = None
    for res in _iterate(ch, inits, cfg, ent_dims):
        if best is None or res.capacity > best.capacity + START_TIE_NATS:
            best = res
    return best
