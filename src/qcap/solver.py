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
exactly the steps it would take alone.  Converged ensembles hold many
copies of few states; the step on kets merges a start's coincident kets
into one, iterates it once and expands the result back to every
component, so the copies cost nothing once they meet.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channels import Channel, _pauli_coords, _pauli_operators
from .entropy import Ensemble, _entanglement_terms, _holevo_terms, _schmidt_terms
from .linalg import (
    _entropy_and_log,
    _herm_coords,
    _herm_operators,
    _pauli_entropy_and_log,
    _pure_coords,
    _top_kets,
)

# Not called here, but bench/tracing.py wraps these bindings, so they stay.
from .channels import _apply_batch  # noqa: F401
from .entropy import entanglement, mutual_info  # noqa: F401
from .linalg import _log_psd_batch  # noqa: F401

# A later start replaces the best one only when it gains more than this
# many nats, so ties decided by rounding keep the earliest start.
START_TIE_NATS = 1e-12

# Doubles resolve a capacity of a few nats to about 15 decimals, so a
# stricter stop rule could never be met.
MAX_DECIMAL_PLACES = 15

# The ket step merges two kets of a start once `|a - e^{i phi} b| <= MERGE_TOL`
# at the best phase.  A merged state moves by at most this much, so every
# reported state stays within the 1e-12 to which the parity tests compare
# the ket step with the Pauli step (at 1e-10, weight-scaled states moved by
# 1.9e-11 there).  Kets of one state come out of `_top_kets` about 1e-15
# apart, far below it.  Larger is faster: `gamma1^(x)4` merges sooner, and
# its one-start solve took 2.4 s at 1e-10, 2.6 s at 1e-12 and 3.0 s at
# 1e-13, against 4.4 s unmerged (one core, numpy 2.4).
MERGE_TOL = 1e-12
# ... tested every this many iterations.  The test's own time was 11 % of a
# gamma5 solve (9 kets, d = 3) when run every iteration, 4 % at every 5th
# and 2 % at every 10th; on gamma5 (x) gamma5 (d = 9) 3 %, 0.6 % and 0.4 %.
# At 5 a group is merged at most 4 iterations after it meets.
MERGE_EVERY = 5
# Only pairs whose overlap `|<a|b>|` comes this close to 1 have their
# distance computed.  Unit kets at distance r have `1 - |<a|b>| = r^2/2`,
# 5e-25 at MERGE_TOL, so this margin need only exceed the overlap's
# rounding; it admits pairs up to about 1.4e-6 apart.
_MERGE_OVERLAP = 1 - 1e-12
# Pauli coordinates of |1>, the Pauli step's state for a zero `g_vec`.
_LOWER_POLE = np.array([1.0, 0.0, 0.0, -1.0])
# A process keeps the start stacks it has drawn whose weights and states
# take at most this many bytes, the most recently used this many of them:
# 1 MiB in all.  Redrawing a qubit solve's five starts took 0.12 ms of a
# 2.3 ms command (one core, numpy 2.4).  Every default stack up to d = 4
# (20 KiB there) is kept; one at d = 8 (320 KiB) or more is drawn each time.
START_MEMO_BYTES = 64 * 1024
START_MEMO_ENTRIES = 16


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
        # Start 0 of a qubit solve draws nothing, so the seed is checked here,
        # whichever starts run.
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
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


@dataclass(frozen=True)
class CapacityResult:
    capacity: float
    ensemble: Ensemble
    converged: bool
    iterations_used: int
    start_index: int
    trace: IterationTrace


class _Finish(NamedTuple):
    # One start's end as `_iterate` returns it, unvalidated: its weights, its
    # (n, d, d) states, and its trace as lists, the last value being its
    # capacity.
    weights: np.ndarray
    states: np.ndarray
    converged: bool
    values: list[float]
    ents: list[float] | None


def _result(end: _Finish, start_index: int) -> CapacityResult:
    # The validated `CapacityResult` of one end: only the one a solve
    # returns is validated.
    pi = Ensemble(end.weights, end.states)
    trace = IterationTrace(np.array(end.values), None if end.ents is None else np.array(end.ents))
    return CapacityResult(end.values[-1], pi, end.converged, len(end.values), start_index, trace)


def default_n_states(dim: int) -> int:
    """Ensemble size `dim ** 2`, enough to support any capacity maximizer."""
    return dim * dim


def default_starts(dim: int) -> int:
    """Five starts, dropped to three for dimension 9 and up to bound runtime."""
    return 3 if dim >= 9 else 5


def _projectors(kets: np.ndarray) -> np.ndarray:
    # The pure states `|psi><psi|` of a (..., n, d) ket stack.
    return np.einsum("...na,...nb->...nab", kets, kets.conj())


def _unit_kets(rng: np.random.Generator, n_states: int, dim: int) -> np.ndarray:
    # `n_states` isotropic complex Gaussian kets, normalized.
    psi = rng.standard_normal((n_states, dim)) + 1j * rng.standard_normal((n_states, dim))
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    return psi


# Start 0 of a four-state qubit solve: uniform weights over four pure states
# spread over the Bloch sphere, the +x and -y axis states, the north pole,
# and a fourth state tilted off every axis.  Shared read-only; `_draw_starts`
# copies it.
_S3 = np.sqrt(3.0)
_CANONICAL_QUBIT_STATES = np.array(
    [
        [[0.5, 0.5], [0.5, 0.5]],
        [[0.5, 0.5j], [-0.5j, 0.5]],
        [[1.0, 0.0], [0.0, 0.0]],
        [
            [(_S3 - 1) / (2 * _S3), (-1 - 1j) / (2 * _S3)],
            [(-1 + 1j) / (2 * _S3), (_S3 + 1) / (2 * _S3)],
        ],
    ],
    dtype=complex,
)
_CANONICAL_QUBIT_STATES.flags.writeable = False


def _starts(dim: int, n_states: int, seed: int, indices) -> tuple[np.ndarray, np.ndarray]:
    # The (s, n) weights and (s, n, d, d) states of the starts `indices`,
    # unvalidated and writable.  A stack of at most START_MEMO_BYTES is drawn
    # once per process (`_memo_starts`) and copied out; a larger one is drawn
    # afresh each time and never kept.
    size = len(indices) * n_states * (8 + 16 * dim * dim)
    if size > START_MEMO_BYTES:
        return _draw_starts(dim, n_states, seed, indices)
    weights, states = _memo_starts(dim, n_states, seed, *indices)
    return weights.copy(), states.copy()


@functools.lru_cache(maxsize=START_MEMO_ENTRIES, typed=True)
def _memo_starts(dim: int, n_states: int, seed: int, *indices: int):
    # `_draw_starts`, kept read-only.  Each index is its own argument, so
    # `typed` keys every value by its type: a float that equals an int
    # misses, and raises as a fresh draw does.
    weights, states = _draw_starts(dim, n_states, seed, indices)
    weights.flags.writeable = False
    states.flags.writeable = False
    return weights, states


def _draw_starts(dim: int, n_states: int, seed: int, indices) -> tuple[np.ndarray, np.ndarray]:
    # Start 0 of a four-state qubit ensemble is the canonical one, every
    # other start `i` takes its kets from `default_rng([seed, i])`.  The kets
    # take one projector product for the whole stack.
    canonical = []
    psi = np.ones((len(indices), n_states, dim), dtype=complex)
    for row, index in enumerate(indices):
        if index == 0 and dim == 2 and n_states == 4:
            canonical.append(row)
        else:
            psi[row] = _unit_kets(np.random.default_rng([seed, index]), n_states, dim)
    states = _projectors(psi)
    for row in canonical:
        states[row] = _CANONICAL_QUBIT_STATES
    return np.full((len(indices), n_states), 1.0 / n_states), states


def initial_ensemble(dim: int, n_states: int, seed: int, index: int) -> Ensemble:
    """Start ensemble for restart `index`: deterministic at 0, seeded random after.

    Weights are uniform.  Start 0 of a four-state qubit ensemble is fixed;
    every other start draws its pure states from `default_rng([seed,
    index])` as normalized isotropic complex Gaussian vectors, generically
    entangled across any factor split.  Each call returns fresh arrays,
    copies of the stack when the process keeps it (`START_MEMO_BYTES`).
    """
    bounds = (("dim", dim, 1), ("n_states", n_states, 1), ("seed", seed, 0), ("index", index, 0))
    for name, value, least in bounds:
        if value < least:
            raise ValueError(f"{name} must be at least {least}, got {value}")
    weights, states = _starts(dim, n_states, seed, [index])
    return Ensemble(weights[0], states[0])


def _ascend(R: np.ndarray, weights: np.ndarray, phis: np.ndarray, kets: np.ndarray | None):
    # The alternating update of every row of an (s, n) weight stack, given
    # the Hermitian coordinates (s, n, d_out^2) of its ascent operators and
    # the channel's real transfer matrix R: each state becomes the top
    # eigenvector of `G*(Phi_i)`, whose coordinates are `phi R`, and each
    # weight is rescaled by `exp(Tr[G(s_new_i) Phi_i])`, a dot product of
    # coordinates.  Only the top eigenpair is read, so the dual images take
    # one eigvalsh and inverse iteration (`_top_kets`), not a full eigh;
    # the (s, n, d) kets of the stack's current states, None before the
    # first update, are its warm starts.  Returns the new weights, the
    # (s, n, d) kets of the new states and the coordinates of their
    # outputs, which the next iteration's Holevo terms take as given.
    s, n, _ = phis.shape
    phis = phis.reshape(s * n, -1)
    start = None if kets is None else kets.reshape(s * n, -1)
    psi = _top_kets(_herm_operators(phis @ R), start)
    outs = _pure_coords(psi) @ R.T
    scores = np.einsum("nj,nj->n", outs, phis).reshape(s, n)
    return _reweight(weights, scores), psi.reshape(s, n, -1), outs.reshape(s, n, -1)


def _reweight(weights: np.ndarray, scores: np.ndarray) -> np.ndarray:
    # Each weight times `exp(score)`, shifted by the row's largest score so
    # that no factor overflows, renormalized per row.
    new_w = weights * np.exp(scores - scores.max(axis=1, keepdims=True))
    new_w /= new_w.sum(axis=1, keepdims=True)
    return new_w


def _merge_roots(kets: np.ndarray) -> np.ndarray | None:
    # For each ket of one start's (m, d) stack, the ket it merges into: the
    # lowest-indexed ket within MERGE_TOL of it (or itself), followed down
    # until a ket merges into itself, so that a chain of near kets forms
    # one group.  None if no ket merges.  One overlap matmul picks the
    # pairs near enough to measure, and only their distances are computed.
    overlap = kets.conj() @ kets.T  # <a_i|a_j>
    i, j = np.nonzero(np.abs(overlap) > _MERGE_OVERLAP)
    i, j = i[j < i], j[j < i]
    # `e^{i phi} = <a_j|a_i> / |<a_j|a_i>|` brings ket j nearest ket i.
    phase = overlap[i, j].conj()
    phase /= np.abs(phase)
    near = np.linalg.norm(kets[i] - phase[:, None] * kets[j], axis=1) <= MERGE_TOL
    if not near.any():
        return None
    root = np.arange(len(kets))
    np.minimum.at(root, i[near], j[near])
    while not np.array_equal(root[root], root):
        root = root[root]
    return root


def _merge(weights, kets, outs, rows, groups, shares):
    # Merge each start's coincident kets (`_merge_roots`, one start at a
    # time) into their lowest one, with the sum of their weights.  The
    # update reads a state only through its own output and the shared
    # average, so coincident states stay coincident and keep their weight
    # ratio: each original component of start `idx` is kept as its row
    # `groups[idx]` in the stack and its constant share `shares[idx]` of
    # that row's weight.  The stack shrinks to the widest start's group
    # count; a narrower start is padded with zero-weight copies of its
    # first ket, whose weight stays zero and whose score equals that
    # ket's, and which no later merge reads.  If no start merges, the
    # stack is returned as it is.  Batching the starts would save little at
    # one merge per MERGE_EVERY updates: on one core this loop spent 15 ms
    # of a 1.0 s five-start `gamma1^(x)3` solve, as the batched form did,
    # and 20 ms against its 16 ms of a 2.0 s `gamma5 (x) gamma6` one.
    sizes = [groups[idx].max() + 1 for idx in rows]
    roots = [_merge_roots(kets[row, :size]) for row, size in enumerate(sizes)]
    if all(root is None for root in roots):
        return weights, kets, outs
    kept = []  # per start: its groups' lowest kets and summed weights
    for row, (idx, size, root) in enumerate(zip(rows, sizes, roots)):
        top, label = np.unique(np.arange(size) if root is None else root, return_inverse=True)
        w = weights[row, :size]
        total = np.bincount(label, w)
        share = np.divide(w, total[label], out=np.zeros(size), where=total[label] > 0)
        shares[idx] = shares[idx] * share[groups[idx]]
        groups[idx] = label[groups[idx]]
        kept.append((top, total))
    take = np.zeros((len(rows), max(len(top) for top, _ in kept)), dtype=int)
    new_w = np.zeros(take.shape)
    for row, (top, total) in enumerate(kept):
        take[row, : len(top)] = top
        new_w[row, : len(top)] = total
    at = np.arange(len(rows))[:, None], take
    return new_w, kets[at], outs[at]


def _pauli_path(ch: Channel, ent_dims: tuple[int, int] | None) -> bool:
    # Whether `_iterate` takes the Pauli-basis step; the entanglement
    # monitor reads kets, so a tracked run keeps the ket step.
    return ch.dim_in == ch.dim_out == 2 and ent_dims is None


def _pauli_ascend(R: np.ndarray, weights: np.ndarray, phis: np.ndarray):
    # `_ascend` for a qubit -> qubit map with Pauli transfer matrix R, on
    # (s, n, 4) Pauli coordinates of the ascent operators.  The dual image
    # `G*(Phi_i)` has coordinates `g = phi R`; its top eigenvector is the
    # pure state with Bloch vector `g_vec / |g_vec|` and eigenvalue
    # `(g_0 + |g_vec|)/2`, the score.  That state's Pauli coordinates
    # `(1, g_vec / |g_vec|)` are `g` with `g_0` overwritten by `|g_vec|`,
    # divided once.  A zero `g_vec` (every state is then optimal) takes
    # `(1, 0, 0, -1)`, the |1> that eigh returns for a multiple of the
    # identity.  Returns the new weights, the (s, n, 4) Pauli coordinates
    # of the new states and those of their outputs.
    g = phis @ R
    norm = np.sqrt(np.einsum("snj,snj->sn", g[..., 1:], g[..., 1:]))
    new_w = _reweight(weights, (g[..., 0] + norm) / 2)
    g[..., 0] = norm
    zero = norm == 0
    if zero.any():
        g[zero] = _LOWER_POLE
        norm[zero] = 1.0
    g /= norm[..., None]
    return new_w, g, g @ R.T


def _iterate(
    ch: Channel,
    weights: np.ndarray,
    states: np.ndarray,
    cfg: SolverConfig,
    ent_dims: tuple[int, int] | None = None,
) -> list[_Finish]:
    """Iterate the starts `(weights[i], states[i])` as one stack; one end each.

    `weights` is an (s, n) stack and `states` an (s, n, d, d) one, taken
    as valid ensembles (`run` and `multi_start` build them so).  Returns
    one end per start, its states as (n, d, d) matrices.

    Each iteration takes the mutual information and ascent operators of
    all starts from one eigh of their outputs and averages together.
    It updates them with one eigvalsh of the dual images, whose top kets
    then come by inverse iteration from the current kets, one solve for
    most rows (eigh only for a row with no gap below its top), and one
    apply of the new states, whose outputs the next iteration reuses.  A
    start that meets the stop rule (or `max_iters`) leaves the stack
    with its end, held unvalidated (`_Finish`); the others go on.  Starts
    never mix, so each end is the one the start would reach alone.
    `_result` turns the one end a solve returns into its validated
    `CapacityResult`.

    Outputs, logs, ascent operators and dual images are held as real
    Hermitian coordinates (`linalg._herm_coords`) and mapped by the
    channel's real transfer matrix, so the step makes no complex matrix
    product outside its eigensolvers.  After the first update the stack
    is held as kets, and every end's states become matrices in one call
    once the last start has ended.  The tracked entanglement of the
    initial states, which may be mixed, takes the general form; that of
    every later stack takes the pure-state Schmidt form, one small
    eigvalsh per update.

    Every `MERGE_EVERY` updates, `_merge` takes the starts one at a time
    and merges the kets of each that coincide within `MERGE_TOL` (after
    phase alignment) into one row with their summed weight; the stack
    then shrinks to the start with the most distinct kets.  Coincident
    states stay coincident and keep their weight ratio, so each start
    records every component's row and constant share of its weight, and
    its end is expanded back to all `n` components.  A converging
    `gamma1^(x)4` stack falls from 256 rows to 16, and each distinct
    state is stepped once.

    A qubit -> qubit map without tracked entanglement takes the same
    steps in real Pauli coordinates instead (`_pauli_ascend`): a qubit
    map is affine on the Bloch ball, so every entropy, log and top
    eigenvector has a closed form, and the stack is held as the Pauli
    coordinates of its pure states.  Only the step differs; the stop rule
    and the results do not.
    """
    s, n = weights.shape
    pauli = _pauli_path(ch, ent_dims)
    if pauli:
        op, coords = ch._pauli_transfer, _pauli_coords
        entropy_and_log, to_states = _pauli_entropy_and_log, _pauli_operators
    else:
        op, coords = ch._transfer, _herm_coords
        entropy_and_log, to_states = _entropy_and_log, _projectors
    # What the step applies: the real transfer matrix, to every state of
    # every start in one 2-D product, whose bits do not hang on how a BLAS
    # splits a stack of products over its threads.
    outs = (coords(states).reshape(s * n, -1) @ op.T).reshape(s, n, -1)
    if ent_dims is not None:
        terms = _entanglement_terms(states, *ent_dims)
    pure = None  # the updated stack's kets or Pauli coordinates; until then `states`
    rows = list(range(s))  # start index of each row still in the stack
    values: list[list[float]] = [[] for _ in rows]
    ents: list[list[float]] = [[] for _ in rows]
    last = [None] * s  # last rounded value and how many times in a row it came
    streak = [0] * s
    finished: list[_Finish | None] = [None] * s
    groups = [np.arange(n)] * s  # per start: each component's row in the stack
    shares = [np.ones(n)] * s  # ... and its share of that row's weight
    for k in range(1, cfg.max_iters + 1):
        info, phis = _holevo_terms(weights, outs, entropy_and_log)
        del outs  # each dead stack is released before the next one is built
        if ent_dims is not None:
            ent = np.einsum("sn,sn->s", weights, terms).tolist()
        keep = []
        info = info.tolist()
        for row, idx in enumerate(rows):
            value = info[row]
            if not math.isfinite(value):
                raise np.linalg.LinAlgError(f"mutual information is {value} at iteration {k}")
            values[idx].append(value)
            if ent_dims is not None:
                ents[idx].append(ent[row])
            rounded = round(value, cfg.decimal_places)
            streak[idx] = streak[idx] + 1 if rounded == last[idx] else 1
            last[idx] = rounded
            converged = streak[idx] >= cfg.patience
            if converged or k == cfg.max_iters:
                at = groups[idx]
                held = states if pure is None else pure
                finished[idx] = _Finish(
                    weights[row][at] * shares[idx], held[row][at], converged,
                    values[idx], ents[idx] if ent_dims is not None else None,
                )
            else:
                keep.append(row)
        if not keep:
            break
        if len(keep) < len(rows):
            rows = [rows[r] for r in keep]
            weights, phis = weights[keep], phis[keep]
            if pure is not None:
                pure = pure[keep]
        states = None  # the initial stack, read only until the first update
        if pauli:
            weights, pure, outs = _pauli_ascend(op, weights, phis)
        else:  # the current kets, if any, are the warm starts
            weights, pure, outs = _ascend(op, weights, phis, pure)
        del phis
        if not pauli and k % MERGE_EVERY == 0:
            weights, pure, outs = _merge(weights, pure, outs, rows, groups, shares)
        if ent_dims is not None:
            terms = _schmidt_terms(pure, *ent_dims)
    if pure is None:  # no update ran: the ends hold their initial matrices
        return finished
    mats = to_states(np.array([end.states for end in finished]))
    return [end._replace(states=m) for end, m in zip(finished, mats)]


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
    return _result(_iterate(ch, init.weights[None], init.states[None], cfg, ent_dims)[0], 0)


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
    otherwise); starts `i >= 1` draw seeded random ensembles, so the
    whole search is reproducible from `config.seed`.  A process draws a
    stack of at most `START_MEMO_BYTES` once and reuses it.  The starts
    iterate together, and each gives the result `run` gives from it.
    """
    cfg = config.resolved(ch)
    weights, states = _starts(ch.dim_in, cfg.n_states, cfg.seed, range(cfg.starts))
    ends = _iterate(ch, weights, states, cfg, ent_dims)
    best = 0
    for i, end in enumerate(ends):
        if end.values[-1] > ends[best].values[-1] + START_TIE_NATS:
            best = i
    return _result(ends[best], best)
