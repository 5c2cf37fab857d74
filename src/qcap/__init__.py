"""Holevo capacity of finite-dimensional quantum channels.

The public surface: build or load a `Channel`, hand it to `multi_start`
(or `run` for a single start), and read the capacity in nats off the
returned `CapacityResult`.  `additivity` questions reduce to comparing
capacities of `tensor` products against sums of the parts.
"""

from .channels import (
    AffineQubit,
    Channel,
    ValidationReport,
    affine_cp_matrix,
    affine_to_channel,
    apply,
    bloch_state,
    bloch_vector,
    channel_from_dict,
    channel_to_dict,
    choi,
    dual_apply,
    load_channel,
    save_channel,
    tensor,
    tp_residual,
    validate,
)
from .entropy import (
    Ensemble,
    entanglement,
    j_functional,
    mutual_info,
    phi_operator,
    rel_entropy,
)
from .fixtures import FIXTURE_NAMES, fixture_channel
from .linalg import (
    EigenDecomposition,
    herm_eig,
    hermitize,
    kron,
    matrix_log_psd,
    partial_trace,
    trace_product,
)
from .solver import (
    CapacityResult,
    IterationTrace,
    SolverConfig,
    ab_step,
    canonical_qubit_start,
    default_n_states,
    default_starts,
    initial_ensemble,
    multi_start,
    random_start,
    run,
)

__version__ = "0.1.0"

__all__ = [
    "AffineQubit",
    "CapacityResult",
    "Channel",
    "EigenDecomposition",
    "Ensemble",
    "FIXTURE_NAMES",
    "IterationTrace",
    "SolverConfig",
    "ValidationReport",
    "ab_step",
    "affine_cp_matrix",
    "affine_to_channel",
    "apply",
    "bloch_state",
    "bloch_vector",
    "canonical_qubit_start",
    "channel_from_dict",
    "channel_to_dict",
    "choi",
    "default_n_states",
    "default_starts",
    "dual_apply",
    "entanglement",
    "fixture_channel",
    "herm_eig",
    "hermitize",
    "initial_ensemble",
    "j_functional",
    "kron",
    "load_channel",
    "matrix_log_psd",
    "multi_start",
    "mutual_info",
    "partial_trace",
    "phi_operator",
    "random_start",
    "rel_entropy",
    "run",
    "save_channel",
    "tensor",
    "tp_residual",
    "trace_product",
    "validate",
]
