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
    channel_from_dict,
    choi,
    dual_apply,
    load_channel,
    tensor,
    tp_residual,
    validate,
)
from .entropy import (
    Ensemble,
    entanglement,
    j_functional,
    mutual_info,
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
    default_n_states,
    initial_ensemble,
    multi_start,
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
    "channel_from_dict",
    "choi",
    "default_n_states",
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
    "rel_entropy",
    "run",
    "tensor",
    "tp_residual",
    "trace_product",
    "validate",
]
