"""Correctness checks on captured reports, run outside the timed region.

Golden values and tolerances are read from the acceptance suite
(`tests/test_acceptance.py`) so the benchmark gates on the same numbers
the tests do.  The sweep check is a divergence-radius certificate written
against raw numpy, independent of the package's own linear algebra.
"""

from __future__ import annotations

import ast
import json
import math
from pathlib import Path

import numpy as np

GOLDEN_NAMES = ("SINGLE_ROWS", "PRODUCT_ROWS_QUTRIT", "PRODUCT_TOL", "GAP_TOL")

# Largest D(G(psi) || G(rho_bar)) - C allowed on the grid, in nats.  The
# solver stops when ten successive values agree to six decimals, which
# leaves its ensembles slightly short of the optimum: at most 6e-5 over
# 200 sweep channels.  A two-state ensemble 1e-3 nats or more short of
# capacity exceeded 1e-2 on every one of them.
CERT_TOL = 5e-4
CERT_GRID = 2000
LOG_FLOOR = 1e-12


def load_golden(acceptance_file: Path) -> dict:
    """Literal golden tables from the acceptance test module."""
    tree = ast.parse(Path(acceptance_file).read_text())
    golden = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in GOLDEN_NAMES:
                golden[target.id] = ast.literal_eval(node.value)
    missing = set(GOLDEN_NAMES) - set(golden)
    if missing:
        raise ValueError(f"{acceptance_file}: golden tables not found: {sorted(missing)}")
    return golden


def _all_finite(value) -> bool:
    if isinstance(value, dict):
        return all(_all_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(_all_finite(v) for v in value)
    if isinstance(value, float):
        return math.isfinite(value)
    return True


def _within(got: float, want: float, tol: float, label: str) -> list[str]:
    err = abs(got - want)
    return [] if err <= tol else [f"{label} {got:.7f} off reference {want} by {err:.1e} > {tol:.0e}"]


def _matrix(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def bloch_grid(n: int = CERT_GRID) -> np.ndarray:
    """`n` near-uniform pure qubit states `(n, 2, 2)` on a Fibonacci sphere."""
    k = np.arange(n) + 0.5
    z = 1 - 2 * k / n
    r = np.sqrt(1 - z * z)
    phi = np.pi * (1 + 5**0.5) * k
    x, y = r * np.cos(phi), r * np.sin(phi)
    eye = np.eye(2)
    sx = np.array([[0, 1], [1, 0]])
    sy = np.array([[0, -1j], [1j, 0]])
    sz = np.array([[1, 0], [0, -1]])
    return (eye + x[:, None, None] * sx + y[:, None, None] * sy + z[:, None, None] * sz) / 2


def _log_psd(P: np.ndarray) -> np.ndarray:
    w, V = np.linalg.eigh(P)
    return (V * np.log(np.maximum(w, LOG_FLOOR))[..., None, :]) @ V.conj().swapaxes(-1, -2)


def certificate_excess(kraus: np.ndarray, weights, states, capacity: float) -> float:
    """`max_grid D(G(psi) || G(rho_bar)) - capacity`, rho_bar from the ensemble.

    For every output state sigma, C <= max_psi D(G(psi) || sigma); with
    sigma = G(rho_bar) the excess is near zero only when the ensemble
    is close to optimal.
    """
    def apply(S):
        return np.einsum("kab,nbc,kdc->nad", kraus, S, kraus.conj())

    rho_bar = np.einsum("n,nab->ab", np.asarray(weights), np.asarray(states))
    sigma = apply(rho_bar[None])[0]
    outs = apply(bloch_grid())
    log_sigma = _log_psd(sigma[None])[0]
    div = np.einsum("nab,nba->n", outs, _log_psd(outs) - log_sigma).real
    return float(div.max() - capacity)


def check_report(workload: str, argv: list[str], text: str, golden: dict) -> list[str]:
    """Problems with one command's report; an empty list means it passed."""
    try:
        return _problems(workload, argv, json.loads(text), golden)
    except json.JSONDecodeError:
        return ["report is not JSON"]
    except (AttributeError, KeyError, TypeError, IndexError) as exc:
        return [f"report lacks an expected field ({exc!r})"]


def _problems(workload: str, argv: list[str], report, golden: dict) -> list[str]:
    if not _all_finite(report):
        return ["report holds a non-finite number"]
    if not report.get("converged"):
        return ["solver did not converge"]
    if workload == "sweep-qubit":
        descriptor = json.loads(Path(argv[argv.index("--channel") + 1]).read_text())
        kraus = np.array([_matrix(K) for K in descriptor["kraus"]])
        states = [_matrix(S) for S in report["ensemble"]["states"]]
        excess = certificate_excess(kraus, report["ensemble"]["weights"], states,
                                    report["capacity_nats"])
        return [] if excess <= CERT_TOL else [f"certificate excess {excess:.2e} > {CERT_TOL:.0e}"]
    single = golden["SINGLE_ROWS"]
    if workload == "additivity-qutrit":
        lhs, rhs = argv[argv.index("--lhs") + 1], argv[argv.index("--rhs") + 1]
        want = golden["PRODUCT_ROWS_QUTRIT"][(lhs, rhs)]
        return (
            _within(report["c_product"], want, golden["PRODUCT_TOL"], "c_product")
            + _within(report["c1"], single[lhs][0], single[lhs][1], "c1")
            + _within(report["c2"], single[rhs][0], single[rhs][1], "c2")
            + _within(report["gap"], 0.0, golden["GAP_TOL"], "gap")
        )
    if workload == "copies-qubit":
        name = argv[argv.index("--channel") + 1]
        want, tol, _ = single[name]
        return (_within(report["per_copy_capacity_nats"], want, tol, "per-copy capacity")
                + _within(report["single_copy_capacity_nats"], want, tol, "single-copy capacity"))
    raise ValueError(f"no checks for workload {workload!r}")
