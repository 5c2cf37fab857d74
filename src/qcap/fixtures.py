"""Built-in benchmark channels for the capacity and additivity experiments.

Four qubit channels given in Bloch affine form and two qutrit channels
given by operator-sum generators.  `gamma3` is trace-preserving and
positive but not completely positive (its Choi operator has a negative
eigenvalue), so it is constructed in signed form; everything downstream
treats it like any other map.
"""

from __future__ import annotations

import numpy as np

from .channels import AffineQubit, Channel, affine_to_channel
from .linalg import herm_eig


def _psd_sqrt(P: np.ndarray) -> np.ndarray:
    w, V = herm_eig(P)
    return (V * np.sqrt(np.clip(w, 0.0, None))) @ V.conj().T


def _kraus3(name, V1, V2):
    V1 = np.array(V1, dtype=complex)
    V2 = np.array(V2, dtype=complex)
    # Third generator completes the trace-preservation condition.
    V3 = _psd_sqrt(np.eye(3) - V1.conj().T @ V1 - V2.conj().T @ V2)
    return Channel(np.array([V1, V2, V3]), name=name)


def _gamma1():
    return affine_to_channel(AffineQubit(np.diag([0.5, 0.4, 0.2]), [0.2, 0.0, 0.0]), "gamma1")


def _gamma2():
    A = [[0.05, -0.2, 0.4], [-0.2, -0.05, -0.2], [0.2, 0.0, -0.5]]
    return affine_to_channel(AffineQubit(A, [0.0, 0.0, 0.1]), "gamma2")


def _gamma3():
    # Rotation * diag(-0.45, 0.6, -0.6) * rotation, written out exactly.
    r2, r3, r6 = np.sqrt(2.0), np.sqrt(3.0), np.sqrt(6.0)
    R1 = np.array(
        [
            [1 / r2, -1 / r6, 1 / r3],
            [1 / r2, 1 / r6, -1 / r3],
            [0.0, 2 / r6, 1 / r3],
        ]
    )
    R2 = np.array([[0.8, 0.6, 0.0], [0.6, -0.8, 0.0], [0.0, 0.0, 1.0]])
    A = R1 @ np.diag([-0.45, 0.6, -0.6]) @ R2
    return affine_to_channel(AffineQubit(A, [0.2, -0.2, 0.2]), "gamma3")


def _gamma4():
    A = [[0.1, -0.3, 0.0], [-0.3, -0.1, -0.2], [0.0, 0.0, -0.05]]
    return affine_to_channel(AffineQubit(A, [0.0, 0.2, 0.55]), "gamma4")


def _gamma5():
    V1 = [[0.2, 0.3, 0.4], [0.0, 0.5j, 0.0], [0.1j, 0.4j, 0.5j]]
    V2 = [
        [0.1 - 0.3j, 0.0, 0.0],
        [0.0, -0.3j, 0.1 - 0.2j],
        [0.3 - 0.3j, 0.2 + 0.1j, 0.0],
    ]
    return _kraus3("gamma5", V1, V2)


def _gamma6():
    V1 = [
        [0.19, 0.7, -0.1 + 0.3j],
        [0.4j, 0.06, -0.1 + 0.05j],
        [0.2, 0.39, 0.4 - 0.4j],
    ]
    V2 = [[0.3, -0.1, 0.1], [0.2, 0.3, 0.02j], [0.1, 0.2, 0.1j]]
    return _kraus3("gamma6", V1, V2)


_BUILDERS = {
    "gamma1": _gamma1,
    "gamma2": _gamma2,
    "gamma3": _gamma3,
    "gamma4": _gamma4,
    "gamma5": _gamma5,
    "gamma6": _gamma6,
}

FIXTURE_NAMES = tuple(_BUILDERS)


def fixture_channel(name: str) -> Channel:
    """Fresh copy of a built-in benchmark channel."""
    try:
        return _BUILDERS[name]()
    except KeyError:
        raise ValueError(f"unknown channel {name!r}; known: {', '.join(FIXTURE_NAMES)}") from None
