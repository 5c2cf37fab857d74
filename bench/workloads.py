"""Workload definitions: seeded inputs and the fixed command list of each.

A workload is a list of `qcap` command lines run in order through
`qcap.cli.main`; one run of the list is a pass.  Inputs derive only
from the workload seed, so a seed always gives the same commands and
the same channel files.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

SWEEP_CHANNELS = 100
SWEEP_MAX_KRAUS = 4

QUTRIT_PAIRS = (("gamma5", "gamma5"), ("gamma6", "gamma6"), ("gamma5", "gamma6"))

WORKLOADS = ("sweep-qubit", "additivity-qutrit", "copies-qubit")


def random_qubit_kraus(rng: np.random.Generator, n_kraus: int) -> np.ndarray:
    """Kraus stack `(n_kraus, 2, 2)` cut from a random Stinespring isometry.

    The isometry is the Q factor of a complex Gaussian `(2 n_kraus, 2)`
    matrix, so `sum_k K_k^dag K_k = I` holds to rounding.
    """
    G = rng.standard_normal((2 * n_kraus, 2)) + 1j * rng.standard_normal((2 * n_kraus, 2))
    Q, _ = np.linalg.qr(G)
    return Q.reshape(n_kraus, 2, 2)


def kraus_descriptor(name: str, kraus: np.ndarray) -> dict:
    """Channel file contents in the package's `kind: kraus` wire format."""
    wire = [[[[float(z.real), float(z.imag)] for z in row] for row in K] for K in kraus]
    return {"name": name, "kind": "kraus", "kraus": wire}


def write_sweep_channels(directory: Path, seed: int, count: int = SWEEP_CHANNELS) -> list[Path]:
    """Write `count` seeded random CP qubit channels with 1-4 Kraus operators.

    Kraus counts cycle 1, 2, 3, 4 rather than being drawn, so every seed
    gets the same mix.  Unitary channels take several times the
    iterations of the others, so a drawn mix would make a pass's cost
    depend on how many unitaries the seed happened to draw.
    """
    rng = np.random.default_rng([seed, 2])
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i in range(count):
        kraus = random_qubit_kraus(rng, 1 + i % SWEEP_MAX_KRAUS)
        path = directory / f"sweep{i:03d}.json"
        path.write_text(json.dumps(kraus_descriptor(f"sweep{i:03d}", kraus)))
        paths.append(path)
    return paths


def write_warmup_channel(directory: Path, seed: int) -> Path:
    """A one-Kraus (unitary) qubit channel file for the warm-up command."""
    rng = np.random.default_rng([seed, 1])
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / "warmup.json"
    path.write_text(json.dumps(kraus_descriptor("warmup", random_qubit_kraus(rng, 1))))
    return path


def warmup_command(warmup_file: Path) -> list[str]:
    """One short command that reaches every traced layer.

    It loads a file and builds a fixture, validates both, tensors them
    and tracks entanglement, so no layer is still cold (or absent from a
    traced run) when the timed commands start.
    """
    return ["additivity", "--lhs", str(warmup_file), "--rhs", "gamma1",
            "--starts", "1", "--max-iters", "3"]


def prepare(workload: str, seed: int, directory: Path) -> list[list[str]]:
    """Write the workload's input files under `directory`; return its commands."""
    if workload == "sweep-qubit":
        return [["capacity", "--channel", str(p), "--strict"]
                for p in write_sweep_channels(directory, seed)]
    if workload == "additivity-qutrit":
        return [["additivity", "--lhs", a, "--rhs", b, "--seed", str(seed)]
                for a, b in QUTRIT_PAIRS]
    if workload == "copies-qubit":
        # Both solves keep the CLI's default seed.  Their iteration counts
        # hang on the random starts (370-590 over the 3-copy run's five,
        # 72-153 for the 4-copy run's one, seeds 0-8), which would spread
        # this workload's wall time by 10-25% from seed to seed.
        return [
            ["regularized", "--channel", "gamma1", "--copies", "3"],
            ["regularized", "--channel", "gamma1", "--copies", "4", "--starts", "1"],
        ]
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
