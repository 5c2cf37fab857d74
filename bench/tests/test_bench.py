"""Tests of the benchmark itself: its checks, its span arithmetic, its counts.

Run from the checkout root with `python -m pytest bench/tests`.
"""

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout

import numpy as np
import pytest

import checks
import qcap
import workloads
from conftest import BENCH
from tracing import Span, Tracer, install, layer_metrics, self_times, summarize
from worker import run_pass
from qcap import cli

ROOT = BENCH.parent


def _solve(path):
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert cli.main(["capacity", "--channel", str(path), "--strict"]) == 0
    return json.loads(buf.getvalue())


def test_certificate_accepts_solver_ensemble_and_rejects_suboptimal(tmp_path):
    path = workloads.write_sweep_channels(tmp_path, seed=5, count=3)[2]
    kraus = qcap.load_channel(path).kraus
    report = _solve(path)
    states = [checks._matrix(S) for S in report["ensemble"]["states"]]
    excess = checks.certificate_excess(kraus, report["ensemble"]["weights"], states,
                                       report["capacity_nats"])
    assert excess <= checks.CERT_TOL

    # Two orthogonal inputs with equal weight, scored at their own
    # (lower) mutual information.
    weak = qcap.Ensemble(np.array([0.5, 0.5]), np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]))
    value = qcap.mutual_info(weak, qcap.Channel(kraus))
    assert value < report["capacity_nats"] - 1e-3
    assert checks.certificate_excess(kraus, weak.weights, weak.states, value) > 10 * checks.CERT_TOL


def test_self_time_on_hand_built_tree():
    spans = [
        Span("root", -1, 0.0, 10.0),
        Span("a", 0, 1.0, 3.0),     # overlaps b: the union [1, 5] counts once
        Span("b", 0, 2.0, 5.0),
        Span("c", 0, 9.0, 12.0),    # overhangs root: only [9, 10] counts
        Span("leaf", 1, 1.5, 2.0),
    ]
    assert self_times(spans) == pytest.approx([5.0, 1.5, 3.0, 3.0, 0.5])
    table = summarize(spans)
    assert table["root"] == pytest.approx({"calls": 1, "total_s": 10.0, "self_s": 5.0})
    assert table["root/a/leaf"]["calls"] == 1


def _traced_counts(commands, warmup):
    tracer = Tracer()
    with install(tracer):
        with tracer.span("cli.main"):
            cli.main(warmup)
        with redirect_stdout(io.StringIO()):
            rows = run_pass(cli, commands, [], tracer)["rows"]
    assert all(r["rc"] == 0 for r in rows)
    return layer_metrics(tracer)


def test_exact_counts_repeat_across_traced_runs(tmp_path):
    channels = workloads.write_sweep_channels(tmp_path, seed=3, count=4)
    warmup = workloads.warmup_command(workloads.write_warmup_channel(tmp_path, seed=3))
    commands = [["capacity", "--channel", str(p), "--strict"] for p in channels]
    commands.append(["additivity", "--lhs", "gamma6", "--rhs", "gamma6", "--seed", "3"])
    with redirect_stdout(io.StringIO()):
        first = _traced_counts(commands, warmup)
        second = _traced_counts(commands, warmup)
    for name in ("solver.iterations", "numpy.eigh_calls", "channels.generators",
                 "numpy.einsum_calls", "channels.apply_calls"):
        assert first[name] == second[name] > 0, name
    assert first["channels.generators"] == 9  # gamma6 (x) gamma6: 3 x 3 generators


def test_eigh_per_iteration_matches_the_code():
    warmup = ["capacity", "--channel", "gamma1", "--starts", "1", "--max-iters", "2"]
    with redirect_stdout(io.StringIO()):
        product = _traced_counts([["additivity", "--lhs", "gamma6", "--rhs", "gamma6"]], warmup)
        single = _traced_counts([["capacity", "--channel", "gamma1"]], warmup)
    # mutual_info 2 + ab_step 3, plus 3 eigvalsh in entanglement when tracked.
    assert product["numpy.eigh_calls_per_iter"] == 8.0
    assert single["numpy.eigh_calls_per_iter"] == 5.0


def test_golden_values_come_from_the_acceptance_suite():
    golden = checks.load_golden(ROOT / "tests" / "test_acceptance.py")
    assert golden["PRODUCT_ROWS_QUTRIT"][("gamma5", "gamma6")] == 1.506938
    report = json.dumps({"converged": True, "c_product": 1.50, "c1": 0.677358,
                         "c2": 0.829580, "gap": 0.0})
    argv = ["additivity", "--lhs", "gamma5", "--rhs", "gamma6"]
    assert checks.check_report("additivity-qutrit", argv, report, golden)
    nan_report = report.replace("1.5,", "NaN,")
    assert checks.check_report("additivity-qutrit", argv, nan_report, golden) == [
        "report holds a non-finite number"]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep-qubit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
