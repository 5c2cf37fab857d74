"""End-to-end command line tests via subprocess."""

import errno
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qcap import Channel, multi_start
from support import MALFORMED_FILES, large_entry_kraus, replacement_channel, save_channel

ROOT = Path(__file__).resolve().parent.parent
CHANNEL_DIR = ROOT / "channels"


def child_env():
    # The child imports `qcap` from this checkout's `src`, ahead of any
    # other `qcap` on the path, with or without an install.  A warning in
    # the child is an error, as it is in process.
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path)),
            "PYTHONWARNINGS": "error"}


def qcap_cmd(*args, timeout=300):
    return subprocess.run(
        [sys.executable, "-m", "qcap.cli", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=child_env(),
    )


def write_identity_channel(path):
    d = {
        "name": "noiseless",
        "kind": "kraus",
        "kraus": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]],
    }
    path.write_text(json.dumps(d))
    return path


def write_scaled_identity(path, dim, n_generators=1):
    # `n_generators` copies of I / sqrt(n_generators): a unital, trace
    # preserving map of any size, quick to write and to read.
    kraus = np.stack([np.eye(dim) / np.sqrt(n_generators)] * n_generators)
    save_channel(Channel(kraus, name=f"id{dim}"), path)
    return str(path)


def refuse(name):
    def fail(*args, **kwargs):
        pytest.fail(f"{name} called")

    return fail


class TestCapacity:
    def test_gamma2_file(self):
        proc = qcap_cmd("capacity", "--channel", str(CHANNEL_DIR / "gamma2.json"), "--seed", "42")
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["capacity_nats"] == pytest.approx(0.258679, abs=1e-5)
        assert report["converged"] is True
        assert set(report) == {"capacity_nats", "converged", "iterations", "start_index", "ensemble"}
        assert set(report["ensemble"]) == {"weights", "states"}
        w = report["ensemble"]["weights"]
        assert sum(w) == pytest.approx(1.0, abs=1e-9)
        entry = report["ensemble"]["states"][0][0][0]
        assert isinstance(entry, list) and len(entry) == 2

    def test_builtin_name_resolves(self):
        proc = qcap_cmd("capacity", "--channel", "gamma1", "--seed", "42")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["capacity_nats"] == pytest.approx(0.138166, abs=1e-5)

    def test_gamma3_runs_with_warning(self):
        proc = qcap_cmd("capacity", "--channel", str(CHANNEL_DIR / "gamma3.json"), "--seed", "42")
        assert proc.returncode == 0, proc.stderr
        assert "not completely positive" in proc.stderr
        assert json.loads(proc.stdout)["capacity_nats"] == pytest.approx(0.243068, abs=1e-5)

    def test_depolarizing_capacity_is_zero(self, tmp_path):
        path = tmp_path / "dep.json"
        save_channel(replacement_channel([0.5, 0.5]), path)  # every input goes to I/2
        proc = qcap_cmd("capacity", "--channel", str(path), "--seed", "0")
        assert proc.returncode == 0, proc.stderr
        assert abs(json.loads(proc.stdout)["capacity_nats"]) <= 1e-6

    def test_out_file_and_reproducibility(self, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        for out in (out1, out2):
            proc = qcap_cmd(
                "capacity", "--channel", "gamma4", "--seed", "11", "--out", str(out)
            )
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout == ""
        assert out1.read_bytes() == out2.read_bytes()

    def test_trace_csv(self, tmp_path):
        trace = tmp_path / "trace.csv"
        proc = qcap_cmd(
            "capacity", "--channel", "gamma1", "--seed", "0", "--trace", str(trace)
        )
        assert proc.returncode == 0, proc.stderr
        lines = trace.read_text().strip().splitlines()
        assert lines[0] == "k,mutual_info_nats"
        ks, vals = zip(*(line.split(",") for line in lines[1:]))
        assert list(map(int, ks)) == list(range(1, len(ks) + 1))
        vals = list(map(float, vals))
        assert all(b - a >= -1e-9 for a, b in zip(vals, vals[1:]))

    def test_missing_file_exits_2(self):
        proc = qcap_cmd("capacity", "--channel", "no_such_file.json")
        assert proc.returncode == 2
        assert "error" in proc.stderr

    def test_malformed_json_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        proc = qcap_cmd("capacity", "--channel", str(path))
        assert proc.returncode == 2
        assert "JSON" in proc.stderr

    def test_non_trace_preserving_exits_2(self, tmp_path):
        d = {
            "name": "double",
            "kind": "kraus",
            "kraus": [
                [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
                [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
            ],
        }
        path = tmp_path / "double.json"
        path.write_text(json.dumps(d))
        proc = qcap_cmd("capacity", "--channel", str(path))
        assert proc.returncode == 2
        assert "trace preserving" in proc.stderr

    def test_strict_flags_non_convergence(self):
        proc = qcap_cmd(
            "capacity", "--channel", "gamma5", "--max-iters", "5", "--strict", "--seed", "0"
        )
        assert proc.returncode == 4
        assert json.loads(proc.stdout)["converged"] is False

    def test_non_strict_tolerates_non_convergence(self):
        proc = qcap_cmd("capacity", "--channel", "gamma5", "--max-iters", "5", "--seed", "0")
        assert proc.returncode == 0

    @pytest.mark.parametrize(
        "args",
        [
            # The canonical qubit start draws nothing; the others draw kets.
            ["capacity", "--channel", "gamma1", "--starts", "1"],
            ["capacity", "--channel", "gamma1", "--starts", "2"],
            ["capacity", "--channel", "gamma5"],
            ["additivity", "--lhs", "gamma1", "--rhs", "gamma2", "--starts", "1"],
        ],
    )
    def test_negative_seed_exits_2(self, args):
        proc = qcap_cmd(*args, "--seed", "-1")
        assert proc.returncode == 2
        assert "seed must be nonnegative, got -1" in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("places", ["-1", "0", "30"])
    def test_places_outside_1_to_15_exits_2(self, places):
        # At -1, gamma5 used to report converged: true 0.013 nats short.
        proc = qcap_cmd("capacity", "--channel", "gamma5", "--places", places, "--strict")
        assert proc.returncode == 2
        assert "--places" in proc.stderr
        assert proc.stdout == ""


class TestAdditivity:
    def test_gamma2_gamma4(self):
        proc = qcap_cmd("additivity", "--lhs", "gamma2", "--rhs", "gamma4", "--seed", "42")
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["c1"] == pytest.approx(0.258679, abs=1e-5)
        assert report["c2"] == pytest.approx(0.0898225, abs=1e-5)
        assert report["sum"] == pytest.approx(0.348501, abs=2e-4)
        assert report["c_product"] == pytest.approx(0.348501, abs=2e-4)
        assert abs(report["gap"]) <= 2e-4
        assert report["product_ensemble_entanglement"] <= 1e-5
        assert report["capacity_nats"] == report["c_product"]

    def test_identity_pair_additive(self, tmp_path):
        path = write_identity_channel(tmp_path / "id.json")
        proc = qcap_cmd("additivity", "--lhs", str(path), "--rhs", str(path), "--seed", "1")
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["c_product"] == pytest.approx(2 * np.log(2), abs=1e-4)
        assert abs(report["gap"]) <= 2e-4

    def test_report_unchanged_by_trace(self, tmp_path):
        # The entanglement monitor runs only for the trace; the report's
        # entanglement comes from the final ensemble either way.
        args = ("additivity", "--lhs", "gamma2", "--rhs", "gamma4", "--seed", "42")
        plain = qcap_cmd(*args)
        traced = qcap_cmd(*args, "--trace", str(tmp_path / "prod.csv"))
        assert plain.returncode == 0 and traced.returncode == 0, traced.stderr
        assert plain.stdout == traced.stdout

    def test_self_pair_solves_its_marginal_once(self, monkeypatch, capsys):
        # Naming one channel twice reuses its marginal solve; naming it two
        # ways (fixture and file) solves it twice, to the same report.
        from qcap import cli

        solved = []

        def counting(ch, *args, **kwargs):
            solved.append(ch.dim_in)
            return multi_start(ch, *args, **kwargs)

        monkeypatch.setattr(cli, "multi_start", counting)
        runs = []
        for rhs in ("gamma2", str(CHANNEL_DIR / "gamma2.json")):
            solved.clear()
            assert cli.main(["additivity", "--lhs", "gamma2", "--rhs", rhs, "--seed", "42"]) == 0
            runs.append((capsys.readouterr().out, list(solved)))
        (once, once_solved), (twice, twice_solved) = runs
        assert once_solved == [2, 4] and twice_solved == [2, 2, 4]
        assert once == twice

    def test_self_pair_reads_its_channel_once(self, capsys):
        from qcap import cli

        assert cli.main(["additivity", "--lhs", "gamma3", "--rhs", "gamma3"]) == 0
        assert capsys.readouterr().err == (
            "warning: gamma3: not completely positive (min Choi eigenvalue -3.528336e-01); "
            "proceeding with its signed form\n"
        )

    def test_trace_file_contains_entanglement(self, tmp_path):
        trace = tmp_path / "prod.csv"
        proc = qcap_cmd(
            "additivity",
            "--lhs", "gamma2", "--rhs", "gamma2",
            "--seed", "42", "--trace", str(trace),
        )
        assert proc.returncode == 0, proc.stderr
        lines = trace.read_text().strip().splitlines()
        assert lines[0] == "k,mutual_info_nats,ent_nats"
        last = lines[-1].split(",")
        assert float(last[2]) <= 1e-5


BLAS_THREAD_COMMANDS = {
    # id: argv; a `--trace` flag last takes a file whose CSV is compared too.
    "gamma5-gamma5": ["additivity", "--lhs", "gamma5", "--rhs", "gamma5"],
    "gamma6-gamma6": ["additivity", "--lhs", "gamma6", "--rhs", "gamma6"],
    "gamma5-gamma6": ["additivity", "--lhs", "gamma5", "--rhs", "gamma6"],
    "capacity-gamma5": ["capacity", "--channel", "gamma5"],
    "capacity-gamma6": ["capacity", "--channel", "gamma6"],
    "regularized-gamma1-3": ["regularized", "--channel", "gamma1", "--copies", "3"],
    "gamma1-gamma5-trace": ["additivity", "--lhs", "gamma1", "--rhs", "gamma5", "--starts", "1",
                            "--trace"],
}


@pytest.mark.slow
@pytest.mark.parametrize("case", sorted(BLAS_THREAD_COMMANDS))
def test_qutrit_reports_do_not_hang_on_the_blas_thread_count(tmp_path, case):
    # OpenBLAS gives an 81 x 81 x 81 product different bits at one and two
    # threads, so a step that ran the first update's outputs as a stack of
    # such products printed different capacities at each count.  The three
    # qutrit product rows take about 4 s each; the single qutrits, three
    # qubit copies and a traced qubit-qutrit product are checked too.
    outputs = []
    for threads in ("1", "2"):
        argv = list(BLAS_THREAD_COMMANDS[case])
        trace = tmp_path / f"{threads}.csv"
        if argv[-1] == "--trace":
            argv.append(str(trace))
        env = {**child_env(), "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-m", "qcap.cli", *argv], capture_output=True,
                              text=True, timeout=300, env=env)
        assert proc.returncode == 0, proc.stderr
        outputs.append((proc.stdout, trace.read_text() if trace.exists() else None))
    assert outputs[0] == outputs[1]


class TestRegularized:
    def test_two_copies_of_gamma1(self):
        proc = qcap_cmd("regularized", "--channel", "gamma1", "--copies", "2", "--seed", "42")
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["copies"] == 2
        assert report["per_copy_capacity_nats"] == pytest.approx(0.138166, abs=1e-4)
        assert report["single_copy_capacity_nats"] == pytest.approx(0.138166, abs=1e-5)

    def test_one_copy_matches_capacity_command(self):
        reg = qcap_cmd("regularized", "--channel", "gamma4", "--copies", "1", "--seed", "42")
        cap = qcap_cmd("capacity", "--channel", "gamma4", "--seed", "42")
        assert reg.returncode == 0 and cap.returncode == 0
        assert (
            json.loads(reg.stdout)["capacity_nats"]
            == json.loads(cap.stdout)["capacity_nats"]
        )

    def test_qutrit_three_copies_refused(self):
        proc = qcap_cmd("regularized", "--channel", "gamma5", "--copies", "3")
        assert proc.returncode == 2
        assert "dimension budget" in proc.stderr

    def test_zero_copies_refused(self):
        proc = qcap_cmd("regularized", "--channel", "gamma1", "--copies", "0")
        assert proc.returncode == 2

    def test_huge_copy_count_refused_at_once(self):
        # The budget check must not form 3 ** 10_000_000.
        proc = qcap_cmd("regularized", "--channel", "gamma5", "--copies", "10000000", timeout=10)
        assert proc.returncode == 2
        assert "dimension budget" in proc.stderr

    @pytest.mark.parametrize("copies", ["5", "30"])
    def test_output_dimension_counts_toward_budget(self, tmp_path, copies):
        # A 1 -> 2 preparation channel: its input never grows, its output does.
        path = tmp_path / "prep.json"
        path.write_text(json.dumps(
            {"name": "prep", "kind": "kraus", "kraus": [[[[1.0, 0.0]], [[0.0, 0.0]]]]}
        ))
        proc = qcap_cmd("regularized", "--channel", str(path), "--copies", copies)
        assert proc.returncode == 2
        assert "dimension budget" in proc.stderr

    def test_generator_budget_refused_before_any_tensor(self, tmp_path, monkeypatch, capsys):
        # A 1 x 1 channel never grows, but its two generators make
        # 2 ** copies; the budget is 256, where gamma1's four copies sit.
        # One generator never multiplies, so each copy counts as two.
        from qcap import cli

        with monkeypatch.context() as m:
            m.setattr(cli, "multi_start", refuse("multi_start"))
            # gamma1's four copies pass the budget and meet the flag check.
            argv = ["regularized", "--channel", "gamma1", "--states", "0", "--copies"]
            assert cli.main([*argv, "4"]) == 2
            assert "n_states" in capsys.readouterr().err
            assert cli.main([*argv, "5"]) == 2
            assert "dimension budget (16)" in capsys.readouterr().err
        path = tmp_path / "scalar.json"
        for kraus in ([[[[0.6, 0.0]]], [[[0.8, 0.0]]]], [[[[1.0, 0.0]]]]):
            path.write_text(json.dumps({"name": "scalar", "kind": "kraus", "kraus": kraus}))
            with monkeypatch.context() as m:
                m.setattr(cli, "tensor", refuse("tensor"))
                for copies in ("9", "40", "100000"):
                    assert cli.main(["regularized", "--channel", str(path), "--copies", copies]) == 2
                    assert "generator budget (256)" in capsys.readouterr().err
            assert cli.main(["regularized", "--channel", str(path), "--copies", "8"]) == 0
            assert json.loads(capsys.readouterr().out)["copies"] == 8


class TestTrace:
    # The paper's per-iteration read of one product solve: start 0 alone,
    # written by `additivity --starts 1 --trace FILE`.
    @staticmethod
    def trace_cmd(tmp_path, lhs, rhs, *flags):
        out = tmp_path / f"{lhs}-{rhs}.csv"
        argv = ["additivity", "--lhs", lhs, "--rhs", rhs, "--starts", "1", "--trace", str(out)]
        proc = qcap_cmd(*argv, *flags)
        assert proc.returncode == 0, proc.stderr
        return out.read_text()

    def test_gamma2_pair_csv(self, tmp_path):
        lines = self.trace_cmd(tmp_path, "gamma2", "gamma2", "--seed", "0").strip().splitlines()
        assert lines[0] == "k,mutual_info_nats,ent_nats"
        rows = [line.split(",") for line in lines[1:]]
        vals = [float(r[1]) for r in rows]
        ents = [float(r[2]) for r in rows]
        assert all(b - a >= -1e-9 for a, b in zip(vals, vals[1:]))
        assert ents[-1] <= 1e-5
        assert vals[-1] == pytest.approx(0.517358, abs=1e-4)

    def test_reproducible_for_fixed_seed(self, tmp_path):
        a = self.trace_cmd(tmp_path, "gamma1", "gamma2", "--seed", "5")
        b = self.trace_cmd(tmp_path, "gamma1", "gamma2", "--seed", "5")
        assert a == b

    def test_entanglement_never_negative(self, tmp_path):
        # Row 1 is the initial states' general form; every later row comes
        # from the clipped Schmidt spectrum of the updated kets.
        text = self.trace_cmd(tmp_path, "gamma1", "gamma5", "--seed", "0")
        rows = [line.split(",") for line in text.strip().splitlines()[1:]]
        assert len(rows) > 100
        assert all(float(r[2]) >= 0 for r in rows[1:])

    def test_self_pair_reads_its_channel_once(self, tmp_path, capsys):
        # One read and one warning, and the trace that naming the channel
        # two ways (fixture and file) gives.
        from qcap import cli

        runs = []
        for rhs in ("gamma3", str(CHANNEL_DIR / "gamma3.json")):
            trace = tmp_path / "trace.csv"
            argv = ["additivity", "--lhs", "gamma3", "--rhs", rhs, "--starts", "1"]
            assert cli.main([*argv, "--trace", str(trace)]) == 0
            runs.append((capsys.readouterr().err, trace.read_text()))
        (once, once_csv), (twice, twice_csv) = runs
        assert once == (
            "warning: gamma3: not completely positive (min Choi eigenvalue -3.528336e-01); "
            "proceeding with its signed form\n"
        )
        assert twice.count("warning:") == 2
        assert once_csv == twice_csv


class TestValidate:
    def test_gamma2_passes(self):
        proc = qcap_cmd("validate", "--channel", str(CHANNEL_DIR / "gamma2.json"))
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["passed"] is True
        assert report["tp_ok"] is True
        assert report["cp_ok"] is True
        assert report["checks_agree"] is True

    def test_gamma3_reports_cp_failure(self):
        proc = qcap_cmd("validate", "--channel", str(CHANNEL_DIR / "gamma3.json"))
        assert proc.returncode == 2
        report = json.loads(proc.stdout)
        assert report["tp_ok"] is True
        assert report["cp_ok"] is False
        assert report["choi_min_eigenvalue"] < -1e-3
        assert report["checks_agree"] is True

    def test_shifted_identity_fails_with_eigenvalue(self, tmp_path):
        d = {
            "name": "shift",
            "kind": "affine_qubit",
            "affine": {"A": np.eye(3).tolist(), "b": [0.0, 0.0, 0.5]},
        }
        path = tmp_path / "shift.json"
        path.write_text(json.dumps(d))
        proc = qcap_cmd("validate", "--channel", str(path))
        assert proc.returncode == 2
        report = json.loads(proc.stdout)
        assert report["choi_min_eigenvalue"] < -1e-3
        assert report["cp_ok"] is False

    def test_malformed_json_exits_2(self, tmp_path):
        path = tmp_path / "nope.json"
        path.write_text("[[[")
        proc = qcap_cmd("validate", "--channel", str(path))
        assert proc.returncode == 2
        assert "JSON" in proc.stderr

    def test_reads_utf8_under_c_locale(self, tmp_path):
        # Files are UTF-8 whatever the locale: with locale coercion and
        # UTF-8 mode off, the C locale's own encoding is ASCII.
        path = tmp_path / "psi.json"
        d = {"name": "ψ-shrink", "kind": "affine_qubit",
             "affine": {"A": np.diag([0.5, 0.4, 0.2]).tolist(), "b": [0.2, 0.0, 0.0]}}
        path.write_text(json.dumps(d, ensure_ascii=False), encoding="utf-8")
        env = {**child_env(), "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
        proc = subprocess.run(
            [sys.executable, "-m", "qcap.cli", "validate", "--channel", str(path)],
            capture_output=True, text=True, timeout=300, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["name"] == "ψ-shrink"


@pytest.mark.parametrize(
    "argv",
    [
        ["additivity", "--lhs", "gamma5", "--rhs", "gamma6", "--states", "0"],
        ["additivity", "--lhs", "gamma5", "--rhs", "gamma6", "--starts", "0"],
        ["regularized", "--channel", "gamma1", "--copies", "4", "--states", "0"],
        ["regularized", "--channel", "gamma1", "--copies", "4", "--starts", "0"],
    ],
    ids=["additivity-states", "additivity-starts", "regularized-states", "regularized-starts"],
)
def test_product_flags_checked_before_any_solve(monkeypatch, capsys, argv):
    # --states and --starts size the product solve, but a bad value is
    # refused before the marginal solves too.
    from qcap import cli

    solved = []
    monkeypatch.setattr(cli, "multi_start", lambda ch, *args, **kwargs: solved.append(ch))
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert (out, solved) == ("", [])
    assert err == "error: n_states, starts and max_iters must be positive\n"


BUDGET_CASES = {
    # name: (command, argument flags, file dimension, generators, message)
    "capacity-d17": ("capacity", ["--channel"], 17, 1, "dimension budget (16)"),
    "validate-d17": ("validate", ["--channel"], 17, 1, "dimension budget (16)"),
    "capacity-257-generators": ("capacity", ["--channel"], 2, 257, "generator budget (256)"),
    "additivity-d5-pair": ("additivity", ["--lhs", "--rhs"], 5, 2, "dimension budget (16)"),
}


@pytest.mark.parametrize("case", sorted(BUDGET_CASES))
def test_every_command_keeps_the_size_budget(tmp_path, monkeypatch, capsys, case):
    # A channel or a product over the budget is refused before anything is
    # tensored or solved, and a lone channel before it is validated.
    from qcap import cli

    command, flags, dim, gens, message = BUDGET_CASES[case]
    path = write_scaled_identity(tmp_path / "big.json", dim, gens)
    if len(flags) == 1:
        monkeypatch.setattr(cli, "validate", refuse("validate"))
    monkeypatch.setattr(cli, "tensor", refuse("tensor"))
    monkeypatch.setattr(cli, "multi_start", refuse("multi_start"))
    assert cli.main([command, *[arg for flag in flags for arg in (flag, path)]]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


START_BUDGET_COMMANDS = {
    "capacity": ["capacity", "--channel", "gamma1"],
    "additivity": ["additivity", "--lhs", "gamma1", "--rhs", "gamma1"],
    "regularized": ["regularized", "--channel", "gamma1", "--copies", "2"],
}


@pytest.mark.parametrize("flag", ["--states", "--starts"])
@pytest.mark.parametrize("command", sorted(START_BUDGET_COMMANDS))
def test_start_stack_over_budget_exits_2(monkeypatch, capsys, command, flag):
    # 10**13 states or starts would need petabytes; the stack is refused
    # before any solve.
    from qcap import cli

    monkeypatch.setattr(cli, "multi_start", refuse("multi_start"))
    assert cli.main([*START_BUDGET_COMMANDS[command], flag, str(10**13)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "start budget" in err


@pytest.mark.parametrize(
    "argv, states",
    [(["capacity", "--channel", "gamma1"], 2**20),
     (["regularized", "--channel", "gamma1", "--copies", "4"], 2**14)],
    ids=["qubit", "d16"],
)
def test_start_budget_is_inclusive(monkeypatch, capsys, argv, states):
    # starts x states x d^2 = 2**22 is solved; one more state is refused.
    from qcap import cli

    class Solved(Exception):
        pass

    def solve(ch, cfg, **kwargs):
        raise Solved

    monkeypatch.setattr(cli, "multi_start", solve)
    with pytest.raises(Solved):
        cli.main([*argv, "--starts", "1", "--states", str(states)])
    assert cli.main([*argv, "--starts", "1", "--states", str(states + 1)]) == 2
    assert "start budget" in capsys.readouterr().err


NON_FINITE_FILES = {
    "kraus": '{"kind": "kraus", "kraus": [[[[NaN, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]}',
    "affine": '{"kind": "affine_qubit", "affine": '
              '{"A": [[Infinity, 0, 0], [0, 1, 0], [0, 0, 1]], "b": [0, 0, 0]}}',
}


@pytest.mark.parametrize("kind", sorted(NON_FINITE_FILES))
def test_non_finite_channel_data_exits_2(tmp_path, kind):
    path = tmp_path / f"{kind}.json"
    path.write_text(NON_FINITE_FILES[kind])
    proc = qcap_cmd("capacity", "--channel", str(path))
    assert proc.returncode == 2
    assert "finite" in proc.stderr


# Finite Kraus data whose products overflow float64: every sum, or the
# trace-preservation sum alone.
OVERFLOW_KRAUS = {
    "all-sums": "[[[[1e200, 0], [0, 0]], [[0, 0], [0, 0]]]]",
    "tp-sum": "[[[[1e154, 0], [0, 0]], [[1e154, 0], [0, 0]]]]",
}


@pytest.mark.parametrize("command", ["capacity", "validate", "additivity"])
@pytest.mark.parametrize("case", sorted(OVERFLOW_KRAUS))
def test_overflowing_kraus_data_exits_2(tmp_path, capsys, command, case):
    # Refused by `validate`, which every command reaches before any tensor
    # or solve: one `error:` line, no report and no numpy warning.
    from qcap import cli

    path = tmp_path / "big.json"
    path.write_text(f'{{"name": "big", "kind": "kraus", "kraus": {OVERFLOW_KRAUS[case]}}}')
    if command == "additivity":
        argv = [command, "--lhs", "gamma1", "--rhs", str(path)]
    else:
        argv = [command, "--channel", str(path)]
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", "error: kraus entries overflow float64 in the "
                                       "trace-preservation sum or the Choi operator\n")


def test_large_entry_kraus_data_is_judged(tmp_path, capsys):
    # Entries near 1e4 leave the Choi operator's rounding past the
    # Hermiticity check of `herm_eig`: `validate` still reports and exits
    # 2, and `capacity` refuses the map as not trace preserving.
    from qcap import cli

    path = tmp_path / "large.json"
    save_channel(Channel(large_entry_kraus(), name="large"), path)
    assert cli.main(["validate", "--channel", str(path)]) == 2
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert (report["tp_ok"], report["cp_ok"], report["passed"], err) == (False, True, False, "")
    assert cli.main(["capacity", "--channel", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {path}: not trace preserving")


@pytest.mark.parametrize(
    "case",
    ["channel-directory", "out-directory", "out-unwritable", "trace-directory",
     "trace-unwritable"],
)
def test_unusable_paths_exit_2(tmp_path, capsys, case):
    # A channel path that cannot be read and an --out or --trace path that
    # cannot be written are bad input: exit 2, an `error:` line and no
    # report on stdout.
    from qcap import cli

    blocker = tmp_path / "file"
    blocker.write_text("")
    bad = {"directory": str(tmp_path), "unwritable": str(blocker / "report")}
    flag, kind = case.split("-")
    argv = ["capacity", "--channel", "gamma1"]
    if flag == "channel":
        argv[2] = bad[kind]
    else:
        argv += [f"--{flag}", bad[kind]]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ")
    assert bad[kind] in err


@pytest.mark.parametrize("alias", ["same", "dotted", "symlink", "loop"])
@pytest.mark.parametrize("command", ["capacity", "additivity"])
def test_trace_and_out_naming_one_file_exit_2(tmp_path, monkeypatch, capsys, command, alias):
    # A report written over its own trace would leave the report alone.
    # The two paths are compared resolved, before anything is read or
    # solved, and a symlink loop is refused as bad input, not a traceback.
    from qcap import cli

    (tmp_path / "sub").mkdir()
    report = tmp_path / "run.out"
    (tmp_path / "link").symlink_to(report)
    (tmp_path / "loop").symlink_to(tmp_path / "loop")
    trace = {"same": report, "dotted": tmp_path / "sub" / ".." / "run.out",
             "symlink": tmp_path / "link", "loop": tmp_path / "loop"}[alias]
    out = trace if alias == "loop" else report
    argv = {"capacity": ["capacity", "--channel", "gamma1"],
            "additivity": ["additivity", "--lhs", "gamma1", "--rhs", "gamma5"]}[command]
    monkeypatch.setattr(cli, "fixture_channel", refuse("fixture_channel"))
    monkeypatch.setattr(cli, "multi_start", refuse("multi_start"))
    assert cli.main([*argv, "--trace", str(trace), "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: --trace and --out name the same file: {out}\n")
    assert not report.exists()


@pytest.mark.parametrize(
    "exc",
    [OSError(errno.ENOSPC, "No space left on device"),
     BrokenPipeError(errno.EPIPE, "Broken pipe")],
    ids=["full", "closed-pipe"],
)
def test_unwritable_stdout_exits_2(monkeypatch, capsys, exc):
    # A report that cannot be written to stdout is bad input, as an
    # unwritable --out is.
    from qcap import cli

    class Stdout:
        def writelines(self, pieces):
            raise exc

    monkeypatch.setattr(cli.sys, "stdout", Stdout())
    assert cli.main(["capacity", "--channel", "gamma1"]) == 2
    assert capsys.readouterr().err == f"error: {exc}\n"


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("sink", ["full", "closed-pipe"])
def test_unwritable_stdout_leaves_no_traceback(sink, unbuffered):
    # End to end, with nothing more printed as the interpreter shuts down,
    # whether or not stdout is buffered.  The 2 KB `capacity` report fails
    # on the flush in `_emit`; the 4-copy `regularized` report, larger than
    # the stdout buffer, fails inside `writelines` and leaves bytes behind.
    if sink == "full":
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        stdout = os.open("/dev/full", os.O_WRONLY)
        argv = ["capacity", "--channel", "gamma1"]
        message = "error: [Errno 28] No space left on device\n"
    else:
        read_end, stdout = os.pipe()
        os.close(read_end)
        argv = ["regularized", "--channel", "gamma1", "--copies", "4", "--starts", "1"]
        message = ("note: this many copies is slow; expect a long solve\n"
                   "error: [Errno 32] Broken pipe\n")
    env = {**child_env(), "PYTHONUNBUFFERED": unbuffered}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "qcap.cli", *argv],
            stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=300, env=env,
        )
    finally:
        os.close(stdout)
    assert (proc.returncode, proc.stderr) == (2, message)


@pytest.mark.parametrize("command", ["capacity", "validate"])
@pytest.mark.parametrize("case", sorted(MALFORMED_FILES))
def test_malformed_channel_files_exit_2(tmp_path, capsys, command, case):
    # Every malformed file is bad input: one `error:` line that names the
    # fault, no report and no traceback.
    from qcap import cli

    data, message = MALFORMED_FILES[case]
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    assert cli.main([command, "--channel", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_unsearchable_channel_path_exits_2(capsys):
    # A name too long for the file system cannot be looked up at all.
    from qcap import cli

    assert cli.main(["capacity", "--channel", "x" * 5000]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "too long" in err


def test_non_trace_preserving_refused_before_cp_warning(monkeypatch, capsys):
    # A map that is neither trace preserving nor CP draws the TP error
    # alone: the CP warning would follow only for a usable channel.
    from qcap import Channel, cli, fixture_channel

    gamma3 = fixture_channel("gamma3")
    signed = Channel(0.9 * gamma3.kraus, gamma3.signs, name="scaled")
    monkeypatch.setattr(cli, "fixture_channel", lambda name: signed)
    assert cli.main(["capacity", "--channel", "gamma3"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: gamma3: not trace preserving (residual 1.900e-01)\n"


def test_numerical_failure_exits_3(monkeypatch, capsys):
    from qcap import cli

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(cli, "multi_start", fail)
    assert cli.main(["capacity", "--channel", "gamma1"]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_parser_built_once_across_commands(capsys):
    # In one process, successive commands share one parser and behave as
    # they do in fresh processes.
    from qcap import cli

    commands = [("capacity", "--channel", "gamma1", "--seed", "42"),
                ("validate", "--channel", "gamma3")]
    cli.build_parser.cache_clear()
    for argv in commands:
        code = cli.main(list(argv))
        fresh = qcap_cmd(*argv)
        assert (code, capsys.readouterr().out) == (fresh.returncode, fresh.stdout)
    assert cli.build_parser.cache_info().misses == 1


def test_start_stacks_drawn_once_across_commands(capsys):
    # In one process, commands that ask for one start stack draw it once,
    # and each prints what a fresh process prints.  Three files are qubit
    # maps and `gamma5` a qutrit one.  The 3-copy product's stack (d = 8)
    # is over the memo's bound, so it is drawn and not kept.
    from qcap import cli, solver

    commands = [
        *(("capacity", "--channel", str(CHANNEL_DIR / f"{name}.json"), "--seed", "5")
          for name in ("gamma1", "gamma2", "gamma4", "gamma5")),
        ("regularized", "--channel", "gamma1", "--copies", "3", "--seed", "5"),
    ]
    solver._memo_starts.cache_clear()
    for argv in commands:
        code = cli.main(list(argv))
        fresh = qcap_cmd(*argv)
        assert (code, capsys.readouterr().out) == (fresh.returncode, fresh.stdout)
    info = solver._memo_starts.cache_info()
    # Misses: the qubit stack and the qutrit one.  Hits: two more qubit
    # files and the single-copy solve of `regularized`.
    assert (info.misses, info.hits, info.currsize) == (2, 3, 2)


def test_subcommands_agree_in_parser_docstring_and_readme():
    # A command added to or removed from the parser cannot be missed in the
    # module docstring or in the README's "Command line" example block.
    import argparse
    import re

    from qcap import cli

    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    docstring = cli.__doc__.split("Subcommands:")[1].split(".  ")[0]
    readme = (ROOT / "README.md").read_text().split("## Command line")[1]
    block = readme.split("```sh")[1].split("```")[0]
    documented = set(re.findall(r"`(\w+)`\s+\(", docstring))
    shown = set(re.findall(r"^qcap (\w+)", block, re.M))
    assert set(sub.choices) == documented == shown
    assert documented == {"capacity", "additivity", "regularized", "validate"}


def test_no_command_exits_2():
    proc = qcap_cmd()
    assert proc.returncode == 2


# `cli.main` raises glibc's mmap and trim thresholds once per process
# (`cli._steady_heap`), so that the ket step's temporaries, which eigh,
# eigvalsh and solve allocate afresh, stop being mapped or trimmed away and
# faulted back in every iteration.  The setting is process-wide, so
# `import qcap` must never make it and only the command line module names it.


def run_script(script):
    # `script` in a child at one BLAS thread; its stdout, split.
    env = {**child_env(), "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_only_the_cli_names_mallopt():
    package = sorted((ROOT / "src" / "qcap").glob("*.py"))
    assert [path.name for path in package if "mallopt" in path.read_text()] == ["cli.py"]


def test_heap_set_by_main_once_and_never_on_import():
    # Every load of the C library is recorded: none on import, one on the
    # first command and none on the next.
    script = """
import contextlib, ctypes, io
loads = []
real = ctypes.CDLL
ctypes.CDLL = lambda *args, **kwargs: loads.append(args) or real(*args, **kwargs)
import qcap, qcap.cli
print(len(loads))
for _ in range(2):
    with contextlib.redirect_stdout(io.StringIO()):
        assert qcap.cli.main(["validate", "--channel", "gamma1"]) == 0
    print(len(loads))
"""
    assert run_script(script) == ["0", "1", "1"]


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="needs glibc's mallopt")
def test_repeated_command_does_not_refault_its_heap():
    # A short qutrit product solve, twice in one process: at glibc's
    # defaults the second took 4,924 minor faults, with the thresholds
    # about 100.
    script = """
import contextlib, io, resource
from qcap import cli
argv = ["additivity", "--lhs", "gamma5", "--rhs", "gamma5", "--max-iters", "20"]
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
    first, second = map(int, run_script(script))
    assert second < 1000, (first, second)
