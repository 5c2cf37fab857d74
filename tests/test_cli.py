"""End-to-end command line tests via subprocess."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qcap import multi_start

CHANNEL_DIR = Path(__file__).resolve().parent.parent / "channels"


def qcap_cmd(*args):
    return subprocess.run(
        [sys.executable, "-m", "qcap.cli", *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


def write_identity_channel(path):
    d = {
        "name": "noiseless",
        "kind": "kraus",
        "kraus": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]],
    }
    path.write_text(json.dumps(d))
    return path


def write_depolarizing_channel(path):
    s = 1 / np.sqrt(2)
    mats = []
    for k in range(2):
        for l in range(2):
            M = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
            M[k][l] = [s, 0.0]
            mats.append(M)
    path.write_text(json.dumps({"name": "depolarizing", "kind": "kraus", "kraus": mats}))
    return path


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
        path = write_depolarizing_channel(tmp_path / "dep.json")
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
        proc = subprocess.run(
            [sys.executable, "-m", "qcap.cli", "regularized", "--channel", "gamma5",
             "--copies", "10000000"],
            capture_output=True, text=True, timeout=10,
        )
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

        assert cli._max_copies(4, 256) == 4
        path = tmp_path / "scalar.json"
        for kraus in ([[[[0.6, 0.0]]], [[[0.8, 0.0]]]], [[[[1.0, 0.0]]]]):
            path.write_text(json.dumps({"name": "scalar", "kind": "kraus", "kraus": kraus}))
            with monkeypatch.context() as m:
                m.setattr(cli, "tensor", lambda *args: pytest.fail("tensor called"))
                for copies in ("9", "40", "100000"):
                    assert cli.main(["regularized", "--channel", str(path), "--copies", copies]) == 2
                    assert "generator budget (256)" in capsys.readouterr().err
            assert cli.main(["regularized", "--channel", str(path), "--copies", "8"]) == 0
            assert json.loads(capsys.readouterr().out)["copies"] == 8


class TestTrace:
    def test_gamma2_pair_csv(self, tmp_path):
        out = tmp_path / "t.csv"
        proc = qcap_cmd(
            "trace", "--lhs", "gamma2", "--rhs", "gamma2", "--seed", "0", "--out", str(out)
        )
        assert proc.returncode == 0, proc.stderr
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "k,mutual_info_nats,ent_nats"
        rows = [line.split(",") for line in lines[1:]]
        vals = [float(r[1]) for r in rows]
        ents = [float(r[2]) for r in rows]
        assert all(b - a >= -1e-9 for a, b in zip(vals, vals[1:]))
        assert ents[-1] <= 1e-5
        assert vals[-1] == pytest.approx(0.517358, abs=1e-4)

    def test_stdout_when_no_out_flag(self):
        proc = qcap_cmd("trace", "--lhs", "gamma1", "--rhs", "gamma1", "--seed", "3")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("k,mutual_info_nats,ent_nats")

    def test_reproducible_for_fixed_seed(self, tmp_path):
        a = qcap_cmd("trace", "--lhs", "gamma1", "--rhs", "gamma2", "--seed", "5")
        b = qcap_cmd("trace", "--lhs", "gamma1", "--rhs", "gamma2", "--seed", "5")
        assert a.stdout == b.stdout

    def test_entanglement_never_negative(self):
        # Row 1 is the initial states' general form; every later row comes
        # from the clipped Schmidt spectrum of the updated kets.
        proc = qcap_cmd("trace", "--lhs", "gamma1", "--rhs", "gamma5", "--seed", "0")
        assert proc.returncode == 0, proc.stderr
        rows = [line.split(",") for line in proc.stdout.strip().splitlines()[1:]]
        assert len(rows) > 100
        assert all(float(r[2]) >= 0 for r in rows[1:])

    def test_starts_checked_though_unused(self, capsys):
        # The trace runs start 0 alone, but a bad --starts is still refused.
        from qcap import cli

        assert cli.main(["trace", "--lhs", "gamma1", "--rhs", "gamma1", "--starts", "0"]) == 2
        assert "starts" in capsys.readouterr().err


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


def test_no_command_exits_2():
    proc = qcap_cmd()
    assert proc.returncode == 2
