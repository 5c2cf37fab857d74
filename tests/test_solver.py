import dataclasses
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import qcap
import qcap.cli
from qcap import (
    Channel,
    Ensemble,
    SolverConfig,
    ab_step,
    default_n_states,
    entanglement,
    initial_ensemble,
    j_functional,
    multi_start,
    mutual_info,
    run,
)
from qcap.solver import default_starts
from support import (
    every_start,
    identity_channel,
    product,
    random_density,
    random_pure_ensemble,
    random_qubit_kraus,
)

GAMMA1_MAXIMIZER = Ensemble(
    np.array([0.521046, 0.478954]),
    np.array([[[0.5, 0.5], [0.5, 0.5]], [[0.5, -0.5], [-0.5, 0.5]]], dtype=complex),
)


# `_iterate` steps a qubit -> qubit map (gamma1) in the Pauli basis and
# every other map (gamma5, a qutrit map) on kets; tests that cover the
# kernel's step run on one of each.
BOTH_PATHS = ("gamma1", "gamma5")


class TestConfig:
    def test_defaults_by_dimension(self):
        assert default_n_states(2) == 4
        assert default_n_states(4) == 16
        assert default_n_states(3) == 9
        assert default_n_states(9) == 81
        assert default_starts(2) == 5
        assert default_starts(4) == 5
        assert default_starts(3) == 5
        assert default_starts(9) == 3

    def test_resolution_fills_none_fields(self):
        cfg = SolverConfig().resolved(qcap.fixture_channel("gamma5"))
        assert cfg.n_states == 9
        assert cfg.starts == 5

    def test_rejects_bad_values(self):
        ch = qcap.fixture_channel("gamma1")
        with pytest.raises(ValueError):
            SolverConfig(n_states=0).resolved(ch)
        with pytest.raises(ValueError):
            SolverConfig(starts=0).resolved(ch)
        with pytest.raises(ValueError):
            SolverConfig(patience=1).resolved(ch)

    @pytest.mark.parametrize("name, starts", [("gamma1", 1), ("gamma1", 2), ("gamma5", 1)])
    def test_rejects_a_negative_seed(self, name, starts):
        # gamma1's one start is the canonical ensemble and draws nothing.
        with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
            SolverConfig(starts=starts, seed=-1).resolved(qcap.fixture_channel(name))

    @pytest.mark.parametrize("places", [-1, 0, 16, 30, 6.0])
    def test_rejects_decimal_places_outside_1_to_15(self, places):
        # A coarse rounding declares convergence early at a wrong value;
        # a finer one than doubles resolve can never converge.
        with pytest.raises(ValueError, match="decimal_places"):
            SolverConfig(decimal_places=places).resolved(qcap.fixture_channel("gamma1"))

    @pytest.mark.parametrize("places", [1, 15])
    def test_accepts_decimal_places_at_the_ends(self, places):
        cfg = SolverConfig(decimal_places=places).resolved(qcap.fixture_channel("gamma1"))
        assert cfg.decimal_places == places


class TestStarts:
    def test_canonical_qubit_ensemble(self):
        pi = initial_ensemble(2, 4, seed=0, index=0)
        assert pi.n_states == 4
        assert_allclose(pi.weights, 0.25)
        for s in pi.states:
            w = np.linalg.eigvalsh(s)
            assert w[-1] == pytest.approx(1.0, abs=1e-12)
        assert_allclose(pi.average_state().trace().real, 1.0, atol=1e-12)

    def test_index_zero_is_canonical_for_qubits(self):
        pi = initial_ensemble(2, 4, seed=0, index=0)
        assert_allclose(pi.states, qcap.solver._CANONICAL_QUBIT_STATES, atol=1e-15)

    def test_index_zero_is_random_for_other_dims(self):
        pi = initial_ensemble(4, 16, seed=0, index=0)
        assert pi.n_states == 16
        again = initial_ensemble(4, 16, seed=0, index=0)
        assert_allclose(pi.states, again.states, atol=1e-15)

    def test_later_indices_differ(self):
        a = initial_ensemble(2, 4, seed=0, index=1)
        b = initial_ensemble(2, 4, seed=0, index=2)
        assert np.abs(a.states - b.states).max() > 1e-3

    def test_random_start_states_are_pure(self):
        pi = initial_ensemble(4, 16, seed=0, index=1)
        for s in pi.states:
            assert np.linalg.eigvalsh(s)[-1] == pytest.approx(1.0, abs=1e-12)
            assert np.trace(s).real == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("dim, n", [(2, 4), (2, 1), (3, 9), (4, 16), (9, 81)])
    def test_stacked_starts_are_the_single_starts(self, dim, n, seed):
        # `multi_start` builds its starts as one stack; each must be, bit
        # for bit, the start `initial_ensemble` gives and the one drawn start
        # by start (the canonical ensemble, or uniform weights over pure
        # states drawn from the start's own generator).
        weights, states = qcap.solver._starts(dim, n, seed, range(5))
        assert weights.shape == (5, n) and states.shape == (5, n, dim, dim)
        for i in range(5):
            single = initial_ensemble(dim, n, seed, i)
            if i == 0 and (dim, n) == (2, 4):
                drawn = (np.full(4, 0.25), qcap.solver._CANONICAL_QUBIT_STATES)
            else:
                drawn = random_pure_ensemble(np.random.default_rng([seed, i]), dim, n)
            for w, S in ((single.weights, single.states), drawn):
                assert weights[i].tobytes() == w.tobytes()
                assert states[i].tobytes() == S.tobytes()

    @pytest.mark.parametrize(
        "args, name",
        [
            ((2, 4, -1, 0), "seed"),
            ((2, 4, -1, 1), "seed"),
            ((2, 4, 1, -1), "index"),
            ((2, 0, 1, 1), "n_states"),
            ((0, 4, 1, 1), "dim"),
        ],
    )
    def test_initial_ensemble_names_a_bad_input(self, args, name):
        with pytest.raises(ValueError, match=f"^{name} must be at least"):
            initial_ensemble(*args)

    def test_initial_ensemble_is_a_fresh_copy(self):
        # Writing to one start's states leaves the next call's start as it
        # was; the canonical states that every qubit solve copies stay
        # read-only.
        first = initial_ensemble(2, 4, 0, 0).states
        first[0, 0, 0] = 0.0
        assert initial_ensemble(2, 4, 0, 0).states[0, 0, 0] == 0.5
        with pytest.raises(ValueError, match="read-only"):
            qcap.solver._CANONICAL_QUBIT_STATES[0, 0, 0] = 0.0

    def test_writing_into_a_start_changes_no_later_solve(self):
        # A process draws each small start stack once; what `_starts` and
        # `initial_ensemble` hand out are writable copies of it.
        ch = qcap.fixture_channel("gamma5")
        before = multi_start(ch)
        weights, states = qcap.solver._starts(3, 9, 0, range(5))
        pi = initial_ensemble(3, 9, 0, 1)
        for a in (weights, states, pi.weights, pi.states):
            assert a.flags.writeable
            a[...] = 0
        after = multi_start(ch)
        assert (after.capacity, after.iterations_used) == (before.capacity, before.iterations_used)
        assert after.ensemble.states.tobytes() == before.ensemble.states.tobytes()

    def test_memo_keeps_small_stacks_only(self):
        memo = qcap.solver._memo_starts
        memo.cache_clear()
        # 1.3 MB of states: drawn, never looked up or kept.
        qcap.solver._starts(2, 4096, 0, range(5))
        assert memo.cache_info().currsize == 0
        # At d = 4 a state and its weight take 264 bytes: 248 of them fit
        # the bound and are kept, 249 do not.
        qcap.solver._starts(4, 248, 0, [1])
        qcap.solver._starts(4, 249, 0, [1])
        assert memo.cache_info().currsize == 1
        kept = memo(4, 248, 0, 1)
        assert sum(a.nbytes for a in kept) <= qcap.solver.START_MEMO_BYTES
        assert not any(a.flags.writeable for a in kept)
        for seed in range(2 * qcap.solver.START_MEMO_ENTRIES):
            qcap.solver._starts(2, 4, seed, range(5))
        assert memo.cache_info().currsize == qcap.solver.START_MEMO_ENTRIES

    def test_memo_keys_by_type(self):
        # A float that equals an int seed or index is refused as a fresh
        # draw refuses it, even once the int's stack is kept.
        qcap.solver._starts(2, 4, 1, [1])
        for args in ((2, 4, 1.0, [1]), (2, 4, 1, [1.0])):
            with pytest.raises(TypeError):
                qcap.solver._starts(*args)


class TestAbStep:
    def test_identity_channel_fixed_point(self):
        states = np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], dtype=complex)
        pi = Ensemble(np.array([0.5, 0.5]), states)
        new = ab_step(pi, identity_channel())
        assert_allclose(new.weights, pi.weights, atol=1e-10)
        assert_allclose(new.states, pi.states, atol=1e-10)

    def test_printed_maximizer_is_fixed_in_value(self):
        ch = qcap.fixture_channel("gamma1")
        before = mutual_info(GAMMA1_MAXIMIZER, ch)
        after = mutual_info(ab_step(GAMMA1_MAXIMIZER, ch), ch)
        assert after == pytest.approx(before, abs=1e-5)
        assert after == pytest.approx(0.138166, abs=1e-5)

    def test_monotone_ascent_from_random_ensembles(self, rng):
        ch = qcap.fixture_channel("gamma2")
        for _ in range(100):
            w, S = random_pure_ensemble(rng, 2, 4)
            pi = Ensemble(w, S)
            assert mutual_info(ab_step(pi, ch), ch) >= mutual_info(pi, ch) - 1e-9

    def test_outputs_are_pure_and_normalized(self, rng):
        ch = qcap.fixture_channel("gamma5")
        w, S = random_pure_ensemble(rng, 3, 9)
        new = ab_step(Ensemble(w, S), ch)
        assert abs(new.weights.sum() - 1.0) <= 1e-12
        for s in new.states:
            assert np.linalg.eigvalsh(s)[-1] >= 1 - 1e-9

    def test_sandwich_inequality_along_trajectory(self):
        ch = qcap.fixture_channel("gamma2")
        pi = initial_ensemble(2, 4, 0, 0)
        for _ in range(30):
            new = ab_step(pi, ch)
            i_old = mutual_info(pi, ch)
            i_new = mutual_info(new, ch)
            j = j_functional(new, pi, ch)
            assert i_old <= j + 1e-9
            assert j <= i_new + 1e-9
            pi = new

    def test_zero_weights_stay_zero(self):
        # `ab_step` takes the kernel's step: Pauli on gamma1, kets on gamma5.
        for name in BOTH_PATHS:
            ch = qcap.fixture_channel(name)
            d = ch.dim_in
            states = np.array([np.diag(np.eye(d)[0]), np.diag(np.eye(d)[1]), np.full((d, d), 1 / d)])
            pi = Ensemble(np.array([0.6, 0.4, 0.0]), states)
            new = ab_step(pi, ch)
            assert new.weights[2] == 0.0
            assert abs(new.weights.sum() - 1.0) <= 1e-12
            assert new.n_states == 3

    def test_rejects_dimension_mismatch(self, rng):
        w, S = random_pure_ensemble(rng, 3, 4)
        with pytest.raises(ValueError, match="dimension"):
            ab_step(Ensemble(w, S), qcap.fixture_channel("gamma1"))


class TestRun:
    def test_gamma1_from_canonical_start(self):
        res = run(qcap.fixture_channel("gamma1"), initial_ensemble(2, 4, 0, 0))
        assert res.converged
        assert res.capacity == pytest.approx(0.138166, abs=1e-5)

    def test_identity_channel_reaches_log2(self):
        init = initial_ensemble(2, 4, seed=1, index=1)
        res = run(identity_channel(), init)
        assert res.capacity == pytest.approx(np.log(2), abs=1e-5)

    def test_product_channel_from_entangled_start(self):
        init = initial_ensemble(4, 16, seed=0, index=0)
        res = run(product("gamma2", "gamma2"), init, SolverConfig(), ent_dims=(2, 2))
        assert res.capacity == pytest.approx(0.517358, abs=1e-5)
        assert np.all(np.diff(res.trace.mutual_info) >= -1e-9)
        assert res.trace.ent is not None
        assert res.trace.ent[-1] <= 1e-5

    def test_capacity_equals_ensemble_mutual_info(self):
        ch = qcap.fixture_channel("gamma4")
        res = run(ch, initial_ensemble(2, 4, 0, 0))
        assert res.capacity == pytest.approx(mutual_info(res.ensemble, ch), abs=1e-9)

    def test_capacity_bounded_by_log_dim(self):
        for name in ("gamma1", "gamma5"):
            ch = qcap.fixture_channel(name)
            res = run(ch, initial_ensemble(ch.dim_in, ch.dim_in**2, 0, 1))
            assert res.capacity <= np.log(ch.dim_out) + 1e-9

    def test_iteration_cap_reported_as_unconverged(self):
        for name in BOTH_PATHS:
            ch = qcap.fixture_channel(name)
            res = run(ch, initial_ensemble(ch.dim_in, ch.dim_in**2, 0, 1), SolverConfig(max_iters=3))
            assert not res.converged
            assert res.iterations_used == 3
            assert len(res.trace) == 3

    @pytest.mark.parametrize("name", BOTH_PATHS)
    def test_one_iteration_returns_the_start_itself(self, name):
        # The stop rule is read before each update, so at `max_iters` 1 no
        # update runs and the start comes back as it went in.
        ch = qcap.fixture_channel(name)
        init = initial_ensemble(ch.dim_in, ch.dim_in**2, 0, 1)
        res = run(ch, init, SolverConfig(max_iters=1))
        assert res.iterations_used == 1 and not res.converged
        assert np.array_equal(res.ensemble.weights, init.weights)
        assert np.array_equal(res.ensemble.states, init.states)

    @pytest.mark.parametrize("name", BOTH_PATHS)
    def test_bad_split_raises_before_any_iteration(self, monkeypatch, name):
        ch = qcap.fixture_channel(name)

        def no_iteration(*args):
            raise AssertionError("iterated")

        monkeypatch.setattr(qcap.solver, "_holevo_terms", no_iteration)
        init = initial_ensemble(ch.dim_in, ch.dim_in**2, 0, 1)
        with pytest.raises(ValueError, match="does not split"):
            multi_start(ch, ent_dims=(2, 2))
        with pytest.raises(ValueError, match="does not split"):
            run(ch, init, ent_dims=(3, 3))

    def test_trace_has_one_row_per_iteration(self):
        res = run(qcap.fixture_channel("gamma1"), initial_ensemble(2, 4, 0, 0))
        assert len(res.trace) == res.iterations_used
        assert len(res.trace) >= 1
        assert res.trace.mutual_info.shape == (len(res.trace),)

    def test_convergence_uses_patience_window(self):
        # A looser rounding converges no later than a tighter one.
        ch = qcap.fixture_channel("gamma2")
        loose = run(ch, initial_ensemble(2, 4, 0, 0), SolverConfig(decimal_places=3))
        tight = run(ch, initial_ensemble(2, 4, 0, 0), SolverConfig(decimal_places=8))
        assert loose.iterations_used <= tight.iterations_used

    def test_rejects_mismatched_init(self, rng):
        w, S = random_pure_ensemble(rng, 3, 4)
        with pytest.raises(ValueError, match="dimension"):
            run(qcap.fixture_channel("gamma1"), Ensemble(w, S))

    def test_non_finite_mutual_info_raises(self, monkeypatch, capsys):
        # NaN never rounds equal to itself, so without the check the
        # patience rule would never fire and the run would spin to max_iters.
        holevo_terms = qcap.solver._holevo_terms

        def nan_info(*args):
            info, phis = holevo_terms(*args)
            return np.full_like(info, np.nan), phis

        monkeypatch.setattr(qcap.solver, "_holevo_terms", nan_info)
        for name in BOTH_PATHS:
            ch = qcap.fixture_channel(name)
            with pytest.raises(np.linalg.LinAlgError, match="mutual information is nan"):
                run(ch, initial_ensemble(ch.dim_in, ch.dim_in**2, 0, 0))
            assert qcap.cli.main(["capacity", "--channel", name]) == 3
            assert "mutual information is nan" in capsys.readouterr().err

    def test_loop_plans_no_einsum_path(self, monkeypatch):
        # No einsum inside the iteration may ask numpy to plan a
        # contraction path: planned per call, that was most of a qubit solve.
        calls = []
        einsum = np.einsum

        def recording(*args, **kwargs):
            calls.append(kwargs.get("optimize", False))
            return einsum(*args, **kwargs)

        ch = product("gamma2", "gamma4")
        monkeypatch.setattr(np, "einsum", recording)
        # gamma1 takes the Pauli step, the product the ket step.
        run(qcap.fixture_channel("gamma1"), initial_ensemble(2, 4, 0, 0), SolverConfig(max_iters=5))
        run(ch, initial_ensemble(4, 16, 0, 0), SolverConfig(max_iters=5), ent_dims=(2, 2))
        assert calls
        assert not any(calls)

    @pytest.mark.parametrize("ent, per_iter", [(False, 2), (True, 3)])
    def test_eigendecompositions_per_iteration(self, monkeypatch, ent, per_iter):
        # An iteration makes one eigh, of the outputs and their averages
        # together; one eigvalsh if its update has a row the certificate of
        # `_top_kets` leaves to the exact path; and, for the traced
        # entanglement, one eigvalsh of the updated stack's smaller
        # marginals: `per_iter` in all, one less on an update the certificate
        # takes whole.  Here the first update (which has no warm kets) and
        # updates 2-4 and 6-8 leave rows to the exact path; from the 9th of
        # 39 on the certificate takes every row.  The last iteration makes no
        # update, and the initial states' entanglement takes the general
        # form's three eigvalsh.
        ch = product("gamma2", "gamma4")
        dims = (2, 2) if ent else None
        calls = {"eigh": 0, "eigvalsh": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
        updates = []  # per update, the eigvalsh calls its top kets made
        top_kets = qcap.solver._top_kets

        def recording(y, start, bounds):
            before = calls["eigvalsh"]
            kets = top_kets(y, start, bounds)
            updates.append(calls["eigvalsh"] - before)
            return kets

        monkeypatch.setattr(qcap.solver, "_top_kets", recording)
        res = run(ch, initial_ensemble(4, 16, 0, 0), ent_dims=dims)
        assert res.converged and res.iterations_used == 40
        assert len(updates) == 39
        assert [k + 1 for k, n in enumerate(updates) if n] == [1, 2, 3, 4, 6, 7, 8]
        assert max(updates) == 1
        assert calls == {"eigh": 40, "eigvalsh": 7 + (3 + 39 if ent else 0)}
        assert sum(calls.values()) == 7 * per_iter + 32 * (per_iter - 1) + 1 + (3 if ent else 0)

    def test_certificate_takes_most_row_updates(self, monkeypatch, capsys):
        # `qcap additivity --lhs gamma2 --rhs gamma4 --seed 3`: of the product
        # solve's row updates after the first, the certificate of `_top_kets`
        # takes at least 85 % with no eigvalsh (96.7 % as shipped), and no
        # update after the fifth sends more than a fifth of its rows to
        # eigvalsh (7.5 % at most as shipped).  Here four starts leave the
        # stack while others go on and a merge shrinks it, so a record dropped
        # or misplaced where the stack is gathered (`keep`, `_merge`) sends
        # the next update's rows to eigvalsh and fails it.
        warm = []  # per warm update: its rows, and those it sent to eigvalsh
        eigvalsh = np.linalg.eigvalsh
        top_kets = qcap.solver._top_kets
        merge = qcap.solver._merge
        shrunk = []

        def recording(y, start, bounds):
            if start is None:
                return top_kets(y, start, bounds)
            sent = []

            def counting(H):
                sent.append(len(H))
                return eigvalsh(H)

            with pytest.MonkeyPatch.context() as m:
                m.setattr(np.linalg, "eigvalsh", counting)
                kets = top_kets(y, start, bounds)
            warm.append((len(y), sum(sent)))
            return kets

        def merging(weights, kets, tops, outs, rows, groups, shares):
            ends = merge(weights, kets, tops, outs, rows, groups, shares)
            shrunk.append(ends[1].shape[1] < kets.shape[1])
            return ends

        monkeypatch.setattr(qcap.solver, "_top_kets", recording)
        monkeypatch.setattr(qcap.solver, "_merge", merging)
        argv = ["additivity", "--lhs", "gamma2", "--rhs", "gamma4", "--seed", "3"]
        assert qcap.cli.main(argv) == 0
        capsys.readouterr()
        sizes = [rows for rows, _ in warm]
        assert any(shrunk) and sorted(set(sizes)) == [15, 16, 32, 48, 64, 80]
        rows, exact = np.sum(warm, axis=0)
        assert 1 - exact / rows >= 0.85
        assert max(sent / rows for rows, sent in warm[4:]) <= 0.2

    @pytest.mark.parametrize("name", ["gamma1", "gamma3"])
    def test_qubit_map_needs_no_eigendecomposition(self, monkeypatch, name):
        # The Pauli step takes every entropy, log and top eigenvector in
        # closed form, for CP and signed qubit maps alike.
        ch = qcap.fixture_channel(name)
        calls = []
        for fn in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, fn, lambda *a, fn=fn, **k: calls.append(fn))
        res = run(ch, initial_ensemble(2, 4, 0, 0), SolverConfig(max_iters=6))
        assert res.iterations_used == 6
        assert calls == []

    @pytest.mark.parametrize(
        "pair, dims",
        [(("gamma2", "gamma4"), (2, 2)), (("gamma1", "gamma5"), (2, 3)),
         (("gamma5", "gamma1"), (3, 2))],
    )
    def test_traced_entanglement_is_the_general_form(self, pair, dims):
        # Iteration 1 traces the initial states in the general form, later
        # ones the updated kets in the Schmidt form; both must give what
        # `entanglement` gives for the ensemble returned at that iteration.
        ch = product(*pair)
        d = ch.dim_in
        init = initial_ensemble(d, d * d, 0, 0)
        for k in range(1, 7):
            res = run(ch, init, SolverConfig(max_iters=k), ent_dims=dims)
            assert len(res.trace.ent) == k
            assert res.trace.ent[-1] == pytest.approx(
                entanglement(res.ensemble, *dims), abs=1e-13
            )

    def test_mixed_initial_states_take_the_general_form(self, rng):
        states = np.array([random_density(rng, 4, rank=2) for _ in range(6)])
        init = Ensemble(np.full(6, 1 / 6), states)
        res = run(product("gamma2", "gamma4"), init, SolverConfig(max_iters=3), ent_dims=(2, 2))
        assert res.trace.ent[0] == entanglement(init, 2, 2)

    def test_traced_entanglement_is_clipped_rounding_only(self, monkeypatch):
        # The Schmidt form clips its spectrum to [0, 1]: every traced value
        # after the first is nonnegative and within rounding of the
        # unclipped one.
        def unclipped(kets, da, db):
            M = kets.reshape(-1, da, db)
            M = M.swapaxes(1, 2) if da > db else M
            p = np.linalg.eigvalsh(M @ M.conj().swapaxes(1, 2))
            ent = -2.0 * (p * np.log(np.maximum(p, qcap.linalg.LOG_FLOOR))).sum(axis=1)
            return ent.reshape(kets.shape[:-1])

        ch = product("gamma1", "gamma5")
        init = initial_ensemble(6, 36, 0, 0)
        clipped = run(ch, init, SolverConfig(), ent_dims=(2, 3)).trace.ent
        monkeypatch.setattr(qcap.solver, "_schmidt_terms", unclipped)
        raw = run(ch, init, SolverConfig(), ent_dims=(2, 3)).trace.ent
        assert np.all(clipped[1:] >= 0)
        assert (raw[1:] < 0).any()
        assert_allclose(clipped, raw, rtol=0, atol=1e-14)


def parent_pauli_ascend(R, weights, phis):
    # The Pauli step as first written, kept as the reference: Bloch vectors
    # by a masked divide, `(0, 0, -1)` for a zero `g_vec`, and outputs
    # re-assembled from R's columns.
    g = phis @ R
    gv = g[..., 1:]
    norm = np.sqrt(np.einsum("snj,snj->sn", gv, gv))
    theta = np.divide(gv, norm[..., None], out=np.zeros_like(gv), where=norm[..., None] > 0)
    theta[norm == 0, 2] = -1.0
    scores = (g[..., 0] + norm) / 2
    new_w = weights * np.exp(scores - scores.max(axis=1, keepdims=True))
    new_w /= new_w.sum(axis=1, keepdims=True)
    return new_w, theta, R[:, 0] + theta @ R[:, 1:].T


class TestPauliStep:
    # The step computes the same numbers as the reference; only the order
    # of the outputs' sums differs, so they agree to rounding.
    TOL = 1e-15

    def step_inputs(self, rng, R, s=3, n=4):
        # The ascent operators of random pure states, as the solver forms
        # them: the Holevo terms of their outputs under R.
        weights = rng.random((s, n)) + 0.1
        weights /= weights.sum(axis=1, keepdims=True)
        theta = rng.standard_normal((s, n, 3))
        theta /= np.linalg.norm(theta, axis=-1, keepdims=True)
        coords = np.concatenate([np.ones((s, n, 1)), theta], axis=-1)
        _, phis = qcap.entropy._holevo_terms(
            weights, coords @ R.T, qcap.linalg._pauli_entropy_and_log
        )
        return weights, phis

    def assert_matches_parent(self, R, weights, phis):
        new_w, coords, outs = qcap.solver._pauli_ascend(R, weights, phis.copy())
        ref_w, ref_theta, ref_outs = parent_pauli_ascend(R, weights, phis.copy())
        assert_allclose(new_w, ref_w, rtol=0, atol=self.TOL)
        assert np.array_equal(coords[..., 0], np.ones(weights.shape))
        assert_allclose(coords[..., 1:], ref_theta, rtol=0, atol=self.TOL)
        assert_allclose(outs, ref_outs, rtol=0, atol=self.TOL)

    @pytest.mark.parametrize("n_kraus", [1, 2, 3, 4])
    def test_random_stacks(self, rng, n_kraus):
        for _ in range(25):
            R = Channel(random_qubit_kraus(rng, n_kraus))._pauli_transfer
            self.assert_matches_parent(R, *self.step_inputs(rng, R))

    def test_signed_gamma3(self, rng):
        R = qcap.fixture_channel("gamma3")._pauli_transfer
        for _ in range(25):
            self.assert_matches_parent(R, *self.step_inputs(rng, R))

    def test_zero_g_vec_row_takes_the_lower_pole(self, rng):
        # A trace-preserving R has first row (1, 0, 0, 0), so the ascent
        # operator `(c, 0, 0, 0)` has `g = phi R = (c, 0, 0, 0)`: a dual
        # image that is a multiple of the identity.
        R = np.eye(4)
        R[1:, 0] = rng.standard_normal(3) / 4
        R[1:, 1:] = rng.standard_normal((3, 3)) / 2
        weights, phis = self.step_inputs(rng, R)
        phis[1, 2] = (-1.5, 0.0, 0.0, 0.0)
        self.assert_matches_parent(R, weights, phis)
        coords = qcap.solver._pauli_ascend(R, weights, phis)[1]
        assert coords[1, 2].tolist() == [1.0, 0.0, 0.0, -1.0]


class TestMultiStart:
    def test_gamma4_five_starts(self):
        res = multi_start(qcap.fixture_channel("gamma4"), SolverConfig(seed=42))
        assert res.capacity == pytest.approx(0.0898225, abs=1e-5)
        assert res.converged

    def test_gamma5_qutrit(self):
        res = multi_start(qcap.fixture_channel("gamma5"), SolverConfig(seed=42))
        assert res.capacity == pytest.approx(0.677358, abs=1e-5)

    def test_single_start_equals_run_on_canonical(self):
        ch = qcap.fixture_channel("gamma2")
        ms = multi_start(ch, SolverConfig(starts=1, seed=9))
        direct = run(ch, initial_ensemble(2, 4, 0, 0), SolverConfig(starts=1, seed=9))
        assert ms.capacity == direct.capacity
        assert ms.iterations_used == direct.iterations_used
        assert ms.start_index == 0

    def test_deterministic_given_seed(self):
        ch = qcap.fixture_channel("gamma4")
        a = multi_start(ch, SolverConfig(seed=5))
        b = multi_start(ch, SolverConfig(seed=5))
        assert a.capacity == b.capacity
        assert a.start_index == b.start_index
        assert np.array_equal(a.trace.mutual_info, b.trace.mutual_info)

    def test_reports_winning_start_index(self):
        res = multi_start(qcap.fixture_channel("gamma4"), SolverConfig(seed=42))
        assert 0 <= res.start_index < 5

    @pytest.mark.parametrize("gain, winner", [(1e-15, 0), (1e-9, 1)])
    def test_rounding_ties_keep_the_earliest_start(self, monkeypatch, gain, winner):
        capacities = [0.5, 0.5 + gain]

        def fake_iterate(ch, weights, states, cfg, ent_dims=None):
            return [qcap.solver._Finish(w, S, True, [c], None)
                    for c, w, S in zip(capacities, weights, states)]

        monkeypatch.setattr(qcap.solver, "_iterate", fake_iterate)
        res = multi_start(qcap.fixture_channel("gamma1"), SolverConfig(starts=2))
        assert res.start_index == winner

    @pytest.mark.parametrize("name", BOTH_PATHS)
    def test_one_ensemble_per_solve(self, monkeypatch, name):
        # Every start's end stays raw; only the one returned is validated.
        built = []
        check = Ensemble.__post_init__

        def counted(self):
            built.append(self)
            check(self)

        ch = qcap.fixture_channel(name)
        monkeypatch.setattr(Ensemble, "__post_init__", counted)
        res = multi_start(ch, SolverConfig(seed=3))
        assert built == [res.ensemble]

    @pytest.mark.parametrize("names", [("gamma1",), ("gamma5",), ("gamma1",) * 3])
    def test_every_end_holds_state_matrices(self, monkeypatch, names):
        # The Pauli step holds coordinates and the ket step kets; three
        # copies of gamma1 also merge their kets.  Every end the kernel
        # returns holds complex (n, d, d) states all the same.
        merge, shrunk = qcap.solver._merge, []

        def spied(weights, *args):
            out = merge(weights, *args)
            shrunk.append(out[0].shape[1] < weights.shape[1])
            return out

        monkeypatch.setattr(qcap.solver, "_merge", spied)
        ch = product(*names)
        cfg = SolverConfig(starts=2, seed=3).resolved(ch)
        starts = qcap.solver._starts(ch.dim_in, cfg.n_states, cfg.seed, range(cfg.starts))
        ends = qcap.solver._iterate(ch, *starts, cfg)
        assert len(ends) == cfg.starts
        assert any(shrunk) or len(names) == 1
        for end in ends:
            assert end.states.dtype == complex
            assert end.states.shape == (cfg.n_states, ch.dim_in, ch.dim_in)

    @pytest.mark.parametrize("pair", [("gamma4",), ("gamma2", "gamma4")])
    def test_batched_starts_equal_solo_runs(self, pair):
        # gamma4 at seed 42 stops its starts after 28, 29, 31, 41 and 34
        # iterations, so starts leave the stack at different steps.  gamma4
        # takes the Pauli step, the product the ket step.
        ch = product(*pair)
        dims = (2, 2) if len(pair) == 2 else None
        cfg = SolverConfig(seed=42).resolved(ch)
        batched = every_start(ch, cfg, dims)
        assert len({r.iterations_used for r in batched}) > 1
        for index, got in enumerate(batched):
            solo = run(ch, initial_ensemble(ch.dim_in, cfg.n_states, 42, index), cfg, dims)
            assert got.start_index == index
            assert got.iterations_used == solo.iterations_used
            assert got.converged == solo.converged
            assert got.capacity == pytest.approx(solo.capacity, abs=1e-12)
            assert_allclose(got.trace.mutual_info, solo.trace.mutual_info, rtol=0, atol=1e-12)
            if dims:
                assert_allclose(got.trace.ent, solo.trace.ent, rtol=0, atol=1e-12)
            assert_allclose(got.ensemble.weights, solo.ensemble.weights, rtol=0, atol=1e-12)
            assert_allclose(got.ensemble.states, solo.ensemble.states, rtol=0, atol=1e-12)
        best = multi_start(ch, cfg, dims)
        assert best.capacity == batched[best.start_index].capacity
        assert all(r.capacity <= best.capacity + qcap.solver.START_TIE_NATS for r in batched)

    @pytest.mark.parametrize(
        "kraus",
        [
            # 1 -> 2: prepares one fixed state from the one input state.
            (np.sqrt([0.7, 0.3])[:, None] * np.eye(2))[..., None],
            # 2 -> 1: the trace, whose dual images are multiples of the identity.
            np.eye(2).reshape(2, 1, 2),
        ],
        ids=["preparation", "trace"],
    )
    def test_dimension_one_maps_carry_nothing(self, kraus):
        ch = Channel(kraus.astype(complex))
        with np.errstate(all="raise"), warnings.catch_warnings():
            warnings.simplefilter("error")
            res = multi_start(ch, SolverConfig(seed=4))
        assert res.capacity == pytest.approx(0.0, abs=1e-12)
        assert res.converged and res.iterations_used == 10

    def test_result_is_replaceable(self):
        # start_index is attached via dataclass replace; the rest survives.
        res = multi_start(qcap.fixture_channel("gamma1"), SolverConfig(starts=2, seed=0))
        clone = dataclasses.replace(res, start_index=7)
        assert clone.capacity == res.capacity
