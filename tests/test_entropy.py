import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import qcap
from qcap import (
    Ensemble,
    SolverConfig,
    entanglement,
    j_functional,
    kron,
    mutual_info,
    rel_entropy,
)
from qcap.channels import apply
from support import identity_channel, phi_operator, product, random_density
from support import random_pure_ensemble, vn_entropy

# Printed two-point maximizer of the first benchmark channel: weights on
# the +x / -x axis states.
GAMMA1_WEIGHTS = np.array([0.521046, 0.478954])
GAMMA1_STATES = np.array(
    [[[0.5, 0.5], [0.5, 0.5]], [[0.5, -0.5], [-0.5, 0.5]]], dtype=complex
)


class TestEnsemble:
    def test_average_state(self, rng):
        w, S = random_pure_ensemble(rng, 3, 5)
        pi = Ensemble(w, S)
        assert_allclose(pi.average_state(), np.einsum("n,nab->ab", w, S), atol=1e-12)
        assert pi.n_states == 5
        assert pi.dim == 3

    def test_rejects_bad_weights(self, rng):
        _, S = random_pure_ensemble(rng, 2, 2)
        with pytest.raises(ValueError, match="sum to 1"):
            Ensemble(np.array([0.7, 0.7]), S)
        with pytest.raises(ValueError, match="sum to 1"):
            Ensemble(np.array([1.5, -0.5]), S)

    def test_rejects_shape_mismatch(self, rng):
        _, S = random_pure_ensemble(rng, 2, 3)
        with pytest.raises(ValueError, match="shapes"):
            Ensemble(np.array([0.5, 0.5]), S)

    def test_rejects_unnormalized_states(self):
        with pytest.raises(ValueError, match="unit trace"):
            Ensemble(np.array([1.0]), 2.0 * np.eye(2, dtype=complex)[None])

    def test_rejects_nan_weights_and_traces(self, rng):
        _, S = random_pure_ensemble(rng, 2, 2)
        with pytest.raises(ValueError, match="sum to 1"):
            Ensemble(np.array([np.nan, 1.0]), S)
        with pytest.raises(ValueError, match="sum to 1"):
            Ensemble(np.array([np.nan, np.nan]), S)
        S[1, 0, 0] = np.nan
        with pytest.raises(ValueError, match="unit trace"):
            Ensemble(np.array([0.5, 0.5]), S)

    @pytest.mark.parametrize("entry", [np.nan, np.inf, complex(0, np.nan), complex(0, -np.inf)])
    def test_rejects_non_finite_states(self, entry):
        # An off-diagonal entry leaves the unit trace intact, so only the
        # finiteness check can refuse it.
        with pytest.raises(ValueError, match="states must be finite"):
            Ensemble(np.ones(1), [[[1, entry], [np.conj(entry), 0]]])


class TestRelEntropy:
    def test_self_is_zero(self, rng):
        rho = random_density(rng, 3)
        assert rel_entropy(rho, rho) == pytest.approx(0.0, abs=1e-9)

    def test_binary_scalar_value(self):
        # Classical reduction on commuting diagonal states.
        got = rel_entropy(np.diag([0.85, 0.15]), np.diag([0.6105, 0.3895]))
        assert got == pytest.approx(0.13818006186138, abs=1e-9)

    def test_two_point_optimum_reduction_hits_capacity(self):
        # At the exact optimal mixing weight of the first benchmark
        # channel's two-point output ensemble, the relative entropy of
        # either output against the average equals the capacity.
        xbar = 0.22102884937316075
        sbar = np.diag([(1 + xbar) / 2, (1 - xbar) / 2])
        got = rel_entropy(np.diag([0.85, 0.15]), sbar)
        assert got == pytest.approx(0.138166, abs=1e-6)

    def test_pure_vs_maximally_mixed(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        assert rel_entropy(rho, np.eye(2) / 2) == pytest.approx(np.log(2), abs=1e-9)

    def test_nonnegative(self, rng):
        for _ in range(50):
            a = random_density(rng, 3)
            b = random_density(rng, 3)
            assert rel_entropy(a, b) > -1e-9

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            rel_entropy(np.eye(2) / 2, np.eye(3) / 3)

    @pytest.mark.parametrize("name", qcap.FIXTURE_NAMES)
    def test_monotone_under_fixture_channels(self, name, rng):
        ch = qcap.fixture_channel(name)
        for _ in range(100):
            a = random_density(rng, ch.dim_in)
            b = random_density(rng, ch.dim_in)
            assert rel_entropy(apply(ch, a), apply(ch, b)) <= rel_entropy(a, b) + 1e-9


class TestMutualInfo:
    def test_single_state_is_zero(self, rng):
        pi = Ensemble(np.array([1.0]), random_density(rng, 2)[None])
        assert mutual_info(pi, qcap.fixture_channel("gamma2")) == pytest.approx(0.0, abs=1e-12)

    def test_gamma1_printed_maximizer(self):
        pi = Ensemble(GAMMA1_WEIGHTS, GAMMA1_STATES)
        got = mutual_info(pi, qcap.fixture_channel("gamma1"))
        assert got == pytest.approx(0.138166, abs=1e-5)

    def test_identity_channel_classical_bits(self):
        states = np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], dtype=complex)
        pi = Ensemble(np.array([0.5, 0.5]), states)
        assert mutual_info(pi, identity_channel()) == pytest.approx(np.log(2), abs=1e-9)

    @pytest.mark.parametrize("name", qcap.FIXTURE_NAMES)
    def test_matches_entropy_difference(self, name, rng):
        # Independent formulation: S(G(rho_bar)) - sum_i w_i S(G(s_i)).
        ch = qcap.fixture_channel(name)
        w, S = random_pure_ensemble(rng, ch.dim_in, ch.dim_in**2)
        pi = Ensemble(w, S)
        outs = [apply(ch, s) for s in S]
        obar = sum(wi * o for wi, o in zip(w, outs))
        want = vn_entropy(obar) - sum(wi * vn_entropy(o) for wi, o in zip(w, outs))
        assert mutual_info(pi, ch) == pytest.approx(want, abs=1e-9)

    def test_matches_relative_entropy_sum_on_entangled_states(self, rng):
        # Definition: sum_i w_i D(G(s_i) || G(rho_bar)), with a signed
        # factor, generically entangled inputs and one zero weight.
        ch = qcap.tensor(qcap.fixture_channel("gamma3"), qcap.fixture_channel("gamma2"))
        _, S = random_pure_ensemble(rng, 4, 5)
        w = np.array([0.3, 0.0, 0.1, 0.4, 0.2])
        pi = Ensemble(w, S)
        out_bar = apply(ch, pi.average_state())
        want = sum(wi * rel_entropy(apply(ch, s), out_bar) for wi, s in zip(w, S) if wi > 0)
        assert mutual_info(pi, ch) == pytest.approx(want, abs=1e-12)

    def test_zero_weight_padding_is_invisible(self, rng):
        ch = qcap.fixture_channel("gamma2")
        w, S = random_pure_ensemble(rng, 2, 3)
        pi = Ensemble(w, S)
        padded = Ensemble(np.append(w, 0.0), np.concatenate([S, S[:1]]))
        assert mutual_info(padded, ch) == pytest.approx(mutual_info(pi, ch), abs=1e-12)

    def test_bounded_by_log_output_dim(self, rng):
        for name in qcap.FIXTURE_NAMES:
            ch = qcap.fixture_channel(name)
            w, S = random_pure_ensemble(rng, ch.dim_in, ch.dim_in**2)
            assert mutual_info(Ensemble(w, S), ch) <= np.log(ch.dim_out) + 1e-9


def parent_holevo_terms(weights, outs):
    # The ket step's Holevo terms as first written, kept as the reference:
    # one eigh of the outputs and another of their averages.
    avg = np.einsum("sn,sn...->s...", weights, outs)
    ents, phis = qcap.linalg._entropy_and_log(outs)
    ent_bar, log_bar = qcap.linalg._entropy_and_log(avg)
    phis -= log_bar[:, None]
    return ent_bar - np.einsum("sn,sn->s", weights, ents), phis


class TestHolevoTerms:
    # Appending the averages to the outputs changes no bit: LAPACK solves
    # each matrix of a batch on its own.

    def assert_matches_parent(self, ch, weights, states):
        outs = qcap.entropy._output_coords(ch, states)
        info, phis = qcap.entropy._holevo_terms(weights, outs)
        ref_info, ref_phis = parent_holevo_terms(weights, outs)
        assert_array_equal(info, ref_info)
        assert_array_equal(phis, ref_phis)

    @pytest.mark.parametrize(
        "factors, starts",
        [(("gamma5", "gamma6"), 3), (("gamma1",) * 4, 1), (("gamma3", "gamma1"), 5)],
        ids=["gamma5xgamma6", "gamma1^4", "gamma3xgamma1"],
    )
    def test_start_stacks(self, factors, starts):
        ch = product(*factors)
        n = SolverConfig().resolved(ch).n_states
        self.assert_matches_parent(ch, *qcap.solver._starts(ch.dim_in, n, 0, range(starts)))

    def test_zero_weight_row(self, rng):
        # As merge padding makes: a zero-weight copy of a row's first state.
        ch = product("gamma2", "gamma4")
        weights, states = qcap.solver._starts(4, 16, 0, range(3))
        weights[1] = rng.random(16)
        weights[1, -1] = 0.0
        weights[1] /= weights[1].sum()
        states[1, -1] = states[1, 0]
        self.assert_matches_parent(ch, weights, states)


class TestPhiOperator:
    def test_equal_arguments_vanish(self, rng):
        ch = qcap.fixture_channel("gamma2")
        rho = random_density(rng, 2)
        assert_allclose(phi_operator(rho, rho, ch), np.zeros((2, 2)), atol=1e-10)

    def test_diagonal_identity_channel(self):
        sigma = np.diag([0.85, 0.15]).astype(complex)
        rho = np.diag([0.6105, 0.3895]).astype(complex)
        got = phi_operator(sigma, rho, identity_channel())
        want = np.diag([np.log(0.85 / 0.6105), np.log(0.15 / 0.3895)])
        assert_allclose(got, want, atol=1e-12)

    def test_trace_against_output_gives_divergence(self, rng):
        ch = qcap.fixture_channel("gamma5")
        for _ in range(20):
            s = random_density(rng, 3)
            r = random_density(rng, 3)
            lhs = np.trace(apply(ch, s) @ phi_operator(s, r, ch)).real
            assert lhs == pytest.approx(rel_entropy(apply(ch, s), apply(ch, r)), abs=1e-9)

    def test_decomposes_mutual_info(self):
        ch = qcap.fixture_channel("gamma1")
        pi = Ensemble(GAMMA1_WEIGHTS, GAMMA1_STATES)
        rho_bar = pi.average_state()
        total = sum(
            w * np.trace(apply(ch, s) @ phi_operator(s, rho_bar, ch)).real
            for w, s in zip(pi.weights, pi.states)
        )
        assert total == pytest.approx(mutual_info(pi, ch), abs=1e-9)


class TestJFunctional:
    def test_diagonal_equals_mutual_info(self, rng):
        ch = qcap.fixture_channel("gamma2")
        for _ in range(20):
            w, S = random_pure_ensemble(rng, 2, 4)
            pi = Ensemble(w, S)
            assert j_functional(pi, pi, ch) == pytest.approx(mutual_info(pi, ch), abs=1e-9)

    def test_never_exceeds_first_slot_mutual_info(self, rng):
        ch = qcap.fixture_channel("gamma2")
        w, S = random_pure_ensemble(rng, 2, 4)
        pi = Ensemble(w, S)
        bound = mutual_info(pi, ch)
        for _ in range(100):
            wp, Sp = random_pure_ensemble(rng, 2, 4)
            assert j_functional(pi, Ensemble(wp, Sp), ch) <= bound + 1e-9

    def test_rejects_length_mismatch(self, rng):
        ch = qcap.fixture_channel("gamma2")
        w1, S1 = random_pure_ensemble(rng, 2, 4)
        w2, S2 = random_pure_ensemble(rng, 2, 3)
        with pytest.raises(ValueError, match="components"):
            j_functional(Ensemble(w1, S1), Ensemble(w2, S2), ch)


class TestEntanglement:
    def test_product_states_have_none(self, rng):
        pairs = []
        for _ in range(4):
            a = random_density(rng, 2, rank=1)
            b = random_density(rng, 2, rank=1)
            pairs.append(kron(a, b))
        pi = Ensemble(np.full(4, 0.25), np.array(pairs))
        assert entanglement(pi, 2, 2) == pytest.approx(0.0, abs=1e-9)

    def test_maximally_entangled_state(self):
        psi = np.zeros(4, dtype=complex)
        psi[0] = psi[3] = 1 / np.sqrt(2)
        pi = Ensemble(np.array([1.0]), np.outer(psi, psi.conj())[None])
        assert entanglement(pi, 2, 2) == pytest.approx(np.log(4), abs=1e-9)

    def test_classical_mixture_scores_positive(self):
        # Correlated but separable diagonal state still scores log 2.
        rho = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
        pi = Ensemble(np.array([1.0]), rho[None])
        assert entanglement(pi, 2, 2) == pytest.approx(np.log(2), abs=1e-9)

    def test_matches_direct_relative_entropy(self, rng):
        # Cross-check the marginal-entropy identity against the literal
        # D(s || s_A (x) s_B) built from partial traces.
        for _ in range(10):
            w, S = random_pure_ensemble(rng, 4, 3)
            pi = Ensemble(w, S)
            want = 0.0
            for wi, s in zip(w, S):
                T = s.reshape(2, 2, 2, 2)
                sa = np.trace(T, axis1=1, axis2=3)
                sb = np.trace(T, axis1=0, axis2=2)
                want += wi * rel_entropy(s, kron(sa, sb))
            assert entanglement(pi, 2, 2) == pytest.approx(want, abs=1e-7)

    def test_rejects_bad_split(self, rng):
        w, S = random_pure_ensemble(rng, 4, 2)
        with pytest.raises(ValueError, match="split"):
            entanglement(Ensemble(w, S), 2, 3)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2)])
    def test_schmidt_form_matches_general_form_on_kets(self, rng, dims):
        d = dims[0] * dims[1]
        kets = rng.standard_normal((2, 5, d)) + 1j * rng.standard_normal((2, 5, d))
        kets /= np.linalg.norm(kets, axis=-1, keepdims=True)
        states = np.einsum("...a,...b->...ab", kets, kets.conj())
        got = qcap.entropy._schmidt_terms(kets, *dims)
        assert got.shape == (2, 5)
        assert_allclose(got, qcap.entropy._entanglement_terms(states, *dims), rtol=0, atol=1e-13)

    def test_schmidt_form_of_product_kets_is_nonnegative_zero(self, rng):
        a = rng.standard_normal((20, 2)) + 1j * rng.standard_normal((20, 2))
        b = rng.standard_normal((20, 3)) + 1j * rng.standard_normal((20, 3))
        a /= np.linalg.norm(a, axis=1, keepdims=True)
        b /= np.linalg.norm(b, axis=1, keepdims=True)
        terms = qcap.entropy._schmidt_terms(np.einsum("na,nb->nab", a, b).reshape(20, 6), 2, 3)
        assert np.all(terms >= 0)
        assert terms.max() <= 1e-12
