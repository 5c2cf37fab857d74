import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

import qcap
from qcap import (
    AffineQubit,
    Channel,
    CompletePositivityError,
    affine_cp_matrix,
    affine_to_channel,
    apply,
    bloch_state,
    bloch_vector,
    channel_from_dict,
    channel_to_dict,
    choi,
    dual_apply,
    kron,
    load_channel,
    save_channel,
    tensor,
    tp_residual,
    validate,
)
from qcap.channels import PAULI_BASIS, _apply_batch, _dual_apply_batch, _pauli_operators
from qcap.linalg import _herm_coords, _herm_operators, _pure_coords
from support import PAULI_X, PAULI_Y, PAULI_Z, random_density, random_hermitian


def identity_channel(dim=2):
    return Channel(np.eye(dim, dtype=complex)[None])


def depolarizing_channel():
    # G(rho) = I/2 via the four matrix-unit generators / sqrt(2)
    ops = []
    for k in range(2):
        for l in range(2):
            E = np.zeros((2, 2), dtype=complex)
            E[k, l] = 1 / np.sqrt(2)
            ops.append(E)
    return Channel(np.array(ops))


class TestApply:
    def test_identity_channel(self, rng):
        ch = identity_channel()
        rho = random_density(rng, 2)
        assert_allclose(apply(ch, rho), rho, atol=1e-15)

    def test_gamma1_on_plus_x(self):
        ch = qcap.fixture_channel("gamma1")
        out = apply(ch, bloch_state([1.0, 0.0, 0.0]))
        assert_allclose(bloch_vector(out), [0.7, 0.0, 0.0], atol=1e-10)

    def test_gamma1_on_minus_x(self):
        ch = qcap.fixture_channel("gamma1")
        out = apply(ch, bloch_state([-1.0, 0.0, 0.0]))
        assert_allclose(bloch_vector(out), [-0.3, 0.0, 0.0], atol=1e-10)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="expects"):
            apply(identity_channel(2), np.eye(3) / 3)

    @pytest.mark.parametrize("name", qcap.FIXTURE_NAMES)
    def test_preserves_density_matrices(self, name, rng):
        ch = qcap.fixture_channel(name)
        for _ in range(100):
            out = apply(ch, random_density(rng, ch.dim_in))
            assert np.trace(out).real == pytest.approx(1.0, abs=1e-9)
            assert np.abs(out - out.conj().T).max() < 1e-10
            assert np.linalg.eigvalsh(out).min() > -1e-9


class TestDualApply:
    def test_identity_channel(self, rng):
        Y = random_hermitian(rng, 2)
        assert_allclose(dual_apply(identity_channel(), Y), Y, atol=1e-15)

    @pytest.mark.parametrize("name", qcap.FIXTURE_NAMES)
    def test_dual_is_unital(self, name):
        ch = qcap.fixture_channel(name)
        assert_allclose(dual_apply(ch, np.eye(ch.dim_out)), np.eye(ch.dim_in), atol=1e-9)

    def test_gamma1_dual_of_pauli_x(self):
        ch = qcap.fixture_channel("gamma1")
        want = 0.2 * np.eye(2) + 0.5 * PAULI_X
        assert_allclose(dual_apply(ch, PAULI_X), want, atol=1e-10)

    @pytest.mark.parametrize("name", qcap.FIXTURE_NAMES)
    def test_adjoint_identity(self, name, rng):
        ch = qcap.fixture_channel(name)
        for _ in range(100):
            X = random_hermitian(rng, ch.dim_in)
            Y = random_hermitian(rng, ch.dim_out)
            lhs = np.trace(apply(ch, X) @ Y)
            rhs = np.trace(X @ dual_apply(ch, Y))
            assert abs(lhs - rhs) < 1e-10

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="outputs"):
            dual_apply(identity_channel(2), np.eye(3))


def explicit_apply(ch, X):
    return sum(s * V @ X @ V.conj().T for s, V in zip(ch.signs, ch.kraus))


def explicit_dual(ch, Y):
    return sum(s * V.conj().T @ Y @ V for s, V in zip(ch.signs, ch.kraus))


def isometry_channel_2_to_3(rng):
    # Stinespring isometry C^2 -> C^3 (x) C^2, cut into two 3x2 generators.
    Z = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
    W, _ = np.linalg.qr(Z)
    return Channel(W.reshape(3, 2, 2).transpose(1, 0, 2))


def kernel_channel(which, rng):
    g = qcap.fixture_channel
    if which == "2to3":
        return isometry_channel_2_to_3(rng)
    if which == "gamma3xgamma5":
        return tensor(g("gamma3"), g("gamma5"))
    return tensor(tensor(g("gamma1"), g("gamma1")), g("gamma1"))


def random_matrices(rng, n, dim):
    return rng.standard_normal((n, dim, dim)) + 1j * rng.standard_normal((n, dim, dim))


def random_hermitians(rng, n, dim):
    M = random_matrices(rng, n, dim)
    return (M + M.conj().swapaxes(1, 2)) / 2


@pytest.mark.parametrize("which", ["2to3", "gamma3xgamma5", "gamma1^3"])
class TestKernelsAgainstGeneratorSum:
    def test_apply(self, which, rng):
        ch = kernel_channel(which, rng)
        Xs = random_matrices(rng, 4, ch.dim_in)
        want = np.array([explicit_apply(ch, X) for X in Xs])
        assert_allclose(apply(ch, Xs[0]), want[0], atol=1e-12)
        assert_allclose(_apply_batch(ch, Xs), want, atol=1e-12)

    def test_dual_apply(self, which, rng):
        ch = kernel_channel(which, rng)
        Ys = random_matrices(rng, 4, ch.dim_out)
        want = np.array([explicit_dual(ch, Y) for Y in Ys])
        assert_allclose(dual_apply(ch, Ys[0]), want[0], atol=1e-12)
        assert_allclose(_dual_apply_batch(ch, Ys), want, atol=1e-12)

    def test_coordinates_round_trip(self, which, rng):
        ch = kernel_channel(which, rng)
        for d in (ch.dim_in, ch.dim_out):
            Xs = random_hermitians(rng, 4, d)
            assert_allclose(_herm_operators(_herm_coords(Xs)), Xs, rtol=0, atol=1e-15)
            H = _herm_operators(rng.standard_normal((4, d * d)))
            assert np.array_equal(H, H.conj().swapaxes(1, 2))

    def test_coordinates_are_an_isometry(self, which, rng):
        ch = kernel_channel(which, rng)
        for d in (ch.dim_in, ch.dim_out):
            A, B = random_hermitians(rng, 2, d)
            assert _herm_coords(A) @ _herm_coords(B) == pytest.approx(np.trace(A @ B).real, abs=1e-12)

    def test_transfer_and_its_transpose(self, which, rng):
        # `<R h(X), h(Y)> = <h(X), R' h(Y)> = Tr[G(X) Y]`, and R is the only
        # matrix the channel caches, in real numbers.
        ch = kernel_channel(which, rng)
        R = ch._transfer
        assert R.dtype == float
        assert R.shape == (ch.dim_out**2, ch.dim_in**2)
        for _ in range(4):
            X = random_hermitians(rng, 1, ch.dim_in)[0]
            Y = random_hermitians(rng, 1, ch.dim_out)[0]
            want = np.trace(explicit_apply(ch, X) @ Y).real
            x, y = _herm_coords(X), _herm_coords(Y)
            assert (R @ x) @ y == pytest.approx(want, abs=1e-12)
            assert x @ (R.T @ y) == pytest.approx(want, abs=1e-12)
            assert_allclose(R @ x, _herm_coords(explicit_apply(ch, X)), rtol=0, atol=1e-12)
        dual_apply(ch, np.eye(ch.dim_out))
        cached = {k: v for k, v in vars(ch).items() if k not in ("kraus", "signs")}
        assert all(v.dtype == float for v in cached.values() if isinstance(v, np.ndarray))

    def test_pure_state_coordinates(self, which, rng):
        ch = kernel_channel(which, rng)
        kets = rng.standard_normal((5, ch.dim_in)) + 1j * rng.standard_normal((5, ch.dim_in))
        want = _herm_coords(np.einsum("na,nb->nab", kets, kets.conj()))
        assert_allclose(_pure_coords(kets), want, rtol=0, atol=1e-14)


@pytest.mark.parametrize("name", ["gamma1", "gamma2", "gamma3", "gamma4"])
def test_pauli_transfer_keeps_its_complex_formula(name):
    # The Pauli step reads `_pauli_transfer`, so it must stay bit-identical
    # to the form taken from the complex realigned Choi operator
    # `T[(a, b), (i, j)] = sum_k s_k V_k[a, i] conj(V_k[b, j])`, whatever
    # form the channel's own transfer matrix takes.
    ch = qcap.fixture_channel(name)
    T = choi(ch).reshape(2, 2, 2, 2).transpose(1, 3, 0, 2).reshape(4, 4)
    want = (PAULI_BASIS.conj() @ T @ PAULI_BASIS.T).real / 2
    assert np.array_equal(ch._pauli_transfer, want)


class TestAffineToChannel:
    def test_identity_map(self, rng):
        ch = affine_to_channel(AffineQubit(np.eye(3), np.zeros(3)))
        rho = random_density(rng, 2)
        assert_allclose(apply(ch, rho), rho, atol=1e-10)

    def test_gamma2_is_trace_preserving(self):
        assert tp_residual(qcap.fixture_channel("gamma2")) < 1e-9

    def test_rejects_non_cp_map(self):
        with pytest.raises(CompletePositivityError, match="min Choi eigenvalue -"):
            affine_to_channel(AffineQubit(np.eye(3), np.array([0.0, 0.0, 0.5])))

    def test_bloch_action_matches_affine_data(self, rng):
        # One CP map and 20 seeded signed ones.  Each channel's Pauli
        # transfer matrix is `[[1, 0], [b, A]]`, the relation that
        # `affine_to_channel` inverts.
        A = np.array([[0.05, -0.2, 0.4], [-0.2, -0.05, -0.2], [0.2, 0.0, -0.5]])
        maps = [(A, np.array([0.0, 0.0, 0.1]), False)]
        signed = np.random.default_rng(20)
        maps += [(signed.uniform(-1, 1, (3, 3)), signed.uniform(-0.5, 0.5, 3), True) for _ in range(20)]
        n_signed = 0
        for A, b, allow_non_cp in maps:
            ch = affine_to_channel(AffineQubit(A, b), allow_non_cp=allow_non_cp)
            n_signed += bool(np.any(ch.signs < 0))
            R = np.block([[np.ones((1, 1)), np.zeros((1, 3))], [b[:, None], A]])
            assert_allclose(ch._pauli_transfer, R, atol=1e-12)
            for _ in range(25):
                theta = rng.standard_normal(3)
                theta /= max(np.linalg.norm(theta), 1.0)
                out = apply(ch, bloch_state(theta))
                assert_allclose(bloch_vector(out), A @ theta + b, atol=1e-9)
        assert n_signed > 10

    @pytest.mark.parametrize("name", ["gamma1", "gamma2", "gamma3", "gamma4"])
    def test_affine_readback(self, name):
        # Applying the channel to the Pauli axis states recovers (A, b).
        ch = qcap.fixture_channel(name)
        aff = ch.origin
        b = bloch_vector(apply(ch, bloch_state(np.zeros(3))))
        A = np.column_stack(
            [bloch_vector(apply(ch, bloch_state(e))) - b for e in np.eye(3)]
        )
        assert_allclose(A, aff.A, atol=1e-8)
        assert_allclose(b, aff.b, atol=1e-8)

    def test_generator_count_bounded(self):
        for name in ("gamma1", "gamma2", "gamma3", "gamma4"):
            ch = qcap.fixture_channel(name)
            assert ch.n_generators <= ch.dim_in * ch.dim_out


class TestChoi:
    def test_identity_channel(self):
        C = choi(identity_channel())
        w, V = np.linalg.eigh(C)
        assert_allclose(w, [0.0, 0.0, 0.0, 2.0], atol=1e-12)
        psi = V[:, -1]
        want = np.zeros(4)
        want[0] = want[3] = 1 / np.sqrt(2)
        overlap = abs(np.vdot(want, psi))
        assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_depolarizing_channel(self):
        assert_allclose(choi(depolarizing_channel()), np.eye(4) / 2, atol=1e-12)

    def test_gamma4_choi_psd(self):
        w = np.linalg.eigvalsh(choi(qcap.fixture_channel("gamma4")))
        assert w.min() > -1e-9

    def test_choi_consistent_with_apply(self, rng):
        # Choi blocks are the images of the matrix units.
        ch = qcap.fixture_channel("gamma5")
        C = choi(ch)
        d = ch.dim_in
        k, l = 1, 2
        E = np.zeros((d, d), dtype=complex)
        E[k, l] = 1.0
        block = C[k * ch.dim_out : (k + 1) * ch.dim_out, l * ch.dim_out : (l + 1) * ch.dim_out]
        assert_allclose(block, apply(ch, E), atol=1e-12)


class TestAffineCpMatrix:
    @pytest.mark.parametrize("name", ["gamma1", "gamma2", "gamma3", "gamma4"])
    def test_agrees_with_choi_verdict(self, name):
        ch = qcap.fixture_channel(name)
        m_min = np.linalg.eigvalsh(affine_cp_matrix(ch.origin)).min()
        c_min = np.linalg.eigvalsh(choi(ch)).min()
        assert m_min == pytest.approx(c_min, abs=1e-9)

    def test_flags_shifted_identity(self):
        M = affine_cp_matrix(AffineQubit(np.eye(3), np.array([0.0, 0.0, 0.5])))
        assert np.linalg.eigvalsh(M).min() < -1e-3


class TestValidate:
    @pytest.mark.parametrize("name", ["gamma1", "gamma2", "gamma4", "gamma5", "gamma6"])
    def test_fixtures_pass(self, name):
        report = validate(qcap.fixture_channel(name))
        assert report.passed
        assert report.tp_ok and report.cp_ok

    def test_affine_cross_check_runs(self):
        report = validate(qcap.fixture_channel("gamma4"))
        assert report.affine_min_eigenvalue is not None
        assert report.checks_agree is True

    def test_doubled_identity_fails_trace_preservation(self):
        ch = Channel(np.array([np.eye(2), np.eye(2)], dtype=complex))
        report = validate(ch)
        assert not report.tp_ok
        assert report.tp_residual == pytest.approx(1.0, abs=1e-12)
        assert not report.passed


class TestTensor:
    def test_identity_pair(self, rng):
        prod = tensor(identity_channel(), identity_channel())
        rho = random_density(rng, 4)
        assert_allclose(apply(prod, rho), rho, atol=1e-12)

    def test_factorizes_on_product_states(self):
        g1 = qcap.fixture_channel("gamma1")
        prod = tensor(g1, g1)
        rho = bloch_state([1.0, 0.0, 0.0])
        out = apply(prod, kron(rho, rho))
        single = apply(g1, rho)
        assert_allclose(out, kron(single, single), atol=1e-10)

    def test_generator_count(self):
        prod = tensor(qcap.fixture_channel("gamma5"), qcap.fixture_channel("gamma6"))
        assert prod.n_generators == 9

    def test_associative_on_product_outputs(self, rng):
        a = qcap.fixture_channel("gamma1")
        b = qcap.fixture_channel("gamma2")
        c = qcap.fixture_channel("gamma4")
        left = tensor(tensor(a, b), c)
        right = tensor(a, tensor(b, c))
        rho = random_density(rng, 8)
        assert_allclose(apply(left, rho), apply(right, rho), atol=1e-10)

    def test_signed_factor_keeps_bloch_action(self, rng):
        # Product with the signed map still factorizes on product inputs.
        g3 = qcap.fixture_channel("gamma3")
        g2 = qcap.fixture_channel("gamma2")
        prod = tensor(g3, g2)
        r1 = random_density(rng, 2)
        r2 = random_density(rng, 2)
        assert_allclose(
            apply(prod, kron(r1, r2)), kron(apply(g3, r1), apply(g2, r2)), atol=1e-10
        )


class TestDescriptors:
    def test_kraus_round_trip(self):
        ch = qcap.fixture_channel("gamma5")
        back = channel_from_dict(channel_to_dict(ch))
        assert back.name == "gamma5"
        assert_allclose(back.kraus, ch.kraus, atol=1e-15)

    def test_affine_round_trip(self):
        ch = qcap.fixture_channel("gamma2")
        d = channel_to_dict(ch)
        assert d["kind"] == "affine_qubit"
        back = channel_from_dict(d)
        assert_allclose(back.origin.A, ch.origin.A, atol=1e-15)
        assert_allclose(back.origin.b, ch.origin.b, atol=1e-15)

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "ch.json"
        save_channel(qcap.fixture_channel("gamma1"), path)
        back = load_channel(path)
        assert back.name == "gamma1"
        assert_allclose(back.origin.A, np.diag([0.5, 0.4, 0.2]), atol=1e-15)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            channel_from_dict({"name": "x", "kind": "stinespring"})

    def test_rejects_missing_fields(self):
        with pytest.raises(ValueError, match="kraus"):
            channel_from_dict({"name": "x", "kind": "kraus"})
        with pytest.raises(ValueError, match="affine"):
            channel_from_dict({"name": "x", "kind": "affine_qubit"})

    def test_rejects_ragged_matrix(self):
        with pytest.raises(ValueError, match="matrix"):
            channel_from_dict(
                {"kind": "kraus", "kraus": [[[[1.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]}
            )

    def test_rejects_non_finite_entries(self):
        K = np.eye(2, dtype=complex)[None]
        K[0, 1, 0] = np.nan
        with pytest.raises(ValueError, match=r"kraus has 1 non-finite entries, the first at \(0, 1, 0\)"):
            Channel(K)
        with pytest.raises(ValueError, match=r"A has 1 non-finite entries, the first at \(2, 2\)"):
            AffineQubit(np.diag([1.0, 1.0, np.inf]), np.zeros(3))
        with pytest.raises(ValueError, match=r"b has 1 non-finite entries, the first at \(1,\)"):
            AffineQubit(np.eye(3), np.array([0.0, np.nan, 0.0]))

    def test_arrays_are_read_only_copies(self):
        K = np.eye(2, dtype=complex)[None]
        ch = Channel(K)
        with pytest.raises(ValueError, match="read-only"):
            ch.kraus[0, 0, 0] = 2.0
        with pytest.raises(ValueError, match="read-only"):
            ch.signs[0] = -1.0
        K[0, 0, 0] = 2.0
        assert ch.kraus[0, 0, 0] == 1.0

    def test_rejects_non_object(self):
        with pytest.raises(ValueError, match="object"):
            channel_from_dict([1, 2, 3])

    def test_rejects_invalid_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="JSON"):
            load_channel(path)

    def test_non_cp_affine_descriptor_respects_flag(self):
        d = {
            "name": "shift",
            "kind": "affine_qubit",
            "affine": {"A": np.eye(3).tolist(), "b": [0.0, 0.0, 0.5]},
        }
        with pytest.raises(CompletePositivityError):
            channel_from_dict(d)
        ch = channel_from_dict(d, allow_non_cp=True)
        assert np.any(ch.signs == -1.0)


class TestBlochHelpers:
    def test_round_trip(self, rng):
        theta = rng.standard_normal(3)
        theta /= max(np.linalg.norm(theta), 1.0)
        assert_allclose(bloch_vector(bloch_state(theta)), theta, atol=1e-12)

    def test_state_is_density_matrix(self):
        rho = bloch_state([0.0, 1.0, 0.0])
        assert np.trace(rho).real == pytest.approx(1.0)
        assert np.linalg.eigvalsh(rho).min() > -1e-12

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            bloch_state([1.0, 0.0])
        with pytest.raises(ValueError):
            bloch_vector(np.eye(3))

    def test_basis_is_the_textbook_paulis(self):
        # A sign flip of sigma_y is complex conjugation and leaves every
        # capacity unchanged, so only a direct comparison catches it.
        paulis = [PAULI_X, PAULI_Y, PAULI_Z]
        for e, P in zip(np.eye(3), paulis):
            assert_allclose(bloch_state(e), (np.eye(2) + P) / 2, atol=1e-15)
            assert_allclose(bloch_state(-e), (np.eye(2) - P) / 2, atol=1e-15)
            assert_allclose(bloch_vector(P), 2 * e, atol=1e-15)
        assert_allclose(_pauli_operators(np.eye(4)), np.stack([np.eye(2), *paulis]) / 2, atol=1e-15)
