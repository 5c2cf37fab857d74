import json

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import qcap
from qcap import (
    AffineQubit,
    Channel,
    affine_cp_matrix,
    affine_to_channel,
    apply,
    channel_from_dict,
    choi,
    dual_apply,
    kron,
    load_channel,
    tensor,
    tp_residual,
    validate,
)
from qcap.channels import PAULI_BASIS, _apply_batch, _dual_apply_batch, _pauli_coords
from qcap.channels import _pauli_operators
from qcap.linalg import _herm_coords, _herm_operators, _pure_coords
from support import MALFORMED_FILES, PAULI_X, PAULI_Y, PAULI_Z, identity_channel, product
from support import bloch_state, bloch_vector, channel_to_dict, save_channel
from support import large_entry_kraus, random_density, random_qubit_kraus
from support import random_hermitian, random_hermitians, replacement_channel


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
    if which == "2to3":
        return isometry_channel_2_to_3(rng)
    if which == "gamma3xgamma5":
        return product("gamma3", "gamma5")
    return product("gamma1", "gamma1", "gamma1")


def random_matrices(rng, n, dim):
    return rng.standard_normal((n, dim, dim)) + 1j * rng.standard_normal((n, dim, dim))


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

    def test_builds_non_cp_map_in_signed_form(self):
        # The map is built as given; `validate` alone judges it.
        ch = affine_to_channel(AffineQubit(np.eye(3), np.array([0.0, 0.0, 0.5])))
        assert np.any(ch.signs == -1.0)
        report = validate(ch)
        assert not report.cp_ok and report.checks_agree

    def test_bloch_action_matches_affine_data(self, rng):
        # One CP map and 20 seeded signed ones.  Each channel's Pauli
        # transfer matrix is `[[1, 0], [b, A]]`, the relation that
        # `affine_to_channel` inverts.
        A = np.array([[0.05, -0.2, 0.4], [-0.2, -0.05, -0.2], [0.2, 0.0, -0.5]])
        maps = [(A, np.array([0.0, 0.0, 0.1]))]
        signed = np.random.default_rng(20)
        maps += [(signed.uniform(-1, 1, (3, 3)), signed.uniform(-0.5, 0.5, 3)) for _ in range(20)]
        n_signed = 0
        for A, b in maps:
            ch = affine_to_channel(AffineQubit(A, b))
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
        assert_allclose(choi(replacement_channel([0.5, 0.5])), np.eye(4) / 2, atol=1e-12)

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

    @pytest.mark.parametrize("column", [[1e200, 0], [1e154, 1e154]], ids=["all-sums", "tp-sum"])
    def test_overflowing_generators_raise(self, column):
        # 2 (1e154)^2 overflows the trace-preservation sum alone, not the
        # Choi operator.  No numpy warning may escape on the way.
        ch = Channel(np.array([[[column[0], 0], [column[1], 0]]], dtype=complex))
        with pytest.raises(ValueError, match="overflow"):
            validate(ch)

    def test_large_finite_generators_give_a_finite_report(self):
        report = validate(Channel(np.array([[[1e153, 0], [0, 0]]], dtype=complex)))
        assert report.tp_residual == pytest.approx(1e306)
        assert not report.passed

    def test_choi_rounding_at_large_entries_gives_a_report(self):
        # The Choi operator misses Hermiticity by more than `herm_eig`
        # allows; only its smallest eigenvalue is read, from one triangle.
        ch = Channel(large_entry_kraus())
        C = choi(ch)
        assert np.abs(C - C.conj().T).max() > qcap.linalg.HERM_ATOL
        report = validate(ch)
        assert not report.tp_ok and not report.passed
        # CP by construction; its Choi zeros read about -2e-7 of rounding.
        # With one generator's sign flipped it is far from CP.
        assert report.cp_ok
        assert not validate(Channel(large_entry_kraus(), np.array([1.0, -1.0]))).cp_ok
        # The smallest eigenvalue of the Hermitian part, to C's rounding.
        want = np.linalg.eigvalsh(qcap.linalg.hermitize(C))[0]
        assert abs(report.choi_min_eigenvalue - want) <= 1e-14 * np.abs(C).max()


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

    @pytest.mark.parametrize("left", qcap.FIXTURE_NAMES)
    @pytest.mark.parametrize("right", qcap.FIXTURE_NAMES)
    def test_generators_are_the_kronecker_products(self, left, right):
        # Bit for bit the pairwise `np.kron` products, in their order, with
        # the products of the signs.
        a, b = qcap.fixture_channel(left), qcap.fixture_channel(right)
        prod = tensor(a, b)
        kraus = np.array([np.kron(V1, V2) for V1 in a.kraus for V2 in b.kraus])
        signs = np.array([s1 * s2 for s1 in a.signs for s2 in b.signs])
        assert prod.kraus.shape == kraus.shape
        assert prod.kraus.tobytes() == kraus.tobytes()
        assert prod.signs.tobytes() == signs.tobytes()

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

    def test_generators_stored_in_c_order(self, rng):
        # The same values in Fortran order give the same bits downstream.
        K = random_qubit_kraus(rng, 2)
        c, f = Channel(K), Channel(np.asfortranarray(K))
        assert f.kraus.flags.c_contiguous
        assert validate(f) == validate(c)
        assert_array_equal(f._transfer, c._transfer)

    def test_rejects_non_object(self):
        with pytest.raises(ValueError, match="object"):
            channel_from_dict([1, 2, 3])

    def test_rejects_invalid_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="JSON"):
            load_channel(path)

    def test_non_cp_affine_descriptor_builds_signed_channel(self):
        d = {
            "name": "shift",
            "kind": "affine_qubit",
            "affine": {"A": np.eye(3).tolist(), "b": [0.0, 0.0, 0.5]},
        }
        ch = channel_from_dict(d)
        assert np.any(ch.signs == -1.0)
        report = validate(ch)
        assert not report.cp_ok and report.checks_agree

    def test_kraus_entries_decode_exactly(self):
        # Each `[re, im]` pair is read as it stands, a -0.0 part included.
        d = {"kind": "kraus", "kraus": [[[[-0.0, 1.0], [0.0, -0.0]], [[0.1, 2], [1, 0]]]]}
        K = channel_from_dict(d).kraus
        expected = np.array([[[complex(-0.0, 1.0), complex(0.0, -0.0)], [0.1 + 2j, 1]]])
        assert K.tobytes() == expected.tobytes()
        assert channel_to_dict(Channel(K))["kraus"] == d["kraus"]

    @pytest.mark.parametrize(
        "case", sorted(set(MALFORMED_FILES) - {"deeply-nested", "name-latin-1"})
    )
    def test_rejects_malformed_descriptor(self, case):
        data, message = MALFORMED_FILES[case]
        with pytest.raises(ValueError, match=message):
            channel_from_dict(json.loads(data))

    @pytest.mark.parametrize("case", sorted(MALFORMED_FILES))
    def test_rejects_malformed_file(self, tmp_path, case):
        data, message = MALFORMED_FILES[case]
        path = tmp_path / "bad.json"
        path.write_bytes(data)
        with pytest.raises(ValueError, match=message):
            load_channel(path)

    @pytest.mark.parametrize("case", ["deeply-nested", "name-latin-1"])
    def test_unparsable_file_error_names_the_path(self, tmp_path, case):
        path = tmp_path / "bad.json"
        path.write_bytes(MALFORMED_FILES[case][0])
        with pytest.raises(ValueError) as info:
            load_channel(path)
        assert str(info.value).startswith(f"{path}: invalid JSON (")

    def test_rejects_lists_nested_past_numpy(self):
        # A parsed descriptor nested deeper than numpy's 64 dimensions.
        deep = [1.0]
        for _ in range(100):
            deep = [deep]
        with pytest.raises(ValueError, match="kraus must be .* nest too deep"):
            channel_from_dict({"kind": "kraus", "kraus": deep})

    def test_signed_channel_without_origin_has_no_descriptor(self):
        prod = tensor(qcap.fixture_channel("gamma3"), qcap.fixture_channel("gamma1"))
        with pytest.raises(ValueError, match="no descriptor form"):
            channel_to_dict(prod)


class TestConstructorChecks:
    def test_affine_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match=r"A must be 3x3, got shape \(2, 2\)"):
            AffineQubit(np.eye(2), np.zeros(3))
        with pytest.raises(ValueError, match=r"b must be a 3-vector, got shape \(3, 1\)"):
            AffineQubit(np.eye(3), np.zeros((3, 1)))

    @pytest.mark.parametrize("shape", [(2, 2), (1, 1, 2, 2), (0, 2, 2), (1, 0, 2), (1, 2, 0)])
    def test_channel_rejects_stack_shape(self, shape):
        with pytest.raises(ValueError, match="nonempty"):
            Channel(np.zeros(shape))

    @pytest.mark.parametrize("signs", [[1.0], [1.0, 1.0, 1.0], [1.0, 0.5], [1.0, np.nan]])
    def test_channel_rejects_signs(self, signs):
        with pytest.raises(ValueError, match="signs must be a"):
            Channel(np.stack([np.eye(2), np.eye(2)]) / np.sqrt(2), signs)


class TestBlochHelpers:
    """The Bloch conversions of `tests/support.py` that the affine tests read maps by."""

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
        # The package's own conversions, which the solver's Pauli step uses.
        basis = np.stack([np.eye(2), *paulis])
        assert_allclose(_pauli_operators(np.eye(4)), basis / 2, atol=1e-15)
        assert_allclose(_pauli_coords(basis), 2 * np.eye(4), atol=1e-15)
