import numpy as np
import pytest
from numpy.testing import assert_allclose

from qcap import herm_eig, hermitize, kron, matrix_log_psd, partial_trace, trace_product
from support import PAULI_X, PAULI_Y, PAULI_Z, exp_herm, random_hermitian


class TestHermEig:
    def test_identity(self):
        w, V = herm_eig(np.eye(2))
        assert_allclose(w, [1.0, 1.0])
        assert_allclose(V.conj().T @ V, np.eye(2), atol=1e-12)

    def test_pauli_x_spectrum(self):
        w, _ = herm_eig(PAULI_X)
        assert_allclose(w, [1.0, -1.0], atol=1e-12)

    def test_reconstruction_random(self, rng):
        for dim in (2, 3, 4, 8, 16, 81):
            H = random_hermitian(rng, dim)
            w, V = herm_eig(H)
            assert_allclose((V * w) @ V.conj().T, H, atol=1e-10)
            assert_allclose(V.conj().T @ V, np.eye(dim), atol=1e-10)
            assert np.all(np.diff(w) <= 1e-12)

    def test_phase_convention(self, rng):
        for _ in range(20):
            H = random_hermitian(rng, 4)
            _, V = herm_eig(H)
            for col in V.T:
                lead = col[np.flatnonzero(np.abs(col) > 1e-12)[0]]
                assert abs(lead.imag) < 1e-12
                assert lead.real > 0

    def test_deterministic_on_degenerate_input(self):
        # Repeated eigenvalue: identical input must give identical output.
        H = np.diag([2.0, 1.0, 1.0]).astype(complex)
        w1, V1 = herm_eig(H)
        w2, V2 = herm_eig(H)
        assert np.array_equal(w1, w2)
        assert np.array_equal(V1, V2)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            herm_eig(np.ones((2, 3)))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestMatrixLogPsd:
    def test_half_identity(self):
        assert_allclose(matrix_log_psd(np.diag([0.5, 0.5])), -np.log(2) * np.eye(2), atol=1e-12)

    def test_identity_gives_zero(self):
        assert_allclose(matrix_log_psd(np.eye(3)), np.zeros((3, 3)), atol=1e-12)

    def test_diagonal_values(self):
        L = matrix_log_psd(np.diag([0.85, 0.15]))
        assert_allclose(np.diag(L).real, [np.log(0.85), np.log(0.15)], atol=1e-12)
        assert_allclose(np.diag(L).real, [-0.16251893, -1.89711998], atol=1e-8)

    def test_log_of_exp_recovers(self, rng):
        for dim in (2, 3, 5):
            H = random_hermitian(rng, dim)
            H *= 5.0 / max(np.abs(np.linalg.eigvalsh(H)).max(), 5.0)
            assert_allclose(matrix_log_psd(exp_herm(H)), H, atol=1e-8)

    def test_rank_deficient_clamps(self):
        P = np.diag([1.0, 0.0])
        L = matrix_log_psd(P, floor=1e-12)
        assert np.isfinite(L).all()
        assert_allclose(L, L.conj().T, atol=1e-10)
        assert L[1, 1].real == pytest.approx(np.log(1e-12))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="PSD"):
            matrix_log_psd(np.diag([1.0, -0.5]))


class TestKron:
    def test_identity(self):
        assert_allclose(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_diagonal(self):
        got = kron(np.diag([2.0, 3.0]), np.diag([5.0, 7.0]))
        assert_allclose(got, np.diag([10.0, 14.0, 15.0, 21.0]))

    def test_pauli_x_z(self):
        want = np.array(
            [[0, 0, 1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, -1, 0, 0]], dtype=complex
        )
        assert_allclose(kron(PAULI_X, PAULI_Z), want, atol=1e-15)

    def test_mixed_product_property(self, rng):
        for da, db in ((2, 2), (2, 3), (3, 3)):
            A, C = (rng.standard_normal((da, da)) + 1j * rng.standard_normal((da, da)) for _ in "ac")
            B, D = (rng.standard_normal((db, db)) + 1j * rng.standard_normal((db, db)) for _ in "bd")
            assert_allclose(kron(A, B) @ kron(C, D), kron(A @ C, B @ D), atol=1e-12)

    def test_bilinearity(self, rng):
        A = random_hermitian(rng, 2)
        B = random_hermitian(rng, 3)
        C = random_hermitian(rng, 3)
        assert_allclose(kron(A, 2.0 * B + C), 2.0 * kron(A, B) + kron(A, C), atol=1e-12)


class TestPartialTrace:
    def test_product_factorizes(self, rng):
        rho = random_hermitian(rng, 2)
        sigma = random_hermitian(rng, 3)
        X = kron(rho, sigma)
        assert_allclose(partial_trace(X, 2, 3, "first"), rho * np.trace(sigma), atol=1e-12)
        assert_allclose(partial_trace(X, 2, 3, "second"), sigma * np.trace(rho), atol=1e-12)

    def test_maximally_entangled_marginal(self):
        psi = np.zeros(4, dtype=complex)
        psi[0] = psi[3] = 1 / np.sqrt(2)
        rho = np.outer(psi, psi.conj())
        assert_allclose(partial_trace(rho, 2, 2, "second"), np.eye(2) / 2, atol=1e-12)
        assert_allclose(partial_trace(rho, 2, 2, "first"), np.eye(2) / 2, atol=1e-12)

    def test_preserves_trace(self, rng):
        X = random_hermitian(rng, 4)
        for keep in ("first", "second"):
            assert np.trace(partial_trace(X, 2, 2, keep)) == pytest.approx(
                np.trace(X).real, abs=1e-12
            )

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            partial_trace(np.eye(5), 2, 2, "first")

    def test_rejects_bad_keep(self):
        with pytest.raises(ValueError, match="keep"):
            partial_trace(np.eye(4), 2, 2, "both")


class TestTraceProduct:
    def test_identity_pair(self):
        assert trace_product(np.eye(2), np.eye(2)) == pytest.approx(2.0)

    def test_pauli_orthogonality(self):
        assert abs(trace_product(PAULI_X, PAULI_Y)) < 1e-12

    def test_diagonal_value(self):
        got = trace_product(np.diag([0.7, 0.3]), np.diag([2.0, 4.0]))
        assert got.real == pytest.approx(2.6, abs=1e-12)

    def test_hermitian_pair_is_real(self, rng):
        A = random_hermitian(rng, 3)
        B = random_hermitian(rng, 3)
        assert abs(trace_product(A, B).imag) < 1e-12

    def test_rejects_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            trace_product(np.eye(2), np.eye(3))


def test_hermitize_projects(rng):
    M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    H = hermitize(M)
    assert_allclose(H, H.conj().T, atol=1e-15)
    assert_allclose(hermitize(H), H, atol=1e-15)
    stack = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
    assert_allclose(hermitize(stack), (stack + stack.conj().transpose(0, 2, 1)) / 2, atol=1e-15)
