import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import qcap.linalg
from qcap import herm_eig, hermitize, kron, matrix_log_psd, partial_trace, trace_product
from qcap.linalg import TOP_GAP_REL, _top_kets
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

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="Hermitian"):
            herm_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def loop_herm_eig(H):
    # `herm_eig` as first written, kept as the reference: each column is
    # rephased in a Python loop so that its first entry above 1e-12 is real
    # and positive.
    w, V = np.linalg.eigh(H)
    order = np.argsort(w)[::-1]
    w, V = w[order], V[:, order]
    for j in range(V.shape[1]):
        col = V[:, j]
        idx = np.flatnonzero(np.abs(col) > 1e-12)
        if idx.size:
            pivot = col[idx[0]]
            col *= np.abs(pivot) / pivot
    return w, V


def block_hermitian(rng, d, k):
    # A Hermitian matrix whose first k basis vectors are split off up to
    # a coupling of 1e-13, so that many eigenvectors have leading entries
    # below 1e-12 and take a later entry as their pivot.
    H = np.zeros((d, d), dtype=complex)
    H[:k, :k] = np.diag(rng.standard_normal(k))
    H[k:, k:] = random_hermitian(rng, d - k)
    H[k:, :k] = 1e-13 * (rng.standard_normal((d - k, k)) + 1j * rng.standard_normal((d - k, k)))
    H[:k, k:] = H[k:, :k].conj().T
    return H


@pytest.mark.parametrize("d", [1, 2, 3, 4, 9, 16])
def test_herm_eig_is_bit_identical_to_the_loop(rng, d):
    cases = [random_hermitian(rng, d) for _ in range(20)]
    cases += [block_hermitian(rng, d, k) for k in range(d) for _ in range(3)]
    cases += [np.eye(d), np.diag(np.arange(d, dtype=float))]
    led_by_small = 0
    for H in cases:
        w, V = herm_eig(H)
        ref_w, ref_V = loop_herm_eig(H)
        assert w.tobytes() == ref_w.tobytes()
        assert V.tobytes() == ref_V.tobytes()
        led_by_small += int((np.abs(ref_V[0]) <= 1e-12).sum())
    assert led_by_small > 0 or d == 1


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


def test_hermitize_is_bit_identical_to_the_plain_formula(rng):
    # Each entry is still `(M_ij + conj(M_ji)) / 2`, one addition and one
    # exact halving, so the order of the passes changes no bit.
    for M in (
        rng.standard_normal((8, 16, 16)) + 1j * rng.standard_normal((8, 16, 16)),
        rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)),
        rng.standard_normal((4, 3, 3)),
        np.arange(9).reshape(3, 3),
    ):
        want = (M + M.conj().swapaxes(-1, -2)) / 2
        got = hermitize(M)
        assert got.dtype == want.dtype
        assert got.flags.c_contiguous
        assert np.array_equal(got, want)


def top_kets_quietly(H):
    # Any floating-point warning, numpy's or Python's, fails the test.
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        return _top_kets(H)


def random_hermitian_stack(rng, m, d, scale=1.0):
    G = rng.standard_normal((m, d, d)) + 1j * rng.standard_normal((m, d, d))
    return scale * (G + G.conj().swapaxes(1, 2)) / 2


class TestTopKets:
    def check_against_eigh(self, H):
        # Returns the mask of rows whose top eigenvalue has a gap.
        kets = top_kets_quietly(H)
        w, V = np.linalg.eigh(H)
        ref = V[..., -1]
        radius = np.abs(w).max(axis=1)
        assert kets.shape == ref.shape
        assert_allclose(np.linalg.norm(kets, axis=1), 1.0, rtol=0, atol=1e-14)
        rayleigh = np.einsum("ma,mab,mb->m", kets.conj(), H, kets).real
        assert np.all(np.abs(rayleigh - w[:, -1]) <= 1e-13 * radius)
        gap = w[:, -1] - w[:, -2]
        gapped = gap > TOP_GAP_REL * radius
        # eigh's ket and inverse iteration's both lie within a few
        # `eps * radius / gap` of the exact one, so they agree to that up to
        # a phase.  A row without a gap takes eigh's ket itself.
        overlap = np.einsum("ma,ma->m", ref.conj(), kets)
        phase = overlap / np.maximum(np.abs(overlap), 1e-300)
        dev = np.abs(kets - ref * phase[:, None]).max(axis=1)
        assert np.all(dev[gapped] <= 1e-13 * radius[gapped] / gap[gapped])
        assert np.array_equal(kets[~gapped], ref[~gapped])
        return gapped

    @pytest.mark.parametrize("d", [2, 3, 9, 16])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 30.0])
    def test_random_stacks(self, rng, d, scale):
        assert self.check_against_eigh(random_hermitian_stack(rng, 64, d, scale)).all()

    def test_dimension_one(self, rng):
        H = random_hermitian_stack(rng, 5, 1)
        kets = top_kets_quietly(H)
        assert np.array_equal(kets, np.linalg.eigh(H)[1][..., -1])
        assert np.array_equal(kets, np.ones((5, 1)))

    def test_multiples_of_the_identity_take_the_last_basis_ket(self):
        H = np.array([c * np.eye(3) for c in (2.5, -1.0, 0.0)], dtype=complex)
        assert not self.check_against_eigh(H).any()
        assert np.array_equal(top_kets_quietly(H), np.tile([0, 0, 1.0 + 0j], (3, 1)))

    def test_repeated_top_eigenvalue_takes_eighs_ket(self, rng):
        U = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
        rows = [
            np.diag([3.0, 3.0, 1.0, 0.5]),
            U @ np.diag([3.0, 1.0, 3.0, 0.5]) @ U.conj().T,
            random_hermitian_stack(rng, 1, 4)[0],
        ]
        gapped = self.check_against_eigh(np.array(rows, dtype=complex))
        assert gapped.tolist() == [False, False, True]

    def test_diagonal_matrices(self):
        H = np.array([np.diag(v) for v in ([1.0, 5.0, 2.0], [-4.0, 0.0, 1.0], [7.0, 7.0 - 1e-4, 3.0])],
                     dtype=complex)
        assert self.check_against_eigh(H).all()
        # The last row's gap of 1e-4 leaves `(7e-12 / 1e-4)^2` of the next ket.
        assert_allclose(np.abs(top_kets_quietly(H)), np.eye(3)[[1, 2, 0]], rtol=0, atol=1e-14)

    def test_gapped_stack_needs_no_eigh(self, rng, monkeypatch):
        H = random_hermitian_stack(rng, 32, 9)
        monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: pytest.fail("eigh called"))
        top_kets_quietly(H)

    def test_untrusted_residuals_take_eighs_ket(self, rng, monkeypatch):
        H = random_hermitian_stack(rng, 16, 5)
        monkeypatch.setattr(qcap.linalg, "TOP_RESIDUAL_REL", 0.0)
        assert np.array_equal(top_kets_quietly(H), np.linalg.eigh(H)[1][..., -1])
