import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import qcap.linalg
from qcap import herm_eig, hermitize, kron, matrix_log_psd, partial_trace, trace_product
from qcap.linalg import TOP_GAP_REL, _top_kets
from support import PAULI_X, PAULI_Y, PAULI_Z, exp_herm, random_hermitian, random_hermitians


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
        L = matrix_log_psd(P)
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

    @pytest.mark.parametrize("dims", [(2, 3), (3, 3)])
    @pytest.mark.parametrize("keep", ["first", "second"])
    def test_stack_is_the_matrix_calls(self, dims, keep, rng):
        # An (s, n, d, d) stack gives, bit for bit, the 2-D call on each matrix.
        da, db = dims
        d = da * db
        X = rng.standard_normal((2, 3, d, d)) + 1j * rng.standard_normal((2, 3, d, d))
        stacked = partial_trace(X, da, db, keep)
        single = np.array([[partial_trace(M, da, db, keep) for M in row] for row in X])
        k = da if keep == "first" else db
        assert stacked.shape == single.shape == (2, 3, k, k)
        assert stacked.tobytes() == single.tobytes()

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            partial_trace(np.zeros((4, 2)), 2, 2, "first")
        with pytest.raises(ValueError, match="square"):
            partial_trace(np.zeros(4), 2, 2, "first")

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


def coords_and_matrices(H):
    # `_top_kets` reads a stack by its coordinates and rebuilds the matrices
    # from them, which may round H's entries: its references take the
    # rebuilt matrices.
    y = qcap.linalg._herm_coords(H)
    return y, qcap.linalg._herm_operators(y)


def blank_record(y):
    # A record that certifies nothing, so that every row takes the exact path.
    return np.full((len(y), y.shape[1] + 3), np.nan)


def top_kets_quietly(y, start=None, bounds=None):
    # Any floating-point warning, numpy's or Python's, fails the test.
    if bounds is None:
        bounds = blank_record(y)
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        return _top_kets(y, start, bounds)


def random_kets(rng, n, d):
    psi = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    return psi / np.linalg.norm(psi, axis=1, keepdims=True)


def spectra(rng, values):
    # Matrices with the given (m, d) spectra in random unitary bases.
    m, d = values.shape
    G = rng.standard_normal((m, d, d)) + 1j * rng.standard_normal((m, d, d))
    U = np.linalg.qr(G)[0]
    return (U * values[:, None, :]) @ U.conj().swapaxes(1, 2)


def counting_eigvalsh(monkeypatch):
    # The number of rows of every stack handed to eigvalsh, call by call.
    rows = []
    eigvalsh = np.linalg.eigvalsh

    def counting(H):
        rows.append(len(H))
        return eigvalsh(H)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return rows


def assert_bounds_hold(y, bounds):
    # The record names y, bounds each row's second eigenvalue from above
    # and holds its least.
    dd = y.shape[1]
    w = np.linalg.eigvalsh(qcap.linalg._herm_operators(y))
    slack = 1e-13 * np.abs(w).max(axis=1)
    assert np.array_equal(bounds[:, :dd], y)
    assert np.all(bounds[:, dd] >= w[:, -2] - slack)
    assert np.all(bounds[:, dd + 1] <= w[:, 0] + slack)
    assert np.all(bounds[:, dd + 2] >= w[:, 0] - slack)


class TestTopKets:
    def check_against_eigh(self, H, start=None, bounds=None):
        # Returns the mask of rows whose top eigenvalue has a gap.
        y, H = coords_and_matrices(H)
        kets = top_kets_quietly(y, start, bounds)
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

    def record(self, H):
        # The record a first call leaves for the stack H.
        y, _ = coords_and_matrices(H)
        bounds = blank_record(y)
        top_kets_quietly(y, None, bounds)
        return bounds

    @pytest.mark.parametrize("d", [2, 3, 9, 16])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 30.0])
    def test_random_stacks(self, rng, d, scale):
        assert self.check_against_eigh(random_hermitians(rng, 64, d, scale)).all()

    def test_dimension_one(self, rng):
        y, H = coords_and_matrices(random_hermitians(rng, 5, 1))
        for start in (None, np.ones((5, 1), dtype=complex)):
            kets = top_kets_quietly(y, start)
            assert np.array_equal(kets, np.linalg.eigh(H)[1][..., -1])
            assert np.array_equal(kets, np.ones((5, 1)))

    def test_multiples_of_the_identity_take_the_last_basis_ket(self):
        H = np.array([c * np.eye(3) for c in (2.5, -1.0, 0.0)], dtype=complex)
        assert not self.check_against_eigh(H).any()
        y, _ = coords_and_matrices(H)
        assert np.array_equal(top_kets_quietly(y), np.tile([0, 0, 1.0 + 0j], (3, 1)))
        # A warm call fails the gap gate on every row and takes eigh's ket too.
        bounds = self.record(H)
        assert not self.check_against_eigh(H, np.eye(3, dtype=complex), bounds).any()

    def test_repeated_top_eigenvalue_takes_eighs_ket(self, rng):
        U = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
        rows = [
            np.diag([3.0, 3.0, 1.0, 0.5]),
            U @ np.diag([3.0, 1.0, 3.0, 0.5]) @ U.conj().T,
            random_hermitians(rng, 1, 4)[0],
        ]
        gapped = self.check_against_eigh(np.array(rows, dtype=complex))
        assert gapped.tolist() == [False, False, True]

    def test_diagonal_matrices(self):
        H = np.array([np.diag(v) for v in ([1.0, 5.0, 2.0], [-4.0, 0.0, 1.0], [7.0, 7.0 - 1e-4, 3.0])],
                     dtype=complex)
        assert self.check_against_eigh(H).all()
        # The last row's gap of 1e-4 leaves `(7e-12 / 1e-4)^2` of the next ket.
        y, _ = coords_and_matrices(H)
        assert_allclose(np.abs(top_kets_quietly(y)), np.eye(3)[[1, 2, 0]], rtol=0, atol=1e-14)

    def test_gapped_stack_needs_no_eigh(self, rng, monkeypatch):
        y, _ = coords_and_matrices(random_hermitians(rng, 32, 9))
        monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: pytest.fail("eigh called"))
        top_kets_quietly(y)

    def test_untrusted_residuals_take_eighs_ket(self, rng, monkeypatch):
        y, H = coords_and_matrices(random_hermitians(rng, 16, 5))
        start = np.linalg.eigh(H)[1][..., -1]
        bounds = self.record(H)
        monkeypatch.setattr(qcap.linalg, "TOP_RESIDUAL_REL", 0.0)
        for start, bounds in ((None, None), (start, bounds)):
            assert np.array_equal(top_kets_quietly(y, start, bounds), np.linalg.eigh(H)[1][..., -1])

    def warm_near_the_top(self, rng, d, eps, certify):
        # A start off the top ket by eps takes one step when that meets the
        # warm gate, and more when it does not; either way the ket must be
        # as near eigh's as a cold one.  Without a record every row takes
        # the exact path; with the record of an earlier call on the same
        # matrices, the certificate takes every row it can.
        H = random_hermitians(rng, 64, d)
        start = np.linalg.eigh(H)[1][..., -1] + eps * random_kets(rng, 64, d)
        start /= np.linalg.norm(start, axis=1, keepdims=True)
        bounds = self.record(H) if certify else None
        assert self.check_against_eigh(H, start, bounds).all()

    @pytest.mark.parametrize("d", [2, 3, 9, 16])
    @pytest.mark.parametrize("eps", [0.5, 0.1, 1e-3, 1e-8])
    def test_warm_starts_near_the_top(self, rng, d, eps):
        self.warm_near_the_top(rng, d, eps, certify=False)

    @pytest.mark.parametrize("d", [2, 3, 9, 16])
    @pytest.mark.parametrize("eps", [0.5, 0.1, 1e-3, 1e-8])
    def test_certified_warm_starts_near_the_top(self, rng, d, eps):
        self.warm_near_the_top(rng, d, eps, certify=True)

    @pytest.mark.parametrize("d", [2, 3, 9, 16])
    def test_warm_start_orthogonal_to_the_top(self, rng, d):
        # The exact second eigenvector holds none of the top ket: only the
        # solve's rounding puts it there, and the residual gates catch a
        # ket still short of it.
        H = random_hermitians(rng, 64, d)
        assert self.check_against_eigh(H, np.linalg.eigh(H)[1][..., -2]).all()

    @pytest.mark.parametrize("d", [2, 3, 9, 16])
    def test_certified_warm_start_orthogonal_to_the_top(self, rng, d):
        # Its Rayleigh quotient is the second eigenvalue, so the
        # certificate's gap gate sends every row to the exact path.
        H = random_hermitians(rng, 64, d)
        bounds = self.record(H)
        assert self.check_against_eigh(H, np.linalg.eigh(H)[1][..., -2], bounds).all()

    def start_at_the_top(self, rng, monkeypatch, certify):
        # The solves and the eigvalsh rows of a call from eigh's top kets.
        H = random_hermitians(rng, 64, 9)
        start = np.linalg.eigh(H)[1][..., -1]
        bounds = self.record(H) if certify else None
        calls = []
        solve = np.linalg.solve

        def counting(A, b):
            calls.append(len(A))
            return solve(A, b)

        monkeypatch.setattr(np.linalg, "solve", counting)
        eigvalsh_rows = counting_eigvalsh(monkeypatch)
        assert self.check_against_eigh(H, start, bounds).all()
        return calls, eigvalsh_rows

    def test_start_at_the_top_takes_one_solve(self, rng, monkeypatch):
        assert self.start_at_the_top(rng, monkeypatch, certify=False) == ([64], [64])

    def test_certified_start_at_the_top_takes_one_solve_and_no_eigvalsh(self, rng, monkeypatch):
        assert self.start_at_the_top(rng, monkeypatch, certify=True) == ([64], [])

    @pytest.mark.parametrize("d", [3, 9])
    def test_small_change_is_certified(self, rng, monkeypatch, d):
        # Each row moves by a quarter of its gap at most: the certificate
        # takes every row, no row reaches eigvalsh, and every ket is eigh's.
        values = np.sort(rng.uniform(-2.0, 2.0, (32, d)), axis=1)
        values[:, -1] = values[:, -2] + rng.uniform(0.05, 1.0, 32)
        H0 = spectra(rng, values)
        y0, _ = coords_and_matrices(H0)
        bounds = blank_record(y0)
        start = top_kets_quietly(y0, None, bounds)
        gap = values[:, -1] - values[:, -2]
        step = random_hermitians(rng, 32, d)
        step *= (gap / 4.5 / np.linalg.norm(step, axis=(1, 2)))[:, None, None]
        y1, H1 = coords_and_matrices(H0 + step)
        rows = counting_eigvalsh(monkeypatch)
        kets = top_kets_quietly(y1, start, bounds)
        assert rows == []
        monkeypatch.undo()
        ref = np.linalg.eigh(H1)[1][..., -1]
        overlap = np.einsum("ma,ma->m", ref.conj(), kets)
        assert_allclose(kets, ref * (overlap / np.abs(overlap))[:, None], rtol=0, atol=1e-12)
        assert_bounds_hold(y1, bounds)

    def test_eigenvalue_crossing_takes_the_new_top(self, rng):
        # Between the calls the top and second eigenvalues of each row swap:
        # the old top ket is now an exact eigenvector of the second
        # eigenvalue, with no residual, and only the Weyl bound on that
        # eigenvalue (`beta' + E`, above its Rayleigh quotient) stops the
        # certificate from keeping it.
        U = np.linalg.qr(rng.standard_normal((8, 4, 4)) + 1j * rng.standard_normal((8, 4, 4)))[0]
        before = (U * np.array([3.0, 2.0, 1.0, 0.5])) @ U.conj().swapaxes(1, 2)
        after = (U * np.array([2.5, 3.0, 1.0, 0.5])) @ U.conj().swapaxes(1, 2)
        y0, _ = coords_and_matrices(before)
        bounds = blank_record(y0)
        start = top_kets_quietly(y0, None, bounds)
        overlap = np.abs(np.einsum("ma,ma->m", U[:, :, 0].conj(), start))
        assert_allclose(overlap, 1.0, rtol=0, atol=1e-12)
        # eigh's top ket of `after` is the second column of U.
        assert self.check_against_eigh(after, start, bounds).all()

    def test_non_finite_row_takes_the_exact_path(self, rng, monkeypatch):
        # A NaN row fails every gate of the certificate: it alone reaches
        # eigvalsh, whose LAPACK call refuses it as it would have before.
        H = random_hermitians(rng, 6, 4)
        y, _ = coords_and_matrices(H)
        bounds = blank_record(y)
        start = _top_kets(y, None, bounds)
        y[3] = np.nan
        seen = []
        eigvalsh = np.linalg.eigvalsh

        def recording(M):
            seen.append(M.copy())
            return eigvalsh(M)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording)
        with pytest.raises(np.linalg.LinAlgError):
            _top_kets(y, start, bounds)
        assert len(seen) == 1 and len(seen[0]) == 1
        assert np.isnan(seen[0]).all()

    @pytest.mark.parametrize("d", [2, 4, 9])
    def test_record_bounds_every_spectrum_along_a_drift(self, rng, d):
        # Calls on a stack that drifts by steps of every size: after each,
        # whichever path a row took, its record names its image and bounds
        # its second and least eigenvalues.
        H = random_hermitians(rng, 48, d)
        y, _ = coords_and_matrices(H)
        bounds = blank_record(y)
        kets = top_kets_quietly(y, None, bounds)
        for size in (1e-9, 1e-4, 1e-2, 1e-1, 1.0, 1e-6):
            H = H + size * random_hermitians(rng, 48, d)
            y, _ = coords_and_matrices(H)
            kets = top_kets_quietly(y, kets, bounds)
            assert_bounds_hold(y, bounds)
