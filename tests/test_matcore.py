import math

import numpy as np
import pytest

from conftest import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    five_factor_example,
    make_rng,
    pairing_tol,
    random_hermitian,
    random_psd,
    span_dim_by_qr,
)
from cpsdlab.matcore import (
    HermMatrix,
    direct_sum,
    gram,
    gram_vectors,
    kron,
    real_embed,
    spectral,
    trace_inner,
    trace_pairings,
)

S2 = math.sqrt(2.0)


class TestHermMatrix:
    def test_small_asymmetry_is_symmetrized(self):
        noisy = np.array([[1.0, 0.5 + 1e-14], [0.5 - 1e-14, 2.0]])
        h = HermMatrix(noisy)
        assert np.abs(h.entries - h.entries.conj().T).max() == 0.0

    def test_large_asymmetry_rejected(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            HermMatrix(np.array([[1.0, 0.5], [0.6, 2.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("build", [HermMatrix, spectral])
    def test_non_finite_rejected(self, bad, build):
        with pytest.raises(ValueError, match="must be finite"):
            build(np.array([[bad, 0.0], [0.0, 1.0]]))

    def test_diagonal_made_exactly_real(self):
        h = HermMatrix(np.array([[1.0 + 1e-13j, 1j], [-1j, 2.0]]))
        assert np.all(h.entries.imag.diagonal() == 0.0)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            HermMatrix(np.zeros((2, 3)))


class TestGram:
    def test_orthonormal_basis_gives_identity(self):
        g = gram([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
        assert np.allclose(g.entries, np.eye(2), atol=1e-15)

    def test_three_vector_example(self):
        vecs = [np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                np.array([1.0, 1.0]) / S2]
        want = np.array([
            [1, 0, 1 / S2],
            [0, 1, 1 / S2],
            [1 / S2, 1 / S2, 1]])
        assert np.abs(gram(vecs).entries - want).max() < 1e-15

    def test_two_vector_cone_boundary_example(self):
        # gram of sqrt(1/2)(1,1,0) and sqrt(1/2)(1,d,sqrt(1-d^2)) with d = 0
        v1 = np.array([1.0, 1.0, 0.0]) * math.sqrt(0.5)
        v2 = np.array([1.0, 0.0, 1.0]) * math.sqrt(0.5)
        assert np.allclose(gram([v1, v2]).entries, [[1, 0.5], [0.5, 1]], atol=1e-15)

    def test_conjugate_linear_in_first_argument(self):
        g = gram([np.array([1j, 0.0]), np.array([1.0, 0.0])])
        assert g.entries[0, 1] == pytest.approx(-1j)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            gram([])

    def test_ragged_rejected(self):
        with pytest.raises(ValueError, match="ragged"):
            gram([np.array([1.0]), np.array([1.0, 2.0])])

    @pytest.mark.parametrize("k", range(8))
    def test_gram_psd_and_rank_matches_qr_span(self, k):
        rng = make_rng(k)
        n, d = rng.integers(1, 7), rng.integers(1, 7)
        vecs = rng.standard_normal((n, d))
        rep = spectral(gram(vecs))
        assert rep.is_psd
        assert rep.rank == span_dim_by_qr(vecs)


class TestSpectral:
    def test_identity(self):
        rep = spectral(HermMatrix(np.eye(3)))
        assert np.allclose(rep.eigenvalues, [1, 1, 1])
        assert rep.rank == 3 and rep.is_psd
        assert rep.min == rep.max == 1.0

    def test_cycle_adjacency_min_eigenvalue(self):
        A = np.zeros((5, 5))
        for i in range(5):
            A[i, (i + 1) % 5] = A[(i + 1) % 5, i] = 1.0
        rep = spectral(HermMatrix(A))
        assert rep.min == pytest.approx(2 * math.cos(4 * math.pi / 5), abs=1e-12)
        assert not rep.is_psd

    def test_circle_vector_gram_rank_three(self):
        pk = np.array([[1, math.cos(2 * math.pi * k / 6), math.sin(2 * math.pi * k / 6)]
                       for k in range(6)])
        assert spectral(HermMatrix(pk @ pk.T)).rank == 3

    def test_bad_tolerances_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            spectral(HermMatrix(np.eye(2)), rank_tol=0.0)


class TestKron:
    def test_identity(self):
        assert np.allclose(kron(HermMatrix(np.eye(2)), HermMatrix(np.eye(2))).entries,
                           np.eye(4))

    def test_z_kron_x_block_structure(self):
        got = kron(HermMatrix(PAULI_Z), HermMatrix(PAULI_X)).entries
        want = np.zeros((4, 4), dtype=complex)
        want[:2, :2] = PAULI_X
        want[2:, 2:] = -PAULI_X
        assert np.abs(got - want).max() == 0.0

    def test_x_kron_y_antidiagonal(self):
        got = kron(HermMatrix(PAULI_X), HermMatrix(PAULI_Y)).entries
        want = np.zeros((4, 4), dtype=complex)
        want[0, 3], want[1, 2], want[2, 1], want[3, 0] = -1j, 1j, -1j, 1j
        assert np.abs(got - want).max() == 0.0

    def test_kron_preserves_psd(self, rng):
        for _ in range(20):
            a = HermMatrix(random_psd(rng, 3))
            b = HermMatrix(random_psd(rng, 2))
            assert spectral(kron(a, b)).is_psd


class TestDirectSum:
    def test_zero_blocks(self):
        z = HermMatrix(np.zeros((1, 1)))
        assert np.all(direct_sum(z, z).entries == 0) and direct_sum(z, z).n == 2

    def test_diagonal_example(self):
        got = direct_sum(HermMatrix(np.eye(2)), HermMatrix(2 * np.eye(1)))
        assert np.allclose(got.entries, np.diag([1.0, 1.0, 2.0]))

    def test_eigenvalues_are_multiset_union(self, rng):
        a, b = HermMatrix(random_hermitian(rng, 3)), HermMatrix(random_hermitian(rng, 2))
        merged = np.sort(np.concatenate([spectral(a).eigenvalues, spectral(b).eigenvalues]))
        assert np.allclose(spectral(direct_sum(a, b)).eigenvalues, merged, atol=1e-10)


class TestTraceInner:
    def test_identity_with_itself(self):
        for d in (1, 2, 5):
            eye = HermMatrix(np.eye(d))
            assert trace_inner(eye, eye) == pytest.approx(d)

    def test_pauli_x_y_orthogonal(self):
        assert trace_inner(HermMatrix(PAULI_X), HermMatrix(PAULI_Y)) == pytest.approx(0.0)

    def test_known_factor_pair_orthogonal(self):
        _, factors = five_factor_example()
        p4, p5 = HermMatrix(factors[3]), HermMatrix(factors[4])
        assert trace_inner(p4, p5) == pytest.approx(0.0, abs=1e-12)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            trace_inner(HermMatrix(np.eye(2)), HermMatrix(np.eye(3)))

    def test_nonnegative_on_psd_pairs(self, rng):
        for _ in range(100):
            a = HermMatrix(random_psd(rng, 4))
            b = HermMatrix(random_psd(rng, 4))
            assert trace_inner(a, b) >= -1e-10


class TestTracePairings:
    @pytest.mark.parametrize("kind", ["hermitian", "real", "complex"])
    @pytest.mark.parametrize("d", [1, 3, 16])
    def test_matches_per_pair_trace_loop(self, rng, kind, d):
        def stack(k):
            if kind == "hermitian":
                return np.stack([random_hermitian(rng, d) for _ in range(k)])
            a = rng.standard_normal((k, d, d))
            return a if kind == "real" else a + 1j * rng.standard_normal((k, d, d))

        A, B = stack(5), stack(4)
        got = trace_pairings(A, B)
        assert got.shape == (5, 4)
        for i, a in enumerate(A):
            for j, b in enumerate(B):
                assert abs(got[i, j] - np.trace(a @ b.conj().T)) <= pairing_tol(a, b)


class TestRealEmbed:
    def test_identity_scales(self):
        got = real_embed(HermMatrix(np.eye(3)))
        assert np.allclose(got, np.eye(6) / S2)

    def test_frobenius_norm_preserved_on_complex_example(self):
        x = HermMatrix(np.array([[1, 1j], [-1j, 1]]))
        t = real_embed(x)
        assert np.sum(t * t) == pytest.approx(4.0)
        assert trace_inner(x, x) == pytest.approx(4.0)

    def test_linear_isometry_on_random_pairs(self, rng):
        for _ in range(30):
            a, b = (HermMatrix(random_hermitian(rng, 4)) for _ in range(2))
            lhs = np.sum(real_embed(a) * real_embed(b))
            assert abs(lhs - trace_inner(a, b)) < 1e-10

    def test_psd_iff_psd(self, rng):
        hits = {True: 0, False: 0}
        for _ in range(50):
            h = HermMatrix(random_hermitian(rng, 3))
            left = spectral(h).is_psd
            right = spectral(HermMatrix(real_embed(h).astype(complex))).is_psd
            assert left == right
            hits[left] += 1
        assert hits[False] > 0  # the sample actually exercises both sides


class TestGramVectors:
    def test_reconstruction(self, rng):
        X = random_psd(rng, 5, complex_entries=False)
        V = gram_vectors(X)
        assert np.abs(V @ V.T - X).max() < 1e-8

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="not psd"):
            gram_vectors(np.diag([1.0, -1.0]))

    def test_rejects_asymmetric(self):
        # its symmetric part is the identity, which has Gram vectors
        with pytest.raises(ValueError, match="not symmetric"):
            gram_vectors(np.array([[1.0, 5.0], [-5.0, 1.0]]))
