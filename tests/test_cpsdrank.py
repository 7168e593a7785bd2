import math

import numpy as np
import pytest

from conftest import (five_factor_example, make_rng, no_psd_root_example, pairing_tol, random_dnn,
                      random_psd)
from cpsdlab import cpsdrank
from cpsdlab.bell import (behavior_matrix_factorization, exponential_family,
                          exponential_family_vectors)
from cpsdlab.clifford import gamma
from cpsdlab.lorentz import gl_to_cpsd
from cpsdlab.cpsdrank import (
    _psd_certified,
    compress,
    conjugate,
    BoundReport,
    CpsdFactorization,
    add,
    analytic_lower_bound,
    bound_report,
    ceil_snapped,
    dsum,
    hadamard_sqrt_psd,
    permute,
    rank_lower_bound,
    rank_one_factors,
    scale,
    scaled_analytic_bound,
    verify_factorization,
)
from cpsdlab.errors import CapExceeded
from cpsdlab.matcore import PSD_TOL, HermMatrix, spectral, trace_inner
from cpsdlab.separations import Graph, support_bound_witness

S2 = math.sqrt(2.0)


def herm_fact(mats):
    return CpsdFactorization(d=len(mats[0]), factors=mats)


@pytest.fixture
def known_example():
    X, factors = five_factor_example()
    return X, herm_fact(factors)


class TestVerify:
    def test_known_five_factor_example(self, known_example):
        X, fact = known_example
        report = verify_factorization(X, fact, tol=1e-10)
        assert report.ok and report.max_residual < 1e-12

    def test_identity_with_basis_projectors(self):
        eye = np.eye(4)
        fact = herm_fact([np.outer(eye[i], eye[i]) for i in range(4)])
        assert verify_factorization(np.eye(4), fact).ok

    def test_sign_flip_breaks_verification(self, known_example):
        X, fact = known_example
        mats = fact.factors.copy()
        mats[3, 0, 3] = -mats[3, 0, 3]
        mats[3, 3, 0] = -mats[3, 3, 0]
        report = verify_factorization(X, herm_fact(mats), tol=1e-10)
        assert not report.ok and report.max_residual > 1e-2

    def test_shape_mismatch_rejected(self, known_example):
        _, fact = known_example
        with pytest.raises(ValueError, match="does not match"):
            verify_factorization(np.eye(4), fact)

    def test_non_psd_factor_rejected_at_construction(self):
        with pytest.raises(ValueError, match="not positive semidefinite"):
            herm_fact([np.diag([1.0, -1.0])])

    def test_psd_decided_once_per_factor(self, known_example, monkeypatch):
        X, fact = known_example
        calls = []
        original = cpsdrank.spectral

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(cpsdrank, "spectral", counting)
        report = verify_factorization(X, CpsdFactorization(d=fact.d, factors=fact.factors))
        assert report.ok and report.factors_psd
        assert len(calls) <= fact.n


class TestGram:
    @pytest.mark.parametrize("complex_entries", [True, False])
    @pytest.mark.parametrize("d", [1, 4, 16])
    def test_matches_einsum_reference(self, complex_entries, d):
        rng = make_rng(d)
        fact = herm_fact([random_psd(rng, d, complex_entries) for _ in range(7)])
        F = fact.factors
        want = np.einsum("auv,bvu->ab", F, F).real
        got = fact.gram()
        for i, j in np.ndindex(want.shape):
            assert abs(got[i, j] - want[i, j]) <= pairing_tol(F[i], F[j])


class TestAnalyticBound:
    def test_identity_is_n_exactly(self):
        for n in (1, 3, 7, 20):
            assert analytic_lower_bound(np.eye(n)) == n

    def test_perturbed_identity(self):
        a = 0.5
        X = np.eye(3)
        X[0, 2] = X[2, 0] = a
        assert analytic_lower_bound(X) == pytest.approx(9 / (3 + 2 * a))
        assert ceil_snapped(analytic_lower_bound(X)) == 3

    def test_known_five_factor_matrix(self, known_example):
        X, _ = known_example
        want = (3 * S2 + 2 * math.sqrt(3)) ** 2 / 24.0
        assert analytic_lower_bound(X) == pytest.approx(want, abs=1e-12)
        assert ceil_snapped(analytic_lower_bound(X)) == 3

    def test_never_exceeds_size(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 9))
            X = random_dnn(rng, n)
            assert analytic_lower_bound(X) <= n + 1e-9

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            analytic_lower_bound(np.array([[1.0, -0.1], [-0.1, 1.0]]))

    def test_zero_sum_rejected(self):
        with pytest.raises(ValueError, match="zero total"):
            analytic_lower_bound(np.zeros((2, 2)))


class TestScaledBound:
    def test_identity_unchanged(self):
        assert scaled_analytic_bound(np.eye(5), iters=20) == pytest.approx(5.0)

    def test_includes_unscaled(self):
        X = np.eye(3)
        X[0, 2] = X[2, 0] = 0.5
        assert scaled_analytic_bound(X, iters=10) >= 9 / 4 - 1e-12

    def test_all_ones_saturated_at_one(self):
        assert scaled_analytic_bound(np.ones((4, 4)), iters=20) == pytest.approx(1.0)

    def test_never_below_unscaled(self, rng):
        for _ in range(25):
            X = random_dnn(rng, int(rng.integers(2, 7)))
            assert scaled_analytic_bound(X, iters=8) >= analytic_lower_bound(X) - 1e-12

    def test_can_strictly_improve(self):
        # block-diagonal with very different scales: rescaling recovers more
        X = np.diag([1.0, 100.0])
        X[0, 1] = X[1, 0] = 0.0
        base = analytic_lower_bound(X)
        assert scaled_analytic_bound(X, iters=30) > base + 0.5

    def test_zero_diagonal_entry_handled(self):
        X = np.array([[1.0, 0.0], [0.0, 0.0]])
        assert scaled_analytic_bound(X, iters=5) == pytest.approx(1.0)


class TestRankBound:
    def test_identity(self):
        assert rank_lower_bound(np.eye(4)) == pytest.approx(2.0)

    def test_pair_perturbation_gram_full_rank(self):
        r = 3
        eye = np.eye(r)
        mats = [eye + np.outer(eye[i], eye[j]) + np.outer(eye[j], eye[i])
                for i in range(r) for j in range(i + 1, r)]
        X = CpsdFactorization(d=r, factors=mats).gram()
        assert spectral(X).rank == 3
        assert rank_lower_bound(X) == pytest.approx(math.sqrt(3))

    def test_circle_gram(self):
        from cpsdlab.lorentz import gl_matrix
        from cpsdlab.separations import cycle_vectors

        assert rank_lower_bound(gl_matrix(cycle_vectors(6))) == pytest.approx(math.sqrt(3))

    def test_not_psd_rejected(self):
        with pytest.raises(ValueError, match="not positive semidefinite"):
            rank_lower_bound(np.diag([1.0, -1.0]))

    def test_asymmetric_rejected_not_symmetrized(self):
        # the symmetric part is the identity, whose bound sqrt(2) says nothing
        # about this matrix
        with pytest.raises(ValueError, match="not symmetric"):
            rank_lower_bound([[1.0, 5.0], [-5.0, 1.0]])


class TestCombinators:
    def test_scale_identity(self, known_example):
        X, fact = known_example
        assert verify_factorization(X, scale(fact, np.ones(5))).ok

    def test_scale_doubles_first_row_and_column(self, known_example):
        X, fact = known_example
        d = np.array([2.0, 1, 1, 1, 1])
        target = np.diag(d) @ X @ np.diag(d)
        assert verify_factorization(target, scale(fact, d)).ok

    def test_scale_composition(self, known_example):
        _, fact = known_example
        d1 = np.array([2.0, 1, 3, 1, 1])
        d2 = np.array([1.0, 4, 1, 1, 0.5])
        a = scale(scale(fact, d1), d2)
        b = scale(fact, d1 * d2)
        assert np.abs(a.factors - b.factors).max() < 1e-12

    def test_scale_rejects_nonpositive(self, known_example):
        _, fact = known_example
        with pytest.raises(ValueError, match="positive"):
            scale(fact, np.array([1.0, 1, 0, 1, 1]))

    def test_permute_identity(self, known_example):
        X, fact = known_example
        out = permute(fact, range(5))
        assert np.array_equal(out.factors, fact.factors)

    def test_add_zero_factorization_pads(self, known_example):
        X, fact = known_example
        zeros = herm_fact([np.zeros((2, 2))] * 5)
        out = add(fact, zeros)
        assert out.d == 6
        assert verify_factorization(X, out).ok

    def test_permute_swap(self, known_example):
        X, fact = known_example
        perm = [1, 0, 2, 3, 4]
        P = np.eye(5)[perm]
        assert verify_factorization(P @ X @ P.T, permute(fact, perm)).ok

    def test_permute_roundtrip(self, known_example):
        _, fact = known_example
        perm = [3, 0, 4, 1, 2]
        inv = np.argsort(perm)
        back = permute(permute(fact, perm), inv)
        assert np.array_equal(back.factors, fact.factors)

    def test_permute_rejects_invalid(self, known_example):
        _, fact = known_example
        with pytest.raises(ValueError, match="permutation"):
            permute(fact, [0, 0, 1, 2, 3])

    def test_add_with_self(self, known_example):
        X, fact = known_example
        out = add(fact, fact)
        assert out.d == 8
        assert verify_factorization(2 * X, out).ok

    def test_add_identity_and_ones(self):
        eye3 = np.eye(3)
        f_eye = herm_fact([np.outer(eye3[i], eye3[i]) for i in range(3)])
        f_ones = herm_fact([np.ones((1, 1))] * 3)
        assert verify_factorization(np.eye(3) + np.ones((3, 3)), add(f_eye, f_ones)).ok

    def test_add_count_mismatch(self, known_example):
        _, fact = known_example
        with pytest.raises(ValueError, match="differ"):
            add(fact, herm_fact([np.eye(4)]))

    def test_dsum_identities(self):
        one = herm_fact([np.eye(1)])
        out = dsum(one, one)
        assert out.d == 2 and out.n == 2
        assert verify_factorization(np.eye(2), out).ok

    def test_dsum_sizes_add(self, known_example):
        X, fact = known_example
        out = dsum(fact, fact)
        assert out.d == 8 and out.n == 10
        target = np.zeros((10, 10))
        target[:5, :5] = X
        target[5:, 5:] = X
        assert verify_factorization(target, out).ok

    def test_empty_factorization_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            CpsdFactorization(d=2, factors=())

    def test_conjugate_preserves_gram(self, known_example, rng):
        X, fact = known_example
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        assert verify_factorization(X, conjugate(fact, q), tol=1e-10).ok

    def test_conjugate_requires_unitary(self, known_example):
        _, fact = known_example
        with pytest.raises(ValueError, match="unitary"):
            conjugate(fact, 2 * np.eye(4))
        with pytest.raises(ValueError, match="4 x 4"):
            conjugate(fact, np.eye(3))

    def test_compress_strips_zero_padding(self, known_example):
        X, fact = known_example
        padded = add(fact, herm_fact([np.zeros((3, 3))] * 5))
        assert padded.d == 7
        small = compress(padded)
        assert small.d == 4
        assert verify_factorization(X, small, tol=1e-8).ok

    def test_compress_of_size_optimal_family_is_noop(self, known_example):
        X, fact = known_example
        out = compress(fact)
        assert out.d == 4
        assert verify_factorization(X, out, tol=1e-10).ok

    def test_compress_random_families(self, rng):
        for _ in range(10):
            mats = [random_dnn(rng, 3) for _ in range(4)]
            fact = herm_fact(mats)
            target = fact.gram()
            out = compress(fact)
            assert out.d <= fact.d
            assert verify_factorization(target, out, tol=1e-7).ok

    def test_compress_all_zero_factors(self):
        fact = herm_fact([np.zeros((3, 3))] * 2)
        out = compress(fact)
        assert out.d == 1
        assert verify_factorization(np.zeros((2, 2)), out, tol=1e-12).ok


class TestHadamardRoot:
    def test_display_matrix_has_no_psd_root(self):
        assert hadamard_sqrt_psd(no_psd_root_example()) is None

    def test_all_ones_has_all_plus_root(self):
        pattern = hadamard_sqrt_psd(np.ones((3, 3)))
        assert pattern is not None and np.all(pattern == 1)

    def test_squared_gram_recovers_root(self):
        base = np.array([
            [1, 0, 1 / S2],
            [0, 1, 1 / S2],
            [1 / S2, 1 / S2, 1]])
        pattern = hadamard_sqrt_psd(base * base)
        assert pattern is not None
        root = pattern * np.sqrt(base * base)
        assert spectral(HermMatrix(root.astype(complex))).is_psd

    def test_zero_one_psd_matrix_is_its_own_root(self):
        # a 0/1 psd matrix equals its entrywise square, so its rank-one
        # factors realize it with factor size rank(X)
        X = np.zeros((5, 5))
        X[:3, :3] = 1.0
        X[3:, 3:] = 1.0
        fact = rank_one_factors(X)
        assert fact.d == 2
        assert verify_factorization(X, fact, tol=1e-10).ok

    def test_rank_one_factors_verify(self, rng):
        for _ in range(10):
            g = rng.standard_normal((4, 4))
            root = g @ g.T
            target = root * root
            fact = rank_one_factors(root)
            assert fact.d <= spectral(root).rank
            assert verify_factorization(target, fact, tol=1e-7).ok

    def test_entry_cap(self):
        big = np.ones((8, 8))
        with pytest.raises(CapExceeded):
            hadamard_sqrt_psd(big, entry_cap=10)

    def test_size_cap(self):
        with pytest.raises(CapExceeded):
            hadamard_sqrt_psd(np.eye(21))


class TestSupportWitness:
    def test_edgeless_graph_gets_diagonal_witness(self):
        fact, bound = support_bound_witness(Graph.from_edges(4, []))
        assert bound == 4 and fact.d == 4
        assert verify_factorization(np.eye(4), fact).ok

    def test_five_cycle(self):
        G = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
        fact, bound = support_bound_witness(G)
        assert bound == 3 and fact.d == 3

    def test_single_edge(self):
        fact, bound = support_bound_witness(Graph.from_edges(2, [(0, 1)]))
        assert bound == 1 and fact.d == 1

    @pytest.mark.parametrize("salt", range(5))
    def test_orthogonality_matches_non_adjacency(self, salt):
        rng = make_rng(salt)
        n = 7
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.uniform() < 0.4]
        G = Graph.from_edges(n, edges)
        fact, _ = support_bound_witness(G)
        for u in range(n):
            for v in range(u + 1, n):
                ip = trace_inner(HermMatrix(fact.factors[u]), HermMatrix(fact.factors[v]))
                if G.has_edge(u, v):
                    assert ip > 1e-8
                else:
                    assert abs(ip) < 1e-10


class TestBoundReport:
    def test_assembly(self, known_example):
        X, _ = known_example
        report = bound_report(X, upper=4, upper_provenance="known-family")
        assert report.lower_combined_int == 3
        assert report.lower_rank == pytest.approx(2.0)
        assert report.upper == 4

    def test_inconsistent_report_rejected(self):
        with pytest.raises(ValueError, match="inconsistent"):
            BoundReport(lower_analytic=5.0, lower_rank=1.0,
                        lower_combined_int=5, upper=4)

    def test_ceiling_snaps_float_noise(self):
        assert ceil_snapped(2.0000000000000004) == 2
        assert ceil_snapped(2.25) == 3
        assert ceil_snapped(math.sqrt(2) ** 2) == 2


def clifford_factor(lam_min: float, norm: float, k: int = 6) -> np.ndarray:
    """(c I + gamma(x)) / sqrt(d) with |x| = norm and c chosen so that the
    least eigenvalue (c - |x|) / sqrt(d) is lam_min."""
    x = make_rng(k).standard_normal(k)
    x *= norm / np.linalg.norm(x)
    g = gamma(x).entries
    d = len(g)
    return (lam_min * math.sqrt(d) + norm) * np.eye(d) / math.sqrt(d) + g / math.sqrt(d)


class TestPsdCertificate:
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("margin", [1 - 1e-3, 1 + 1e-3])
    @pytest.mark.parametrize("norm", [0.3, 40.0])
    def test_verdict_at_the_cut_is_spectral(self, sign, margin, norm):
        # the cut is PSD_TOL max(1, lambda_max); lambda_max is about 2|x|/sqrt(d)
        P = clifford_factor(0.0, norm)
        scale = max(1.0, spectral(P).max)
        P = clifford_factor(sign * margin * PSD_TOL * scale, norm)
        want = spectral(P).is_psd
        assert want == (sign > 0 or margin < 1)
        certified = bool(_psd_certified(P[None])[0])
        assert certified <= want
        if want:
            assert certified  # the bounds are tight enough to decide here
            CpsdFactorization(d=len(P), factors=[P])
        else:
            with pytest.raises(ValueError, match="factor 0 is not positive semidefinite"):
                CpsdFactorization(d=len(P), factors=[P])

    def test_scalar_and_generic_factors_go_to_the_eigenvalues(self):
        rng = make_rng(7)
        # the last one is well inside the cone, but not a scaled involution
        stack = [3.0 * np.eye(4), np.zeros((4, 4)), random_psd(rng, 4), random_psd(rng, 4, False),
                 np.eye(4) + 0.05 * random_psd(rng, 4)]
        assert not _psd_certified(np.array(stack, dtype=complex)).any()
        assert CpsdFactorization(d=4, factors=stack).n == 5
        stack[3] = stack[3] - 2e-6 * np.eye(4) - np.linalg.eigvalsh(stack[3])[0] * np.eye(4)
        with pytest.raises(ValueError, match="^factor 3 is not positive semidefinite$"):
            CpsdFactorization(d=4, factors=stack)

    @pytest.mark.parametrize("push", [0.5, 1.5])
    def test_one_eigenvalue_pushed_across_the_cut(self, push):
        # a rank-one dent of a boundary factor: still nearly an involution
        # (r is about 2 s delta), but only the r term in the bound sees that
        # lambda_min moved by the whole dent
        P = clifford_factor(0.0, 1.0)
        w, Q = np.linalg.eigh(P)
        delta = push * PSD_TOL * max(1.0, w[-1])
        P = P - delta * np.outer(Q[:, 0], Q[:, 0].conj())
        want = spectral(P).is_psd
        assert want == (push < 1)
        assert bool(_psd_certified(P[None])[0]) <= want
        if not want:
            with pytest.raises(ValueError, match="not positive semidefinite"):
                CpsdFactorization(d=len(P), factors=[P])

    def test_embedded_cone_vectors_need_no_eigenvalues(self, monkeypatch):
        fam = behavior_matrix_factorization(exponential_family(4)[0],
                                            U=exponential_family_vectors(4))
        monkeypatch.setattr(np.linalg, "eigvalsh", None)
        fact = gl_to_cpsd(fam)
        assert fact.n == 72 and fact.d == 16

    def test_first_failing_factor_is_named(self):
        good = clifford_factor(0.5, 1.0)
        bad = clifford_factor(-1e-3, 1.0)
        with pytest.raises(ValueError, match="^factor 2 is not positive semidefinite$"):
            CpsdFactorization(d=8, factors=[good, good, bad, good, bad])

    def test_non_hermitian_factor_refused_with_its_asymmetry(self):
        a = clifford_factor(0.5, 1.0)
        b, c = a.copy(), a.copy()
        b[0, 1] += 1e-6
        c[0, 1] += 1e-3
        with pytest.raises(ValueError, match=r"^matrix is not Hermitian: asymmetry "
                                             r"1\.000e-06 > 1e-12$"):
            CpsdFactorization(d=8, factors=[a, b, c])

    def test_round_off_asymmetry_is_symmetrized(self):
        a = clifford_factor(0.5, 1.0)
        a[0, 1] += 1e-14
        fact = CpsdFactorization(d=8, factors=[a])
        assert np.array_equal(fact.factors[0], fact.factors[0].conj().T)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_factor_refused(self, bad):
        a = clifford_factor(0.5, 1.0)
        a[3, 3] = bad
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            CpsdFactorization(d=8, factors=[clifford_factor(0.5, 1.0), a])

    def test_size_mismatch_names_the_factor(self):
        with pytest.raises(ValueError, match="^factor 1 has size 3, expected 2$"):
            CpsdFactorization(d=2, factors=[np.eye(2), np.eye(3)])
        with pytest.raises(ValueError, match="^factor 0 has size 2, expected 3$"):
            CpsdFactorization(d=3, factors=np.zeros((4, 2, 2)))
        with pytest.raises(ValueError, match="square"):
            CpsdFactorization(d=2, factors=[np.ones((2, 3))])

    def test_stack_is_read_only_and_owns_its_memory(self):
        S = np.array([np.eye(3), np.diag([1.0, 2.0, 0.0])], dtype=complex)
        fact = CpsdFactorization(d=3, factors=S)
        F = fact.factors
        assert F.shape == (2, 3, 3) and F.dtype == complex
        assert not F.flags.writeable and F.flags.owndata and F.flags.c_contiguous
        S[0, 0, 0] = -5.0
        assert F[0, 0, 0] == 1.0
        with pytest.raises(ValueError):
            F[0, 0, 0] = 2.0
        # a read-only view of another array's memory is copied as well
        base = S.copy()
        base.setflags(write=False)
        assert CpsdFactorization(d=3, factors=base[1:]).factors.flags.owndata
