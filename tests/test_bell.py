import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_elliptope, svec_rows
from cpsdlab import bell
from cpsdlab.bell import (
    Behavior,
    CorrelationMatrix,
    ExtremeReport,
    FullCorrelation,
    behavior_from_correlation,
    behavior_matrix,
    behavior_to_full,
    dq_lower_bound,
    elliptope_extreme_construct,
    elliptope_extreme_test,
    elliptope_member,
    exponential_family,
    exponential_family_vectors,
    full_to_behavior,
    gl_behavior_factorization,
    no_signaling_check,
    r_max,
    validate_affine_section,
)
from cpsdlab.errors import CapExceeded
from cpsdlab.lorentz import gl_matrix, gl_reduce
from cpsdlab.matcore import gram_vectors, spectral

S2 = math.sqrt(2.0)


def uniform_behavior(ma=2, mb=2):
    return Behavior(table=np.full((2, 2, ma, mb), 0.25))


class TestBehaviorType:
    def test_negative_probability_rejected(self):
        t = np.full((2, 2, 1, 1), 0.25)
        t[0, 0, 0, 0] = -1e-6
        t[1, 1, 0, 0] = 0.5 + 1e-6
        with pytest.raises(ValueError, match="negative"):
            Behavior(table=t)

    def test_normalization_enforced(self):
        with pytest.raises(ValueError, match="sum to 1"):
            Behavior(table=np.full((2, 2, 1, 1), 0.3))

    def test_prob_accessor_uses_outcome_labels(self):
        p = behavior_from_correlation([[1.0]])
        assert p.prob(1, 1, 0, 0) == pytest.approx(0.5)
        assert p.prob(1, -1, 0, 0) == pytest.approx(0.0)


class TestCorrelationType:
    def test_entry_bound_enforced(self):
        with pytest.raises(ValueError, match="modulus"):
            CorrelationMatrix(np.array([[1.2]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_entries_rejected(self, bad):
        with pytest.raises(ValueError, match="correlation entries must be finite"):
            CorrelationMatrix([[bad, 0.5]])

    @pytest.mark.parametrize("which", ["c_x", "c_y", "c_xy"])
    def test_nonfinite_expectations_rejected(self, which):
        parts = {"c_x": [0.0], "c_y": [0.0], "c_xy": [[0.0]]}
        parts[which] = np.full(np.shape(parts[which]), np.nan)
        with pytest.raises(ValueError, match=f"{which} entries must be finite"):
            FullCorrelation(**parts)


class TestExpectationMaps:
    def test_uniform_maps_to_zero(self):
        full = behavior_to_full(uniform_behavior())
        assert np.abs(full.c_x).max() == 0.0
        assert np.abs(full.c_y).max() == 0.0
        assert np.abs(full.c_xy).max() == 0.0

    def test_perfect_correlation(self):
        t = np.zeros((2, 2, 1, 1))
        t[0, 0, 0, 0] = 0.5
        t[1, 1, 0, 0] = 0.5
        full = behavior_to_full(Behavior(table=t))
        assert full.c_xy[0, 0] == pytest.approx(1.0)
        assert full.c_x[0] == pytest.approx(0.0)
        assert full.c_y[0] == pytest.approx(0.0)

    def test_zero_expectations_give_uniform(self):
        p = full_to_behavior(FullCorrelation(np.zeros(2), np.zeros(3), np.zeros((2, 3))))
        assert np.abs(p.table - 0.25).max() == 0.0

    def test_pure_joint_correlation(self):
        p = full_to_behavior(FullCorrelation(np.zeros(1), np.zeros(1), np.ones((1, 1))))
        assert p.prob(1, 1, 0, 0) == pytest.approx(0.5)
        assert p.prob(1, -1, 0, 0) == pytest.approx(0.0)

    def test_deterministic_marginal_kills_opposite_outcome(self):
        p = full_to_behavior(FullCorrelation(np.array([1.0]), np.zeros(1),
                                             np.zeros((1, 1))))
        assert p.prob(-1, 1, 0, 0) == 0.0
        assert p.prob(-1, -1, 0, 0) == 0.0

    def test_invalid_expectations_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            full_to_behavior(FullCorrelation(np.array([1.0]), np.array([-1.0]),
                                             np.array([[0.5]])))

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_both_ways(self, seed):
        rng = np.random.default_rng(seed)
        ma, mb = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        # random valid behavior: normalized positive table
        t = rng.uniform(0.05, 1.0, size=(2, 2, ma, mb))
        t /= t.sum(axis=(0, 1), keepdims=True)
        # make it no-signaling by projecting through the expectation form
        full = behavior_to_full(Behavior(table=t))
        clipped = FullCorrelation(np.clip(full.c_x, -1, 1), np.clip(full.c_y, -1, 1),
                                  np.clip(full.c_xy, -1, 1))
        try:
            p = full_to_behavior(clipped)
        except ValueError:
            return  # projected expectations need not be realizable; skip
        again = behavior_to_full(p)
        assert np.abs(again.c_x - clipped.c_x).max() < 1e-12
        assert np.abs(again.c_y - clipped.c_y).max() < 1e-12
        assert np.abs(again.c_xy - clipped.c_xy).max() < 1e-12
        assert np.abs(full_to_behavior(again).table - p.table).max() < 1e-12


class TestBehaviorFromCorrelation:
    def test_zero_gives_uniform(self):
        p = behavior_from_correlation(np.zeros((2, 2)))
        assert np.abs(p.table - 0.25).max() == 0.0

    def test_singleton_perfect(self):
        p = behavior_from_correlation([[1.0]])
        assert p.prob(1, 1, 0, 0) == pytest.approx(0.5)
        assert p.prob(-1, -1, 0, 0) == pytest.approx(0.5)
        assert p.prob(1, -1, 0, 0) == 0.0

    def test_matches_formula_on_extreme_point(self):
        C = elliptope_extreme_construct(3, 2)
        p = behavior_from_correlation(C)
        for ia, a in enumerate((1, -1)):
            for ib, b in enumerate((1, -1)):
                assert np.abs(p.table[ia, ib] - (1 + a * b * C) / 4).max() < 1e-15

    def test_always_unbiased_and_no_signaling(self, rng):
        for _ in range(20):
            C = rng.uniform(-1, 1, size=(3, 4))
            p = behavior_from_correlation(C)
            full = behavior_to_full(p)
            assert np.abs(full.c_x).max() < 1e-12
            assert np.abs(full.c_y).max() < 1e-12
            assert no_signaling_check(p)


class TestBehaviorMatrix:
    def test_singleton_ones(self):
        got = behavior_matrix([[1.0]])
        assert np.allclose(got, np.array([[2, 0], [0, 2]]) / 4)

    def test_identity_two(self):
        got = behavior_matrix(np.eye(2))
        want = np.array([
            [2, 1, 0, 1],
            [1, 2, 1, 0],
            [0, 1, 2, 1],
            [1, 0, 1, 2]]) / 4
        assert np.abs(got - want).max() < 1e-15

    def test_row_sums_half_the_questions(self, rng):
        C = rng.uniform(-1, 1, size=(3, 5))
        assert np.allclose(behavior_matrix(C).sum(axis=1), 5 / 2)

    def test_entries_match_behavior(self, rng):
        C = rng.uniform(-1, 1, size=(2, 3))
        P = behavior_matrix(C)
        p = behavior_from_correlation(C)
        for ia in range(2):
            for ib in range(2):
                block = P[ia * 2:(ia + 1) * 2, ib * 3:(ib + 1) * 3]
                assert np.abs(block - p.table[ia, ib]).max() < 1e-15


class TestGlBehaviorFactorization:
    def test_full_gram_satisfies_affine_section(self):
        C = elliptope_extreme_construct(3, 2)
        U = gram_vectors(C)
        fam = gl_behavior_factorization(C, U, U)
        R = gl_matrix(fam)
        assert validate_affine_section(R, behavior_from_correlation(C))

    def test_singleton_gives_four_planar_vectors(self):
        fam = gl_behavior_factorization([[1.0]], np.array([[1.0]]), np.array([[1.0]]))
        assert fam.n == 4 and fam.m == 2

    def test_rows_are_the_signed_halves_bit_for_bit(self):
        # rows (1/2, (a/2) u_x), question-major, then (1/2, (b/2) v_y); zero
        # coordinates become -0.0 under a = -1 and -0.0 ones become +0.0
        U = exponential_family_vectors(2)
        U[0, 1] = -0.0
        V = U[::-1].copy()
        fam = gl_behavior_factorization(U @ V.T, U, V)
        want = np.array([np.concatenate(([0.5], 0.5 * a * w))
                         for W in (U, V) for w in W for a in (1, -1)])
        assert np.array_equal(fam.vectors.view(np.uint64), want.view(np.uint64))

    def test_extreme_point_family_reduces_to_small_ambient(self):
        C = elliptope_extreme_construct(3, 2)
        U = gram_vectors(C)
        fam = gl_behavior_factorization(C, U, U)
        assert fam.n == 12
        assert gl_reduce(fam).m <= 4  # rank(P) <= rank(C) + 1 = 3, plus the tip

    def test_non_unit_vectors_rejected(self):
        with pytest.raises(ValueError, match="unit length"):
            gl_behavior_factorization([[1.0]], np.array([[2.0]]), np.array([[1.0]]))

    def test_mismatched_inner_products_rejected(self):
        with pytest.raises(ValueError, match="reproduce"):
            gl_behavior_factorization([[0.0]], np.array([[1.0]]), np.array([[1.0]]))

    def test_behavior_block_equals_behavior_matrix(self, rng):
        C = random_elliptope(rng, 4, 3)
        U = gram_vectors(C)
        fam = gl_behavior_factorization(C, U, U)
        R = gl_matrix(fam)
        P = behavior_matrix(C)
        n = 4
        # R is question-major, behavior_matrix outcome-major: compare entrywise
        for x in range(n):
            for y in range(n):
                for ia in range(2):
                    for ib in range(2):
                        lhs = R[2 * x + ia, 2 * n + 2 * y + ib]
                        rhs = P[ia * n + x, ib * n + y]
                        assert abs(lhs - rhs) < 1e-9


class TestElliptope:
    def test_members(self):
        assert elliptope_member(np.eye(4))
        assert elliptope_member(np.ones((3, 3)))

    def test_non_psd_rejected(self):
        assert not elliptope_member(np.array([[1.0, 1.5], [1.5, 1.0]]))

    def test_non_unit_diagonal_rejected(self):
        assert not elliptope_member(2 * np.eye(3))

    def test_rank_one_sign_matrix_is_extreme(self):
        u = np.array([1.0, -1.0, 1.0, 1.0])
        report = elliptope_extreme_test(np.outer(u, u))
        assert report.is_extreme and report.rank == 1 and report.span_dim == 1

    def test_identity_three_not_extreme(self):
        report = elliptope_extreme_test(np.eye(3))
        assert not report.is_extreme
        assert report.rank == 3 and report.span_dim == 3 < report.required_dim

    def test_constructed_points_pass(self):
        for n, r in [(3, 2), (6, 3), (10, 4), (15, 5)]:
            X = elliptope_extreme_construct(n, r)
            report = elliptope_extreme_test(X)
            assert report.is_extreme and report.rank == r

    def test_extreme_test_requires_membership(self):
        with pytest.raises(ValueError, match="elliptope"):
            elliptope_extreme_test(2 * np.eye(3))

    @pytest.mark.parametrize("n,r", [(3, 1), (3, 2), (10, 4), (15, 5), (21, 6)])
    def test_span_matrix_is_the_outer_product_vectorization_bit_for_bit(
            self, n, r, monkeypatch):
        # the span test's S S^T, taken from the spectral call, against S built
        # row by row from np.outer and the upper triangle
        X = elliptope_extreme_construct(n, r)
        seen = []
        original = bell.spectral

        def record(M, **kwargs):
            seen.append(np.array(M))
            return original(M, **kwargs)

        monkeypatch.setattr(bell, "spectral", record)
        elliptope_extreme_test(X)
        S = svec_rows(gram_vectors(X))
        assert np.array_equal((S @ S.T).view(np.uint64), seen[-1].view(np.uint64))


class TestRmax:
    def test_small_values(self):
        assert r_max(1) == 1
        assert r_max(2) == 1
        assert r_max(3) == 2
        assert r_max(6) == 3

    @pytest.mark.parametrize("n", range(1, 6))
    def test_quadratic_family_sizes(self, n):
        assert r_max(2 * n * n + n) == 2 * n

    @given(st.integers(1, 10 ** 9))
    @settings(max_examples=80, deadline=None)
    def test_defining_property(self, n):
        r = r_max(n)
        assert r * (r + 1) // 2 <= n < (r + 1) * (r + 2) // 2

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            r_max(0)


class TestExtremeConstruct:
    def test_three_two_matches_hand_gram(self):
        want = np.array([
            [1, 0, 1 / S2],
            [0, 1, 1 / S2],
            [1 / S2, 1 / S2, 1]])
        assert np.abs(elliptope_extreme_construct(3, 2) - want).max() < 1e-15

    def test_trivial(self):
        assert np.allclose(elliptope_extreme_construct(1, 1), [[1.0]])

    def test_rank_is_requested(self):
        X = elliptope_extreme_construct(10, 4)
        assert spectral(X).rank == 4
        assert elliptope_extreme_test(X).is_extreme

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="range"):
            elliptope_extreme_construct(3, 5)


class TestDqBound:
    def test_rank_two(self):
        value, ceiling = dq_lower_bound(ExtremeReport(is_extreme=True, rank=2, span_dim=3))
        assert value == pytest.approx(S2) and ceiling == 2

    def test_rank_four(self):
        value, ceiling = dq_lower_bound(ExtremeReport(is_extreme=True, rank=4, span_dim=10))
        assert value == 2.0 and ceiling == 2

    def test_rank_twenty(self):
        # rank 20 needs n >= 210; use the quadratic family at n = 10
        C, _ = exponential_family(10)
        report = elliptope_extreme_test(C.entries)
        assert report.rank == 20
        value, ceiling = dq_lower_bound(report)
        assert value == 32.0 and ceiling == 32

    def test_refused_without_certificate(self):
        report = elliptope_extreme_test(np.eye(3))
        assert not report.is_extreme
        with pytest.raises(ValueError, match="not certified"):
            dq_lower_bound(report)

    @pytest.mark.parametrize("n,r", [(3, 1), (3, 2), (6, 3), (10, 4), (15, 5)])
    def test_report_rank_is_the_spectral_rank(self, n, r):
        # the report's rank (gram_vectors' cut) is the rank the bound used to
        # recompute with spectral; both cut at RANK_TOL max(1, lambda_max)
        X = elliptope_extreme_construct(n, r)
        assert elliptope_extreme_test(X).rank == spectral(X).rank == r


class TestExponentialFamily:
    def test_n1_is_the_three_point_extreme(self):
        C, P = exponential_family(1)
        assert C.n == 3 and P.shape == (6, 6)
        assert np.abs(C.entries - elliptope_extreme_construct(3, 2)).max() < 1e-15

    def test_single_index_block_entry(self):
        C, _ = exponential_family(1)
        # row {1,1}, column {1,2} of the mixed block
        assert C.entries[0, 2] == pytest.approx(1 / S2)

    def test_n2_rank_and_bound(self):
        C, _ = exponential_family(2)
        assert C.n == 10
        report = elliptope_extreme_test(C.entries)
        assert report.rank == 4 and report.is_extreme
        value, ceiling = dq_lower_bound(report)
        assert value == 2.0 and ceiling == 2

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_blocks_match_gram_oracle(self, n):
        C, P = exponential_family(n)
        W = exponential_family_vectors(n)
        assert np.abs(C.entries - W @ W.T).max() < 1e-12
        assert np.abs(P - behavior_matrix(C)).max() == 0.0
        dim = 2 * n
        # closed-form block checks
        assert np.abs(C.entries[:dim, :dim] - np.eye(dim)).max() == 0.0
        pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
        for row, (i, j) in enumerate(pairs):
            for col, (k, l) in enumerate(pairs):
                assert C.entries[dim + row, dim + col] == 0.5 * len({i, j} & {k, l})
        for i in range(dim):
            for col, (k, l) in enumerate(pairs):
                want = 1 / S2 if i in (k, l) else 0.0
                assert C.entries[i, dim + col] == pytest.approx(want, abs=1e-16)

    def test_cap(self):
        with pytest.raises(CapExceeded):
            exponential_family(14)


class TestNoSignaling:
    def test_uniform(self):
        assert no_signaling_check(uniform_behavior())

    def test_correlation_behaviors(self, rng):
        C = rng.uniform(-1, 1, size=(2, 2))
        assert no_signaling_check(behavior_from_correlation(C))

    def test_signaling_table_detected(self):
        # row outcome distribution flips with the column question
        t = np.zeros((2, 2, 1, 2))
        t[0, 0, 0, 0] = t[0, 1, 0, 0] = 0.5  # y = 0: a is always +1
        t[1, 0, 0, 1] = t[1, 1, 0, 1] = 0.5  # y = 1: a is always -1
        assert not no_signaling_check(Behavior(table=t))


class TestAffineSection:
    def test_lemma_vectors_pass(self, rng):
        C = random_elliptope(rng, 3, 2)
        U = gram_vectors(C)
        R = gl_matrix(gl_behavior_factorization(C, U, U))
        assert validate_affine_section(R, behavior_from_correlation(C))

    def test_random_psd_fails(self, rng):
        p = behavior_from_correlation(np.zeros((2, 2)))
        M = rng.standard_normal((8, 8))
        assert not validate_affine_section(M @ M.T / 8, p)

    def test_scaled_valid_matrix_fails(self, rng):
        C = random_elliptope(rng, 2, 2)
        U = gram_vectors(C)
        R = gl_matrix(gl_behavior_factorization(C, U, U))
        assert not validate_affine_section(2 * R, behavior_from_correlation(C))

    def test_layout_mismatch_rejected(self):
        with pytest.raises(ValueError, match="expected"):
            validate_affine_section(np.eye(7), behavior_from_correlation(np.zeros((2, 2))))

    @staticmethod
    def rectangular_section(rng):
        """A valid Gram matrix R for 2 row and 3 column questions, R writable,
        and its behavior; the offset of the column party is 4."""
        U = rng.standard_normal((2, 3))
        V = rng.standard_normal((3, 3))
        U /= np.linalg.norm(U, axis=1, keepdims=True)
        V /= np.linalg.norm(V, axis=1, keepdims=True)
        R = gl_matrix(gl_behavior_factorization(U @ V.T, U, V)).copy()
        p = behavior_from_correlation(U @ V.T)
        assert validate_affine_section(R, p)
        return R, p

    @staticmethod
    def bump(R, rows, cols, delta):
        """Add delta to R[rows, cols] and its mirror, so R stays symmetric and
        only the checked normalization can fail."""
        R[rows, cols] += delta
        R[cols, rows] += delta

    def test_row_party_block_sum_fails(self, rng):
        R, p = self.rectangular_section(rng)
        self.bump(R, 0, 3, 1e-6)  # block of questions x = 0, x' = 1
        assert not validate_affine_section(R, p)

    def test_column_party_block_sum_fails(self, rng):
        R, p = self.rectangular_section(rng)
        self.bump(R, 4 + 5, 4 + 0, 1e-6)  # block of questions y = 2, y' = 0
        assert not validate_affine_section(R, p)

    def test_cross_block_sum_fails(self, rng):
        # every entry of the block x = 1, y = 2 stays within tol of p(ab|xy),
        # only their sum is off by 4 * 0.4 tol
        R, p = self.rectangular_section(rng)
        self.bump(R, slice(2, 4), slice(4 + 4, 4 + 6), 0.4e-10)
        assert not validate_affine_section(R, p)

    def test_single_cross_entry_fails(self, rng):
        # the block x = 1, y = 0 still sums to 1, one pair of entries disagrees with p
        R, p = self.rectangular_section(rng)
        self.bump(R, 3, 4 + 0, 1e-6)
        self.bump(R, 3, 4 + 1, -1e-6)
        assert not validate_affine_section(R, p)

    @pytest.mark.parametrize("i, j", [(4, 0), (6, 1), (0, 4), (1, 0)])
    def test_asymmetric_section_fails(self, i, j):
        # the valid 8 x 8 section for C = I_2, one entry off its mirror; an
        # entry below the diagonal in the cross blocks is in no other check
        C = np.eye(2)
        R = gl_matrix(gl_behavior_factorization(C, C, C)).copy()
        p = behavior_from_correlation(C)
        entry = R[i, j]
        R[i, j] = entry + 5.0
        assert not validate_affine_section(R, p)
        R[i, j] = entry + 1e-11  # asymmetry inside the default tol
        assert validate_affine_section(R, p)
