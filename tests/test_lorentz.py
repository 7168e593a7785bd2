import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_rng
from cpsdlab.bell import behavior_matrix, exponential_family_vectors
from cpsdlab.clifford import gamma
from cpsdlab.cpsdrank import verify_factorization
from cpsdlab.errors import CapExceeded
from cpsdlab.lorentz import (
    MEMBER_TOL,
    GramLorentzFactorization,
    gl2_factorize,
    gl_matrix,
    gl_reduce,
    gl_to_cpsd,
    in_cone,
    lorentz_embed,
    lorentz_embeds,
)
from cpsdlab.matcore import HermMatrix, spectral, trace_inner


def vec(c, *x):
    return np.array((c, *x), dtype=float)


def random_member(rng, m):
    x = rng.standard_normal(m - 1)
    return np.concatenate(([np.linalg.norm(x) * (1 + rng.uniform(0, 1))], x))


def random_gl_family(rng, n, m):
    return GramLorentzFactorization([random_member(rng, m) for _ in range(n)])


def signed_halves(W):
    # the cone vectors (1/2, (a/2) w), +1 block first
    return GramLorentzFactorization([vec(0.5, *(0.5 * a * w)) for a in (1, -1) for w in W])


def member(v):
    return bool(in_cone(v[None])[0])


def per_vector_rule(v):
    # the membership rule as it was written for one vector at a time
    return v[0] >= float(np.linalg.norm(v[1:])) - MEMBER_TOL


class TestMembership:
    def test_axis(self):
        assert member(vec(1, 0, 0))

    def test_boundary_circle(self):
        th = 0.7
        assert member(vec(1, math.cos(th), math.sin(th)))

    def test_outside(self):
        assert not member(vec(1, 1.1, 0))

    @pytest.mark.parametrize("offset", [-1e-9, -1e-11, 0.0, 1e-11, 1.0])
    def test_rows_at_the_boundary_agree_with_the_per_vector_rule(self, offset):
        rng = make_rng(7)
        rows = []
        for m in range(1, 12):
            for _ in range(5):
                x = rng.standard_normal(m - 1) * 10.0 ** rng.uniform(-2, 2)
                rows.append(np.concatenate(([np.linalg.norm(x) + offset], x)))
        for m in range(1, 12):  # one family per ambient dimension
            V = np.array([r for r in rows if len(r) == m])
            want = [per_vector_rule(v) for v in V]
            assert in_cone(V).tolist() == want
            assert all(want) == (offset > -MEMBER_TOL)
            if all(want):
                assert np.array_equal(GramLorentzFactorization(V).vectors, V)
            else:
                with pytest.raises(ValueError, match="vector 0 is outside the cone"):
                    GramLorentzFactorization(V)

    def test_first_outside_row_is_named_with_its_c_and_norm(self):
        with pytest.raises(ValueError, match=r"^vector 1 is outside the cone: "
                                             r"c = 1\.0, \|x\| = 1\.1$"):
            GramLorentzFactorization([[1.0, 0.0, 0.0], [1.0, 1.1, 0.0], [-1.0, 0.0, 0.0]])


class TestEmbed:
    def test_planar_formula(self):
        c, v, w = 1.5, 0.2, -0.9
        got = lorentz_embed(vec(c, v, w)).entries
        want = np.array([[c, v - 1j * w], [v + 1j * w, c]]) / math.sqrt(2)
        assert np.abs(got - want).max() < 1e-15

    def test_boundary_vector_embeds_to_rank_one(self):
        th = 2.1
        rep = spectral(lorentz_embed(vec(1, math.cos(th), math.sin(th))))
        assert rep.is_psd and rep.rank == 1

    def test_axis_embeds_to_scaled_identity(self):
        for m in (3, 5, 8):
            e = lorentz_embed(vec(1.0, *np.zeros(m - 1)))
            assert np.allclose(e.entries, np.eye(e.n) / math.sqrt(e.n))

    def test_budget_refuses_a_huge_factor(self):
        # m = 61 needs one 2^30 x 2^30 factor: refused from the estimate
        with pytest.raises(CapExceeded, match="budget"):
            lorentz_embed(vec(1.0, *np.zeros(60)))

    @pytest.mark.parametrize("m", range(1, 10))
    def test_stack_is_the_per_row_formula_bit_for_bit(self, m):
        rng = make_rng(200 + m)
        V = rng.standard_normal((7, m)) * 10.0 ** rng.uniform(-3, 3, (7, 1))
        V[:, 0] = np.linalg.norm(V[:, 1:], axis=1) + rng.uniform(0, 1, 7)
        V[1, 1:] = -0.0
        V[2, 0] = -0.0 if m == 1 else V[2, 0]
        S = lorentz_embeds(V)
        assert S.shape[0] == 7 and S.dtype == complex
        for v, got in zip(V, S):
            c, tail = v[0], v[1:]
            if m == 1:
                want = HermMatrix(np.array([[c]], dtype=complex)).entries
            else:
                if m == 2:
                    tail = np.array([tail[0], 0.0])
                g = gamma(tail).entries
                want = HermMatrix((c * np.eye(len(g)) + g) / np.sqrt(len(g))).entries
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            assert np.array_equal(lorentz_embed(v).entries.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("m", range(2, 13))
    def test_isometry(self, m):
        rng = make_rng(m)
        for _ in range(40):
            a, b = random_member(rng, m), random_member(rng, m)
            lhs = trace_inner(lorentz_embed(a), lorentz_embed(b))
            rhs = float(a @ b)
            assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))

    @pytest.mark.parametrize("m", range(2, 11))
    def test_cone_correspondence_across_boundary(self, m):
        rng = make_rng(100 + m)
        for _ in range(60):
            x = rng.standard_normal(m - 1)
            x /= max(np.linalg.norm(x), 1e-9)
            offset = rng.choice([-1, 1]) * 10.0 ** rng.uniform(-7, -0.5)
            v = vec(np.linalg.norm(x) + offset, *x)
            assert spectral(lorentz_embed(v)).is_psd == (offset > 0)
            assert member(v) == (offset > 0)


class TestGlMatrix:
    def test_single_vector(self):
        fam = GramLorentzFactorization([vec(1, 0)])
        assert np.allclose(gl_matrix(fam), [[1.0]])

    def test_circle_family_first_row(self):
        from cpsdlab.separations import cycle_vectors

        row = gl_matrix(cycle_vectors(6))[0]
        assert np.allclose(row, [2, 1.5, 0.5, 0, 0.5, 1.5], atol=1e-12)

    def test_behavior_vectors_reproduce_behavior_matrix(self):
        n = 1
        W = exponential_family_vectors(n)
        C = W @ W.T
        fam = signed_halves(W)
        assert np.abs(gl_matrix(fam) - behavior_matrix(C)).max() < 1e-12


class TestGlReduce:
    def test_planar_family_gram_preserved(self, rng):
        fam = random_gl_family(rng, 4, 2)
        red = gl_reduce(fam)
        assert red.m <= fam.m
        assert np.abs(gl_matrix(red) - gl_matrix(fam)).max() < 1e-8

    def test_behavior_vectors_ambient_drops_to_rank_bound(self):
        rng = make_rng(3)
        # unit vectors of rank 2 sitting inside R^6: ambient 7 family
        base = rng.standard_normal((3, 2))
        base /= np.linalg.norm(base, axis=1, keepdims=True)
        lifted = np.hstack([base, np.zeros((3, 4))])
        fam = signed_halves(lifted)
        X = gl_matrix(fam)
        red = gl_reduce(fam)
        assert red.m <= spectral(X).rank + 2
        assert np.abs(gl_matrix(red) - X).max() < 1e-8

    def test_circle_family_stays_within_rank_bound(self):
        from cpsdlab.separations import cycle_vectors

        fam = cycle_vectors(6)
        red = gl_reduce(fam)
        assert red.m <= 5  # rank 3 plus 2
        assert np.abs(gl_matrix(red) - gl_matrix(fam)).max() < 1e-10

    def test_never_increases_ambient(self, rng):
        for n, m in [(3, 4), (5, 6), (2, 3), (6, 2)]:
            fam = random_gl_family(rng, n, m)
            assert gl_reduce(fam).m <= fam.m

    def test_near_degenerate_tail_direction_truncates_safely(self):
        rng = make_rng(5)
        base = rng.standard_normal((4, 2))
        tiny = 1e-10 * rng.standard_normal((4, 1))
        tails = np.hstack([base, tiny])
        fam = GramLorentzFactorization([vec(np.linalg.norm(t) + 0.5, *t) for t in tails])
        red = gl_reduce(fam)
        assert red.m <= 3  # the 1e-10 direction falls below the rank cut
        assert np.abs(gl_matrix(red) - gl_matrix(fam)).max() < 1e-8
        assert in_cone(red.vectors).all()


class TestGlToCpsd:
    def test_circle_family_gives_size_two_factors(self):
        from cpsdlab.separations import cycle_vectors

        fam = cycle_vectors(6)
        fact = gl_to_cpsd(fam)
        assert fact.d == 2
        report = verify_factorization(gl_matrix(fam), fact, tol=1e-8)
        assert report.ok

    def test_two_by_two_dnn(self):
        fam = gl2_factorize(2.0, 1.0, 3.0)
        fact = gl_to_cpsd(fam)
        assert fact.d <= 2
        assert verify_factorization(np.array([[2.0, 1.0], [1.0, 3.0]]), fact).ok

    def test_behavior_family_factor_size_bound(self):
        fam = signed_halves(exponential_family_vectors(1))
        fact = gl_to_cpsd(fam)
        assert fact.d <= 4  # 2^floor((r_max(3) + 2) / 2)
        assert verify_factorization(gl_matrix(fam), fact).ok

    def test_unreduced_embedding_matches_closed_form_factors(self):
        # embedding (1/2, a w/2) directly must give (I + a gamma(w))/2 scaled
        # by 1/sqrt(d), the explicit psd factor family of the behavior matrix
        from cpsdlab.clifford import gamma

        W = exponential_family_vectors(1)
        d = 2
        for a in (1, -1):
            for w in W:
                got = lorentz_embed(vec(0.5, *(0.5 * a * w)))
                want = (np.eye(d) + a * gamma(w).entries) / 2 / math.sqrt(d)
                assert np.abs(got.entries - want).max() < 1e-15

    def test_random_families_verify_and_respect_size_bound(self, rng):
        for n in (2, 4, 8):
            for m in (2, 3, 6):
                fam = random_gl_family(rng, n, m)
                X = gl_matrix(fam)
                fact = gl_to_cpsd(fam)
                assert verify_factorization(X, fact).ok
                assert fact.d <= 2 ** ((spectral(X).rank + 1) // 2)

    def test_budget_checked_for_the_whole_family_before_embedding(self):
        # exp-family n = 9: each 512 x 512 factor fits the budget, the 342 of
        # them (1.34 GiB) do not, and none may be built before the refusal
        W = exponential_family_vectors(9)
        fam = signed_halves(W)

        tracemalloc.start()
        try:
            with pytest.raises(CapExceeded, match="342 dense 512 x 512"):
                gl_to_cpsd(fam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20

    def test_zero_family_collapses_to_trivial_factors(self):
        fam = GramLorentzFactorization([vec(0, 0, 0), vec(1, 0, 0)])
        fact = gl_to_cpsd(fam)
        assert fact.d == 1
        assert verify_factorization(gl_matrix(fam), fact).ok


class TestGl2Factorize:
    def test_orthogonal_case(self):
        fam = gl2_factorize(1.0, 0.0, 1.0)
        a = gl2_factorize(1.0, 0.0, 1.0).vectors
        want = np.array([[1, 1, 0], [1, -1, 0]]) * math.sqrt(0.5)
        assert np.abs(a - want).max() < 1e-12

    def test_parallel_case(self):
        fam = gl2_factorize(1.0, 1.0, 1.0)
        a = gl2_factorize(1.0, 1.0, 1.0).vectors
        want = np.array([[1, 1, 0], [1, 1, 0]]) * math.sqrt(0.5)
        assert np.abs(a - want).max() < 1e-12

    def test_general_gram(self):
        fam = gl2_factorize(2.0, 1.0, 3.0)
        assert np.abs(gl_matrix(fam) - np.array([[2, 1], [1, 3]])).max() < 1e-10

    def test_swapped_diagonal_keeps_order(self):
        fam = gl2_factorize(1.0, 0.5, 4.0)
        assert np.abs(gl_matrix(fam) - np.array([[1, 0.5], [0.5, 4]])).max() < 1e-10

    def test_zero_column(self):
        fam = gl2_factorize(3.0, 0.0, 0.0)
        assert np.abs(gl_matrix(fam) - np.diag([3.0, 0.0])).max() < 1e-12

    def test_all_zero(self):
        assert np.abs(gl_matrix(gl2_factorize(0.0, 0.0, 0.0))).max() == 0.0

    def test_rejects_non_dnn(self):
        with pytest.raises(ValueError, match="doubly nonnegative"):
            gl2_factorize(1.0, 2.0, 1.0)
        with pytest.raises(ValueError, match="doubly nonnegative"):
            gl2_factorize(1.0, -0.5, 1.0)

    def test_barely_infeasible_off_diagonal_rejected(self):
        with pytest.raises(ValueError, match="doubly nonnegative"):
            gl2_factorize(1.0, 1e-7, 0.0)

    @given(st.floats(0.0, 10.0), st.floats(0.0, 10.0), st.floats(0.0, 1.0))
    @settings(max_examples=150, deadline=None)
    def test_any_dnn_matrix_reproduced(self, a, c, frac):
        b = frac * math.sqrt(a * c)
        fam = gl2_factorize(a, b, c)
        target = np.array([[a, b], [b, c]])
        assert np.abs(gl_matrix(fam) - target).max() <= 1e-10 * max(1.0, a, c)
        assert in_cone(fam.vectors).all()


class TestFamilyValidation:
    def test_mixed_ambient_rejected(self):
        with pytest.raises(ValueError, match="inhomogeneous"):
            GramLorentzFactorization([vec(1, 0), vec(1, 0, 0)])

    def test_nonmember_rejected_not_projected(self):
        with pytest.raises(ValueError, match="outside the cone"):
            GramLorentzFactorization([vec(1, 2, 0)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("col", [0, 1, 2])
    def test_non_finite_entries_rejected(self, bad, col):
        # c = inf used to pass the cone rule and put inf into gl_matrix
        V = np.array([[1.0, 0.0, 0.0], [2.0, 1.0, -1.0]])
        V[1, col] = bad
        with pytest.raises(ValueError, match="cone vector entries must be finite"):
            GramLorentzFactorization(V)

    @pytest.mark.parametrize("shape", [(3,), (2, 0), (1, 2, 3), ()])
    def test_non_matrix_shapes_rejected(self, shape):
        with pytest.raises(ValueError, match=r"\(n, m\) array with m >= 1"):
            GramLorentzFactorization(np.ones(shape))

    def test_vectors_are_a_read_only_copy(self):
        V = np.array([[1.0, 0.5, -0.0], [2.0, 0.0, 1.0]])
        fam = GramLorentzFactorization(V)
        assert fam.vectors.shape == (2, 3) and fam.vectors.dtype == np.float64
        assert (fam.n, fam.m) == (2, 3)
        assert not fam.vectors.flags.writeable and fam.vectors.flags.c_contiguous
        with pytest.raises(ValueError, match="read-only"):
            fam.vectors[0, 0] = 5.0
        V[0, 0] = 5.0  # the caller's array stays writable and is not shared
        assert fam.vectors[0, 0] == 1.0 and np.signbit(fam.vectors[0, 2])
