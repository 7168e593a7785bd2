import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cycle_graph_edges, has_long_odd_cycle_oracle, make_rng
from cpsdlab.lorentz import gl_matrix
from cpsdlab.matcore import spectral
from cpsdlab.separations import (
    Graph,
    check_not_cp,
    check_not_vna,
    cycle_pairing,
    cycle_vectors,
    is_cpsd_graph,
    odd_cycle_dnn,
    odd_cycle_index_sets,
    support_graph,
)


def cycle_graph(n):
    return Graph.from_edges(n, cycle_graph_edges(n))


def complete_graph(n):
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def book_graph(pages):
    """K_{1,1,pages}: triangles over the shared spine (0, 1)."""
    edges = [(0, 1)] + [(s, 2 + k) for k in range(pages) for s in (0, 1)]
    return Graph.from_edges(2 + pages, edges)


def assert_canonical_odd_cycle(g, witness):
    """An odd cycle of length >= 5 in g, starting at its least vertex and
    continuing to the lesser of that vertex's cycle neighbors."""
    assert len(witness) >= 5 and len(witness) % 2 == 1
    assert len(set(witness)) == len(witness)
    assert witness[0] == min(witness) and witness[1] < witness[-1]
    for a, b in zip(witness, witness[1:] + witness[:1]):
        assert g.has_edge(a, b)


class TestGraphType:
    def test_loop_rejected(self):
        with pytest.raises(ValueError, match="loop"):
            Graph.from_edges(3, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph.from_edges(3, [(0, 3)])

    def test_duplicates_normalized(self):
        g = Graph.from_edges(3, [(0, 1), (1, 0)])
        assert len(g.edges) == 1


class TestCycleVectors:
    def test_six_vector_gram(self):
        X = gl_matrix(cycle_vectors(6))
        assert np.allclose(X[0], [2, 1.5, 0.5, 0, 0.5, 1.5], atol=1e-12)

    def test_antipodal_pairs_orthogonal(self):
        for n in (6, 10):
            X = gl_matrix(cycle_vectors(n))
            half = n // 2
            for k in range(half):
                assert abs(X[k, k + half]) < 1e-12

    def test_parity_violations_rejected(self):
        with pytest.raises(ValueError, match="even"):
            cycle_vectors(5)
        with pytest.raises(ValueError, match="odd"):
            cycle_vectors(8)
        with pytest.raises(ValueError, match="odd"):
            cycle_vectors(4)


class TestCheckNotCp:
    def test_six_cycle_family_passes(self):
        fam = cycle_vectors(6)
        pairs, subset = cycle_pairing(6)
        cert = check_not_cp(fam.vectors, pairs, subset)
        assert cert.valid
        assert np.allclose(cert.center_c, [1, 0, 0], atol=1e-12)
        assert len(cert.odd_subset_J) == 3

    def test_ten_cycle_family_passes(self):
        fam = cycle_vectors(10)
        pairs, subset = cycle_pairing(10)
        assert check_not_cp(fam.vectors, pairs, subset).valid

    def test_perturbation_invalidates(self):
        fam = cycle_vectors(6)
        pairs, subset = cycle_pairing(6)
        vecs = fam.vectors.copy()
        vecs[1] = vecs[1] + 0.1
        cert = check_not_cp(vecs, pairs, subset)
        assert not cert.valid
        assert not cert.checks["common_midpoint"].ok
        assert cert.checks["common_midpoint"].residual > 1e-9

    def test_even_subset_rejected(self):
        fam = cycle_vectors(6)
        pairs, _ = cycle_pairing(6)
        with pytest.raises(ValueError, match="odd"):
            check_not_cp(fam.vectors, pairs, [0, 2])

    def test_zero_center_rejected(self):
        vecs = np.array([[1.0, 0.0], [-1.0, 0.0]])
        with pytest.raises(ValueError, match="nonzero"):
            check_not_cp(vecs, [(0, 1)], [0])

    def test_incomplete_pairing_rejected(self):
        vecs = np.eye(4)
        with pytest.raises(ValueError, match="matching"):
            check_not_cp(vecs, [(0, 1)], [0])


class TestOddCycleDnn:
    def test_t2_matrix(self):
        X = odd_cycle_dnn(2)
        assert X.shape == (5, 5)
        assert X[0, 0] == pytest.approx(-2 * math.cos(4 * math.pi / 5))
        assert X[0, 1] == 1.0 and X[0, 2] == 0.0

    @pytest.mark.parametrize("t", [2, 3, 4, 5])
    def test_rank_and_psd(self, t):
        X = odd_cycle_dnn(t)
        rep = spectral(X)
        assert rep.is_psd
        assert rep.rank == 2 * t - 1
        assert X.min() >= -1e-12

    @pytest.mark.parametrize("t", [2, 3, 4])
    def test_support_is_the_cycle(self, t):
        n = 2 * t + 1
        assert support_graph(odd_cycle_dnn(t)).edges == cycle_graph(n).edges

    def test_small_t_rejected(self):
        with pytest.raises(ValueError):
            odd_cycle_dnn(1)


class TestCheckNotVna:
    @pytest.mark.parametrize("t", [2, 3, 4])
    def test_shifted_cycles_pass(self, t):
        X = odd_cycle_dnn(t)
        cert = check_not_vna(X, *odd_cycle_index_sets(t))
        assert cert.valid

    def test_large_scaling_still_certifies(self):
        X = 1000.0 * odd_cycle_dnn(2)
        assert check_not_vna(X, *odd_cycle_index_sets(2)).valid

    def test_identity_fails_cross_condition(self):
        set_i, set_j = [0, 2, 3], [1, 3, 4]
        cert = check_not_vna(np.eye(5), set_i, set_j, 0, 1)
        assert not cert.valid
        assert not cert.checks["pivots_not_orthogonal"].ok

    def test_index_errors(self):
        X = odd_cycle_dnn(2)
        with pytest.raises(ValueError, match="out of range"):
            check_not_vna(X, [0, 9], [1], 0, 1)
        with pytest.raises(ValueError, match="belong"):
            check_not_vna(X, [0, 2], [1, 3], 3, 1)

    def test_requires_dnn(self):
        with pytest.raises(ValueError, match="nonnegative"):
            check_not_vna(np.array([[1.0, -0.5], [-0.5, 1.0]]), [0], [1], 0, 1)


class TestSupportGraph:
    def test_diagonal_is_edgeless(self):
        assert support_graph(np.diag([1.0, 2.0, 0.0])).edges == frozenset()

    def test_all_ones_is_complete(self):
        assert support_graph(np.ones((3, 3))).edges == complete_graph(3).edges

    @pytest.mark.parametrize("tol", [1e-10, 0.25])
    def test_matches_pairwise_oracle_at_tol_boundary(self, rng, tol):
        n = 40
        a = np.where(rng.random((n, n)) < 0.1, rng.standard_normal((n, n)), 0.0)
        above = np.nextafter(tol, 1.0)
        picks = rng.integers(0, 20, size=(n, n))
        for k, value in enumerate([tol, -tol, above, -above]):
            a[picks == k] = value
        a = np.triu(a) + np.triu(a, 1).T
        assert (np.abs(np.triu(a, 1)) == tol).sum() > 0
        oracle = {(u, v) for u in range(n) for v in range(u + 1, n) if abs(a[u, v]) > tol}
        assert support_graph(a, tol=tol).edges == oracle


class TestIsCpsdGraph:
    def test_bipartite_graphs_pass(self):
        g = Graph.from_edges(6, [(0, 3), (0, 4), (1, 3), (1, 5), (2, 4), (2, 5)])
        assert is_cpsd_graph(g) == (True, None)
        assert is_cpsd_graph(cycle_graph(6)) == (True, None)

    def test_small_cliques_pass(self):
        assert is_cpsd_graph(complete_graph(3)) == (True, None)
        assert is_cpsd_graph(complete_graph(4)) == (True, None)

    def test_odd_cycles_fail_with_witness(self):
        ok, witness = is_cpsd_graph(cycle_graph(5))
        assert not ok and witness == [0, 1, 2, 3, 4]
        ok, witness = is_cpsd_graph(cycle_graph(7))
        assert not ok and witness == [0, 1, 2, 3, 4, 5, 6]

    def test_path_passes(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert is_cpsd_graph(g) == (True, None)

    def test_book_graph_passes(self):
        # many triangles over one shared edge: non-bipartite, yet no odd
        # cycle longer than 3
        pages = 6
        edges = [(0, 1)] + [(0, 2 + k) for k in range(pages)] + \
                [(1, 2 + k) for k in range(pages)]
        assert is_cpsd_graph(Graph.from_edges(2 + pages, edges)) == (True, None)

    def test_dense_bipartite_plus_pendant_triangle(self):
        # a big bipartite block fused with a triangle through one vertex:
        # only odd cycles are that triangle
        edges = [(u, v) for u in range(6) for v in range(6, 12)]
        edges += [(0, 12), (0, 13), (12, 13)]
        assert is_cpsd_graph(Graph.from_edges(14, edges)) == (True, None)

    def test_clique_contains_five_cycle(self):
        ok, witness = is_cpsd_graph(complete_graph(6))
        assert not ok
        assert len(witness) == 5 and len(witness) % 2 == 1

    def test_graphs_far_past_the_old_vertex_cap(self):
        ok, witness = is_cpsd_graph(cycle_graph(5001))
        assert not ok and witness == list(range(5001))
        path = Graph.from_edges(10000, [(i, i + 1) for i in range(9999)])
        assert is_cpsd_graph(path) == (True, None)
        assert is_cpsd_graph(book_graph(2000)) == (True, None)

    @pytest.mark.parametrize("salt", range(4))
    def test_glued_blocks_against_oracle(self, salt):
        # books, K4s and even cycles glued at cut vertices pass; one extra
        # edge may merge blocks into one with a long odd cycle
        rng = make_rng(2000 + salt)
        for trial in range(150):
            n, edges = 1, []
            while True:
                kind = int(rng.integers(3))
                if kind == 0:
                    piece = book_graph(int(rng.integers(1, 4)))
                elif kind == 1:
                    piece = complete_graph(4)
                else:
                    piece = cycle_graph(2 * int(rng.integers(2, 5)))
                if n + piece.n - 1 > 12:
                    break
                glue = int(rng.integers(n))
                relabel = {0: glue, **{k: n + k - 1 for k in range(1, piece.n)}}
                edges += [(relabel[u], relabel[v]) for u, v in piece.edges]
                n += piece.n - 1
            if trial % 2:
                u, v = (int(x) for x in rng.choice(n, size=2, replace=False))
                edges.append((u, v))
            g = Graph.from_edges(n, edges)
            ours, witness = is_cpsd_graph(g)
            oracle, _ = has_long_odd_cycle_oracle(g)
            assert ours == (not oracle)
            assert ours or trial % 2
            if witness is not None:
                assert_canonical_odd_cycle(g, witness)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_relabelling_keeps_verdict(self, data):
        n = data.draw(st.integers(1, 10))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        keep = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        perm = data.draw(st.permutations(range(n)))
        edges = [e for e, k in zip(pairs, keep) if k]
        g = Graph.from_edges(n, edges)
        h = Graph.from_edges(n, [(perm[u], perm[v]) for u, v in edges])
        (ok_g, witness_g), (ok_h, witness_h) = is_cpsd_graph(g), is_cpsd_graph(h)
        assert ok_g == ok_h
        for graph, witness in ((g, witness_g), (h, witness_h)):
            assert (witness is None) == ok_g
            if witness is not None:
                assert_canonical_odd_cycle(graph, witness)

    @pytest.mark.parametrize("salt", range(6))
    def test_agreement_with_enumeration_oracle(self, salt):
        rng = make_rng(1000 + salt)
        for _ in range(60):
            n = int(rng.integers(4, 9))
            p = rng.uniform(0.1, 0.6)
            edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.uniform() < p]
            g = Graph.from_edges(n, edges)
            ours, witness = is_cpsd_graph(g)
            oracle, _ = has_long_odd_cycle_oracle(g)
            assert ours == (not oracle)
            if witness is not None:
                assert len(witness) >= 5 and len(witness) % 2 == 1
                for a, b in zip(witness, witness[1:] + witness[:1]):
                    assert g.has_edge(a, b)
