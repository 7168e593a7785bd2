"""Generators and certificate checkers for matrices separating the matrix
cones, plus the combinatorial test for graphs whose doubly nonnegative
matrices always factor through psd factors.

The certificates are finite lists of linear-algebraic conditions with
explicit residuals; a valid certificate is the machine-checkable part of the
separation argument, serialized with its residuals for audit.

The graph test reads the answer off the block structure: a graph has no odd
cycle of length >= 5 iff every block is bipartite, has at most 4 vertices,
or is a book K_{1,1,m}. It runs in near-linear time with no vertex cap, and a
failing graph gets an odd-cycle witness rotated to start at its least
vertex, followed by the lesser of that vertex's two cycle neighbors.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .cpsdrank import CpsdFactorization
from .lorentz import GramLorentzFactorization
from .matcore import RANK_TOL, _symmetric, gram_vectors, spectral


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    residual: float


@dataclass(frozen=True, eq=False)
class Graph:
    """Simple undirected graph on vertices 0..n-1; no loops, no duplicates."""

    n: int
    edges: frozenset

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        norm = set()
        for e in self.edges:
            u, v = e
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge {e} out of range for n = {self.n}")
            norm.add((min(u, v), max(u, v)))
        object.__setattr__(self, "edges", frozenset(norm))

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        return cls(n=n, edges=frozenset(tuple(e) for e in edges))

    def adjacency(self) -> np.ndarray:
        A = np.zeros((self.n, self.n))
        for u, v in self.edges:
            A[u, v] = A[v, u] = 1.0
        return A

    def neighbor_lists(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            out[u].append(v)
            out[v].append(u)
        return [sorted(x) for x in out]

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges


def support_bound_witness(G) -> tuple[CpsdFactorization, int]:
    """Constructive witness bounding the least factor size over matrices with support G.

    For a graph with at least one edge, shift the adjacency matrix by its
    least eigenvalue (multiplicity m) and project onto the spans of the Gram
    vectors of the shifted matrix: the resulting rank-one projectors P_u
    satisfy Tr(P_u P_v) = 0 exactly when u and v are non-adjacent, witnessing
    a factor size of n - m. The edgeless graph degenerates (the shifted matrix
    is zero), so it gets the diagonal witness {e_u e_u^T} of size n instead.
    Returns (factorization, bound).
    """
    if not isinstance(G, Graph):
        raise TypeError("expected a Graph")
    n = G.n
    if not G.edges:
        return CpsdFactorization(d=n, factors=np.eye(n)[:, :, None] * np.eye(n)[:, None, :]), n
    A = G.adjacency()
    w = np.linalg.eigvalsh(A)
    tau = float(w[0])
    mult = int(np.count_nonzero(np.abs(w - tau) <= RANK_TOL * max(1.0, float(np.abs(w).max()))))
    shifted = A - tau * np.eye(n)
    V = gram_vectors(shifted)
    W = np.zeros((n, max(1, V.shape[1])))
    for row, v in zip(V, W):
        norm = float(np.linalg.norm(row))
        if norm > 0:
            v[: V.shape[1]] = row / norm
    # + 0.0 writes the product of a zero and a negative coordinate as 0.0, not -0.0
    return CpsdFactorization(d=W.shape[1], factors=W[:, :, None] * W[:, None, :] + 0.0), n - mult


@dataclass(frozen=True, eq=False)
class NotCpCertificate:
    """Checked conditions placing a Gram matrix outside the completely
    positive cone: paired vectors with a common nonzero midpoint, orthogonal
    pairs, an odd subset summing to a multiple of the midpoint, and
    nonnegative pairwise inner products."""

    pairs: tuple
    center_c: np.ndarray
    odd_subset_J: tuple
    checks: dict
    tol: float

    @property
    def valid(self) -> bool:
        return all(c.ok for c in self.checks.values())


@dataclass(frozen=True, eq=False)
class NotVnaCertificate:
    """Checked conditions placing a doubly nonnegative matrix outside the
    closure of the cone of psd-factorizable matrices: two index sets spanning
    the full Gram space, each with a pivot orthogonal to the rest of its set,
    pivots non-parallel but not orthogonal to each other."""

    subset_I: tuple
    subset_J: tuple
    i_star: int
    j_star: int
    checks: dict
    tol: float

    @property
    def valid(self) -> bool:
        return all(c.ok for c in self.checks.values())


def check_not_cp(vectors, pairs, J, tol: float = 1e-9) -> NotCpCertificate:
    """Evaluate the four not-completely-positive conditions on a paired family.

    ``vectors`` is the whole family, ``pairs`` a perfect matching of its
    indices, and ``J`` an odd-size subset of indices whose vectors must sum to
    |J| times the common midpoint. An even |J| or a zero midpoint is a usage
    error and raises; condition failures only mark the certificate invalid.
    """
    V = np.atleast_2d(np.asarray(vectors, dtype=float))
    n = V.shape[0]
    pair_list = [(int(i), int(j)) for i, j in pairs]
    flat = [k for p in pair_list for k in p]
    if sorted(flat) != list(range(n)):
        raise ValueError("pairs must form a perfect matching of the vector indices")
    subset = tuple(int(j) for j in J)
    if len(subset) % 2 == 0:
        raise ValueError("the subset must have odd cardinality")
    if any(not 0 <= j < n for j in subset):
        raise ValueError("subset index out of range")

    mids = np.stack([(V[i] + V[j]) / 2.0 for i, j in pair_list])
    c = mids.mean(axis=0)
    if np.linalg.norm(c) <= tol:
        raise ValueError("common midpoint is zero; the certificate requires a nonzero center")

    res_mid = float(np.abs(mids - c).max())
    res_orth = float(max(abs(V[i] @ V[j]) for i, j in pair_list))
    res_sum = float(np.abs(V[list(subset)].sum(axis=0) - len(subset) * c).max())
    gram_full = V @ V.T
    res_nonneg = float(max(0.0, -gram_full.min()))

    checks = {
        "common_midpoint": CheckResult(res_mid <= tol, res_mid),
        "orthogonal_pairs": CheckResult(res_orth <= tol, res_orth),
        "odd_subset_sum": CheckResult(res_sum <= tol, res_sum),
        "nonnegative_inner_products": CheckResult(res_nonneg <= tol, res_nonneg),
    }
    return NotCpCertificate(pairs=tuple(pair_list), center_c=c, odd_subset_J=subset,
                            checks=checks, tol=tol)


def cycle_vectors(n: int) -> GramLorentzFactorization:
    """n = 2l (l odd, >= 3) unit-circle cone vectors (1, cos(2 pi k / n), sin(2 pi k / n)).

    Their Gram matrix is the circulant with entries 1 + cos(2 pi (k - k') / n);
    antipodal vectors pair up ((k, k + l)), and the even-indexed half sums to
    l times the cone axis, which is what `check_not_cp` certifies.
    """
    if n % 2 != 0:
        raise ValueError("n must be even")
    half = n // 2
    if half % 2 == 0 or half < 3:
        raise ValueError("n / 2 must be odd and at least 3")
    # math.cos and math.sin per k: numpy's vectorized ones may differ in the last bit
    return GramLorentzFactorization([(1.0, math.cos(2 * math.pi * k / n),
                                      math.sin(2 * math.pi * k / n)) for k in range(n)])


def cycle_pairing(n: int) -> tuple[list[tuple[int, int]], list[int]]:
    """The antipodal pairing and the odd even-indexed subset for cycle_vectors(n)."""
    half = n // 2
    return [(k, k + half) for k in range(half)], list(range(0, n, 2))


def check_not_vna(X: np.ndarray, I, J, i_star: int, j_star: int,
                  tol: float = 1e-9) -> NotVnaCertificate:
    """Evaluate the five closure-separation conditions on a doubly nonnegative matrix.

    Span equality of the index sets is tested through ranks of principal
    submatrices (Gram ranks equal span dimensions), pivot orthogonality reads
    directly off the matrix entries, and non-parallelism of the pivots is the
    strict 2 x 2 determinant, i.e. strictness in Cauchy-Schwarz.
    """
    a = _symmetric(X)
    n = a.shape[0]
    if a.min() < -1e-12:
        raise ValueError("matrix must be entrywise nonnegative")
    rep = spectral(a)
    if not rep.is_psd:
        raise ValueError("matrix must be positive semidefinite")
    set_i = tuple(int(i) for i in I)
    set_j = tuple(int(j) for j in J)
    for idx in (*set_i, *set_j, i_star, j_star):
        if not 0 <= idx < n:
            raise ValueError(f"index {idx} out of range")
    if i_star not in set_i or j_star not in set_j:
        raise ValueError("pivots must belong to their index sets")

    rank_full = rep.rank
    rank_i = spectral(a[np.ix_(set_i, set_i)]).rank
    rank_j = spectral(a[np.ix_(set_j, set_j)]).rank
    span_defect = float((rank_full - rank_i) + (rank_full - rank_j))

    res_orth_i = float(max((abs(a[i_star, i]) for i in set_i if i != i_star), default=0.0))
    res_orth_j = float(max((abs(a[j_star, j]) for j in set_j if j != j_star), default=0.0))
    det2 = float(a[i_star, i_star] * a[j_star, j_star] - a[i_star, j_star] ** 2)
    cross = float(abs(a[i_star, j_star]))

    checks = {
        "spanning_subsets": CheckResult(span_defect == 0.0, span_defect),
        "pivot_i_orthogonal": CheckResult(res_orth_i <= tol, res_orth_i),
        "pivot_j_orthogonal": CheckResult(res_orth_j <= tol, res_orth_j),
        "pivots_not_parallel": CheckResult(det2 > tol, max(0.0, tol - det2)),
        "pivots_not_orthogonal": CheckResult(cross > tol, max(0.0, tol - cross)),
    }
    return NotVnaCertificate(subset_I=set_i, subset_J=set_j, i_star=int(i_star),
                             j_star=int(j_star), checks=checks, tol=tol)


def odd_cycle_dnn(t: int) -> np.ndarray:
    """Adjacency matrix of the (2t+1)-cycle shifted by its least eigenvalue.

    Doubly nonnegative, supported exactly on the cycle, with rank 2t - 1
    (the least eigenvalue has multiplicity two). For t >= 2 it passes
    `check_not_vna` with the index sets from `odd_cycle_index_sets`.
    """
    if t < 2:
        raise ValueError("t must be at least 2")
    n = 2 * t + 1
    A = np.zeros((n, n))
    for i in range(n):
        A[i, (i + 1) % n] = A[(i + 1) % n, i] = 1.0
    lam = float(np.linalg.eigvalsh(A)[0])
    return A - lam * np.eye(n)


def odd_cycle_index_sets(t: int) -> tuple[list[int], list[int], int, int]:
    """The certificate index sets for odd_cycle_dnn(t): drop the two
    neighbors of each pivot (0-indexed)."""
    n = 2 * t + 1
    set_i = [i for i in range(n) if i not in (1, n - 1)]
    set_j = [j for j in range(n) if j not in (0, 2)]
    return set_i, set_j, 0, 1


def support_graph(X: np.ndarray, tol: float = 1e-10) -> Graph:
    """Graph with an edge wherever an off-diagonal entry is nonzero (above tol)."""
    a = _symmetric(X)
    rows, cols = np.nonzero(np.triu(np.abs(a) > tol, 1))
    return Graph(n=a.shape[0], edges=frozenset(zip(rows.tolist(), cols.tolist())))


def _blocks(adj: list[list[int]]) -> list[list[tuple[int, int]]]:
    """Edge lists of the biconnected components (Hopcroft-Tarjan), by an
    iterative depth-first search so that long paths hit no recursion limit."""
    disc, low = [-1] * len(adj), [0] * len(adj)
    blocks: list[list[tuple[int, int]]] = []
    edges: list[tuple[int, int]] = []
    clock = 0
    for root in range(len(adj)):
        if disc[root] >= 0:
            continue
        disc[root] = low[root] = clock
        clock += 1
        # frame: vertex, its tree parent, unread neighbors, edge-stack mark
        stack = [(root, -1, iter(adj[root]), 0)]
        while stack:
            u, parent, todo, mark = stack[-1]
            for v in todo:
                if disc[v] < 0:
                    stack.append((v, u, iter(adj[v]), len(edges)))
                    edges.append((u, v))
                    disc[v] = low[v] = clock
                    clock += 1
                    break
                if v != parent and disc[v] < disc[u]:
                    edges.append((u, v))
                    low[u] = min(low[u], disc[v])
            else:
                stack.pop()
                if parent >= 0:
                    low[parent] = min(low[parent], low[u])
                    if low[u] >= disc[parent]:
                        blocks.append(edges[mark:])
                        del edges[mark:]
    return blocks


def _bfs(nbr: dict, root: int, banned=()) -> dict:
    """Breadth-first tree from root avoiding banned vertices: each reached
    vertex maps to its parent (the root to itself), in visit order."""
    parent, queue = {root: root}, [root]
    for u in queue:
        for v in nbr[u]:
            if v not in parent and v not in banned:
                parent[v] = u
                queue.append(v)
    return parent


def _to_root(parent: dict, v: int) -> list[int]:
    path = [v]
    while parent[path[-1]] != path[-1]:
        path.append(parent[path[-1]])
    return path


def _odd_cycle(nbr: dict, root: int):
    """Two-color a connected graph breadth-first; an odd cycle, or None if
    the graph is bipartite."""
    parent = _bfs(nbr, root)
    depth = {root: 0}
    for v, p in parent.items():
        depth.setdefault(v, depth[p] + 1)
    for u in parent:
        for v in nbr[u]:
            if depth[v] == depth[u]:
                a, b = _to_root(parent, u), _to_root(parent, v)
                k = next(i for i, (x, y) in enumerate(zip(a, b)) if x == y)
                return a[:k + 1] + b[k - 1::-1]
    return None


def _beyond_triangle(nbr: dict, tri: list[int]):
    """An odd cycle of length >= 5 in a block (2-connected, >= 5 vertices)
    that contains the triangle tri, or None if the block is a book K_{1,1,m}.

    Proof of the case split, with B the block and T the triangle. If a
    component C of B - T has two or more vertices, at least two vertices of
    C touch T (else one vertex would cut C off) and their neighbors in T are
    not all one vertex x (else x would be a cut vertex). So some u != w in C
    and x != y in T have u ~ x and w ~ y, and a path u..w in C gives an ear
    x, u, .., w, y of length l >= 3. The ear closes into an odd cycle of
    length l + 1 over the edge xy or l + 2 over the third vertex of T.
    Otherwise B - T is an independent set, and each of its vertices touches
    2 or 3 vertices of T. Two of them, v and w, close the 5-cycle
    v, t1, w, t2, t3 when T = {t1, t2, t3} with t1 ~ v, w and t2 ~ w and
    t3 ~ v. Such labels exist unless v and w touch the same pair of T. So if
    no two close a 5-cycle, every vertex outside T touches one pair {a, b},
    and B is the book with spine ab, whose cycles have length at most 4.
    """
    T = set(tri)
    touch = {v: [t for t in nbr[v] if t in T] for v in nbr if v not in T}
    seen: set[int] = set()
    for u in touch:
        if u in seen or not touch[u]:
            continue
        parent = _bfs(nbr, u, T)
        seen.update(parent)
        for w in parent:
            for x, y in itertools.product(touch[u], touch[w]):
                if w != u and x != y:
                    ear = [x, *reversed(_to_root(parent, w)), y]
                    return ear if len(ear) % 2 else ear + list(T - {x, y})
    v, *rest = touch
    for w in rest:
        for t1, t2, t3 in itertools.product(touch[v], touch[w], touch[v]):
            if t1 in touch[w] and len({t1, t2, t3}) == 3:
                return [v, t1, w, t2, t3]
    return None


def _canonical(cycle: list[int]) -> list[int]:
    """Rotate a cycle to start at its least vertex, then its lesser neighbor."""
    i = cycle.index(min(cycle))
    c = cycle[i:] + cycle[:i]
    return c if c[1] < c[-1] else [c[0], *reversed(c[1:])]


def is_cpsd_graph(G: Graph):
    """Whether every doubly nonnegative matrix supported on G factors through
    psd factors; equivalently, whether G has no odd cycle of length >= 5 as a
    subgraph.

    Returns (True, None) or (False, witness_cycle). A graph passes iff each
    of its blocks (biconnected components) is bipartite, has at most 4
    vertices, or is a book K_{1,1,m} (Kogan and Berman, Discrete Math.
    1993). Each block of >= 5 vertices is two-colored breadth-first from its
    least vertex; an odd cycle of length >= 5 found there is the witness,
    and a triangle is settled by `_beyond_triangle`. Time is linear in the
    size of G after sorting neighbor lists, and there is no vertex cap. The
    witness is deterministic and rotated to start at its least vertex,
    followed by the lesser of that vertex's two cycle neighbors.
    """
    for edges in _blocks(G.neighbor_lists()):
        nbr: dict[int, list[int]] = {}
        for u, v in edges:
            nbr.setdefault(u, []).append(v)
            nbr.setdefault(v, []).append(u)
        if len(nbr) < 5:
            continue
        cycle = _odd_cycle(nbr, min(nbr))
        if cycle is not None and len(cycle) == 3:
            cycle = _beyond_triangle(nbr, cycle)
        if cycle is not None:
            return False, _canonical(cycle)
    return True, None
