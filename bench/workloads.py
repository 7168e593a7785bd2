"""The four benchmark workloads: seeded inputs, command lines and independent checks.

A workload runs in rounds.  A round is a fixed list of size classes, so every
run sees the same mix of work however many rounds it lasts.  The content of
each op (rotation, unitary, permutation, graph) is drawn from a generator
seeded with (seed, round index), so a round can be rebuilt exactly and no two
ops of a run share an input file.

The checks never import cpsdlab.  They parse the JSON the command wrote with
the standard library and recompute what it must contain with numpy.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

SQRT2 = math.sqrt(2.0)
TOL = 1e-8  # the command's default verification tolerance
PAIR_SAMPLE = 8  # factors per op whose pairwise traces and spectra are re-checked


class CheckFailed(Exception):
    """The command's output disagrees with what its input implies."""


def expect(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Op:
    """One command: its argv, where it writes, and the check of what it wrote."""

    label: str
    argv: list
    out: Path
    check: Callable[[dict], None]
    inputs: tuple = ()

    def verify(self, data: bytes) -> None:
        try:
            obj = json.loads(data)
        except ValueError as exc:
            raise CheckFailed(f"output is not JSON: {exc}") from exc
        expect(isinstance(obj, dict) and obj.get("status") == "ok", "status is not ok")
        try:
            self.check(obj["payload"])
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise CheckFailed(f"malformed payload: {exc!r}") from exc

    def cleanup(self) -> None:
        for path in (self.out, *self.inputs):
            path.unlink(missing_ok=True)


@dataclass(frozen=True)
class Workload:
    name: str
    classes: tuple  # size classes of one round, in run order
    min_rounds: int  # keeps the tail percentile inside one size class
    smallest: str  # class of the set-up probes and the warm-up op
    build: Callable  # (size class, rng, path stem) -> Op

    def round(self, seed: int, index: int, workdir: Path) -> list:
        rng = np.random.default_rng([seed, index])
        return [self.build(c, rng, workdir / f"r{index}-{k}") for k, c in enumerate(self.classes)]

    def setup_op(self, seed: int, index: int, workdir: Path) -> Op:
        rng = np.random.default_rng([seed, 1_000_000 + index])
        return self.build(self.smallest, rng, workdir / f"setup{index}")


# shared helpers --------------------------------------------------------------

def write_json(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj), encoding="utf-8")
    return path


def real_matrix(obj: dict, n: int) -> np.ndarray:
    expect(obj["n"] == n and obj["complex"] is False, f"expected a real {n} x {n} matrix")
    return np.asarray(obj["entries"], dtype=float).reshape(n, n)


def complex_matrix(obj: dict, n: int) -> np.ndarray:
    expect(obj["n"] == n and obj["complex"] is True, f"expected a complex {n} x {n} matrix")
    pairs = np.asarray(obj["entries"], dtype=float).reshape(n * n, 2)
    return (pairs[:, 0] + 1j * pairs[:, 1]).reshape(n, n)


def check_factors(mats, idx, target: np.ndarray) -> None:
    """Hermitian psd factors whose pairwise traces reproduce the target entries."""
    for k, P in zip(idx, mats):
        expect(np.abs(P - P.conj().T).max() <= 1e-12, f"factor {k} is not Hermitian")
        w = np.linalg.eigvalsh(P)
        expect(w[0] >= -1e-9 * max(1.0, abs(w[-1])), f"factor {k} is not psd: {w[0]:.3e}")
    for (a, i), (b, j) in itertools.combinations_with_replacement(list(enumerate(idx)), 2):
        tr = np.sum(mats[a] * mats[b].T).real
        expect(abs(tr - target[i, j]) <= TOL, f"Tr(P_{i} P_{j}) = {tr!r}, want {target[i, j]!r}")


def random_orthogonal(rng, k: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((k, k)))
    return q * np.sign(np.diag(r))


def ceil_sqrt2_pow(k: int) -> int:
    """Exact ceiling of sqrt(2)^k."""
    return 1 << (k // 2) if k % 2 == 0 else math.isqrt(2 ** k - 1) + 1


# exponential-rank family -------------------------------------------------------

def exp_unit_vectors(n: int) -> np.ndarray:
    """e_i, then (e_i + e_j)/sqrt(2) for i < j, in R^{2n}; their Gram matrix is the
    exp-family correlation matrix of size 2n^2 + n and rank 2n."""
    eye = np.eye(2 * n)
    pairs = [(eye[i] + eye[j]) / SQRT2 for i, j in itertools.combinations(range(2 * n), 2)]
    return np.vstack([eye, *pairs])


def exp_cone_vectors(n: int) -> np.ndarray:
    """Rows (c, x) = (1/2)(1, a w) for a = +1, -1: the behavior-matrix cone vectors."""
    W = exp_unit_vectors(n)
    half = np.full((len(W), 1), 0.5)
    return np.vstack([np.hstack([half, 0.5 * a * W]) for a in (1.0, -1.0)])


def pauli_generators(k: int) -> np.ndarray:
    """k = 2l anticommuting Hermitian Pauli words of size 2^l (Jordan-Wigner)."""
    l = k // 2
    I, X = np.eye(2), np.array([[0, 1], [1, 0]], dtype=complex)
    Y, Z = np.array([[0, -1j], [1j, 0]]), np.diag([1.0, -1.0])

    def word(mid, i):
        out = np.ones((1, 1), dtype=complex)
        for f in [Z] * i + [mid] + [I] * (l - i - 1):
            out = np.kron(out, f)
        return out

    return np.stack([word(X, i) for i in range(l)] + [word(Y, i) for i in range(l)])


def symmetric_gram(V: np.ndarray) -> np.ndarray:
    G = V @ V.T
    return (G + G.T) / 2


def build_factorize(size: str, rng, stem: Path) -> Op:
    """`factorize` on exp-family cone vectors with rotated tails, permuted."""
    n = int(size[1:])
    V = exp_cone_vectors(n)[rng.permutation(2 * (2 * n * n + n))]
    N, d = len(V), 2 ** n
    target = symmetric_gram(V)
    rows = np.hstack([V[:, :1], V[:, 1:] @ random_orthogonal(rng, 2 * n)])
    src = write_json(stem.with_suffix(".in.json"), {"m": 2 * n + 1, "vectors": rows.tolist()})
    sample = np.sort(rng.choice(N, PAIR_SAMPLE, replace=False))

    def check(p):
        expect(p["factor_size"] == d, f"factor size {p['factor_size']}, want {d}")
        expect(p["rank"] == 2 * n + 1, f"rank {p['rank']}, want {2 * n + 1}")
        expect(p["factor_size_bound"] == 2 ** (n + 1), "wrong factor size bound")
        expect(p["verify"]["ok"] is True and p["verify"]["max_residual"] <= TOL,
               "verify report is not ok")
        expect(np.abs(real_matrix(p["gram"], N) - target).max() <= 1e-12, "wrong Gram matrix")
        fac = p["factorization"]
        expect(fac["d"] == d and len(fac["factors"]) == N, "wrong factorization shape")
        check_factors([complex_matrix(fac["factors"][i], d) for i in sample], sample, target)

    out = stem.with_suffix(".out.json")
    return Op(f"factorize n={n}", ["factorize", str(src), "--out", str(out)], out, check, (src,))


def build_verify(size: str, rng, stem: Path) -> Op:
    """`bound --verify --scale-search` on dense exp-family factors under a random
    monomial unitary (random phases and a permutation).  A monomial unitary keeps
    the zero pattern of the Pauli factors, so the factor files are the size that
    `factorize` itself writes."""
    n = int(size[1:])
    V = exp_cone_vectors(n)[rng.permutation(2 * (2 * n * n + n))]
    N, d = len(V), 2 ** n
    target = symmetric_gram(V)
    F = V[:, :1, None] * np.eye(d) + np.tensordot(V[:, 1:], pauli_generators(2 * n), 1)
    U = np.zeros((d, d), dtype=complex)
    U[rng.permutation(d), np.arange(d)] = np.exp(2j * np.pi * rng.random(d))
    F = U.conj().T @ (F / math.sqrt(d)) @ U
    F = (F + F.conj().transpose(0, 2, 1)) / 2
    matrix = write_json(stem.with_suffix(".P.json"),
                        {"n": N, "complex": False, "entries": target.ravel().tolist()})
    pairs = F.view(float).reshape(N, d * d, 2).tolist()  # [re, im] per entry, row-major
    cert = write_json(stem.with_suffix(".F.json"), {"d": d, "factors": [
        {"n": d, "complex": True, "entries": e} for e in pairs]})
    sample = np.sort(rng.choice(N, PAIR_SAMPLE, replace=False))
    diag = np.sqrt(np.diag(target))
    analytic = float(diag.sum() ** 2 / target.sum())

    def check(p):
        check_factors(F[sample], sample, target)
        v = p["verify"]
        expect(v["ok"] is True and v["factors_psd"] is True and v["max_residual"] <= TOL,
               "verify report is not ok")
        b = p["bounds"]
        expect(b["upper"] == d and b["upper_provenance"] == "verified-factorization-upper-bound",
               "wrong upper bound")
        expect(abs(b["lower_rank"] - math.sqrt(2 * n + 1)) <= 1e-12, "wrong rank bound")
        expect(analytic - 1e-12 <= b["lower_analytic"] <= d + 1e-9,
               f"analytic bound {b['lower_analytic']} outside [{analytic}, {d}]")
        want = math.ceil(max(b["lower_analytic"], b["lower_rank"]) - 1e-9)
        expect(b["lower_combined_int"] == want, "wrong combined lower bound")

    out = stem.with_suffix(".out.json")
    return Op(f"verify n={n}", ["bound", str(matrix), "--verify", str(cert), "--scale-search",
                                "--out", str(out)], out, check, (matrix, cert))


def extreme_point_vectors(npts: int, r: int) -> np.ndarray:
    """e_1 repeated, e_2..e_r, (e_i + e_j)/sqrt(2): an elliptope extreme point of rank r."""
    eye = np.eye(r)
    pairs = [(eye[i] + eye[j]) / SQRT2 for i, j in itertools.combinations(range(r), 2)]
    return np.vstack([eye[:1]] * (npts + 1 - r * (r + 1) // 2) + [eye[1:], *pairs])


def build_behavior(size: str, rng, stem: Path) -> Op:
    """`behavior --simulate --validate` on an extreme correlation matrix of rank r,
    questions permuted: the exp family (size "exp<n>", rank 2n) or an
    elliptope_extreme_construct point (size "ext<r>")."""
    if size.startswith("exp"):
        W = exp_unit_vectors(int(size[3:]))
    else:
        r = int(size[3:])
        W = extreme_point_vectors(r * (r + 1) // 2 + int(rng.integers(0, 11)), r)
    r = W.shape[1]
    W = W[rng.permutation(len(W))]
    C = symmetric_gram(W)
    np.fill_diagonal(C, 1.0)
    N = len(C)
    src = write_json(stem.with_suffix(".in.json"),
                     {"n": N, "complex": False, "entries": C.ravel().tolist()})
    signs = np.array([1.0, -1.0])
    table = (1.0 + signs[:, None, None, None] * signs[None, :, None, None] * C) / 4.0
    half = r // 2

    def check(p):
        beh = p["behavior"]
        expect(beh["mA"] == N and beh["mB"] == N, "wrong question counts")
        expect(np.abs(np.asarray(beh["table"], dtype=float) - table).max() <= 1e-12,
               "behavior table differs from (1 + ab c_xy)/4")
        b = p["bounds"]
        expect(abs(b["rank_lower_bound"] - math.sqrt(r + 1)) <= 1e-12, "wrong rank bound")
        expect(b["rank_lower_bound_ceiling"] == math.ceil(math.sqrt(r + 1) - 1e-9),
               "wrong rank bound ceiling")
        dim = b["dimension_lower_bound"]
        expect(dim is not None and dim["ceiling"] == ceil_sqrt2_pow(half),
               f"dimension bound {dim}, want ceiling {ceil_sqrt2_pow(half)}")
        expect(abs(dim["value"] - SQRT2 ** half) <= 1e-9 * SQRT2 ** half, "wrong dimension bound")
        sim = p["simulation"]
        expect(sim["d"] == 2 ** half and sim["max_deviation"] <= TOL, "simulation disagrees")
        expect(p["affine_section_valid"] is True, "affine section not valid")

    out = stem.with_suffix(".out.json")
    return Op(f"behavior {size}", ["behavior", str(src), "--simulate", "--validate",
                                   "--out", str(out)], out, check, (src,))


# graphs -----------------------------------------------------------------------

def adjacency(n: int, edges) -> np.ndarray:
    A = np.zeros((n, n), dtype=np.int64)
    for u, v in edges:
        A[u, v] = A[v, u] = 1
    return A


def five_cycle_count(A: np.ndarray) -> int:
    """Number of 5-cycles, (tr A^5 - 5 tr A^3 - 5 sum_i (deg_i - 2)(A^3)_ii) / 10."""
    A3 = A @ A @ A
    A5 = A3 @ A @ A
    deg = A.sum(axis=1)
    return int(np.trace(A5) - 5 * np.trace(A3) - 5 * ((deg - 2) * np.diag(A3)).sum()) // 10


def relabel(n: int, edges, rng) -> list:
    perm = rng.permutation(n)
    return [(int(perm[u]), int(perm[v])) for u, v in edges]


def random_bipartite(rng, n: int, p: float) -> list:
    side = rng.random(n) < 0.5
    return [(u, v) for u in range(n) for v in range(u + 1, n)
            if side[u] != side[v] and rng.random() < p]


def gnp_graph(rng):
    """G(n, p) redrawn until it has a 5-cycle, so the verdict is known: not cpsd.

    p is at least 0.4: sparser draws sometimes send the path search into its
    exponential case for seconds or minutes (3 of 6000 draws with p in
    [0.25, 0.45] ran over 1 s, one for 24 s), which would break the run's
    time limit.  The apex classes measure that case on purpose."""
    while True:
        n = int(rng.integers(12, 25))
        p = rng.uniform(0.4, 0.6)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        if five_cycle_count(adjacency(n, edges)) > 0:
            return n, edges, False


def bipartite_graph(rng):
    n = int(rng.integers(12, 25))
    return n, random_bipartite(rng, n, 0.3), True


def book_tree_graph(rng):
    """Books K_{1,1,m} and even cycles glued at cut vertices: every block is a
    book or bipartite, so there is no odd cycle of length >= 5."""
    edges, n = [], 1
    while n < 12:
        anchor = int(rng.integers(0, n))
        if rng.random() < 0.7:  # book: hubs anchor and n, then the pages
            pages = range(n + 1, n + 1 + int(rng.integers(3, 6)))
            edges += [(anchor, n)] + [(x, y) for y in pages for x in (anchor, n)]
        else:  # even cycle through the anchor
            k = 2 * int(rng.integers(2, 4))
            ring = [anchor, *range(n, n + k - 1)]
            edges += [(ring[i], ring[(i + 1) % k]) for i in range(k)]
        n = max(max(e) for e in edges) + 1
    return n, relabel(n, edges, rng), True


def planted_cycle_graph(rng):
    """Random bipartite graph plus an odd cycle of length 5, 7 or 9 on random vertices."""
    n = int(rng.integers(12, 19))
    length = int(rng.choice([5, 7, 9]))
    ring = rng.choice(n, length, replace=False)
    edges = set(random_bipartite(rng, n, 0.2))
    edges |= {tuple(sorted((int(ring[i]), int(ring[(i + 1) % length])))) for i in range(length)}
    return n, sorted(edges), False


def apex_graph(rng, p: int, q: int):
    """Vertex 0 joined to one side A of K_{p,q} and to the first vertex of the
    other side B, plus a random pendant forest.  0 - b_1 - a - b - a' - 0 is a
    5-cycle, but the search from vertex 0 first walks every path behind 0 - a_1 - b_1."""
    A = list(range(1, p + 1))
    B = list(range(p + 1, p + q + 1))
    edges = [(a, b) for a in A for b in B] + [(0, a) for a in A] + [(0, B[0])]
    n = p + q + 1 + int(rng.integers(0, 25 - (p + q + 1)))
    edges += [(int(rng.integers(0, v)), v) for v in range(p + q + 1, n)]
    return n, edges, False


def check_witness(n: int, edges, cycle) -> None:
    expect(isinstance(cycle, list) and len(cycle) >= 5 and len(cycle) % 2 == 1,
           f"witness {cycle} is not an odd cycle of length >= 5")
    expect(len(set(cycle)) == len(cycle) and all(0 <= v < n for v in cycle),
           f"witness {cycle} repeats or leaves the vertex range")
    have = {frozenset(e) for e in edges}
    for u, v in zip(cycle, cycle[1:] + cycle[:1]):
        expect(frozenset((u, v)) in have, f"witness edge ({u}, {v}) is not in the graph")


GRAPH_FAMILIES = {
    "gnp": gnp_graph,
    "bipartite": bipartite_graph,
    "books": book_tree_graph,
    "planted": planted_cycle_graph,
    "apex66": lambda rng: apex_graph(rng, 6, 6),
    "apex56": lambda rng: apex_graph(rng, 5, 6),
}


def graph_op(size: str, rng, stem: Path) -> Op:
    n, edges, cpsd = GRAPH_FAMILIES[size](rng)
    src = write_json(stem.with_suffix(".in.json"), {"n": n, "edges": [list(e) for e in edges]})

    def check(p):
        expect(p["cpsd"] is cpsd, f"verdict {p['cpsd']}, want {cpsd}")
        if cpsd:
            expect(p["witness"] is None, "a cpsd graph has no witness")
        else:
            check_witness(n, edges, p["witness"])

    out = stem.with_suffix(".out.json")
    return Op(f"graph {size}", ["graph", str(src), "--out", str(out)], out, check, (src,))


def support_bound_op(rng, stem: Path) -> Op:
    """`bound --graph`: rank-one projectors orthogonal exactly on the non-edges."""
    n = 10
    edges = []
    while not edges:
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
    src = write_json(stem.with_suffix(".in.json"), {"n": n, "edges": [list(e) for e in edges]})
    A = adjacency(n, edges).astype(float)
    w = np.linalg.eigvalsh(A)
    bound = n - int(np.count_nonzero(np.abs(w - w[0]) <= 1e-8 * max(1.0, np.abs(w).max())))

    def check(p):
        expect(p["graph"] == {"n": n, "edges": [list(e) for e in sorted(edges)]},
               "graph echo differs from the input")
        expect(p["support_bound"] == bound, f"support bound {p['support_bound']}, want {bound}")
        fac = p["witness_factorization"]
        d = fac["d"]
        expect(d == bound and len(fac["factors"]) == n, "wrong witness shape")
        mats = [complex_matrix(f, d) for f in fac["factors"]]
        for u, P in enumerate(mats):
            expect(np.abs(P - P.conj().T).max() <= 1e-12, f"factor {u} is not Hermitian")
            expect(np.linalg.eigvalsh(P)[0] >= -1e-9, f"factor {u} is not psd")
        for u, v in itertools.combinations(range(n), 2):
            tr = np.sum(mats[u] * mats[v].T).real
            expect((tr > 1e-9) == bool(A[u, v]),
                   f"Tr(P_{u} P_{v}) = {tr:.3e}, adjacency {A[u, v]}")

    out = stem.with_suffix(".out.json")
    return Op("bound --graph", ["bound", str(src), "--graph", "--out", str(out)], out, check,
              (src,))


def cycle_sep_op(rng, stem: Path) -> Op:
    n = 2 * int(rng.choice([5, 7, 9]))  # 2l with l odd
    angles = 2 * np.pi * np.arange(n) / n
    vectors = np.stack([np.ones(n), np.cos(angles), np.sin(angles)], 1)
    gram = 1.0 + np.cos(angles[:, None] - angles[None, :])

    def check(p):
        vec = p["vectors"]
        expect(vec["m"] == 3 and np.abs(np.asarray(vec["vectors"]) - vectors).max() <= 1e-12,
               "wrong circle vectors")
        expect(np.abs(real_matrix(p["gram"], n) - gram).max() <= 1e-12, "wrong Gram matrix")
        cert = p["certificate"]
        expect(cert["valid"] is True and all(c["ok"] for c in cert["checks"].values()),
               "certificate not valid")
        expect(cert["pairs"] == [[k, k + n // 2] for k in range(n // 2)], "wrong pairing")
        expect(cert["odd_subset"] == list(range(0, n, 2)), "wrong odd subset")

    out = stem.with_suffix(".out.json")
    return Op("generate cycle-sep", ["generate", "cycle-sep", "--n", str(n), "--out", str(out)],
              out, check)


def odd_cycle_dnn_op(rng, stem: Path) -> Op:
    t = int(rng.integers(2, 9))
    n = 2 * t + 1
    ring = adjacency(n, [(i, (i + 1) % n) for i in range(n)])
    want = ring + 2 * math.cos(math.pi / n) * np.eye(n)

    def check(p):
        expect(np.abs(real_matrix(p["matrix"], n) - want).max() <= 1e-12, "wrong shifted cycle")
        cert = p["certificate"]
        expect(cert["valid"] is True and all(c["ok"] for c in cert["checks"].values()),
               "certificate not valid")
        expect((cert["i_star"], cert["j_star"]) == (0, 1), "wrong pivots")

    out = stem.with_suffix(".out.json")
    return Op("generate odd-cycle-dnn", ["generate", "odd-cycle-dnn", "--t", str(t),
                                         "--out", str(out)], out, check)


def build_graph_mix(size: str, rng, stem: Path) -> Op:
    if size == "bound":
        return support_bound_op(rng, stem)
    if size == "cycle-sep":
        return cycle_sep_op(rng, stem)
    if size == "odd-cycle-dnn":
        return odd_cycle_dnn_op(rng, stem)
    return graph_op(size, rng, stem)


# Round compositions.  The median and the tail sample (the one with ten
# samples beyond it) fall well inside one size class each, so which class holds
# them follows from the composition and the round count alone.  For the three
# heavy workloads min_rounds takes longer than 15 s of command time even on a
# fast machine, so at --seconds 15 every run does exactly that many rounds and
# the placement never moves.  Median and tail sit low in their class: the
# shared machine has slow spells, and a low order statistic stays out of them.
WORKLOADS = {
    # median and tail low in the n=5 class; n=6 is about half the command time
    "factorize-exp": Workload("factorize-exp", ("n4",) * 3 + ("n5",) * 4 + ("n6",),
                              3, "n4", build_factorize),
    # median a third into the n=5 class, tail second-lowest in the n=6 class
    "verify-exp": Workload("verify-exp", ("n4",) * 2 + ("n5",) * 3 + ("n6",), 12, "n4",
                           build_verify),
    # median a third into the exp5 class, tail third-lowest in the exp6 class
    "behavior-exp": Workload("behavior-exp", ("ext8",) * 4 + ("exp5",) * 5 + ("ext10", "exp6"),
                             13, "ext8", build_behavior),
    # many small requests, run for --seconds: the median among the small graph
    # commands, the tail in the apex66 class (11 or more of them)
    "graph-mix": Workload("graph-mix", ("gnp",) * 4 + ("bipartite", "bipartite", "books", "books",
                                                       "planted", "planted", "apex66", "apex56",
                                                       "bound", "bound", "cycle-sep",
                                                       "odd-cycle-dnn"),
                          11, "bipartite", build_graph_mix),
}
