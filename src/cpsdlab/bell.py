"""Two-outcome correlation matrices, behaviors, and the elliptope geometry
that yields correlation families whose quantum realizations need
exponentially large systems.

Outcome labels are +1 and -1 everywhere; behavior tables are stored with
index order (a, b, x, y), the sign axes listing +1 before -1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapExceeded
from .matcore import (PSD_TOL, RANK_TOL, _finite, _freeze, _square, _symmetric, _unit_rows,
                      gram_vectors, spectral)
from .lorentz import GramLorentzFactorization

OUTCOMES = (1, -1)
_HALF_SIGNS = 0.5 * np.array(OUTCOMES, dtype=float)  # the factors (0.5 a) of the cone vectors

EXP_FAMILY_CAP = 13  # input guard on n; the dense factors only fit the byte budget for n <= 8


@dataclass(frozen=True, eq=False)
class CorrelationMatrix:
    """Real n x m matrix of two-outcome correlations, entries in [-1, 1]."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        a = np.array(self.entries, dtype=float)
        if a.ndim != 2:
            raise ValueError("correlation matrix must be two-dimensional")
        _finite(a, "correlation")
        if np.abs(a).max(initial=0.0) > 1 + 1e-12:
            raise ValueError(f"correlation entries exceed 1 in modulus: {np.abs(a).max():.6f}")
        object.__setattr__(self, "entries", _freeze(a))

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @property
    def m(self) -> int:
        return self.entries.shape[1]


@dataclass(frozen=True, eq=False)
class Behavior:
    """Conditional probability table p(ab|xy), a and b in {+1, -1}.

    ``table[ia, ib, x, y]`` holds p(ab|xy) with index 0 mapping to outcome +1
    and index 1 to -1. Entries must be nonnegative (to 1e-12) and sum to one
    over the outcome axes for every question pair (to 1e-10), and be finite.
    """

    table: np.ndarray

    def __post_init__(self) -> None:
        t = np.array(self.table, dtype=float)
        if t.ndim != 4 or t.shape[:2] != (2, 2):
            raise ValueError(f"behavior table must have shape (2, 2, mA, mB), got {t.shape}")
        _finite(t, "behavior table")
        if t.min() < -1e-12:
            raise ValueError(f"negative probability {t.min():.3e}")
        totals = t.sum(axis=(0, 1))
        if np.abs(totals - 1.0).max() > 1e-10:
            raise ValueError("outcome probabilities do not sum to 1 for some question pair")
        object.__setattr__(self, "table", _freeze(t))

    @property
    def m_a(self) -> int:
        return self.table.shape[2]

    @property
    def m_b(self) -> int:
        return self.table.shape[3]

    def prob(self, a: int, b: int, x: int, y: int) -> float:
        return float(self.table[OUTCOMES.index(a), OUTCOMES.index(b), x, y])


@dataclass(frozen=True, eq=False)
class FullCorrelation:
    """Expected values (c_x, c_y, c_xy) of single outcomes and their products."""

    c_x: np.ndarray
    c_y: np.ndarray
    c_xy: np.ndarray

    def __post_init__(self) -> None:
        cx = np.array(self.c_x, dtype=float).ravel()
        cy = np.array(self.c_y, dtype=float).ravel()
        cxy = np.array(self.c_xy, dtype=float)
        if cxy.shape != (cx.size, cy.size):
            raise ValueError("c_xy shape does not match question counts")
        for name, arr in (("c_x", cx), ("c_y", cy), ("c_xy", cxy)):
            if np.abs(_finite(arr, name)).max(initial=0.0) > 1 + 1e-12:
                raise ValueError(f"{name} has an entry outside [-1, 1]")
        object.__setattr__(self, "c_x", _freeze(cx))
        object.__setattr__(self, "c_y", _freeze(cy))
        object.__setattr__(self, "c_xy", _freeze(cxy))


def as_correlation(C) -> CorrelationMatrix:
    if isinstance(C, CorrelationMatrix):
        return C
    return CorrelationMatrix(np.asarray(C, dtype=float))


def behavior_to_full(p: Behavior) -> FullCorrelation:
    """Expectation values of a behavior: c_x = E[a|x], c_y = E[b|y], c_xy = E[ab|xy].

    Single-party expectations are averaged over the other party's questions,
    which is exact for no-signaling tables.
    """
    t = p.table
    signs = np.array(OUTCOMES, dtype=float)
    pa = t.sum(axis=1).mean(axis=2)  # (2, mA)
    pb = t.sum(axis=0).mean(axis=1)  # (2, mB)
    c_x = signs @ pa
    c_y = signs @ pb
    c_xy = np.einsum("a,b,abxy->xy", signs, signs, t)
    return FullCorrelation(c_x=c_x, c_y=c_y, c_xy=c_xy)


def full_to_behavior(c: FullCorrelation) -> Behavior:
    """Table p(ab|xy) = (1 + a c_x + b c_y + ab c_xy) / 4; raises if any entry is negative."""
    signs = np.array(OUTCOMES, dtype=float)
    a = signs[:, None, None, None]
    b = signs[None, :, None, None]
    cx = c.c_x[None, None, :, None]
    cy = c.c_y[None, None, None, :]
    cxy = c.c_xy[None, None, :, :]
    t = (1.0 + a * cx + b * cy + a * b * cxy) / 4.0
    if t.min() < -1e-12:
        raise ValueError("expectations do not define a nonnegative probability table")
    return Behavior(table=np.where(t < 0.0, 0.0, t))


def behavior_from_correlation(C) -> Behavior:
    """Unbiased behavior p(ab|xy) = (1 + ab c_xy) / 4 of a correlation matrix."""
    c = as_correlation(C)
    signs = np.array(OUTCOMES, dtype=float)
    t = (1.0 + np.einsum("a,b,xy->abxy", signs, signs, c.entries)) / 4.0
    return Behavior(table=t)


def behavior_matrix(C) -> np.ndarray:
    """The 2n x 2m block matrix (1/4) [[J+C, J-C], [J-C, J+C]].

    Rows are indexed (a, x) with the +1 block first, columns (b, y) likewise;
    entry ((a, x), (b, y)) is p(ab|xy) of the unbiased behavior of C.
    """
    c = as_correlation(C).entries
    J = np.ones_like(c)
    return np.block([[J + c, J - c], [J - c, J + c]]) / 4.0


def gl_behavior_factorization(C, U, V, tol: float = 1e-8) -> GramLorentzFactorization:
    """Cone-vector family whose Gram matrix realizes the unbiased behavior of C.

    U and V are unit vectors with <u_x, v_y> = c_xy. The family is
    (1/2)(1, a u_x) for each question x of the row party (outcome +1 first),
    followed by (1/2)(1, b v_y) for the column party. For each question the
    two signed vectors sum to e_1, which is exactly what makes the full Gram
    matrix satisfy the affine normalization checked by
    `validate_affine_section`.
    """
    c = as_correlation(C)
    u = _unit_rows(U, "row")
    v = _unit_rows(V, "column")
    if u.shape[0] != c.n or v.shape[0] != c.m:
        raise ValueError("vector counts do not match the correlation shape")
    if u.shape[1] != v.shape[1]:
        raise ValueError("row and column vectors live in different dimensions")
    dev = np.abs(u @ v.T - c.entries).max()
    if dev > tol:
        raise ValueError(f"<u_x, v_y> does not reproduce the correlations: "
                         f"max deviation {dev:.3e}")
    # a product with the signs, so the a = -1 rows hold -0.0 where u holds 0.0
    tails = (_HALF_SIGNS[:, None] * np.concatenate((u, v))[:, None, :]).reshape(-1, u.shape[1])
    return GramLorentzFactorization(np.hstack((np.full((len(tails), 1), 0.5), tails)))


def behavior_matrix_factorization(C, U=None, tol: float = 1e-8) -> GramLorentzFactorization:
    """Cone-vector family whose Gram matrix equals behavior_matrix(C).

    For a square correlation matrix with a symmetric vector realization
    U = V (in particular any elliptope member via its Gram vectors), the 2n
    vectors (1/2)(1, a u_x), ordered +1 block first to match the row layout
    of `behavior_matrix`, have Gram matrix exactly (1/4)[[J+C, J-C], [J-C, J+C]].
    """
    c = as_correlation(C)
    if c.n != c.m:
        raise ValueError("a symmetric realization needs a square correlation matrix")
    if U is None:
        if not elliptope_member(c.entries):
            raise ValueError("correlation matrix is not an elliptope member; "
                             "supply unit vectors explicitly")
        U = gram_vectors(c.entries)
    u = _unit_rows(U, "row")
    dev = np.abs(u @ u.T - c.entries).max()
    if dev > tol:
        raise ValueError(f"<u_x, u_y> does not reproduce the correlations: "
                         f"max deviation {dev:.3e}")
    tails = (_HALF_SIGNS[:, None, None] * u).reshape(-1, u.shape[1])
    return GramLorentzFactorization(np.hstack((np.full((len(tails), 1), 0.5), tails)))


def elliptope_member(X: np.ndarray, psd_tol: float = PSD_TOL, diag_tol: float = 1e-9) -> bool:
    """Symmetric psd with unit diagonal, up to tolerance."""
    a = _square(X)
    try:
        a = _symmetric(a)
    except ValueError:  # a is square and finite, so only asymmetry gets here
        return False
    if np.abs(np.diag(a) - 1.0).max() > diag_tol:
        return False
    return spectral(a, psd_tol=psd_tol).is_psd


@dataclass(frozen=True)
class ExtremeReport:
    is_extreme: bool
    rank: int
    span_dim: int

    @property
    def required_dim(self) -> int:
        return self.rank * (self.rank + 1) // 2


def elliptope_extreme_test(X: np.ndarray, rank_tol: float = RANK_TOL) -> ExtremeReport:
    """Extreme-point test for an elliptope member.

    With a Gram representation u_1, ..., u_n in R^r (r = rank X), the matrix
    is an extreme point iff the outer products u_i u_i^T span the full
    r(r+1)/2-dimensional space of symmetric matrices. The span dimension is
    the numerical rank of the Gram matrix of the vectorized outer products.
    """
    a = np.asarray(X, dtype=float)
    if not elliptope_member(a):
        raise ValueError("matrix is not in the elliptope")
    V = gram_vectors(a, rank_tol=rank_tol)
    r = V.shape[1]
    # row i is the symmetric vectorization of u_i u_i^T, sqrt(2)-weighted off
    # the diagonal so that <svec(A), svec(B)> = Tr(A B)
    i, j = np.triu_indices(r, k=1)
    S = np.hstack((V ** 2, math.sqrt(2.0) * (V[:, i] * V[:, j])))
    span_dim = spectral(S @ S.T, rank_tol=rank_tol).rank
    return ExtremeReport(is_extreme=span_dim == r * (r + 1) // 2, rank=r, span_dim=span_dim)


def r_max(n: int) -> int:
    """Largest rank of an extreme point of the n-dimensional elliptope."""
    if n < 1:
        raise ValueError("n must be positive")
    return (math.isqrt(1 + 8 * n) - 1) // 2


def elliptope_extreme_construct(n: int, r: int) -> np.ndarray:
    """n x n elliptope extreme point of rank exactly r (1 <= r <= r_max(n)).

    Gram matrix of: e_1 repeated n + 1 - r(r+1)/2 times, then e_2, ..., e_r,
    then the normalized pair sums (e_i + e_j)/sqrt(2) for i < j <= r.
    """
    if not 1 <= r <= r_max(n):
        raise ValueError(f"rank {r} outside the feasible range 1..{r_max(n)} for n = {n}")
    eye = np.eye(r)
    vecs = [eye[0]] * (n + 1 - r * (r + 1) // 2)
    vecs += [eye[i] for i in range(1, r)]
    vecs += [(eye[i] + eye[j]) / math.sqrt(2.0) for i in range(r) for j in range(i + 1, r)]
    V = np.stack(vecs)
    return V @ V.T


def dq_lower_bound(report: ExtremeReport) -> tuple[float, int]:
    """Lower bound sqrt(2)^floor(rank/2) on the local dimension of any quantum
    realization of the unbiased behavior of an extreme correlation matrix,
    read from its `elliptope_extreme_test` report.

    The extremality hypothesis is load-bearing, so the bound is refused
    (raises) rather than silently emitted for a report that does not certify
    it. Returns (value, integer ceiling); even powers are computed in exact
    integer arithmetic.
    """
    if not report.is_extreme:
        raise ValueError("extremality not certified; run elliptope_extreme_test first")
    half = report.rank // 2
    if half % 2 == 0:
        ceiling = 1 << (half // 2)
        return float(ceiling), ceiling
    value = (1 << (half // 2)) * math.sqrt(2.0)
    return value, math.ceil(value)


def _pair_index(dim: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(dim) for j in range(i + 1, dim)]


def exponential_family_vectors(n: int) -> np.ndarray:
    """Unit vectors in R^{2n} whose Gram matrix is the exponential-family
    correlation matrix: the 2n basis vectors, then (e_i + e_j)/sqrt(2) for
    i < j in lexicographic order."""
    dim = 2 * n
    eye = np.eye(dim)
    rows = [eye[i] for i in range(dim)]
    rows += [(eye[i] + eye[j]) / math.sqrt(2.0) for i, j in _pair_index(dim)]
    return np.stack(rows)


def exponential_family(n: int) -> tuple[CorrelationMatrix, np.ndarray]:
    """Correlation matrix of size N = 2n^2 + n with rank 2n, and its behavior matrix.

    Questions are indexed by 2-element multisets of [2n]: first the multisets
    {i, i} ordered by i, then the pairs {i, j} (i < j) lexicographically. The
    blocks are built from closed forms so output entries are byte-stable:
    identity on the multiset-diagonal block, 1/sqrt(2) where a singleton index
    meets a containing pair, and half the intersection size between pairs.
    The matrix is an extreme point of the elliptope, so the behavior matrix
    carries the dimension lower bound sqrt(2)^n while factorizing through
    cone vectors with ambient dimension 2n + 1.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > EXP_FAMILY_CAP:
        raise CapExceeded(f"n = {n} exceeds the family cap {EXP_FAMILY_CAP}")
    dim = 2 * n
    pairs = _pair_index(dim)
    inv_s2 = 1.0 / math.sqrt(2.0)
    A = np.zeros((dim, len(pairs)))
    for i in range(dim):
        for col, (k, l) in enumerate(pairs):
            if i == k or i == l:
                A[i, col] = inv_s2
    B = np.zeros((len(pairs), len(pairs)))
    for row, (i, j) in enumerate(pairs):
        for col, (k, l) in enumerate(pairs):
            B[row, col] = 0.5 * len({i, j} & {k, l})
    C = np.block([[np.eye(dim), A], [A.T, B]])
    return CorrelationMatrix(C), behavior_matrix(C)


def no_signaling_check(p: Behavior, tol: float = 1e-10) -> bool:
    """Each party's marginals are independent of the other party's question."""
    t = p.table
    pa = t.sum(axis=1)  # (2, mA, mB): marginal of a given (x, y)
    pb = t.sum(axis=0)  # (2, mA, mB): marginal of b given (x, y)
    a_ok = np.abs(pa - pa.mean(axis=2, keepdims=True)).max() <= tol
    b_ok = np.abs(pb - pb.mean(axis=1, keepdims=True)).max() <= tol
    return bool(a_ok and b_ok)


def validate_affine_section(R: np.ndarray, p: Behavior, tol: float = 1e-10) -> bool:
    """Check the affine normalization tying a Gram matrix to a behavior.

    R is indexed question-major: rows/columns 2x + ia for the row party
    (ia = 0 for outcome +1), then an offset block 2y + ib for the column
    party. R must be symmetric, within-party 2x2 blocks must sum to 1,
    cross-party blocks must sum to 1, and each cross-party entry must equal
    p(ab|xy); every comparison is within `tol`.
    """
    ma, mb = p.m_a, p.m_b
    r = np.asarray(R, dtype=float)
    size = 2 * ma + 2 * mb
    if r.shape != (size, size):
        raise ValueError(f"expected a {size} x {size} matrix, got {r.shape}")
    m = ma + mb
    # blocks[i, j]: sum of the 2 x 2 block of question i (row party first) and question j
    blocks = r.reshape(m, 2, m, 2).sum(axis=(1, 3))
    within_and_cross = np.concatenate((blocks[:ma].ravel(), blocks[ma:, ma:].ravel()))
    cross = r[:2 * ma, 2 * ma:].reshape(ma, 2, mb, 2).transpose(1, 3, 0, 2)
    return bool(np.all(np.abs(r - r.T) <= tol)
                and np.all(np.abs(within_and_cross - 1.0) <= tol)
                and np.all(np.abs(cross - p.table) <= tol))
