"""Second-order (Lorentz) cone vectors, their isometric embedding into the
Hermitian psd cone, and Gram-matrix factorizations built from them.

A vector (c, x) in R x R^{m-1} lies in the cone L_m iff c >= |x|. The
embedding

    (c, x)  ->  (1/sqrt(d)) (c I_d + gamma(x)),     d = 2^floor((m-1)/2),

preserves inner products exactly, and the image is psd iff the vector is in
the cone: gamma(x) has eigenvalues +-|x|, so the image's eigenvalues are
(c +- |x|)/sqrt(d). The degenerate tail dimension 1 is padded to 2 before
embedding (a 1 x 1 gamma cannot carry both eigenvalues +-|x|, which would
break the only-if direction); padding with a zero coordinate changes no
inner products and no cone memberships.

Gram matrices of cone vectors therefore always admit psd-factor
factorizations, with factor size controlled by the matrix rank via
`gl_reduce`. The factors are dense, d^2 complex doubles each; a family whose
factors together exceed `clifford.DENSE_BUDGET` bytes is refused with
CapExceeded before any factor is built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clifford import _gamma_size, gamma
from .cpsdrank import CpsdFactorization
from .matcore import RANK_TOL, HermMatrix, _freeze, gram_vectors

MEMBER_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class LorentzVector:
    """Vector (c, x) in R x R^{m-1} with its cone-membership status.

    Membership is decided at construction with an absolute boundary tolerance
    of 1e-10; non-members are valid values (the embedding is defined for all
    of R^m), they just map to non-psd matrices.
    """

    c: float
    x: np.ndarray

    def __post_init__(self) -> None:
        v = np.atleast_1d(np.asarray(self.x, dtype=float)).ravel()
        object.__setattr__(self, "c", float(self.c))
        object.__setattr__(self, "x", _freeze(v))

    @property
    def m(self) -> int:
        return 1 + self.x.shape[0]

    @property
    def is_member(self) -> bool:
        return self.c >= float(np.linalg.norm(self.x)) - MEMBER_TOL

    def as_array(self) -> np.ndarray:
        return np.concatenate(([self.c], self.x))


@dataclass(frozen=True, eq=False)
class GramLorentzFactorization:
    """Family of cone members sharing one ambient dimension.

    Vectors failing membership by more than the boundary tolerance are
    rejected rather than projected; silent projection would corrupt the
    certificates built on top of these families.
    """

    vectors: tuple[LorentzVector, ...]

    def __post_init__(self) -> None:
        if not self.vectors:
            raise ValueError("factorization needs at least one vector")
        ms = {v.m for v in self.vectors}
        if len(ms) != 1:
            raise ValueError(f"mixed ambient dimensions: {sorted(ms)}")
        for k, v in enumerate(self.vectors):
            if not v.is_member:
                raise ValueError(
                    f"vector {k} is outside the cone: c = {v.c}, |x| = {np.linalg.norm(v.x)}")

    @property
    def n(self) -> int:
        return len(self.vectors)

    @property
    def m(self) -> int:
        return self.vectors[0].m


def lorentz_embed(v: LorentzVector) -> HermMatrix:
    """Isometric embedding (c I + gamma(x)) / sqrt(d) of a single vector."""
    tail = v.x
    if tail.shape[0] == 1:
        tail = np.array([tail[0], 0.0])
    if tail.shape[0] == 0:
        return HermMatrix(np.array([[v.c]], dtype=complex))
    g = gamma(tail).entries
    d = g.shape[0]
    return HermMatrix((v.c * np.eye(d) + g) / np.sqrt(d))


def gl_matrix(f: GramLorentzFactorization) -> np.ndarray:
    """Gram matrix of the cone vectors viewed as vectors in R^m."""
    M = np.stack([v.as_array() for v in f.vectors])
    return M @ M.T


def gl_reduce(f: GramLorentzFactorization, rank_tol: float = RANK_TOL) -> GramLorentzFactorization:
    """Re-coordinatize the tails into the span they actually occupy.

    First coordinates are kept; the tails are replaced by Gram vectors of the
    tail Gram matrix, truncating eigenvalues below the rank cut. Truncation
    only shrinks tail norms, so cone membership survives, and the new ambient
    dimension 1 + rank(tail Gram) never exceeds the old one (and is at most
    rank(Gram) + 2).
    """
    tails = np.stack([v.x for v in f.vectors])
    if tails.shape[1] == 0:
        return f
    U = tails @ tails.T
    newtails = gram_vectors(U, rank_tol=rank_tol)
    if newtails.shape[1] == 0:
        # all tails numerically zero: collapse to axis vectors (c,)
        return GramLorentzFactorization(
            vectors=tuple(LorentzVector(v.c, np.zeros(0)) for v in f.vectors))
    return GramLorentzFactorization(
        vectors=tuple(LorentzVector(v.c, row) for v, row in zip(f.vectors, newtails)))


def gl_to_cpsd(f: GramLorentzFactorization, rank_tol: float = RANK_TOL) -> CpsdFactorization:
    """Psd-factor factorization of gl_matrix(f) via reduce-then-embed.

    The factor size is 2^floor(k/2) for k = rank of the reduced tail Gram
    (with k = 1 padded to 2), hence at most 2^floor((rank + 1)/2) for
    rank = rank(gl_matrix(f)). Raises CapExceeded before embedding when the
    dense factors together exceed the gamma byte budget.
    """
    reduced = gl_reduce(f, rank_tol=rank_tol)
    _gamma_size(reduced.m - 1, count=reduced.n)
    factors = tuple(lorentz_embed(v) for v in reduced.vectors)
    return CpsdFactorization(d=factors[0].n, factors=factors)


def gl2_factorize(a: float, b: float, c: float) -> GramLorentzFactorization:
    """Two vectors in L_3 whose Gram matrix is [[a, b], [b, c]].

    Requires the matrix to be doubly nonnegative (a, c >= 0, b >= 0,
    ac >= b^2). With the larger diagonal entry first, the construction is
        v1 = sqrt(a/2) (1, 1, 0),
        v2 = sqrt(c/2) (1, t, sqrt(1 - t^2)),   t = (2b - sqrt(ac)) / sqrt(ac),
    both on the cone boundary. A zero diagonal entry forces the matching row
    to zero (doubly nonnegative implies b = 0 then), and the corresponding
    vector degenerates to the zero vector.
    """
    slack = 1e-12
    if a < -slack or c < -slack or b < -slack:
        raise ValueError(f"not doubly nonnegative: a={a}, b={b}, c={c}")
    a, b, c = max(a, 0.0), max(b, 0.0), max(c, 0.0)
    # sqrt(a) * sqrt(c), never sqrt(a * c): the product underflows for
    # subnormal-scale inputs
    root = np.sqrt(a) * np.sqrt(c)
    # bound the accepted violation by the reproduction tolerance: the clip of
    # t below can only absorb an overshoot of b beyond sqrt(ac)
    if b > root + 1e-10 * max(1.0, root):
        raise ValueError(f"not doubly nonnegative: b = {b} exceeds sqrt(ac) = {root}")

    def pair(big: float, small: float) -> tuple[LorentzVector, LorentzVector]:
        v_big = LorentzVector(np.sqrt(big / 2.0), np.array([np.sqrt(big / 2.0), 0.0]))
        if small <= 0.0 or big <= 0.0:
            v_small = LorentzVector(0.0, np.zeros(2))
            if big <= 0.0:
                v_big = LorentzVector(0.0, np.zeros(2))
            return v_big, v_small
        geo = np.sqrt(big) * np.sqrt(small)
        t = np.clip((2.0 * b - geo) / geo, -1.0, 1.0)
        tail = np.sqrt(small / 2.0) * np.array([t, np.sqrt(max(0.0, 1.0 - t * t))])
        v_small = LorentzVector(np.sqrt(small / 2.0), tail)
        return v_big, v_small

    if a >= c:
        v1, v2 = pair(a, c)
        return GramLorentzFactorization(vectors=(v1, v2))
    v1, v2 = pair(c, a)
    return GramLorentzFactorization(vectors=(v2, v1))
