"""Second-order (Lorentz) cone vectors, their isometric embedding into the
Hermitian psd cone, and Gram-matrix factorizations built from them.

A vector (c, x) in R x R^{m-1} lies in the cone L_m iff c >= |x|. A family
of n such vectors is one read-only (n, m) array whose rows are (c, x), and
`in_cone` decides membership for every row at once. The embedding

    (c, x)  ->  (1/sqrt(d)) (c I_d + gamma(x)),     d = 2^floor((m-1)/2),

preserves inner products exactly, and the image is psd iff the vector is in
the cone: gamma(x) has eigenvalues +-|x|, so the image's eigenvalues are
(c +- |x|)/sqrt(d). The degenerate tail dimension 1 is padded to 2 before
embedding (a 1 x 1 gamma cannot carry both eigenvalues +-|x|, which would
break the only-if direction); padding with a zero coordinate changes no
inner products and no cone memberships.

Gram matrices of cone vectors therefore always admit psd-factor
factorizations, with factor size controlled by the matrix rank via
`gl_reduce`. The factors are dense, d^2 complex doubles each, and a family's
factors are one (n, d, d) stack built by `lorentz_embeds` from one `gammas`
fill; a family whose factors together exceed `clifford.DENSE_BUDGET` bytes
is refused with CapExceeded before any factor is built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clifford import gammas
from .cpsdrank import CpsdFactorization
from .matcore import RANK_TOL, HermMatrix, _finite, _freeze, gram_vectors

MEMBER_TOL = 1e-10


def in_cone(V) -> np.ndarray:
    """Whether each row (c, x) of V lies in the cone, c >= |x| - MEMBER_TOL.

    Rows outside are valid vectors (the embedding is defined on all of R^m);
    they just map to non-psd matrices.
    """
    V = np.asarray(V, dtype=float)
    return V[:, 0] >= np.linalg.norm(V[:, 1:], axis=1) - MEMBER_TOL


@dataclass(frozen=True, eq=False)
class GramLorentzFactorization:
    """Family of n cone members sharing one ambient dimension m.

    ``vectors`` is a read-only float array of shape (n, m), n, m >= 1, whose
    rows are (c, x), validated once here: finite entries and every row in
    the cone. Rows failing membership by more than the boundary tolerance
    are rejected rather than projected; silent projection would corrupt the
    certificates built on top of these families.
    """

    vectors: np.ndarray

    def __post_init__(self) -> None:
        V = np.array(self.vectors, dtype=float, order="C")
        if V.ndim >= 1 and len(V) == 0:
            raise ValueError("factorization needs at least one vector")
        if V.ndim != 2 or V.shape[1] == 0:
            raise ValueError(f"cone vectors must form an (n, m) array with m >= 1, "
                             f"got shape {V.shape}")
        _finite(V, "cone vector")
        outside = np.flatnonzero(~in_cone(V))
        if outside.size:
            k = outside[0]
            raise ValueError(f"vector {k} is outside the cone: c = {V[k, 0]}, "
                             f"|x| = {np.linalg.norm(V[k, 1:])}")
        object.__setattr__(self, "vectors", _freeze(V))

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def m(self) -> int:
        return self.vectors.shape[1]


def lorentz_embeds(V) -> np.ndarray:
    """The embeddings (c I + gamma(x)) / sqrt(d) of the rows (c, x) of V, as
    one (n, d, d) complex stack: one `gammas` fill over the tails, c added on
    the diagonals and the whole stack divided by sqrt(d). Tails of length 1
    are padded to 2, and rows (c,) map to the 1 x 1 matrices [c]. Every image
    is exactly Hermitian with no -0.0 entry, and the stack counts against the
    gamma byte budget before it is allocated."""
    V = np.asarray(V, dtype=float)
    c, tails = V[:, 0], V[:, 1:]
    if tails.shape[1] == 0:
        return (c[:, None, None] + 0.0).astype(complex)  # c = -0.0 gives [0.0]
    if tails.shape[1] == 1:
        tails = np.hstack((tails, np.zeros_like(tails)))
    S = gammas(tails)
    d = S.shape[1]
    S.reshape(len(S), -1)[:, :: d + 1] += c[:, None]
    S /= np.sqrt(d)
    return S


def lorentz_embed(v) -> HermMatrix:
    """Isometric embedding (c I + gamma(x)) / sqrt(d) of one row v = (c, x):
    the one-row case of `lorentz_embeds`."""
    return HermMatrix(lorentz_embeds(np.asarray(v, dtype=float)[None])[0])


def gl_matrix(f: GramLorentzFactorization) -> np.ndarray:
    """Gram matrix of the cone vectors viewed as vectors in R^m."""
    return f.vectors @ f.vectors.T


def gl_reduce(f: GramLorentzFactorization, rank_tol: float = RANK_TOL) -> GramLorentzFactorization:
    """Re-coordinatize the tails into the span they actually occupy.

    First coordinates are kept; the tails are replaced by Gram vectors of the
    tail Gram matrix, truncating eigenvalues below the rank cut. Truncation
    only shrinks tail norms, so cone membership survives, and the new ambient
    dimension 1 + rank(tail Gram) never exceeds the old one (and is at most
    rank(Gram) + 2). All tails numerically zero collapse to the axis
    vectors (c,).
    """
    tails = f.vectors[:, 1:]
    if tails.shape[1] == 0:
        return f
    newtails = gram_vectors(tails @ tails.T, rank_tol=rank_tol)
    return GramLorentzFactorization(np.hstack((f.vectors[:, :1], newtails)))


def gl_to_cpsd(f: GramLorentzFactorization, rank_tol: float = RANK_TOL) -> CpsdFactorization:
    """Psd-factor factorization of gl_matrix(f) via reduce-then-embed.

    The factor size is 2^floor(k/2) for k = rank of the reduced tail Gram
    (with k = 1 padded to 2), hence at most 2^floor((rank + 1)/2) for
    rank = rank(gl_matrix(f)). Raises CapExceeded before embedding when the
    dense factors together exceed the gamma byte budget.
    """
    S = _freeze(lorentz_embeds(gl_reduce(f, rank_tol=rank_tol).vectors))
    return CpsdFactorization(d=S.shape[1], factors=S)


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

    big, small = max(a, c), min(a, c)
    rows = np.zeros((2, 3))
    if big > 0.0:
        h = np.sqrt(big / 2.0)
        rows[0] = (h, h, 0.0)
    if small > 0.0:
        geo = np.sqrt(big) * np.sqrt(small)
        t = np.clip((2.0 * b - geo) / geo, -1.0, 1.0)
        h = np.sqrt(small / 2.0)
        rows[1] = (h, h * t, h * np.sqrt(max(0.0, 1.0 - t * t)))
    return GramLorentzFactorization(rows if a >= c else rows[::-1])
