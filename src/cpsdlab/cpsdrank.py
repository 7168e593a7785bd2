"""Factorizations X_ij = Tr(P_i P_j) with Hermitian psd factors: verification,
size-preserving combinators, and lower bounds on the smallest achievable
factor size.

A factorization holds its n factors as one read-only (n, d, d) complex stack,
validated once; the Gram matrix is one product of the flattened stack, and
the combinators (scale, permute, add, dsum, conjugate, compress) are array
expressions over it.

The smallest factor size itself is never "computed"; the honest output is a
BoundReport pairing certified lower bounds with an optional constructive
upper bound.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapExceeded
from .matcore import (PSD_TOL, RANK_TOL, _chunks, _hermitian_stack, _square, _symmetric,
                      gram_vectors, spectral, trace_pairings)

HADAMARD_ENTRY_CAP = 20
INVOLUTION_TOL = 1e-8  # relative residual up to which a factor is certified without eigenvalues


def _psd_certified(S: np.ndarray) -> np.ndarray:
    """For each matrix P of the Hermitian stack S, whether P is certified psd
    without an eigendecomposition; False means undecided, not refused.

    With t = Tr P / d, Q = P - t I, s^2 = Tr Q^2 / d and r = ||Q^2 - s^2 I||_F,
    every eigenvalue q of Q has |q^2 - s^2| <= r, so the eigenvalues of P lie
    in t +- sqrt(s^2 + r), and Q, traceless, has its largest eigenvalue at
    least sqrt(s^2 - r). Only a Q close to a scaled involution is tried
    (0 < r <= INVOLUTION_TOL s^2); an embedded cone vector has
    Q^2 = |x|^2 I / d. It is accepted when the lower bound on lambda_min
    meets spectral's cut -PSD_TOL max(1, |lambda_max|) taken at the lower bound
    on lambda_max, so the certificate never accepts what `spectral` refuses.
    The rounding of the sums and products is charged against both bounds.
    """
    d = S.shape[-1]
    eps = d * np.finfo(float).eps  # the rounding of a sum of d terms
    idx = np.arange(d)
    out = []
    for P in _chunks(S):
        t = np.trace(P, axis1=1, axis2=2).real / d
        Q = P.copy()
        Q[:, idx, idx] -= t[:, None]
        R = Q @ Q
        s2 = np.trace(R, axis1=1, axis2=2).real / d
        R[:, idx, idx] -= s2[:, None]
        r = np.linalg.norm(R.reshape(len(R), -1), axis=1) + d * eps * s2
        err = eps * (np.abs(t) + np.sqrt(s2))
        low = t - np.sqrt(s2 + r) - err
        high = t + np.sqrt(np.maximum(s2 - r, 0.0)) - err
        out.append((s2 > 0) & (r <= INVOLUTION_TOL * s2)
                   & (low >= -PSD_TOL * np.maximum(1.0, high)))
    return np.concatenate(out)


@dataclass(frozen=True, eq=False)
class CpsdFactorization:
    """Family of n same-size Hermitian psd factors.

    ``factors`` is one read-only complex stack of shape (n, d, d), n, d >= 1,
    that owns its memory. It is validated once, here: finite entries,
    Hermitian up to ``HERM_TOL`` (see `_hermitian_stack`) and every factor psd
    as `spectral` decides it. Factors that `_psd_certified` accepts, every
    embedded cone vector among them, need no eigendecomposition; the rest are
    decided by spectral's rule on one batched eigvalsh. Any sequence of n
    matrices of size d may be passed in.
    """

    d: int
    factors: np.ndarray

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError("factor size must be at least 1")
        if len(self.factors) == 0:
            raise ValueError("factorization needs at least one factor")
        for k, p in enumerate(self.factors):
            shape = np.shape(p)
            if len(shape) != 2 or shape[0] != shape[1]:
                raise ValueError(f"expected a square matrix, got shape {shape}")
            if shape[0] != self.d:
                raise ValueError(f"factor {k} has size {shape[0]}, expected {self.d}")
        S = _hermitian_stack(self.factors, "matrix")
        undecided = np.flatnonzero(~_psd_certified(S))
        if undecided.size:
            w = np.linalg.eigvalsh(S[undecided])
            # spectral's rule: lambda_min >= -PSD_TOL max(1, |lambda_max|)
            refused = undecided[w[:, 0] < -PSD_TOL * np.maximum(1.0, np.abs(w[:, -1]))]
            if refused.size:
                raise ValueError(f"factor {refused[0]} is not positive semidefinite")
        object.__setattr__(self, "factors", S)

    @property
    def n(self) -> int:
        return len(self.factors)

    def gram(self) -> np.ndarray:
        """The matrix Tr(P_i P_j) this family factorizes (P_j = P_j*), as one
        complex product of the flattened stack."""
        return trace_pairings(self.factors, self.factors).real


@dataclass(frozen=True)
class VerifyReport:
    """Residual check of a factorization; ``factors_psd`` is always true, because
    a CpsdFactorization decides psd once, at construction, on read-only factors."""

    ok: bool
    max_residual: float
    tol: float
    factors_psd: bool


@dataclass(frozen=True)
class BoundReport:
    """Certified bracket on the smallest factor size of a given matrix.

    Real-valued lower bounds are kept alongside their integer ceiling (the
    factor size is integral). ``upper``, when present, comes from an explicit
    verified factorization or construction named by ``upper_provenance``.
    Ceilings snap within 1e-9 of an integer downwards, so float noise on an
    exactly-integral bound cannot inflate the reported ceiling.
    """

    lower_analytic: float
    lower_rank: float
    lower_combined_int: int
    upper: int | None = None
    upper_provenance: str | None = None

    def __post_init__(self) -> None:
        if self.upper is not None and self.lower_combined_int > self.upper:
            raise ValueError(
                f"inconsistent report: ceiling lower bound {self.lower_combined_int} "
                f"exceeds upper bound {self.upper}"
            )


def ceil_snapped(value: float, snap: float = 1e-9) -> int:
    """Ceiling that forgives float noise just above an integer."""
    return int(math.ceil(value - snap))


def verify_factorization(X: np.ndarray, f: CpsdFactorization, tol: float = 1e-8) -> VerifyReport:
    """Check max_ij |X_ij - Tr(P_i P_j)| <= tol; the factors are psd by type."""
    a = _square(X)
    if a.shape[0] != f.n:
        raise ValueError(f"target size {a.shape[0]} does not match factor count {f.n}")
    residual = float(np.abs(a - f.gram()).max())
    return VerifyReport(ok=residual <= tol, max_residual=residual, tol=tol, factors_psd=True)


def _check_nonnegative(X: np.ndarray) -> np.ndarray:
    a = _square(X)
    if a.min() < 0:
        raise ValueError(f"matrix has a negative entry: {a.min():.3e}")
    return a


def analytic_lower_bound(X: np.ndarray) -> float:
    """(sum_i sqrt(X_ii))^2 / sum_ij X_ij, a trace-based lower bound on factor size.

    Never exceeds the matrix size. Requires entrywise nonnegative input with
    positive total sum.
    """
    a = _check_nonnegative(X)
    total = float(a.sum())
    if total <= 0:
        raise ValueError("matrix has zero total sum")
    return float(np.sqrt(np.diag(a)).sum() ** 2) / total


def scaled_analytic_bound(X: np.ndarray, iters: int = 100) -> float:
    """Best analytic bound over searched positive diagonal congruences D X D.

    Coordinate-wise multiplicative updates; each sweep fixes all but one scale
    and moves it to the stationary point of the one-variable bound. The result
    is never below the unscaled bound.
    """
    base = analytic_lower_bound(X)
    a = np.asarray(X, dtype=float)
    n = a.shape[0]
    s = np.sqrt(np.diag(a))

    def bound(dvec: np.ndarray) -> float:
        num = float((dvec * s).sum()) ** 2
        den = float(dvec @ a @ dvec)
        return num / den if den > 0 else 0.0

    d = np.ones(n)
    best = bound(d)
    for _ in range(max(0, iters)):
        moved = False
        for k in range(n):
            if s[k] == 0.0:
                continue
            rest = d.copy()
            rest[k] = 0.0
            num_rest = float((rest * s).sum())
            cross = float(rest @ a[k])
            den_rest = float(rest @ a @ rest)
            # stationary point of ((num_rest + t s_k)^2)/(den_rest + 2 t cross + t^2 a_kk)
            denom = cross * s[k] - num_rest * a[k, k]
            if abs(denom) < 1e-300:
                continue
            t = (num_rest * cross - s[k] * den_rest) / denom
            if not np.isfinite(t) or t <= 0:
                continue
            cand = d.copy()
            cand[k] = t
            val = bound(cand)
            if val > best + 1e-15:
                d, best, moved = cand, val, True
        if not moved:
            break
    return max(best, base)


def rank_lower_bound(X: np.ndarray) -> float:
    """sqrt(rank X); valid because size-d Hermitian factors live in a d^2-dimensional space."""
    rep = spectral(_symmetric(X))
    if not rep.is_psd:
        raise ValueError("matrix is not positive semidefinite")
    return math.sqrt(rep.rank)


def scale(f: CpsdFactorization, diag: np.ndarray) -> CpsdFactorization:
    """Factorization of D X D for a positive diagonal D: P_i -> diag_i * P_i."""
    dvec = np.asarray(diag, dtype=float)
    if dvec.shape != (f.n,):
        raise ValueError(f"diagonal length {dvec.shape} does not match factor count {f.n}")
    if dvec.min() <= 0:
        raise ValueError("diagonal entries must be strictly positive")
    return CpsdFactorization(d=f.d, factors=dvec[:, None, None] * f.factors)


def permute(f: CpsdFactorization, perm) -> CpsdFactorization:
    """Factorization of P X P^T: reorder the factors by the permutation."""
    p = list(perm)
    if sorted(p) != list(range(f.n)):
        raise ValueError(f"not a permutation of 0..{f.n - 1}: {p}")
    return CpsdFactorization(d=f.d, factors=f.factors[p])


def add(f: CpsdFactorization, g: CpsdFactorization) -> CpsdFactorization:
    """Factorization of X + Y via blockwise factors P_i (+) Q_i."""
    if f.n != g.n:
        raise ValueError(f"factor counts differ: {f.n} vs {g.n}")
    out = np.zeros((f.n, f.d + g.d, f.d + g.d), dtype=complex)
    out[:, :f.d, :f.d] = f.factors
    out[:, f.d:, f.d:] = g.factors
    return CpsdFactorization(d=f.d + g.d, factors=out)


def dsum(f: CpsdFactorization, g: CpsdFactorization) -> CpsdFactorization:
    """Factorization of the block-diagonal X (+) Y; factor sizes and counts add."""
    out = np.zeros((f.n + g.n, f.d + g.d, f.d + g.d), dtype=complex)
    out[:f.n, :f.d, :f.d] = f.factors
    out[f.n:, f.d:, f.d:] = g.factors
    return CpsdFactorization(d=f.d + g.d, factors=out)


def conjugate(f: CpsdFactorization, U: np.ndarray) -> CpsdFactorization:
    """Factorization with every factor replaced by U* P U for a unitary U.

    Conjugation leaves every trace inner product, and hence the factorized
    matrix, unchanged.
    """
    u = np.asarray(U, dtype=complex)
    if u.shape != (f.d, f.d):
        raise ValueError(f"unitary must be {f.d} x {f.d}, got {u.shape}")
    if np.abs(u.conj().T @ u - np.eye(f.d)).max() > 1e-10:
        raise ValueError("matrix is not unitary")
    return CpsdFactorization(d=f.d, factors=u.conj().T @ f.factors @ u)


def compress(f: CpsdFactorization, rank_tol: float = RANK_TOL) -> CpsdFactorization:
    """Equivalent factorization of size rank(sum_i P_i).

    Every factor's range sits inside the range of the factor sum, so
    restricting all factors to that subspace changes no inner products. The
    result never has larger factors, and for a size-optimal input it is a
    no-op.
    """
    w, Q = np.linalg.eigh(f.factors.sum(axis=0))  # a sum of exactly Hermitian factors
    basis = Q[:, w > rank_tol * max(1.0, abs(float(w[-1])))]
    if basis.shape[1] == 0:
        # all factors numerically zero
        return CpsdFactorization(d=1, factors=np.zeros((f.n, 1, 1)))
    return CpsdFactorization(d=basis.shape[1], factors=basis.conj().T @ f.factors @ basis)


def hadamard_sqrt_psd(X: np.ndarray, entry_cap: int = HADAMARD_ENTRY_CAP,
                      psd_tol: float = PSD_TOL):
    """Search for a psd Hadamard square root of a symmetric nonnegative matrix.

    Returns a symmetric sign pattern s (entries +-1, diagonal +1) such that
    s o sqrt(X) is psd, or None when no pattern works. Signs vary only on
    off-diagonal support entries (diagonal roots are forced nonnegative, and
    the sign of a zero entry is irrelevant); patterns are scanned in
    lexicographic order with +1 before -1, so the returned pattern is the
    lexicographically smallest valid one and the output is deterministic.
    """
    a = _symmetric(_check_nonnegative(X), 1e-12)
    n = a.shape[0]
    if n > 20:
        raise CapExceeded(f"matrix size {n} exceeds the Hadamard search cap 20")
    support = [(i, j) for i in range(n) for j in range(i + 1, n) if a[i, j] > 1e-10]
    if len(support) > entry_cap:
        raise CapExceeded(
            f"{len(support)} off-diagonal support entries exceed the cap {entry_cap}")
    root = np.sqrt(a)
    for signs in itertools.product((1, -1), repeat=len(support)):
        pattern = np.ones((n, n), dtype=int)
        cand = root.copy()
        for s, (i, j) in zip(signs, support):
            pattern[i, j] = pattern[j, i] = s
            cand[i, j] = cand[j, i] = s * root[i, j]
        if spectral(cand, psd_tol=psd_tol).is_psd:
            return pattern
    return None


def rank_one_factors(root: np.ndarray, rank_tol: float = RANK_TOL) -> CpsdFactorization:
    """Rank-one factorization of root o root from a symmetric psd root.

    Gram vectors g_i of the root give factors g_i g_i^T with
    Tr(P_i P_j) = <g_i, g_j>^2 = root_ij^2; the factor size is the numerical
    rank of the root.
    """
    V = gram_vectors(np.asarray(root, dtype=float), rank_tol=rank_tol)
    W = np.zeros((len(V), max(1, V.shape[1])))
    W[:, : V.shape[1]] = V
    return CpsdFactorization(d=W.shape[1], factors=W[:, :, None] * W[:, None, :])


def bound_report(X: np.ndarray, scale_search: bool = False, iters: int = 100,
                 upper: int | None = None,
                 upper_provenance: str | None = None) -> BoundReport:
    """Assemble the certified lower bounds (and optional upper bound) for X."""
    a = _symmetric(X)
    analytic = scaled_analytic_bound(a, iters=iters) if scale_search else analytic_lower_bound(a)
    rank_b = rank_lower_bound(a)
    return BoundReport(
        lower_analytic=analytic,
        lower_rank=rank_b,
        lower_combined_int=ceil_snapped(max(analytic, rank_b)),
        upper=upper,
        upper_provenance=upper_provenance,
    )
