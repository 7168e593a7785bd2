"""Dense Hermitian matrix kernel.

Everything downstream (cone embeddings, factorizations, behaviors) is built
on a small set of exact-arithmetic-free primitives: one input gate
(``_square`` admits finite square arrays through ``_finite``, which the JSON
readers share; ``_symmetric`` adds the symmetry test and ``_unit_rows``
tests vector families), validated Hermitian carriers, spectral
classification with explicit tolerances, ``trace_pairings`` (each family
Tr(A_i B_j*) as one flat product), Gram/Kronecker/direct-sum algebra, and
the complex-to-real embedding that identifies a Hermitian matrix with a real
symmetric one of twice the size.

All operations are pure functions on immutable values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERM_TOL = 1e-12
RANK_TOL = 1e-8
PSD_TOL = 1e-9
CHUNK_BYTES = 2 ** 20  # temporaries of a stack-wide check are built this many bytes at a time


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _finite(a: np.ndarray, what: str) -> np.ndarray:
    """a itself; raises ValueError on NaN or infinite entries (a null read as float is NaN)."""
    if not np.isfinite(a).all():
        raise ValueError(f"{what} entries must be finite, got NaN, Infinity or null")
    return a


def _square(X, dtype=float) -> np.ndarray:
    """X as a finite two-dimensional square array; raises ValueError otherwise."""
    a = np.asarray(X, dtype=dtype)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return _finite(a, "matrix")


def _symmetric(X, tol: float = 1e-10, dtype=float) -> np.ndarray:
    """X as a finite square array equal to its conjugate transpose up to tol
    (entrywise, absolute), returned as (X + X*)/2 so the symmetry is exact;
    raises ValueError otherwise. Exactly symmetric input comes back unchanged."""
    a = _square(X, dtype)
    asym = float(np.abs(a - a.conj().T).max(initial=0.0))
    if asym > tol:
        kind = "symmetric" if a.dtype.kind == "f" else "Hermitian"
        raise ValueError(f"matrix is not {kind}: asymmetry {asym:.3e} > {tol:.0e}")
    return (a + a.conj().T) / 2


def _chunks(S: np.ndarray):
    """Consecutive slices of the stack S holding at most CHUNK_BYTES of matrices
    (at least one matrix each)."""
    step = max(1, CHUNK_BYTES // max(1, S[0].nbytes))
    return (S[i:i + step] for i in range(0, len(S), step))


def _hermitian_stack(S, what: str) -> np.ndarray:
    """S as a finite complex (m, d, d) stack, m >= 1, that is read-only, in C
    order and owns its memory; raises ValueError on non-finite entries and
    names the asymmetry of the first matrix that exceeds HERM_TOL.

    Smaller asymmetry is round-off and is removed by symmetrizing, as
    HermMatrix does. An exactly Hermitian stack is kept as it is, and copied
    only when it is writable, a view or not in C order; a read-only array
    that owns its memory is trusted not to change.
    """
    S = _finite(np.asarray(S, dtype=complex), what)
    asym = np.concatenate([np.abs(c - c.conj().transpose(0, 2, 1)).max(axis=(1, 2))
                           for c in _chunks(S)])
    bad = np.flatnonzero(asym > HERM_TOL)
    if bad.size:
        raise ValueError(f"{what} is not Hermitian: asymmetry {asym[bad[0]]:.3e} "
                         f"> {HERM_TOL:.0e}")
    if asym.any():
        S = np.ascontiguousarray((S + S.conj().transpose(0, 2, 1)) / 2)
    elif S.flags.writeable or not (S.flags.owndata and S.flags.c_contiguous):
        S = S.copy()
    return _freeze(S)


def _unit_rows(V, what: str, tol: float = 1e-8) -> np.ndarray:
    """V as a finite real array whose rows have unit length up to tol."""
    arr = _finite(np.atleast_2d(np.asarray(V, dtype=float)), f"{what} vector")
    dev = np.abs(np.linalg.norm(arr, axis=1) - 1.0).max(initial=0.0)
    if dev > tol:
        raise ValueError(f"{what} vectors must be unit length (max deviation {dev:.3e})")
    return arr


@dataclass(frozen=True, eq=False)
class HermMatrix:
    """Square complex Hermitian matrix with finite entries.

    Input with asymmetry at most ``HERM_TOL`` (entrywise, absolute) is
    symmetrized to (X + X*)/2, which absorbs float round-off without masking
    genuinely non-Hermitian data; larger asymmetry and non-finite entries
    raise. The diagonal is exactly real after symmetrization.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        a = _symmetric(self.entries, HERM_TOL, complex)
        if a.shape[0] == 0:
            raise ValueError("empty matrix")
        object.__setattr__(self, "entries", _freeze(a))

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def is_real(self, tol: float = HERM_TOL) -> bool:
        return bool(np.abs(self.entries.imag).max() <= tol)


@dataclass(frozen=True)
class SpectralReport:
    """Eigenvalue summary of a Hermitian matrix.

    ``rank`` counts eigenvalues strictly above ``rank_tol * max(1, |lambda_max|)``
    and ``is_psd`` holds iff the least eigenvalue is at least
    ``-psd_tol * max(1, |lambda_max|)``. The absolute thresholds actually
    applied are recorded so a report is auditable on its own.
    """

    eigenvalues: np.ndarray
    rank: int
    is_psd: bool
    tolerance_used: float
    psd_tolerance_used: float

    @property
    def min(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def max(self) -> float:
        return float(self.eigenvalues[-1])


def gram(vectors) -> HermMatrix:
    """Gram matrix of equal-length vectors, conjugate-linear in the first slot."""
    if len(vectors) == 0:
        raise ValueError("gram of an empty family")
    lengths = {len(v) for v in vectors}
    if len(lengths) != 1:
        raise ValueError(f"ragged vector lengths: {sorted(lengths)}")
    V = np.array(vectors, dtype=complex)
    return HermMatrix(V.conj() @ V.T)


def spectral(X: HermMatrix | np.ndarray, rank_tol: float = RANK_TOL,
             psd_tol: float = PSD_TOL) -> SpectralReport:
    """Eigenvalues (ascending), numerical rank and psd flag of a Hermitian matrix."""
    if rank_tol <= 0 or psd_tol <= 0:
        raise ValueError("tolerances must be positive")
    a = X.entries if isinstance(X, HermMatrix) else HermMatrix(X).entries
    try:
        w = np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(f"eigensolver failed to converge: {exc}") from exc
    scale = max(1.0, abs(float(w[-1])))
    rank_cut = rank_tol * scale
    psd_cut = psd_tol * scale
    return SpectralReport(
        eigenvalues=_freeze(w),
        rank=int(np.count_nonzero(w > rank_cut)),
        is_psd=bool(w[0] >= -psd_cut),
        tolerance_used=rank_cut,
        psd_tolerance_used=psd_cut,
    )


def kron(A: HermMatrix, B: HermMatrix) -> HermMatrix:
    """Kronecker product; preserves Hermiticity and positive semidefiniteness."""
    return HermMatrix(np.kron(A.entries, B.entries))


def direct_sum(A: HermMatrix, B: HermMatrix) -> HermMatrix:
    """Block-diagonal stacking of two Hermitian matrices."""
    n, m = A.n, B.n
    out = np.zeros((n + m, n + m), dtype=complex)
    out[:n, :n] = A.entries
    out[n:, n:] = B.entries
    return HermMatrix(out)


def trace_pairings(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The matrix [Tr(A_i B_j*)] for stacks A (n, d, d) and B (m, d, d): Tr(A B*)
    sums the entries of A times the conjugated entries of B, so the whole
    family is one product of the flattened stacks."""
    return A.reshape(len(A), -1) @ B.reshape(len(B), -1).conj().T


def trace_inner(A: HermMatrix, B: HermMatrix) -> float:
    """Hilbert-Schmidt inner product Tr(A B*) of two same-size Hermitian matrices."""
    if A.n != B.n:
        raise ValueError(f"size mismatch: {A.n} vs {B.n}")
    val = complex(trace_pairings(A.entries[None], B.entries[None])[0, 0])
    if abs(val.imag) > 1e-10:
        raise ValueError(f"inner product has nonreal value {val}")
    return float(val.real)


def real_embed(X: HermMatrix) -> np.ndarray:
    """Isometric embedding of a Hermitian n x n matrix as a real symmetric 2n x 2n one.

    Maps X to (1/sqrt(2)) [[Re X, -Im X], [Im X, Re X]]; positive
    semidefiniteness is preserved in both directions and Hilbert-Schmidt inner
    products are preserved exactly.
    """
    re, im = X.entries.real, X.entries.imag
    return np.block([[re, -im], [im, re]]) / np.sqrt(2.0)


def gram_vectors(X: np.ndarray, rank_tol: float = RANK_TOL) -> np.ndarray:
    """Rows are vectors in R^r whose Gram matrix reproduces the real psd matrix X.

    r is the numerical rank of X; eigenvalues at or below the rank cut are
    truncated, so the reconstruction error is bounded by the cut.
    """
    w, Q = np.linalg.eigh(_symmetric(X))
    scale = max(1.0, float(np.abs(w).max()) if w.size else 1.0)
    keep = w > rank_tol * scale
    if w.size and w[0] < -PSD_TOL * scale:
        raise ValueError(f"matrix is not psd: min eigenvalue {w[0]:.3e}")
    return Q[:, keep] * np.sqrt(w[keep])
