"""State-vector simulation of two-party binary-outcome measurements.

A representation holds each party's observables, Hermitian with spectrum in
[-1, 1], as one read-only (m, d, d) stack, and a shared state, by default
the maximally entangled state held implicitly. Behavior tables are computed
two ways: through the pairing identity

    Psi_d* (A (x) B) Psi_d = Tr(A B^T) / d,

which never materializes d^2-sized operators and pairs every row observable
with every column observable in one product of the flattened stacks, and
through an explicit state-vector path used as an independent cross-check at
small sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bell import Behavior, FullCorrelation, OUTCOMES
from .clifford import _gamma_size, gammas
from .errors import CapExceeded
from .matcore import HermMatrix, _freeze, _hermitian_stack, _unit_rows, spectral

EXPLICIT_PATH_CAP = 64
SPECTRUM_TOL = 1e-9  # observable eigenvalues may exceed 1 in size by this much

MAX_ENTANGLED = "max_entangled"


def _within_unit_interval(m: np.ndarray) -> bool:
    """Whether every eigenvalue of the Hermitian matrix m lies in
    [-1 - SPECTRUM_TOL, 1 + SPECTRUM_TOL].

    Each eigenvalue of m satisfies |lambda^2 - 1| <= ||m^2 - I||_F, so a
    residual of at most 2 SPECTRUM_TOL gives |lambda| <= 1 + SPECTRUM_TOL
    without an eigendecomposition; an involution such as gamma(u) with
    |u| = 1 passes this way. Any other observable is decided by its
    eigenvalues.
    """
    sq = m @ m
    sq.flat[:: len(m) + 1] -= 1.0
    if np.linalg.norm(sq) <= 2 * SPECTRUM_TOL:
        return True
    w = spectral(m).eigenvalues
    return bool(w[0] >= -1 - SPECTRUM_TOL and w[-1] <= 1 + SPECTRUM_TOL)


def _observable_stack(obs, d: int, side: str) -> np.ndarray:
    """obs as a read-only (m, d, d) complex stack of m >= 1 Hermitian
    matrices with spectrum in [-1, 1]; raises ValueError naming the party
    otherwise. Asymmetry and copies are handled by `_hermitian_stack`.
    """
    s = np.asarray(obs, dtype=complex)
    if s.ndim >= 1 and len(s) == 0:
        raise ValueError(f"each party needs at least one observable, "
                         f"the {side} party has none")
    if s.ndim != 3 or s.shape[1:] != (d, d):
        raise ValueError(f"{side} observables: expected a stack of matrices of "
                         f"size d = {d}, got shape {s.shape}")
    s = _hermitian_stack(s, f"{side} observable")
    for m in s:
        if not _within_unit_interval(m):
            raise ValueError(f"{side} observable has an eigenvalue outside [-1, 1]")
    return s


@dataclass(frozen=True, eq=False)
class QuantumRepresentation:
    """Observables M_x, N_y and a shared state.

    ``row_observables`` and ``col_observables`` are read-only complex stacks
    of shape (m_a, d, d) and (m_b, d, d). Each stack is validated once, here:
    at least one matrix, finite entries, Hermitian up to ``HERM_TOL`` and
    every eigenvalue in [-1, 1] up to ``SPECTRUM_TOL``. ``state`` is either the literal
    ``"max_entangled"`` (the canonical maximally entangled state of local
    dimension d, held implicitly) or an explicit density matrix of size d^2
    (psd, unit trace).
    """

    d: int
    row_observables: np.ndarray
    col_observables: np.ndarray
    state: str | HermMatrix = MAX_ENTANGLED

    def __post_init__(self) -> None:
        object.__setattr__(self, "row_observables",
                           _observable_stack(self.row_observables, self.d, "row"))
        object.__setattr__(self, "col_observables",
                           _observable_stack(self.col_observables, self.d, "column"))
        if isinstance(self.state, HermMatrix):
            if self.state.n != self.d * self.d:
                raise ValueError("explicit state must have size d^2")
            if not spectral(self.state).is_psd:
                raise ValueError("explicit state is not psd")
            if abs(np.trace(self.state.entries).real - 1.0) > 1e-10:
                raise ValueError("explicit state does not have unit trace")
        elif self.state != MAX_ENTANGLED:
            raise ValueError(f"unknown state tag {self.state!r}")

    @property
    def m_a(self) -> int:
        return len(self.row_observables)

    @property
    def m_b(self) -> int:
        return len(self.col_observables)


def max_entangled(d: int) -> np.ndarray:
    """The unit vector (1/sqrt(d)) sum_i e_i (x) e_i in C^{d^2}."""
    if d < 1:
        raise ValueError("d must be positive")
    psi = np.zeros(d * d, dtype=complex)
    psi[:: d + 1] = 1.0 / np.sqrt(d)
    return psi


def entangled_trace_identity(A: HermMatrix, B: HermMatrix) -> tuple[float, float]:
    """Both sides of Psi* (A (x) B) Psi = Tr(A B^T) / d, evaluated independently.

    The left side goes through the explicit d^2 state vector and Kronecker
    product; the right side is a plain trace. Disagreement beyond 1e-10
    raises, so a broken pairing can never pass silently.
    """
    if A.n != B.n:
        raise ValueError(f"size mismatch: {A.n} vs {B.n}")
    d = A.n
    psi = max_entangled(d)
    lhs_c = complex(psi.conj() @ (np.kron(A.entries, B.entries) @ psi))
    rhs_c = complex(np.trace(A.entries @ B.entries.T)) / d
    if abs(lhs_c.imag) > 1e-10 or abs(rhs_c.imag) > 1e-10:
        raise ValueError("pairing produced a nonreal value")
    lhs, rhs = float(lhs_c.real), float(rhs_c.real)
    if abs(lhs - rhs) > 1e-10:
        raise ValueError(f"trace identity violated: {lhs} vs {rhs}")
    return lhs, rhs


def representation_from_vectors(U, V) -> QuantumRepresentation:
    """Observables gamma(u_x) and gamma(v_y)^T from unit vectors, maximally
    entangled state implied.

    The transpose on the column side is never skipped; for a real vector the
    transpose of gamma(v) is a different matrix (the Y-words are imaginary)
    and dropping it breaks the pairing identity. gamma(v) is exactly
    Hermitian, so its transpose is its entrywise conjugate, taken in place on
    the column stack. Ambient dimension 1 is padded to 2 so the observables
    stay traceless and the resulting behavior unbiased. Vectors may be
    shorter than 1 within the unit tolerance of `_unit_rows`, but not longer
    than 1 + SPECTRUM_TOL. Raises CapExceeded before building any observable
    when they together exceed the gamma byte budget.
    """
    u = _unit_rows(U, "row")
    v = _unit_rows(V, "column")
    if u.shape[1] != v.shape[1]:
        raise ValueError("row and column vectors live in different dimensions")
    for w, side in ((u, "row"), (v, "column")):
        # gamma(w) has eigenvalues +-|w|, so a longer w fails the observable gate
        excess = np.linalg.norm(w, axis=1).max(initial=0.0) - 1.0
        if excess > SPECTRUM_TOL:
            raise ValueError(f"{side} vector longer than 1 + {SPECTRUM_TOL:.0e}: "
                             f"its length exceeds 1 by {excess:.3e}")
    if u.shape[1] == 1:
        u = np.hstack([u, np.zeros((u.shape[0], 1))])
        v = np.hstack([v, np.zeros((v.shape[0], 1))])
    d = _gamma_size(u.shape[1], count=u.shape[0] + v.shape[0])
    rows = gammas(u)
    cols = gammas(v)
    # 0 - y rather than -y: zero imaginary parts stay +0.0, as in gamma(v)^T
    np.subtract(0.0, cols.imag, out=cols.imag)
    return QuantumRepresentation(d=d, row_observables=_freeze(rows),
                                 col_observables=_freeze(cols))


def povm_pair(obs: HermMatrix) -> tuple[HermMatrix, HermMatrix]:
    """The two-outcome measurement ((I + M)/2, (I - M)/2) of an observable.

    The pair sums to the identity exactly by construction; both elements are
    psd whenever the observable's eigenvalues lie in [-1, 1].
    """
    eye = np.eye(obs.n)
    return (HermMatrix((eye + obs.entries) / 2.0),
            HermMatrix((eye - obs.entries) / 2.0))


def _expectations(rep: QuantumRepresentation) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(E[a|x], E[b|y], E[ab|xy]) under the representation's state."""
    d = rep.d
    if isinstance(rep.state, HermMatrix):
        if d > EXPLICIT_PATH_CAP:
            raise CapExceeded(f"explicit-state path capped at d = {EXPLICIT_PATH_CAP}")
        rho = rep.state.entries
        eye = np.eye(d)
        ex = np.array([np.trace(np.kron(m, eye) @ rho).real
                       for m in rep.row_observables])
        ey = np.array([np.trace(np.kron(eye, nn) @ rho).real
                       for nn in rep.col_observables])
        exy = np.array([[np.trace(np.kron(m, nn) @ rho).real
                         for nn in rep.col_observables]
                        for m in rep.row_observables])
        return ex, ey, exy
    R, C = rep.row_observables, rep.col_observables
    ex = np.trace(R, axis1=1, axis2=2).real / d
    ey = np.trace(C, axis1=1, axis2=2).real / d
    # Tr(M N^T) sums the entries of M o N: every pair at once is one
    # unconjugated product of the flattened stacks, views with no copies
    exy = (R.reshape(rep.m_a, -1) @ C.reshape(rep.m_b, -1).T).real / d
    return ex, ey, exy


def simulate_behavior(rep: QuantumRepresentation) -> Behavior:
    """Behavior table p(ab|xy) = <(I + a M_x)/2 (x) (I + b N_y)/2> under the state."""
    ex, ey, exy = _expectations(rep)
    signs = np.array(OUTCOMES, dtype=float)
    a = signs[:, None, None, None]
    b = signs[None, :, None, None]
    t = (1.0 + a * ex[None, None, :, None] + b * ey[None, None, None, :]
         + a * b * exy[None, None, :, :]) / 4.0
    # zero out float noise in the tolerated band; real violations still trip
    # the Behavior validator
    t = np.where((t < 0.0) & (t > -1e-12), 0.0, t)
    return Behavior(table=t)


def full_correlation_of(rep: QuantumRepresentation) -> FullCorrelation:
    """Expectations (c_x, c_y, c_xy) of the observables under the state."""
    ex, ey, exy = _expectations(rep)
    return FullCorrelation(c_x=ex, c_y=ey, c_xy=exy)
