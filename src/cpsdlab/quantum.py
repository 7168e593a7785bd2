"""State-vector simulation of two-party binary-outcome measurements.

A representation holds +-1-valued observables for each party and a shared
state, by default the maximally entangled state held implicitly. Behavior
tables are computed two ways: through the pairing identity

    Psi_d* (A (x) B) Psi_d = Tr(A B^T) / d,

which never materializes d^2-sized operators, and through an explicit
state-vector path used as an independent cross-check at small sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bell import Behavior, FullCorrelation, OUTCOMES
from .clifford import _gamma_size, gamma
from .errors import CapExceeded
from .matcore import HermMatrix, _unit_rows, spectral

EXPLICIT_PATH_CAP = 64

MAX_ENTANGLED = "max_entangled"


@dataclass(frozen=True, eq=False)
class QuantumRepresentation:
    """Observables M_x, N_y with eigenvalues in [-1, 1] and a shared state.

    ``state`` is either the literal ``"max_entangled"`` (the canonical
    maximally entangled state of local dimension d, held implicitly) or an
    explicit density matrix of size d^2 (psd, unit trace).
    """

    d: int
    row_observables: tuple[HermMatrix, ...]
    col_observables: tuple[HermMatrix, ...]
    state: str | HermMatrix = MAX_ENTANGLED

    def __post_init__(self) -> None:
        for side in (self.row_observables, self.col_observables):
            if not side:
                raise ValueError("each party needs at least one observable")
            for obs in side:
                if obs.n != self.d:
                    raise ValueError("observable size does not match d")
                w = spectral(obs).eigenvalues
                if w[0] < -1 - 1e-9 or w[-1] > 1 + 1e-9:
                    raise ValueError("observable has an eigenvalue outside [-1, 1]")
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

    The transpose on the column side is entrywise and never skipped; for a
    real vector the transpose of gamma(v) is a different matrix (the Y-words
    are imaginary) and dropping it breaks the pairing identity. Ambient
    dimension 1 is padded to 2 so the observables stay traceless and the
    resulting behavior unbiased. Raises CapExceeded before building any
    observable when they together exceed the gamma byte budget.
    """
    u = _unit_rows(U, "row")
    v = _unit_rows(V, "column")
    if u.shape[1] != v.shape[1]:
        raise ValueError("row and column vectors live in different dimensions")
    if u.shape[1] == 1:
        u = np.hstack([u, np.zeros((u.shape[0], 1))])
        v = np.hstack([v, np.zeros((v.shape[0], 1))])
    d = _gamma_size(u.shape[1], count=u.shape[0] + v.shape[0])
    rows = tuple(gamma(row) for row in u)
    cols = tuple(HermMatrix(gamma(row).entries.T) for row in v)
    return QuantumRepresentation(d=d, row_observables=rows, col_observables=cols)


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
        ex = np.array([np.trace(np.kron(m.entries, eye) @ rho).real
                       for m in rep.row_observables])
        ey = np.array([np.trace(np.kron(eye, nn.entries) @ rho).real
                       for nn in rep.col_observables])
        exy = np.array([[np.trace(np.kron(m.entries, nn.entries) @ rho).real
                         for nn in rep.col_observables]
                        for m in rep.row_observables])
        return ex, ey, exy
    ex = np.array([np.trace(m.entries).real / d for m in rep.row_observables])
    ey = np.array([np.trace(nn.entries).real / d for nn in rep.col_observables])
    # Tr(M N^T) = sum of M o N: one unconjugated dot per pair, no stacked copies
    exy = np.array([[np.dot(m.entries.ravel(), nn.entries.ravel()).real / d
                     for nn in rep.col_observables]
                    for m in rep.row_observables])
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
