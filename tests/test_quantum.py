import numpy as np
import pytest

from conftest import PAULI_X, PAULI_Y, PAULI_Z, pairing_tol, random_elliptope
from cpsdlab import quantum
from cpsdlab.bell import (behavior_from_correlation, behavior_to_full,
                          exponential_family_vectors, no_signaling_check)
from cpsdlab.clifford import gamma
from cpsdlab.errors import CapExceeded
from cpsdlab.matcore import HermMatrix, gram_vectors, spectral
from cpsdlab.quantum import (
    povm_pair,
    QuantumRepresentation,
    entangled_trace_identity,
    full_correlation_of,
    max_entangled,
    representation_from_vectors,
    simulate_behavior,
)


class TestMaxEntangled:
    def test_trivial(self):
        assert np.allclose(max_entangled(1), [1.0])

    def test_dimension_two(self):
        assert np.allclose(max_entangled(2), np.array([1, 0, 0, 1]) / np.sqrt(2))

    @pytest.mark.parametrize("d", [1, 2, 3, 8, 17, 64])
    def test_unit_norm(self, d):
        assert np.linalg.norm(max_entangled(d)) == pytest.approx(1.0)

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            max_entangled(0)


class TestTraceIdentity:
    def test_identity_pair(self):
        eye = HermMatrix(np.eye(2))
        lhs, rhs = entangled_trace_identity(eye, eye)
        assert lhs == pytest.approx(1.0, abs=1e-12) and rhs == pytest.approx(1.0, abs=1e-12)

    def test_z_pair(self):
        z = HermMatrix(PAULI_Z)
        lhs, rhs = entangled_trace_identity(z, z)
        assert lhs == pytest.approx(1.0) and rhs == pytest.approx(1.0)

    def test_x_y_pair_vanishes(self):
        lhs, rhs = entangled_trace_identity(HermMatrix(PAULI_X), HermMatrix(PAULI_Y))
        assert lhs == pytest.approx(0.0, abs=1e-12)
        assert rhs == pytest.approx(0.0, abs=1e-12)

    def test_random_pairs_agree(self, rng):
        for d in (2, 3, 5):
            for _ in range(10):
                a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                b = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                lhs, rhs = entangled_trace_identity(
                    HermMatrix((a + a.conj().T) / 2), HermMatrix((b + b.conj().T) / 2))
                assert abs(lhs - rhs) <= 1e-10

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            entangled_trace_identity(HermMatrix(np.eye(2)), HermMatrix(np.eye(3)))


class TestRepresentationFromVectors:
    def test_basis_vector_gives_pauli_x(self):
        rep = representation_from_vectors(np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]]))
        assert rep.d == 2
        assert np.abs(rep.row_observables[0] - PAULI_X).max() == 0.0
        plus = (np.eye(2) + rep.row_observables[0]) / 2
        assert spectral(HermMatrix(plus)).rank == 1

    def test_observables_square_to_identity(self, rng):
        k = 5
        U = rng.standard_normal((3, k))
        U /= np.linalg.norm(U, axis=1, keepdims=True)
        rep = representation_from_vectors(U, U)
        for m in np.concatenate([rep.row_observables, rep.col_observables]):
            assert np.abs(m @ m - np.eye(rep.d)).max() < 1e-12

    def test_rank_two_vectors_give_qubit_observables(self):
        from cpsdlab.bell import elliptope_extreme_construct

        C = elliptope_extreme_construct(3, 2)
        U = gram_vectors(C)
        rep = representation_from_vectors(U, U)
        assert rep.d == 2

    def test_column_side_is_transposed(self):
        rep = representation_from_vectors(np.array([[0.0, 1.0]]), np.array([[0.0, 1.0]]))
        # gamma of e_2 in the plane is the imaginary Pauli word; transpose flips it
        assert np.abs(rep.row_observables[0] - PAULI_Y).max() == 0.0
        assert np.abs(rep.col_observables[0] - PAULI_Y.T).max() == 0.0

    def test_column_stack_is_the_transpose_bit_for_bit(self, rng):
        # the column side is the row fill conjugated in place, signed zeros included
        for k in (1, 2, 5, 8, 11):
            V = rng.standard_normal((4, k))
            V[:, 1::3] = -0.0
            V /= np.linalg.norm(V, axis=1, keepdims=True)
            rep = representation_from_vectors(V, V)
            padded = V if k > 1 else np.hstack([V, np.zeros((4, 1))])
            for i, v in enumerate(padded):
                g = gamma(v).entries
                assert np.array_equal(rep.row_observables[i].view(np.uint64),
                                      g.view(np.uint64))
                assert np.array_equal(rep.col_observables[i].view(np.uint64),
                                      np.ascontiguousarray(g.T).view(np.uint64))

    def test_povm_completeness_is_exact(self, rng):
        U = rng.standard_normal((2, 4))
        U /= np.linalg.norm(U, axis=1, keepdims=True)
        rep = representation_from_vectors(U, U)
        for m in rep.row_observables:
            plus, minus = povm_pair(HermMatrix(m))
            assert np.array_equal(plus.entries + minus.entries, np.eye(rep.d))
            assert spectral(plus).is_psd
            assert spectral(minus).is_psd

    def test_ambient_one_is_padded_to_unbiased_observables(self):
        rep = representation_from_vectors(np.array([[1.0]]), np.array([[-1.0]]))
        assert rep.d == 2
        assert abs(np.trace(rep.row_observables[0])) == 0.0

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError, match="unit"):
            representation_from_vectors(np.array([[2.0, 0.0]]), np.array([[1.0, 0.0]]))

    @pytest.mark.parametrize("side", ["row", "column"])
    def test_vector_longer_than_the_spectrum_tolerance_rejected_by_party(self, side):
        # inside the 1e-8 unit tolerance, but gamma(u) would have eigenvalue
        # 1 + 5e-9, beyond SPECTRUM_TOL
        long = np.array([[1.0 + 5e-9, 0.0, 0.0]])
        unit = np.eye(3)[:1]
        U, V = (long, unit) if side == "row" else (unit, long)
        with pytest.raises(ValueError, match=rf"^{side} vector longer than 1 \+ 1e-09: "
                                             r"its length exceeds 1 by 5\.000e-09$"):
            representation_from_vectors(U, V)

    def test_vector_shorter_within_the_unit_tolerance_accepted(self):
        short = np.array([[1.0 - 5e-9, 0.0, 0.0], [0.0, 1.0, 0.0]])
        rep = representation_from_vectors(short, short)
        assert (rep.m_a, rep.m_b, rep.d) == (2, 2, 2)
        w = np.linalg.eigvalsh(rep.row_observables[0])
        assert np.allclose(w, [-(1.0 - 5e-9), 1.0 - 5e-9], rtol=0, atol=1e-15)


class TestPairingPath:
    @pytest.mark.parametrize("d", [2, 8, 16, 32, 64])
    def test_matches_per_pair_trace_loop(self, rng, d):
        def observable():
            z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            q, _ = np.linalg.qr(z)
            return HermMatrix(q @ np.diag(rng.uniform(-1.0, 1.0, d)) @ q.conj().T).entries

        rows = [observable() for _ in range(5)]
        cols = [observable() for _ in range(4)]
        got = full_correlation_of(QuantumRepresentation(
            d=d, row_observables=np.stack(rows), col_observables=np.stack(cols)))
        assert got.c_xy.shape == (5, 4)
        eye = np.eye(d)
        for x, m in enumerate(rows):
            assert abs(got.c_x[x] - np.trace(m).real / d) <= pairing_tol(m, eye)
        for y, nn in enumerate(cols):
            assert abs(got.c_y[y] - np.trace(nn).real / d) <= pairing_tol(nn, eye)
        for x, m in enumerate(rows):
            for y, nn in enumerate(cols):
                want = np.trace(m @ nn.T).real / d
                assert abs(got.c_xy[x, y] - want) <= pairing_tol(m, nn) / d


class TestSimulate:
    def test_elliptope_correlation_reproduced(self):
        from cpsdlab.bell import elliptope_extreme_construct

        for n, r in [(3, 2), (6, 3)]:
            C = elliptope_extreme_construct(n, r)
            U = gram_vectors(C)
            rep = representation_from_vectors(U, U)
            sim = simulate_behavior(rep)
            want = behavior_from_correlation(C)
            assert np.abs(sim.table - want.table).max() < 1e-9

    def test_rank_one_correlation_reproduced_via_padding(self, rng):
        C = random_elliptope(rng, 3, 1)
        U = gram_vectors(C)
        rep = representation_from_vectors(U, U)
        sim = simulate_behavior(rep)
        assert np.abs(sim.table - behavior_from_correlation(C).table).max() < 1e-12

    def test_trivial_deterministic_representation(self):
        one = np.eye(1)[None]
        rep = QuantumRepresentation(d=1, row_observables=one, col_observables=one)
        p = simulate_behavior(rep)
        assert p.prob(1, 1, 0, 0) == pytest.approx(1.0)

    def test_explicit_state_matches_identity_path(self, rng):
        for k in (2, 3, 4, 6):  # local dimensions 2, 2, 4, 8
            U = rng.standard_normal((2, k))
            U /= np.linalg.norm(U, axis=1, keepdims=True)
            rep = representation_from_vectors(U, U)
            psi = max_entangled(rep.d)
            rho = HermMatrix(np.outer(psi, psi.conj()))
            explicit = QuantumRepresentation(
                d=rep.d, row_observables=rep.row_observables,
                col_observables=rep.col_observables, state=rho)
            a = simulate_behavior(rep)
            b = simulate_behavior(explicit)
            assert np.abs(a.table - b.table).max() < 1e-10

    def test_outputs_are_valid_and_no_signaling(self, rng):
        U = rng.standard_normal((3, 5))
        U /= np.linalg.norm(U, axis=1, keepdims=True)
        V = rng.standard_normal((2, 5))
        V /= np.linalg.norm(V, axis=1, keepdims=True)
        p = simulate_behavior(representation_from_vectors(U, V))
        assert no_signaling_check(p)


class TestFullCorrelationOf:
    def test_gamma_representation_is_unbiased(self, rng):
        C = random_elliptope(rng, 4, 3)
        U = gram_vectors(C)
        rep = representation_from_vectors(U, U)
        full = full_correlation_of(rep)
        assert np.abs(full.c_x).max() < 1e-12
        assert np.abs(full.c_y).max() < 1e-12
        assert np.abs(full.c_xy - C).max() < 1e-9

    def test_identity_observables(self):
        one = np.eye(1)[None]
        rep = QuantumRepresentation(d=1, row_observables=one, col_observables=one)
        full = full_correlation_of(rep)
        assert full.c_xy[0, 0] == pytest.approx(1.0)

    def test_consistent_with_simulation(self, rng):
        U = rng.standard_normal((2, 4))
        U /= np.linalg.norm(U, axis=1, keepdims=True)
        rep = representation_from_vectors(U, U)
        via_behavior = behavior_to_full(simulate_behavior(rep))
        direct = full_correlation_of(rep)
        assert np.abs(via_behavior.c_xy - direct.c_xy).max() < 1e-12
        assert np.abs(via_behavior.c_x - direct.c_x).max() < 1e-12


def _count_eigensolver_calls(monkeypatch) -> list:
    """Patch numpy's Hermitian eigensolvers to count their calls."""
    calls = []
    for name in ("eigvalsh", "eigh"):
        original = getattr(np.linalg, name)

        def counted(*args, _original=original, **kwargs):
            calls.append(args[0].shape)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


class TestRepresentationValidation:
    def test_observable_eigenvalue_bound_enforced(self):
        big = 2 * np.eye(2)[None]
        with pytest.raises(ValueError, match="row observable has an eigenvalue outside"):
            QuantumRepresentation(d=2, row_observables=big, col_observables=np.eye(2)[None])

    def test_unit_gamma_observables_need_no_eigendecomposition(self, monkeypatch, rng):
        U = rng.standard_normal((6, 9))
        U /= np.linalg.norm(U, axis=1, keepdims=True)
        calls = _count_eigensolver_calls(monkeypatch)
        rep = representation_from_vectors(U, U)
        assert rep.d == 16 and calls == []

    def test_exp_family_n6_needs_no_eigendecomposition(self, monkeypatch):
        W = exponential_family_vectors(6)
        calls = _count_eigensolver_calls(monkeypatch)
        rep = representation_from_vectors(W, W)
        assert (rep.m_a, rep.m_b, rep.d) == (78, 78, 64) and calls == []

    def test_non_involution_inside_the_interval_accepted_through_eigenvalues(
            self, monkeypatch, rng):
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        m = HermMatrix(q @ np.diag([-0.9, -0.2, 0.5, 0.99]) @ q.conj().T).entries
        calls = _count_eigensolver_calls(monkeypatch)
        rep = QuantumRepresentation(d=4, row_observables=m[None],
                                    col_observables=np.eye(4)[None])
        assert calls == [(4, 4)]  # the identity is certified, m is not
        assert np.array_equal(rep.row_observables[0], m)

    @pytest.mark.parametrize("top", [1 + 1e-6, 1 + 1e-8, 1 + 1.5e-9])
    def test_eigenvalue_just_above_one_rejected(self, top):
        # a near-involution: ||m^2 - I||_F = 2 (top - 1) + (top - 1)^2 misses the
        # certificate, and the eigenvalues decide
        m = np.diag([top, -1.0])[None]
        with pytest.raises(ValueError, match="column observable has an eigenvalue outside"):
            QuantumRepresentation(d=2, row_observables=np.eye(2)[None], col_observables=m)

    def test_eigenvalue_within_tolerance_certified(self, monkeypatch):
        m = np.diag([1 + 9e-10, -1.0])[None]  # ||m^2 - I||_F = 1.8e-9
        calls = _count_eigensolver_calls(monkeypatch)
        rep = QuantumRepresentation(d=2, row_observables=m, col_observables=m)
        assert rep.m_a == rep.m_b == 1 and calls == []

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_observable_rejected(self, bad):
        m = np.zeros((2, 2, 2), dtype=complex)
        m[1, 0, 1] = m[1, 1, 0] = bad
        with pytest.raises(ValueError, match="row observable entries must be finite"):
            QuantumRepresentation(d=2, row_observables=m, col_observables=np.eye(2)[None])

    def test_non_hermitian_observable_rejected(self):
        m = np.array([[[0.0, 1.0], [0.5, 0.0]]])
        with pytest.raises(ValueError, match="column observable is not Hermitian"):
            QuantumRepresentation(d=2, row_observables=np.eye(2)[None], col_observables=m)

    def test_round_off_asymmetry_symmetrized(self):
        m = PAULI_Y[None] + np.array([[[0.0, 1e-13], [0.0, 0.0]]])
        rep = QuantumRepresentation(d=2, row_observables=m, col_observables=m)
        got = rep.row_observables[0]
        assert np.array_equal(got, got.conj().T)
        assert np.abs(got - PAULI_Y).max() <= 1e-13

    @pytest.mark.parametrize("shape", [(2, 2), (1, 2, 3), (1, 3, 3), (2, 2, 2, 2)])
    def test_wrongly_shaped_stack_rejected(self, shape):
        with pytest.raises(ValueError, match="row observables: expected a stack"):
            QuantumRepresentation(d=2, row_observables=np.zeros(shape),
                                  col_observables=np.eye(2)[None])

    def test_empty_stack_rejected(self):
        with pytest.raises(ValueError, match="the column party has none"):
            QuantumRepresentation(d=2, row_observables=np.eye(2)[None],
                                  col_observables=np.zeros((0, 2, 2)))

    def test_stacks_are_read_only_and_own_their_memory(self):
        m = np.eye(2, dtype=complex)[None].copy()
        rep = QuantumRepresentation(d=2, row_observables=m, col_observables=m)
        m[0, 0, 0] = 5.0
        assert rep.row_observables[0, 0, 0] == 1.0
        with pytest.raises(ValueError, match="read-only"):
            rep.col_observables[0, 0, 0] = 5.0

    def test_explicit_state_must_be_normalized(self):
        eye = np.eye(2)[None]
        with pytest.raises(ValueError, match="unit trace"):
            QuantumRepresentation(d=2, row_observables=eye, col_observables=eye,
                                  state=HermMatrix(np.eye(4)))

    def test_explicit_state_must_be_psd(self):
        eye = np.eye(2)[None]
        bad = np.diag([1.5, -0.5, 0.0, 0.0])
        with pytest.raises(ValueError, match="psd"):
            QuantumRepresentation(d=2, row_observables=eye, col_observables=eye,
                                  state=HermMatrix(bad))

    def test_budget_checked_before_building_observables(self, monkeypatch):
        # exp-family n = 9: 2 x 171 observables of size 512 exceed the budget
        W = exponential_family_vectors(9)

        def refuse(X):
            raise AssertionError("built an observable before checking the budget")

        monkeypatch.setattr(quantum, "gammas", refuse)
        with pytest.raises(CapExceeded, match="342 dense 512 x 512"):
            representation_from_vectors(W, W)
