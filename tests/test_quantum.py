import numpy as np
import pytest

from conftest import PAULI_X, PAULI_Y, PAULI_Z, pairing_tol, random_elliptope
from cpsdlab import quantum
from cpsdlab.bell import (behavior_from_correlation, behavior_to_full,
                          exponential_family_vectors, no_signaling_check)
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
        assert np.abs(rep.row_observables[0].entries - PAULI_X).max() == 0.0
        plus = (np.eye(2) + rep.row_observables[0].entries) / 2
        assert spectral(HermMatrix(plus)).rank == 1

    def test_observables_square_to_identity(self, rng):
        k = 5
        U = rng.standard_normal((3, k))
        U /= np.linalg.norm(U, axis=1, keepdims=True)
        rep = representation_from_vectors(U, U)
        for m in rep.row_observables + rep.col_observables:
            assert np.abs(m.entries @ m.entries - np.eye(rep.d)).max() < 1e-12

    def test_rank_two_vectors_give_qubit_observables(self):
        from cpsdlab.bell import elliptope_extreme_construct

        C = elliptope_extreme_construct(3, 2)
        U = gram_vectors(C)
        rep = representation_from_vectors(U, U)
        assert rep.d == 2

    def test_column_side_is_transposed(self):
        rep = representation_from_vectors(np.array([[0.0, 1.0]]), np.array([[0.0, 1.0]]))
        # gamma of e_2 in the plane is the imaginary Pauli word; transpose flips it
        assert np.abs(rep.row_observables[0].entries - PAULI_Y).max() == 0.0
        assert np.abs(rep.col_observables[0].entries - PAULI_Y.T).max() == 0.0

    def test_povm_completeness_is_exact(self, rng):
        U = rng.standard_normal((2, 4))
        U /= np.linalg.norm(U, axis=1, keepdims=True)
        rep = representation_from_vectors(U, U)
        for m in rep.row_observables:
            plus, minus = povm_pair(m)
            assert np.array_equal(plus.entries + minus.entries, np.eye(rep.d))
            assert spectral(plus).is_psd
            assert spectral(minus).is_psd

    def test_ambient_one_is_padded_to_unbiased_observables(self):
        rep = representation_from_vectors(np.array([[1.0]]), np.array([[-1.0]]))
        assert rep.d == 2
        assert abs(np.trace(rep.row_observables[0].entries)) == 0.0

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError, match="unit"):
            representation_from_vectors(np.array([[2.0, 0.0]]), np.array([[1.0, 0.0]]))


class TestPairingPath:
    @pytest.mark.parametrize("d", [2, 8, 16])
    def test_matches_per_pair_trace_loop(self, rng, d):
        def observable():
            z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            q, _ = np.linalg.qr(z)
            return HermMatrix(q @ np.diag(rng.uniform(-1.0, 1.0, d)) @ q.conj().T)

        rows = tuple(observable() for _ in range(5))
        cols = tuple(observable() for _ in range(4))
        got = full_correlation_of(
            QuantumRepresentation(d=d, row_observables=rows, col_observables=cols))
        eye = np.eye(d)
        for x, m in enumerate(rows):
            assert abs(got.c_x[x] - np.trace(m.entries).real / d) <= pairing_tol(m.entries, eye)
        for y, nn in enumerate(cols):
            assert abs(got.c_y[y] - np.trace(nn.entries).real / d) <= pairing_tol(nn.entries, eye)
        for x, m in enumerate(rows):
            for y, nn in enumerate(cols):
                want = np.trace(m.entries @ nn.entries.T).real / d
                assert abs(got.c_xy[x, y] - want) <= pairing_tol(m.entries, nn.entries) / d


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
        one = HermMatrix(np.eye(1))
        rep = QuantumRepresentation(d=1, row_observables=(one,), col_observables=(one,))
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
        one = HermMatrix(np.eye(1))
        rep = QuantumRepresentation(d=1, row_observables=(one,), col_observables=(one,))
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


class TestRepresentationValidation:
    def test_observable_eigenvalue_bound_enforced(self):
        big = HermMatrix(2 * np.eye(2))
        with pytest.raises(ValueError, match="eigenvalue"):
            QuantumRepresentation(d=2, row_observables=(big,),
                                  col_observables=(HermMatrix(np.eye(2)),))

    def test_explicit_state_must_be_normalized(self):
        eye = HermMatrix(np.eye(2))
        with pytest.raises(ValueError, match="unit trace"):
            QuantumRepresentation(d=2, row_observables=(eye,), col_observables=(eye,),
                                  state=HermMatrix(np.eye(4)))

    def test_explicit_state_must_be_psd(self):
        eye = HermMatrix(np.eye(2))
        bad = np.diag([1.5, -0.5, 0.0, 0.0])
        with pytest.raises(ValueError, match="psd"):
            QuantumRepresentation(d=2, row_observables=(eye,), col_observables=(eye,),
                                  state=HermMatrix(bad))

    def test_budget_checked_before_building_observables(self, monkeypatch):
        # exp-family n = 9: 2 x 171 observables of size 512 exceed the budget
        W = exponential_family_vectors(9)

        def refuse(x):
            raise AssertionError("built an observable before checking the budget")

        monkeypatch.setattr(quantum, "gamma", refuse)
        with pytest.raises(CapExceeded, match="342 dense 512 x 512"):
            representation_from_vectors(W, W)
