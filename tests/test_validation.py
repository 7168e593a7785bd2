"""Error-surface tests: every documented rejection actually rejects."""

import json

import numpy as np
import pytest

from cpsdlab import jsonio
from cpsdlab.bell import (
    Behavior,
    CorrelationMatrix,
    FullCorrelation,
    behavior_matrix,
    behavior_matrix_factorization,
    elliptope_extreme_construct,
    elliptope_member,
    gl_behavior_factorization,
)
from cpsdlab.cli import main
from cpsdlab.cpsdrank import (
    CpsdFactorization,
    bound_report,
    hadamard_sqrt_psd,
    rank_lower_bound,
    scaled_analytic_bound,
    verify_factorization,
)
from cpsdlab.lorentz import GramLorentzFactorization, gl_matrix, gl_reduce
from cpsdlab.matcore import HermMatrix, gram_vectors
from cpsdlab.quantum import QuantumRepresentation, representation_from_vectors
from cpsdlab.separations import (Graph, check_not_cp, check_not_vna, cycle_pairing, cycle_vectors,
                                 support_bound_witness, support_graph)

ASYMMETRIC = np.array([[1.0, 0.5], [0.0, 1.0]])  # nonnegative, symmetric part psd


class TestMatcoreRejections:
    def test_empty_matrix(self):
        with pytest.raises(ValueError, match="empty"):
            HermMatrix(np.zeros((0, 0)))

    def test_gram_vectors_non_square(self):
        with pytest.raises(ValueError, match="square"):
            gram_vectors(np.zeros((2, 3)))

    @pytest.mark.parametrize("check", [
        rank_lower_bound,
        bound_report,
        gram_vectors,
        hadamard_sqrt_psd,
        pytest.param(lambda X: check_not_vna(X, [0], [1], 0, 1), id="check_not_vna"),
        support_graph,
    ])
    def test_asymmetric_input_rejected_by_the_shared_gate(self, check):
        with pytest.raises(ValueError, match="not symmetric: asymmetry 5.000e-01"):
            check(ASYMMETRIC)

    def test_is_real_flag(self):
        assert HermMatrix(np.eye(2)).is_real()
        assert not HermMatrix(np.array([[1, 1j], [-1j, 1]])).is_real()


class TestCpsdrankRejections:
    def test_factor_size_positive(self):
        with pytest.raises(ValueError, match="at least 1"):
            CpsdFactorization(d=0, factors=[np.eye(1)])

    def test_factor_size_mismatch(self):
        with pytest.raises(ValueError, match="expected"):
            CpsdFactorization(d=3, factors=[np.eye(2)])

    def test_verify_non_square_target(self):
        fact = CpsdFactorization(d=1, factors=[np.eye(1)])
        with pytest.raises(ValueError, match="square"):
            verify_factorization(np.zeros((1, 2)), fact)

    def test_scaled_bound_zero_sum(self):
        with pytest.raises(ValueError, match="zero total"):
            scaled_analytic_bound(np.zeros((3, 3)))

    def test_support_witness_type_checked(self):
        with pytest.raises(TypeError, match="Graph"):
            support_bound_witness(np.eye(3))


class TestLorentzRejections:
    def test_empty_family(self):
        with pytest.raises(ValueError, match="at least one"):
            GramLorentzFactorization(vectors=())

    def test_reduce_of_tipless_family_is_identity(self):
        fam = GramLorentzFactorization([[1.0], [2.0]])
        assert gl_reduce(fam) is fam
        assert np.allclose(gl_matrix(fam), [[1, 2], [2, 4]])


class TestBellRejections:
    def test_correlation_needs_two_dims(self):
        with pytest.raises(ValueError, match="two-dimensional"):
            CorrelationMatrix(np.zeros(3))

    def test_behavior_shape(self):
        with pytest.raises(ValueError, match="shape"):
            Behavior(table=np.full((2, 3, 1, 1), 0.25))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_behavior_non_finite(self, bad):
        table = np.full((2, 2, 1, 1), 0.25)
        table[0, 0, 0, 0] = bad
        with pytest.raises(ValueError, match="must be finite"):
            Behavior(table=table)

    @pytest.mark.parametrize("build", [
        pytest.param(lambda U: gl_behavior_factorization(np.zeros((1, 1)), U, np.eye(2)[:1]),
                     id="gl_behavior_factorization"),
        pytest.param(lambda U: representation_from_vectors(U, np.eye(2)[:1]),
                     id="representation_from_vectors"),
    ])
    def test_non_finite_vectors(self, build):
        with pytest.raises(ValueError, match="must be finite"):
            build(np.array([[np.nan, 0.0]]))

    def test_full_correlation_shape(self):
        with pytest.raises(ValueError, match="shape"):
            FullCorrelation(np.zeros(2), np.zeros(2), np.zeros((3, 2)))

    def test_full_correlation_entry_bound(self):
        with pytest.raises(ValueError, match="outside"):
            FullCorrelation(np.array([1.5]), np.zeros(1), np.zeros((1, 1)))

    def test_gl_behavior_vector_count_mismatch(self):
        with pytest.raises(ValueError, match="counts"):
            gl_behavior_factorization(np.zeros((2, 2)), np.eye(3), np.eye(3)[:2])

    def test_gl_behavior_dimension_mismatch(self):
        with pytest.raises(ValueError, match="different dimensions"):
            gl_behavior_factorization(np.zeros((1, 1)), np.eye(2)[:1], np.eye(3)[:1])

    def test_elliptope_member_rejects_asymmetric(self):
        assert not elliptope_member(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_default_gram_vectors_path(self):
        C = elliptope_extreme_construct(6, 3)
        fam = behavior_matrix_factorization(C)  # vectors derived internally
        assert np.abs(gl_matrix(fam) - behavior_matrix(C)).max() < 1e-9

    def test_default_path_demands_elliptope(self):
        with pytest.raises(ValueError, match="elliptope"):
            behavior_matrix_factorization(np.zeros((2, 2)))

    def test_symmetric_realization_needs_square(self):
        with pytest.raises(ValueError, match="square"):
            behavior_matrix_factorization(np.zeros((2, 3)))


class TestQuantumRejections:
    def test_needs_observables(self):
        with pytest.raises(ValueError, match="at least one"):
            QuantumRepresentation(d=2, row_observables=np.zeros((0, 2, 2)),
                                  col_observables=np.eye(2)[None])

    def test_observable_size(self):
        with pytest.raises(ValueError, match="size"):
            QuantumRepresentation(d=3, row_observables=np.eye(2)[None],
                                  col_observables=np.eye(3)[None])

    def test_unknown_state_tag(self):
        eye = np.eye(2)[None]
        with pytest.raises(ValueError, match="unknown state"):
            QuantumRepresentation(d=2, row_observables=eye, col_observables=eye,
                                  state="thermal")

    def test_explicit_state_size(self):
        eye = np.eye(2)[None]
        with pytest.raises(ValueError, match="d\\^2"):
            QuantumRepresentation(d=2, row_observables=eye, col_observables=eye,
                                  state=HermMatrix(np.eye(3) / 3))

    def test_vector_dimension_mismatch(self):
        with pytest.raises(ValueError, match="different dimensions"):
            representation_from_vectors(np.eye(2)[:1], np.eye(3)[:1])

    def test_empty_vector_family(self):
        with pytest.raises(ValueError, match="at least one observable"):
            representation_from_vectors(np.zeros((0, 2)), np.zeros((0, 2)))


class TestSeparationsRejections:
    def test_graph_needs_vertices(self):
        with pytest.raises(ValueError, match="at least one vertex"):
            Graph.from_edges(0, [])

    def test_not_cp_subset_range(self):
        fam = cycle_vectors(6)
        pairs, _ = cycle_pairing(6)
        with pytest.raises(ValueError, match="out of range"):
            check_not_cp(fam.vectors, pairs, [0, 2, 99])

    def test_not_vna_shape_and_cone_guards(self):
        with pytest.raises(ValueError, match="square"):
            check_not_vna(np.zeros((2, 3)), [0], [1], 0, 1)
        with pytest.raises(ValueError, match="symmetric"):
            check_not_vna(np.array([[1.0, 0.5], [0.0, 1.0]]), [0], [1], 0, 1)
        with pytest.raises(ValueError, match="positive semidefinite"):
            check_not_vna(np.array([[0.0, 1.0], [1.0, 0.0]]), [0], [1], 0, 1)


class TestJsonRejections:
    @pytest.mark.parametrize("func,obj", [
        (jsonio.matrix_from_json, {"entries": []}),
        (jsonio.lorentz_from_json, {"vectors": []}),
        (jsonio.factorization_from_json, {"factors": []}),
        (jsonio.behavior_from_json, {"table": []}),
        (jsonio.graph_from_json, {"edges": []}),
    ])
    def test_missing_keys_rejected(self, func, obj):
        with pytest.raises(ValueError, match="malformed"):
            func(obj)

    def test_lorentz_vector_length_checked(self):
        with pytest.raises(ValueError, match="does not match"):
            jsonio.lorentz_from_json({"m": 3, "vectors": [[1.0, 0.0]]})

    def test_behavior_table_shape_checked(self):
        with pytest.raises(ValueError, match="does not match"):
            jsonio.behavior_from_json({"mA": 2, "mB": 2,
                                       "table": np.full((2, 2, 1, 1), 0.25).tolist()})

    def test_unserializable_type_rejected(self):
        with pytest.raises(TypeError):
            jsonio.dumps(object())

    def test_non_string_keys_rejected(self):
        assert jsonio.dumps({1: 2}) == '{"1": 2}'
        with pytest.raises(TypeError, match="keys"):
            jsonio.dumps({(1, 2): 3})

    @pytest.mark.parametrize("func,obj", [
        (jsonio.matrix_from_json, {"n": 1, "entries": [float("nan")]}),
        (jsonio.matrix_from_json, {"n": 1, "complex": True, "entries": [[1.0, float("inf")]]}),
        (jsonio.matrix_from_json, {"n": 1, "entries": [None]}),
        (jsonio.lorentz_from_json, {"m": 2, "vectors": [[float("-inf"), 0.0]]}),
        (jsonio.lorentz_from_json, {"m": 2, "vectors": [[1.0, None]]}),
        (jsonio.behavior_from_json,
         {"mA": 1, "mB": 1, "table": [[[[None]], [[0.5]]], [[[0.25]], [[0.25]]]]}),
    ])
    def test_nonfinite_entries_rejected(self, func, obj):
        with pytest.raises(ValueError, match="must be finite"):
            func(obj)

    @pytest.mark.parametrize("func,obj,match", [
        (jsonio.matrix_from_json, {"n": 2, "entries": [1.0, [2.0], 3.0, 4.0]}, "malformed"),
        (jsonio.matrix_from_json, {"n": 1, "entries": ["one"]}, "malformed"),
        (jsonio.lorentz_from_json, {"m": 2, "vectors": [[1.0, 0.0], [1.0]]}, "malformed"),
        (jsonio.matrix_from_json, {"n": 0, "entries": []}, "malformed"),
        (jsonio.matrix_from_json, {"n": -1, "entries": [1.0]}, "malformed"),
        (jsonio.lorentz_from_json, {"m": 0, "vectors": [[]]}, "malformed"),
        (jsonio.matrix_from_json, {"n": 1, "complex": True, "entries": [[1.0, 0.0, 0.0]]},
         "expected 1 entries"),
        (jsonio.matrix_from_json, {"n": 2, "entries": 5}, "expected 4 entries"),
    ])
    def test_ragged_non_numeric_or_empty_rejected(self, func, obj, match):
        with pytest.raises(ValueError, match=match):
            func(obj)


class TestCliRejections:
    @pytest.mark.parametrize("argv", [
        ["generate", "elliptope-extreme", "--n", "3"],
        ["generate", "cycle-sep"],
        ["generate", "odd-cycle-dnn"],
        ["generate", "eij-gram"],
        ["generate", "eij-gram", "--r", "1"],
    ])
    def test_missing_or_bad_generator_params(self, argv, capsys):
        assert main(argv) == 2
        capsys.readouterr()

    def test_unrecognized_input_shape(self, capsys, tmp_path):
        path = tmp_path / "odd.json"
        path.write_text('{"foo": 1}')
        assert main(["factorize", str(path)]) == 2
        capsys.readouterr()

    def test_bound_rejects_complex_matrix(self, capsys, tmp_path):
        path = tmp_path / "h.json"
        h = HermMatrix(np.array([[1.0, 1j], [-1j, 1.0]]))
        path.write_text(jsonio.dumps(jsonio.matrix_to_json(h)))
        assert main(["bound", str(path)]) == 2
        capsys.readouterr()

    def test_behavior_rejects_complex_and_out_of_range(self, capsys, tmp_path):
        path = tmp_path / "h.json"
        h = HermMatrix(np.array([[1.0, 1j], [-1j, 1.0]]))
        path.write_text(jsonio.dumps(jsonio.matrix_to_json(h)))
        assert main(["behavior", str(path)]) == 2
        path2 = tmp_path / "big.json"
        path2.write_text(jsonio.dumps(jsonio.matrix_to_json(4.0 * np.eye(2))))
        assert main(["behavior", str(path2)]) == 2
        capsys.readouterr()

    def test_simulation_needs_unit_diagonal(self, capsys, tmp_path):
        path = tmp_path / "half.json"
        path.write_text(jsonio.dumps(jsonio.matrix_to_json(0.5 * np.eye(2))))
        assert main(["behavior", str(path), "--simulate"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ["generate", "cycle-sep", "--n", "6", "--cap", "4"],
        ["generate", "cycle-sep", "--n", "6", "--tol", "1e-6"],
        ["graph", "g.json", "--cap", "4"],
        ["graph", "g.json", "--tol", "1e-6"],
        ["bound", "m.json", "--cap", "4"],
        ["factorize", "v.json", "--format", "json"],
        ["factorize", "v.json", "--cap", "2"],
        ["behavior", "c.json", "--cap", "2"],
    ])
    def test_unread_flags_not_accepted(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        capsys.readouterr()