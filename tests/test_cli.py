import gc
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import five_factor_example
from cpsdlab import cli, jsonio, separations
from cpsdlab.bell import behavior_from_correlation, exponential_family
from cpsdlab.cli import main
from cpsdlab.cpsdrank import CpsdFactorization, verify_factorization
from cpsdlab.lorentz import GramLorentzFactorization
from cpsdlab.matcore import HermMatrix
from cpsdlab.separations import Graph


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage errors and --help
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(jsonio.dumps(obj))
    return str(path)


class TestJsonIO:
    def test_float_17_digits_roundtrip(self, rng):
        values = list(rng.standard_normal(200)) + [0.5, 1 / 3, 1e-300, 2.0, -0.0]
        for v in values:
            assert json.loads(jsonio.dumps(float(v))) == float(v)

    def test_integral_floats_stay_floats(self):
        assert jsonio.dumps(2.0) == "2.0"
        assert jsonio.dumps([1, 2.0]) == "[1, 2.0]"

    def test_real_matrix_roundtrip(self, rng):
        M = rng.standard_normal((4, 4))
        back = jsonio.matrix_from_json(json.loads(jsonio.dumps(jsonio.matrix_to_json(M))))
        assert isinstance(back, np.ndarray)
        assert np.array_equal(back, M)

    def test_complex_matrix_roundtrip(self, rng):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        h = HermMatrix((a + a.conj().T) / 2)
        back = jsonio.matrix_from_json(json.loads(jsonio.dumps(jsonio.matrix_to_json(h))))
        assert isinstance(back, HermMatrix)
        assert np.array_equal(back.entries, h.entries)

    def test_lorentz_roundtrip(self):
        fam = GramLorentzFactorization([[1.0, 0.3, 0.4], [2.0, -1.0, -0.0]])
        back = jsonio.lorentz_from_json(json.loads(jsonio.dumps(jsonio.lorentz_to_json(fam))))
        assert back.m == 3
        assert np.array_equal(back.vectors.view(np.uint64), fam.vectors.view(np.uint64))

    def test_factorization_roundtrip(self):
        X, factors = five_factor_example()
        fact = CpsdFactorization(d=4, factors=factors)
        back = jsonio.factorization_from_json(
            json.loads(jsonio.dumps(jsonio.factorization_to_json(fact))))
        assert verify_factorization(X, back, tol=1e-12).ok

    def test_behavior_roundtrip(self):
        p = behavior_from_correlation(np.eye(2) * 0.5)
        back = jsonio.behavior_from_json(json.loads(jsonio.dumps(jsonio.behavior_to_json(p))))
        assert np.array_equal(back.table, p.table)

    def test_graph_roundtrip(self):
        g = Graph.from_edges(5, [(0, 1), (3, 2)])
        back = jsonio.graph_from_json(json.loads(jsonio.dumps(jsonio.graph_to_json(g))))
        assert back.n == 5 and back.edges == g.edges

    def test_malformed_matrix_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            jsonio.matrix_from_json({"entries": [1, 2]})
        with pytest.raises(ValueError, match="expected 4"):
            jsonio.matrix_from_json({"n": 2, "entries": [1.0, 2.0]})

    def test_nonfinite_floats_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            jsonio.dumps(float("nan"))

    @pytest.mark.parametrize("value,text", [
        (0.1, "0.1"),
        (1 / 3, "0.3333333333333333"),
        (1e16, "1e+16"),
        (-0.0, "-0.0"),
        (2.0, "2.0"),
        (np.float64(0.1), "0.1"),
        (np.int64(3), "3"),
        (np.bool_(True), "true"),
        (np.array([[1.0, 0.5]]), "[[1.0, 0.5]]"),
    ])
    def test_golden_text(self, value, text):
        assert jsonio.dumps(value) == text


class TestGenerate:
    def test_elliptope_extreme(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "elliptope-extreme", "--n", "3", "--r", "2")
        assert code == 0
        obj = json.loads(out)
        assert obj["status"] == "ok"
        M = jsonio.matrix_from_json(obj["payload"]["matrix"])
        assert M.shape == (3, 3) and M[0, 2] == pytest.approx(1 / math.sqrt(2))

    def test_elliptope_extreme_invalid_rank(self, capsys):
        code, out, err = run_cli(capsys, "generate", "elliptope-extreme",
                                 "--n", "3", "--r", "5")
        assert code == 2 and out == ""
        assert json.loads(err)["status"] == "invalid-input"

    def test_exp_family(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "exp-family", "--n", "1")
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["N"] == 3 and payload["rank"] == 2
        C = jsonio.matrix_from_json(payload["correlation"])
        P = jsonio.matrix_from_json(payload["behavior_matrix"])
        assert C.shape == (3, 3) and P.shape == (6, 6)
        assert payload["dimension_lower_bound"]["ceiling"] == 2

    def test_exp_family_cone_vectors_golden_text(self, capsys):
        # the a = -1 rows carry -0.0 where the unit vectors have zeros
        _, out, _ = run_cli(capsys, "generate", "exp-family", "--n", "1")
        h = "0.35355339059327373"
        assert jsonio.dumps(json.loads(out)["payload"]["lorentz_vectors"]) == (
            '{"m": 3, "vectors": [[0.5, 0.5, 0.0], [0.5, 0.0, 0.5], '
            f'[0.5, {h}, {h}], [0.5, -0.5, -0.0], [0.5, -0.0, -0.5], '
            f'[0.5, -{h}, -{h}]]}}')

    def test_odd_cycle_dnn(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "odd-cycle-dnn", "--t", "2")
        assert code == 0
        payload = json.loads(out)["payload"]
        assert jsonio.matrix_from_json(payload["matrix"]).shape == (5, 5)
        assert payload["certificate"]["valid"] is True

    def test_cycle_sep(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "cycle-sep", "--n", "6")
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["certificate"]["valid"] is True
        assert len(payload["vectors"]["vectors"]) == 6

    def test_cycle_sep_vectors_golden_text(self, capsys):
        # math.cos and math.sin per vector, last bits included
        _, out, _ = run_cli(capsys, "generate", "cycle-sep", "--n", "6")
        assert jsonio.dumps(json.loads(out)["payload"]["vectors"]) == (
            '{"m": 3, "vectors": [[1.0, 1.0, 0.0], '
            '[1.0, 0.5000000000000001, 0.8660254037844386], '
            '[1.0, -0.4999999999999998, 0.8660254037844387], '
            '[1.0, -1.0, 1.2246467991473532e-16], '
            '[1.0, -0.5000000000000004, -0.8660254037844384], '
            '[1.0, 0.5000000000000001, -0.8660254037844386]]}')

    def test_eij_gram(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "eij-gram", "--r", "3")
        assert code == 0
        payload = json.loads(out)["payload"]
        X = jsonio.matrix_from_json(payload["matrix"])
        fact = jsonio.factorization_from_json(payload["factorization"])
        assert X.shape == (3, 3) and fact.d == 3
        assert verify_factorization(X, fact).ok

    def test_missing_parameter(self, capsys):
        code, _, err = run_cli(capsys, "generate", "exp-family")
        assert code == 2 and "needs --n" in json.loads(err)["error"]


class TestFactorize:
    def test_vector_family_input(self, capsys, tmp_path):
        _, out, _ = run_cli(capsys, "generate", "cycle-sep", "--n", "6")
        vectors = json.loads(out)["payload"]["vectors"]
        path = write_json(tmp_path, "vecs.json", vectors)
        code, out, _ = run_cli(capsys, "factorize", path)
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["factor_size"] == 2
        assert payload["verify"]["ok"] is True
        assert payload["factor_size"] <= payload["factor_size_bound"]

    def test_two_by_two_fallback(self, capsys, tmp_path):
        path = write_json(tmp_path, "m.json",
                          jsonio.matrix_to_json(np.array([[2.0, 1.0], [1.0, 3.0]])))
        code, out, _ = run_cli(capsys, "factorize", path)
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["factor_size"] <= 2 and payload["verify"]["ok"] is True

    def test_large_matrix_without_vectors_rejected(self, capsys, tmp_path):
        path = write_json(tmp_path, "m.json", jsonio.matrix_to_json(np.eye(3)))
        code, _, err = run_cli(capsys, "factorize", path)
        assert code == 2
        assert "2 x 2" in json.loads(err)["error"]

    def test_exp_family_vectors_factorize_small(self, capsys, tmp_path):
        _, out, _ = run_cli(capsys, "generate", "exp-family", "--n", "1")
        vectors = json.loads(out)["payload"]["lorentz_vectors"]
        path = write_json(tmp_path, "vecs.json", vectors)
        code, out, _ = run_cli(capsys, "factorize", path)
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["factor_size"] <= 4
        assert payload["verify"]["ok"] is True

    def test_emitted_factorization_reverifies_on_load(self, capsys, tmp_path):
        _, out, _ = run_cli(capsys, "generate", "cycle-sep", "--n", "6")
        vectors = json.loads(out)["payload"]["vectors"]
        path = write_json(tmp_path, "vecs.json", vectors)
        _, out, _ = run_cli(capsys, "factorize", path)
        payload = json.loads(out)["payload"]
        fact = jsonio.factorization_from_json(payload["factorization"])
        target = jsonio.matrix_from_json(payload["gram"])
        assert verify_factorization(target, fact, tol=1e-8).ok

    def test_cap_exceeded_exit_code(self, capsys, tmp_path):
        # the 60 tails (1, e_i) span R^60: one factor would be 2^30 x 2^30,
        # refused from the byte estimate with nothing large allocated
        vectors = np.hstack([np.ones((60, 1)), np.eye(60)]).tolist()
        path = write_json(tmp_path, "v.json", {"m": 61, "vectors": vectors})
        tracemalloc.start()
        try:
            code, _, err = run_cli(capsys, "factorize", path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3
        assert json.loads(err)["status"] == "cap-exceeded"
        assert "budget" in json.loads(err)["error"]
        assert peak < 16 * 2 ** 20


class TestBound:
    def test_identity_lower_bound(self, capsys, tmp_path):
        path = write_json(tmp_path, "i5.json", jsonio.matrix_to_json(np.eye(5)))
        code, out, _ = run_cli(capsys, "bound", path)
        assert code == 0
        bounds = json.loads(out)["payload"]["bounds"]
        assert bounds["lower_analytic"] == pytest.approx(5.0)
        assert bounds["lower_combined_int"] == 5

    def test_known_example_with_verified_upper(self, capsys, tmp_path):
        X, factors = five_factor_example()
        mpath = write_json(tmp_path, "x.json", jsonio.matrix_to_json(X))
        fact = CpsdFactorization(d=4, factors=factors)
        fpath = write_json(tmp_path, "f.json", jsonio.factorization_to_json(fact))
        code, out, _ = run_cli(capsys, "bound", mpath, "--verify", fpath)
        assert code == 0
        obj = json.loads(out)
        bounds = obj["payload"]["bounds"]
        assert bounds["lower_analytic"] == pytest.approx(
            (3 * math.sqrt(2) + 2 * math.sqrt(3)) ** 2 / 24)
        assert bounds["lower_rank"] == pytest.approx(2.0)
        assert bounds["lower_combined_int"] == 3
        assert bounds["upper"] == 4
        assert "verified-factorization-upper-bound" in obj["provenance"]

    def test_wrong_factorization_fails_verification(self, capsys, tmp_path):
        X, factors = five_factor_example()
        mpath = write_json(tmp_path, "x.json", jsonio.matrix_to_json(2 * X))
        fact = CpsdFactorization(d=4, factors=factors)
        fpath = write_json(tmp_path, "f.json", jsonio.factorization_to_json(fact))
        code, _, err = run_cli(capsys, "bound", mpath, "--verify", fpath)
        assert code == 4
        obj = json.loads(err)
        assert obj["status"] == "verification-failed"
        assert obj["max_residual"] > 0.5

    def test_scale_search_flag(self, capsys, tmp_path):
        X = np.diag([1.0, 100.0])
        path = write_json(tmp_path, "d.json", jsonio.matrix_to_json(X))
        _, out_plain, _ = run_cli(capsys, "bound", path)
        _, out_scaled, _ = run_cli(capsys, "bound", path, "--scale-search")
        plain = json.loads(out_plain)["payload"]["bounds"]["lower_analytic"]
        scaled = json.loads(out_scaled)["payload"]["bounds"]["lower_analytic"]
        assert scaled > plain

    def test_graph_mode(self, capsys, tmp_path):
        g = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
        path = write_json(tmp_path, "g.json", jsonio.graph_to_json(g))
        code, out, _ = run_cli(capsys, "bound", path, "--graph")
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["support_bound"] == 3


class TestToleranceGate:
    """A NaN or infinite --tol would pass every numerical check vacuously and a
    negative one would fail them all; each command refuses them as input."""

    BAD = ["nan", "inf", "-inf", "-1", "-1e-300"]

    @staticmethod
    def assert_refused(capsys, *argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        obj = json.loads(err)
        assert obj["status"] == "invalid-input"
        assert "--tol" in obj["error"]

    @pytest.mark.parametrize("tol", BAD)
    def test_factorize(self, capsys, tmp_path, tol):
        _, out, _ = run_cli(capsys, "generate", "cycle-sep", "--n", "6")
        path = write_json(tmp_path, "v.json", json.loads(out)["payload"]["vectors"])
        self.assert_refused(capsys, "factorize", path, f"--tol={tol}")

    @pytest.mark.parametrize("tol", BAD)
    def test_bound(self, capsys, tmp_path, tol):
        X, factors = five_factor_example()
        mpath = write_json(tmp_path, "x.json", jsonio.matrix_to_json(X))
        fact = CpsdFactorization(d=4, factors=factors)
        fpath = write_json(tmp_path, "f.json", jsonio.factorization_to_json(fact))
        self.assert_refused(capsys, "bound", mpath, "--verify", fpath, f"--tol={tol}")

    @pytest.mark.parametrize("tol", BAD)
    def test_behavior(self, capsys, tmp_path, tol):
        C, _ = exponential_family(2)
        path = write_json(tmp_path, "c.json", jsonio.matrix_to_json(C.entries))
        self.assert_refused(capsys, "behavior", path, "--simulate", f"--tol={tol}")

    @pytest.mark.parametrize("tol", ["-inf", "-nan", "-1", "-1e-300"])
    def test_space_separated_negative_value(self, capsys, tmp_path, tol):
        # argparse reads "-inf" and "-nan" as options unless they are attached
        _, out, _ = run_cli(capsys, "generate", "cycle-sep", "--n", "6")
        path = write_json(tmp_path, "v.json", json.loads(out)["payload"]["vectors"])
        spaced = run_cli(capsys, "factorize", path, "--tol", tol)
        assert spaced == run_cli(capsys, "factorize", path, f"--tol={tol}")
        self.assert_refused(capsys, "factorize", path, "--tol", tol)

    def test_a_non_number_after_tol_is_still_a_usage_error(self, capsys, tmp_path):
        _, out, _ = run_cli(capsys, "generate", "cycle-sep", "--n", "6")
        path = write_json(tmp_path, "v.json", json.loads(out)["payload"]["vectors"])
        code, out, err = run_cli(capsys, "factorize", path, "--tol", "-x")
        assert code == 2 and out == "" and "usage:" in err

    def test_zero_accepted(self, capsys, tmp_path):
        path = write_json(tmp_path, "c.json", jsonio.matrix_to_json(np.zeros((2, 2))))
        code, _, _ = run_cli(capsys, "behavior", path, "--tol", "0")
        assert code == 0


class TestBehaviorCommand:
    def test_zero_correlation_gives_uniform(self, capsys, tmp_path):
        path = write_json(tmp_path, "c.json", jsonio.matrix_to_json(np.zeros((2, 2))))
        code, out, _ = run_cli(capsys, "behavior", path)
        assert code == 0
        table = np.asarray(json.loads(out)["payload"]["behavior"]["table"])
        assert np.abs(table - 0.25).max() == 0.0

    def test_simulation_cross_check(self, capsys, tmp_path):
        C, _ = exponential_family(1)
        path = write_json(tmp_path, "c.json", jsonio.matrix_to_json(C.entries))
        code, out, _ = run_cli(capsys, "behavior", path, "--simulate", "--validate")
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["simulation"]["max_deviation"] < 1e-9
        assert payload["affine_section_valid"] is True

    def test_asymmetric_rejected(self, capsys, tmp_path):
        # its symmetric part is a psd correlation matrix
        path = write_json(tmp_path, "c.json",
                          jsonio.matrix_to_json(np.array([[1.0, 0.5], [0.0, 1.0]])))
        code, out, err = run_cli(capsys, "behavior", path)
        assert code == 2 and out == ""
        assert "not symmetric" in json.loads(err)["error"]

    def test_non_psd_rejected(self, capsys, tmp_path):
        bad = np.array([[1.0, 1.0], [1.0, -1.0]])
        path = write_json(tmp_path, "c.json", jsonio.matrix_to_json(bad))
        code, _, err = run_cli(capsys, "behavior", path)
        assert code == 2
        assert json.loads(err)["status"] == "invalid-input"

    def test_extreme_correlation_reports_dimension_bound(self, capsys, tmp_path):
        C, _ = exponential_family(1)
        path = write_json(tmp_path, "c.json", jsonio.matrix_to_json(C.entries))
        _, out, _ = run_cli(capsys, "behavior", path)
        bounds = json.loads(out)["payload"]["bounds"]
        assert bounds["dimension_lower_bound"]["ceiling"] == 2
        assert bounds["rank_lower_bound_ceiling"] >= 2

    def test_non_extreme_correlation_flags_bound_unavailable(self, capsys, tmp_path):
        path = write_json(tmp_path, "c.json", jsonio.matrix_to_json(np.eye(3)))
        _, out, _ = run_cli(capsys, "behavior", path)
        bounds = json.loads(out)["payload"]["bounds"]
        assert bounds["dimension_lower_bound"] is None
        assert bounds["rank_lower_bound"] == pytest.approx(2.0)  # rank(P) = 4


class TestGraphCommand:
    def test_five_cycle(self, capsys, tmp_path):
        g = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
        path = write_json(tmp_path, "g.json", jsonio.graph_to_json(g))
        code, out, _ = run_cli(capsys, "graph", path)
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["cpsd"] is False and payload["witness"] == [0, 1, 2, 3, 4]

    def test_path_graph(self, capsys, tmp_path):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        path = write_json(tmp_path, "g.json", jsonio.graph_to_json(g))
        code, out, _ = run_cli(capsys, "graph", path)
        assert code == 0 and json.loads(out)["payload"]["cpsd"] is True

    def test_six_cycle(self, capsys, tmp_path):
        g = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
        path = write_json(tmp_path, "g.json", jsonio.graph_to_json(g))
        code, out, _ = run_cli(capsys, "graph", path)
        assert code == 0 and json.loads(out)["payload"]["cpsd"] is True


class TestInputRobustness:
    @pytest.mark.parametrize("command,text", [
        ("bound", '{"n": 2, "complex": false, "entries": [1, NaN, NaN, 1]}'),
        ("factorize", '{"m": 3, "vectors": [[1, 0, 0], [Infinity, 1, 0]]}'),
        ("factorize", '{"m": 3, "vectors": [[1, 0, 0], [1, null, 0]]}'),
        ("behavior", '{"n": 2, "complex": false, "entries": [1, null, null, 1]}'),
    ])
    def test_nonfinite_input_rejected(self, capsys, tmp_path, command, text):
        path = tmp_path / "in.json"
        path.write_text(text)
        code, _, err = run_cli(capsys, command, str(path))
        assert code == 2
        assert "must be finite" in json.loads(err)["error"]

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "factorize", "/nonexistent/path.json")
        assert code == 2
        assert json.loads(err)["status"] == "invalid-input"

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "bound", str(path))
        assert code == 2
        assert "not valid JSON" in json.loads(err)["error"]

    def test_wrong_entry_count(self, capsys, tmp_path):
        path = write_json(tmp_path, "m.json", {"n": 3, "complex": False,
                                               "entries": [1.0, 2.0]})
        code, _, err = run_cli(capsys, "bound", str(path))
        assert code == 2


class TestDeterminism:
    def test_byte_identical_output(self, capsys, tmp_path):
        outputs = set()
        for k in range(3):
            _, out, _ = run_cli(capsys, "generate", "exp-family", "--n", "2")
            outputs.add(out)
        assert len(outputs) == 1

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        _, out, _ = run_cli(capsys, "generate", "cycle-sep", "--n", "6")
        target = tmp_path / "o.json"
        code, stdout, _ = run_cli(capsys, "generate", "cycle-sep", "--n", "6",
                                  "--out", str(target))
        assert code == 0 and stdout == ""
        assert target.read_text() == out

    def test_dump_load_dump_idempotent(self, capsys):
        _, out, _ = run_cli(capsys, "generate", "exp-family", "--n", "1")
        assert jsonio.dumps(json.loads(out)) + "\n" == out

    @pytest.mark.parametrize("command", ["factorize", "behavior"])
    def test_factor_and_simulation_outputs_stable(self, capsys, tmp_path, command):
        _, out, _ = run_cli(capsys, "generate", "exp-family", "--n", "2")
        payload = json.loads(out)["payload"]
        if command == "factorize":
            path = write_json(tmp_path, "in.json", payload["lorentz_vectors"])
            argv = ["factorize", path]
        else:
            path = write_json(tmp_path, "in.json", payload["correlation"])
            argv = ["behavior", path, "--simulate"]
        code, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert code == 0 and first == second
        assert jsonio.dumps(json.loads(first)) + "\n" == first


# sha256 of each golden command's stdout: any change to these bytes is a
# format change and must be named as one. Exp-family n = 6 is left out: its
# reduced tails come from an eigendecomposition whose last bits depend on the
# BLAS thread count.
GOLDEN_STDOUT_SHA256 = {
    "factorize exp-family n=1": "c62a356c78b780a2258b40a39bf1c1545a53b1f3e7487ed207789b9550779589",
    "factorize exp-family n=2": "7a5d1c522c38c093d7b8f574512603478819466b59ad4637517b1eb22ae05c1d",
    "factorize exp-family n=3": "a8b4bea9aec52d71974594b5bde71a07590b3373bda506b894d6f2e08b11fce2",
    "factorize exp-family n=4": "34518154fce8ba81ccad6ab1d73faeb874d59e211e85635e63939a0b54c38173",
    "factorize exp-family n=5": "89e4482ab9dfeb9f64efaf084c178008a510dd27d77a91d8b895458d543638c7",
    "factorize cycle-sep n=6": "b200ef15a04bee10531967db53c5aef627a528a0eac7a15aa1bfd3714e341595",
    "factorize dnn 2x2": "ee75e8d3fc67975aa4a48fdf144fd8116dc6843cca99ad8941f32fc9a1217075",
    "generate exp-family n=3": "6026458b5b417d9764ee367c4335858f262df11148b078f3f1a3a4680c5c9f38",
    "generate eij-gram r=4": "85ca2903bb632f2a47e2ee7cff0300665c207a747baad12cabae3350d2998090",
    "generate cycle-sep n=10": "676c10b8fa138088ad2c1a6fdae46d80f0c25001b2e3cc91db13282898b4b9af",
    "bound --verify --scale-search exp-family n=3":
        "4b3c1f326292cee6e8912cec1edb4ea208783e0df0024c1b4121d00b637f051e",
    "bound --graph": "6433ee4741c299a23cd1c963b3f7ba44e20d7aae6489e9cfd12051ec723d6004",
    # products of a zero and a negative coordinate are written as 0.0
    "bound --graph star": "48c1b69e05a7d16ff38aea29b908230c6779c299f2934735b5d979d99535e062",
    # the reduced family is (-0.0,), (1.0,): the 1 x 1 factor [-0.0] is written as 0.0
    "factorize axis family": "581e49ff0477526d2a531906eb3eb154c3973f39e1c433d59cfdce4a3435f1e4",
    "behavior --simulate --validate exp-family n=3":
        "0de724fcc2398f4c7ab7371e297d0752e1532f4892d9046a5cc7e5838c974154",
}


def golden_argv(case, capsys, tmp_path) -> list:
    """The command line of a golden case, with its input files written."""
    def payload(*argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, argv
        return json.loads(out)["payload"]

    def write(name, obj):
        return write_json(tmp_path, name, obj)

    def exp_family(n):
        return payload("generate", "exp-family", "--n", str(n))

    if case.startswith("factorize exp-family"):
        vectors = exp_family(int(case.rsplit("=", 1)[1]))["lorentz_vectors"]
        return ["factorize", write("v.json", vectors)]
    if case == "factorize cycle-sep n=6":
        vectors = payload("generate", "cycle-sep", "--n", "6")["vectors"]
        return ["factorize", write("v.json", vectors)]
    if case == "factorize dnn 2x2":
        matrix = {"n": 2, "complex": False, "entries": [2.0, 1.0, 1.0, 3.0]}
        return ["factorize", write("m.json", matrix)]
    if case.startswith("generate"):
        _, kind, arg = case.split(" ")
        flag, value = arg.split("=")
        return ["generate", kind, f"--{flag}", value]
    if case.startswith("bound --verify"):
        p = payload("factorize", write("v.json", exp_family(3)["lorentz_vectors"]))
        return ["bound", write("x.json", p["gram"]), "--verify",
                write("f.json", p["factorization"]), "--scale-search"]
    if case == "bound --graph star":
        star = {"n": 5, "edges": [[0, k] for k in range(1, 5)]}
        return ["bound", write("g.json", star), "--graph"]
    if case == "factorize axis family":
        axes = {"m": 2, "vectors": [[-0.0, 0.0], [1.0, -0.0]]}
        return ["factorize", write("v.json", axes)]
    if case == "bound --graph":
        edges = [[i, (i + 1) % 7] for i in range(7)] + [[0, 3], [2, 5]]
        return ["bound", write("g.json", {"n": 7, "edges": edges}), "--graph"]
    correlation = exp_family(3)["correlation"]
    return ["behavior", write("c.json", correlation), "--simulate", "--validate"]


@pytest.mark.parametrize("case", list(GOLDEN_STDOUT_SHA256))
def test_stdout_matches_its_recorded_digest(capsys, tmp_path, case):
    code, out, err = run_cli(capsys, *golden_argv(case, capsys, tmp_path))
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT_SHA256[case]


def run_fresh(argv):
    """The same command in a new `python -m cpsdlab.cli` process."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "cpsdlab.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120, check=False)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture
def inputs(tmp_path):
    """Input files for one command of each exit code."""
    X, factors = five_factor_example()
    exact = CpsdFactorization(d=4, factors=factors)
    # factors off by a relative 1e-6: verified at --tol 1e-3, refused at the default
    near = CpsdFactorization(d=4, factors=[(1 + 1e-6) * f for f in factors])
    # the 60 tails (1, e_i): refused by the byte budget before any allocation
    tails = np.hstack([np.ones((60, 1)), np.eye(60)]).tolist()
    return {
        "x": write_json(tmp_path, "x.json", jsonio.matrix_to_json(X)),
        "2x": write_json(tmp_path, "x2.json", jsonio.matrix_to_json(2 * X)),
        "exact": write_json(tmp_path, "f.json", jsonio.factorization_to_json(exact)),
        "near": write_json(tmp_path, "n.json", jsonio.factorization_to_json(near)),
        "diag": write_json(tmp_path, "d.json", jsonio.matrix_to_json(np.diag([1.0, 100.0]))),
        "vecs": write_json(tmp_path, "v.json",
                           jsonio.lorentz_to_json(separations.cycle_vectors(6))),
        "tails": write_json(tmp_path, "t.json", {"m": 61, "vectors": tails}),
        "corr": write_json(tmp_path, "c.json",
                           jsonio.matrix_to_json(exponential_family(2)[0].entries)),
        "c5": write_json(tmp_path, "g.json", jsonio.graph_to_json(
            Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)]))),
        "missing": str(tmp_path / "missing.json"),
        "out": str(tmp_path / "out.json"),
    }


class TestInProcessReuse:
    def test_mixed_sequence_matches_fresh_processes(self, capsys, inputs, monkeypatch):
        # argparse wraps usage text at the terminal width it sees at format time
        monkeypatch.setenv("COLUMNS", "80")
        f = inputs
        sequence = [
            (["bound", f["x"], "--verify", f["near"], "--tol", "1e-3"], 0),
            (["bound", f["x"], "--verify", f["near"]], 4),
            (["bound", f["diag"], "--scale-search"], 0),
            (["bound", f["diag"]], 0),
            (["graph"], 2),  # usage error: no input
            (["graph", f["missing"]], 2),
            (["factorize", f["tails"]], 3),
            (["generate", "exp-family", "--n", "2"], 0),
            (["generate", "eij-gram", "--r", "3", "--out", f["out"]], 0),
            (["factorize", f["vecs"]], 0),
            (["behavior", f["corr"], "--simulate", "--validate"], 0),
            (["graph", f["c5"]], 0),
        ]
        out = Path(f["out"])
        cli._build_parser.cache_clear()
        in_process = []
        for argv, code in sequence:
            result = run_cli(capsys, *argv)
            assert result[0] == code, (argv, result)
            in_process.append((result, out.read_bytes() if "--out" in argv else None))
        assert cli._build_parser.cache_info().misses == 1
        for (argv, _), (result, written) in zip(sequence, in_process):
            assert run_fresh(argv) == result, argv
            if written is not None:
                assert out.read_bytes() == written


class TestCollectorPause:
    @pytest.fixture
    def loads_spy(self, monkeypatch):
        """Record gc.isenabled() whenever a command parses an input file;
        raise `fail` from there if it is set."""
        real = jsonio.loads

        def spy(text):
            spy.seen.append(gc.isenabled())
            if spy.fail is not None:
                raise spy.fail
            return real(text)

        spy.seen, spy.fail = [], None
        monkeypatch.setattr(jsonio, "loads", spy)
        yield spy
        gc.enable()

    @pytest.mark.parametrize("case, code", [
        ("ok", 0), ("invalid", 2), ("cap", 3), ("verification", 4),
        ("usage", 2), ("help", 0)])
    def test_paused_inside_and_restored_after(self, capsys, loads_spy, inputs, case, code):
        f = inputs
        argv = {"ok": ["graph", f["c5"]],
                "invalid": ["graph", f["missing"]],
                "cap": ["factorize", f["tails"]],
                "verification": ["bound", f["2x"], "--verify", f["exact"]],
                "usage": ["graph", f["c5"], "--no-such-flag"],
                "help": ["graph", "--help"]}[case]
        assert gc.isenabled()
        assert run_cli(capsys, *argv)[0] == code
        assert gc.isenabled()
        if case in ("ok", "cap", "verification"):  # the others parse no input file
            assert loads_spy.seen and not any(loads_spy.seen)

    def test_restored_after_an_unexpected_exception(self, loads_spy, inputs):
        loads_spy.fail = RuntimeError("unexpected")
        with pytest.raises(RuntimeError, match="unexpected"):
            main(["graph", inputs["c5"]])
        assert loads_spy.seen == [False]
        assert gc.isenabled()

    def test_stays_off_when_the_caller_turned_it_off(self, capsys, loads_spy, inputs):
        gc.disable()
        assert run_cli(capsys, "graph", inputs["c5"])[0] == 0
        assert run_cli(capsys, "graph")[0] == 2
        assert not gc.isenabled()
        assert loads_spy.seen == [False]
