"""Tests of the benchmark's own checks and tracing.

    python3 -m pytest bench/test_checks.py

Each workload's check must pass on the real command output and fail on a
corrupted copy of it.
"""

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import cpsdlab.cli  # noqa: E402
import cpsdlab.matcore  # noqa: E402
from tracing import MODULES, Tracer, layer_metric_names  # noqa: E402
from workloads import (WORKLOADS, CheckFailed, adjacency, build_behavior,  # noqa: E402
                       build_factorize, build_graph_mix, build_verify, five_cycle_count)


def run(op) -> dict:
    assert cpsdlab.cli.main(op.argv) == 0
    obj = json.loads(op.out.read_bytes())
    op.verify(json.dumps(obj).encode())
    return obj


def must_fail(op, obj, corrupt) -> None:
    bad = copy.deepcopy(obj)
    corrupt(bad["payload"])
    with pytest.raises(CheckFailed):
        op.verify(json.dumps(bad).encode())


def set_key(path, value):
    def corrupt(p):
        node = p
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return corrupt


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def test_factorize_check_catches_corruption(tmp_path, rng):
    op = build_factorize("n4", rng, tmp_path / "f")
    obj = run(op)
    for corrupt in (set_key(["verify", "ok"], False), set_key(["rank"], 8),
                    set_key(["factor_size"], 32)):
        must_fail(op, obj, corrupt)
    bad = copy.deepcopy(obj)
    for f in bad["payload"]["factorization"]["factors"]:  # whichever factors are sampled
        f["entries"][0][0] += 1e-3
    with pytest.raises(CheckFailed):
        op.verify(json.dumps(bad).encode())
    bad = copy.deepcopy(obj)
    bad["payload"]["gram"]["entries"][1] += 1e-6
    with pytest.raises(CheckFailed):
        op.verify(json.dumps(bad).encode())


def test_verify_check_catches_corruption(tmp_path, rng):
    op = build_verify("n4", rng, tmp_path / "v")
    obj = run(op)
    for corrupt in (set_key(["verify", "ok"], False), set_key(["bounds", "upper"], 8),
                    set_key(["bounds", "lower_combined_int"], 17),
                    set_key(["bounds", "lower_analytic"], 0.5),
                    set_key(["bounds", "lower_rank"], 2.5)):
        must_fail(op, obj, corrupt)


def test_behavior_check_catches_corruption(tmp_path, rng):
    for size in ("ext8", "exp5"):
        op = build_behavior(size, rng, tmp_path / size)
        obj = run(op)

        def table(p):
            p["behavior"]["table"][0][0][0][1] += 1e-9

        for corrupt in (table, set_key(["bounds", "dimension_lower_bound", "ceiling"], 3),
                        set_key(["simulation", "max_deviation"], 1e-3),
                        set_key(["affine_section_valid"], False)):
            must_fail(op, obj, corrupt)


def nudge_factor_graph(p):
    p["witness_factorization"]["factors"][0]["entries"][0][0] += 1e-3


@pytest.mark.parametrize("size", WORKLOADS["graph-mix"].classes)
def test_graph_mix_checks_catch_corruption(tmp_path, rng, size):
    op = build_graph_mix(size, rng, tmp_path / size)
    obj = run(op)
    p = obj["payload"]
    if "cpsd" in p:
        must_fail(op, obj, set_key(["cpsd"], not p["cpsd"]))
        if p["witness"] is not None:
            must_fail(op, obj, set_key(["witness"], p["witness"][:-1]))  # even length
            must_fail(op, obj, set_key(["witness"], p["witness"][:-1] + p["witness"][:1]))
    elif "support_bound" in p:
        must_fail(op, obj, set_key(["support_bound"], p["support_bound"] - 1))
        must_fail(op, obj, nudge_factor_graph)
    else:
        must_fail(op, obj, set_key(["certificate", "valid"], False))


def test_unparsable_or_failed_output_is_a_failure(tmp_path, rng):
    op = build_graph_mix("gnp", rng, tmp_path / "g")
    obj = run(op)
    with pytest.raises(CheckFailed):
        op.verify(json.dumps(obj).encode()[:-5])
    obj["status"] = "invalid-input"
    with pytest.raises(CheckFailed):
        op.verify(json.dumps(obj).encode())


def test_five_cycle_count_matches_enumeration():
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(5, 10))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        g = nx.Graph(edges)
        want = sum(1 for c in nx.simple_cycles(g, length_bound=5) if len(c) == 5)
        assert five_cycle_count(adjacency(n, edges)) == want


def test_tracer_records_nested_calls_and_restores(tmp_path, rng):
    original = cpsdlab.matcore.spectral
    op = build_factorize("n4", rng, tmp_path / "t")
    tracer = Tracer()
    with tracer.installed():
        assert cpsdlab.cli.spectral is not original
        assert cpsdlab.cli.main(op.argv) == 0
    assert cpsdlab.cli.spectral is original and cpsdlab.matcore.spectral is original
    summary = tracer.summary()
    for span in ("cli.main", "jsonio.dumps", "lorentz.lorentz_embed", "clifford.gamma",
                 "cpsdrank.CpsdFactorization.init", "matcore.HermMatrix.init"):
        assert summary[span]["calls"] >= 1, span
    # the command's own spectral call and the psd checks of the factors
    assert summary["matcore.spectral"]["calls"] >= 2 * 72
    total = sum(r["self_ns"] for r in summary.values())
    root = next(s for s in tracer.spans if s[0] == "cli.main")
    assert total == root[3] - root[2]


def test_benchmark_json_names_match_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == layer_metric_names()
    assert {m.split(".")[0] for m in layer_metric_names()} >= set(MODULES)
