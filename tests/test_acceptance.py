"""Acceptance suite: every criterion is one test that runs at its stated
tolerance and prints one [criterion N] PASS line (visible with pytest -s).

Run with:  pytest tests/test_acceptance.py -v -s
"""

import math
import time

import numpy as np
import pytest

from conftest import (
    five_factor_example,
    has_long_odd_cycle_oracle,
    make_rng,
    no_psd_root_example,
    random_dnn,
    svec_rows,
)
from cpsdlab.bell import (
    behavior_from_correlation,
    behavior_matrix_factorization,
    dq_lower_bound,
    elliptope_extreme_construct,
    elliptope_extreme_test,
    exponential_family,
    exponential_family_vectors,
    r_max,
)
from cpsdlab.clifford import gamma
from cpsdlab.cpsdrank import (
    CpsdFactorization,
    analytic_lower_bound,
    hadamard_sqrt_psd,
    verify_factorization,
)
from cpsdlab.lorentz import gl_matrix, gl_to_cpsd, in_cone, lorentz_embed
from cpsdlab.matcore import HermMatrix, gram_vectors, spectral
from cpsdlab.quantum import (
    QuantumRepresentation,
    max_entangled,
    representation_from_vectors,
    simulate_behavior,
)
from cpsdlab.separations import (
    Graph,
    check_not_cp,
    check_not_vna,
    cycle_pairing,
    cycle_vectors,
    is_cpsd_graph,
    odd_cycle_dnn,
    odd_cycle_index_sets,
)


def _report(num: int, text: str) -> None:
    print(f"[criterion {num:2d}] PASS: {text}")


def test_criterion_01_five_factor_reproduction():
    X, mats = five_factor_example()
    fact = CpsdFactorization(
        d=4, factors=mats)
    report = verify_factorization(X, fact, tol=1e-12)
    assert report.ok and report.max_residual < 1e-12
    # runtime of the residual computation itself, warm, best of five
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        residual = float(np.abs(X - fact.gram()).max())
        best = min(best, time.perf_counter() - t0)
    assert residual < 1e-12
    assert best < 1e-3
    _report(1, f"five-factor reproduction, residual {report.max_residual:.2e}, "
               f"{best * 1e6:.0f} us")


def test_criterion_02_clifford_identity_suite():
    t0 = time.perf_counter()
    for n in range(2, 13):
        rng = make_rng(n)
        d = gamma(np.ones(n)).n
        assert d == 2 ** (n // 2)
        eye = np.eye(d)
        for _ in range(100):
            x, y = rng.standard_normal(n), rng.standard_normal(n)
            gx, gy = gamma(x).entries, gamma(y).entries
            ip = float(x @ y)
            scale = max(1.0, abs(ip))
            assert abs(np.trace(gx @ gy).real - d * ip) <= 1e-9 * d * scale
            assert np.abs(gx @ gy + gy @ gx - 2 * ip * eye).max() <= 1e-9 * scale
            assert abs(np.trace(gx)) <= 1e-9 * max(1.0, float(np.abs(x).max()))
            unit = x / np.linalg.norm(x)
            gu = gamma(unit).entries
            assert np.abs(gu @ gu - eye).max() <= 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(2, f"clifford identities for n in 2..12, 100 pairs each, {elapsed:.2f} s")


def test_criterion_03_lorentz_isometry_and_cone():
    total_pairs = 0
    for m in range(2, 11):
        rng = make_rng(200 + m)
        vectors = []
        for _ in range(1000):
            x = rng.standard_normal(m - 1)
            nx_ = np.linalg.norm(x)
            if nx_ < 1e-12:
                x = np.zeros(m - 1)
                x[0] = 1.0
                nx_ = 1.0
            x = x / nx_ * rng.uniform(0.2, 1.0)
            kind = rng.integers(0, 3)
            if kind == 0:
                offset = rng.uniform(-0.5, 0.5)
            else:
                offset = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-7.5, -3.0)
            vectors.append(np.concatenate(([np.linalg.norm(x) + offset], x)))
        embeds = [lorentz_embed(v) for v in vectors]
        # isometry on consecutive pairs
        for a, b, ea, eb in zip(vectors, vectors[1:], embeds, embeds[1:]):
            lhs = float(np.trace(ea.entries @ eb.entries).real)
            rhs = float(a @ b)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))
            total_pairs += 1
        # cone correspondence, matched tolerance band, zero misclassification
        for v, e in zip(vectors, embeds):
            margin = v[0] - float(np.linalg.norm(v[1:]))
            if abs(margin) <= 1e-10:
                continue
            scaled_min = float(spectral(e).eigenvalues[0]) * math.sqrt(e.n)
            is_psd_scaled = scaled_min >= -1e-10
            member = margin > 0
            assert is_psd_scaled == member
            assert in_cone(v[None])[0] == member
    _report(3, f"lorentz isometry ({total_pairs} pairs) and cone correspondence, "
               f"1000 vectors per m in 2..10, zero misclassifications")


def test_criterion_04_gl_pipeline_tightness():
    t0 = time.perf_counter()
    intervals = {}
    for n in (1, 2, 3):
        C, P = exponential_family(n)
        N = C.n
        assert N == 2 * n * n + n
        W = exponential_family_vectors(n)
        fam = behavior_matrix_factorization(C, U=W)
        fact = gl_to_cpsd(fam)
        assert verify_factorization(P, fact, tol=1e-8).ok
        size_cap = 2 ** (r_max(N) // 2 + 1)
        assert fact.d <= size_cap
        report = elliptope_extreme_test(C.entries)
        assert report.is_extreme and report.rank == 2 * n
        value, ceiling = dq_lower_bound(report)
        assert value == pytest.approx(math.sqrt(2.0) ** (2 * n // 2))
        intervals[n] = (ceiling, size_cap, fact.d)
        assert ceiling <= fact.d <= size_cap  # nonempty certified interval
    elapsed = time.perf_counter() - t0
    assert intervals[1][:2] == (2, 4)
    assert elapsed < 5.0
    _report(4, f"pipeline bounds {intervals} as (ceil lower, size cap, achieved d), "
               f"{elapsed:.2f} s")


def test_criterion_05_cross_module_physics():
    for n, r in [(3, 2), (6, 3), (10, 4)]:
        C = elliptope_extreme_construct(n, r)
        U = gram_vectors(C)
        rep = representation_from_vectors(U, U)
        simulated = simulate_behavior(rep)
        direct = behavior_from_correlation(C)
        assert np.abs(simulated.table - direct.table).max() <= 1e-9
        assert rep.d <= 8
        psi = max_entangled(rep.d)
        explicit = QuantumRepresentation(
            d=rep.d, row_observables=rep.row_observables,
            col_observables=rep.col_observables,
            state=HermMatrix(np.outer(psi, psi.conj())))
        assert np.abs(simulate_behavior(explicit).table
                      - simulated.table).max() <= 1e-10
    _report(5, "simulation equals closed-form behavior at (3,2), (6,3), (10,4); "
               "explicit state agrees with pairing path")


def test_criterion_06_separation_certificates():
    t0 = time.perf_counter()
    fam = cycle_vectors(6)
    pairs, subset = cycle_pairing(6)
    cert = check_not_cp(fam.vectors, pairs, subset)
    assert cert.valid
    fact = gl_to_cpsd(fam)
    assert fact.d == 2
    assert verify_factorization(gl_matrix(fam), fact, tol=1e-8).ok
    for t in (2, 3, 4):
        X = odd_cycle_dnn(t)
        vna = check_not_vna(X, *odd_cycle_index_sets(t))
        assert vna.valid
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(6, f"machine-checked cone separations (circle family d=2 + shifted "
               f"odd cycles t=2,3,4), {elapsed:.2f} s")


def test_criterion_07_elliptope_extremality():
    rng = make_rng(77)
    count = 0
    for n in range(1, 16):
        for r in range(1, r_max(n) + 1):
            X = elliptope_extreme_construct(n, r)
            report = elliptope_extreme_test(X)
            assert report.is_extreme and report.rank == r
            # stability of the span dimension under 1e-10 vector perturbations
            V = gram_vectors(X)
            noisy = V + 1e-10 * rng.standard_normal(V.shape)
            S = svec_rows(noisy)
            assert spectral(S @ S.T).rank == report.span_dim
            count += 1
    i3 = elliptope_extreme_test(np.eye(3))
    assert not i3.is_extreme
    _report(7, f"{count} constructed extreme points pass, identity fails, span "
               f"dimension stable under 1e-10 perturbations")


def test_criterion_08_cpsd_graph_oracle_equivalence():
    t0 = time.perf_counter()
    checked = 0
    # every isomorphism class with at most 7 vertices
    from networkx.generators.atlas import graph_atlas_g

    for g in graph_atlas_g():
        if g.number_of_nodes() == 0:
            continue
        G = Graph.from_edges(g.number_of_nodes(), list(g.edges()))
        ours, witness = is_cpsd_graph(G)
        oracle, _ = has_long_odd_cycle_oracle(G)
        assert ours == (not oracle)
        checked += 1
    # the full 8-vertex class sweep is out of reach in 60 s, so per the stated
    # fallback: a 10,000-graph random sample on 8..10 vertices
    rng = make_rng(88)
    for _ in range(10000):
        n = int(rng.integers(8, 11))
        p = rng.uniform(0.08, 0.5)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.uniform() < p]
        G = Graph.from_edges(n, edges)
        ours, witness = is_cpsd_graph(G)
        oracle, _ = has_long_odd_cycle_oracle(G)
        assert ours == (not oracle)
        if witness is not None:
            assert len(witness) >= 5 and len(witness) % 2 == 1
            for a, b in zip(witness, witness[1:] + witness[:1]):
                assert G.has_edge(a, b)
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(8, f"odd-cycle test agrees with enumeration oracle on {checked} "
               f"graphs (all classes n<=7 + 10000 random on 8..10), {elapsed:.1f} s")


def test_criterion_09_bound_sanity_and_hadamard():
    rng = make_rng(99)
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        X = random_dnn(rng, n)
        assert analytic_lower_bound(X) <= n + 1e-9
    for n in (1, 2, 5, 11):
        assert analytic_lower_bound(np.eye(n)) == n
    assert hadamard_sqrt_psd(no_psd_root_example()) is None
    found = 0
    for _ in range(50):
        g = rng.standard_normal((4, 4))
        root = g @ g.T
        target = root * root
        pattern = hadamard_sqrt_psd(target)
        assert pattern is not None
        signed_root = pattern * np.sqrt(target)
        assert spectral(HermMatrix(signed_root.astype(complex))).is_psd
        found += 1
    _report(9, f"analytic bound <= n on 1000 random doubly nonnegative matrices, "
               f"exact on identities, hadamard root none/{found} found as expected")


def test_criterion_10_exponential_growth_note():
    # The headline growth statement is asymptotic and not directly measurable;
    # it is accepted through the certified lower bounds of criterion 4, which
    # grow as sqrt(2)^n for the quadratic-size family.
    values = []
    for n in (1, 2, 3):
        C, _ = exponential_family(n)
        report = elliptope_extreme_test(C.entries)
        value, _ = dq_lower_bound(report)
        values.append(value)
    assert values[0] == pytest.approx(math.sqrt(2.0))
    assert values[1] == pytest.approx(2.0)
    assert values[2] == pytest.approx(2.0 * math.sqrt(2.0))
    ratios = [values[1] / values[0], values[2] / values[1]]
    assert all(abs(r - math.sqrt(2.0)) < 1e-12 for r in ratios)
    _report(10, f"certified lower bounds {[round(v, 4) for v in values]} grow by "
                f"sqrt(2) per step at n = 1, 2, 3 (asymptotic claim accepted "
                f"via these certificates)")
