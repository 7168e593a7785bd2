import numpy as np
import pytest

from conftest import PAULI_I, PAULI_X, PAULI_Y, PAULI_Z, make_rng
from cpsdlab.bell import exponential_family_vectors
from cpsdlab.clifford import DENSE_BUDGET, _gamma_size, gamma, gammas
from cpsdlab.errors import CapExceeded
from cpsdlab.matcore import spectral


def pauli_word(k: int, i: int) -> np.ndarray:
    """Dense Kronecker product of the Jordan-Wigner word gamma(e_i) on R^k
    (0-based i): Z^q X I^(l-1-q) for i = q < l, Z^q Y I^(l-1-q) for
    i = q + l, and Z^l for i = 2l when k = 2l + 1. The oracle gamma is
    checked against; it shares no code with cpsdlab.clifford."""
    half = k // 2
    if i == 2 * half:
        factors = [PAULI_Z] * half
    else:
        q, pauli = (i, PAULI_X) if i < half else (i - half, PAULI_Y)
        factors = [PAULI_Z] * q + [pauli] + [PAULI_I] * (half - 1 - q)
    out = np.ones((1, 1), dtype=complex)
    for f in factors:
        out = np.kron(out, f)
    return out


def word_sum(x: np.ndarray) -> np.ndarray:
    """sum_i x_i word_i, accumulated in index order over the nonzero x_i."""
    k = x.shape[0]
    acc = np.zeros((2 ** (k // 2),) * 2, dtype=complex)
    for i, c in enumerate(x):
        if c != 0.0:
            acc += c * pauli_word(k, i)
    return acc


def anticommutation_failures(words: list[np.ndarray], tol: float = 1e-10) -> list:
    """Pairs (i, j) with W_i W_j + W_j W_i != 2 delta_ij I; O(k^2 d^3)."""
    eye = np.eye(words[0].shape[0])
    bad = []
    for i, a in enumerate(words):
        for j, b in enumerate(words):
            want = 2.0 * eye if i == j else 0.0 * eye
            if np.abs(a @ b + b @ a - want).max() > tol:
                bad.append((i, j))
    return bad


def random_vector(rng: np.random.Generator, k: int) -> np.ndarray:
    """Normal entries, about a third of them exact zeros of either sign."""
    x = rng.standard_normal(k)
    zeros = rng.random(k) < 0.35
    x[zeros] = np.where(rng.random(k) < 0.5, 0.0, -0.0)[zeros]
    return x


def test_n2_generators_are_x_and_y():
    assert gamma([1.0, 0.0]).n == 2
    assert np.abs(gamma([1.0, 0.0]).entries - PAULI_X).max() == 0.0
    assert np.abs(gamma([0.0, 1.0]).entries - PAULI_Y).max() == 0.0


def test_n3_adds_z():
    assert gamma([0.0, 0.0, 1.0]).n == 2
    assert np.abs(gamma([0.0, 0.0, 1.0]).entries - PAULI_Z).max() == 0.0


def test_n4_generator_words():
    want = [np.kron(PAULI_X, PAULI_I), np.kron(PAULI_Z, PAULI_X),
            np.kron(PAULI_Y, PAULI_I), np.kron(PAULI_Z, PAULI_Y)]
    for e, w in zip(np.eye(4), want):
        assert np.abs(gamma(e).entries - w).max() == 0.0


@pytest.mark.parametrize("n", range(2, 9))
def test_dimension_is_two_to_half_n(n):
    assert gamma(np.ones(n)).n == 2 ** (n // 2)


@pytest.mark.parametrize("n", range(1, 13))
def test_full_anticommutation_validation(n):
    assert anticommutation_failures([pauli_word(n, i) for i in range(n)]) == []


@pytest.mark.parametrize("k", range(1, 13))
def test_basis_vectors_map_to_the_pauli_words(k):
    for i, e in enumerate(np.eye(k)):
        assert np.array_equal(gamma(e).entries, pauli_word(k, i))


@pytest.mark.parametrize("k", range(1, 13))
def test_gamma_is_bitwise_the_word_sum(k):
    # bit for bit, signed zeros included: the factorize output bytes rest on it
    rng = make_rng(100 + k)
    for _ in range(20):
        x = random_vector(rng, k)
        got = gamma(x).entries
        assert np.array_equal(got.view(np.uint64), word_sum(x).view(np.uint64))


@pytest.mark.parametrize("k", range(1, 13))
def test_stacked_fill_is_bitwise_the_per_row_gamma(k):
    rng = make_rng(200 + k)
    X = np.stack([random_vector(rng, k) for _ in range(7)])
    X[0] = -np.zeros(k)
    X[1] = -np.abs(X[1])
    got = gammas(X)
    assert got.shape == (7,) + (2 ** (k // 2),) * 2
    for x, g in zip(X, got):
        assert np.array_equal(g.view(np.uint64), gamma(x).entries.view(np.uint64))
        assert np.array_equal(g.view(np.uint64), word_sum(x).view(np.uint64))


def test_stacked_fill_counts_the_whole_family_against_the_budget():
    assert gammas(np.zeros((0, 4))).shape == (0, 4, 4)
    with pytest.raises(CapExceeded, match="342 dense 512 x 512"):
        gammas(np.zeros((342, 18)))  # refused from the estimate, 1.34 GiB
    with pytest.raises(ValueError, match="row vectors"):
        gammas(np.ones(3))


def test_gamma_of_zero_is_zero():
    for zero in (np.zeros(5), -np.zeros(5)):
        assert np.all(gamma(zero).entries.view(np.uint64) == 0)  # +0.0 everywhere


def test_gamma_planar_formula():
    v, w = 0.3, -1.2
    got = gamma(np.array([v, w])).entries
    want = np.array([[0, v - 1j * w], [v + 1j * w, 0]])
    assert np.abs(got - want).max() < 1e-15


def test_unit_vector_has_pm_one_eigenvalues():
    rng = make_rng(7)
    x = rng.standard_normal(7)
    x /= np.linalg.norm(x)
    eig = spectral(gamma(x)).eigenvalues
    assert np.abs(np.abs(eig) - 1.0).max() < 1e-9


@pytest.mark.parametrize("n", range(2, 11))
def test_trace_identity_and_anticommutation(n):
    rng = make_rng(n)
    d = 2 ** (n // 2)
    eye = np.eye(d)
    for _ in range(25):
        x, y = rng.standard_normal(n), rng.standard_normal(n)
        gx, gy = gamma(x).entries, gamma(y).entries
        ip = float(x @ y)
        scale = max(1.0, abs(ip))
        assert abs(np.trace(gx @ gy).real - d * ip) <= 1e-9 * d * scale
        anti = gx @ gy + gy @ gx
        assert np.abs(anti - 2 * ip * eye).max() <= 1e-9 * scale
        assert abs(np.trace(gx)) <= 1e-12 * max(1.0, np.abs(x).max())


def test_non_vector_rejected():
    with pytest.raises(ValueError, match="vector"):
        gamma(np.ones((2, 3)))


def test_cap_enforced():
    # d = 2^30: refused from the estimate, before numpy is asked for 2^64 bytes
    with pytest.raises(CapExceeded, match="budget"):
        gamma(np.zeros(61))
    assert _gamma_size(26) == 8192  # 8192^2 complex doubles: exactly the budget
    assert 8192 ** 2 * 16 == DENSE_BUDGET
    with pytest.raises(CapExceeded):
        _gamma_size(28)


def test_budget_admits_exp_family_n8_and_refuses_n9():
    # factorize and behavior --simulate on exp-family n build 2N images on R^{2n}
    shapes = {n: exponential_family_vectors(n).shape for n in (8, 9)}
    N, k = shapes[8]
    assert _gamma_size(k, count=2 * N) == 256  # 272 factors, 272 MiB
    N, k = shapes[9]
    with pytest.raises(CapExceeded):
        _gamma_size(k, count=2 * N)  # 342 factors of size 512, 1.34 GiB


def test_degenerate_n1_squares_to_identity():
    g = gamma([1.0]).entries
    assert g.shape == (1, 1)
    assert np.allclose(g @ g, np.eye(1))


def test_bad_n_rejected():
    with pytest.raises(ValueError, match="nonempty"):
        gamma(np.zeros(0))


def test_handmade_basis_validation():
    # the oracle's anticommutation loop is not vacuous
    assert anticommutation_failures([PAULI_X, PAULI_X]) == [(0, 1), (1, 0)]
    assert anticommutation_failures([PAULI_X, PAULI_I]) == [(0, 1), (1, 0)]
    assert anticommutation_failures([PAULI_X, 2 * PAULI_Y]) == [(1, 1)]
