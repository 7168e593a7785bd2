"""Shared fixtures: seeded RNG, random matrix generators, independent oracles,
and the hand-checked five-factor example used across the suite."""

from __future__ import annotations

import json
import math
import os

import numpy as np
import pytest

DEFAULT_SEED = 20260809

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def make_rng(salt: int = 0) -> np.random.Generator:
    seed = int(os.environ.get("CPSDLAB_SEED", DEFAULT_SEED))
    return np.random.default_rng(seed + salt)


@pytest.fixture
def rng() -> np.random.Generator:
    return make_rng()


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2


def random_psd(rng: np.random.Generator, n: int, complex_entries: bool = True) -> np.ndarray:
    a = rng.standard_normal((n, n))
    if complex_entries:
        a = a + 1j * rng.standard_normal((n, n))
    return a @ a.conj().T


def pairing_tol(a: np.ndarray, b: np.ndarray) -> float:
    """Bound, fixed from the dtype, on how far two summation orders of
    Tr(A B*) for d x d matrices may differ: 8 d eps |A|_F |B|_F."""
    return 8 * a.shape[0] * np.finfo(float).eps * np.linalg.norm(a) * np.linalg.norm(b)


def random_dnn(rng: np.random.Generator, n: int) -> np.ndarray:
    """Doubly nonnegative: Gram matrix of nonnegative vectors."""
    V = np.abs(rng.standard_normal((n, n + 2)))
    return V @ V.T


def random_elliptope(rng: np.random.Generator, n: int, r: int) -> np.ndarray:
    """Random rank-<= r correlation matrix: Gram of unit vectors in R^r."""
    V = rng.standard_normal((n, r))
    V /= np.linalg.norm(V, axis=1, keepdims=True)
    return V @ V.T


def span_dim_by_qr(vectors: np.ndarray, tol: float = 1e-8) -> int:
    """Independent span-dimension oracle: column-pivoted QR on the stacked matrix."""
    from scipy.linalg import qr

    M = np.atleast_2d(np.asarray(vectors, dtype=float)).T  # columns are the vectors
    if M.size == 0:
        return 0
    _, R, _ = qr(M, pivoting=True, mode="economic")
    diag = np.abs(np.diag(R))
    if diag.size == 0:
        return 0
    return int(np.count_nonzero(diag > tol * max(1.0, diag.max())))


def five_factor_example() -> tuple[np.ndarray, list[np.ndarray]]:
    """Hand-checked 5x5 matrix with a known optimal-size family of 4x4 factors."""
    s2 = math.sqrt(2.0)
    X = np.array([
        [2, 0, 0, 1, 1],
        [0, 2, 0, 1, 1],
        [0, 0, 2, 1, 1],
        [1, 1, 1, 3, 0],
        [1, 1, 1, 0, 3]], dtype=float)
    factors = [
        np.diag([s2, 0, 0, 0]),
        np.diag([0, 1, 1, 0]),
        np.diag([0, 0, 0, s2]),
        np.array([
            [1 / s2, 0, 0, 1 / s2],
            [0, 1, 0, 0],
            [0, 0, 0, 0],
            [1 / s2, 0, 0, 1 / s2]]),
        np.array([
            [1 / s2, 0, 0, -1 / s2],
            [0, 0, 0, 0],
            [0, 0, 1, 0],
            [-1 / s2, 0, 0, 1 / s2]]),
    ]
    return X, factors


def no_psd_root_example() -> np.ndarray:
    """3x3 doubly nonnegative matrix none of whose Hadamard square roots is psd."""
    h = math.sqrt(2.0) / 2.0
    return np.array([
        [1.0, h, h],
        [h, 1.0, 0.1],
        [h, 0.1, 1.0]])


def cycle_graph_edges(n: int) -> list[tuple[int, int]]:
    return [(i, (i + 1) % n) for i in range(n)]


def has_long_odd_cycle_oracle(G) -> tuple[bool, int]:
    """Exhaustive-enumeration oracle: does the graph contain an odd cycle of
    length >= 5? Uses networkx simple-cycle enumeration, fully independent of
    the package's search."""
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(G.n))
    g.add_edges_from(G.edges)
    count = 0
    for cyc in nx.simple_cycles(g):
        count += 1
        if len(cyc) >= 5 and len(cyc) % 2 == 1:
            return True, count
    return False, count


def svec_rows(V: np.ndarray) -> np.ndarray:
    """Row i is the symmetric vectorization of the outer product v_i v_i^T:
    its diagonal, then sqrt(2) times its upper triangle, built one row at a
    time from np.outer."""
    iu = np.triu_indices(V.shape[1], k=1)
    return np.array([np.concatenate((np.diag(M), math.sqrt(2.0) * M[iu]))
                     for M in (np.outer(v, v) for v in V)])


def _tolist_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"cannot serialize {type(obj)}")


def json_oracle(obj) -> str:
    """The JSON text of obj written the plain way: every numpy array through
    tolist(), every numpy scalar through item(), then the standard encoder.
    `jsonio.dumps` must produce these bytes."""
    return json.dumps(obj, allow_nan=False, default=_tolist_default)
