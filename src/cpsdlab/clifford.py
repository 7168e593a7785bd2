"""Anticommuting Hermitian generator families built from Pauli tensor words.

The map gamma sends R^k linearly into Hermitian matrices of size
d = 2^floor(k/2) so that

    gamma(x) gamma(y) + gamma(y) gamma(x) = 2 <x, y> I_d,

which forces Tr(gamma(x) gamma(y)) = d <x, y> and gamma(x)^2 = |x|^2 I_d.
gamma(e_i) are the Jordan-Wigner Pauli words: with l = floor(k/2),

    gamma(e_i)     = Z^(i-1) (x) X (x) I^(l-i)    for i = 1..l,
    gamma(e_{i+l}) = Z^(i-1) (x) Y (x) I^(l-i)    for i = 1..l,

and for odd k additionally gamma(e_k) = Z^l. The words are never built:
gammas(X) fills the images of a whole family of vectors straight from their
index pattern, and gamma(x) is its one-row case. Every dense gamma
image counts against one byte budget, checked before anything is allocated.
"""

from __future__ import annotations

import numpy as np

from .errors import CapExceeded
from .matcore import HermMatrix

DENSE_BUDGET = 2 ** 30  # bytes of dense complex gamma images one call may build


def _gamma_size(k: int, count: int = 1) -> int:
    """Size d = 2^floor(k/2) of gamma on R^k; raises CapExceeded when `count`
    dense images of that size (d^2 complex doubles each) exceed DENSE_BUDGET."""
    d = 2 ** (k // 2)
    need = count * d * d * 16
    if need > DENSE_BUDGET:
        raise CapExceeded(f"{count} dense {d} x {d} gamma images need {need} bytes, "
                          f"over the budget of {DENSE_BUDGET} bytes")
    return d


def gammas(X) -> np.ndarray:
    """The images gamma(x) of the rows x of X, as one (n, d, d) complex stack.

    Qubit q (bit b = 2^(l-1-q) of the row index r) carries the X- and Y-words
    of x_q and x_{q+l}; both are nonzero only at (r, r XOR b), where together
    they read s(r) (x_q + i (2 r_q - 1) x_{q+l}), with r_q the qubit's bit of r
    and s(r) = (-1)^(set bits of r above b) the sign of the Z-string. For odd k,
    x_k (-1)^popcount(r) fills the diagonal. Entries accumulate into zeros,
    so every zero is +0.0 whatever the signs of the zero coordinates, and
    each image is exactly Hermitian. The n images count against the budget
    together.
    """
    V = np.asarray(X, dtype=float)
    if V.ndim != 2 or V.shape[1] == 0:
        raise ValueError(f"gammas needs a matrix of nonempty row vectors, got shape {V.shape}")
    n, k = V.shape
    half = k // 2
    d = _gamma_size(k, count=n)
    out = np.zeros((n, d, d), dtype=complex)
    r = np.arange(d)
    sign = np.ones(d)
    for q in range(half):
        b = 1 << (half - 1 - q)
        y_sign = np.where(r & b, 1.0, -1.0)  # 2 r_q - 1
        pair = np.empty((n, d), dtype=complex)
        pair.real = sign * V[:, q, None]
        pair.imag = sign * y_sign * V[:, q + half, None]
        out[:, r, r ^ b] += pair
        sign = -sign * y_sign
    if k % 2:
        out[:, r, r] += sign * V[:, -1, None]
    return out


def gamma(x) -> HermMatrix:
    """The linear extension sum_i x_i gamma(e_i) for a nonempty real vector x:
    the one-row case of `gammas`."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError(f"gamma needs a nonempty vector, got shape {v.shape}")
    return HermMatrix(gammas(v[None])[0])
