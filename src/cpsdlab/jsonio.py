"""JSON encodings for every value the command-line surface exchanges.

Encoding is the standard library's: floats are written as their shortest
round-trip text (``repr``), which parses back bit-identical, and dict key
order is insertion order, so identical inputs produce byte-identical output.
Numpy arrays and scalars are converted to lists and Python numbers; NaN and
infinities are refused on output, and the matrix and cone-vector readers
refuse them (and ``null``) on input.

Formats:
  matrix         {"n": int, "complex": bool, "entries": flat row-major,
                  complex entries as [re, im] pairs}
  lorentz family {"m": int, "vectors": [[c, x_1, ...], ...]}
  factorization  {"d": int, "factors": [matrix, ...]}
  behavior       {"mA": int, "mB": int, "table": nested [a][b][x][y]}
  graph          {"n": int, "edges": [[u, v], ...]}  (0-indexed)
"""

from __future__ import annotations

import json

import numpy as np

from .bell import Behavior
from .cpsdrank import BoundReport, CpsdFactorization, VerifyReport
from .lorentz import GramLorentzFactorization
from .matcore import HermMatrix, _finite, _square
from .separations import Graph, NotCpCertificate, NotVnaCertificate


def _numpy_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"cannot serialize {type(obj)}")


def dumps(obj) -> str:
    try:
        return json.dumps(obj, allow_nan=False, default=_numpy_default)
    except ValueError as exc:
        raise ValueError(f"cannot serialize non-finite float: {exc}") from exc


def loads(text: str):
    return json.loads(text)


def _finite_array(values, what: str) -> np.ndarray:
    """values as a float array; ragged or non-numeric input is malformed,
    and NaN, Infinity and null (read as NaN) are rejected."""
    try:
        arr = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed {what} JSON: {exc}") from exc
    return _finite(arr, what)


# matrices -------------------------------------------------------------

def matrix_to_json(M) -> dict:
    if isinstance(M, HermMatrix):
        pairs = M.entries.ravel().view(float).reshape(-1, 2)
        return {"n": M.n, "complex": True, "entries": pairs.tolist()}
    a = _square(M)
    return {"n": int(a.shape[0]), "complex": False, "entries": a.ravel().tolist()}


def matrix_from_json(obj: dict):
    """HermMatrix when "complex" is set, plain real ndarray otherwise."""
    try:
        n = int(obj["n"])
        is_complex = bool(obj.get("complex", False))
        entries = obj["entries"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed matrix JSON: {exc}") from exc
    if n < 1:
        raise ValueError(f"malformed matrix JSON: n = {n} is not positive")
    arr = _finite_array(entries, "matrix")
    if arr.shape != ((n * n, 2) if is_complex else (n * n,)):
        raise ValueError(f"expected {n * n} entries, got an array of shape {arr.shape}")
    if is_complex:
        return HermMatrix(arr.view(complex).reshape(n, n))
    return arr.reshape(n, n)


# lorentz families -----------------------------------------------------

def lorentz_to_json(f: GramLorentzFactorization) -> dict:
    return {"m": f.m, "vectors": f.vectors}


def lorentz_from_json(obj: dict) -> GramLorentzFactorization:
    try:
        m = int(obj["m"])
        rows = obj["vectors"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed lorentz JSON: {exc}") from exc
    if m < 1:
        raise ValueError(f"malformed lorentz JSON: m = {m} is not positive")
    arr = _finite_array(rows, "lorentz")
    if arr.ndim != 2 or arr.shape[1] != m:
        raise ValueError(f"vector array of shape {arr.shape} does not match m = {m}")
    return GramLorentzFactorization(arr)


# psd-factor factorizations --------------------------------------------

def factorization_to_json(f: CpsdFactorization) -> dict:
    return {"d": f.d, "factors": [matrix_to_json(p) for p in f.factors]}


def _herm_from_json(obj: dict) -> HermMatrix:
    m = matrix_from_json(obj)
    return m if isinstance(m, HermMatrix) else HermMatrix(m)


def factorization_from_json(obj: dict) -> CpsdFactorization:
    try:
        d = int(obj["d"])
        factors = obj["factors"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed factorization JSON: {exc}") from exc
    return CpsdFactorization(d=d, factors=tuple(_herm_from_json(m) for m in factors))


# behaviors ------------------------------------------------------------

def behavior_to_json(p: Behavior) -> dict:
    return {"mA": p.m_a, "mB": p.m_b, "table": p.table}


def behavior_from_json(obj: dict) -> Behavior:
    try:
        table = np.asarray(obj["table"], dtype=float)
        ma, mb = int(obj["mA"]), int(obj["mB"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed behavior JSON: {exc}") from exc
    if table.shape != (2, 2, ma, mb):
        raise ValueError(f"table shape {table.shape} does not match (2, 2, {ma}, {mb})")
    return Behavior(table=table)


# graphs ---------------------------------------------------------------

def graph_to_json(g: Graph) -> dict:
    return {"n": g.n, "edges": [list(e) for e in sorted(g.edges)]}


def graph_from_json(obj: dict) -> Graph:
    try:
        n = int(obj["n"])
        edges = [(int(u), int(v)) for u, v in obj["edges"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed graph JSON: {exc}") from exc
    return Graph.from_edges(n, edges)


# reports and certificates ---------------------------------------------

def verify_report_to_json(r: VerifyReport) -> dict:
    return {"ok": r.ok, "max_residual": r.max_residual, "tol": r.tol,
            "factors_psd": r.factors_psd}


def bound_report_to_json(r: BoundReport) -> dict:
    out = {"lower_analytic": r.lower_analytic,
           "lower_rank": r.lower_rank,
           "lower_combined_int": r.lower_combined_int}
    if r.upper is not None:
        out["upper"] = r.upper
        out["upper_provenance"] = r.upper_provenance
    return out


def _checks_to_json(checks: dict) -> dict:
    return {name: {"ok": c.ok, "residual": c.residual} for name, c in checks.items()}


def not_cp_certificate_to_json(c: NotCpCertificate) -> dict:
    return {"pairs": [list(p) for p in c.pairs],
            "center": c.center_c,
            "odd_subset": list(c.odd_subset_J),
            "checks": _checks_to_json(c.checks),
            "tol": c.tol,
            "valid": c.valid}


def not_vna_certificate_to_json(c: NotVnaCertificate) -> dict:
    return {"subset_I": list(c.subset_I),
            "subset_J": list(c.subset_J),
            "i_star": c.i_star,
            "j_star": c.j_star,
            "checks": _checks_to_json(c.checks),
            "tol": c.tol,
            "valid": c.valid}
