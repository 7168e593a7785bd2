"""JSON encodings for every value the command-line surface exchanges.

Output is byte for byte what ``json.dumps(obj, allow_nan=False)`` writes
once every numpy array is converted by ``tolist()`` and every numpy scalar by
``item()``: floats are written as their shortest round-trip text (``repr``),
which parses back bit-identical, and dict key order is insertion order, so
identical inputs produce byte-identical output. NaN and infinities are
refused on output, and the matrix and cone-vector readers refuse them (and
``null``) on input.

The writers hand arrays, not lists, to `dumps`. The standard library's
encoder writes the payload around them, with a placeholder for each finite
float64 array of at least TABLE_MIN_SIZE values, and every such array of one
call is then written from one ``float.__repr__`` per distinct value: values
are told apart by their 64-bit pattern, so -0.0 stays distinct from 0.0.
Smaller arrays, and payloads without float arrays, go through the standard
encoder alone.

Formats:
  matrix         {"n": int, "complex": bool, "entries": flat row-major,
                  complex entries as [re, im] pairs}
  lorentz family {"m": int, "vectors": [[c, x_1, ...], ...]}
  factorization  {"d": int, "factors": [matrix, ...]}  (complex factors,
                  written from and read into one (n, d, d) stack)
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

TABLE_MIN_SIZE = 256  # below this many values, tolist() is the faster way to write an array


def _numpy_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"cannot serialize {type(obj)}")


def dumps(obj) -> str:
    arrays = []

    def default(o):
        if (isinstance(o, np.ndarray) and o.dtype == np.float64 and o.ndim
                and o.size >= TABLE_MIN_SIZE and np.isfinite(o).all()):
            arrays.append(o)
            return "\0"
        return _numpy_default(o)

    try:
        text = json.dumps(obj, allow_nan=False, default=default)
    except ValueError as exc:
        raise ValueError(f"cannot serialize non-finite float: {exc}") from exc
    if not arrays:
        return text
    if text.count("\\u0000") != len(arrays):
        # a string of the payload holds a NUL character: write it the long way
        return json.dumps(obj, allow_nan=False, default=_numpy_default)
    parts = text.split('"\\u0000"')
    out = parts[:1]
    for array_text, part in zip(_array_texts(arrays), parts[1:]):
        out += (array_text, part)
    return "".join(out)


def _distinct(b: np.ndarray) -> np.ndarray:
    """The distinct values of b, sorted (faster here than np.unique's hash table)."""
    b = np.sort(b)
    return b[np.concatenate(([True], b[1:] != b[:-1]))]


def _array_texts(arrays: list) -> list:
    """The text ``tolist()`` gives each finite, nonempty float64 array of at
    least one dimension, from one ``float.__repr__`` per distinct bit pattern
    over all of them.

    Each value is followed by the separator its position needs: ", " inside
    the last axis, "], [" where one axis ends, "]], [[" where two do, and
    nothing after the last value, so an array is one join of table entries.
    Arrays are deduplicated one at a time first, so no temporary outgrows
    the largest array.
    """
    bits = [a.ravel().view(np.uint64) for a in arrays]
    distinct = _distinct(np.concatenate([_distinct(b) for b in bits]))
    reprs = list(map(float.__repr__, distinct.view(np.float64).tolist()))
    tables, offsets, texts = {}, {}, []
    for a, b in zip(arrays, bits):
        ndim = a.ndim
        if ndim not in tables:
            seps = ["]" * c + ", " + "[" * c for c in range(ndim)] + [""]
            tables[ndim] = np.array([r + sep for sep in seps for r in reprs], dtype=object)
        if a.shape not in offsets:
            # how many axes end at each position picks the separator's table row
            k = np.arange(1, a.size + 1)
            ends, stride = np.zeros(a.size, dtype=np.intp), 1
            for length in reversed(a.shape):
                stride *= length
                ends += k % stride == 0
            offsets[a.shape] = ends * len(reprs)
        items = tables[ndim][offsets[a.shape] + np.searchsorted(distinct, b)]
        texts.append("[" * ndim + "".join(items.tolist()) + "]" * ndim)
    return texts


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

def _complex_entries(a: np.ndarray) -> np.ndarray:
    """The entries of a complex matrix as [re, im] rows, row-major: a float view."""
    return a.reshape(-1).view(float).reshape(-1, 2)


def matrix_to_json(M) -> dict:
    if isinstance(M, HermMatrix):
        return {"n": M.n, "complex": True, "entries": _complex_entries(M.entries)}
    a = _square(M)
    return {"n": int(a.shape[0]), "complex": False, "entries": a.ravel()}


def _matrix_entries(obj: dict) -> np.ndarray:
    """The (n, n) entries of a matrix JSON object, complex when "complex" is set."""
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
    return arr.view(complex).reshape(n, n) if is_complex else arr.reshape(n, n)


def matrix_from_json(obj: dict):
    """HermMatrix when "complex" is set, plain real ndarray otherwise."""
    a = _matrix_entries(obj)
    return HermMatrix(a) if a.dtype.kind == "c" else a


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
    return {"d": f.d, "factors": [{"n": f.d, "complex": True, "entries": _complex_entries(p)}
                                  for p in f.factors]}


def factorization_from_json(obj: dict) -> CpsdFactorization:
    try:
        d = int(obj["d"])
        factors = obj["factors"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed factorization JSON: {exc}") from exc
    return CpsdFactorization(d=d, factors=[_matrix_entries(m) for m in factors])


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
