"""Stable JSON encodings for every value the command-line surface exchanges.

Floats are emitted with 17 significant digits (lossless round-trip for
doubles) through a small recursive emitter, because the stdlib encoder's
shortest-repr floats are not byte-stable across representations we care to
pin. Dict key order is insertion order, so identical inputs produce
byte-identical output.

Formats:
  matrix         {"n": int, "complex": bool, "entries": flat row-major,
                  complex entries as [re, im] pairs}
  lorentz family {"m": int, "vectors": [[c, x_1, ...], ...]}
  factorization  {"d": int, "factors": [matrix, ...]}
  behavior       {"mA": int, "mB": int, "table": nested [a][b][x][y]}
  graph          {"n": int, "edges": [[u, v], ...]}  (0-indexed)
  representation {"d": int, "M": [matrix, ...], "N": [matrix, ...],
                  "state": "max_entangled" | matrix}
"""

from __future__ import annotations

import json
import math

import numpy as np

from .bell import Behavior
from .cpsdrank import BoundReport, CpsdFactorization, VerifyReport
from .lorentz import GramLorentzFactorization, LorentzVector
from .matcore import HermMatrix, _square
from .quantum import MAX_ENTANGLED, QuantumRepresentation
from .separations import Graph, NotCpCertificate, NotVnaCertificate


def _fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError("cannot serialize non-finite float")
    s = format(float(x), ".17g")
    if all(ch not in s for ch in ".eE"):
        s += ".0"
    return s


def _emit(obj, out: list) -> None:
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_fmt_float(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for k, v in obj.items():
            if not isinstance(k, str):
                raise TypeError(f"JSON object keys must be strings, got {type(k)}")
            if out[-1] != "{":
                out.append(", ")
            out.append(json.dumps(k) + ": ")
            _emit(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else obj
        out.append("[")
        for v in seq:
            if out[-1] != "[":
                out.append(", ")
            _emit(v, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj)}")


def dumps(obj) -> str:
    out: list = []
    _emit(obj, out)
    return "".join(out)


def loads(text: str):
    return json.loads(text)


# matrices -------------------------------------------------------------

def matrix_to_json(M) -> dict:
    if isinstance(M, HermMatrix):
        flat = [[float(z.real), float(z.imag)] for z in M.entries.ravel()]
        return {"n": M.n, "complex": True, "entries": flat}
    a = _square(M)
    return {"n": int(a.shape[0]), "complex": False,
            "entries": [float(v) for v in a.ravel()]}


def matrix_from_json(obj: dict):
    """HermMatrix when "complex" is set, plain real ndarray otherwise."""
    try:
        n = int(obj["n"])
        is_complex = bool(obj.get("complex", False))
        entries = obj["entries"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed matrix JSON: {exc}") from exc
    if len(entries) != n * n:
        raise ValueError(f"expected {n * n} entries, got {len(entries)}")
    if is_complex:
        vals = np.array([complex(re, im) for re, im in entries]).reshape(n, n)
        return HermMatrix(vals)
    return np.array([float(v) for v in entries], dtype=float).reshape(n, n)


# lorentz families -----------------------------------------------------

def lorentz_to_json(f: GramLorentzFactorization) -> dict:
    return {"m": f.m, "vectors": [v.as_array() for v in f.vectors]}


def lorentz_from_json(obj: dict) -> GramLorentzFactorization:
    try:
        m = int(obj["m"])
        rows = obj["vectors"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed lorentz JSON: {exc}") from exc
    vecs = []
    for row in rows:
        arr = np.asarray(row, dtype=float)
        if arr.shape != (m,):
            raise ValueError(f"vector length {arr.shape} does not match m = {m}")
        vecs.append(LorentzVector(float(arr[0]), arr[1:]))
    return GramLorentzFactorization(vectors=tuple(vecs))


# psd-factor factorizations --------------------------------------------

def factorization_to_json(f: CpsdFactorization) -> dict:
    return {"d": f.d, "factors": [matrix_to_json(p) for p in f.factors]}


def factorization_from_json(obj: dict) -> CpsdFactorization:
    try:
        d = int(obj["d"])
        factors = obj["factors"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed factorization JSON: {exc}") from exc
    mats = []
    for item in factors:
        m = matrix_from_json(item)
        mats.append(m if isinstance(m, HermMatrix) else HermMatrix(m.astype(complex)))
    return CpsdFactorization(d=d, factors=tuple(mats))


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


# quantum representations ----------------------------------------------

def representation_to_json(rep: QuantumRepresentation) -> dict:
    state = MAX_ENTANGLED if rep.state == MAX_ENTANGLED else matrix_to_json(rep.state)
    return {"d": rep.d,
            "M": [matrix_to_json(m) for m in rep.row_observables],
            "N": [matrix_to_json(m) for m in rep.col_observables],
            "state": state}


def representation_from_json(obj: dict) -> QuantumRepresentation:
    try:
        d = int(obj["d"])
        rows = obj["M"]
        cols = obj["N"]
        state = obj.get("state", MAX_ENTANGLED)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed representation JSON: {exc}") from exc

    def as_herm(item) -> HermMatrix:
        m = matrix_from_json(item)
        return m if isinstance(m, HermMatrix) else HermMatrix(m.astype(complex))

    parsed_state = state if state == MAX_ENTANGLED else as_herm(state)
    return QuantumRepresentation(d=d,
                                 row_observables=tuple(as_herm(m) for m in rows),
                                 col_observables=tuple(as_herm(m) for m in cols),
                                 state=parsed_state)


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
