"""Batch command-line surface with stable JSON input and output.

Exit codes are 0 (ok), 2 (invalid input), 3 (size budget exceeded),
4 (verification failed). Failures emit a machine-parseable JSON object on
stderr. All commands are deterministic: identical input files produce
byte-identical output.

`main` may also be called many times in one process. The calls share one
argument parser, built on the first call, and each command runs with the
cyclic garbage collector paused; `main` re-enables it on return, also on
`SystemExit` and unexpected exceptions, unless the caller had disabled it.
The pause is process-wide: threads calling `main` concurrently may re-enable
the collector while another command still runs, which costs speed, never
correctness.
"""

from __future__ import annotations

import argparse
import functools
import gc
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import bell, cpsdrank, jsonio, lorentz, quantum, separations
from .errors import CapExceeded, VerificationError
from .matcore import _symmetric, gram_vectors, spectral

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_CAP_EXCEEDED = 3
EXIT_VERIFICATION_FAILED = 4


@dataclass
class CommandResult:
    status: str
    payload: dict
    provenance: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {"status": self.status, "payload": self.payload,
                "provenance": list(self.provenance)}


def _read_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return jsonio.loads(fh.read())
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc


def _write_result(result: CommandResult, out: str | None) -> None:
    text = jsonio.dumps(result.to_json())
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write("\n")
    else:
        sys.stdout.write(text)
        sys.stdout.write("\n")


# command handlers ------------------------------------------------------

def _cmd_generate(args) -> CommandResult:
    kind = args.kind
    if kind == "elliptope-extreme":
        if args.n is None or args.r is None:
            raise ValueError("elliptope-extreme needs --n and --r")
        X = bell.elliptope_extreme_construct(args.n, args.r)
        return CommandResult("ok", {"matrix": jsonio.matrix_to_json(X)},
                             ["elliptope-extreme-gram-construction"])
    if kind == "exp-family":
        if args.n is None:
            raise ValueError("exp-family needs --n")
        C, P = bell.exponential_family(args.n)
        W = bell.exponential_family_vectors(args.n)
        fam = bell.behavior_matrix_factorization(C, U=W)
        report = bell.elliptope_extreme_test(C.entries)
        value, ceiling = bell.dq_lower_bound(report)
        payload = {
            "N": C.n,
            "correlation": jsonio.matrix_to_json(C.entries),
            "behavior_matrix": jsonio.matrix_to_json(P),
            "lorentz_vectors": jsonio.lorentz_to_json(fam),
            "rank": report.rank,
            "dimension_lower_bound": {"value": value, "ceiling": ceiling},
        }
        return CommandResult("ok", payload,
                             ["multiset-pair-gram-family",
                              "elliptope-extreme-dimension-bound"])
    if kind == "cycle-sep":
        if args.n is None:
            raise ValueError("cycle-sep needs --n")
        fam = separations.cycle_vectors(args.n)
        pairs, subset = separations.cycle_pairing(args.n)
        cert = separations.check_not_cp(fam.vectors, pairs, subset)
        payload = {
            "vectors": jsonio.lorentz_to_json(fam),
            "gram": jsonio.matrix_to_json(lorentz.gl_matrix(fam)),
            "certificate": jsonio.not_cp_certificate_to_json(cert),
        }
        return CommandResult("ok", payload, ["antipodal-circle-family",
                                             "paired-midpoint-certificate"])
    if kind == "odd-cycle-dnn":
        if args.t is None:
            raise ValueError("odd-cycle-dnn needs --t")
        X = separations.odd_cycle_dnn(args.t)
        set_i, set_j, i_star, j_star = separations.odd_cycle_index_sets(args.t)
        cert = separations.check_not_vna(X, set_i, set_j, i_star, j_star)
        payload = {
            "matrix": jsonio.matrix_to_json(X),
            "certificate": jsonio.not_vna_certificate_to_json(cert),
        }
        return CommandResult("ok", payload, ["shifted-cycle-adjacency",
                                             "closure-separation-certificate"])
    if kind == "eij-gram":
        if args.r is None:
            raise ValueError("eij-gram needs --r")
        if args.r < 2:
            raise ValueError("--r must be at least 2")
        X, fact = _pair_perturbation_gram(args.r)
        payload = {
            "matrix": jsonio.matrix_to_json(X),
            "factorization": jsonio.factorization_to_json(fact),
        }
        return CommandResult("ok", payload, ["pair-perturbation-gram"])
    raise ValueError(f"unknown generator kind {kind!r}")


def _pair_perturbation_gram(r: int):
    """Gram matrix of the psd family I_r + e_i e_j^T + e_j e_i^T (i < j)."""
    i, j = np.triu_indices(r, 1)
    k = np.arange(len(i))
    S = np.tile(np.eye(r), (len(i), 1, 1))
    S[k, i, j] = S[k, j, i] = 1.0
    fact = cpsdrank.CpsdFactorization(d=r, factors=S)
    return fact.gram(), fact


def _cmd_factorize(args) -> CommandResult:
    obj = _read_json(args.input)
    if isinstance(obj, dict) and "vectors" in obj:
        fam = jsonio.lorentz_from_json(obj)
    elif isinstance(obj, dict) and "entries" in obj:
        M = jsonio.matrix_from_json(obj)
        if isinstance(M, np.ndarray) and M.shape == (2, 2):
            fam = lorentz.gl2_factorize(M[0, 0], M[0, 1], M[1, 1])
        else:
            raise ValueError("matrix inputs are only factorizable in the 2 x 2 "
                             "doubly nonnegative fallback; supply cone vectors "
                             "for larger matrices")
    else:
        raise ValueError("input must be a lorentz vector family or a matrix")
    target = lorentz.gl_matrix(fam)
    fact = lorentz.gl_to_cpsd(fam)
    report = cpsdrank.verify_factorization(target, fact, tol=args.tol)
    rank = spectral(target).rank
    size_bound = 2 ** ((rank + 1) // 2)
    payload = {
        "gram": jsonio.matrix_to_json(target),
        "factorization": jsonio.factorization_to_json(fact),
        "verify": jsonio.verify_report_to_json(report),
        "factor_size": fact.d,
        "rank": rank,
        "factor_size_bound": size_bound,
    }
    if not report.ok:
        raise VerificationError(report.max_residual)
    return CommandResult("ok", payload, ["gram-lorentz-to-psd-embedding",
                                         "rank-reduced-ambient-dimension"])


def _cmd_bound(args) -> CommandResult:
    if args.graph:
        gobj = _read_json(args.input)
        G = jsonio.graph_from_json(gobj)
        fact, bound = separations.support_bound_witness(G)
        payload = {
            "graph": jsonio.graph_to_json(G),
            "support_bound": bound,
            "witness_factorization": jsonio.factorization_to_json(fact),
        }
        return CommandResult("ok", payload, ["support-projector-witness"])
    obj = _read_json(args.input)
    M = jsonio.matrix_from_json(obj)
    if not isinstance(M, np.ndarray):
        raise ValueError("bounds are computed for real symmetric matrices")
    upper = None
    upper_provenance = None
    verify_payload = None
    if args.verify:
        fact = jsonio.factorization_from_json(_read_json(args.verify))
        report = cpsdrank.verify_factorization(M, fact, tol=args.tol)
        verify_payload = jsonio.verify_report_to_json(report)
        if not report.ok:
            raise VerificationError(report.max_residual)
        upper = fact.d
        upper_provenance = "verified-factorization-upper-bound"
    report = cpsdrank.bound_report(M, scale_search=args.scale_search,
                                   upper=upper, upper_provenance=upper_provenance)
    payload = {"bounds": jsonio.bound_report_to_json(report)}
    if verify_payload is not None:
        payload["verify"] = verify_payload
    provenance = ["analytic-trace-lower-bound", "rank-sqrt-lower-bound"]
    if args.scale_search:
        provenance.insert(1, "diagonal-rescaling-search")
    if upper is not None:
        provenance.append("verified-factorization-upper-bound")
    return CommandResult("ok", payload, provenance)


def _cmd_behavior(args) -> CommandResult:
    obj = _read_json(args.input)
    M = jsonio.matrix_from_json(obj)
    if not isinstance(M, np.ndarray):
        raise ValueError("correlation input must be a real matrix")
    C = bell.as_correlation(M)
    if not spectral(_symmetric(M)).is_psd:
        raise ValueError("correlation matrix must be positive semidefinite")
    p = bell.behavior_from_correlation(C)
    payload = {"behavior": jsonio.behavior_to_json(p)}
    provenance = ["correlation-to-unbiased-behavior"]
    # factor-size bounds for the behavior matrix: the rank bound always holds;
    # the dimension bound needs an extremality certificate and is reported as
    # unavailable without one
    P = bell.behavior_matrix(C)
    rank_b = cpsdrank.rank_lower_bound(P)
    bounds: dict = {"rank_lower_bound": rank_b,
                    "rank_lower_bound_ceiling": cpsdrank.ceil_snapped(rank_b),
                    "dimension_lower_bound": None}
    member = bell.elliptope_member(M)
    if member and (extreme := bell.elliptope_extreme_test(M)).is_extreme:
        value, ceiling = bell.dq_lower_bound(extreme)
        bounds["dimension_lower_bound"] = {"value": value, "ceiling": ceiling}
        provenance.append("elliptope-extreme-dimension-bound")
    payload["bounds"] = bounds
    if args.simulate or args.validate:
        if not member:
            raise ValueError("simulation and validation need a unit-diagonal "
                             "(elliptope) correlation matrix")
        U = gram_vectors(M)
    if args.simulate:
        rep = quantum.representation_from_vectors(U, U)
        simulated = quantum.simulate_behavior(rep)
        deviation = float(np.abs(simulated.table - p.table).max())
        payload["simulation"] = {"d": rep.d, "max_deviation": deviation}
        provenance.append("clifford-observable-simulation")
        if deviation > args.tol:
            raise VerificationError(deviation)
    if args.validate:
        fam = bell.gl_behavior_factorization(C, U, U)
        R = lorentz.gl_matrix(fam)
        payload["affine_section_valid"] = bell.validate_affine_section(R, p)
        provenance.append("affine-section-validation")
    return CommandResult("ok", payload, provenance)


def _cmd_graph(args) -> CommandResult:
    G = jsonio.graph_from_json(_read_json(args.input))
    ok, witness = separations.is_cpsd_graph(G)
    payload = {"cpsd": ok, "witness": list(witness) if witness else None}
    return CommandResult("ok", payload, ["odd-cycle-subgraph-test"])


# entry point -----------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpsdlab",
        description="Generators, factorizers, verifiers and bound reports "
                    "for completely positive semidefinite matrices.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, tol: bool = False) -> None:
        if tol:
            p.add_argument("--tol", type=float, default=1e-8,
                           help="verification tolerance (default 1e-8)")
        p.add_argument("--out", default=None, help="write output JSON here")

    g = sub.add_parser("generate", help="emit one of the named matrix families")
    g.add_argument("kind", choices=["elliptope-extreme", "exp-family", "cycle-sep",
                                    "odd-cycle-dnn", "eij-gram"])
    g.add_argument("--n", type=int, default=None)
    g.add_argument("--r", type=int, default=None)
    g.add_argument("--t", type=int, default=None)
    common(g)
    g.set_defaults(handler=_cmd_generate)

    f = sub.add_parser("factorize", help="psd-factorize a cone-vector family "
                                         "or a 2x2 doubly nonnegative matrix")
    f.add_argument("input")
    common(f, tol=True)
    f.set_defaults(handler=_cmd_factorize)

    b = sub.add_parser("bound", help="certified factor-size bounds for a matrix")
    b.add_argument("input")
    b.add_argument("--scale-search", action="store_true",
                   help="search diagonal rescalings for a better analytic bound")
    b.add_argument("--graph", action="store_true",
                   help="treat input as a graph and emit the support witness")
    b.add_argument("--verify", default=None,
                   help="factorization JSON to verify and attach as upper bound")
    common(b, tol=True)
    b.set_defaults(handler=_cmd_bound)

    be = sub.add_parser("behavior", help="unbiased behavior of a correlation matrix")
    be.add_argument("input")
    be.add_argument("--simulate", action="store_true",
                    help="cross-check through the quantum simulation path")
    be.add_argument("--validate", action="store_true",
                    help="check the affine-section normalization of the Gram matrix")
    common(be, tol=True)
    be.set_defaults(handler=_cmd_behavior)

    gr = sub.add_parser("graph", help="decide the odd-cycle support property")
    gr.add_argument("input")
    common(gr)
    gr.set_defaults(handler=_cmd_graph)
    return parser


def _fail(status: str, message: str, code: int, extra: dict | None = None) -> int:
    obj = {"status": status, "error": message}
    if extra:
        obj.update(extra)
    sys.stderr.write(jsonio.dumps(obj) + "\n")
    return code


def main(argv=None) -> int:
    # the parsed JSON holds many small acyclic lists that the cyclic collector
    # would only re-traverse; the caller's collector state comes back on exit
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if collecting:
            gc.enable()


def _check_tol(args) -> None:
    """--tol must be finite and nonnegative: NaN or infinity would pass every
    numerical check vacuously, and a negative tolerance would fail them all."""
    tol = getattr(args, "tol", None)
    if tol is not None and not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"--tol must be a finite nonnegative number, got {tol!r}")


def _attach_tol_values(argv: list) -> list:
    """argv with each "--tol VALUE" whose VALUE parses as a float but starts
    with "-" (such as -inf or -nan, which argparse would take for an option)
    joined into "--tol=VALUE", so `_check_tol` sees and refuses it."""
    out = []
    for arg in argv:
        if out and out[-1] == "--tol" and arg.startswith("-"):
            try:
                float(arg)
            except ValueError:
                pass
            else:
                out[-1] = f"--tol={arg}"
                continue
        out.append(arg)
    return out


def _run(argv) -> int:
    argv = _attach_tol_values(sys.argv[1:] if argv is None else argv)
    args = _build_parser().parse_args(argv)
    try:
        _check_tol(args)
        result = args.handler(args)
    except CapExceeded as exc:
        return _fail("cap-exceeded", str(exc), EXIT_CAP_EXCEEDED)
    except VerificationError as exc:
        residual = exc.args[0] if exc.args and isinstance(exc.args[0], float) else None
        return _fail("verification-failed", "a certificate or factorization failed "
                     "its numerical check", EXIT_VERIFICATION_FAILED,
                     {"max_residual": residual})
    except (ValueError, TypeError, KeyError) as exc:
        return _fail("invalid-input", str(exc), EXIT_INVALID_INPUT)
    _write_result(result, args.out)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
