"""Per-layer tracing from outside the program.

Every public function and method of the nine cpsdlab modules is wrapped, in
every module namespace that holds it (``cli.spectral``, ``cpsdrank.spectral``
and ``matcore.spectral`` are one function under three names), so nested
calls are recorded too.  Spans stay in memory with their parent ids; self
time is a span's duration minus the durations of its children.  The wrappers
are removed again when the traced phase ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from contextlib import contextmanager
from time import perf_counter_ns

MODULES = ("cli", "jsonio", "lorentz", "clifford", "cpsdrank", "matcore", "bell", "quantum",
           "separations")

# Sizes recorded next to the time of a call: (args, result) -> bytes.
MEASURES = {
    "jsonio.dumps": lambda args, result: len(result),
    "jsonio.loads": lambda args, result: len(args[0]),
    # the dense factors the Gram reads: N d^2 complex doubles
    "cpsdrank.CpsdFactorization.gram": lambda args, result: args[0].n * args[0].d ** 2 * 16,
    "quantum.simulate_behavior": lambda args, result: (
        (args[0].m_a + args[0].m_b) * args[0].d ** 2 * 16),
}

# (span, field) pairs reported per op; the comment names what they should move.
FUNCTION_METRICS = (
    # factorize-exp ops_per_s and tail: serializing dense factors
    ("jsonio.dumps", "self_ms"), ("jsonio.dumps", "bytes"),
    ("jsonio.factorization_to_json", "self_ms"), ("jsonio.matrix_to_json", "self_ms"),
    # verify-exp: reading them back
    ("jsonio.loads", "self_ms"), ("jsonio.loads", "bytes"),
    ("jsonio.factorization_from_json", "self_ms"), ("jsonio.matrix_from_json", "self_ms"),
    # factorize-exp and verify-exp: Gram, psd checks, verification
    ("cpsdrank.CpsdFactorization.gram", "self_ms"),
    ("cpsdrank.CpsdFactorization.gram", "factor_bytes"),
    ("cpsdrank.CpsdFactorization.init", "self_ms"),
    ("cpsdrank.verify_factorization", "self_ms"),
    ("matcore.spectral", "calls"), ("matcore.spectral", "self_ms"),
    ("matcore.HermMatrix.init", "calls"), ("matcore.HermMatrix.init", "self_ms"),
    # factorize-exp: reduce and embed; gamma also on behavior-exp
    ("lorentz.gl_reduce", "self_ms"), ("lorentz.lorentz_embed", "self_ms"),
    ("lorentz.lorentz_embed", "calls"), ("clifford.gamma", "self_ms"),
    ("clifford.gamma", "calls"), ("clifford.clifford_basis", "calls"),
    # behavior-exp only
    ("quantum.simulate_behavior", "self_ms"), ("quantum.simulate_behavior", "observable_bytes"),
    ("quantum.representation_from_vectors", "self_ms"),
    ("quantum.QuantumRepresentation.init", "self_ms"),
    ("bell.elliptope_extreme_test", "self_ms"), ("bell.validate_affine_section", "self_ms"),
    ("bell.behavior_matrix", "self_ms"), ("matcore.gram_vectors", "self_ms"),
    # verify-exp bounds
    ("cpsdrank.bound_report", "self_ms"), ("cpsdrank.scaled_analytic_bound", "self_ms"),
    # graph-mix tail and throughput
    ("separations.is_cpsd_graph", "self_ms"), ("separations.is_cpsd_graph", "calls"),
    ("separations.check_not_cp", "self_ms"), ("separations.check_not_vna", "self_ms"),
    ("cpsdrank.support_bound_witness", "self_ms"),
    # graph-mix median: argparse, file I/O and dispatch
    ("cli.main", "self_ms"),
)

UNITS = {"self_ms": "ms", "calls": "calls/op", "bytes": "B/op", "factor_bytes": "B/op",
         "observable_bytes": "B/op"}


def layer_metric_names() -> list:
    """Names of the per-layer metrics, in the order they are reported."""
    names = [f"{span}.{field}" for span, field in FUNCTION_METRICS]
    for module in MODULES:
        names += [f"{module}.self_ms", f"{module}.self_share", f"{module}.errors"]
    return names + ["trace.untraced_ops_per_s", "trace.traced_ops_per_s",
                    "trace.overhead_ops_per_s", "trace.spans_per_op"]


def _targets():
    """(span name, owner, attribute, original) for every public callable."""
    for module in MODULES:
        mod = importlib.import_module(f"cpsdlab.{module}")
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module}.{attr}", mod, attr, obj
            elif inspect.isclass(obj):
                for name, member in vars(obj).items():
                    label = "init" if name == "__post_init__" else name
                    if label.startswith("_"):
                        continue
                    if inspect.isfunction(member) or isinstance(member, classmethod):
                        yield f"{module}.{obj.__name__}.{label}", obj, name, member


class Tracer:
    """Records one span per wrapped call: [name, parent id, start ns, end ns, bytes, raised]."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list = []

    def _wrap(self, name: str, fn):
        spans, stack, measure = self.spans, self._stack, MEASURES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, perf_counter_ns(), 0, 0, False]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[5] = True
                raise
            finally:
                rec[3] = perf_counter_ns()
                stack.pop()
            if measure is not None:
                rec[4] = measure(args, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every target in every cpsdlab namespace; restore on exit."""
        namespaces = [m for n, m in list(sys.modules.items())
                      if n == "cpsdlab" or n.startswith("cpsdlab.")]
        undo = []
        try:
            for name, owner, attr, original in list(_targets()):
                if isinstance(original, classmethod):
                    setattr(owner, attr, classmethod(self._wrap(name, original.__func__)))
                    undo.append((owner, attr, original))
                    continue
                wrapper = self._wrap(name, original)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, key, wrapper)
                            undo.append((ns, key, original))
                if owner not in namespaces:  # a method: patch its class
                    setattr(owner, attr, wrapper)
                    undo.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def summary(self) -> dict:
        """Per span name: self ns, calls, errors and bytes, summed over all spans."""
        child = [0] * len(self.spans)
        for name, parent, start, end, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for k, (name, _, start, end, size, raised) in enumerate(self.spans):
            row = out.setdefault(name, {"self_ns": 0, "calls": 0, "errors": 0, "bytes": 0})
            row["self_ns"] += end - start - child[k]
            row["calls"] += 1
            row["errors"] += raised
            row["bytes"] += size
        return out


def layer_metrics(summary: dict, ops: int, busy_ns: int, untraced_rate: float,
                  traced_rate: float, spans: int) -> dict:
    """The per-layer metrics of a traced phase of `ops` ops lasting `busy_ns`."""
    metrics = {}
    for span, field in FUNCTION_METRICS:
        row = summary.get(span, {"self_ns": 0, "calls": 0, "bytes": 0})
        value = {"self_ms": row["self_ns"] / 1e6, "calls": row["calls"]}.get(field, row["bytes"])
        metrics[f"{span}.{field}"] = {"value": value / ops, "unit": UNITS[field]}
    for module in MODULES:
        rows = [row for span, row in summary.items() if span.split(".")[0] == module]
        self_ns = sum(r["self_ns"] for r in rows)
        metrics[f"{module}.self_ms"] = {"value": self_ns / 1e6 / ops, "unit": "ms"}
        metrics[f"{module}.self_share"] = {"value": self_ns / busy_ns, "unit": "ratio"}
        metrics[f"{module}.errors"] = {"value": sum(r["errors"] for r in rows), "unit": "count"}
    metrics["trace.untraced_ops_per_s"] = {"value": untraced_rate, "unit": "1/s"}
    metrics["trace.traced_ops_per_s"] = {"value": traced_rate, "unit": "1/s"}
    metrics["trace.overhead_ops_per_s"] = {"value": untraced_rate - traced_rate, "unit": "1/s"}
    metrics["trace.spans_per_op"] = {"value": spans / ops, "unit": "spans/op"}
    return metrics
