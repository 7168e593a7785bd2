"""Benchmark of the cpsdlab command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

One client calls ``cpsdlab.cli.main(argv)`` in this process, in a closed loop:
the next command starts when the previous one has returned.  Inputs come from
--seed and are written before each round, outside the timed region; every
output is checked independently after its command, also outside it.  A run
repeats whole rounds until --seconds of command time and the workload's
minimum round count are both reached.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the end-to-end
ones.  With --trace 1 the run lasts half of --seconds of untraced command
time; each round is replayed right after it with every public cpsdlab function
wrapped, its outputs must be byte-identical, and the metrics are the per-layer
ones.  Each run also writes a record with
its context to .bench_out/.  See bench/README.md for the workloads.
"""

import os

BLAS_THREADS = "1"  # one client, one BLAS thread: at most nproc on any machine
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5
ROUND_DEADLINE_S = 120  # no new round starts later than this into the run
TAIL_BEYOND = 10  # samples the tail percentile must leave above it


@dataclass
class Sample:
    label: str
    latency: float
    out_bytes: int
    problem: str | None
    digest: str


def run_op(cli, op, check: bool = True) -> Sample:
    """Time one command; check its output unless `check` is off (traced replay)."""
    op.out.unlink(missing_ok=True)
    t0 = time.perf_counter()
    try:
        code = cli.main(op.argv)
    except SystemExit as exc:  # argparse refused the command line
        code = exc.code
    except Exception:  # a crash is a failed op, not a failed benchmark
        traceback.print_exc()
        code = "exception"
    latency = time.perf_counter() - t0
    data = op.out.read_bytes() if op.out.exists() else b""
    problem = None if code == 0 else f"exit code {code}"
    if problem is None and check:
        try:
            op.verify(data)
        except CheckFailed as exc:
            problem = str(exc)
    op.cleanup()
    return Sample(op.label, latency, len(data), problem, hashlib.sha256(data).hexdigest())


def run_rounds(cli, wl, seed, workdir, seconds, min_rounds, deadline, tracer=None):
    """Whole rounds until `seconds` of command time and `min_rounds`.

    With a tracer, every round runs twice: untraced and checked, then traced on
    the same inputs, whose outputs must be byte-identical.  Alternating the two
    keeps a slow spell of the machine from landing on one side only.
    """
    samples, replay, busy, r, reference = [], [], 0.0, 0, []
    while (busy < seconds or r < min_rounds) and (r == 0 or time.monotonic() < deadline):
        reference.append(reference_loop_ms())
        for op in wl.round(seed, r, workdir):
            samples.append(run_op(cli, op))
            busy += samples[-1].latency
        if tracer is not None:
            with tracer.installed():
                for op, first in zip(wl.round(seed, r, workdir), samples[-len(wl.classes):]):
                    replay.append(run_op(cli, op, check=False))
                    if replay[-1].problem is None and replay[-1].digest != first.digest:
                        replay[-1].problem = "traced output differs from the untraced output"
        r += 1
    return samples, replay, r, statistics.median(reference)


def reference_loop_ms() -> float:
    """A fixed pure-Python loop, timed to show in the record how fast the
    machine was; it feeds no metric."""
    t0 = time.perf_counter()
    total = 0
    for k in range(100_000):
        total += k
    return (time.perf_counter() - t0) * 1e3


def measure_setup(wl, seed, workdir):
    """Median over fresh interpreters of import time plus one smallest-input op."""
    values, problems = [], []
    for i in range(SETUP_PROBES):
        op = wl.setup_op(seed, i, workdir)
        proc = subprocess.run([sys.executable, str(HERE / "probe.py"), str(SRC),
                               json.dumps(op.argv)],
                              capture_output=True, text=True, timeout=120, check=False)
        try:
            probe = json.loads(proc.stdout.strip().splitlines()[-1])
            values.append(probe["import_s"] + probe["op_s"])
            if probe["exit"] != 0:
                problems.append(f"set-up probe exit code {probe['exit']}")
            else:
                op.verify(op.out.read_bytes())
        except (IndexError, ValueError, KeyError) as exc:
            problems.append(f"set-up probe failed: {exc!r}: {proc.stderr[-500:]}")
        except CheckFailed as exc:
            problems.append(f"set-up probe output: {exc}")
        op.cleanup()
    if not values:
        raise RuntimeError("; ".join(problems))
    return statistics.median(values), values, problems


def blas_runtime_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if it can be asked."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "*openblas*"))
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def run_context(seed: int) -> dict:
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), None)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads_set": int(BLAS_THREADS),
        "blas_threads_runtime": blas_runtime_threads(),
        "seed": seed,
    }


def end_to_end(samples, setup_s: float):
    """The end-to-end metrics, and details for the record.

    ops_per_s is the verified ops over the command time they take at the median
    latency of their size class: a median, so that neither a rare slow input nor
    a slow episode of the shared machine sets it.  The plain rate (verified ops
    over the summed latencies) goes to the record as ops_per_s_mean.
    """
    lat = sorted(s.latency for s in samples)
    n = len(lat)
    verified = sum(s.problem is None for s in samples)
    at_medians = sum(len(v) * statistics.median(v) for v in by_class(samples).values())
    tail_index = max(0, n - 1 - TAIL_BEYOND)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (verified / at_medians, "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_tail_ms": (lat[tail_index] * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "output_kb_per_op": (sum(s.out_bytes for s in samples) / n / 1000, "kB"),
        "verified_ratio": (verified / n, "ratio"),
    }
    details = {"samples": n, "tail_beyond": n - 1 - tail_index,
               "tail_percentile": 100.0 * (tail_index + 1) / n,
               "ops_per_s_mean": verified / sum(lat)}
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, details


def by_class(samples) -> dict:
    """Latencies in seconds, grouped by size class."""
    out: dict = {}
    for s in samples:
        out.setdefault(s.label, []).append(s.latency)
    return out


def per_class(samples) -> dict:
    return {label: {"ops": len(v), "p50_ms": statistics.median(v) * 1e3,
                    "max_ms": max(v) * 1e3, "total_s": sum(v)}
            for label, v in by_class(samples).items()}


def run_workload(args) -> int:
    cli = importlib.import_module("cpsdlab.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"cpsdlab was imported from {cli.__file__}, not from {SRC}")
    wl = WORKLOADS[args.workload]
    start = time.monotonic()
    deadline = start + ROUND_DEADLINE_S
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "context": run_context(args.seed)}
    problems = []
    try:
        if not args.trace:
            setup_s, probes, probe_problems = measure_setup(wl, args.seed, workdir)
            record["setup_probes_s"] = probes
            problems += probe_problems
        warm = run_op(cli, wl.setup_op(args.seed, SETUP_PROBES, workdir))
        if warm.problem:
            problems.append(f"warm-up: {warm.problem}")
        if args.trace:
            tracer = Tracer()
            first, replay, rounds, reference = run_rounds(
                cli, wl, args.seed, workdir, args.seconds / 2, 1, deadline, tracer)
            samples = first + replay
            busy = sum(s.latency for s in replay)
            metrics = layer_metrics(
                tracer.summary(), len(replay), busy * 1e9,
                sum(s.problem is None for s in first) / sum(s.latency for s in first),
                sum(s.problem is None for s in replay) / busy, len(tracer.spans))
        else:
            samples, _, rounds, reference = run_rounds(cli, wl, args.seed, workdir,
                                                       args.seconds, wl.min_rounds, deadline)
            metrics, record["details"] = end_to_end(samples, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = sum(s.problem is not None for s in samples)
    problems += [f"{s.label}: {s.problem}" for s in samples if s.problem][:20]
    record.update({"rounds": rounds, "reference_loop_ms": reference,
                   "per_class": per_class(samples), "metrics": metrics,
                   "problems": problems, "wall_s": time.monotonic() - start})
    (OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")

    ctx = record["context"]
    print(f"# {wl.name} seed {args.seed}: {rounds} rounds, {len(samples)} ops, "
          f"reference loop {reference:.2f} ms, "
          f"{ctx['cpu_model']}, nproc {ctx['nproc']}, python {ctx['python']}, "
          f"numpy {ctx['numpy']}, BLAS threads {ctx['blas_threads_runtime']}")
    for label, row in record["per_class"].items():
        print(f"#   {label:<24} {row['ops']:>6} ops  p50 {row['p50_ms']:10.3f} ms  "
              f"max {row['max_ms']:10.3f} ms  total {row['total_s']:8.3f} s")
    if "details" in record:
        d = record["details"]
        print(f"#   tail = p{d['tail_percentile']:.2f} of {d['samples']} samples "
              f"({d['tail_beyond']} beyond); plain rate {d['ops_per_s_mean']:.6g} ops/s")
    for name, m in metrics.items():
        print(f"#   {name:<48} {m['value']:>16.6g} {m['unit']}")
    for p in problems:
        print(f"#   FAILED {p}")
    print(json.dumps({"correct": not problems, "attempted": len(samples), "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process, so peak RSS is per workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              capture_output=True, text=True, timeout=600, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cpsdlab" / "cli.py").is_file():
        print(f"cpsdlab sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
