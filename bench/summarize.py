"""Median and quartile spread of each metric over benchmark run records.

    python3 bench/summarize.py .bench_out/*-trace0.json

Records are the JSON files run.py writes to .bench_out/.  The spread is the
distance between the first and third quartile (statistics.quantiles, n=4)
as a share of the median, the figure the bounds in BENCHMARK.json are set
against.
"""

import json
import statistics
import sys


def summarize(paths) -> dict:
    values: dict = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
        for name, metric in record["metrics"].items():
            values.setdefault(record["workload"], {}).setdefault(name, []).append(metric["value"])
    out: dict = {}
    for workload, metrics in values.items():
        for name, vals in metrics.items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median,) * 3
            out.setdefault(workload, {})[name] = {
                "runs": len(vals), "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median if median else 0.0}
    return out


def main(argv) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    table = summarize(argv)
    for workload, metrics in table.items():
        for name, row in metrics.items():
            print(f"{workload:<14} {name:<44} runs {row['runs']:>3}  median {row['median']:>14.6g}"
                  f"  spread {row['spread']:.4f}")
    print(json.dumps(table))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
