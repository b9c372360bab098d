"""Run the benchmark once per seed and report each metric's spread.

    python3 perfbench/spread.py --workload read_mix --seeds 1-10 [--seconds 10] [--trace 0]
    python3 perfbench/spread.py --self-test

The spread of a metric is the distance between the first and third
quartile of its values, as `statistics.quantiles(values, n=4)` gives
them, divided by their median. Runs use the command in BENCHMARK.json;
run from the root of the repository.
"""

import argparse
import json
import statistics
import subprocess
import sys


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) of at least two values."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def self_test():
    # Exclusive quantiles of 1..10: q1 = 2.75, q3 = 8.25; median 5.5.
    med, q1, q3, s = spread(list(range(1, 11)))
    assert (med, q1, q3) == (5.5, 2.75, 8.25), (med, q1, q3)
    assert abs(s - 1.0) < 1e-12, s
    # A steady metric: 100 +- 1 -> quartiles 99.25 and 100.75 over 4 values.
    med, q1, q3, s = spread([99.0, 100.0, 100.0, 101.0])
    assert (med, q1, q3) == (100.0, 99.25, 100.75), (med, q1, q3)
    assert abs(s - 0.015) < 1e-12, s
    print("spread.py: self-test passed")


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", default="0")
    ap.add_argument("--values", action="store_true", help="also print every run's value")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        self_test()
        return
    if not args.workload:
        ap.error("--workload is required")
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    command = bench["command"]
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    runs = []
    for seed in parse_seeds(args.seeds):
        argv = command + ["--workload", args.workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", args.trace]
        out = subprocess.run(argv, capture_output=True, text=True, check=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        runs.append(result)
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']} "
              f"correct {result['correct']}", file=sys.stderr)
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"{args.workload}: {len(runs)} runs, failed shares {sorted(shares)}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med, q1, q3, s = spread(values)
        bound = bounds.get(name)
        flag = "" if bound is None else ("  ok" if s < bound / 3 else "  WIDE" if s >= bound else "  >1/3")
        print(f"  {name:30s} median {med:14.4f}  q1 {q1:14.4f}  q3 {q3:14.4f}  spread {s:7.4f}"
              + ("" if bound is None else f"  bound {bound}") + flag)
        if args.values:
            print("      " + " ".join(f"{v:.4g}" for v in values))


if __name__ == "__main__":
    main()
