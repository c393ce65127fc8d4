"""Run the benchmark over several seeds and summarise every metric.

    python3 bench/repeat.py --workloads measured_ls31,sim_ls127 \
        --seeds 1-10 --seconds 24 [--trace 0|1] [--out FILE]

Run from the root of a checkout. For each workload and metric it prints
the median of the per-seed values, their quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the distance
between the quartiles as a share of the median: the spread that a
metric's bound in BENCHMARK.json has to cover. ``--out`` also writes
these figures, with every value, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else None,
            "values": values}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", type=_seeds, required=True)
    parser.add_argument("--seconds", default="24")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    report, ok = {}, True
    for workload in args.workloads.split(","):
        values = {}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds", args.seconds,
                 "--trace", args.trace], capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stderr}", flush=True)
                ok = False
                continue
            final = json.loads(proc.stdout.splitlines()[-1])
            ok = ok and final["correct"]
            print(f"{workload} seed {seed}: correct={final['correct']} "
                  f"failed={final['failed']}/{final['attempted']}", flush=True)
            for name, metric in final["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        report[workload] = {name: summary(v) for name, v in values.items()
                            if len(v) >= 2}
        for name, s in report[workload].items():
            print(f"  {workload} {name}: median {s['median']:.6g} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']}",
                  flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"seeds": args.seeds, "seconds": args.seconds,
                       "trace": args.trace, "workloads": report}, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
