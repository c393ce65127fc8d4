"""Benchmark of the pnpuct processing chain, one workload per invocation.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The seed generates the workload (see
``workloads.py``); the package under ``src`` only receives the generated
config and, for ``measured_ls31``, the generated TGS1 stack. Set-up runs
``SETUP_REPEATS`` times in fresh processes and ``setup_s`` is their
median. The measured runs happen in one more child process that does
nothing else, with BLAS and FFT threads pinned to 1 and glibc's mmap
threshold fixed (``worker.MALLOC_ENV``): one warm-up run,
then ``pnpuct.pipeline.run_pipeline`` back to back for S seconds, each
output checked by the gate in ``gate.py``. The last line of standard
output is one JSON object: with ``--trace 0`` it holds the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of the traced runs.
Files go to ``.bench_work/`` in the checkout; the stacks are deleted at
the end, ``result.json`` and ``trace.json`` are kept.

Times are process CPU seconds (user + system), scaled to a reference
machine speed with the calibration kernel in ``calibrate.py``. The
pipeline is single threaded and waits on no device, so on an idle
machine its CPU time is its wall time. On a shared 2-vCPU KVM guest,
wall time also counted the time the hypervisor gave the CPU to other
guests (steal), which swung single runs by 15-40% where CPU time moved
by about 6%, and the CPU itself ran fast and slow in phases of up to
1.75x, which the scaling removes. Unscaled CPU and wall-time medians
are printed alongside.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import workloads
from calibrate import scaled
from tracing import LAYER_UNITS, layer_metrics
from worker import MALLOC_ENV, THREAD_ENV

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 3
TIME_LIMIT_S = 170.0

END_TO_END_UNITS = {
    "run_s": "s",
    "throughput_mvoxel_s": "Mvoxel/s",
    "peak_rss_mb": "MB",
    "rss_per_stack": "ratio",
    "setup_s": "s",
    "success_rate": "ratio",
    "transparency_rel_rms": "ratio",
    "snr_db": "dB",
}
PER_LAYER_UNITS = dict(LAYER_UNITS, **{"trace.overhead_s": "s",
                                        "trace.alloc_overhead_s": "s"})


class ChildFailed(RuntimeError):
    pass


def _child(args, work, deadline):
    env = dict(os.environ, **{k: "1" for k in THREAD_ENV}, **MALLOC_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")]))
    env["TMPDIR"] = work
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), *args],
            env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"worker {args[0]} exceeded the time limit") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"worker {args[0]} exited with {proc.returncode}")


def tail(samples):
    """(percentile, value) with 10 samples beyond it, or None if n <= 10."""
    n = len(samples)
    if n <= 10:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def _median(values):
    return statistics.median(values) if values else None


def summarize(spec, result, setup_s, setup_wall, trace):
    """The final JSON object plus report lines for humans."""
    records = result["runs"]
    failed = sum(1 for r in records if r["failures"])
    passed = [r for r in records if not r["failures"]]
    timed = [r for r in records if not r["warmup"]]

    def seconds(mode, key=None):
        chosen = [r for r in timed if r["mode"] == mode]
        chosen = [r for r in chosen if not r["failures"]] or chosen
        if key:
            return [r[key] for r in chosen]
        return [scaled(r["cpu_s"], r["kernel_s"]) for r in chosen]

    plain = seconds("plain")
    run_s = _median(plain)
    lines = [f"workload {spec['name']} seed {spec['seed']}: "
             f"{len(records)} runs ({len(timed)} timed), {failed} failed",
             "context " + json.dumps(result["context"], sort_keys=True)]
    for r in records:
        for failure in r["failures"]:
            lines.append(f"run {r['index']} failed: {failure}")
    if trace:
        with open(os.path.join(result["work"], "trace.json"),
                  encoding="utf-8") as fh:
            spans = json.load(fh)["spans"]
        values = layer_metrics(spans)
        spans_s, memory_s = seconds("spans"), seconds("memory")
        values["trace.overhead_s"] = _median(spans_s) - run_s
        values["trace.alloc_overhead_s"] = _median(memory_s) - run_s
        units = PER_LAYER_UNITS
        lines.append(f"run_s medians: untraced {run_s!r} s (n={len(plain)}), "
                     f"spans {_median(spans_s)!r} s (n={len(spans_s)}), "
                     f"spans + tracemalloc {_median(memory_s)!r} s "
                     f"(n={len(memory_s)})")
    else:
        peak = result["peak_rss_bytes"]
        values = {
            "run_s": run_s,
            "throughput_mvoxel_s": workloads.raw_voxels(spec) / run_s / 1e6,
            "peak_rss_mb": peak / 1e6,
            "rss_per_stack": ((peak - result["rss_before_bytes"])
                              / workloads.raw_stack_bytes(spec)),
            "setup_s": statistics.median(setup_s),
            "success_rate": 1.0 - failed / len(records),
            "transparency_rel_rms": _median(
                [r["transparency_rel_rms"] for r in passed]),
            "snr_db": _median([r["snr_db"] for r in passed]),
        }
        units = END_TO_END_UNITS
        t = tail(plain)
        lines.append(f"run_s: median {run_s!r} s over n={len(plain)} runs; "
                     + (f"p{t[0]:.0f} {t[1]!r} s (10 runs beyond it)" if t
                        else "no percentile has 10 runs beyond it"))
        lines.append("per run, unscaled: median CPU "
                     f"{_median(seconds('plain', 'cpu_s'))!r} s, median wall "
                     f"{_median(seconds('plain', 'wall_s'))!r} s")
        lines.append(f"setup, scaled CPU s {setup_s!r}; wall s {setup_wall!r}")
        lines.append(f"error_rate: {failed}/{len(records)} = "
                     f"{failed / len(records)!r}")
    lines += [f"{name} = {values[name]!r} {unit}" for name, unit in units.items()]
    final = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    return final, lines


def measure(spec, work, seconds, trace):
    """Set up and run one workload in WORK; returns (final, report lines)."""
    deadline = time.monotonic() + TIME_LIMIT_S
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    with open(os.path.join(work, "spec.json"), "w", encoding="utf-8") as fh:
        json.dump(spec, fh, indent=1)
    try:
        setup_wall = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            _child(["setup", work], work, deadline)
            setup_wall.append(time.perf_counter() - start)
        _child(["runs", work, str(seconds), str(int(trace))], work, deadline)
    finally:
        shutil.rmtree(os.path.join(work, "out"), ignore_errors=True)
        if os.path.exists(os.path.join(work, "input.tgs")):
            os.remove(os.path.join(work, "input.tgs"))
    with open(os.path.join(work, "setup.jsonl"), encoding="utf-8") as fh:
        setup_s = [scaled(**json.loads(line)) for line in fh]
    with open(os.path.join(work, "result.json"), encoding="utf-8") as fh:
        result = json.load(fh)
    result["work"] = work
    return summarize(spec, result, setup_s, setup_wall, trace)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "pnpuct", "pipeline.py")):
        print(f"no pnpuct sources under {ROOT}/src; run from a checkout",
              file=sys.stderr)
        return 2
    spec = workloads.WORKLOADS[args.workload](args.seed)
    work = os.path.join(ROOT, ".bench_work",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}"
                        f"-{os.getpid()}")
    try:
        final, lines = measure(spec, work, args.seconds, args.trace)
    except ChildFailed as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
