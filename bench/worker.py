"""Child processes of the benchmark; ``run.py`` starts them.

    python3 bench/worker.py setup WORK_DIR
    python3 bench/worker.py runs WORK_DIR SECONDS TRACE

Both read ``WORK_DIR/spec.json`` and import pnpuct from the checkout's
``src``. ``setup`` writes the pipeline config and, for a stack-input
workload, the simulated camera stack; the parent times the whole process.
Set-up appends its own CPU time and a calibration kernel's to
``setup.jsonl``. ``runs`` does nothing but pipeline runs, back to back
with one client: one warm-up run, then runs for SECONDS of wall time (at
least ``MIN_RUNS``), checking every output with the gate. Each run
records its wall time, its process CPU time, and the mean CPU time of
the calibration kernels run just before and just after it. With TRACE 1 the
timed runs cycle through ``MODES``. It writes ``result.json`` and, when
traced, ``trace.json``.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
import time
import tracemalloc
from contextlib import nullcontext

MIN_RUNS = 6
# With TRACE 1, timed runs cycle through these: untraced, spans only,
# spans plus tracemalloc allocation peaks.
MODES = ("plain", "spans", "memory")
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
              "BLIS_NUM_THREADS")
# glibc's default mmap threshold rises to the size of the largest block
# freed so far, so whether a freed array's pages stay in the heap or go
# back to the system depended on the allocation history: the same runs
# peaked 17 MB (5% of rss_per_stack) apart in some processes. A fixed
# threshold returns every block of 128 KiB or more when it is freed, so
# peak RSS follows the memory the runs hold live.
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": "131072"}


def _paths(work):
    return {name: os.path.join(work, leaf) for name, leaf in [
        ("spec", "spec.json"), ("config", "config.ini"),
        ("input", "input.tgs"), ("out", "out"), ("result", "result.json"),
        ("trace", "trace.json"), ("setup", "setup.jsonl")]}


def _import_package():
    import pnpuct
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    if not os.path.abspath(pnpuct.__file__).startswith(src + os.sep):
        raise SystemExit(f"pnpuct imported from {pnpuct.__file__}, "
                         f"not from {src}")
    return pnpuct


def setup(work):
    import configparser

    import workloads
    from calibrate import kernel
    pn = _import_package()
    from pnpuct.thermal import scene_from_parser

    paths = _paths(work)
    with open(paths["spec"], encoding="utf-8") as fh:
        spec = json.load(fh)
    input_path = None
    if spec["input_stack"]:
        input_path = paths["input"]
        parser = configparser.ConfigParser()
        parser.read_string(workloads.config_text(spec, paths["out"]))
        timing = pn.Timing(t_bit=spec["t_bit"], fps=spec["fps"],
                           n_per=spec["n_per"])
        wave = pn.build_unipolar(
            pn.build_bipolar(pn.generate_ls(spec["n_bit"]), timing),
            spec["amplitude"])
        pn.write_stack(pn.simulate_stack(scene_from_parser(parser), wave),
                       input_path)
    with open(paths["config"], "w", encoding="utf-8") as fh:
        fh.write(workloads.config_text(spec, paths["out"], input_path))
    cpu_s = time.process_time()
    with open(paths["setup"], "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"cpu_s": cpu_s, "kernel_s": kernel()}) + "\n")


def _current_rss():
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def _cache_bytes(text):
    scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
    return int(text.rstrip("KMG")) * scale


def machine_context(spec):
    """Hardware and library facts that the timings depend on."""
    import numpy
    import scipy

    import workloads
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    llc_level, llc = 0, None
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        try:
            with open(os.path.join(base, index, "level")) as fh:
                level = int(fh.read())
            with open(os.path.join(base, index, "size")) as fh:
                size = _cache_bytes(fh.read().strip())
        except (OSError, ValueError):
            continue
        if level > llc_level:
            llc_level, llc = level, size
    raw = workloads.raw_stack_bytes(spec)
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "llc_bytes": llc,
        "raw_stack_bytes": raw,
        "raw_stack_per_llc": raw / llc if llc else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "malloc_env": {k: os.environ.get(k) for k in MALLOC_ENV},
    }


def runs(work, seconds, trace):
    from calibrate import kernel
    from gate import Gate
    from tracing import Tracer, layer_summary
    _import_package()
    from pnpuct.pipeline import run_pipeline

    paths = _paths(work)
    with open(paths["spec"], encoding="utf-8") as fh:
        spec = json.load(fh)
    gate = Gate(spec)
    tracer = Tracer()
    rss_before = _current_rss()
    before = kernel()
    records = []
    deadline = None
    # a run starts only if a typical run would end inside the window
    while deadline is None or len(records) <= MIN_RUNS or (
            time.perf_counter() + statistics.median(
                r["wall_s"] for r in records) < deadline):
        index = len(records)
        mode = MODES[(index - 1) % 3] if trace and index else "plain"
        record = {"index": index, "warmup": index == 0, "mode": mode,
                  "failures": []}
        manifest = None
        if mode == "memory":
            tracemalloc.start()
        if mode != "plain":
            tracer.install()
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            with tracer.run(index) if mode != "plain" else nullcontext():
                manifest = run_pipeline(paths["config"])
        except Exception as exc:  # a failed run is counted, never fatal
            record["failures"].append(f"{type(exc).__name__}: {exc}")
        finally:
            record["cpu_s"] = time.process_time() - cpu_start
            record["wall_s"] = time.perf_counter() - start
            tracer.uninstall()
            tracemalloc.stop()
        after = kernel()
        record["kernel_s"] = (before + after) / 2
        before = after
        if manifest is not None:
            try:
                values, failures = gate.check(paths["out"], manifest)
            except Exception as exc:  # an unreadable output fails the run
                values, failures = {}, [f"{type(exc).__name__}: {exc}"]
            record.update(values)
            record["failures"] += failures
        records.append(record)
        if deadline is None:
            deadline = time.perf_counter() + seconds
    result = {
        "runs": records,
        "rss_before_bytes": rss_before,
        "peak_rss_bytes": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        * 1024,
        "context": machine_context(spec),
    }
    with open(paths["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    if trace:
        with open(paths["trace"], "w", encoding="utf-8") as fh:
            json.dump({"layers": layer_summary(tracer.spans),
                       "spans": tracer.spans}, fh, indent=1)


def main(argv):
    if len(argv) == 2 and argv[0] == "setup":
        setup(argv[1])
    elif len(argv) == 4 and argv[0] == "runs":
        runs(argv[1], float(argv[2]), argv[3] == "1")
    else:
        raise SystemExit(__doc__)


if __name__ == "__main__":
    main(sys.argv[1:])
