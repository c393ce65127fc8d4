"""Tests of the benchmark itself, at toy scale.

    python -m pytest bench/tests
"""

import json
import math
import os
import shutil
import subprocess
import sys
import time
import tracemalloc

import pytest

import gate as gate_mod
import pnpuct
import run as bench_run
import tracing
import worker
import workloads

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def toy_spec(seed=1, input_stack=False):
    return workloads.make_spec("toy", seed, n_bit=31, t_bit=1.0, fps=8.0,
                               n_per=2, nx=8, ny=8, defects=[(1e-3, 0.9)],
                               defect_size=2, input_stack=input_stack)


def run_toy(tmp_path, spec):
    out = tmp_path / "out"
    config = tmp_path / "config.ini"
    config.write_text(workloads.config_text(spec, str(out)))
    return str(out), pnpuct.run_pipeline(str(config))


def gate_failures(tmp_path, spec=None):
    spec = spec or toy_spec()
    out, manifest = run_toy(tmp_path, spec)
    return gate_mod.Gate(spec).check(out, manifest)[1]


def test_seed_changes_the_data_but_not_the_work():
    a, b = workloads.thin_defects(1), workloads.thin_defects(2)
    assert a == workloads.thin_defects(1)
    assert (a["rng_seed"], a["defects"]) != (b["rng_seed"], b["defects"])

    def work(spec):
        return ([spec[k] for k in ("nx", "ny", "n_bit", "t_bit", "fps",
                                   "n_per", "noise_sigma")],
                [(d["depth"], d["reflection"], d["width"])
                 for d in spec["defects"]])

    assert work(a) == work(b)


def test_benchmark_json_names_the_workloads():
    declared = [w["name"] for w in benchmark_json()["workloads"]]
    assert sorted(declared) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("trace, input_stack", [(0, True), (1, False)])
def test_every_declared_metric_is_emitted_with_its_unit(tmp_path, trace,
                                                         input_stack):
    work = str(tmp_path / "work")
    final, lines = bench_run.measure(toy_spec(input_stack=input_stack), work,
                                     0.5, trace)
    declared = benchmark_json()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in final["metrics"].items()}
    assert final["correct"] and final["failed"] == 0
    assert final["attempted"] >= worker.MIN_RUNS + 1
    for name, metric in final["metrics"].items():
        assert math.isfinite(metric["value"]), name
        assert any(line.startswith(f"{name} = ") for line in lines)
    assert not os.path.exists(os.path.join(work, "out"))
    if trace:
        assert final["metrics"]["thermal.impulse_response_calls"]["value"] >= 1
        with open(os.path.join(work, "trace.json"), encoding="utf-8") as fh:
            spans = json.load(fh)["spans"]
        roots = [s for s in spans if s["parent"] is None]
        assert len({s["trace"] for s in spans}) == len(roots) >= 4
    else:
        assert final["metrics"]["success_rate"]["value"] == 1.0


def test_gate_passes_a_correct_run(tmp_path):
    spec = toy_spec()
    out, manifest = run_toy(tmp_path, spec)
    values, failures = gate_mod.Gate(spec).check(out, manifest)
    assert failures == []
    assert values["transparency_rel_rms"] < 0.02
    assert math.isfinite(values["snr_db"])


def test_gate_rejects_a_wrong_bias(tmp_path, monkeypatch):
    # DC removal subtracts the whole trend, as for a zero-bias code
    monkeypatch.setattr(pnpuct.dc_removal, "_validate_bias", lambda code: 0.0)
    assert any("transparency" in f for f in gate_failures(tmp_path))


def test_gate_rejects_an_unmodified_code(tmp_path, monkeypatch):
    standard = pnpuct.generate_ls(31)
    plus = pnpuct.modify_for_perfect_pacf(standard)
    # the standard sequence, with its sidelobes, passed off as the modified one
    unmodified = pnpuct.PnCode(kind=plus.kind, n_bit=31,
                               values=standard.values, gain=plus.gain)
    compress = pnpuct.pipeline.compress_stack
    monkeypatch.setattr(pnpuct.pipeline, "compress_stack",
                        lambda stack, code, *args: compress(stack, unmodified,
                                                            *args))
    assert any("transparency" in f for f in gate_failures(tmp_path))


def test_gate_rejects_changed_artifacts(tmp_path):
    spec = toy_spec()
    out, manifest = run_toy(tmp_path, spec)
    gate = gate_mod.Gate(spec)
    assert gate.check(out, manifest)[1] == []
    manifest["artifacts"]["fit_map"]["sha256"] = "0" * 64
    assert gate.check(out, manifest)[1] == [
        "artifacts differ from the first run: fit_map"]


def test_gate_rejects_a_non_finite_snr(tmp_path):
    spec = dict(toy_spec(), noise_sigma=0.0)
    assert any("snr_db" in f for f in gate_failures(tmp_path, spec))


def test_spans_nest_under_one_trace_id():
    tracer = tracing.Tracer()
    with tracer.span("outside a run"):
        pass
    assert tracer.spans == []
    with tracer.run(7):
        with tracer.span("a"):
            with tracer.span("b"):
                time.sleep(0.01)
    root, a, b = tracer.spans
    assert {s["trace"] for s in tracer.spans} == {7}
    assert (root["parent"], a["parent"], b["parent"]) == (None, 0, 1)
    own = tracing.self_times(tracer.spans)
    assert own[a["id"]] == pytest.approx(
        (a["end"] - a["start"]) - (b["end"] - b["start"]))
    assert sum(own.values()) == pytest.approx(root["end"] - root["start"])
    assert root["alloc_peak"] is None


def test_allocation_peak_reaches_the_enclosing_span():
    tracer = tracing.Tracer()
    tracemalloc.start()
    try:
        with tracer.run(1):
            with tracer.span("alloc"):
                block = bytearray(5_000_000)
                del block
    finally:
        tracemalloc.stop()
    root, inner = tracer.spans
    assert inner["alloc_peak"] >= 5_000_000
    assert root["alloc_peak"] >= inner["alloc_peak"]


def test_install_wraps_and_uninstall_restores_the_package():
    original = pnpuct.pipeline.compress_stack
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert pnpuct.pipeline.compress_stack is not original
    finally:
        tracer.uninstall()
    assert pnpuct.pipeline.compress_stack is original


def test_tail_has_ten_samples_beyond_it():
    assert bench_run.tail(list(range(10))) is None
    percentile, value = bench_run.tail(list(range(40)))
    assert (percentile, value) == (75.0, 29)


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "thin_defects",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
