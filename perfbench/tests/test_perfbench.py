"""Tests of the benchmark itself, on 32x32 images.

    python3 -m pytest -q perfbench/tests
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import jpegns  # noqa: E402
import scipy.linalg  # noqa: E402

import layertrace  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = 32
RUN = [sys.executable, "perfbench/run.py", "--seed", "2", "--seconds", "0.3"]


def prepared(name, tmp_path, seed=2):
    wl = workloads.WORKLOADS[name](seed, TINY, str(tmp_path))
    wl.prepare()
    wl.setup()
    return wl


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_run_emits_every_metric(name, trace):
    proc = subprocess.run(
        RUN + ["--workload", name, "--trace", str(trace), "--size", str(TINY)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in section}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        RUN + ["--workload", "iid128-embed", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_corrupted_stego_counts_as_failed(tmp_path):
    wl = prepared("iid128-embed", tmp_path)
    stego, report = wl.call(0)
    assert wl.check((stego, report)) == []
    coeffs = wl.cover.coeffs.copy()
    coeffs[0, 0, 0, 1] += workloads.K + 1
    corrupted = jpegns.JpegCoefficients(coeffs, stego.table, role="stego")
    wl.call = lambda i: (corrupted, report)
    result = worker.measure(wl, 0.0, trace=False)
    assert (result["attempted"], result["failed"]) == (1, 1)
    assert result["untraced_s"] == [math.inf]


def test_raising_call_counts_as_failed(tmp_path):
    wl = prepared("iid128-embed", tmp_path)

    def raising(i):
        raise jpegns.DimensionError("injected")

    wl.call = raising
    result = worker.measure(wl, 0.0, trace=False)
    assert (result["attempted"], result["failed"]) == (1, 1)


def test_costs_check_reads_the_file_back(tmp_path):
    wl = prepared("ramp128-costs", tmp_path)
    first = wl.call(0)
    assert wl.check(first) == []
    wl.call(1)  # another key overwrites the file with other costs
    assert wl.check(first) == [
        "read_costs does not round-trip the written file"]


def test_cached_rekey_matches_fresh_embed(tmp_path):
    wl = prepared("iid128-rekey", tmp_path)
    cached = wl.call(3)
    fresh = jpegns.embed_simulated(wl.raw, wl.config(wl.key(3)))
    assert wl.fingerprint(cached) == wl.fingerprint(fresh)


def test_traced_run_is_bit_identical_and_guarded(tmp_path):
    wl = prepared("iid128-embed", tmp_path)
    result = worker.measure(wl, 0.0, trace=True)
    assert (result["attempted"], result["failed"]) == (2, 0)
    outputs = iter([wl.call(0), wl.call(1)])
    wl.call = lambda i: next(outputs)
    result = worker.measure(wl, 0.0, trace=True)
    assert (result["attempted"], result["failed"]) == (2, 1)


def test_tracer_counts_layers_and_restores_them(tmp_path):
    wl = prepared("iid128-embed", tmp_path)
    cholesky = jpegns.covariance.cholesky
    tracer = layertrace.Tracer()
    tracer.root(wl.call, 0)
    assert jpegns.covariance.cholesky is cholesky
    assert jpegns.embedder.sla is scipy.linalg
    assert tracer.absent == []
    metrics = layertrace.layer_metrics(
        layertrace.layer_totals(tracer.spans), 1)
    blocks = (TINY // 8) ** 2
    assert metrics["covariance.cholesky.calls"] == blocks
    assert metrics["sampler.run_block_chain.calls"] == blocks
    assert metrics["lattice.neighborhood.calls"] == blocks


def test_renamed_layer_reads_zero_calls(tmp_path):
    wl = prepared("iid128-embed", tmp_path)
    layers = tuple(
        ("jpegns.covariance", "cholesky_renamed", name, measure)
        if name == "covariance.cholesky" else (module, path, name, measure)
        for module, path, name, measure in layertrace.LAYERS)
    layers += (("jpegns.removed_module", "f", "removed.f", None),)
    tracer = layertrace.Tracer(layers)
    tracer.root(wl.call, 0)
    assert tracer.absent == ["covariance.cholesky", "removed.f"]
    metrics = layertrace.layer_metrics(
        layertrace.layer_totals(tracer.spans), 1)
    assert metrics["covariance.cholesky.calls"] == 0
    assert metrics["covariance.cholesky.gflop_per_s"] == 0.0
    assert metrics["sampler.run_block_chain.calls"] > 0


def test_self_time_is_span_minus_children():
    spans = [["call", None, 0.0, 10.0, None],
             ["a", 0, 1.0, 3.0, {"gflop": 1.0}],
             ["b", 1, 1.5, 2.0, None],
             ["a", 0, 4.0, 5.0, {"gflop": 2.0}]]
    totals = layertrace.layer_totals(spans)
    assert totals["call"] == {"calls": 1, "busy_s": 10.0, "self_s": 7.0}
    assert totals["a"] == {"calls": 2, "busy_s": 3.0, "self_s": 2.5,
                           "gflop": 3.0}
    assert totals["b"]["self_s"] == 0.5
