"""Tests of the end-to-end benchmark itself."""

from __future__ import annotations

import importlib.util
import json
import shutil
import statistics
import subprocess
import sys
from dataclasses import replace
from itertools import islice
from pathlib import Path

import pytest

import stats
import workloads as wl
from compare import verdict
from repro.vliw.codegen.native import native_available

E2E = Path(__file__).resolve().parents[1]
ROOT = E2E.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- statistics --------------------------------------------------------


@pytest.mark.parametrize("n, percentile", [
    (5, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0),
    (1000, 99.0), (10_000, 99.9)])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, percentile):
    values = list(range(1, n + 1))
    tail = stats.tail(values)
    assert tail["percentile"] == percentile
    assert tail["n"] == n
    assert tail["value"] == pytest.approx(stats.percentile(values,
                                                           percentile))


def test_quartiles_follow_statistics_quantiles():
    values = [3.0, 9.5, 1.25, 7.0, 4.0, 6.5, 2.0]
    assert stats.quartiles(values) == tuple(
        statistics.quantiles(values, n=4))
    q1, mid, q3 = stats.quartiles(values)
    assert stats.spread(values) == pytest.approx((q3 - q1) / mid)
    assert stats.quartiles([2.5]) == (2.5, 2.5, 2.5)


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert verdict(steady, steady, 0.1, False)[1] == "same"
    assert verdict(steady, [v * 1.2 for v in steady], 0.1, False)[1] \
        == "worse"
    assert verdict(steady, [v * 1.2 for v in steady], 0.1, True)[1] \
        == "better"
    noisy = [50.0, 100.0, 150.0, 80.0, 120.0]
    assert verdict(noisy, steady, 0.1, False)[1] == "unresolved"


# -- operation order ---------------------------------------------------


def test_same_seed_gives_same_operation_order():
    configs = wl.WORKLOADS["soc_shared"]
    first = list(islice(wl.sweep_orders(configs, 7), 5))
    again = list(islice(wl.sweep_orders(configs, 7), 5))
    other = list(islice(wl.sweep_orders(configs, 8), 5))
    assert first == again
    assert first != other
    assert all(sorted(order, key=lambda c: c.key)
               == sorted(configs, key=lambda c: c.key) for order in first)


# -- golden digests ----------------------------------------------------


def _backends():
    return ("interp", "compiled", "native") if native_available() \
        else ("interp", "compiled")


@pytest.mark.parametrize("cfg", [wl.WORKLOADS["kernels_warm"][0],
                                 wl.WORKLOADS["soc_shared"][0],
                                 wl.WORKLOADS["cluster_fabric"][0]],
                         ids=lambda cfg: cfg.golden_key)
def test_golden_digest_is_backend_independent(cfg):
    golden = wl.load_golden()
    obj = wl.build_objects([cfg])[cfg.program]
    program = wl.translate(obj, level=cfg.level).program
    for backend in _backends():
        run_cfg = replace(cfg, backend=backend)
        sim, result = wl.simulate(run_cfg, program)
        assert wl.check(run_cfg, result, golden) == [], backend
        assert wl.native_problem(run_cfg, sim) is None, backend


def test_every_config_has_a_golden_digest():
    golden = wl.load_golden()
    for configs in wl.WORKLOADS.values():
        for cfg in configs:
            assert cfg.golden_key in golden


# -- tracing -----------------------------------------------------------


def test_tracer_restores_every_attribute():
    spec = importlib.util.spec_from_file_location("e2e_trace",
                                                  E2E / "trace.py")
    trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace)
    targets = [(trace._owner(path), attr)
               for path, attr, *_ in (*trace.SPANS, *trace.COUNTERS)]
    before = [vars(owner)[attr] for owner, attr in targets]
    tracer = trace.Tracer()
    tracer.install()
    assert all(vars(owner)[attr] is not original
               for (owner, attr), original in zip(targets, before))
    tracer.uninstall()
    assert all(vars(owner)[attr] is original
               for (owner, attr), original in zip(targets, before))


# -- whole runs --------------------------------------------------------


def _run(args, cwd, timeout=900):
    return subprocess.run([sys.executable, "benchmarks/e2e/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=timeout)


@pytest.mark.parametrize("workload", list(wl.WORKLOADS))
def test_smoke_run_has_no_failed_operation(workload):
    proc = _run(["--workload", workload, "--seed", "3", "--smoke"], ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2
    names = [metric["name"] for metric in SPEC["end_to_end"]]
    assert list(result["metrics"]) == names
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_fails_without_the_simulator_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(E2E, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns(".cache", ".work",
                                                  "__pycache__"))
    proc = _run(["--workload", "kernels_warm", "--seed", "1", "--seconds",
                 "1", "--trace", "0"], tmp_path, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
