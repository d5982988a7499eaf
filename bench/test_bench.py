"""Tests of the benchmark itself: `python3 -m pytest bench -q`.

Each workload runs end to end at a tiny size (`--tiny`) to check that
every metric named in BENCHMARK.json is printed with its unit; the
self-time arithmetic is checked on a synthetic span tree; each output
check is shown to reject a tampered result.
"""

from __future__ import annotations

import copy
import json
import re
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_every_named_metric_printed_with_its_unit(name, trace):
    done = bench("--workload", name, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    for v in result["metrics"].values():
        assert isinstance(v["value"], (int, float))


def test_benchmark_json_names_known_workloads_and_valid_metrics():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.NAMES)
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)


def test_checkout_without_program_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "critical-d2", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_self_time_on_synthetic_span_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3]
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    parent = np.array([-1, 0, 1, 0])
    np.testing.assert_allclose(tracing.self_times(start, end, parent), [3.0, 2.0, 1.0, 4.0])


def test_tracer_records_nested_spans_and_restores():
    def inner():
        time.sleep(0.002)

    def outer():
        ns.inner()
        ns.inner()

    ns = SimpleNamespace(inner=inner, outer=outer)
    tracer = tracing.Tracer()
    with tracer:
        tracer.wrap(ns, "outer", "t.outer")
        tracer.wrap(ns, "inner", "t.inner")
        tracer.wrap(ns, "absent", "t.absent")
        ns.outer()
    assert ns.inner is inner and ns.outer is outer
    assert len(tracer.missing) == 1 and tracer.missing[0].endswith(".absent")
    totals = tracer.span_totals()
    assert totals["t.outer"]["calls"] == 1 and totals["t.inner"]["calls"] == 2
    assert totals["t.inner"]["self_s"] == totals["t.inner"]["total_s"]
    covered = totals["t.outer"]["total_s"] - totals["t.outer"]["self_s"]
    assert covered == pytest.approx(totals["t.inner"]["total_s"])
    assert list(tracer.arrays()["parent"]) == [-1, 0, 0]


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(3207) == 99.0
    assert run.tail_percentile(300) == 90.0
    assert run.tail_percentile(40000) == 99.9
    assert run.tail_percentile(5) == 50.0


def test_input_seeds_are_deterministic_and_start_at_the_seed():
    seeds = [run.input_seed(1729, k) for k in range(5)]
    assert seeds[0] == 1729
    assert seeds == [run.input_seed(1729, k) for k in range(5)]
    assert len(set(seeds)) == 5


@pytest.fixture(scope="module")
def tiny_results(tmp_path_factory):
    out = tmp_path_factory.mktemp("out")
    made = {name: workloads.make(name, out, tiny=True) for name in workloads.NAMES}
    return {name: (wl, wl.compute(3, wl.workers)) for name, wl in made.items()}


def tampered(result, path, value):
    doc = copy.deepcopy(result.doc)
    *keys, last = path
    target = doc
    for k in keys:
        target = target[k]
    target[last] = value
    return replace(result, doc=doc)


@pytest.mark.parametrize("name, path, value", [
    ("critical-d2", ("width",), 1.0),
    ("critical-d2", ("warnings",), ["some explorations hit a work cap"]),
    ("critical-d2", ("upper",), 0.5),
    ("verdict-d5", ("capped_runs",), 1),
    ("verdict-d5", ("runs",), 14),
    ("tau-d2", ("result", "tau_hat"), 0.3),
    ("tau-d2", ("result", "resolved"), 1),
    ("tau-d2", ("result", "exclusion_warning"), True),
])
def test_output_checks_reject_tampered_results(tiny_results, name, path, value):
    wl, result = tiny_results[name]
    assert wl.check(result) == []
    assert wl.check(tampered(result, path, value))


def test_tau_check_rejects_nonzero_exit(tiny_results):
    wl, result = tiny_results["tau-d2"]
    assert wl.check(replace(result, exit_code=2))


def test_failed_check_gives_nonzero_exit(monkeypatch, capsys):
    monkeypatch.setattr(workloads.VerdictD5, "check", lambda self, result: ["forced"])
    code = run.main(["--workload", "verdict-d5", "--seconds", "0.1", "--tiny"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] == result["attempted"]
