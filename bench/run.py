"""rcmperc benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout; the program is imported from the
checkout's `src/`. The load is a closed loop from this one process: one
computation at a time, with at most 2 worker processes inside it.

--trace 0 runs the workload's computation repeatedly for --seconds, on
inputs derived from --seed (computation k uses `input_seed(seed, k)`),
checks every output and reports the end-to-end metrics. --trace 1 runs
one computation at 1 and at 2 workers with only `run_trials` wrapped,
then once serially with every layer wrapped, checks that all three
result digests agree, and reports the per-layer metrics.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. The exit code is 0 only when every output check
passed. Records, spans and the tau-d2 output file go to `.bench_out/`
at the root of the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any

import numpy
import scipy

from tracing import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 5
SPIN_ITERATIONS = 3_000_000
# Candidate tail percentiles; the highest with at least 10 samples beyond it is used.
TAIL_PERCENTILES = (50.0, 90.0, 99.0, 99.9, 99.99, 99.999)


def input_seed(seed: int, k: int) -> int:
    """Master seed of the k-th computation: the seed itself first, then hashes."""
    if k == 0:
        return seed
    return int.from_bytes(hashlib.sha256(f"{seed}/{k}".encode()).digest()[:4], "big")


def import_program() -> None:
    """Make rcmperc importable from this checkout's src/, refusing any other copy."""
    src = ROOT / "src"
    if not (src / "rcmperc" / "__init__.py").is_file():
        raise SystemExit(f"error: {src / 'rcmperc'} not found; run inside an rcmperc checkout")
    sys.path.insert(0, str(src))
    import rcmperc

    if Path(rcmperc.__file__).resolve().parent != (src / "rcmperc").resolve():
        raise SystemExit(f"error: imported rcmperc from {rcmperc.__file__}, not {src}")


def spin() -> float:
    """Seconds for a fixed pure-Python loop: how fast this machine runs right now."""
    t0 = time.perf_counter()
    x = 0
    for i in range(SPIN_ITERATIONS):
        x += i * i % 7
    return time.perf_counter() - t0


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def machine_facts() -> dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "loadavg": list(os.getloadavg()),
        "spin_s": spin(),
    }


def setup_seconds(name: str, tiny: bool) -> list[float]:
    """Set-up time of the workload, each in a fresh interpreter."""
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), name] + (["--tiny"] if tiny else [])
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def peak_rss_mb() -> float:
    """Larger of this process's and its reaped children's peak RSS (ru_maxrss is KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Tally:
    """Trials attempted and failed, and the problems found, across computations."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, wl, result, label: str) -> None:
        try:
            problems = wl.check(result)
        except (KeyError, TypeError, ValueError) as exc:
            problems = [f"malformed result document: {exc!r}"]
        self.attempted += result.trials
        if problems:
            self.failed += result.trials
            self.problems += [f"{label}: {p}" for p in problems]
        else:
            self.failed += result.capped

    def raised(self, wl, label: str) -> None:
        traceback.print_exc()
        self.attempted += wl.requested_trials
        self.failed += wl.requested_trials
        self.problems.append(f"{label}: raised {sys.exc_info()[1]!r}")


def timed_run(wl, seed: int, seconds: float) -> tuple[dict[str, Any], Tally, list[dict]]:
    """Compute on successive inputs until the next one would end past `seconds`."""
    tally = Tally()
    runs = []
    busy = 0.0
    trials = 0
    k = 0
    while True:
        s = input_seed(seed, k)
        t0 = time.perf_counter()
        try:
            result = wl.compute(s, wl.workers)
        except Exception:
            tally.raised(wl, f"seed {s}")
            break
        wall = time.perf_counter() - t0
        busy += wall
        trials += result.trials
        k += 1
        tally.add(wl, result, f"seed {s}")
        runs.append({"seed": s, "wall_s": wall, "trials": result.trials,
                     "result_sha256": result.digest})
        print(f"{wl.name} seed {s}: {wall:.3f} s, {result.trials} trials", file=sys.stderr)
        if busy + busy / k > seconds:
            break
    rss = peak_rss_mb()
    # Totals, not medians over computations: the machine's slow phases last
    # several computations, so a median jumps between them while a mean
    # moves with the share of the run they cover.
    metrics = {
        "wall_s": (busy / k if k else 0.0, "s"),
        "trials_per_s": (trials / busy if busy else 0.0, "1/s"),
        "peak_rss_mb": (rss, "MB"),
        "ok_frac": ((tally.attempted - tally.failed) / max(tally.attempted, 1), "ratio"),
    }
    return metrics, tally, runs


def tail_percentile(n: int) -> float:
    """Highest candidate percentile with at least 10 of n samples beyond it."""
    fits = [p for p in TAIL_PERCENTILES if n * (1.0 - p / 100.0) >= 10.0]
    return fits[-1] if fits else TAIL_PERCENTILES[0]


def traced_run(wl, seed: int, tiny: bool) -> tuple[dict[str, Any], Tally, dict]:
    import workloads

    tally = Tally()
    s = input_seed(seed, 0)
    dispatch: dict[int, float] = {}
    walls: dict[str, float] = {}
    digests: dict[str, str] = {}
    tracer = Tracer()
    passes = [("w1", 1, ("parallel.run_trials",)), ("w2", 2, ("parallel.run_trials",)),
              ("traced", 1, None)]
    for label, workers, only in passes:
        pass_tracer = Tracer() if only else tracer
        t0 = time.perf_counter()
        try:
            with pass_tracer.install(only):
                result = wl.compute(s, workers)
        except Exception:
            tally.raised(wl, label)
            continue
        walls[label] = time.perf_counter() - t0
        digests[label] = result.digest
        tally.add(wl, result, label)
        if only:
            dispatch[workers] = pass_tracer.span_totals()["parallel.run_trials"]["total_s"]
        print(f"{wl.name} {label}: {walls[label]:.3f} s", file=sys.stderr)
    if len(set(digests.values())) != 1:
        tally.problems.append(f"result digests differ between passes: {digests}")
        tally.failed = tally.attempted

    totals = tracer.span_totals()
    counts = tracer.counts
    m: dict[str, tuple[float, str]] = {}
    for name, t in totals.items():
        m[f"{name}.calls"] = (t["calls"], "count")
        m[f"{name}.total_s"] = (t["total_s"], "s")
        m[f"{name}.self_s"] = (t["self_s"], "s")

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    drawn = counts["sampling.place_candidates.drawn"]
    kept = counts["sampling.place_candidates.kept"]
    steps = counts["exploration.explore_cluster.steps"]
    trial_us = tracer.durations("exploration.explore_cluster") * 1e6
    tail_pct = tail_percentile(len(trial_us))
    w1, w2 = dispatch.get(1, 0.0), dispatch.get(2, 0.0)
    m.update({
        "geometry.SpatialIndex.query.returned": (counts["geometry.SpatialIndex.query.returned"], "count"),
        "sampling.place_candidates.drawn": (drawn, "count"),
        "sampling.place_candidates.kept": (kept, "count"),
        "sampling.place_candidates.kept_ratio": (ratio(kept, drawn), "ratio"),
        "connection.decide_connection.accept_ratio": (
            ratio(counts["connection.decide_connection.accepted"],
                  totals["connection.decide_connection"]["calls"]), "ratio"),
        "exploration.explore_cluster.steps": (steps, "count"),
        "exploration.explore_cluster.generated": (counts["exploration.explore_cluster.generated"], "count"),
        "exploration.explore_cluster.us_per_step": (
            ratio(totals["exploration.explore_cluster"]["total_s"] * 1e6, steps), "us"),
        "exploration.trial_us.p50": (float(numpy.percentile(trial_us, 50)) if len(trial_us) else 0.0, "us"),
        "exploration.trial_us.tail": (
            float(numpy.percentile(trial_us, tail_pct)) if len(trial_us) else 0.0, "us"),
        "exploration.trial_us.tail_pct": (tail_pct, "%"),
        "threshold.trials": (counts["threshold.trials"], "count"),
        "parallel.run_trials.w1_s": (w1, "s"),
        "parallel.run_trials.w2_s": (w2, "s"),
        "parallel.speedup_w2": (ratio(w1, w2), "ratio"),
        "exploration.bytes_per_point": (workloads.bytes_per_point(s, 4 if tiny else 40), "B"),
        "trace.overhead_frac": (
            ratio(walls.get("traced", 0.0) - walls.get("w1", 0.0), walls.get("w1", 0.0)), "ratio"),
        "machine.spin_s": (spin(), "s"),
    })
    tracer.save(OUT_DIR / f"{wl.name}.spans.npz",
                {"workload": wl.name, "seed": s, "missing": tracer.missing})
    if tracer.missing:
        print(f"warning: call sites not found, not traced: {tracer.missing}", file=sys.stderr)
    record = {"seed": s, "walls_s": walls, "result_sha256": digests, "missing": tracer.missing}
    return m, tally, record


def run_workload(name: str, seed: int, seconds: float, trace: int, tiny: bool) -> dict[str, Any]:
    import workloads

    facts = machine_facts()
    print(json.dumps({"workload": name, "seed": seed, "trace": trace, "machine": facts}))
    wl = workloads.make(name, OUT_DIR, tiny)
    if trace:
        metrics, tally, record = traced_run(wl, seed, tiny)
    else:
        metrics, tally, runs = timed_run(wl, seed, seconds)
        probes = setup_seconds(name, tiny)
        metrics["setup_s"] = (statistics.median(probes), "s")
        record = {"runs": runs, "setup_probes_s": probes}
    for p in tally.problems:
        print(f"check failed: {name}: {p}", file=sys.stderr)
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"{name}-trace{trace}.json").write_text(json.dumps(
        {"workload": name, "seed": seed, "seconds": seconds, "machine": facts,
         "problems": tally.problems, **record, **result}, indent=2) + "\n")
    return result


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    help="critical-d2, verdict-d5, tau-d2, or all (default)")
    ap.add_argument("--seed", type=int, default=1729)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="run each workload at a tiny size (for the benchmark's own tests)")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    import_program()
    import workloads

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    if any(n not in workloads.NAMES for n in names):
        ap.error(f"unknown workload {args.workload!r}")
    results = {n: run_workload(n, args.seed, args.seconds, args.trace, args.tiny) for n in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        for n, r in results.items():
            print(json.dumps({"workload": n, **r}))
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
