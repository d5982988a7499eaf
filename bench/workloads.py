"""The benchmark's three workloads: set-up, one computation, output checks.

Constructing a workload is its set-up: it builds the model and params
(and, where the workload needs them, the branching bound or a parsed CLI
call). `compute(seed, workers)` runs the workload's computation once and
returns a `Result`. `check(result)` lists every violated invariant; an
empty list means the output is correct. The checks are invariants, not
pinned bytes, so they keep holding when a later change alters the
random-draw contract.

rcmperc functions are looked up on their modules at call time
(`threshold.estimate_critical`, `cli.run_cli`), so that the tracer's
wrappers on those attributes see the calls.
"""

from __future__ import annotations

import hashlib
import json
import math
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import rcmperc
from rcmperc import bounds, cli, threshold

# Infinite-volume critical intensity of the Gilbert model with connection
# range 2 in d=2 (critical filling factor 1.12809 divided by pi). A bracket
# from a finite window lies between the branching bound and this value.
GILBERT_D2_CRITICAL = 0.35909

# tau-d2 reference: `tau` with the workload's flags, 200000 trials at
# seed 8128 (27918 of 200000 probes joined), independent of the benchmark's seeds.
TAU_REFERENCE = 0.13959
TAU_REFERENCE_TRIALS = 200_000
# Allowed |tau_hat - reference| in binomial standard errors of the
# difference; a false alarm at 4.5 sigma is rarer than 1 in 100000 runs.
TAU_SIGMAS = 4.5


@dataclass(frozen=True)
class Result:
    """One computation's result document and its trial counts.

    digest is the SHA-256 of the document bytes: the CLI's output file
    for tau-d2, canonical JSON of `to_dict()` for the library workloads.
    """

    doc: dict[str, Any]
    digest: str
    trials: int
    capped: int
    exit_code: int = 0


def canonical_digest(doc: dict[str, Any]) -> str:
    data = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(data).hexdigest()


class CriticalD2:
    """README headline: bracket the d=2 Gilbert threshold in a window of 60."""

    name = "critical-d2"
    workers = 2

    def __init__(self, tiny: bool = False):
        self.model = rcmperc.Gilbert(2.0)
        self.params = rcmperc.SimParams(2, 0.0, 60.0)
        self.runs = 20 if tiny else 200
        self.refinements = 4
        self.bound = bounds.branching_bound(self.model, self.params.dim)
        self.requested_trials = self.runs

    def compute(self, seed: int, workers: int) -> Result:
        est = threshold.estimate_critical(
            self.params, self.model, runs=self.runs, master_seed=seed,
            refinements=self.refinements, workers=workers,
        )
        doc = est.to_dict()
        return Result(
            doc=doc,
            digest=canonical_digest(doc),
            trials=sum(v["runs"] for v in doc["history"]),
            capped=sum(v["capped_runs"] for v in doc["history"]),
        )

    def check(self, result: Result) -> list[str]:
        d = result.doc
        lower, upper = d["lower"], d["upper"]
        problems = []
        if not lower < upper:
            problems.append(f"bracket not ordered: {lower!r} >= {upper!r}")
        ramp = [v["gamma"] for v in d["history"] if v.get("step_kind") == "ramp"]
        if len(ramp) < 2:
            problems.append("the ramp percolated at its first intensity")
        elif d["width"] != (ramp[-1] - ramp[-2]) / 2**self.refinements:
            problems.append(
                f"width {d['width']!r} is not the post-ramp width "
                f"{ramp[-1] - ramp[-2]!r} / 2^{self.refinements}"
            )
        last = {v["gamma"]: v["percolates"] for v in d["history"]}
        if last.get(lower) is not False:
            problems.append(f"last verdict at lower {lower!r} is not non-percolating")
        if last.get(upper) is not True:
            problems.append(f"last verdict at upper {upper!r} is not percolating")
        if d["warnings"]:
            problems.append(f"warnings: {d['warnings']}")
        if not (self.bound <= lower and upper <= GILBERT_D2_CRITICAL):
            problems.append(
                f"bracket [{lower!r}, {upper!r}] outside "
                f"[{self.bound!r}, {GILBERT_D2_CRITICAL}]"
            )
        return problems


class VerdictD5:
    """A full 300-run verdict in d=5 just below the desk bracket."""

    name = "verdict-d5"
    workers = 1
    gamma = 0.0095

    def __init__(self, tiny: bool = False):
        self.model = rcmperc.Gilbert(2.0)
        self.params = rcmperc.SimParams(5, 0.0, 40.0)
        self.runs = 15 if tiny else 300
        self.requested_trials = self.runs

    def compute(self, seed: int, workers: int) -> Result:
        verdict = threshold.percolation_verdict(
            self.params, self.model, gamma=self.gamma, runs=self.runs,
            master_seed=seed, full_runs=True, workers=workers,
        )
        doc = verdict.to_dict()
        return Result(doc=doc, digest=canonical_digest(doc),
                      trials=verdict.runs, capped=verdict.capped_runs)

    def check(self, result: Result) -> list[str]:
        d = result.doc
        problems = []
        if d["runs"] != self.runs:
            problems.append(f"runs {d['runs']} != requested {self.runs}")
        if d["capped_runs"] != 0:
            problems.append(f"{d['capped_runs']} capped runs")
        return problems


class TauD2:
    """In-process `rcmperc tau`: tens of thousands of tiny subcritical trials.

    Set-up includes CLI parsing: one single-trial call parses the flags,
    builds the model and params and writes the document.
    """

    name = "tau-d2"
    workers = 1

    def __init__(self, out_dir: Path, tiny: bool = False):
        self.trials = 2000 if tiny else 40_000
        self.requested_trials = self.trials
        self.out = out_dir / "tau-d2.json"
        out_dir.mkdir(parents=True, exist_ok=True)
        if cli.run_cli(self.argv(seed=0, trials=1, workers=1)) != 0:
            raise RuntimeError("tau-d2: the set-up CLI call failed")

    def argv(self, seed: int, trials: int, workers: int) -> list[str]:
        return [
            "tau", "--model", "soft-sphere", "--hardness", "6", "--gamma", "0.05",
            "--r", "2.5", "--trials", str(trials), "--system-size", "30",
            "--seed", str(seed), "--threads", str(workers),
            "--output-file", str(self.out),
        ]

    def compute(self, seed: int, workers: int) -> Result:
        self.out.unlink(missing_ok=True)
        code = cli.run_cli(self.argv(seed, self.trials, workers))
        data = self.out.read_bytes()
        doc = json.loads(data)
        return Result(
            doc=doc,
            digest=hashlib.sha256(data).hexdigest(),
            trials=doc["result"]["trials"],
            capped=doc["result"]["excluded_capped"],
            exit_code=code,
        )

    def check(self, result: Result) -> list[str]:
        r = result.doc["result"]
        problems = []
        if result.exit_code != 0:
            problems.append(f"exit code {result.exit_code}")
        excluded = r["excluded_escaped"] + r["excluded_capped"]
        if r["resolved"] + excluded != r["trials"] or r["trials"] != self.trials:
            problems.append(
                f"resolved {r['resolved']} + excluded {excluded} != trials {r['trials']}"
            )
        if r["exclusion_warning"]:
            problems.append("exclusion warning")
        p = TAU_REFERENCE
        tol = TAU_SIGMAS * math.sqrt(
            p * (1.0 - p) * (1.0 / max(r["resolved"], 1) + 1.0 / TAU_REFERENCE_TRIALS)
        )
        if not abs(r["tau_hat"] - p) <= tol:
            problems.append(f"tau_hat {r['tau_hat']!r} not within {tol:.5f} of {p}")
        return problems


def bytes_per_point(seed: int, trials: int) -> float:
    """Peak traced bytes during explore_cluster per point kept.

    The subset is fixed: trials 0..trials-1 of critical-d2's model and
    window at gamma 0.26, inside its bracket, so clusters are large.
    """
    params = rcmperc.SimParams(2, 0.26, 60.0)
    model = rcmperc.Gilbert(2.0)
    peak = kept = 0
    tracemalloc.start()
    try:
        for t in range(trials):
            rng = rcmperc.trial_stream(seed, 0, t)
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            outcome = rcmperc.explore_cluster(params, model, rng)
            peak += tracemalloc.get_traced_memory()[1] - base
            kept += outcome.generated_points
    finally:
        tracemalloc.stop()
    return peak / kept if kept else 0.0


NAMES = (CriticalD2.name, VerdictD5.name, TauD2.name)


def make(name: str, out_dir: Path, tiny: bool = False):
    """Set up the named workload."""
    if name == CriticalD2.name:
        return CriticalD2(tiny)
    if name == VerdictD5.name:
        return VerdictD5(tiny)
    if name == TauD2.name:
        return TauD2(out_dir, tiny)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
