from __future__ import annotations

import json
import math

import pytest

from rcmperc import (
    Gilbert,
    PenetrableSphere,
    SimParams,
    branching_bound,
    estimate_critical,
    percolation_verdict,
    threshold,
)

from support import assert_bracket_invariants

GILBERT = Gilbert(radius=2.0)


def params2(system_size=200.0, **kw):
    return SimParams(dim=2, gamma=0.1, system_size=system_size, **kw)


class TestPercolationVerdict:
    def test_zero_intensity_never_percolates(self):
        v = percolation_verdict(params2(), GILBERT, 0.0, runs=50, master_seed=1)
        assert v.percolates is False
        assert v.runs == 50
        assert v.escapes == 0
        assert v.capped_runs == 0
        assert v.contained == 50
        assert v.reliable is True

    def test_subcritical_contained(self):
        v = percolation_verdict(params2(), GILBERT, 0.08, runs=1000, master_seed=2)
        assert v.percolates is False
        assert v.runs == 1000

    def test_supercritical_percolates_and_exits_early(self):
        v = percolation_verdict(params2(), GILBERT, 0.6, runs=500, master_seed=3)
        assert v.percolates is True
        assert v.escapes == 1  # stopped at the first escape
        assert v.runs <= 500
        assert v.runs < 20  # at this intensity nearly every trial escapes

    def test_full_runs_counts_all(self):
        v = percolation_verdict(
            params2(30.0), GILBERT, 0.4, runs=200, master_seed=4, full_runs=True
        )
        assert v.runs == 200
        assert v.escapes > 1
        assert v.escapes + v.capped_runs + v.contained == 200

    def test_contained_excludes_runs_both_capped_and_escaped(self):
        # the budget clamp caps a step whose kept candidates then escape,
        # so one of these runs counts as both an escape and a capped run
        params = params2(40.0, max_generated_points=300, max_steps=45)
        v = percolation_verdict(params, GILBERT, 0.5, runs=12, master_seed=6, full_runs=True)
        assert (v.runs, v.escapes, v.capped_runs, v.contained) == (12, 9, 4, 0)
        assert all(type(c) is int for c in (v.runs, v.escapes, v.capped_runs, v.contained))

    def test_gamma_overrides_params(self):
        v = percolation_verdict(params2(), GILBERT, 0.0, runs=10, master_seed=5)
        assert v.gamma == 0.0  # params.gamma = 0.1 was ignored

    def test_validation(self):
        with pytest.raises(ValueError):
            percolation_verdict(params2(), GILBERT, 0.1, runs=0, master_seed=1)
        with pytest.raises(ValueError):
            percolation_verdict(params2(), GILBERT, -0.1, runs=10, master_seed=1)
        with pytest.raises(ValueError):
            percolation_verdict(params2(), GILBERT, math.inf, runs=10, master_seed=1)

    def test_worker_count_invisible(self):
        # 61 runs: not a multiple of 2 or 3, so the threads' last trials differ in number
        for runs in (60, 61):
            for full in (False, True):
                verdicts = [
                    percolation_verdict(
                        params2(25.0), GILBERT, 0.3, runs=runs, master_seed=6,
                        workers=workers, full_runs=full,
                    )
                    for workers in (1, 2, 3)
                ]
                assert verdicts[1] == verdicts[0]
                assert verdicts[2] == verdicts[0]

    def test_to_dict(self):
        v = percolation_verdict(params2(), GILBERT, 0.0, runs=5, master_seed=7)
        d = v.to_dict()
        assert d == {
            "gamma": 0.0, "runs": 5, "escapes": 0, "capped_runs": 0,
            "contained": 5, "percolates": False,
        }


class TestEstimateCritical:
    def test_bracket_structure(self):
        est = estimate_critical(params2(20.0), GILBERT, runs=60, master_seed=13)
        assert_bracket_invariants(est)
        assert est.warnings == ()
        assert est.model == "gilbert(radius=2)"
        ramps = [v for v in est.history if v.step_kind == "ramp"]
        refines = [v for v in est.history if v.step_kind == "refine"]
        assert len(ramps) + len(refines) == len(est.history)
        assert len(refines) == 2
        # ramp gammas follow the exact float recurrence from the bound
        gamma = branching_bound(GILBERT, 2)
        for v in ramps:
            assert v.gamma == gamma
            gamma = gamma * 1.1

    def test_varied_models_and_dims(self):
        model = PenetrableSphere(radius=2.0, prob=0.5)
        params = SimParams(dim=3, gamma=0.1, system_size=12.0)
        est = estimate_critical(params, model, runs=50, master_seed=14)
        assert_bracket_invariants(est)
        assert est.dim == 3
        assert est.lower >= branching_bound(model, 3) / 1.1

    def test_zero_refinements(self):
        est = estimate_critical(
            params2(15.0), GILBERT, runs=40, master_seed=15, refinements=0
        )
        assert_bracket_invariants(est)
        assert est.width == est.upper - est.lower
        assert all(v.step_kind == "ramp" for v in est.history)

    def test_many_refinements_width_exact(self):
        est = estimate_critical(
            params2(15.0), GILBERT, runs=40, master_seed=16, refinements=6
        )
        assert_bracket_invariants(est)
        ramps = [v.gamma for v in est.history if v.step_kind == "ramp"]
        assert est.width == (ramps[-1] - ramps[-2]) / 64.0

    def test_custom_ramp_factor(self):
        est = estimate_critical(
            params2(15.0), GILBERT, runs=40, master_seed=17, ramp_factor=1.5
        )
        assert_bracket_invariants(est)
        ramps = [v.gamma for v in est.history if v.step_kind == "ramp"]
        for a, b in zip(ramps, ramps[1:]):
            assert b == a * 1.5

    def test_validation(self):
        with pytest.raises(ValueError):
            estimate_critical(params2(), GILBERT, runs=10, master_seed=1, ramp_factor=1.0)
        with pytest.raises(ValueError):
            estimate_critical(params2(), GILBERT, runs=10, master_seed=1, ramp_factor=0.9)
        with pytest.raises(ValueError):
            estimate_critical(params2(), GILBERT, runs=10, master_seed=1, refinements=-1)

    def test_first_test_percolates_flagged(self):
        # window barely larger than the range: the branching bound
        # already percolates, so the lower endpoint is untested
        est = estimate_critical(params2(2.5), GILBERT, runs=50, master_seed=11)
        assert len(est.warnings) == 1
        assert "was not tested" in est.warnings[0]
        assert est.history[0].percolates
        gamma0 = branching_bound(GILBERT, 2)
        ramps = [v for v in est.history if v.step_kind == "ramp"]
        assert len(ramps) == 1
        assert est.upper <= gamma0
        assert est.lower < est.upper
        assert_bracket_invariants(est)

    def test_capped_runs_flagged(self):
        # a low step cap in a window escape can still beat: caps fire on
        # some runs and the estimate carries the warning
        params = SimParams(dim=2, gamma=0.1, system_size=8.0, max_steps=12)
        est = estimate_critical(
            params, GILBERT, runs=40, master_seed=12, full_runs=True
        )
        assert any(v.capped_runs > 0 for v in est.history)
        assert any("work cap" in w for w in est.warnings)

    def test_impossible_escape_raises(self, monkeypatch):
        # max norm after k steps is k * range, so escape can never happen
        # and the search must give up with a clear error before any verdict
        params = SimParams(
            dim=2, gamma=0.1, system_size=6.5, max_steps=3,
            max_generated_points=500,
        )
        calls = []
        verdict = threshold.percolation_verdict

        def counted(*args, **kwargs):
            calls.append(args)
            return verdict(*args, **kwargs)

        monkeypatch.setattr(threshold, "percolation_verdict", counted)
        with pytest.raises(RuntimeError, match="no percolation after") as exc:
            estimate_critical(params, GILBERT, runs=2, master_seed=18)
        assert calls == []
        for cause in ("after 3 steps", "range 2.0", "system size 6.5"):
            assert cause in str(exc.value)

    def test_worker_count_invisible(self):
        a = estimate_critical(params2(15.0), GILBERT, runs=40, master_seed=19, workers=1)
        b = estimate_critical(params2(15.0), GILBERT, runs=40, master_seed=19, workers=3)
        assert a == b

    def test_to_dict_json_round_trip(self):
        est = estimate_critical(params2(15.0), GILBERT, runs=40, master_seed=20)
        doc = json.loads(json.dumps(est.to_dict()))
        assert doc["lower"] == est.lower
        assert doc["upper"] == est.upper
        assert doc["midpoint"] == est.midpoint
        assert doc["width"] == est.width
        assert doc["seed"] == 20
        assert len(doc["history"]) == len(est.history)
        assert all(h["step_kind"] in ("ramp", "refine") for h in doc["history"])


def drive_plan(answers, gamma0, ramp_factor, refinements):
    """Run the search plan on scripted answers: the (gamma, step_kind) it
    asked for, in order, and the bracket it returned."""
    plan = threshold._bracket(gamma0, ramp_factor, refinements)
    asked = [next(plan)]
    for answer in answers[:-1]:
        asked.append(plan.send(answer))
    with pytest.raises(StopIteration) as done:
        plan.send(answers[-1])
    return asked, done.value.value


class TestBracketPlan:
    """The search plan alone, answered from a script: no simulation runs."""

    def test_ramp_gives_up_after_500_steps(self):
        gamma0 = branching_bound(GILBERT, 2)
        plan = threshold._bracket(gamma0, 1.1, 2)
        asked = [next(plan)] + [plan.send(False) for _ in range(499)]
        gamma = gamma0
        for step in asked:
            assert step == (gamma, "ramp")
            gamma = gamma * 1.1
        with pytest.raises(RuntimeError, match=f"no percolation after 500 ramp steps from {gamma0!r}"):
            plan.send(False)

    def test_first_answer_percolates(self):
        asked, (lower, upper, width, warnings) = drive_plan([True], 0.3, 1.25, 0)
        assert asked == [(0.3, "ramp")]
        assert (lower, upper, width) == (0.3 / 1.25, 0.3, 0.3 - 0.3 / 1.25)
        assert len(warnings) == 1 and "lower bracket endpoint was not tested" in warnings[0]

    def test_refinements_halve_the_bracket(self):
        # dyadic intensities: every midpoint is exact, so the endpoints are known
        answers = [False, False, False, True, True, False, True]
        asked, (lower, upper, width, warnings) = drive_plan(answers, 1.0, 2.0, 3)
        assert asked == [(1.0, "ramp"), (2.0, "ramp"), (4.0, "ramp"), (8.0, "ramp"),
                         (6.0, "refine"), (5.0, "refine"), (5.5, "refine")]
        assert (lower, upper, width, warnings) == (5.0, 5.5, 0.5, [])

    @pytest.mark.parametrize("k", [0, 1, 5, 12])
    def test_width_is_the_ramp_width_halved_k_times(self, k):
        gamma0 = branching_bound(GILBERT, 2)
        answers = [False] * 7 + [True] + [(i % 3 == 0) for i in range(k)]
        asked, (lower, upper, width, _) = drive_plan(answers, gamma0, 1.1, k)
        ramp = [g for g, kind in asked if kind == "ramp"]
        assert len(ramp) == 8 and len(asked) == 8 + k
        assert width == (ramp[-1] - ramp[-2]) / 2.0**k
        assert ramp[-2] <= lower < upper <= ramp[-1]
        assert upper - lower == pytest.approx(width, rel=1e-12)

    def test_every_verdict_goes_through_the_module_global(self, monkeypatch):
        # tracing wraps threshold.percolation_verdict, so estimate_critical
        # must look it up at call time for every verdict it runs
        calls = []

        def scripted(params, model, gamma, runs, master_seed, eval_key=0, workers=1,
                     full_runs=False):
            calls.append((gamma, eval_key))
            return threshold.PercolationVerdict(
                gamma=gamma, runs=runs, escapes=int(gamma > 0.5), capped_runs=0,
                contained=runs - int(gamma > 0.5), percolates=gamma > 0.5)

        monkeypatch.setattr(threshold, "percolation_verdict", scripted)
        est = estimate_critical(params2(20.0), GILBERT, runs=7, master_seed=1, refinements=3)
        assert calls == [(v.gamma, e) for e, v in enumerate(est.history)]
        assert len(calls) == len(est.history) > 3
        assert est.lower <= 0.5 < est.upper
        assert_bracket_invariants(est)
