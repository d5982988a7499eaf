from __future__ import annotations

import argparse
import contextlib
import csv
import importlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcmperc import (
    Gilbert, SimParams, branching_bound, explore_cluster, reproduce_preset, trial_stream,
)
from rcmperc import cli, exploration
from rcmperc.cli import run_cli

from support import CountingKernel, in_bounded_child, round_sig


def run_ok(capsys, argv):
    code = run_cli(argv)
    out = capsys.readouterr()
    assert code == 0, f"exit {code}, stderr: {out.err}"
    return out


def _run_with_stderr(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run_cli(argv)
    return code, err.getvalue()


_ZERO_MASS = "connection function has zero mass; the branching bound is infinite"


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["no-such-command"],
            ["explore"],  # missing --gamma
            ["explore", "--gamma", "0.1", "--no-such-flag"],
            ["explore", "--gamma", "-1", "--dim", "2"],
            ["explore", "--gamma", "0.1", "--dim", "0"],
            ["explore", "--gamma", "0.1", "--runs", "0"],
            ["explore", "--gamma", "0.1", "--model", "penetrable", "--p", "1.5"],
            ["explore", "--gamma", "0.1", "--model", "tabulated"],
            ["explore", "--gamma", "0.1", "--range", "-2"],
            ["explore", "--gamma", "0.1", "--dim", "7"],  # no desk window
            ["explore", "--gamma", "0.1", "--system-size", "1.0"],  # below range
            ["tau", "--gamma", "0.1", "--r", "25.0", "--system-size", "10"],
            ["tau", "--gamma", "0.1", "--r", "0"],
            ["critical", "--ramp", "1.0"],
            ["critical", "--refine", "-1"],
            ["percolate", "--gamma", "0.1", "--threads", "0"],
            ["bound", "--table", "9"],
            ["reproduce", "--table", "1", "--scale", "desk", "--dims", "7"],
            ["reproduce", "--table", "9", "--scale", "desk"],
            ["reproduce", "--table", "1", "--scale", "nope"],
            ["explore", "--gamma", "0.1", "--config", "/no/such/file.conf"],
            ["explore", "--gamma", "0.1", "--threads", "0"],
            ["reproduce", "--table", "1", "--scale", "desk", "--dims", "2,2", "--runs", "3"],
            # escape is impossible: max-steps * range is below the window
            ["reproduce", "--table", "1", "--scale", "desk", "--dims", "2", "--runs", "2",
             "--max-steps", "3", "--max-points", "500"],
            ["reproduce", "--table", "1", "--scale", "desk", "--dims", ","],
            ["reproduce", "--table", "1", "--scale", "desk", "--dims", "2,,3"],
            ["bound", "--table", "1", "--model", "penetrable", "--p", "0.9", "--range", "7",
             "--dim", "5", "--gamma", "3"],
        ],
    )
    def test_exit_one(self, capsys, argv):
        assert run_cli(argv) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["bound", "--model", "tabulated", "--phi-csv", "{zeros}"], _ZERO_MASS),
            (["bound", "--model", "tabulated", "--phi-csv", "{zeros}", "--gamma", "0.1"],
             _ZERO_MASS),
            (["bound", "--dim", "400"],
             "the volume of a ball of radius 2.0 in dimension 400 overflows"),
            (["percolate", "--dim", "400", "--gamma", "0.1", "--system-size", "5", "--runs", "1"],
             "the volume of a ball of radius 2.0 in dimension 400 overflows"),
            (["bound", "--range", "1e308", "--dim", "3"],
             "the volume of a ball of radius 1e+308 in dimension 3 overflows"),
            # pi * 1e308 overflows in the product, not in a power
            (["bound", "--range", "1e154", "--dim", "2"],
             "the volume of a ball of radius 1e+154 in dimension 2 overflows"),
            (["percolate", "--range", "1e154", "--dim", "2", "--gamma", "0", "--system-size",
              "1e155", "--runs", "1"],
             "the volume of a ball of radius 1e+154 in dimension 2 overflows"),
            (["bound", "--model", "soft-sphere", "--range", "1e200", "--dim", "2"],
             "the volume of a ball of radius 1e+200 in dimension 2 overflows"),
            # a power of the table's radius overflows before any sum does
            (["bound", "--model", "tabulated", "--phi-csv", "{far}", "--dim", "2"],
             "the connectivity mass of a table of radius 1e+200 in dimension 2 overflows"),
            (["critical", "--ramp", "nan"], "ramp factor must be finite and exceed 1, got nan"),
            (["critical", "--ramp", "inf"], "ramp factor must be finite and exceed 1, got inf"),
        ],
        ids=["zero-mass", "zero-mass-gamma", "bound-d400", "percolate-d400", "bound-range-1e308",
             "bound-range-1e154", "percolate-range-1e154", "soft-sphere-range-1e200",
             "tabulated-range-1e200", "ramp-nan", "ramp-inf"],
    )
    def test_failure_is_one_error_line(self, capsys, tmp_path, argv, message):
        zeros = tmp_path / "zeros.csv"
        zeros.write_text("r,phi\n0.0,0.0\n1.0,0.0\n2.0,0.0\n")
        far = tmp_path / "far.csv"
        far.write_text("r,phi\n0.0,1.0\n1e200,0.0\n")
        # pytest captures warnings before capsys sees them, so record them here
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli([a.format(zeros=zeros, far=far) for a in argv]) == 1
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: " + message)
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["percolate", "explore"])
    def test_out_of_memory_is_one_error_line(self, command):
        # the batch's outcome array alone would take 3.64 TiB
        argv = [command, "--gamma", "0", "--system-size", "10", "--runs", "100000000000"]
        code, err = in_bounded_child(lambda: _run_with_stderr(argv))
        assert code == 1
        # one line that names the trial count, not the record dtype
        assert err == "error: cannot hold the outcomes of 100000000000 trials in memory\n"

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_kernel_out_of_memory_is_one_error_line(self, threads):
        # a supercritical d=1 cluster that cannot escape its window grows the
        # kernel's points, cells, heap and query buffer past a 64 MiB allowance
        argv = ["percolate", "--dim", "1", "--range", "1", "--gamma", "20", "--system-size", "1e9",
                "--runs", "2", "--full-runs", "--max-points", "1000000000",
                "--max-steps", "1000000000", "--threads", threads]
        code, err = in_bounded_child(lambda: _run_with_stderr(argv), extra_bytes=64 << 20)
        assert code == 1
        assert err == "error: the exploration kernel ran out of memory\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["bound", "--seed", "99"],
            ["bound", "--max-points", "5"],
            ["bound", "--max-steps", "5"],
            ["bound", "--system-size", "3"],
            ["explore", "--gamma", "0.1", "--quad-tol", "nan"],
            ["percolate", "--gamma", "0.1", "--quad-tol", "nan"],
            ["tau", "--gamma", "0.1", "--r", "1.5", "--quad-tol", "nan"],
            ["reproduce", "--table", "1", "--scale", "desk", "--dims", "2", "--runs", "20",
             "--system-size", "7"],
            # the radial quadrature and its tolerance are gone
            ["bound", "--model", "soft-sphere", "--quad-tol", "1e-8"],
            ["critical", "--quad-tol", "1e-8"],
            ["reproduce", "--table", "4", "--scale", "desk", "--dims", "2", "--quad-tol", "1e-8"],
        ],
    )
    def test_flag_the_command_never_reads_is_refused(self, capsys, argv):
        assert run_cli(argv) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: unrecognized arguments: " + " ".join(argv[-2:]))

    def test_help_exits_zero(self, capsys):
        assert run_cli(["--help"]) == 0
        assert "rcmperc" in capsys.readouterr().out

    def test_subcommand_help(self, capsys):
        assert run_cli(["critical", "--help"]) == 0
        assert "--ramp" in capsys.readouterr().out


class TestFlagTable:
    """Each subcommand defines only flags that its handler, `run_cli` or `_emit` reads."""

    TABULATED = ["--model", "tabulated", "--phi-csv", "{phi}"]
    # small valid runs that together take every branch that reads a flag
    RUNS = {
        "explore": [["explore", "--gamma", "0", "--system-size", "10"],
                    ["explore", *TABULATED, "--gamma", "0", "--system-size", "10"]],
        "percolate": [["percolate", "--gamma", "0", "--system-size", "10", "--runs", "2"],
                      ["percolate", *TABULATED, "--gamma", "0", "--system-size", "10", "--runs", "2"]],
        "critical": [["critical", "--system-size", "10", "--runs", "10", "--refine", "1"],
                     ["critical", *TABULATED, "--system-size", "10", "--runs", "10", "--refine", "1"]],
        "bound": [["bound"], ["bound", *TABULATED, "--gamma", "0.01"], ["bound", "--table", "1"]],
        "tau": [["tau", "--gamma", "0", "--r", "1.5", "--trials", "5", "--system-size", "10"],
                ["tau", *TABULATED, "--gamma", "0", "--r", "1.5", "--trials", "5",
                 "--system-size", "10"]],
        "reproduce": [["reproduce", "--table", "1", "--scale", "desk", "--dims", "2", "--runs", "10",
                       "--refine", "1"]],
    }

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_every_flag_is_read(self, capsys, monkeypatch, tmp_path, command):
        reads: set[str] = set()

        class Recording(argparse.Namespace):
            def __getattribute__(self, name):
                reads.add(name)
                return super().__getattribute__(name)

        parse = cli._Parser.parse_args
        monkeypatch.setattr(
            cli._Parser, "parse_args", lambda self, *a, **k: Recording(**vars(parse(self, *a, **k)))
        )
        phi = tmp_path / "phi.csv"
        phi.write_text("r,phi\n0.0,1.0\n1.0,1.0\n2.0,0.0\n")
        for argv in self.RUNS[command]:
            run_ok(capsys, [a.format(phi=phi) for a in argv])
        sub = next(a for a in cli._build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        # --config is consumed by `_apply_config` before the parse
        defined = {a.dest for a in sub.choices[command]._actions} - {"help", "config"}
        assert sorted(defined - reads) == []

    def test_parser_is_built_once(self, capsys):
        # the first call builds the parser and every later call reuses it
        run_ok(capsys, ["bound"])
        run_ok(capsys, ["bound", "--dim", "3"])
        assert run_cli(["bound", "--no-such-flag"]) == 1
        capsys.readouterr()
        assert cli._build_parser() is cli._build_parser()
        assert cli._build_parser.cache_info().misses == 1


class TestExplore:
    def test_zero_gamma_record(self, capsys):
        out = run_ok(capsys, [
            "explore", "--model", "gilbert", "--dim", "2", "--range", "2",
            "--gamma", "0", "--system-size", "10", "--seed", "7",
        ])
        lines = out.out.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "trial": 0, "seed": 7, "gamma": 0.0, "escaped": False,
            "cluster_size": 1, "generated_points": 0, "steps": 1,
            "max_norm": 0.0, "capped": False,
        }

    def test_one_line_per_trial(self, capsys):
        out = run_ok(capsys, [
            "explore", "--gamma", "0.2", "--dim", "2", "--system-size", "15",
            "--runs", "8", "--seed", "3",
        ])
        lines = out.out.strip().splitlines()
        assert len(lines) == 8
        assert [json.loads(l)["trial"] for l in lines] == list(range(8))

    def test_rows_match_explore_cluster(self, capsys):
        out = run_ok(capsys, [
            "explore", "--gamma", "0.3", "--dim", "2", "--system-size", "15",
            "--runs", "4", "--seed", "5",
        ])
        params = SimParams(dim=2, gamma=0.3, system_size=15.0)
        for t, line in enumerate(out.out.strip().splitlines()):
            o = explore_cluster(params, Gilbert(radius=2.0), trial_stream(5, 0, t))
            assert json.loads(line) == {
                "trial": t, "seed": 5, "gamma": 0.3, "escaped": o.escaped,
                "cluster_size": o.cluster_size, "generated_points": o.generated_points,
                "steps": o.steps, "max_norm": o.max_norm, "capped": o.capped,
            }

    def test_csv_round_trip(self, capsys):
        out = run_ok(capsys, [
            "explore", "--gamma", "0.2", "--dim", "2", "--system-size", "15",
            "--runs", "4", "--seed", "3", "--output", "csv",
        ])
        reader = csv.reader(io.StringIO(out.out))
        assert next(reader) == [
            "trial", "seed", "gamma", "escaped", "cluster_size", "generated_points",
            "steps", "max_norm", "capped",
        ]
        rows = list(reader)
        assert len(rows) == 4
        assert [r[0] for r in rows] == ["0", "1", "2", "3"]
        assert all(r[1] == "3" and r[2] == "0.2" for r in rows)
        assert all(r[3] in ("true", "false") and r[8] in ("true", "false") for r in rows)

    def test_json_and_csv_agree(self, capsys):
        argv = ["explore", "--gamma", "0.25", "--dim", "2", "--system-size", "12",
                "--runs", "3", "--seed", "9"]
        jout = run_ok(capsys, argv).out
        cout = run_ok(capsys, argv + ["--output", "csv"]).out
        jrows = [json.loads(l) for l in jout.strip().splitlines()]
        crows = list(csv.DictReader(io.StringIO(cout)))
        assert len(jrows) == len(crows) == 3
        for j, c in zip(jrows, crows):
            assert list(j) == list(c)
            for key in j:
                assert cli._csv_cell(j[key]) == c[key], key

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "runs.jsonl"
        out = run_ok(capsys, [
            "explore", "--gamma", "0", "--dim", "2", "--system-size", "10",
            "--output-file", str(path),
        ])
        assert out.out == ""
        assert json.loads(path.read_text())["cluster_size"] == 1

    def test_capped_exit_two(self, capsys):
        code = run_cli([
            "explore", "--gamma", "0.6", "--dim", "2", "--system-size", "100",
            "--max-steps", "4", "--seed", "1",
        ])
        capsys.readouterr()
        assert code == 2

    def test_deterministic_output(self, capsys):
        argv = ["explore", "--gamma", "0.3", "--dim", "2", "--system-size", "15",
                "--runs", "5", "--seed", "21"]
        assert run_ok(capsys, argv).out == run_ok(capsys, argv).out

    def test_one_kernel_call_per_thread(self, capsys, monkeypatch):
        calls: list[tuple[int, int]] = []
        monkeypatch.setattr(exploration, "lib", CountingKernel(calls))
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        run_ok(capsys, ["explore", "--gamma", "0.3", "--system-size", "15", "--runs", "8",
                        "--threads", "2"])
        assert calls == [(2, 8)]


class TestNoClock:
    """No document holds a clock value: output bytes repeat across runs and worker counts."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["explore", "--gamma", "0.3", "--system-size", "15", "--runs", "5", "--seed", "7"],
            ["reproduce", "--table", "1", "--scale", "desk", "--dims", "2", "--runs", "10",
             "--refine", "1"],
        ],
        ids=["explore", "reproduce"],
    )
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_bytes_repeat_across_runs_and_threads(self, capsys, argv, fmt):
        outs = [run_ok(capsys, [*argv, "--output", fmt, "--threads", t]).out
                for t in ("1", "1", "2")]
        assert outs[0] == outs[1] == outs[2]


class TestPercolate:
    def test_zero_gamma_doc(self, capsys):
        out = run_ok(capsys, ["percolate", "--gamma", "0", "--runs", "20", "--seed", "2"])
        doc = json.loads(out.out)
        assert doc["command"] == "percolate"
        assert doc["result"]["percolates"] is False
        assert doc["result"]["runs"] == 20
        assert doc["config"]["gamma"] == 0.0
        assert doc["config"]["seed"] == 2
        assert "threads" not in doc["config"]

    def test_full_runs_echoed(self, capsys):
        out = run_ok(capsys, [
            "percolate", "--gamma", "0.45", "--dim", "2", "--system-size", "15",
            "--runs", "30", "--full-runs", "--seed", "4",
        ])
        doc = json.loads(out.out)
        assert doc["config"]["full_runs"] is True
        assert doc["result"]["runs"] == 30
        assert doc["result"]["escapes"] >= 1

    def test_early_exit_runs_short(self, capsys):
        out = run_ok(capsys, [
            "percolate", "--gamma", "0.6", "--dim", "2", "--system-size", "15",
            "--runs", "500", "--seed", "4",
        ])
        doc = json.loads(out.out)
        assert doc["result"]["percolates"] is True
        assert doc["result"]["runs"] < 500
        assert doc["result"]["escapes"] == 1

    def test_csv_output(self, capsys):
        out = run_ok(capsys, [
            "percolate", "--gamma", "0", "--runs", "10", "--output", "csv",
        ])
        lines = out.out.strip().splitlines()
        assert lines[0].startswith("gamma,runs,escapes")
        assert len(lines) == 2


class TestCritical:
    ARGS = ["critical", "--dim", "2", "--system-size", "15", "--runs", "40",
            "--seed", "13"]

    def test_json_doc_structure(self, capsys):
        out = run_ok(capsys, self.ARGS)
        doc = json.loads(out.out)
        assert doc["command"] == "critical"
        r = doc["result"]
        assert r["lower"] < r["midpoint"] < r["upper"]
        assert r["midpoint"] == (r["lower"] + r["upper"]) / 2.0
        assert r["model"] == "gilbert(radius=2)"
        kinds = [h["step_kind"] for h in r["history"]]
        assert kinds.count("refine") == 2
        assert all(k in ("ramp", "refine") for k in kinds)
        assert doc["config"]["runs"] == 40

    def test_threads_do_not_change_bytes(self, capsys):
        a = run_ok(capsys, self.ARGS + ["--threads", "1"]).out
        b = run_ok(capsys, self.ARGS + ["--threads", "2"]).out
        assert a == b

    def test_eight_threads_give_the_same_bytes(self, capsys, monkeypatch):
        # a window where most trials escape, so later trials are cut while
        # earlier ones still run; 8 cores, so 8 threads really run
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        argv = ["critical", "--dim", "2", "--system-size", "30", "--runs", "300", "--seed", "5",
                "--refine", "4"]
        outs = [run_ok(capsys, argv + ["--threads", t]).out for t in ("1", "2", "8")]
        assert outs[0] == outs[1] == outs[2]

    def test_csv_history(self, capsys):
        out = run_ok(capsys, self.ARGS + ["--output", "csv"])
        lines = out.out.strip().splitlines()
        assert lines[0] == "step_kind,gamma,runs,escapes,capped_runs,percolates"
        assert len(lines) > 3
        assert "bracket:" in out.err

    def test_capped_warning_exit_two(self, capsys):
        code = run_cli([
            "critical", "--dim", "2", "--system-size", "8", "--runs", "30",
            "--max-steps", "12", "--seed", "12", "--full-runs",
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert "work cap" in err


class TestBound:
    def test_model_mode_values(self, capsys):
        out = run_ok(capsys, ["bound", "--model", "gilbert", "--dim", "3", "--range", "2"])
        doc = json.loads(out.out)
        r = doc["result"]
        assert round_sig(r["branching_bound"]) == 0.029842
        assert r["branching_bound"] == pytest.approx(1.0 / r["connectivity_mass"], rel=1e-15)
        assert r["connectivity_mass"] == pytest.approx(32.0 * math.pi / 3.0, rel=1e-10)

    def test_config_echoes_only_the_model(self, capsys):
        doc = json.loads(run_ok(capsys, ["bound", "--dim", "3", "--gamma", "0.05"]).out)
        assert doc["config"] == {"model": {"kind": "gilbert", "radius": 2.0}}  # no seed

    def test_certificate_mode(self, capsys):
        out = run_ok(capsys, ["bound", "--dim", "2", "--gamma", "0.02"])
        r = json.loads(out.out)["result"]
        assert r["certificate_valid"] is True
        assert r["gamma"] == 0.02
        assert r["expected_degree"] == pytest.approx(0.02 * 4 * math.pi, rel=1e-12)
        assert r["mean_cluster_size_bound"] > 1.0

    def test_certificate_invalid_still_reported(self, capsys):
        out = run_ok(capsys, ["bound", "--dim", "2", "--gamma", "0.5"])
        r = json.loads(out.out)["result"]
        assert r["certificate_valid"] is False
        assert r["mean_cluster_size_bound"] is None

    def test_table_mode_all(self, capsys):
        out = run_ok(capsys, ["bound", "--table"])
        rows = json.loads(out.out)["tables"]
        assert len(rows) == 20
        for row in rows:
            assert round_sig(row["branching_bound"]) == row["reference_branching_bound"]

    @pytest.mark.parametrize(
        "flags",
        [["--model", "gilbert"], ["--dim", "2"], ["--gamma", "0.01"], ["--phi-csv", "phi.csv"],
         ["--range", "7", "--beta", "2", "--hardness", "3"]],
    )
    def test_table_mode_refuses_the_flags_it_ignores(self, capsys, flags):
        # a flag given at its default value is refused too
        assert run_cli(["bound", "--table", "1", *flags]) == 1
        assert capsys.readouterr().err == f"error: bound --table takes no {', '.join(flags[::2])}\n"

    def test_table_mode_single(self, capsys):
        out = run_ok(capsys, ["bound", "--table", "4", "--output", "csv"])
        lines = out.out.strip().splitlines()
        assert len(lines) == 5  # header + dims 2..5
        assert all(",4," not in l or l.split(",")[0] == "4" for l in lines[1:])

    def test_soft_sphere_beta(self, capsys):
        out = run_ok(capsys, [
            "bound", "--model", "soft-sphere", "--hardness", "12", "--dim", "2",
        ])
        assert round_sig(json.loads(out.out)["result"]["branching_bound"]) == 0.082379

    def test_tabulated_model(self, capsys, tmp_path):
        path = tmp_path / "phi.csv"
        path.write_text("r,phi\n0.0,1.0\n1.0,1.0\n2.0,0.0\n")
        out = run_ok(capsys, [
            "bound", "--model", "tabulated", "--phi-csv", str(path), "--dim", "2",
        ])
        r = json.loads(out.out)["result"]
        assert r["connectivity_mass"] == pytest.approx(7.0 * math.pi / 3.0, abs=1e-9)


class TestTau:
    def test_certain_connection(self, capsys):
        out = run_ok(capsys, [
            "tau", "--gamma", "0", "--r", "1.5", "--trials", "100",
            "--dim", "2", "--system-size", "20", "--seed", "5",
        ])
        doc = json.loads(out.out)
        assert doc["result"]["tau_hat"] == 1.0
        assert doc["result"]["positives"] == 100
        assert doc["config"]["r"] == 1.5

    def test_impossible_connection(self, capsys):
        out = run_ok(capsys, [
            "tau", "--gamma", "0", "--r", "2.5", "--trials", "100",
            "--dim", "2", "--system-size", "20",
        ])
        assert json.loads(out.out)["result"]["tau_hat"] == 0.0

    def test_exclusion_warning_on_stderr(self, capsys):
        code = run_cli([
            "tau", "--gamma", "0.6", "--r", "3.0", "--trials", "60",
            "--dim", "2", "--system-size", "4.5", "--seed", "6",
        ])
        out = capsys.readouterr()
        assert code == 0
        assert "trials ended before resolving" in out.err

    def test_capped_exit_two(self, capsys):
        code = run_cli([
            "tau", "--gamma", "0.6", "--r", "3.0", "--trials", "40",
            "--dim", "2", "--system-size", "30", "--max-steps", "2", "--seed", "6",
        ])
        capsys.readouterr()
        assert code == 2


class TestConfigFile:
    def test_flags_win_over_config(self, capsys, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("gamma = 0.4\nseed = 50\nsystem-size = 15\n")
        out = run_ok(capsys, [
            "percolate", "--config", str(conf), "--gamma", "0.0", "--runs", "10",
        ])
        doc = json.loads(out.out)
        assert doc["config"]["gamma"] == 0.0  # flag beat the file
        assert doc["config"]["seed"] == 50    # file beat the default
        assert doc["config"]["system_size"] == 15.0

    def test_config_supplies_required_flag(self, capsys, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("# comment line\ngamma = 0.0\n\nruns = 5\n")
        out = run_ok(capsys, ["percolate", "--config", str(conf)])
        assert json.loads(out.out)["result"]["runs"] == 5

    def test_config_booleans(self, capsys, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("full-runs = true\ngamma = 0.45\nsystem-size = 15\nruns = 20\n")
        out = run_ok(capsys, ["percolate", "--config", str(conf), "--seed", "4"])
        doc = json.loads(out.out)
        assert doc["config"]["full_runs"] is True
        assert doc["result"]["runs"] == 20

    def test_config_equals_form(self, capsys, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("gamma = 0.0\n")
        out = run_ok(capsys, ["percolate", f"--config={conf}", "--runs", "5"])
        assert json.loads(out.out)["result"]["runs"] == 5

    def test_config_flag_abbreviated(self, capsys, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("runs = 3\nseed = 50\n")
        out = run_ok(capsys, [
            "percolate", "--gamma", "0", "--system-size", "10", "--conf", str(conf),
        ])
        doc = json.loads(out.out)
        assert doc["config"]["seed"] == 50
        assert doc["result"]["runs"] == 3

    def test_config_requires_subcommand(self, capsys, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("gamma = 0.0\n")
        assert run_cli(["--config", str(conf)]) == 1
        capsys.readouterr()

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("no-such-key = 5\n")
        assert run_cli(["percolate", "--config", str(conf), "--gamma", "0"]) == 1
        capsys.readouterr()


class TestReproduce:
    def test_desk_smoke(self, capsys):
        out = run_ok(capsys, [
            "reproduce", "--table", "1", "--scale", "desk", "--dims", "2",
            "--runs", "30",
        ])
        doc = json.loads(out.out)
        assert doc["command"] == "reproduce"
        assert doc["table"] == 1
        assert doc["scale"] == "desk"
        assert len(doc["rows"]) == 1
        row = doc["rows"][0]
        assert row["dim"] == 2
        assert row["system_size"] == 200.0
        assert row["runs"] == 30
        assert row["lower"] < row["midpoint"] < row["upper"]
        assert row["reference"]["critical_estimate"] == 0.34072
        assert row["reference"]["literature_value"] == 0.35909
        assert round_sig(row["branching_bound"]) == 0.079577
        assert row["seed"] != doc["seed"]  # derived per dimension

    def test_dims_subset_rows_match_full(self, capsys):
        # any subset reproduces the same per-dimension rows
        base = ["reproduce", "--table", "2", "--scale", "desk", "--runs", "25"]
        full = json.loads(run_ok(capsys, base + ["--dims", "2,3"]).out)
        solo = json.loads(run_ok(capsys, base + ["--dims", "3"]).out)
        full_row = next(r for r in full["rows"] if r["dim"] == 3)
        solo_row = solo["rows"][0]
        for key in ("seed", "lower", "upper", "midpoint", "width", "evaluations"):
            assert full_row[key] == solo_row[key]

    def test_csv_output(self, capsys):
        out = run_ok(capsys, [
            "reproduce", "--table", "1", "--scale", "desk", "--dims", "2",
            "--runs", "25", "--output", "csv",
        ])
        lines = out.out.strip().splitlines()
        assert lines[0].startswith("dim,system_size,runs,lower,upper,midpoint")
        assert len(lines) == 2
        # each column means what its JSON key means: stored beside recomputed
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert row["reference_branching_bound"] == "0.079577"
        assert float(row["branching_bound"]) == branching_bound(Gilbert(radius=2.0), 2)

    def test_bad_dims_string(self, capsys):
        for dims in ("2;3", ""):
            assert run_cli([
                "reproduce", "--table", "1", "--scale", "desk", "--dims", dims,
            ]) == 1
        capsys.readouterr()

    def test_empty_dims_list_rejected(self):
        with pytest.raises(ValueError, match="must not be empty"):
            reproduce_preset(1, "desk", dims=[])


class TestCsvCell:
    @given(x=st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=300)
    def test_float_round_trip(self, x):
        assert float(cli._csv_cell(x)) == x

    def test_bool_and_none_cells(self):
        assert cli._csv_cell(True) == "true"
        assert cli._csv_cell(False) == "false"
        assert cli._csv_cell(None) == ""


class TestConsoleScript:
    def test_project_script_in_process(self, capsys, monkeypatch):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["rcmperc"]
        module, _, attr = target.partition(":")
        entry = getattr(importlib.import_module(module), attr)
        monkeypatch.setattr(sys, "argv", ["rcmperc", "bound", "--dim", "2"])
        with pytest.raises(SystemExit) as exc:
            entry()
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert round_sig(json.loads(out)["result"]["branching_bound"]) == 0.079577

    def test_installed_entry_point(self):
        exe = shutil.which("rcmperc")
        assert exe, "console script not installed"
        proc = subprocess.run(
            [exe, "bound", "--dim", "2"], capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert round_sig(json.loads(proc.stdout)["result"]["branching_bound"]) == 0.079577
