"""Output gate: capture the CLI's output bytes for a fixed matrix, then diff two captures.

    python3 tools/output_gate.py capture SRC OUT.json
    python3 tools/output_gate.py compare A.json B.json

`capture` imports `rcmperc` from the `src/` directory SRC and runs every
case of the matrix in this process through `run_cli`: each subcommand in
json and csv at `--threads` 1, 2 and 3 (with d=3 cases for every
non-Gilbert model, the tabulated ones reading `tools/gate_phi.csv`,
explorations at d=1 and d=5, an early-exit verdict whose first escape
lies past trial 30, `--full-runs` verdicts with seeds of two and three
32-bit words, a `--full-runs` verdict that hits both work caps and exits
2, a d=3 `--full-runs` verdict whose point cap stops large trials
between tiny ones in the same kernel call, a `tau` estimate whose
trials escape or hit the point cap with the probe joined or not, in all
eight combinations, and exits 2,
`percolate` and `critical` reading `tools/gate.conf` through `--config`
and `--config=`, with a flag overriding a file value, and `bound`
without `--gamma` for the soft-sphere and tabulated models), one
`--output-file` case, and every argv of
`tests/test_cli.py::TestUsageErrors::test_exit_one`, each named by its
argv, so that adding or removing one renames no other case. It runs
from the checkout root, so the relative paths of the table and the
config file in argv stay the same. For each case it records the exit code, stderr, and
stdout or the output file's bytes, as they are: no output holds a clock
value, so nothing is blanked. `compare` lists the cases whose records
differ and exits 1 if there are any.

Capture a refactor's parent and its change into files outside the
checkout, then compare them: identical records mean identical output.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TESTS_CLI = ROOT / "tests" / "test_cli.py"
PHI_TABLE = "tools/gate_phi.csv"

# name -> argv; each runs as json and csv at --threads 1, 2 and 3
MATRIX: dict[str, list[str]] = {
    "explore": ["explore", "--gamma", "0.3", "--system-size", "15", "--runs", "5", "--seed", "7"],
    "percolate": ["percolate", "--gamma", "0.3", "--system-size", "25", "--runs", "61", "--seed", "6"],
    # first escape at trial 31, after 31 contained trials
    "percolate-later-chunk": ["percolate", "--gamma", "0.3", "--system-size", "40", "--runs", "61",
                              "--seed", "11"],
    # seeds of two and three 32-bit words, every trial run
    "percolate-seed-2^32": ["percolate", "--gamma", "0.3", "--system-size", "25", "--runs", "61",
                            "--seed", "4294967296", "--full-runs"],
    "percolate-seed-2^64+5": ["percolate", "--gamma", "0.3", "--system-size", "25", "--runs", "61",
                              "--seed", "18446744073709551621", "--full-runs"],
    "percolate-full": ["percolate", "--gamma", "0.3", "--system-size", "25", "--runs", "61",
                       "--seed", "6", "--full-runs"],
    "critical": ["critical", "--system-size", "15", "--runs", "40", "--seed", "13"],
    "bound": ["bound", "--dim", "3", "--gamma", "0.05"],
    "bound-table": ["bound", "--table"],
    "tau": ["tau", "--gamma", "0.1", "--r", "2.5", "--trials", "300", "--system-size", "12"],
    "explore-penetrable-d3": ["explore", "--dim", "3", "--model", "penetrable", "--p", "0.5",
                              "--gamma", "0.12", "--system-size", "8", "--runs", "5", "--seed", "7"],
    "explore-soft-sphere-d3": ["explore", "--dim", "3", "--model", "soft-sphere", "--hardness", "12",
                               "--gamma", "0.07", "--system-size", "8", "--runs", "5", "--seed", "7"],
    "explore-tabulated-d3": ["explore", "--dim", "3", "--model", "tabulated", "--phi-csv", PHI_TABLE,
                             "--gamma", "0.1", "--system-size", "8", "--runs", "5", "--seed", "7"],
    "tau-penetrable-d3": ["tau", "--dim", "3", "--model", "penetrable", "--gamma", "0.1", "--r", "2.5",
                          "--trials", "300", "--system-size", "8"],
    "explore-d1": ["explore", "--dim", "1", "--gamma", "1.2", "--system-size", "15", "--runs", "5",
                   "--seed", "7"],
    "explore-d5": ["explore", "--dim", "5", "--gamma", "0.01", "--system-size", "12", "--runs", "5",
                   "--seed", "7"],
    "percolate-capped": ["percolate", "--gamma", "0.5", "--system-size", "40", "--runs", "12",
                         "--seed", "6", "--full-runs", "--max-points", "300", "--max-steps", "45"],
    # capped trials of 100+ points between tiny ones, within each kernel call
    "percolate-capped-d3": ["percolate", "--dim", "3", "--gamma", "0.07", "--system-size", "40",
                            "--runs", "40", "--seed", "5", "--full-runs", "--max-points", "200"],
    # every (joined, escaped, capped) combination; excluded_capped > 0
    "tau-capped": ["tau", "--gamma", "0.3", "--r", "6", "--trials", "300", "--system-size", "12",
                   "--max-points", "60"],
    "tau-tabulated": ["tau", "--model", "tabulated", "--phi-csv", PHI_TABLE, "--gamma", "0.1",
                      "--r", "1.5", "--trials", "300", "--system-size", "12"],
    "reproduce": ["reproduce", "--table", "1", "--scale", "desk", "--dims", "2", "--runs", "10",
                  "--refine", "1"],
    # a flag overrides a file value
    "percolate-config": ["percolate", "--config", "tools/gate.conf", "--gamma", "0.3", "--seed", "11"],
    "critical-config": ["critical", "--config=tools/gate.conf"],
    # bound without --gamma: mass and branching bound only
    "bound-soft-sphere": ["bound", "--dim", "3", "--model", "soft-sphere", "--hardness", "12"],
    "bound-tabulated": ["bound", "--model", "tabulated", "--phi-csv", PHI_TABLE],
}
OUTPUT_FILE_CASE = ["critical", "--system-size", "15", "--runs", "40", "--seed", "13",
                    "--output", "csv", "--threads", "2"]


def exit_one_argvs() -> list[list[str]]:
    """The argvs `test_exit_one` is parametrized with, read from the test file."""
    tree = ast.parse(TESTS_CLI.read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "test_exit_one":
            for deco in node.decorator_list:
                if isinstance(deco, ast.Call) and len(deco.args) == 2:
                    return ast.literal_eval(deco.args[1])
    raise SystemExit(f"no parametrized test_exit_one in {TESTS_CLI}")


def cases() -> dict[str, list[str]]:
    out: dict[str, list[str]] = {}
    for name, argv in MATRIX.items():
        for fmt in ("json", "csv"):
            for threads in (1, 2, 3):
                out[f"{name}/{fmt}/t{threads}"] = argv + ["--output", fmt, "--threads", str(threads)]
    out["output-file"] = OUTPUT_FILE_CASE
    for argv in exit_one_argvs():
        out[f"exit-one/{' '.join(argv)}"] = argv
    return out


def run_case(run_cli, argv: list[str], out_file: Path | None) -> dict:
    """One CLI run's exit code, stderr and output."""
    extra = ["--output-file", str(out_file)] if out_file is not None else []
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(argv + extra)
    return {
        "argv": argv,
        "code": code,
        "stderr": err.getvalue(),
        "stdout": out.getvalue(),
        "file": out_file.read_text() if out_file is not None else None,
    }


def capture(src: str, dest: str) -> int:
    sys.path.insert(0, str(Path(src).resolve()))
    dest_path = Path(dest).resolve()
    os.chdir(ROOT)
    from rcmperc.cli import run_cli

    records = {}
    with tempfile.TemporaryDirectory() as tmp:
        for case_id, argv in cases().items():
            out_file = Path(tmp) / "out.txt" if case_id == "output-file" else None
            records[case_id] = run_case(run_cli, argv, out_file)
    dest_path.write_text(json.dumps(records, indent=1) + "\n")
    print(f"{len(records)} cases from {src} -> {dest}")
    return 0


def compare(a_path: str, b_path: str) -> int:
    a = json.loads(Path(a_path).read_text())
    b = json.loads(Path(b_path).read_text())
    differ = []
    for case_id in dict.fromkeys([*a, *b]):
        if case_id not in a or case_id not in b:
            differ.append(f"{case_id}: only in {a_path if case_id in a else b_path}")
        elif a[case_id] != b[case_id]:
            fields = [k for k in a[case_id] if a[case_id][k] != b[case_id].get(k)]
            differ.append(f"{case_id}: {', '.join(fields)}")
    for line in differ:
        print(line)
    print(f"{len(differ)} of {len(set(a) | set(b))} cases differ")
    return 1 if differ else 0


def main(argv: list[str]) -> int:
    commands = {"capture": capture, "compare": compare}
    if len(argv) != 3 or argv[0] not in commands:
        print("usage: output_gate.py capture SRC OUT.json | compare A.json B.json", file=sys.stderr)
        return 2
    return commands[argv[0]](argv[1], argv[2])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
