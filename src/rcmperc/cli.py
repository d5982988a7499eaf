"""Command-line interface.

Subcommands
-----------
explore     Run independent cluster explorations, one record per trial.
percolate   Percolation verdict at a fixed intensity.
critical    Bracket the critical intensity (ramp from the branching
            bound, then midpoint refinement).
bound       Analytic branching bound / subcriticality certificate, or
            the branching columns of the built-in reference tables.
tau         Estimate the two-point connection probability at distance r.
reproduce   Re-run a reference table at desk or full scale.

Flags
-----
Each command takes only the flags its handler reads; any other is an
unrecognized argument:

explore, percolate,       model flags, --dim, --system-size, --seed, caps
tau, critical
bound                     model flags, --dim; with --table, none of
                          them (any is an error)
reproduce                 --seed, caps

beside its own (--gamma, --runs, ...). The model flags are --model
{gilbert,penetrable,soft-sphere,tabulated}, --range, --p, --beta,
--hardness and --phi-csv; the caps are --max-points and --max-steps.
--system-size defaults to the desk window for the dimension, --seed to
1729, never the wall clock. Every command also takes the execution
flags, which choose how it runs and where its output goes, never its
numbers: --threads (default 1), --output json|csv and --output-file
PATH (default stdout). --config FILE loads `key = value` lines named
after the long flags; explicit flags win over the file, the file over
defaults, and a key the command does not take is an error. argparse
finds --config, so it can be abbreviated too.

Exit codes: 0 success, 1 invalid configuration, 2 result unreliable
because some explorations hit a work cap.

Layout
------
Each flag is one `_arg` constant, and each subcommand one row of
`_COMMANDS`: its name, help text, handler and the flags it takes. The
parser is built from that table, with the `_EXECUTION` flags added to
every row and `_CONFIG`, which knows only --config, as each
subcommand's parent. `_apply_config` parses with `_CONFIG` first and
splices the file's flags in after the subcommand. `run_cli` checks
the worker count, then calls the handler. Every command but `bound`
runs its trials as `exploration.run_trials` batches on that many
threads; `explore` is one batch, its rows the batch's records in trial
order. Handlers write nothing: each returns an `_Output` holding
its JSON document, its CSV rows and header, its stderr notes and its
exit code. No document holds a clock value, so output depends only on
the flags that set the numbers. `_emit` is the only code that writes a
result, chooses between JSON and CSV, or opens --output-file;
`_csv_cell` is the one CSV cell format, with floats by round-trip repr.
Invalid input raises ValueError; failed numerics raise RuntimeError or
an ArithmeticError such as an overflow. `run_cli` reports any of them,
an OSError or a MemoryError as one `error:` line, exit code 1.

Examples
--------
  rcmperc explore --model gilbert --dim 2 --range 2 --gamma 0 \
      --system-size 10 --seed 7
  rcmperc critical --model penetrable --p 0.75 --dim 2 --system-size 200 \
      --runs 500 --seed 11 --threads 4
  rcmperc bound --model gilbert --dim 3 --range 2
  rcmperc bound --table
  rcmperc tau --model gilbert --dim 2 --gamma 0.05 --r 1.5 --trials 20000
  rcmperc reproduce --table 1 --scale desk --dims 2,3 --threads 4
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import asdict, dataclass, fields
from typing import Any, Callable, NamedTuple, Sequence

from .bounds import branching_bound, constant_g_certificate
from .connection import MODEL_KINDS, ConnectionModel, TabulatedRadial
from .exploration import (
    DEFAULT_MAX_GENERATED, DEFAULT_MAX_STEPS, ClusterOutcome, SimParams,
    estimate_pair_connectedness, run_trials,
)
from .reference import DESK_RUNS, DESK_SYSTEM_SIZE, REFERENCE_TABLES, SCALES, reproduce_preset
from .sampling import DEFAULT_SEED
from .threshold import DEFAULT_RAMP_FACTOR, DEFAULT_REFINEMENTS, estimate_critical, percolation_verdict

__all__ = ["run_cli", "main"]


class _UsageError(ValueError):
    """Invalid flags, raised by the argparse error hook; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="rcmperc", description="critical intensities of random connection models")
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in _COMMANDS.values():
        p = sub.add_parser(cmd.name, help=cmd.help, parents=[_CONFIG])
        for flags, kwargs in (*cmd.args, *_EXECUTION):
            p.add_argument(*flags, **kwargs)
    return parser


# --- config file -----------------------------------------------------------


_CONFIG = _Parser(add_help=False)
_CONFIG.add_argument("--config", default=None, help="file of `key = value` flag defaults")


def _config_tokens(path: str) -> list[str]:
    """Turn a `key = value` config file into synthetic argv tokens."""
    tokens: list[str] = []
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ValueError(f"cannot read config file: {exc}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" in line:
            key, _, value = line.partition("=")
        else:
            parts = line.split(None, 1)
            key, value = parts[0], (parts[1] if len(parts) > 1 else "true")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ValueError(f"{path}:{lineno}: missing key")
        flag = "--" + key
        if value.lower() in ("true", "yes", "on"):
            tokens.append(flag)
        elif value.lower() in ("false", "no", "off"):
            continue
        else:
            tokens.extend((flag, value))
    return tokens


def _apply_config(argv: list[str]) -> list[str]:
    """Splice config-file tokens in after the subcommand, before user flags."""
    found, rest = _CONFIG.parse_known_args(argv)
    if found.config is None:
        return rest
    if not rest or rest[0] not in _COMMANDS:
        raise ValueError("--config requires a subcommand")
    return [rest[0], *_config_tokens(found.config), *rest[1:]]


# --- shared builders --------------------------------------------------------


def _build_model(args) -> ConnectionModel:
    cls = MODEL_KINDS[args.model]
    if cls is TabulatedRadial:
        if not args.phi_csv:
            raise ValueError("--model tabulated requires --phi-csv")
        return TabulatedRadial.from_csv(args.phi_csv)
    flag_values = {"radius": args.range, "prob": args.p, "hardness": args.hardness, "energy": args.beta}
    return cls(**{f.name: flag_values[f.name] for f in fields(cls)})


def _system_size(args) -> float:
    if args.system_size is not None:
        return args.system_size
    size = DESK_SYSTEM_SIZE.get(args.dim)
    if size is None:
        raise ValueError(
            f"--system-size is required for dimension {args.dim} "
            f"(desk defaults exist only for dimensions {sorted(DESK_SYSTEM_SIZE)})"
        )
    return size


def _build_params(args, gamma: float) -> SimParams:
    return SimParams(
        dim=args.dim,
        gamma=gamma,
        system_size=_system_size(args),
        max_generated_points=args.max_points,
        max_steps=args.max_steps,
    )


def _document(
    args, model: ConnectionModel, params: SimParams, result: dict[str, Any], **config: Any
) -> dict[str, Any]:
    """A simulating command's JSON document: its name, the configuration it ran, its result.

    The configuration echoes what can affect results: the seed, the
    model, the simulation params, then the command's own keys. Execution
    flags (worker count, output format and destination) are left out on
    purpose: they cannot affect results, and documents stay
    byte-identical across them. `bound` simulates nothing, so its
    document, built in `_cmd_bound`, echoes the model alone.
    """
    echo = {
        "seed": args.seed,
        "model": model.to_config(),
        "dim": params.dim,
        "system_size": params.system_size,
        "max_points": params.max_generated_points,
        "max_steps": params.max_steps,
    }
    return {"command": args.command, "config": {**echo, **config}, "result": result}


# --- output -----------------------------------------------------------------


def _csv_cell(v: Any) -> str:
    """One CSV cell: booleans as true/false, floats by repr, None empty."""
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


@dataclass(frozen=True)
class _Output:
    """What a command produced, for `_emit` to write.

    doc is the JSON document, written as JSON lines if it is a list. rows
    are the CSV rows as dicts; header names their columns (default: the
    first row's keys). notes go to stderr first, csv_notes after a CSV
    table, for what the table leaves out.
    """

    doc: Any
    rows: Sequence[dict[str, Any]]
    header: Sequence[str] | None = None
    code: int = 0
    notes: Sequence[str] = ()
    csv_notes: Sequence[str] = ()


def _emit(args, out: _Output) -> int:
    """Write a command's output to stdout or --output-file; return its exit code."""
    for line in out.notes:
        print(line, file=sys.stderr)
    if args.output == "json":
        if isinstance(out.doc, list):
            text = "".join(json.dumps(d) + "\n" for d in out.doc)
        else:
            text = json.dumps(out.doc, indent=2) + "\n"
    else:
        header = out.header or list(out.rows[0])
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_csv_cell(row[k]) for k in header] for row in out.rows)
        text = buf.getvalue()
    if args.output_file:
        with open(args.output_file, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.output == "csv":
        for line in out.csv_notes:
            print(line, file=sys.stderr)
    return out.code


# --- subcommands ------------------------------------------------------------


def _cmd_explore(args) -> _Output:
    model = _build_model(args)
    params = _build_params(args, args.gamma)
    if args.runs < 1:
        raise ValueError(f"--runs must be positive, got {args.runs}")
    outcomes, _ = run_trials(params, model, args.seed, 0, args.runs, args.threads)
    rows = []
    for t, record in enumerate(outcomes):
        outcome = asdict(ClusterOutcome.from_record(record))
        del outcome["extras_in_cluster"]  # explore places no extra points
        rows.append({"trial": t, "seed": args.seed, "gamma": args.gamma, **outcome})
    return _Output(rows, rows, code=2 if any(r["capped"] for r in rows) else 0)


def _cmd_percolate(args) -> _Output:
    model = _build_model(args)
    params = _build_params(args, args.gamma)
    verdict = percolation_verdict(
        params, model, args.gamma, args.runs, args.seed,
        workers=args.threads, full_runs=args.full_runs,
    )
    result = verdict.to_dict()
    doc = _document(args, model, params, result, gamma=args.gamma,
                    runs_requested=args.runs, full_runs=args.full_runs)
    return _Output(doc, [result], code=2 if not verdict.reliable else 0)


def _cmd_critical(args) -> _Output:
    model = _build_model(args)
    params = _build_params(args, 0.0)
    estimate = estimate_critical(
        params, model, args.runs, args.seed,
        ramp_factor=args.ramp, refinements=args.refine,
        workers=args.threads, full_runs=args.full_runs,
    )
    result = estimate.to_dict()
    doc = _document(args, model, params, result, runs=args.runs, ramp_factor=args.ramp,
                    refinements=args.refine, full_runs=args.full_runs)
    return _Output(
        doc,
        result["history"],
        ("step_kind", "gamma", "runs", "escapes", "capped_runs", "percolates"),
        code=2 if not all(v.reliable for v in estimate.history) else 0,
        notes=[f"warning: {w}" for w in estimate.warnings],
        csv_notes=[
            f"bracket: lower={estimate.lower!r} upper={estimate.upper!r} "
            f"midpoint={estimate.midpoint!r}"
        ],
    )


def _cmd_bound(args) -> _Output:
    # bound's model flags and --dim default to None, so that table mode can refuse them
    defaults = {flags[0]: kwargs["default"] for flags, kwargs in (*_MODEL, _DIM)}
    dests = {flag: flag[2:].replace("-", "_") for flag in (*defaults, "--gamma")}
    if args.table is not None:
        given = [flag for flag, dest in dests.items() if getattr(args, dest) is not None]
        if given:
            raise ValueError(f"bound --table takes no {', '.join(given)}")
        numbers = sorted(REFERENCE_TABLES) if args.table == 0 else [args.table]
        if any(n not in REFERENCE_TABLES for n in numbers):
            raise ValueError(f"no reference table {args.table}")
        rows = []
        for n in numbers:
            table = REFERENCE_TABLES[n]
            for row in table.rows:
                rows.append(
                    {
                        "table": n,
                        "label": table.label,
                        "dim": row.dim,
                        "branching_bound": branching_bound(table.model, row.dim),
                        "reference_branching_bound": row.branching_bound,
                    }
                )
        return _Output({"command": "bound", "tables": rows}, rows)

    for flag, default in defaults.items():
        if getattr(args, dests[flag]) is None:
            setattr(args, dests[flag], default)
    model = _build_model(args)
    gamma = 0.0 if args.gamma is None else args.gamma
    result = constant_g_certificate(model, args.dim, gamma).to_dict()
    if args.gamma is None:
        result = {k: result[k] for k in ("model", "dim", "connectivity_mass", "branching_bound")}
    return _Output({"command": "bound", "config": {"model": model.to_config()}, "result": result},
                   [result])


def _cmd_tau(args) -> _Output:
    model = _build_model(args)
    params = _build_params(args, args.gamma)
    estimate = estimate_pair_connectedness(
        params, model, args.r, args.trials, args.seed, workers=args.threads
    )
    notes = []
    if estimate.exclusion_warning:
        notes.append(
            f"warning: {estimate.excluded_escaped + estimate.excluded_capped} of "
            f"{estimate.trials} trials ended before resolving the probe"
        )
    result = estimate.to_dict()
    doc = _document(args, model, params, result, gamma=args.gamma, r=args.r, trials=args.trials)
    return _Output(doc, [result], code=2 if estimate.excluded_capped > 0 else 0, notes=notes)


def _cmd_reproduce(args) -> _Output:
    dims = None
    if args.dims is not None:
        try:
            dims = [int(s) for s in args.dims.split(",")]  # an empty item fails int()
        except ValueError:
            raise ValueError(f"--dims expects comma-separated integers, got {args.dims!r}") from None
    doc = reproduce_preset(
        args.table,
        args.scale,
        master_seed=args.seed,
        workers=args.threads,
        dims=dims,
        runs=args.runs,
        ramp_factor=args.ramp,
        refinements=args.refine,
        max_points=args.max_points,
        max_steps=args.max_steps,
    )
    rows = [
        {
            **r,
            "reference_estimate": r["reference"]["critical_estimate"],
            "reference_branching_bound": r["reference"]["branching_bound"],
            "literature_value": r["reference"]["literature_value"],
        }
        for r in doc["rows"]
    ]
    header = (
        "dim", "system_size", "runs", "lower", "upper", "midpoint", "width",
        "reference_estimate", "reference_branching_bound", "branching_bound",
        "literature_value",
    )
    return _Output(doc, rows, header, code=2 if doc["capped"] else 0)


# --- command table ----------------------------------------------------------


class _Command(NamedTuple):
    name: str
    help: str
    handler: Callable[[argparse.Namespace], _Output]
    args: tuple[tuple[tuple[str, ...], dict[str, Any]], ...]


def _arg(*flags: str, **kwargs: Any) -> tuple[tuple[str, ...], dict[str, Any]]:
    return flags, kwargs


_MODEL = (
    _arg("--model", choices=tuple(MODEL_KINDS), default="gilbert",
         help="connection model (default gilbert)"),
    _arg("--range", type=float, default=2.0, help="connection radius (default 2)"),
    _arg("--p", type=float, default=0.5, help="penetrable connection probability"),
    _arg("--beta", type=float, default=1.0, help="soft-sphere energy scale"),
    _arg("--hardness", type=int, default=6, help="soft-sphere hardness exponent"),
    _arg("--phi-csv", default=None, help="CSV table (r, phi) for --model tabulated"),
)
_DIM = _arg("--dim", type=int, default=2, help="dimension (default 2)")
_SEED = _arg("--seed", type=int, default=DEFAULT_SEED, help=f"master seed (default {DEFAULT_SEED})")
_CAPS = (
    _arg("--max-points", type=int, default=DEFAULT_MAX_GENERATED,
         help="cap on generated points per exploration"),
    _arg("--max-steps", type=int, default=DEFAULT_MAX_STEPS,
         help="cap on processed frontier points per exploration"),
)
# a simulating command's flags: the model, the window, the seed and the caps
_SIM = (
    *_MODEL, _DIM,
    _arg("--system-size", type=float, default=None,
         help="escape radius; defaults to the desk window for the dimension"),
    _SEED, *_CAPS,
)
# how a command runs and where its output goes, never its numbers; every command takes them
_EXECUTION = (
    _arg("--threads", type=int, default=1, help="worker threads (default 1)"),
    _arg("--output", choices=("json", "csv"), default="json", help="output format"),
    _arg("--output-file", default=None, help="write to this path instead of stdout"),
)
_GAMMA = _arg("--gamma", type=float, required=True, help="point process intensity")
_FULL_RUNS = _arg(
    "--full-runs", action="store_true",
    help="run every trial instead of stopping at the first escape",
)
_RAMP = _arg("--ramp", type=float, default=DEFAULT_RAMP_FACTOR,
             help=f"geometric ramp factor (default {DEFAULT_RAMP_FACTOR})")
_REFINE = _arg("--refine", type=int, default=DEFAULT_REFINEMENTS,
               help=f"midpoint refinements (default {DEFAULT_REFINEMENTS})")

_COMMANDS: dict[str, _Command] = {
    c.name: c
    for c in (
        _Command(
            "explore", "independent cluster explorations, one record per trial", _cmd_explore,
            (*_SIM, _GAMMA, _arg("--runs", type=int, default=1, help="number of trials (default 1)")),
        ),
        _Command(
            "percolate", "percolation verdict at one intensity", _cmd_percolate,
            (
                *_SIM,
                _GAMMA,
                _arg("--runs", type=int, default=DESK_RUNS, help=f"trials (default {DESK_RUNS})"),
                _FULL_RUNS,
            ),
        ),
        _Command(
            "critical", "bracket the critical intensity", _cmd_critical,
            (
                *_SIM,
                _arg("--runs", type=int, default=DESK_RUNS,
                     help=f"trials per verdict (default {DESK_RUNS})"),
                _RAMP,
                _REFINE,
                _FULL_RUNS,
            ),
        ),
        _Command(
            "bound", "branching bound, certificate, or reference columns", _cmd_bound,
            (
                *((flags, {**kwargs, "default": None}) for flags, kwargs in (*_MODEL, _DIM)),
                _arg("--gamma", type=float, default=None,
                     help="also emit the certificate at this intensity"),
                _arg("--table", type=int, nargs="?", const=0, default=None, metavar="N",
                     help="print reference branching columns (table N, or all tables with no value)"),
            ),
        ),
        _Command(
            "tau", "two-point connection probability at distance r", _cmd_tau,
            (
                *_SIM,
                _GAMMA,
                _arg("--r", type=float, required=True, help="probe distance from the origin"),
                _arg("--trials", type=int, default=10_000, help="trials (default 10000)"),
            ),
        ),
        _Command(
            "reproduce", "re-run a reference table", _cmd_reproduce,
            (
                _arg("--table", type=int, required=True, choices=sorted(REFERENCE_TABLES),
                     help="reference table number"),
                _arg("--scale", choices=SCALES, required=True,
                     help="desk (small windows, 500 runs) or paper (full scale)"),
                _arg("--dims", default=None,
                     help="comma-separated dimensions to run (default: all rows)"),
                _arg("--runs", type=int, default=None, help="override trials per verdict"),
                _RAMP,
                _REFINE,
                _SEED,
                *_CAPS,
            ),
        ),
    )
}


# --- entry points -----------------------------------------------------------


def run_cli(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = _build_parser().parse_args(_apply_config(argv))
        if args.threads < 1:
            raise ValueError(f"--threads must be positive, got {args.threads}")
        return _emit(args, _COMMANDS[args.command].handler(args))
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except (ValueError, RuntimeError, OSError, ArithmeticError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
