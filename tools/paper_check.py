"""Paper-scale check: re-run every reference table at paper scale and record it.

    python3 tools/paper_check.py [--src SRC] [--threads N] [--tables 1,2,3,4,5] OUT.json

Imports `rcmperc` from the `src/` directory SRC (default: this checkout's
`src/`), runs `reproduce_preset(t, "paper")` for each table at the
default seed, and writes one JSON file: per table its wall time and its
rows, and per row the check. A row passes when the stored
`critical_estimate` lies in the recomputed bracket [lower, upper],
within 1e-4 relative; the check also names the endpoint it equals
within that tolerance ("lower", "upper" or "neither"). It only reads
the stored values, never edits them. The last stdout line is a summary;
the exit code is 0 when every row passes, 1 otherwise. Paper scale runs
for minutes, so the check stays out of the test suite.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
REL_TOL = 1e-4


def check_row(row: dict) -> dict:
    """Whether the row's stored estimate lies in its bracket, and which end it equals."""
    est, lower, upper = row["reference"]["critical_estimate"], row["lower"], row["upper"]
    tol = REL_TOL * abs(est)
    ends = [name for name, end in (("lower", lower), ("upper", upper)) if abs(est - end) <= tol]
    return {
        "dim": row["dim"],
        "critical_estimate": est,
        "lower": lower,
        "upper": upper,
        "in_bracket": lower - tol <= est <= upper + tol,
        "equals": ends[0] if ends else "neither",
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", help="JSON file to write")
    ap.add_argument("--src", default=str(ROOT / "src"), help="directory that holds rcmperc")
    ap.add_argument("--threads", type=int, default=2, help="worker threads (default 2)")
    ap.add_argument("--tables", default="1,2,3,4,5", help="comma-separated table numbers")
    args = ap.parse_args(argv)
    sys.path.insert(0, args.src)
    import numpy
    from rcmperc import reproduce_preset

    tables = []
    for number in (int(s) for s in args.tables.split(",")):
        t0 = time.perf_counter()
        doc = reproduce_preset(number, "paper", workers=args.threads)
        wall = time.perf_counter() - t0
        checks = [check_row(row) for row in doc["rows"]]
        tables.append({"table": number, "wall_s": wall, "checks": checks, "document": doc})
        outside = [c["dim"] for c in checks if not c["in_bracket"]]
        print(f"table {number}: {wall:.1f} s, dims outside their bracket: {outside}",
              file=sys.stderr)
    checks = [c for t in tables for c in t["checks"]]
    summary = {
        "rows": len(checks),
        "in_bracket": sum(c["in_bracket"] for c in checks),
        "equals_lower": sum(c["equals"] == "lower" for c in checks),
        "equals_upper": sum(c["equals"] == "upper" for c in checks),
        "wall_s": [round(t["wall_s"], 1) for t in tables],
    }
    Path(args.out).write_text(json.dumps({
        "src": str(Path(args.src).resolve()),
        "threads": args.threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "summary": summary,
        "tables": tables,
    }, indent=2) + "\n")
    print(json.dumps(summary))
    return 0 if summary["in_bracket"] == summary["rows"] else 1


if __name__ == "__main__":
    sys.exit(main())
