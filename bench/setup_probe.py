"""Print one workload's set-up time, measured in this fresh interpreter.

    python3 bench/setup_probe.py WORKLOAD [--tiny]

Set-up is importing rcmperc from the checkout's src/ and constructing the
workload (model, params, and the branching bound or CLI parse where the
workload needs them). Interpreter start-up itself is not counted.
"""

import sys
import time

t0 = time.perf_counter()

from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import workloads  # noqa: E402

workloads.make(sys.argv[1], BENCH_DIR.parent / ".bench_out", "--tiny" in sys.argv[2:])
print(time.perf_counter() - t0)
