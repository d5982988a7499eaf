"""The compiled kernel: its phi against the Python models, and its build cache."""

from __future__ import annotations

import math
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rcmperc
from rcmperc import Gilbert, PenetrableSphere, SoftSphere, TabulatedRadial
from rcmperc.kernel import SOURCE, lib, model_struct

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(rcmperc.__file__).resolve().parent

MODELS = {
    "gilbert": Gilbert(2.0),
    "penetrable": PenetrableSphere(2.0, 0.6),
    "soft-sphere": SoftSphere(2.0, 6),
    # (2 / r)^12 overflows for r below about 4e-26
    "soft-sphere-overflow": SoftSphere(2.0, 12, 3.0),
    "tabulated": TabulatedRadial.from_csv(str(ROOT / "tools" / "gate_phi.csv")),
}


def _probe_radii(model) -> list[float]:
    knots = getattr(model, "radii", ())
    rs = [0.0, 5e-324, 1e-300, 1e-27, 1e-25]
    for k in knots:
        rs += [math.nextafter(k, -math.inf), k, math.nextafter(k, math.inf)]
    rs += [model.radius, math.nextafter(model.radius, math.inf)]
    rs += np.random.default_rng(2024).uniform(0.0, 1.1 * model.radius, 10_000).tolist()
    return rs


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


@pytest.mark.parametrize("name", list(MODELS))
def test_phi_matches_phi_at_bit_for_bit(name):
    model = MODELS[name]
    m = model_struct(model)
    for r in _probe_radii(model):
        assert _bits(lib.rcm_phi(m, r)) == _bits(model.phi_at(r)), (name, r)


def _import_in_fresh_interpreter(path: Path, env: dict[str, str]) -> subprocess.CompletedProcess:
    code = (
        "import sys, rcmperc\n"
        "print(sorted(m for m in ('cffi', 'pycparser', 'setuptools', 'distutils')"
        " if m in sys.modules))\n"
    )
    return subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(path), **env},
        capture_output=True, text=True, timeout=300,
    )


def test_cache_hit_needs_no_parser_or_compiler():
    # this process built or loaded the kernel, so a fresh import hits the
    # cache: it loads the extension with no C parser and no compiler
    done = _import_in_fresh_interpreter(PACKAGE.parent, {"CC": "/nonexistent/cc"})
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_missing_compiler_fails_with_one_import_error(tmp_path):
    shutil.copytree(PACKAGE, tmp_path / "rcmperc", ignore=shutil.ignore_patterns("__pycache__"))
    missing = str(tmp_path / "no-such-cc")
    done = _import_in_fresh_interpreter(tmp_path, {"CC": missing})
    assert done.returncode != 0
    last = done.stderr.strip().splitlines()[-1]
    assert last.startswith("ImportError: cannot build the rcmperc kernel")
    assert missing in last and str(tmp_path / "rcmperc" / SOURCE.name) in last
    assert not list((tmp_path / "rcmperc" / "__pycache__").glob("_rcmperc_kernel_*"))
