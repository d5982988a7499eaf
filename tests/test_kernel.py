"""The compiled kernel: its phi against the Python models, its trial streams
against numpy's, and its build cache."""

from __future__ import annotations

import ast
import importlib.machinery
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
from rcmperc import (
    Gilbert, PenetrableSphere, SimParams, SoftSphere, TabulatedRadial, derive_seed,
    explore_cluster, trial_stream,
)
from rcmperc import exploration
from rcmperc.exploration import run_trials
from rcmperc.kernel import OUTCOME, SOURCE, ffi, lib, model_struct
from rcmperc.sampling import trial_entropy

from support import as_outcomes

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


def test_outcome_dtype_matches_the_c_record():
    assert OUTCOME.itemsize == ffi.sizeof("rcm_outcome")
    assert OUTCOME["escaped"] == OUTCOME["capped"] == np.dtype(bool)


# numpy's reference vectors for SeedSequence and PCG64, shipped with numpy
NUMPY_TESTS = Path(np.random.__file__).resolve().parent / "tests"
SEED_SEQUENCE_TESTS = NUMPY_TESTS / "test_seed_sequence.py"
PCG64_TESTSET = NUMPY_TESTS / "data" / "pcg64-testset-1.csv"

MASK32 = 0xFFFFFFFF


def _words(*values: int) -> list[int]:
    """Python ints as SeedSequence coerces them: 32-bit words, low first, 0 as one word."""
    out = []
    for v in values:
        out += [(v >> (32 * i)) & MASK32 for i in range(max(1, -(-v.bit_length() // 32)))]
    return out


def _kernel_stream(words: list[int]):
    """A kernel-seeded PCG64 for the entropy words, as (owner, bitgen_t *)."""
    owner = ffi.new("rcm_stream *")
    return owner, lib.rcm_stream_seed(owner, words, len(words))


def _numpy_reference(path: Path) -> str:
    assert path.is_file(), f"numpy's reference file is missing: {path}"
    return path.read_text()


def _assigned_lists(path: Path, function: str) -> dict[str, list]:
    """The list literals assigned by name in one function of a test file."""
    for node in ast.walk(ast.parse(_numpy_reference(path))):
        if isinstance(node, ast.FunctionDef) and node.name == function:
            return {
                stmt.targets[0].id: ast.literal_eval(stmt.value)
                for stmt in node.body
                if isinstance(stmt, ast.Assign) and isinstance(stmt.targets[0], ast.Name)
                and isinstance(stmt.value, ast.List)
            }
    raise AssertionError(f"no function {function} in {path}")


class TestTrialStreams:
    def test_seed_sequence_reference_vectors(self):
        data = _assigned_lists(SEED_SEQUENCE_TESTS, "test_reference_data")
        cases = list(zip(data["inputs"], data["outputs"], data["outputs64"]))
        assert len(cases) == 10
        state = ffi.new("uint64_t[4]")
        for entropy, expected, expected64 in cases:
            lib.rcm_seed_sequence(entropy, len(entropy), state)
            assert list(state[0 : len(expected64)]) == expected64
            halves = [w >> s & MASK32 for w in state for s in (0, 32)]
            assert halves[: len(expected)] == expected

    def test_seed_sequence_matches_numpy_at_every_length(self):
        # numpy's reference inputs are all four words long; a shorter one
        # leaves part of the cross-mix to the finish, a longer one mixes
        # its later words in after it
        state = ffi.new("uint64_t[4]")
        words = np.random.default_rng(5).integers(0, 2**32, 9).tolist()
        for n in range(10):
            lib.rcm_seed_sequence(words[:n], n, state)
            expected = np.random.SeedSequence(words[:n]).generate_state(4, np.uint64)
            assert list(state) == expected.tolist(), n

    def test_pcg64_reference_draws(self):
        rows = [line.split(",") for line in _numpy_reference(PCG64_TESTSET).splitlines()]
        assert rows[0][0] == "seed" and len(rows) == 1001
        seed = int(rows[0][1], 16)
        _owner, bg = _kernel_stream(_words(seed))
        for i, (index, value) in enumerate(rows[1:]):
            assert int(index) == i
            assert bg.next_uint64(bg.state) == int(value, 16), i

    @pytest.mark.parametrize(
        "seed",
        [0, 2**32 - 1, 2**32, 2**64 - 1, 2**64 + 5, derive_seed(1729, 1, 2), derive_seed(7, 40)],
    )
    def test_trial_streams_match_numpy(self, seed):
        # trial_entropy plus the words of t seed the kernel's stream; every
        # kind of draw the kernel makes then matches trial_stream's Generator,
        # and 32-bit draws follow numpy's rule of a buffered upper half
        for key in (0, 3, 2**32, 2**32 + 3):
            for t in (0, 1, 2**32 - 1, 2**32, 2**40 + 7):
                rng = trial_stream(seed, key, t)
                ref = rng.bit_generator.ctypes
                _owner, bg = _kernel_stream(trial_entropy(seed, key) + _words(t))
                for kind in (64, 32, 32, 32, 64, 32, 64, 64, 32, 32):
                    if kind == 64:
                        assert bg.next_uint64(bg.state) == ref.next_uint64(ref.state)
                    else:
                        assert bg.next_uint32(bg.state) == ref.next_uint32(ref.state)
                normals = ffi.new("double[]", 9)
                lib.random_standard_normal_fill(bg, 9, normals)
                assert list(normals) == rng.standard_normal(9).tolist()
                assert bg.next_double(bg.state) == rng.random()
                assert lib.random_poisson(bg, 3.5) == rng.poisson(3.5)
                assert lib.random_poisson(bg, 40.0) == rng.poisson(40.0)
                assert bg.next_raw(bg.state) == rng.bit_generator.random_raw()

    def test_batches_match_trial_streams(self):
        params = SimParams(dim=2, gamma=0.3, system_size=25.0)
        model = Gilbert(2.0)
        for seed in (0, 2**32 - 1, 2**32, 2**64 - 1, 2**64 + 5, derive_seed(1729, 1, 2)):
            for key in (0, 2**32 + 3):
                serial = [explore_cluster(params, model, trial_stream(seed, key, t))
                          for t in range(20)]
                batch = run_trials(params, model, seed, key, 20)
                assert as_outcomes(batch) == serial

    @pytest.mark.parametrize(
        "seed, key, n_words",
        [(5, 3, 3), (2**40 + 3, 3, 4), (5, 2**32 + 1, 4), (2**40 + 3, 2**33 + 7, 5)],
    )
    def test_batch_streams_across_two_word_trials(self, seed, key, n_words):
        # a batch absorbs its constant words once and finishes each trial's
        # seed with the words of t, one below 2^32 and two from there on;
        # the kernel's counter is preset so that it runs trials 2^32 - 2 to
        # 2^32 + 1, whose records land in a four-row array
        params = SimParams(dim=2, gamma=0.3, system_size=25.0)
        model = Gilbert(2.0)
        entropy = trial_entropy(seed, key)
        assert len(entropy) == n_words
        first = 2**32 - 2
        outcomes, joined = exploration._batch_arrays(4, 0)
        outs = ffi.cast("rcm_outcome *", (outcomes.ctypes.data - first * OUTCOME.itemsize) % 2**64)
        m, c_params = exploration._kernel_args(params, model)
        next_trial = ffi.new("int64_t *", first)
        assert lib.rcm_run_trials(entropy, n_words, first + 4, next_trial, ffi.NULL, m, c_params,
                                  outs, ffi.from_buffer("uint8_t[]", joined)) == 4
        serial = [explore_cluster(params, model, trial_stream(seed, key, t))
                  for t in range(first, first + 4)]
        assert as_outcomes((outcomes, joined)) == serial
        assert len({o.generated_points for o in serial}) > 1


def _run_in_fresh_interpreter(
    code: str, path: Path, env: dict[str, str]
) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(path), **env},
        capture_output=True, text=True, timeout=300,
    )


def _import_in_fresh_interpreter(path: Path, env: dict[str, str]) -> subprocess.CompletedProcess:
    code = (
        "import sys, rcmperc\n"
        "print(sorted(m for m in ('cffi', 'pycparser', 'setuptools', 'distutils')"
        " if m in sys.modules))\n"
    )
    return _run_in_fresh_interpreter(code, path, env)


def test_cache_hit_needs_no_parser_or_compiler():
    # this process built or loaded the kernel, so a fresh import hits the
    # cache: it loads the extension with no C parser and no compiler
    done = _import_in_fresh_interpreter(PACKAGE.parent, {"CC": "/nonexistent/cc"})
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def _scipy_modules_after(argv: list[str]) -> tuple[str, list[str]]:
    """Exit code of `run_cli(argv)` in a fresh interpreter, and the scipy modules it loaded."""
    code = (
        "import contextlib, io, sys, rcmperc\n"
        "from rcmperc.cli import run_cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = run_cli({argv!r})\n"
        "print(code, *sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    done = _run_in_fresh_interpreter(code, PACKAGE.parent, {})
    assert done.returncode == 0, done.stderr
    code, *modules = done.stdout.split()
    return code, modules


def test_gilbert_critical_needs_no_scipy():
    argv = ["critical", "--system-size", "15", "--runs", "40", "--seed", "13"]
    assert _scipy_modules_after(argv) == ("0", [])


def test_masses_need_no_quadrature():
    # a table's mass loads no scipy; a soft sphere's reads scipy.special only
    table = str(ROOT / "tools" / "gate_phi.csv")
    assert _scipy_modules_after(["bound", "--model", "tabulated", "--phi-csv", table]) == ("0", [])
    code, modules = _scipy_modules_after(["bound", "--model", "soft-sphere"])
    assert code == "0" and "scipy.special" in modules
    assert not [m for m in modules if m.startswith("scipy.integrate")]


def test_missing_compiler_fails_with_one_import_error(tmp_path):
    shutil.copytree(PACKAGE, tmp_path / "rcmperc", ignore=shutil.ignore_patterns("__pycache__"))
    missing = str(tmp_path / "no-such-cc")
    done = _import_in_fresh_interpreter(tmp_path, {"CC": missing})
    assert done.returncode != 0
    last = done.stderr.strip().splitlines()[-1]
    assert last.startswith("ImportError: cannot build the rcmperc kernel")
    assert missing in last and str(tmp_path / "rcmperc" / SOURCE.name) in last
    assert not list((tmp_path / "rcmperc" / "__pycache__").glob("_rcmperc_kernel_*"))


def test_header_edit_rebuilds_the_kernel(tmp_path):
    # the cache key covers kernel.h: a copy that carries the built kernel
    # loads it with no compiler, and after an edit to kernel.h must build
    shutil.copytree(PACKAGE, tmp_path / "rcmperc")
    missing = {"CC": "/nonexistent/cc"}
    done = _import_in_fresh_interpreter(tmp_path, missing)
    assert done.returncode == 0, done.stderr
    with open(tmp_path / "rcmperc" / "kernel.h", "a") as header:
        header.write("/* edited */\n")
    done = _import_in_fresh_interpreter(tmp_path, missing)
    assert done.returncode != 0
    last = done.stderr.strip().splitlines()[-1]
    assert last.startswith("ImportError: cannot build the rcmperc kernel")


def test_a_build_removes_the_earlier_builds_for_its_interpreter(tmp_path):
    # a new build replaces the stale builds with its extension suffix and
    # keeps other interpreters' builds; a cache hit removes nothing
    shutil.copytree(PACKAGE, tmp_path / "rcmperc", ignore=shutil.ignore_patterns("__pycache__"))
    cache = tmp_path / "rcmperc" / "__pycache__"
    cache.mkdir()
    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    stale = cache / f"_rcmperc_kernel_0123456789abcdef{suffix}"
    other = cache / "_rcmperc_kernel_0123456789abcdef.abi3.so"
    assert not other.name.endswith(suffix)
    stale.touch()
    other.touch()
    done = _import_in_fresh_interpreter(tmp_path, {})
    assert done.returncode == 0, done.stderr
    assert not stale.exists() and other.exists()
    assert len(list(cache.glob(f"_rcmperc_kernel_*{suffix}"))) == 1
    stale.touch()
    done = _import_in_fresh_interpreter(tmp_path, {"CC": "/nonexistent/cc"})
    assert done.returncode == 0, done.stderr
    assert stale.exists() and other.exists()
