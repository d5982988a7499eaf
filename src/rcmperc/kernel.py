"""The compiled exploration kernel: built once per source, loaded from a cache.

`kernel.c` holds the exploration loop, ball placement with thinning and
phi for the four connection models. `kernel.h` declares its interface
once: the point states, model kinds and status codes, the records and
the `rcm_*` entry points. kernel.c includes it, and `CDEF` below ends
with its text, so cffi and the compiler read the same declarations.
Importing this module loads the compiled extension from this package's
`__pycache__/`, under a name keyed by a hash of the C source, `CDEF`
(and with it kernel.h), the compiler flags, the numpy version and the
interpreter's extension suffix, which carries its ABI tag. On a miss a
child interpreter builds the extension with cffi and the C compiler
(`CC`, else the compiler Python was built with) in a temporary directory
and moves it into place, so an interrupted or concurrent build leaves no
partial file; the earlier builds with the same suffix are then removed.
A hit removes nothing and needs neither cffi's C parser nor a compiler.
A failed build raises one ImportError naming the compiler and C file.

The kernel draws through a numpy `bitgen_t` with the functions of
numpy's `distributions.h`, linked in from `libnpyrandom.a`, so it
consumes a stream exactly as numpy's Generator methods do: a
Generator's own, or in a batch a trial's PCG64 that the kernel seeds
itself (`rcm_stream_seed`). Calls into `lib` release the interpreter lock.
"""

from __future__ import annotations

import ctypes
import hashlib
import importlib.machinery
import importlib.util
import os
import sys
import sysconfig
from pathlib import Path

import numpy as np

__all__ = ["SOURCE", "OUTCOME", "ffi", "lib", "bitgen", "model_struct"]

_HERE = Path(__file__).resolve().parent
SOURCE = _HERE / "kernel.c"

# What cffi reads beside kernel.h: numpy's bit generator, the draws tests
# drive a kernel stream with, and the stream (a PCG64 in kernel.c) and its
# seeding, which use types only kernel.c and numpy's headers define.
CDEF = """
typedef struct bitgen {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;
void random_standard_normal_fill(bitgen_t *bitgen_state, intptr_t cnt, double *out);
int64_t random_poisson(bitgen_t *bitgen_state, double lam);

typedef struct { ...; } rcm_stream;
bitgen_t *rcm_stream_seed(rcm_stream *s, const uint32_t *entropy, int64_t n_words);
""" + (_HERE / "kernel.h").read_text()

# No contraction into fused multiply-adds and no fast math: the kernel
# must round as the Python statement of the rules does.
_FLAGS = ("-O2", "-ffp-contract=off", "-fno-fast-math")


# The build runs in a child interpreter, so that cffi's C parser, the
# build tools and their memory never enter this process. argv[1] holds
# the build's arguments as JSON.
_BUILD_SCRIPT = """
import json, os, sys, tempfile
import cffi
a = json.loads(sys.argv[1])
builder = cffi.FFI()
builder.cdef(a["cdef"])
builder.set_source(a["name"], a["source"], include_dirs=a["include_dirs"],
                   extra_objects=a["extra_objects"], libraries=["m", "pthread"],
                   extra_compile_args=a["flags"])
with tempfile.TemporaryDirectory(dir=os.path.dirname(a["path"]), prefix=a["name"]) as tmp:
    os.replace(builder.compile(tmpdir=tmp), a["path"])
"""


def _build(name: str, path: Path) -> None:
    """Compile kernel.c into the extension module `name` at `path`."""
    import json
    import subprocess

    compiler = os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
    args = {
        "name": name,
        "path": str(path),
        "cdef": CDEF,
        "source": f'#include "{SOURCE.name}"',
        "include_dirs": [str(_HERE), np.get_include()],
        "extra_objects": [str(Path(np.random.__file__).parent / "lib" / "libnpyrandom.a")],
        "flags": list(_FLAGS),
    }
    try:
        path.parent.mkdir(exist_ok=True)
        # run beside the cache, where no stray setup.cfg feeds the build
        done = subprocess.run([sys.executable, "-c", _BUILD_SCRIPT, json.dumps(args)],
                              cwd=path.parent, capture_output=True, text=True)
    except OSError as exc:
        detail = str(exc)
    else:
        if done.returncode == 0:
            return
        lines = done.stderr.strip().splitlines()
        detail = lines[-1] if lines else f"exit code {done.returncode}"
    raise ImportError(
        f"cannot build the rcmperc kernel from {SOURCE} with the C compiler {compiler!r}: {detail}"
    )


def _load():
    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    key = hashlib.sha256(
        b"\0".join(
            part if isinstance(part, bytes) else part.encode()
            for part in (SOURCE.read_bytes(), CDEF, " ".join(_FLAGS), np.__version__, suffix)
        )
    ).hexdigest()[:16]
    name = f"_rcmperc_kernel_{key}"
    path = _HERE / "__pycache__" / f"{name}{suffix}"
    if not path.exists():
        _build(name, path)
        for old in set(path.parent.glob(f"_rcmperc_kernel_*{suffix}")) - {path}:
            old.unlink(missing_ok=True)
    loader = importlib.machinery.ExtensionFileLoader(name, str(path))
    module = importlib.util.module_from_spec(importlib.util.spec_from_loader(name, loader))
    loader.exec_module(module)
    return module.ffi, module.lib


ffi, lib = _load()

# kernel.h's rcm_outcome as a numpy record: its field names, types and
# offsets, and its size, as the compiler laid it out.
_NUMPY_TYPES = {"_Bool": np.bool_, "int64_t": np.int64, "double": np.float64}
_OUTCOME_FIELDS = ffi.typeof("rcm_outcome").fields
OUTCOME = np.dtype({
    "names": [name for name, _ in _OUTCOME_FIELDS],
    "formats": [_NUMPY_TYPES[f.type.cname] for _, f in _OUTCOME_FIELDS],
    "offsets": [f.offset for _, f in _OUTCOME_FIELDS],
    "itemsize": ffi.sizeof("rcm_outcome"),
})

# PyCapsule_GetPointer with a prototype of its own, leaving the shared
# ctypes.pythonapi entry as other code set it.
_capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi)
)


def bitgen(rng: np.random.Generator):
    """The `bitgen_t *` behind a Generator; valid while the Generator lives.

    Read from the bit generator's capsule. numpy caches the `.cffi` and
    `.ctypes` interfaces per bit generator but builds them on first
    access, and each `explore_cluster` call brings a fresh Generator. A
    first `.cffi` access builds a cffi interface, which costs far more
    than a whole small exploration; a first `.ctypes` access costs
    several times the capsule read.
    """
    return ffi.cast("bitgen_t *", _capsule_pointer(rng.bit_generator.capsule, b"BitGenerator"))


# Model kinds as kernel.h numbers them.
_KINDS = {"gilbert": lib.RCM_GILBERT, "penetrable": lib.RCM_PENETRABLE,
          "soft-sphere": lib.RCM_SOFT_SPHERE, "tabulated": lib.RCM_TABULATED}


def model_struct(model):
    """The kernel's `rcm_model` for a connection model, owned by the returned object.

    Each field takes the model's attribute of the same name; the kind
    is numbered as kernel.h numbers it, and a tabulated model's radii
    and values fill the knots.
    """
    fields = {name: getattr(model, name)
              for name, _ in ffi.typeof("rcm_model").fields if hasattr(model, name)}
    knots = model.radii + model.values if model.kind == "tabulated" else ()
    return ffi.new("rcm_model *", {**fields, "kind": _KINDS[model.kind],
                                   "n_knots": len(knots) // 2, "knots": knots})
