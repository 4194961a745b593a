"""Compiled replay kernels, built with the system C compiler on first use.

A kernel is one C source next to this module (``<name>.c`` defining the
function ``<name>``).  The first :func:`kernel` call in a process compiles
it with ``cc -O2 -shared -fPIC`` into
``${XDG_CACHE_HOME:-~/.cache}/repro/native/<digest>.so``, where the digest
is SHA-256 over the source, the compiler command and
``platform.machine()``; later calls, and later processes, load the cached
library without invoking the compiler.  The build writes a temporary file
and ``os.replace``-s it into place, so pool workers building at the same
moment all end up with a valid library.

A kernel that cannot be built or loaded (no compiler, a compile error, an
unwritable cache directory) is reported once per process as a
``RuntimeWarning`` naming the cause, and :func:`kernel` returns ``None``;
callers then fall back to their scalar reference.  Loaded libraries live
in this module, never on predictor objects, so predictors stay picklable
and fingerprintable.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
import warnings
from pathlib import Path

__all__ = ["COMPILE_COMMAND", "library_path", "kernel", "unavailable_reason"]

COMPILE_COMMAND = ("cc", "-O2", "-shared", "-fPIC")

_SOURCE_DIR = Path(__file__).parent
"""Where kernel sources live (package data next to this module)."""

_LOADED: dict[str, object] = {}
"""Kernel name -> its ctypes function, or the ``str`` cause it is
unavailable (memoized, so each process builds, loads or warns once)."""


class _Unavailable(Exception):
    """A kernel cannot be built or loaded; the message is the cause."""


def library_path(name: str) -> Path:
    """The cached library path for kernel ``name`` under the current
    source, compiler command and machine."""
    hasher = hashlib.sha256((_SOURCE_DIR / f"{name}.c").read_bytes())
    hasher.update(" ".join(COMPILE_COMMAND).encode())
    hasher.update(platform.machine().encode())
    base = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(base) / "repro" / "native" / f"{hasher.hexdigest()}.so"


def _build(name: str) -> Path:
    target = library_path(name)
    if target.exists():
        return target
    compiler = shutil.which(COMPILE_COMMAND[0])
    if compiler is None:
        raise _Unavailable(f"{COMPILE_COMMAND[0]} not found")
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        handle, temporary = tempfile.mkstemp(suffix=".so", dir=target.parent)
        os.close(handle)
    except OSError as error:
        raise _Unavailable(f"cannot write {target.parent}: {error}") from None
    try:
        done = subprocess.run(
            [compiler, *COMPILE_COMMAND[1:], "-o", temporary,
             str(_SOURCE_DIR / f"{name}.c")],
            capture_output=True, text=True)
        if done.returncode:
            lines = done.stderr.splitlines() or ["no output"]
            detail = next((line for line in lines if "error" in line),
                          lines[0])
            raise _Unavailable(f"{COMPILE_COMMAND[0]} failed on {name}.c: "
                               f"{detail.strip()}")
        os.replace(temporary, target)
    except OSError as error:
        raise _Unavailable(f"cannot build {name}.c: {error}") from None
    finally:
        if os.path.exists(temporary):
            os.unlink(temporary)
    return target


def _load(name: str, argtypes: tuple) -> object:
    try:
        library = ctypes.CDLL(str(_build(name)))
    except _Unavailable as error:
        return str(error)
    except OSError as error:
        return f"cannot load {name}: {error}"
    function = getattr(library, name)
    function.argtypes = argtypes
    function.restype = None
    return function


def kernel(name: str, argtypes: tuple):
    """The C function ``name`` from ``<name>.c`` with ``argtypes`` set,
    building it on first use; ``None`` when it cannot be built or loaded
    (see :func:`unavailable_reason`)."""
    entry = _LOADED.get(name)
    if entry is None:
        entry = _LOADED[name] = _load(name, argtypes)
        if isinstance(entry, str):
            warnings.warn(f"native {name} kernel unavailable ({entry}); "
                          f"batched runs fall back to the scalar engine",
                          RuntimeWarning, stacklevel=3)
    return None if isinstance(entry, str) else entry


def unavailable_reason(name: str) -> str | None:
    """Why :func:`kernel` returned ``None`` for ``name``, or ``None``."""
    entry = _LOADED.get(name)
    return entry if isinstance(entry, str) else None
