"""Disk cache for generator expansions, keyed by (name, ring, precision).

A file of format 3, `{name}__{tag}__N{prec}.v3.npy`, is the header line
`{"format":3,"name":...,"prec":N,"ring":tag,"weight":k}` (sorted-key JSON and
a newline), then np.save(..., allow_pickle=False) of the form's coefficient
vector (see siegelcong.siegel), of length box_index(N).size: over F_p with
int64 vectors (p < 2^21) the residues as np.min_scalar_type(p - 1), uint8 for
p < 256; over the object rings (Z, F_p with p >= 2^21) an `S` array of the
coefficients' decimal strings ("-7", "240").  It is not compressed: for chi12 at
box 90 over F_23 the gzip-6 JSON of format 2 took 171 ms to store and 139 ms
to load, this format 0.9 ms and 0.5 ms, for 335 KB instead of 249 KB (2-vCPU
host); at box 30 a format-2 load cost about half a build.

The format is part of the file name, so files of another format are misses.
Two cold runs write byte-identical files.  A write goes to a new temporary
file, created with mode 0o666 so that the process umask applies as for a
plain open(), and an atomic rename.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from .errors import CacheIOError
from .siegel import SiegelFormSeries, box_index

ENV_VAR = "CONGRUENCE_CACHE_DIR"
_FORMAT = 3


def default_cache_dir():
    return Path(os.environ.get(ENV_VAR, ".cache"))


def _header(name, ring, prec, weight):
    head = {"format": _FORMAT, "name": name, "prec": prec, "ring": ring.tag, "weight": weight}
    return json.dumps(head, sort_keys=True, separators=(",", ":")).encode("ascii") + b"\n"


def _payload(ring, coeffs):
    if ring.dtype == object:
        return np.array(list(map(str, coeffs.tolist())), dtype="S")
    return coeffs.astype(np.min_scalar_type(ring.p - 1))


def _read_coeffs(fh, ring, size):
    """The coefficient vector of the payload at fh; ValueError unless
    _payload wrote it.  The npy header must give `size` entries of the kind
    _payload writes, checked before any data is read, so that neither a
    pickled array nor a garbled shape is loaded; every residue must be below
    p, and every token the canonical decimal of an element of the ring."""
    if np.lib.format.read_magic(fh) != (1, 0):
        raise ValueError("not an npy 1.0 array")
    shape, _, dtype = np.lib.format.read_array_header_1_0(fh)
    if shape != (size,) or dtype.kind != ("S" if ring.dtype == object else "u"):
        raise ValueError(f"a {dtype} array of shape {shape}, not {size} coefficients")
    arr = np.fromfile(fh, dtype, size)
    if arr.size != size or fh.read(1):
        raise ValueError(f"not {size} coefficients and the end of the file")
    if ring.dtype != object:
        if int(arr.max()) >= ring.p:
            raise ValueError("a residue >= p")
        return arr.astype(np.int64)
    strs = arr.astype("U").tolist()                  # UnicodeDecodeError past ASCII
    vals = np.array(list(map(int, strs)), dtype=object)
    if list(map(str, vals.tolist())) != strs or np.any(ring.canonical(vals) != vals):
        raise ValueError("a token the writer does not write")
    return vals


class DiskCache:
    def __init__(self, root=None):
        self.root = Path(root) if root is not None else default_cache_dir()

    def _path(self, name, ring, prec):
        tag = ring.tag.replace(":", "_")
        return self.root / f"{name}__{tag}__N{prec}.v{_FORMAT}.npy"

    def load(self, name, ring, prec):
        """The cached expansion, or None on a miss.  A file that cannot be
        read back (see _read_coeffs; also a missing or other header line, a
        weight that is not an int) raises CacheIOError."""
        path = self._path(name, ring, prec)
        if not path.exists():
            return None
        try:
            with open(path, "rb") as fh:
                line = fh.readline(4096)
                weight = json.loads(line)["weight"]
                if type(weight) is not int or line != _header(name, ring, prec, weight):
                    raise ValueError("header does not match the request")
                coeffs = _read_coeffs(fh, ring, box_index(prec).size)
            return SiegelFormSeries(ring, weight, prec, coeffs)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise CacheIOError(f"unreadable cache file {path}: {exc}") from exc

    def store(self, name, form):
        form.need(form.prec)
        path = self._path(name, form.ring, form.prec)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.{os.urandom(8).hex()}.tmp")
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(_header(name, form.ring, form.prec, form.weight))
                    np.save(fh, _payload(form.ring, form.coeffs), allow_pickle=False)
                os.replace(tmp, path)
            finally:
                tmp.unlink(missing_ok=True)
        except OSError as exc:
            raise CacheIOError(f"cannot write cache under {self.root}: {exc}") from exc
