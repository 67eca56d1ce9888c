"""Disk cache for generator expansions, keyed by (name, ring, precision).

A file is one gzip-compressed JSON document of format 2, written at gzip
level 6 with a fixed timestamp and sorted keys, so two cold runs of the same
computation produce byte-identical files.  The document is

    {"format": 2, "name": ..., "prec": N, "ring": tag,
     "rows": [...], "weight": k}

where "rows" lists, for every (n, m) with n <= m <= N in (n, m) order, the
dense half row A(n, 0, m), ..., A(n, isqrt(4nm), m) of ring tokens, zeros
included; the other half and (m, n) follow by symmetry.  Read in order,
the rows are the form's coefficient vector (see siegelcong.siegel): each
row is one slice of it, int64 over F_p with p < 2^21 and object otherwise.
The format is part of the file name (`.v2.json.gz`), so files of another
format are never opened: they are misses.  The document is streamed one
n-row at a time, never built whole in memory.  Writes go through a
temporary file and an atomic rename, and the file gets the mode a plain
open() would give it under the process umask.
"""

from __future__ import annotations

import gzip
import json
import os
import tempfile
import zlib
from pathlib import Path

import numpy as np

from .errors import CacheIOError
from .ring import ring_from_tag
from .siegel import SiegelFormSeries, box_index, tokens

ENV_VAR = "CONGRUENCE_CACHE_DIR"
_FORMAT = 2
_LEVEL = 6
_JSON = {"separators": (",", ":"), "sort_keys": True}


def default_cache_dir():
    return Path(os.environ.get(ENV_VAR, ".cache"))


class DiskCache:
    def __init__(self, root=None):
        self.root = Path(root) if root is not None else default_cache_dir()

    def _path(self, name, ring, prec):
        tag = ring.tag.replace(":", "_")
        return self.root / f"{name}__{tag}__N{prec}.v{_FORMAT}.json.gz"

    def load(self, name, ring, prec):
        """The cached expansion, or None on a miss.

        A file that cannot be read back (truncated, not gzip, not JSON, a
        header other than the request, a wrong row count or row length, a
        token that ring.to_token does not write) raises CacheIOError.
        """
        path = self._path(name, ring, prec)
        if not path.exists():
            return None
        try:
            with gzip.open(path, "rt", encoding="ascii") as fh:
                doc = json.load(fh)
            head = {"format": _FORMAT, "name": name, "prec": prec, "ring": ring.tag}
            if not isinstance(doc, dict) or any(doc.get(k) != v for k, v in head.items()):
                raise ValueError("header does not match the request")
            return _form_from_doc(doc)
        except (OSError, EOFError, zlib.error, ValueError, KeyError, TypeError,
                OverflowError, ZeroDivisionError) as exc:
            raise CacheIOError(f"unreadable cache file {path}: {exc}") from exc

    def store(self, name, form):
        form.need(form.prec)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
            try:
                umask = os.umask(0)         # os.umask cannot only read: set it back
                os.umask(umask)
                os.chmod(tmp, 0o666 & ~umask)
                with os.fdopen(fd, "wb") as raw:
                    with gzip.GzipFile(fileobj=raw, mode="wb", compresslevel=_LEVEL,
                                       mtime=0) as gz:
                        _write_doc(gz, name, form)
                os.replace(tmp, self._path(name, form.ring, form.prec))
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        except OSError as exc:
            raise CacheIOError(f"cannot write cache under {self.root}: {exc}") from exc


def _write_doc(gz, name, form):
    """Write the form's JSON document one n-row at a time.

    The bytes equal json.dumps(doc, sort_keys=True, separators=(",", ":"))
    of the whole document; "rows" sorts between "ring" and "weight".
    """
    idx = box_index(form.prec)
    head = {"format": _FORMAT, "name": name, "prec": form.prec, "ring": form.ring.tag}
    gz.write(json.dumps(head, **_JSON)[:-1].encode("ascii") + b',"rows":[')
    for n in range(form.prec + 1):
        lo, hi = idx.nstart[n], idx.nstart[n + 1]
        toks = tokens(form.ring, form.coeffs[lo:hi])
        cuts = (idx.offset[n, n:] - lo).tolist() + [hi - lo]
        halves = [toks[a:b] for a, b in zip(cuts, cuts[1:])]
        gz.write((b"," if n else b"") + json.dumps(halves, **_JSON)[1:-1].encode("ascii"))
    gz.write(b'],"weight":' + json.dumps(form.weight).encode("ascii") + b"}")


def _form_from_doc(doc):
    ring = ring_from_tag(doc["ring"])
    prec = doc["prec"]
    halves = doc["rows"]
    widths = box_index(prec).widths.tolist()
    if len(halves) != len(widths):
        raise ValueError(f"{len(halves)} rows for box {prec}")
    if any(len(toks) != w for toks, w in zip(halves, widths)):
        raise ValueError("a row length does not match its (n, m)")
    toks = [ring.from_token(t) for row in halves for t in row]
    return SiegelFormSeries(ring, doc["weight"], prec, np.array(toks, dtype=ring.dtype))
