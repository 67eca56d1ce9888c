"""Disk cache for generator expansions, keyed by (name, ring, precision).

A file is one gzip-compressed JSON document of format 2, written at gzip
level 6 with a fixed timestamp and sorted keys, so two cold runs of the same
computation produce byte-identical files.  The document is

    {"format": 2, "name": ..., "prec": N, "ring": tag,
     "rows": [...], "weight": k}

where "rows" lists, for every (n, m) with n <= m <= N in (n, m) order, the
dense half row A(n, 0, m), ..., A(n, isqrt(4nm), m) of ring tokens, zeros
included; the other half and (m, n) follow by symmetry.  The format is part
of the file name (`.v2.json.gz`), so files of another format are never
opened: they are misses.  The document is streamed one n-row at a time,
never built whole in memory.  Writes go through a temporary file and an
atomic rename.
"""

from __future__ import annotations

import gzip
import json
import os
import tempfile
import zlib
from pathlib import Path

from . import _rows as rows
from .errors import CacheIOError
from .ring import ring_from_tag
from .siegel import SiegelFormSeries

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
        header other than the request, a wrong row count or row length)
        raises CacheIOError.
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
                OverflowError) as exc:
            raise CacheIOError(f"unreadable cache file {path}: {exc}") from exc

    def store(self, name, form):
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
            try:
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
    ring = form.ring
    head = {"format": _FORMAT, "name": name, "prec": form.prec, "ring": ring.tag}
    gz.write(json.dumps(head, **_JSON)[:-1].encode("ascii") + b',"rows":[')
    for n in range(form.prec + 1):
        line = form.tables[n]
        halves = [rows.to_tokens(ring, line[m][SiegelFormSeries.rb(n, m):])
                  for m in range(n, form.prec + 1)]
        gz.write((b"," if n else b"") + json.dumps(halves, **_JSON)[1:-1].encode("ascii"))
    gz.write(b'],"weight":' + json.dumps(form.weight).encode("ascii") + b"}")


def _form_from_doc(doc):
    ring = ring_from_tag(doc["ring"])
    prec = doc["prec"]
    halves = doc["rows"]
    keys = [(n, m) for n in range(prec + 1) for m in range(n, prec + 1)]
    if len(halves) != len(keys):
        raise ValueError(f"{len(halves)} rows for box {prec}")
    tab = [[None] * (prec + 1) for _ in range(prec + 1)]
    for (n, m), toks in zip(keys, halves):
        if len(toks) != SiegelFormSeries.rb(n, m) + 1:
            raise ValueError(f"row ({n}, {m}) has {len(toks)} entries")
        row = rows.mirror(ring, rows.from_tokens(ring, toks))
        tab[n][m] = row
        tab[m][n] = rows.copy(ring, row) if m != n else row
    return SiegelFormSeries(ring, doc["weight"], prec, tab)
