"""Disk cache for generator expansions, keyed by (name, ring, precision).

Files are gzip-compressed JSON with a fixed timestamp and sorted keys, so
two cold runs of the same computation produce byte-identical files.  The
document is streamed one n-row at a time, never built whole in memory.
Writes go through a temporary file and an atomic rename.
"""

from __future__ import annotations

import gzip
import json
import os
import tempfile
from pathlib import Path

from .errors import CacheIOError
from .ring import FpRing, ring_from_tag
from .siegel import SiegelFormSeries

ENV_VAR = "CONGRUENCE_CACHE_DIR"
_FORMAT = 1


def default_cache_dir():
    return Path(os.environ.get(ENV_VAR, ".cache"))


class DiskCache:
    def __init__(self, root=None):
        self.root = Path(root) if root is not None else default_cache_dir()

    def _path(self, name, ring, prec):
        tag = ring.tag.replace(":", "_")
        return self.root / f"{name}__{tag}__N{prec}.json.gz"

    def load(self, name, ring, prec):
        """The cached expansion, or None on a miss; corrupt files raise."""
        path = self._path(name, ring, prec)
        if not path.exists():
            return None
        try:
            with gzip.open(path, "rt", encoding="ascii") as fh:
                doc = json.load(fh)
            if doc.get("format") != _FORMAT or doc.get("name") != name:
                raise ValueError("format/name mismatch")
            return _form_from_doc(doc)
        except (OSError, ValueError, KeyError) as exc:
            raise CacheIOError(f"unreadable cache file {path}: {exc}") from exc

    def store(self, name, form):
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as raw:
                    with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as gz:
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
    of the whole document; "coeffs" sorts before every other key.
    """
    gz.write(b'{"coeffs":[')
    sep = b""
    for n in range(form.prec + 1):
        coeffs = form.coeff_rows(n)
        if coeffs:
            gz.write(sep + json.dumps(coeffs, separators=(",", ":"))[1:-1].encode("ascii"))
            sep = b","
    rest = dict(form.json_header(), name=name, format=_FORMAT)
    gz.write(b"]," + json.dumps(rest, sort_keys=True, separators=(",", ":"))[1:].encode("ascii"))


def _form_from_doc(doc):
    ring = ring_from_tag(doc["ring"])
    form = SiegelFormSeries.zero(ring, doc["weight"], doc["prec"])
    for n, r, m, tok in doc["coeffs"]:
        v = ring.from_token(tok)
        for (nn, mm) in {(n, m), (m, n)}:
            b = SiegelFormSeries.rb(nn, mm)
            form.tables[nn][mm][b + r] = v
            form.tables[nn][mm][b - r] = v
    return form
