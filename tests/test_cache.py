import gzip
import io
import json

import pytest

from siegelcong.cache import _FORMAT, DiskCache
from siegelcong.ring import ring_from_tag
from siegelcong.siegel import GeneratorContext, SiegelFormSeries


def _whole_document_bytes(name, form):
    """The file as built from one in-memory JSON document (the reference)."""
    doc = dict(form.to_json(), name=name, format=_FORMAT)
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("ascii")
    buf = io.BytesIO()
    with gzip.GzipFile(fileobj=buf, mode="wb", mtime=0) as gz:
        gz.write(payload)
    return buf.getvalue()


def _coeffs_by_accessor(form):
    """The document's coefficient list read one coefficient at a time."""
    ring = form.ring
    out = []
    for n in range(form.prec + 1):
        for m in range(n, form.prec + 1):
            for r in range(SiegelFormSeries.rb(n, m) + 1):
                v = form.a(n, r, m)
                if not ring.is_zero(v):
                    out.append([n, r, m, ring.to_token(v)])
    return out


@pytest.mark.parametrize("tag,prec", [("fp:5", 4), ("fp:7", 4), ("fp:2097169", 4),
                                      ("int", 4), ("rat", 2)])
def test_store_streams_the_reference_bytes(tmp_path, tag, prec):
    ring = ring_from_tag(tag)
    cache = DiskCache(tmp_path)
    forms = dict(GeneratorContext(ring, prec).generators(),
                 zero=SiegelFormSeries.zero(ring, 8, prec))
    for name, form in forms.items():
        assert form.to_json()["coeffs"] == _coeffs_by_accessor(form)
        cache.store(name, form)
        stored = cache._path(name, ring, prec).read_bytes()
        assert stored == _whole_document_bytes(name, form)
        assert cache.load(name, ring, prec) == form
