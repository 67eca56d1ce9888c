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


@pytest.mark.parametrize("tag,prec", [("fp:5", 4), ("fp:7", 4), ("int", 4), ("rat", 2)])
def test_store_streams_the_reference_bytes(tmp_path, tag, prec):
    ring = ring_from_tag(tag)
    cache = DiskCache(tmp_path)
    forms = dict(GeneratorContext(ring, prec).generators(),
                 zero=SiegelFormSeries.zero(ring, 8, prec))
    for name, form in forms.items():
        cache.store(name, form)
        stored = cache._path(name, ring, prec).read_bytes()
        assert stored == _whole_document_bytes(name, form)
        assert cache.load(name, ring, prec) == form
