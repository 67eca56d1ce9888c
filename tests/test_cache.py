import gzip
import io
import json
import os

import numpy as np
import pytest

from siegelcong.cache import _FORMAT, DiskCache
from siegelcong.errors import CacheIOError
from siegelcong.ring import ring_from_tag
from siegelcong.siegel import GeneratorContext, SiegelFormSeries, igusa_generators


def _document(name, form):
    """The form's format-2 document, read one coefficient at a time."""
    ring = form.ring
    halves = [[ring.to_token(form.a(n, r, m)) for r in range(SiegelFormSeries.rb(n, m) + 1)]
              for n in range(form.prec + 1) for m in range(n, form.prec + 1)]
    return {"format": _FORMAT, "name": name, "prec": form.prec, "ring": ring.tag,
            "rows": halves, "weight": form.weight}


def _gzip_bytes(doc):
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("ascii")
    buf = io.BytesIO()
    with gzip.GzipFile(fileobj=buf, mode="wb", compresslevel=6, mtime=0) as gz:
        gz.write(payload)
    return buf.getvalue()


def _whole_document_bytes(name, form):
    """The file as built from one in-memory JSON document (the reference)."""
    return _gzip_bytes(_document(name, form))


def _coeffs_by_accessor(form):
    """to_json's coefficient list read one coefficient at a time."""
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
    forms = dict(igusa_generators(prec, ring),
                 zero=SiegelFormSeries.zero(ring, 8, prec))
    for name, form in forms.items():
        assert form.to_json()["coeffs"] == _coeffs_by_accessor(form)
        cache.store(name, form)
        stored = cache._path(name, ring, prec).read_bytes()
        assert stored == _whole_document_bytes(name, form)
        assert cache.load(name, ring, prec) == form


INT = ring_from_tag("int")


@pytest.fixture()
def stored_chi10(tmp_path):
    """A cache holding chi10 over Z at box 3, and the form."""
    form = GeneratorContext(INT, 3).generator("chi10")
    cache = DiskCache(tmp_path)
    cache.store("chi10", form)
    return cache, form


def test_load_round_trip_keeps_rows_independent(stored_chi10):
    cache, form = stored_chi10
    got = cache.load("chi10", INT, 3)
    assert got == form and got.weight == 10
    assert not np.shares_memory(got.coeffs, form.coeffs)


def test_store_honours_the_umask(tmp_path):
    form = GeneratorContext(INT, 2).generator("chi10")
    old = os.umask(0o022)
    try:
        DiskCache(tmp_path).store("chi10", form)
    finally:
        os.umask(old)
    assert [p.stat().st_mode & 0o777 for p in tmp_path.iterdir()] == [0o644]


def test_format_1_file_is_a_miss(stored_chi10, tmp_path):
    cache, form = stored_chi10
    cache._path("chi10", INT, 3).unlink()
    old = dict(form.to_json(), name="chi10", format=1)
    (tmp_path / "chi10__int__N3.json.gz").write_bytes(_gzip_bytes(old))
    assert cache.load("chi10", INT, 3) is None


def _truncate(data):
    return data[:len(data) // 2]


def _garble(data):
    mid = len(data) // 2
    return data[:mid] + bytes(b ^ 0xFF for b in data[mid:mid + 16]) + data[mid + 16:]


@pytest.mark.parametrize("damage", [_truncate, _garble, lambda data: b"not gzip"])
def test_damaged_file_raises(stored_chi10, damage):
    cache, _ = stored_chi10
    path = cache._path("chi10", INT, 3)
    path.write_bytes(damage(path.read_bytes()))
    with pytest.raises(CacheIOError):
        cache.load("chi10", INT, 3)


@pytest.fixture(params=["int", "fp:17", "fp:2097169"])
def stored_any(tmp_path, request):
    """A cache holding chi10 at box 3 over Z, over F_17 (int64 rows) and over
    F_2097169 (list rows), and the form."""
    form = GeneratorContext(ring_from_tag(request.param), 3).generator("chi10")
    cache = DiskCache(tmp_path)
    cache.store("chi10", form)
    return cache, form


@pytest.mark.parametrize("malform", [
    lambda doc: doc["rows"].pop(),
    lambda doc: doc["rows"].append([0]),
    lambda doc: doc["rows"][-1].append(0),
    lambda doc: doc["rows"][2].pop(),
    lambda doc: doc.update(ring="fp:7"),
    lambda doc: doc.update(prec=4),
    lambda doc: doc.update(name="chi12"),
    lambda doc: doc.update(format=1),
    lambda doc: doc["rows"].__setitem__(0, 5),
    lambda doc: doc.pop("weight"),
    lambda doc: doc["rows"][3].__setitem__(0, "x"),
], ids=["row-count-low", "row-count-high", "row-long", "row-short",
        "ring", "prec", "name", "format", "row-not-a-list", "no-weight", "token-not-a-number"])
def test_malformed_document_raises(stored_any, malform):
    cache, form = stored_any
    doc = _document("chi10", form)
    malform(doc)
    cache._path("chi10", form.ring, 3).write_bytes(_gzip_bytes(doc))
    with pytest.raises(CacheIOError):
        cache.load("chi10", form.ring, 3)


@pytest.mark.parametrize("tag", ["fp:17", "fp:2097169"])
@pytest.mark.parametrize("token", [-1, "p", 2**40, 2**70, 1.0, True, "3", [3]])
def test_token_outside_the_residues_raises(tmp_path, tag, token):
    ring = ring_from_tag(tag)
    form = GeneratorContext(ring, 3).generator("chi10")
    doc = _document("chi10", form)
    doc["rows"][4][1] = ring.p if token == "p" else token
    cache = DiskCache(tmp_path)
    cache._path("chi10", ring, 3).write_bytes(_gzip_bytes(doc))
    with pytest.raises(CacheIOError):
        cache.load("chi10", ring, 3)
    doc["rows"][4][1] = ring.p - 1
    cache._path("chi10", ring, 3).write_bytes(_gzip_bytes(doc))
    assert cache.load("chi10", ring, 3).a(1, 1, 1) == ring.p - 1


@pytest.mark.parametrize("tag,token", [
    ("int", 240.7), ("int", 240.0), ("int", True), ("int", "240"), ("int", None), ("int", [240]),
    ("rat", 240.7), ("rat", "240.7"), ("rat", "2/4"), ("rat", 240), ("rat", "240/1"),
    ("rat", "1/0"), ("rat", " 240"), ("rat", "+240"), ("rat", "-0"), ("rat", True), ("rat", "x"),
])
def test_token_the_writer_does_not_write_raises(tmp_path, tag, token):
    ring = ring_from_tag(tag)
    form = GeneratorContext(ring, 3).generator("chi10")
    doc = _document("chi10", form)
    doc["rows"][4][1] = token
    cache = DiskCache(tmp_path)
    cache._path("chi10", ring, 3).write_bytes(_gzip_bytes(doc))
    with pytest.raises(CacheIOError):
        cache.load("chi10", ring, 3)
    value = ring.divexact(ring.from_int(-7), ring.from_int(1 if tag == "int" else 3))
    doc["rows"][4][1] = ring.to_token(value)
    cache._path("chi10", ring, 3).write_bytes(_gzip_bytes(doc))
    assert cache.load("chi10", ring, 3).a(1, 1, 1) == value
