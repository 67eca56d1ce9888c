"""DiskCache in cache format 3: the bytes it writes, round trips, and the
files it must refuse (CacheIOError) or skip (a miss)."""

import gzip
import io
import json
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

from siegelcong.cache import _FORMAT, DiskCache
from siegelcong.errors import CacheIOError
from siegelcong.ring import ring_from_tag
from siegelcong.siegel import GeneratorContext, SiegelFormSeries, box_index, igusa_generators

GOLDEN = Path(__file__).parent / "data" / "golden"


def _document(name, form):
    """The form's format-3 header fields and payload, the payload read one
    coefficient at a time: the residues in the least unsigned dtype that holds
    p - 1 over F_p with int64 vectors, else the decimal texts as bytes."""
    ring = form.ring
    vals = [form.a(n, r, m) for n in range(form.prec + 1) for m in range(n, form.prec + 1)
            for r in range(SiegelFormSeries.rb(n, m) + 1)]
    if ring.dtype == object:
        payload = np.array([str(int(v)).encode("ascii") for v in vals])
    else:
        payload = np.array(vals, dtype=np.min_scalar_type(ring.p - 1))
    return {"format": _FORMAT, "name": name, "prec": form.prec, "ring": ring.tag,
            "weight": form.weight, "payload": payload}


def _file_bytes(doc):
    """The file of a document: its sorted-key JSON header line, then np.save
    of the payload (pickled when the payload is an object array)."""
    head = {k: v for k, v in doc.items() if k != "payload"}
    buf = io.BytesIO()
    np.save(buf, doc["payload"], allow_pickle=doc["payload"].dtype == object)
    line = json.dumps(head, sort_keys=True, separators=(",", ":")).encode("ascii")
    return line + b"\n" + buf.getvalue()


def _gzip_bytes(doc):
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("ascii")
    buf = io.BytesIO()
    with gzip.GzipFile(fileobj=buf, mode="wb", compresslevel=6, mtime=0) as gz:
        gz.write(payload)
    return buf.getvalue()


def _coeffs_by_accessor(form):
    """to_json's coefficient list read one coefficient at a time."""
    out = []
    for n in range(form.prec + 1):
        for m in range(n, form.prec + 1):
            for r in range(SiegelFormSeries.rb(n, m) + 1):
                v = form.a(n, r, m)
                if v:
                    out.append([n, r, m, int(v)])
    return out


@pytest.mark.parametrize("tag,prec", [("fp:5", 4), ("fp:7", 4), ("fp:2097169", 4),
                                      ("int", 4), ("int", 2)])
def test_store_streams_the_reference_bytes(tmp_path, tag, prec):
    ring = ring_from_tag(tag)
    cache = DiskCache(tmp_path)
    forms = dict(igusa_generators(prec, ring),
                 zero=SiegelFormSeries.zero(ring, 8, prec))
    for name, form in forms.items():
        assert form.to_json()["coeffs"] == _coeffs_by_accessor(form)
        cache.store(name, form)
        path = cache._path(name, ring, prec)
        assert path.name == f"{name}__{tag.replace(':', '_')}__N{prec}.v3.npy"
        assert path.read_bytes() == _file_bytes(_document(name, form))
        got = cache.load(name, ring, prec)
        assert got == form and got.weight == form.weight and got.coeffs.dtype == ring.dtype


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


def test_store_leaves_the_process_umask_alone(tmp_path, monkeypatch):
    """The umask is shared by every thread of the process: store never sets it."""
    def umask(mask):
        raise AssertionError("os.umask called")
    monkeypatch.setattr(os, "umask", umask)
    DiskCache(tmp_path).store("chi10", GeneratorContext(INT, 2).generator("chi10"))
    assert [p.name for p in tmp_path.iterdir()] == ["chi10__int__N2.v3.npy"]


def test_format_1_file_is_a_miss(stored_chi10, tmp_path):
    cache, form = stored_chi10
    cache._path("chi10", INT, 3).unlink()
    old = dict(form.to_json(), name="chi10", format=1)
    (tmp_path / "chi10__int__N3.json.gz").write_bytes(_gzip_bytes(old))
    assert cache.load("chi10", INT, 3) is None


def test_format_2_file_is_a_miss(tmp_path):
    old = GOLDEN / "check_chi12_p5_b1_cache" / "chi12__fp_5__N5.v2.json.gz"
    shutil.copy(old, tmp_path / old.name)
    assert DiskCache(tmp_path).load("chi12", ring_from_tag("fp:5"), 5) is None


def _truncate(data):
    return data[:len(data) // 2]


def _garble(data):
    mid = len(data) // 2
    return data[:mid] + bytes(b ^ 0xFF for b in data[mid:mid + 16]) + data[mid + 16:]


def _garble_tail(data):
    return data[:-16] + bytes(b ^ 0xFF for b in data[-16:])


def _strip_header(data):
    return data[data.index(b"\n") + 1:]


def _append(data):
    return data + b"\0"


@pytest.mark.parametrize("damage", [
    _truncate, _garble, lambda data: data[:data.index(b"\n") + 1] + b"not npy",
    _garble_tail, _strip_header, _append])
def test_damaged_file_raises(stored_chi10, damage):
    cache, _ = stored_chi10
    path = cache._path("chi10", INT, 3)
    path.write_bytes(damage(path.read_bytes()))
    with pytest.raises(CacheIOError):
        cache.load("chi10", INT, 3)


@pytest.fixture(params=["int", "fp:17", "fp:2097169"])
def stored_any(tmp_path, request):
    """A cache holding chi10 at box 3 over Z, over F_17 (uint8 residues) and
    over F_2097169 (token texts), and the form."""
    form = GeneratorContext(ring_from_tag(request.param), 3).generator("chi10")
    cache = DiskCache(tmp_path)
    cache.store("chi10", form)
    return cache, form


def _set(doc, key, fn):
    doc[key] = fn(doc[key])


def _not_a_number(payload):
    out = payload.astype("S")
    out[3] = b"x"
    return out


@pytest.mark.parametrize("malform", [
    lambda doc: _set(doc, "payload", lambda v: v[:-1]),
    lambda doc: _set(doc, "payload", lambda v: np.append(v, v[:1])),
    lambda doc: _set(doc, "payload", lambda v: np.resize(v, box_index(4).size)),
    lambda doc: _set(doc, "payload", lambda v: v[:box_index(2).size]),
    lambda doc: doc.update(ring="fp:7"),
    lambda doc: doc.update(prec=4),
    lambda doc: doc.update(name="chi12"),
    lambda doc: doc.update(format=1),
    lambda doc: _set(doc, "payload", lambda v: v[None, :]),
    lambda doc: doc.pop("weight"),
    lambda doc: _set(doc, "payload", _not_a_number),
    lambda doc: doc.update(format=2),
    lambda doc: doc.update(weight="10"),
    lambda doc: doc.update(weight=10.0),
    lambda doc: doc.update(weight=True),
    lambda doc: doc.update(rows=[]),
    lambda doc: _set(doc, "payload", lambda v: v[0]),
    lambda doc: _set(doc, "payload", lambda v: v.astype(np.int64)),
    lambda doc: _set(doc, "payload", lambda v: v.astype(np.float64)),
    lambda doc: _set(doc, "payload", lambda v: v.astype("U")),
    lambda doc: _set(doc, "payload", lambda v: v.astype(object)),
], ids=["row-count-low", "row-count-high", "row-long", "row-short",
        "ring", "prec", "name", "format", "row-not-a-list", "no-weight", "token-not-a-number",
        "format-2", "weight-str", "weight-float", "weight-bool", "extra-field",
        "scalar", "dtype-int64", "dtype-float64", "dtype-unicode", "dtype-pickled-object"])
def test_malformed_document_raises(stored_any, malform):
    """Each header field and each property of the payload: its length (off by
    one, the length of box 4 or box 2), its shape and its dtype."""
    cache, form = stored_any
    doc = _document("chi10", form)
    malform(doc)
    cache._path("chi10", form.ring, 3).write_bytes(_file_bytes(doc))
    with pytest.raises(CacheIOError):
        cache.load("chi10", form.ring, 3)


def _with_token(ring, payload, token):
    """payload with A(1, 1, 1) set to a token, as format 3 would hold it.

    Over the object rings the token's text: bytes as they are, an int as
    str() gives it, any other as its JSON text (so the str "3" reads '"3"'
    over F_p).  Over F_p with int64 vectors, a uint64 vector for an int in
    [0, 2^64), else an object vector, which is written pickled.
    """
    k = box_index(3).offset[1, 1] + 1
    if payload.dtype.kind == "S":
        if isinstance(token, bytes):
            text = token
        elif type(token) is int:
            text = str(token).encode("ascii")
        else:
            text = json.dumps(token).encode("ascii")
        out = payload.astype(f"S{max(payload.itemsize, len(text))}")
    else:
        fits = type(token) is int and 0 <= token < 2 ** 64
        out, text = payload.astype(np.uint64 if fits else object), token
    out[k] = text
    return out


@pytest.mark.parametrize("tag", ["fp:17", "fp:2097169"])
@pytest.mark.parametrize("token", [-1, "p", 2**40, 2**70, 1.0, True, "3", [3], b"+3", b"03"])
def test_token_outside_the_residues_raises(tmp_path, tag, token):
    ring = ring_from_tag(tag)
    form = GeneratorContext(ring, 3).generator("chi10")
    doc = _document("chi10", form)
    payload = doc["payload"]
    doc["payload"] = _with_token(ring, payload, ring.p if token == "p" else token)
    cache = DiskCache(tmp_path)
    cache._path("chi10", ring, 3).write_bytes(_file_bytes(doc))
    with pytest.raises(CacheIOError):
        cache.load("chi10", ring, 3)
    doc["payload"] = _with_token(ring, payload, ring.p - 1)
    cache._path("chi10", ring, 3).write_bytes(_file_bytes(doc))
    assert cache.load("chi10", ring, 3).a(1, 1, 1) == ring.p - 1


# Format 3 keeps no JSON types: the integer 240 and the string "240" of the
# format-2 list are both the text 240, which the writer writes over Z.
# The texts 0240, +240, " 240" and 1_000 parse to integers that the writer
# writes otherwise, and a fraction or a decimal point is no integer at all.
@pytest.mark.parametrize("tag,token", [
    ("int", 240.7), ("int", 240.0), ("int", True), ("int", "240"), ("int", None), ("int", [240]),
    ("int", b"0240"), ("int", b"+240"), ("int", b" 240"), ("int", b"1_000"), ("int", b"-0"),
    ("int", b"2/1"), ("int", "é".encode()), ("int", b"2/4"), ("int", b"240/1"), ("int", b"1/0"),
    ("int", b"x"),
])
def test_token_the_writer_does_not_write_raises(tmp_path, tag, token):
    ring = ring_from_tag(tag)
    form = GeneratorContext(ring, 3).generator("chi10")
    doc = _document("chi10", form)
    payload = doc["payload"]
    doc["payload"] = _with_token(ring, payload, token)
    cache = DiskCache(tmp_path)
    cache._path("chi10", ring, 3).write_bytes(_file_bytes(doc))
    with pytest.raises(CacheIOError):
        cache.load("chi10", ring, 3)
    doc["payload"] = _with_token(ring, payload, -7)
    cache._path("chi10", ring, 3).write_bytes(_file_bytes(doc))
    assert cache.load("chi10", ring, 3).a(1, 1, 1) == -7
