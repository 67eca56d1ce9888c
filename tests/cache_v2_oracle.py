"""A reader of cache format 2, kept as the reference for the golden cache files.

A format-2 file (`{name}__{tag}__N{prec}.v2.json.gz`) is one gzip-compressed
JSON document

    {"format": 2, "name": ..., "prec": N, "ring": tag, "rows": [...], "weight": k}

whose "rows" list, for every (n, m) with n <= m <= N in (n, m) order, the
dense half row A(n, 0, m), ..., A(n, isqrt(4nm), m) of ring tokens: ints,
or over the rat tag, which format 2 also knew, decimal texts.  Read in
order, the rows are the form's coefficient vector.  The golden files under
tests/data/golden are of this format; read_v2 decodes them, so that the
files the current cache writes can be compared with them coefficient for
coefficient.
"""

import gzip
import json
from math import isqrt

import numpy as np

from siegelcong.ring import ring_from_tag
from siegelcong.siegel import SiegelFormSeries


def read_v2(path):
    """(name, form) of the format-2 file at path; AssertionError unless
    every row has the length of its (n, m).  A rat file is read over int,
    and only if every token is an integer's decimal text."""
    with gzip.open(path, "rt", encoding="ascii") as fh:
        doc = json.load(fh)
    assert doc["format"] == 2
    texts, prec = doc["ring"] == "rat", doc["prec"]
    ring = ring_from_tag("int" if texts else doc["ring"])
    widths = [isqrt(4 * n * m) + 1 for n in range(prec + 1) for m in range(n, prec + 1)]
    assert [len(row) for row in doc["rows"]] == widths
    toks = [from_token(ring, int(t) if texts and t == str(int(t)) else t)
            for row in doc["rows"] for t in row]
    return doc["name"], SiegelFormSeries(ring, doc["weight"], prec, np.array(toks, dtype=ring.dtype))


def from_token(ring, t):
    """The element the token t stands for: an int that is its own canonical
    residue; ValueError otherwise."""
    if type(t) is not int or ring.from_int(t) != t:
        raise ValueError(f"{t!r} is not a token of {ring.tag}")
    return t
