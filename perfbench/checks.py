"""Output checks for the benchmark's jobs.

Each checker takes a job's stdout and raises CheckFailed when the output is
wrong.  The checkers share no code with the program: polynomials in the
generators are parsed here, and verdicts are compared with the shipped table
(`src/siegelcong/data/table_expected.json`) or with reference outputs stored
next to this file.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
GENERATORS = ("E4", "E6", "chi10", "chi12")
WEIGHTS = (4, 6, 10, 12)


class CheckFailed(Exception):
    pass


def _load(stdout):
    try:
        return json.loads(stdout)
    except ValueError as exc:
        raise CheckFailed(f"stdout is not JSON: {exc}") from None


def expected_congruences(table_doc, max_prime, max_weight=None):
    """{(form, p): holds} for the shipped rows inside the given limits."""
    out = {}
    for row in table_doc["rows"]:
        k = weight_of(parse_poly(row["form"]))
        for c in row["congruences"]:
            if c["p"] <= max_prime and (max_weight is None or k <= max_weight):
                out[(row["form"], c["p"])] = sorted(c["holds"])
    return out


def check_table(stdout, table_doc, max_prime):
    """`table` must report every shipped row up to max_prime, each MATCH.

    The hold-sets are compared with the shipped table here as well, so a row
    the program marks MATCH against a wrong expectation still fails.
    """
    doc = _load(stdout)
    if doc.get("all_match") is not True:
        raise CheckFailed("all_match is not true")
    want = expected_congruences(table_doc, max_prime)
    got = {}
    for row in doc.get("rows", []):
        if row.get("status") != "MATCH":
            raise CheckFailed(f"row {row.get('form')!r} p={row.get('p')} is {row.get('status')}")
        got[(row["form"], row["p"])] = sorted(row["holds"])
    if got != want or len(doc["rows"]) != len(want):
        missing = sorted(set(want) - set(got), key=str)
        wrong = sorted((key for key in got if want.get(key) != got[key]), key=str)
        raise CheckFailed(f"table rows differ: missing {missing}, wrong {wrong}")


def parse_poly(text):
    """{(a, b, c, d): coefficient} for a sum of integer multiples of
    monomials E4^a E6^b chi10^c chi12^d, such as '5*E4^2*chi10 + E6*chi12'."""
    poly = {}
    for sign, term in re.findall(r"([+-]?)\s*([^+-]+)", text.replace(" ", "")):
        coef = -1 if sign == "-" else 1
        expo = [0, 0, 0, 0]
        for factor in term.split("*"):
            if factor.isdigit():
                coef *= int(factor)
                continue
            name, _, e = factor.partition("^")
            if name not in GENERATORS or (e and not e.isdigit()):
                raise CheckFailed(f"cannot parse factor {factor!r} in {text!r}")
            expo[GENERATORS.index(name)] += int(e) if e else 1
        key = tuple(expo)
        poly[key] = poly.get(key, 0) + coef
    return poly


def weight_of(poly):
    weights = {sum(w * e for w, e in zip(WEIGHTS, key)) for key in poly}
    if len(weights) != 1:
        raise CheckFailed(f"polynomial is not homogeneous: weights {sorted(weights)}")
    return weights.pop()


def normalize_mod(poly, p):
    """The polynomial mod p scaled so its largest monomial has coefficient 1."""
    reduced = {key: c % p for key, c in poly.items() if c % p}
    if not reduced:
        raise CheckFailed("form is zero mod p")
    inv = pow(reduced[max(reduced)], p - 2, p)
    return tuple(sorted((key, c * inv % p) for key, c in reduced.items()))


def check_search(stdout, table_doc, max_weight, max_prime):
    """`search` must find exactly the shipped congruences inside its limits,
    each form equal to the table's up to a scalar mod p."""
    doc = _load(stdout)
    expected = expected_congruences(table_doc, max_prime, max_weight)
    want = sorted((weight_of(parse_poly(form)), p, normalize_mod(parse_poly(form), p), tuple(holds))
                  for (form, p), holds in expected.items())
    got = []
    for hit in doc.get("congruences", []):
        p = hit["p"]
        for form in hit["forms"]:
            poly = parse_poly(form)
            if weight_of(poly) != hit["weight"]:
                raise CheckFailed(f"{form!r} does not have weight {hit['weight']}")
            got.append((hit["weight"], p, normalize_mod(poly, p), tuple(hit["holds_b"])))
    if sorted(got) != want:
        raise CheckFailed(f"search congruences differ: expected {want}, got {sorted(got)}")


def check_reference(stdout, name):
    """Every top-level key of the reference recorded for workload `name` must
    appear in the output with an equal value; added keys are allowed."""
    ref = json.loads((REFERENCE_DIR / f"{name}.json").read_text())
    doc = _load(stdout)
    differ = sorted(k for k, v in ref.items() if not isinstance(doc, dict) or doc.get(k) != v)
    if differ:
        raise CheckFailed(f"output differs from reference/{name}.json at {differ}")
