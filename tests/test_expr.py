import json
import random
from pathlib import Path

import pytest

from siegelcong.errors import InvalidArgumentError
from siegelcong.expr import (Expr, ParseError, WeightMismatchError, evaluate,
                             parse)
from siegelcong.ring import ring_from_tag
from siegelcong.siegel import GeneratorContext, siegel_mul

FP5 = ring_from_tag("fp:5")
CORPUS = Path(__file__).parent / "data" / "golden" / "expr_label_corpus.json"


def test_parse_table_rows():
    assert parse("E4^2*chi10 + 7*E6*chi12").weight == 18
    assert parse("chi10^2 + 2*E4^2*chi12 - 2*E4*E6*chi10").weight == 20
    assert parse("chi12").weight == 12
    assert parse("E4^2*chi10 + 7*E6*chi12").poly == {(2, 0, 1, 0): 1, (0, 1, 0, 1): 7}


def test_weight_mismatch_names_both():
    with pytest.raises(WeightMismatchError, match="4 vs 6"):
        parse("E4 + E6")


def test_adjacency_multiplies():
    assert parse("E4 chi12") == parse("E4*chi12")
    assert parse("2 E4^2 chi12") == parse("2*E4^2*chi12")


def test_greedy_identifiers():
    with pytest.raises(ParseError, match="unknown generator"):
        parse("E4chi12")


def test_syntax_errors_carry_position():
    with pytest.raises(ParseError):
        parse("E4 +")
    with pytest.raises(ParseError):
        parse("(E4")
    with pytest.raises(ParseError, match="exponent"):
        parse("E4^E6")
    with pytest.raises(ParseError, match="unexpected character"):
        parse("E4 & E6")
    with pytest.raises(ParseError, match="trailing"):
        parse("E4 )")


def test_weight_is_checked_before_later_syntax():
    with pytest.raises(WeightMismatchError):
        parse("E4 + E6 )")


def test_zero_coefficients_are_dropped():
    assert parse("E4 - E4") == Expr({}, 4, "E4 - E4")
    assert parse("0*chi10").poly == {}
    assert parse("(E4^3 - E6^2)*(E4^3 + E6^2)").poly == {(6, 0, 0, 0): 1, (0, 4, 0, 0): -1}
    assert parse("(E4 - E4)^0").poly == {(0, 0, 0, 0): 1}


def _random_text(rng, depth=0):
    """A random expression text over the generators and small numbers; the
    operands of '+' and '-' are one subexpression, so their weights agree."""
    if depth > 2 or rng.random() < 0.35:
        return rng.choice(["E4", "E6", "chi10", "chi12", str(rng.randrange(1, 9))])
    op = rng.choice(["*", "+", "pow"])
    if op == "pow":
        return f"({_random_text(rng, 3)})^{rng.randrange(3)}"
    lhs = _random_text(rng, depth + 1)
    if op == "*":
        return f"({lhs})*({_random_text(rng, depth + 1)})"
    return f"({lhs}) {rng.choice('+-')} ({lhs})"


def test_round_trip_random():
    rng = random.Random(17)
    for _ in range(40):
        e = parse(_random_text(rng))
        assert parse(e.text) == e


def test_expr_is_a_value_record():
    e = parse("E4*chi12 - E6*chi10")
    assert parse(e.text) == e and e == Expr(dict(e.poly), 16, e.text)
    assert e != Expr(e.poly, 16, "E4 chi12 - E6 chi10") and e != (e.poly, 16, e.text)
    assert repr(e) == f"Expr({e.poly!r}, 16, {e.text!r})"
    with pytest.raises(TypeError):
        hash(e)


def test_round_trip_table_expressions():
    for text in ("chi12", "E4*chi12", "E4*chi12 - E6*chi10",
                 "E4^2*chi10 + 7*E6*chi12",
                 "chi10^2 + 2*E4^2*chi12 - 2*E4*E6*chi10"):
        assert parse(parse(text).text).text == parse(text).text == text


def test_label_corpus():
    """Texts, weights and rejections recorded from the tree-based parser this
    one replaced; value is the expression at (E4, E6, chi10, chi12) =
    (2, 3, 5, 7) mod 10^9 + 7.  A text with a weight mismatch before a
    syntax error now raises WeightMismatchError, where the tree parser
    raised ParseError."""
    rows = json.loads(CORPUS.read_text())
    assert len(rows) >= 300
    for row in rows:
        if "error" in row:
            with pytest.raises(InvalidArgumentError) as info:
                parse(row["text"])
            got = type(info.value).__name__
            assert got == row["error"] or (row["error"], got) == (
                "ParseError", "WeightMismatchError"), row
            continue
        e = parse(row["text"])
        assert (e.text, e.weight) == (row["canonical"], row["weight"]), row
        assert parse(e.text) == e
        value = sum(c * 2 ** a * 3 ** b * 5 ** cc * 7 ** d
                    for (a, b, cc, d), c in e.poly.items())
        assert value % (10 ** 9 + 7) == row["value"], row


def test_evaluate_constant():
    ctx = GeneratorContext(FP5, 2)
    form = evaluate(parse("2"), ctx)
    assert form.a(0, 0, 0) == 2 and form.weight == 0


def test_evaluate_generator(ctx5):
    form = evaluate(parse("chi12"), ctx5)
    assert form.a(1, 1, 1) == 1 and form.weight == 12


def test_evaluate_nagaoka_instance(ctx5):
    form = evaluate(parse("E4"), ctx5)
    for n in range(5):
        for m in range(5):
            if (n, m) != (0, 0):
                assert form.a(n, 0, m) % 5 == 0


def test_evaluate_is_ring_homomorphism(ctx5):
    rng = random.Random(23)
    for _ in range(8):
        t1, t2 = _random_text(rng, depth=2), _random_text(rng, depth=2)
        lhs = evaluate(parse(f"({t1})*({t2})"), ctx5)
        rhs = siegel_mul(evaluate(parse(t1), ctx5), evaluate(parse(t2), ctx5))
        assert all((lhs.a(n, r, m) - rhs.a(n, r, m)) % 5 == 0
                   for n in range(3) for m in range(3)
                   for r in range(-2, 3) if r * r <= 4 * n * m)


def test_pow_zero_is_one(ctx5):
    form = evaluate(parse("chi10^0"), ctx5)
    assert form.a(0, 0, 0) == 1


def test_evaluate_builds_every_table_row_at_its_weight():
    from siegelcong.cli import TABLE_ROWS
    ctx = GeneratorContext(FP5, 2)
    for text, _ in TABLE_ROWS:
        e = parse(text)
        assert evaluate(e, ctx).weight == e.weight, text
