import random

import pytest

from siegelcong.expr import (BinOp, Name, Num, ParseError, Pow,
                             WeightMismatchError, evaluate, parse, to_text,
                             weight)
from siegelcong.ring import ring_from_tag
from siegelcong.siegel import GeneratorContext, siegel_mul

FP5 = ring_from_tag("fp:5")


def test_parse_table_rows():
    assert weight(parse("E4^2*chi10 + 7*E6*chi12")) == 18
    assert weight(parse("chi10^2 + 2*E4^2*chi12 - 2*E4*E6*chi10")) == 20
    assert weight(parse("chi12")) == 12


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


def _random_expr(rng, depth=0):
    if depth > 2 or rng.random() < 0.35:
        return rng.choice([Name("E4"), Name("E6"), Name("chi10"),
                           Name("chi12"), Num(rng.randrange(1, 9))])
    op = rng.choice(["*", "+", "pow"])
    if op == "pow":
        return Pow(_random_expr(rng, 3), rng.randrange(3))
    lhs = _random_expr(rng, depth + 1)
    if op == "*":
        return BinOp("*", lhs, _random_expr(rng, depth + 1))
    return BinOp(rng.choice("+-"), lhs, lhs)   # equal weights by construction


def test_round_trip_random():
    rng = random.Random(17)
    done = 0
    while done < 40:
        e = _random_expr(rng)
        try:
            weight(e)
        except WeightMismatchError:
            continue
        assert parse(to_text(e)) == e
        done += 1


def test_round_trip_table_expressions():
    for text in ("chi12", "E4*chi12", "E4*chi12 - E6*chi10",
                 "E4^2*chi10 + 7*E6*chi12",
                 "chi10^2 + 2*E4^2*chi12 - 2*E4*E6*chi10"):
        assert to_text(parse(to_text(parse(text)))) == to_text(parse(text))


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
    done = 0
    while done < 8:
        e1 = _random_expr(rng, depth=2)
        e2 = _random_expr(rng, depth=2)
        try:
            weight(e1), weight(e2)
        except WeightMismatchError:
            continue
        lhs = evaluate(BinOp("*", e1, e2), ctx5)
        rhs = siegel_mul(evaluate(e1, ctx5), evaluate(e2, ctx5))
        assert all((lhs.a(n, r, m) - rhs.a(n, r, m)) % 5 == 0
                   for n in range(3) for m in range(3)
                   for r in range(-2, 3) if r * r <= 4 * n * m)
        done += 1


def test_pow_zero_is_one(ctx5):
    form = evaluate(parse("chi10^0"), ctx5)
    assert form.a(0, 0, 0) == 1


def test_evaluate_builds_every_table_row_at_its_weight():
    from siegelcong.cli import TABLE_ROWS
    ctx = GeneratorContext(FP5, 2)
    for text, _ in TABLE_ROWS:
        node = parse(text)
        assert evaluate(node, ctx).weight == weight(node), text
