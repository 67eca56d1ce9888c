"""Expression language over the generators E4, E6, chi10, chi12.

Grammar (addition needs equal weights, checked at each '+' and '-'):

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor | factor)*     -- adjacency multiplies
    factor := atom ('^' uint)?
    atom   := ident | uint | '(' expr ')'

Identifiers are greedy: ``E4chi12`` lexes as one unknown name, while
``E4 chi12`` and ``E4*chi12`` both multiply.

One pass over the tokens gives an Expr: the polynomial, its weight and a
canonical text.  The text keeps the parse-tree shape (a right operand of
'*' that is itself a product, and a right operand of '+' or '-' that is a
sum, stay in parentheses), so parse(e.text) == e.
"""

from __future__ import annotations

import re

from .errors import InvalidArgumentError

# the generators of the expression language and their weights, in exponent order
GENERATOR_WEIGHTS = {"E4": 4, "E6": 6, "chi10": 10, "chi12": 12}
_ONE = (0, 0, 0, 0)


class ParseError(InvalidArgumentError):
    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class WeightMismatchError(InvalidArgumentError):
    pass


class Record:
    """Base of the package's record classes: equal when of one class with equal
    __slots__ values, unhashable, and shown as Name(value, ...)."""
    __slots__ = ()
    __hash__ = None

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        return f"{type(self).__name__}{self._values()!r}"


class Expr(Record):
    __slots__ = ("poly", "weight", "text")

    def __init__(self, poly, weight, text):
        # poly: {(a, b, c, d): nonzero int}, the coefficient of E4^a E6^b chi10^c chi12^d
        self.poly, self.weight, self.text = poly, weight, text


_TOKEN = re.compile(r"\s*(?:(?P<ident>[A-Za-z][A-Za-z0-9_]*)|(?P<num>\d+)"
                    r"|(?P<op>[-+*^()]))")


def tokenize(text):
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.group("ident"):
            out.append(("ident", m.group("ident"), m.start("ident")))
        elif m.group("num"):
            out.append(("num", int(m.group("num")), m.start("num")))
        else:
            out.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    out.append(("end", None, len(text)))
    return out


def _add(f, g, sign):
    out = dict(f)
    for e, c in g.items():
        out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c}


def _mul(f, g):
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _pow(f, n):
    out = {_ONE: 1}
    while n:
        if n & 1:
            out = _mul(out, f)
        n >>= 1
        if n:
            f = _mul(f, f)
    return out


# Each parser method returns (poly, weight, text, level), where level is
# 4 for a name or number, 3 for a power, 2 for a product and 1 for a sum or
# difference.  An operand below the least level its place allows is
# parenthesized: 4 for a base, 2 for a left factor or a right summand, 3 for
# a right factor.
def _wrap(text, level, least):
    return f"({text})" if level < least else text


class _Parser:
    def __init__(self, tokens):
        self.toks = tokens
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def next(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", pos)

    def parse_expr(self):
        poly, w, text, level = self.parse_term()
        while True:
            kind, val, _ = self.peek()
            if not (kind == "op" and val in "+-"):
                return poly, w, text, level
            self.next()
            rpoly, rw, rtext, rlevel = self.parse_term()
            if w != rw:
                raise WeightMismatchError(f"weight mismatch in {val!r}: {w} vs {rw}")
            text = f"{text} {val} {_wrap(rtext, rlevel, 2)}"
            poly, level = _add(poly, rpoly, 1 if val == "+" else -1), 1

    def parse_term(self):
        poly, w, text, level = self.parse_factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.next()
            elif not (kind in ("ident", "num") or (kind == "op" and val == "(")):
                return poly, w, text, level
            rpoly, rw, rtext, rlevel = self.parse_factor()
            text = f"{_wrap(text, level, 2)}*{_wrap(rtext, rlevel, 3)}"
            poly, w, level = _mul(poly, rpoly), w + rw, 2

    def parse_factor(self):
        poly, w, text, level = self.parse_atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.next()
            k2, v2, pos = self.next()
            if k2 != "num":
                raise ParseError("exponent must be a nonnegative integer", pos)
            poly, w, text, level = _pow(poly, v2), w * v2, f"{_wrap(text, level, 4)}^{v2}", 3
        return poly, w, text, level

    def parse_atom(self):
        kind, val, pos = self.next()
        if kind == "ident":
            if val not in GENERATOR_WEIGHTS:
                raise ParseError(f"unknown generator {val!r}", pos)
            e = tuple(int(name == val) for name in GENERATOR_WEIGHTS)
            return {e: 1}, GENERATOR_WEIGHTS[val], val, 4
        if kind == "num":
            return ({_ONE: val} if val else {}), 0, str(val), 4
        if kind == "op" and val == "(":
            out = self.parse_expr()
            self.expect_op(")")
            return out
        raise ParseError(f"unexpected token {val!r}", pos)


def parse(text):
    """Parse an expression; syntax errors carry the offending position."""
    p = _Parser(tokenize(text))
    poly, w, text, _ = p.parse_expr()
    kind, val, pos = p.peek()
    if kind != "end":
        raise ParseError(f"trailing input {val!r}", pos)
    return Expr(poly, w, text)


def evaluate(e, ctx):
    """The form of e over a GeneratorContext, at e's weight."""
    return ctx.evaluate(e.poly, e.weight)
