"""Expression language over the generators E4, E6, chi10, chi12.

Grammar (weights checked after parsing; addition needs equal weights):

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor | factor)*     -- adjacency multiplies
    factor := atom ('^' uint)?
    atom   := ident | uint | '(' expr ')'

Identifiers are greedy: ``E4chi12`` lexes as one unknown name, while
``E4 chi12`` and ``E4*chi12`` both multiply.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import InvalidArgumentError
from .siegel import _GENERATOR_WEIGHTS, siegel_mul

ATOM_WEIGHTS = dict(_GENERATOR_WEIGHTS)


class ParseError(InvalidArgumentError):
    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class WeightMismatchError(InvalidArgumentError):
    pass


@dataclass(frozen=True)
class Name:
    name: str


@dataclass(frozen=True)
class Num:
    value: int


@dataclass(frozen=True)
class BinOp:
    op: str              # '+', '-', '*'
    lhs: object
    rhs: object


@dataclass(frozen=True)
class Pow:
    base: object
    exp: int


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
        node = self.parse_term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                node = BinOp(val, node, self.parse_term())
            else:
                return node

    def parse_term(self):
        node = self.parse_factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.next()
                node = BinOp("*", node, self.parse_factor())
            elif kind in ("ident", "num") or (kind == "op" and val == "("):
                node = BinOp("*", node, self.parse_factor())
            else:
                return node

    def parse_factor(self):
        node = self.parse_atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.next()
            k2, v2, pos = self.next()
            if k2 != "num":
                raise ParseError("exponent must be a nonnegative integer", pos)
            node = Pow(node, v2)
        return node

    def parse_atom(self):
        kind, val, pos = self.next()
        if kind == "ident":
            if val not in ATOM_WEIGHTS:
                raise ParseError(f"unknown generator {val!r}", pos)
            return Name(val)
        if kind == "num":
            return Num(val)
        if kind == "op" and val == "(":
            node = self.parse_expr()
            self.expect_op(")")
            return node
        raise ParseError(f"unexpected token {val!r}", pos)


def parse(text):
    """Parse an expression; syntax errors carry the offending position."""
    p = _Parser(tokenize(text))
    node = p.parse_expr()
    kind, val, pos = p.peek()
    if kind != "end":
        raise ParseError(f"trailing input {val!r}", pos)
    weight(node)
    return node


def weight(node):
    """The (even) weight of the expression; mismatched sums raise."""
    if isinstance(node, Name):
        return ATOM_WEIGHTS[node.name]
    if isinstance(node, Num):
        return 0
    if isinstance(node, Pow):
        return weight(node.base) * node.exp
    if node.op == "*":
        return weight(node.lhs) + weight(node.rhs)
    wl, wr = weight(node.lhs), weight(node.rhs)
    if wl != wr:
        raise WeightMismatchError(f"weight mismatch in {node.op!r}: {wl} vs {wr}")
    return wl


def _level(node):
    if isinstance(node, (Name, Num)):
        return 3
    if isinstance(node, Pow):
        return 2
    return 1 if node.op in "+-" else 2 if node.op == "*" else 1


def to_text(node):
    """Canonical rendering; parse(to_text(e)) == e."""
    if isinstance(node, Name):
        return node.name
    if isinstance(node, Num):
        return str(node.value)
    if isinstance(node, Pow):
        base = to_text(node.base)
        if _level(node.base) < 3:
            base = f"({base})"
        return f"{base}^{node.exp}"
    l, r = to_text(node.lhs), to_text(node.rhs)
    if node.op == "*":
        if _level(node.lhs) < 2:
            l = f"({l})"
        # parenthesize same-level right children so the tree shape survives
        if _level(node.rhs) < 2 or (isinstance(node.rhs, BinOp) and node.rhs.op == "*"):
            r = f"({r})"
        return f"{l}*{r}"
    if _level(node.rhs) <= 1:
        r = f"({r})"
    return f"{l} {node.op} {r}"


def evaluate(node, ctx):
    """Evaluate over a GeneratorContext; the result carries the tree's weight,
    which every node builds its form with."""
    return _eval(node, ctx)


def _eval(node, ctx):
    if isinstance(node, Name):
        return ctx.generator(node.name)
    if isinstance(node, Num):
        return ctx.constant(node.value)
    if isinstance(node, Pow):
        if node.exp == 0:
            return ctx.constant(1)
        base = _eval(node.base, ctx)
        out = base
        for _ in range(node.exp - 1):
            out = siegel_mul(out, base)
        return out
    lhs = _eval(node.lhs, ctx)
    rhs = _eval(node.rhs, ctx)
    if node.op == "+":
        return lhs + rhs
    if node.op == "-":
        return lhs - rhs
    if isinstance(node.lhs, Num):
        return rhs.scale(node.lhs.value)
    if isinstance(node.rhs, Num):
        return lhs.scale(node.rhs.value)
    return siegel_mul(lhs, rhs)
