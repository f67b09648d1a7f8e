"""Recursive-descent parser and canonical printer for algebra expressions.

Grammar (positions in errors are 1-based):

    expr   := term (('+' | '-') term)*
    term   := unary ('*' unary)*
    unary  := '-' unary | power
    power  := atom ('^' NAT)?
    atom   := RATIONAL | 'z' | 'e' | 'a'<i> | 'g'<i> | 'eta'<i> | '(' expr ')'

`z` is the session root of unity zeta_m, `e` the group identity, `a<i>` the
generators a_1 .. a_2N (1-based), `g<i>` the group generators as listed in
the group file (0-based), `eta<i>` the deformation parameters (0-based).
Multiplication is always explicit; exponents are nonnegative integer
literals.  The printer emits the same grammar, and parsing its output
returns the original element.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .scalar import Cyclotomic, EtaPolynomial, literal
from .algebra import Algebra, AlgebraElement


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.message = message
        self.position = position


_OPS = set("+-*^()")


def tokenize(text: str):
    """Tokens are (kind, value, 1-based position)."""
    out = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        pos = i + 1
        if c in _OPS:
            out.append(("op", c, pos))
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == "/":
                k = j + 1
                while k < n and text[k].isdigit():
                    k += 1
                if k == j + 1:
                    raise ParseError("expected denominator digits", j + 2)
                out.append(("number", Fraction(text[i:k]), pos))
                i = k
            else:
                out.append(("number", Fraction(text[i:j]), pos))
                i = j
            continue
        if c.isalpha():
            j = i
            while j < n and text[j].isalpha():
                j += 1
            name = text[i:j]
            k = j
            while k < n and text[k].isdigit():
                k += 1
            index = text[j:k]
            if name in ("a", "g", "eta") and index:
                out.append((name, int(index), pos))
                i = k
                continue
            if name in ("z", "e") and not index:
                out.append((name, None, pos))
                i = j
                continue
            raise ParseError(f"unknown symbol {text[i:k]!r}", pos)
        raise ParseError(f"unexpected character {c!r}", pos)
    out.append(("end", None, n + 1))
    return out


class _Parser:
    """Builds the AST as nested tuples, validating indices against the group."""

    def __init__(self, text: str, algebra: Algebra):
        self.tokens = tokenize(text)
        self.pos = 0
        self.algebra = algebra

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.peek()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", pos)
        return self.advance()

    def parse(self):
        node = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {val!r}", pos)
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                rhs = self.term()
                node = ("add" if val == "+" else "sub", node, rhs)
            else:
                return node

    def term(self):
        node = self.unary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.advance()
                node = ("mul", node, self.unary())
            else:
                return node

    def unary(self):
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            return ("neg", self.unary())
        return self.power()

    def power(self):
        node = self.atom()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            kind2, val2, pos2 = self.peek()
            if kind2 == "op" and val2 == "-":
                raise ParseError("exponent must be a nonnegative integer", pos2)
            if kind2 != "number" or val2.denominator != 1:
                raise ParseError("expected integer exponent", pos2)
            self.advance()
            node = ("pow", node, int(val2))
        return node

    def atom(self):
        kind, val, pos = self.advance()
        alg = self.algebra
        if kind == "number":
            return ("num", val)
        if kind == "z":
            return ("z",)
        if kind == "e":
            return ("grp_ident",)
        if kind == "a":
            if not 1 <= val <= alg.group.dim:
                raise ParseError(
                    f"generator a{val} out of range 1..{alg.group.dim}", pos)
            return ("gen", val - 1)
        if kind == "g":
            if not 0 <= val < len(alg.group.generator_keys):
                raise ParseError(
                    f"group generator g{val} out of range 0..{len(alg.group.generator_keys) - 1}",
                    pos)
            return ("grp", val)
        if kind == "eta":
            if not 0 <= val < alg.nvars:
                raise ParseError(
                    f"eta{val} out of range: group has {alg.nvars} reflection classes", pos)
            return ("eta", val)
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError("expected a value", pos)


def eval_ast(node, algebra: Algebra) -> AlgebraElement:
    kind = node[0]
    if kind == "num":
        return algebra.scalar(node[1])
    if kind == "z":
        return algebra.scalar(Cyclotomic.root_of_unity(algebra.m))
    if kind == "grp_ident":
        return algebra.one()
    if kind == "gen":
        return algebra.generator(node[1])
    if kind == "grp":
        return algebra.group_element(algebra.group.generator_keys[node[1]])
    if kind == "eta":
        return algebra.eta_scalar(node[1])
    if kind == "add":
        return eval_ast(node[1], algebra) + eval_ast(node[2], algebra)
    if kind == "sub":
        return eval_ast(node[1], algebra) - eval_ast(node[2], algebra)
    if kind == "mul":
        return eval_ast(node[1], algebra) * eval_ast(node[2], algebra)
    if kind == "neg":
        return -eval_ast(node[1], algebra)
    if kind == "pow":
        return eval_ast(node[1], algebra) ** node[2]
    raise AssertionError(f"unhandled AST node {kind!r}")


def parse(text: str, algebra: Algebra) -> AlgebraElement:
    """Parse an expression into normal form; raises ParseError with a 1-based
    position on any lexical, symbol, range, or exponent problem."""
    return eval_ast(_Parser(text, algebra).parse(), algebra)


# -- canonical printer ---------------------------------------------------------


def _cyclotomic_expr(c: Cyclotomic) -> str:
    """Render a cyclotomic in the expression grammar: its literal, with the
    first power of zeta written as a bare z."""
    return re.sub(r"z\^1\b", "z", literal(c))


def _eta_poly_expr(p: EtaPolynomial) -> tuple[str, bool]:
    """Render an eta-polynomial; second value says whether it is a sum that
    needs parentheses inside a product."""
    if p.is_zero():
        return "0", False
    bits = []
    for e, c in p.sorted_terms():
        mono = "*".join(f"eta{i}^{k}" if k > 1 else f"eta{i}"
                        for i, k in enumerate(e) if k)
        cyc = _cyclotomic_expr(c)
        cyc_is_sum = " + " in cyc or " - " in cyc
        if mono:
            factor = f"({cyc})" if cyc_is_sum else cyc
            if factor == "1":
                bits.append(mono)
            elif factor == "-1":
                bits.append("-" + mono)
            else:
                bits.append(f"{factor}*{mono}")
        else:
            bits.append(cyc)
    out = bits[0]
    for b in bits[1:]:
        out += " + " + b if not b.startswith("-") else " - " + b[1:]
    return out, (len(bits) > 1 or (" + " in bits[0] or " - " in bits[0]))


def print_element(f: AlgebraElement) -> str:
    """Canonical rendering; parse(print_element(f)) == f."""
    alg = f.algebra
    group = alg.group
    bits = []
    for gk, exp, coeff in f.monomials():
        mono = "*".join(f"a{i + 1}^{k}" if k > 1 else f"a{i + 1}"
                        for i, k in enumerate(exp) if k)
        word = group.elements[gk].word
        gstr = "*".join(f"g{i}" for i in word) if word else ""
        coeff_str, needs_parens = _eta_poly_expr(coeff)
        factors = []
        if coeff_str not in ("1",) or (not mono and not gstr):
            factors.append(f"({coeff_str})" if needs_parens else coeff_str)
        if mono:
            factors.append(mono)
        if gstr:
            factors.append(gstr)
        bits.append("*".join(factors))
    if not bits:
        return "0"
    out = bits[0]
    for b in bits[1:]:
        if b.startswith("-"):
            out += " - " + b[1:]
        else:
            out += " + " + b
    return out
