"""Recursive-descent parser and canonical printer for algebra expressions.

Grammar (positions in errors are 1-based):

    expr   := term (('+' | '-') term)*
    term   := unary ('*' unary)*
    unary  := '-'* power
    power  := atom ('^' NAT)?
    atom   := RATIONAL | 'z' | 'e' | 'a'<i> | 'g'<i> | 'eta'<i> | '(' expr ')'

`z` is the session root of unity zeta_m, `e` the group identity, `a<i>` the
generators a_1 .. a_2N (1-based), `g<i>` the group generators as listed in
the group file (0-based), `eta<i>` the deformation parameters (0-based).
Multiplication is always explicit; exponents are nonnegative integer
literals, and parentheses nest at most EXPR_DEPTH_CAP deep.  The lexer is
`sra.scalar.tokenize`, shared with the cyclotomic literals.  The printer
emits the same grammar, and parsing its output returns the original element.
"""

from __future__ import annotations

import re

from .scalar import (EXPR_DEPTH_CAP, Cyclotomic, EtaPolynomial, ParseError, join_signed,
                     literal, tokenize)
from .algebra import Algebra, AlgebraElement


class _Parser:
    """Builds the AST as nested tuples, validating indices against the group.
    A chain of '+'/'-' is one flat ('sum', first, ((op, term), ...)) node and
    a chain of '*' one ('prod', (factor, ...)) node, so the tree is only as
    deep as the parentheses, which EXPR_DEPTH_CAP bounds."""

    def __init__(self, text: str, algebra: Algebra):
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0
        self.depth = 0
        self.algebra = algebra

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def at_op(self, ops: str) -> bool:
        kind, val, _ = self.peek()
        return kind == "op" and val in ops

    def parse(self):
        node = self.expr()
        kind, _, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {self.text[pos - 1:]!r}", pos)
        return node

    def expr(self):
        first, rest = self.term(), []
        while self.at_op("+-"):
            rest.append((self.advance()[1], self.term()))
        return ("sum", first, tuple(rest)) if rest else first

    def term(self):
        factors = [self.unary()]
        while self.at_op("*"):
            self.advance()
            factors.append(self.unary())
        return ("prod", tuple(factors)) if len(factors) > 1 else factors[0]

    def unary(self):
        negate = False
        while self.at_op("-"):
            self.advance()
            negate = not negate
        node = self.power()
        return ("neg", node) if negate else node

    def power(self):
        node = self.atom()
        if self.at_op("^"):
            self.advance()
            kind, val, pos = self.peek()
            if kind == "op" and val == "-":
                raise ParseError("exponent must be a nonnegative integer", pos)
            if kind != "number" or val.denominator != 1:
                raise ParseError("expected integer exponent", pos)
            self.advance()
            node = ("pow", node, int(val))
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
            self.depth += 1
            if self.depth > EXPR_DEPTH_CAP:
                raise ParseError(f"parentheses nested deeper than {EXPR_DEPTH_CAP}", pos)
            node = self.expr()
            kind, val, pos = self.advance()
            if kind != "op" or val != ")":
                raise ParseError("expected ')'", pos)
            self.depth -= 1
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
    if kind == "sum":
        acc = eval_ast(node[1], algebra)
        for op, term in node[2]:
            value = eval_ast(term, algebra)
            acc = acc + value if op == "+" else acc - value
        return acc
    if kind == "prod":
        acc = eval_ast(node[1][0], algebra)
        for factor in node[1][1:]:
            acc = acc * eval_ast(factor, algebra)
        return acc
    if kind == "neg":
        return -eval_ast(node[1], algebra)
    if kind == "pow":
        return eval_ast(node[1], algebra) ** node[2]
    raise AssertionError(f"unhandled AST node {kind!r}")


def parse(text: str, algebra: Algebra) -> AlgebraElement:
    """Parse an expression into normal form; raises ParseError with a 1-based
    position on any lexical, symbol, range, exponent or nesting problem,
    before any arithmetic runs."""
    return eval_ast(_Parser(text, algebra).parse(), algebra)


# -- canonical printer ---------------------------------------------------------


def _cyclotomic_expr(c: Cyclotomic) -> str:
    """Render a cyclotomic in the expression grammar: its literal, with a unit
    coefficient before a power of zeta dropped and zeta^1 written as z."""
    return re.sub(r"(?<![\d/])1\*(?=z)|(?<=z)\^1\b", "", literal(c))


def _is_sum(text: str) -> bool:
    return " + " in text or " - " in text


def _eta_poly_expr(p: EtaPolynomial) -> tuple[str, bool]:
    """Render an eta-polynomial; second value says whether it is a sum that
    needs parentheses inside a product."""
    bits = []
    for e, c in p.sorted_terms():
        mono = "*".join(f"eta{i}^{k}" if k > 1 else f"eta{i}"
                        for i, k in enumerate(e) if k)
        cyc = _cyclotomic_expr(c)
        if mono:
            factor = f"({cyc})" if _is_sum(cyc) else cyc
            if factor == "1":
                bits.append(mono)
            elif factor == "-1":
                bits.append("-" + mono)
            else:
                bits.append(f"{factor}*{mono}")
        else:
            bits.append(cyc)
    out = join_signed(bits)
    return out, _is_sum(out)


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
    return join_signed(bits)
