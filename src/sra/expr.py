"""Recursive-descent parser and canonical printer for the expressions of
GRAMMAR (error positions are 1-based).  The lexer is `sra.scalar.tokenize`,
shared with the cyclotomic literals; the printer writes the grammar through
the renderer of `sra.scalar`, and parsing its output returns the element.
"""

from __future__ import annotations

from .scalar import (EXPR_DEPTH_CAP, Cyclotomic, ParseError, join_signed, render_eta,
                     render_monomial, render_term, tokenize)
from .algebra import Algebra, AlgebraElement

GRAMMAR = f"""\
  expr  := term (('+' | '-') term)*
  term  := unary ('*' unary)*
  unary := '-'* power
  power := atom ('^' NAT)?
  atom  := RATIONAL | 'z' | 'e' | 'a'<i> | 'g'<i> | 'eta'<i> | '(' expr ')'

z is the session root of unity zeta_m, e the group identity, a<i> the
generators a1 .. a2N (1-based), g<i> the group generators as listed in the
group file (0-based), eta<i> the deformation parameters (0-based), rationals
like 3/2.  Multiplication is always explicit, exponents are nonnegative
integers, and parentheses nest at most {EXPR_DEPTH_CAP} deep."""


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


def print_element(f: AlgebraElement) -> str:
    """Canonical rendering; parse(print_element(f)) == f.  Beyond the rules of
    `render_term`, a coefficient -1 stays written before a monomial and a
    constant sum keeps its parentheses, bytes that the normal-order digests
    of the benchmark fix."""
    group = f.algebra.group
    bits = []
    for gk, exp, coeff in f.monomials():
        factor = "*".join(filter(None, (render_monomial("a", exp, 1),
                                       "*".join(f"g{i}" for i in group.elements[gk].word))))
        text, is_sum = render_eta(coeff)
        if text == "-1" and factor:
            bits.append(f"-1*{factor}")
        elif is_sum and not factor:
            bits.append(f"({text})")
        else:
            bits.append(render_term((text, is_sum), factor)[0])
    return join_signed(bits)
