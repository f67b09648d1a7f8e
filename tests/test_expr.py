import random
from fractions import Fraction

import pytest

import sra
import sra.scalar
from conftest import eta_const, eta_var, trace_value
from sra.scalar import (EXPR_DEPTH_CAP, CapExceededError, Cyclotomic, EtaPolynomial,
                        eta_unit, parse_literal, render_eta)
from sra.group import cyclic_sp2, dihedral, doubled_coxeter
from sra.algebra import Algebra
from sra.expr import ParseError, _Parser, parse, print_element, tokenize
from sra.traces import TraceValue, format_trace_value


@pytest.fixture(scope="module")
def z2():
    return Algebra(cyclic_sp2(2))


@pytest.fixture(scope="module")
def b2():
    return Algebra(doubled_coxeter("B", 2))


@pytest.fixture(scope="module")
def d5():
    return Algebra(dihedral(5))


def test_tokens():
    toks = tokenize("a1*eta0 + 3/2*z^2 - g0")
    kinds = [t[0] for t in toks]
    assert kinds == ["a", "op", "eta", "op", "number", "op", "z", "op", "number",
                     "op", "g", "end"]
    with pytest.raises(ParseError):
        tokenize("a1 $ a2")
    with pytest.raises(ParseError):
        tokenize("foo1")
    with pytest.raises(ParseError, match="zero denominator at position 3"):
        tokenize("1/0")


def test_one_lexer_for_literals_and_expressions():
    assert tokenize is sra.scalar.tokenize
    assert ParseError is sra.ParseError is sra.scalar.ParseError
    # digits alone lex to an int, a fraction to a Fraction
    assert [t[1] for t in tokenize("2 4/2")[:2]] == [2, Fraction(2)]
    assert type(tokenize("2")[0][1]) is int


def test_chains_parse_flat(z2):
    assert _Parser("1 - 2 + a1", z2).parse() == (
        "sum", ("num", 1), (("-", ("num", 2)), ("+", ("gen", 0))))
    assert _Parser("a1*a2*2", z2).parse() == ("prod", (("gen", 0), ("gen", 1), ("num", 2)))
    assert _Parser("---a1", z2).parse() == ("neg", ("gen", 0))
    assert _Parser("--(a1)", z2).parse() == ("gen", 0)


def test_nesting_cap(z2):
    # every operator at every level of the deepest nesting allowed
    text = "a1"
    for _ in range(EXPR_DEPTH_CAP):
        text = f"-({text})^1*1 + 1"
    assert parse(text, z2) == parse("a1", z2)
    deeper = "(" * (EXPR_DEPTH_CAP + 1) + "1" + ")" * (EXPR_DEPTH_CAP + 1)
    with pytest.raises(ParseError, match=f"nested deeper than {EXPR_DEPTH_CAP}"):
        parse(deeper, z2)
    # the cap is checked before any arithmetic: the power cap is never reached
    with pytest.raises(ParseError):
        parse("a1^99999999999 + " + deeper, z2)
    with pytest.raises(CapExceededError):
        parse("a1^99999999999 + (1)", z2)


def test_trailing_input_is_named(z2):
    with pytest.raises(ParseError) as e:
        parse("2z", z2)
    assert str(e.value) == "unexpected trailing input 'z' at position 2"


def test_parse_basic(z2):
    f = parse("a1*a2*g0 + 3/2", z2)
    sigma = z2.group.generator_keys[0]
    expected = z2.generator(0) * z2.generator(1) * z2.group_element(sigma) \
        + z2.scalar(Fraction(3, 2))
    assert f == expected
    assert len(f.terms) == 2


def test_parse_matches_multiply_example(z2):
    # a2*a1 normal-orders to a1 a2 - 1 - eta sigma
    f = parse("a2*a1", z2)
    sigma = z2.group.generator_keys[0]
    expected = z2.generator(0) * z2.generator(1) - z2.one() \
        - z2.eta_scalar(0) * z2.group_element(sigma)
    assert f == expected


def test_parse_precedence(z2):
    # ^ binds tighter than unary -, which binds tighter than *
    f = parse("-a1^2*a2", z2)
    assert f == -(z2.generator(0) ** 2 * z2.generator(1))
    g = parse("2 - 3*a1*a2", z2)
    assert g == z2.scalar(2) - (z2.generator(0) * z2.generator(1)).scaled(3)
    h = parse("(1 + eta0)*e", z2)
    assert h == z2.one() + z2.eta_scalar(0)


def test_parse_z_and_pow(z2):
    f = parse("z^2", z2)
    assert f == z2.scalar(Cyclotomic.root_of_unity(2, 2))
    assert parse("a1^0", z2) == z2.one()


def test_parse_errors(z2):
    with pytest.raises(ParseError) as e:
        parse("a3", z2)
    assert e.value.position == 1
    with pytest.raises(ParseError):
        parse("a1^-2", z2)
    with pytest.raises(ParseError):
        parse("a1^(2)", z2)
    with pytest.raises(ParseError):
        parse("eta5", z2)
    with pytest.raises(ParseError):
        parse("g7", z2)
    with pytest.raises(ParseError):
        parse("a1 + ", z2)
    with pytest.raises(ParseError):
        parse("(a1", z2)
    with pytest.raises(ParseError):
        parse("a1 a2", z2)


def test_unit_powers_of_zeta_print_bare():
    z5 = Algebra(cyclic_sp2(5))
    f = parse("z*a1 - z^3*a2 + 1/2*z^2*e", z5)
    text = print_element(f)
    assert text == "1/2*z^2 - z^3*a2 + z*a1"
    assert parse(text, z5) == f


def test_trace_values_join_signed_terms():
    eta = [eta_var(i, 2, 1) for i in range(2)]
    assert format_trace_value(trace_value(2, {0: -eta[1], 1: -eta[0]})) == "-eta1*P0 - eta0*P1"
    assert format_trace_value(TraceValue(2, 2, {})) == "0"
    # one eta-term whose cyclotomic coefficient is a sum: one pair of parentheses
    coeff = parse_literal("-3/2 - 1/2*z^2 + 1/2*z^3", 10)
    p = EtaPolynomial(1, 10, {eta_unit(0, 1): coeff})
    tv = trace_value(2, {0: p, 1: p + eta_const(1, 1, 10)})
    assert format_trace_value(tv) == (
        "(-3/2 - 1/2*z^2 + 1/2*z^3)*eta0*P0 + (1 + (-3/2 - 1/2*z^2 + 1/2*z^3)*eta0)*P1")
    # the reprs print through the same renderer
    assert repr(p) == f"EtaPolynomial({render_eta(p)[0]})"
    assert repr(tv) == f"TraceValue({format_trace_value(tv)})"


def test_print_element_bytes_of_the_normal_order_digests(z2, b2):
    # the normal-order workload of bench/golden.json fixes the sha256 of these
    # strings, so a printer change fails here before it fails the golden
    assert print_element(parse("a2^3*a1^3", z2)) == (
        "-8*eta0*g0 + 2*eta0*a1*a2*g0 - eta0*a1^2*a2^2*g0 + (-6 - 2*eta0^2) + 18*a1*a2"
        " - 9*a1^2*a2^2 + a1^3*a2^3")
    assert print_element(parse("(a1+a3*g0+a2*g1)^2", b2)) == (
        "-1/2*eta1*g0*g1*g0 + a2*a3*g1*g0 + (1 - eta0)*g0 + (-1 + eta0)*g0*g1"
        " + a2*a3*g0*g1 + a1*a3*g0*g1 + eta1 + a3*a4 - 1*a3^2 - 1*a2^2 + a1^2"
        " - 1/2*eta1*g1 + 2*a2^2*g1 + 2*a1*a2*g1")


def test_positions_point_into_text(z2):
    with pytest.raises(ParseError) as e:
        parse("a1 + a9", z2)
    assert e.value.position == 6


def _random_element(alg, rng, max_degree=3):
    n = alg.group.dim
    keys = sorted(alg.group.elements)
    out = alg.zero()
    for _ in range(rng.randint(1, 3)):
        term = alg.group_element(rng.choice(keys))
        for _ in range(rng.randint(0, max_degree)):
            term = alg.generator(rng.randrange(n)) * term
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        if alg.m > 4:
            # a cyclotomic coefficient, often a sum of several powers of zeta
            c = Cyclotomic.from_rational(c, alg.m) + Cyclotomic.root_of_unity(
                alg.m, rng.randrange(alg.m))
        term = term.scaled(c)
        if alg.nvars and rng.random() < 0.5:
            term = term * alg.eta_scalar(rng.randrange(alg.nvars))
        out = out + term
    return out


@pytest.mark.parametrize("alg_name", ["z2", "b2", "d5"])
def test_round_trip(alg_name, request):
    alg = request.getfixturevalue(alg_name)
    rng = random.Random(13)
    for _ in range(20):
        f = _random_element(alg, rng)
        assert parse(print_element(f), alg) == f
    assert parse(print_element(alg.zero()), alg) == alg.zero()
    assert print_element(alg.zero()) == "0"


def test_print_uses_grammar_only(z2):
    f = parse("a2*a1 - 1/2*z*eta0*g0", z2)
    text = print_element(f)
    allowed = set("0123456789azeg()+-*/^ t")  # 'eta' letters: e,t,a
    assert set(text) <= allowed
    assert parse(text, z2) == f
