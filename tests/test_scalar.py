import operator
import random
import time
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import eta_const, eta_var
from sra.scalar import (
    ETA_DEGREE_CAP,
    FIELD_DEGREE_CAP,
    PRODUCT_KERNEL_CUTOFF,
    RATIONAL_EXPONENT_CAP,
    CapExceededError,
    Cyclotomic,
    EtaPolynomial,
    _context,
    _divisors_of,
    _zeta_substitute,
    add_maps,
    add_product,
    cyclotomic_polynomial,
    eta_degree,
    eta_pack,
    eta_unit,
    eta_unpack,
    literal,
    parse_literal,
    parse_rational,
    settle,
)
from sra.traces import TraceValue

# the tokens the literal fuzz draws: pieces of the grammar and of near misses
_LITERAL_TOKENS = ["z", "^", "*", "+", "-", "0", "1", "2", "1/2", "3/4", "1/0", "z^2", "2z",
                   "a1", "e", "(", ")", "/", "65", str(10 ** 12)]


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_field_degree_cap():
    # phi(257) = 256 is the largest degree allowed; phi(263) = 262 is over it,
    # and an order past 2 * 256^2 is refused without being factored
    assert len(cyclotomic_polynomial(257)) - 1 == FIELD_DEGREE_CAP
    for m in (263, 100_000, (10**30 + 57) * (10**30 + 91)):
        with pytest.raises(CapExceededError, match=f"cyclotomic order {m} exceeds"):
            cyclotomic_polynomial(m)


def power_sum(coeffs: dict, m: int) -> Cyclotomic:
    """sum_k c_k zeta_m^k, built from canonical powers of zeta_m."""
    return sum((Cyclotomic.from_rational(Fraction(c), m) * Cyclotomic.root_of_unity(m, k)
                for k, c in coeffs.items()),
               Cyclotomic.zero(m))


def test_normalize_power_sums():
    for m in (1, 2, 3, 4, 5, 6, 12):
        # zeta^m folds to 1, through the literal parser and through the powers
        assert parse_literal(f"1*z^{m}", m) == Cyclotomic.one(m)
        assert Cyclotomic.root_of_unity(m, m) == Cyclotomic.one(m)
        assert Cyclotomic.root_of_unity(m, 2 * m + 1) == Cyclotomic.root_of_unity(m, 1)
    # Phi_4 = x^2 + 1 forces zeta^2 = -1
    assert parse_literal("z^2", 4) == Cyclotomic.from_rational(-1, 4)
    # 1 + zeta + zeta^2 = 0 for m = 3
    assert parse_literal("1 + z + z^2", 3).is_zero()
    assert power_sum({0: 1, 1: 1, 2: 1}, 3).is_zero()


def test_normalize_idempotent_and_additive():
    m = 12
    x = parse_literal("1/2 - 2/3*z^5 + 7*z^11", m)
    assert x == power_sum({0: Fraction(1, 2), 5: Fraction(-2, 3), 11: 7}, m)
    again = power_sum({j: Fraction(c, x.den) for j, c in enumerate(x.num)}, m)
    assert again == x
    a = power_sum({1: 1, 7: 2}, m)
    b = power_sum({1: 3, 4: -1}, m)
    assert a + b == power_sum({1: 4, 7: 2, 4: -1}, m)


def test_inverse_examples():
    for m in (3, 4, 5, 12):
        z = Cyclotomic.root_of_unity(m)
        assert z.inverse() == Cyclotomic.root_of_unity(m, m - 1)
    two = Cyclotomic.from_rational(2, 6)
    assert two.inverse() == Cyclotomic.from_rational(Fraction(1, 2), 6)
    # (1 - zeta_4)^(-1) = 1/2 + 1/2 zeta_4
    x = Cyclotomic.one(4) - Cyclotomic.root_of_unity(4)
    assert x.inverse() == parse_literal("1/2 + 1/2*z", 4)
    with pytest.raises(ZeroDivisionError):
        Cyclotomic.zero(4).inverse()


@pytest.mark.parametrize("m", [5, 12, 24, 60, 200])
def test_inverse_of_random_elements(m):
    rng = random.Random(m)
    deg = len(cyclotomic_polynomial(m)) - 1
    samples = []
    for _ in range(12):
        nums = [rng.randint(-9, 9) for _ in range(deg)]
        # sparse elements too: most coordinates zero, as in the group matrices
        if rng.random() < 0.5:
            nums = [c if rng.random() < 0.1 else 0 for c in nums]
        x = Cyclotomic(m, tuple(nums), rng.randint(1, 9))
        if not x.is_zero():
            samples.append(x)
    samples.append(Cyclotomic.one(m) - Cyclotomic.root_of_unity(m, 1))
    for x in samples:
        inv = x.inverse()
        assert x * inv == Cyclotomic.one(m)
        assert inv == Cyclotomic(m, inv.num, inv.den)   # canonical
        assert inv.inverse() == x


def test_inverse_refuses_a_cofactor_of_degree_phi(monkeypatch):
    # the inverse is built from the cofactor as canonical coordinates, with no
    # fold mod Phi_m, so a cofactor of degree >= phi(m) must raise, not fold
    import sra.scalar

    x = Cyclotomic.root_of_unity(5, 1)
    monkeypatch.setattr(sra.scalar, "_inverse_mod", lambda a, modulus: ([0, 0, 0, 0, 1], 1))
    with pytest.raises(ArithmeticError, match="cofactor of degree 4"):
        x.inverse()


def test_embed():
    z3 = Cyclotomic.root_of_unity(3)
    z12 = Cyclotomic.root_of_unity(12)
    assert z3.embed(12) == z12 ** 4
    half = Cyclotomic.from_rational(Fraction(1, 2), 1)
    assert half.embed(60).as_rational() == Fraction(1, 2)
    with pytest.raises(ValueError):
        z3.embed(4)


def _cyc(m):
    deg = len(cyclotomic_polynomial(m)) - 1
    return st.builds(
        lambda nums, den: Cyclotomic(m, tuple(nums), den),
        st.lists(st.integers(-9, 9), min_size=deg, max_size=deg),
        st.integers(1, 9),
    )


def _naive_times(m: int, x, y) -> list[int]:
    """The polynomial product of two coordinate vectors of Q(zeta_m), its
    remainder by long division by Phi_m."""
    phi = cyclotomic_polynomial(m)
    deg = len(phi) - 1
    rem = [0] * (2 * deg - 1)
    for i, a in enumerate(x):
        if a:
            for j, b in enumerate(y):
                rem[i + j] += a * b
    for top in range(len(rem) - 1, deg - 1, -1):
        c = rem[top]
        for i in range(deg + 1):
            rem[top - deg + i] -= c * phi[i]
    return rem[:deg]


def _reference_product(a: Cyclotomic, b: Cyclotomic) -> tuple[tuple[int, ...], int]:
    """(num, den) of a b the slow way: _naive_times, then the gcd of the
    denominator with every coordinate divided out."""
    num, den = _naive_times(a.m, a.num, b.num), a.den * b.den
    g = gcd(den, *num)
    return tuple(x // g for x in num), den // g


@st.composite
def _operand_pairs(draw):
    """(a, b) in one Q(zeta_m), each rational or not, built from coordinates
    over a denominator that may be negative or not 1."""
    m = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 12, 24, 60]))
    deg = len(cyclotomic_polynomial(m)) - 1

    def operand():
        nums = draw(st.lists(st.integers(-50, 50), min_size=deg, max_size=deg))
        if draw(st.booleans()):
            nums[1:] = [0] * (deg - 1)
        den = draw(st.integers(-12, 12).filter(bool))
        return Cyclotomic(m, tuple(nums), den)

    return operand(), operand()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_operand_pairs())
def test_product_matches_the_reference(pair):
    a, b = pair
    got = a * b
    assert (got.num, got.den) == _reference_product(a, b)
    assert got.den > 0
    assert gcd(got.den, *got.num) == 1
    assert b * a == got


# orders on both sides of PRODUCT_KERNEL_CUTOFF (phi = 16 at 60, 18 at 27);
# Phi_105 has a coefficient -2, and 257 and 512 reach FIELD_DEGREE_CAP
_KERNEL_ORDERS = [1, 2, 3, 4, 12, 27, 60, 64, 105, 128, 257, 512]


def _coordinates(deg: int):
    """A coordinate vector of length deg: zero, a monomial, or dense."""
    return st.one_of(
        st.just((0,) * deg),
        st.builds(lambda k, c: tuple(c if i == k else 0 for i in range(deg)),
                  st.integers(0, deg - 1), st.integers(-10 ** 20, 10 ** 20).filter(bool)),
        st.lists(st.integers(-10 ** 20, 10 ** 20), min_size=deg, max_size=deg).map(tuple))


@pytest.mark.parametrize("m", _KERNEL_ORDERS)
@settings(max_examples=10, deadline=None, derandomize=True)
@given(data=st.data())
def test_coordinate_kernels_match_the_plain_code(m, data):
    # each kernel of the order against the plain code: the naive product
    # reduced mod Phi_m, then the gcd, for mul; the integer sums over the
    # product of the denominators, and over their lcm, for add_product; on
    # drawn operands and on a rational, a zero, a monomial and a dense one,
    # in both orders.  The product is unrolled up to the cutoff only
    ctx = _context(m)
    deg = len(cyclotomic_polynomial(m)) - 1
    assert (ctx.times == ctx._times) == (deg > PRODUCT_KERNEL_CUTOFF)
    kinds = [(5,) + (0,) * (deg - 1), (0,) * deg, (0,) * (deg - 1) + (-7,),
             tuple(range(1, deg + 1))]
    x, y, z = (data.draw(_coordinates(deg)) for _ in range(3))
    da, db = data.draw(st.integers(1, 10 ** 6)), data.draw(st.integers(1, 10 ** 6))
    # c's denominator differs from b's, so a c adds over the lcm
    dc = db + data.draw(st.integers(1, 10 ** 6))
    c = Cyclotomic(m, z, dc)
    for u, v in [(x, y)] + [(k, y) for k in kinds] + [(x, k) for k in kinds]:
        assert list(ctx.times(u, v)) == _naive_times(m, u, v)
        a, b = Cyclotomic(m, u, da), Cyclotomic(m, v, db)
        for p, q in ((a, b), (b, a)):
            assert ctx.mul(p, q) == Cyclotomic(m, tuple(_naive_times(m, p.num, q.num)),
                                               p.den * q.den)
        # two adds over one denominator, then two over another
        partial: dict = {}
        for p, q in ((a, b), (b, a), (a, c), (c, a)):
            ctx.add_product(partial, "k", p, q)
        ab, ac = _naive_times(m, a.num, b.num), _naive_times(m, a.num, c.num)
        d1, d2 = a.den * b.den, a.den * c.den
        d = lcm(d1, d2)
        assert list(partial["k"][0]) == [2 * s * (d // d1) + 2 * t * (d // d2)
                                         for s, t in zip(ab, ac)]
        assert partial["k"][1] == d
        partial = {}
        for p, q in ((a, b), (b, a), (a, b)):
            ctx.add_product(partial, "k", p, q)
        assert list(partial["k"][0]) == [3 * s for s in ab] and partial["k"][1] == d1
    # the early exits return an operand itself; the right operand is tested
    # for rationality first, so one * a scales a rational a
    for a in (Cyclotomic(m, x, da), Cyclotomic(m, kinds[-1], da)):
        assert a * ctx.zero is ctx.zero and a * ctx.one is a
        if not a.is_rational():
            assert ctx.zero * a is ctx.zero and ctx.one * a is a


@settings(max_examples=60, deadline=None)
@given(_cyc(12), _cyc(12), _cyc(12))
def test_field_axioms(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    if not a.is_zero():
        assert a * a.inverse() == Cyclotomic.one(12)


@settings(max_examples=40, deadline=None)
@given(_cyc(5))
def test_literal_round_trip(x):
    assert parse_literal(literal(x), 5) == x


def test_literal_forms():
    m = 6
    assert parse_literal("1/2 + 1/2*z^3", m) == power_sum({0: Fraction(1, 2), 3: Fraction(1, 2)}, m)
    assert parse_literal("-2", m) == Cyclotomic.from_rational(-2, m)
    assert parse_literal("0", m).is_zero()
    assert parse_literal("3*z", m) == Cyclotomic.from_rational(3, m) * Cyclotomic.root_of_unity(m)
    with pytest.raises(ValueError):
        parse_literal("1 + + 2", m)
    with pytest.raises(ValueError):
        parse_literal("z^", m)


@pytest.mark.parametrize("text, value", [
    ("1/2 + 1/2*z^3", {0: Fraction(1, 2), 3: Fraction(1, 2)}),
    ("-z", {1: -1}),
    ("z^2", {2: 1}),
    ("2z", {1: 2}),
    ("3*z", {1: 3}),
    ("0", {}),
])
def test_literal_accepts(text, value):
    assert parse_literal(text, 6) == power_sum(value, 6)


@pytest.mark.parametrize("text", ["", "1 + + 2", "z^", "z2", "z^-1", "a1"])
def test_literal_rejects(text):
    with pytest.raises(ValueError):
        parse_literal(text, 6)


@pytest.mark.parametrize("text, value", [
    ("3/2", Fraction(3, 2)), ("-1/2", Fraction(-1, 2)), (" 0 ", Fraction(0)),
    ("1.5", Fraction(3, 2)), ("1.", Fraction(1)),
    ("1_000", Fraction(1000)), ("1e-3", Fraction(1, 1000)), ("2.5e1", Fraction(25)),
    ("1E+999", Fraction(10 ** 999)), ("1e0_0_999", Fraction(10 ** 999)),
])
def test_rational_accepts(text, value):
    assert parse_rational("--t", text) == value


@pytest.mark.parametrize("text", ["", "1/0", "abc", "1e", "inf", "1/2/3"])
def test_rational_rejects_naming_the_option(text):
    with pytest.raises(ValueError, match="^--t needs a rational number, not "):
        parse_rational("--t", text)


@pytest.mark.parametrize("text", ["1e99999999", "-2E1000", "1e-1000", "1e" + "9" * 5000],
                         ids=["1e99999999", "-2E1000", "1e-1000", "5000-digit"])
def test_rational_refuses_a_long_exponent_fast(text):
    # Fraction("1e99999999") alone takes more than 10 s
    start = time.perf_counter()
    with pytest.raises(CapExceededError, match=f"^--t needs a rational number with an "
                       f"exponent of at most {RATIONAL_EXPONENT_CAP}, not "):
        parse_rational("--t", text)
    assert time.perf_counter() - start < 1


@settings(max_examples=300, deadline=1000, derandomize=True)
@given(st.lists(st.sampled_from(_LITERAL_TOKENS), max_size=12), st.sampled_from(["", " "]))
def test_literal_fuzz_fails_closed(tokens, sep):
    # any text is a cyclotomic or a ValueError, never another exception
    try:
        x = parse_literal(sep.join(tokens), 6)
    except ValueError:
        return
    assert parse_literal(literal(x), 6) == x


def test_eta_polynomial_partial_substitution():
    # p = 1 - eta0^2 - eta0*eta1 at eta0 = 1/2, eta1 symbolic: 3/4 - 1/2*eta1
    m = 3
    eta0, eta1 = eta_var(0, 2, m), eta_var(1, 2, m)
    p = EtaPolynomial.constant(1, 2, m) - eta0 * eta0 - eta0 * eta1
    half = Fraction(1, 2)
    assert p.substitute([half, None]) == EtaPolynomial.constant(Fraction(3, 4), 2, m) \
        - eta1 * eta_const(half, 2, m)
    assert p.substitute([None, None]) == p
    assert p.substitute([half, 2]).constant_term() == p.evaluate([half, 2]) \
        == Cyclotomic.from_rational(Fraction(-1, 4), m)
    with pytest.raises(ValueError, match="symbolic"):
        p.evaluate([half, None])
    # a point value is an int or a Fraction, as for Cyclotomic.from_rational
    for bad in (0.5, "1/2"):
        with pytest.raises(ValueError, match="takes an int or a Fraction"):
            p.substitute([bad, None])
        with pytest.raises(ValueError, match="takes an int or a Fraction"):
            p.evaluate([half, bad])


def test_eta_polynomial_basics():
    m = 1
    eta = eta_var(0, 1, m)
    one = EtaPolynomial.constant(1, 1, m)
    p = one - eta * eta
    assert p.evaluate([Fraction(1, 2)]) == Cyclotomic.from_rational(Fraction(3, 4), m)
    assert (one + eta) * (one - eta) == p
    q = eta * eta - EtaPolynomial.constant(Fraction(1, 4), 1, m)
    assert q.rational_roots() == [Fraction(-1, 2), Fraction(1, 2)]


def test_eta_polynomial_errors():
    m = 1
    two_var = eta_var(0, 2, m)
    one_var = eta_var(0, 1, m)
    with pytest.raises(ValueError):
        _ = two_var + one_var
    with pytest.raises(ValueError):
        (two_var * two_var).rational_roots()


def test_eta_root_edge_cases():
    m = 1
    eta = eta_var(0, 1, m)
    # eta^2 * (eta - 3) has roots {0, 3}
    p = eta * eta * (eta - EtaPolynomial.constant(3, 1, m))
    assert p.rational_roots() == [Fraction(0), Fraction(3)]
    # 2*eta - 1 has root 1/2
    p2 = eta + eta - EtaPolynomial.constant(1, 1, m)
    assert p2.rational_roots() == [Fraction(1, 2)]


def test_rational_roots_over_cyclotomics():
    # (eta - 2)(eta - zeta_3) = (eta^2 - 2 eta) + zeta_3 (2 - eta): the first
    # coordinate polynomial has roots 0 and 2, and only 2 is a root of both
    m = 3
    eta = eta_var(0, 1, m)
    zeta = Cyclotomic.root_of_unity(m)
    p = (eta - EtaPolynomial.constant(2, 1, m)) * (eta - eta_const(zeta, 1, m))
    assert p.rational_roots() == [Fraction(2)]
    assert (p * eta).rational_roots() == [Fraction(0), Fraction(2)]
    assert eta_const(zeta, 1, m).rational_roots() == []


def test_large_prime_factors_take_pollard_rho():
    # both primes lie beyond the trial-division bound of 100000
    p, q = 100003, 1000003
    assert _divisors_of(p * q) == [1, p, q, p * q]
    assert _divisors_of(-4 * p * q) == sorted(d * k for d in (1, p, q, p * q) for k in (1, 2, 4))
    eta = eta_var(0, 1, 1)
    poly = ((eta * eta_const(p, 1, 1) - eta_const(7, 1, 1))
            * (eta * eta_const(q, 1, 1) + eta_const(11, 1, 1)))
    assert poly.rational_roots() == [Fraction(-11, q), Fraction(7, p)]


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 7, 8, 12, 15, 24, 60])
def test_reduce_is_the_remainder_mod_phi(m):
    # x^j mod Phi_m by long division, against the table of powers of zeta
    phi = cyclotomic_polynomial(m)
    deg = len(phi) - 1
    ctx = _context(m)
    for j in range(3 * m + 5):
        rem = [0] * j + [1]
        for top in range(j, deg - 1, -1):
            c = rem[top]
            for i in range(deg + 1):
                rem[top - deg + i] -= c * phi[i]
        expected = tuple(rem[:deg]) + (0,) * max(0, deg - len(rem))
        assert tuple(_zeta_substitute([0] * j + [1], ctx, 1)) == expected, (m, j)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.tuples(st.integers(-5, 5), st.integers(0, 3)), max_size=4),
    st.lists(st.tuples(st.integers(-5, 5), st.integers(0, 3)), max_size=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
)
def test_eta_eval_is_ring_hom(ts1, ts2, pt):
    m = 4

    def build(ts):
        p = EtaPolynomial(1, m)
        for c, e in ts:
            p = p + EtaPolynomial(1, m, {eta_pack((e,)): Cyclotomic.from_rational(c, m)})
        return p

    p, q = build(ts1), build(ts2)
    assert (p * q).evaluate([pt]) == p.evaluate([pt]) * q.evaluate([pt])
    assert (p + q).evaluate([pt]) == p.evaluate([pt]) + q.evaluate([pt])


def test_exact_divide():
    m = 1
    eta = eta_var(0, 1, m)
    one = EtaPolynomial.constant(1, 1, m)
    p = (one - eta) * (one + eta) * (one + eta)
    assert p.exact_divide(one + eta) == (one - eta) * (one + eta)
    with pytest.raises(ArithmeticError):
        (eta * eta + one).exact_divide(eta)


@st.composite
def _exponent_tuples(draw):
    """(n, [e, ...]): exponent tuples of arity n = 0 ... 6, with small entries
    and entries up to 2^27, so that a sum of two stays below the guard bits."""
    n = draw(st.integers(0, 6))
    entry = st.one_of(st.integers(0, 3), st.integers(0, 2 ** 27))
    return n, draw(st.lists(st.tuples(*[entry] * n), min_size=1, max_size=8))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_exponent_tuples())
def test_packed_exponents_add_and_order_as_tuples(case):
    # unpacking gives the tuple back, the sum of packed exponents is the packed
    # sum of the tuples, and the order of the ints is grlex, (sum(e), e)
    n, exps = case
    packed = [eta_pack(e) for e in exps]
    for e, k in zip(exps, packed):
        assert eta_unpack(k, n) == e
        assert eta_degree(k, n) == sum(e)
    for e1, k1 in zip(exps, packed):
        for e2, k2 in zip(exps, packed):
            assert k1 + k2 == eta_pack(tuple(a + b for a, b in zip(e1, e2)))
    assert sorted(packed) == [eta_pack(e) for e in sorted(exps, key=lambda e: (sum(e), e))]
    for i in range(n):
        assert eta_unit(i, n) == eta_pack(tuple(int(j == i) for j in range(n)))


@pytest.mark.parametrize("num, den", [((1, 2), (0, 3)), ((2, 0), (0, 1)), ((1, 0, 2), (0, 1, 0))],
                         ids=["eta0*eta1^2/eta1^3", "eta0^2/eta1", "eta0*eta2^2/eta1"])
def test_exact_divide_refuses_a_borrow_in_one_field(num, den):
    # every other field, the total degree included, divides; only one borrows
    m = 3
    one = Cyclotomic.one(m)
    p = EtaPolynomial(len(num), m, {eta_pack(num): one})
    q = EtaPolynomial(len(num), m, {eta_pack(den): one})
    with pytest.raises(ArithmeticError, match="non-exact"):
        p.exact_divide(q)
    with pytest.raises(ArithmeticError, match="non-exact"):
        (p + q).exact_divide(q)


def test_eta_degree_cap_refuses_the_product():
    # the degree bounds every field, so the product of degrees 2^30 and 2^29
    # is refused before its keys would reach the guard bits
    m = 2
    one = Cyclotomic.one(m)
    p = EtaPolynomial(2, m, {eta_pack((2 ** 29, 0)): one})
    q = EtaPolynomial(2, m, {eta_pack((0, 2 ** 29)): one})
    top = p * q
    assert top.degree() == ETA_DEGREE_CAP
    with pytest.raises(CapExceededError, match=f"eta degree {3 * 2 ** 29} exceeds cap"):
        top * p


_DENOMINATORS = [d for d in range(-12, 13) if d]


@st.composite
def _cyclotomics(draw, m: int):
    """A value of Q(zeta_m) over a denominator +-1 ... 12, rational or not."""
    deg = len(cyclotomic_polynomial(m)) - 1
    nums = draw(st.lists(st.integers(-30, 30), min_size=deg, max_size=deg))
    if draw(st.booleans()):
        nums[1:] = [0] * (deg - 1)
    return Cyclotomic(m, tuple(nums), draw(st.sampled_from(_DENOMINATORS)))


@st.composite
def _partial_sums(draw):
    """(m, [(key, a, b), ...]): products a b added into the keys (P index,
    eta exponent) of a flat map; some adds are undone later by adding -a b,
    so that their key may cancel to zero."""
    m = draw(st.sampled_from([1, 2, 3, 4, 5, 12, 60]))
    keys = st.tuples(st.integers(0, 2), st.integers(0, 2).map(lambda e: eta_pack((e,))))
    adds = [(draw(keys), draw(_cyclotomics(m)), draw(_cyclotomics(m)))
            for _ in range(draw(st.integers(0, 12)))]
    undone = draw(st.sets(st.integers(0, len(adds) - 1))) if adds else set()
    adds.extend((adds[i][0], -adds[i][1], adds[i][2]) for i in sorted(undone))
    return m, draw(st.permutations(adds))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_partial_sums())
def test_partial_sums_settle_to_the_chained_adds(case):
    # add_product + settle against a chain of Cyclotomic.__add__ of a * b per
    # key: the same canonical values (positive denominator, content 1), and a
    # key whose sum cancelled is absent, from the settled map and the TraceValue
    m, adds = case
    partial, chained = {}, {}
    for key, a, b in adds:
        add_product(partial, key, a, b)
        chained[key] = chained.get(key, Cyclotomic.zero(m)) + a * b
    want = {key: s for key, s in chained.items() if not s.is_zero()}
    got = settle(partial, m)
    assert got == want
    for c in got.values():
        assert c.den > 0 and gcd(c.den, *c.num) == 1
    value = TraceValue(3, 1, got)
    assert {(i, e) for i, p in value.coeffs.items() for e in p.terms} == set(want)
    assert all(value.coeffs[i].terms[e] == c for (i, e), c in want.items())


@st.composite
def _settled_pairs(draw):
    """(m, sign, x, y): two settled maps over Q(zeta_m) on the keys 0 ... 3,
    where y undoes some of x's values, so that their keys cancel in
    x + sign y."""
    m = draw(st.sampled_from([1, 2, 3, 4, 5, 12, 60]))
    sign = draw(st.sampled_from([1, -1]))
    nonzero = _cyclotomics(m).filter(lambda c: not c.is_zero())
    x = draw(st.dictionaries(st.integers(0, 3), nonzero, max_size=4))
    y = draw(st.dictionaries(st.integers(0, 3), nonzero, max_size=4))
    for key in draw(st.sets(st.sampled_from(sorted(x)))) if x else ():
        y[key] = Cyclotomic.from_rational(-sign, m) * x[key]
    return m, sign, x, y


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_settled_pairs())
@example((3, 1, {"c": Cyclotomic(3, (1, 1))}, {"c": Cyclotomic.root_of_unity(3, 2),
                                                "d": Cyclotomic.one(3)}))
def test_add_maps_is_the_keywise_chained_sum(case):
    # x + sign y against a chain of Cyclotomic.__add__/__sub__ per key: the
    # same canonical values, a key that cancels is absent, and neither
    # operand changes; in the example 1 + zeta + zeta^2 = 0 in Q(zeta_3)
    m, sign, x, y = case
    before = (dict(x), dict(y))
    chained = dict(x)
    for key, c in y.items():
        s = chained.get(key, Cyclotomic.zero(m))
        chained[key] = s + c if sign == 1 else s - c
    cancelled = {key for key, c in chained.items() if c.is_zero()}
    got = add_maps(x, y, sign, m)
    assert got == {key: c for key, c in chained.items() if key not in cancelled}
    assert not cancelled & set(got)
    for c in got.values():
        assert not c.is_zero() and c.den > 0 and gcd(c.den, *c.num) == 1
    assert (x, y) == before


@st.composite
def _eta_polynomials(draw, m: int, max_terms: int):
    """A nonzero polynomial in two eta variables of degree <= 3 per variable."""
    exps = st.tuples(st.integers(0, 3), st.integers(0, 3)).map(eta_pack)
    nonzero = _cyclotomics(m).filter(lambda c: not c.is_zero())
    terms = draw(st.dictionaries(exps, nonzero, min_size=1, max_size=max_terms))
    return EtaPolynomial(2, m, terms)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from([1, 3, 4, 5, 12]).flatmap(
    lambda m: st.tuples(_eta_polynomials(m, 5), _eta_polynomials(m, 4))))
def test_exact_divide_undoes_the_product(case):
    p, q = case
    assert (p * q).exact_divide(q) == p


def test_exact_divide_drops_the_terms_that_cancel_in_the_remainder(monkeypatch):
    # (eta0 + eta1)(eta0 - eta1) / (eta0 - eta1): the second quotient term
    # adds +eta1^2 onto the remainder's -eta1^2, a key that cancels there;
    # the division adds through its order's add_product
    m = 3
    eta0, eta1 = eta_var(0, 2, m), eta_var(1, 2, m)
    z = eta_const(Cyclotomic.root_of_unity(m), 2, m)
    real, cancelled = _context(m).add_product, []

    def watching(partial, key, a, b):
        real(partial, key, a, b)
        if not any(partial[key][0]):
            cancelled.append(key)

    cases = [(p, q, p * q) for p, q in [(eta0 + eta1, eta0 - eta1),
                                         (eta0 * z + eta1, eta0 * eta1 - eta1 * eta1 * z)]]
    monkeypatch.setattr(_context(m), "add_product", watching)
    for p, q, pq in cases:
        cancelled.clear()
        assert pq.exact_divide(q) == p
        assert cancelled
    with pytest.raises(ArithmeticError):
        (eta0 * eta0 + eta1).exact_divide(eta0 - eta1)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from([1, 3, 4, 12]).flatmap(
    lambda m: st.tuples(_eta_polynomials(m, 6), _eta_polynomials(m, 1))))
def test_one_term_product_matches_the_general_path(case):
    # a product with a one-term operand, which goes through add_product like
    # every other product, against a partial-sum loop written out here
    p, t = case
    out: dict = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in t.terms.items():
            add_product(out, e1 + e2, c1, c2)
    want = EtaPolynomial(2, p.m, settle(out, p.m))
    assert p * t == want
    assert t * p == want


def test_difference_with_itself_has_no_terms():
    m = 4
    eta0, eta1 = eta_var(0, 2, m), eta_var(1, 2, m)
    f = (eta0 + eta_const(Cyclotomic.root_of_unity(m), 2, m)) * (eta0 - eta1) * eta1
    assert len(f.terms) == 4
    assert (f - f).terms == {}
    assert (f * eta_const(0, 2, m)).terms == {}
    assert (f * f).exact_divide(f) == f


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from([1, 3, 4, 12]).flatmap(
    lambda m: st.tuples(_eta_polynomials(m, 5), _eta_polynomials(m, 4),
                        st.fractions(min_value=-2, max_value=2, max_denominator=3))))
def test_eta_polynomial_results_store_no_zero_coefficient(case):
    # the constructor keeps the map it is given, so every producer must
    # hand it a settled one, cancellations included
    p, q, r = case
    results = [p + q, p - q, p - p, p + (q - p), p * q, p * (q - q), (p * q).exact_divide(q),
               p.substitute([r, None]), p.substitute([None, r]), p.substitute([r, r]),
               EtaPolynomial.constant(0, 2, p.m)]
    for res in results:
        assert not any(c.is_zero() for c in res.terms.values())
    assert (p - p).terms == {} and EtaPolynomial.constant(0, 2, p.m).terms == {}


def test_eta_polynomial_operators_take_only_eta_polynomials():
    p = eta_var(0, 1, 3)
    for other in (1, Fraction(1, 2), Cyclotomic.one(3)):
        for op in ("__add__", "__sub__", "__mul__", "__eq__"):
            assert getattr(p, op)(other) is NotImplemented
        with pytest.raises(TypeError):
            p + other
    with pytest.raises(TypeError):
        EtaPolynomial.constant(Cyclotomic.root_of_unity(3), 1, 3)


# -- the same-order fast branches of +, - and * ------------------------------

BRANCH_ORDERS = (1, 2, 3, 4, 5, 8, 12, 24, 60)


@st.composite
def _order_and_operands(draw):
    """An order m and two operands of it, each drawn as a raw (num, den)
    pair: zero, one, a rational with a unit or non-unit denominator, or an
    irrational value with a unit or non-unit denominator."""
    m = draw(st.sampled_from(BRANCH_ORDERS))
    deg = len(cyclotomic_polynomial(m)) - 1
    rest = [0] * (deg - 1)

    def operand():
        kind = draw(st.sampled_from(["zero", "one", "rational", "irrational"]))
        den = draw(st.sampled_from([1, 1, 2, 3, 6, 10]))
        if kind == "zero":
            return Cyclotomic(m, [0] * deg, den)
        if kind == "one":
            return Cyclotomic(m, [den] + rest, den)
        if kind == "rational":
            return Cyclotomic(m, [draw(st.integers(-12, 12))] + rest, den)
        return Cyclotomic(m, draw(st.lists(st.integers(-6, 6), min_size=deg, max_size=deg)), den)

    return m, operand(), operand()


def _is_canonical(x: Cyclotomic) -> bool:
    return (type(x.num) is tuple and len(x.num) == len(cyclotomic_polynomial(x.m)) - 1
            and x.den > 0 and gcd(x.den, *x.num) == 1)


def _same(x: Cyclotomic, y: Cyclotomic) -> bool:
    return (x.m, x.num, x.den) == (y.m, y.num, y.den)


@settings(max_examples=300, deadline=None)
@given(_order_and_operands())
def test_fast_branches_match_the_constructor(case):
    # each result equals the constructor's reduction of the raw numerator
    # over the product of the denominators, field by field
    m, a, b = case
    raw_sum = [x * b.den + y * a.den for x, y in zip(a.num, b.num)]
    raw_diff = [x * b.den - y * a.den for x, y in zip(a.num, b.num)]
    raw_prod = [0] * (2 * len(a.num) - 1)
    for i, x in enumerate(a.num):
        for j, y in enumerate(b.num):
            raw_prod[i + j] += x * y
    den = a.den * b.den
    for got, raw in ((a + b, raw_sum), (a - b, raw_diff), (a * b, raw_prod), (b * a, raw_prod)):
        assert _same(got, Cyclotomic(m, raw, den))
        assert _is_canonical(got)


@pytest.mark.parametrize("m", BRANCH_ORDERS)
def test_shared_zero_and_one(m):
    deg = len(cyclotomic_polynomial(m)) - 1
    zero, one = Cyclotomic.zero(m), Cyclotomic.one(m)
    assert _same(zero, Cyclotomic(m, [0] * deg, 1))
    assert _same(one, Cyclotomic(m, [1] + [0] * (deg - 1), 1))
    assert _is_canonical(zero) and _is_canonical(one)
    # one instance per order, whatever the route
    assert Cyclotomic.zero(m) is zero and Cyclotomic.from_rational(0, m) is zero
    assert Cyclotomic.one(m) is one and Cyclotomic.from_rational(Fraction(1), m) is one


# -- one way from Q into Q(zeta_m) --------------------------------------------

NOT_OF_ORDER_3 = (2, Fraction(1, 2), 0.5, "1/2", Cyclotomic.root_of_unity(6), Cyclotomic.one(1))


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.eq,
                                operator.ne])
@pytest.mark.parametrize("other", NOT_OF_ORDER_3, ids=repr)
def test_operators_take_only_a_cyclotomic_of_their_order(op, other):
    # a rational enters through from_rational; == raises too, so a
    # comparison with an int cannot read False (or True) by coercion
    x = Cyclotomic.from_rational(2, 3)
    with pytest.raises(ValueError, match="order 3"):
        op(x, other)


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
def test_no_reflected_operators(op):
    with pytest.raises(TypeError):
        op(2, Cyclotomic.root_of_unity(3))


def test_from_rational_takes_an_int_or_a_fraction():
    assert Cyclotomic.from_rational(Fraction(-2, 4), 3) == parse_literal("-1/2", 3)
    assert Cyclotomic.from_rational(Fraction(6, 3), 3) == parse_literal("2", 3)
    # a float is not exact, and text is read by parse_rational
    for q in (0.1, 0.5, 1.0, "1/3", "2"):
        with pytest.raises(ValueError, match="an int or a Fraction"):
            Cyclotomic.from_rational(q, 3)
    # what is no number at all is a TypeError, as Fraction's own
    with pytest.raises(TypeError):
        Cyclotomic.from_rational(Cyclotomic.one(3), 3)
