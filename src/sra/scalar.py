"""Exact scalar arithmetic: rationals, the cyclotomic field Q(zeta_m), and
multivariate polynomials in the deformation parameters over cyclotomics.

Rationals are ``fractions.Fraction``.  A :class:`Cyclotomic` is stored in the
canonical power basis 1, zeta, ..., zeta^(phi(m)-1) of Q(zeta_m) as an integer
coefficient vector with a single positive denominator, fully reduced modulo
the m-th cyclotomic polynomial.  Two values are equal iff their canonical
representations coincide, which makes cyclotomics usable as dict keys and as
deterministic sort keys.  A rational enters Q(zeta_m) one way, through
Cyclotomic.from_rational: +, -, * and == take only a Cyclotomic of one order.

* and add_product are each one call of a kernel of the order's context,
compiled once per coordinate length from source built from integers alone:
mul and add_product, which call the product folded mod Phi_m, unrolled up to
PRODUCT_KERNEL_CUTOFF and generated on the order's first product of two
non-rational values, and the loop _times above the cutoff.

An eta exponent (e_0, ..., e_(n-1)) is one packed int (Monagan and Pearce,
"Polynomial division using dynamic arrays, heaps, and packed exponent
vectors", CASC 2007): 32-bit fields, the total degree in the top one, then
e_0 ... e_(n-1) down to bit 0, each field with its top bit clear as a
guard.  The product of two monomials is the sum of their ints, and the
graded lexicographic order is the order of the ints.  Only eta_unit,
eta_pack, eta_unpack and eta_degree (and the division's guard test) know
the layout; a tuple is unpacked only where text or JSON is written or a
point is substituted.  ETA_DEGREE_CAP keeps every field below its guard.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property, lru_cache
from heapq import heapify, heappop, heappush
from math import gcd, lcm, prod
from numbers import Number

# every size budget of the package; exceeding one raises CapExceededError
DEFAULT_CAP = 100_000     # elements of a group closure, comparisons of the eta = 0 oracle
GRAM_BASIS_CAP = 2000     # elements of a Gram basis
POWER_CAP = 64            # largest exponent of an algebra element power
FIELD_DEGREE_CAP = 256    # largest degree phi(m) of a field Q(zeta_m)
EXPR_DEPTH_CAP = 100      # deepest nesting of parentheses in an expression
RATIONAL_EXPONENT_CAP = 999  # largest decimal exponent of a rational read from text
ETA_DEGREE_CAP = 2 ** 30  # largest total eta degree of a product

# the largest phi(m) whose product has an unrolled kernel (_CycContext.times);
# above it the loop _times runs.  The kernel takes 0.4-0.6 of the loop's time
# per product at every phi from 2 to 80, but its one-time generation grows as
# phi(m)^2, so the cutoff bounds what a run of few products pays for it.
# Measured one-shot against the loop, CPython 3.11 on a 2-core x86-64 host,
# medians of 9 runs:
#   phi = 16, the 2I Gram fill's Q(zeta_60): eval on cyclic 17, 30,649
#     products, 1.45 -> 0.99 s; counts, glc and gram on cyclic 60 and 17,
#     137-786 products, within 7 ms and +0.8-1.1 MB peak RSS (20 MB runs)
#   phi = 18-32: counts, glc and gram on cyclic 19, 35, 51 and 64, 118-691
#     products, +1.7-4.4 MB peak RSS (+7-22 %) and up to +16 ms; eval on
#     cyclic 51 and 64, 12k-18k products, 13-20 % faster
#   phi = 256, unrolled: counts on cyclic 257 peaked at 299 MB, not 19 MB
# 16 is the largest phi whose kernel keeps such a light run within about
# 1 MB of the loop's peak.
PRODUCT_KERNEL_CUTOFF = 16


class CapExceededError(ValueError):
    """Closure would exceed the element cap, a Gram basis its size cap, the
    eta = 0 oracle its comparison cap, an algebra power or a decimal read
    from text its exponent cap, a cyclotomic field its degree cap, or a
    product its eta degree cap."""


def _poly_div_exact(num: list[int], den: tuple[int, ...]) -> list[int]:
    """Exact division of integer polynomials (ascending coefficients) by a
    monic one."""
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for i in range(len(num) - 1 - dd, -1, -1):
        q = num[i + dd]
        out[i] = q
        if q:
            for j in range(dd + 1):
                num[i + j] -= q * den[j]
    if any(num):
        raise ArithmeticError("non-exact polynomial division")
    return out


def _content(p) -> int:
    g = 0
    for c in p:
        g = gcd(g, c)
        if g == 1:
            break
    return g


def _inverse_mod(a, modulus) -> tuple[list[int], int]:
    """(b, d) with a b / d = 1 mod `modulus`, for integer polynomials
    (ascending coefficients) with gcd(a, modulus) = 1 and a nonzero of
    lower degree: the extended Euclidean algorithm over Q, run on integers
    in O(deg^2) operations.

    Each remainder comes from a pseudo-division and is made primitive, and
    its cofactor is kept as s / d over one denominator in lowest terms, so
    the integers stay small; the invariant is r_i = (s_i / d_i) a mod
    `modulus`, and the last remainder is a constant.
    """
    r0, s0, d0 = list(modulus), [], 1
    r1, s1, d1 = list(a), [1], 1
    while not r1[-1]:
        r1.pop()
    while len(r1) > 1:
        # pseudo-division scale r0 = q r1 + rem, scale a power of lead: a nonzero
        # top entry c of rem at degree k + n is cancelled by lead rem - c x^k r1
        lead, n = r1[-1], len(r1) - 1
        rem, q, scale = r0, [0] * (len(r0) - n), 1
        for k in range(len(q) - 1, -1, -1):
            c = rem[k + n]
            if c:
                rem = [lead * x for x in rem[:k + n]]
                for i in range(n):
                    rem[k + i] -= c * r1[i]
                q = [lead * x for x in q]
                q[k] = c
                scale *= lead
            else:
                rem = rem[:k + n]
        while rem and not rem[-1]:
            rem.pop()
        if not rem:
            raise ArithmeticError("polynomial is not invertible modulo the modulus")
        g = _content(rem)
        rem = [x // g for x in rem]
        # rem = (scale s0 / d0 - q s1 / d1) a / g
        s = [scale * d1 * x for x in s0] + [0] * (len(q) + len(s1) - 1 - len(s0))
        for i, x in enumerate(q):
            if x:
                for j, y in enumerate(s1):
                    s[i + j] -= d0 * x * y
        d = d0 * d1 * g
        h = gcd(_content(s), d)
        r0, s0, d0, r1, s1, d1 = r1, s1, d1, rem, [x // h for x in s], d // h
    # r1 = [c] = (s1 / d1) a
    return s1, d1 * r1[0]


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_m, ascending, monic.  Raises
    CapExceededError when phi(m) exceeds FIELD_DEGREE_CAP."""
    if m < 1:
        raise ValueError("order must be >= 1")
    # phi(m) >= sqrt(m/2), so a larger order is over the cap unfactored
    if (m > 2 * FIELD_DEGREE_CAP ** 2
            or prod(p ** (e - 1) * (p - 1) for p, e in _factorize(m).items()) > FIELD_DEGREE_CAP):
        raise CapExceededError(
            f"cyclotomic order {m} exceeds the field degree cap {FIELD_DEGREE_CAP}")
    poly = [-1] + [0] * (m - 1) + [1]
    for d in _divisors_of(m)[:-1]:
        poly = _poly_div_exact(poly, cyclotomic_polynomial(d))
    return tuple(poly)


class _CycContext:
    """Per-order tables: Phi_m, the canonical coordinates of every power
    zeta^k (x^k mod Phi_m for k < m), the one shared instance each of 0 and
    1, and the coordinate kernels: mul and add_product (_order_kernels),
    and times, the product they call."""

    def __init__(self, m: int):
        self.m = m
        self.phi_poly = cyclotomic_polynomial(m)
        self.deg = len(self.phi_poly) - 1
        # x^deg = sum_k t_k x^k mod Phi_m, as the sparse pairs (k, t_k)
        self.top = tuple((k, -c) for k, c in enumerate(self.phi_poly[: self.deg]) if c)
        # zeta^k for k in [0, m)
        powers = []
        cur = [0] * self.deg
        cur[0] = 1
        for _ in range(m):
            powers.append(tuple(cur))
            cur = self._times_x(cur)
        self.powers = powers
        self.zero = Cyclotomic(m, (0,) * self.deg, 1, _canonical=True)
        self.one = Cyclotomic(m, powers[0], 1, _canonical=True)
        self.mul, self.add_product = _order_kernels(self.deg)(self)

    def _times_x(self, vec: list[int]) -> list[int]:
        """Multiply a reduced coefficient vector by x, then reduce."""
        out = [0] + vec[:-1]
        lead = vec[-1]
        if lead:
            for k, t in self.top:
                out[k] += lead * t
        return out

    @cached_property
    def times(self):
        """times(x, y), the integer coordinates of x y for two coordinate
        vectors: the unrolled kernel up to PRODUCT_KERNEL_CUTOFF, generated
        on the order's first product of two non-rational values, and the
        loop _times above it."""
        if self.deg > PRODUCT_KERNEL_CUTOFF:
            return self._times
        return _product_kernel(self.deg, self.top)

    def _times(self, x, y) -> list[int]:
        """Integer coordinates of x y for two coordinate vectors, above
        PRODUCT_KERNEL_CUTOFF: their polynomial product, each coefficient of
        x^j with j >= phi(m) folded down from the top by x^phi(m) = sum_k t_k
        x^k mod Phi_m."""
        deg = self.deg
        num = [0] * (2 * deg - 1)
        i = 0
        for a in x:
            if a:
                j = i
                for b in y:
                    num[j] += a * b
                    j += 1
            i += 1
        for j in range(2 * deg - 2, deg - 1, -1):
            c = num.pop()
            if c:
                for k, t in self.top:
                    num[j - deg + k] += c * t
        return num


@lru_cache(maxsize=None)
def _context(m: int) -> _CycContext:
    return _CycContext(m)


# -- coordinate kernels --------------------------------------------------------
#
# Functions on coordinate tuples of one length, compiled from source built
# from integers alone (the length and Phi_m's coefficients): at phi(m) = 2,
# where most products of the evaluator fall, a list comprehension, a loop or
# a call of a helper costs more in Python overhead than its arithmetic, so up
# to PRODUCT_KERNEL_CUTOFF they are straight-line code.


def _names(prefix: str, n: int) -> str:
    return "".join(f"{prefix}{i}, " for i in range(n))


def _tuple_of(term: str, n: int) -> str:
    """Source of the tuple (term(0), ..., term(n - 1)), term a format string."""
    return "(" + "".join(term.format(i) + ", " for i in range(n)) + ")"


def _compiled(source: str, **names) -> dict:
    """The functions defined by a generated source, which reads the given
    names as globals."""
    scope = dict(names)
    exec(source, scope)
    return scope


@lru_cache(maxsize=None)
def _order_kernels(deg: int):
    """bind(ctx) -> (mul, add_product) for the orders of length deg, compiled
    with one exec: the whole of Cyclotomic.__mul__ past its order check and
    of add_product, closures over the order's m and its product ctx.times.

    Each unpacks both operands' coordinates, tests each for rationality,
    scales by a rational operand and adds into a partial sum inline, and
    calls ctx.times only when both operands are non-rational.  Up to
    PRODUCT_KERNEL_CUTOFF every coordinate is a named local; above it, where
    straight-line code would grow with phi(m) and the product is the loop
    _times anyway, the same branches run as loops over the coordinate
    tuples, so each length compiles a source of bounded size."""
    # the source of: a vector v assigned from expr, the test that v is
    # rational, v's first coordinate, v as arguments, and the tuple of a term
    # over the vectors vs, whose {0} stands for the index
    if deg <= PRODUCT_KERNEL_CUTOFF:
        def unpack(v, expr):
            return f"{_names(v, deg)}= {expr}"

        def rational(v):
            return f"not ({' or '.join(f'{v}{i}' for i in range(1, deg))})" if deg > 1 else "True"

        def first(v):
            return f"{v}0"

        def spread(v):
            return _names(v, deg)

        def each(term, *vs):
            return _tuple_of(term, deg)
        product = "ctx.times(a.num, b.num)"
    else:
        def unpack(v, expr):
            return f"{v} = {expr}"

        def rational(v):
            return f"not any({v}[1:])"

        def first(v):
            return f"{v}[0]"

        def spread(v):
            return f"*{v}"

        def each(term, *vs):
            items = vs[0] if len(vs) == 1 else f"zip({', '.join(vs)})"
            return f"tuple([{term.format('_')} for {', '.join(v + '_' for v in vs)} in {items}])"
        product = "tuple(ctx.times(a.num, b.num))"
    source = f"""
def bind(ctx):
    m = ctx.m

    def mul(a, b):
        {unpack("x", "a.num")}
        {unpack("y", "b.num")}
        if {rational("y")}:
            c = {first("y")}
            if not c:
                return b
            if c == 1 and b.den == 1:
                return a
            num = {each("c * x{0}", "x")}
        elif {rational("x")}:
            c = {first("x")}
            if not c:
                return a
            if c == 1 and a.den == 1:
                return b
            num = {each("c * y{0}", "y")}
        else:
            num = {product}
        den = a.den * b.den
        if den != 1:
            {unpack("n", "num")}
            g = gcd(den, {spread("n")})
            if g != 1:
                num = {each("n{0} // g", "n")}
                den //= g
        return Cyclotomic(m, num, den, True)

    def add_product(partial, key, a, b):
        {unpack("x", "a.num")}
        {unpack("y", "b.num")}
        if {rational("y")}:
            c = {first("y")}
            num = {each("c * x{0}", "x")}
        elif {rational("x")}:
            c = {first("x")}
            num = {each("c * y{0}", "y")}
        else:
            num = ctx.times(a.num, b.num)
        den = a.den * b.den
        cur = partial.get(key)
        if cur is None:
            partial[key] = [num, den]
            return
        {unpack("n", "num")}
        {unpack("s", "cur[0]")}
        d = cur[1]
        if d == den:
            cur[0] = {each("s{0} + n{0}", "s", "n")}
        else:
            g = gcd(d, den)
            u, v = den // g, d // g
            cur[0] = {each("s{0} * u + n{0} * v", "s", "n")}
            cur[1] = d * u

    return mul, add_product
"""
    return _compiled(source, gcd=gcd, Cyclotomic=Cyclotomic)["bind"]


def _product_kernel(deg: int, top):
    """times(x, y) for coordinate tuples of length deg, the loop _times
    unrolled: one row per coordinate of x, skipped when it is zero, so a
    monomial or a sparse operand costs one row each, then each coefficient
    of x^j with j >= deg, when nonzero, folded down by the pairs (k, t_k)
    of x^deg = sum_k t_k x^k mod Phi_m."""
    lines = ["def times(x, y):", f"    {_names('x', deg)}= x", f"    {_names('y', deg)}= y",
             "    " + " = ".join(f"n{j}" for j in range(2 * deg - 1)) + " = 0"]
    for i in range(deg):
        lines.append(f"    if x{i}:")
        lines.extend(f"        n{i + j} += x{i} * y{j}" for j in range(deg))
    for j in range(2 * deg - 2, deg - 1, -1):
        lines.append(f"    if n{j}:")
        lines.extend(f"        n{j - deg + k} += n{j} * {t}" for k, t in top)
    lines.append(f"    return {_tuple_of('n{0}', deg)}")
    return _compiled("\n".join(lines) + "\n")["times"]


def _zeta_substitute(num, big: _CycContext, step: int) -> list[int]:
    """Integer coordinates in Q(zeta_M), M = big.m, of sum_j num[j] zeta_M^(j step):
    with step 1, the fold of a vector of any length mod Phi_M."""
    acc = [0] * big.deg
    for j, c in enumerate(num):
        if c:
            row = big.powers[(j * step) % big.m]
            for i in range(big.deg):
                acc[i] += c * row[i]
    return acc


def _normalize(num: list[int] | tuple[int, ...], den: int):
    if den == 1:
        return tuple(num), 1
    if den < 0:
        den = -den
        num = [-c for c in num]
    g = gcd(den, *num)
    if g > 1:
        num = [c // g for c in num]
        den //= g
    return tuple(num), den


class Cyclotomic:
    """Element of Q(zeta_m) in canonical reduced form."""

    __slots__ = ("m", "num", "den")

    def __init__(self, m: int, num: tuple[int, ...], den: int = 1, _canonical=False):
        if _canonical:
            self.m, self.num, self.den = m, num, den
            return
        self.num, self.den = _normalize(_zeta_substitute(num, _context(m), 1), den)
        self.m = m

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rational(q, m: int = 1) -> "Cyclotomic":
        """The int or Fraction q in Q(zeta_m); 0 and 1 are the shared instances
        of the order.  Another number or a text is a ValueError (a float is not
        exact), and what is no number at all a TypeError."""
        ctx = _context(m)
        if type(q) is Fraction:
            if q.denominator != 1:
                # a Fraction is in lowest terms with a positive denominator
                return Cyclotomic(m, (q.numerator,) + ctx.zero.num[1:], q.denominator,
                                  _canonical=True)
            q = q.numerator
        elif type(q) is not int:
            raise (ValueError if isinstance(q, (Number, str)) else TypeError)(
                f"Cyclotomic.from_rational takes an int or a Fraction, not {q!r}")
        if q == 0:
            return ctx.zero
        if q == 1:
            return ctx.one
        return Cyclotomic(m, (q,) + ctx.zero.num[1:], 1, _canonical=True)

    @staticmethod
    def zero(m: int = 1) -> "Cyclotomic":
        return _context(m).zero

    @staticmethod
    def one(m: int = 1) -> "Cyclotomic":
        return _context(m).one

    @staticmethod
    def root_of_unity(m: int, k: int = 1) -> "Cyclotomic":
        """zeta_m^k, canonical."""
        ctx = _context(m)
        return Cyclotomic(m, ctx.powers[k % m], 1, _canonical=True)

    # -- predicates & conversions -----------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self.num[0], self.den)

    def key(self):
        """Deterministic sort/hash key."""
        return (self.num, self.den)

    def embed(self, big_m: int) -> "Cyclotomic":
        """Re-embed into Q(zeta_M) for m | M via zeta_m = zeta_M^(M/m)."""
        if big_m == self.m:
            return self
        if big_m % self.m != 0:
            raise ValueError(f"cannot embed order {self.m} into order {big_m}")
        acc = _zeta_substitute(self.num, _context(big_m), big_m // self.m)
        num, den = _normalize(acc, self.den)
        return Cyclotomic(big_m, num, den, _canonical=True)

    # -- arithmetic --------------------------------------------------------

    def _mismatch(self, other) -> ValueError:
        return ValueError(f"a Cyclotomic of order {self.m} combines only with a Cyclotomic "
                          f"of order {self.m}, not {other!r}: embed it, or bring a rational "
                          f"in through Cyclotomic.from_rational")

    # +, -, * and == take only a Cyclotomic of the same order and raise
    # _mismatch on anything else; there are no reflected operators.  +, - and
    # * return early on a zero operand, and * also on a unit operand, and a
    # result with denominator 1 skips the gcd: each is canonical already.

    def _add(self, other, sign: int):
        """self + sign other, sign = 1 or -1: the one body of + and -."""
        if type(other) is not Cyclotomic or other.m != self.m:
            raise self._mismatch(other)
        if not any(other.num):
            return self
        if not any(self.num):
            return other if sign == 1 else -other
        if self.den == other.den == 1:
            return Cyclotomic(self.m, tuple([x + sign * y for x, y in zip(self.num, other.num)]),
                              1, _canonical=True)
        bd, ad = other.den, sign * self.den
        n, d = _normalize([x * bd + y * ad for x, y in zip(self.num, other.num)],
                          self.den * bd)
        return Cyclotomic(self.m, n, d, _canonical=True)

    def __add__(self, other):
        return self._add(other, 1)

    def __neg__(self):
        return Cyclotomic(self.m, tuple([-c for c in self.num]), self.den, _canonical=True)

    def __sub__(self, other):
        return self._add(other, -1)

    def __mul__(self, other):
        """The product in one pass, the order's kernel mul: the polynomial
        product of the coordinate vectors folded mod Phi_m (the context's
        times), or a rational operand's scale of the other's coordinates,
        then the gcd of the denominator with every coordinate divided out;
        both denominators are positive, so their product is."""
        if type(other) is not Cyclotomic or other.m != self.m:
            raise self._mismatch(other)
        return _context(self.m).mul(self, other)

    def inverse(self) -> "Cyclotomic":
        """Multiplicative inverse; raises ZeroDivisionError on zero.

        With self = a(zeta) / den, the extended Euclidean algorithm over Q
        on Phi_m and a gives b with a b = 1 mod Phi_m (Phi_m is irreducible
        and a is nonzero of lower degree), in O(phi(m)^2) operations; the
        inverse is den b(zeta).  b has degree < phi(m), so its coordinates,
        padded to phi(m), need no fold mod Phi_m, only the gcd with d.
        """
        if self.is_zero():
            raise ZeroDivisionError("cyclotomic division by zero")
        m = self.m
        if self.is_rational():
            return Cyclotomic.from_rational(1 / self.as_rational(), m)
        b, d = _inverse_mod(self.num, cyclotomic_polynomial(m))
        deg = len(self.num)
        if len(b) > deg:
            raise ArithmeticError(f"cyclotomic inverse of {self!r}: cofactor of degree "
                                  f"{len(b) - 1} >= phi({m}) = {deg}")
        num, den = _normalize([self.den * x for x in b] + [0] * (deg - len(b)), d)
        out = Cyclotomic(m, num, den, _canonical=True)
        if self * out != Cyclotomic.one(m):
            raise ArithmeticError(f"cyclotomic inverse of {self!r} failed its check")
        return out

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = Cyclotomic.one(self.m)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if type(other) is not Cyclotomic or other.m != self.m:
            raise self._mismatch(other)
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.m, self.num, self.den))

    def __repr__(self):
        return f"Cyclotomic({self.m}, {literal(self)!r})"


# -- the text lexer and cyclotomic literals -----------------------------------
#
# One lexer reads both cyclotomic literals and algebra expressions (sra.expr).
# Literal grammar: terms [+|-] [RATIONAL ['*']] [z ['^' NAT]], with a sign
# before every term but the first, e.g. "1/2 + 1/2*z^3", "-z", "2z".
# `z` denotes zeta_m with m fixed by the enclosing file or session.


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.message = message
        self.position = position


# a number with an optional denominator, a name with an optional index, or any
# other single character; whitespace separates tokens and is skipped
_TOKEN = re.compile(r"(\d+)(/\d*)?|([^\W\d_]+)(\d*)|(\S)")


def tokenize(text: str):
    """Tokens are (kind, value, 1-based position); a number is an int when it
    is written as digits alone and a Fraction when it has a denominator."""
    out = []
    for match in _TOKEN.finditer(text):
        num, den, name, index, char = match.groups()
        pos = match.start() + 1
        if num:
            if den == "/":
                raise ParseError("expected denominator digits", match.end() + 1)
            if den and not int(den[1:]):
                raise ParseError("zero denominator", pos + len(num) + 1)
            out.append(("number", Fraction(num + den) if den else int(num), pos))
        elif name in ("a", "g", "eta") and index:
            out.append((name, int(index), pos))
        elif name in ("z", "e") and not index:
            out.append((name, None, pos))
        elif name:
            raise ParseError(f"unknown symbol {name + index!r}", pos)
        elif char in "+-*^()":
            out.append(("op", char, pos))
        else:
            raise ParseError(f"unexpected character {char!r}", pos)
    out.append(("end", None, len(text) + 1))
    return out


def join_signed(terms: list[str]) -> str:
    """'a + b - c' from the terms ['a', 'b', '-c']; '0' when there are none."""
    if not terms:
        return "0"
    return terms[0] + "".join(f" - {t[1:]}" if t.startswith("-") else f" + {t}"
                              for t in terms[1:])


def literal(x: Cyclotomic) -> str:
    """Render in the literal grammar; parse_literal round-trips exactly."""
    terms = []
    for j, c in enumerate(x.num):
        if c:
            q = Fraction(c, x.den)
            terms.append(f"{q}*z^{j}" if j else str(q))
    return join_signed(terms)


# -- the expression-grammar renderer ------------------------------------------
#
# Human output is written in the expression grammar of sra.expr; `literal` is
# the format of group files and of every JSON field.  A rendered term is
# (text, is_sum): its parentheses follow from its number of terms, not its text.


def render_sum(terms: list[tuple[str, bool]]) -> tuple[str, bool]:
    """The signed sum of rendered terms; a single term stays as it is."""
    if len(terms) == 1:
        return terms[0]
    return join_signed([text for text, _ in terms]), len(terms) > 1


def render_term(coeff: tuple[str, bool], factor: str) -> tuple[str, bool]:
    """coeff*factor, with a unit coefficient dropped and a sum in
    parentheses; without a factor the coefficient is the term."""
    text, is_sum = coeff
    if not factor:
        return coeff
    if text in ("1", "-1"):
        return text[:-1] + factor, False
    return f"({text})*{factor}" if is_sum else f"{text}*{factor}", False


def render_monomial(name: str, exponents, first: int = 0) -> str:
    """'a1^2*a3' from the name 'a', the exponents (2, 0, 1) and first = 1."""
    return "*".join(f"{name}{i}^{k}" if k > 1 else f"{name}{i}"
                    for i, k in enumerate(exponents, first) if k)


def render_cyclotomic(x: Cyclotomic) -> tuple[str, bool]:
    return render_sum([render_term((str(Fraction(c, x.den)), False),
                                   f"z^{j}" if j > 1 else "z" if j else "")
                       for j, c in enumerate(x.num) if c])


def render_eta(p: "EtaPolynomial") -> tuple[str, bool]:
    return render_sum([render_term(render_cyclotomic(c), render_monomial("eta", e))
                       for e, c in p.sorted_terms()])


def parse_literal(text: str, m: int) -> Cyclotomic:
    """Parse the literal grammar; inverse of :func:`literal`.  Raises a
    ParseError naming the literal and the 1-based position."""
    acc, i = Cyclotomic.zero(m), 0
    try:
        toks = tokenize(text)
        while True:
            kind, val, pos = toks[i]
            q, k = Fraction(1), 0
            if kind == "op" and val in "+-":
                q, i = Fraction(-1 if val == "-" else 1), i + 1
            elif i:
                raise ParseError("expected '+' or '-'", pos)
            kind, val, pos = toks[i]
            if kind == "number":
                q, i = q * val, i + 1
                if toks[i][:2] == ("op", "*"):
                    i += 1
                    if toks[i][0] != "z":
                        raise ParseError("expected 'z'", toks[i][2])
            elif kind != "z":
                raise ParseError("expected a rational or 'z'", pos)
            kind, _, zpos = toks[i]
            if kind == "z":
                k, i = 1, i + 1
                # z^NAT is written without spaces
                if toks[i] == ("op", "^", zpos + 1):
                    kind, k, pos = toks[i + 1]
                    if kind != "number" or type(k) is not int or pos != zpos + 2:
                        raise ParseError("expected exponent digits", zpos + 2)
                    i += 2
            acc = acc + Cyclotomic.from_rational(q, m) * Cyclotomic.root_of_unity(m, k)
            if toks[i][0] == "end":
                return acc
    except ParseError as exc:
        raise ParseError(f"{exc.message} in literal {text!r}", exc.position) from None


# the exponent of a decimal, as Fraction reads it: Fraction("1e99999999")
# would expand it into a hundred million digits
_EXPONENT = re.compile(r"[eE][-+]?(\d+(?:_\d+)*)\s*\Z")


def parse_rational(name: str, text: str) -> Fraction:
    """The rational number written in text, in any form Fraction reads, the
    one reader of rationals from outside the program; a ValueError naming
    the option or field `name` otherwise.  A decimal exponent beyond
    RATIONAL_EXPONENT_CAP is refused before Fraction expands it."""
    exp = _EXPONENT.search(text)
    if exp:
        digits = exp.group(1).replace("_", "").lstrip("0") or "0"
        if len(digits) > len(str(RATIONAL_EXPONENT_CAP)) or int(digits) > RATIONAL_EXPONENT_CAP:
            raise CapExceededError(f"{name} needs a rational number with an exponent of at "
                                   f"most {RATIONAL_EXPONENT_CAP}, not {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{name} needs a rational number, not {text!r}") from None


def _factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division plus Pollard rho."""
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 7
    steps = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while d * d <= n and d < 100_000:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += steps[i]
        i = (i + 1) % 8

    # every k below is odd and > 1: n has no factor 2 left, and rho(k)
    # returns a divisor 1 < d < k
    def is_probable_prime(k):
        for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
            if k % a == 0:
                return k == a
        r, s = k - 1, 0
        while r % 2 == 0:
            r //= 2
            s += 1
        for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
            x = pow(a, r, k)
            if x in (1, k - 1):
                continue
            for _ in range(s - 1):
                x = x * x % k
                if x == k - 1:
                    break
            else:
                return False
        return True

    def rho(k):
        c = 1
        while True:
            x = y = 2
            d = 1
            while d == 1:
                x = (x * x + c) % k
                y = (y * y + c) % k
                y = (y * y + c) % k
                d = gcd(abs(x - y), k)
            if d != k:
                return d
            c += 1

    stack = [n] if n > 1 else []
    while stack:
        k = stack.pop()
        if is_probable_prime(k):
            out[k] = out.get(k, 0) + 1
            continue
        f = rho(k)
        stack.extend([f, k // f])
    return out


def _divisors_of(n: int) -> list[int]:
    """All positive divisors of |n| via its prime factorization."""
    divs = [1]
    for p, e in _factorize(abs(n)).items():
        divs = [d * p ** k for d in divs for k in range(e + 1)]
    return sorted(divs)


def add_product(partial: dict, key, a: Cyclotomic, b: Cyclotomic):
    """partial[key] += a b for a map of partial sums [integer numerators,
    positive denominator] over one order m: the order's kernel add_product,
    which a loop over many terms binds once (_context(m).add_product).  The
    raw product (a rational operand scales the other's coordinates, else the
    context's times) over the product of the denominators is added with no
    gcd and no object: with the key's denominator only integers are added,
    another rescales both to the lcm.  Nothing is normalized until settle."""
    _context(a.m).add_product(partial, key, a, b)


def settle(partial: dict, m: int) -> dict:
    """{key: canonical Cyclotomic} from a map of add_product sums, each
    reduced with one gcd; the keys whose sum cancelled are dropped."""
    return {key: Cyclotomic(m, *_normalize(num, den), _canonical=True)
            for key, (num, den) in partial.items() if any(num)}


def add_maps(x: dict, y: dict, sign: int, m: int) -> dict:
    """The settled map x + sign y, sign = 1 or -1, of two settled maps
    {key: Cyclotomic} over Q(zeta_m): the one add of two normal forms or
    two eta-polynomials.  x's values start the partial sums, y's are added
    through add_product, and settle drops the keys that cancelled."""
    partial = {key: [c.num, c.den] for key, c in x.items()}
    factor = Cyclotomic.from_rational(sign, m)
    add = _context(m).add_product
    for key, c in y.items():
        add(partial, key, c, factor)
    return settle(partial, m)


def _divides(d: int, v: int) -> bool:
    return v == 0 if d == 0 else v % d == 0


def _rational_roots(coeffs: dict[int, Fraction]) -> list[Fraction]:
    """All rational roots of the nonzero rational polynomial
    {exponent: coefficient}, by the rational root theorem on its primitive
    integer form."""
    low = min(coeffs)
    roots = [Fraction(0)] if low > 0 else []
    # the shift by the lowest exponent leaves a nonzero constant term
    shifted = {e - low: q for e, q in coeffs.items()}
    den_lcm = lcm(*(q.denominator for q in shifted.values()))
    ints = {e: int(q * den_lcm) for e, q in shifted.items()}
    content = _content(ints.values())
    ints = {e: v // content for e, v in ints.items()}
    d = max(ints)
    a0, an = abs(ints[0]), abs(ints[d])
    descending = [ints.get(e, 0) for e in range(d, -1, -1)]
    # a root s/q in lowest terms makes q x - s divide P over Z, so q - s
    # divides P(1) and q + s divides P(-1); a divisor 0 asks for a zero
    at_one = sum(ints.values())
    at_minus_one = sum(v if e % 2 == 0 else -v for e, v in ints.items())
    numerators = _divisors_of(a0)
    for q in _divisors_of(an):
        q_powers = [q ** k for k in range(d + 1)]
        for p in numerators:
            if gcd(p, q) > 1:
                continue
            for s in (p, -p):
                if not (_divides(q - s, at_one) and _divides(q + s, at_minus_one)):
                    continue
                # q^d * P(s/q) = sum_e a_e s^e q^(d-e), by Horner in s
                val = 0
                for a, qk in zip(descending, q_powers):
                    val = val * s + a * qk
                if val == 0:
                    roots.append(Fraction(s, q))
    return sorted(set(roots))


# -- packed eta exponents -----------------------------------------------------

_FIELD = 32                    # bits per field of a packed eta exponent
_VALUE = (1 << _FIELD - 1) - 1  # the bits of a field below its guard bit


def eta_unit(i: int, n: int) -> int:
    """The packed exponent of eta_i among n variables."""
    return (1 << _FIELD * n) | (1 << _FIELD * (n - 1 - i))


def eta_pack(e: tuple[int, ...]) -> int:
    """The packed exponent of the exponent tuple e."""
    k = sum(e)
    for x in e:
        k = (k << _FIELD) | x
    return k


def eta_unpack(k: int, n: int) -> tuple[int, ...]:
    """The exponent tuple (e_0, ..., e_(n-1)) of a packed exponent."""
    return tuple([(k >> _FIELD * j) & _VALUE for j in range(n - 1, -1, -1)])


def eta_degree(k: int, n: int) -> int:
    """The total degree of a packed exponent in n variables."""
    return k >> _FIELD * n


def _guards(n: int) -> int:
    """The guard bit of every field of a packed exponent in n variables."""
    return sum(1 << (_FIELD * j + _FIELD - 1) for j in range(n + 1))


def check_eta_degree(d1: int, d2: int):
    """Refuse a product whose eta degree, at most d1 + d2 for factors of
    degrees d1 and d2, would pass ETA_DEGREE_CAP."""
    if d1 + d2 > ETA_DEGREE_CAP:
        raise CapExceededError(f"eta degree {d1 + d2} exceeds cap {ETA_DEGREE_CAP}")


# -- polynomials in the deformation parameters ------------------------------


class EtaPolynomial:
    """Sparse polynomial in the eta variables with Cyclotomic coefficients.

    Terms are a settled map from packed exponents (one field per reflection
    conjugacy class) to canonical nonzero coefficients, kept as given; the
    operators take only eta-polynomials of the same arity and order.  The
    structural constant t of the algebra enters only through degree-0
    terms; it is never a polynomial variable.
    """

    __slots__ = ("nvars", "m", "terms")

    def __init__(self, nvars: int, m: int, terms: dict[int, Cyclotomic] | None = None):
        self.nvars = nvars
        self.m = m
        self.terms = {} if terms is None else terms

    @staticmethod
    def constant(q, nvars: int, m: int) -> "EtaPolynomial":
        """The rational constant q."""
        c = Cyclotomic.from_rational(q, m)
        return EtaPolynomial(nvars, m, {0: c} if any(c.num) else {})

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """The total degree, -1 for zero: the degree field of the largest key."""
        return eta_degree(max(self.terms), self.nvars) if self.terms else -1

    def _check(self, other: "EtaPolynomial"):
        if self.nvars != other.nvars:
            raise ValueError("eta-polynomial arity mismatch")
        if self.m != other.m:
            raise ValueError("mixed cyclotomic orders in eta-polynomials")

    def _add(self, other, sign: int):
        if not isinstance(other, EtaPolynomial):
            return NotImplemented
        self._check(other)
        return EtaPolynomial(self.nvars, self.m, add_maps(self.terms, other.terms, sign, self.m))

    def __add__(self, other):
        return self._add(other, 1)

    def __neg__(self):
        return EtaPolynomial(self.nvars, self.m, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self._add(other, -1)

    def __mul__(self, other):
        if not isinstance(other, EtaPolynomial):
            return NotImplemented
        self._check(other)
        check_eta_degree(self.degree(), other.degree())
        add = _context(self.m).add_product
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                add(out, e1 + e2, c1, c2)
        return EtaPolynomial(self.nvars, self.m, settle(out, self.m))

    def __eq__(self, other):
        if not isinstance(other, EtaPolynomial):
            return NotImplemented
        return (self.nvars, self.m, self.terms) == (other.nvars, other.m, other.terms)

    def substitute(self, point) -> "EtaPolynomial":
        """Substitute a rational value, an int or a Fraction, for each eta
        variable whose slot of `point` holds one; the variables whose slot is
        None stay symbolic.  Another value is the ValueError of
        Cyclotomic.from_rational."""
        if len(point) != self.nvars:
            raise ValueError("evaluation point arity mismatch")
        vals = [None if p is None else Cyclotomic.from_rational(p).as_rational() for p in point]
        out: dict = {}
        for k, c in self.terms.items():
            e = eta_unpack(k, self.nvars)
            q = Fraction(1)
            for exp, v in zip(e, vals):
                if v is not None:
                    q *= v ** exp
            rest = eta_pack(tuple(0 if v is not None else exp for exp, v in zip(e, vals)))
            add_product(out, rest, c, Cyclotomic.from_rational(q, self.m))
        return EtaPolynomial(self.nvars, self.m, settle(out, self.m))

    def evaluate(self, point: list[Fraction]) -> Cyclotomic:
        """Evaluate at a rational point, one value per eta variable."""
        if None in point:
            raise ValueError("evaluation point has a symbolic slot")
        return self.substitute(point).constant_term()

    def constant_term(self) -> Cyclotomic:
        return self.terms.get(0, Cyclotomic.zero(self.m))

    def rational_roots(self) -> list[Fraction]:
        """All rational roots of a univariate polynomial over Q(zeta_m).

        At a rational r the value is sum_k zeta^k P_k(r), with P_k the
        rational coordinate polynomials in the canonical zeta-basis, so r is
        a root iff every P_k vanishes at r: the candidates are the rational
        roots of the first nonzero P_k, and the others must vanish there."""
        if self.nvars != 1:
            raise ValueError("rational-root extraction needs a univariate polynomial")
        if self.is_zero():
            raise ValueError("zero polynomial has every root")
        coords: dict[int, dict[int, Fraction]] = {}
        for key, c in self.terms.items():
            (e,) = eta_unpack(key, 1)
            for k, a in enumerate(c.num):
                if a:
                    coords.setdefault(k, {})[e] = Fraction(a, c.den)
        first, *rest = (coords[k] for k in sorted(coords))
        return [r for r in _rational_roots(first)
                if all(sum(q * r ** e for e, q in p.items()) == 0 for p in rest)]

    def exact_divide(self, other: "EtaPolynomial") -> "EtaPolynomial":
        """Exact polynomial division (raises if the division is not exact)."""
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("eta-polynomial division by zero")
        # the remainder holds partial sums of add_product; a term that
        # cancelled is dropped when it becomes the largest
        rem = {e: [c.num, c.den] for e, c in self.terms.items()}
        out: dict[int, Cyclotomic] = {}
        lead = max(other.terms)
        lead_c_inv = other.terms[lead].inverse()
        guards = _guards(self.nvars)
        add = _context(self.m).add_product
        # the lead term cancels the remainder's largest term exactly
        rest = [(e2, c2) for e2, c2 in other.terms.items() if e2 != lead]
        # the remainder's keys negated, so the largest pops first; a key is
        # pushed when it enters rem and never comes back once popped, since
        # every new key diff + e2 has e2 below the lead, so is below the key
        # just popped
        heap = [-e for e in rem]
        heapify(heap)
        while heap:
            e = -heappop(heap)
            num, den = rem.pop(e)
            if not any(num):
                continue
            # a field of e below the lead's borrows from its own guard bit only
            diff = (e | guards) - lead
            if diff & guards != guards:
                raise ArithmeticError("non-exact eta-polynomial division")
            diff ^= guards
            q = Cyclotomic(self.m, *_normalize(num, den), _canonical=True) * lead_c_inv
            out[diff] = q
            neg_q = -q
            for e2, c2 in rest:
                k = diff + e2
                if k not in rem:
                    heappush(heap, -k)
                add(rem, k, neg_q, c2)
        return EtaPolynomial(self.nvars, self.m, out)

    def sorted_terms(self):
        """(exponent tuple, coefficient) in graded lexicographic order."""
        return [(eta_unpack(e, self.nvars), self.terms[e]) for e in sorted(self.terms)]

    def __repr__(self):
        return f"EtaPolynomial({render_eta(self)[0]})"
