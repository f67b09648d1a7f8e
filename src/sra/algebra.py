"""Normal-form arithmetic in the symplectic reflection algebra H_t,eta(G).

Elements are stored with all generator letters left of the group element, as
a trace value is: a settled flat map {(exponent vector, group element, eta
exponent): Cyclotomic}, summed through add_product.  The eta exponent is one
packed int (sra.scalar), so the eta part of a product is an integer add and
eta^0 is 0.  Rewriting uses the defining relations

    [x, y] = t omega(x, y) + sum_R eta_R omega_R(x, y) R,      g x = g(x) g,

so commutator corrections inject reflections into the group part, and group
elements are pushed to the right by transforming the letters they cross.

All normal ordering goes through one rule on exponent vectors: the product
of a single letter with an ordered monomial, x_j x^alpha (Frame.letter_times).
Longer products fold their letters in one at a time from the right.  Every
nested step lowers the degree or is ordered at once, so the recursion depth
is bounded by the degree, not by the number of inversions.
"""

from __future__ import annotations

from fractions import Fraction

from .scalar import (POWER_CAP, CapExceededError, Cyclotomic, EtaPolynomial, _context,
                     add_maps, check_eta_degree, eta_degree, eta_unit, settle)
from .linalg import Matrix, inverse, sparse_dot, support
from .group import Group


class GroupMismatchError(ValueError):
    """Operands live in algebras over different groups (or different t)."""


class IndefiniteParityError(ValueError):
    """The kappa-bracket needs operands of definite parity."""


def _letters(exp: tuple[int, ...]) -> tuple[int, ...]:
    out = []
    for i, e in enumerate(exp):
        out.extend([i] * e)
    return tuple(out)


def _shift(exp: tuple[int, ...], i: int, d: int) -> tuple[int, ...]:
    return exp[:i] + (exp[i] + d,) + exp[i + 1:]


def relation_table(algebra: "Algebra", vectors):
    """The defining relation on the letters v_0, v_1, ... given as vectors,

        [v_i, v_j] = scalar[i][j] + sum over (R, h, c) in refl[(i, j)] of c eta^h R,

    returned as (scalar, refl) for i < j only: scalar[i][j] = t omega(v_i,
    v_j), and refl[(i, j)] lists (R, the packed exponent h of eta_R,
    omega_R(v_i, v_j)) over the R with nonzero value, in group.reflections
    order.
    The table is upper-triangular: scalar[j][i] is left zero and (j, i) has
    no refl entry, so a reader of [v_j, v_i] with j > i negates the (i, j)
    entries.  Each letter's nonzero support is listed once and dotted with
    omega and with each reflection's covectors; a reflection R contributes
    only to pairs of letters that both meet V_R."""
    group = algebra.group
    n = len(vectors)
    zero = Cyclotomic.zero(algebra.m)
    supports = [support(v) for v in vectors]
    scalar = [[zero] * n for _ in range(n)]
    for j in range(1, n):
        omega_v = group.omega.matvec(vectors[j])
        for i in range(j):
            scalar[i][j] = algebra.t * sparse_dot(supports[i], omega_v, zero)
    refl: dict = {}
    for rkey in group.reflections:
        a_cov, b_cov = group.omega_r_covectors(rkey)
        eta = eta_unit(group.eta_var_of(rkey), algebra.nvars)
        # the letters that meet V_R, with (v.A, v.B); omega_R vanishes on the others
        live = []
        for i, nonzero in enumerate(supports):
            va, vb = sparse_dot(nonzero, a_cov, zero), sparse_dot(nonzero, b_cov, zero)
            if not (va.is_zero() and vb.is_zero()):
                live.append((i, va, vb))
        for p, (i, va_i, vb_i) in enumerate(live):
            for j, va_j, vb_j in live[p + 1:]:
                val = vb_i * va_j - va_i * vb_j
                if not val.is_zero():
                    refl.setdefault((i, j), []).append((rkey, eta, val))
    return scalar, refl


class Frame:
    """The standard letters x_i = a_(i+1) and the normal-ordering rules.

    `scalar` and `refl` are the relation table (see relation_table) of the
    letters in reverse order, x_(n-1), ..., x_0: its upper triangle then
    holds [x_j, x_k] for j > k at (n-1-j, n-1-k), the order letter_times
    reads, so no entry is negated on the way.  A normal form has the shape of
    AlgebraElement.terms, each memo entry settled once: the group key
    collects the reflections produced by the corrections, and the caller
    appends its own trailing group element on the right.

    letter_times(j, alpha) = NF(x_j x^alpha), memoized on (j, alpha).  When no
    letter of alpha is smaller than j the product is already ordered;
    otherwise, with k the smallest letter of alpha and x^alpha = x_k x^alpha',

        x_j x_k x^alpha' = x_k NF(x_j x^alpha') + t omega_jk x^alpha'
                           + sum_R eta_R omega_R(x_j, x_k) NF(R x^alpha' R^-1) R.

    conjugate(h, alpha, gamma) = NF(h x^alpha h^-1 x^gamma), memoized on
    (h, alpha, gamma), folds the h-transformed letters of x^alpha onto x^gamma
    from right to left with letter_times; with h the identity it is the
    ordered product of two monomials.  The leading term x_k x^(alpha'+e_j) is
    ordered at once and every other nested call has lower degree, so the
    recursion depth is bounded by the degree.
    """

    def __init__(self, algebra: "Algebra"):
        n = algebra.group.dim
        self.algebra = algebra
        self.n = n
        self.zero_exp = (0,) * n
        self.one = Cyclotomic.one(algebra.m)
        self.scalar, self.refl = relation_table(algebra, algebra.letters[::-1])
        self._transform_cache: dict = {}
        self._nf_cache: dict = {}
        self._conj_cache: dict = {}

    def transform(self, h_key):
        """Sparse columns [(i, H_ij)]: h(x_j) = sum_i H_ij x_i."""
        cols = self._transform_cache.get(h_key)
        if cols is None:
            hmat = self.algebra.group.elements[h_key].matrix
            cols = [support(hmat.col(j)) for j in range(self.n)]
            self._transform_cache[h_key] = cols
        return cols

    def letter_times(self, j: int, exp: tuple[int, ...]):
        """NF(x_j x^exp)."""
        key = (j, exp)
        got = self._nf_cache.get(key)
        if got is not None:
            return got
        alg = self.algebra
        group = alg.group
        ident = group.identity_key()
        k = next((i for i in range(j) if exp[i]), None)
        if k is None:
            got = {(_shift(exp, j, 1), ident, alg.eta_zero): self.one}
        else:
            # x_j x_k = x_k x_j + t omega_jk + sum_R eta_R omega_R(x_j, x_k) R
            rest = _shift(exp, k, -1)
            partial: dict = {}
            self.times(partial, ((k, self.one),), self.letter_times(j, rest))
            pair = (self.n - 1 - j, self.n - 1 - k)
            add = _context(alg.m).add_product
            add(partial, (rest, ident, alg.eta_zero), self.scalar[pair[0]][pair[1]], self.one)
            for rkey, h_r, val in self.refl.get(pair, ()):
                for (e, r, h), c in self.conjugate(rkey, rest, self.zero_exp).items():
                    add(partial, (e, group.mul(r, rkey), h + h_r), c, val)
            got = settle(partial, alg.m)
        self._nf_cache[key] = got
        return got

    def times(self, partial: dict, col, terms: dict):
        """partial += NF((sum_i c_i x_i) * terms) for col = [(i, c_i)]."""
        group = self.algebra.group
        add = _context(self.algebra.m).add_product
        for (e, r, h), c in terms.items():
            for i, ci in col:
                cc = c * ci
                for (e2, r2, h2), c2 in self.letter_times(i, e).items():
                    add(partial, (e2, group.mul(r2, r), h2 + h), cc, c2)

    def conjugate(self, h_key, exp: tuple[int, ...], tail: tuple[int, ...]):
        """NF(h x^exp h^-1 x^tail) = NF(h(x_(l1)) ... h(x_(lk)) x^tail)."""
        key = (h_key, exp, tail)
        got = self._conj_cache.get(key)
        if got is None:
            alg = self.algebra
            first = next((i for i, e in enumerate(exp) if e), None)
            if first is None:
                got = {(tail, alg.group.identity_key(), alg.eta_zero): self.one}
            else:
                partial: dict = {}
                self.times(partial, self.transform(h_key)[first],
                           self.conjugate(h_key, _shift(exp, first, -1), tail))
                got = settle(partial, alg.m)
            self._conj_cache[key] = got
        return got


class EigenbasisChart:
    """Eigenbasis of one group element: b_I = sum_i M^i_I a_i with
    g(b_I) = zeta_m^(e_I) b_I, e_I in `exponents`, read in order from
    Group.spectrum: the element's own eigenspaces, whose +1 and -1 blocks
    (e_I = 0 and m/2) are Darboux bases, so the kappa-block relation table
    is the normal shape;
    `kappa_letters` and `kappa_pairs` are those blocks and their Darboux
    pairs.  `scalar` and `refl` are the relation table of the b letters (see
    relation_table), `letter_ids` their ids in the algebra's letter table
    (Algebra.intern), and `reflected[R]` is R g for each reflection R.
    `coords(letter)` gives the chart coordinates of any interned letter,
    and `coords_by_exponent` the same grouped by e_I.  The
    chart is shared by every evaluator of the algebra, and it memoizes the
    regular-step factors of a letter (`regular_factors`) and the inverse
    scalar of a Darboux pair (`pair_inverse`)."""

    def __init__(self, algebra: "Algebra", g_key):
        self.algebra = algebra
        self.group = group = algebra.group
        exponents: list[int] = []
        vectors = []
        for k, space in group.spectrum(g_key):
            exponents.extend([k] * len(space))
            vectors.extend(space)
        self.exponents = tuple(exponents)
        self.vectors = tuple(vectors)
        self.letter_ids = tuple(map(algebra.intern, self.vectors))
        n = group.dim
        self.Minv = inverse(Matrix.from_rows([[vectors[I][i] for I in range(n)]
                                              for i in range(n)]))
        self.scalar, self.refl = relation_table(algebra, self.vectors)
        # R g for every reflection R, the group element of R's terms
        self.reflected = {rkey: group.mul(rkey, g_key) for rkey in group.reflections}
        self._coords: dict = {}
        self._by_exponent: dict = {}
        self._factors: dict = {}
        self._pair_inverses: dict = {}
        self.kappa_pairs = {}
        self.kappa_letters = {}
        for kappa in (+1, -1):
            e = group.kappa_exponent(kappa)
            idxs = [i for i, k in enumerate(exponents) if k == e]
            self.kappa_pairs[kappa] = [(idxs[2 * r], idxs[2 * r + 1])
                                       for r in range(len(idxs) // 2)]
            self.kappa_letters[kappa] = frozenset(idxs)

    def coords(self, letter: int):
        """Sparse chart coordinates ((I, coeff), ...) of the letter with this
        id, memoized per id."""
        got = self._coords.get(letter)
        if got is None:
            vector = self.algebra.letter_vectors[letter]
            got = self._coords[letter] = tuple(support(self.Minv.matvec(vector)))
        return got

    def coords_by_exponent(self, letter: int):
        """coords(letter) grouped by eigenvalue: {e: [(I, coeff), ...]} over
        the I with e_I = e, memoized per id."""
        got = self._by_exponent.get(letter)
        if got is None:
            got = self._by_exponent[letter] = {}
            for big_i, c in self.coords(letter):
                got.setdefault(self.exponents[big_i], []).append((big_i, c))
        return got

    def regular_factors(self, kappa: int, L: int):
        """(1, kappa lambda_L) / (1 - kappa lambda_L), lambda_L = zeta_m^(e_L),
        for a letter b_L with lambda_L != kappa, the factors of the regular
        step, memoized per (kappa, L)."""
        got = self._factors.get((kappa, L))
        if got is None:
            root = Cyclotomic.root_of_unity(self.group.exponent, self.exponents[L])
            kl = root if kappa == 1 else -root
            inv = (Cyclotomic.one(kl.m) - kl).inverse()
            got = self._factors[(kappa, L)] = (inv, kl * inv)
        return got

    def pair_inverse(self, I: int, J: int) -> Cyclotomic:
        """1 / scalar[I][J] for the Darboux pair (I, J) of the special step,
        memoized per pair."""
        got = self._pair_inverses.get((I, J))
        if got is None:
            got = self._pair_inverses[(I, J)] = self.scalar[I][J].inverse()
        return got


class Algebra:
    """The algebra H_t,eta(G) with t a fixed scalar (default 1)."""

    def __init__(self, group: Group, t: int | Fraction = 1):
        self.group = group
        self.m = group.exponent
        t = Cyclotomic.from_rational(t, self.m)
        if t.is_zero():
            raise ValueError("t must be nonzero (t = 0 is out of scope)")
        self.t = t
        self.nvars = group.n_eta
        self.eta_zero = 0                   # the packed exponent of eta^0 (sra.scalar)
        one, zero = Cyclotomic.one(self.m), Cyclotomic.zero(self.m)
        n = group.dim
        # the standard letters x_i = a_(i+1) as coordinate vectors; they are
        # interned first, so the id of x_i is i in every algebra
        self.letters = tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))
        self.letter_vectors: list = list(self.letters)
        self._letter_ids = {v: i for i, v in enumerate(self.letters)}
        self._moved_letters: dict = {}
        self._charts: dict = {}
        self._kappa_tables: dict = {}
        self._symmetrized: dict = {}
        self.frame = Frame(self)

    def same_as(self, other: "Algebra") -> bool:
        """Whether `other` is this algebra or another one over the same group
        with the same t, whose normal forms agree."""
        return other is self or (other.group is self.group and other.t == self.t)

    def check_same(self, other: "Algebra"):
        if not self.same_as(other):
            raise GroupMismatchError("elements belong to different algebras")

    # -- letters and charts ----------------------------------------------------

    def intern(self, vector) -> int:
        """The id of a letter given as a standard coordinate vector: the index
        of its one copy in `letter_vectors`, appended on first sight.  The
        evaluator's words are tuples of ids: the standard letters, each
        chart's eigenletters and the letters moved by group elements."""
        got = self._letter_ids.get(vector)
        if got is None:
            got = self._letter_ids[vector] = len(self.letter_vectors)
            self.letter_vectors.append(vector)
        return got

    def moved_letter(self, h_key, letter: int):
        """(id, c, c^-1) for the letter v with this id moved by the group
        element h: h(v) = c u, with c the first nonzero coordinate of h(v) and
        id the interned u, whose first nonzero coordinate is 1; c and c^-1 are
        the shared one of the order when h(v) starts with 1.  Memoized per (h,
        letter id).  Letters that differ by a scalar share one id this way, so
        the evaluator's class memo keys on the moved words up to their
        factors.  Every letter id the evaluator moves goes through it: the
        class memo, the reflection terms and the Gram fill."""
        got = self._moved_letters.get((h_key, letter))
        if got is None:
            vector = self.group.elements[h_key].matrix.matvec(self.letter_vectors[letter])
            c = next(x for x in vector if not x.is_zero())
            one = Cyclotomic.one(self.m)
            if c == one:
                got = (self.intern(vector), one, one)
            else:
                inv = c.inverse()
                got = (self.intern(tuple(x * inv for x in vector)), c, inv)
            self._moved_letters[(h_key, letter)] = got
        return got

    def chart(self, g_key) -> EigenbasisChart:
        got = self._charts.get(g_key)
        if got is None:
            got = EigenbasisChart(self, g_key)
            self._charts[g_key] = got
        return got

    def kappa_table(self, g_key, kappa: int):
        """The relation table (see relation_table) on the Darboux basis of
        Ker(g - kappa), memoized per (g, kappa): the ground level table that
        solve_glc and verify_glc both read.  It holds t omega, so it lives on
        the algebra, not on the group."""
        got = self._kappa_tables.get((g_key, kappa))
        if got is None:
            got = relation_table(self, self.group.e_grading(g_key, kappa)[1])
            self._kappa_tables[(g_key, kappa)] = got
        return got

    # -- element constructors -------------------------------------------------

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, {})

    def scalar(self, c) -> "AlgebraElement":
        """The constant c: a rational or a Cyclotomic."""
        c = c.embed(self.m) if isinstance(c, Cyclotomic) else Cyclotomic.from_rational(c, self.m)
        key = (self.frame.zero_exp, self.group.identity_key(), self.eta_zero)
        return AlgebraElement(self, {key: c} if any(c.num) else {})

    def _unit(self, exp, g_key, eta) -> "AlgebraElement":
        return AlgebraElement(self, {(exp, g_key, eta): self.frame.one})

    def one(self) -> "AlgebraElement":
        return self.scalar(1)

    def eta_scalar(self, i: int) -> "AlgebraElement":
        if not 0 <= i < self.nvars:
            raise IndexError(f"eta variable {i} out of range (arity {self.nvars})")
        return self._unit(self.frame.zero_exp, self.group.identity_key(),
                          eta_unit(i, self.nvars))

    def generator(self, i: int) -> "AlgebraElement":
        """The generator a_(i+1), zero-indexed argument."""
        n = self.group.dim
        if not 0 <= i < n:
            raise IndexError(f"generator index {i} out of range 0..{n - 1}")
        return self._unit(_shift(self.frame.zero_exp, i, 1), self.group.identity_key(),
                          self.eta_zero)

    def group_element(self, g_key) -> "AlgebraElement":
        return self._unit(self.frame.zero_exp, g_key, self.eta_zero)

    def word(self, letters, g_key) -> "AlgebraElement":
        """The normal form of x_(l1) ... x_(lk) g for letters (l1, ..., lk),
        zero-indexed like generator."""
        out = self.group_element(g_key)
        for i in reversed(letters):
            out = self.generator(i) * out
        return out


class AlgebraElement:
    """Normal-form element sum c eta^h x^alpha g, stored as the settled flat
    map {(exponent alpha, group key g, packed eta exponent h): Cyclotomic c}.
    A product whose eta degree would pass ETA_DEGREE_CAP is refused."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: Algebra, terms):
        self.algebra = algebra
        self.terms = terms

    # -- ring structure -------------------------------------------------------

    def _check(self, other: "AlgebraElement"):
        self.algebra.check_same(other.algebra)

    def _add(self, other, sign: int):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._check(other)
        return AlgebraElement(self.algebra,
                              add_maps(self.terms, other.terms, sign, self.algebra.m))

    def __add__(self, other):
        return self._add(other, 1)

    def __neg__(self):
        return AlgebraElement(self.algebra, {key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        return self._add(other, -1)

    def scaled(self, c) -> "AlgebraElement":
        """c times the element, for a rational or a Cyclotomic c of its order;
        a nonzero product in a field is nonzero and canonical already."""
        if not isinstance(c, Cyclotomic):
            c = Cyclotomic.from_rational(c, self.algebra.m)
        terms = {key: k * c for key, k in self.terms.items()}
        return AlgebraElement(self.algebra, {} if c.is_zero() else terms)

    def __mul__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._check(other)
        alg = self.algebra
        group = alg.group
        frame = alg.frame
        ident = group.identity_key()
        n = alg.nvars
        add = _context(alg.m).add_product
        check_eta_degree(eta_degree(max((h for _, _, h in self.terms), default=0), n),
                         eta_degree(max((h for _, _, h in other.terms), default=0), n))
        out: dict = {}
        # (x^alpha g)(x^beta h) = NF(x^alpha NF(g x^beta g^-1)) g h; the packed
        # eta exponents e1, e2, ... of the factors add up
        for (alpha, g, e1), c1 in self.terms.items():
            for (beta, h, e2), c2 in other.terms.items():
                gh = group.mul(g, h)
                coeff = c1 * c2
                e12 = e1 + e2
                for (gamma, r, e3), c in frame.conjugate(g, beta, frame.zero_exp).items():
                    cg = coeff * c
                    rgh = group.mul(r, gh)
                    e123 = e12 + e3
                    for (exp, r2, e4), c3 in frame.conjugate(ident, alpha, gamma).items():
                        add(out, (exp, group.mul(r2, rgh), e123 + e4), cg, c3)
        return AlgebraElement(alg, settle(out, alg.m))

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers are not defined")
        if k > POWER_CAP:
            raise CapExceededError(f"exponent {k} exceeds cap {POWER_CAP}")
        out = self.algebra.one()
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.algebra.same_as(other.algebra) and self.terms == other.terms

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items(), key=lambda t: t[0])))

    # -- structure queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def parity(self):
        """0 or 1 when every monomial has that total degree mod 2, else None."""
        seen = {sum(e) % 2 for e, _, _ in self.terms}
        if len(seen) == 1:
            return seen.pop()
        return None if seen else 0

    def monomials(self):
        """Deterministic iteration: (group key, exponent, coefficient), by
        group key, then degree, then exponent; a coefficient is a view
        {packed eta exponent: c} of the map as an EtaPolynomial."""
        coeffs: dict = {}
        nvars = self.algebra.nvars
        for (e, gk, h), c in self.terms.items():
            coeffs.setdefault((e, gk), EtaPolynomial(nvars, c.m)).terms[h] = c
        for e, gk in sorted(coeffs, key=lambda k: (k[1], sum(k[0]), k[0])):
            yield gk, e, coeffs[(e, gk)]


def kappa_commutator(f: AlgebraElement, h: AlgebraElement, kappa: int) -> AlgebraElement:
    """[f, h]_kappa = f h - kappa^(pi(f) pi(h)) h f, for definite parities."""
    pf, ph = f.parity(), h.parity()
    if pf is None or ph is None:
        raise IndefiniteParityError("kappa-bracket needs definite parities")
    return f * h + h * f if kappa == -1 and pf * ph else f * h - h * f


def symmetrized_monomial(algebra: Algebra, exp: tuple[int, ...]) -> AlgebraElement:
    """Sum of all distinct letter orderings of the monomial with content
    `exp` (so deg-2 cross terms look like a_1 a_2 + a_2 a_1), memoized on the
    algebra.  Grouping the orderings by their first letter gives
    sym(exp) = sum over i with exp_i > 0 of x_i sym(exp - e_i)."""
    got = algebra._symmetrized.get(exp)
    if got is None:
        got = algebra.one() if not any(exp) else algebra.zero()
        for i, e in enumerate(exp):
            if e:
                rest = symmetrized_monomial(algebra, _shift(exp, i, -1))
                got = got + algebra.generator(i) * rest
        algebra._symmetrized[exp] = got
    return got
