"""Traces and supertraces on H_t,eta(G).

solve_glc builds the unique kappa-trace on C[G] extending free values on the
E = 0 conjugacy classes: classes are processed in increasing E, and for a
representative g with E >= 1 the first Darboux pair c_1, c_2 of Ker(g - kappa)
gives

    t omega(c_1, c_2) sp(g) = - sum_R eta_R omega_R(c_1, c_2) sp(R g),

where every R g that contributes has E(R g) = E(g) - 1.  All remaining ground
level equations are then verified to vanish identically.  Solve and verify
read one ground level table per (class representative, kappa): the defining
relation on the representative's whole Darboux basis, memoized on the
algebra (Algebra.kappa_table).  The solve reads its pair (0, 1), which
depends on c_1 and c_2 only, and verify reads every pair.

evaluate() reduces the kappa-trace of arbitrary normal-form elements with the
regular step (a letter with eigenvalue != kappa is cyclically cancelled in
place, dropping the degree by two) and the special step (all
letters with eigenvalue kappa: commuting one Darboux partner across the word
trades the monomial for same-degree monomials over group elements of smaller
E).  Both steps are exact; every division is by a nonzero cyclotomic scalar,
so trace values stay polynomial in eta.

Each monomial x_(l1) ... x_(lk) g is expanded in the eigenbasis b_I of g,
with g b_I g^-1 = lambda_I b_I.  A kappa-trace is invariant under
conjugation by group elements, so sp(b_(I1) ... b_(Ik) g) =
lambda_(I1) ... lambda_(Ik) sp(b_(I1) ... b_(Ik) g): the trace is zero unless
the product of the eigenvalues is 1, and only those eigen-words are built.
The coefficient of an eigen-word is formed only when its trace is nonzero.
The same invariance makes sp a class function, sp(x_w h rep h^-1) =
sp(h^-1(x_w) rep), so the evaluator shares each expansion across the
elements of a class whose words move onto the same word at rep.

Letters are ids into the algebra's letter table (Algebra.intern), so a word
is a tuple of small ints and every memo key is (group key, tuple of ints).
A trace value has one representation, the settled flat map {(P index, packed
eta exponent): Cyclotomic} (sra.scalar packs an exponent into one int, so a
shift by eta^h is an integer add): every key normalized with one gcd, the keys
that cancelled dropped.  A TraceValue, each class of the GLC table and each
eigen-word memo entry of the evaluator hold one; a word memo entry is a pair
(map, c), c times a map held once and shared, and its caller folds c into the
scalar it applies.  Every sum of c sp(...) terms, in solve_glc, verify_glc and
the evaluator alike, adds each product, its factor applied term by term, into
one flat map of partial sums through the order's add_product (sra.scalar),
integer numerators over one denominator per key, and `settle` settles it once.
The evaluator binds the order's kernels mul and add_product once, when it is
built, and makes every scalar product and every add through them, not
through the operators; its reflection terms memoize each suffix moved past
R per (g, R, suffix), the letter ids with the product of their scalars.

gram() fills the Gram matrix at one free-parameter assignment, substituted
into the class table first, and reads each entry sp(f_i f_j) as one word of
the evaluator, the letters of f_j moved past the group element of f_i, with
no product in the algebra.  It takes the determinant of each block by the
Bareiss over Z[zeta_m][eta] on rows cleared of denominators, and divides by
the row scalings at the end.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, lcm, prod

from .scalar import (GRAM_BASIS_CAP, CapExceededError, Cyclotomic, EtaPolynomial, _context,
                     literal, render_eta, render_sum, render_term, settle)
from .linalg import Matrix, components, fraction_free_det, inverse
from .group import Group
from .algebra import Algebra, AlgebraElement, _letters, kappa_commutator, symmetrized_monomial


class InconsistentGLCError(Exception):
    """A redundant ground level equation failed to vanish (implementation bug trap)."""


class KappaEigenvaluePresentError(ValueError):
    """eta0_form needs E_kappa(g) = 0 so that kappa - g is invertible."""


class TraceValue:
    """Linear combination of the free trace parameters P_i with
    eta-polynomial coefficients in nvars variables, stored as the settled
    flat map `terms` {(P index, packed eta exponent): Cyclotomic}: every
    value canonical and nonzero, so that two trace values are equal iff
    their maps are."""

    __slots__ = ("nparams", "nvars", "terms")

    def __init__(self, nparams: int, nvars: int, terms: dict):
        self.nparams = nparams
        self.nvars = nvars
        self.terms = terms

    @property
    def coeffs(self) -> dict:
        """{P index: EtaPolynomial}, a view of the map for the writers."""
        out: dict = {}
        for (i, e), c in self.terms.items():
            if i not in out:
                out[i] = EtaPolynomial(self.nvars, c.m)
            out[i].terms[e] = c
        return out

    def is_zero(self) -> bool:
        return not self.terms

    def scaled(self, c) -> "TraceValue":
        """c times the value, for a rational or a Cyclotomic c of its order;
        a nonzero product in a field is nonzero and canonical already.  An
        empty value stores no order, so a rational c is checked at order 1
        there, and a Cyclotomic of another order is caught only on a
        nonempty value."""
        if not isinstance(c, Cyclotomic):
            c = Cyclotomic.from_rational(c, next(iter(self.terms.values())).m if self.terms else 1)
        terms = _scaled(self.terms, c)
        return TraceValue(self.nparams, self.nvars, {} if not terms or c.is_zero() else terms)

    def __eq__(self, other):
        if not isinstance(other, TraceValue):
            return NotImplemented
        return self.nparams == other.nparams and self.terms == other.terms

    def __hash__(self):
        return hash((self.nparams, frozenset(self.terms.items())))

    def substitute(self, assignment: list[Fraction], m: int) -> EtaPolynomial:
        """Collapse the free parameters to rationals, leaving eta symbolic;
        the zero value gives the zero polynomial over Q(zeta_m)."""
        if len(assignment) != self.nparams:
            raise ValueError("assignment arity mismatch")
        values = [Cyclotomic.from_rational(a, m) for a in assignment]
        add = _context(m).add_product
        out: dict = {}
        for (i, e), c in self.terms.items():
            add(out, e, c, values[i])
        return EtaPolynomial(self.nvars, m, settle(out, m))

    def __repr__(self):
        return f"TraceValue({format_trace_value(self)})"


class TraceFunctional:
    """A kappa-trace presented as class -> TraceValue over one free parameter
    per E = 0 conjugacy class."""

    def __init__(self, algebra: Algebra, kappa: int, free_classes, table, e_of_class):
        self.algebra = algebra
        self.group: Group = algebra.group
        self.kappa = kappa
        self.free_classes = tuple(free_classes)
        self.table = table                  # class index -> TraceValue
        self.e_of_class = e_of_class        # class index -> E
        self.nparams = len(self.free_classes)
        self._evaluators: dict = {}

    def element_value(self, g_key) -> TraceValue:
        return self.table[self.group.class_of[g_key]]

    def evaluate(self, f: AlgebraElement, regular_strategy: str = "first",
                 pair_strategy: str = "first") -> TraceValue:
        ev = self._evaluators.get((regular_strategy, pair_strategy))
        if ev is None:
            ev = _Evaluator(self, regular_strategy, pair_strategy)
            self._evaluators[(regular_strategy, pair_strategy)] = ev
        return ev.element_value(f)

    def to_dict(self) -> dict:
        g = self.group
        return {
            "group": g.name,
            "kappa": self.kappa,
            "cyclotomic_order": g.exponent,
            "n_eta": g.n_eta,
            "free_classes": [f"C{i}" for i in self.free_classes],
            "classes": [
                {
                    "label": f"C{i}",
                    "size": len(g.classes[i]),
                    "rep_order": g.elements[g.class_rep[i]].order,
                    "E": self.e_of_class[i],
                    "value": _trace_value_json(self.table[i]),
                }
                for i in range(len(g.classes))
            ],
        }


def solve_glc(algebra: Algebra, kappa: int, verify: bool = True) -> TraceFunctional:
    """Solve the ground level conditions for the kappa-trace on C[G].

    E = 0 classes become free parameters; higher classes are filled in
    increasing E by the Darboux-pair recursion, on the pair (0, 1) of the
    representative's ground level table, read from the algebra's memo
    (Algebra.kappa_table) and shared with verify_glc.  With verify=True
    every remaining ground level equation, over every group element, is
    checked to vanish identically.
    """
    if kappa not in (+1, -1):
        raise ValueError("kappa must be +1 or -1")
    group = algebra.group
    n_classes = len(group.classes)
    e_of_class = {i: group.e_grading(group.class_rep[i], kappa)[0] for i in range(n_classes)}
    free_classes = [i for i in range(n_classes) if e_of_class[i] == 0]
    nparams = len(free_classes)
    table: dict[int, TraceValue] = {}
    one, nvars = Cyclotomic.one(algebra.m), algebra.nvars
    for pi, ci in enumerate(free_classes):
        table[ci] = TraceValue(nparams, nvars, {(pi, algebra.eta_zero): one})
    order = sorted((i for i in range(n_classes) if e_of_class[i] > 0),
                   key=lambda i: (e_of_class[i], i))
    # the functional holds `table` itself, so each class sees the ones filled before it
    functional = TraceFunctional(algebra, kappa, free_classes, table, e_of_class)
    for ci in order:
        rep = group.class_rep[ci]
        scalar, refl = algebra.kappa_table(rep, kappa)
        entries = refl.get((0, 1), ())
        flat: dict = {}
        _reflection_sum(flat, functional, entries, _product_classes(functional, rep, entries),
                        -scalar[0][1].inverse())
        table[ci] = TraceValue(nparams, nvars, settle(flat, algebra.m))
    if verify:
        verify_glc(functional)
    return functional


def _product_classes(functional: TraceFunctional, g_key, entries) -> tuple:
    """The class of R g for every entry (R, h, omega_R(c_i, c_j)) of a
    relation table, in entry order, each checked to be in the functional's
    class table, so a missing class raises even when its coefficients
    cancel."""
    group = functional.group
    classes = tuple(group.class_of[group.mul(rkey, g_key)] for rkey, _, _ in entries)
    for rc in classes:
        if rc not in functional.table:
            ci = group.class_of[g_key]
            raise InconsistentGLCError(
                f"group {group.name}, kappa {functional.kappa}: sp(C{ci}) needs "
                f"sp(C{rc}), which has E >= E(C{ci})")
    return classes


def _reflection_sum(flat: dict, functional: TraceFunctional, entries, classes,
                    factor: Cyclotomic):
    """flat += factor sum_R eta_R omega_R(c_i, c_j) sp(R g), for a flat map
    of partial sums (see _add_scaled), over the entries (R, h, omega_R(c_i,
    c_j)) of a relation table and the classes of their products R g
    (_product_classes), with sp(R g) read from the functional's class table.

    The values omega_R are first added per class C of R g and eta exponent
    h, and each class value is scaled once per h, by that sum times factor."""
    m = functional.algebra.m
    one = Cyclotomic.one(m)
    add = _context(m).add_product
    per_class: dict = {}
    for (_, h, coeff), rc in zip(entries, classes):
        add(per_class, (rc, h), coeff, one)
    for (rc, h), coeff in settle(per_class, m).items():
        _add_shifted(flat, functional.table[rc].terms, h, coeff * factor)


def verify_glc(functional: TraceFunctional):
    """Check every ground level equation sp([c_i, c_j] g) = 0 identically,
    over every group element g.

    The relation table on the representative's Darboux basis c of
    Ker(rep - kappa) is read from the algebra's memo (Algebra.kappa_table),
    shared with the solve, and serves every element g' = h rep h^-1 of the
    class, h = conjugator[g'] with h^-1 = conjugator_inv[g'], on the moved
    basis h c.  The
    closure refuses generators that do not preserve omega, so
    omega(h x, h y) = omega(x, y) and omega_(h R h^-1)(h x, h y) =
    omega_R(x, y), and h R h^-1 lies in the class of R, with the same eta
    variable: the table on h c is the representative's with each R
    relabelled to h R h^-1 (_conjugated_reflections).

    Every element of the class is still visited and does its own lookups: a
    real check that h rep h^-1 is g' on the indices, the relabelling, its own
    sp(g') from element_value, and for every Darboux pair its own products
    R' g' and their classes (_product_classes).  Only the arithmetic of a
    residual, scalar[i][j] sp(g') + sum_R eta_R omega_R sp(R' g'), runs once
    per distinct signature (i, j, sp(g'), classes of the R' g') in the class.
    That is exact: scalar[i][j] and every (eta exponent, omega_R) of the
    pair are the class table's, shared by the whole class, so the signature
    fixes the settled residual, and a signature is skipped only after it
    settled to zero.  sp(g') is compared by identity, and the memo holds
    the map, so its id is not reused while the memo lives.

    Raises InconsistentGLCError naming the group, kappa, the class label
    C<i> of the offending element and the nonzero residual, or the element
    whose conjugator fails; per Theorem-level uniqueness a failure can only
    mean an implementation bug upstream.
    """
    group = functional.group
    kappa = functional.kappa
    one = Cyclotomic.one(functional.algebra.m)
    for ci, cls in enumerate(group.classes):
        rep = group.class_rep[ci]
        e_val, basis = group.e_grading(rep, kappa)
        if e_val == 0:
            continue
        scalar, refl = functional.algebra.kappa_table(rep, kappa)
        vanished: dict = {}              # signature -> the sp(g') map it was settled with
        for key in cls:
            h, h_inv = _checked_conjugator(group, kappa, key)
            moved = _conjugated_reflections(group, refl, h, h_inv)
            spg = functional.element_value(key).terms
            for i in range(len(basis)):
                for j in range(i + 1, len(basis)):
                    entries = moved.get((i, j), ())
                    classes = _product_classes(functional, key, entries)
                    signature = (i, j, id(spg), classes)
                    if vanished.get(signature) is spg:
                        continue
                    flat: dict = {}
                    _add_scaled(flat, spg, scalar[i][j])
                    _reflection_sum(flat, functional, entries, classes, one)
                    residual = settle(flat, functional.algebra.m)
                    if residual:
                        value = TraceValue(functional.nparams, group.n_eta, residual)
                        raise InconsistentGLCError(
                            f"group {group.name}, kappa {kappa}: ground level condition "
                            f"fails on C{ci} (Darboux pair {i},{j}), residual "
                            f"{format_trace_value(value)}")
                    vanished[signature] = spg


def _checked_conjugator(group: Group, kappa: int, key) -> tuple:
    """(h, h^-1) = (conjugator[key], conjugator_inv[key]) for the element
    key = h rep h^-1 of the class of rep, checked on the indices:
    InconsistentGLCError names the conjugator, the element, the
    representative and C<i> when h rep h^-1 is not key.  The one check
    catches a wrong entry in either list, since h rep x = h rep y forces
    x = y, and x rep y = z rep y forces x = z."""
    ci = group.class_of[key]
    rep = group.class_rep[ci]
    h, h_inv = group.conjugator[key], group.conjugator_inv[key]
    if group.mul(group.mul(h, rep), h_inv) != key:
        raise InconsistentGLCError(
            f"group {group.name}, kappa {kappa}: the conjugator {h} of element "
            f"{key} does not carry the representative {rep} of C{ci} to it")
    return h, h_inv


def _conjugated_reflections(group: Group, refl: dict, h, h_inv) -> dict:
    """The reflection part of a relation table (see relation_table) on the
    vectors h c, from the one on c: every entry (R, eta exponent, value)
    becomes (h R h^-1, eta exponent, value), each h R h^-1 formed once."""
    image = {rkey: group.mul(group.mul(h, rkey), h_inv)
             for rkey in {rkey for entries in refl.values() for rkey, _, _ in entries}}
    return {pair: [(image[rkey], e, c) for rkey, e, c in entries]
            for pair, entries in refl.items()}


def _add_scaled(flat: dict, val: dict, c: Cyclotomic):
    """flat += c val, for a flat map {(P index, eta exponent): partial sum}
    of the order's add_product (sra.scalar) and a settled one."""
    add = _context(c.m).add_product
    for key, k in val.items():
        add(flat, key, k, c)


def _add_shifted(flat: dict, val: dict, h: int, c: Cyclotomic):
    """flat += c eta^h val, for a settled val (see _add_scaled) and a packed
    eta exponent h."""
    add = _context(c.m).add_product
    for (i, e), k in val.items():
        add(flat, (i, e + h), k, c)


def _scaled(val: dict, c: Cyclotomic) -> dict:
    """c val for a settled val and a nonzero c: settled already, since a
    nonzero product in a field is nonzero and canonical."""
    return {key: k * c for key, k in val.items()}


def _times_all(mul, c: Cyclotomic, factors: list, one: Cyclotomic) -> Cyclotomic:
    """c times the product of the factors, left to right through the order's
    kernel mul, with no product by the shared one when c is it."""
    if c is one and factors:
        c, factors = factors[0], factors[1:]
    for k in factors:
        c = mul(c, k)
    return c


def _prefix_product(mul, products: dict, cols, w) -> Cyclotomic:
    """The product of the coordinates cols[j][w[j]] along the prefix w,
    memoized per prefix in `products`, which holds every prefix of length 1:
    each prefix missing from it is multiplied once through the order's
    kernel mul, from its longest prefix already there."""
    c = products.get(w)
    if c is None:
        j = len(w) - 1
        while w[:j] not in products:
            j -= 1
        c = products[w[:j]]
        for j in range(j, len(w)):
            c = products[w[:j + 1]] = mul(c, cols[j][w[j]])
    return c


class _Evaluator:
    """Reduction engine for one functional and one pair of step strategies.

    Words are tuples of letter ids (Algebra.intern); a bword word is a tuple
    of eigen-indices I of the chart of its group element.  Each step adds
    its terms, its factors applied, into one flat map of partial sums (see
    _add_scaled) and settles it once; bword memoizes each map per (g,
    eigen-word), and vectors a pair (map, c) per (g, word) and, behind that,
    per (class representative, moved word) (_class_vectors), each map held
    once and shared by reference.  Every scalar product and every add of a
    term goes through the order's kernels mul and add_product (sra.scalar),
    bound once here, and bword hands its chart to the steps."""

    def __init__(self, functional: TraceFunctional, regular_strategy: str,
                 pair_strategy: str):
        if regular_strategy not in ("first", "last"):
            raise ValueError("regular_strategy must be 'first' or 'last'")
        if pair_strategy not in ("first", "last"):
            raise ValueError("pair_strategy must be 'first' or 'last'")
        self.fn = functional
        self.alg = functional.algebra
        self.group = functional.group
        self.kappa = functional.kappa
        self.regular_strategy = regular_strategy
        self.pair_strategy = pair_strategy
        ctx = _context(self.alg.m)
        self.one, self.mul, self.add = ctx.one, ctx.mul, ctx.add_product
        self._bword: dict = {}
        self._vecs: dict = {}
        self._class_vecs: dict = {}
        self._conjugator_inv: dict = {}
        self._suffixes: dict = {}

    # -- public -------------------------------------------------------------

    def element_value(self, f: AlgebraElement) -> TraceValue:
        """sp(f) for an element of an algebra with this functional's group
        and t; the standard letter x_i has id i in every algebra."""
        self.alg.check_same(f.algebra)
        mul, add, one = self.mul, self.add, self.one
        flat: dict = {}
        for (exp, gk, h), c in f.terms.items():
            val, k = self.vectors(gk, _letters(exp))
            if k is not one:
                c = mul(c, k)
            for (i, e), v in val.items():
                add(flat, (i, e + h), v, c)
        return TraceValue(self.fn.nparams, self.alg.nvars, settle(flat, self.alg.m))

    def vectors(self, g_key, word: tuple[int, ...]) -> tuple:
        """Trace of a word of letter ids times g as a pair (map, c): c times
        a settled flat map that a memo holds, shared, not copied.  Memoized
        per (g, word); a miss is read from the class memo (_class_vectors)."""
        if len(word) % 2 == 1:
            return {}, self.one          # every nonzero kappa-trace is even
        if not word:
            return self.bword(g_key, ()), self.one
        got = self._vecs.get((g_key, word))
        if got is None:
            got = self._vecs[(g_key, word)] = self._class_vectors(g_key, word)
        return got

    def _class_vectors(self, g_key, word: tuple[int, ...]) -> tuple:
        """vectors(g, word) through the memo keyed by g's class.

        A kappa-trace is a class function: for g = h rep h^-1, sp(x_w g) =
        sp(h^-1(x_w) rep).  Each letter moved by h^-1 is interned up to a
        scalar (Algebra.moved_letter), so the word moves to (rep, ids) with
        a factor c, the product of the letters' scalars, and sp(x_w g) = c
        sp(u_ids rep).  The memo holds the pair at (rep, ids): a miss is
        expanded on g's own chart, as if there were no class memo, returned
        times 1 and stored times 1 / c, the product of the letters' inverse
        scalars, so no inverse is taken here; a hit returns the stored map,
        with the stored scalar times c.  (Expanding the moved word on the
        representative's chart instead measured slower: its expansions take
        more steps than the elements' own.)  The conjugator is checked once
        per element (_checked_conjugator).  A one-element class builds no
        class key."""
        group = self.group
        one = self.one
        ci = group.class_of[g_key]
        if len(group.classes[ci]) == 1:
            return self._expand(g_key, word), one
        h_inv = self._conjugator_inv.get(g_key)
        if h_inv is None:
            h_inv = self._conjugator_inv[g_key] = _checked_conjugator(group, self.kappa,
                                                                      g_key)[1]
        ids, scalars, inverses = [], [], []
        for letter in word:
            moved, c, c_inv = self.alg.moved_letter(h_inv, letter)
            ids.append(moved)
            if c is not one:
                scalars.append(c)
                inverses.append(c_inv)
        key = (group.class_rep[ci], tuple(ids))
        base = self._class_vecs.get(key)
        if base is None:
            got = self._expand(g_key, word)
            self._class_vecs[key] = got, _times_all(self.mul, one, inverses, one)
            return got, one
        return base[0], _times_all(self.mul, base[1], scalars, one)

    def _expand(self, g_key, word: tuple[int, ...]) -> dict:
        """Trace of a word of letter ids times g: the word is expanded in the
        eigenbasis of g into eigen-words.

        Only the eigen-words b_(I1) ... b_(Ik) with lambda_(I1) ... lambda_(Ik)
        = 1 are built: each prefix b_(I1) ... b_(I(k-1)) carries its exponent
        sum s, and the last letter keeps the coordinates I with e_I = -s mod
        m.  Conjugation by g scales every other eigen-word by its product of
        eigenvalues, so its trace is zero.  Distinct prefixes give distinct
        words, so the prefixes are a plain list of eigen-indices and exponent
        sums, integer work only.  The coefficient of a prefix, the product of
        its letters' coordinates, is formed only for an eigen-word whose trace
        is nonzero, and memoized per prefix, so each needed node of the
        prefix tree is multiplied once."""
        chart = self.alg.chart(g_key)
        exps, m = chart.exponents, self.alg.m
        mul, add = self.mul, self.add
        cols = [dict(chart.coords(letter)) for letter in word[:-1]]
        prefixes = [((i,), exps[i]) for i in cols[0]]
        for col in cols[1:]:
            prefixes = [(w + (i,), s + exps[i]) for w, s in prefixes for i in col]
        products = {(i,): c for i, c in cols[0].items()}
        last = chart.coords_by_exponent(word[-1])
        flat: dict = {}
        for w, s in prefixes:
            for i, ci in last.get(-s % m, ()):
                val = self.bword(g_key, w + (i,))
                if val:
                    c = mul(_prefix_product(mul, products, cols, w), ci)
                    for key, k in val.items():
                        add(flat, key, k, c)
        return settle(flat, m)

    # -- eigen-words ----------------------------------------------------------

    def bword(self, g_key, word: tuple[int, ...]) -> dict:
        got = self._bword.get((g_key, word))
        if got is not None:
            return got
        if not word:
            got = self.fn.element_value(g_key).terms
        else:
            chart = self.alg.chart(g_key)
            kappa_letters = chart.kappa_letters[self.kappa]
            regular = [s for s, letter in enumerate(word) if letter not in kappa_letters]
            if regular:
                got = self._regular_step(chart, g_key, word, regular)
            else:
                got = self._special_step(chart, g_key, word)
        self._bword[(g_key, word)] = got
        return got

    def _regular_step(self, chart, g_key, word, regular_positions) -> dict:
        """Cyclically cancel the chosen regular letter b_L (eigenvalue lambda
        != kappa) at position s.  With rest the word without it and
        c_j = sp(rest[:j] [rest_j, b_L] rest[j+1:] g),

            sp(word g) = sum_(j<s) c_j / (1 - kappa lambda)
                         + sum_(j>=s) kappa lambda c_j / (1 - kappa lambda),

        which drops the degree by two."""
        s = regular_positions[0] if self.regular_strategy == "first" else regular_positions[-1]
        L = word[s]
        rest = word[:s] + word[s + 1:]
        first, second = chart.regular_factors(self.kappa, L)
        flat: dict = {}
        for j in range(len(rest)):
            self._comm(flat, chart, g_key, rest[:j], rest[j], L, rest[j + 1:],
                       first if j < s else second)
        return settle(flat, self.alg.m)

    def _comm(self, flat, chart, g_key, prefix, x, y, suffix, factor):
        """flat += factor sp(prefix [b_x, b_y] suffix g) with the full
        commutator [b_x, b_y] = t C_xy + sum_R eta_R omega_R(b_x, b_y) R.
        The chart's table holds x < y, so for x > y the letters are swapped
        and the factor negated, once."""
        if x > y:
            x, y, factor = y, x, -factor
        scal = chart.scalar[x][y]
        if any(scal.num):
            val = self.bword(g_key, prefix + suffix)
            if val:
                c, add = self.mul(scal, factor), self.add
                for key, k in val.items():
                    add(flat, key, k, c)
        self._refl_part(flat, chart, g_key, prefix, x, y, suffix, factor)

    def _refl_part(self, flat, chart, g_key, prefix, x, y, suffix, factor):
        """flat += factor times the reflection terms of [b_x, b_y]
        (equivalently of f_xy) pushed through the suffix onto g; each
        contributing R g drops E by one.  The chart's table holds x < y, so
        for x > y the letters are swapped and the factor negated, once.  The
        prefix keeps g's eigenletters and the suffix letters are moved by R
        (Algebra.moved_letter), all as letter ids, with the product of the
        moved letters' scalars folded into the entry's coefficient.  The
        moved suffix, its ids and that product, is memoized per (g, R,
        suffix); the product is exact, so each regrouped coefficient is the
        same canonical value."""
        if x > y:
            x, y, factor = y, x, -factor
        entries = chart.refl.get((x, y))
        if not entries:
            return
        ids, reflected = chart.letter_ids, chart.reflected
        head = tuple([ids[p] for p in prefix])
        mul, add, one, suffixes = self.mul, self.add, self.one, self._suffixes
        for rkey, h, c in entries:
            moved = suffixes.get((g_key, rkey, suffix))
            if moved is None:
                word, cs = [], one
                for s in suffix:
                    u, cu, _ = self.alg.moved_letter(rkey, ids[s])
                    word.append(u)
                    if cu is not one:
                        cs = cu if cs is one else mul(cs, cu)
                moved = suffixes[(g_key, rkey, suffix)] = tuple(word), cs
            word, cs = moved
            val, k = self.vectors(reflected[rkey], head + word)
            if val:
                c = mul(c, factor)
                if cs is not one:
                    c = mul(c, cs)
                if k is not one:
                    c = mul(c, k)
                for (i, e), v in val.items():
                    add(flat, (i, e + h), v, c)

    def _special_step(self, chart, g_key, word) -> dict:
        """All letters lie in Ker(g - kappa): reorder onto the chosen Darboux
        pair and trade the monomial for insertions that lower E."""
        pairs = chart.kappa_pairs[self.kappa]
        present = [pq for pq in pairs if pq[0] in word or pq[1] in word]
        if not present:
            raise ArithmeticError(
                f"special step on C{self.group.class_of[g_key]}: word {word} "
                f"holds no letter of a Darboux pair")
        I, J = present[0] if self.pair_strategy == "first" else present[-1]
        p = word.count(I)
        q = word.count(J)
        others = tuple(l for l in word if l != I and l != J)
        target = (I,) * p + (J,) * q + others

        acc: dict = {}
        cur = list(word)
        for pos in range(len(target)):
            idx = cur.index(target[pos], pos)
            while idx > pos:
                x, y = cur[idx - 1], cur[idx]
                self._comm(acc, chart, g_key, tuple(cur[:idx - 1]), x, y, tuple(cur[idx + 1:]),
                           self.one)
                cur[idx - 1], cur[idx] = y, x
                idx -= 1

        scale = -self.mul(Cyclotomic.from_rational(Fraction(1, p + 1), self.alg.m),
                          chart.pair_inverse(I, J))
        for tp in range(p + 1):
            self._refl_part(acc, chart, g_key, (I,) * tp, I, J,
                            (I,) * (p - tp) + (J,) * q + others, scale)
        for s in range(len(others)):
            self._refl_part(acc, chart, g_key, (I,) * (p + 1) + (J,) * q + others[:s],
                            others[s], J, others[s + 1:], scale)
        return settle(acc, self.alg.m)


# -- eta = 0 closed form ------------------------------------------------------


def eta0_form(group: Group, g_key, kappa: int) -> Matrix:
    """The symmetric form w~ of the undeformed skew product:
    w~_ij = omega_ki ((kappa + g)/(kappa - g))^k_j, defined when E_kappa(g) = 0."""
    if group.e_grading(g_key, kappa)[0] != 0:
        raise KappaEigenvaluePresentError(
            f"element has eigenvalue {kappa}; the form is undefined")
    m = group.exponent
    g = group.elements[g_key].matrix
    kap = Matrix.identity(group.dim, m).scaled(Cyclotomic.from_rational(kappa, m))
    ratio = inverse(kap - g) * (kap + g)
    tilde = group.omega.transpose() * ratio
    if tilde != tilde.transpose():
        raise ArithmeticError(f"eta0 form of C{group.class_of[g_key]} is not symmetric")
    return tilde


def eta0_trace(group: Group, exp: tuple[int, ...], g_key, kappa: int) -> Cyclotomic:
    """kappa-trace of the symmetrized monomial of content `exp` times g in the
    undeformed algebra, as a multiple of sp(g).

    The symmetrized monomial is the sum over all distinct letter orderings
    (see symmetrized_monomial).  The value is |exp|! times the mu^exp
    coefficient of exp(-1/4 mu^i mu^j w~_ij) sp(g): the exponent carries an
    extra 1/2 relative to the skew-product generating-function display
    because the commutator source term is linear in the integration variable,
    which halves the quadratic form on integrating; the hand-computed
    deg-2 traces and the step-reduction route both confirm the 1/4.  Zero
    when E_kappa(g) != 0 or the degree is odd.
    """
    return _eta0_coefficient(_eta0_quadratic(group, g_key, kappa), exp, group.exponent)


def _eta0_quadratic(group: Group, g_key, kappa: int):
    """The exponent Q = -1/4 mu^i mu^j w~_ij of eta0_trace as {exponent:
    coefficient}, or None when E_kappa(g) != 0 and every trace vanishes."""
    if group.e_grading(g_key, kappa)[0] != 0:
        return None
    m = group.exponent
    tilde = eta0_form(group, g_key, kappa)
    n = group.dim
    half = Cyclotomic.from_rational(Fraction(-1, 2), m)
    quarter = Cyclotomic.from_rational(Fraction(-1, 4), m)
    quad: dict[tuple[int, ...], Cyclotomic] = {}
    for i in range(n):
        for j in range(i, n):
            c = tilde[i, j]
            if c.is_zero():
                continue
            e = [0] * n
            e[i] += 1
            e[j] += 1
            quad[tuple(e)] = (quarter * c) if i == j else (half * c)
    return quad


def _eta0_coefficient(quad, exp: tuple[int, ...], m: int) -> Cyclotomic:
    """|exp|! times the mu^exp coefficient of exp(Q), for Q from _eta0_quadratic."""
    zero = Cyclotomic.zero(m)
    deg = sum(exp)
    if quad is None or deg % 2 == 1:
        return zero
    # Q is homogeneous of degree 2, so of exp(Q) only Q^(deg/2) / (deg/2)!
    # has degree deg; terms that exceed exp in some letter are dropped early
    power = {(0,) * len(exp): Cyclotomic.one(m)}
    add = _context(m).add_product
    for _ in range(deg // 2):
        nxt: dict = {}
        for e1, c1 in power.items():
            for e2, c2 in quad.items():
                e = tuple([a + b for a, b in zip(e1, e2)])
                if any(a > b for a, b in zip(e, exp)):
                    continue
                add(nxt, e, c1, c2)
        power = settle(nxt, m)
    coeff = power.get(tuple(exp), zero)
    return coeff * Cyclotomic.from_rational(Fraction(factorial(deg), factorial(deg // 2)), m)


# -- property checks -----------------------------------------------------------
#
# The checks behind `sra selftest`, `sra oracle-check` and the acceptance
# suite.  Each draws its samples from the caller's rng in a fixed order and
# returns what failed, so that a caller can count, report or assert.


def _random_definite(algebra: Algebra, rng, max_degree: int, keys) -> AlgebraElement:
    """A random element of definite parity: one or two terms c x_(l1)...x_(lk) g
    with k <= max_degree, c in -2..2 and g drawn from keys."""
    n = algebra.group.dim
    par = rng.randint(0, 1)
    out = algebra.zero()
    for _ in range(rng.randint(1, 2)):
        deg = rng.choice([d for d in range(max_degree + 1) if d % 2 == par])
        g_key = rng.choice(keys)
        letters = [rng.randrange(n) for _ in range(deg)]
        out = out + algebra.word(letters[::-1], g_key).scaled(rng.randint(-2, 2))
    if out.parity() is None or out.is_zero():
        out = algebra.word((0,) * par, keys[0])
    return out


def cyclicity_failures(fn: TraceFunctional, rng, samples: int,
                       max_degree: int) -> list[tuple[AlgebraElement, AlgebraElement]]:
    """The pairs (f, h), among `samples` random definite-parity pairs of degree
    <= max_degree, with sp([f, h]_kappa) != 0, that is
    sp(f h) != kappa^(pi(f) pi(h)) sp(h f)."""
    keys = sorted(fn.group.elements)
    failures = []
    for _ in range(samples):
        f = _random_definite(fn.algebra, rng, max_degree, keys)
        h = _random_definite(fn.algebra, rng, max_degree, keys)
        if not fn.evaluate(kappa_commutator(f, h, fn.kappa)).is_zero():
            failures.append((f, h))
    return failures


def confluence_failures(fn: TraceFunctional, rng, samples: int,
                        degrees) -> list[AlgebraElement]:
    """The monomials x_(l1)...x_(lk) g, among `samples` random ones with k drawn
    from degrees, on which the four reduction strategies (regular step first or
    last letter, Darboux pair first or last) disagree."""
    algebra = fn.algebra
    n = fn.group.dim
    keys = sorted(fn.group.elements)
    failures = []
    for _ in range(samples):
        word = [rng.randrange(n) for _ in range(rng.choice(degrees))]
        el = algebra.word(word[::-1], rng.choice(keys))
        vals = {fn.evaluate(el, rs, ps) for rs in ("first", "last") for ps in ("first", "last")}
        if len(vals) != 1:
            failures.append(el)
    return failures


def oracle_mismatches(fn: TraceFunctional,
                      exponents) -> tuple[int, list[tuple[tuple[int, ...], str]]]:
    """Compare evaluate at eta = 0 with the closed form eta0_trace on the
    symmetrized monomial of each exponent times each class representative.

    Returns the number of comparisons and the (exponent, "C<i>") pairs that
    disagree."""
    algebra, group = fn.algebra, fn.group
    quads = [_eta0_quadratic(group, rep, fn.kappa) for rep in group.class_rep]
    checked = 0
    mismatches = []
    for exp in exponents:
        sym = symmetrized_monomial(algebra, exp)
        for ci, rep in enumerate(group.class_rep):
            # at eta = 0 only the constant terms remain
            val = fn.evaluate(sym * algebra.group_element(rep))
            got = {i: c for (i, e), c in val.terms.items() if e == algebra.eta_zero}
            mult = _eta0_coefficient(quads[ci], exp, group.exponent)
            expected = {} if mult.is_zero() else {fn.free_classes.index(ci): mult}
            checked += 1
            if got != expected:
                mismatches.append((exp, f"C{ci}"))
    return checked, mismatches


# -- Gram matrices of the bilinear form B_sp ---------------------------------


@dataclass
class GramReport:
    group_name: str
    kappa: int
    cyclotomic_order: int
    degree: int
    assignment: list[Fraction]
    # (exponent alpha, class index of rep g), the element a_2N^alpha_2N ... a_1^alpha_1 g
    basis: list[tuple[tuple[int, ...], int]]
    matrix: list[list[EtaPolynomial]]
    determinant: EtaPolynomial | None
    rational_roots: list[Fraction] | None

    def to_dict(self) -> dict:
        return {
            "group": self.group_name,
            "kappa": self.kappa,
            "cyclotomic_order": self.cyclotomic_order,
            "degree": self.degree,
            "assignment": [str(a) for a in self.assignment],
            "basis": [{"exponent": list(e), "class": f"C{ci}"} for e, ci in self.basis],
            "matrix": self._rendered_matrix(),
            "determinant": None if self.determinant is None else _eta_poly_json(self.determinant),
            "rational_roots": None if self.rational_roots is None
            else [str(r) for r in self.rational_roots],
        }

    def _rendered_matrix(self) -> list:
        """The matrix for JSON: an entry that gram mirrors (matrix[j][i] is
        matrix[i][j]) is rendered once and the rendering shared."""
        rows = [[None] * len(row) for row in self.matrix]
        for i, row in enumerate(self.matrix):
            for j, x in enumerate(row):
                rows[i][j] = (rows[j][i] if j < i and x is self.matrix[j][i]
                              else _eta_poly_json(x))
        return rows


def monomials_of_degree(n: int, d: int) -> list[tuple[int, ...]]:
    """Exponent vectors with n slots and total degree d, lex order."""
    if n == 1:
        return [(d,)]
    out = []
    for v in range(d + 1):
        out.extend((v,) + rest for rest in monomials_of_degree(n - 1, d - v))
    return sorted(out)


def even_monomials(n: int, max_degree: int) -> list[tuple[int, ...]]:
    """All exponent vectors of even total degree <= max_degree, grlex order."""
    if max_degree < 0:
        raise ValueError("degree cutoff must be >= 0")
    out = []
    for d in range(0, max_degree + 1, 2):
        out.extend(monomials_of_degree(n, d))
    return out


def _check_basis_size(group: Group, degree: int, cap: int, what: str):
    """Raise CapExceededError, naming `what`, when the even monomials of
    degree <= degree times the class representatives (a Gram basis, or the
    eta = 0 oracle's comparisons) number more than cap.  Their count, the
    sum over even k <= degree of C(n + k - 1, k) times the number of
    classes, is summed only until it passes the cap, so that a huge degree
    costs nothing."""
    total = 0
    for k in range(0, degree + 1, 2):
        total += comb(group.dim + k - 1, k) * len(group.classes)
        if total > cap:
            raise CapExceededError(f"{what} exceeds cap {cap}")


def gram(functional: TraceFunctional, degree: int,
         assignment: list[Fraction] | None = None,
         compute_determinant: bool = True) -> GramReport:
    """Gram matrix of B_sp(f, h) = sp(f h) over even monomials of degree <=
    `degree` paired with every class representative.

    The basis element of exponent alpha and representative g is the
    descending product a_2N^alpha_2N ... a_1^alpha_1 g, not the ordered
    monomial: on Z_2, exponent (1, 1) is a2*a1 = a1*a2 - 1 - eta0*g0.

    The basis is even, so B is symmetric by cyclicity and only i <= j is
    evaluated, at the free-parameter assignment (default: first parameter 1,
    the rest 0), with no product in the algebra:
    - the assignment is substituted first, once per class, into a
      functional whose class values sum_i a_i value_i carry one parameter
      (_at_assignment), and one evaluator reads every entry over it;
    - with f = x_L g, L the descending letter list, g x_l = g(x_l) g gives
      sp(f_i f_j) = c sp(x_(L_i) u_ids g_i g_j): each letter of L_j moved by
      g_i is interned up to a scalar (Algebra.moved_letter), and c is the
      product of those scalars, so an entry is c times the evaluator's
      vectors(g_i g_j, L_i + ids).
    The determinant is the product of one fraction-free determinant per
    connected block of the nonzero pattern, each on rows cleared of
    denominators (_block_det).
    Rational roots are reported in the univariate case when the determinant
    is nonzero with rational coefficients; they are the union of the
    blocks' rational roots.
    """
    algebra = functional.algebra
    group = functional.group
    _check_basis_size(group, degree, GRAM_BASIS_CAP, f"Gram basis at degree {degree}")
    monos = even_monomials(group.dim, degree)
    if assignment is None:
        assignment = [Fraction(1 if i == 0 else 0) for i in range(functional.nparams)]
    # an int or a Fraction; another value is the ValueError of from_rational
    assignment = [Cyclotomic.from_rational(a).as_rational() for a in assignment]
    if len(assignment) != functional.nparams:
        raise ValueError("free-parameter assignment arity mismatch")
    basis = [(e, ci) for e in monos for ci in range(len(group.classes))]
    words = [tuple(_letters(e)[::-1]) for e, _ in basis]
    reps = [group.class_rep[ci] for _, ci in basis]
    nvars, m = group.n_eta, group.exponent
    unit = Cyclotomic.one(m)
    ev = _Evaluator(_at_assignment(functional, assignment), "first", "first")
    n = len(basis)
    mat = [[None] * n for _ in range(n)]
    for i, (word, g) in enumerate(zip(words, reps)):
        for j in range(i, n):
            moved = [algebra.moved_letter(g, letter) for letter in words[j]]
            val, c = ev.vectors(group.mul(g, reps[j]), word + tuple(u for u, _, _ in moved))
            c = prod((k for _, k, _ in moved), start=c)
            same = c == unit
            mat[i][j] = mat[j][i] = EtaPolynomial(
                nvars, m, {e: k if same else k * c for (_, e), k in val.items()})
    determinant = roots = None
    if compute_determinant:
        one = EtaPolynomial.constant(1, nvars, m)
        factors = [_block_det([[mat[i][j] for j in block] for i in block], one)
                   for block in components(mat)]
        determinant = one
        for factor in factors:
            determinant = determinant * factor
        if (nvars == 1 and not determinant.is_zero()
                and all(c.is_rational() for c in determinant.terms.values())):
            roots = sorted(set().union(*(f.rational_roots() for f in factors)))
    return GramReport(group.name, functional.kappa, m, degree, assignment,
                      basis, mat, determinant, roots)


def _at_assignment(functional: TraceFunctional, assignment: list[Fraction]) -> TraceFunctional:
    """The functional at one assignment of its free parameters, as a
    functional whose class values carry one parameter P0 (none when it has
    no free parameter): sum_i a_i value_i, one TraceValue.substitute per
    class.  Its free class is a label only, the first one's."""
    free = functional.free_classes[:1]
    m = functional.algebra.m
    table = {ci: TraceValue(len(free), value.nvars,
                            {(0, e): c for e, c in value.substitute(assignment, m).terms.items()})
             for ci, value in functional.table.items()}
    return TraceFunctional(functional.algebra, functional.kappa, free, table,
                           functional.e_of_class)


def _block_det(rows, one: EtaPolynomial) -> EtaPolynomial:
    """The determinant of a block of eta-polynomial rows by the Bareiss over
    Z[zeta_m][eta]: each row is first scaled by the lcm L_i of its
    coefficients' denominators, so the elimination multiplies and adds
    integer coordinates with no gcd, and the determinant of the scaled rows
    is then divided by the product of the L_i."""
    scales = [lcm(*(c.den for p in row for c in p.terms.values())) for row in rows]
    cleared = []
    for row, scale in zip(rows, scales):
        c = Cyclotomic.from_rational(scale, one.m)
        cleared.append([EtaPolynomial(one.nvars, one.m, {e: k * c for e, k in p.terms.items()})
                        for p in row])
    det = fraction_free_det(cleared, lambda p: lambda x: x.exact_divide(p), one)
    return det * EtaPolynomial.constant(Fraction(1, prod(scales)), one.nvars, one.m)


# -- serialization -------------------------------------------------------------


def _cyc_json(c: Cyclotomic):
    return {"num": list(c.num), "den": c.den, "literal": literal(c)}


def _eta_poly_json(p: EtaPolynomial):
    return [{"exponent": list(e), "coeff": _cyc_json(c)} for e, c in p.sorted_terms()]


def _trace_value_json(v: TraceValue):
    return {f"P{i}": _eta_poly_json(c) for i, c in sorted(v.coeffs.items())}


def format_trace_value(tv: TraceValue) -> str:
    """Human rendering like '(1/2 - 1/2*eta0^2)*P0 - eta0*P1'."""
    return render_sum([render_term(render_eta(c), f"P{i}")
                       for i, c in sorted(tv.coeffs.items())])[0]


def functional_to_json(functional: TraceFunctional) -> str:
    return json.dumps(functional.to_dict(), indent=2, sort_keys=True)
