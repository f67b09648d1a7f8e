"""Finite symplectic reflection groups: closure from generators, conjugacy
classes, the reflection set, E-grading, and the trace/supertrace counts.

A group element is a 2N x 2N matrix over Q(zeta_m) with m the session
cyclotomic order (the group exponent, enlarged when matrix entries need a
bigger field).  The canonical key of an element is the canonical coefficient
data of its entries in row-major order.  The elements are numbered
0..|G|-1 once, in increasing key order, and every other structure (classes,
reflections, generators, products) refers to them by that integer index;
class representatives are the classes' smallest indices, which makes
eta-variable labels and all reports deterministic.

The closure records every product (element i) * (generator gi) it forms in
the generator tables `right[gi][i]`; a product of two elements walks the
word of the right factor through these tables, so after closure no group
multiplication touches a matrix.  Matrices stay on the elements for the
spectral data (E-grading, eigenspaces, omega_R, charts).

The closure does no cyclotomic arithmetic past its generators' orbits: G
permutes Omega, the union of the G-orbits of the basis vectors, so a product
is a composition of integer tuples and an element's columns are points of
Omega (Holt, Eick and O'Brien, Handbook of Computational Group Theory, ch. 4).
Each distinct entry of a point is one object, embedded into Q(zeta_m) once
and shared among the elements whose matrices are read off those points.

The closure also names the identity and -1 (if present) by index.  The
class search records, for every element k, a conjugator h with
k = h rep h^-1 and its inverse h^-1, which verify_glc and the evaluator
read.  `eigenspace`, the one source of
spectral data (`e_grading` and `spectrum` are views of it), solves
Ker(g - zeta_m^k) for whichever element asks.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import chain
from math import cos, hypot, lcm, pi, sin
from operator import itemgetter

# the caps and CapExceededError live in sra.scalar
from .scalar import (DEFAULT_CAP, CapExceededError, Cyclotomic, literal, parse_literal,
                     parse_rational)
from .linalg import (
    Matrix,
    darboux_basis,
    det,
    form_value,
    inverse,
    kernel_basis,
    rank,
    vec_is_zero,
    vec_scale,
)

class DecompositionIncompleteError(Exception):
    """Eigenspaces of the m-th roots of unity do not fill the whole space."""


class NotSymplecticError(ValueError):
    """A generator does not preserve the symplectic form."""


class NotReflectionError(ValueError):
    """A generator is not a symplectic reflection (rank(g-1) != 2)."""


class GroupElement:
    """The matrix of one element, its order, and a word in the generators."""

    __slots__ = ("matrix", "order", "word")

    def __init__(self, matrix: Matrix, order: int, word: tuple[int, ...]):
        self.matrix = matrix
        self.order = order
        self.word = word      # generator indices whose product equals the element

    def __repr__(self):
        return f"GroupElement(word={self.word}, order={self.order})"


def _walk(right: list[list[int]], a: int, word: tuple[int, ...]) -> int:
    """Index of a * g_(w1) * ... * g_(wk) through the generator tables."""
    for gi in word:
        a = right[gi][a]
    return a


class Group:
    """Closed symplectic reflection group with precomputed class data.

    Elements are integer indices 0..|G|-1 in canonical key order:
    `elements` maps an index to its GroupElement, and `right[gi][i]` is the
    index of (element i) * (generator gi).  `identity_key()`, `klein()`
    (None when -1 is not in the group), `generator_keys`, `classes`,
    `class_rep`, `class_of`, `conjugator`, `conjugator_inv` and
    `reflections` all give
    indices.  g is a reflection iff Ker(g - 1) has dimension 2N - 2, which
    is constant on a conjugacy class, so the reflections are decided once
    per class, from the representative's eigenspace(rep, 0): the kernel
    that kappa_counts and the ground level conditions read anyway.
    """

    def __init__(self, N, omega, elements, right, generator_keys, identity, minus_one,
                 exponent, name):
        self.N = N
        self.omega = omega
        self.elements: dict[int, GroupElement] = elements
        self.right: list[list[int]] = right
        self.generator_keys: list[int] = generator_keys
        self._identity = identity
        self._minus_one = minus_one
        self.exponent = exponent  # session cyclotomic order m
        self.name = name
        # conjugator[k] = h with element k = h rep h^-1, rep the representative of k's
        # class, and conjugator_inv[k] = h^-1
        self.classes, self.conjugator, self.conjugator_inv = self._conjugacy_classes()
        self.class_rep = [cls[0] for cls in self.classes]
        self.class_of = {k: i for i, cls in enumerate(self.classes) for k in cls}
        self._eigenspace: dict = {}
        self._omega_r: dict = {}
        refl_classes = [ci for ci, rep in enumerate(self.class_rep)
                        if len(self.eigenspace(rep, 0)) == self.dim - 2]
        self.reflections: list[int] = sorted(
            k for ci in refl_classes for k in self.classes[ci])
        self.eta_vars = {ci: vi for vi, ci in enumerate(refl_classes)}
        self.eta_assignment: dict[int, Fraction] | None = None  # optional, from files

    # -- basic structure ----------------------------------------------------

    def __len__(self):
        return len(self.elements)

    @property
    def dim(self) -> int:
        return 2 * self.N

    @property
    def n_eta(self) -> int:
        return len(self.eta_vars)

    def eta_var_of(self, refl_key) -> int:
        return self.eta_vars[self.class_of[refl_key]]

    def identity_key(self) -> int:
        return self._identity

    def mul(self, a: int, b: int) -> int:
        """Index of the product (element a) * (element b)."""
        return _walk(self.right, a, self.elements[b].word)

    def inv(self, a: int) -> int:
        """Index of (element a)^(order - 1)."""
        acc = self._identity
        for _ in range(self.elements[a].order - 1):
            acc = self.mul(acc, a)
        return acc

    def sorted_keys(self):
        return sorted(self.elements)

    def _conjugacy_classes(self) -> tuple[list[tuple[int, ...]], list[int], list[int]]:
        """Orbits under conjugation by the generators, each sorted, listed in
        order of their smallest index; for every element k a conjugator h
        with k = h rep h^-1: the identity for the representative, and
        s h_x for y = s x s^-1 reached from x by the generator s; and its
        inverse, h_x^-1 s^-1, one product per element."""
        conj = [(g, self.inv(g)) for g in self.generator_keys]
        conjugator: list = [None] * len(self.elements)
        conjugator_inv: list = [None] * len(self.elements)
        classes = []
        for k in sorted(self.elements):
            if conjugator[k] is not None:
                continue
            conjugator[k] = conjugator_inv[k] = self._identity
            orbit = [k]
            frontier = [k]
            while frontier:
                x = frontier.pop()
                for g, g_inv in conj:
                    y = self.mul(self.mul(g, x), g_inv)
                    if conjugator[y] is None:
                        conjugator[y] = self.mul(g, conjugator[x])
                        conjugator_inv[y] = self.mul(conjugator_inv[x], g_inv)
                        orbit.append(y)
                        frontier.append(y)
            classes.append(tuple(sorted(orbit)))
        return classes, conjugator, conjugator_inv

    # -- spectral data ------------------------------------------------------

    def eigenspace(self, key, k: int):
        """A basis of Ker(g - zeta_m^k), cached per (element, k), and a
        Darboux basis when zeta_m^k = +1 or -1, where an odd dimension
        (impossible in Sp(2N)) raises an ArithmeticError naming the class C<i>.
        """
        got = self._eigenspace.get((key, k))
        if got is None:
            m = self.exponent
            got = kernel_basis(self.elements[key].matrix.minus_scalar(
                Cyclotomic.root_of_unity(m, k)))
            if 2 * k % m == 0:
                if len(got) % 2 != 0:
                    raise ArithmeticError(f"C{self.class_of[key]}: odd-dimensional "
                                          "kappa-eigenspace (impossible in Sp(2N))")
                got = tuple(darboux_basis(got, self.omega))
            self._eigenspace[(key, k)] = got
        return got

    def kappa_exponent(self, kappa: int) -> int | None:
        """k with zeta_m^k = kappa = +1 or -1; None for -1 at odd m."""
        m = self.exponent
        return 0 if kappa == 1 else m // 2 if m % 2 == 0 else None

    def e_grading(self, key, kappa: int):
        """E = dim Ker(g - kappa)/2 and the Darboux basis of Ker(g - kappa).
        Every eigenvalue of g is a power of zeta_m^(m/order), so when k is not
        a multiple of m/order the kernel is known to be empty and is not
        solved."""
        k = self.kappa_exponent(kappa)
        if k is None or k % (self.exponent // self.elements[key].order):
            return 0, ()
        basis = self.eigenspace(key, k)
        return len(basis) // 2, basis

    def spectrum(self, key):
        """The nonzero eigenspaces [(k, basis)] over the multiples k of
        m/order, in increasing k; raises DecompositionIncompleteError when
        they do not fill the space."""
        m = self.exponent
        spaces = [(k, self.eigenspace(key, k)) for k in range(0, m, m // self.elements[key].order)]
        out = [(k, basis) for k, basis in spaces if basis]
        total = sum(len(basis) for _, basis in out)
        if total != self.dim:
            raise DecompositionIncompleteError(
                f"C{self.class_of[key]}: eigenspaces of the {m}-th roots of unity span "
                f"{total} < {self.dim} dimensions")
        return out

    def invariant_failures(self) -> list[int]:
        """Indices of the elements g that break an invariant of Sp(2N):
        g^T omega g = omega, det g = 1, g diagonalizable with eigenvalues
        zeta_m^k for the multiples k of m/order, the spectrum closed under
        inversion, and +1 and -1 of even multiplicity.  Only the kernels'
        dimensions are read, so no Darboux basis is built and nothing is
        cached."""
        m = self.exponent
        one = Cyclotomic.one(m)

        def holds(key) -> bool:
            mat = self.elements[key].matrix
            if not (mat.transpose() * self.omega * mat == self.omega and det(mat) == one):
                return False
            mults = {k: len(kernel_basis(mat.minus_scalar(Cyclotomic.root_of_unity(m, k))))
                     for k in range(0, m, m // self.elements[key].order)}
            return (sum(mults.values()) == self.dim
                    and all(mults.get((-k) % m) == d for k, d in mults.items())
                    and mults[0] % 2 == 0
                    and (m % 2 == 1 or mults.get(m // 2, 0) % 2 == 0))

        return [key for key in sorted(self.elements) if not holds(key)]

    def kappa_counts(self) -> tuple[int, int]:
        """(T, S): numbers of classes without eigenvalue +1 / -1."""
        t = s = 0
        for rep in self.class_rep:
            if self.e_grading(rep, +1)[0] == 0:
                t += 1
            if self.e_grading(rep, -1)[0] == 0:
                s += 1
        return t, s

    def klein(self):
        """Index of the element -1, or None if the group lacks it."""
        return self._minus_one

    # -- the pairing omega_R ------------------------------------------------

    def omega_r_covectors(self, refl_key):
        """Covectors (A, B) with omega_R(x, y) = (x.B)(y.A) - (x.A)(y.B).

        Built from a Darboux pair of V_R = Im(R - 1); omega_R projects onto
        V_R along Z_R and evaluates omega there.  V_R is a symplectic plane,
        so its second vector is the first column c of R - 1 with
        omega(v_1, c) != 0.
        """
        got = self._omega_r.get(refl_key)
        if got is None:
            R = self.elements[refl_key].matrix
            diff = R.minus_scalar(Cyclotomic.one(self.exponent))
            cols = [diff.col(j) for j in range(self.dim)]
            v1 = next(c for c in cols if not vec_is_zero(c))
            for v2 in cols:
                s = form_value(self.omega, v1, v2)
                if not s.is_zero():
                    break
            else:
                raise ArithmeticError("omega degenerate on Im(R-1)")
            v2 = vec_scale(v2, s.inverse())
            a_cov = self.omega.matvec(v2)
            b_cov = self.omega.matvec(v1)
            got = (a_cov, b_cov)
            self._omega_r[refl_key] = got
        return got


# -- closure ----------------------------------------------------------------


def _beyond(x: Cyclotomic, bound: int) -> bool:
    """Whether |x| > bound at zeta_m = exp(2 pi i / m).  The float sum only
    answers True beyond a margin far above its rounding error.  Every
    eigenvalue of a finite-order g is a root of unity, so under any
    embedding |tr g| <= 2N: a finite group's generator is never refused."""
    try:
        coords = [float(Fraction(c, x.den)) for c in x.num]
    except OverflowError:
        return True      # no sum of 2N powers of zeta_m comes near the float range
    angles = [2 * pi * k / x.m for k in range(len(coords))]
    real = sum(c * cos(a) for c, a in zip(coords, angles))
    imag = sum(c * sin(a) for c, a in zip(coords, angles))
    return hypot(real, imag) > bound + 1e-9 * (1 + sum(map(abs, coords)))


def close(generators: list[Matrix], omega: Matrix, cap: int = DEFAULT_CAP,
          strict_reflections: bool = True, name: str = "group") -> Group:
    """Breadth-first closure of symplectic generators into a Group.

    Each generator must satisfy g^T omega g = omega, and (unless
    strict_reflections is False) rank(g - 1) = 2.  Their matvecs at the
    entry order build Omega, the union of the orbits of the basis vectors,
    on which each generator is a permutation; a group of at most cap
    elements has at most cap * 2N points.  The breadth-first search runs over
    permutations of Omega: an element is known by its columns, the points it
    sends the basis vectors to, and (element p) * q has the columns p[q[c]].
    After closure the session cyclotomic order is the lcm of all element
    orders and of the entry order; each distinct entry of a point is
    embedded into it once and shared by every element that holds it.  The
    identity's columns are the basis vectors, and -1's the points -e_c.
    """
    if not generators:
        raise ValueError("need at least one generator")
    dim = generators[0].rows
    if omega.rows != dim or omega.cols != dim or dim % 2 != 0:
        raise ValueError("omega must be 2N x 2N matching the generators")
    m0 = lcm(omega.order(), *[g.order() for g in generators])
    omega0 = omega.embed(m0)
    if rank(omega0) != dim or not (-omega0.transpose() == omega0):
        raise ValueError("omega must be nondegenerate and antisymmetric")
    gens = [g.embed(m0) for g in generators]
    ident0 = Matrix.identity(dim, m0)
    one0 = Cyclotomic.one(m0)
    for i, g in enumerate(gens):
        if not (g.transpose() * omega0 * g == omega0):
            raise NotSymplecticError(f"generator {i} does not preserve omega")
        trace = sum((g[k, k] for k in range(dim)), Cyclotomic.zero(m0))
        if _beyond(trace, dim):
            raise ValueError(f"generator {i} has trace {literal(trace)}, of absolute value "
                             f"above 2N = {dim}: it has infinite order")
        if strict_reflections and rank(g.minus_scalar(one0)) != 2:
            raise NotReflectionError(
                f"generator {i} has rank(g-1) = {rank(g.minus_scalar(one0))}, not 2")

    # Omega at the entry order, point c < dim being e_c; perms[gi][x] is the
    # index of the point gens[gi] x
    points = [ident0.col(c) for c in range(dim)]
    index = {v: c for c, v in enumerate(points)}
    perms: list[list[int]] = [[] for _ in gens]
    for v in points:                    # grows while it is walked
        for g, perm in zip(gens, perms):
            w = g.matvec(v)
            x = index.get(w)
            if x is None:
                if len(points) >= cap * dim:
                    raise CapExceededError(f"group closure exceeds cap {cap}")
                x = index[w] = len(points)
                points.append(w)
            perm.append(x)

    # BFS over permutations of Omega, recording right[gi][i] = i * gens[gi];
    # pending holds an element's full permutation until it is expanded, and
    # its order is the least d with p^d fixing the basis points
    steps = [(itemgetter(*q[:dim]), itemgetter(*q)) for q in perms]
    ident = tuple(range(len(points)))
    basis = ident[:dim]
    found = {basis: 0}
    cols, words, pending, orders = [basis], [()], {0: ident}, []
    right: list[list[int]] = [[] for _ in gens]
    for i, word in enumerate(words):    # grows while it is walked
        p = pending.pop(i)
        d, cur = 1, cols[i]
        while cur != basis:
            d, cur = d + 1, itemgetter(*cur)(p)
        orders.append(d)
        for gi, (head, whole) in enumerate(steps):
            img = head(p)
            j = found.get(img)
            if j is None:
                if len(found) >= cap:
                    raise CapExceededError(f"group closure exceeds cap {cap}")
                j = found[img] = len(cols)
                cols.append(img)
                words.append(word + (gi,))
                pending[j] = whole(p)
            right[gi].append(j)
    m = lcm(m0, *orders)

    # matrices and keys read off the points: each distinct entry is embedded
    # into the session order once and shared, and an element's key lists the
    # ranks of its entries' keys in row-major order; renumber in key order
    embedded = {a: a.embed(m) for a in dict.fromkeys(chain.from_iterable(points))}
    rank_of = {a: r for r, a in enumerate(sorted(embedded.values(), key=Cyclotomic.key))}
    point_entries = [tuple([embedded[a] for a in v]) for v in points]
    point_ranks = [tuple([rank_of[a] for a in v]) for v in point_entries]

    def row_major(per_point, img):
        return chain.from_iterable(zip(*map(per_point.__getitem__, img)))

    by_key = sorted(range(len(cols)), key=lambda k: tuple(row_major(point_ranks, cols[k])))
    new_of = [0] * len(cols)
    for idx, k in enumerate(by_key):
        new_of[k] = idx
    elements = {idx: GroupElement(Matrix(dim, dim, row_major(point_entries, cols[k])),
                                  orders[k], words[k])
                for idx, k in enumerate(by_key)}
    minus_one = found.get(tuple([index.get(tuple([-a for a in v])) for v in points[:dim]]))
    gen_keys = [new_of[row[0]] for row in right]
    right = [[new_of[row[k]] for k in by_key] for row in right]
    return Group(dim // 2, omega0.embed(m), elements, right, gen_keys, new_of[0],
                 None if minus_one is None else new_of[minus_one], m, name)


# -- builtin constructors ----------------------------------------------------


def standard_omega(n_half: int, m: int = 1) -> Matrix:
    """The block form ((0, I), (-I, 0))."""
    n = 2 * n_half
    one, zero = Cyclotomic.one(m), Cyclotomic.zero(m)
    rows = [[zero] * n for _ in range(n)]
    for i in range(n_half):
        rows[i][n_half + i] = one
        rows[n_half + i][i] = -one
    return Matrix.from_rows(rows)


def cyclic_sp2(n: int, cap: int = DEFAULT_CAP) -> Group:
    """The cyclic group generated by diag(zeta_n, zeta_n^-1) in Sp(2)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    m = n
    z = Cyclotomic.root_of_unity(m, 1)
    zero = Cyclotomic.zero(m)
    gen = Matrix.from_rows([[z, zero], [zero, z ** (n - 1)]])
    return close([gen], standard_omega(1, m), cap=cap, strict_reflections=(n >= 2),
                 name=f"cyclic_sp2({n})")


def _coxeter_gram(family: str, rank: int) -> list[list[Fraction]]:
    """Gram matrix (alpha_i, alpha_j) of the simple roots of the family "A"
    or "B"."""
    g = [[Fraction(0)] * rank for _ in range(rank)]
    for i in range(rank):
        g[i][i] = Fraction(2)
        if i + 1 < rank:
            g[i][i + 1] = g[i + 1][i] = Fraction(-1)
    if family == "B":
        g[rank - 1][rank - 1] = Fraction(1)
    return g


def _simple_reflection_matrices(gram) -> list[Matrix]:
    rank = len(gram)
    mats = []
    for i in range(rank):
        rows = [[Fraction(1) if k == j else Fraction(0) for j in range(rank)]
                for k in range(rank)]
        for j in range(rank):
            rows[i][j] -= 2 * gram[j][i] / gram[i][i]
        mats.append(Matrix.from_rows(
            [[Cyclotomic.from_rational(x, 1) for x in row] for row in rows]))
    return mats


def _block_diagonal(a: Matrix, b: Matrix) -> Matrix:
    """diag(a, b) for square a and b over the same field."""
    zero = Cyclotomic.zero(a.order())
    return Matrix.from_rows([list(a.row(i)) + [zero] * b.rows for i in range(a.rows)]
                            + [[zero] * a.rows + list(b.row(i)) for i in range(b.rows)])


def _double_contragredient(g: Matrix) -> Matrix:
    """Block-diagonal action on coordinates and momenta: g + (g^-1)^T.

    Symplectic with respect to the standard omega for any invertible g; for
    the involutive Coxeter generators the momentum block is just g^T.
    """
    return _block_diagonal(g, inverse(g).transpose())


def doubled_coxeter(family: str, rank: int, cap: int = DEFAULT_CAP) -> Group:
    """Doubled Coxeter group of type A_(rank-1) or B_rank acting on
    coordinates and momenta with the standard symplectic form.

    For family "A" the argument is the number n of the symmetric group S_n,
    i.e. the reflection representation has dimension n - 1.
    """
    if family == "A":
        if rank < 2:
            raise ValueError("doubled A needs n >= 2")
        gram = _coxeter_gram("A", rank - 1)
        name = f"doubled-A{rank - 1}"
    elif family == "B":
        if rank < 1:
            raise ValueError("doubled B needs rank >= 1")
        gram = _coxeter_gram("B", rank)
        name = f"doubled-B{rank}"
    else:
        raise ValueError(f"unknown Coxeter family {family!r}")
    gens = [_double_contragredient(s) for s in _simple_reflection_matrices(gram)]
    n_half = len(gram)
    return close(gens, standard_omega(n_half, 1), cap=cap, name=name)


def dihedral(n: int, cap: int = DEFAULT_CAP) -> Group:
    """Doubled dihedral group I_2(n) of order 2n, realized over Q(zeta_n)."""
    if n < 2:
        raise ValueError("dihedral needs n >= 2")
    m = n
    z = Cyclotomic.root_of_unity(m, 1)
    zero, one = Cyclotomic.zero(m), Cyclotomic.one(m)
    s1 = Matrix.from_rows([[zero, one], [one, zero]])
    s2 = Matrix.from_rows([[zero, z ** (n - 1)], [z, zero]])
    gens = [_double_contragredient(s) for s in (s1, s2)]
    return close(gens, standard_omega(2, m), cap=cap, name=f"dihedral({n})")


def direct_product(g1: Group, g2: Group, cap: int = DEFAULT_CAP) -> Group:
    """Direct product, embedded block-diagonally with omega = diag(w1, w2)."""
    m = lcm(g1.exponent, g2.exponent)
    one1, one2 = Matrix.identity(g1.dim, m), Matrix.identity(g2.dim, m)

    def blk(a: Matrix, b: Matrix) -> Matrix:
        return _block_diagonal(a.embed(m), b.embed(m))

    omega = blk(g1.omega, g2.omega)
    gens = [blk(g1.elements[k].matrix, one2) for k in g1.generator_keys]
    gens += [blk(one1, g2.elements[k].matrix) for k in g2.generator_keys]
    return close(gens, omega, cap=cap, name=f"{g1.name}x{g2.name}")


# builtin kind -> the name of its one parameter
BUILTINS = {"cyclic": "n", "doubled-A": "rank", "doubled-B": "rank", "dihedral": "n",
            "product": "factors"}


def _order(kind: str, n: int):
    """The order of a builtin group other than product, in closed form: the
    factors whose product it is, and the formula."""
    if kind == "cyclic":
        return [n], str(n)
    if kind == "dihedral":
        return [2, n], f"2*{n}"
    if kind == "doubled-A":
        return range(2, n + 1), f"{n}!"
    # doubled-B: 2^n n!, the product of 2k over k = 1..n
    return range(2, 2 * n + 1, 2), f"2^{n}*{n}!"


def _check_order(parts, cap: int):
    """Raise CapExceededError when the product of the orders `parts` (see
    _order) exceeds cap.  The product stops at the first partial product
    over the cap, so a huge rank costs nothing."""
    total = 1
    for factors, _ in parts:
        for f in factors:
            total *= f
            if total > cap:
                raise CapExceededError(f"group closure exceeds cap {cap}: the group has order "
                                       + " * ".join(formula for _, formula in parts))


def builtin(kind: str, cap: int = DEFAULT_CAP, **params) -> Group:
    """Construct a builtin group by name, with the one parameter BUILTINS
    names for it: the rank of doubled-A is the n of S_n, and product takes a
    list of (kind, params) factor pairs.  A group whose order, known in
    closed form, exceeds `cap` is refused before any closure; every closure,
    the factors' too, also stops at `cap` elements.
    """
    if kind == "product":
        # each factor's params hold its one parameter
        _check_order([_order(k, int(n)) for k, p in params["factors"] for n in p.values()], cap)
    elif kind in BUILTINS:
        _check_order([_order(kind, int(params[BUILTINS[kind]]))], cap)
    if kind == "cyclic":
        return cyclic_sp2(int(params["n"]), cap=cap)
    if kind == "doubled-A":
        return doubled_coxeter("A", int(params["rank"]), cap=cap)
    if kind == "doubled-B":
        return doubled_coxeter("B", int(params["rank"]), cap=cap)
    if kind == "dihedral":
        return dihedral(int(params["n"]), cap=cap)
    if kind == "product":
        factors = params["factors"]
        groups = [builtin(k, cap=cap, **p) for k, p in factors]
        if len(groups) < 2:
            raise ValueError("product needs at least two factors")
        out = groups[0]
        for g in groups[1:]:
            out = direct_product(out, g, cap=cap)
        return out
    raise ValueError(f"unknown builtin group {kind!r}")


# -- group definition files ---------------------------------------------------


def group_to_dict(group: Group) -> dict:
    """JSON-ready description; cyclotomic literals round-trip bit-exactly."""
    def mat_lits(mat: Matrix):
        return [[literal(mat[i, j]) for j in range(mat.cols)] for i in range(mat.rows)]

    d = {
        "name": group.name,
        "N": group.N,
        "cyclotomic_order": group.exponent,
        "omega": mat_lits(group.omega),
        "generators": [mat_lits(group.elements[k].matrix) for k in group.generator_keys],
    }
    if group.eta_assignment is not None:
        eta = {}
        for ci, vi in group.eta_vars.items():
            val = group.eta_assignment.get(vi)
            eta[f"R{vi}"] = "symbolic" if val is None else str(val)
        d["eta"] = eta
    return d


def _check_shape(d):
    """Raise a ValueError naming the first field of a group file whose JSON
    type is wrong, before anything is parsed or built."""
    if not isinstance(d, dict):
        raise ValueError("a group file must hold a JSON object")
    for field in ("N", "generators"):
        if field not in d:
            raise ValueError(f"group file lacks the field {field!r}")

    def is_matrix(x):
        return isinstance(x, list) and all(
            isinstance(row, list) and all(isinstance(e, str) for e in row) for row in x)

    shapes = {
        "N": ("a positive int", lambda x: type(x) is int and x > 0),
        "cyclotomic_order": ("a positive int", lambda x: type(x) is int and x > 0),
        "omega": ("a list of lists of strings", is_matrix),
        "generators": ("a nonempty list of matrices, each a list of lists of strings",
                       lambda x: isinstance(x, list) and x and all(map(is_matrix, x))),
        "eta": ("an object of strings",
                lambda x: isinstance(x, dict) and all(isinstance(v, str) for v in x.values())),
        "allow_non_reflections": ("true or false", lambda x: type(x) is bool),
        "name": ("a string", lambda x: isinstance(x, str)),
    }
    for field, (shape, ok) in shapes.items():
        if field in d and not ok(d[field]):
            raise ValueError(f"group file field {field!r} must be {shape}")


def group_from_dict(d: dict, cap: int = DEFAULT_CAP) -> Group:
    _check_shape(d)
    n_half = d["N"]
    dim = 2 * n_half
    m0 = d.get("cyclotomic_order", 1)

    def parse_matrix(rows) -> Matrix:
        if len(rows) != dim or any(len(r) != dim for r in rows):
            raise ValueError(f"matrix must be {dim}x{dim}")
        if m0 == 1 and any("z" in x for row in rows for x in row):
            raise ValueError(
                "literals use z but the file declares no cyclotomic_order")
        return Matrix.from_rows([[parse_literal(x, m0) for x in row] for row in rows])

    # the generators are checked against 2N first, so a huge N builds nothing
    gens = [parse_matrix(g) for g in d["generators"]]
    omega = parse_matrix(d["omega"]) if "omega" in d else standard_omega(n_half, m0)
    strict = not d.get("allow_non_reflections", False)
    group = close(gens, omega, cap=cap, strict_reflections=strict,
                  name=d.get("name", "group"))
    if "eta" in d:
        assignment = {}
        for label, val in d["eta"].items():
            if not re.fullmatch(r"R[0-9]+", label):
                raise ValueError(f"bad reflection-class label {label!r}")
            vi = int(label[1:])
            if vi >= group.n_eta:
                raise ValueError(f"label {label!r} exceeds the {group.n_eta} reflection classes")
            if val != "symbolic":
                assignment[vi] = parse_rational(f"group file eta {label}", val)
        group.eta_assignment = assignment if assignment else None
    return group


def load_group(path: str, cap: int = DEFAULT_CAP) -> Group:
    with open(path) as fh:
        return group_from_dict(json.load(fh), cap=cap)


def save_group(group: Group, path: str):
    with open(path, "w") as fh:
        json.dump(group_to_dict(group), fh, indent=2, sort_keys=True)
        fh.write("\n")
