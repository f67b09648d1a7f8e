import random
from fractions import Fraction
from itertools import permutations
from math import comb, factorial

import pytest

from conftest import eta_exponent
from sra.scalar import POWER_CAP, Cyclotomic, EtaPolynomial
from sra.group import CapExceededError, cyclic_sp2, dihedral, doubled_coxeter
from sra.linalg import form_value
from sra.algebra import (
    Algebra,
    GroupMismatchError,
    IndefiniteParityError,
    kappa_commutator,
    relation_table,
    symmetrized_monomial,
)
from sra.traces import monomials_of_degree


@pytest.fixture(scope="module")
def z2():
    return Algebra(cyclic_sp2(2))


@pytest.fixture(scope="module")
def z3():
    return Algebra(cyclic_sp2(3))


@pytest.fixture(scope="module")
def a2():
    return Algebra(doubled_coxeter("A", 3))


def sigma_key(alg):
    return next(k for k in alg.group.elements if k != alg.group.identity_key())


def test_weyl_relation_z2(z2):
    a1, a2 = z2.generator(0), z2.generator(1)
    sigma = z2.group_element(sigma_key(z2))
    eta = z2.eta_scalar(0)
    assert a2 * a1 == a1 * a2 - z2.one() - eta * sigma
    assert sigma * a1 == -(a1 * sigma)
    f = a1 * a2 + sigma.scaled(Fraction(3, 2))
    assert z2.one() * f == f
    assert f * z2.one() == f


def test_commutators_z2(z2):
    a1, a2 = z2.generator(0), z2.generator(1)
    sigma = z2.group_element(sigma_key(z2))
    eta = z2.eta_scalar(0)
    assert kappa_commutator(a1, a2, +1) == z2.one() + eta * sigma
    assert kappa_commutator(a1, a2, -1) == (a1 * a2).scaled(2) - z2.one() - eta * sigma
    f = a1 * a2
    assert kappa_commutator(f, f, +1).is_zero()
    with pytest.raises(IndefiniteParityError):
        kappa_commutator(a1 + sigma, a2, -1)


def test_element_operators_take_only_elements(z2):
    # constants enter through Algebra.scalar, scaled and eta_scalar
    a1 = z2.generator(0)
    poly = EtaPolynomial.constant(1, z2.nvars, z2.m)
    for other in (1, Fraction(1, 2), Cyclotomic.one(z2.m), poly):
        for op in ("__add__", "__sub__", "__mul__"):
            assert getattr(a1, op)(other) is NotImplemented
    with pytest.raises(TypeError):
        z2.scalar(poly)
    assert z2.scalar(Fraction(3, 2)) == z2.one().scaled(Fraction(3, 2))
    assert z2.scalar(0).is_zero()


def test_equal_elements_in_any_term_order(z2):
    a1, a2 = z2.generator(0), z2.generator(1)
    g0 = z2.group_element(sigma_key(z2))
    f = a1 * a2 + a2 * a1 * g0
    h = a2 * a1 * g0 + a1 * a2
    assert list(f.terms) != list(h.terms)
    assert f == h
    assert hash(f) == hash(h)
    assert list(f.monomials()) == list(h.monomials())
    assert (f - f).terms == {}
    assert (f - h).is_zero()


def test_monomials_by_group_then_degree_then_exponent(z2):
    a1, a2 = z2.generator(0), z2.generator(1)
    e, s = z2.group.identity_key(), sigma_key(z2)
    g0 = z2.group_element(s)
    # a2 a1 g0 = a1 a2 g0 - g0 - eta0
    f = a2 * a2 * g0 + a1 * a2 * a2 + a2 * a1 * g0 + a1 + a2 * g0
    by_group = {e: [(0, 0), (1, 0), (1, 2)], s: [(0, 0), (0, 1), (0, 2), (1, 1)]}
    assert [(gk, exp) for gk, exp, _ in f.monomials()] == \
        [(gk, exp) for gk in sorted(by_group) for exp in by_group[gk]]


def test_group_mismatch(z2, z3):
    with pytest.raises(GroupMismatchError):
        _ = z2.generator(0) * z3.generator(0)


def test_elements_of_algebras_with_another_t_are_unequal():
    # == follows the rule of Algebra.check_same, as + and * do
    group = cyclic_sp2(2)
    one_t1, one_t2 = Algebra(group, t=1).one(), Algebra(group, t=2).one()
    assert one_t1.terms == one_t2.terms
    assert one_t1 != one_t2
    with pytest.raises(GroupMismatchError):
        _ = one_t1 + one_t2
    # another algebra over the same group with the same t agrees
    assert Algebra(group, t=Fraction(1)).one() == one_t1
    assert Algebra(cyclic_sp2(2)).one() != one_t1


def test_scaled_takes_a_rational_or_a_cyclotomic_of_the_order(z2):
    f = z2.generator(0) * z2.generator(1) + z2.eta_scalar(0)
    for zero in (0, Fraction(0), Cyclotomic.zero(z2.m)):
        assert f.scaled(zero).terms == {}
    assert f.scaled(1) == f and f.scaled(-1) == -f
    assert f.scaled(3) == f + f + f
    assert f.scaled(Fraction(1, 2)).scaled(2) == f
    for c in (Cyclotomic.root_of_unity(4), 0.5):
        with pytest.raises(ValueError):
            f.scaled(c)


def test_parity(z2):
    a1, a2 = z2.generator(0), z2.generator(1)
    sigma = z2.group_element(sigma_key(z2))
    assert (a1 * sigma).parity() == 1
    assert (a1 * a2 + sigma).parity() == 0
    assert (a1 + sigma).parity() is None
    assert z2.zero().parity() == 0


def _random_element(alg, rng, max_degree, n_terms=2):
    n = alg.group.dim
    keys = sorted(alg.group.elements)
    out = alg.zero()
    for _ in range(n_terms):
        deg = rng.randint(0, max_degree)
        word = [rng.randrange(n) for _ in range(deg)]
        term = alg.group_element(rng.choice(keys))
        for i in word:
            term = alg.generator(i) * term
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        if rng.random() < 0.3 and alg.nvars:
            term = term * alg.eta_scalar(rng.randrange(alg.nvars))
        out = out + term.scaled(c)
    return out


def _random_homogeneous(alg, rng, max_degree):
    n = alg.group.dim
    keys = sorted(alg.group.elements)
    par = rng.randint(0, 1)
    out = alg.zero()
    for _ in range(2):
        deg = rng.choice([d for d in range(max_degree + 1) if d % 2 == par])
        term = alg.group_element(rng.choice(keys))
        for _ in range(deg):
            term = alg.generator(rng.randrange(n)) * term
        out = out + term.scaled(rng.randint(-2, 2))
    return out if out.parity() is not None else alg.group_element(keys[0])


@pytest.mark.parametrize("alg_name", ["z2", "z3", "a2"])
def test_associativity(alg_name, request):
    alg = request.getfixturevalue(alg_name)
    rng = random.Random(hash(alg_name) % 10**6)
    reps = 6 if alg_name == "a2" else 12
    for _ in range(reps):
        f = _random_element(alg, rng, 3)
        g = _random_element(alg, rng, 3)
        h = _random_element(alg, rng, 2)
        assert (f * g) * h == f * (g * h)


def test_parity_homomorphism(z3):
    rng = random.Random(9)
    for _ in range(15):
        f = _random_homogeneous(z3, rng, 3)
        h = _random_homogeneous(z3, rng, 3)
        fh = f * h
        if f.is_zero() or h.is_zero() or fh.is_zero():
            continue
        assert fh.parity() == (f.parity() + h.parity()) % 2


def test_degree_filtration(z2):
    def degree(f):
        return max((sum(e) for e, _, _ in f.terms), default=-1)

    rng = random.Random(21)
    for _ in range(15):
        f = _random_element(z2, rng, 3)
        h = _random_element(z2, rng, 3)
        if f.is_zero() or h.is_zero():
            continue
        assert degree(f * h) <= degree(f) + degree(h)


def test_leading_part_is_commutative_product(z2):
    # top-degree part of a product of pure monomials is the commutative
    # product with the group twist applied to the right factor's letters
    a1, a2 = z2.generator(0), z2.generator(1)
    sigma = z2.group_element(sigma_key(z2))
    f = a2 * a2 * sigma
    h = a1 * a1
    prod = f * h
    # sigma twists a_1 -> -a_1, so leading term is (+1) a1^2 a2^2 sigma
    lead = {e: c for gk, e, c in prod.monomials() if gk == sigma_key(z2) and sum(e) == 4}
    assert set(lead) == {(2, 2)}
    const = lead[(2, 2)]
    assert const == EtaPolynomial.constant(1, z2.nvars, z2.m)


def test_skew_product_at_eta_zero(z2):
    # with eta = 0 the algebra is the plain skew product: products of pure
    # Weyl elements acquire no reflection terms
    rng = random.Random(4)
    e = z2.group.identity_key()
    zero_pt = [Fraction(0)] * z2.nvars
    for _ in range(10):
        def pure_weyl():
            out = z2.one()
            for _ in range(rng.randint(1, 3)):
                out = out * z2.generator(rng.randrange(2))
            return out

        prod = (pure_weyl() + pure_weyl()) * pure_weyl()
        for gk, _, c in prod.monomials():
            if gk != e:
                assert c.evaluate(zero_pt).is_zero()


def test_pow(z2):
    a1 = z2.generator(0)
    assert a1 ** 0 == z2.one()
    assert a1 ** 3 == a1 * a1 * a1
    with pytest.raises(ValueError):
        a1 ** -1
    assert a1 ** POWER_CAP == a1 ** (POWER_CAP - 1) * a1
    with pytest.raises(CapExceededError):
        a1 ** (POWER_CAP + 1)


def test_weyl_closed_form_high_inversions(z2):
    # At eta = 0 the identity part of a2^k a1^k is the Weyl algebra normal
    # ordering sum_j j! C(k, j)^2 c^j a1^(k-j) a2^(k-j), c = t omega(a2, a1).
    # k = 40 has 1600 inversions, far beyond any recursion limit if the
    # reordering recursed once per swap.
    c = z2.t * z2.group.omega[1, 0]
    e = z2.group.identity_key()
    zero_pt = [Fraction(0)] * z2.nvars
    for k in (3, 12, 40):
        prod = z2.generator(1) ** k * z2.generator(0) ** k
        got = {exp: coeff.evaluate(zero_pt) for gk, exp, coeff in prod.monomials() if gk == e}
        got = {exp: v for exp, v in got.items() if not v.is_zero()}
        expected = {(k - j, k - j): c ** j * Cyclotomic.from_rational(
                        factorial(j) * comb(k, j) ** 2, c.m) for j in range(k + 1)}
        assert got == expected


def test_chart_diagonalizes(a2):
    for g_key in sorted(a2.group.elements)[:4]:
        chart = a2.chart(g_key)
        gmat = a2.group.elements[g_key].matrix
        for e, vec in zip(chart.exponents, chart.vectors):
            lam = Cyclotomic.root_of_unity(a2.m, e)
            assert gmat.matvec(vec) == tuple(x * lam for x in vec)
        # kappa blocks form Darboux pairs
        for kappa in (+1, -1):
            for (i, j) in chart.kappa_pairs[kappa]:
                assert chart.scalar[i][j] == a2.t


def test_chart_of_diagonal_element(z3):
    # g = diag(zeta_3, zeta_3^2): a_1, a_2 are already eigenvectors
    g_key = sorted(k for k in z3.group.elements if k != z3.group.identity_key())[0]
    for v in z3.chart(g_key).vectors:
        assert len([c for c in v if not c.is_zero()]) == 1


@pytest.mark.parametrize("alg_name", ["z2", "z3", "a2"])
def test_chart_coordinates_and_reflection_table(alg_name, request, omega_r):
    alg = request.getfixturevalue(alg_name)
    group = alg.group
    n = group.dim
    one, zero = Cyclotomic.one(alg.m), Cyclotomic.zero(alg.m)
    for g_key in sorted(group.elements):
        chart = alg.chart(g_key)
        # the standard letter x_i has id i, and sum_I coords(i)_I b_I = e_i
        for i in range(n):
            e_i = tuple(one if j == i else zero for j in range(n))
            assert alg.intern(e_i) == i and alg.letter_vectors[i] == e_i
            acc = [zero] * n
            for big_i, coeff in chart.coords(i):
                acc = [a + coeff * v for a, v in zip(acc, chart.vectors[big_i])]
            assert tuple(acc) == e_i
            assert sorted(p for ps in chart.coords_by_exponent(i).values() for p in ps) \
                == list(chart.coords(i))
            for e, pairs in chart.coords_by_exponent(i).items():
                assert all(chart.exponents[big_i] == e for big_i, _ in pairs)
        # an eigenletter's id maps back to its vector, whose only coordinate is itself
        for big_i, letter in enumerate(chart.letter_ids):
            assert alg.letter_vectors[letter] == chart.vectors[big_i]
            assert chart.coords(letter) == ((big_i, one),)
        # for x < y, refl[(x, y)] lists exactly the R with omega_R(b_x, b_y)
        # != 0, each with eta_R's exponent and omega_R(b_x, b_y); the table
        # is upper-triangular, so (y, x) and (x, x) hold nothing
        for x in range(n):
            for y in range(x + 1):
                assert (x, y) not in chart.refl
            for y in range(x + 1, n):
                expected = {}
                for rkey in group.reflections:
                    val = omega_r(group, rkey, chart.vectors[x], chart.vectors[y])
                    if not val.is_zero():
                        expected[rkey] = (eta_exponent(alg, group.eta_var_of(rkey)), val)
                entries = chart.refl.get((x, y), [])
                assert len(entries) == len(expected)
                assert {rkey: (h, c) for rkey, h, c in entries} == expected


@pytest.mark.parametrize("alg_name", ["z2", "z3", "a2"])
def test_word_is_the_generator_product(alg_name, request):
    alg = request.getfixturevalue(alg_name)
    rng = random.Random(5)
    n = alg.group.dim
    keys = sorted(alg.group.elements)
    for _ in range(8):
        letters = [rng.randrange(n) for _ in range(rng.randint(0, 5))]
        g_key = rng.choice(keys)
        expected = alg.one()
        for i in letters:
            expected = expected * alg.generator(i)
        assert alg.word(letters, g_key) == expected * alg.group_element(g_key)


def _sum_of_distinct_orderings(alg, exp):
    """Reference symmetrizer: multiply out every distinct letter ordering."""
    letters = [i for i, e in enumerate(exp) for _ in range(e)]
    acc = alg.zero()
    for word in sorted(set(permutations(letters))):
        term = alg.one()
        for i in word:
            term = term * alg.generator(i)
        acc = acc + term
    return acc


@pytest.mark.parametrize("alg_name", ["z2", "z3", "a2"])
def test_symmetrized_monomial_sums_distinct_orderings(alg_name, request):
    alg = request.getfixturevalue(alg_name)
    for d in range(5):
        for exp in monomials_of_degree(alg.group.dim, d):
            assert symmetrized_monomial(alg, exp) == _sum_of_distinct_orderings(alg, exp)


@pytest.mark.parametrize("make", [lambda: cyclic_sp2(3), lambda: doubled_coxeter("A", 3),
                                  lambda: doubled_coxeter("B", 2), lambda: dihedral(5)],
                         ids=["z3", "s3", "b2", "dihedral5"])
def test_relation_table_matches_the_dense_forms(make, omega_r):
    # the sparse table against t omega and the dense omega_r reference
    group = make()
    alg = Algebra(group)
    ident = group.identity_key()
    chart_key = next(k for k in group.sorted_keys() if k != ident)
    darboux = next((basis for kappa in (1, -1) for k in group.sorted_keys() if k != ident
                    for e, basis in [group.e_grading(k, kappa)] if e > 0),
                   group.e_grading(ident, 1)[1])
    for vectors in (alg.letters, alg.chart(chart_key).vectors, darboux):
        n = len(vectors)
        scalar, refl = relation_table(alg, vectors)
        assert set(refl) <= {(i, j) for i in range(n) for j in range(i + 1, n)}
        for i in range(n):
            for j in range(i + 1, n):
                assert scalar[i][j] == alg.t * form_value(group.omega, vectors[i], vectors[j])
                expected = []
                for rkey in group.reflections:
                    val = omega_r(group, rkey, vectors[i], vectors[j])
                    if not val.is_zero():
                        expected.append((rkey, eta_exponent(alg, group.eta_var_of(rkey)), val))
                assert refl.get((i, j), []) == expected


@pytest.mark.parametrize("make", [lambda: cyclic_sp2(3), lambda: doubled_coxeter("A", 3),
                                  lambda: doubled_coxeter("B", 2), lambda: dihedral(5)],
                         ids=["z3", "s3", "b2", "dihedral5"])
def test_standard_letters_satisfy_the_defining_relation(make, omega_r):
    # x_j x_k - x_k x_j = t omega(x_j, x_k) + sum_R eta_R omega_R(x_j, x_k) R,
    # built from the dense omega_r reference; b2 has two eta variables
    group = make()
    alg = Algebra(group)
    vectors = alg.letters
    for j in range(group.dim):
        for k in range(group.dim):
            xj, xk = alg.generator(j), alg.generator(k)
            expected = alg.scalar(alg.t * form_value(group.omega, vectors[j], vectors[k]))
            for rkey in group.reflections:
                val = omega_r(group, rkey, vectors[j], vectors[k])
                expected = expected + (alg.eta_scalar(group.eta_var_of(rkey))
                                       * alg.group_element(rkey)).scaled(val)
            assert xj * xk - xk * xj == expected
