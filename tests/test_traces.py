import itertools
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

import sra.algebra
from conftest import const, eta, trace_value
from sra.scalar import Cyclotomic, EtaPolynomial, _context, eta_pack
from sra.linalg import rank
from sra.group import cyclic_sp2, dihedral, direct_product, doubled_coxeter
from sra.algebra import Algebra, _letters, relation_table
from sra.expr import parse
from sra.traces import (
    InconsistentGLCError,
    KappaEigenvaluePresentError,
    TraceFunctional,
    TraceValue,
    _Evaluator,
    _conjugated_reflections,
    _product_classes,
    _random_definite,
    _scaled,
    confluence_failures,
    cyclicity_failures,
    eta0_form,
    eta0_trace,
    format_trace_value,
    even_monomials,
    functional_to_json,
    gram,
    oracle_mismatches,
    solve_glc,
    verify_glc,
)


@pytest.fixture(scope="module")
def z2():
    return Algebra(cyclic_sp2(2))


@pytest.fixture(scope="module")
def z3():
    return Algebra(cyclic_sp2(3))


@pytest.fixture(scope="module")
def z4():
    return Algebra(cyclic_sp2(4))


@pytest.fixture(scope="module")
def a2():
    return Algebra(doubled_coxeter("A", 3))


@pytest.fixture(scope="module")
def b2():
    return Algebra(doubled_coxeter("B", 2))


def sigma_key(alg):
    return next(k for k in alg.group.elements if k != alg.group.identity_key())


def test_glc_z2_supertrace(z2):
    fn = solve_glc(z2, -1)
    g = z2.group
    ident_cls = g.class_of[g.identity_key()]
    sigma_cls = g.class_of[sigma_key(z2)]
    assert list(fn.free_classes) == [ident_cls]
    # str(sigma) = -eta * str(1)
    assert fn.table[sigma_cls] == trace_value(1, {0: -eta(z2, 0)})


def test_glc_z2_trace(z2):
    fn = solve_glc(z2, +1)
    g = z2.group
    ident_cls = g.class_of[g.identity_key()]
    sigma_cls = g.class_of[sigma_key(z2)]
    assert list(fn.free_classes) == [sigma_cls]
    # tr(1) = -eta * tr(sigma)
    assert fn.table[ident_cls] == trace_value(1, {0: -eta(z2, 0)})


def test_glc_a2_counts(a2):
    for kappa, expected in ((+1, 1), (-1, 2)):
        fn = solve_glc(a2, kappa)
        assert fn.nparams == expected
        assert fn.nparams == len([i for i, e in fn.e_of_class.items() if e == 0])


def test_glc_dimension_matches_counts(z2, z3, z4, a2):
    for alg in (z2, z3, z4, a2):
        t_count, s_count = alg.group.kappa_counts()
        for kappa, expected in ((+1, t_count), (-1, s_count)):
            fn = solve_glc(alg, kappa)
            assert fn.nparams == expected
            # free classes carry indicator values: their own parameter
            for pi, ci in enumerate(fn.free_classes):
                assert fn.table[ci] == trace_value(fn.nparams, {pi: const(alg, 1)})


def test_evaluate_basics(z2):
    fn = solve_glc(z2, -1)
    g = z2.group
    a1, a2_gen = z2.generator(0), z2.generator(1)
    # str(a1 a2) = 1/2 (1 - eta^2) str(1)
    val = fn.evaluate(a1 * a2_gen)
    half = Cyclotomic.from_rational(Fraction(1, 2), z2.m)
    expected = (const(z2, 1) - eta(z2, 0) * eta(z2, 0)) * const(z2, half)
    assert val == trace_value(1, {0: expected})
    # odd elements vanish
    assert fn.evaluate(a1).is_zero()
    assert fn.evaluate(a1 * a2_gen * a1).is_zero()
    # degree-0 resolves through the table
    sig = sigma_key(z2)
    assert fn.evaluate(z2.group_element(sig)) == fn.element_value(sig)


def test_evaluate_linearity(z2):
    fn = solve_glc(z2, -1)
    f = z2.generator(0) * z2.generator(1)
    h = z2.group_element(sigma_key(z2))
    c = eta(z2, 0)
    lhs = fn.evaluate(f * z2.eta_scalar(0) + h.scaled(3))
    rhs = trace_value(1, {i: p * c for i, p in fn.evaluate(f).coeffs.items()},
                      fn.evaluate(h).scaled(Cyclotomic.from_rational(3, z2.m)).coeffs)
    assert lhs == rhs


@pytest.mark.parametrize("alg_name,kappa", [("z2", 1), ("z2", -1), ("z3", 1), ("z3", -1)])
def test_kappa_cyclicity(alg_name, kappa, request):
    alg = request.getfixturevalue(alg_name)
    fn = solve_glc(alg, kappa)
    assert cyclicity_failures(fn, random.Random(100 + kappa), 12, 3) == []


def test_g_invariance(a2):
    fn = solve_glc(a2, -1)
    rng = random.Random(7)
    keys = sorted(a2.group.elements)
    for _ in range(4):
        f = _random_definite(a2, rng, 2, keys)
        tau = rng.choice(keys)
        tau_el = a2.group_element(tau)
        tau_inv = a2.group_element(a2.group.inv(tau))
        assert fn.evaluate(tau_el * f * tau_inv) == fn.evaluate(f)


@pytest.mark.parametrize("kappa", [1, -1])
def test_confluence_strategies(kappa, z2, z3):
    rng = random.Random(55)
    for alg in (z2, z3):
        fn = solve_glc(alg, kappa)
        assert confluence_failures(fn, rng, 10, (2, 4)) == []


@pytest.mark.parametrize("kappa", [1, -1])
@pytest.mark.parametrize("alg_name", ["a2", "b2", "z3", "z4"])
def test_off_rule_eigen_words_vanish(alg_name, kappa, request):
    # g b_I g^-1 = lambda_I b_I and sp is conjugation invariant, so an
    # eigen-word with lambda_(I1) ... lambda_(Ik) != 1 has trace zero; bword
    # reduces every word in full, so this checks the rule vectors prunes by.
    # The same word spelled in the chart's letter ids goes through vectors,
    # whose pair (map, c) must give the bword value on the rule and the empty
    # map off it
    alg = request.getfixturevalue(alg_name)
    ev = _Evaluator(solve_glc(alg, kappa), "first", "first")
    off_rule = 0
    for g_key in alg.group.sorted_keys():
        chart = alg.chart(g_key)
        exps = chart.exponents
        for k in range(1, 5):
            for word in itertools.product(range(alg.group.dim), repeat=k):
                ids = tuple(chart.letter_ids[i] for i in word)
                if sum(exps[i] for i in word) % alg.m:
                    off_rule += 1
                    assert ev.bword(g_key, word) == {}, (g_key, word)
                    assert ev.vectors(g_key, ids)[0] == {}, (g_key, word)
                else:
                    val, c = ev.vectors(g_key, ids)
                    assert _scaled(val, c) == ev.bword(g_key, word), (g_key, word)
    assert off_rule > 0


def _unpruned_value(fn: TraceFunctional, f) -> TraceValue:
    """sp(f) as the sum over every eigen-word of every term of f, with no
    selection rule on the expansion."""
    alg = fn.algebra
    ev = _Evaluator(fn, "first", "first")
    acc = trace_value(fn.nparams)
    for (exp, g_key, h), c_h in f.terms.items():
        coeff = EtaPolynomial(alg.nvars, alg.m, {h: c_h})
        chart = alg.chart(g_key)
        words = {(): Cyclotomic.one(alg.m)}
        for letter in _letters(exp):
            nxt = {}
            for w, c in words.items():
                for i, ci in chart.coords(letter):
                    nxt[w + (i,)] = nxt.get(w + (i,), Cyclotomic.zero(alg.m)) + c * ci
            words = nxt
        for w, c in words.items():
            bval = TraceValue(fn.nparams, alg.nvars, ev.bword(g_key, w))
            acc = trace_value(fn.nparams, acc.coeffs,
                              {i: p * coeff for i, p in bval.scaled(c).coeffs.items()})
    return acc


@pytest.mark.parametrize("kappa", [1, -1])
@pytest.mark.parametrize("alg_name", ["a2", "b2", "z3", "z4"])
def test_evaluate_matches_unpruned_expansion(alg_name, kappa, request):
    alg = request.getfixturevalue(alg_name)
    fn = solve_glc(alg, kappa)
    rng = random.Random(31 + kappa)
    keys = sorted(alg.group.elements)
    for _ in range(8):
        f = _random_definite(alg, rng, 6, keys)
        assert fn.evaluate(f) == _unpruned_value(fn, f)


@pytest.mark.parametrize("kappa", [1, -1])
def test_empty_word_value_is_the_class_table_map(b2, kappa):
    # a trace value has one representation: the evaluator reads sp(g) as the
    # class table's own settled map, with no copy or conversion, times one
    fn = solve_glc(b2, kappa)
    ev = _Evaluator(fn, "first", "first")
    for g_key in b2.group.sorted_keys():
        table_map = fn.table[b2.group.class_of[g_key]].terms
        assert ev.bword(g_key, ()) is table_map
        val, c = ev.vectors(g_key, ())
        assert val is table_map and c == Cyclotomic.one(b2.m)


@pytest.mark.parametrize("kappa", [1, -1])
@pytest.mark.parametrize("alg_name", ["z3", "b2"])
def test_substitute_is_the_per_parameter_sum(alg_name, kappa, request):
    # sum_i assignment_i P_i-coefficient, added as eta-polynomials, on the class
    # values and on evaluated words, the zero value included
    alg = request.getfixturevalue(alg_name)
    fn = solve_glc(alg, kappa)
    rng = random.Random(17 + kappa)
    keys = sorted(alg.group.elements)
    values = list(fn.table.values()) + [TraceValue(fn.nparams, alg.nvars, {})]
    values += [fn.evaluate(_random_definite(alg, rng, 4, keys)) for _ in range(6)]
    for val in values:
        assignment = [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                      for _ in range(fn.nparams)]
        want = EtaPolynomial(alg.nvars, alg.m)
        for i, p in val.coeffs.items():
            want = want + p * const(alg, assignment[i])
        assert val.substitute(assignment, alg.m) == want


def test_free_parameter_arity_mismatch_is_refused(z2):
    # one value per free parameter: a shorter or a longer assignment is refused
    # by gram before any evaluation, and by TraceValue.substitute on its own
    fn = solve_glc(z2, -1)
    value = fn.table[0]
    for assignment in ([], [Fraction(1)] * (fn.nparams + 1)):
        with pytest.raises(ValueError, match="free-parameter assignment arity mismatch"):
            gram(fn, 0, assignment=assignment)
        with pytest.raises(ValueError, match="assignment arity mismatch"):
            value.substitute(assignment, z2.m)


def test_vectors_multiplies_only_for_nonzero_eigen_words(a2, monkeypatch):
    # an S_3 word of degree 6 times an element of order 3: with the _bword
    # memo warm, vectors makes one product per prefix of length >= 2 of the
    # eigen-words with a nonzero trace and one per such word (the length-1
    # prefixes are coordinates), and adds each word's value with the
    # product of its letters' coordinates.  The element is its class's
    # representative and the word's letters are standard, so the class memo
    # adds no factor and no product.  The evaluator binds the order's
    # kernels mul and add_product when it is built, so they are counted
    # there, patched before it is built, and it makes no product through *
    group = a2.group
    fn = solve_glc(a2, -1)
    ctx = _context(a2.m)
    real_mul, real_add = ctx.mul, ctx.add_product
    counting, products, adds = [False], [], []

    def mul(a, b):
        if counting[0]:
            products.append(1)
        return real_mul(a, b)

    def add_product(partial, key, a, b):
        if counting[0]:
            adds.append((key, a, b))
        real_add(partial, key, a, b)

    monkeypatch.setattr(ctx, "mul", mul)
    monkeypatch.setattr(ctx, "add_product", add_product)
    ev = _Evaluator(fn, "first", "first")
    g_key = next(rep for rep in group.class_rep if group.elements[rep].order == 3)
    word = (0, 2, 1, 3, 0, 2)
    ev.vectors(g_key, word)
    cols = [dict(a2.chart(g_key).coords(letter)) for letter in word]
    words = {id(val): w for (gk, w), val in ev._bword.items()
             if gk == g_key and len(w) == len(word) and val
             and all(i in col for i, col in zip(w, cols))}
    prefixes = {w[:j] for w in words.values() for j in range(2, len(word))}
    built = list(itertools.product(*cols))
    assert 0 < len(words) < len(built)
    vals = {id(val): val for (gk, w), val in ev._bword.items() if id(val) in words}
    # every term of those maps is its own object, so a term names its word
    owner = {(key, id(k)): i for i, val in vals.items() for key, k in val.items()}
    assert len(owner) == sum(map(len, vals.values()))

    del ev._vecs[(g_key, word)]
    ev._class_vecs.clear()
    counting[0] = True
    star = []
    monkeypatch.setattr(Cyclotomic, "__mul__", lambda a, b: star.append(1))
    ev.vectors(g_key, word)
    monkeypatch.undo()
    scaled: dict = {}
    for key, k, c in adds:
        scaled.setdefault(owner[(key, id(k))], []).append((key, k, c))
    assert not star and len(products) == len(prefixes) + len(words)
    assert sorted(words[i] for i in scaled) == sorted(words.values())
    for i, terms in scaled.items():
        assert [(key, k) for key, k, _ in terms] == list(vals[i].items())
        want = Cyclotomic.one(a2.m)
        for j, col in zip(words[i], cols):
            want = want * col[j]
        assert all(c == want for _, _, c in terms)


def test_refl_part_moves_each_suffix_once(a2, monkeypatch):
    # over S_3 words of degree 8, _refl_part moves a suffix's letters past R
    # (Algebra.moved_letter) once per distinct (g, R, suffix), visited more
    # often than that, and every other visit reads its memo; a warmed
    # evaluator and a fresh one give equal values
    group = a2.group
    fn = solve_glc(a2, -1)
    moves, visits = Counter(), [0]
    real_move, real_vectors = Algebra.moved_letter, _Evaluator.vectors

    def moved_letter(self, h_key, letter):
        frame = sys._getframe(1)
        if frame.f_code.co_name == "_refl_part":
            scope = frame.f_locals
            moves[(scope["g_key"], scope["rkey"], scope["suffix"])] += 1
        return real_move(self, h_key, letter)

    def vectors(self, g_key, word):
        visits[0] += sys._getframe(1).f_code.co_name == "_refl_part"
        return real_vectors(self, g_key, word)

    rng = random.Random(8)
    keys = sorted(group.elements)
    elements = [a2.word([rng.randrange(group.dim) for _ in range(8)], rng.choice(keys))
                for _ in range(3)]
    monkeypatch.setattr(Algebra, "moved_letter", moved_letter)
    monkeypatch.setattr(_Evaluator, "vectors", vectors)
    ev = _Evaluator(fn, "first", "first")
    warm = [ev.element_value(f) for f in elements]
    monkeypatch.undo()
    assert moves and set(moves) <= set(ev._suffixes)
    assert all(moves[key] == len(key[2]) for key in ev._suffixes)
    assert visits[0] > len(ev._suffixes)
    assert not all(value.is_zero() for value in warm)
    for f, value in zip(elements, warm):
        assert _Evaluator(fn, "first", "first").element_value(f) == value


def test_class_memo_expands_once_per_distinct_moved_word(monkeypatch):
    # doubled B_3, classes of up to 8 elements: one word times every element
    # of a class is expanded on a chart once per distinct word moved onto the
    # representative (up to the letters' scalars), and every other element
    # reads the class memo
    algebra = Algebra(doubled_coxeter("B", 3))
    group = algebra.group
    fn = solve_glc(algebra, -1, verify=False)
    classes = [cls for cls in group.classes if len(cls) > 1]
    assert max(map(len, classes)) == 8
    expanded = []
    real = _Evaluator._expand

    def counting(self, g_key, word):
        expanded.append((g_key, word))
        return real(self, g_key, word)

    monkeypatch.setattr(_Evaluator, "_expand", counting)
    calls = misses = 0
    for word in ((0, 3), (0, 3, 0, 3), (2, 5, 0, 1)):
        for cls in classes:
            ev = _Evaluator(fn, "first", "first")
            del expanded[:]
            for key in cls:
                ev.vectors(key, word)
            distinct = {tuple(algebra.moved_letter(group.conjugator_inv[key], letter)[0]
                              for letter in word) for key in cls}
            top = [g_key for g_key, w in expanded if len(w) == len(word) and g_key in cls]
            assert len(top) == len(distinct)
            calls += len(cls)
            misses += len(top)
    assert misses < calls


@pytest.mark.parametrize("make, word", [(lambda: doubled_coxeter("A", 3), [0, 2, 1, 3, 0, 2]),
                                        (lambda: doubled_coxeter("B", 2), [0, 2, 1, 3, 3, 1]),
                                        (lambda: dihedral(5), [0, 1, 2, 3])],
                         ids=["S3", "doubled-B2", "dihedral5"])
@pytest.mark.parametrize("kappa", [1, -1])
def test_each_reduction_step_settles_once(make, word, kappa, monkeypatch):
    # each regular and special step adds its terms, its factors applied, into
    # one flat map and settles it once, as do _expand and element_value
    import sra.traces
    algebra = Algebra(make())
    fn = solve_glc(algebra, kappa)
    elements = [algebra.word(word, key) for key in sorted(algebra.group.elements)[:4]]
    calls = Counter()

    def counting(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    monkeypatch.setattr(sra.traces, "settle", counting("settle", sra.traces.settle))
    for name in ("_regular_step", "_special_step", "_expand"):
        monkeypatch.setattr(_Evaluator, name, counting(name, getattr(_Evaluator, name)))
    ev = _Evaluator(fn, "first", "first")
    for f in elements:
        ev.element_value(f)
    assert calls["_special_step"] > 0
    assert calls["settle"] == (calls["_regular_step"] + calls["_special_step"]
                               + calls["_expand"] + len(elements))


@pytest.mark.parametrize("make, t", [(lambda: dihedral(5), 1),
                                     (lambda: doubled_coxeter("B", 2), Fraction(3, 2))],
                         ids=["dihedral5", "doubled-B2-t3/2"])
def test_class_memo_values_match_a_fresh_evaluator(make, t):
    # the class memo's values, scaled by the moved letters' factors (in
    # Q(zeta_10) on dihedral 5), equal a fresh evaluator's expansion on each
    # element's own chart, for standard letters and for eigenletters
    algebra = Algebra(make(), t)
    group = algebra.group
    rng = random.Random(5)
    keys = [key for cls in group.classes if len(cls) > 1 for key in cls]
    for kappa in (1, -1):
        fn = solve_glc(algebra, kappa, verify=False)
        ev = _Evaluator(fn, "first", "first")
        for deg in (2, 4):
            for _ in range(3):
                word = tuple(rng.randrange(group.dim) for _ in range(deg))
                for key in keys:
                    eigen = tuple(algebra.chart(keys[0]).letter_ids[i] for i in word)
                    for w in (word, eigen):
                        assert _scaled(*ev.vectors(key, w)) \
                            == _scaled(*_Evaluator(fn, "first", "first").vectors(key, w))
        # some member of a class read another member's expansion
        assert len(ev._class_vecs) < sum(len(group.classes[group.class_of[key]]) > 1
                                         for key, _ in ev._vecs)
    factors = [c for _, c, _ in algebra._moved_letters.values()]
    if group.exponent == 10:
        assert any(not c.is_rational() for c in factors)
    assert any(c != Cyclotomic.one(algebra.m) for c in factors)


@pytest.mark.parametrize("make", [lambda: dihedral(5), lambda: doubled_coxeter("B", 2)],
                         ids=["dihedral5", "doubled-B2"])
def test_evaluation_takes_no_inverse_once_the_charts_are_built(make, monkeypatch):
    # once the charts hold their factors and the moved letters are memoized,
    # a fresh evaluator reads degree-4 words, class-memo misses included, with
    # no Cyclotomic.inverse: a miss is stored times the letters' inverse
    # scalars that Algebra.moved_letter returns
    algebra = Algebra(make())
    group = algebra.group
    rng = random.Random(7)
    words = [tuple(rng.randrange(group.dim) for _ in range(4)) for _ in range(6)]
    fns = [solve_glc(algebra, kappa, verify=False) for kappa in (1, -1)]

    def evaluate_all(fn):
        ev = _Evaluator(fn, "first", "first")
        for key in group.elements:
            for word in words:
                ev.vectors(key, word)
        return ev

    for fn in fns:
        evaluate_all(fn)
    calls = []
    real = Cyclotomic.inverse

    def counting(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(Cyclotomic, "inverse", counting)
    misses = sum(len(evaluate_all(fn)._class_vecs) for fn in fns)
    assert misses and calls == []
    assert any(c != Cyclotomic.one(algebra.m) for _, c, _ in algebra._moved_letters.values())


@pytest.mark.parametrize("make", [lambda: dihedral(5), lambda: doubled_coxeter("B", 2)],
                         ids=["dihedral5", "doubled-B2"])
def test_word_memo_shares_the_class_memo_maps(make):
    # a class-memo hit hands on the stored map with a scalar, never a scaled
    # copy: every (g, word) entry of a class of more than one element holds
    # the very map that a class-memo entry holds, and some carry a scalar
    # other than one
    algebra = Algebra(make())
    group = algebra.group
    one = Cyclotomic.one(algebra.m)
    rng = random.Random(11)
    words = [tuple(rng.randrange(group.dim) for _ in range(4)) for _ in range(6)]
    for kappa in (1, -1):
        ev = _Evaluator(solve_glc(algebra, kappa, verify=False), "first", "first")
        for key in group.elements:
            for word in words:
                ev.vectors(key, word)
        stored = {id(val) for val, _ in ev._class_vecs.values()}
        shared = [(val, c) for (key, _), (val, c) in ev._vecs.items()
                  if len(group.classes[group.class_of[key]]) > 1]
        assert shared and all(id(val) in stored for val, _ in shared)
        assert any(val and c != one for val, c in shared)


def test_abelian_groups_build_no_class_key(z3):
    # every class of Z_3 has one element: the evaluator expands on each
    # element's chart and reads no conjugator; it moves letters only past the
    # reflections of the commutators' reflection terms
    fn = solve_glc(z3, -1)
    ev = _Evaluator(fn, "first", "first")
    for key in z3.group.elements:
        for word in ((0, 1), (1, 0, 0, 1), (0, 1, 1, 0, 1, 0)):
            ev.vectors(key, word)
    assert len(ev._vecs) >= 9
    assert not ev._class_vecs and not ev._conjugator_inv
    assert all(h_key in z3.group.reflections for h_key, _ in z3._moved_letters)


@pytest.mark.parametrize("alg_name", ["a2", "b2", "z3"])
def test_evaluator_memos_are_keyed_by_letter_ids(alg_name, request):
    # every word the evaluator memoizes is a tuple of letter ids, and the id
    # and scalar Algebra.moved_letter hands out for h(v) give c u = h(v) for
    # every chart letter v
    alg = request.getfixturevalue(alg_name)
    fn = solve_glc(alg, -1)
    ev = _Evaluator(fn, "first", "first")
    rng = random.Random(3)
    keys = sorted(alg.group.elements)
    for _ in range(6):
        ev.element_value(_random_definite(alg, rng, 6, keys))
    assert ev._vecs
    for key in ev._vecs:
        g_key, word = key
        assert type(g_key) is int and type(word) is tuple
        assert all(type(letter) is int for letter in word)
    for g_key in keys:
        chart = alg.chart(g_key)
        for h_key in keys:
            hmat = alg.group.elements[h_key].matrix
            for letter, v in zip(chart.letter_ids, chart.vectors):
                u, c, _ = alg.moved_letter(h_key, letter)
                assert tuple(c * x for x in alg.letter_vectors[u]) == hmat.matvec(v)


def test_evaluate_refuses_an_algebra_with_another_t(z2):
    # the normal form of a2*a1 depends on t: read with the t = 1 functional,
    # the t = 2 element would give eta0*P0 where its own functional gives 0
    other = Algebra(z2.group, t=2)
    f = parse("a2*a1", other)
    fn_t1, fn_t2 = solve_glc(z2, 1), solve_glc(other, 1)
    assert format_trace_value(fn_t2.evaluate(f)) == "0"
    with pytest.raises(ValueError, match="different algebras"):
        fn_t1.evaluate(f)
    # another algebra object over the same group and t is accepted
    same = Algebra(z2.group)
    assert fn_t1.evaluate(parse("a2*a1*g0", same)) == fn_t1.evaluate(parse("a2*a1*g0", z2))
    assert format_trace_value(fn_t1.evaluate(parse("a2*a1*g0", same))) \
        == "(-1/2 + 1/2*eta0^2)*P0"


def test_trace_value_scaled(z2):
    # a rational enters the value's field once; a zero factor drops every term
    value = trace_value(2, {0: eta(z2, 0) * const(z2, Fraction(1, 2)) + const(z2, 3),
                            1: const(z2, -1)})
    empty = TraceValue(2, z2.nvars, {})
    for val in (value, empty):
        for zero in (0, Fraction(0), Cyclotomic.zero(z2.m)):
            assert val.scaled(zero).terms == {} and val.scaled(zero).nparams == 2
        assert val.scaled(1) == val
    assert empty.scaled(3) == empty
    assert value.scaled(-2) == trace_value(2, {0: eta(z2, 0) * const(z2, -1) + const(z2, -6),
                                               1: const(z2, 2)})
    assert value.scaled(Fraction(2, 3)) == value.scaled(Cyclotomic.from_rational(Fraction(2, 3),
                                                                                 z2.m))
    with pytest.raises(ValueError, match="order 2"):
        value.scaled(Cyclotomic.root_of_unity(4))
    # a float or a text is refused on the empty value too, where no term
    # names the order
    for val in (value, empty):
        for bad in (0.5, "2", 1.0):
            with pytest.raises(ValueError, match="takes an int or a Fraction"):
                val.scaled(bad)


def test_glc_evaluator_consistency(a2):
    # evaluate(sp, [c_I, c_J] g) = 0 for c_I, c_J in the kappa-eigenspace of g
    for kappa in (+1, -1):
        fn = solve_glc(a2, kappa)
        group = a2.group
        for key in group.class_rep:
            if group.e_grading(key, kappa)[0] == 0:
                continue
            basis = group.e_grading(key, kappa)[1]
            g_el = a2.group_element(key)

            def vec_el(v):
                out = a2.zero()
                for i, c in enumerate(v):
                    if not c.is_zero():
                        out = out + a2.generator(i).scaled(c)
                return out

            for i in range(len(basis)):
                for j in range(i + 1, len(basis)):
                    ci, cj = vec_el(basis[i]), vec_el(basis[j])
                    assert fn.evaluate((ci * cj - cj * ci) * g_el).is_zero()


def test_klein_correspondence(z2):
    group = z2.group
    k_key = group.klein()
    assert k_key is not None
    fn = solve_glc(z2, -1)
    klein = z2.group_element(k_key)
    rng = random.Random(5)
    keys = sorted(group.elements)
    for _ in range(10):
        f = _random_definite(z2, rng, 3, keys)
        h = _random_definite(z2, rng, 3, keys)
        # f -> str(K f) is a trace: full kappa=+1 cyclicity
        assert fn.evaluate(klein * f * h) == fn.evaluate(klein * h * f)


def test_eta0_form_examples(z2, z4):
    # g = 1, kappa = -1: (kappa + g) = 0 so the form vanishes
    tilde = eta0_form(z2.group, z2.group.identity_key(), -1)
    assert all(x.is_zero() for x in tilde.data)
    # g = diag(zeta_4, zeta_4^-1), kappa = +1: off-diagonal zeta_4
    group = z4.group
    z = Cyclotomic.root_of_unity(4)
    gen_key = group.generator_keys[0]
    tilde = eta0_form(group, gen_key, +1)
    assert tilde[0, 1] == z and tilde[1, 0] == z
    assert tilde[0, 0].is_zero() and tilde[1, 1].is_zero()
    with pytest.raises(KappaEigenvaluePresentError):
        eta0_form(group, group.identity_key(), +1)


def test_eta0_trace_examples(z4):
    group = z4.group
    gen_key = group.generator_keys[0]
    # E(1) = 1 for kappa = +1, so any monomial over the identity vanishes
    assert eta0_trace(group, (1, 1), group.identity_key(), +1).is_zero()
    # odd degree vanishes
    assert eta0_trace(group, (1, 0), gen_key, +1).is_zero()
    # sym(a1 a2) g = -zeta_4 tr(g)
    val = eta0_trace(group, (1, 1), gen_key, +1)
    assert val == -Cyclotomic.root_of_unity(4)


@pytest.mark.parametrize("alg_name,kappa", [("z2", -1), ("z2", 1), ("z4", -1), ("z3", 1)])
def test_eta0_oracle_small(alg_name, kappa, request):
    alg = request.getfixturevalue(alg_name)
    group = alg.group
    exponents = even_monomials(group.dim, 4)
    checked, mismatches = oracle_mismatches(solve_glc(alg, kappa), exponents)
    assert mismatches == []
    assert checked == len(exponents) * len(group.class_rep)


@pytest.mark.parametrize("alg_name", ["z2", "z3"])
def test_eta0_oracle_degree_12(alg_name, request):
    # 12 letters have up to 12! orderings; the symmetrizer must not walk them
    alg = request.getfixturevalue(alg_name)
    exponents = [(6, 6), (12, 0), (5, 7)]
    for kappa in (1, -1):
        checked, mismatches = oracle_mismatches(solve_glc(alg, kappa), exponents)
        assert mismatches == []
        assert checked == len(exponents) * len(alg.group.class_rep)


def test_gram_d0_z2(z2):
    fn = solve_glc(z2, -1)
    report = gram(fn, 0)
    assert len(report.basis) == 2
    eta0 = eta(z2, 0)
    one = const(z2, 1)
    flat = {str(i) + str(j): report.matrix[i][j] for i in range(2) for j in range(2)}
    # basis order follows class order; the matrix is ((1, -eta), (-eta, 1))
    assert flat["00"] == one and flat["11"] == one
    assert flat["01"] == -eta0 and flat["10"] == -eta0
    assert report.determinant == one - eta0 * eta0
    assert report.rational_roots == [Fraction(-1), Fraction(1)]
    # an int or a Fraction assignment reads as the default; a float or a text
    # is refused as Cyclotomic.from_rational refuses it
    for assignment in ([1], [Fraction(1)]):
        given = gram(fn, 0, assignment=assignment)
        assert given.assignment == report.assignment == [Fraction(1)]
        assert given.to_dict()["assignment"] == ["1"]
        assert given.matrix == report.matrix
    for bad in (1.0, 0.5, "1"):
        with pytest.raises(ValueError, match="takes an int or a Fraction"):
            gram(fn, 0, assignment=[bad])


def test_gram_zero_functional(z2):
    fn = solve_glc(z2, -1)
    zero_fn = TraceFunctional(z2, -1, fn.free_classes,
                              {ci: TraceValue(fn.nparams, z2.nvars, {}) for ci in fn.table},
                              fn.e_of_class)
    report = gram(zero_fn, 0)
    assert all(x.is_zero() for row in report.matrix for x in row)
    assert report.determinant.is_zero()


def test_gram_symmetry(z2):
    # gram evaluates only i <= j; check the mirrored half against B(f_j, f_i)
    # evaluated here on its own
    for kappa in (+1, -1):
        fn = solve_glc(z2, kappa)
        report = gram(fn, 2, compute_determinant=False)
        elements = [z2.word(_letters(e)[::-1], z2.group.class_rep[ci]) for e, ci in report.basis]
        n = len(report.basis)
        for i in range(n):
            for j in range(n):
                direct = fn.evaluate(elements[j] * elements[i])
                assert report.matrix[i][j] == direct.substitute(report.assignment, z2.m)


@pytest.fixture(scope="module")
def d5():
    return Algebra(dihedral(5))


@pytest.mark.parametrize("kappa", [1, -1])
@pytest.mark.parametrize("alg_name,degree", [
    ("z2", 2), ("a2", 2), ("z4", 2), ("b2", 2), ("d5", 0),
], ids=["z2_d2", "s3_d2", "z4_d2", "b2_d2", "d5_d0"])
def test_gram_matches_the_product_route(alg_name, degree, kappa, request):
    # a second route for every entry, both halves: the product f_i f_j
    # normal-ordered in the algebra, evaluated over all free parameters, and
    # only then substituted; the assignment is a random non-unit one, so that
    # the specialized class values mix several parameters
    alg = request.getfixturevalue(alg_name)
    fn = solve_glc(alg, kappa)
    rng = random.Random(f"{alg_name} {kappa}")
    # no numerator is divisible by a denominator, so no value is 0 or +-1
    assignment = [Fraction(rng.choice([-3, -2, 2, 3, 5]), rng.choice([1, 4, 7]))
                  for _ in range(fn.nparams)]
    report = gram(fn, degree, assignment=assignment, compute_determinant=False)
    elements = [alg.word(_letters(e)[::-1], alg.group.class_rep[ci]) for e, ci in report.basis]
    for i, fa in enumerate(elements):
        for j, fb in enumerate(elements):
            assert report.matrix[i][j] == fn.evaluate(fa * fb).substitute(assignment, alg.m)


def test_gram_fill_takes_no_product_and_substitutes_once_per_class(a2, monkeypatch):
    # the fill reads evaluator words: no algebra product, no Algebra.word,
    # and the assignment substituted once per class, not once per entry
    fn = solve_glc(a2, -1)

    def refuse(*args, **kwargs):
        raise AssertionError("gram formed an algebra product")

    calls = []
    substitute = TraceValue.substitute

    def counting(self, assignment, m):
        calls.append(self)
        return substitute(self, assignment, m)

    monkeypatch.setattr(sra.algebra.AlgebraElement, "__mul__", refuse)
    monkeypatch.setattr(Algebra, "word", refuse)
    monkeypatch.setattr(TraceValue, "substitute", counting)
    report = gram(fn, 2, compute_determinant=False)
    monkeypatch.undo()
    assert len(report.basis) == 33
    assert len(calls) == len(a2.group.classes)
    assert sorted(map(id, calls)) == sorted(map(id, fn.table.values()))


@pytest.mark.parametrize("alg_name,kappas,degree,roots", [
    ("a2", (-1,), 2, (Fraction(-4, 3), 0, Fraction(4, 3))),
    ("z2", (1, -1), 6, (-7, -5, -3, -1, 1, 3, 5, 7)),
], ids=["s3_d2", "z2_d6"])
def test_gram_rational_roots_of_larger_bases(alg_name, kappas, degree, roots, request):
    alg = request.getfixturevalue(alg_name)
    for kappa in kappas:
        report = gram(solve_glc(alg, kappa), degree)
        assert report.rational_roots == [Fraction(r) for r in roots]
        for r in roots:
            assert report.determinant.evaluate([Fraction(r)]).is_zero()


@pytest.mark.parametrize("alg_name", ["z2", "z3"])
def test_gram_determinant_matches_pointwise_det(alg_name, request):
    # independent route for the polynomial Bareiss: evaluate the determinant
    # polynomial at rational eta points and compare with the cyclotomic
    # determinant of the Gram matrix evaluated at the same points
    from sra.linalg import Matrix, det

    alg = request.getfixturevalue(alg_name)
    report = gram(solve_glc(alg, -1), 2)
    n = len(report.matrix)
    points = [[Fraction(1, 2), Fraction(-3)], [Fraction(2), Fraction(5, 3)],
              [Fraction(-7, 4), Fraction(1)]]
    for p in points:
        p = p[:alg.nvars]
        at_p = Matrix(n, n, [x.evaluate(p) for row in report.matrix for x in row])
        assert report.determinant.evaluate(p) == det(at_p)
    assert not report.determinant.is_zero()


def test_functional_json_deterministic(z2):
    fn = solve_glc(z2, -1)
    s1 = functional_to_json(fn)
    s2 = functional_to_json(solve_glc(z2, -1))
    assert s1 == s2
    assert '"group"' in s1 and '"kappa"' in s1


def test_t_scaling_hand_derived():
    # with [a1, a2] = t + eta sigma: str(sigma) = -(eta/t) str(1) and
    # 2 str(a1 a2) = t str(1) + eta str(sigma) = (t - eta^2/t) str(1)
    alg = Algebra(cyclic_sp2(2), t=2)
    fn = solve_glc(alg, -1)
    g = alg.group
    sig_cls = g.class_of[sigma_key(alg)]
    half = Cyclotomic.from_rational(Fraction(-1, 2), alg.m)
    assert fn.table[sig_cls] == trace_value(1, {0: eta(alg, 0) * const(alg, half)})
    val = fn.evaluate(alg.generator(0) * alg.generator(1))
    expected = (const(alg, 2) - eta(alg, 0) * eta(alg, 0) * const(alg, Fraction(1, 2))
                ) * const(alg, Fraction(1, 2))
    assert val == trace_value(1, {0: expected})


@pytest.mark.parametrize("kappa", [1, -1])
def test_nonunit_t_properties(kappa):
    # cyclicity and strategy confluence hold for t != 1 as well
    rng = random.Random(31)
    for make_t in (Fraction(2), Fraction(-1, 3)):
        alg = Algebra(cyclic_sp2(3), t=make_t)
        fn = solve_glc(alg, kappa, verify=True)
        assert cyclicity_failures(fn, rng, 6, 3) == []
        assert confluence_failures(fn, rng, 6, (2, 4)) == []


def test_zero_t_rejected():
    with pytest.raises(ValueError):
        Algebra(cyclic_sp2(2), t=0)


@pytest.mark.parametrize("kappa", [1, -1])
def test_product_factorization_oracle(kappa):
    """Independent check of the evaluator: on a direct product the kappa-trace
    of a split monomial factorizes, sp((P1 x P2)(g1, g2)) =
    sp1(P1 g1) sp2(P2 g2), a structure the reducer never uses."""
    from sra.traces import even_monomials

    g1, g2 = cyclic_sp2(2), cyclic_sp2(3)
    prod = direct_product(g1, g2)
    a1, a2, ap = Algebra(g1), Algebra(g2), Algebra(prod)
    fn1, fn2 = solve_glc(a1, kappa, verify=False), solve_glc(a2, kappa, verify=False)
    fnp = solve_glc(ap, kappa, verify=False)

    # factor eta variables embed into the product's: match reflection classes
    # through the block embedding of the reflections themselves
    def eta_map(factor_group, embed):
        out = {}
        for rkey in factor_group.reflections:
            pkey = embed(rkey)
            out[factor_group.eta_var_of(rkey)] = prod.eta_var_of(pkey)
        return out

    from sra.linalg import Matrix
    from sra.scalar import Cyclotomic
    index_of = {el.matrix.key(): i for i, el in prod.elements.items()}

    def embed1(key):
        m = prod.exponent
        blk = g1.elements[key].matrix.embed(m)
        ident = Matrix.identity(g2.dim, m)
        zero = Cyclotomic.zero(m)
        rows = [list(blk.row(i)) + [zero] * g2.dim for i in range(g1.dim)]
        rows += [[zero] * g1.dim + list(ident.row(i)) for i in range(g2.dim)]
        return index_of[Matrix.from_rows(rows).key()]

    def embed2(key):
        m = prod.exponent
        blk = g2.elements[key].matrix.embed(m)
        ident = Matrix.identity(g1.dim, m)
        zero = Cyclotomic.zero(m)
        rows = [list(ident.row(i)) + [zero] * g2.dim for i in range(g1.dim)]
        rows += [[zero] * g1.dim + list(blk.row(i)) for i in range(g2.dim)]
        return index_of[Matrix.from_rows(rows).key()]

    em1, em2 = eta_map(g1, embed1), eta_map(g2, embed2)

    def lift_poly(poly, emap):
        from sra.scalar import EtaPolynomial
        out = EtaPolynomial(prod.n_eta, prod.exponent)
        for e, c in poly.sorted_terms():
            e2 = [0] * prod.n_eta
            for i, k in enumerate(e):
                e2[emap[i]] = k
            out = out + EtaPolynomial(prod.n_eta, prod.exponent,
                                      {eta_pack(tuple(e2)): c.embed(prod.exponent)})
        return out

    # free-parameter pairing: product class of (k1, k2) vs factor classes
    pair_of_param = {}
    for pi, ci in enumerate(fnp.free_classes):
        rep = prod.class_rep[ci]
        mat = prod.elements[rep].matrix
        b1 = Matrix.from_rows([[mat[i, j] for j in range(g1.dim)]
                               for i in range(g1.dim)])
        b2 = Matrix.from_rows([[mat[g1.dim + i, g1.dim + j] for j in range(g2.dim)]
                               for i in range(g2.dim)])
        k1 = next(k for k in g1.elements
                  if g1.elements[k].matrix.embed(prod.exponent) == b1)
        k2 = next(k for k in g2.elements
                  if g2.elements[k].matrix.embed(prod.exponent) == b2)
        p1 = fn1.free_classes.index(g1.class_of[k1])
        p2 = fn2.free_classes.index(g2.class_of[k2])
        pair_of_param[pi] = (p1, p2)

    def monos_through(n, d):
        from sra.traces import monomials_of_degree
        out = []
        for deg in range(d + 1):
            out.extend(monomials_of_degree(n, deg))
        return out

    # includes odd x odd splits: even in total, but each factor trace is
    # even, so the product functional must vanish on them
    checked = 0
    for e1 in monos_through(g1.dim, 2):
        for e2 in monos_through(g2.dim, 2):
            for k1 in g1.class_rep:
                for k2 in g2.class_rep:
                    mono = ap.group_element(prod.mul(embed1(k1), embed2(k2)))
                    for i, cnt in enumerate(e1):
                        for _ in range(cnt):
                            mono = ap.generator(i) * mono
                    for i, cnt in enumerate(e2):
                        for _ in range(cnt):
                            mono = ap.generator(g1.dim + i) * mono
                    got = fnp.evaluate(mono)

                    f1 = a1.group_element(k1)
                    for i, cnt in enumerate(e1):
                        for _ in range(cnt):
                            f1 = a1.generator(i) * f1
                    f2 = a2.group_element(k2)
                    for i, cnt in enumerate(e2):
                        for _ in range(cnt):
                            f2 = a2.generator(i) * f2
                    v1, v2 = fn1.evaluate(f1), fn2.evaluate(f2)
                    expected_coeffs = {}
                    for pi, (p1, p2) in pair_of_param.items():
                        c1 = v1.coeffs.get(p1)
                        c2 = v2.coeffs.get(p2)
                        if c1 is None or c2 is None:
                            continue
                        val = lift_poly(c1, em1) * lift_poly(c2, em2)
                        if not val.is_zero():
                            expected_coeffs[pi] = val
                    if (sum(e1) + sum(e2)) % 2 == 1:
                        expected_coeffs = {}
                    assert got == trace_value(fnp.nparams, expected_coeffs), \
                        (e1, e2, kappa)
                    checked += 1
    assert checked == len(g1.class_rep) * len(g2.class_rep) * 36


def test_evaluate_on_sp6_group():
    # smoke the evaluator on a 6-dimensional symplectic space (S_4 doubled):
    # cyclicity for a pair of quadratic elements and one special-heavy word
    alg = Algebra(doubled_coxeter("A", 4))
    fn = solve_glc(alg, -1, verify=False)
    f = alg.generator(0) * alg.generator(3)
    h = alg.generator(1) * alg.generator(4)
    assert fn.evaluate(f * h) == fn.evaluate(h * f)
    # a1 a4 has both letters in the identity's kappa=-1 chart... over the
    # Klein-less group the identity class is free for kappa=-1
    ident = alg.group.identity_key()
    val = fn.evaluate(f)
    assert not val.is_zero()
    assert fn.evaluate(alg.group_element(ident)) == fn.element_value(ident)


def test_verify_glc_catches_corruption(z2):
    fn = solve_glc(z2, -1)
    bad = {ci: v for ci, v in fn.table.items()}
    sigma_cls = z2.group.class_of[sigma_key(z2)]
    bad[sigma_cls] = trace_value(1, {0: eta(z2, 0)})  # wrong sign
    broken = TraceFunctional(z2, -1, fn.free_classes, bad, fn.e_of_class)
    with pytest.raises(InconsistentGLCError,
                       match=rf"fails on C{sigma_cls} \(Darboux pair 0,1\), residual 2\*eta0\*P0$"):
        verify_glc(broken)


def _with_e(group, kappa):
    """The elements with E > 0, found by rank(g - kappa) < 2N on each one."""
    lam = Cyclotomic.from_rational(kappa, group.exponent)
    return [k for k in group.sorted_keys()
            if rank(group.elements[k].matrix.minus_scalar(lam)) < group.dim]


@pytest.mark.parametrize("kappa", [1, -1])
def test_verify_glc_visits_every_element_with_e(kappa):
    # verify reads sp(g) once for each element with E > 0, not only for the
    # class representatives
    algebra = Algebra(doubled_coxeter("B", 3))
    group = algebra.group
    fn = solve_glc(algebra, kappa, verify=False)
    calls = []
    real = fn.element_value

    def counting(g_key):
        calls.append(g_key)
        return real(g_key)

    fn.element_value = counting
    verify_glc(fn)
    with_e = _with_e(group, kappa)
    assert len(with_e) > len(group.classes)
    assert sorted(calls) == with_e


@pytest.mark.parametrize("make", [
    lambda: doubled_coxeter("B", 3),
    lambda: dihedral(5),                  # entries in Q(zeta_10)
    lambda: direct_product(cyclic_sp2(2), doubled_coxeter("A", 3)),  # two eta
], ids=["doubled-B3", "dihedral5", "cyclic2xdoubled-A3"])
def test_relabelled_table_is_the_table_on_the_moved_basis(make):
    # the representative's relation table with each R relabelled to h R h^-1
    # is the table on the representative's Darboux basis moved by h, entry
    # for entry
    algebra = Algebra(make())
    group = algebra.group
    checked = 0
    for kappa in (1, -1):
        for key in _with_e(group, kappa):
            rep, h = group.class_rep[group.class_of[key]], group.conjugator[key]
            basis = group.e_grading(rep, kappa)[1]
            scalar, refl = relation_table(algebra, basis)
            moved = _conjugated_reflections(group, refl, h, group.inv(h))
            h_mat = group.elements[h].matrix
            hc_scalar, hc_refl = relation_table(algebra, [h_mat.matvec(c) for c in basis])
            assert scalar == hc_scalar
            assert moved.keys() == hc_refl.keys()
            for pair, entries in hc_refl.items():
                assert Counter(moved[pair]) == Counter(entries), (key, kappa, pair)
            checked += key != rep
    assert checked


def test_verify_glc_checks_each_conjugator():
    # the identity as the conjugator of a transposition that is not its
    # class representative does not carry the representative to it
    algebra = Algebra(doubled_coxeter("A", 3))
    group = algebra.group
    fn = solve_glc(algebra, 1, verify=False)
    ci = next(i for i, cls in enumerate(group.classes)
              if len(cls) > 1 and fn.e_of_class[i] > 0)
    key = group.classes[ci][1]
    group.conjugator[key] = group.identity_key()
    with pytest.raises(InconsistentGLCError,
                       match=rf"conjugator \d+ of element {key} does not carry the "
                             rf"representative \d+ of C{ci} to it"):
        verify_glc(fn)


def test_charts_and_values_read_no_conjugator():
    # S_3: the identity planted as the conjugator of a 3-cycle and of a
    # transposition that are not their classes' representatives.  Each still
    # solves its own eigenspaces, and its degree-0 values are those of an
    # unplanted copy, which read no conjugator.  A value of degree >= 2 goes
    # through the evaluator's class memo, which checks the conjugator and
    # names it; the 3-cycles have E = 0 for both kappa, so verify reads the
    # conjugator of the transposition only, and names it
    planted, clean = Algebra(doubled_coxeter("A", 3)), Algebra(doubled_coxeter("A", 3))
    group = planted.group
    keys = {group.elements[cls[0]].order: cls[1] for cls in group.classes if len(cls) > 1}
    for key in keys.values():
        group.conjugator[key] = group.identity_key()
    for key in keys.values():
        mat = group.elements[key].matrix
        for k, basis in group.spectrum(key):
            lam = Cyclotomic.root_of_unity(group.exponent, k)
            assert all(mat.matvec(v) == tuple(x * lam for x in v) for v in basis)
    rng = random.Random(3)
    for kappa in (1, -1):
        fn, fn_clean = solve_glc(planted, kappa, verify=False), solve_glc(clean, kappa)
        for key in keys.values():
            assert fn.evaluate(planted.word([], key)) == fn_clean.evaluate(clean.word([], key))
            ci = group.class_of[key]
            for deg in (2, 4):
                # in increasing order the word is one monomial, at key only
                letters = sorted(rng.randrange(group.dim) for _ in range(deg))
                with pytest.raises(InconsistentGLCError,
                                   match=rf"kappa {kappa}: the conjugator {group.identity_key()} "
                                         rf"of element {key} does not carry the "
                                         rf"representative \d+ of C{ci} to it"):
                    fn.evaluate(planted.word(letters, key))
    key = keys[2]
    ci = group.class_of[key]
    with pytest.raises(InconsistentGLCError,
                       match=rf"conjugator {group.identity_key()} of element {key} does not "
                             rf"carry the representative \d+ of C{ci} to it"):
        verify_glc(solve_glc(planted, 1, verify=False))


@pytest.mark.parametrize("kappa", [1, -1])
@pytest.mark.parametrize("make", [lambda: dihedral(5), lambda: doubled_coxeter("B", 2)],
                         ids=["dihedral5", "doubled-B2"])
def test_evaluate_is_invariant_under_conjugation(make, kappa):
    # sp(h^-1 f h) = sp(f) for every h, with f a sum of three random words
    # x_w g of degree 2 or 4 and g drawn from each class in turn: normal
    # ordering moves the letters of h^-1 f h, independently of the charts
    algebra = Algebra(make())
    group = algebra.group
    fn = solve_glc(algebra, kappa, verify=False)
    rng = random.Random(17)
    for cls in group.classes:
        nonzero = 0
        for deg in (2, 2, 2, 4, 4, 4):
            g = rng.choice(cls)
            f = algebra.zero()
            for _ in range(3):
                f = f + algebra.word([rng.randrange(group.dim) for _ in range(deg)], g)
            want = fn.evaluate(f)
            nonzero += not want.is_zero()
            for h in group.sorted_keys():
                moved = algebra.group_element(group.inv(h)) * f * algebra.group_element(h)
                assert fn.evaluate(moved) == want, (g, h, deg)
        assert nonzero, cls


@pytest.mark.parametrize("kappa", [1, -1])
def test_verify_glc_moves_no_eigenbasis(kappa):
    # solve and verify solve or move an eigenbasis only on class
    # representatives; the moved bases serve the evaluator's charts
    algebra = Algebra(doubled_coxeter("B", 3))
    group = algebra.group
    solve_glc(algebra, kappa, verify=True)
    cached = {key for key, _ in group._eigenspace}
    assert cached and cached <= set(group.class_rep)


def test_one_ground_level_table_per_class_and_kappa(monkeypatch):
    # solve and verify read one relation table per (class, kappa) with E > 0;
    # Frame builds its own at init, so the count starts after Algebra(...)
    algebra = Algebra(doubled_coxeter("B", 3))
    group = algebra.group
    calls = []
    real = sra.algebra.relation_table

    def counting(alg, vectors):
        calls.append(len(vectors))
        return real(alg, vectors)

    monkeypatch.setattr(sra.algebra, "relation_table", counting)
    fns = [solve_glc(algebra, kappa, verify=True) for kappa in (1, -1)]
    with_e = [(rep, kappa) for rep in group.class_rep for kappa in (1, -1)
              if group.e_grading(rep, kappa)[0] > 0]
    assert len(calls) == len(with_e) > len(group.classes)
    # every table is on the whole Darboux basis, not on the solve's pair
    assert sorted(calls) == sorted(len(group.e_grading(rep, kappa)[1]) for rep, kappa in with_e)
    assert max(calls) > 2
    # the selftest path, a verify after the solve: no table of its own
    for fn in fns:
        verify_glc(fn)
    assert len(calls) == len(with_e)


@pytest.mark.parametrize("make", [
    lambda: dihedral(5),
    lambda: doubled_coxeter("B", 2),
    lambda: direct_product(cyclic_sp2(2), doubled_coxeter("A", 3)),
], ids=["dihedral5", "doubled-B2", "cyclic2xdoubled-A3"])
def test_solve_pair_is_the_shared_tables_first_pair(make):
    # entry (0, 1) of the table on the whole Darboux basis is the table on
    # its first two vectors: the pair the solve reads from the shared table
    algebra = Algebra(make())
    group = algebra.group
    met = 0
    for kappa in (1, -1):
        for rep in group.class_rep:
            basis = group.e_grading(rep, kappa)[1]
            if not basis:
                continue
            scalar, refl = algebra.kappa_table(rep, kappa)
            pair_scalar, pair_refl = relation_table(algebra, basis[:2])
            assert pair_scalar[0][1] == scalar[0][1], (rep, kappa)
            assert pair_refl.get((0, 1)) == refl.get((0, 1)), (rep, kappa)
            met += (0, 1) in refl
    assert met


def test_ground_level_tables_are_per_algebra():
    # one group object under two values of t: each algebra solves and
    # verifies with its own t omega, as an algebra over a fresh copy of the
    # group does, and the two functionals differ
    group = doubled_coxeter("A", 3)
    half = Fraction(1, 2)
    for kappa in (1, -1):
        fn_one = solve_glc(Algebra(group, t=1), kappa, verify=True)
        fn_half = solve_glc(Algebra(group, t=half), kappa, verify=True)
        verify_glc(fn_one)
        verify_glc(fn_half)
        assert fn_one.table != fn_half.table
        fresh = solve_glc(Algebra(doubled_coxeter("A", 3), t=half), kappa, verify=False)
        assert fn_half.table == fresh.table


@pytest.mark.parametrize("kappa", [1, -1])
def test_missing_class_names_both_labels(a2, kappa):
    fn = solve_glc(a2, kappa)
    group = a2.group
    # the first element with E > 0 whose ground level equations meet a reflection
    g, entries = next((key, refl[(0, 1)]) for key in group.sorted_keys()
                      if group.e_grading(key, kappa)[0] > 0
                      for refl in [a2.kappa_table(key, kappa)[1]]
                      if (0, 1) in refl)
    ci = group.class_of[g]
    rc = group.class_of[group.mul(entries[0][0], g)]
    table = dict(fn.table)
    del table[rc]
    broken = TraceFunctional(a2, kappa, fn.free_classes, table, fn.e_of_class)
    message = rf"sp\(C{ci}\) needs sp\(C{rc}\), which has E >= E\(C{ci}\)"
    with pytest.raises(InconsistentGLCError, match=message):
        _product_classes(broken, g, entries)
    # coefficients that cancel on the missing class still raise
    rkey, h, val = entries[0]
    cancelling = [(rkey, h, c) for c in (val, -val)]
    with pytest.raises(InconsistentGLCError, match=message):
        _product_classes(broken, g, cancelling)
    with pytest.raises(InconsistentGLCError, match=rf"needs sp\(C{rc}\)"):
        verify_glc(broken)
