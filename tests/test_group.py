import random
import re
from fractions import Fraction

import pytest

from sra.scalar import Cyclotomic
from sra.algebra import Algebra
from sra.linalg import Matrix, form_value, inverse, kernel_basis, rank
from sra.group import (
    CapExceededError,
    DecompositionIncompleteError,
    NotReflectionError,
    NotSymplecticError,
    builtin,
    close,
    cyclic_sp2,
    dihedral,
    direct_product,
    doubled_coxeter,
    group_from_dict,
    group_to_dict,
    load_group,
    save_group,
    standard_omega,
)


def test_cyclic_4():
    g = cyclic_sp2(4)
    assert len(g) == 4
    assert len(g.classes) == 4
    assert g.exponent == 4
    assert g.kappa_counts() == (3, 3)


def test_cyclic_1_trivial():
    g = cyclic_sp2(1)
    assert len(g) == 1
    assert g.kappa_counts() == (0, 1)


def test_doubled_a2():
    g = doubled_coxeter("A", 3)
    assert len(g) == 6
    assert g.dim == 4
    assert len(g.classes) == 3
    assert g.kappa_counts() == (1, 2)
    assert len(g.reflections) == 3
    assert g.n_eta == 1
    # doubled transposition: eigenvalues {1, 1, -1, -1}
    refl = g.reflections[0]
    assert g.exponent == 6
    assert [(k, len(s)) for k, s in g.spectrum(refl)] == [(0, 2), (3, 2)]
    assert g.e_grading(refl, +1)[0] == 1
    assert g.klein() is None


def test_doubled_b2():
    g = doubled_coxeter("B", 2)
    assert len(g) == 8
    assert g.n_eta == 2
    assert g.klein() is not None
    t, s = g.kappa_counts()
    assert t == s


def test_dihedral_matches_coxeter():
    # I_2(3) is A_2: same order, class count, and counts
    d = dihedral(3)
    a = doubled_coxeter("A", 3)
    assert len(d) == len(a) == 6
    assert len(d.classes) == len(a.classes) == 3
    assert d.kappa_counts() == a.kappa_counts()
    # I_2(4) is B_2
    d4 = dihedral(4)
    b2 = doubled_coxeter("B", 2)
    assert len(d4) == len(b2) == 8
    assert d4.kappa_counts() == b2.kappa_counts()
    assert d4.n_eta == b2.n_eta == 2


def test_direct_product_counts():
    g = direct_product(cyclic_sp2(2), cyclic_sp2(3))
    assert len(g) == 6
    assert g.dim == 4
    t, s = g.kappa_counts()
    assert (t, s) == (2, 3)


def test_cap_exceeded():
    # a shear generates an infinite group; it is symplectic but not a reflection
    m = 1
    one, zero = Cyclotomic.one(m), Cyclotomic.zero(m)
    shear = Matrix.from_rows([[one, one], [zero, one]])
    with pytest.raises(CapExceededError):
        close([shear], standard_omega(1, m), cap=100, strict_reflections=False)
    with pytest.raises(NotReflectionError):
        close([shear], standard_omega(1, m))


def test_finite_order_generators_of_an_infinite_group_fail_closed():
    # S = [[0, 1], [-1, 0]] (order 4) and ST = [[1, 1], [-1, 0]] (order 6)
    # generate SL(2, Z): both are symplectic reflections of Sp(2) with
    # |tr| <= 2, so only the cap stops the closure
    m = 1
    one, zero = Cyclotomic.one(m), Cyclotomic.zero(m)
    s = Matrix.from_rows([[zero, one], [-one, zero]])
    st = Matrix.from_rows([[one, one], [-one, zero]])
    with pytest.raises(CapExceededError, match="^group closure exceeds cap 50$"):
        close([s, st], standard_omega(1, m), cap=50)


def test_not_symplectic():
    m = 1
    two, zero = Cyclotomic.from_rational(2, m), Cyclotomic.zero(m)
    bad = Matrix.from_rows([[two, zero], [zero, two]])
    with pytest.raises(NotSymplecticError):
        close([bad], standard_omega(1, m), strict_reflections=False)


@pytest.mark.parametrize("make, has_minus_one", [
    (lambda: dihedral(5), False),         # entries at m0 = 5, re-embedded at m = 10
    (lambda: doubled_coxeter("B", 2), True),  # entries at m0 = 1, re-embedded at m = 4
    (lambda: cyclic_sp2(3), False),
    (lambda: builtin("product", factors=[("cyclic", {"n": 2}), ("doubled-A", {"rank": 3})]),
     False),
    (lambda: group_from_dict({"N": 1, "cyclotomic_order": 4,
                              "generators": [[["z", "0"], ["0", "-z"]]]}), True),
], ids=["dihedral5", "doubled-B2", "cyclic3", "cyclic2xdoubled-A3", "file-zeta4"])
def test_closure_names_the_identity_and_minus_one(make, has_minus_one):
    g = make()
    ident = Matrix.identity(g.dim, g.exponent)
    found = {key: el.matrix for key, el in g.elements.items()
             if el.matrix in (ident, -ident)}
    assert found[g.identity_key()] == ident
    if has_minus_one:
        assert found[g.klein()] == -ident
    else:
        assert g.klein() is None
    assert len(found) == 1 + has_minus_one


def test_identity_egrading():
    g = doubled_coxeter("A", 3)
    e = g.identity_key()
    assert g.e_grading(e, +1)[0] == g.N
    sigma = cyclic_sp2(2)
    s_key = next(k for k in sigma.elements if k != sigma.identity_key())
    assert sigma.e_grading(s_key, -1)[0] == 1


@pytest.mark.parametrize("make", [
    lambda: cyclic_sp2(3),
    lambda: cyclic_sp2(4),
    lambda: doubled_coxeter("A", 3),
    lambda: doubled_coxeter("B", 2),
])
def test_proposition_collect_invariants(make):
    assert make().invariant_failures() == []


@pytest.mark.parametrize("kind, params", [
    ("cyclic", {"n": 1}),
    ("cyclic", {"n": 4}),
    ("doubled-A", {"rank": 4}),
    ("doubled-B", {"rank": 3}),
    ("dihedral", {"n": 6}),
    ("product", {"factors": [("cyclic", {"n": 2}), ("doubled-A", {"rank": 3})]}),
])
def test_reflections_decided_per_class_match_every_element(kind, params):
    # the class representatives decide the reflections; test each element itself
    g = builtin(kind, **params)
    one = Cyclotomic.one(g.exponent)
    assert g.reflections == [k for k in sorted(g.elements)
                             if rank(g.elements[k].matrix.minus_scalar(one)) == 2]


def test_class_functions_constant():
    g = doubled_coxeter("B", 2)
    for cls in g.classes:
        orders = {g.elements[k].order for k in cls}
        assert len(orders) == 1
        for kappa in (+1, -1):
            es = {g.e_grading(k, kappa)[0] for k in cls}
            assert len(es) == 1


FIVE_GROUPS = [
    ("cyclic", {"n": 4}),
    ("dihedral", {"n": 5}),
    ("doubled-A", {"rank": 3}),
    ("doubled-B", {"rank": 3}),
    ("product", {"factors": [("cyclic", {"n": 2}), ("doubled-A", {"rank": 3})]}),
]


@pytest.mark.parametrize("kind, params", FIVE_GROUPS)
def test_transported_eigenbases_match_each_element(kind, params):
    # every element's eigenspaces against its own kernels, the +1 and -1
    # bases against omega, and the recorded conjugators against the classes
    g = builtin(kind, **params)
    one, zero = Cyclotomic.one(g.exponent), Cyclotomic.zero(g.exponent)
    for key, el in g.elements.items():
        rep, h = g.class_rep[g.class_of[key]], g.conjugator[key]
        assert g.mul(g.mul(h, rep), g.inv(h)) == key
        spectrum = g.spectrum(key)
        assert sum(len(basis) for _, basis in spectrum) == g.dim
        for k, basis in spectrum:
            lam = Cyclotomic.root_of_unity(g.exponent, k)
            assert len(kernel_basis(el.matrix.minus_scalar(lam))) == len(basis) > 0
            for v in basis:
                assert el.matrix.matvec(v) == tuple(x * lam for x in v)
        for kappa in (+1, -1):
            lam = Cyclotomic.from_rational(kappa, g.exponent)
            e_val, basis = g.e_grading(key, kappa)
            assert len(kernel_basis(el.matrix.minus_scalar(lam))) == 2 * e_val == len(basis)
            for i, u in enumerate(basis):
                for j, w in enumerate(basis):
                    want = (one if j == i + 1 and i % 2 == 0 else
                            -one if i == j + 1 and j % 2 == 0 else zero)
                    assert form_value(g.omega, u, w) == want
    assert all(g.conjugator[rep] == g.identity_key() for rep in g.class_rep)


@pytest.mark.parametrize("kind, params", FIVE_GROUPS)
def test_recorded_conjugator_inverses(kind, params):
    # the class search records h^-1 beside every conjugator h
    g = builtin(kind, **params)
    for key in g.elements:
        assert g.mul(g.conjugator[key], g.conjugator_inv[key]) == g.identity_key()


def test_spectrum_identity():
    g = doubled_coxeter("B", 2)
    spectrum = g.spectrum(g.identity_key())
    assert [(k, len(basis)) for k, basis in spectrum] == [(0, g.dim)]


def test_spectrum_diagonal():
    # the generator diag(zeta_4, zeta_4^3) of the cyclic group of order 4
    g = cyclic_sp2(4)
    gen = g.generator_keys[0]
    spectrum = g.spectrum(gen)
    assert [(k, len(basis)) for k, basis in spectrum] == [(1, 1), (3, 1)]
    mat = g.elements[gen].matrix
    for k, basis in spectrum:
        lam = Cyclotomic.root_of_unity(g.exponent, k)
        assert all(mat.matvec(v) == tuple(x * lam for x in v) for v in basis)


def test_spectrum_incomplete():
    # an element order that misses the eigenvalues zeta_4^(1, 3): the
    # eigenspaces of zeta_4^(0, 2) span nothing
    g = cyclic_sp2(4)
    gen = g.generator_keys[0]
    g.elements[gen].order = 2
    with pytest.raises(DecompositionIncompleteError,
                       match=rf"^C{g.class_of[gen]}: .* span 0 < 2 dimensions"):
        g.spectrum(gen)


def test_e_grading_solves_no_kernel_known_empty(monkeypatch):
    # dihedral 5 has m = 10, so kappa = -1 is zeta_10^5; the identity and the
    # order-5 rotations have no eigenvalue -1 and solve no kernel for it:
    # building the group and both GLC solves make 5 kernel_basis calls, one
    # per representative at k = 0 (which also decides the reflections) and
    # one for the reflections at k = 5
    import sra.group
    import sra.linalg
    from sra.traces import solve_glc
    real = sra.linalg.kernel_basis
    solved = []

    def counting(mat):
        solved.append(mat)
        return real(mat)

    monkeypatch.setattr(sra.group, "kernel_basis", counting)
    monkeypatch.setattr(sra.linalg, "kernel_basis", counting)
    g = dihedral(5)
    alg = Algebra(g)
    for kappa in (1, -1):
        solve_glc(alg, kappa)
    assert len(solved) == 5
    # every element of odd order reads E = 0 at kappa = -1 without a solve
    for key in g.sorted_keys():
        if g.elements[key].order % 2:
            assert g.e_grading(key, -1) == (0, ())
    assert len(solved) == 5


def test_eigenbasis_failures_name_the_class(monkeypatch):
    g = doubled_coxeter("A", 3)
    # the transpositions: E = 1 for kappa = +1, and each fixes its own plane
    ci = next(i for i, cls in enumerate(g.classes)
              if len(cls) > 1 and g.e_grading(cls[0], +1)[0] > 0)
    # a kernel of odd dimension is refused with the class label, on the
    # representative and on the other elements alike
    import sra.group
    real = sra.group.kernel_basis
    monkeypatch.setattr(sra.group, "kernel_basis", lambda mat: real(mat)[1:])
    for key in g.classes[ci]:
        with pytest.raises(ArithmeticError, match=rf"^C{ci}: odd-dimensional kappa-eigenspace"):
            g.e_grading(key, -1)


def test_omega_r_matches_projection(omega_r):
    g = doubled_coxeter("A", 3)
    rng = random.Random(5)
    m = g.exponent
    for refl in g.reflections:
        mat = g.elements[refl].matrix
        diff = mat - Matrix.identity(g.dim, m)
        # omega_R(x, y) = 0 whenever x in Z_R = Ker(R - 1)
        for zv in kernel_basis(diff):
            y = tuple(Cyclotomic.from_rational(rng.randint(-3, 3), m) for _ in range(g.dim))
            assert omega_r(g, refl, zv, y).is_zero()
            assert omega_r(g, refl, y, zv).is_zero()
        # and omega_R = omega on V_R
        v1 = diff.col(0)
        for j in range(1, g.dim):
            v2 = diff.col(j)
            assert omega_r(g, refl, v1, v2) == form_value(g.omega, v1, v2)


def test_lemma_grad_minus_one(omega_r):
    # E(Rg) = E(g) - 1 and Ker(Rg - kappa) = Z_R intersect Ker(g - kappa)
    # whenever omega_R does not vanish on Ker(g - kappa)
    for make, kappa in [(lambda: doubled_coxeter("A", 3), +1),
                        (lambda: doubled_coxeter("B", 2), -1),
                        (lambda: doubled_coxeter("B", 2), +1)]:
        g = make()
        hits = 0
        for key in g.sorted_keys():
            e_val, space = g.e_grading(key, kappa)
            if e_val == 0:
                continue
            for refl in g.reflections:
                pairing_nonzero = False
                for i in range(len(space)):
                    for j in range(i + 1, len(space)):
                        if not omega_r(g, refl, space[i], space[j]).is_zero():
                            pairing_nonzero = True
                            break
                    if pairing_nonzero:
                        break
                if not pairing_nonzero:
                    continue
                hits += 1
                rg = g.mul(refl, key)
                assert g.e_grading(rg, kappa)[0] == e_val - 1
                # Ker(Rg - kappa) == Z_R intersect Ker(g - kappa): check dims and containment
                e_rg, space_rg = g.e_grading(rg, kappa)
                refl_mat = g.elements[refl].matrix
                g_mat = g.elements[key].matrix
                kap = Cyclotomic.from_rational(kappa, g.exponent)
                for v in space_rg:
                    assert refl_mat.matvec(v) == v
                    assert g_mat.matvec(v) == tuple(x * kap for x in v)
        assert hits > 0


def _dense_conjugate_of_s3():
    """The generators of doubled A_2 (S_3) conjugated by the symplectic
    P = diag(A, A^-T) [[I, S], [0, I]] over Q(zeta_6), with A = [[1, z],
    [z^2, 2]] and the symmetric S = [[1, z], [z, 1]]: g - 1 is dense."""
    m = 6
    z = Cyclotomic.root_of_unity(m, 1)
    one, zero, two = Cyclotomic.one(m), Cyclotomic.zero(m), Cyclotomic.from_rational(2, m)

    def blocks(a, b, c, d):
        return Matrix.from_rows([list(a.row(i)) + list(b.row(i)) for i in range(2)]
                                + [list(c.row(i)) + list(d.row(i)) for i in range(2)])

    a = Matrix.from_rows([[one, z], [z ** 2, two]])
    s = Matrix.from_rows([[one, z], [z, one]])
    ident, zeros = Matrix.identity(2, m), Matrix.from_rows([[zero, zero], [zero, zero]])
    p = blocks(a, zeros, zeros, inverse(a).transpose()) * blocks(ident, s, zeros, ident)
    p_inv = inverse(p)
    s3 = doubled_coxeter("A", 3)
    return [p * s3.elements[k].matrix.embed(m) * p_inv for k in s3.generator_keys]


@pytest.mark.parametrize("make", [
    lambda: doubled_coxeter("B", 2),
    lambda: doubled_coxeter("A", 4),
    lambda: doubled_coxeter("B", 3),
    lambda: dihedral(5),
    lambda: builtin("product", factors=[("cyclic", {"n": 2}), ("doubled-A", {"rank": 3})]),
    lambda: cyclic_sp2(7),
    lambda: close(_dense_conjugate_of_s3(), standard_omega(2, 6)),
])
def test_table_product_matches_matrix_product(make):
    # the generator-table walk against the reference route, matrix products;
    # close reads each table entry M g off permutations of an orbit and embeds
    # its entries once, so the inputs include a field above the entries'
    # (dihedral 5) and a dense g - 1
    g = make()
    e = g.identity_key()
    assert g.elements[e].matrix == Matrix.identity(g.dim, g.exponent)
    index_of = {el.matrix.key(): i for i, el in g.elements.items()}
    for a, ea in g.elements.items():
        for b, eb in g.elements.items():
            assert g.mul(a, b) == index_of[(ea.matrix * eb.matrix).key()]
        assert g.mul(a, g.inv(a)) == e
        assert g.mul(g.inv(a), a) == e


def test_dense_conjugate_closes_to_s3():
    gens = _dense_conjugate_of_s3()
    one = Cyclotomic.one(6)
    for gen in gens:
        assert sum(not x.is_zero() for x in gen.minus_scalar(one).data) == 10
    g = close(gens, standard_omega(2, 6))
    assert len(g) == 6 and g.exponent == 6
    assert g.kappa_counts() == doubled_coxeter("A", 3).kappa_counts() == (1, 2)


@pytest.mark.parametrize("make, exponent", [
    (lambda: dihedral(5), 10),            # entries at m0 = 5
    (lambda: close(_dense_conjugate_of_s3(), standard_omega(2, 6)), 6),
    (lambda: group_from_dict({"N": 1, "cyclotomic_order": 4,
                              "generators": [[["z", "0"], ["0", "-z"]]]}), 4),
    (lambda: doubled_coxeter("B", 3), 12),  # entries at m0 = 1
    (lambda: builtin("product", factors=[("cyclic", {"n": 2}), ("doubled-A", {"rank": 3})]),
     6),
], ids=["dihedral5", "dense-s3", "file-zeta4", "doubled-B3", "cyclic2xdoubled-A3"])
def test_element_numbering_words_and_orders_by_matrix_arithmetic(make, exponent):
    # read against matrices alone, not the closure's tables: the indices
    # ascend in the session-order key, each word's generator product is its
    # element's matrix, and the order is the least k with M^k = 1
    g = make()
    assert g.exponent == exponent
    assert sorted(g.elements) == list(range(len(g)))
    keys = [g.elements[i].matrix.key() for i in range(len(g))]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    ident = Matrix.identity(g.dim, g.exponent)
    gens = [g.elements[k].matrix for k in g.generator_keys]
    for el in g.elements.values():
        product = ident
        for gi in el.word:
            product = product * gens[gi]
        assert product == el.matrix
        power, k = el.matrix, 1
        while power != ident:
            power, k = power * el.matrix, k + 1
        assert k == el.order


def test_closure_forms_no_matrix_product_and_shares_equal_entries(monkeypatch):
    # the only matrix products of a closure are the symplectic checks, two
    # per generator, and each distinct entry value is one object
    real = Matrix.__mul__
    calls = []

    def counting(self, other):
        calls.append(1)
        return real(self, other)

    monkeypatch.setattr(Matrix, "__mul__", counting)
    g = builtin("doubled-B", rank=4)
    monkeypatch.undo()
    assert len(calls) <= 2 * len(g.generator_keys)
    entries = [x for el in g.elements.values() for x in el.matrix.data]
    assert len({id(x) for x in entries}) == len({x.key() for x in entries})


def test_closure_cap_boundary():
    b3 = doubled_coxeter("B", 3)
    gens = [b3.elements[k].matrix for k in b3.generator_keys]
    assert len(close(gens, b3.omega, cap=48)) == 48
    with pytest.raises(CapExceededError):
        close(gens, b3.omega, cap=47)


def test_group_file_round_trip(tmp_path):
    g = doubled_coxeter("B", 2)
    d = group_to_dict(g)
    g2 = group_from_dict(d)
    assert len(g2) == len(g)
    assert g2.exponent == g.exponent
    assert all(g2.elements[i].matrix == el.matrix for i, el in g.elements.items())
    assert g2.classes == g.classes
    assert g2.reflections == g.reflections


def test_group_file_round_trip_cyclotomic_entries():
    # dihedral(5) generators carry zeta_5 literals; round-trip is bit-exact
    g = dihedral(5)
    d = group_to_dict(g)
    from sra.scalar import parse_literal
    for mat_lits, key in zip(d["generators"], g.generator_keys):
        mat = g.elements[key].matrix
        for i, row in enumerate(mat_lits):
            for j, lit in enumerate(row):
                assert parse_literal(lit, g.exponent) == mat[i, j]
    g2 = group_from_dict(d)
    assert len(g2) == len(g)
    assert all(g2.elements[i].matrix == el.matrix for i, el in g.elements.items())
    assert g2.classes == g.classes


def test_group_file_eta_and_omega(tmp_path):
    import json
    d = {
        "name": "Z2",
        "N": 1,
        "cyclotomic_order": 2,
        "generators": [[["-1", "0"], ["0", "-1"]]],
        "eta": {"R0": "1/2"},
    }
    g = group_from_dict(d)
    assert len(g) == 2
    assert g.eta_assignment == {0: Fraction(1, 2)}
    p = tmp_path / "g.json"
    p.write_text(json.dumps(d))
    from sra.group import load_group
    g2 = load_group(str(p))
    assert len(g2) == 2


def test_group_file_eta_round_trip(tmp_path):
    g = doubled_coxeter("B", 2)
    assert g.n_eta == 2
    g.eta_assignment = {1: Fraction(-3, 4)}
    assert group_to_dict(g)["eta"] == {"R0": "symbolic", "R1": "-3/4"}
    path = tmp_path / "b2.json"
    save_group(g, str(path))
    g2 = load_group(str(path))
    assert g2.eta_assignment == {1: Fraction(-3, 4)}
    assert group_to_dict(g2) == group_to_dict(g)


@pytest.mark.parametrize("label", ["R-1", "R+1", "R", "Rx", "r0", "R0 ", "R1.0"])
def test_group_file_rejects_bad_eta_labels(label):
    d = {
        "name": "Z2", "N": 1, "cyclotomic_order": 2,
        "generators": [[["-1", "0"], ["0", "-1"]]],
        "eta": {label: "1/2"},
    }
    with pytest.raises(ValueError, match=re.escape(f"label {label!r}")):
        group_from_dict(d)


def test_group_file_nonstandard_omega():
    # any nondegenerate antisymmetric omega is accepted
    d = {
        "name": "Z2-scaled", "N": 1, "cyclotomic_order": 2,
        "omega": [["0", "2"], ["-2", "0"]],
        "generators": [[["-1", "0"], ["0", "-1"]]],
    }
    g = group_from_dict(d)
    assert len(g) == 2
    assert g.kappa_counts() == (1, 1)
    bad = dict(d, omega=[["0", "1"], ["1", "0"]])
    with pytest.raises(ValueError):
        group_from_dict(bad)


def test_group_file_z_requires_order():
    d = {
        "name": "Z4", "N": 1,
        "generators": [[["z", "0"], ["0", "z^3"]]],
    }
    with pytest.raises(ValueError):
        group_from_dict(d)
    d["cyclotomic_order"] = 4
    assert len(group_from_dict(d)) == 4


def test_builtin_dispatch():
    assert len(builtin("cyclic", n=5)) == 5
    assert len(builtin("doubled-A", rank=3)) == 6
    assert len(builtin("product", factors=[("cyclic", {"n": 2}), ("cyclic", {"n": 3})])) == 6
    with pytest.raises(ValueError):
        builtin("nope")
