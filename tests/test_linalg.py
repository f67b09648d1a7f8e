import itertools
import random
from fractions import Fraction

import pytest

from conftest import eta_const, eta_var
from sra.scalar import Cyclotomic, EtaPolynomial
from sra.group import builtin
from sra.algebra import Algebra
from sra.traces import gram, solve_glc
from sra.linalg import (
    DegenerateRestrictionError,
    Matrix,
    components,
    darboux_basis,
    det,
    form_value,
    fraction_free_det,
    inverse,
    kernel_basis,
    rank,
)


def rat(q, m=1):
    return Cyclotomic.from_rational(Fraction(q), m)


def mat(rows, m=1):
    return Matrix.from_rows([[rat(x, m) if not isinstance(x, Cyclotomic) else x
                              for x in row] for row in rows])


def std_omega(n_half, m=1):
    n = 2 * n_half
    rows = [[0] * n for _ in range(n)]
    for i in range(n_half):
        rows[i][n_half + i] = 1
        rows[n_half + i][i] = -1
    return mat(rows, m)


def test_kernel_examples():
    m = 4
    zero2 = mat([[0, 0], [0, 0]], m)
    assert kernel_basis(zero2) == ((rat(1, m), rat(0, m)), (rat(0, m), rat(1, m)))
    minus2 = mat([[-2, 0], [0, -2]], m)
    assert kernel_basis(minus2) == ()
    z = Cyclotomic.root_of_unity(4)
    g = mat([[z, rat(0, 4)], [rat(0, 4), z ** 3]], 4)
    assert kernel_basis(g - Matrix.identity(2, 4)) == ()


def test_kernel_vectors_annihilate():
    rng = random.Random(7)
    m = 4
    for _ in range(25):
        rows = [[rat(Fraction(rng.randint(-3, 3), rng.randint(1, 3)), m)
                 for _ in range(4)] for _ in range(3)]
        M = Matrix.from_rows(rows)
        ker = kernel_basis(M)
        assert rank(M) + len(ker) == M.cols
        for v in ker:
            assert all(x.is_zero() for x in M.matvec(v))


def test_det_and_inverse():
    m = 12
    z = Cyclotomic.root_of_unity(m)
    M = mat([[z, rat(1, m)], [rat(2, m), z ** 5]], m)
    d = det(M)
    assert d == z * (z ** 5) - rat(2, m)
    Mi = inverse(M)
    assert M * Mi == Matrix.identity(2, m)
    with pytest.raises(ZeroDivisionError):
        inverse(mat([[1, 1], [1, 1]], m))
    assert det(mat([[1, 1], [1, 1]], m)).is_zero()


def test_det_bigger():
    rng = random.Random(3)
    m = 6
    for _ in range(10):
        rows = [[rat(rng.randint(-4, 4), m) * Cyclotomic.root_of_unity(m, rng.randint(0, 5))
                 for _ in range(4)] for _ in range(4)]
        M = Matrix.from_rows(rows)
        MT = M.transpose()
        assert det(M) == det(MT)


def leibniz_det(rows, one):
    """Permutation-sum determinant: the reference route, sharing no code
    with the Bareiss elimination."""
    n = len(rows)
    total = one - one
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = one
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        total = total - term if inversions % 2 else total + term
    return total


def test_det_and_inverse_with_row_swap_match_leibniz():
    rng = random.Random(5)
    m = 12
    for _ in range(5):
        rows = [[rat(rng.randint(-3, 3), m) * Cyclotomic.root_of_unity(m, rng.randint(0, 11))
                 for _ in range(5)] for _ in range(5)]
        rows[0][0] = rat(0, m)   # forces a row swap at the first pivot
        M = Matrix.from_rows(rows)
        d = det(M)
        assert d == leibniz_det(rows, rat(1, m))
        if not d.is_zero():
            assert M * inverse(M) == Matrix.identity(5, m)


def eta_divide_by(p):
    return lambda x: x.exact_divide(p)


@pytest.mark.parametrize("kind,params", [("doubled-B", {"rank": 2}), ("cyclic", {"n": 3})],
                         ids=["b2", "z3"])
def test_gram_determinant_matches_leibniz(kind, params):
    group = builtin(kind, **params)
    report = gram(solve_glc(Algebra(group), -1), 0)
    one = EtaPolynomial.constant(1, group.n_eta, group.exponent)
    assert report.determinant == leibniz_det(report.matrix, one)
    assert not report.determinant.is_zero()


def test_fraction_free_det_singular_and_empty_eta_matrices():
    rng = random.Random(9)
    m, nvars = 3, 2
    one = EtaPolynomial.constant(1, nvars, m)
    eta = [eta_var(i, nvars, m) for i in range(nvars)]

    def entry():
        return (eta_const(Cyclotomic.root_of_unity(m, rng.randint(0, 2))
                          * Cyclotomic.from_rational(rng.randint(-2, 2), m), nvars, m)
                + eta[0] * eta_const(rng.randint(-1, 1), nvars, m)
                + eta[1] * eta[0] * eta_const(rng.randint(-1, 1), nvars, m))

    rows = [[entry() for _ in range(4)] for _ in range(4)]
    for row in rows:
        row[1] = row[0] * eta[1]   # column 1 is eta1 times column 0
    assert leibniz_det(rows, one).is_zero()
    assert fraction_free_det(rows, eta_divide_by, one).is_zero()
    assert fraction_free_det([], eta_divide_by, one) == one == leibniz_det([], one)


def _interleaved(blocks, places, zero):
    """The block-diagonal matrix of `blocks` with rows and columns permuted
    alike: row and column i of block b land at places[b][i]."""
    n = sum(len(p) for p in places)
    rows = [[zero] * n for _ in range(n)]
    for block, place in zip(blocks, places):
        for i, row in enumerate(block):
            for j, x in enumerate(row):
                rows[place[i]][place[j]] = x
    return rows


def cyc_divide_by(p):
    return p.inverse().__mul__


def _cyclotomic_entry(rng, m=12):
    root = Cyclotomic.root_of_unity(m, rng.randint(0, m - 1))
    return rat(rng.choice([-3, -2, -1, 1, 2, 3]), m) * root


def _eta_entry(rng, m=3, nvars=2):
    eta = [eta_var(i, nvars, m) for i in range(nvars)]
    root = Cyclotomic.root_of_unity(m, rng.randint(0, m - 1))
    return (eta_const(root * Cyclotomic.from_rational(rng.choice([-2, -1, 1, 2]), m), nvars, m)
            + eta[0] * eta_const(rng.randint(-1, 1), nvars, m)
            + eta[1] * eta[0] * eta_const(rng.randint(-1, 1), nvars, m))


@pytest.mark.parametrize("ring,singular", [("cyclotomic", False), ("eta", False), ("eta", True)])
def test_block_determinants_of_interleaved_blocks_match_leibniz(ring, singular):
    rng = random.Random(11)
    if ring == "cyclotomic":
        entry, one, divide_by = _cyclotomic_entry, rat(1, 12), cyc_divide_by
    else:
        entry, one, divide_by = _eta_entry, EtaPolynomial.constant(1, 2, 3), eta_divide_by
    # dense blocks of nonzero entries, so each block is one component
    blocks = [[[entry(rng) for _ in range(k)] for _ in range(k)] for k in (3, 2, 1)]
    if singular:
        blocks[0][2] = [x * blocks[0][0][0] for x in blocks[0][1]]   # a multiple of row 1
    places = [[4, 0, 2], [5, 1], [3]]
    rows = _interleaved(blocks, places, one - one)
    found = components(rows)
    assert found == [[0, 2, 4], [1, 5], [3]]
    product = one
    for block, comp in zip(blocks, found):
        sub = [[rows[i][j] for j in comp] for i in comp]
        factor = fraction_free_det(sub, divide_by, one)
        assert factor == leibniz_det(sub, one)
        assert factor == leibniz_det(block, one)   # the block, permuted alike on both sides
        assert factor.is_zero() == (singular and len(comp) == 3)
        product = product * factor
    assert product == leibniz_det(rows, one) == fraction_free_det(rows, divide_by, one)
    assert product.is_zero() == singular


def test_components_of_empty_and_diagonal_patterns():
    zero, one = rat(0), rat(1)
    assert components([]) == []
    assert components([[zero, zero], [zero, zero]]) == [[0], [1]]
    # a one-sided entry joins its row and column
    assert components([[one, zero, zero], [zero, one, zero], [one, zero, zero]]) == [[0, 2], [1]]


def test_darboux_standard_plane():
    m = 1
    omega = std_omega(1, m)
    W = ((rat(1), rat(0)), (rat(0), rat(1)))
    c = darboux_basis(W, omega)
    assert len(c) == 2
    assert form_value(omega, c[0], c[1]) == rat(1)


def test_darboux_empty():
    omega = std_omega(1)
    assert darboux_basis((), omega) == []


def test_darboux_scaled_and_mixed():
    rng = random.Random(11)
    m = 4
    omega = std_omega(2, m)
    for _ in range(15):
        # random invertible change of the full 4-dim space
        while True:
            vecs = [tuple(rat(rng.randint(-2, 2), m) for _ in range(4)) for _ in range(4)]
            M = Matrix.from_rows([list(v) for v in zip(*vecs)])
            if rank(M) == 4:
                break
        c = darboux_basis(vecs, omega)
        k = len(c) // 2
        for i in range(2 * k):
            for j in range(2 * k):
                val = form_value(omega, c[i], c[j])
                if i // 2 == j // 2 and i != j:
                    expect = rat(1, m) if i < j else rat(-1, m)
                    assert val == expect
                elif i != j:
                    assert val.is_zero()
                else:
                    assert val.is_zero()


def test_darboux_degenerate_raises():
    m = 1
    omega = std_omega(2, m)
    # span{e1, e2}: omega vanishes identically on it
    W = ((rat(1), rat(0), rat(0), rat(0)),
         (rat(0), rat(1), rat(0), rat(0)))
    with pytest.raises(DegenerateRestrictionError):
        darboux_basis(W, omega)
