"""The checks that guard the mathematics.

They must survive `python -O`, which strips every `assert` statement, so the
package itself contains none.  And each shared property check must be able
to fail: on a planted fault it reports it."""

import ast
import random
from pathlib import Path

import pytest

import sra
from conftest import const, trace_value
from sra.scalar import Cyclotomic
from sra.linalg import Matrix
from sra.group import cyclic_sp2, dihedral, doubled_coxeter
from sra.algebra import Algebra, relation_table
from sra.traces import (
    InconsistentGLCError,
    TraceFunctional,
    confluence_failures,
    cyclicity_failures,
    even_monomials,
    oracle_mismatches,
    solve_glc,
    verify_glc,
)


def test_package_has_no_assert_statements():
    found = []
    for path in sorted(Path(sra.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_package_has_no_function_level_imports():
    # every import sits at the top of its module, where a reader and the
    # import-time dependency order both see it
    found = []
    for path in sorted(Path(sra.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{path.name}:{node.lineno}" for node in ast.walk(fn)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert found == []


def test_cyclicity_and_oracle_report_a_corrupted_class_value():
    # Z_2 supertrace: str(sigma) = -eta0 P0; adding P0 makes it P0 at eta = 0
    alg = Algebra(cyclic_sp2(2))
    fn = solve_glc(alg, -1)
    group = alg.group
    sigma_cls = next(ci for ci, rep in enumerate(group.class_rep)
                     if rep != group.identity_key())
    table = dict(fn.table)
    table[sigma_cls] = trace_value(1, table[sigma_cls].coeffs, {0: const(alg, 1)})
    bad = TraceFunctional(alg, -1, fn.free_classes, table, fn.e_of_class)
    assert cyclicity_failures(fn, random.Random(3), 20, 3) == []
    assert cyclicity_failures(bad, random.Random(3), 20, 3) != []
    exponents = even_monomials(group.dim, 2)
    assert oracle_mismatches(fn, exponents)[1] == []
    checked, mismatches = oracle_mismatches(bad, exponents)
    assert checked == len(exponents) * len(group.class_rep)
    assert ((0, 0), f"C{sigma_cls}") in mismatches


class _LastRegularStepShifted(TraceFunctional):
    """Adds P0 to every value reduced with the 'last' regular-step strategy."""

    def evaluate(self, f, regular_strategy="first", pair_strategy="first"):
        val = super().evaluate(f, regular_strategy, pair_strategy)
        if regular_strategy == "last":
            val = trace_value(self.nparams, val.coeffs, {0: const(self.algebra, 1)})
        return val


def test_confluence_reports_a_perturbed_strategy():
    alg = Algebra(cyclic_sp2(3))
    fn = solve_glc(alg, 1)
    bad = _LastRegularStepShifted(alg, 1, fn.free_classes, fn.table, fn.e_of_class)
    assert confluence_failures(fn, random.Random(4), 8, (2, 4)) == []
    assert len(confluence_failures(bad, random.Random(4), 8, (2, 4))) == 8


def test_invariant_failures_report_planted_elements():
    # a fresh group: spectra are cached on first use
    group = cyclic_sp2(4)
    m = group.exponent
    one, zero = Cyclotomic.one(m), Cyclotomic.zero(m)
    # diag(1, -1): root-of-unity eigenvalues, but det -1 and not symplectic;
    # the shear ((1, 1), (0, 1)): symplectic, but not diagonalizable
    flip, shear = group.generator_keys[0], group.klein()
    group.elements[flip].matrix = Matrix.from_rows([[one, zero], [zero, -one]])
    group.elements[shear].matrix = Matrix.from_rows([[one, one], [zero, one]])
    assert group.invariant_failures() == sorted([flip, shear])


class _OneElementShifted(TraceFunctional):
    """Adds P0 to sp(g) at one group element only, not at the rest of its
    class."""

    def __init__(self, fn, target):
        super().__init__(fn.algebra, fn.kappa, fn.free_classes, fn.table, fn.e_of_class)
        self.target = target

    def element_value(self, g_key):
        val = super().element_value(g_key)
        if g_key == self.target:
            val = trace_value(self.nparams, val.coeffs, {0: const(self.algebra, 1)})
        return val


@pytest.mark.parametrize("kappa", [1, -1])
def test_verify_glc_checks_every_element_not_only_class_representatives(kappa):
    # S_3: the transpositions are one class of size 3 with E = 1 for both
    # kappa; a fault planted at a transposition that is not the class
    # representative is seen only by a check that visits that element
    alg = Algebra(doubled_coxeter("A", 3))
    fn = solve_glc(alg, kappa)
    group = alg.group
    ci = next(i for i, cls in enumerate(group.classes)
              if len(cls) > 1 and fn.e_of_class[i] > 0)
    rep, target = group.class_rep[ci], group.classes[ci][-1]
    assert target != rep
    verify_glc(fn)
    with pytest.raises(InconsistentGLCError, match=f"fails on C{ci} "):
        verify_glc(_OneElementShifted(fn, target))


def _reflection_class(group, fn):
    """The one class of more than one element with E > 0: the transpositions
    of S_3, the reflections of dihedral 5."""
    (ci,) = [i for i, cls in enumerate(group.classes) if len(cls) > 1 and fn.e_of_class[i] > 0]
    return ci


@pytest.mark.parametrize("kappa", [1, -1])
@pytest.mark.parametrize("build, size", [(lambda: doubled_coxeter("A", 3), 3),
                                         (lambda: dihedral(5), 5)], ids=["S3", "dihedral5"])
def test_verify_glc_checks_each_non_representative(build, size, kappa):
    # verify settles each distinct residual once per class; a fault planted
    # at any one element that is not the representative must still be seen
    alg = Algebra(build())
    fn = solve_glc(alg, kappa)
    group = alg.group
    ci = _reflection_class(group, fn)
    targets = [key for key in group.classes[ci] if key != group.class_rep[ci]]
    assert len(targets) == size - 1
    for target in targets:
        with pytest.raises(InconsistentGLCError, match=f"fails on C{ci} "):
            verify_glc(_OneElementShifted(fn, target))


@pytest.mark.parametrize("kappa", [1, -1])
def test_verify_glc_checks_each_elements_own_products(monkeypatch, kappa):
    # one wrong product R' g' at a transposition of S_3 that is not the
    # representative, landing in a class with another value: sp(g') is the
    # class value as everywhere else, so only a check that reads that
    # element's own products R' g' sees it
    alg = Algebra(doubled_coxeter("A", 3))
    fn = solve_glc(alg, kappa)
    group = alg.group
    ci = _reflection_class(group, fn)
    rep, target = group.class_rep[ci], group.classes[ci][-1]
    assert target != rep
    h = group.conjugator[target]
    rkey = relation_table(alg, group.e_grading(rep, kappa)[1])[1][(0, 1)][0][0]
    moved = group.mul(group.mul(h, rkey), group.inv(h))
    right = group.mul(moved, target)
    wrong = next(key for key in group.sorted_keys()
                 if fn.table[group.class_of[key]] != fn.table[group.class_of[right]])
    verify_glc(fn)
    mul = group.mul
    monkeypatch.setattr(group, "mul", lambda a, b: wrong if (a, b) == (moved, target) else mul(a, b))
    with pytest.raises(InconsistentGLCError, match=f"fails on C{ci} "):
        verify_glc(fn)
