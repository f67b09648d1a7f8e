"""Acceptance suite: every criterion is exact (all equalities over Q(zeta_m)
and the eta-polynomial ring); each test prints one pass/fail line (run with
`pytest tests/test_acceptance.py -v -s`).

Criterion 9's literal root expectation is kept as a faithful strict-xfail:
in this algebra's normalization of the defining relation the two-particle
degeneracies sit at odd integer eta (the hand-derived d = 0 determinant
1 - eta^2 pins that normalization), so rational roots 1/2, -1/2 cannot occur
at any cutoff; the family eta = 2(k + 1/2) is asserted instead.  See the
decisions ledger for the full analysis.
"""

import random
import time
from fractions import Fraction

import pytest

from conftest import const, eta
from sra.group import builtin, cyclic_sp2, direct_product, doubled_coxeter
from sra.algebra import Algebra
from sra.traces import (
    _random_definite,
    confluence_failures,
    cyclicity_failures,
    gram,
    oracle_mismatches,
    solve_glc,
)


def _report(num, desc, ok, extra=""):
    status = "PASS" if ok else "FAIL"
    print(f"\n[acceptance] criterion {num}: {desc}: {status}{extra}")
    assert ok, f"acceptance criterion {num} failed"


def _group_registry():
    groups = [cyclic_sp2(n) for n in range(2, 13)]
    groups += [doubled_coxeter("A", n) for n in (2, 3, 4, 5)]
    groups.append(doubled_coxeter("B", 2))
    groups.append(builtin("dihedral", n=5))
    groups.append(direct_product(cyclic_sp2(2), cyclic_sp2(3)))
    return groups


@pytest.fixture(scope="module")
def registry():
    return _group_registry()


def test_criterion_1_a_series_counts():
    t0 = time.time()
    got = {}
    for n in (2, 3, 4, 5):
        g = doubled_coxeter("A", n)
        got[n] = g.kappa_counts()
    elapsed = time.time() - t0
    expected = {2: (1, 1), 3: (1, 2), 4: (1, 2), 5: (1, 3)}
    ok = got == expected and elapsed < 60.0
    _report(1, "A-series counts T=1,1,1,1 / S=1,2,2,3", ok,
            f" ({elapsed:.1f}s, counts {got})")


def test_criterion_2_cyclic_counts():
    t0 = time.time()
    ok = True
    for n in range(2, 13):
        g = cyclic_sp2(n)
        # brute-force oracle: element k of Z_n has eigenvalue exponents {k, -k}
        t_oracle = s_oracle = 0
        for k in range(n):
            exps = {k % n, (-k) % n}
            has_one = 0 in exps
            has_minus = n % 2 == 0 and (n // 2) in exps
            t_oracle += 0 if has_one else 1
            s_oracle += 0 if has_minus else 1
        formula = (n - 1, n - 1 if n % 2 == 0 else n)
        ok = ok and g.kappa_counts() == (t_oracle, s_oracle) == formula
    elapsed = time.time() - t0
    ok = ok and elapsed < 5.0
    _report(2, "cyclic counts vs brute-force eigenvalue enumeration, n=2..12", ok,
            f" ({elapsed:.1f}s)")


def test_criterion_3_glc_dimension(registry):
    ok = True
    details = []
    for group in registry:
        algebra = Algebra(group)
        t_count, s_count = group.kappa_counts()
        for kappa, expected in ((1, t_count), (-1, s_count)):
            # solve_glc verifies every redundant ground level equation over
            # every element; it raises on any nonzero residual
            fn = solve_glc(algebra, kappa, verify=True)
            if fn.nparams != expected:
                ok = False
                details.append((group.name, kappa, fn.nparams, expected))
    _report(3, "GLC free parameters = #(E_kappa=0 classes), residuals vanish", ok,
            f" ({len(registry)} groups, both kappa)" + (f" {details}" if details else ""))


def test_criterion_4_cyclicity_200_pairs():
    plan = [(Algebra(cyclic_sp2(2)), 45), (Algebra(cyclic_sp2(3)), 35),
            (Algebra(doubled_coxeter("A", 3)), 20)]
    rng = random.Random(2024)
    failures = total = 0
    for algebra, count in plan:
        for kappa in (1, -1):
            fn = solve_glc(algebra, kappa, verify=False)
            failures += len(cyclicity_failures(fn, rng, count, 4))
            total += count
    ok = failures == 0 and total == 200
    _report(4, "kappa-trace cyclicity sp(fh) = kappa^(pf ph) sp(hf)", ok,
            f" ({total} random definite-parity pairs, {failures} failures)")


def test_criterion_5_confluence():
    makers = [Algebra(cyclic_sp2(2)), Algebra(cyclic_sp2(3)), Algebra(cyclic_sp2(4)),
              Algebra(doubled_coxeter("A", 3)), Algebra(doubled_coxeter("B", 2))]
    rng = random.Random(77)
    failures = total = 0
    for algebra in makers:
        for kappa in (1, -1):
            fn = solve_glc(algebra, kappa, verify=False)
            failures += len(confluence_failures(fn, rng, 25, (2, 4, 6)))
            total += 25
    ok = failures == 0
    _report(5, "confluence: 2 regular strategies x 2 Darboux tie-breaks agree", ok,
            f" ({total} monomials over 5 groups, {failures} disagreements)")


def _all_monomials(n, max_degree):
    from sra.traces import monomials_of_degree
    out = []
    for d in range(max_degree + 1):
        out.extend(monomials_of_degree(n, d))
    return out


def test_criterion_6_eta0_oracle():
    t0 = time.time()
    algebras = [Algebra(cyclic_sp2(2)), Algebra(cyclic_sp2(3)), Algebra(cyclic_sp2(4)),
                Algebra(doubled_coxeter("A", 3))]
    mismatches = checked = 0
    for algebra in algebras:
        monos = _all_monomials(algebra.group.dim, 6)
        for kappa in (1, -1):
            count, bad = oracle_mismatches(solve_glc(algebra, kappa, verify=False), monos)
            checked += count
            mismatches += len(bad)
    ok = mismatches == 0
    _report(6, "evaluate at eta=0 equals the closed-form skew-product oracle", ok,
            f" ({checked} symmetrized monomials of degree <= 6, "
            f"{mismatches} mismatches, {time.time() - t0:.1f}s)")


def test_criterion_7_klein_correspondence():
    ok = True
    notes = []
    rng = random.Random(11)
    for group in (doubled_coxeter("B", 2), cyclic_sp2(2)):
        k_key = group.klein()
        ok = ok and k_key is not None
        t_count, s_count = group.kappa_counts()
        ok = ok and t_count == s_count
        algebra = Algebra(group)
        fn = solve_glc(algebra, -1, verify=False)
        klein = algebra.group_element(k_key)
        keys = sorted(group.elements)
        fails = 0
        for _ in range(50):
            f = _random_definite(algebra, rng, 3, keys)
            h = _random_definite(algebra, rng, 3, keys)
            if fn.evaluate(klein * (f * h)) != fn.evaluate(klein * (h * f)):
                fails += 1
        ok = ok and fails == 0
        notes.append(f"{group.name}: T=S={t_count}, {fails} cyclicity failures")
    _report(7, "Klein operator: T = S and f -> str(K f) is a trace", ok,
            " (" + "; ".join(notes) + ")")


def test_criterion_8_product_multiplicativity():
    z2, z3 = cyclic_sp2(2), cyclic_sp2(3)
    prod = direct_product(z2, z3)
    t2, s2 = z2.kappa_counts()
    t3, s3 = z3.kappa_counts()
    tp, sp_ = prod.kappa_counts()
    ok = (tp, sp_) == (t2 * t3, s2 * s3) == (2, 3)
    _report(8, "product multiplicativity: T, S of Z_2 x Z_3 are products", ok,
            f" (T={tp}, S={sp_})")


def _z2_gram(degree):
    algebra = Algebra(cyclic_sp2(2))
    fn = solve_glc(algebra, -1, verify=False)
    return algebra, gram(fn, degree)


def test_criterion_9_gram_degeneracy():
    t0 = time.time()
    algebra, report0 = _z2_gram(0)
    eta0 = eta(algebra, 0)
    one = const(algebra, 1)
    ok_d0 = report0.determinant == one - eta0 * eta0
    # the degeneracy family: the paper's eta_paper = k + 1/2 enters this
    # algebra's defining relation as eta = 2 eta_paper, i.e. odd integers,
    # with deeper |k| appearing as the cutoff grows
    _, report2 = _z2_gram(2)
    ok_family = (report0.rational_roots == [Fraction(-1), Fraction(1)]
                 and report2.rational_roots == [Fraction(-3), Fraction(-1),
                                                Fraction(1), Fraction(3)])
    elapsed = time.time() - t0
    ok = ok_d0 and ok_family and elapsed < 60.0
    _report(9, "Z_2 supertrace Gram: d=0 det = 1 - eta^2; degeneracies at "
               "eta = 2(k + 1/2)", ok,
            f" (d=0 roots {report0.rational_roots}, d=2 roots "
            f"{report2.rational_roots}, {elapsed:.1f}s)")


@pytest.mark.xfail(strict=True,
                   reason="spec normalization defect: in the eq.-(rel) "
                          "parameterization the d=0 determinant is exactly "
                          "1 - eta^2 (as criterion 9 itself asserts), so the "
                          "two-particle ideals sit at odd integer eta, never "
                          "at +-1/2; see the decisions ledger")
def test_criterion_9_literal_half_roots():
    for degree in (0, 2, 4):
        _, report = _z2_gram(degree)
        if {Fraction(1, 2), Fraction(-1, 2)} <= set(report.rational_roots):
            print(f"\n[acceptance] criterion 9 (literal +-1/2 roots): PASS at d={degree}")
            return
    print("\n[acceptance] criterion 9 (literal +-1/2 roots): FAIL as expected "
          "(normalization defect, see ledger)")
    assert False


def test_criterion_10_group_invariants(registry):
    bad = {group.name: keys for group in registry if (keys := group.invariant_failures())}
    elements = sum(len(group) for group in registry)
    _report(10, "group invariants: diagonalizable, root-of-unity eigenvalues, "
                "det 1, inverse-closed spectrum, even +-1 multiplicities, "
                "symplectic", not bad,
            f" ({len(registry)} groups, {elements} elements)" + (f" {bad}" if bad else ""))


def _partitions(n, part_ok):
    """The number of partitions of n into parts k with part_ok(k)."""
    ways = [1] + [0] * n
    for k in range(1, n + 1):
        if part_ok(k):
            for total in range(k, n + 1):
                ways[total] += ways[total - k]
    return ways[n]


def test_criterion_11_closed_form_counts():
    # S_n = doubled A_(n-1): T = 1 (the n-cycles), S = partitions of n into
    # odd parts; doubled B_N: T = p(N), S = sum over a + b = N of (partitions
    # of a into odd parts) (partitions of b into even parts)
    t0 = time.time()
    odd, even = (lambda k: k % 2 == 1), (lambda k: k % 2 == 0)
    got, want = {}, {}
    for n in range(2, 7):
        got[f"A{n - 1}"] = doubled_coxeter("A", n).kappa_counts()
        want[f"A{n - 1}"] = (1, _partitions(n, odd))
    for n in (2, 3, 4):
        got[f"B{n}"] = doubled_coxeter("B", n).kappa_counts()
        want[f"B{n}"] = (_partitions(n, lambda k: True),
                         sum(_partitions(a, odd) * _partitions(n - a, even) for a in range(n + 1)))
    elapsed = time.time() - t0
    _report(11, "closed-form counts on doubled A_(n-1), n=2..6, and B_N, N=2..4",
            got == want, f" ({elapsed:.1f}s, counts {got}, closed forms {want})")
