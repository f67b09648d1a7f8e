import pytest

from sra.scalar import Cyclotomic, EtaPolynomial, add_maps, eta_pack, eta_unit
from sra.traces import TraceValue


def eta_var(i, nvars, m):
    """eta_i as an EtaPolynomial in nvars variables over Q(zeta_m)."""
    return EtaPolynomial(nvars, m, {eta_unit(i, nvars): Cyclotomic.one(m)})


def eta_const(c, nvars, m):
    """The constant c, a rational or a Cyclotomic of order m, as an
    EtaPolynomial in nvars variables over Q(zeta_m)."""
    if not isinstance(c, Cyclotomic):
        return EtaPolynomial.constant(c, nvars, m)
    return EtaPolynomial(nvars, m, {} if c.is_zero() else {eta_pack((0,) * nvars): c})


def eta(alg, i):
    """eta_i as an EtaPolynomial in the variables of the algebra."""
    return eta_var(i, alg.nvars, alg.m)


def const(alg, c):
    """The constant c as an EtaPolynomial in the variables of the algebra."""
    return eta_const(c, alg.nvars, alg.m)


def eta_exponent(alg, i):
    """The packed exponent of the monomial eta_i."""
    (exp,) = eta(alg, i).terms
    return exp


def trace_value(nparams, *coeff_maps):
    """The TraceValue of the sum of the maps {P index: EtaPolynomial},
    flattened to {(P index, eta exponent): Cyclotomic} with the zero sums
    dropped, in the variables of its polynomials (none when there are no
    polynomials, as the empty value has no coefficient to read)."""
    flat, nvars = {}, 0
    for coeffs in coeff_maps:
        for i, p in coeffs.items():
            flat, nvars = add_maps(flat, {(i, e): c for e, c in p.terms.items()}, 1, p.m), p.nvars
    return TraceValue(nparams, nvars, flat)


@pytest.fixture(scope="session")
def omega_r():
    """omega_r(group, R, x, y) = omega_R(x, y) = (x.B)(y.A) - (x.A)(y.B) for
    the covectors (A, B) of Group.omega_r_covectors, dotted densely: the
    reference that the sparse relation_table is checked against."""
    def value(group, refl_key, x, y):
        a_cov, b_cov = group.omega_r_covectors(refl_key)
        zero = Cyclotomic.zero(group.exponent)

        def dot(u, v):
            return sum((p * q for p, q in zip(u, v)), zero)

        return dot(x, b_cov) * dot(y, a_cov) - dot(x, a_cov) * dot(y, b_cov)
    return value
