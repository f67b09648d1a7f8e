import pytest

from sra.scalar import Cyclotomic


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
