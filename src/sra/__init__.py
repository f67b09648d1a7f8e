"""Exact traces and supertraces on symplectic reflection algebras.

The package builds finite symplectic reflection groups over the cyclotomic
field Q(zeta_m), counts the independent traces and supertraces on the
associated deformed algebras, solves the ground level conditions
symbolically in the deformation parameters, evaluates kappa-traces of
arbitrary normal-form elements by exact step reductions, and analyzes the
degeneracy of the induced invariant bilinear forms.
"""

from .scalar import (
    CapExceededError,
    Cyclotomic,
    EtaPolynomial,
    cyclotomic_polynomial,
    literal,
    parse_literal,
)
from .linalg import (
    DegenerateRestrictionError,
    Matrix,
    darboux_basis,
    det,
    form_value,
    kernel_basis,
    rank,
)
from .group import (
    DecompositionIncompleteError,
    Group,
    GroupElement,
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
from .algebra import (
    Algebra,
    AlgebraElement,
    EigenbasisChart,
    GroupMismatchError,
    IndefiniteParityError,
    kappa_commutator,
    symmetrized_monomial,
)
from .traces import (
    GramReport,
    InconsistentGLCError,
    KappaEigenvaluePresentError,
    TraceFunctional,
    TraceValue,
    eta0_form,
    eta0_trace,
    even_monomials,
    functional_to_json,
    gram,
    solve_glc,
    verify_glc,
)
from .expr import ParseError, parse, print_element

__version__ = "0.1.0"

__all__ = [
    "Algebra", "AlgebraElement", "CapExceededError", "Cyclotomic",
    "DecompositionIncompleteError", "DegenerateRestrictionError",
    "EigenbasisChart", "EtaPolynomial", "GramReport", "Group", "GroupElement",
    "GroupMismatchError", "InconsistentGLCError", "IndefiniteParityError",
    "KappaEigenvaluePresentError", "Matrix", "NotReflectionError",
    "NotSymplecticError", "ParseError", "TraceFunctional", "TraceValue",
    "builtin", "close", "cyclic_sp2", "cyclotomic_polynomial", "darboux_basis",
    "det", "dihedral", "direct_product", "doubled_coxeter", "eta0_form",
    "eta0_trace", "even_monomials", "form_value", "functional_to_json",
    "gram", "group_from_dict", "group_to_dict",
    "kappa_commutator", "kernel_basis", "literal", "load_group", "parse",
    "parse_literal", "print_element", "rank", "save_group", "solve_glc",
    "standard_omega", "symmetrized_monomial", "verify_glc",
]
