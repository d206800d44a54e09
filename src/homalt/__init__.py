"""Exact-arithmetic toolkit for right Hom-alternative algebras.

A Hom-algebra is a vector space with a bilinear product and a linear
twisting map alpha; the classical case is alpha = Id.  This package
builds such algebras from structure constants over the rationals,
twists them along self-morphisms, and verifies the laws that hold in
the right Hom-alternative world -- power associativity, Hom-Jordan
admissibility, idempotent decompositions, multiplication-operator
identities -- both concretely (exhaustive basis sweeps, exact
arithmetic) and symbolically (in the free multiplicative Hom-algebra,
with machine-checked certificates).

``import homalt`` loads only ``linalg`` and ``core`` (and ``record``,
which ``core`` uses) and binds their public names here.  Every other
public name is looked up in ``_LAZY`` and its submodule imported on
first access (PEP 562), as is ``homalt.symbolic`` and each other
submodule there, so a client that builds and serializes algebras never
compiles the symbolic, DSL, powers or operator layers.  ``__all__``,
``dir(homalt)``, ``from homalt import X`` and ``from homalt import *``
see every name, loaded or not.
"""

from .linalg import (
    Matrix,
    Scalar,
    Vector,
    char_poly,
    format_scalar,
    identity_matrix,
    inverse,
    kernel_basis,
    mat_mul,
    mat_pow,
    mat_vec,
    parse_scalar,
    qq,
    rank,
    solve,
    vec_mat,
)
from .core import (
    CheckReport,
    Element,
    HomAlgebra,
    HypothesisError,
    algebra_from_json,
    algebra_to_json,
    apply_alpha,
    commutator,
    hom_associator,
    is_hom_alternative,
    is_hom_flexible,
    is_idempotent,
    is_left_hom_alternative,
    is_multiplicative,
    is_right_hom_alternative,
    load_algebra,
    mul,
    random_element,
    save_algebra,
)

__version__ = "0.1.0"

# submodule -> the public names it provides, imported on first access
_LAZY = {
    "constructions": (
        "AlbertParams",
        "albert5_alpha",
        "albert5_base",
        "albert5_twisted",
        "derived_algebra",
        "direct_sum",
        "hom_module_distinguish",
        "plus_algebra",
        "yau_twist",
    ),
    "powers": (
        "PowerTable",
        "check_nth_hom_power_associative",
        "check_power_associativity_polarized",
        "check_third_fourth_criterion",
        "hom_power",
        "hom_power_pair",
    ),
    "jordan": ("check_hom_jordan", "check_hom_jordan_admissible", "jordan_defect"),
    "idempotents": (
        "Decomposition",
        "albert_decomposition",
        "decompose_element",
        "idempotent_search",
    ),
    "operators": (
        "MulOperator",
        "alpha_op",
        "build_T",
        "check_idempotent_operator_suite",
        "check_mul_operator_identities",
        "identity_op",
        "is_alpha_n_idempotent",
        "left_op",
        "op_commutator",
        "right_op",
    ),
    "symbolic": (
        "HomMonomial",
        "HomPolynomial",
        "IdentityDef",
        "certified_identities",
        "check_identity_on_algebra",
        "evaluate_polynomial",
        "expand_associator",
        "hom_teichmuller_terms",
        "identity_defect",
        "identity_registry",
        "load_certificates",
        "multilinearize",
        "ra_polynomial",
        "specialize_classical",
        "teichmuller_f",
        "var",
        "verify_all_certificates",
        "verify_certificate",
        "verify_hom_teichmuller",
    ),
    "dsl": ("parse_identity", "parse_monomial", "parse_term", "term_to_dsl"),
}
_SUBMODULE = {name: module for module, names in _LAZY.items() for name in names}

__all__ = [
    "Matrix",
    "Scalar",
    "Vector",
    "char_poly",
    "format_scalar",
    "identity_matrix",
    "inverse",
    "kernel_basis",
    "mat_mul",
    "mat_pow",
    "mat_vec",
    "parse_scalar",
    "qq",
    "rank",
    "solve",
    "vec_mat",
    "CheckReport",
    "Element",
    "HomAlgebra",
    "HypothesisError",
    "algebra_from_json",
    "algebra_to_json",
    "apply_alpha",
    "commutator",
    "hom_associator",
    "is_hom_alternative",
    "is_hom_flexible",
    "is_idempotent",
    "is_left_hom_alternative",
    "is_multiplicative",
    "is_right_hom_alternative",
    "load_algebra",
    "mul",
    "random_element",
    "save_algebra",
    *_SUBMODULE,
    "__version__",
]


def __getattr__(name):
    """A public name of a submodule not loaded yet, or such a submodule."""
    if name not in _SUBMODULE and name not in _LAZY:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    from importlib import import_module  # kept off the import path of homalt

    module = import_module("." + _SUBMODULE.get(name, name), __name__)
    if name in _LAZY:
        return module  # the import bound it here
    value = globals()[name] = getattr(module, name)  # later lookups skip __getattr__
    return value


def __dir__():
    return sorted(set(globals()) | set(_SUBMODULE) | set(_LAZY))
