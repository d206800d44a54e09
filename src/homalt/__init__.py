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
which ``core`` uses) and binds here the names in ``linalg.__all__`` and
``core.__all__``.  Every other public name is looked up in ``_LAZY``
and its submodule imported on first access (PEP 562), as is
``homalt.symbolic`` and each other submodule there, so a client that
builds and serializes algebras never compiles the symbolic, DSL, powers
or operator layers.  ``__all__``, ``dir(homalt)``, ``from homalt import
X`` and ``from homalt import *`` see every name, loaded or not.
"""

from . import core, linalg
from .linalg import *
from .core import *

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
    "powers": ("check_nth_hom_power_associative", "check_third_fourth_criterion"),
    "jordan": ("check_hom_jordan_admissible", "jordan_defect"),
    "idempotents": (
        "Decomposition",
        "albert_decomposition",
        "decompose_element",
        "idempotent_search",
    ),
    "operators": (
        "build_T",
        "check_idempotent_operator_suite",
        "check_mul_operator_identities",
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
        "expand_associator",
        "hom_teichmuller_terms",
        "identity_registry",
        "load_certificates",
        "ra_polynomial",
        "specialize_classical",
        "var",
        "verify_certificate",
        "verify_hom_teichmuller",
    ),
    "dsl": ("parse_identity", "parse_monomial", "parse_term"),
}
_SUBMODULE = {name: module for module, names in _LAZY.items() for name in names}

__all__ = [*linalg.__all__, *core.__all__, *_SUBMODULE, "__version__"]


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
