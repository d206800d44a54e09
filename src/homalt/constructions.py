"""Ways of building Hom-algebras.

The central construction is the twist: given (A, mu, alpha) and a weak
self-morphism beta (beta(x*y) = beta(x)*beta(y); beta need not commute
with alpha, and for an ordinary algebra alpha = Id), the twisted algebra

    A_beta = (A, beta o mu, beta o alpha)

is again right Hom-alternative when A is, and is multiplicative when A
is an ordinary right-alternative algebra twisted along its own morphism.
Iterating with beta = alpha^n gives the derived algebras.

The five-dimensional right-alternative (not left-alternative) algebra
with basis e, u, v, w, z and products

    e*e = e,  e*u = v,  u*e = u,  e*w = w - z,  e*z = z = z*e

(all other basis products zero) admits the morphism family
alpha_{gamma, delta, epsilon} below; twisting along it produces
multiplicative right Hom-alternative algebras that are not left
Hom-alternative, the running examples of the test suite.
"""

from collections import namedtuple

from .linalg import (
    Matrix,
    ZERO,
    as_scalar,
    char_poly,
    format_scalar,
    identity_matrix,
    mat_mul,
    mat_pow,
    qq,
    vec_mat,
)
# mul is unused here, but perfbench/traced.py wraps it in every module that holds it.
from .core import CheckReport, HomAlgebra, HypothesisError, morphism_defect, require
from .core import mul  # noqa: F401

__all__ = [
    "AlbertParams",
    "albert5_base",
    "albert5_alpha",
    "albert5_twisted",
    "yau_twist",
    "derived_algebra",
    "plus_algebra",
    "direct_sum",
    "hom_module_distinguish",
]


class AlbertParams(namedtuple("AlbertParams", "gamma delta epsilon")):
    """Parameters (gamma, delta, epsilon) of the morphism family.

    delta must avoid 0 and 1: delta = 0 kills the u, v directions and
    delta = 1 makes the twist act as the identity there, and either way
    the family's non-isomorphism arguments break down.  (_replace and
    _make skip that check, so nothing calls them here.)
    """

    __slots__ = ()

    def __new__(cls, gamma, delta, epsilon):
        self = super().__new__(cls, as_scalar(gamma), as_scalar(delta), as_scalar(epsilon))
        if self.delta == 0 or self.delta == 1:
            raise ValueError("delta must avoid 0 and 1 (got %s)" % format_scalar(self.delta))
        return self


_ALBERT_BASIS = ("e", "u", "v", "w", "z")


def albert5_base():
    """The 5-dimensional right-alternative algebra (alpha = Id)."""
    dim = 5
    e, u, v, w, z = range(5)
    mu = [[[ZERO] * dim for _ in range(dim)] for _ in range(dim)]
    mu[e][e][e] = as_scalar(1)
    mu[e][u][v] = as_scalar(1)
    mu[u][e][u] = as_scalar(1)
    mu[e][w][w] = as_scalar(1)
    mu[e][w][z] = as_scalar(-1)
    mu[e][z][z] = as_scalar(1)
    mu[z][e][z] = as_scalar(1)
    return HomAlgebra(dim, _ALBERT_BASIS, mu, identity_matrix(dim))


def albert5_alpha(params):
    """Matrix of alpha_{gamma, delta, epsilon} (rows = images of e,u,v,w,z).

    alpha(e) = e + eps*u + eps*v, alpha(u) = delta*u, alpha(v) = delta*v,
    alpha(w) = gamma*w, alpha(z) = gamma*z.
    """
    g, d, eps = params.gamma, params.delta, params.epsilon
    return Matrix(
        [
            [1, eps, eps, 0, 0],
            [0, d, 0, 0, 0],
            [0, 0, d, 0, 0],
            [0, 0, 0, g, 0],
            [0, 0, 0, 0, g],
        ]
    )


def albert5_twisted(params):
    """The multiplicative right Hom-alternative twist of albert5_base."""
    return yau_twist(albert5_base(), albert5_alpha(params))


def yau_twist(A, beta):
    """(A, beta o mu, beta o alpha) for a weak self-morphism beta.

    beta is checked to be a weak morphism on all basis pairs first; a
    failing pair is named in the HypothesisError.  Structure constants of
    the result are materialised eagerly.
    """
    if not isinstance(beta, Matrix):
        raise ValueError("beta must be a Matrix, got %s" % type(beta).__name__)
    if beta.rows != A.dim or beta.cols != A.dim:
        raise ValueError(
            "beta must be %dx%d, got %dx%d" % (A.dim, A.dim, beta.rows, beta.cols)
        )
    bad = morphism_defect(A, beta)
    if bad is not None:
        x, y = (A.basis_names[i] for i in bad[0])
        raise HypothesisError(
            "beta is not a weak morphism: beta(%s*%s) != beta(%s)*beta(%s)" % (x, y, x, y))
    new_mu = [
        [list(vec_mat(A.mu[i][j], beta)) for j in range(A.dim)] for i in range(A.dim)
    ]
    # coords(beta(alpha(x))) = (x @ M_alpha) @ M_beta, so the new twist
    # matrix is M_alpha @ M_beta.
    return HomAlgebra(A.dim, A.basis_names, new_mu, mat_mul(A.alpha, beta))


def derived_algebra(A, n):
    """The n-th derived algebra (A, alpha^n o mu, alpha^(n+1)).

    Requires A multiplicative (so alpha is a weak self-morphism and
    twisting by it preserves right alternativity); n = 0 gives back A
    itself (a fresh equal copy).  n must be a non-negative integer.
    """
    if not isinstance(n, int) or n < 0:
        raise ValueError("derived algebra needs an integer n >= 0, got %r" % (n,))
    require(A, "derived algebra", "multiplicative")
    return yau_twist(A, mat_pow(A.alpha, n))


def plus_algebra(A):
    """A+ = (A, (mu + mu^op)/2, alpha): same alpha, symmetrised product."""
    half = qq(1, 2)
    new_mu = [[(A.mu[i][j] + A.mu[j][i]).scale(half) for j in range(A.dim)]
              for i in range(A.dim)]
    return HomAlgebra(A.dim, A.basis_names, new_mu, A.alpha)


def direct_sum(A, B):
    """A ⊕ B: block-diagonal mu and alpha, A's basis first.

    Products across the summands vanish, so multiplicativity and the
    associator laws hold in A ⊕ B iff they hold in both summands, and a
    failing basis tuple of B comes back shifted by A.dim.  Basis names are kept when the
    summands share none; otherwise they become name_1 and name_2.
    """
    names = A.basis_names + B.basis_names
    if len(set(names)) < len(names):
        names = (tuple("%s_1" % n for n in A.basis_names)
                 + tuple("%s_2" % n for n in B.basis_names))
    dim, zero = A.dim + B.dim, [ZERO] * B.dim
    mu = [[[ZERO] * dim for _ in range(dim)] for _ in range(dim)]
    for i in range(A.dim):
        for j in range(A.dim):
            mu[i][j] = list(A.mu[i][j]) + zero
    for i in range(B.dim):
        for j in range(B.dim):
            mu[A.dim + i][A.dim + j] = [ZERO] * A.dim + list(B.mu[i][j])
    alpha = ([list(row) + zero for row in A.alpha.data]
             + [[ZERO] * A.dim + list(row) for row in B.alpha.data])
    return HomAlgebra(dim, names, mu, Matrix(alpha))


def hom_module_distinguish(A, B):
    """One-sided non-isomorphism certificate via the twist maps, as a CheckReport.

    An isomorphism of Hom-algebras intertwines the two alphas, so
    isomorphic algebras have equal dimensions and equal characteristic
    polynomials of alpha.  The report passes -- no isomorphism can exist
    -- when the dimensions differ or the polynomials do; it fails as
    inconclusive, with witness (A, B), when they agree.  At equal
    dimensions lhs and rhs list the coefficients of the two polynomials.
    """
    law = "hom-module-distinguish"
    if A.dim != B.dim:
        return CheckReport(True, law, note="distinguishable: dimensions differ (%d != %d)"
                           % (A.dim, B.dim))
    pa, pb = ([format_scalar(c) for c in char_poly(X.alpha)] for X in (A, B))
    if pa != pb:
        note = "distinguishable: the twisting maps have different characteristic polynomials"
        return CheckReport(True, law, lhs=pa, rhs=pb, note=note)
    note = "inconclusive: alpha spectra agree; the algebras may or may not be isomorphic"
    return CheckReport(False, law, (A, B), pa, pb, note)
