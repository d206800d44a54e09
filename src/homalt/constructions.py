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

from dataclasses import dataclass

from .linalg import (
    Matrix,
    ZERO,
    as_scalar,
    char_poly,
    format_scalar,
    identity_matrix,
    mat_mul,
    mat_pow,
    vec_mat,
)
from .core import HomAlgebra, HypothesisError, mul, require

__all__ = [
    "AlbertParams",
    "albert5_base",
    "albert5_alpha",
    "albert5_twisted",
    "yau_twist",
    "derived_algebra",
    "plus_algebra",
    "hom_module_distinguish",
]


@dataclass(frozen=True)
class AlbertParams:
    """Parameters (gamma, delta, epsilon) of the morphism family.

    delta must avoid 0 and 1: delta = 0 kills the u, v directions and
    delta = 1 makes the twist act as the identity there, and either way
    the family's non-isomorphism arguments break down.
    """

    gamma: object
    delta: object
    epsilon: object

    def __post_init__(self):
        object.__setattr__(self, "gamma", as_scalar(self.gamma))
        object.__setattr__(self, "delta", as_scalar(self.delta))
        object.__setattr__(self, "epsilon", as_scalar(self.epsilon))
        if self.delta == 0 or self.delta == 1:
            raise ValueError("delta must avoid 0 and 1 (got %s)" % format_scalar(self.delta))


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
    assert isinstance(beta, Matrix)
    if beta.rows != A.dim or beta.cols != A.dim:
        raise ValueError(
            "beta must be %dx%d, got %dx%d" % (A.dim, A.dim, beta.rows, beta.cols)
        )
    for i in range(A.dim):
        for j in range(A.dim):
            lhs = vec_mat(A.mu[i][j], beta)
            bi = A.element(beta.row(i))
            bj = A.element(beta.row(j))
            if lhs != mul(A, bi, bj).coords:
                raise HypothesisError(
                    "beta is not a weak morphism: beta(%s*%s) != beta(%s)*beta(%s)"
                    % (A.basis_names[i], A.basis_names[j], A.basis_names[i], A.basis_names[j])
                )
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
    half = as_scalar("1/2")
    new_mu = [
        [
            [(A.mu[i][j][k] + A.mu[j][i][k]) * half for k in range(A.dim)]
            for j in range(A.dim)
        ]
        for i in range(A.dim)
    ]
    return HomAlgebra(A.dim, A.basis_names, new_mu, A.alpha)


def hom_module_distinguish(A, B):
    """One-sided non-isomorphism certificate via the twist maps.

    An isomorphism of Hom-algebras intertwines the two alphas, so equal
    algebras force equal characteristic polynomials of alpha.  Returns
    True when char_poly(A.alpha) != char_poly(B.alpha) -- then no
    isomorphism can exist -- and False (inconclusive) otherwise.
    Dimensions must agree.
    """
    if A.dim != B.dim:
        raise ValueError("algebras have different dimensions (%d vs %d)" % (A.dim, B.dim))
    return char_poly(A.alpha) != char_poly(B.alpha)
