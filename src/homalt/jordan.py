"""Hom-Jordan algebras and Hom-Jordan admissibility.

(A, mu, alpha) is Hom-Jordan when mu is commutative and

    as(x*x, alpha(y), alpha(x)) = 0,

and a (possibly non-commutative) algebra is Hom-Jordan admissible when
its plus algebra A+ = (A, (mu + mu^op)/2, alpha) is Hom-Jordan.
Multiplicative right Hom-alternative algebras are always Hom-Jordan
admissible; that is the main consequence checked here.

The Jordan identity is homogeneous of degree 3 in x and linear in y, so
it is checked at the lattice points x = e_i + e_j + e_k of the x-slot
(an exact proof over Q, see powers) against every basis y.
check_hom_jordan_admissible makes that one sweep on A+, which is
commutative by construction.
"""

from .core import apply_alpha, hom_associator, mul, mul_nums
from .constructions import plus_algebra
from .linalg import row_times
from .powers import polarized_defect_sweep

__all__ = ["jordan_defect", "check_hom_jordan_admissible"]


def jordan_defect(A, x, y):
    """as(x*x, alpha(y), alpha(x)) in A."""
    return hom_associator(A, mul(A, x, x), apply_alpha(A, y), apply_alpha(A, x))


def check_hom_jordan_admissible(A):
    """Is A+ Hom-Jordan?  Proved or refuted by one lattice sweep on A+."""
    P = plus_algebra(A)
    alpha_basis = P.alpha.nums  # alpha(e_i) is row i of alpha
    den = (P._mu_den * P.alpha.den) ** 3  # each side: three products, three alphas

    def defects(x):  # jordan_defect at every alpha(y), x's own products made once
        x2, ax = mul_nums(P, x, x), row_times(x, P.alpha)
        aax, ax2 = row_times(ax, P.alpha), row_times(x2, P.alpha)
        return [(yi, [a - b for a, b in zip(mul_nums(P, mul_nums(P, x2, ay), aax),
                                             mul_nums(P, ax2, mul_nums(P, ay, ax)))], den)
                for yi, ay in enumerate(alpha_basis)]

    rep = polarized_defect_sweep(P, 3, defects, "hom-jordan-admissible")
    rep.note = "lattice sweep of as(x*x, alpha(y), alpha(x)) on A+"
    return rep
