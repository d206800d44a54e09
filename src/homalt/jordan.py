"""Hom-Jordan algebras and Hom-Jordan admissibility.

(A, mu, alpha) is Hom-Jordan when mu is commutative and

    as(x*x, alpha(y), alpha(x)) = 0,

and a (possibly non-commutative) algebra is Hom-Jordan admissible when
its plus algebra A+ = (A, (mu + mu^op)/2, alpha) is Hom-Jordan.
Multiplicative right Hom-alternative algebras are always Hom-Jordan
admissible; that is the main consequence checked here.

The Jordan identity is homogeneous of degree 3 in x and linear in y, so
it is checked at the lattice points x = e_i + e_j + e_k of the x-slot (an
exact proof over Q, see core.polarized_defect_sweep) against every basis
y.  check_hom_jordan_admissible makes that one sweep on A+ (commutative
by construction), priced by its 4 dim + 1 products and 3 alphas a point.
"""

from .core import apply_alpha, hom_associator, mul, mul_nums, polarized_defect_sweep, sweep_size
from .constructions import plus_algebra
from .linalg import row_times

__all__ = ["jordan_defect", "check_hom_jordan_admissible"]


def jordan_defect(A, x, y):
    """as(x*x, alpha(y), alpha(x)) in A."""
    return hom_associator(A, mul(A, x, x), apply_alpha(A, y), apply_alpha(A, x))


def _plus_algebra(A):
    """A+, built once per A, its Jordan sweep priced: ValueError above core.MAX_SWEEP."""
    P = A.fact("plus-algebra", lambda: plus_algebra(A))
    sweep_size(P, (3,), work=4 * P.dim + 4)  # a point's products and alphas
    return P


def check_hom_jordan_admissible(A):
    """Is A+ Hom-Jordan?  One lattice sweep on A+, or ValueError above core.MAX_SWEEP."""
    P = _plus_algebra(A)
    alpha_basis = P.alpha.nums  # alpha(e_i) is row i of alpha
    den = (P._mu_den * P.alpha.den) ** 3  # each side: three products, three alphas

    def defects(x):  # jordan_defect at every alpha(y), x's own products made once
        x2, ax = mul_nums(P, x, x), row_times(x, P.alpha)
        aax, ax2 = row_times(ax, P.alpha), row_times(x2, P.alpha)
        return [(yi, [a - b for a, b in zip(mul_nums(P, mul_nums(P, x2, ay), aax),
                                             mul_nums(P, ax2, mul_nums(P, ay, ax)))], den)
                for yi, ay in enumerate(alpha_basis)]

    rep = polarized_defect_sweep(P, 3, defects, "hom-jordan-admissible")
    return rep._replace(note="lattice sweep of as(x*x, alpha(y), alpha(x)) on A+")
