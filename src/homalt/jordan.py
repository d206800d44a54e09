"""Hom-Jordan algebras and Hom-Jordan admissibility.

(A, mu, alpha) is Hom-Jordan when mu is commutative and

    as(x*x, alpha(y), alpha(x)) = 0,

and a (possibly non-commutative) algebra is Hom-Jordan admissible when
its plus algebra A+ = (A, (mu + mu^op)/2, alpha) is Hom-Jordan.
Multiplicative right Hom-alternative algebras are always Hom-Jordan
admissible; that is the main consequence checked here.

The Jordan identity is homogeneous of degree 3 in x and linear in y, so
it is checked by polarizing the x-slot (inclusion-exclusion over basis
triples, an exact proof over Q) against every basis y.
check_hom_jordan_admissible makes that one sweep on A+, which is
commutative by construction.
"""

from .core import CheckReport, apply_alpha, hom_associator, mul
from .constructions import plus_algebra
from .powers import polarized_defect_sweep, subset_sum_defects

__all__ = ["jordan_defect", "check_hom_jordan", "check_hom_jordan_admissible"]


def jordan_defect(A, x, y):
    """as(x*x, alpha(y), alpha(x)) in A."""
    return hom_associator(A, mul(A, x, x), apply_alpha(A, y), apply_alpha(A, x))


def _polarized_jordan(A, law):
    alpha_basis = [apply_alpha(A, b) for b in A.basis()]

    def defects(x):  # jordan_defect at every alpha(y), x's own products made once
        x2, ax = mul(A, x, x), apply_alpha(A, x)
        aax, ax2 = apply_alpha(A, ax), apply_alpha(A, x2)
        return [(yi, mul(A, mul(A, x2, ay), aax) - mul(A, ax2, mul(A, ay, ax)))
                for yi, ay in enumerate(alpha_basis)]

    return polarized_defect_sweep(A, 3, subset_sum_defects(A, defects), law)


def check_hom_jordan(A):
    """Commutativity plus the polarized Hom-Jordan identity.

    Commutativity is checked first (its own witness: the first basis
    pair with e_i*e_j != e_j*e_i); the identity sweep witnesses the
    first failing (x-multiset, y-index) pair.
    """
    for i in range(A.dim):
        for j in range(i + 1, A.dim):
            if A.mu[i][j] != A.mu[j][i]:
                return CheckReport(
                    False,
                    "hom-jordan",
                    (i, j),
                    A.element(A.mu[i][j]),
                    A.element(A.mu[j][i]),
                    note="product is not commutative",
                )
    return _polarized_jordan(A, "hom-jordan")


def check_hom_jordan_admissible(A):
    """Is A+ Hom-Jordan?  Proved or refuted by one polarized sweep on A+."""
    rep = _polarized_jordan(plus_algebra(A), "hom-jordan-admissible")
    rep.note = "polarized sweep of as(x*x, alpha(y), alpha(x)) on A+"
    return rep
