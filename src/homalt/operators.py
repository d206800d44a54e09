"""Multiplication operators L_x, R_x and their identities.

An operator is a linalg.Matrix acting on the right of coordinate rows
(a's image has coordinates vec_mat(a.coords, M)):

    a L_x = x*a,    a R_x = a*x,    a A.alpha = alpha(a),

so composing "f then g" multiplies matrices in reading order, fg has
matrix M_f @ M_g, and operator identities are exact matrix identities.
Row a of L_x is x*e_a and row a of R_x is e_a*x, each made by
core.mul_nums, the one product kernel.

For a right Hom-alternative algebra, multiplicative or not,

    R_x R_alpha(x) = alpha R_{x*x}                          (all x)
    L_y L_alpha(x) - alpha L_{x*y}
        = L_x R_alpha(y) - R_y L_alpha(x)                   (all x, y)

(applied to an element, each is that law), and if it is multiplicative,
then for an idempotent e (e*e = e = alpha(e)), with L = L_e, R = R_e:

    R^2 = alpha R,           so R^(n+1) = alpha^n R for every n
    L^2 - alpha L = [L, R]
    [alpha, L] = 0 = [alpha, R]
    (L^2 - alpha L)^2 = 0 = [L, R]^2
    L R L = alpha L R
    L^3 - alpha L^2 = alpha L R - R L R

and T = 3 alpha^2 L^2 - 2 alpha L^3 satisfies T^2 = alpha^4 T, so
T^(n+1) = alpha^(4n) T for every n, and [T, R] = 0.  Each family follows
from its first member by induction on n, so it is checked there only.
"""

from .linalg import Matrix, identity_matrix
# mul is unused here, but perfbench/traced.py wraps it in every module that holds it.
from .core import CheckReport, is_right_hom_alternative, mul_nums, require
from .core import mul  # noqa: F401

__all__ = [
    "left_op",
    "right_op",
    "op_commutator",
    "build_T",
    "check_mul_operator_identities",
    "check_idempotent_operator_suite",
]


def _op(A, x, left):
    """L_x (left) or R_x: row a is x*e_a, resp. e_a*x, made by mul_nums."""
    if x.algebra is not A:
        raise ValueError("elements belong to different algebras")
    xs, units = x.coords.nums, identity_matrix(A.dim).nums
    return Matrix.from_ints([mul_nums(A, xs, e) if left else mul_nums(A, e, xs) for e in units],
                            x.coords.den * A._mu_den)


def left_op(A, x):
    """L_x: a |-> x*a."""
    return _op(A, x, True)


def right_op(A, x):
    """R_x: a |-> a*x."""
    return _op(A, x, False)


def op_commutator(f, g):
    """[f, g] = fg - gf."""
    return f * g - g * f


def check_mul_operator_identities(A):
    """The two identities above, decided by the right Hom-alternative law
    (RA) that they restate; no operator is built unless RA fails.

    Applied to e_a, R-composition polarized at (x, y) is
    as(e_a, x, y) + as(e_a, y, x) = 0, and the L/R exchange is
    as(x, y, e_a) + as(x, e_a, y) = 0.  Where RA fails at (i, j, k), the
    witness is the basis pair (j, k), and lhs and rhs are
    R_x R_alpha(y) + R_y R_alpha(x) and alpha R_{x*y + y*x} at x = e_j,
    y = e_k, which differ in row i.
    """
    law, ra = "mul-operator-identities", is_right_hom_alternative(A)
    if ra:
        return CheckReport(True, law, note="right Hom-alternativity proves both: applied to "
                           "e_a, R-composition at (x, y) is as(e_a, x, y) + as(e_a, y, x), and "
                           "the L/R exchange is the same law with the variables renamed")
    i, j, k = ra.witness
    x, y = A.basis_element(j), A.basis_element(k)
    ax, ay = A.element(A.alpha.row(j)), A.element(A.alpha.row(k))  # alpha(x), alpha(y)
    lhs = right_op(A, x) * right_op(A, ay) + right_op(A, y) * right_op(A, ax)
    rhs = A.alpha * right_op(A, x * y + y * x)
    return CheckReport(False, law, (j, k), lhs, rhs, note="R-composition fails on basis "
                       "pair, in row %d: right Hom-alternativity fails at %r" % (i, ra.witness))


def build_T(A, e):
    """T = 3 alpha^2 L^2 - 2 alpha L^3 for L = L_e."""
    L, al = left_op(A, e), A.alpha
    return ((al ** 2) * (L ** 2)).scale(3) - (al * (L ** 3)).scale(2)


def check_idempotent_operator_suite(A, e):
    """All operator identities at an idempotent e, as matrix identities.

    Unmet hypotheses raise HypothesisError: e must be an idempotent
    (e*e = e = alpha(e)) and A must be multiplicative right
    Hom-alternative -- the identities are theorems only under those
    hypotheses, so feeding anything else is a usage error, not a
    refutation.  The power families need only their first members: by
    associativity, R^(n+1) = R^n R = alpha^(n-1) R R = alpha^n R and
    T^(n+1) = T^n T = alpha^(4n-4) T T = alpha^(4n) T, by induction on n.
    """
    require(A, "operator suite", "idempotent", "multiplicative", "right-hom-alternative", e=e)
    L, R, al = left_op(A, e), right_op(A, e), A.alpha
    zero = Matrix.zero(A.dim, A.dim)
    lsq = L * L - al * L
    lr = op_commutator(L, R)
    T = build_T(A, e)
    checks = [
        ("R^2 = alpha^1 R", R * R, al * R),
        ("L^2 - alpha L = [L, R]", lsq, lr),
        ("[alpha, L] = 0", op_commutator(al, L), zero),
        ("[alpha, R] = 0", op_commutator(al, R), zero),
        ("(L^2 - alpha L)^2 = 0", lsq * lsq, zero),
        ("[L, R]^2 = 0", lr * lr, zero),
        ("L R L = alpha L R", L * R * L, al * L * R),
        ("L^3 - alpha L^2 = alpha L R - R L R",
         L ** 3 - al * (L ** 2), al * L * R - R * L * R),
        ("T^2 = alpha^4 T", T * T, (al ** 4) * T),
        ("[T, R] = 0", op_commutator(T, R), zero),
    ]
    law = "idempotent-operator-suite"
    for name, lhs, rhs in checks:
        if lhs != rhs:
            return CheckReport(False, law, (name,), lhs, rhs)
    return CheckReport(True, law, note="%d identities verified; by induction R^(n+1) = "
                       "alpha^n R and T^(n+1) = alpha^(4n) T for every n >= 1" % len(checks))
