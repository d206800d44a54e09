"""Multiplication operators L_x, R_x and their identities.

An operator is a linalg.Matrix acting on the right of coordinate rows
(a's image has coordinates vec_mat(a.coords, M)):

    a L_x = x*a,    a R_x = a*x,    a A.alpha = alpha(a),

so composing "f then g" multiplies matrices in reading order, fg has
matrix M_f @ M_g, and operator identities are exact matrix identities.
L_x and R_x are linear in x, so both are read off one table per
algebra, of the L_{e_i} and R_{e_i}.

For a right Hom-alternative algebra, multiplicative or not,

    R_x R_alpha(x) = alpha R_{x*x}                          (all x)
    L_y L_alpha(x) - alpha L_{x*y}
        = L_x R_alpha(y) - R_y L_alpha(x)                   (all x, y)

(applied to an element, each is that law), and if it is multiplicative,
then for an idempotent e (e*e = e = alpha(e)), with L = L_e, R = R_e:

    R^(n+1) = alpha^n R,     so R is alpha-idempotent (R^2 = alpha R)
    L^2 - alpha L = [L, R]
    [alpha, L] = 0 = [alpha, R]
    (L^2 - alpha L)^2 = 0 = [L, R]^2
    L R L = alpha L R
    L^3 - alpha L^2 = alpha L R - R L R

and T = 3 alpha^2 L^2 - 2 alpha L^3 satisfies T^(n+1) = alpha^(4n) T
(so T is alpha^4-idempotent) and [T, R] = 0.
"""

from .linalg import Matrix, mat_pow, vec_mat
# mul is unused here, but perfbench/traced.py wraps it in every module that holds it.
from .core import CheckReport, is_right_hom_alternative, require
from .core import mul  # noqa: F401

__all__ = [
    "left_op",
    "right_op",
    "op_commutator",
    "build_T",
    "is_alpha_n_idempotent",
    "check_mul_operator_identities",
    "check_idempotent_operator_suite",
]

# Largest nmax of check_idempotent_operator_suite: its entries grow like
# alpha^(4 nmax), so the suite's cost grows faster than nmax.
MAX_OPERATOR_POWER = 100


def _basis_ops(A):
    """(lefts, rights): dim x dim^2 Matrices whose row i is L_{e_i}, resp.
    R_{e_i}, flattened row by row, read from A._mu_num."""
    n = A.dim
    lefts = [[0] * (n * n) for _ in range(n)]   # lefts[i][a n + k]: e_i * e_a at e_k
    rights = [[0] * (n * n) for _ in range(n)]  # rights[j][a n + k]: e_a * e_j at e_k
    for a, row in enumerate(A._mu_num):
        for j, pairs in row:
            for k, c in pairs:
                rights[j][a * n + k] = lefts[a][j * n + k] = c
    return Matrix.from_ints(lefts, A._mu_den), Matrix.from_ints(rights, A._mu_den)


def _op(A, side, x):
    """The sum of x_i O_i, where O_i is L_{e_i} for side 0 and R_{e_i} for
    side 1, read from the table of _basis_ops, built once per A."""
    if x.algebra is not A:
        raise ValueError("elements belong to different algebras")
    flat, n = vec_mat(x.coords, A.fact("basis-operators", lambda: _basis_ops(A))[side]), A.dim
    return Matrix.from_ints([flat.nums[r * n:(r + 1) * n] for r in range(n)], flat.den)


def left_op(A, x):
    """L_x: a |-> x*a."""
    return _op(A, 0, x)


def right_op(A, x):
    """R_x: a |-> a*x."""
    return _op(A, 1, x)


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
    rhs = A.alpha * right_op(A, A.element(A.mu[j][k] + A.mu[k][j]))
    return CheckReport(False, law, (j, k), lhs, rhs, note="R-composition fails on basis "
                       "pair, in row %d: right Hom-alternativity fails at %r" % (i, ra.witness))


def build_T(A, e):
    """T = 3 alpha^2 L^2 - 2 alpha L^3 for L = L_e."""
    L, al = left_op(A, e), A.alpha
    return ((al ** 2) * (L ** 2)).scale(3) - (al * (L ** 3)).scale(2)


def is_alpha_n_idempotent(A, f, n):
    """f*f == alpha^n f, for an operator f on A.

    n may be negative only when alpha is invertible (ValueError
    otherwise: negative twist powers need alpha^(-1)).
    """
    if not isinstance(f, Matrix) or (f.rows, f.cols) != (A.dim, A.dim):
        raise ValueError("an operator on a dim-%d algebra is a %dx%d Matrix" % ((A.dim,) * 3))
    if not isinstance(n, int):
        raise ValueError("n must be an integer, got %r" % (n,))
    try:
        an = mat_pow(A.alpha, n)
    except ValueError as exc:  # only a negative n inverts
        raise ValueError(
            "alpha^%d needs invertible alpha, but alpha is singular" % n
        ) from exc
    return f * f == an * f


def check_idempotent_operator_suite(A, e, nmax=5):
    """All operator identities at an idempotent e, as matrix identities.

    Unmet hypotheses raise HypothesisError: e must be an idempotent
    (e*e = e = alpha(e)) and A must be multiplicative right
    Hom-alternative -- the identities are theorems only under those
    hypotheses, so feeding anything else is a usage error, not a
    refutation.  An nmax outside 0..MAX_OPERATOR_POWER raises ValueError.
    """
    require(A, "operator suite", "idempotent", "multiplicative", "right-hom-alternative", e=e)
    if not isinstance(nmax, int) or not 0 <= nmax <= MAX_OPERATOR_POWER:
        raise ValueError("nmax must be an integer in 0..%d, got %r" % (MAX_OPERATOR_POWER, nmax))

    L, R, al = left_op(A, e), right_op(A, e), A.alpha
    zero = Matrix.zero(A.dim, A.dim)
    lsq = L * L - al * L
    lr = op_commutator(L, R)
    T = build_T(A, e)

    checks = [("R^%d = alpha^%d R" % (n + 1, n), R ** (n + 1), (al ** n) * R)
              for n in range(nmax + 1)]
    checks += [
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
    checks += [("T^%d = alpha^%d T" % (n + 1, 4 * n), T ** (n + 1), (al ** (4 * n)) * T)
               for n in range(1, nmax + 1)]

    law = "idempotent-operator-suite"
    for name, lhs, rhs in checks:
        if lhs != rhs:
            return CheckReport(False, law, (name,), lhs, rhs)
    return CheckReport(True, law, note="%d identities verified" % len(checks))
