"""Multiplication operators L_x, R_x and their identities.

Operators act on the right of row vectors:

    a L_x = x*a,    a R_x = a*x,    a alpha_op = alpha(a),

so composing "f then g" multiplies matrices in reading order, fg has
matrix M_f @ M_g, and operator identities can be checked as exact
matrix identities.

For a multiplicative right Hom-alternative algebra,

    R_x R_alpha(x) = alpha_op R_{x*x}                       (all x)
    L_y L_alpha(x) - alpha_op L_{x*y}
        = L_x R_alpha(y) - R_y L_alpha(x)                   (all x, y)

and for an idempotent e (e*e = e = alpha(e)), with L = L_e, R = R_e:

    R^(n+1) = alpha^n R,     so R is alpha-idempotent (R^2 = alpha R)
    L^2 - alpha L = [L, R]
    [alpha, L] = 0 = [alpha, R]
    (L^2 - alpha L)^2 = 0 = [L, R]^2
    L R L = alpha L R
    L^3 - alpha L^2 = alpha L R - R L R

and T = 3 alpha^2 L^2 - 2 alpha L^3 satisfies T^(n+1) = alpha^(4n) T
(so T is alpha^4-idempotent) and [T, R] = 0.
"""

from .linalg import Matrix, mat_mul, mat_pow
from .core import CheckReport, mul, require

__all__ = [
    "MulOperator",
    "left_op",
    "right_op",
    "alpha_op",
    "op_commutator",
    "build_T",
    "is_alpha_n_idempotent",
    "check_mul_operator_identities",
    "check_idempotent_operator_suite",
]

# Largest nmax of check_idempotent_operator_suite: its entries grow like
# alpha^(4 nmax), so the suite's cost grows faster than nmax.
MAX_OPERATOR_POWER = 100


class MulOperator:
    """A linear operator on A acting on the right of coordinate rows,
    given by its matrix; equality and hashing compare matrices only."""

    __slots__ = ("algebra", "matrix")

    def __init__(self, algebra, matrix):
        d = algebra.dim
        if not isinstance(matrix, Matrix) or (matrix.rows, matrix.cols) != (d, d):
            got = ("%dx%d" % (matrix.rows, matrix.cols) if isinstance(matrix, Matrix)
                   else type(matrix).__name__)
            raise ValueError("an operator on a dim-%d algebra needs a %dx%d Matrix, got %s"
                             % (d, d, d, got))
        self.algebra = algebra
        self.matrix = matrix

    def apply(self, x):
        if x.algebra is not self.algebra:
            raise ValueError("elements belong to different algebras")
        from .linalg import vec_mat

        return self.algebra.element(vec_mat(x.coords, self.matrix))

    def _check_same(self, other):
        if not isinstance(other, MulOperator) or other.algebra is not self.algebra:
            raise ValueError("operators belong to different algebras")

    def __mul__(self, other):
        """Composition in action order: a (fg) = (a f) g."""
        self._check_same(other)
        return MulOperator(self.algebra, mat_mul(self.matrix, other.matrix))

    def __add__(self, other):
        self._check_same(other)
        return MulOperator(self.algebra, self.matrix + other.matrix)

    def __sub__(self, other):
        self._check_same(other)
        return MulOperator(self.algebra, self.matrix - other.matrix)

    def __neg__(self):
        return MulOperator(self.algebra, -self.matrix)

    def scale(self, c):
        return MulOperator(self.algebra, self.matrix.scale(c))

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("operator powers need an integer n >= 0, got %r" % (n,))
        return MulOperator(self.algebra, mat_pow(self.matrix, n))

    def is_zero(self):
        return self.matrix.is_zero()

    def __eq__(self, other):
        return isinstance(other, MulOperator) and other.matrix == self.matrix

    def __hash__(self):
        return hash(self.matrix)

    def __repr__(self):
        return "MulOperator(%r)" % (self.matrix,)


def left_op(A, x):
    """L_x: a |-> x*a."""
    rows = [mul(A, x, A.basis_element(i)).coords for i in range(A.dim)]
    return MulOperator(A, Matrix.from_vectors(rows))


def right_op(A, x):
    """R_x: a |-> a*x."""
    rows = [mul(A, A.basis_element(i), x).coords for i in range(A.dim)]
    return MulOperator(A, Matrix.from_vectors(rows))


def alpha_op(A):
    return MulOperator(A, A.alpha)


def op_commutator(f, g):
    """[f, g] = fg - gf."""
    return f * g - g * f


def _compose(f, g):
    """f @ g for integer matrices given as lists of rows."""
    sparse_g = [[(j, b) for j, b in enumerate(row) if b] for row in g]
    out = []
    for row in f:
        acc = [0] * len(g)
        for a, srow in zip(row, sparse_g):
            if a:
                for j, b in srow:
                    acc[j] += a * b
        out.append(acc)
    return out


def _plus(f, g, sign=1):
    """f + sign * g for integer matrices given as lists of rows."""
    return [[a + sign * b for a, b in zip(r, s)] for r, s in zip(f, g)]


def _span(x, ops):
    """sum of x[b] * ops[b]: the operator of the integer row x, given the
    basis elements' operators ops as integer matrices."""
    out = [[0] * len(ops) for _ in ops]
    for c, m in zip(x, ops):
        if c:
            for orow, mrow in zip(out, m):
                for k, v in enumerate(mrow):
                    orow[k] += c * v
    return out


def check_mul_operator_identities(A):
    """The two multiplication-operator identities above, proved on basis pairs.

    R_x R_alpha(x) = alpha R_{x*x} is quadratic in x, so over Q it holds
    iff R_x R_alpha(y) + R_y R_alpha(x) = alpha R_{x*y + y*x} holds on
    basis pairs x = e_i, y = e_j with i <= j; the L/R exchange identity
    is bilinear.  No preconditions are enforced: on algebras that are not
    multiplicative right Hom-alternative this simply fails, with the
    basis pair (i, j) as witness.

    The operators are integer matrices read from A._mu_num and
    alpha.nums: R_{e_j} and L_{e_i} lie over mu's denominator, and every
    side of both identities over its square times alpha's, so the sides
    compare as integers; Matrices are built only for a failing pair.
    """
    law, n, al = "mul-operator-identities", A.dim, A.alpha.nums
    right = [[[0] * n for _ in range(n)] for _ in range(n)]  # right[j][a] = e_a * e_j
    left = [[[0] * n for _ in range(n)] for _ in range(n)]   # left[i][a] = e_i * e_a
    for a, row in enumerate(A._mu_num):
        for j, pairs in row:
            for k, c in pairs:
                right[j][a][k] = left[a][j][k] = c

    def failure(i, j, lhs, rhs, note):
        den = A._mu_den ** 2 * A.alpha.den
        return CheckReport(False, law, (i, j), Matrix.from_ints(lhs, den),
                           Matrix.from_ints(rhs, den), note=note)

    right_alpha = [_span(row, right) for row in al]  # R_alpha(e_j)
    for i in range(n):
        for j in range(i, n):
            lhs = _plus(_compose(right[i], right_alpha[j]), _compose(right[j], right_alpha[i]))
            sym = [p + q for p, q in zip(right[j][i], right[i][j])]  # e_i e_j + e_j e_i
            rhs = _compose(al, _span(sym, right))
            if lhs != rhs:
                return failure(i, j, lhs, rhs, "R-composition fails on basis pair")
    for i in range(n):
        lai = _span(al[i], left)  # L_alpha(e_i)
        for j in range(n):
            # x = e_i, y = e_j
            lhs = _plus(_compose(left[j], lai), _compose(al, _span(right[j][i], left)), -1)
            rhs = _plus(_compose(left[i], right_alpha[j]), _compose(right[j], lai), -1)
            if lhs != rhs:
                return failure(i, j, lhs, rhs, "L/R exchange fails on basis pair")
    return CheckReport(True, law,
                       note="R-composition and L/R exchange proved on basis pairs")


def build_T(A, e):
    """T = 3 alpha^2 L^2 - 2 alpha L^3 for L = L_e."""
    L = left_op(A, e)
    al = alpha_op(A)
    return ((al ** 2) * (L ** 2)).scale(3) - (al * (L ** 3)).scale(2)


def is_alpha_n_idempotent(A, f, n):
    """f*f == alpha^n f.

    n may be negative only when alpha is invertible (ValueError
    otherwise: negative twist powers need alpha^(-1)).
    """
    if not isinstance(f, MulOperator) or f.algebra is not A:
        raise ValueError("expected a MulOperator on this algebra")
    if not isinstance(n, int):
        raise ValueError("n must be an integer, got %r" % (n,))
    if n < 0:
        try:
            an = mat_pow(A.alpha, n)
        except ValueError as exc:
            raise ValueError(
                "alpha^%d needs invertible alpha, but alpha is singular" % n
            ) from exc
    else:
        an = mat_pow(A.alpha, n)
    return mat_mul(f.matrix, f.matrix) == mat_mul(an, f.matrix)


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

    L = left_op(A, e)
    R = right_op(A, e)
    al = alpha_op(A)
    zero = MulOperator(A, Matrix.zero(A.dim, A.dim))
    lsq = L * L - al * L
    lr = op_commutator(L, R)
    T = build_T(A, e)

    checks = []
    for n in range(nmax + 1):
        checks.append(("R^%d = alpha^%d R" % (n + 1, n), R ** (n + 1), (al ** n) * R))
    checks.extend(
        [
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
    )
    for n in range(1, nmax + 1):
        checks.append(
            ("T^%d = alpha^%d T" % (n + 1, 4 * n), T ** (n + 1), (al ** (4 * n)) * T)
        )

    law = "idempotent-operator-suite"
    for name, lhs, rhs in checks:
        if lhs != rhs:
            return CheckReport(False, law, (name,), lhs.matrix, rhs.matrix)
    return CheckReport(True, law, note="%d identities verified" % len(checks))
