"""Idempotents and the twisted Peirce-style decomposition.

An idempotent here is an e with e*e = e that alpha fixes, alpha(e) = e;
the zero element qualifies (degenerately).  For a multiplicative right
Hom-alternative algebra with surjective alpha, right multiplication by
such an e splits the algebra as

    A = A_e(alpha) + A_e(0),
    A_e(alpha) = {a : a*e = alpha(a)},   A_e(0) = {a : a*e = 0},

with the sum direct exactly when alpha is also injective.  With
alpha = Id this is the classical A_e(1) + A_e(0) eigenspace splitting
of the right multiplication operator.

Both parts are computed as exact kernels: a*e = alpha(a) says the row
vector a lies in the left kernel of (R_e - alpha), i.e. the column
kernel of its transpose.
"""

from itertools import chain, combinations

from .linalg import ONE, Matrix, kernel_basis, qq, rank, solve
from .core import Element, is_idempotent, mul, require
from .operators import right_op
from .record import Record

__all__ = [
    "Decomposition",
    "is_idempotent",
    "idempotent_search",
    "albert_decomposition",
    "decompose_element",
]


# The coordinates the search tries, in ascending order.
_SIGNS = (qq(-1), ONE)


def idempotent_search(A):
    """All nonzero idempotents supported on at most two basis vectors,
    with coordinates -1 or 1 there.

    The result order is deterministic: single supports first, then
    pairs, each in index order with coefficients in ascending order.
    The search runs once per algebra instance.
    """
    return list(A.fact("idempotents", lambda: _search(A)))


def _search(A):
    basis = A.basis()
    singles = (b.scale(c) for b in basis for c in _SIGNS)
    pairs = (basis[i].scale(c) + basis[j].scale(d)
             for i, j in combinations(range(A.dim), 2) for c in _SIGNS for d in _SIGNS)
    return [e for e in chain(singles, pairs) if is_idempotent(A, e)]


class Decomposition(Record):
    """Result of albert_decomposition.

    part_alpha and part_zero are lists of Elements forming canonical
    bases of A_e(alpha) and A_e(0); spans_all says whether together they
    span A, is_direct whether the sum is direct.
    """

    _fields = ("idem", "part_alpha", "part_zero", "is_direct", "spans_all")

    def __init__(self, idem: Element, part_alpha: list, part_zero: list,
                 is_direct: bool, spans_all: bool):
        self.idem = idem
        self.part_alpha = part_alpha
        self.part_zero = part_zero
        self.is_direct = is_direct
        self.spans_all = spans_all


def albert_decomposition(A, e):
    """Split A as A_e(alpha) + A_e(0) along the idempotent e.

    Raises HypothesisError when e is not an idempotent or alpha is not
    surjective (the splitting holds only under both hypotheses).
    """
    require(A, "decomposition", "idempotent", "surjective", e=e)
    re = right_op(A, e)
    part_alpha = [A.element(v) for v in kernel_basis((re - A.alpha).transpose())]
    part_zero = [A.element(v) for v in kernel_basis(re.transpose())]
    parts = part_alpha + part_zero
    r = rank(Matrix.from_vectors([x.coords for x in parts])) if parts else 0
    spans_all = r == A.dim
    is_direct = r == len(part_alpha) + len(part_zero)
    return Decomposition(e, part_alpha, part_zero, is_direct, spans_all)


def decompose_element(A, e, b):
    """Write b = (a*e) + (b - a*e) with alpha(a) = b.

    a is the canonical echelon solution of alpha(a) = b; the first part
    lands in A_e(alpha) and the second in A_e(0) (both membership facts
    hold whenever A is multiplicative right Hom-alternative with e and
    alpha as in albert_decomposition).  Same preconditions as
    albert_decomposition.
    """
    require(A, "decomposition", "idempotent", "surjective", e=e)
    if b.algebra is not A:
        raise ValueError("elements belong to different algebras")
    # row equation a @ alpha = b  <=>  alpha^T @ a^T = b^T
    a = solve(A.alpha.transpose(), b.coords)
    if a is None:  # unreachable once require has seen alpha surjective
        raise ValueError("decomposition needs surjective alpha; alpha(a) = %r has no solution"
                         % (b,))
    ae = mul(A, A.element(a), e)
    return ae, b - ae
