"""Idempotents and the twisted Peirce-style decomposition.

An idempotent here is an e with e*e = e that alpha fixes, alpha(e) = e;
the zero element qualifies (degenerately).  For a multiplicative right
Hom-alternative algebra with surjective alpha, right multiplication by
such an e splits the algebra as

    A = A_e(alpha) + A_e(0),
    A_e(alpha) = {a : a*e = alpha(a)},   A_e(0) = {a : a*e = 0},

with the sum always direct: a surjective alpha is also injective, so
a*e = alpha(a) = 0 forces a = 0.  With alpha = Id this is the classical
A_e(1) + A_e(0) eigenspace splitting of the right multiplication operator.

Both parts are computed as exact kernels: a*e = alpha(a) says the row
vector a lies in the left kernel of (R_e - alpha), i.e. the column
kernel of its transpose.
"""

from collections import namedtuple
from itertools import chain, combinations

from .linalg import ONE, kernel_basis, qq, vec_mat
from .core import CheckReport, alpha_inverse, is_idempotent, mul, require
from .operators import right_op

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


class Decomposition(namedtuple("Decomposition", "idem part_alpha part_zero spans_all")):
    """Result of albert_decomposition.

    part_alpha and part_zero are lists of Elements forming canonical
    bases of A_e(alpha) and A_e(0), whose sum is direct (see above);
    spans_all says whether together they span A.
    """

    __slots__ = ()


def albert_decomposition(A, e):
    """Split A as A_e(alpha) + A_e(0) along the idempotent e.

    Raises HypothesisError when e is not an idempotent or alpha is not
    surjective (the splitting holds only under both hypotheses).
    """
    require(A, "decomposition", "idempotent", "surjective", e=e)
    re = right_op(A, e)
    part_alpha = [A.element(v) for v in kernel_basis((re - A.alpha).transpose())]
    part_zero = [A.element(v) for v in kernel_basis(re.transpose())]
    # the sum is direct, so it spans A when the dimensions add up to dim
    return Decomposition(e, part_alpha, part_zero, len(part_alpha + part_zero) == A.dim)


def decompose_element(A, e, b):
    """Write b = (a*e) + (b - a*e) with a = b alpha^-1, alpha^-1 computed once per A.

    The first part lands in A_e(alpha) and the second in A_e(0) (both
    membership facts hold whenever A is multiplicative right
    Hom-alternative with e and alpha as in albert_decomposition).  Same
    preconditions as albert_decomposition.
    """
    require(A, "decomposition", "idempotent", "surjective", e=e)
    if b.algebra is not A:
        raise ValueError("elements belong to different algebras")
    ae = mul(A, A.element(vec_mat(b.coords, alpha_inverse(A))), e)
    return ae, b - ae


def _element_splitting(A, e):
    """decompose_element on every basis element at once: e_i's parts are row i of
    P = alpha^-1 R_e and of 1 - P, so the membership equations are P R_e = P alpha
    and R_e - P R_e = 0.  The first failing row i is the witness, alpha-part first."""
    re = right_op(A, e)
    P = alpha_inverse(A) * re
    PR, Pa = P * re, P * A.alpha
    Z = re - PR
    for i, (d, z) in enumerate(zip((PR - Pa).nums, Z.nums)):
        if any(d):
            return CheckReport(False, "element-splitting", (i, "alpha-part"),
                               A.element(PR.row(i)), A.element(Pa.row(i)))
        if any(z):
            return CheckReport(False, "element-splitting", (i, "zero-part"),
                               A.element(Z.row(i)), A.zero())
    return CheckReport(True, "element-splitting", note="all basis elements split")
