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

from dataclasses import dataclass

from .linalg import Matrix, kernel_basis, qq, rank, solve
from .core import Element, is_idempotent, mul, require

__all__ = [
    "Decomposition",
    "is_idempotent",
    "idempotent_search",
    "albert_decomposition",
    "decompose_element",
]


def _height_values(height):
    vals = set()
    for p in range(-height, height + 1):
        for q in range(1, height + 1):
            vals.add(qq(p, q))
    vals.discard(qq(0))
    return sorted(vals)


def idempotent_search(A, height=1):
    """All nonzero idempotents supported on at most two basis vectors.

    Coordinates range over {p/q : |p| <= height, 1 <= q <= height} minus
    zero.  The result order is deterministic: single supports first,
    then pairs, each in index order with coefficients in ascending
    order.  The search runs once per algebra instance and height.
    """
    return list(A.fact(("idempotents", height), lambda: _search(A, height)))


def _search(A, height):
    vals = _height_values(height)
    found = []
    for i in range(A.dim):
        for c in vals:
            cand = A.basis_element(i).scale(c)
            if is_idempotent(A, cand):
                found.append(cand)
    for i in range(A.dim):
        for j in range(i + 1, A.dim):
            for c in vals:
                for d in vals:
                    cand = A.basis_element(i).scale(c) + A.basis_element(j).scale(d)
                    if is_idempotent(A, cand):
                        found.append(cand)
    return found


@dataclass
class Decomposition:
    """Result of albert_decomposition.

    part_alpha and part_zero are lists of Elements forming canonical
    bases of A_e(alpha) and A_e(0); spans_all says whether together they
    span A, is_direct whether the sum is direct.
    """

    idem: Element
    part_alpha: list
    part_zero: list
    is_direct: bool
    spans_all: bool


def _right_mul_matrix(A, e):
    return Matrix.from_vectors([mul(A, A.basis_element(i), e).coords for i in range(A.dim)])


def albert_decomposition(A, e):
    """Split A as A_e(alpha) + A_e(0) along the idempotent e.

    Raises HypothesisError when e is not an idempotent or alpha is not
    surjective (the splitting holds only under both hypotheses).
    """
    require(A, "decomposition", "idempotent", "surjective", e=e)
    re = _right_mul_matrix(A, e)
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
    assert a is not None  # surjective alpha
    ae = mul(A, A.element(a), e)
    return ae, b - ae
