"""Hom-Jordan admissibility via the symmetrized product.

The plus algebra A+ keeps the twist map and replaces the product by
x * y = (xy + yx)/2.  For a right Hom-alternative A, the plus algebra
is commutative and satisfies the Hom-Jordan law
as(x^2, alpha(y), alpha(x)) = 0, i.e. A is Hom-Jordan admissible.

Run:  python3 demos/04_jordan.py
"""

from homalt import (
    AlbertParams,
    albert5_base,
    albert5_twisted,
    check_hom_jordan,
    check_hom_jordan_admissible,
    jordan_defect,
    mul,
    plus_algebra,
    qq,
)

A = albert5_twisted(AlbertParams(2, 3, 0))
P = plus_algebra(A)

x = A.element([qq(1), qq(2), qq(0), qq(-1, 2), qq(1)])
y = A.element([qq(0), qq(1), qq(-3), qq(1), qq(2, 3)])
px = P.element(list(x.coords.entries))
py = P.element(list(y.coords.entries))

print("x * y in A:   ", mul(A, x, y))
print("y * x in A:   ", mul(A, y, x))
print("x * y in A+:  ", mul(P, px, py), " (the average of the two)")

print("\nJordan defect as(x^2, alpha(y), alpha(x)) on A+:",
      jordan_defect(P, px, py))

rep = check_hom_jordan(P)
print("A+ is Hom-Jordan:", rep.passed, "--", rep.note)

# The admissibility checker builds A+ and proves the Jordan law there by
# one lattice sweep of the associator form: x = e_i + e_j + e_k for every
# basis multiset {i, j, k}, against every basis y.
rep = check_hom_jordan_admissible(A)
print("A is Hom-Jordan admissible:", rep.passed, "--", rep.note)

# The base algebra itself is NOT commutative, so it is not Hom-Jordan
# (the law only makes sense after symmetrizing); the checker reports
# the witness pair.
rep = check_hom_jordan(albert5_base())
print("\nbase algebra directly (not symmetrized):", rep.passed,
      " witness:", rep.witness, "--", rep.note)
