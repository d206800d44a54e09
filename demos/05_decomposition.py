"""Splitting an algebra at an idempotent.

An idempotent here means e*e = e = alpha(e).  Relative to such an e the
algebra splits into A_e(alpha) = {a : ae = alpha(a)} and
A_e(0) = {a : ae = 0}; when alpha is bijective the sum is direct.  At
alpha = Id this is the classical eigenvalue-1 / eigenvalue-0 splitting
for right multiplication by e.

Run:  python3 demos/05_decomposition.py
"""

from homalt import (
    AlbertParams,
    albert5_base,
    albert5_twisted,
    albert_decomposition,
    decompose_element,
    idempotent_search,
    is_idempotent,
)

A = albert5_twisted(AlbertParams(2, 3, 0))

found = idempotent_search(A)
print("idempotents among small rational combinations:", found)
e = found[0]
print("is_idempotent(e):", is_idempotent(A, e))

dec = albert_decomposition(A, e)
print("\nA_e(alpha) basis:", dec.part_alpha)
print("A_e(0) basis:    ", dec.part_zero)
print("spans all of A:  ", dec.spans_all, "(the sum is direct: alpha is bijective)")

print("\nsplitting each basis element b = p + q with p in A_e(alpha), q in A_e(0):")
for i in range(A.dim):
    b = A.basis_element(i)
    p, q = decompose_element(A, e, b)
    print("  %s = (%s) + (%s)" % (A.basis_names[i], p, q))

mixed = A.element([1, 2, 3, 4, 5])
p, q = decompose_element(A, e, mixed)
print("  %s = (%s) + (%s)" % (mixed, p, q))

# The classical case: the base algebra has alpha = Id, so the same code
# recovers the eigenvalue splitting, with e itself in the alpha part.
B = albert5_base()
dec = albert_decomposition(B, B.basis_element(0))
print("\nclassical (alpha = Id) split of the base algebra:")
print("A_e(1) basis:", dec.part_alpha)
print("A_e(0) basis:", dec.part_zero)
