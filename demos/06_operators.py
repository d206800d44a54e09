"""The multiplication-operator calculus at an idempotent.

L_x and R_x are left and right multiplication.  An operator is a
Matrix acting on the right of coordinate rows (b's image is
vec_mat(b.coords, M)), so (f g) means "apply f, then g" and the matrix
of the composite is M_f M_g.  At an idempotent e of a
multiplicative right Hom-alternative algebra a small calculus emerges:
R squares to alpha R, the commutator [L, R] equals L^2 - alpha L, both
square to zero, and T = 3 alpha^2 L^2 - 2 alpha L^3 is alpha^4-idempotent.

Run:  python3 demos/06_operators.py
"""

from homalt import (
    AlbertParams,
    albert5_twisted,
    build_T,
    check_idempotent_operator_suite,
    check_mul_operator_identities,
    left_op,
    op_commutator,
    right_op,
    vec_mat,
)

A = albert5_twisted(AlbertParams(2, 3, 0))
e = A.basis_element(0)
L, R, al = left_op(A, e), right_op(A, e), A.alpha

print("action of R_e on the basis:")
for i in range(A.dim):
    b = A.basis_element(i)
    print("  %s . R_e = %s" % (A.basis_names[i], A.element(vec_mat(b.coords, R))))

print("\nR_e^2 == alpha R_e:          ", R * R == al * R)
print("L_e^2 - alpha L_e == [L, R]: ", L * L - al * L == op_commutator(L, R))
print("[L, R]^2 == 0:               ", (op_commutator(L, R) ** 2).is_zero())
print("L R L == alpha L R:          ", L * R * L == al * L * R)

T = build_T(A, e)
print("\nT = 3 alpha^2 L^2 - 2 alpha L^3")
print("T^2 == alpha^4 T:            ", T * T == (al ** 4) * T, " (T is alpha^4-idempotent)")
print("L^2 == alpha L:              ", L * L == al * L, " (L is NOT alpha-idempotent)")
print("[T, R] == 0:                 ", op_commutator(T, R).is_zero())

# The two identities that hold in every right Hom-alternative algebra
# (not just at idempotents), R_x R_alpha(x) = alpha R_{x*x} and the
# bilinear L/R exchange law: applied to an element, each is the right
# Hom-alternative law, so the check reads that law's verdict.
rep = check_mul_operator_identities(A)
print("\ngeneral operator identities:", rep.passed, "--", rep.note)

# And the whole suite at e as exact matrix identities.
rep = check_idempotent_operator_suite(A, e)
print("idempotent operator suite:  ", rep.passed, "--", rep.note)
