"""Build the five-dimensional example algebra and check its laws.

The base algebra has basis (e, u, v, w, z) with e acting as a one-sided
unit on part of the space.  It is right alternative but not left
alternative, which already makes it a useful testbed: twisting it keeps
the right law and the failure of the left one.

Run:  python3 demos/01_build_and_check.py
"""

from homalt import (
    AlbertParams,
    albert5_base,
    albert5_twisted,
    hom_associator,
    is_left_hom_alternative,
    is_multiplicative,
    is_right_hom_alternative,
    mul,
)

base = albert5_base()
print("base algebra: dim %d, basis %s" % (base.dim, ", ".join(base.basis_names)))
print("\nproduct table (rows * columns, zero entries blank):")
width = 12
print(" " * 4 + "".join(n.center(width) for n in base.basis_names))
for i in range(base.dim):
    cells = []
    for j in range(base.dim):
        p = mul(base, base.basis_element(i), base.basis_element(j))
        cells.append(("" if p.is_zero() else repr(p)).center(width))
    print(base.basis_names[i].ljust(4) + "".join(cells))

print("\nright alternative? ", is_right_hom_alternative(base).passed)
rep = is_left_hom_alternative(base)
print("left alternative?  ", rep.passed, " witness:", rep.witness)
# Alternative means both laws at once.
print("alternative?       ", is_left_hom_alternative(base).passed and
      is_right_hom_alternative(base).passed)

# Now twist along the parameterized self-morphism.  delta must avoid 0
# and 1; gamma and epsilon are free.
params = AlbertParams(2, 3, 0)
A = albert5_twisted(params)
print("\ntwisted with (gamma, delta, epsilon) = (2, 3, 0):")
print("multiplicative?    ", is_multiplicative(A).passed)
print("right alternative? ", is_right_hom_alternative(A).passed)

# The associator is nonzero -- the algebra is far from associative --
# yet every (x, y, y) associator vanishes.
e, u = A.basis_element(0), A.basis_element(1)
print("\nas(e, e, u) =", hom_associator(A, e, e, u), " (delta^2 = 9)")
print("as(e, u, u) =", hom_associator(A, e, u, u))

# The same product table WITHOUT the twist map is not right alternative:
# the twist is what repairs the law.
from homalt import HomAlgebra
from homalt.linalg import identity_matrix

ordinary = HomAlgebra(A.dim, A.basis_names,
                      [[A.mu[i][j] for j in range(A.dim)] for i in range(A.dim)],
                      identity_matrix(A.dim))
rep = is_right_hom_alternative(ordinary)
print("\nsame table, identity twist map -> right alternative?", rep.passed)
print("witness triple:", rep.witness, " lhs:", rep.lhs, " rhs:", rep.rhs)
