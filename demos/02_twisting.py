"""Twisting: build new right Hom-alternative algebras from old ones.

Given a weak self-morphism beta (beta(xy) = beta(x)beta(y)), the twist
of (A, mu, alpha) is (A, beta mu, beta alpha).  Right alternativity
survives this construction, so one seed algebra generates an infinite
family.  The derived algebras are the special case beta = alpha^n.

Run:  python3 demos/02_twisting.py
"""

from homalt import (
    AlbertParams,
    albert5_alpha,
    albert5_base,
    albert5_twisted,
    derived_algebra,
    hom_module_distinguish,
    is_right_hom_alternative,
    yau_twist,
)
from homalt.linalg import mat_mul

base = albert5_base()

# yau_twist checks that beta is a weak morphism and refuses otherwise.
beta = albert5_alpha(AlbertParams(2, 3, 0))
A = yau_twist(base, beta)
print("twist by the (2,3,0) family morphism == builtin twisted algebra:",
      A.mu == albert5_twisted(AlbertParams(2, 3, 0)).mu)

# Twists compose: for commuting morphisms, twisting twice is twisting
# by the product.
b1 = albert5_alpha(AlbertParams(2, 3, 0))
b2 = albert5_alpha(AlbertParams(5, 7, 0))
twice = yau_twist(yau_twist(base, b1), b2)
once = yau_twist(base, mat_mul(b1, b2))
print("twist twice == twist by the product morphism:",
      twice.mu == once.mu and twice.alpha == once.alpha)

# Derived algebras: product alpha^n mu, twist alpha^(n+1).
for n in (1, 2):
    D = derived_algebra(A, n)
    print("derived level %d still right alternative: %s"
          % (n, is_right_hom_alternative(D).passed))

# Distinguishing twisted algebras: a twist-compatible linear bijection
# must intertwine the alpha maps, so differing alpha spectra separate
# the algebras.  Same spectra stay inconclusive -- the tool says so
# rather than guessing.
B = albert5_twisted(AlbertParams(5, 7, 0))
report = hom_module_distinguish(A, B)
print("\nalpha spectrum data (char poly coefficients):")
print("  (2,3,0):", report.lhs)
print("  (5,7,0):", report.rhs)
print("provably not twist-isomorphic:", report.passed, "--", report.note)
print("(2,3,0) vs itself:", hom_module_distinguish(A, A).note)
