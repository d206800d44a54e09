"""The free multiplicative Hom-algebra: identities proved symbolically.

Monomials are binary trees with alpha-powers pushed onto the leaves
(the normal form for multiplicative algebras).  This layer can state
identities, multilinearize them, prove them on a concrete algebra by an
exhaustive lattice sweep (each variable of degree d, as the identity's
monomials give it, set to a sum of d basis elements, over all basis
multisets), and verify certificates expressing an identity as an explicit
combination of axiom instances.

Run:  python3 demos/07_symbolic.py
"""

from homalt import (
    AlbertParams,
    albert5_twisted,
    check_identity_on_algebra,
    expand_associator,
    hom_teichmuller_terms,
    identity_registry,
    load_certificates,
    var,
    verify_certificate,
    verify_hom_teichmuller,
)
from homalt.dsl import parse_identity, parse_term

w, x, y, z = var("w"), var("x"), var("y"), var("z")

print("as(x, y, z) expands to:", expand_associator(x, y, z))

# The five-associator combination that cancels identically: ten product
# terms, paired off by multiplicativity.
terms = hom_teichmuller_terms(w, x, y, z)
print("\nfive signed associator terms, %d monomials before cancellation"
      % sum(t.num_terms() for t in terms))
total = terms[0]
for t in terms[1:]:
    total = total + t
print("their sum:", total)
print("verify_hom_teichmuller():", verify_hom_teichmuller())

# Six consequences of the right-alternative axiom, each proved on a
# concrete algebra by evaluating it at every lattice point of the basis.
A = albert5_twisted(AlbertParams(2, 3, 0))
print("\nregistry identities on the (2,3,0) twist:")
for name, idf in identity_registry().items():
    rep = check_identity_on_algebra(A, idf.lhs, idf.rhs, name)
    print("  %-22s %s  degrees %s" % (name, "PASS" if rep.passed else "FAIL", idf.degrees))

# Certificates: identity = sum of coefficient * axiom-instance.  These
# are machine-checkable proofs, independent of any particular algebra.
data = load_certificates()
print("\nshipped certificates:")
for name, entry in sorted(data.items()):
    ok, _ = verify_certificate(name, entry["instances"])
    print("  %-22s %s  (%d instances)" % (name, "OK" if ok else "BROKEN", len(entry["instances"])))

# The s-expression DSL gives the same machinery from strings (and the
# command line).  parse_term builds polynomials; (= lhs rhs) is an
# identity.
p = parse_term("(as x y y)")
print("\nparsed '(as x y y)':", p)
lhs, rhs = parse_identity("(= (mul (mul x y) (a 1 y)) (mul (a 1 x) (mul y y)))")
print("right-alternative law restated:", (lhs - rhs) == p)
print("proved on the twist, degrees read from it:",
      check_identity_on_algebra(A, lhs, rhs).passed)
