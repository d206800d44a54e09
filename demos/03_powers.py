"""Hom-powers and power associativity.

With a twist map in play there are many inequivalent ways to build
x^n.  The canonical powers are x^n = x^(n-1) * alpha^(n-2)(x), and the
two-sided variants x^(i,j) = alpha^(j-1)(x^i) * alpha^(i-1)(x^j).
Power associativity means every split agrees: x^(n-i,i) = x^n.

Run:  python3 demos/03_powers.py
"""

from homalt import (
    AlbertParams,
    PowerTable,
    albert5_twisted,
    check_nth_hom_power_associative,
    check_third_fourth_criterion,
    qq,
)

A = albert5_twisted(AlbertParams(2, 3, 0))
x = A.element([qq(1), qq(-2, 3), qq(1, 2), qq(3), qq(-1)])
t = PowerTable(A, x)

print("x =", x)
for n in range(2, 6):
    print("x^%d =" % n, t.power(n))

print("\nall splits of x^5:")
for i in range(1, 5):
    print("  x^(%d,%d) =" % (5 - i, i), t.pair(5 - i, i),
          " equal to x^5:", t.pair(5 - i, i) == t.power(5))

# The checker proves the law for every x at once: it evaluates the law
# at x = e_i + e_j + ... for every multiset of n basis elements, and a
# degree-n law that vanishes at those points vanishes everywhere, so the
# verdict is exact.
for n in (2, 5, 6):
    rep = check_nth_hom_power_associative(A, n)
    print("\nn = %d: %s  (%s)" % (n, "PASS" if rep.passed else "FAIL", rep.note))

# Two low-degree identities suffice for all n at once: x^2 alpha(x)
# commutes, and x^4 is the square of alpha(x^2).
rep = check_third_fourth_criterion(A)
print("third/fourth criterion:", rep.passed, "--", rep.note)
