"""Hom-powers and power associativity.

With a twist map in play there are many inequivalent ways to build
x^n.  The canonical powers are x^n = x^(n-1) * alpha^(n-2)(x), and the
two-sided variants x^(i,j) = alpha^(j-1)(x^i) * alpha^(i-1)(x^j).
Power associativity means every split agrees: x^(n-i,i) = x^n.

Run:  python3 demos/03_powers.py
"""

from homalt import (
    AlbertParams,
    albert5_twisted,
    apply_alpha,
    check_nth_hom_power_associative,
    check_third_fourth_criterion,
    mul,
    qq,
)

A = albert5_twisted(AlbertParams(2, 3, 0))
x = A.element([qq(1), qq(-2, 3), qq(1, 2), qq(3), qq(-1)])


def power(n, k=0):
    """alpha^k(x^n), straight from the recursion."""
    if k:
        return apply_alpha(A, power(n, k - 1))
    return x if n == 1 else mul(A, power(n - 1), power(1, n - 2))


def pair(i, j):
    """x^(i,j) = alpha^(j-1)(x^i) * alpha^(i-1)(x^j)."""
    return mul(A, power(i, j - 1), power(j, i - 1))


print("x =", x)
for n in range(2, 6):
    print("x^%d =" % n, power(n))

print("\nall splits of x^5:")
for i in range(1, 5):
    print("  x^(%d,%d) =" % (5 - i, i), pair(5 - i, i),
          " equal to x^5:", pair(5 - i, i) == power(5))

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
