"""Hom-powers and power associativity.

The n-th Hom-power of x is right-normed with twisted right factors,

    x^1 = x,          x^n = x^(n-1) * alpha^(n-2)(x),

and the two-index powers interpolate between the ways of splitting n:

    x^(i,j) = alpha^(j-1)(x^i) * alpha^(i-1)(x^j).

n-th Hom-power associativity asks x^n = x^(n-i,i) for every i between 1
and n-1.  For multiplicative right Hom-alternative algebras this holds
for all n as soon as

    x^2 * alpha(x) = alpha(x) * x^2   and   x^4 = alpha(x^2) * alpha(x^2),

which is the criterion checked by check_third_fourth_criterion.  By the
definitions x^(n-1,1) = x^(n-1) * alpha^(n-2)(x) = x^n, so i = 1 is never
a witness and only 2 <= i <= n-1 is checked; n = 2 then has no split to
check (x^2 = x^(1,1) = x*x) and makes no product; and the criterion's
two defects are the i = 2 defects of n = 3 and n = 4.

Each law is a one-variable identity, so each check builds its defects,
tagged by i or by "third"/"fourth", in the free multiplicative
Hom-algebra (hom_power_poly, hom_power_pair_poly) and sweeps them with
symbolic's evaluator, over one table of subtrees.

Every check is one lattice sweep, core.polarized_defect_sweep, whose
docstring gives the method: a verdict is a proof, and a failure's witness
is the first failing (basis multiset, tag).
"""

import functools

from .core import CheckReport, polarized_defect_sweep, require, sweep_size
# mul is unused here, but perfbench/traced.py wraps it in every module that holds it.
from .core import mul  # noqa: F401
from .symbolic import _polynomial_evaluator, var

__all__ = ["check_nth_hom_power_associative", "check_third_fourth_criterion"]

# x^n nests n - 1 products deep, and hom_power_poly and symbolic's tree walks
# recurse once a level: deeper powers would exhaust Python's recursion limit,
# which is why dsl.MAX_DEPTH bounds a term's nesting at the same 200.
MAX_HOM_POWER = 200


@functools.cache
def hom_power_poly(n):
    """x^n = x^(n-1) * alpha^(n-2)(x) in the free multiplicative Hom-algebra, built once."""
    return var("x") if n == 1 else hom_power_poly(n - 1) * var("x", n - 2)


def hom_power_pair_poly(i, j):
    """x^(i,j) = alpha^(j-1)(x^i) * alpha^(i-1)(x^j) in the free multiplicative Hom-algebra."""
    return hom_power_poly(i).alpha(j - 1) * hom_power_poly(j).alpha(i - 1)


def _sweep_defects(A, degree, defects, law):
    """polarized_defect_sweep of the [(tag, polynomial in x)] defects, by symbolic's evaluator."""
    evaluate = _polynomial_evaluator(A, defects, ["x"], [1])
    return polarized_defect_sweep(A, degree, lambda x: evaluate((x,)), law)


def check_nth_hom_power_associative(A, n):
    """x^n == x^(n-i,i) for all i, proved or refuted by the lattice sweep.

    A failure witnesses the first failing (basis multiset M, i), with the
    defect x^n - x^(n-i,i) at x_M as lhs.  Requires a multiplicative algebra
    and, past the price, n <= MAX_HOM_POWER.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError("Hom-power associativity needs n >= 1, got %r" % (n,))
    require(A, "power associativity check", "multiplicative")
    law = "hom-power-associative(n=%d)" % n
    sweep_size(A, (n,))  # before any polynomial is built
    if n > MAX_HOM_POWER:
        raise ValueError("Hom-power associativity needs n <= %d (MAX_HOM_POWER), got %d"
                         % (MAX_HOM_POWER, n))
    defects = [(i, hom_power_poly(n) - hom_power_pair_poly(n - i, i)) for i in range(2, n)]
    rep = _sweep_defects(A, n, defects, law)
    return rep._replace(note="lattice sweep " + ("proved it" if rep else "found the failure"))


def check_third_fourth_criterion(A):
    """x^2*alpha(x) == alpha(x)*x^2 and x^4 == alpha(x^2)*alpha(x^2).

    Proved or refuted by two lattice sweeps, of degrees 3 and 4; a
    failure witnesses (basis multiset M, "third" or "fourth"), with the
    defect at x_M as lhs.  For a multiplicative right Hom-alternative
    algebra these two laws imply n-th Hom-power associativity for all n.
    """
    require(A, "third/fourth power criterion", "multiplicative")
    law = "third-fourth-power-criterion"
    for degree, tag in ((3, "third"), (4, "fourth")):
        defect = hom_power_poly(degree) - hom_power_pair_poly(degree - 2, 2)
        rep = _sweep_defects(A, degree, [(tag, defect)], law)
        if not rep.passed:
            return rep._replace(note="lattice sweep found the failure")
    return CheckReport(True, law, note="both lattice sweeps proved it")
