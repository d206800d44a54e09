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

Every check is one lattice sweep, so a verdict is a proof and a failure's
witness is a basis multiset.  polarized_defect_sweep, the engine behind
every exact sweep in homalt (jordan's and symbolic's too), evaluates a map P
of degree d in a variable once at each lattice point

    x_M = sum of e_i over i in M,    M a multiset of d basis indices,

and reports the first M where P(x_M) != 0.  Over Q a form of degree d on
Q^dim vanishes iff it vanishes at these C(dim + d - 1, d) points: they
are the simplex lattice of the hyperplane where the coordinates sum to d,
which is unisolvent for polynomials of degree <= d (Chung-Yao 1977), so
P vanishes on that hyperplane and, being homogeneous, everywhere.  The
sweep is a proof, not a sample, and a failure is replayed by evaluating
P at x_M with mul and alpha alone.  For several variable groups, of
degrees d_1, ..., d_g, the points are the product of the groups'
lattices, one evaluation each.  sweep_size prices a sweep by its points
and the work at each, and refuses a sweep, or a powers suite's sweeps
together, above MAX_SWEEP.

The defects are unreduced integer rows (core.mul_nums): x_M is an integer
vector, so each tag's defect lies over one denominator, a product of powers
of mu's and alpha's fixed by the expression's shape.  The sweep tests the
numerators and reduces once, at a failing witness, to the one canonical
form of that rational value: reports match a sweep on Elements.
"""

import functools
from itertools import combinations_with_replacement, product
from math import comb, isqrt, prod

from .linalg import Vector
# mul is unused here, but perfbench/traced.py wraps it in every module that holds it.
from .core import CheckReport, Element, mul, require  # noqa: F401

__all__ = ["check_nth_hom_power_associative", "check_third_fourth_criterion"]


def _lattice_point(dim, M):
    """x_M, the sum of the basis elements indexed by the multiset M: M's multiplicities."""
    return tuple(map(M.count, range(dim)))


# The largest price of a sweep, or of a powers suite's sweeps together.  A unit
# costs 0.019-0.034 us on a 2-vCPU host (Python 3.11.7): --n 20 on albert5
# (673,485,780) takes 21 s, --n 4 on the sum of eight albert5 copies (dim 40,
# 266,388,480) 9 s and on a dense dim-20 table (1,259,171,760) 24 s, so an
# admitted sweep runs for at most about two minutes there.
MAX_SWEEP = 4_000_000_000

# x^n nests n - 1 products deep, and hom_power_poly and symbolic's tree walks
# recurse once a level: deeper powers would exhaust Python's recursion limit,
# which is why dsl.MAX_DEPTH bounds a term's nesting at the same 200.
MAX_HOM_POWER = 200


def sweep_size(A, *sweeps, work=0):
    """The price of the given sweeps on A together, each named by its tuple of
    degrees: its lattice points, prod C(dim + d - 1, d), times the operations at
    each point, times the steps of one product of dense rows in A.  A point
    costs D^2 operations, for D the sum of the degrees (a powers row n makes
    about n^2 alpha applications), or work when that is more: an identity's point
    (symbolic.identity_sweep_size) and a Jordan one (4 dim + 1 products, 3 alphas)
    make products and alphas that their degrees do not bound.  A product's steps
    are an upper bound: one per coordinate of x and one per nonzero structure
    constant, plus 32 for its fixed cost, fitted to the timings of albert5, its
    sums and dense tables.  ValueError above MAX_SWEEP, before the size is
    formed when one point of the largest degree alone costs more."""
    cost = A.fact("product-cost", lambda: A.dim + 32 + sum(
        len(pairs) for row in A._mu_num for _, pairs in row))
    if cost * max(map(sum, sweeps), default=0) ** 2 > MAX_SWEEP:
        raise ValueError("a sweep of degree above %d on %d basis elements, at %d steps a product, "
                         "costs more than the cap of %d at each point" % (
                             isqrt(MAX_SWEEP // cost), A.dim, cost, MAX_SWEEP))
    size = cost * sum(prod(comb(A.dim + d - 1, d) for d in degrees) * max(sum(degrees) ** 2, work)
                      for degrees in sweeps)
    if size > MAX_SWEEP:
        one = len(sweeps) == 1
        what = ("a sweep of degrees %s (%d operations a point)" % (
            ",".join(map(str, sweeps[0])), max(sum(sweeps[0]) ** 2, work)) if one
                else "the %d sweeps of degrees up to %d" % (len(sweeps), max(map(sum, sweeps))))
        raise ValueError("%s on %d basis elements, at %d steps a product, %s size %d, above the "
                         "cap of %d" % (what, A.dim, cost, "has" if one else "have", size,
                                        MAX_SWEEP))
    return size


def polarized_defect_sweep(A, degrees, defects, law):
    """Exhaustive proof that a multihomogeneous map vanishes.

    degrees is the degree of the map's one variable, or a tuple of the
    degrees of its variable groups.  defects(*xs) gets one lattice point
    x_M per group, as an integer row, and returns the map's defects there
    as [(tag, numerators, denominator)], the same tags in the same order,
    each over the same denominator, at every point.  The groups' basis
    multisets M are swept, the first group outermost, and each point is
    evaluated once.  Returns a CheckReport; a failure witnesses the first
    failing (multiset, tag), tags in defects' order -- (tuple of multisets,
    tag) for a tuple of degrees -- with the defect at x_M, reduced, as lhs.
    Raises ValueError, before any work, when sweep_size refuses the sweep.
    """
    single = isinstance(degrees, int)
    degrees = (degrees,) if single else tuple(degrees)
    sweep_size(A, degrees)
    # The outermost group streams; only the inner groups' points are kept.
    inner = [[(M, _lattice_point(A.dim, M))
              for M in combinations_with_replacement(range(A.dim), d)] for d in degrees[1:]]
    for M in combinations_with_replacement(range(A.dim), degrees[0]):
        x = _lattice_point(A.dim, M)
        for point in product(*inner):
            for tag, nums, den in defects(x, *(y for _, y in point)):
                if any(nums):
                    Ms = M if single else (M, *(N for N, _ in point))
                    return CheckReport(False, law, (Ms, tag),
                                       Element(A, Vector.from_ints(nums, den)), A.zero())
    return CheckReport(True, law)


@functools.cache
def hom_power_poly(n):
    """x^n = x^(n-1) * alpha^(n-2)(x) in the free multiplicative Hom-algebra, built once."""
    from .symbolic import var  # symbolic imports this module

    return var("x") if n == 1 else hom_power_poly(n - 1) * var("x", n - 2)


def hom_power_pair_poly(i, j):
    """x^(i,j) = alpha^(j-1)(x^i) * alpha^(i-1)(x^j) in the free multiplicative Hom-algebra."""
    return hom_power_poly(i).alpha(j - 1) * hom_power_poly(j).alpha(i - 1)


def _sweep_defects(A, degree, defects, law):
    """polarized_defect_sweep of the [(tag, polynomial in x)] defects, by symbolic's evaluator."""
    from .symbolic import _polynomial_evaluator

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
