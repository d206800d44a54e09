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
two defects are the i = 2 defects of n = 3 and n = 4.  So one DefectMemo
serves a powers suite: rows n = 3 and 4 keep their defects at each x_M,
|M| = n, and the criterion row only reads them, making no product.

Every check is one lattice sweep, so a verdict is a proof and a failure's
witness is a basis multiset.  polarized_defect_sweep, the engine behind
every exact sweep in homalt (jordan's and symbolic's too; the name is
kept from the inclusion-exclusion route it replaced), evaluates a map P
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
lattices, one evaluation each.  sweep_size refuses a sweep whose size,
prod C(dim + d - 1, d) * 2^d (the evaluations of the inclusion-exclusion
route, kept as the measure so the cap refuses the same inputs), is above
MAX_SWEEP.

The defects are unreduced integer rows (core.mul_nums): x_M is an integer
vector, so each tag's defect lies over one denominator, a product of powers
of mu's and alpha's fixed by the expression's shape.  The sweep tests the
numerators and reduces once, at a failing witness, to the one canonical
form of that rational value: reports match a sweep on Elements.
"""

from itertools import combinations_with_replacement, product
from math import comb, lcm, prod

from .linalg import Vector, row_times
# mul is unused here, but perfbench/traced.py wraps it in every module that holds it.
from .core import CheckReport, Element, mul, mul_nums, require  # noqa: F401

__all__ = [
    "PowerTable",
    "check_nth_hom_power_associative",
    "check_third_fourth_criterion",
]


class PowerTable:
    """Hom-powers x^n of a fixed base element, memoised with their alpha^k, and
    the pairs x^(i,j) they make, as unreduced integer rows (core.mul_nums) whose
    denominators depend only on n, k and the base's; Elements handed out are reduced."""

    def __init__(self, A, base):
        if base.algebra is not A:
            raise ValueError("elements belong to different algebras")
        self.algebra = A
        self._chains = {1: [(base.coords.nums, base.coords.den)]}  # n -> [alpha^k(x^n)]

    def _row(self, n, k):
        """(numerators, denominator) of alpha^k(x^n)."""
        A, chain = self.algebra, self._chains.get(n)
        if chain is None:
            (a, da), (b, db) = self._row(n - 1, 0), self._row(1, n - 2)
            chain = self._chains[n] = [(mul_nums(A, a, b), da * db * A._mu_den)]
        while len(chain) <= k:
            nums, den = chain[-1]
            chain.append((row_times(nums, A.alpha), den * A.alpha.den))
        return chain[k]

    def _pair_row(self, i, j):
        (a, da), (b, db) = self._row(i, j - 1), self._row(j, i - 1)
        return mul_nums(self.algebra, a, b), da * db * self.algebra._mu_den

    def power(self, n):
        """x^n for n >= 1."""
        return self.alpha_power(n, 0)

    def alpha_power(self, n, k):
        """alpha^k(x^n) for n >= 1, k >= 0."""
        if not isinstance(k, int) or k < 0:
            raise ValueError("alpha powers need an integer k >= 0, got %r" % (k,))
        if not isinstance(n, int) or n < 1:
            raise ValueError("Hom-powers are defined for n >= 1, got %r" % (n,))
        return Element(self.algebra, Vector.from_ints(*self._row(n, k)))

    def pair(self, i, j):
        """x^(i,j) = alpha^(j-1)(x^i) * alpha^(i-1)(x^j), i, j >= 1."""
        if not (isinstance(i, int) and isinstance(j, int) and i >= 1 and j >= 1):
            raise ValueError("Hom-power pairs need i, j >= 1, got (%r, %r)" % (i, j))
        return Element(self.algebra, Vector.from_ints(*self._pair_row(i, j)))


def _lattice_point(dim, M):
    """x_M, the sum of the basis elements indexed by the multiset M: M's multiplicities."""
    return tuple(map(M.count, range(dim)))


# The largest sweep size allowed: every default sweep up to dim 20 (the
# largest, the associator-tail identity, has size 28,224,000).
MAX_SWEEP = 2**25


def sweep_size(dim, degrees):
    """prod over degrees d of C(dim + d - 1, d) * 2^d, the size of a sweep
    on dim basis elements; ValueError above MAX_SWEEP."""
    size = prod(comb(dim + d - 1, d) << d for d in degrees)
    if size > MAX_SWEEP:
        raise ValueError("a sweep of degrees %s on %d basis elements has size %d, "
                         "above the cap of %d" % (
                             ",".join(map(str, degrees)), dim, size, MAX_SWEEP))
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
    sweep_size(A.dim, degrees)
    groups = [[(M, _lattice_point(A.dim, M))
               for M in combinations_with_replacement(range(A.dim), d)] for d in degrees]
    for point in product(*groups):
        for tag, nums, den in defects(*(x for _, x in point)):
            if any(nums):
                Ms = tuple(M for M, _ in point)
                return CheckReport(False, law, (Ms[0] if single else Ms, tag),
                                   Element(A, Vector.from_ints(nums, den)), A.zero())
    return CheckReport(True, law)


def _difference(x, y):
    """(numerators, den) of the rows x - y, over the lcm of their dens."""
    den = lcm(x[1], y[1])
    fx, fy = den // x[1], den // y[1]
    return [a * fx - b * fy for a, b in zip(x[0], y[0])], den


class DefectMemo:
    """The defects x^n - x^(n-i,i), 2 <= i < n, of one powers suite at
    each lattice point x = x_M, n = |M|, shared by the suite's rows: the
    criterion row rereads those of n = 3 and 4, so only those are kept.
    The rows run in order on one thread, so nothing is locked, and the
    last one releases it."""

    def __init__(self, A):
        self.algebra, self.entries = A, {}

    def defects(self, x):
        """[(i, numerators, den of x^n - x^(n-i,i)) for i in 2..n-1], n = sum(x)."""
        entry = self.entries.get(x)
        if entry is None:
            A, n = self.algebra, sum(x)
            t = PowerTable(A, Element(A, Vector.from_ints(x, 1)))
            entry = [(i, *_difference(t._row(n, 0), t._pair_row(n - i, i))) for i in range(2, n)]
            if n in (3, 4):
                self.entries[x] = entry
        return entry

    def last_row(self, check, *args):
        """check(*args, memo=self), then release the memo."""
        try:
            return check(*args, memo=self)
        finally:
            self.entries = {}


def check_nth_hom_power_associative(A, n, memo=None):
    """x^n == x^(n-i,i) for all i, proved or refuted by the lattice sweep.

    A failure witnesses the first failing (basis multiset M, i), with the
    defect x^n - x^(n-i,i) at x_M as lhs.  Requires a multiplicative
    algebra.  memo, a DefectMemo, shares defects with a suite's other rows.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError("Hom-power associativity needs n >= 1, got %r" % (n,))
    require(A, "power associativity check", "multiplicative")
    law = "hom-power-associative(n=%d)" % n
    rep = polarized_defect_sweep(A, n, (memo or DefectMemo(A)).defects, law)
    rep.note = "lattice sweep %s" % ("proved it" if rep.passed else "found the failure")
    return rep


def check_third_fourth_criterion(A, memo=None):
    """x^2*alpha(x) == alpha(x)*x^2 and x^4 == alpha(x^2)*alpha(x^2).

    Proved or refuted by two lattice sweeps, of degrees 3 and 4; a
    failure witnesses (basis multiset M, "third" or "fourth"), with the
    defect at x_M as lhs.  For a multiplicative right Hom-alternative
    algebra these two laws imply n-th Hom-power associativity for every
    n.  memo, a DefectMemo, shares defects with a suite's other rows.
    """
    require(A, "third/fourth power criterion", "multiplicative")
    law = "third-fourth-power-criterion"
    memo = memo or DefectMemo(A)
    for degree, tag in ((3, "third"), (4, "fourth")):
        rep = polarized_defect_sweep(
            A, degree, lambda x, tag=tag: [(tag, *memo.defects(x)[0][1:])], law)
        if not rep.passed:
            rep.note = "lattice sweep found the failure"
            return rep
    return CheckReport(True, law, note="both lattice sweeps proved it")
