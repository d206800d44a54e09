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
serves a powers suite: the first row to reach a sub-multiset S computes
x_S's Hom-powers once and keeps its defects for every larger n, later
rows only read them, and after n = 4 the criterion row makes no product.

Every check is one polarized basis sweep, so a verdict is a proof and a
failure's witness is a basis multiset.  polarized_defect_sweep, the
engine behind every polarized proof in homalt (jordan's and symbolic's
too), replaces a map P of degree d in a variable by its multilinear form
via inclusion-exclusion,

    sum over nonempty S of {1..d} of (-1)^(d-|S|) P(x_S),
    x_S = sum of the slot elements indexed by S,

and sweeps all basis tuples for the slots; over Q this vanishes
identically iff P does, so the sweep is a proof, not a sample.  P(x_S)
only depends on the multiset of S: 2^d evaluations per point, not d!.
A sweep of degrees d_1, ..., d_g on dim basis elements visits
prod C(dim + d - 1, d) multisets and combines 2^d defects at each, which
grows fast in d; sweep_size refuses a sweep above MAX_SWEEP.

The defects are unreduced integer rows (core.mul_nums): x_S is an integer
vector, so each tag's defect lies over one denominator, a product of powers
of mu's and alpha's fixed by the expression's shape.  The sweep sums nonzero
(index, numerator) pairs and reduces once, at a failing witness, to the one
canonical form of that rational value: reports match a sweep on Elements.
"""

from functools import cache
from itertools import combinations_with_replacement, product
from math import comb, lcm, prod
from operator import itemgetter

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


def _subset_sum(dim, S):
    """x_S, the sum of the basis elements indexed by S: S's multiplicities."""
    return tuple(map(S.count, range(dim)))


def _nonzero(nums):
    return tuple((k, a) for k, a in enumerate(nums) if a)


@cache
def _sign_template(runs):
    """[(getter, signed count)] for the sorted multisets whose runs of equal
    values have the lengths runs: k of a run's m copies are C(m, k) slot
    subsets with one sub-multiset.  Runs hold increasing values, so sorting
    the slot tuples sorts the sub-multisets."""
    d, starts, template = sum(runs), [sum(runs[:r]) for r in range(len(runs))], []
    for ks in product(*(range(m + 1) for m in runs)):
        slots = tuple(s + j for s, k in zip(starts, ks) for j in range(k))
        if slots:
            template.append((slots, (-1) ** (d - len(slots)) * prod(map(comb, runs, ks))))
    return [(itemgetter(*slots) if len(slots) > 1 else lambda M, t=slots[0]: (M[t],), cnt)
            for slots, cnt in sorted(template)]


def _signed_submultisets(M):
    """[(sub-multiset, signed count)] of the inclusion-exclusion over the
    slots of the sorted multiset M, sorted by sub-multiset."""
    return [(get(M), cnt) for get, cnt in _sign_template(tuple(map(M.count, dict.fromkeys(M))))]


# The most evaluations a polarized sweep may make: every default sweep up
# to dim 20 (the largest, the associator-tail identity, makes 28,224,000).
MAX_SWEEP = 2**25


def sweep_size(dim, degrees):
    """prod over degrees d of C(dim + d - 1, d) * 2^d, the evaluations of a
    polarized sweep on dim basis elements; ValueError above MAX_SWEEP."""
    size = prod(comb(dim + d - 1, d) << d for d in degrees)
    if size > MAX_SWEEP:
        raise ValueError("a polarized sweep of degrees %s on %d basis elements makes %d "
                         "evaluations, above the cap of %d" % (
                             ",".join(map(str, degrees)), dim, size, MAX_SWEEP))
    return size


def subset_sum_defects(A, fn):
    """The defects callback of polarized_defect_sweep for fn, a function of
    one integer row per variable group that returns [(tag, numerators,
    denominator)]: fn at the subset sums x_S of the sub-multisets, computed
    once per tuple of sub-multisets."""

    @cache
    def defects(*subs):
        return [(tag, den, _nonzero(nums))
                for tag, nums, den in fn(*(_subset_sum(A.dim, sub) for sub in subs))]

    return defects


def polarized_defect_sweep(A, degrees, defects, law):
    """Exhaustive proof that a multihomogeneous map vanishes.

    degrees is the degree of the map's one variable, or a tuple of the
    degrees of its variable groups.  defects(*subs) gets one sub-multiset
    of basis indices per group and returns the map's defects at their
    subset sums as (tag, denominator, nonzero (index, numerator) pairs),
    the same tags in the same order, each over the same denominator, at
    every point; subset_sum_defects builds it from a function of integer
    rows.  Each group is polarized and swept over basis multisets, the
    first group outermost.  Returns a CheckReport; a failure witnesses the
    first failing (multiset, tag), tags in defects' order -- (tuple of
    multisets, tag) for a tuple of degrees -- with the polarized defect,
    reduced, as lhs.  Raises ValueError, before any work, when sweep_size
    refuses the sweep.
    """
    single = isinstance(degrees, int)
    degrees = (degrees,) if single else tuple(degrees)
    sweep_size(A.dim, degrees)
    multisets = [combinations_with_replacement(range(A.dim), d) for d in degrees]
    if len(degrees) == 1:
        points = (((M,), [(cnt, defects(sub)) for sub, cnt in _signed_submultisets(M)])
                  for M in multisets[0])
    else:
        # Only the inner groups' multisets repeat, once per outer multiset.
        inner = [[(M, _signed_submultisets(M)) for M in group] for group in multisets[1:]]
        points = (
            ((M0, *(M for M, _ in rest)),
             [(prod(cnt for _, cnt in picked), defects(*(sub for sub, _ in picked)))
              for picked in product(_signed_submultisets(M0), *(signed for _, signed in rest))])
            for M0 in multisets[0] for rest in product(*inner))
    for point, terms in points:
        for k, (tag, den, _) in enumerate(terms[0][1]):
            acc = [0] * A.dim
            for cnt, rows in terms:
                for i, a in rows[k][2]:
                    acc[i] += cnt * a
            if any(acc):
                return CheckReport(False, law, (point[0] if single else point, tag),
                                   Element(A, Vector.from_ints(acc, den)), A.zero())
    return CheckReport(True, law)


def _difference(x, y):
    """(den, nonzero pairs) of the rows x - y, over the lcm of their dens."""
    den = lcm(x[1], y[1])
    fx, fy = den // x[1], den // y[1]
    return den, _nonzero([a * fx - b * fy for a, b in zip(x[0], y[0])])


class DefectMemo:
    """The defects x_S^n - x_S^(n-i,i), 2 <= i < n <= top, of one powers
    suite by sub-multiset S, shared by the suite's rows.  They run in order
    on one thread, so nothing is locked, and the last one releases it."""

    def __init__(self, A, top):
        self.algebra, self.top, self.entries = A, top, {}

    def defects(self, S, n):
        """[(i, den, nonzero pairs of x_S^n - x_S^(n-i,i)) for i in 2..n-1]."""
        if n < 3:
            return []
        entry = self.entries.get(S)
        if entry is None or n not in entry:
            A = self.algebra
            t = PowerTable(A, Element(A, Vector.from_ints(_subset_sum(A.dim, S), 1)))
            entry = {k: [(i, *_difference(t._row(k, 0), t._pair_row(k - i, i)))
                         for i in range(2, k)]
                     for k in range(n, max(n, self.top) + 1)}
            if len(S) < max(self.top, 5):  # else only its own multiset reaches S
                self.entries[S] = entry
        return entry[n]

    def last_row(self, check, *args):
        """check(*args, memo=self), then release the memo."""
        try:
            return check(*args, memo=self)
        finally:
            self.entries = {}


def check_nth_hom_power_associative(A, n, memo=None):
    """x^n == x^(n-i,i) for all i, proved or refuted by the polarized sweep.

    A failure witnesses the first failing (basis multiset, i), with the
    polarized defect x^n - x^(n-i,i) as lhs.  Requires a multiplicative
    algebra.  memo, a DefectMemo, shares defects with a suite's other rows.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError("Hom-power associativity needs n >= 1, got %r" % (n,))
    require(A, "power associativity check", "multiplicative")
    law = "hom-power-associative(n=%d)" % n
    memo = memo or DefectMemo(A, n)
    rep = polarized_defect_sweep(A, n, lambda S: memo.defects(S, n), law)
    rep.note = "polarized sweep %s" % ("proved it" if rep.passed else "found the failure")
    return rep


def check_third_fourth_criterion(A, memo=None):
    """x^2*alpha(x) == alpha(x)*x^2 and x^4 == alpha(x^2)*alpha(x^2).

    Proved or refuted by two polarized sweeps, of degrees 3 and 4; a
    failure witnesses (basis multiset, "third" or "fourth").  For a
    multiplicative right Hom-alternative algebra these two laws imply
    n-th Hom-power associativity for every n.  memo, a DefectMemo,
    shares defects with a suite's other rows.
    """
    require(A, "third/fourth power criterion", "multiplicative")
    law = "third-fourth-power-criterion"
    memo = memo or DefectMemo(A, 4)
    for degree, tag in ((3, "third"), (4, "fourth")):
        rep = polarized_defect_sweep(
            A, degree, lambda S, n=degree, tag=tag: [(tag, *memo.defects(S, n)[0][1:])], law)
        if not rep.passed:
            rep.note = "polarized sweep found the failure"
            return rep
    return CheckReport(True, law, note="both polarized sweeps proved it")
