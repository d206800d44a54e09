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
"""

from functools import cache
from itertools import combinations_with_replacement, product
from math import comb, prod
from operator import itemgetter

from .linalg import Vector, linear_combination
from .core import CheckReport, apply_alpha, mul, require

__all__ = [
    "PowerTable",
    "hom_power",
    "hom_power_pair",
    "check_nth_hom_power_associative",
    "check_third_fourth_criterion",
]


class PowerTable:
    """Hom-powers x^n of a fixed base element, memoised with their alpha^k, and
    the pairs x^(i,j) they make."""

    def __init__(self, A, base):
        if base.algebra is not A:
            raise ValueError("elements belong to different algebras")
        self.algebra = A
        self.base = base
        self._pow = {1: base}
        self._alpha_pow = {}  # (n, k) -> alpha^k(x^n)

    def power(self, n):
        """x^n for n >= 1."""
        if not isinstance(n, int) or n < 1:
            raise ValueError("Hom-powers are defined for n >= 1, got %r" % (n,))
        p = self._pow.get(n)
        if p is None:
            p = mul(self.algebra, self.power(n - 1), self.alpha_power(1, n - 2))
            self._pow[n] = p
        return p

    def alpha_power(self, n, k):
        """alpha^k(x^n) for n >= 1, k >= 0."""
        if not isinstance(k, int) or k < 0:
            raise ValueError("alpha powers need an integer k >= 0, got %r" % (k,))
        if k == 0:
            return self.power(n)
        key = (n, k)
        e = self._alpha_pow.get(key)
        if e is None:
            e = apply_alpha(self.algebra, self.alpha_power(n, k - 1))
            self._alpha_pow[key] = e
        return e

    def pair(self, i, j):
        """x^(i,j) = alpha^(j-1)(x^i) * alpha^(i-1)(x^j), i, j >= 1."""
        if not (isinstance(i, int) and isinstance(j, int) and i >= 1 and j >= 1):
            raise ValueError("Hom-power pairs need i, j >= 1, got (%r, %r)" % (i, j))
        return mul(self.algebra, self.alpha_power(i, j - 1), self.alpha_power(j, i - 1))


def hom_power(A, x, n):
    return PowerTable(A, x).power(n)


def hom_power_pair(A, x, i, j):
    return PowerTable(A, x).pair(i, j)


def _subset_sum(A, S):
    """x_S, the sum of the basis elements indexed by S: S's multiplicities."""
    return A.element(Vector.from_ints([S.count(v) for v in range(A.dim)], 1))


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
    one Element per variable group: fn at the subset sums x_S of the
    sub-multisets, computed once per tuple of sub-multisets."""

    @cache
    def defects(*subs):
        return fn(*(_subset_sum(A, sub) for sub in subs))

    return defects


def polarized_defect_sweep(A, degrees, defects, law):
    """Exhaustive proof that a multihomogeneous map vanishes.

    degrees is the degree of the map's one variable, or a tuple of the
    degrees of its variable groups.  defects(*subs) gets one sub-multiset
    of basis indices per group and returns the map's (tag, Element)
    defects at their subset sums, the same tags in the same order at
    every point; subset_sum_defects builds it from a function of
    Elements.  Each group is polarized and swept over basis multisets,
    the first group outermost.  Returns a CheckReport; a failure
    witnesses the first failing (multiset, tag), tags in defects' order
    -- (tuple of multisets, tag) for a tuple of degrees -- with the
    polarized defect as lhs.  Raises ValueError, before any work, when
    sweep_size refuses the sweep.
    """
    single = isinstance(degrees, int)
    degrees = (degrees,) if single else tuple(degrees)
    dim = A.dim
    sweep_size(dim, degrees)
    multisets = [combinations_with_replacement(range(dim), d) for d in degrees]
    # Only the inner groups' multisets repeat, once per outer multiset.
    inner = [[(M, _signed_submultisets(M)) for M in group] for group in multisets[1:]]
    for M0 in multisets[0]:
        signed0 = _signed_submultisets(M0)
        for rest in product(*inner):
            terms = [
                (prod(cnt for _, cnt in picked), defects(*(sub for sub, _ in picked)))
                for picked in product(signed0, *(signed for _, signed in rest))
            ]
            for k, (tag, _) in enumerate(terms[0][1]):
                acc = linear_combination(((cnt, 1, vals[k][1].coords) for cnt, vals in terms), dim)
                if not acc.is_zero():
                    witness = (M0 if single else (M0, *(M for M, _ in rest)), tag)
                    return CheckReport(False, law, witness, A.element(acc), A.zero())
    return CheckReport(True, law)


class DefectMemo:
    """The defects x_S^n - x_S^(n-i,i), 2 <= i < n <= top, of one powers
    suite by sub-multiset S, shared by the suite's rows.  They run in order
    on one thread, so nothing is locked, and the last one releases it."""

    def __init__(self, A, top):
        self.algebra, self.top, self.entries = A, top, {}

    def defects(self, S, n):
        """[(i, x_S^n - x_S^(n-i,i)) for i in 2..n-1]."""
        if n < 3:
            return []
        entry = self.entries.get(S)
        if entry is None or n not in entry:
            t = PowerTable(self.algebra, _subset_sum(self.algebra, S))
            entry = {k: [(i, t.power(k) - t.pair(k - i, i)) for i in range(2, k)]
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
            A, degree, lambda S, n=degree, tag=tag: [(tag, memo.defects(S, n)[0][1])], law)
        if not rep.passed:
            rep.note = "polarized sweep found the failure"
            return rep
    return CheckReport(True, law, note="both polarized sweeps proved it")
