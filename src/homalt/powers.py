"""Hom-powers and power associativity.

The n-th Hom-power of x is right-normed with twisted right factors,

    x^1 = x,          x^n = x^(n-1) * alpha^(n-2)(x),

and the two-index powers interpolate between the ways of splitting n:

    x^(i,j) = alpha^(j-1)(x^i) * alpha^(i-1)(x^j).

n-th Hom-power associativity asks x^n = x^(n-i,i) for every i between 1
and n-1.  For multiplicative right Hom-alternative algebras this holds
for all n as soon as

    x^2 * alpha(x) = alpha(x) * x^2   and   x^4 = alpha(x^2) * alpha(x^2),

which is the criterion checked by check_third_fourth_criterion.

Checks run twice: on seeded random elements, and (for small n) as a
polarized basis sweep.  polarized_defect_sweep, the engine behind every
polarized proof in homalt (jordan's and symbolic's too), replaces a map
P of degree d in a variable by its multilinear form via inclusion-exclusion,

    sum over nonempty S of {1..d} of (-1)^(d-|S|) P(x_S),
    x_S = sum of the slot elements indexed by S,

and sweeps all basis tuples for the slots; over Q this vanishes
identically iff P does, so the sweep is a proof, not a sample.  P(x_S)
only depends on the multiset of S: 2^d evaluations per point, not d!.
"""

import random
from itertools import combinations_with_replacement, product
from math import prod

from .linalg import linear_combination
from .core import (
    CheckReport,
    apply_alpha,
    is_multiplicative,
    mul,
    random_element,
)

__all__ = [
    "PowerTable",
    "hom_power",
    "hom_power_pair",
    "check_nth_hom_power_associative",
    "check_power_associativity_polarized",
    "check_third_fourth_criterion",
]


class PowerTable:
    """Memoised Hom-powers x^n and pairs x^(i,j) of a fixed base element."""

    def __init__(self, A, base):
        if base.algebra is not A:
            raise ValueError("elements belong to different algebras")
        self.algebra = A
        self.base = base
        self._pow = {1: base}
        self._alpha_pow = {}  # (n, k) -> alpha^k(x^n)
        self.pair_cache = {}

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
        assert k >= 0
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
        key = (i, j)
        e = self.pair_cache.get(key)
        if e is None:
            e = mul(self.algebra, self.alpha_power(i, j - 1), self.alpha_power(j, i - 1))
            self.pair_cache[key] = e
        return e


def hom_power(A, x, n):
    return PowerTable(A, x).power(n)


def hom_power_pair(A, x, i, j):
    return PowerTable(A, x).pair(i, j)


def _require_multiplicative(A, who):
    rep = is_multiplicative(A)
    if not rep.passed:
        raise ValueError(
            "%s needs a multiplicative algebra; alpha fails to be a morphism "
            "on basis pair %r" % (who, rep.witness)
        )


def _power_defects(A, x, n):
    """[(i, x^n - x^(n-i,i))] for i in 1..n-1."""
    t = PowerTable(A, x)
    full = t.power(n)
    return [(i, full - t.pair(n - i, i)) for i in range(1, n)]


def _signed_submultisets(M):
    """[(sub-multiset, signed count)] of the inclusion-exclusion over M's slots."""
    d = len(M)
    counts = {}
    for mask in range(1, 1 << d):
        sub = tuple(sorted(M[t] for t in range(d) if mask >> t & 1))
        counts[sub] = counts.get(sub, 0) + (-1) ** (d - len(sub))
    return [(sub, cnt) for sub, cnt in sorted(counts.items()) if cnt]


def polarized_defect_sweep(A, degrees, defect_fn, law):
    """Exhaustive proof that a multihomogeneous map vanishes.

    degrees is the degree of defect_fn's one argument, or a tuple of the
    degrees of its arguments (one per variable group); defect_fn returns
    a list of (tag, Element) defects.  Each group is polarized and swept
    over basis multisets, the first group outermost.  Returns a
    CheckReport; a failure witnesses the first failing (multiset, tag)
    -- (tuple of multisets, tag) for a tuple of degrees -- with the
    polarized defect as lhs.
    """
    single = isinstance(degrees, int)
    degrees = (degrees,) if single else tuple(degrees)
    dim = A.dim
    basis = A.basis()
    cache = {}  # tuple of sorted index tuples -> {tag: Element}
    sums = {}  # sorted index tuple -> the sum of those basis elements
    signed = {}  # multiset -> _signed_submultisets(multiset)

    def defects_at(subs):
        got = cache.get(subs)
        if got is None:
            for sub in subs:
                if sub not in sums:
                    sums[sub] = sum((basis[i] for i in sub), A.zero())
            xs = [sums[sub] for sub in subs]
            got = cache[subs] = dict(defect_fn(*xs))
        return got

    for Ms in product(*(combinations_with_replacement(range(dim), d) for d in degrees)):
        for M in Ms:
            if M not in signed:
                signed[M] = _signed_submultisets(M)
        terms = [
            (prod(cnt for _, cnt in picked), defects_at(tuple(sub for sub, _ in picked)))
            for picked in product(*(signed[M] for M in Ms))
        ]
        for tag in sorted(terms[0][1]):
            acc = linear_combination(((cnt, 1, vals[tag].coords) for cnt, vals in terms), dim)
            if not acc.is_zero():
                witness = (Ms[0] if single else Ms, tag)
                return CheckReport(False, law, witness, A.element(acc), A.zero())
    return CheckReport(True, law)


def check_power_associativity_polarized(A, n):
    """Deterministic proof of n-th Hom-power associativity on A (n >= 2)."""
    if not isinstance(n, int) or n < 2:
        raise ValueError("polarized power check needs n >= 2, got %r" % (n,))
    _require_multiplicative(A, "power associativity check")
    law = "hom-power-associative-polarized(n=%d)" % n
    return polarized_defect_sweep(A, n, lambda x: _power_defects(A, x, n), law)


def check_nth_hom_power_associative(A, n, samples=25, seed=0):
    """x^n == x^(n-i,i) for all i, on seeded samples (plus proof for n <= 5).

    The sampled pass draws `samples` seeded random elements; for n <= 5
    the polarized basis sweep also runs, upgrading the verdict from
    evidence to proof.  Requires a multiplicative algebra.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError("Hom-power associativity needs n >= 1, got %r" % (n,))
    _require_multiplicative(A, "power associativity check")
    law = "hom-power-associative(n=%d)" % n
    rng = random.Random(seed)
    for _ in range(samples):
        x = random_element(A, rng)
        for i, d in _power_defects(A, x, n):
            if not d.is_zero():
                t = PowerTable(A, x)
                return CheckReport(False, law, (x, i), t.power(n), t.pair(n - i, i))
    note = "sampled %d elements" % samples
    if 2 <= n <= 5:
        rep = polarized_defect_sweep(A, n, lambda x: _power_defects(A, x, n), law)
        if not rep.passed:
            rep.note = note + "; polarized sweep found the failure"
            return rep
        note += "; polarized sweep proved it"
    return CheckReport(True, law, note=note)


def check_third_fourth_criterion(A, samples=25, seed=0):
    """x^2*alpha(x) == alpha(x)*x^2 and x^4 == alpha(x^2)*alpha(x^2).

    Both sampled and proved by polarization (degrees 3 and 4).  For a
    multiplicative right Hom-alternative algebra these two laws imply
    n-th Hom-power associativity for every n.
    """
    _require_multiplicative(A, "third/fourth power criterion")
    law = "third-fourth-power-criterion"

    def third(x):
        t = PowerTable(A, x)
        x2 = t.power(2)
        ax = apply_alpha(A, x)
        return mul(A, x2, ax) - mul(A, ax, x2)

    def fourth(x):
        t = PowerTable(A, x)
        ax2 = apply_alpha(A, t.power(2))
        return t.power(4) - mul(A, ax2, ax2)

    rng = random.Random(seed)
    for _ in range(samples):
        x = random_element(A, rng)
        d3 = third(x)
        if not d3.is_zero():
            return CheckReport(False, law, (x, "third"), d3, A.zero())
        d4 = fourth(x)
        if not d4.is_zero():
            return CheckReport(False, law, (x, "fourth"), d4, A.zero())
    rep = polarized_defect_sweep(A, 3, lambda x: [("third", third(x))], law)
    if not rep.passed:
        return rep
    rep = polarized_defect_sweep(A, 4, lambda x: [("fourth", fourth(x))], law)
    if not rep.passed:
        return rep
    return CheckReport(True, law, note="sampled %d elements; both polarized sweeps proved it" % samples)
