import pathlib
from itertools import combinations_with_replacement

import pytest

from homalt.constructions import AlbertParams, albert5_base, albert5_twisted, direct_sum
from homalt.core import CheckReport, Element, HomAlgebra, apply_alpha, load_algebra, mul, require
from homalt.linalg import Matrix, Vector, identity_matrix, qq
from homalt.symbolic import _polynomial_evaluator

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
GOLDEN = pathlib.Path(__file__).parent / "data" / "golden"

# The three parameter triples the example family is exercised at throughout.
TWIST_TRIPLES = ((2, 3, 5), (5, 2, 0), (-1, 4, 7))


def twisted_albert(gamma, delta, epsilon):
    return albert5_twisted(AlbertParams(gamma, delta, epsilon))


def copy_mu(A):
    return [[list(A.mu[i][j]) for j in range(A.dim)] for i in range(A.dim)]


def untwisted_alpha(A):
    """The same product table with alpha forced to the identity."""
    return HomAlgebra(A.dim, A.basis_names, copy_mu(A), identity_matrix(A.dim))


def random_element(A, rng):
    """Seeded random element: numerators in -3..3, denominators in 1..3."""
    return A.element(
        [qq(rng.choice(range(-3, 4)), rng.choice((1, 2, 3))) for _ in range(A.dim)]
    )


def evaluate_polynomial(A, p, assignment):
    """Evaluate p in A under {variable: Element}, through the sweeps' own
    evaluator.  A must be multiplicative (ValueError otherwise: the normal
    form assumed it); unassigned variables are a ValueError too."""
    require(A, "polynomial evaluation", "multiplicative")
    if any(x.algebra is not A for x in assignment.values()):
        raise ValueError("elements belong to different algebras")
    names = sorted(assignment)
    coords = [assignment[v].coords for v in names]
    evaluate = _polynomial_evaluator(A, [(None, p)], names, [v.den for v in coords])
    (_, nums, den), = evaluate(tuple(v.nums for v in coords))
    return Element(A, Vector.from_ints(nums, den))


def slot_mask_submultisets(M):
    """The inclusion-exclusion over M's slots, one slot subset at a time:
    [(sorted sub-multiset, summed sign)] over all 2^d - 1 nonempty masks."""
    d = len(M)
    signed = {}
    for mask in range(1, 1 << d):
        sub = tuple(sorted(M[t] for t in range(d) if mask >> t & 1))
        signed[sub] = signed.get(sub, 0) + (-1) ** (d - len(sub))
    return sorted(signed.items())


def element_sweep(A, degree, law, defects):
    """A polarized sweep on Elements, coded apart from
    core.polarized_defect_sweep: at each basis multiset M, the slot-mask
    inclusion-exclusion of defects(x), a list of (tag, Element), over the
    subset sums x of M's sub-multisets.  Reports the first failing (M, tag),
    with the polarized defect as lhs."""
    memo = {}
    for M in combinations_with_replacement(range(A.dim), degree):
        signed = slot_mask_submultisets(M)
        for sub, _ in signed:
            if sub not in memo:
                memo[sub] = defects(sum((A.basis_element(v) for v in sub), A.zero()))
        for k, (tag, _) in enumerate(memo[signed[0][0]]):
            acc = A.zero()
            for sub, cnt in signed:
                acc = acc + memo[sub][k][1].scale(cnt)
            if not acc.is_zero():
                return CheckReport(False, law, (M, tag), acc, A.zero())
    return CheckReport(True, law)


def lattice_point(A, M):
    """x_M, the sum of the basis elements the multiset M indexes, as an Element."""
    return sum((A.basis_element(i) for i in M), A.zero())


def lattice_sweep(A, degree, law, defects):
    """A lattice sweep on Elements, coded apart from
    core.polarized_defect_sweep: at each basis multiset M, defects(x_M), a
    list of (tag, Element).  Reports the first failing (M, tag), with the
    defect at x_M as lhs."""
    for M in combinations_with_replacement(range(A.dim), degree):
        for tag, value in defects(lattice_point(A, M)):
            if not value.is_zero():
                return CheckReport(False, law, (M, tag), value, A.zero())
    return CheckReport(True, law)


def hom_power(A, x, n, k=0):
    """alpha^k(x^n) on Elements, by the recursions x^1 = x and
    x^n = x^(n-1) * alpha^(n-2)(x), through mul and apply_alpha alone: it
    holds in every algebra, multiplicative or not."""
    if k:
        return apply_alpha(A, hom_power(A, x, n, k - 1))
    return x if n == 1 else mul(A, hom_power(A, x, n - 1), hom_power(A, x, 1, n - 2))


def hom_power_pair(A, x, i, j):
    """x^(i,j) = alpha^(j-1)(x^i) * alpha^(i-1)(x^j) on Elements, through hom_power."""
    return mul(A, hom_power(A, x, i, j - 1), hom_power(A, x, j, i - 1))


def swapped_alpha_albert():
    """albert5_base with alpha swapping e and u: not multiplicative."""
    base = albert5_base()
    rows = [[qq(0)] * 5 for _ in range(5)]
    rows[0][1] = qq(1)
    rows[1][0] = qq(1)
    for i in (2, 3, 4):
        rows[i][i] = qq(1)
    return HomAlgebra(5, base.basis_names, copy_mu(base), Matrix.from_rows(rows))


# Six algebras the Jordan and operator checks are tested against their
# references on, with the verdict both laws get there: two twists of the
# example, the golden random table and its rational variant, the dim-3
# counterexample and a dim-10 direct sum.
SIX = {
    "albert5-230": True,
    "albert5-m147": True,
    "random-00": False,
    "random-00-rational": False,
    "fixture-dim3": False,
    "sum-dim10": True,
}


def six_algebra(name):
    if name == "fixture-dim3":
        return load_algebra(str(FIXTURES / "non_right_alt_dim3.json"))
    if name.startswith("random-00"):
        return load_algebra(str(GOLDEN / ("%s.json" % name)))
    a230, am147 = twisted_albert(2, 3, 0), twisted_albert(-1, 4, 7)
    return {"albert5-230": a230, "albert5-m147": am147, "sum-dim10": direct_sum(a230, am147)}[name]


@pytest.fixture(params=list(SIX))
def six(request):
    """(name, algebra) for each entry of SIX."""
    return request.param, six_algebra(request.param)


@pytest.fixture
def albert():
    return albert5_base()


@pytest.fixture
def a230():
    return twisted_albert(2, 3, 0)


@pytest.fixture(params=TWIST_TRIPLES, ids=lambda t: "g%s_d%s_e%s" % t)
def twisted(request):
    return twisted_albert(*request.param)


@pytest.fixture
def bad_algebra():
    return load_algebra(str(FIXTURES / "non_right_alt_dim3.json"))


@pytest.fixture
def non_multiplicative():
    return swapped_alpha_albert()
