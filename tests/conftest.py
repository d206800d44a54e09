import pathlib

import pytest

from homalt.constructions import AlbertParams, albert5_base, albert5_twisted, direct_sum
from homalt.core import HomAlgebra, load_algebra
from homalt.linalg import Matrix, identity_matrix, qq
from homalt.symbolic import poly_mul, var

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


def hom_power_poly(n):
    """x^n in the free algebra: x^1 = x, x^n = x^(n-1) * alpha^(n-2)(x)."""
    return var("x") if n == 1 else poly_mul(hom_power_poly(n - 1), var("x", n - 2))


def hom_power_pair_poly(i, j):
    """x^(i,j) = alpha^(j-1)(x^i) * alpha^(i-1)(x^j) in the free algebra."""
    return poly_mul(hom_power_poly(i).alpha(j - 1), hom_power_poly(j).alpha(i - 1))


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
