"""Differential tests of the sweeps on integer rows.

powers, jordan and symbolic evaluate their sweep defects as unreduced
integer rows over one denominator per tag, and the engine builds an
Element only for a failing witness.  Every benchmark algebra has integer
constants, so here mu, and alpha too where it is not the identity, hold
non-integer entries, and every report must equal field for field,
witness and lhs included, one computed on reduced Elements by code apart
from the engine, core.polarized_defect_sweep.
"""

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from homalt.core import HomAlgebra
from homalt.jordan import check_hom_jordan_admissible
from homalt.linalg import Matrix, identity_matrix, inverse
from homalt.powers import hom_power_pair_poly, hom_power_poly
from homalt.symbolic import check_identity_on_algebra

from conftest import evaluate_polynomial
from test_jordan import direct_sweep
from test_kernel import non_integer, rationals, tables
from test_polarized import IDENTITIES, _eval_tree, reference_check
from test_powers import FIELDS, reference_rows, suite_rows

SETTINGS = settings(max_examples=40, derandomize=True, deadline=None)


def transported(mu, alpha, P):
    """(mu, alpha) in the basis of P's rows: an isomorphic, so still
    multiplicative, algebra."""
    n = len(mu)
    Pinv = inverse(Matrix(P)).data

    def to_new(v):
        return [sum(v[a] * Pinv[a][k] for a in range(n)) for k in range(n)]

    new_mu = [[to_new([sum(P[i][a] * P[j][b] * mu[a][b][k] for a in range(n) for b in range(n))
                       for k in range(n)]) for j in range(n)] for i in range(n)]
    new_alpha = [to_new([sum(P[i][a] * alpha[a][k] for a in range(n)) for k in range(n)])
                 for i in range(n)]
    return new_mu, new_alpha


@st.composite
def rational_multiplicative_algebras(draw):
    """Multiplicative algebras of dim 2..4 with non-integer constants: mostly
    a sparse rational table with alpha = Id, which fails the laws, else a
    diagonal table (e_i * e_i = c_i e_i) with alpha a coordinate projection,
    where they hold, carried to the basis of a rational unitriangular P."""
    dim = draw(st.integers(2, 4))
    names = ["b%d" % i for i in range(dim)]
    if draw(st.integers(0, 2)):
        return HomAlgebra(dim, names, draw(tables((dim, dim, dim))), identity_matrix(dim))
    c = draw(st.lists(st.one_of(rationals, non_integer()), min_size=dim, max_size=dim))
    keep = draw(st.lists(st.booleans(), min_size=dim, max_size=dim))
    mu = [[[c[i] if i == j == k else 0 for k in range(dim)] for j in range(dim)]
          for i in range(dim)]
    alpha = [[int(keep[i] and i == j) for j in range(dim)] for i in range(dim)]
    P = [[1 if i == j else draw(non_integer()) if i < j else 0 for j in range(dim)]
         for i in range(dim)]
    mu, alpha = transported(mu, alpha, P)
    A = HomAlgebra(dim, names, mu, Matrix(alpha))
    assume(A._mu_den > 1)
    return A


@SETTINGS
@given(rational_multiplicative_algebras(), st.sampled_from([3, 5]))
def test_powers_rows_match_the_element_reference(A, nmax):
    got, want = suite_rows(A, nmax), reference_rows(A, nmax)
    assert [[getattr(r, f) for f in FIELDS] for r in got] == [
        [getattr(r, f) for f in FIELDS] for r in want]


@SETTINGS
@given(rational_multiplicative_algebras())
def test_jordan_matches_the_element_reference(A):
    rep, direct = check_hom_jordan_admissible(A), direct_sweep(A)
    assert (rep.passed, rep.witness) == (direct.passed, direct.witness)
    if not rep.passed:  # the direct form is the associator form's negative; each builds its A+
        assert rep.lhs.coords == (-direct.lhs).coords


@SETTINGS
@given(rational_multiplicative_algebras(), st.sampled_from(IDENTITIES), st.booleans())
def test_identity_sweep_matches_the_element_reference(A, identity, corrupt):
    name, lhs, rhs, degrees = identity
    rhs = -rhs if corrupt else rhs
    got = check_identity_on_algebra(A, lhs, rhs, name)
    assert got.as_dict() == reference_check(A, lhs, rhs, degrees, name).as_dict()


@SETTINGS
@given(rational_multiplicative_algebras(), st.data())
def test_evaluate_polynomial_matches_element_evaluation(A, data):
    coords = data.draw(st.lists(st.one_of(rationals, non_integer()), min_size=A.dim,
                                max_size=A.dim))
    x = A.element(coords)
    defect = hom_power_poly(4) - hom_power_pair_poly(2, 2).scale(Fraction(1, 3))
    want = A.zero()
    for m, c in defect.terms():
        want = want + _eval_tree(A, m.tree, {"x": x}, {}).scale(c)
    assert evaluate_polynomial(A, defect, {"x": x}) == want
