"""Differential tests of the integer kernel against plain Fraction arithmetic.

Vectors carry integer numerators over one common denominator and each
algebra carries an integer structure tensor over one common
denominator.  Every benchmark algebra has integer constants, so here
the structure constants and alpha always include an entry with a
non-unit denominator, and negative entries, and every result is
compared with a reference written directly in Fractions.
"""

from fractions import Fraction
from math import gcd, prod

from hypothesis import given, settings
from hypothesis import strategies as st

from homalt.core import HomAlgebra, apply_alpha, mul
from homalt.linalg import Matrix, Vector, linear_combination, mat_mul, mat_vec, vec_mat

SETTINGS = settings(max_examples=60, derandomize=True, deadline=None)

rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
sparse_rationals = st.one_of(st.just(Fraction(0)), rationals)


@st.composite
def non_integer(draw):
    """A rational whose reduced denominator is 2..7, of either sign."""
    q = draw(st.integers(2, 7))
    p = draw(st.sampled_from([1, q + 1, 2 * q + 1]))
    return Fraction(p if draw(st.booleans()) else -p, q)


@st.composite
def tables(draw, shape):
    """A nested list of rationals of the given shape, one entry non-integer."""
    flat = draw(st.lists(sparse_rationals, min_size=prod(shape), max_size=prod(shape)))
    flat[draw(st.integers(0, len(flat) - 1))] = draw(non_integer())
    return _nest(flat, shape)


def _nest(flat, shape):
    if len(shape) == 1:
        return list(flat)
    step = prod(shape[1:])
    return [_nest(flat[i * step:(i + 1) * step], shape[1:]) for i in range(shape[0])]


@st.composite
def algebras(draw):
    dim = draw(st.integers(2, 4))
    mu = draw(tables((dim, dim, dim)))
    alpha = draw(tables((dim, dim)))
    return HomAlgebra(dim, ["b%d" % i for i in range(dim)], mu, Matrix(alpha)), mu, alpha


def vectors(dim):
    return st.lists(rationals, min_size=dim, max_size=dim)


def assert_canonical(v):
    assert isinstance(v.nums, tuple) and all(type(a) is int for a in v.nums)
    assert type(v.den) is int and v.den > 0
    assert gcd(v.den, *v.nums) == 1
    if not any(v.nums):
        assert v.den == 1


def check(v, want):
    assert_canonical(v)
    assert v.entries == tuple(want)
    assert v == Vector(want) and hash(v) == hash(Vector(want))


# -- the reference --------------------------------------------------------------


def ref_mul(mu, x, y):
    n = len(x)
    return [sum(x[i] * y[j] * mu[i][j][k] for i in range(n) for j in range(n))
            for k in range(n)]


def ref_vec_mat(v, m):
    return [sum(v[i] * m[i][j] for i in range(len(v))) for j in range(len(m[0]))]


def ref_mat_mul(a, b):
    return [ref_vec_mat(row, b) for row in a]


# -- algebra operations ------------------------------------------------------------


@SETTINGS
@given(st.data())
def test_mul_and_apply_alpha_match_fractions(data):
    A, mu, alpha = data.draw(algebras())
    assert A._mu_den > 1
    x = data.draw(vectors(A.dim))
    y = data.draw(vectors(A.dim))
    ex, ey = A.element(x), A.element(y)
    check(mul(A, ex, ey).coords, ref_mul(mu, x, y))
    check(apply_alpha(A, ex).coords, ref_vec_mat(x, alpha))
    for i in range(A.dim):
        for j in range(A.dim):
            check(mul(A, A.basis_element(i), A.basis_element(j)).coords, mu[i][j])


@SETTINGS
@given(st.data())
def test_matrix_products_match_fractions(data):
    n = data.draw(st.integers(2, 4))
    k = data.draw(st.integers(1, 4))
    a = data.draw(tables((n, k)))
    b = data.draw(tables((k, n)))
    v = data.draw(vectors(n))
    w = data.draw(vectors(k))
    ma, mb = Matrix(a), Matrix(b)
    ab = mat_mul(ma, mb)
    assert ab.data == tuple(tuple(row) for row in ref_mat_mul(a, b))
    assert ab == Matrix(ref_mat_mul(a, b))
    assert mat_mul(ab, ma).data == tuple(tuple(r) for r in ref_mat_mul(ref_mat_mul(a, b), a))
    check(vec_mat(Vector(v), ma), ref_vec_mat(v, a))
    check(mat_vec(ma, Vector(w)), [sum(r[j] * w[j] for j in range(k)) for r in a])


# -- vector arithmetic -------------------------------------------------------------


@SETTINGS
@given(st.data())
def test_vector_arithmetic_matches_fractions(data):
    n = data.draw(st.integers(2, 4))
    x = data.draw(vectors(n))
    y = data.draw(vectors(n))
    c = data.draw(st.one_of(rationals, non_integer(), st.integers(-5, 5)))
    vx, vy = Vector(x), Vector(y)
    check(vx, x)
    check(vx + vy, [a + b for a, b in zip(x, y)])
    check(vx - vy, [a - b for a, b in zip(x, y)])
    check(-vx, [-a for a in x])
    check(vx.scale(c), [c * a for a in x])
    check(c * vx, [c * a for a in x])
    check(vx - vx, [0] * n)
    assert vx.dot(vy) == sum(a * b for a, b in zip(x, y))
    assert list(vx) == x and [vx[i] for i in range(n)] == x


@SETTINGS
@given(st.data())
def test_linear_combination_matches_fractions(data):
    n = data.draw(st.integers(2, 4))
    terms = data.draw(st.lists(st.tuples(rationals, vectors(n)), max_size=6))
    got = linear_combination(
        ((c.numerator, c.denominator, Vector(v)) for c, v in terms), n)
    check(got, [sum((c * v[k] for c, v in terms), Fraction(0)) for k in range(n)])


@SETTINGS
@given(st.data())
def test_equal_vectors_share_one_form_and_hash(data):
    n = data.draw(st.integers(2, 4))
    x = data.draw(vectors(n))
    f = data.draw(st.integers(2, 9))
    v = Vector(x)
    routes = [
        Vector(["%d/%d" % (a.numerator * f, a.denominator * f) for a in x]),
        Vector.from_ints([a * f for a in v.nums], v.den * f),
        v.scale(Fraction(f, 7)).scale(Fraction(7, f)),
        v.scale(f) - v.scale(f - 1),
        (v + Vector.unit(n, 0).scale(Fraction(1, f))) - Vector.unit(n, 0).scale(Fraction(1, f)),
    ]
    for w in routes:
        assert_canonical(w)
        assert (w.nums, w.den) == (v.nums, v.den)
        assert w == v and hash(w) == hash(v)
    assert len({v, *routes}) == 1


def test_zero_vectors_have_unit_denominator():
    for z in (Vector.zero(3), Vector(["0/5", 0, Fraction(0, 7)]),
              Vector([Fraction(1, 3), 0, 0]).scale(0),
              Vector.from_ints([0, 0, 0], 12),
              linear_combination([(1, 2, Vector([1, 1])), (-1, 2, Vector([1, 1]))], 2)):
        assert_canonical(z)
        assert z.den == 1 and z.is_zero()
    assert Vector.zero(3) == Vector([Fraction(0, 7)] * 3)
