"""Differential tests of the integer kernel against plain Fraction arithmetic.

Vectors and matrices carry integer numerators over one common
denominator and each algebra carries an integer structure tensor over
one common denominator.  Every benchmark algebra has integer constants,
so here the structure constants and alpha always include an entry with
a non-unit denominator, and negative entries, and every result is
compared with a reference written directly in Fractions, or, for row
reduction and the characteristic polynomial, with sympy.
"""

from fractions import Fraction
from math import gcd, prod

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from homalt import linalg
from homalt.core import HomAlgebra, apply_alpha, mul, mul_nums
from homalt.linalg import (
    Matrix,
    Vector,
    char_poly,
    inverse,
    kernel_basis,
    mat_mul,
    mat_pow,
    qq,
    rank,
    solve,
    vec_mat,
)

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
def test_unreduced_rows_match_fractions(data):
    # The sweeps' rows: integer numerators over dens that are never reduced.
    A, mu, alpha = data.draw(algebras())
    x = data.draw(st.lists(st.integers(-6, 6), min_size=A.dim, max_size=A.dim))
    y = data.draw(st.lists(st.integers(-6, 6), min_size=A.dim, max_size=A.dim))
    dx, dy = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    fx, fy = [Fraction(a, dx) for a in x], [Fraction(a, dy) for a in y]
    product = [Fraction(a, dx * dy * A._mu_den) for a in mul_nums(A, x, y)]
    assert product == ref_mul(mu, fx, fy)
    assert [Fraction(a, dx * A.alpha.den) for a in linalg.row_times(x, A.alpha)] == (
        ref_vec_mat(fx, alpha))


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
    check(vec_mat(Vector(w), ma.transpose()), [sum(r[j] * w[j] for j in range(k)) for r in a])


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
              Vector.from_ints([0, 0, 0], 12)):
        assert_canonical(z)
        assert z.den == 1 and z.is_zero()
    assert Vector.zero(3) == Vector([Fraction(0, 7)] * 3)


# -- matrices ------------------------------------------------------------------------


@st.composite
def matrices(draw, rows=None, cols=None):
    """A rows x cols nested list of rationals (1..5 each when not given).

    One entry is non-integer.  Half the draws are a product of two
    random factors through a narrower middle, so singular and
    rank-deficient matrices are common.
    """
    r = rows or draw(st.integers(1, 5))
    c = cols or draw(st.integers(1, 5))
    if draw(st.booleans()):
        return draw(tables((r, c)))
    k = draw(st.integers(1, min(r, c)))
    return ref_mat_mul(draw(tables((r, k))), draw(tables((k, c))))


def assert_canonical_matrix(m):
    assert isinstance(m.nums, tuple) and all(isinstance(row, tuple) for row in m.nums)
    assert all(type(a) is int for row in m.nums for a in row)
    assert type(m.den) is int and m.den > 0
    assert gcd(m.den, *(a for row in m.nums for a in row)) == 1
    if not any(a for row in m.nums for a in row):
        assert m.den == 1


def check_matrix(m, want):
    assert_canonical_matrix(m)
    assert m.data == tuple(tuple(row) for row in want)
    assert m == Matrix(want) and hash(m) == hash(Matrix(want))


def to_sympy(a):
    return sympy.Matrix(len(a), len(a[0]),
                        lambda i, j: sympy.Rational(a[i][j].numerator, a[i][j].denominator))


def from_sympy(x):
    return Fraction(int(x.p), int(x.q))


@SETTINGS
@given(st.data())
def test_matrix_arithmetic_matches_fractions(data):
    a = data.draw(matrices())
    r, c = len(a), len(a[0])
    b = data.draw(matrices(r, c))
    k = data.draw(st.one_of(rationals, non_integer(), st.integers(-5, 5)))
    ma, mb = Matrix(a), Matrix(b)
    check_matrix(ma, a)
    check_matrix(Matrix.from_vectors([Vector(row) for row in a]), a)
    check_matrix(ma + mb, [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)])
    check_matrix(ma - mb, [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)])
    check_matrix(-ma, [[-x for x in row] for row in a])
    check_matrix(ma.scale(k), [[k * x for x in row] for row in a])
    check_matrix(ma.transpose(), [[a[i][j] for i in range(r)] for j in range(c)])
    check_matrix(ma - ma, [[0] * c for _ in range(r)])
    for i in range(r):
        check(ma.row(i), a[i])
        assert all(ma[i, j] == a[i][j] for j in range(c))
    for j in range(c):
        check(ma.col(j), [a[i][j] for i in range(r)])
    if r == c:
        assert ma.trace() == sum(a[i][i] for i in range(r))
    assert ma.is_zero() == (not any(x for row in a for x in row))
    assert (ma - ma).is_zero() and (ma.scale(0)).is_zero()


@SETTINGS
@given(st.data())
def test_equal_matrices_share_one_form_and_hash(data):
    a = data.draw(matrices())
    m = Matrix(a)
    zero = Matrix.zero(m.rows, m.cols)
    routes = [m.transpose().transpose(), m + zero, zero + m, m.scale(2).scale(qq(1, 2)),
              -(-m), m - zero, Matrix([[str(x) for x in row] for row in a])]
    for w in routes:
        assert_canonical_matrix(w)
        assert (w.nums, w.den) == (m.nums, m.den)
        assert w == m and hash(w) == hash(m)
    assert len({m, *routes}) == 1
    assert_canonical_matrix(zero)
    assert zero.den == 1 and zero.is_zero()


@SETTINGS
@given(st.data())
def test_row_reduction_matches_sympy(data):
    a = data.draw(matrices())
    m, s = Matrix(a), to_sympy(a)
    assert rank(m) == s.rank()
    want = [[from_sympy(x) for x in v] for v in s.nullspace()]
    got = kernel_basis(m)
    for v in got:
        assert_canonical(v)
    assert [list(v) for v in got] == want
    assert rank(m) + len(got) == m.cols


@SETTINGS
@given(st.data())
def test_solve_matches_sympy(data):
    a = data.draw(matrices())
    r, c = len(a), len(a[0])
    if data.draw(st.booleans()):
        x0 = data.draw(vectors(c))
        b = [sum(a[i][j] * x0[j] for j in range(c)) for i in range(r)]
    else:
        b = data.draw(vectors(r))
    got = solve(Matrix(a), Vector(b))
    try:
        sol, params = to_sympy(a).gauss_jordan_solve(to_sympy([[x] for x in b]))
    except ValueError:  # sympy: the system has no solution
        assert got is None
        return
    sol = sol.subs({p: 0 for p in params})
    check(got, [from_sympy(x) for x in sol])
    assert vec_mat(got, Matrix(a).transpose()) == Vector(b)


@SETTINGS
@given(st.data())
def test_inverse_and_char_poly_match_sympy(data):
    n = data.draw(st.integers(1, 5))
    a = data.draw(matrices(n, n))
    m, s = Matrix(a), to_sympy(a)
    lam = sympy.Symbol("t")
    assert char_poly(m) == [from_sympy(x) for x in s.charpoly(lam).all_coeffs()]
    if s.det() == 0:
        with pytest.raises(ValueError, match="singular"):
            inverse(m)
        return
    inv = inverse(m)
    check_matrix(inv, [[from_sympy(x) for x in s.inv().row(i)] for i in range(n)])
    assert mat_pow(m, -2) == mat_mul(inv, inv)


def test_matrix_work_makes_no_scalar_coercions(monkeypatch):
    m = Matrix([[Fraction(1, 2), 2, 0], [3, Fraction(-1, 3), 1], [0, 1, Fraction(5, 4)]])
    singular = Matrix([[1, Fraction(2, 3), 0], [2, Fraction(4, 3), 0], [0, 0, Fraction(1, 7)]])
    b = Vector([1, Fraction(1, 2), 3])
    calls = []
    real = linalg.as_scalar
    monkeypatch.setattr(linalg, "as_scalar", lambda x: calls.append(x) or real(x))
    assert Matrix.from_vectors([m.row(i) for i in range(3)]) == m
    t = m.transpose()
    total = t + singular - m
    assert m.row(1) == Vector.from_ints([18, -2, 6], 6)
    assert m.col(2) == Vector.from_ints([0, 4, 5], 4)
    assert total == total.transpose().transpose() and hash(total) == hash(t + singular - m)
    assert (rank(m), rank(singular)) == (3, 2)
    assert len(kernel_basis(singular)) == 1 and kernel_basis(m) == []
    assert vec_mat(solve(m, b), m.transpose()) == b
    assert solve(singular, b) is None
    assert mat_mul(m, inverse(m)) == mat_pow(m, 0)
    assert mat_pow(m, 3) == mat_mul(m, mat_mul(m, m)) and mat_pow(m, -1) == inverse(m)
    assert calls == []
