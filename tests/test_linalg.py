import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homalt.linalg import (
    Matrix,
    Vector,
    char_poly,
    format_scalar,
    identity_matrix,
    inverse,
    kernel_basis,
    mat_mul,
    mat_pow,
    mat_vec,
    parse_scalar,
    qq,
    rank,
    solve,
    vec_mat,
)
from homalt.constructions import AlbertParams, albert5_alpha

rationals = st.builds(qq, st.integers(-30, 30), st.integers(1, 12))


def random_matrix(rng, n, lo=-4, hi=4):
    return Matrix.from_rows(
        [[qq(rng.randint(lo, hi), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
    )


# -- scalars ------------------------------------------------------------------


def test_parse_scalar_forms():
    assert parse_scalar("3/4") == qq(3, 4)
    assert parse_scalar("-7") == qq(-7)
    assert parse_scalar("+2") == qq(2)
    assert parse_scalar("0") == 0
    assert parse_scalar("6/4") == qq(3, 2)


@pytest.mark.parametrize(
    "bad", ["", "3.5", "a", "1/0", "0/0", "1/-2", "2 /3", "--1", "\u0661", "1/\u0662", "1_0"]
)
def test_parse_scalar_rejects(bad):
    with pytest.raises(ValueError):
        parse_scalar(bad)


def test_format_scalar_canonical():
    assert format_scalar(qq(3, 4)) == "3/4"
    assert format_scalar(qq(-6, 4)) == "-3/2"
    assert format_scalar(qq(5)) == "5"
    assert format_scalar(qq(0)) == "0"


@given(rationals)
@settings(derandomize=True)
def test_scalar_parse_format_round_trip(x):
    assert parse_scalar(format_scalar(x)) == x


@given(rationals, rationals, rationals)
@settings(derandomize=True)
def test_scalar_field_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    if a != 0:
        assert a * (1 / a) == 1


# -- vectors ------------------------------------------------------------------


def test_vector_arithmetic():
    v = Vector((qq(1), qq(2), qq(-3)))
    w = Vector((qq(0), qq(1, 2), qq(3)))
    assert (v + w).entries == (qq(1), qq(5, 2), qq(0))
    assert (v - v).is_zero()
    assert (-v).entries == (qq(-1), qq(-2), qq(3))
    assert v.scale(qq(2)).entries == (qq(2), qq(4), qq(-6))
    assert v.dot(w) == qq(2) * qq(1, 2) + qq(-3) * qq(3)
    assert Vector.unit(3, 1).entries == (qq(0), qq(1), qq(0))
    assert Vector.zero(2).is_zero()
    assert hash(v) == hash(Vector((qq(1), qq(2), qq(-3))))


# -- matrix algebra -----------------------------------------------------------


def test_matrix_product_and_identity():
    rng = random.Random(1)
    for _ in range(10):
        a = random_matrix(rng, 3)
        b = random_matrix(rng, 3)
        c = random_matrix(rng, 3)
        assert mat_mul(mat_mul(a, b), c) == mat_mul(a, mat_mul(b, c))
        assert mat_mul(a, identity_matrix(3)) == a
        assert mat_mul(identity_matrix(3), a) == a
        assert mat_mul(a, b).transpose() == mat_mul(b.transpose(), a.transpose())


def test_mat_vec_conventions():
    m = Matrix.from_rows([[qq(1), qq(2)], [qq(3), qq(4)]])
    v = Vector((qq(1), qq(1)))
    assert mat_vec(m, v).entries == (qq(3), qq(7))
    assert vec_mat(v, m).entries == (qq(4), qq(6))


def test_mat_pow():
    m = Matrix.from_rows([[qq(2), qq(1)], [qq(0), qq(3)]])
    assert mat_pow(m, 0) == identity_matrix(2)
    assert mat_pow(m, 3) == mat_mul(m, mat_mul(m, m))
    assert mat_pow(m, -2) == mat_mul(inverse(m), inverse(m))
    assert m**3 == mat_pow(m, 3)


# -- rank / kernel / solve ------------------------------------------------------


def test_kernel_and_rank_nullity():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 5)
        m = random_matrix(rng, n, lo=-2, hi=2)
        basis = kernel_basis(m)
        assert rank(m) + len(basis) == n
        for v in basis:
            assert mat_vec(m, v).is_zero()


def test_kernel_canonical_form():
    # one relation: columns 0 and 1 are equal, so the kernel is (1, -1, 0)-like
    m = Matrix.from_rows([[qq(1), qq(1), qq(0)], [qq(2), qq(2), qq(1)]])
    basis = kernel_basis(m)
    assert len(basis) == 1
    # the free coordinate carries an exact 1
    assert basis[0].entries == (qq(-1), qq(1), qq(0))


def test_solve_and_inverse():
    rng = random.Random(11)
    solved = 0
    for _ in range(40):
        n = rng.randint(1, 4)
        m = random_matrix(rng, n, lo=-3, hi=3)
        b = Vector(tuple(qq(rng.randint(-3, 3)) for _ in range(n)))
        x = solve(m, b)
        if x is not None:
            solved += 1
            assert mat_vec(m, x) == b
    assert solved > 10  # far from vacuous


def test_solve_none_when_inconsistent():
    m = Matrix.from_rows([[qq(1), qq(0)], [qq(1), qq(0)]])
    assert solve(m, Vector((qq(1), qq(2)))) is None
    assert solve(m, Vector((qq(1), qq(1)))) is not None


def test_inverse_properties():
    rng = random.Random(13)
    count = 0
    while count < 10:
        m = random_matrix(rng, 3)
        if rank(m) < 3:
            continue
        count += 1
        assert mat_mul(m, inverse(m)) == identity_matrix(3)
        assert mat_mul(inverse(m), m) == identity_matrix(3)
    singular = Matrix.from_rows([[qq(1), qq(2)], [qq(2), qq(4)]])
    with pytest.raises(ValueError, match="singular"):
        inverse(singular)


# -- characteristic polynomial ---------------------------------------------------


def test_char_poly_frozen_example():
    # eigenvalues {1, 3, 3, 2, 2}: (t-1)(t-3)^2(t-2)^2
    m = albert5_alpha(AlbertParams(2, 3, 0))
    assert char_poly(m) == [qq(1), qq(-11), qq(47), qq(-97), qq(96), qq(-36)]


def test_char_poly_identity_and_diagonal():
    assert char_poly(identity_matrix(3)) == [qq(1), qq(-3), qq(3), qq(-1)]
    d = Matrix.diagonal([qq(2), qq(-1)])
    # (t-2)(t+1) = t^2 - t - 2
    assert char_poly(d) == [qq(1), qq(-1), qq(-2)]


def test_char_poly_cayley_hamilton():
    rng = random.Random(17)
    for _ in range(10):
        n = rng.randint(1, 4)
        m = random_matrix(rng, n, lo=-2, hi=2)
        coeffs = char_poly(m)
        acc = Matrix.zero(n, n)
        for c in coeffs:
            acc = mat_mul(acc, m) + identity_matrix(n).scale(c)
        assert acc == Matrix.zero(n, n)


def test_char_poly_similarity_invariant():
    rng = random.Random(19)
    done = 0
    while done < 10:
        m = random_matrix(rng, 4, lo=-2, hi=2)
        p = random_matrix(rng, 4, lo=-2, hi=2)
        if rank(p) < 4:
            continue
        done += 1
        conj = mat_mul(mat_mul(inverse(p), m), p)
        assert char_poly(conj) == char_poly(m)
    assert char_poly(m.transpose()) == char_poly(m)


def test_char_poly_trace_determinant_signs():
    rng = random.Random(23)
    for _ in range(10):
        m = random_matrix(rng, 3)
        coeffs = char_poly(m)
        assert coeffs[0] == 1
        assert coeffs[1] == -m.trace()
