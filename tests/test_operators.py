import random

import pytest

from homalt.constructions import AlbertParams, albert5_twisted
from homalt.core import HomAlgebra, apply_alpha, mul
from homalt.linalg import Matrix, Vector, identity_matrix, mat_mul, qq
from homalt.operators import (
    MAX_OPERATOR_POWER,
    MulOperator,
    alpha_op,
    build_T,
    check_idempotent_operator_suite,
    check_mul_operator_identities,
    is_alpha_n_idempotent,
    left_op,
    op_commutator,
    right_op,
)

from conftest import SIX, random_element, untwisted_alpha


def test_action_tables_at_the_idempotent(a230):
    e = a230.basis_element(0)
    L = left_op(a230, e)
    R = right_op(a230, e)
    names = a230.basis_names
    left_table = {"e": "e", "u": "3*v", "v": "0", "w": "2*w - 2*z", "z": "2*z"}
    right_table = {"e": "e", "u": "3*u", "v": "0", "w": "0", "z": "2*z"}
    for i in range(a230.dim):
        b = a230.basis_element(i)
        assert repr(L.apply(b)) == left_table[names[i]]
        assert repr(R.apply(b)) == right_table[names[i]]


def test_apply_agrees_with_mul(twisted):
    rng = random.Random(11)
    for _ in range(10):
        x = random_element(twisted, rng)
        a = random_element(twisted, rng)
        assert left_op(twisted, x).apply(a) == mul(twisted, x, a)
        assert right_op(twisted, x).apply(a) == mul(twisted, a, x)
    assert alpha_op(twisted).apply(a) == apply_alpha(twisted, a)
    assert (alpha_op(twisted) ** 0).apply(a) == a


def test_composition_is_in_action_order(a230):
    rng = random.Random(7)
    f = left_op(a230, random_element(a230, rng))
    g = right_op(a230, random_element(a230, rng))
    assert (f * g).matrix == mat_mul(f.matrix, g.matrix)
    for _ in range(10):
        a = random_element(a230, rng)
        assert (f * g).apply(a) == g.apply(f.apply(a))


def test_operator_arithmetic(a230):
    rng = random.Random(19)
    f = left_op(a230, random_element(a230, rng))
    g = right_op(a230, random_element(a230, rng))
    a = random_element(a230, rng)
    assert (f + g).apply(a) == f.apply(a) + g.apply(a)
    assert (f - g).apply(a) == f.apply(a) - g.apply(a)
    assert (-f).apply(a) == -f.apply(a)
    assert f.scale(qq(2, 3)).apply(a) == f.apply(a).scale(qq(2, 3))
    assert f ** 0 == MulOperator(a230, identity_matrix(5))
    assert f ** 3 == f * f * f
    assert op_commutator(f, g) == f * g - g * f
    assert (f - f).is_zero()
    assert not f.is_zero()


def test_equality_ignores_provenance(a230):
    al = alpha_op(a230)
    assert MulOperator(a230, a230.alpha) == al
    assert hash(MulOperator(a230, a230.alpha)) == hash(al)


def test_operators_refuse_to_mix_algebras(albert, a230):
    e = albert.basis_element(0)
    with pytest.raises(ValueError, match="different algebras"):
        left_op(albert, e) * left_op(a230, a230.basis_element(0))
    with pytest.raises(ValueError, match="different algebras"):
        left_op(albert, e).apply(a230.basis_element(1))


PROVED = "R-composition and L/R exchange proved on basis pairs"


def test_mul_operator_identities_hold(twisted):
    rep = check_mul_operator_identities(twisted)
    assert rep.passed
    assert rep.note == PROVED


def test_mul_operator_identities_fail_on_the_bad_algebra(bad_algebra):
    # R_x R_alpha(x) = alpha R_{x*x} polarized at x = y = e_0: twice the law there
    rep = check_mul_operator_identities(bad_algebra)
    assert not rep.passed
    assert rep.witness == (0, 0)
    assert rep.note == "R-composition fails on basis pair"
    e = bad_algebra.basis_element(0)
    R = right_op(bad_algebra, e) * right_op(bad_algebra, apply_alpha(bad_algebra, e))
    assert rep.lhs == R.matrix.scale(2)
    assert rep.rhs == (alpha_op(bad_algebra) * right_op(bad_algebra, mul(bad_algebra, e, e))
                       ).matrix.scale(2)


def sampled_r_composition(A, samples=5):
    """R_x R_alpha(x) == alpha R_{x*x} on seeded random x: the sampled route
    that the basis-pair proof replaced."""
    rng = random.Random(0)
    for _ in range(samples):
        x = random_element(A, rng)
        if right_op(A, x) * right_op(A, apply_alpha(A, x)) != alpha_op(A) * right_op(
            A, mul(A, x, x)
        ):
            return False
    return True


def test_mul_operator_identities_keep_their_verdicts(six):
    name, A = six
    rep = check_mul_operator_identities(A)
    assert rep.passed == SIX[name] == sampled_r_composition(A)
    assert rep.note == (PROVED if rep.passed else "R-composition fails on basis pair")


def test_idempotent_suite_passes(twisted):
    e = twisted.basis_element(0)
    # only the eps = 0 members keep e idempotent; skip the rest
    if mul(twisted, e, e) != e:
        pytest.skip("basis idempotent only exists for eps = 0")
    rep = check_idempotent_operator_suite(twisted, e, nmax=5)
    assert rep.passed
    assert rep.note == "20 identities verified"


@pytest.mark.parametrize("nmax", [-1, MAX_OPERATOR_POWER + 1])
def test_idempotent_suite_refuses_an_exponent_out_of_range(a230, nmax):
    e = a230.basis_element(0)
    with pytest.raises(ValueError, match=r"nmax must be an integer in 0\.\.%d, got %d"
                       % (MAX_OPERATOR_POWER, nmax)):
        check_idempotent_operator_suite(a230, e, nmax)
    assert check_idempotent_operator_suite(a230, e, MAX_OPERATOR_POWER).passed


def test_explicit_matrix_identities(a230):
    e = a230.basis_element(0)
    L = left_op(a230, e)
    R = right_op(a230, e)
    al = alpha_op(a230)
    zero = MulOperator(a230, Matrix.zero(5, 5))
    assert R * R == al * R
    for n in range(6):
        assert R ** (n + 1) == (al ** n) * R
    assert L * L - al * L == op_commutator(L, R)
    assert op_commutator(al, L) == zero
    assert op_commutator(al, R) == zero
    lsq = L * L - al * L
    assert lsq * lsq == zero
    lr = op_commutator(L, R)
    assert lr * lr == zero
    assert L * R * L == al * L * R
    assert L ** 3 - al * (L ** 2) == al * L * R - R * L * R


def test_T_operator(a230):
    e = a230.basis_element(0)
    L = left_op(a230, e)
    al = alpha_op(a230)
    R = right_op(a230, e)
    T = build_T(a230, e)
    assert T == ((al ** 2) * (L ** 2)).scale(3) - (al * (L ** 3)).scale(2)
    for n in range(1, 5):
        assert T ** (n + 1) == (al ** (4 * n)) * T
    assert op_commutator(T, R).is_zero()


def test_is_alpha_n_idempotent(a230):
    e = a230.basis_element(0)
    assert is_alpha_n_idempotent(a230, right_op(a230, e), 1)
    assert not is_alpha_n_idempotent(a230, left_op(a230, e), 1)
    assert is_alpha_n_idempotent(a230, build_T(a230, e), 4)
    assert is_alpha_n_idempotent(a230, alpha_op(a230) ** 0, 0)
    # alpha of a230 is invertible, so negative powers are fine
    assert is_alpha_n_idempotent(a230, MulOperator(a230, Matrix.zero(5, 5)), -3)


def test_is_alpha_n_idempotent_guards(a230):
    # a throwaway 2-dim algebra whose alpha is singular
    names = ("a", "b")
    mu = [[Vector((0, 0)) for _ in range(2)] for _ in range(2)]
    tiny = HomAlgebra(2, names, mu, Matrix([[1, 0], [0, 0]]))
    zz = MulOperator(tiny, Matrix.zero(2, 2))
    with pytest.raises(ValueError, match="invertible"):
        is_alpha_n_idempotent(tiny, zz, -1)
    with pytest.raises(ValueError, match="integer"):
        is_alpha_n_idempotent(tiny, zz, "2")
    with pytest.raises(ValueError, match="this algebra"):
        is_alpha_n_idempotent(a230, zz, 1)


def test_suite_needs_an_idempotent():
    A = albert5_twisted(AlbertParams(2, 3, 1))
    with pytest.raises(ValueError, match="idempotent") as err:
        check_idempotent_operator_suite(A, A.basis_element(0))
    assert "e*e" in str(err.value)


def test_suite_needs_multiplicativity(a230):
    rows = [list(a230.alpha.data[i]) for i in range(5)]
    rows[1], rows[2] = rows[2], rows[1]
    mu = [[a230.mu[i][j] for j in range(5)] for i in range(5)]
    broken = HomAlgebra(5, a230.basis_names, mu, Matrix(rows))
    e = broken.basis_element(0)
    assert mul(broken, e, e) == e and apply_alpha(broken, e) == e
    with pytest.raises(ValueError, match="multiplicative"):
        check_idempotent_operator_suite(broken, e)


def test_suite_needs_right_alternativity(a230):
    ordinary = untwisted_alpha(a230)
    e = ordinary.basis_element(0)
    assert mul(ordinary, e, e) == e
    with pytest.raises(ValueError, match="right Hom-alternative"):
        check_idempotent_operator_suite(ordinary, e)
