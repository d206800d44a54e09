import random
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homalt import cli, operators
from homalt.constructions import AlbertParams, albert5_twisted
from homalt.core import (
    HomAlgebra,
    HypothesisError,
    apply_alpha,
    is_multiplicative,
    is_right_hom_alternative,
    mul,
)
from homalt.idempotents import idempotent_search
from homalt.linalg import Matrix, identity_matrix, mat_mul, qq, vec_mat
from homalt.operators import (
    build_T,
    check_idempotent_operator_suite,
    check_mul_operator_identities,
    left_op,
    op_commutator,
    right_op,
)

from conftest import (
    SIX,
    TWIST_TRIPLES,
    random_element,
    six_algebra,
    twisted_albert,
    untwisted_alpha,
)
from test_constructions import random_table_algebra
from test_kernel import algebras, vectors
from test_lattice import seeded_algebra


def apply(A, f, x):
    """x's image under the operator f, a Matrix acting on coordinate rows."""
    return A.element(vec_mat(x.coords, f))


def test_action_tables_at_the_idempotent(a230):
    e = a230.basis_element(0)
    L = left_op(a230, e)
    R = right_op(a230, e)
    names = a230.basis_names
    left_table = {"e": "e", "u": "3*v", "v": "0", "w": "2*w - 2*z", "z": "2*z"}
    right_table = {"e": "e", "u": "3*u", "v": "0", "w": "0", "z": "2*z"}
    for i in range(a230.dim):
        b = a230.basis_element(i)
        assert repr(apply(a230, L, b)) == left_table[names[i]]
        assert repr(apply(a230, R, b)) == right_table[names[i]]


def test_apply_agrees_with_mul(twisted):
    rng = random.Random(11)
    for _ in range(10):
        x = random_element(twisted, rng)
        a = random_element(twisted, rng)
        assert apply(twisted, left_op(twisted, x), a) == mul(twisted, x, a)
        assert apply(twisted, right_op(twisted, x), a) == mul(twisted, a, x)
    assert apply(twisted, twisted.alpha, a) == apply_alpha(twisted, a)
    assert apply(twisted, twisted.alpha ** 0, a) == a


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.data())
def test_operators_act_as_mul_on_rational_tables(data):
    # dim 2..4, a non-integer constant in mu and in alpha (so alpha != Id)
    A, _, _ = data.draw(algebras())
    assert A._mu_den > 1 and A.alpha != identity_matrix(A.dim)
    x, a = (A.element(data.draw(vectors(A.dim))) for _ in range(2))
    assert vec_mat(a.coords, left_op(A, x)) == mul(A, x, a).coords
    assert vec_mat(a.coords, right_op(A, x)) == mul(A, a, x).coords


def test_composition_is_in_action_order(a230):
    rng = random.Random(7)
    f = left_op(a230, random_element(a230, rng))
    g = right_op(a230, random_element(a230, rng))
    assert f * g == mat_mul(f, g)
    for _ in range(10):
        a = random_element(a230, rng)
        assert apply(a230, f * g, a) == apply(a230, g, apply(a230, f, a))


def test_operator_arithmetic(a230):
    rng = random.Random(19)
    f = left_op(a230, random_element(a230, rng))
    g = right_op(a230, random_element(a230, rng))
    a = random_element(a230, rng)
    fa, ga = apply(a230, f, a), apply(a230, g, a)
    assert apply(a230, f + g, a) == fa + ga
    assert apply(a230, f - g, a) == fa - ga
    assert apply(a230, -f, a) == -fa
    assert apply(a230, f.scale(qq(2, 3)), a) == fa.scale(qq(2, 3))
    assert f ** 0 == identity_matrix(5)
    assert f ** 3 == f * f * f
    assert op_commutator(f, g) == f * g - g * f
    assert (f - f).is_zero()
    assert not f.is_zero()


def test_equality_ignores_provenance(a230):
    again = twisted_albert(2, 3, 0)
    for i in range(5):
        for op in (left_op, right_op):
            f, g = op(a230, a230.basis_element(i)), op(again, again.basis_element(i))
            assert f == g and hash(f) == hash(g)


def test_operators_refuse_to_mix_algebras(albert, a230):
    for op in (left_op, right_op):
        with pytest.raises(ValueError, match="different algebras"):
            op(albert, a230.basis_element(1))


PROVED = ("right Hom-alternativity proves both: applied to e_a, R-composition at (x, y) "
          "is as(e_a, x, y) + as(e_a, y, x), and the L/R exchange is the same law with the "
          "variables renamed")
FAILS = "R-composition fails on basis pair, in row %d: right Hom-alternativity fails at %r"


def test_mul_operator_identities_hold(twisted):
    rep = check_mul_operator_identities(twisted)
    assert rep.passed
    assert rep.note == PROVED


def test_mul_operator_identities_fail_on_the_bad_algebra(bad_algebra):
    # R_x R_alpha(x) = alpha R_{x*x} polarized at x = y = e_0: twice the law there
    rep = check_mul_operator_identities(bad_algebra)
    assert not rep.passed
    assert rep.witness == (0, 0)
    assert rep.note == FAILS % (0, (0, 0, 0))
    e = bad_algebra.basis_element(0)
    R = right_op(bad_algebra, e) * right_op(bad_algebra, apply_alpha(bad_algebra, e))
    assert rep.lhs == R.scale(2)
    assert rep.rhs == (bad_algebra.alpha * right_op(bad_algebra, mul(bad_algebra, e, e))
                       ).scale(2)


def test_a_passing_row_builds_no_operator(monkeypatch, capsys):
    # Flagged by thread: the other suites run on threads of their own meanwhile.
    op, row, inside, built = operators._op, cli.check_mul_operator_identities, set(), []

    def counted_op(*args):
        built.append(threading.get_ident() in inside)
        return op(*args)

    def flagged_row(A):
        inside.add(threading.get_ident())
        try:
            return row(A)
        finally:
            inside.discard(threading.get_ident())

    monkeypatch.setattr(operators, "_op", counted_op)
    monkeypatch.setattr(cli, "check_mul_operator_identities", flagged_row)
    assert cli.main(["check", "albert5", "--twist", "2,3,0"]) == 0
    assert "25/25 checks passed" in capsys.readouterr().out
    assert built and not any(built)  # the idempotent operator suite builds them


def reference_op(A, x, left):
    """L_x (left) or R_x as the Matrix whose row a is x*e_a, resp. e_a*x, by mul."""
    return Matrix.from_vectors([(mul(A, x, b) if left else mul(A, b, x)).coords
                                for b in A.basis()])


def reference_sides(A, j, k):
    """R_x R_alpha(y) + R_y R_alpha(x) and alpha R_{x*y + y*x} at x = e_j,
    y = e_k, every operator built from mul."""
    x, y = A.basis_element(j), A.basis_element(k)

    def R(z):
        return reference_op(A, z, False)

    return (R(x) * R(apply_alpha(A, y)) + R(y) * R(apply_alpha(A, x)),
            A.alpha * R(mul(A, x, y) + mul(A, y, x)))


def reference_mul_operator_identities(A):
    """(identity, basis pair) at the first failure of R-composition, then of
    the L/R exchange, or None: both identities proved on basis pairs apart
    from homalt.operators, every operator built from mul."""
    al, basis = A.alpha, A.basis()

    def L(x):
        return reference_op(A, x, True)

    def R(x):
        return reference_op(A, x, False)

    for i in range(A.dim):
        for j in range(i, A.dim):
            lhs, rhs = reference_sides(A, i, j)
            if lhs != rhs:
                return "R-composition", (i, j)
    for i, x in enumerate(basis):
        for j, y in enumerate(basis):
            lhs = L(y) * L(apply_alpha(A, x)) - al * L(mul(A, x, y))
            rhs = L(x) * R(apply_alpha(A, y)) - R(y) * L(apply_alpha(A, x))
            if lhs != rhs:
                return "L/R exchange", (i, j)
    return None


def check_against_the_reference(A):
    """The row's verdict is the reference's and RA's; a failing row's pair
    (j, k), from RA's witness (i, j, k), fails in the reference with the
    same lhs and rhs, which differ in row i.  Returns the identity that
    the reference found failing first, or None."""
    rep, ra = check_mul_operator_identities(A), is_right_hom_alternative(A)
    first = reference_mul_operator_identities(A)
    assert rep.passed == ra.passed == (first is None)
    assert rep.law == "mul-operator-identities"
    if rep.passed:
        assert (rep.witness, rep.lhs, rep.rhs, rep.note) == (None, None, None, PROVED)
        return None
    i, j, k = ra.witness
    lhs, rhs = reference_sides(A, j, k)
    assert (rep.witness, rep.lhs, rep.rhs) == ((j, k), lhs, rhs)
    assert lhs.row(i) != rhs.row(i)
    assert rep.note == FAILS % (i, ra.witness)
    return first[0]


def test_mul_operator_identities_match_the_mul_reference_on_six(six):
    name, A = six
    assert check_against_the_reference(A) == (None if SIX[name] else "R-composition")


def test_mul_operator_identities_match_the_mul_reference_on_random_tables():
    firsts, plain, twisted = [], 0, 0
    for seed in range(200):
        for A in (seeded_algebra(seed), random_table_algebra(random.Random(seed), 2 + seed % 3)):
            firsts.append(check_against_the_reference(A))
            plain += A.alpha == identity_matrix(A.dim)
            twisted += not is_multiplicative(A)
    # Applied to a, the L/R exchange at (x, y) reads as(x, y, a) + as(x, a, y) = 0 and
    # R-composition reads as(a, x, y) + as(a, y, x) = 0: the same linearized law, so
    # the L/R exchange cannot fail first.
    assert set(firsts) == {None, "R-composition"}
    assert len(firsts) == 400 and plain >= 100 and twisted >= 100, (plain, twisted)


def sampled_r_composition(A, samples=5):
    """R_x R_alpha(x) == alpha R_{x*x} on seeded random x: the sampled route
    that the basis-pair proof replaced."""
    rng = random.Random(0)
    for _ in range(samples):
        x = random_element(A, rng)
        if right_op(A, x) * right_op(A, apply_alpha(A, x)) != A.alpha * right_op(
            A, mul(A, x, x)
        ):
            return False
    return True


def test_mul_operator_identities_keep_their_verdicts(six):
    name, A = six
    rep = check_mul_operator_identities(A)
    assert rep.passed == SIX[name] == sampled_r_composition(A)
    ra = is_right_hom_alternative(A)
    assert rep.note == (PROVED if rep.passed else FAILS % (ra.witness[0], ra.witness))


@pytest.mark.parametrize("gamma,delta,epsilon", TWIST_TRIPLES,
                         ids=["g%s_d%s_e%s" % t for t in TWIST_TRIPLES])
def test_idempotent_suite_passes(gamma, delta, epsilon):
    # Every twist has the alpha-fixed idempotent e - epsilon/(delta - 1) (u + v),
    # which is e itself only when epsilon = 0.
    A = twisted_albert(gamma, delta, epsilon)
    e, u, v = A.basis()[:3]
    idempotent = e - (u + v).scale(qq(epsilon, delta - 1))
    assert idempotent * idempotent == idempotent == apply_alpha(A, idempotent)
    rep = check_idempotent_operator_suite(A, idempotent)
    assert rep.passed
    assert rep.note == SUITE_PROVED
    if epsilon:
        with pytest.raises(HypothesisError, match="operator suite needs an idempotent"):
            check_idempotent_operator_suite(A, e)


SUITE_PROVED = ("10 identities verified; by induction R^(n+1) = alpha^n R and "
                "T^(n+1) = alpha^(4n) T for every n >= 1")


def reference_idempotent_suite(A, e, nmax):
    """The suite as it was checked before the induction: the two power
    families as matrix powers, R^(n+1) = alpha^n R for n = 0..nmax and
    T^(n+1) = alpha^(4n) T for n = 1..nmax, around the other identities.
    Returns the first failing (name, lhs, rhs), or None."""
    L, R, al = left_op(A, e), right_op(A, e), A.alpha
    zero = Matrix.zero(A.dim, A.dim)
    lsq, lr, T = L * L - al * L, op_commutator(L, R), build_T(A, e)
    checks = [("R^%d = alpha^%d R" % (n + 1, n), R ** (n + 1), (al ** n) * R)
              for n in range(nmax + 1)]
    checks += [
        ("L^2 - alpha L = [L, R]", lsq, lr),
        ("[alpha, L] = 0", op_commutator(al, L), zero),
        ("[alpha, R] = 0", op_commutator(al, R), zero),
        ("(L^2 - alpha L)^2 = 0", lsq * lsq, zero),
        ("[L, R]^2 = 0", lr * lr, zero),
        ("L R L = alpha L R", L * R * L, al * L * R),
        ("L^3 - alpha L^2 = alpha L R - R L R",
         L ** 3 - al * (L ** 2), al * L * R - R * L * R),
        ("T^2 = alpha^4 T", T * T, (al ** 4) * T),
        ("[T, R] = 0", op_commutator(T, R), zero),
    ]
    checks += [("T^%d = alpha^%d T" % (n + 1, 4 * n), T ** (n + 1), (al ** (4 * n)) * T)
               for n in range(1, nmax + 1)]
    return next(((name, lhs, rhs) for name, lhs, rhs in checks if lhs != rhs), None)


def suite_cases():
    """(label, algebra, idempotent) for every algebra of SIX and of the twisted
    family that meets the suite's hypotheses, at each idempotent the search finds."""
    algebras = [(name, six_algebra(name)) for name in SIX]
    algebras += [("albert5 %s,%s,%s" % t, twisted_albert(*t))
                 for t in ((5, 2, 0), (-1, 4, 0), (3, -2, 0), (2, 3, 5))]
    cases = [(name, A, e) for name, A in algebras
             if is_multiplicative(A) and is_right_hom_alternative(A)
             for e in idempotent_search(A)]
    # the search misses albert5-m147's idempotent e - 7/3 u - 7/3 v
    m147 = six_algebra("albert5-m147")
    return cases + [("albert5-m147", m147, m147.element([1, qq(-7, 3), qq(-7, 3), 0, 0]))]


def test_power_families_hold_up_to_n_10_where_the_suite_passes():
    # The suite checks each family at its first member and proves the rest by
    # induction; the matrix powers themselves agree up to n = 10.
    cases = suite_cases()
    assert len({name for name, _, _ in cases}) == 6
    for name, A, e in cases:
        rep = check_idempotent_operator_suite(A, e)
        assert (rep.passed, rep.note) == (True, SUITE_PROVED), (name, e)
        assert reference_idempotent_suite(A, e, 10) is None, (name, e)


def test_a_failing_suite_keeps_the_reference_witness():
    # Where its hypotheses hold the suite passes.  With the idempotent
    # hypothesis forced on elements that are not idempotents, the suite and
    # the reference fail first at the same identity, with the same matrices.
    A = twisted_albert(2, 3, 0)
    firsts = []
    for coords in ([0, 0, 0, 0, 1], [1, 0, 0, 1, 1]):
        e = A.element(coords)
        A.fact(("idempotent", e), lambda: True)
        rep = check_idempotent_operator_suite(A, e)
        name, lhs, rhs = reference_idempotent_suite(A, e, 10)
        assert (rep.passed, rep.witness, rep.lhs, rep.rhs) == (False, (name,), lhs, rhs)
        firsts.append(name)
    assert firsts == ["R^2 = alpha^1 R", "L^2 - alpha L = [L, R]"]


def test_explicit_matrix_identities(a230):
    e = a230.basis_element(0)
    L = left_op(a230, e)
    R = right_op(a230, e)
    al = a230.alpha
    zero = Matrix.zero(5, 5)
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
    al = a230.alpha
    R = right_op(a230, e)
    T = build_T(a230, e)
    assert T == ((al ** 2) * (L ** 2)).scale(3) - (al * (L ** 3)).scale(2)
    for n in range(1, 5):
        assert T ** (n + 1) == (al ** (4 * n)) * T
    assert op_commutator(T, R).is_zero()


def test_is_alpha_n_idempotent(a230):
    # f is alpha^n-idempotent when f*f == alpha^n f
    e, al = a230.basis_element(0), a230.alpha
    R, L, T = right_op(a230, e), left_op(a230, e), build_T(a230, e)
    assert R * R == al * R
    assert L * L != al * L
    assert T * T == (al ** 4) * T
    one = identity_matrix(5)
    assert one * one == (al ** 0) * one
    # alpha of a230 is invertible, so negative powers are fine
    zero = Matrix.zero(5, 5)
    assert zero * zero == (al ** -3) * zero


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
