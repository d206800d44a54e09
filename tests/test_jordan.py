import random

from homalt import powers
from homalt.constructions import albert5_alpha, plus_algebra, yau_twist
from homalt.core import apply_alpha, mul
from homalt.jordan import check_hom_jordan_admissible, jordan_defect
from homalt.linalg import qq

from conftest import SIX, lattice_sweep, random_element
from test_cli import record_calls

ADMISSIBLE_NOTE = "lattice sweep of as(x*x, alpha(y), alpha(x)) on A+"


def direct_defect(A, x, y):
    """(alpha(x)*alpha(y))*alpha(x^2) - alpha^2(x)*(alpha(y)*x^2), the
    expanded form of the Jordan identity: for a commutative product it is
    the pointwise negative of jordan_defect."""
    ax = apply_alpha(A, x)
    ay = apply_alpha(A, y)
    x2 = mul(A, x, x)
    lhs = mul(A, mul(A, ax, ay), apply_alpha(A, x2))
    rhs = mul(A, apply_alpha(A, ax), mul(A, ay, x2))
    return lhs - rhs


def direct_sweep(A):
    """The direct form swept on A+ by the Element lattice sweep: a reference
    coded apart from homalt.jordan and homalt.powers."""
    P = plus_algebra(A)
    basis = P.basis()
    return lattice_sweep(
        P, 3, "direct", lambda x: [(yi, direct_defect(P, x, basis[yi])) for yi in range(P.dim)])


def test_plus_product_is_the_symmetrization(a230):
    P = plus_algebra(a230)
    rng = random.Random(3)
    for _ in range(10):
        x = random_element(a230, rng)
        y = random_element(a230, rng)
        px = P.element(list(x.coords.entries))
        py = P.element(list(y.coords.entries))
        want = (mul(a230, x, y) + mul(a230, y, x)).scale(qq(1, 2))
        assert mul(P, px, py).coords == want.coords


def test_jordan_defect_vanishes_on_plus(twisted):
    P = plus_algebra(twisted)
    rng = random.Random(5)
    for _ in range(15):
        x = random_element(P, rng)
        y = random_element(P, rng)
        assert jordan_defect(P, x, y).is_zero()


def test_both_defect_routes_agree_up_to_sign(twisted):
    # for a commutative product the associator form and the direct form of
    # the Jordan defect are pointwise negatives of each other
    P = plus_algebra(twisted)
    rng = random.Random(7)
    for _ in range(15):
        x = random_element(P, rng)
        y = random_element(P, rng)
        assert jordan_defect(P, x, y) == -direct_defect(P, x, y)


def test_check_hom_jordan_on_plus(twisted):
    # A+ is commutative, so (A+)+ = A+ and the admissibility sweep on A+
    # decides the Hom-Jordan law of A+ itself
    P = plus_algebra(twisted)
    assert all(P.mu[i][j] == P.mu[j][i] for i in range(P.dim) for j in range(P.dim))
    assert check_hom_jordan_admissible(P).passed


def test_admissible_on_twisted(twisted):
    rep = check_hom_jordan_admissible(twisted)
    assert rep.passed
    assert rep.note == ADMISSIBLE_NOTE


def test_admissible_on_random_family_twists(albert):
    rng = random.Random(11)
    from test_constructions import random_params

    for _ in range(5):
        A = yau_twist(albert, albert5_alpha(random_params(rng)))
        assert check_hom_jordan_admissible(A).passed


def test_fixture_fails_admissible(bad_algebra):
    rep = check_hom_jordan_admissible(bad_algebra)
    assert not rep.passed
    assert rep.witness == ((0, 0, 0), 0)
    assert rep.witness == check_hom_jordan_admissible(bad_algebra).witness


def test_direct_route_matches_the_sweep(six):
    # Same verdict and witness; the direct form's defect is the negative.
    name, A = six
    rep = check_hom_jordan_admissible(A)
    direct = direct_sweep(A)
    assert rep.passed == direct.passed == SIX[name]
    assert rep.witness == direct.witness
    if not rep.passed:  # each sweep builds its own A+
        assert rep.lhs.coords == (-direct.lhs).coords


def test_admissibility_is_one_sweep(a230, bad_algebra, monkeypatch):
    sweeps = record_calls(monkeypatch, powers, "polarized_defect_sweep")
    for A in (a230, bad_algebra):
        check_hom_jordan_admissible(A)
    assert len(sweeps) == 2


def test_jordan_defect_shape(a230):
    # defect(x, y) = as(x*x, alpha(y), alpha(x)) by definition
    rng = random.Random(13)
    from homalt.core import hom_associator

    for _ in range(10):
        x = random_element(a230, rng)
        y = random_element(a230, rng)
        want = hom_associator(
            a230, mul(a230, x, x), apply_alpha(a230, y), apply_alpha(a230, x)
        )
        assert jordan_defect(a230, x, y) == want
