import random

import pytest

from homalt import core
from homalt.cli import main
from homalt.constructions import albert5_alpha, plus_algebra, yau_twist
from homalt.core import (HomAlgebra, apply_alpha, is_multiplicative, load_algebra, mul,
                         save_algebra)
from homalt.jordan import check_hom_jordan_admissible, jordan_defect
from homalt.linalg import identity_matrix, qq
from homalt.symbolic import expand_associator, var

from conftest import FIXTURES, SIX, lattice_sweep, random_element, swapped_alpha_albert
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
    coded apart from homalt.jordan and core.polarized_defect_sweep."""
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


def assert_direct_route_matches(A, passed):
    # Same verdict and witness; the direct form's defect is the negative.
    rep = check_hom_jordan_admissible(A)
    direct = direct_sweep(A)
    assert rep.passed == direct.passed == passed
    assert rep.witness == direct.witness
    if not rep.passed:  # each sweep builds its own A+
        assert rep.lhs.coords == (-direct.lhs).coords
    return rep


def test_direct_route_matches_the_sweep(six):
    name, A = six
    assert_direct_route_matches(A, SIX[name])


# SIX holds no non-multiplicative algebra; the Jordan sweep must not assume
# multiplicativity, so its route is checked on two more.
NON_MULTIPLICATIVE = {
    "swapped-alpha-albert5": (swapped_alpha_albert, ((0, 0, 0), 0)),
    "fixture-dim5": (lambda: load_algebra(str(FIXTURES / "non_multiplicative_dim5.json")),
                     ((0, 0, 1), 0)),
}


@pytest.mark.parametrize("name", list(NON_MULTIPLICATIVE))
def test_direct_route_matches_the_sweep_on_non_multiplicative_algebras(name):
    build, witness = NON_MULTIPLICATIVE[name]
    A = build()
    assert not is_multiplicative(A)
    assert assert_direct_route_matches(A, False).witness == witness


def leaf_by_leaf(A, p, env):
    """p in A at {variable: Element}, each monomial read off its normal form:
    alpha^k applied to a leaf's value, then the products.  That is p's value
    only when A is multiplicative."""
    def value(tree):
        if tree[0] == "m":
            return mul(A, value(tree[1]), value(tree[2]))
        x = env[tree[1]]
        for _ in range(tree[2]):
            x = apply_alpha(A, x)
        return x

    return sum((value(m.tree).scale(c) for m, c in p.terms()), A.zero())


def test_the_free_normal_form_misses_the_jordan_defect_off_multiplicative(a230):
    # The normal form of as(x*x, alpha(y), alpha(x)) in the free multiplicative
    # Hom-algebra has rewritten alpha(x*x) as alpha(x)*alpha(x).  On a
    # non-multiplicative A+ that is another map, so no evaluation of that
    # polynomial decides the Jordan law there: the sweep applies alpha to the
    # row of x*x itself.
    x, y = var("x"), var("y")
    poly = expand_associator(x * x, y.alpha(1), x.alpha(1))
    misses = {}
    for name, A in (("a230", a230), ("swapped", swapped_alpha_albert())):
        P = plus_algebra(A)
        basis = P.basis()
        misses[name] = sum(leaf_by_leaf(P, poly, {"x": a, "y": b}) != jordan_defect(P, a, b)
                           for a in basis for b in basis)
        assert bool(is_multiplicative(P)) == (name == "a230")
    assert misses == {"a230": 0, "swapped": 4}


def test_admissibility_is_one_sweep(a230, bad_algebra, monkeypatch):
    sweeps = record_calls(monkeypatch, core, "polarized_defect_sweep")
    for A in (a230, bad_algebra):
        check_hom_jordan_admissible(A)
    assert len(sweeps) == 2


def dense_table(dim, seed=0):
    """A random dense product table, constants in -3..3, with alpha = Id."""
    rng = random.Random(seed)
    mu = [[[rng.randint(-3, 3) for _ in range(dim)] for _ in range(dim)] for _ in range(dim)]
    return HomAlgebra(dim, ["e%d" % i for i in range(dim)], mu, identity_matrix(dim))


def test_the_jordan_sweep_is_priced_by_its_products(tmp_path, capsys, monkeypatch):
    # A point makes 4 dim + 1 products and 3 alphas on A+, so a dense dim-26
    # table (15,124 steps a product, 3,276 points) is priced at 5.35e9, above
    # the cap, and refused before any point is evaluated; priced at 9
    # operations a point, as a bare degree-3 sweep, it would fit.
    A = dense_table(26)
    sweeps = record_calls(monkeypatch, core, "polarized_defect_sweep")
    with pytest.raises(ValueError, match="108 operations a point.*cap of %d" % core.MAX_SWEEP):
        check_hom_jordan_admissible(A)
    path = tmp_path / "dense26.json"
    save_algebra(A, str(path))
    assert main(["jordan", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "above the cap" in err
    assert sweeps == []
    # dim 24 is priced at 3.11e9 and still sweeps, to its first point's failure
    rep = check_hom_jordan_admissible(dense_table(24))
    assert not rep.passed and rep.witness == ((0, 0, 0), 0) and len(sweeps) == 1


def test_check_prices_the_jordan_sweep_before_any_suite_runs(tmp_path, capsys, monkeypatch):
    # The jordan suite prices its sweep as it decides its preconditions, so
    # check refuses the dense dim-26 table before the axioms suite decides
    # right Hom-alternativity on its thread.
    path = tmp_path / "dense26.json"
    save_algebra(dense_table(26), str(path))
    laws = record_calls(monkeypatch, core, "_associator_law")
    assert main(["check", str(path), "--suites", "axioms,jordan"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "108 operations a point" in err and "above the cap" in err
    assert laws == []


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
