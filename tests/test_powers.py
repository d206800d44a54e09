import argparse
import functools
import math
import random
import time
import tracemalloc
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homalt import core, symbolic
from homalt.cli import _suite_powers
from homalt.constructions import direct_sum, plus_algebra
from homalt.core import (
    MAX_SWEEP,
    HomAlgebra,
    _lattice_point,
    apply_alpha,
    mul,
    polarized_defect_sweep,
    sweep_size,
)
from homalt.linalg import Matrix, identity_matrix, qq
from homalt.powers import (
    MAX_HOM_POWER,
    check_nth_hom_power_associative,
    check_third_fourth_criterion,
    hom_power_pair_poly,
    hom_power_poly,
)
from homalt.dsl import parse_identity
from homalt.symbolic import check_identity_on_algebra, identity_registry, identity_sweep_size

from conftest import (SIX, evaluate_polynomial, hom_power, hom_power_pair, lattice_point,
                      lattice_sweep, random_element, six_algebra, twisted_albert)
from test_cli import record_calls, save_dim64_table


def diagonal_associative():
    """dim-3 commutative associative algebra: e_i e_j = delta_ij e_i, alpha = Id."""
    mu = [[[qq(1) if i == j == k else qq(0) for k in range(3)] for j in range(3)]
          for i in range(3)]
    return HomAlgebra(3, ("p", "q", "r"), mu, identity_matrix(3))


# -- the recursion, transcribed straight-line ------------------------------------


def test_hom_power_against_straight_line_recursion(twisted):
    # The Element recursion, and the sweeps' evaluator (alpha rule included)
    # on the free-algebra powers, against the recursion written out.
    rng = random.Random(6)
    for _ in range(5):
        x = random_element(twisted, rng)
        x2 = mul(twisted, x, x)
        x3 = mul(twisted, x2, apply_alpha(twisted, x))
        a2x = apply_alpha(twisted, apply_alpha(twisted, x))
        x4 = mul(twisted, x3, a2x)
        x5 = mul(twisted, x4, apply_alpha(twisted, a2x))
        x6 = mul(twisted, x5, apply_alpha(twisted, apply_alpha(twisted, a2x)))
        want = [x, x2, x3, x4, x5, x6]
        assert [hom_power(twisted, x, n) for n in range(1, 7)] == want
        assert [evaluate_polynomial(twisted, hom_power_poly(n), {"x": x})
                for n in range(1, 7)] == want


def test_hom_power_pair_definition(a230):
    rng = random.Random(8)
    x = random_element(a230, rng)
    for i in range(1, 5):
        for j in range(1, 5):
            want = mul(a230, hom_power(a230, x, i, j - 1), hom_power(a230, x, j, i - 1))
            assert hom_power_pair(a230, x, i, j) == want
            assert evaluate_polynomial(a230, hom_power_pair_poly(i, j), {"x": x}) == want


def test_pair_with_one_is_the_power(a230):
    rng = random.Random(10)
    for n in range(2, 9):
        assert hom_power_pair_poly(n - 1, 1) == hom_power_poly(n)
    for _ in range(5):
        x = random_element(a230, rng)
        for n in range(2, 9):
            assert hom_power_pair(a230, x, n - 1, 1) == hom_power(a230, x, n)


# -- power associativity across every split ----------------------------------------


def test_all_pairs_agree_on_twisted(twisted):
    rng = random.Random(12)
    for _ in range(10):
        x = random_element(twisted, rng)
        for n in range(2, 9):
            xn = hom_power(twisted, x, n)
            for i in range(1, n):
                assert hom_power_pair(twisted, x, n - i, i) == xn


def test_induction_identity(twisted):
    # 2 x^{n-(i+1), i+1} = x^n + x^{n-i, i} for 1 <= i <= n-2
    rng = random.Random(14)
    for _ in range(5):
        x = random_element(twisted, rng)
        for n in range(3, 9):
            xn = hom_power(twisted, x, n)
            for i in range(1, n - 1):
                lhs = hom_power_pair(twisted, x, n - (i + 1), i + 1).scale(qq(2))
                assert lhs == xn + hom_power_pair(twisted, x, n - i, i)


def test_alpha_commutes_with_powers(twisted):
    rng = random.Random(16)
    for _ in range(5):
        x = random_element(twisted, rng)
        for n in range(1, 7):
            assert hom_power(twisted, x, n, 1) == hom_power(twisted, apply_alpha(twisted, x), n)


def test_checkers_pass_on_twisted(twisted):
    for n in range(2, 9):
        rep = check_nth_hom_power_associative(twisted, n)
        assert rep.passed and rep.note == "lattice sweep proved it"
    assert check_third_fourth_criterion(twisted).passed


def test_classical_associative_algebra_power_associative():
    A = diagonal_associative()
    for n in range(2, 7):
        assert check_nth_hom_power_associative(A, n).passed
    assert check_third_fourth_criterion(A).passed


# -- the sampled route the sweep replaced -------------------------------------------


def sampled_power_associative(A, n, samples=25, seed=0):
    """x^n == x^(n-i,i) for all i on seeded random x."""
    rng = random.Random(seed)
    for _ in range(samples):
        x = random_element(A, rng)
        xn = hom_power(A, x, n)
        if any(hom_power_pair(A, x, n - i, i) != xn for i in range(1, n)):
            return False
    return True


def sampled_third_fourth(A, samples=25, seed=0):
    """x^2 alpha(x) == alpha(x) x^2 and x^4 == alpha(x^2) alpha(x^2) on seeded random x."""
    rng = random.Random(seed)
    for _ in range(samples):
        x = random_element(A, rng)
        x2, ax, ax2 = hom_power(A, x, 2), apply_alpha(A, x), hom_power(A, x, 2, 1)
        if mul(A, x2, ax) != mul(A, ax, x2) or hom_power(A, x, 4) != mul(A, ax2, ax2):
            return False
    return True


def power_defect(A, n, i):
    return lambda x: hom_power(A, x, n) - hom_power_pair(A, x, n - i, i)


def third_defect(A):
    def fn(x):
        x2, ax = hom_power(A, x, 2), apply_alpha(A, x)
        return mul(A, x2, ax) - mul(A, ax, x2)
    return fn


def test_sweep_keeps_the_sampled_verdicts(six):
    name, A = six
    # n = 6 on the dim-10 sum would add ~4 s to tier-1, so that algebra
    # stops at n = 5; the five algebras of dim <= 5 cover n = 6
    for n in range(2, 7 if A.dim <= 5 else 6):
        rep = check_nth_hom_power_associative(A, n)
        # equal verdicts: in particular a sampled failure is a sweep failure
        assert rep.passed == sampled_power_associative(A, n), (n, rep.witness)
        if not rep.passed:
            M, i = rep.witness
            assert rep.lhs == power_defect(A, n, i)(lattice_point(A, M)) != A.zero()
    rep = check_third_fourth_criterion(A)
    assert rep.passed == sampled_third_fourth(A) == SIX[name]
    if not rep.passed:
        assert rep.witness[1] == "third"
        assert rep.lhs == third_defect(A)(lattice_point(A, rep.witness[0])) != A.zero()


# -- failures ------------------------------------------------------------------------


def test_fixture_fails_small_powers(bad_algebra):
    assert check_nth_hom_power_associative(bad_algebra, 2).passed  # trivially
    rep3 = check_nth_hom_power_associative(bad_algebra, 3)
    assert not rep3.passed
    assert rep3.witness == ((0, 0, 0), 2)
    assert rep3.note == "lattice sweep found the failure"
    # the witness replays: at x_(0,0,0) = 3 e_0 the degree-3 defect is 3^3 times its value at e_0
    e = bad_algebra.basis_element(0)
    defect = power_defect(bad_algebra, 3, 2)
    assert rep3.lhs == defect(e.scale(3)) == defect(e).scale(27) != bad_algebra.zero()
    assert rep3.rhs == bad_algebra.zero()
    assert not check_nth_hom_power_associative(bad_algebra, 4).passed


def test_fixture_witness_reproducible(bad_algebra):
    a = check_nth_hom_power_associative(bad_algebra, 3)
    b = check_nth_hom_power_associative(bad_algebra, 3)
    assert a.witness == b.witness == ((0, 0, 0), 2)
    assert a.lhs == b.lhs
    assert repr(a.lhs) == "-54*b - 108*c"


def test_fixture_fails_third_fourth(bad_algebra):
    rep = check_third_fourth_criterion(bad_algebra)
    assert not rep.passed
    M, tag = rep.witness
    assert (M, tag) == ((0, 0, 0), "third")
    # the third-power criterion x^2 alpha(x) = alpha(x) x^2, at x_M
    assert rep.lhs == third_defect(bad_algebra)(lattice_point(bad_algebra, M)) != bad_algebra.zero()


# -- the sweep-size cap --------------------------------------------------------------


def albert5_sum(copies):
    """The direct sum of copies of albert5 (2,3,0): dim 5 copies, with 7 copies
    structure constants, so a product is priced 12 copies + 32 steps."""
    A = twisted_albert(2, 3, 0)
    return functools.reduce(direct_sum, [A] * copies)


def powers_suite(top):
    """The degrees of a powers suite's sweeps, one per row n = 2..top."""
    return [(n,) for n in range(2, top + 1)]


def test_default_sweeps_fit_the_cap_up_to_dim_20():
    # On the sum of four albert5 copies, a product priced 80 steps: the powers
    # suite at the default --nmax 5, Jordan on A+ and every registry identity,
    # the largest being associator-tail; a point of total degree D is priced D^2.
    A = albert5_sum(4)
    assert sweep_size(A, *powers_suite(5)) == 80 * (210 * 4 + 1540 * 9 + 8855 * 16 + 42504 * 25)
    assert sweep_size(plus_algebra(A), (3,)) <= MAX_SWEEP
    for ident in identity_registry().values():
        assert identity_sweep_size(A, ident.defect(), ident.degrees) <= MAX_SWEEP
    assert sweep_size(A, (1, 2, 2)) == 20 * 210 * 210 * 25 * 80 == 1764000000


def test_the_cap_admits_every_sweep_the_old_price_admitted():
    # On albert5 and its sums up to dim 40, every powers suite and registry
    # sweep that an earlier price admitted still fits: 2^D per point of total
    # degree D under a cap of 2^25 (a powers suite paying for its largest
    # degree only), and D^2 per point under a cap of 40,000,000.
    idents = identity_registry().values()
    for copies in range(1, 9):
        A = albert5_sum(copies)

        def points(degrees):
            return math.prod(math.comb(A.dim + d - 1, d) for d in degrees)

        for nmax in range(2, 27):
            rows = powers_suite(max(nmax, 4))
            if (points(rows[-1]) << rows[-1][0] <= 2**25
                    or sum(points(r) * r[0] ** 2 for r in rows) <= 40_000_000):
                assert sweep_size(A, *rows) <= MAX_SWEEP
        for ident in idents:
            degrees = tuple(ident.degrees.values())
            D = sum(degrees)
            if points(degrees) << D <= 2**25 or points(degrees) * D * D <= 40_000_000:
                assert identity_sweep_size(A, ident.defect(), ident.degrees) <= MAX_SWEEP


def test_cap_refuses_huge_sweeps_before_any_work(a230, tmp_path):
    # At dim 5 a powers suite fits up to n = 26 and is refused from n = 27:
    # each row n is priced C(n + 4, n) n^2 products of 44 steps (5
    # coordinates, 7 structure constants, 32 fixed), and so is the
    # criterion's degree 4.
    size = 44 * sum(math.comb(n + 4, n) * n * n for n in range(2, 27))
    assert sweep_size(a230, *powers_suite(26)) == size == 3633020600 <= MAX_SWEEP
    with pytest.raises(ValueError, match="the 26 sweeps of degrees up to 27 on 5 basis elements, "
                       "at 44 steps a product, have size 4642291940, above the cap of %d"
                       % MAX_SWEEP):
        sweep_size(a230, *powers_suite(27))
    with pytest.raises(ValueError, match="has size %d, above the cap of %d"
                       % (44 * math.comb(44, 40) * 1600, MAX_SWEEP)):
        sweep_size(a230, (40,))
    save_dim64_table(tmp_path / "dim64.json")
    dim64 = core.load_algebra(str(tmp_path / "dim64.json"))
    for ident in identity_registry().values():
        with pytest.raises(ValueError, match="above the cap"):
            identity_sweep_size(dim64, ident.defect(), ident.degrees)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="above the cap"):
        check_nth_hom_power_associative(a230, 40)
    # A degree whose one point costs more than the cap is refused before its
    # size, of hundreds of digits, is formed: at 44 steps a product, above 9534.
    with pytest.raises(ValueError, match="^a sweep of degree above 9534 on 5 basis elements, at 44 "
                       "steps a product, costs more than the cap of %d at each point$" % MAX_SWEEP):
        _suite_powers(a230, argparse.Namespace(nmax=10**100), None)
    with pytest.raises(ValueError, match="^a sweep of degrees 9534 .* has size"):
        sweep_size(a230, (9534,))
    with pytest.raises(ValueError, match="^a sweep of degree above 9534"):
        sweep_size(a230, (9535,))
    assert time.perf_counter() - start < 1.0


# On a dim-1 algebra (34 steps a product) the price admits a row up to n =
# 10,846, but x^n nests n - 1 products deep and building and compiling its
# tree recurse once a level: rows above MAX_HOM_POWER are refused before any
# polynomial is built, since 900 and 1,200 would exhaust the recursion limit.
@pytest.mark.parametrize("n", [201, 900, 1200])
def test_powers_nested_past_the_limit_are_refused(n):
    A = HomAlgebra(1, ["e"], [[[1]]], identity_matrix(1))  # e*e = e, alpha = Id
    assert MAX_HOM_POWER == 200 and sweep_size(A, (n,)) == 34 * n * n
    with pytest.raises(ValueError, match=r"^Hom-power associativity needs n <= 200 "
                       r"\(MAX_HOM_POWER\), got %d$" % n):
        check_nth_hom_power_associative(A, n)


# The operations each registry identity's price charges a point: the most of
# D^2 and the (products, alpha applications) of one evaluation, one product
# per distinct product node of its defect and k alpha applications per
# distinct leaf alpha^k(v).  Those are assoc-shift (11, 7), assoc-shift-linear
# (22, 10), commutator-exchange (18, 10), middle-square (16, 7), right-moufang
# (6, 6) and associator-tail (15, 12), against D^2 = 16, 16, 16, 16, 16, 25.
REGISTRY_WORK = {"assoc-shift": 16, "assoc-shift-linear": 22, "commutator-exchange": 18,
                 "middle-square": 16, "right-moufang": 16, "associator-tail": 25}


def alpha_shift_sum(K):
    """sum_{k<K} alpha^k(x^2 alpha(x)) = sum_{k<K} alpha^k(alpha(x) x^2), which
    holds in every multiplicative right Hom-alternative algebra.  Its degree
    is 3 for every K, but one evaluation makes 3K products and K(K + 1)/2
    alpha applications: the leaves alpha^k(x), k <= K."""
    lhs = " ".join("(a %d (mul (mul x (a 0 x)) (a 1 x)))" % k for k in range(K))
    rhs = " ".join("(a %d (mul (a 1 x) (mul x (a 0 x))))" % k for k in range(K))
    return parse_identity("(= (add %s) (add %s))" % (lhs, rhs))


def test_identities_are_priced_by_their_evaluations(a230):
    # A registry identity pays at most 1.4 times what its degrees alone
    # charge: assoc-shift-linear's 22 products against D^2 = 16.
    A = albert5_sum(4)
    for name, ident in identity_registry().items():
        degrees = tuple(ident.degrees.values())
        price = identity_sweep_size(A, ident.defect(), ident.degrees)
        assert price * sum(degrees) ** 2 == sweep_size(A, degrees) * REGISTRY_WORK[name], name
    # At dim 35 assoc-shift-linear still fits the cap, at 3.83e9.
    ident = identity_registry()["assoc-shift-linear"]
    price = identity_sweep_size(albert5_sum(7), ident.defect(), ident.degrees)
    assert price == 116 * 35**4 * 22 == 3829595000 <= MAX_SWEEP
    # The benchmark's x^5 = x^(3,2) makes 8 products and 6 alpha applications: D^2 = 25.
    lhs, rhs = parse_identity("(= (mul (mul (mul (mul x (a 0 x)) (a 1 x)) (a 2 x)) (a 3 x)) "
                              "(mul (a 1 (mul (mul x (a 0 x)) (a 1 x))) (a 2 (mul x (a 0 x)))))")
    assert identity_sweep_size(a230, lhs - rhs, {"x": 5}) == sweep_size(a230, (5,))


def test_an_identity_of_many_terms_is_refused_before_any_sweep(a230, monkeypatch):
    # K = 998 on the dim-20 sum was priced 1,108,800 by its degree alone
    # (under 0.05 s), but K = 100 takes 15-19 s there (2 vCPUs): at K = 998
    # each point makes 2,994 products and 498,501 alpha applications.
    lhs, rhs = alpha_shift_sum(998)
    A = albert5_sum(4)
    with monkeypatch.context() as m:
        m.setattr(symbolic, "polarized_defect_sweep", None)  # a sweep would call it
        with pytest.raises(ValueError, match=r"^a sweep of degrees 3 \(498501 operations a "
                           r"point\) on 20 basis elements, at 80 steps a product, has size %d, "
                           "above the cap" % (1540 * 498501 * 80)):
            check_identity_on_algebra(A, lhs, rhs)
    # On albert5 it fits: K = 400 took 3.8-4.9 s and K = 998 24-26 s (2 vCPUs).
    for K in (400, 998):
        lhs, rhs = alpha_shift_sum(K)
        assert identity_sweep_size(a230, lhs - rhs, {"x": 3}) == 35 * 44 * K * (K + 1) // 2
    assert check_identity_on_algebra(a230, *alpha_shift_sum(20)).passed


def test_sweep_streams_its_outermost_group(tmp_path):
    # A list of the C(66, 3) = 45,760 degree-3 points at dim 64 would take
    # about 30 MB; a sweep that fails at its first point builds one of them.
    save_dim64_table(tmp_path / "dim64.json")
    A = core.load_algebra(str(tmp_path / "dim64.json"))
    one = [1] + [0] * (A.dim - 1)
    tracemalloc.start()
    try:
        rep = polarized_defect_sweep(A, 3, lambda x: [("tag", one, 1)], "law")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not rep.passed and rep.witness == ((0, 0, 0), "tag")
    assert peak < 1e6, peak


def test_checker_guards(a230, non_multiplicative):
    with pytest.raises(ValueError):
        check_nth_hom_power_associative(a230, 0)
    with pytest.raises(ValueError, match="multiplicative"):
        check_nth_hom_power_associative(non_multiplicative, 3)
    with pytest.raises(ValueError, match="multiplicative"):
        check_third_fourth_criterion(non_multiplicative)


def test_sweep_evaluates_each_lattice_point_once(a230):
    # Degree 3 at dim 5: the C(7, 3) = 35 points x_M, |M| = 3, in multiset order.
    seen = []

    def fn(x):
        seen.append(x)
        return [("zero", [0] * len(x), 1)]

    assert polarized_defect_sweep(a230, 3, fn, "zero").passed
    assert seen == [_lattice_point(5, M) for M in combinations_with_replacement(range(5), 3)]
    assert len(set(seen)) == 35 and all(sum(x) == 3 for x in seen)


def test_sweep_reports_the_first_failing_tag_in_callback_order(a230):
    # Tags are not sorted: both defects fail, and "b" comes first.
    rep = polarized_defect_sweep(
        a230, 1, lambda x: [("b", x, 1), ("a", [2 * a for a in x], 1)], "order")
    assert not rep.passed
    assert rep.witness == ((0,), "b") and rep.lhs == a230.basis_element(0)


# -- the suite's rows against a reference on Elements -------------------------------


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(st.integers(0, 6), min_size=1, max_size=9).map(lambda v: tuple(sorted(v))))
def test_lattice_point_is_the_sum_of_the_multisets_basis_elements(M):
    x = _lattice_point(7, M)
    assert sum(x) == len(M) and tuple(i for i, m in enumerate(x) for _ in range(m)) == M


def reference_rows(A, nmax):
    """The powers suite's rows by plain per-row lattice sweeps on Elements:
    each n checks every split i = 1..n-1 and the criterion its own third and
    fourth defects; powers come from mul and apply_alpha (conftest.hom_power),
    not from the free algebra."""

    def splits(n):
        def defects(x):
            xn = hom_power(A, x, n)
            return [(i, xn - hom_power_pair(A, x, n - i, i)) for i in range(1, n)]
        return defects

    def third(x):
        x2, ax = hom_power(A, x, 2), apply_alpha(A, x)
        return [("third", mul(A, x2, ax) - mul(A, ax, x2))]

    def fourth(x):
        ax2 = hom_power(A, x, 2, 1)
        return [("fourth", hom_power(A, x, 4) - mul(A, ax2, ax2))]

    rows = []
    for n in range(2, nmax + 1):
        rep = lattice_sweep(A, n, "hom-power-associative(n=%d)" % n, splits(n))
        rep = rep._replace(
            note="lattice sweep %s" % ("proved it" if rep.passed else "found the failure"))
        rows.append(rep)
    law = "third-fourth-power-criterion"
    rep = lattice_sweep(A, 3, law, third)
    if rep.passed:
        rep = lattice_sweep(A, 4, law, fourth)
    rep = rep._replace(note="lattice sweep found the failure" if not rep.passed else (
        "both lattice sweeps proved it"))
    return rows + [rep]


def suite_rows(A, nmax):
    return [check() for check in _suite_powers(A, argparse.Namespace(nmax=nmax), None)]


def random_commutative(seed, dim=3):
    """A seeded commutative integer table with alpha = Id: multiplicative,
    and x^3 = x^(1,2) holds by commutativity, while n = 4 fails."""
    rng = random.Random(seed)
    mu = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            mu[i][j] = mu[j][i] = [qq(rng.randint(-3, 3)) for _ in range(dim)]
    return HomAlgebra(dim, ["e%d" % i for i in range(dim)], mu, identity_matrix(dim))


def cycle(perm, k):
    """k's cycle under the permutation perm, from k."""
    out = [k]
    while perm[out[-1]] != k:
        out.append(perm[out[-1]])
    return out


def permutation_twisted(seed, dim):
    """A seeded integer table whose alpha permutes the basis by a random
    sigma != id, with mu(e_sigma(i), e_sigma(j)) = sigma(mu(e_i, e_j)): so
    alpha is a morphism and the table multiplicative with alpha != Id.
    Each orbit of sigma on basis pairs gets one random product, about half
    of its constants zero so that some rows fail past the first lattice
    point; sigma^L, L the orbit's length, must fix it, so it is constant
    on the cycles of sigma^L."""
    rng = random.Random(seed)
    sigma = list(range(dim))
    while sigma == sorted(sigma):
        rng.shuffle(sigma)
    mu = [[None] * dim for _ in range(dim)]
    for i, j in product(range(dim), repeat=2):
        if mu[i][j] is not None:
            continue
        orbit = [(i, j)]
        while (step := (sigma[orbit[-1][0]], sigma[orbit[-1][1]])) != (i, j):
            orbit.append(step)
        power = list(range(dim))
        for _ in orbit:
            power = [sigma[k] for k in power]
        roots = [min(cycle(power, k)) for k in range(dim)]
        value = {r: rng.choice((-2, -1, 0, 0, 0, 1, 2)) for r in sorted(set(roots))}
        row = [value[r] for r in roots]
        for a, b in orbit:
            mu[a][b] = [qq(c) for c in row]
            row = [row[sigma.index(k)] for k in range(dim)]  # sigma(row)
    alpha = Matrix.from_rows([[qq(int(sigma[i] == k)) for k in range(dim)] for i in range(dim)])
    return HomAlgebra(dim, ["e%d" % i for i in range(dim)], mu, alpha)


FIELDS = ("passed", "law", "witness", "lhs", "rhs", "note")


def assert_rows_agree(A, nmax):
    got, want = suite_rows(A, nmax), reference_rows(A, nmax)
    assert [[getattr(r, f) for f in FIELDS] for r in got] == [
        [getattr(r, f) for f in FIELDS] for r in want]
    return got


# n = 6 on the dim-10 sum would add seconds to tier-1; nmax 5 covers it.
@pytest.mark.parametrize("name,nmax", [(name, nmax) for name in SIX for nmax in (2, 3, 5, 6)
                                       if nmax < 6 or name != "sum-dim10"])
def test_suite_rows_equal_per_row_reference_sweeps(name, nmax):
    rows = assert_rows_agree(six_algebra(name), nmax)
    assert rows[-1].passed == SIX[name]


@pytest.mark.parametrize("nmax", [2, 3, 5, 6])
@pytest.mark.parametrize("seed", range(4))
def test_suite_rows_equal_reference_on_random_commutative_tables(seed, nmax):
    A = random_commutative(seed)
    *powers, criterion = assert_rows_agree(A, nmax)
    assert all(r.passed for r in powers[:2])  # n = 2, 3
    if nmax >= 4:
        assert not powers[2].passed and powers[2].witness[1] == 2
    assert not criterion.passed and criterion.witness[1] == "fourth"


@pytest.mark.parametrize("dim", [3, 4, 5])
def test_suite_rows_equal_reference_on_permutation_twisted_tables(dim):
    # alpha = Id tables cannot tell alpha^k(T) from T, and most fail at the
    # first lattice point; these have alpha != Id and failures further on.
    first = later = 0
    for seed in range(30):
        A = permutation_twisted(seed, dim)
        assert core.is_multiplicative(A).passed and A.alpha != identity_matrix(dim)
        for rep in assert_rows_agree(A, 5):
            if not rep.passed:
                M = rep.witness[0]
                first += M == (0,) * len(M)
                later += M != (0,) * len(M)
    assert first and later, (first, later)


def test_n2_row_makes_no_product(a230, bad_algebra, monkeypatch):
    for A in (a230, bad_algebra):
        core.is_multiplicative(A)
        products = record_calls(monkeypatch, core, "mul_nums")
        made = []
        for check in _suite_powers(A, argparse.Namespace(nmax=5), None):
            before = len(products)
            check()
            made.append(len(products) - before)
        # rows n = 2, 3, 4, 5, then the criterion, which sweeps its own two laws
        assert made[0] == 0 and min(made[1:]) > 0, made
        monkeypatch.undo()


def test_powers_suite_memory_is_bounded():
    # The dim-10 direct sum at the default nmax peaks at 1.2 MB under
    # tracemalloc on Python 3.11 (2.3 MB when the memo kept every
    # sub-multiset's defects for inclusion-exclusion).  When each row kept
    # its own defects and every outer multiset's sign list, it peaked at 9.9 MB.
    A = six_algebra("sum-dim10")
    core.is_multiplicative(A)
    tracemalloc.start()
    try:
        rows = suite_rows(A, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(r.passed for r in rows)
    assert peak < 4e6, peak


# -- the powers rows against the identity route ------------------------------------------


def power_text(n):
    """x^n in the identity DSL."""
    return "x" if n == 1 else "(mul %s (a %d x))" % (power_text(n - 1), n - 2)


def pair_text(i, j):
    """x^(i,j) in the identity DSL."""
    return "(mul (a %d %s) (a %d %s))" % (j - 1, power_text(i), i - 1, power_text(j))


def sparse_identity_table(seed):
    """A seeded sparse integer table with alpha = Id, of dim 3 to 5, made
    commutative for even seeds (so x^3 = x^(1,2) holds): some rows fail past
    the first lattice point and some pass."""
    rng = random.Random(seed)
    dim = 3 + seed % 3
    mu = [[[qq(rng.choice((-2, -1, 1, 2)) if rng.random() < 0.2 else 0) for _ in range(dim)]
           for _ in range(dim)] for _ in range(dim)]
    if seed % 2 == 0:
        mu = [[mu[min(i, j)][max(i, j)] for j in range(dim)] for i in range(dim)]
    return HomAlgebra(dim, ["e%d" % i for i in range(dim)], mu, identity_matrix(dim))


def test_power_rows_agree_with_the_identity_route():
    # A row that fails at (M, i) fails as the identity x^n = x^(n-i,i), typed
    # in the DSL, at x = x_M with the same defect; a row that passes passes
    # as each of its splits.
    algebras = [six_algebra("random-00"), six_algebra("random-00-rational"),
                *map(sparse_identity_table, range(12))]
    verdicts = []
    for A in algebras:
        for n in range(3, 6):
            row = check_nth_hom_power_associative(A, n)
            verdicts.append(row.passed)
            for i in range(2, n) if row else [row.witness[1]]:
                rep = check_identity_on_algebra(
                    A, *parse_identity("(= %s %s)" % (power_text(n), pair_text(n - i, i))))
                if row:
                    assert rep.passed, (A, n, i)
                else:
                    assert not rep.passed, (A, n, i)
                    assert rep.witness == (("x", row.witness[0]),) and rep.lhs == row.lhs
    assert 0 < sum(verdicts) < len(verdicts)
