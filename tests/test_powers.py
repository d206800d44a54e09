import argparse
import random
import time
import tracemalloc
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homalt import core
from homalt.cli import _suite_powers
from homalt.core import HomAlgebra, apply_alpha, mul
from homalt.linalg import identity_matrix, qq
from homalt.powers import (
    MAX_SWEEP,
    PowerTable,
    _lattice_point,
    check_nth_hom_power_associative,
    check_third_fourth_criterion,
    polarized_defect_sweep,
    sweep_size,
)
from homalt.symbolic import identity_registry

from conftest import SIX, lattice_point, lattice_sweep, random_element, six_algebra
from test_cli import record_calls


def diagonal_associative():
    """dim-3 commutative associative algebra: e_i e_j = delta_ij e_i, alpha = Id."""
    mu = [[[qq(1) if i == j == k else qq(0) for k in range(3)] for j in range(3)]
          for i in range(3)]
    return HomAlgebra(3, ("p", "q", "r"), mu, identity_matrix(3))


# -- the recursion, transcribed straight-line ------------------------------------


def test_hom_power_against_straight_line_recursion(twisted):
    rng = random.Random(6)
    for _ in range(5):
        x = random_element(twisted, rng)
        x2 = mul(twisted, x, x)
        x3 = mul(twisted, x2, apply_alpha(twisted, x))
        a2x = apply_alpha(twisted, apply_alpha(twisted, x))
        x4 = mul(twisted, x3, a2x)
        x5 = mul(twisted, x4, apply_alpha(twisted, a2x))
        x6 = mul(twisted, x5, apply_alpha(twisted, apply_alpha(twisted, a2x)))
        t = PowerTable(twisted, x)
        assert [t.power(n) for n in range(1, 7)] == [x, x2, x3, x4, x5, x6]


def test_hom_power_pair_definition(a230):
    rng = random.Random(8)
    x = random_element(a230, rng)
    t = PowerTable(a230, x)
    for i in range(1, 5):
        for j in range(1, 5):
            want = mul(
                a230,
                t.alpha_power(i, j - 1),
                t.alpha_power(j, i - 1),
            )
            assert t.pair(i, j) == want
            assert PowerTable(a230, x).pair(i, j) == want


def test_pair_with_one_is_the_power(a230):
    rng = random.Random(10)
    for _ in range(5):
        t = PowerTable(a230, random_element(a230, rng))
        for n in range(2, 9):
            assert t.pair(n - 1, 1) == t.power(n)


def test_power_table_guards(a230):
    t = PowerTable(a230, a230.basis_element(0))
    with pytest.raises(ValueError):
        t.power(0)
    with pytest.raises(ValueError):
        t.pair(0, 1)


# -- power associativity across every split ----------------------------------------


def test_all_pairs_agree_on_twisted(twisted):
    rng = random.Random(12)
    for _ in range(10):
        t = PowerTable(twisted, random_element(twisted, rng))
        for n in range(2, 9):
            xn = t.power(n)
            for i in range(1, n):
                assert t.pair(n - i, i) == xn


def test_induction_identity(twisted):
    # 2 x^{n-(i+1), i+1} = x^n + x^{n-i, i} for 1 <= i <= n-2
    rng = random.Random(14)
    for _ in range(5):
        t = PowerTable(twisted, random_element(twisted, rng))
        for n in range(3, 9):
            for i in range(1, n - 1):
                lhs = t.pair(n - (i + 1), i + 1).scale(qq(2))
                rhs = t.power(n) + t.pair(n - i, i)
                assert lhs == rhs


def test_alpha_commutes_with_powers(twisted):
    rng = random.Random(16)
    for _ in range(5):
        x = random_element(twisted, rng)
        for n in range(1, 7):
            assert apply_alpha(twisted, PowerTable(twisted, x).power(n)) == PowerTable(
                twisted, apply_alpha(twisted, x)).power(n)


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
        t = PowerTable(A, random_element(A, rng))
        if any(t.pair(n - i, i) != t.power(n) for i in range(1, n)):
            return False
    return True


def sampled_third_fourth(A, samples=25, seed=0):
    """x^2 alpha(x) == alpha(x) x^2 and x^4 == alpha(x^2) alpha(x^2) on seeded random x."""
    rng = random.Random(seed)
    for _ in range(samples):
        x = random_element(A, rng)
        t = PowerTable(A, x)
        ax, ax2 = apply_alpha(A, x), apply_alpha(A, t.power(2))
        if mul(A, t.power(2), ax) != mul(A, ax, t.power(2)) or t.power(4) != mul(A, ax2, ax2):
            return False
    return True


def power_defect(A, n, i):
    def fn(x):
        t = PowerTable(A, x)
        return t.power(n) - t.pair(n - i, i)
    return fn


def third_defect(A):
    def fn(x):
        x2, ax = PowerTable(A, x).power(2), apply_alpha(A, x)
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


def test_default_sweeps_fit_the_cap_up_to_dim_20():
    # powers at the default --nmax 5, third/fourth, Jordan on A+, and the
    # largest registry identity, associator-tail
    assert sweep_size(20, (5,)) == 1360128
    for degrees in ((3,), (4,), *(tuple(i.degrees.values()) for i in identity_registry().values())):
        assert sweep_size(20, degrees) <= MAX_SWEEP
    assert sweep_size(20, (1, 2, 2)) == 28224000


def test_cap_refuses_huge_sweeps_before_any_work(a230):
    with pytest.raises(ValueError, match="has size 50135040, above the cap of %d"
                       % MAX_SWEEP):
        sweep_size(5, (14,))
    for ident in identity_registry().values():
        with pytest.raises(ValueError, match="above the cap"):
            sweep_size(64, tuple(ident.degrees.values()))
    start = time.perf_counter()
    with pytest.raises(ValueError, match="above the cap"):
        check_nth_hom_power_associative(a230, 40)
    assert time.perf_counter() - start < 1.0


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


# -- one defect memo per powers suite ------------------------------------------------


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(st.integers(0, 6), min_size=1, max_size=9).map(lambda v: tuple(sorted(v))))
def test_lattice_point_is_the_sum_of_the_multisets_basis_elements(M):
    x = _lattice_point(7, M)
    assert sum(x) == len(M) and tuple(i for i, m in enumerate(x) for _ in range(m)) == M


def reference_rows(A, nmax):
    """The powers suite's rows by plain per-row lattice sweeps on Elements:
    each n checks every split i = 1..n-1 and the criterion its own third and
    fourth defects, with no DefectMemo; powers come from mul and apply_alpha,
    not PowerTable."""

    def power(x, n):  # alpha^k(x^n) by the recursions, on Elements
        return x if n == 1 else mul(A, power(x, n - 1), alpha(x, 1, n - 2))

    def alpha(x, n, k):
        return power(x, n) if k == 0 else apply_alpha(A, alpha(x, n, k - 1))

    def splits(n):
        def defects(x):
            xn = power(x, n)
            return [(i, xn - mul(A, alpha(x, n - i, i - 1), alpha(x, i, n - i - 1)))
                    for i in range(1, n)]
        return defects

    def third(x):
        x2, ax = power(x, 2), apply_alpha(A, x)
        return [("third", mul(A, x2, ax) - mul(A, ax, x2))]

    def fourth(x):
        ax2 = apply_alpha(A, power(x, 2))
        return [("fourth", power(x, 4) - mul(A, ax2, ax2))]

    rows = []
    for n in range(2, nmax + 1):
        rep = lattice_sweep(A, n, "hom-power-associative(n=%d)" % n, splits(n))
        rep.note = "lattice sweep %s" % ("proved it" if rep.passed else "found the failure")
        rows.append(rep)
    law = "third-fourth-power-criterion"
    rep = lattice_sweep(A, 3, law, third)
    if rep.passed:
        rep = lattice_sweep(A, 4, law, fourth)
    rep.note = "lattice sweep found the failure" if not rep.passed else (
        "both lattice sweeps proved it")
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


def test_n2_and_criterion_rows_make_no_product(a230, bad_algebra, monkeypatch):
    for A in (a230, bad_algebra):
        core.is_multiplicative(A)
        products = record_calls(monkeypatch, core, "mul_nums")
        made = []
        for check in _suite_powers(A, argparse.Namespace(nmax=5), None):
            before = len(products)
            check()
            made.append(len(products) - before)
        # rows n = 2, 3, 4, 5, then the criterion
        assert made[0] == made[-1] == 0 and min(made[1:-1]) > 0, made
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
