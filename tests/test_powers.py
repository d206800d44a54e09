import argparse
import random
import time
import tracemalloc
from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homalt import core
from homalt.cli import _suite_powers
from homalt.core import CheckReport, HomAlgebra, apply_alpha, mul
from homalt.linalg import identity_matrix, qq
from homalt.powers import (
    MAX_SWEEP,
    PowerTable,
    _signed_submultisets,
    check_nth_hom_power_associative,
    check_third_fourth_criterion,
    hom_power,
    hom_power_pair,
    polarized_defect_sweep,
    subset_sum_defects,
    sweep_size,
)
from homalt.symbolic import identity_registry

from conftest import SIX, random_element, six_algebra
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
        assert hom_power(twisted, x, 1) == x
        assert hom_power(twisted, x, 2) == x2
        assert hom_power(twisted, x, 3) == x3
        assert hom_power(twisted, x, 4) == x4
        assert hom_power(twisted, x, 5) == x5
        assert hom_power(twisted, x, 6) == x6


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
            assert hom_power_pair(a230, x, i, j) == want


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
            assert apply_alpha(twisted, hom_power(twisted, x, n)) == hom_power(
                twisted, apply_alpha(twisted, x), n
            )


def test_checkers_pass_on_twisted(twisted):
    for n in range(2, 9):
        rep = check_nth_hom_power_associative(twisted, n)
        assert rep.passed and rep.note == "polarized sweep proved it"
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


def polarized(A, M, fn):
    """sum over nonempty slot subsets S of (-1)^(d-|S|) fn(x_S), x_S the sum of
    the basis elements M indexes at S: the polarized form of fn at M, with
    every subset summed on its own (no multiset collapsing)."""
    d = len(M)
    total = A.zero()
    for r in range(1, d + 1):
        for S in combinations(M, r):
            x = sum((A.basis_element(i) for i in S), A.zero())
            total = total + fn(x).scale((-1) ** (d - r))
    return total


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
            assert rep.lhs == polarized(A, M, power_defect(A, n, i)) != A.zero()
    rep = check_third_fourth_criterion(A)
    assert rep.passed == sampled_third_fourth(A) == SIX[name]
    if not rep.passed:
        assert rep.witness[1] == "third"
        assert rep.lhs == polarized(A, rep.witness[0], third_defect(A)) != A.zero()


# -- failures ------------------------------------------------------------------------


def test_fixture_fails_small_powers(bad_algebra):
    assert check_nth_hom_power_associative(bad_algebra, 2).passed  # trivially
    rep3 = check_nth_hom_power_associative(bad_algebra, 3)
    assert not rep3.passed
    assert rep3.witness == ((0, 0, 0), 2)
    assert rep3.note == "polarized sweep found the failure"
    # the witness replays: the polarized defect at (0, 0, 0) is 3! (x^3 - x^(1,2)) at e_0
    e = bad_algebra.basis_element(0)
    assert rep3.lhs == power_defect(bad_algebra, 3, 2)(e).scale(6) != bad_algebra.zero()
    assert rep3.rhs == bad_algebra.zero()
    assert not check_nth_hom_power_associative(bad_algebra, 4).passed


def test_fixture_witness_reproducible(bad_algebra):
    a = check_nth_hom_power_associative(bad_algebra, 3)
    b = check_nth_hom_power_associative(bad_algebra, 3)
    assert a.witness == b.witness == ((0, 0, 0), 2)
    assert a.lhs == b.lhs
    assert repr(a.lhs) == "-12*b - 24*c"


def test_fixture_fails_third_fourth(bad_algebra):
    rep = check_third_fourth_criterion(bad_algebra)
    assert not rep.passed
    M, tag = rep.witness
    assert (M, tag) == ((0, 0, 0), "third")
    # the third-power criterion x^2 alpha(x) = alpha(x) x^2, polarized at M
    assert rep.lhs == polarized(bad_algebra, M, third_defect(bad_algebra)) != bad_algebra.zero()


# -- the sweep-size cap --------------------------------------------------------------


def test_default_sweeps_fit_the_cap_up_to_dim_20():
    # powers at the default --nmax 5, third/fourth, Jordan on A+, and the
    # largest registry identity, associator-tail
    assert sweep_size(20, (5,)) == 1360128
    for degrees in ((3,), (4,), *(tuple(i.degrees.values()) for i in identity_registry().values())):
        assert sweep_size(20, degrees) <= MAX_SWEEP
    assert sweep_size(20, (1, 2, 2)) == 28224000


def test_cap_refuses_huge_sweeps_before_any_work(a230):
    with pytest.raises(ValueError, match="makes 50135040 evaluations, above the cap of %d"
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


def test_subset_sum_defects_evaluates_each_sub_multiset_once(a230):
    # Degree 3 at dim 5: 5 + 15 + 35 sub-multisets of sizes 1, 2 and 3,
    # though the sweep asks for 7 of them at each of its 35 multisets.
    seen = []

    def fn(x):
        seen.append(x)
        return [("zero", x - x)]

    assert polarized_defect_sweep(a230, 3, subset_sum_defects(a230, fn), "zero").passed
    assert len(seen) == 5 + 15 + 35 == len(set(seen))


def test_sweep_reports_the_first_failing_tag_in_callback_order(a230):
    # Tags are not sorted: both defects fail, and "b" comes first.
    rep = polarized_defect_sweep(
        a230, 1, subset_sum_defects(a230, lambda x: [("b", x), ("a", x.scale(2))]), "order")
    assert not rep.passed
    assert rep.witness == ((0,), "b") and rep.lhs == a230.basis_element(0)


# -- one defect memo per powers suite ------------------------------------------------


def slot_mask_submultisets(M):
    """The inclusion-exclusion over M's slots, one slot subset at a time:
    [(sorted sub-multiset, summed sign)] over all 2^d - 1 nonempty masks."""
    d = len(M)
    signed = {}
    for mask in range(1, 1 << d):
        sub = tuple(sorted(M[t] for t in range(d) if mask >> t & 1))
        signed[sub] = signed.get(sub, 0) + (-1) ** (d - len(sub))
    return sorted(signed.items())


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(st.integers(0, 6), min_size=1, max_size=9).map(lambda v: tuple(sorted(v))))
def test_multiplicity_form_is_the_slot_mask_enumeration(M):
    assert _signed_submultisets(M) == slot_mask_submultisets(M)


def reference_rows(A, nmax):
    """The powers suite's rows by plain per-row sweeps: each n checks every
    split i = 1..n-1 and the criterion its own third and fourth defects,
    each sweep with its own memo, slot-mask signs and no DefectMemo."""

    def sweep(degree, law, defects):
        memo = {}
        for M in combinations_with_replacement(range(A.dim), degree):
            signed = slot_mask_submultisets(M)
            for sub, _ in signed:
                if sub not in memo:
                    memo[sub] = defects(sum((A.basis_element(v) for v in sub), A.zero()))
            for k, (tag, _) in enumerate(memo[signed[0][0]]):
                acc = A.zero()
                for sub, cnt in signed:
                    acc = acc + memo[sub][k][1].scale(cnt)
                if not acc.is_zero():
                    return CheckReport(False, law, (M, tag), acc, A.zero())
        return CheckReport(True, law)

    def splits(n):
        def defects(x):
            t = PowerTable(A, x)
            return [(i, t.power(n) - t.pair(n - i, i)) for i in range(1, n)]
        return defects

    def third(x):
        x2, ax = hom_power(A, x, 2), apply_alpha(A, x)
        return [("third", mul(A, x2, ax) - mul(A, ax, x2))]

    def fourth(x):
        ax2 = apply_alpha(A, hom_power(A, x, 2))
        return [("fourth", hom_power(A, x, 4) - mul(A, ax2, ax2))]

    rows = []
    for n in range(2, nmax + 1):
        rep = sweep(n, "hom-power-associative(n=%d)" % n, splits(n))
        rep.note = "polarized sweep %s" % ("proved it" if rep.passed else "found the failure")
        rows.append(rep)
    law = "third-fourth-power-criterion"
    rep = sweep(3, law, third)
    if rep.passed:
        rep = sweep(4, law, fourth)
    rep.note = "polarized sweep found the failure" if not rep.passed else (
        "both polarized sweeps proved it")
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
        products = record_calls(monkeypatch, core, "mul")
        made = []
        for check in _suite_powers(A, argparse.Namespace(nmax=5), None):
            before = len(products)
            check()
            made.append(len(products) - before)
        # rows n = 2, 3, 4, 5, then the criterion
        assert made[0] == made[-1] == 0 and min(made[1:-1]) > 0, made
        monkeypatch.undo()


def test_powers_suite_memory_is_bounded():
    # The dim-10 direct sum at the default nmax peaks at 2.3 MB under
    # tracemalloc on Python 3.10, 3.11 and 3.13.  When each row kept its own
    # defects and every outer multiset's sign list, it peaked at 9.9 MB.
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
