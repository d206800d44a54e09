"""Acceptance suite: one test (and one printed verdict line) per criterion.

Run with `pytest tests/test_acceptance.py -v` to get a pass/fail line
per criterion; add -rA to see the printed verdict summaries.
"""

import copy
import json
import random

from homalt.cli import main
from homalt.constructions import (
    AlbertParams,
    albert5_alpha,
    albert5_base,
    albert5_twisted,
    hom_module_distinguish,
    yau_twist,
)
from homalt.core import (
    algebra_from_json,
    algebra_to_json,
    apply_alpha,
    hom_associator,
    is_left_hom_alternative,
    is_multiplicative,
    is_right_hom_alternative,
    load_algebra,
    mul,
)
from homalt.idempotents import albert_decomposition
from homalt.jordan import check_hom_jordan_admissible
from homalt.linalg import (
    Matrix,
    char_poly,
    format_scalar,
    kernel_basis,
    mat_mul,
    parse_scalar,
    qq,
    rank,
)
from homalt.operators import (
    build_T,
    check_idempotent_operator_suite,
    check_mul_operator_identities,
    left_op,
    op_commutator,
    right_op,
)
from homalt.powers import check_nth_hom_power_associative, check_third_fourth_criterion
from homalt.symbolic import (
    build_instance,
    check_identity_on_algebra,
    hom_teichmuller_terms,
    identity_registry,
    load_certificates,
    shipped_certificate_report,
    specialize_classical,
    var,
    verify_certificate,
    verify_hom_teichmuller,
)

from conftest import (FIXTURES, TWIST_TRIPLES, hom_power, hom_power_pair, random_element,
                      untwisted_alpha)
from test_constructions import random_params
from test_core import same_algebra
from test_idempotents import is_direct
from test_jordan import ADMISSIBLE_NOTE, direct_sweep

BAD = str(FIXTURES / "non_right_alt_dim3.json")


class verdict:
    """Prints ACCEPTANCE CRITERION k: PASS/FAIL after the checks run."""

    def __init__(self, k, text):
        self.k = k
        self.text = text

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        tag = "PASS" if exc_type is None else "FAIL"
        print("ACCEPTANCE CRITERION %d: %s — %s" % (self.k, tag, self.text))
        return False


def algebra_family():
    """The three named twists plus ten seeded random twists of the base."""
    algebras = [albert5_twisted(AlbertParams(*t)) for t in TWIST_TRIPLES]
    base = albert5_base()
    rng = random.Random(42)
    for _ in range(10):
        algebras.append(yau_twist(base, albert5_alpha(random_params(rng))))
    return algebras


def test_criterion_01_twisted_example_reproduction():
    with verdict(1, "base and twisted example algebras behave as claimed"):
        base = albert5_base()
        assert is_right_hom_alternative(base).passed
        assert not is_left_hom_alternative(base).passed

        for triple in TWIST_TRIPLES:
            params = AlbertParams(*triple)
            A = albert5_twisted(params)
            assert is_multiplicative(A).passed
            assert is_right_hom_alternative(A).passed

            e, u, v = A.basis_element(0), A.basis_element(1), A.basis_element(2)
            d = params.delta
            assert hom_associator(A, e, e, u) == v.scale(d * d)

            # the same product table with alpha = Id is NOT right alternative
            ordinary = untwisted_alpha(A)
            assert not is_right_hom_alternative(ordinary).passed
            ou, oe = ordinary.basis_element(1), ordinary.basis_element(0)
            defect = ou.scale(d * d - d)
            assert hom_associator(ordinary, ou, oe, oe) == defect

        assert hom_module_distinguish(
            albert5_twisted(AlbertParams(2, 3, 0)),
            albert5_twisted(AlbertParams(5, 7, 0)),
        )


def test_criterion_02_hom_power_associativity():
    with verdict(2, "n-th Hom-power associativity proved for n in [2,5] and by the "
                 "third/fourth criterion, sampled for n in [6,8], across 13 algebras"):
        for A in algebra_family():
            for n in range(2, 6):
                rep = check_nth_hom_power_associative(A, n)
                assert rep.passed, (A.dim, n, rep.witness)
                assert rep.note == "lattice sweep proved it"
            # with multiplicativity and right Hom-alternativity, this gives every n
            assert check_third_fourth_criterion(A).passed

            # every split of x^n on seeded samples, and the doubling identity
            # behind the induction step (tests/test_powers.py proves n <= 8
            # on the three named twists)
            rng = random.Random(6)
            for _ in range(5):
                x = random_element(A, rng)
                for n in range(3, 9):
                    xn = hom_power(A, x, n)
                    pairs = {i: hom_power_pair(A, x, n - i, i) for i in range(1, n)}
                    assert all(pair == xn for pair in pairs.values())
                    for i in range(1, n - 1):
                        assert pairs[i + 1].scale(qq(2)) == xn + pairs[i]


def test_criterion_03_hom_jordan_admissibility():
    with verdict(3, "Hom-Jordan admissibility, with the direct form as reference, all 13 algebras"):
        for A in algebra_family():
            rep = check_hom_jordan_admissible(A)
            assert rep.passed
            assert rep.note == ADMISSIBLE_NOTE
            assert direct_sweep(A).passed


def test_criterion_04_idempotent_decomposition():
    with verdict(4, "idempotent decomposition is direct, exhaustive, alpha-closed"):
        A = albert5_twisted(AlbertParams(2, 3, 0))
        e = A.basis_element(0)
        dec = albert_decomposition(A, e)
        assert dec.spans_all and is_direct(dec)
        assert len(dec.part_alpha) + len(dec.part_zero) == A.dim == 5

        def closed_under_alpha(part):
            rows = [list(b.coords.entries) for b in part]
            r = rank(Matrix.from_rows(rows))
            for b in part:
                ab = apply_alpha(A, b)
                assert rank(Matrix.from_rows(rows + [list(ab.coords.entries)])) == r

        closed_under_alpha(dec.part_alpha)
        closed_under_alpha(dec.part_zero)

        # alpha = Id recovers the classical eigenvalue-1 / eigenvalue-0 split
        B = albert5_base()
        eb = B.basis_element(0)
        classical = albert_decomposition(B, eb)
        assert classical.spans_all and is_direct(classical)
        assert eb in classical.part_alpha
        for b in classical.part_alpha:
            assert mul(B, b, eb) == b  # A_e(1) in the classical sense
        for b in classical.part_zero:
            assert mul(B, b, eb).is_zero()


def test_criterion_05_operator_calculus():
    with verdict(5, "operator identities hold as exact 5x5 matrix identities"):
        A = albert5_twisted(AlbertParams(2, 3, 0))
        e = A.basis_element(0)
        L = left_op(A, e)
        R = right_op(A, e)
        al = A.alpha
        zero = Matrix.zero(5, 5)
        T = build_T(A, e)

        for n in range(6):
            assert R ** (n + 1) == (al ** n) * R
        lsq = L * L - al * L
        assert lsq == op_commutator(L, R)
        assert op_commutator(al, L) == zero
        assert op_commutator(al, R) == zero
        assert (lsq * lsq) == zero
        lr = op_commutator(L, R)
        assert (lr * lr) == zero
        assert L * R * L == al * L * R
        assert L ** 3 - al * (L ** 2) == al * L * R - R * L * R
        for n in range(1, 5):
            assert T ** (n + 1) == (al ** (4 * n)) * T
        assert op_commutator(T, R) == zero

        rep = check_idempotent_operator_suite(A, e)
        assert rep.passed and rep.note == (
            "10 identities verified; by induction R^(n+1) = alpha^n R and "
            "T^(n+1) = alpha^(4n) T for every n >= 1")


def test_criterion_06_associator_identities():
    with verdict(6, "all six associator identities pass the lattice sweep"):
        reg = identity_registry()
        for triple in TWIST_TRIPLES:
            A = albert5_twisted(AlbertParams(*triple))
            for name, idf in reg.items():
                rep = check_identity_on_algebra(A, idf.lhs, idf.rhs, name)
                assert rep.passed, (triple, name)

        base = albert5_base()
        for name, idf in reg.items():
            lhs = specialize_classical(idf.lhs)
            rhs = specialize_classical(idf.rhs)
            rep = check_identity_on_algebra(base, lhs, rhs, name)
            assert rep.passed, name


def test_criterion_07_symbolic_certificates():
    with verdict(7, "five-term cancellation and all certificates, corruption-sensitive"):
        assert verify_hom_teichmuller()
        terms = hom_teichmuller_terms(var("w"), var("x"), var("y"), var("z"))
        assert sum(t.num_terms() for t in terms) == 10

        reports = {name: shipped_certificate_report(name) for name in load_certificates()}
        required = {
            "assoc-shift",
            "assoc-shift-linear",
            "commutator-exchange",
            "middle-square",
            "associator-tail",
        }
        assert required <= set(reports)
        for name, rep in reports.items():
            assert rep.passed, name

        data = load_certificates()
        for name, entry in data.items():
            for inst in entry["instances"]:
                coeff, poly = build_instance(inst)
                assert coeff != 0 and not poly.is_zero()
            for i in range(len(entry["instances"])):
                bad = copy.deepcopy(entry["instances"])
                bad[i] = dict(
                    bad[i], coeff=format_scalar(parse_scalar(bad[i]["coeff"]) + 1)
                )
                ok, residue = verify_certificate(name, bad)
                assert not ok and not residue.is_zero()


def test_criterion_08_negative_controls():
    with verdict(8, "the frozen counterexample fails all four checks reproducibly"):
        bad = load_algebra(BAD)

        r1 = is_right_hom_alternative(bad)
        assert not r1.passed and r1.witness == (0, 0, 0)
        assert is_right_hom_alternative(bad).witness == r1.witness

        r2 = check_third_fourth_criterion(bad)
        assert not r2.passed and r2.witness == ((0, 0, 0), "third")
        assert check_third_fourth_criterion(bad).witness == r2.witness

        r3 = check_hom_jordan_admissible(bad)
        assert not r3.passed and r3.witness is not None
        assert check_hom_jordan_admissible(bad).witness == r3.witness

        r4 = check_mul_operator_identities(bad)
        assert not r4.passed and r4.witness == (0, 0)
        assert check_mul_operator_identities(bad).witness == r4.witness


def test_criterion_09_infrastructure(capsys):
    with verdict(9, "JSON round-trips, deterministic reports, linalg invariants"):
        for triple in TWIST_TRIPLES:
            A = albert5_twisted(AlbertParams(*triple))
            assert same_algebra(algebra_from_json(algebra_to_json(A)), A)
        assert same_algebra(algebra_from_json(algebra_to_json(albert5_base())),
                            albert5_base())

        argv = ["check", "albert5", "--twist", "2,3,0", "--output", "json"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        assert json.loads(first)["passed"] is True

        # kernel and characteristic polynomial invariants
        al = albert5_alpha(AlbertParams(2, 3, 0))
        assert rank(al) + len(kernel_basis(al)) == 5
        cp = char_poly(al)
        assert cp == [qq(1), qq(-11), qq(47), qq(-97), qq(96), qq(-36)]
        acc = Matrix.zero(5, 5)
        power = Matrix.diagonal([1] * 5)
        for c in reversed(cp):
            acc = acc + power.scale(c)
            power = mat_mul(power, al)
        assert acc.is_zero()  # Cayley-Hamilton

        singular = Matrix.from_rows([[1, 2], [2, 4]])
        assert rank(singular) == 1
        assert len(kernel_basis(singular)) == 1
