import ast
import json
import random

import pytest

from homalt.cli import main
from homalt.core import CheckReport, HomAlgebra, apply_alpha, load_algebra, mul
from homalt.idempotents import (
    _element_splitting,
    albert_decomposition,
    decompose_element,
    idempotent_search,
    is_idempotent,
)
from homalt.linalg import Matrix, qq, rank, solve

from conftest import FIXTURES, GOLDEN, copy_mu, random_element, twisted_albert
from test_lattice import REFERENCE, parse_vector


def in_span(elements, x):
    rows = [list(b.coords.entries) for b in elements]
    before = rank(Matrix.from_rows(rows))
    after = rank(Matrix.from_rows(rows + [list(x.coords.entries)]))
    return before == after


def is_direct(dec):
    """The sum of the two parts is direct: their stacked bases are independent."""
    rows = [list(b.coords.entries) for b in dec.part_alpha + dec.part_zero]
    return not rows or rank(Matrix.from_rows(rows)) == len(rows)


def test_is_idempotent(a230, albert):
    assert is_idempotent(a230, a230.basis_element(0))
    assert not is_idempotent(a230, a230.basis_element(1))
    assert is_idempotent(a230, a230.zero())
    assert is_idempotent(albert, albert.basis_element(0))
    # alpha moves e when epsilon != 0, so e stops being a Hom-idempotent
    A = twisted_albert(2, 3, 1)
    assert not is_idempotent(A, A.basis_element(0))


def test_idempotent_search(a230, albert):
    assert idempotent_search(a230) == [a230.basis_element(0)]
    assert idempotent_search(albert) == [albert.basis_element(0)]


def test_search_empty_when_alpha_moves_everything():
    A = twisted_albert(2, 3, 1)
    assert idempotent_search(A) == []


def test_albert_decomposition(a230):
    e = a230.basis_element(0)
    dec = albert_decomposition(a230, e)
    assert [repr(x) for x in dec.part_alpha] == ["e", "u", "z"]
    assert [repr(x) for x in dec.part_zero] == ["v", "w"]
    assert dec.spans_all and is_direct(dec)
    assert len(dec.part_alpha) + len(dec.part_zero) == a230.dim
    # membership equations define the parts
    for x in dec.part_alpha:
        assert mul(a230, x, e) == apply_alpha(a230, x)
    for x in dec.part_zero:
        assert mul(a230, x, e).is_zero()
    # both parts are alpha-closed
    for x in dec.part_alpha:
        assert in_span(dec.part_alpha, apply_alpha(a230, x))
    for x in dec.part_zero:
        assert in_span(dec.part_zero, apply_alpha(a230, x))


def test_classical_decomposition_at_identity_alpha(albert):
    # alpha = Id: the split is the classical one and e sits in the 1-part
    e = albert.basis_element(0)
    dec = albert_decomposition(albert, e)
    assert dec.spans_all and is_direct(dec)
    assert any(x == e for x in dec.part_alpha)
    assert [repr(x) for x in dec.part_alpha] == ["e", "u", "z"]
    assert [repr(x) for x in dec.part_zero] == ["v", "w"]


def test_decompose_element_table(a230):
    e = a230.basis_element(0)
    u, v, w, z = (a230.basis_element(i) for i in (1, 2, 3, 4))
    expected = {
        0: (e, a230.zero()),
        1: (u, a230.zero()),
        2: (a230.zero(), v),
        3: (a230.zero(), w),
        4: (z, a230.zero()),
    }
    for i, (want_a, want_z) in expected.items():
        part_a, part_z = decompose_element(a230, e, a230.basis_element(i))
        assert part_a == want_a and part_z == want_z
        assert part_a + part_z == a230.basis_element(i)
        assert mul(a230, part_a, e) == apply_alpha(a230, part_a)
        assert mul(a230, part_z, e).is_zero()
    assert decompose_element(a230, e, a230.zero()) == (a230.zero(), a230.zero())


def test_decompose_element_general_input(a230):
    e = a230.basis_element(0)
    b = a230.element([1, 2, 3, 4, 5])
    part_a, part_z = decompose_element(a230, e, b)
    assert part_a + part_z == b
    assert mul(a230, part_a, e) == apply_alpha(a230, part_a)
    assert mul(a230, part_z, e).is_zero()


def test_decomposition_guards(a230):
    with pytest.raises(ValueError, match="idempotent"):
        albert_decomposition(a230, a230.basis_element(1))
    with pytest.raises(ValueError, match="idempotent"):
        decompose_element(a230, a230.basis_element(1), a230.basis_element(0))
    # singular alpha is rejected: surjectivity is what the splitting needs
    mu = copy_mu(a230)
    singular = HomAlgebra(5, a230.basis_names, mu, Matrix.zero(5, 5))
    e = singular.zero()
    with pytest.raises(ValueError, match="alpha"):
        albert_decomposition(singular, e)


def test_decomposition_dataclass_fields(a230):
    dec = albert_decomposition(a230, a230.basis_element(0))
    assert dec.idem == a230.basis_element(0)
    assert dec._fields == ("idem", "part_alpha", "part_zero", "spans_all")
    assert isinstance(dec.spans_all, bool)


# -- splitting without right Hom-alternativity ------------------------------------
#
# Both fixtures have surjective alpha = diag(1, -1) and the idempotent e0, and
# neither is right Hom-alternative; the first is multiplicative.  Found by a
# seeded search of dim-2 tables with entries in {-1, 0, 1}.

SPLIT_FAILURES = {
    "split_alpha_part_dim2.json": [
        ("idempotent-decomposition", False, ["e0"], None, None,
         "e = e0; A_e(alpha) basis [e0]; A_e(0) basis []"),
        ("element-splitting", False, ["1", "'alpha-part'"], "-e1", "e1", ""),
    ],
    "split_zero_part_dim2.json": [
        ("idempotent-decomposition", True, None, None, None,
         "e = e0; A_e(alpha) basis [e0]; A_e(0) basis [-e0 + e1]"),
        ("element-splitting", False, ["1", "'zero-part'"], "2*e0", "0", ""),
    ],
}


@pytest.mark.parametrize("name", sorted(SPLIT_FAILURES))
def test_element_splitting_fails_without_right_hom_alternativity(name, capsys):
    path = FIXTURES / name
    assert main(["decompose", str(path), "--output", "json"]) == 1
    rows = json.loads(capsys.readouterr().out)["results"]
    fields = ("law", "passed", "witness", "lhs", "rhs", "note")
    assert [tuple(r[f] for f in fields) for r in rows] == SPLIT_FAILURES[name]
    # Replay the failing row through the Fraction-only reference: with
    # alpha(a) = e_i, a*e0 must satisfy x*e0 = alpha(x), and e_i - a*e0
    # must satisfy x*e0 = 0.
    obj = json.loads(path.read_text())
    ref = REFERENCE["Algebra"](obj)
    i, part = (ast.literal_eval(w) for w in rows[1]["witness"])
    inverse = [list(col) for col in zip(*ref.alpha)]  # alpha is a signed permutation
    assert [ref.apply(ref.alpha, ref.apply(inverse, ref.unit(t))) for t in range(ref.dim)] == [
        ref.unit(t) for t in range(ref.dim)]
    e, b = ref.unit(0), ref.unit(i)
    in_alpha = ref.mul(ref.apply(inverse, b), e)
    if part == "alpha-part":
        want = ref.mul(in_alpha, e), ref.apply(ref.alpha, in_alpha)
    else:
        want = ref.mul([p - q for p, q in zip(b, in_alpha)], e), [0] * ref.dim
    got = tuple(parse_vector(rows[1][side], obj["basis"]) for side in ("lhs", "rhs"))
    assert got == want and want[0] != want[1]


# -- the alpha^-1 route against a per-element solve -----------------------------------


def table_with_idempotent(seed):
    """A seeded dim-2..4 table in which e0 is an idempotent: e0*e0 = e0 = alpha(e0),
    every other constant in {-1, 0, 1, 1/2} and alpha invertible, row 0 fixed to e0."""
    rng = random.Random(seed)
    dim = rng.choice((2, 3, 4))
    values = (qq(-1), qq(0), qq(0), qq(1), qq(1, 2))
    mu = [[[rng.choice(values) for _ in range(dim)] for _ in range(dim)] for _ in range(dim)]
    mu[0][0] = [int(k == 0) for k in range(dim)]
    while True:
        rows = [[int(k == 0) for k in range(dim)]] + [
            [rng.randint(-2, 2) for _ in range(dim)] for _ in range(dim - 1)]
        if rank(Matrix(rows)) == dim:
            return HomAlgebra(dim, ["e%d" % i for i in range(dim)], mu, Matrix(rows))


def reference_parts(A, e, b):
    """(a*e, b - a*e) for the a that linalg.solve finds with alpha(a) = b."""
    a = A.element(solve(A.alpha.transpose(), b.coords))
    return mul(A, a, e), b - mul(A, a, e)


def reference_splitting(A, e):
    """The element-splitting row, one solve and three products per basis element."""
    for i, b in enumerate(A.basis()):
        part_a, part_z = reference_parts(A, e, b)
        if mul(A, part_a, e) != apply_alpha(A, part_a):
            return CheckReport(False, "element-splitting", (i, "alpha-part"),
                               mul(A, part_a, e), apply_alpha(A, part_a))
        if not mul(A, part_z, e).is_zero():
            return CheckReport(False, "element-splitting", (i, "zero-part"),
                               mul(A, part_z, e), A.zero())
    return CheckReport(True, "element-splitting", note="all basis elements split")


def splitting_cases():
    """(A, e): the seeded tables at e0, the golden decompose cases' algebras at the
    idempotent their commands split at, and the failing fixtures at e0."""
    cases = [(A, A.basis_element(0)) for A in map(table_with_idempotent, range(60))]
    rational = load_algebra(str(GOLDEN / "albert5-230-rational-basis.json"))
    cases += [(A, idempotent_search(A)[0]) for A in (twisted_albert(2, 3, 0), rational)]
    for A in (load_algebra(str(FIXTURES / name)) for name in sorted(SPLIT_FAILURES)):
        cases.append((A, A.basis_element(0)))
    return cases


def test_splitting_by_alpha_inverse_matches_the_per_element_solve():
    rng = random.Random(30)
    outcomes = set()
    for A, e in splitting_cases():
        assert is_idempotent(A, e)
        rep, want = _element_splitting(A, e), reference_splitting(A, e)
        assert (rep.passed, rep.witness, rep.lhs, rep.rhs, rep.note) == (
            want.passed, want.witness, want.lhs, want.rhs, want.note)
        outcomes.add(rep.witness and rep.witness[1])
        for b in [random_element(A, rng) for _ in range(3)] + A.basis():
            assert decompose_element(A, e, b) == reference_parts(A, e, b)
        assert is_direct(albert_decomposition(A, e))
    assert outcomes == {None, "alpha-part", "zero-part"}
