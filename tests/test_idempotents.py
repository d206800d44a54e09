import pytest

from homalt.core import HomAlgebra, apply_alpha, mul
from homalt.idempotents import (
    albert_decomposition,
    decompose_element,
    idempotent_search,
    is_idempotent,
)
from homalt.linalg import Matrix, rank

from conftest import copy_mu, twisted_albert


def in_span(elements, x):
    rows = [list(b.coords.entries) for b in elements]
    before = rank(Matrix.from_rows(rows))
    after = rank(Matrix.from_rows(rows + [list(x.coords.entries)]))
    return before == after


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
    assert dec.spans_all and dec.is_direct
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
    assert dec.spans_all and dec.is_direct
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
    assert isinstance(dec.is_direct, bool) and isinstance(dec.spans_all, bool)
