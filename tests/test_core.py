import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

from homalt.constructions import AlbertParams, plus_algebra
from homalt.core import (
    algebra_from_json,
    algebra_to_json,
    commutator,
    hom_associator,
    is_hom_alternative,
    is_hom_flexible,
    is_left_hom_alternative,
    is_multiplicative,
    is_right_hom_alternative,
    load_algebra,
    mul,
    random_element,
    save_algebra,
)
from homalt.linalg import qq

from conftest import TWIST_TRIPLES, twisted_albert, untwisted_alpha


def same_algebra(A, B):
    if A.dim != B.dim or A.basis_names != B.basis_names:
        return False
    if A.alpha != B.alpha:
        return False
    return all(
        A.mu[i][j] == B.mu[i][j] for i in range(A.dim) for j in range(A.dim)
    )


# -- the base product table -----------------------------------------------------


def test_albert_base_product_table(albert):
    e, u, v, w, z = [albert.basis_element(i) for i in range(5)]
    expected = {
        (0, 0): e,
        (0, 1): v,
        (1, 0): u,
        (0, 3): w - z,
        (0, 4): z,
        (4, 0): z,
    }
    for i in range(5):
        for j in range(5):
            want = expected.get((i, j), albert.zero())
            assert mul(albert, albert.basis_element(i), albert.basis_element(j)) == want


def test_albert_base_laws(albert):
    assert is_multiplicative(albert).passed  # alpha = Id
    assert is_right_hom_alternative(albert).passed
    rep = is_left_hom_alternative(albert)
    assert not rep.passed
    assert rep.witness == (0, 0, 1)
    assert not is_hom_flexible(albert).passed
    rep = is_hom_alternative(albert)
    assert not rep.passed
    assert "left" in rep.note


# -- twisted algebras -------------------------------------------------------------


def test_twisted_is_multiplicative_right_alternative(twisted):
    assert is_multiplicative(twisted).passed
    assert is_right_hom_alternative(twisted).passed


@pytest.mark.parametrize("triple", TWIST_TRIPLES)
def test_twisted_associator_example(triple):
    A = twisted_albert(*triple)
    delta = AlbertParams(*triple).delta
    e, u, v = A.basis_element(0), A.basis_element(1), A.basis_element(2)
    assert hom_associator(A, e, e, u) == v.scale(delta * delta)


def test_twisted_left_alternative_fails(a230):
    rep = is_left_hom_alternative(a230)
    assert not rep.passed
    assert rep.witness == (0, 0, 1)
    assert rep.lhs == a230.basis_element(2).scale(qq(9))
    assert rep.rhs == a230.basis_element(2).scale(qq(-9))
    rep = is_hom_flexible(a230)
    assert not rep.passed
    assert rep.witness == (0, 0, 1)


def test_right_alt_checker_on_untwisted_product(a230):
    # same product table, alpha forced back to Id: right alternativity breaks
    Ao = untwisted_alpha(a230)
    rep = is_right_hom_alternative(Ao)
    assert not rep.passed
    assert rep.witness == (0, 0, 1)
    assert rep.lhs == Ao.basis_element(2).scale(qq(3))
    assert rep.rhs == Ao.basis_element(2).scale(qq(9))


# -- element arithmetic -----------------------------------------------------------


def test_element_arithmetic(a230):
    rng = random.Random(0)
    x = random_element(a230, rng)
    y = random_element(a230, rng)
    assert (x + y) - y == x
    assert x + (-x) == a230.zero()
    assert 2 * x == x + x
    assert x.scale(qq(1, 2)) + x.scale(qq(1, 2)) == x
    assert qq(3) * x == x + x + x


def test_element_repr(a230):
    assert repr(a230.element([1, 2, 0, 0, 0])) == "e + 2*u"
    assert repr(a230.element([0, 0, -3, 0, 0])) == "-3*v"
    assert repr(a230.zero()) == "0"
    assert repr(a230.element([qq(1, 2), 0, 0, 0, -1])) == "1/2*e - z"


def test_elements_bound_to_their_algebra(albert, a230):
    with pytest.raises(ValueError):
        mul(albert, albert.basis_element(0), a230.basis_element(0))
    with pytest.raises(ValueError):
        albert.basis_element(0) + a230.basis_element(0)


def test_random_element_deterministic(a230):
    assert random_element(a230, random.Random(5)) == random_element(a230, random.Random(5))


# -- multilinearity ----------------------------------------------------------------


def test_product_bilinear(a230):
    rng = random.Random(1)
    for _ in range(10):
        x, y, z = (random_element(a230, rng) for _ in range(3))
        c = qq(rng.randint(-3, 3), rng.randint(1, 3))
        assert mul(a230, x + y, z) == mul(a230, x, z) + mul(a230, y, z)
        assert mul(a230, x, y + z) == mul(a230, x, y) + mul(a230, x, z)
        assert mul(a230, x.scale(c), y) == mul(a230, x, y).scale(c)


def test_associator_trilinear_and_commutator(a230):
    rng = random.Random(2)
    for _ in range(10):
        x, y, z, t = (random_element(a230, rng) for _ in range(4))
        assert hom_associator(a230, x + t, y, z) == hom_associator(
            a230, x, y, z
        ) + hom_associator(a230, t, y, z)
        assert hom_associator(a230, x, y + t, z) == hom_associator(
            a230, x, y, z
        ) + hom_associator(a230, x, t, z)
        assert commutator(a230, x, y) == -commutator(a230, y, x)
        assert commutator(a230, x, x).is_zero()


# -- equivalent forms of the laws --------------------------------------------------


def algebras_for_law_tests(bad_algebra):
    out = [twisted_albert(*t) for t in TWIST_TRIPLES]
    out.append(untwisted_alpha(out[0]))
    out.append(bad_algebra)
    out.append(plus_algebra(out[0]))
    return out


def test_right_alternative_iff_linearized(bad_algebra):
    for A in algebras_for_law_tests(bad_algebra):
        swept = all(
            (
                hom_associator(A, A.basis_element(i), A.basis_element(j), A.basis_element(k))
                + hom_associator(A, A.basis_element(i), A.basis_element(k), A.basis_element(j))
            ).is_zero()
            for i in range(A.dim)
            for j in range(A.dim)
            for k in range(A.dim)
        )
        assert is_right_hom_alternative(A).passed == swept


def test_alternative_is_left_and_right(bad_algebra):
    for A in algebras_for_law_tests(bad_algebra):
        both = is_left_hom_alternative(A).passed and is_right_hom_alternative(A).passed
        assert is_hom_alternative(A).passed == both


# -- JSON round trip ---------------------------------------------------------------


def test_json_round_trip(twisted):
    assert same_algebra(algebra_from_json(algebra_to_json(twisted)), twisted)


def test_json_file_round_trip(tmp_path, a230):
    path = tmp_path / "a.json"
    save_algebra(a230, str(path))
    assert same_algebra(load_algebra(str(path)), a230)


def test_json_zero_entries_omitted(a230):
    obj = algebra_to_json(a230)
    assert all(entry["c"] != "0" for entry in obj["mu"])
    keys = [(entry["i"], entry["j"], entry["k"]) for entry in obj["mu"]]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


@pytest.mark.parametrize(
    "mangle",
    [
        lambda o: o.pop("dim"),
        lambda o: o.update(dim=6),
        lambda o: o["basis"].append("extra"),
        lambda o: o["mu"].append({"i": 0, "j": 0, "k": 0, "c": "1"}),  # duplicate
        lambda o: o["mu"].append({"i": 9, "j": 0, "k": 0, "c": "1"}),  # out of range
        lambda o: o["mu"][0].update(c="1/0"),
        lambda o: o["mu"][0].pop("k"),
        lambda o: o["alpha"].pop(),
        lambda o: o["alpha"][0].pop(),
        lambda o: o["alpha"][0].__setitem__(0, "x"),
        lambda o: o.update(basis="eeeee"),
    ],
)
def test_json_validation_rejects(a230, mangle):
    obj = json.loads(json.dumps(algebra_to_json(a230)))
    mangle(obj)
    with pytest.raises(ValueError, match="bad algebra JSON"):
        algebra_from_json(obj)


def test_load_algebra_bad_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ValueError, match="bad algebra JSON"):
        load_algebra(str(path))


# -- non-multiplicative witness ----------------------------------------------------


def test_non_multiplicative_witness(non_multiplicative):
    rep = is_multiplicative(non_multiplicative)
    assert not rep.passed
    assert rep.witness == (0, 0)
    assert rep.lhs == non_multiplicative.basis_element(1)  # alpha(e*e) = alpha(e) = u
    assert rep.rhs == non_multiplicative.zero()  # alpha(e)^2 = u*u = 0


def test_check_report_bool_and_dict(a230):
    rep = is_multiplicative(a230)
    assert bool(rep)
    d = rep.as_dict()
    assert d["passed"] is True and d["witness"] is None and d["law"] == "multiplicative"
    rep = is_left_hom_alternative(a230)
    d = rep.as_dict()
    assert d["witness"] == ["0", "0", "1"]
    assert d["lhs"] == "9*v"


# -- validation -------------------------------------------------------------------

# Each case builds a bad algebra or matrix and prints the error it raises.
BAD_INPUTS = """
from homalt.core import HomAlgebra
from homalt.linalg import Matrix, identity_matrix
mu = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
for build in (lambda: HomAlgebra(2, ["a", "a"], mu, identity_matrix(3)),
              lambda: HomAlgebra(2, ["a", "b"], mu, identity_matrix(3)),
              lambda: HomAlgebra(2, ["a", "b"], [[[0, 0]], [[0, 0]]], identity_matrix(2)),
              lambda: HomAlgebra(2, ["a", "b"], mu, [[1, 0], [0, 1]]),
              lambda: Matrix([[1, 2], [3]])):
    try:
        build()
        print("accepted")
    except ValueError as exc:
        print("ValueError:", exc)
"""


def test_validation_holds_under_python_O():
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    proc = subprocess.run([sys.executable, "-O", "-c", BAD_INPUTS], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "ValueError: basis names must be distinct, got ['a', 'a']",
        "ValueError: alpha must be 2x2, got 3x3",
        "ValueError: mu must be a 2x2x2 table of structure constants",
        "ValueError: alpha must be a Matrix, got list",
        "ValueError: ragged rows: lengths [1, 2]",
    ]
