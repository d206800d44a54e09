import json
import os
import pathlib
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homalt import core
from homalt.constructions import AlbertParams, plus_algebra
from homalt.core import (
    CheckReport,
    HomAlgebra,
    HypothesisError,
    algebra_from_json,
    algebra_to_json,
    apply_alpha,
    commutator,
    hom_associator,
    is_hom_flexible,
    is_left_hom_alternative,
    is_multiplicative,
    is_right_hom_alternative,
    load_algebra,
    mul,
    require,
    save_algebra,
)
from homalt.idempotents import decompose_element
from homalt.linalg import identity_matrix, qq
from homalt.symbolic import shipped_certificate_report

from conftest import TWIST_TRIPLES, random_element, twisted_albert, untwisted_alpha


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


def test_vector_structure_constants_are_kept_as_given(a230):
    mu = [[a230.mu[i][j] for j in range(5)] for i in range(5)]
    B = HomAlgebra(5, a230.basis_names, mu, a230.alpha)
    assert all(B.mu[i][j] is mu[i][j] for i in range(5) for j in range(5))
    assert (B._mu_num, B._mu_den) == (a230._mu_num, a230._mu_den)


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


def test_algebra_repr(a230):
    assert repr(a230) == "HomAlgebra(dim=5, basis=['e', 'u', 'v', 'w', 'z'])"


def test_elements_bound_to_their_algebra(albert, a230):
    with pytest.raises(ValueError):
        mul(albert, albert.basis_element(0), a230.basis_element(0))
    with pytest.raises(ValueError):
        albert.basis_element(0) + a230.basis_element(0)
    foreign = albert.basis_element(0)
    with pytest.raises(ValueError, match="^elements belong to different algebras$"):
        apply_alpha(a230, foreign)
    with pytest.raises(ValueError, match="^elements belong to different algebras$"):
        decompose_element(a230, a230.basis_element(0), foreign)


def test_elements_add_only_elements_and_scale_only_by_rationals(a230):
    e = a230.basis_element(0)
    with pytest.raises(ValueError, match="^expected an Element, got 1$"):
        e + 1
    with pytest.raises(TypeError):
        1.5 * e
    with pytest.raises(TypeError):
        e * 2


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
        lambda o: o.update(basis=["e"] * 5),  # repeated names
    ],
)
def test_json_validation_rejects(a230, mangle):
    obj = json.loads(json.dumps(algebra_to_json(a230)))
    mangle(obj)
    with pytest.raises(ValueError, match="bad algebra JSON"):
        algebra_from_json(obj)


def test_json_dim_cap_comes_before_the_basis_check():
    assert core.MAX_DIM >= 20
    obj = {"dim": core.MAX_DIM + 1, "basis": [], "mu": [], "alpha": []}
    with pytest.raises(ValueError, match="dim %d is above the cap" % (core.MAX_DIM + 1)):
        algebra_from_json(obj)


ONE_DIM = {"dim": 1, "basis": ["a"], "mu": [{"i": 0, "j": 0, "k": 0, "c": "1"}],
           "alpha": [["1"]]}


@pytest.mark.parametrize(
    "slot,value,message",
    [
        ("dim", True, "dim must be a positive integer"),
        ("i", False, "mu index out of range"),
        ("j", False, "mu index out of range"),
        ("k", False, "mu index out of range"),
    ],
    ids=["dim", "i", "j", "k"],
)
def test_json_refuses_a_boolean_for_an_integer(slot, value, message):
    # JSON's true and false load as bools, which Python counts as ints.
    obj = json.loads(json.dumps(ONE_DIM))
    (obj if slot == "dim" else obj["mu"][0])[slot] = value
    with pytest.raises(ValueError, match=message):
        algebra_from_json(obj)


def test_json_top_level_must_be_an_object():
    with pytest.raises(ValueError, match="^bad algebra JSON: top level must be an object$"):
        algebra_from_json([ONE_DIM])


ZERO_MU2 = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]


@pytest.mark.parametrize("args, message", [
    ((0, [], [], identity_matrix(1)), "^dim must be an integer >= 1, got 0$"),
    ((2.0, "ab", ZERO_MU2, identity_matrix(2)), "^dim must be an integer >= 1, got 2.0$"),
    ((2, "a", ZERO_MU2, identity_matrix(2)),
     "^need one name per basis vector: 1 names for dim 2$"),
    ((2, "aa", ZERO_MU2, identity_matrix(2)), r"^basis names must be distinct, got \['a', 'a'\]$"),
    ((2, "ab", ZERO_MU2, [[1, 0], [0, 1]]), "^alpha must be a Matrix, got list$"),
    ((2, "ab", ZERO_MU2, identity_matrix(3)), "^alpha must be 2x2, got 3x3$"),
    ((2, "ab", ZERO_MU2[:1], identity_matrix(2)),
     "^mu must be a 2x2x2 table of structure constants$"),
    ((2, "ab", [[[0, 0]], [[0, 0]]], identity_matrix(2)),
     "^mu must be a 2x2x2 table of structure constants$"),
    ((2, "ab", [[[0, 0], [0, 0]], [[0, 0], [0]]], identity_matrix(2)),
     "^mu must be a 2x2x2 table of structure constants$"),
], ids=["dim-0", "float-dim", "names", "repeated-names", "list-alpha", "alpha-shape",
        "mu-rows", "mu-cols", "mu-entry"])
def test_hom_algebra_refuses_each_bad_argument(args, message):
    with pytest.raises(ValueError, match=message):
        HomAlgebra(*args)


# One JSON value of each type: bool, int, float, string, null, list, object.
JSON_VALUES = st.one_of(
    st.booleans(),
    st.integers(-2, 3),
    st.floats(),
    st.text(max_size=3),
    st.none(),
    st.lists(st.integers(-1, 1) | st.text(max_size=1), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 1) | st.none(), max_size=2),
)


@st.composite
def algebra_json_objects(draw):
    """A valid algebra's JSON with one to three slots (dim, basis or a name,
    mu, an entry or one of its keys, alpha, a row or an entry) replaced by
    a JSON value of any type."""
    n = draw(st.integers(1, 2))
    obj = {"dim": n, "basis": ["a", "b"][:n],
           "mu": [{"i": i, "j": j, "k": i, "c": "1"} for i in range(n) for j in range(n)],
           "alpha": [[str(int(r == c)) for c in range(n)] for r in range(n)]}
    slots = [(obj, key) for key in obj] + [(obj["basis"], t) for t in range(n)]
    slots += [(obj["mu"], t) for t in range(n * n)]
    slots += [(e, key) for e in obj["mu"] for key in e]
    slots += [(obj["alpha"], r) for r in range(n)]
    slots += [(row, c) for row in obj["alpha"] for c in range(n)]
    for holder, key in draw(st.lists(st.sampled_from(slots), min_size=1, max_size=3)):
        holder[key] = draw(JSON_VALUES)
    return obj


def is_int(x):
    return type(x) is int


@settings(max_examples=200, derandomize=True, deadline=None)
@given(algebra_json_objects())
def test_json_loader_loads_or_refuses_any_json(obj):
    try:
        A = algebra_from_json(obj)
    except ValueError:
        return
    assert is_int(A.dim) and A.dim == obj["dim"]
    assert all(is_int(e[key]) and isinstance(e["c"], str)
               for e in obj["mu"] for key in ("i", "j", "k"))
    assert all(isinstance(a, str) for row in obj["alpha"] for a in row)


def test_check_report_compares_and_prints_its_fields():
    rep = CheckReport(False, "law", (0, 1), note="n")
    assert rep == CheckReport(False, "law", (0, 1), None, None, "n")
    assert rep != CheckReport(False, "law", (0, 2), note="n")
    assert rep != (False, "law", (0, 1), None, None, "n")
    assert repr(rep) == (
        "CheckReport(passed=False, law='law', witness=(0, 1), lhs=None, rhs=None, note='n')"
    )
    assert not rep and CheckReport(True, "law")


def test_cached_reports_cannot_be_edited(a230):
    # Suites on several threads read one cached report; none may change it.
    cached = (is_multiplicative(a230), is_right_hom_alternative(a230),
              shipped_certificate_report("assoc-shift"))
    before = [repr(rep) for rep in cached]
    for rep in cached:
        for field in rep._fields:
            with pytest.raises(AttributeError):
                setattr(rep, field, None)
        edited = rep._replace(note="edited")
        assert type(edited) is CheckReport and edited.note == "edited" and edited != rep
    assert (is_multiplicative(a230), is_right_hom_alternative(a230),
            shipped_certificate_report("assoc-shift")) == cached
    assert [repr(rep) for rep in cached] == before


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


# -- hypotheses -------------------------------------------------------------------


def test_require_names_the_first_broken_hypothesis(a230, non_multiplicative, bad_algebra):
    def message(A, *hypotheses, e=None):
        with pytest.raises(HypothesisError) as err:
            require(A, "it", *hypotheses, e=e)
        assert isinstance(err.value, ValueError)
        return str(err.value)

    assert message(non_multiplicative, "multiplicative") == (
        "it needs a multiplicative algebra; alpha fails to be a morphism at basis pair (0, 0)")
    assert message(bad_algebra, "multiplicative", "right-hom-alternative") == (
        "it needs a right Hom-alternative algebra; witness (0, 0, 0)")
    u = a230.basis_element(1)
    assert message(a230, "multiplicative", "idempotent", "surjective", e=u) == (
        "it needs an idempotent: e*e = e = alpha(e), got e = u with e*e = 0, alpha(e) = 3*u")
    assert message(twisted_albert(0, 3, 0), "surjective") == (
        "it needs surjective alpha; rank 3 < dim 5")
    require(a230, "it", "multiplicative", "right-hom-alternative", "surjective",
            "idempotent", e=a230.basis_element(0))
    with pytest.raises(ValueError, match="unknown hypothesis"):
        require(a230, "it", "associative")


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

# Each case builds a bad algebra, matrix or element, and prints the error it raises.
BAD_INPUTS = """
from homalt import linalg
from homalt.constructions import AlbertParams, albert5_base, albert5_twisted, yau_twist
from homalt.core import HomAlgebra
from homalt.idempotents import decompose_element
from homalt.linalg import Matrix, Vector, identity_matrix
from homalt.symbolic import HomMonomial
mu = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
A = albert5_base()
# gamma = 0: alpha kills w and z.  Surjectivity is decided by inverting
# alpha, so a forged "alpha-rank" fact no longer gets past require.
N = albert5_twisted(AlbertParams(0, 3, 0))
N.fact("alpha-rank", lambda: 5)
v2, v3, m23 = Vector([1, 2]), Vector([1, 2, 3]), Matrix([[1, 2, 3], [4, 5, 6]])
for build in (lambda: HomAlgebra(2, ["a", "a"], mu, identity_matrix(3)),
              lambda: HomAlgebra(2, ["a", "b"], mu, identity_matrix(3)),
              lambda: HomAlgebra(2, ["a", "b"], [[[0, 0]], [[0, 0]]], identity_matrix(2)),
              lambda: HomAlgebra(2, ["a", "b"], mu, [[1, 0], [0, 1]]),
              lambda: Matrix([[1, 2], [3]]),
              lambda: A.element([1, 2]),
              lambda: yau_twist(A, [[1]]),
              lambda: decompose_element(N, N.basis_element(0), N.basis_element(3)),
              lambda: v2 + v3,
              lambda: v2 - v3,
              lambda: v2.dot(v3),
              lambda: m23.trace(),
              lambda: m23 + identity_matrix(2),
              lambda: linalg.mat_mul(m23, m23),
              lambda: linalg.vec_mat(v3, m23),
              lambda: linalg.mat_pow(m23, 2),
              lambda: linalg.solve(m23, v3),
              lambda: linalg.inverse(m23),
              lambda: linalg.char_poly(m23),
              lambda: HomMonomial(("a", ("v", "x", 0))),
              lambda: HomMonomial.variable("x", -1)):
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
        "ValueError: an element of a dim-5 algebra needs 5 coordinates, got 2",
        "ValueError: beta must be a Matrix, got list",
        "ValueError: decomposition needs surjective alpha; rank 3 < dim 5",
        "ValueError: cannot add vectors of lengths 2 and 3",
        "ValueError: cannot subtract vectors of lengths 2 and 3",
        "ValueError: cannot take the dot product of vectors of lengths 2 and 3",
        "ValueError: trace needs a square matrix, got 2x3",
        "ValueError: cannot add a 2x3 and a 2x2 matrix",
        "ValueError: shape mismatch: 2x3 * 2x3",
        "ValueError: shape mismatch: length-3 vector @ 2x3 matrix",
        "ValueError: a matrix power needs a square matrix, got 2x3",
        "ValueError: shape mismatch: 2x3 system with a length-3 right-hand side",
        "ValueError: an inverse needs a square matrix, got 2x3",
        "ValueError: a characteristic polynomial needs a square matrix, got 2x3",
        "ValueError: a monomial tree is a ('v', name, k) leaf or an ('m', left, right) "
        "product, got tag 'a'",
        "ValueError: alpha exponents need an integer k >= 0, got -1",
    ]
