import copy
import io
import json
import os
import pathlib
import random
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from homalt.cli import main
from homalt.constructions import direct_sum
from homalt.core import HomAlgebra, HypothesisError, apply_alpha, hom_associator, mul
from homalt.dsl import (
    MAX_ALPHA_POWER,
    MAX_DEPTH,
    MAX_TERMS,
    parse_identity,
    parse_monomial,
    parse_term,
)
from homalt.linalg import QUOTE_CHARS, format_scalar, identity_matrix, parse_scalar, qq, quote
from homalt.powers import hom_power_pair_poly, hom_power_poly
from homalt.symbolic import (
    HomMonomial,
    HomPolynomial,
    IdentityDef,
    _multidegree,
    build_instance,
    check_identity_on_algebra,
    expand_associator,
    hom_teichmuller_terms,
    identity_registry,
    load_certificates,
    mono,
    multilinearize,
    poly_commutator,
    poly_mul,
    ra_polynomial,
    shipped_certificate_report,
    specialize_classical,
    subst_monomial,
    var,
    verify_certificate,
    verify_hom_teichmuller,
)

from conftest import evaluate_polynomial, random_element


# -- raw trees, which may also hold ("a", subtree) nodes: the reference for
# -- HomMonomial's normal form and for evaluate_polynomial


def normalize_raw(tree):
    """The normalized tree of a raw tree, built by HomMonomial's mul and alpha."""
    if tree[0] == "v":
        return tree
    if tree[0] == "a":
        return HomMonomial(normalize_raw(tree[1])).alpha(1).tree
    return HomMonomial(normalize_raw(tree[1])).mul(HomMonomial(normalize_raw(tree[2]))).tree


def raw_redexes(tree, path=()):
    """Paths of all rewritable positions: ("a", X) with X a leaf or product."""
    out = []
    if tree[0] == "a":
        if tree[1][0] in ("v", "m"):
            out.append(path)
        out.extend(raw_redexes(tree[1], path + (1,)))
    elif tree[0] == "m":
        out.extend(raw_redexes(tree[1], path + (1,)))
        out.extend(raw_redexes(tree[2], path + (2,)))
    return out


def rewrite_at(tree, path):
    """One rewrite step: a(leaf) absorbs, a(m*n) -> a(m)*a(n)."""
    if path:
        parts = list(tree)
        parts[path[0]] = rewrite_at(tree[path[0]], path[1:])
        return tuple(parts)
    assert tree[0] == "a" and tree[1][0] in ("v", "m")
    inner = tree[1]
    if inner[0] == "v":
        return ("v", inner[1], inner[2] + 1)
    return ("m", ("a", inner[1]), ("a", inner[2]))


def normalize_random(tree, rng):
    """Normalize by repeatedly firing a randomly chosen redex."""
    while True:
        redexes = raw_redexes(tree)
        if not redexes:
            return tree
        tree = rewrite_at(tree, rng.choice(redexes))


def evaluate_raw(A, tree, assignment):
    """Structural evaluation of a raw tree (the evaluation oracle)."""
    if tree[0] == "v":
        name, k = tree[1], tree[2]
        if name not in assignment:
            raise ValueError("unassigned variable %r" % name)
        e = assignment[name]
        for _ in range(k):
            e = apply_alpha(A, e)
        return e
    if tree[0] == "a":
        return apply_alpha(A, evaluate_raw(A, tree[1], assignment))
    return mul(A, evaluate_raw(A, tree[1], assignment), evaluate_raw(A, tree[2], assignment))


def random_raw_tree(rng, depth=0):
    r = rng.random()
    if depth > 4 or r < 0.3:
        return ("v", rng.choice("xyz"), rng.randrange(3))
    if r < 0.55:
        return ("a", random_raw_tree(rng, depth + 1))
    return ("m", random_raw_tree(rng, depth + 1), random_raw_tree(rng, depth + 1))


def rename_leaves(p, mapping):
    """A fresh polynomial with variable leaves renamed via mapping."""

    def go(t):
        if t[0] == "v":
            return ("v", mapping.get(t[1], t[1]), t[2])
        return ("m", go(t[1]), go(t[2]))

    return HomPolynomial({HomMonomial(go(m.tree)): c for m, c in p.terms()})


# -- polynomials and monomials -------------------------------------------------


def test_associator_expands_to_two_signed_terms():
    x, y, z = var("x"), var("y"), var("z")
    p = expand_associator(x, y, z)
    assert p.num_terms() == 2
    left = mono("x").mul(mono("y")).mul(mono("z", 1))
    right = mono("x", 1).mul(mono("y").mul(mono("z")))
    assert p.coefficient(left) == 1
    assert p.coefficient(right) == -1
    # free monomials do not merge just because an algebra law would equate them
    assert expand_associator(x, y, y).num_terms() == 2


def test_linearized_right_alternative_polynomial():
    p = ra_polynomial()
    assert p.num_terms() == 4
    x, y, z = var("x"), var("y"), var("z")
    assert p == expand_associator(x, y, z) + expand_associator(x, z, y)


def test_polynomial_arithmetic():
    x, y = var("x"), var("y")
    p = poly_mul(x, y) - poly_mul(y, x)
    assert p == poly_commutator(x, y)
    assert (p - p).is_zero()
    assert (-p) + p == HomPolynomial.zero()
    assert p.scale(0).is_zero()
    assert p.scale(qq(1, 2)) + p.scale(qq(1, 2)) == p
    assert p.alpha(2) == rename_leaves(p, {}).alpha(1).alpha(1)
    assert sorted(p.variables()) == ["x", "y"]


def test_polynomial_times_a_scalar_is_a_type_error():
    with pytest.raises(TypeError):
        var("x") * 2


def test_monomial_alpha_shift_must_be_non_negative():
    with pytest.raises(ValueError, match="^alpha shifts must be non-negative, got -1$"):
        HomMonomial.variable("x").alpha(-1)


def test_monomial_ordering_is_deterministic():
    ms = [mono("x").mul(mono("y")), mono("x", 2), mono("x"), mono("y").mul(mono("x"))]
    assert sorted(ms) == sorted(reversed(ms))
    assert mono("x") < mono("x").mul(mono("y"))


# -- normalization of raw trees ------------------------------------------------


def test_normalize_raw_pushes_alpha_to_leaves():
    t = ("a", ("m", ("v", "x", 0), ("a", ("v", "y", 1))))
    assert normalize_raw(t) == ("m", ("v", "x", 1), ("v", "y", 3))


def test_random_rewrite_order_is_confluent():
    rng = random.Random(101)
    for _ in range(200):
        t = random_raw_tree(rng)
        assert normalize_random(t, rng) == normalize_raw(t)


def test_raw_evaluation_is_the_oracle_for_normal_forms(a230):
    rng = random.Random(55)
    for _ in range(100):
        t = random_raw_tree(rng)
        env = {v: random_element(a230, rng) for v in "xyz"}
        p = HomPolynomial({HomMonomial(normalize_raw(t)): 1})
        assert evaluate_polynomial(a230, p, env) == evaluate_raw(a230, t, env)


# -- evaluation ----------------------------------------------------------------


def test_evaluate_polynomial_matches_hom_associator(a230):
    p = expand_associator(var("x"), var("y"), var("z"))
    e, u = a230.basis_element(0), a230.basis_element(1)
    env = {"x": e, "y": e, "z": u}
    got = evaluate_polynomial(a230, p, env)
    assert got == hom_associator(a230, e, e, u)
    assert repr(got) == "9*v"
    assert evaluate_polynomial(a230, HomPolynomial.zero(), {}).is_zero()


def test_evaluate_polynomial_guards(a230, non_multiplicative):
    p = expand_associator(var("x"), var("y"), var("z"))
    with pytest.raises(ValueError, match="unassigned"):
        evaluate_polynomial(a230, p, {"x": a230.basis_element(0)})
    env = {v: non_multiplicative.basis_element(0) for v in "xyz"}
    with pytest.raises(ValueError, match="multiplicative"):
        evaluate_polynomial(non_multiplicative, p, env)


# -- the Hom-Teichmuller polynomial ---------------------------------------------


def teichmuller_f(w, x, y, z):
    """f(w, x, y, z), the sum of the five signed associator terms."""
    return sum(hom_teichmuller_terms(w, x, y, z), HomPolynomial())


def test_teichmuller_expands_to_ten_terms_and_cancels():
    w, x, y, z = var("w"), var("x"), var("y"), var("z")
    terms = hom_teichmuller_terms(w, x, y, z)
    assert len(terms) == 5
    assert sum(t.num_terms() for t in terms) == 10
    assert teichmuller_f(w, x, y, z).is_zero()
    assert verify_hom_teichmuller()


def test_teichmuller_cancellation_needs_every_term():
    w, x, y, z = var("w"), var("x"), var("y"), var("z")
    terms = hom_teichmuller_terms(w, x, y, z)
    partial = HomPolynomial.zero()
    for t in terms[:-1]:
        partial = partial + t
    assert partial.num_terms() == 2
    assert partial == -terms[-1]


def test_teichmuller_vanishes_under_any_substitution():
    x = var("x")
    assert teichmuller_f(x, x, x, x).is_zero()
    y = poly_mul(x, x.alpha(1))
    assert teichmuller_f(x, y, x, y).is_zero()


# -- the identity registry ------------------------------------------------------


def test_registry_contents():
    reg = identity_registry()
    assert list(reg) == [
        "assoc-shift",
        "assoc-shift-linear",
        "commutator-exchange",
        "middle-square",
        "right-moufang",
        "associator-tail",
    ]
    for name, idf in reg.items():
        assert idf.name == name
        assert set(idf.variables) == set(idf.degrees)
        assert not idf.defect().is_zero()  # none are free identities


def test_registry_identities_hold(twisted):
    for name, idf in identity_registry().items():
        rep = check_identity_on_algebra(twisted, idf.lhs, idf.rhs, name)
        assert rep.passed, name
        assert rep.note == "lattice sweep over all basis multisets"


def test_registry_identities_hold_classically(albert):
    # alpha = Id turns each identity into its ordinary right-alternative form
    for name, idf in identity_registry().items():
        lhs = specialize_classical(idf.lhs)
        rhs = specialize_classical(idf.rhs)
        rep = check_identity_on_algebra(albert, lhs, rhs, name)
        assert rep.passed, name


def test_specialize_classical_strips_every_alpha():
    for idf in identity_registry().values():
        sp = specialize_classical(idf.defect())
        for m, _ in sp.terms():
            assert all(k == 0 for (_, k) in m.leaves())


def test_sign_flip_is_caught(a230):
    idf = identity_registry()["middle-square"]
    rep = check_identity_on_algebra(a230, idf.lhs, -idf.rhs, "corrupt")
    assert not rep.passed
    assert rep.witness == (("x", (0,)), ("y", (0, 0)), ("z", (1,)))
    assert not rep.lhs.is_zero()


def test_cross_linearization_of_assoc_shift():
    reg = identity_registry()
    lin, groups = multilinearize(reg["assoc-shift"].defect(), reg["assoc-shift"].degrees)
    assert groups == {"x": ["x"], "y": ["y#0", "y#1"], "z": ["z"]}
    target = reg["assoc-shift-linear"].defect()
    assert rename_leaves(lin, {"y#0": "w", "y#1": "y"}) == target
    assert rename_leaves(lin, {"y#0": "y", "y#1": "w"}) == target


# x*x + x*y is not homogeneous in x: no polarization of x into 2 slots exists.
INHOMOGENEOUS = """
from homalt.symbolic import multilinearize, poly_mul, var
p = poly_mul(var("x"), var("x")) + poly_mul(var("x"), var("y"))
try:
    print(multilinearize(p, {"x": 2, "y": 1}))
except ValueError as exc:
    print("ValueError:", exc)
"""
INHOMOGENEOUS_ERROR = "cannot polarize 'x' into 2 slots: monomial (x*y) has degree 1 in it"


def test_multilinearize_names_an_inhomogeneous_monomial():
    p = poly_mul(var("x"), var("x")) + poly_mul(var("x"), var("y"))
    with pytest.raises(ValueError) as exc:
        multilinearize(p, {"x": 2, "y": 1})
    assert str(exc.value) == INHOMOGENEOUS_ERROR


def test_multilinearize_refuses_an_inhomogeneous_monomial_under_python_O():
    # An assert here would be stripped, and the polarization come out wrong.
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    proc = subprocess.run([sys.executable, "-O", "-c", INHOMOGENEOUS], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ValueError: %s\n" % INHOMOGENEOUS_ERROR


def test_check_identity_rejects_wrong_degrees(a230):
    idf = identity_registry()["middle-square"]
    with pytest.raises(ValueError, match="rhs is not homogeneous of multidegree "
                       r"\{'x': 1, 'y': 2, 'z': 1\}: monomial \(x\*z\) has \{'x': 1, 'z': 1\}"):
        check_identity_on_algebra(a230, idf.lhs, idf.rhs + poly_mul(var("x"), var("z")))


def test_identity_sweep_keeps_one_point_of_its_full_subtrees(a230):
    # A subtree of every variable has a new key at each lattice point, so
    # its memo keeps only the current one.  Keeping every point's took 4.3 MB
    # here (and over 3 GB for associator-tail at dim 20).
    A = direct_sum(a230, a230)
    idf = identity_registry()["right-moufang"]
    tracemalloc.start()
    try:
        assert check_identity_on_algebra(A, idf.lhs, idf.rhs).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2**20, peak


def test_identity_sweep_keeps_no_row_of_past_points(a230):
    # A one-variable sweep's rows do not recur.  Numbering every row for good
    # kept one per lattice point: 0.38 MB for the 2,002 points of x^5 =
    # x^(3,2) here, and 52 MB peak RSS for the 118,755 of the dim-25 sum.
    A = direct_sum(a230, a230)
    tracemalloc.start()
    try:
        assert check_identity_on_algebra(A, hom_power_poly(5), hom_power_pair_poly(3, 2)).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000, peak


# Each registry identity's multidegree, written out by hand.
REGISTRY_DEGREES = {
    "assoc-shift": {"x": 1, "y": 2, "z": 1},
    "assoc-shift-linear": {"x": 1, "w": 1, "y": 1, "z": 1},
    "commutator-exchange": {"w": 1, "x": 1, "y": 1, "z": 1},
    "middle-square": {"x": 1, "y": 2, "z": 1},
    "right-moufang": {"x": 1, "y": 2, "z": 1},
    "associator-tail": {"x": 1, "y": 2, "z": 2},
}


def test_registry_multidegrees_are_read_from_the_identities():
    for name, idf in identity_registry().items():
        assert _multidegree(idf.lhs, idf.rhs) == idf.degrees == REGISTRY_DEGREES[name], name
        assert idf.variables == tuple(sorted(REGISTRY_DEGREES[name])), name


@st.composite
def homogeneous_polynomials(draw, degrees):
    """Up to three random monomials, each homogeneous of the multidegree
    degrees: its leaves in any order and bracketing, each under alpha^0..2."""
    leaves = [v for v, d in degrees.items() for _ in range(d)]
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        order = draw(st.permutations(leaves))
        trees = [("v", v, draw(st.integers(0, 2))) for v in order]
        while len(trees) > 1:
            i = draw(st.integers(0, len(trees) - 2))
            trees[i:i + 2] = [("m", trees[i], trees[i + 1])]
        terms.append((HomMonomial(trees[0]), draw(st.sampled_from([1, -1, 2, "1/3"]))))
    return HomPolynomial(terms)


def rename_leaf(tree, i, name):
    """tree with its i-th leaf, left to right, renamed."""
    leaves = []

    def go(t):
        if t[0] == "v":
            leaves.append(t)
            return ("v", name, t[2]) if len(leaves) == i + 1 else t
        return ("m", go(t[1]), go(t[2]))

    return go(tree)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.dictionaries(st.sampled_from("wxyz"), st.integers(1, 3), min_size=1, max_size=3),
       st.data())
def test_multidegree_of_random_homogeneous_identities(degrees, data):
    lhs = data.draw(homogeneous_polynomials(degrees))
    rhs = data.draw(homogeneous_polynomials(degrees))
    assume(not lhs.is_zero() and not rhs.is_zero())
    want = dict(sorted(degrees.items()))
    got = IdentityDef("random", lhs, rhs).degrees
    assert got == want and list(got) == list(want)
    # One monomial of rhs gets a leaf renamed to a fresh variable, or one more leaf.
    m, c = data.draw(st.sampled_from(rhs.terms()))
    if data.draw(st.booleans()):
        bad = HomMonomial(rename_leaf(m.tree, data.draw(st.integers(0, len(m.leaves()) - 1)), "u"))
    else:
        bad = m.mul(mono(data.draw(st.sampled_from("wxyz"))))
    perturbed = rhs - HomPolynomial({m: c}) + HomPolynomial({bad: c})
    has = {}
    for n in sorted(n for n, _ in bad.leaves()):
        has[n] = has.get(n, 0) + 1
    with pytest.raises(ValueError) as exc:
        _multidegree(lhs, perturbed)
    assert str(exc.value) == "rhs is not homogeneous of multidegree %s: monomial %s has %s" % (
        quote(want), quote(bad), quote(has))


def test_an_inhomogeneous_free_zero_identity_passes(albert, non_multiplicative, capsys):
    text = "(= (add x (mul x x)) (add (mul x x) x))"
    lhs, rhs = parse_identity(text)
    rep = check_identity_on_algebra(albert, lhs, rhs, "free")
    assert rep.passed and rep.note == "normalizes to zero in the free multiplicative Hom-algebra"
    with pytest.raises(HypothesisError, match="the identity sweep needs a multiplicative"):
        check_identity_on_algebra(non_multiplicative, lhs, rhs)
    with pytest.raises(ValueError, match="lhs is not homogeneous"):
        IdentityDef("free", lhs, rhs).degrees
    assert main(["identity", "albert5", "--expr", text, "--output", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["config"] == {"command": "identity", "name": "identity"}
    assert report["results"][0]["note"] == rep.note


def test_identity_defect_lookup():
    # A certificate is checked against its identity's registry defect.
    defect = identity_registry()["middle-square"].defect()
    assert verify_certificate("middle-square", []) == (False, defect)
    with pytest.raises(ValueError, match="^unknown identity 'nonsense' \\(have: assoc-shift, "):
        verify_certificate("nonsense", [])


# -- certificates ----------------------------------------------------------------


def test_shipped_certificates_all_verify():
    reports = {name: shipped_certificate_report(name) for name in load_certificates()}
    assert sorted(reports) == sorted(identity_registry())
    for name, rep in reports.items():
        assert rep.passed, name
        assert rep.law == "certificate:%s" % name


def test_certificate_instances_are_individually_nonzero():
    data = load_certificates()
    for entry in data.values():
        for inst in entry["instances"]:
            coeff, poly = build_instance(inst)
            assert coeff != 0
            assert not poly.is_zero()


def test_every_coefficient_corruption_is_detected():
    data = load_certificates()
    for name, entry in data.items():
        for i in range(len(entry["instances"])):
            bad = copy.deepcopy(entry["instances"])
            bad[i] = dict(
                bad[i], coeff=format_scalar(parse_scalar(bad[i]["coeff"]) + 1)
            )
            ok, residue = verify_certificate(name, bad)
            assert not ok
            assert not residue.is_zero()


@pytest.mark.parametrize("used", ["assoc-shift", "middle-square"], ids=["self", "forward"])
def test_certificates_may_lean_only_on_earlier_identities(used, tmp_path, monkeypatch):
    # Without the order check the self-reference verifies: defect - defect = 0.
    circular = [{"coeff": "1", "axiom": "defect:" + used,
                 "substitution": {"x": "x", "y": "y", "z": "z"}}]
    with pytest.raises(ValueError, match="only identities certified before it, not %r" % used):
        verify_certificate("assoc-shift", circular)
    data = copy.deepcopy(load_certificates())  # the cached dict is shared
    data["assoc-shift"]["instances"] = circular
    with pytest.raises(ValueError, match="only identities certified before it"):
        load_certificate_file(data, tmp_path, monkeypatch)


def load_certificate_file(data, tmp_path, monkeypatch):
    """load_certificates() on a certificate file that holds data."""
    (tmp_path / "data").mkdir()
    (tmp_path / "data" / "certificates.json").write_text(json.dumps(data))
    # load_certificates imports importlib.resources when called, and
    # reads the file only once per process until cache_clear().
    monkeypatch.setattr(resources, "files", lambda pkg: tmp_path)
    load_certificates.cache_clear()
    try:
        return load_certificates()
    finally:
        load_certificates.cache_clear()


def test_build_instance_rejects_malformed_entries():
    with pytest.raises(ValueError, match="coeff and axiom"):
        build_instance({"axiom": "right-alternative"})
    with pytest.raises(ValueError, match="unknown certificate axiom"):
        build_instance({"coeff": "1", "axiom": "nope", "substitution": {}})
    with pytest.raises(ValueError, match="cover exactly"):
        build_instance({"coeff": "1", "axiom": "right-alternative",
                        "substitution": {"x": "x"}})
    for entry, message in [
        ({"wrap": [["spin", 1]]}, "^unknown wrap op 'spin'$"),
        ({"axiom": "defect:nonsense"}, "^certificate references unknown identity 'nonsense'$"),
        ({"wrap": [["alpha"]]}, r"^bad wrap entry \['alpha'\]$"),
        ({"wrap": "ab"}, "^bad wrap entry 'a'$"),
        ({"wrap": [["alpha", 0]]}, "^alpha wrap needs a positive shift, got 0$"),
        ({"wrap": [["alpha", "2"]]}, "^alpha wrap needs a positive shift, got '2'$"),
    ]:
        with pytest.raises(ValueError, match=message):
            build_instance({"coeff": "1", "axiom": "right-alternative",
                            "substitution": {"x": "x", "y": "y", "z": "z"}, **entry})


def test_substitution_names_a_missing_variable():
    # build_instance covers every formal variable, so only a direct call misses one.
    with pytest.raises(ValueError, match="^substitution missing variable 'y'$"):
        subst_monomial(mono("x").mul(mono("y", 1)), {"x": mono("x")})


@pytest.mark.parametrize("data, message", [
    ({"nonsense": {"instances": []}}, "^certificate for unknown identity 'nonsense'$"),
    ({"assoc-shift": {"wrap": []}}, "^certificate 'assoc-shift' needs an 'instances' list$"),
    ({"assoc-shift": []}, "^certificate 'assoc-shift' needs an 'instances' list$"),
    ([], "^certificate file must map identity names to instance lists$"),
], ids=["unknown-identity", "no-instances", "not-an-object", "not-a-map"])
def test_load_certificates_refuses_a_malformed_file(data, message, tmp_path, monkeypatch):
    with pytest.raises(ValueError, match=message):
        load_certificate_file(data, tmp_path, monkeypatch)


# -- the S-expression DSL ---------------------------------------------------------


def test_parse_term_operators():
    x, y, z = var("x"), var("y"), var("z")
    assert parse_term("(as x y z)") == expand_associator(x, y, z)
    assert parse_term("(com x y)") == poly_commutator(x, y)
    assert parse_term("(add x y z)") == x + y + z
    assert parse_term("(sub x y)") == x - y
    assert parse_term("(neg x)") == -x
    assert parse_term("(scale 3/2 (mul x (a 2 y)))") == poly_mul(x, y.alpha(2)).scale(
        qq(3, 2)
    )


def test_parse_identity():
    lhs, rhs = parse_identity("(= (as x y y) (scale 0 x))")
    assert lhs == expand_associator(var("x"), var("y"), var("y"))
    assert rhs.is_zero()


def term_to_dsl(m):
    """A HomMonomial back in DSL syntax."""

    def go(t):
        if t[0] == "v":
            return t[1] if t[2] == 0 else "(a %d %s)" % (t[2], t[1])
        return "(mul %s %s)" % (go(t[1]), go(t[2]))

    return go(m.tree)


def test_dsl_round_trip():
    rng = random.Random(77)
    for _ in range(50):
        m = HomMonomial(normalize_raw(random_raw_tree(rng)))
        assert parse_monomial(term_to_dsl(m)) == m


@given(st.lists(st.builds(qq, st.integers(-3, 3), st.integers(1, 3)), min_size=4, max_size=4))
@settings(derandomize=True)
def test_elements_and_polynomials_print_alike(coeffs):
    # The basis names are the variables, in term order, so the texts agree whole.
    names = ("w", "x", "y", "z")
    A = HomAlgebra(4, names, [[[0] * 4] * 4] * 4, identity_matrix(4))
    poly = HomPolynomial({mono(n): c for n, c in zip(names, coeffs)})
    assert repr(A.element(coeffs)) == repr(poly)


def test_parse_monomial_requires_unit_coefficient():
    assert parse_monomial("(a 1 x)") == mono("x", 1)
    with pytest.raises(ValueError, match="single monomial"):
        parse_monomial("(add x y)")
    with pytest.raises(ValueError, match="single monomial"):
        parse_monomial("(scale 2 x)")


@pytest.mark.parametrize(
    "bad",
    ["(mul x", "(bogus x y)", "(a -1 x)", "(a x y)", "x y", "()", "(= x)"],
)
def test_parse_errors_carry_positions(bad):
    with pytest.raises(ValueError, match=r"\(at position \d+\)"):
        parse_identity(bad) if bad.startswith("(=") else parse_term(bad)


def test_whitespace_is_what_str_isspace_accepts():
    # U+001C, tab, U+3000, newline, no-break space and U+2029 separate tokens;
    # the zero-width space U+200B is not whitespace, so it stays inside one.
    assert repr(parse_term("(mul\x1cx\ty)")) == "(x*y)"
    assert repr(parse_term("\u3000(a 1 x)\n")) == "a1(x)"
    for parse, text, message in [
        (parse_term, "(mul x\u200by y)", "bad variable name 'x\\u200by' (at position 5)"),
        (parse_term, "(mul x y\xa0zz)", "expected ')', got 'zz' (at position 9)"),
        (parse_identity, "(= x\u2029", "unexpected end of input (at position 5)"),
    ]:
        with pytest.raises(ValueError) as err:
            parse(text)
        assert str(err.value) == message


# (parser, input with {} for the offending token, a short token, its message)
BAD_TOKENS = [
    (parse_term, "(mul x y {})", "zz", "expected ')', got 'zz' (at position 9)"),
    (parse_term, "{}", "$x", "bad variable name '$x' (at position 0)"),
    (parse_term, "(a {} x)", "k", "alpha power must be a non-negative integer, got 'k' "
     "(at position 3)"),
    (parse_term, "(scale {} x)", "1/x", "bad scalar literal '1/x' (at position 7)"),
    (parse_term, "({} x)", "bogus", "unknown operator 'bogus' (at position 1)"),
    (parse_identity, "({} x x)", "==", "identities must start with (=, got '==' (at position 1)"),
    (parse_monomial, "(add x {})", "y", "expected a single monomial with coefficient 1: "
     "'(add x y)'"),
]


@pytest.mark.parametrize("parse,text,token,message", BAD_TOKENS,
                         ids=[m.split(" (at")[0].split(",")[0] for *_, m in BAD_TOKENS])
def test_parse_errors_quote_at_most_a_prefix(parse, text, token, message):
    # A short token is quoted whole; a long one by its first QUOTE_CHARS
    # characters and its length.  parse_monomial quotes its whole input.
    with pytest.raises(ValueError) as short:
        parse(text.format(token))
    assert str(short.value) == message
    long = token * 1000
    whole = (text.format(token), text.format(long)) if parse is parse_monomial else (token, long)
    with pytest.raises(ValueError) as cut:
        parse(text.format(long))
    assert str(cut.value) == message.replace(
        repr(whole[0]), "%r... (%d characters)" % (whole[1][:QUOTE_CHARS], len(whole[1])))


def test_parse_caps_nesting_depth():
    def nested(depth):
        return "(neg " * (depth - 1) + "x" + ")" * (depth - 1)

    assert parse_term(nested(MAX_DEPTH)) == var("x").scale(-1 if MAX_DEPTH % 2 == 0 else 1)
    with pytest.raises(ValueError, match=r"nest deeper than %d levels \(at position %d\)"
                       % (MAX_DEPTH, 5 * MAX_DEPTH)):
        parse_term(nested(MAX_DEPTH + 1))


def test_parse_caps_alpha_powers():
    cap = MAX_ALPHA_POWER
    assert parse_term("(a %d x)" % cap) == var("x").alpha(cap)
    assert parse_term("(a 1 (mul (a %d y) (a 000%d x)))" % (cap - 1, cap - 1)) == poly_mul(
        var("y").alpha(cap), var("x").alpha(cap))
    too_high = r"alpha powers on one leaf add up to more than %d \(at position %d\)"
    with pytest.raises(ValueError, match=too_high % (cap, 3)):
        parse_term("(a 10000000 x)")
    with pytest.raises(ValueError, match=too_high % (cap, 3)):
        parse_term("(a 1%s x)" % ("0" * 5000))  # past int()'s 4300-digit limit
    with pytest.raises(ValueError, match=too_high % (cap, 15)):
        parse_term("(a 1 (mul y (a %d x)))" % cap)


def test_parse_caps_expanded_terms():
    # (mul (add x y) T) doubles T's terms; the first mul whose operands'
    # counts multiply past MAX_TERMS is refused at its own "(".
    prefix = "(mul (add x y) "
    chain = prefix * 40 + "x" + ")" * 40
    inner = next(m for m in range(40) if 2 * 2 ** m > MAX_TERMS)  # muls inside it
    too_many = r"\(%s \.\.\.\) would expand to more than %d terms \(at position %d\)"
    with pytest.raises(ValueError, match=too_many % ("mul", MAX_TERMS,
                                                     len(prefix) * (40 - inner - 1))):
        parse_term(chain)

    def total(name, n):
        return "(add %s)" % " ".join("%s%d" % (name, i) for i in range(n))

    side = int(MAX_TERMS ** 0.5)
    assert side * side == MAX_TERMS
    assert parse_term("(mul %s %s)" % (total("x", side), total("y", side))).num_terms() == MAX_TERMS
    for head, last in (("com", ""), ("as", " z")):
        text = "(%s %s %s%s)" % (head, total("x", side + 1), total("y", side), last)
        with pytest.raises(ValueError, match=too_many % (head, MAX_TERMS, 0)):
            parse_term(text)


def dsl_term(parts):
    return "(%s)" % " ".join(parts)


# Well-formed terms of every form the grammar has, at most four leaves.
DSL_TERMS = st.recursive(
    st.sampled_from(["x", "y", "z"]),
    lambda t: st.one_of(
        st.tuples(st.just("mul"), t, t),
        st.tuples(st.just("a"), st.sampled_from(["0", "1", "2"]), t),
        st.tuples(st.just("as"), t, t, t),
        st.tuples(st.just("com"), t, t),
        st.lists(t, min_size=1, max_size=3).map(lambda ts: ["add", *ts]),
        st.tuples(st.just("sub"), t, t),
        st.tuples(st.just("neg"), t),
        st.tuples(st.just("scale"), st.sampled_from(["2", "-1/3", "0"]), t),
    ).map(dsl_term),
    max_leaves=4,
)
DSL_IDENTITIES = st.tuples(DSL_TERMS, DSL_TERMS).map(lambda lr: "(= %s %s)" % lr)
# Token soup: the grammar's words, broken numerals and stray characters in
# any order, bare or inside (= ...), and arbitrary text.
DSL_TOKENS = st.sampled_from(["(", ")", "=", "mul", "a", "as", "com", "add", "sub", "neg",
                              "scale", "x", "y", "0", "3", "-1", "1/2", "1/0", "\u0661",
                              "0_1", "1e3", "?"])
DSL_SOUP = st.one_of(
    st.lists(DSL_TOKENS, max_size=12).map(" ".join),
    st.lists(DSL_TOKENS, max_size=12).map(lambda ts: "(= %s)" % " ".join(ts)),
    st.text(max_size=20),
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(DSL_IDENTITIES | DSL_SOUP)
def test_parse_identity_parses_or_refuses_any_text(text):
    try:
        lhs, rhs = parse_identity(text)
    except ValueError:
        return
    assert isinstance(lhs, HomPolynomial) and isinstance(rhs, HomPolynomial)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(DSL_IDENTITIES | DSL_SOUP)
def test_identity_command_exits_with_a_code_on_any_text(text):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(["identity", "albert5", "--twist", "2,3,0", "--expr=" + text])
    assert rc in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()


def test_identity_defs_are_frozen():
    ident = next(iter(identity_registry().values()))
    with pytest.raises(AttributeError):
        ident.name = "renamed"
    assert ident == copy.copy(ident)
