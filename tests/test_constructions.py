import pathlib
import random
import re
import runpy

import pytest

from homalt.constructions import (
    AlbertParams,
    albert5_alpha,
    albert5_twisted,
    derived_algebra,
    direct_sum,
    hom_module_distinguish,
    plus_algebra,
    yau_twist,
)
from homalt.core import (
    HomAlgebra,
    HypothesisError,
    algebra_to_json,
    hom_associator,
    is_multiplicative,
    is_right_hom_alternative,
    mul,
)
from homalt.linalg import Matrix, identity_matrix, mat_mul, mat_pow, qq, vec_mat

from conftest import TWIST_TRIPLES, twisted_albert, untwisted_alpha
from test_core import same_algebra


def random_params(rng):
    """Arbitrary family parameters with the delta constraint respected."""
    def scalar():
        return qq(rng.randint(-4, 4), rng.randint(1, 3))

    delta = scalar()
    while delta == 0 or delta == 1:
        delta = scalar()
    return AlbertParams(scalar(), delta, scalar())


# -- parameters and the morphism family ----------------------------------------


@pytest.mark.parametrize("delta", [0, 1, qq(1), "1"])
def test_params_reject_degenerate_delta(delta):
    with pytest.raises(ValueError, match="delta"):
        AlbertParams(2, delta, 0)


def test_params_coerce_strings_and_ints():
    p = AlbertParams("1/2", "-3", 4)
    assert p.gamma == qq(1, 2) and p.delta == qq(-3) and p.epsilon == qq(4)


def test_params_are_frozen_and_hash_by_value():
    p = AlbertParams(2, 3, 0)
    with pytest.raises(AttributeError):
        p.gamma = qq(5)
    assert p.gamma == qq(2)
    q = AlbertParams("2", qq(3), "0")
    assert p == q and hash(p) == hash(q)
    assert p != AlbertParams(2, 3, 1)
    assert repr(p) == "AlbertParams(gamma=%r, delta=%r, epsilon=%r)" % (qq(2), qq(3), qq(0))


def test_albert5_alpha_matrix():
    m = albert5_alpha(AlbertParams(2, 3, 5))
    rows = [
        [1, 5, 5, 0, 0],
        [0, 3, 0, 0, 0],
        [0, 0, 3, 0, 0],
        [0, 0, 0, 2, 0],
        [0, 0, 0, 0, 2],
    ]
    assert m == Matrix.from_rows([[qq(x) for x in row] for row in rows])


def test_alpha_family_is_weak_morphism(albert):
    # the twist constructor itself verifies this; spot-check by hand too
    rng = random.Random(4)
    for _ in range(10):
        beta = albert5_alpha(random_params(rng))
        for i in range(5):
            for j in range(5):
                x, y = albert.basis_element(i), albert.basis_element(j)
                bx = albert.element(list(beta.row(i).entries))
                by = albert.element(list(beta.row(j).entries))
                # beta(xy) == beta(x) beta(y)
                lhs = albert.element(list(vec_mat(mul(albert, x, y).coords, beta).entries))
                assert lhs == mul(albert, bx, by)


# -- the twisted product table ---------------------------------------------------


@pytest.mark.parametrize("triple", TWIST_TRIPLES)
def test_twisted_product_table(triple):
    params = AlbertParams(*triple)
    A = albert5_twisted(params)
    g, d, eps = params.gamma, params.delta, params.epsilon
    e, u, v, w, z = [A.basis_element(i) for i in range(5)]
    expected = {
        (0, 0): e + u.scale(eps) + v.scale(eps),  # alpha(e)
        (0, 1): v.scale(d),  # alpha(v)
        (1, 0): u.scale(d),  # alpha(u)
        (0, 3): (w - z).scale(g),  # alpha(w - z)
        (0, 4): z.scale(g),  # alpha(z)
        (4, 0): z.scale(g),
    }
    for i in range(5):
        for j in range(5):
            want = expected.get((i, j), A.zero())
            assert mul(A, A.basis_element(i), A.basis_element(j)) == want
    # the base map is Id, so the twisted algebra's map is the morphism itself
    assert A.alpha == albert5_alpha(params)


@pytest.mark.parametrize("triple", TWIST_TRIPLES)
def test_untwisted_product_right_alternative_defect(triple):
    # keeping the twisted table but alpha = Id breaks right alternativity
    # by exactly (delta^2 - delta) u at (u, e, e)
    params = AlbertParams(*triple)
    Ao = untwisted_alpha(albert5_twisted(params))
    d = params.delta
    u, e = Ao.basis_element(1), Ao.basis_element(0)
    assert hom_associator(Ao, u, e, e) == u.scale(d * d - d)
    assert not is_right_hom_alternative(Ao).passed


# -- yau_twist --------------------------------------------------------------------


def test_yau_twist_requires_weak_morphism(albert):
    rows = [[qq(0)] * 5 for _ in range(5)]
    for i in range(5):
        rows[i][i] = qq(1)
    rows[0][1] = qq(1)  # beta(e) = e + u is not multiplicative for the table
    with pytest.raises(ValueError, match="weak morphism"):
        yau_twist(albert, Matrix.from_rows(rows))


def test_yau_twist_dimension_guard(albert):
    with pytest.raises(ValueError):
        yau_twist(albert, identity_matrix(4))


def test_yau_twist_by_identity_is_same_algebra(albert):
    assert same_algebra(yau_twist(albert, identity_matrix(5)), albert)


def test_yau_twist_closure_random(albert):
    # fifty random family twists stay multiplicative and right Hom-alternative
    rng = random.Random(9)
    for _ in range(50):
        A = yau_twist(albert, albert5_alpha(random_params(rng)))
        assert is_multiplicative(A).passed
        assert is_right_hom_alternative(A).passed


def test_yau_twist_composition_for_commuting_morphisms(albert):
    # with epsilon = 0 the family commutes, and twisting twice is one twist
    # by the composite (row-vector convention: matrix of b2 o b1 is M1 M2)
    b1 = albert5_alpha(AlbertParams(2, 3, 0))
    b2 = albert5_alpha(AlbertParams(-1, 5, 0))
    assert mat_mul(b1, b2) == mat_mul(b2, b1)
    twice = yau_twist(yau_twist(albert, b1), b2)
    once = yau_twist(albert, mat_mul(b1, b2))
    assert same_algebra(twice, once)


# -- morphism witnesses against perfbench/reference.py, which imports nothing
# -- from homalt

REFERENCE = runpy.run_path(
    str(pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "reference.py"))


def random_table_matrix(rng, dim):
    """The identity, zero, a diagonal of 0 and +-1, a permutation, or a
    sparse matrix: the first four are often weak morphisms of a sparse table."""
    kind = rng.randrange(5)
    if kind == 0:
        return identity_matrix(dim)
    if kind == 1:
        return Matrix.zero(dim, dim)
    if kind == 2:
        return Matrix.diagonal([rng.choice((0, 1, -1)) for _ in range(dim)])
    rows = [[qq(0)] * dim for _ in range(dim)]
    if kind == 3:
        for i, j in enumerate(rng.sample(range(dim), dim)):
            rows[i][j] = qq(1)
    else:
        for i in range(dim):
            for j in rng.sample(range(dim), 2):
                rows[i][j] = qq(rng.choice((-2, -1, 1, 3)), rng.choice((1, 2)))
    return Matrix.from_rows(rows)


def random_table_algebra(rng, dim):
    """A sparse random product table: each e_i*e_j is 0 or c * e_k."""
    mu = [[[qq(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        for j in range(dim):
            if rng.random() < 0.4:
                mu[i][j][rng.randrange(dim)] = qq(rng.choice((-1, 1, 2)), rng.choice((1, 2)))
    names = ["b%d" % i for i in range(dim)]
    return HomAlgebra(dim, names, mu, random_table_matrix(rng, dim))


def refused_pair(A, beta):
    """The basis pair yau_twist(A, beta) names in its refusal, or None."""
    try:
        yau_twist(A, beta)
    except HypothesisError as exc:
        x, y = re.fullmatch(r"beta is not a weak morphism: beta\((\w+)\*(\w+)\) != .*",
                            str(exc)).groups()
        return A.basis_names.index(x), A.basis_names.index(y)
    return None


def test_morphism_witnesses_match_the_reference():
    rng = random.Random(17)
    witnesses = []
    for _ in range(200):
        A = random_table_algebra(rng, rng.randint(2, 4))
        beta = random_table_matrix(rng, A.dim)
        obj = algebra_to_json(A)
        want = REFERENCE["morphism_witness"](obj, obj["alpha"])
        rep = is_multiplicative(A)
        assert (None if rep.passed else rep.witness) == want
        want_beta = REFERENCE["morphism_witness"](obj, [list(row) for row in beta.data])
        assert refused_pair(A, beta) == want_beta
        witnesses += [want, want_beta]
    # both verdicts, and failures at many pairs, not only at (0, 0)
    assert witnesses.count(None) > 100 and len(set(witnesses)) > 8


# -- derived algebras --------------------------------------------------------------


def test_derived_algebra_levels(a230):
    assert same_algebra(derived_algebra(a230, 0), a230)
    d1 = derived_algebra(a230, 1)
    assert d1.alpha == mat_mul(a230.alpha, a230.alpha)
    for i in range(5):
        for j in range(5):
            # derived product = alpha o (original product), coordinatewise
            assert d1.mu[i][j] == vec_mat(a230.mu[i][j], a230.alpha)
    d2 = derived_algebra(a230, 2)
    assert d2.alpha == mat_mul(a230.alpha, mat_pow(a230.alpha, 2))
    assert same_algebra(derived_algebra(d1, 1), yau_twist(a230, mat_pow(a230.alpha, 3)))


def test_derived_algebra_preserves_laws(twisted):
    for n in (1, 2):
        D = derived_algebra(twisted, n)
        assert is_multiplicative(D).passed
        assert is_right_hom_alternative(D).passed


def test_derived_algebra_guards(a230, non_multiplicative):
    with pytest.raises(ValueError):
        derived_algebra(a230, -1)
    with pytest.raises(ValueError, match="multiplicative"):
        derived_algebra(non_multiplicative, 1)


# -- plus algebra -------------------------------------------------------------------


def test_plus_algebra_symmetrizes(a230):
    P = plus_algebra(a230)
    assert P.alpha == a230.alpha
    for i in range(5):
        for j in range(5):
            x, y = a230.basis_element(i), a230.basis_element(j)
            xy = mul(a230, x, y)
            yx = mul(a230, y, x)
            want = (xy + yx).scale(qq(1, 2)).coords
            assert P.mu[i][j].entries == want.entries
            assert P.mu[i][j] == P.mu[j][i]
    assert same_algebra(plus_algebra(P), P)


# -- direct sums -------------------------------------------------------------------


def test_direct_sum_of_twists_keeps_both_axioms():
    A, B = twisted_albert(2, 3, 0), twisted_albert(-1, 4, 7)
    S = direct_sum(A, B)
    assert S.dim == 10
    assert S.basis_names == tuple(n + "_1" for n in A.basis_names) + tuple(
        n + "_2" for n in B.basis_names)
    assert is_multiplicative(S).passed and is_right_hom_alternative(S).passed
    x, y = S.basis_element(0), S.basis_element(6)  # e_1 and u_2
    assert mul(S, x, y).is_zero() and mul(S, y, x).is_zero()
    assert [list(r) for r in S.alpha.data][6] == [0] * 6 + [4, 0, 0, 0]


def test_direct_sum_keeps_disjoint_names(albert, bad_algebra):
    assert direct_sum(albert, bad_algebra).basis_names == ("e", "u", "v", "w", "z", "a", "b", "c")


def test_direct_sum_reports_the_failing_summand_shifted(a230, bad_algebra, non_multiplicative):
    bad = is_right_hom_alternative(bad_algebra)
    assert not bad.passed
    for S, shift in ((direct_sum(a230, bad_algebra), 5), (direct_sum(bad_algebra, a230), 0)):
        assert is_multiplicative(S).passed
        rep = is_right_hom_alternative(S)
        assert not rep.passed
        assert rep.witness == tuple(i + shift for i in bad.witness)
    bad = is_multiplicative(non_multiplicative)
    rep = is_multiplicative(direct_sum(a230, non_multiplicative))
    assert not bad.passed and not rep.passed
    assert rep.witness == tuple(i + 5 for i in bad.witness)


# -- distinguishing twisted algebras -------------------------------------------------


def test_hom_module_distinguish():
    assert hom_module_distinguish(twisted_albert(2, 3, 0), twisted_albert(5, 7, 0))
    assert not hom_module_distinguish(twisted_albert(2, 3, 0), twisted_albert(2, 3, 0))
    # same alpha spectrum, different epsilon: honestly inconclusive
    assert not hom_module_distinguish(twisted_albert(2, 3, 0), twisted_albert(2, 3, 5))


def test_hom_module_distinguish_dim_guard(albert, bad_algebra):
    # algebras of different dimensions are never isomorphic
    rep = hom_module_distinguish(albert, bad_algebra)
    assert rep.passed and rep.note == "distinguishable: dimensions differ (5 != 3)"
