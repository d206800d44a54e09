"""The identity sweep against symbolic multilinearization.

check_identity_on_algebra evaluates a defect once at each lattice point
of powers.polarized_defect_sweep: each degree-d variable is a sum x_M of
d basis elements, with repeats.  The verdict reference takes the
independent route: multilinearize the defect symbolically (d! slot
permutations per degree-d variable), then evaluate the multilinear
polynomial on every assignment of basis elements to the slots.  Over Q
the defect vanishes iff its multilinear form does, so the verdicts must
agree; the witness and lhs must equal those of the same lattice sweep
on Elements, the defect's tree evaluated by mul and apply_alpha.
"""

import sys
from itertools import combinations_with_replacement, product

from hypothesis import given, settings
from hypothesis import strategies as st

import homalt.core
from homalt.constructions import AlbertParams, albert5_twisted
from homalt.core import CheckReport, HomAlgebra, apply_alpha, mul
from homalt.linalg import Matrix, identity_matrix
from homalt.powers import hom_power_pair_poly, hom_power_poly
from homalt.symbolic import check_identity_on_algebra, identity_registry, multilinearize

from conftest import lattice_point

SETTINGS = settings(max_examples=120, derandomize=True, deadline=None)

# (name, lhs, rhs, degrees): the registry, and x^n = x^(n-i,i) for n <= 5
IDENTITIES = [(name, idf.lhs, idf.rhs, idf.degrees) for name, idf in identity_registry().items()]
IDENTITIES += [
    ("x%d=x(%d,%d)" % (n, n - i, i), hom_power_poly(n), hom_power_pair_poly(n - i, i), {"x": n})
    for n in range(2, 6)
    for i in range(1, n)
]


def _eval_tree(A, tree, env, memo):
    got = memo.get(tree)
    if got is None:
        if tree[0] == "v":
            got = env[tree[1]]
            for _ in range(tree[2]):
                got = apply_alpha(A, got)
        else:
            got = mul(A, _eval_tree(A, tree[1], env, memo), _eval_tree(A, tree[2], env, memo))
        memo[tree] = got
    return got


def multilinear_verdict(A, lhs, rhs, degrees):
    """multilinearize, then a plain sweep over basis assignments of the slots:
    does lhs = rhs hold throughout A?"""
    lin, groups = multilinearize(lhs - rhs, degrees)
    names = sorted(groups)
    basis = A.basis()
    for combo in product(
        *(combinations_with_replacement(range(A.dim), len(groups[v])) for v in names)
    ):
        env = {slot: basis[i] for v, M in zip(names, combo) for slot, i in zip(groups[v], M)}
        memo = {}
        acc = A.zero()
        for m, c in lin.terms():
            acc = acc + _eval_tree(A, m.tree, env, memo).scale(c)
        if not acc.is_zero():
            return False
    return True


def reference_check(A, lhs, rhs, degrees, name):
    """The lattice sweep on Elements: the defect at x_M for each variable,
    variables in sorted order, first failing point as witness."""
    defect = lhs - rhs
    if defect.is_zero():
        return CheckReport(True, name,
                           note="normalizes to zero in the free multiplicative Hom-algebra")
    names = sorted(degrees)
    for combo in product(
        *(combinations_with_replacement(range(A.dim), degrees[v]) for v in names)
    ):
        env = {v: lattice_point(A, M) for v, M in zip(names, combo)}
        memo = {}
        acc = A.zero()
        for m, c in defect.terms():
            acc = acc + _eval_tree(A, m.tree, env, memo).scale(c)
        if not acc.is_zero():
            return CheckReport(False, name, tuple(zip(names, combo)), acc, A.zero())
    return CheckReport(True, name, note="lattice sweep over all basis multisets")


@st.composite
def multiplicative_algebras(draw):
    """Small multiplicative algebras with integer constants, most of them
    failing: usually a sparse random table with alpha = Id, sometimes a
    diagonal table (e_i * e_i = c_i e_i, associative) with alpha a
    coordinate projection, where every identity here holds."""
    dim = draw(st.integers(2, 4))
    names = ["b%d" % i for i in range(dim)]
    if draw(st.integers(0, 3)):
        entries = st.sampled_from([0, 0, 1, -1, 2, -3])
        flat = draw(st.lists(entries, min_size=dim ** 3, max_size=dim ** 3))
        mu = [[flat[(i * dim + j) * dim:(i * dim + j + 1) * dim] for j in range(dim)]
              for i in range(dim)]
        return HomAlgebra(dim, names, mu, identity_matrix(dim))
    mu = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    keep = draw(st.lists(st.booleans(), min_size=dim, max_size=dim))
    for i in range(dim):
        mu[i][i][i] = draw(st.integers(-2, 2))
    alpha = Matrix([[int(keep[i] and i == j) for j in range(dim)] for i in range(dim)])
    return HomAlgebra(dim, names, mu, alpha)


@SETTINGS
@given(multiplicative_algebras(), st.sampled_from(IDENTITIES))
def test_engine_matches_symbolic_multilinearization(A, identity):
    name, lhs, rhs, degrees = identity
    got = check_identity_on_algebra(A, lhs, rhs, name)
    assert got.as_dict() == reference_check(A, lhs, rhs, degrees, name).as_dict()
    assert got.passed == multilinear_verdict(A, lhs, rhs, degrees)


@SETTINGS
@given(multiplicative_algebras(), st.sampled_from(IDENTITIES[:6]))
def test_engine_matches_on_corrupted_registry_identities(A, identity):
    name, lhs, rhs, degrees = identity
    got = check_identity_on_algebra(A, lhs, -rhs, name)
    assert got.as_dict() == reference_check(A, lhs, -rhs, degrees, name).as_dict()
    assert got.passed == multilinear_verdict(A, lhs, -rhs, degrees)


def test_degree_seven_power_identity_is_cheap(monkeypatch):
    # Symbolic multilinearization turns each monomial of x^7 into 7! slot
    # permutations; the lattice needs one evaluation per point.
    calls = []
    orig = homalt.core.mul_nums

    def counted(*args):
        calls.append(None)
        return orig(*args)

    for name, module in list(sys.modules.items()):
        if name == "homalt" or name.startswith("homalt."):
            for attr, value in list(vars(module).items()):
                if value is orig:
                    monkeypatch.setattr(module, attr, counted)
    A = albert5_twisted(AlbertParams(2, 3, 0))
    rep = check_identity_on_algebra(A, hom_power_poly(7), hom_power_pair_poly(5, 2))
    assert rep.passed and rep.note == "lattice sweep over all basis multisets"
    assert 0 < len(calls) < 20000, len(calls)
