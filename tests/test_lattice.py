"""The lattice route of core.polarized_defect_sweep.

A law of degree d is evaluated once at each point x_M = e_i + ... (the
basis elements of a multiset M of d indices).  That is a proof because
the C(dim + d - 1, d) points are unisolvent for forms of degree d: the
first test checks it as a rank.  The lattice verdicts must equal those of
the polarized Element sweep it replaced (conftest.element_sweep), also
where a law fails only at points that mix basis elements, and
every failing sweep row in the golden files must replay, from its
witness alone, through perfbench/reference.py, which imports nothing
from homalt.  So must the failing right-hom-alternative rows (both
associators at the basis triple) and mul-operator-identities rows (both
operators at the basis pair, row by row), though they are not sweeps.
"""

import ast
import json
import pathlib
import random
import runpy
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, prod

import pytest

from homalt.constructions import plus_algebra
from homalt.core import (
    HomAlgebra,
    algebra_to_json,
    apply_alpha,
    is_left_hom_alternative,
    is_right_hom_alternative,
    mul,
)
from homalt.dsl import parse_identity
from homalt.jordan import check_hom_jordan_admissible
from homalt.linalg import Matrix, identity_matrix, qq, rank
from homalt.powers import check_nth_hom_power_associative, check_third_fourth_criterion
from homalt.symbolic import identity_registry

from conftest import GOLDEN, element_sweep
from test_constructions import random_table_algebra
from test_golden import CASES

REFERENCE = runpy.run_path(
    str(pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "reference.py"))


# -- unisolvence ------------------------------------------------------------------


@pytest.mark.parametrize("dim", range(1, 5))
@pytest.mark.parametrize("d", range(1, 7))
def test_lattice_points_are_unisolvent_for_degree_d_forms(dim, d):
    # Rows: the points x_M, |M| = d; columns: the degree-d monomials, whose
    # exponent vectors are the same lattice.  Full rank means the only form
    # of degree d vanishing at every point is zero.
    lattice = [[M.count(i) for i in range(dim)]
               for M in combinations_with_replacement(range(dim), d)]
    values = [[prod(x ** e for x, e in zip(point, mono)) for mono in lattice]
              for point in lattice]
    assert len(lattice) == comb(dim + d - 1, d)
    assert rank(Matrix(values)) == len(lattice)


# -- verdicts against the polarized Element sweep -----------------------------------


def seeded_algebra(seed):
    """A multiplicative dim 2..4 algebra with rational constants: a sparse
    table with alpha = Id (failing), a commutative one with alpha = Id
    (n = 3 holds, n = 4 fails), a diagonal one, e_i e_i = c_i e_i, with
    alpha a coordinate projection (every law holds), or a table with
    e_i e_i = 0 and alpha = Id, where every law holds at the points
    x = d e_i and can fail only where x mixes basis elements."""
    rng = random.Random(seed)
    dim, kind = rng.randint(2, 4), seed % 4

    def scalar():
        return qq(rng.randint(-3, 3), rng.randint(1, 3))

    mu = [[[qq(0)] * dim for _ in range(dim)] for _ in range(dim)]
    alpha = identity_matrix(dim)
    if kind == 0:
        for i in range(dim):
            for j in range(dim):
                mu[i][j] = [scalar() if rng.random() < 0.4 else qq(0) for _ in range(dim)]
    elif kind == 1:
        for i in range(dim):
            for j in range(i, dim):
                mu[i][j] = mu[j][i] = [scalar() for _ in range(dim)]
    elif kind == 2:
        keep = [rng.random() < 0.7 for _ in range(dim)]
        for i in range(dim):
            mu[i][i][i] = scalar()
        alpha = Matrix([[int(keep[i] and i == j) for j in range(dim)] for i in range(dim)])
    else:
        for i in range(dim):
            for j in range(dim):
                if i != j:
                    mu[i][j] = [scalar() for _ in range(dim)]
    return HomAlgebra(dim, ["b%d" % i for i in range(dim)], mu, alpha)


def power(A, x, n):
    """x^n by the recursion x^n = x^(n-1) * alpha^(n-2)(x), on Elements."""
    return x if n == 1 else mul(A, power(A, x, n - 1), twist(A, x, n - 2))


def twist(A, x, k):
    for _ in range(k):
        x = apply_alpha(A, x)
    return x


def split_defects(A, n):
    def defects(x):
        xn = power(A, x, n)
        return [(i, xn - mul(A, twist(A, power(A, x, n - i), i - 1),
                             twist(A, power(A, x, i), n - i - 1))) for i in range(2, n)]
    return defects


def polarized_verdicts(A):
    """The powers rows n = 2..5, the criterion and Jordan admissibility by
    the polarized sweep on Elements."""
    verdicts = [element_sweep(A, n, "n", split_defects(A, n)).passed for n in range(2, 6)]

    def third(x):
        x2, ax = power(A, x, 2), apply_alpha(A, x)
        return [("third", mul(A, x2, ax) - mul(A, ax, x2))]

    def fourth(x):
        ax2 = apply_alpha(A, power(A, x, 2))
        return [("fourth", power(A, x, 4) - mul(A, ax2, ax2))]

    verdicts.append(element_sweep(A, 3, "c", third).passed
                    and element_sweep(A, 4, "c", fourth).passed)
    P = plus_algebra(A)
    basis = P.basis()

    def jordan(x):
        x2, ax = mul(P, x, x), apply_alpha(P, x)
        return [(yi, mul(P, mul(P, x2, apply_alpha(P, y)), apply_alpha(P, ax))
                 - mul(P, apply_alpha(P, x2), mul(P, apply_alpha(P, y), ax)))
                for yi, y in enumerate(basis)]

    return verdicts + [element_sweep(P, 3, "j", jordan).passed]


def test_lattice_verdicts_equal_the_polarized_element_sweep():
    seen = set()
    for seed in range(24):
        A = seeded_algebra(seed)
        got = [check_nth_hom_power_associative(A, n).passed for n in range(2, 6)]
        got += [check_third_fourth_criterion(A).passed, check_hom_jordan_admissible(A).passed]
        assert got == polarized_verdicts(A), seed
        seen.update(enumerate(got))
    # every row but n = 2 (which has no split) both passes and fails somewhere
    assert seen == {(0, True)} | {(k, v) for k in range(1, 6) for v in (True, False)}


def test_associator_law_witnesses_equal_the_reference():
    # The 400 tables tests/test_operators.py draws, with rational constants,
    # twisted alpha and non-multiplicative tables: each law's first failing
    # basis triple, or None, is the Fraction-only reference's.
    seen = set()
    for seed in range(200):
        for A in (seeded_algebra(seed), random_table_algebra(random.Random(seed), 2 + seed % 3)):
            obj = algebra_to_json(A)
            got = is_right_hom_alternative(A).witness, is_left_hom_alternative(A).witness
            want = (REFERENCE["right_alternative_witness"](obj),
                    REFERENCE["left_alternative_witness"](obj))
            assert got == want, seed
            seen.update((law, w is None) for law, w in enumerate(got))
    assert seen == {(law, passed) for law in (0, 1) for passed in (True, False)}


# -- replay of the golden files' failing sweep rows ----------------------------------


def parse_vector(text, names):
    """A reported lhs such as "-405*b0 + 3/2*b1 - b3" as Fractions."""
    out = [Fraction(0)] * len(names)
    if text != "0":
        for term in text.replace(" - ", " + -").split(" + "):
            sign = -1 if term.startswith("-") else 1
            coeff, _, name = term.lstrip("-").rpartition("*")
            out[names.index(name)] += sign * Fraction(coeff or 1)
    return out


class Replay:
    """The sweep defects of one algebra JSON object, evaluated by the
    Fraction-only reference at a witness."""

    def __init__(self, obj):
        self.alg = REFERENCE["Algebra"](obj)
        half = [dict(ent, c=str(Fraction(ent["c"]) / 2)) for ent in obj["mu"]]
        self.plus = REFERENCE["Algebra"](dict(obj, mu=half + [dict(ent, i=ent["j"], j=ent["i"])
                                                             for ent in half]))

    def point(self, M):
        return [Fraction(M.count(i)) for i in range(self.alg.dim)]

    def twist(self, x, k):
        for _ in range(k):
            x = self.alg.apply(self.alg.alpha, x)
        return x

    def power(self, x, n):
        return x if n == 1 else self.alg.mul(self.power(x, n - 1), self.twist(x, n - 2))

    def pair(self, x, i, j):
        return self.alg.mul(self.twist(self.power(x, i), j - 1),
                            self.twist(self.power(x, j), i - 1))

    def powers(self, n, M, i):
        x = self.point(M)
        return sub(self.power(x, n), self.pair(x, n - i, i))

    def criterion(self, M, tag):  # the i = 2 defects of n = 3 and n = 4
        return self.powers(3 if tag == "third" else 4, M, 2)

    def associators(self, i, j, k):  # the right Hom-alternative law's two sides
        e = [self.alg.unit(t) for t in (i, j, k)]
        return self.alg.associator(*e), [-a for a in self.alg.associator(e[0], e[2], e[1])]

    def r_composition(self, j, k):
        """R_x R_alpha(y) + R_y R_alpha(x) and alpha R_{x*y + y*x} at x = e_j,
        y = e_k, built row by row: row a is the operator applied to e_a."""
        A, x, y = self.alg, self.alg.unit(j), self.alg.unit(k)
        ax, ay = A.apply(A.alpha, x), A.apply(A.alpha, y)
        xy = [p + q for p, q in zip(A.mul(x, y), A.mul(y, x))]
        lhs, rhs = [], []
        for a in range(A.dim):
            e = A.unit(a)
            lhs.append([p + q for p, q in zip(A.mul(A.mul(e, x), ay), A.mul(A.mul(e, y), ax))])
            rhs.append(A.mul(A.apply(A.alpha, e), xy))
        return lhs, rhs

    def jordan(self, M, yi):
        P, x = self.plus, self.point(M)
        return P.associator(P.mul(x, x), P.apply(P.alpha, P.unit(yi)), P.apply(P.alpha, x))

    def polynomial(self, p, env):
        total = [Fraction(0)] * self.alg.dim
        for m, c in p.terms():
            value = self.tree(m.tree, env)
            total = [t + c * v for t, v in zip(total, value)]
        return total

    def tree(self, t, env):
        if t[0] == "v":
            return self.twist(env[t[1]], t[2])
        return self.alg.mul(self.tree(t[1], env), self.tree(t[2], env))


def sub(x, y):
    return [a - b for a, b in zip(x, y)]


def parse_matrix(text):
    """A reported "Matrix([[1, -3/2], [0, 2]])", over several lines, as rows of Fractions."""
    rows = text[len("Matrix([["):-len("]])")].split("],")
    return [[Fraction(a) for a in row.strip().lstrip("[").split(",")] for row in rows]


def failing_rows(name):
    """(law, witness, lhs, rhs) of each failing row of a golden file, JSON or text."""
    text = (GOLDEN / name).read_text()
    if name.endswith(".json"):
        return [(r["law"], tuple(ast.literal_eval(w) for w in r["witness"]), r["lhs"], r["rhs"])
                for r in json.loads(text)["results"] if not r["passed"]]
    rows = []
    for entry in text.replace("\n ", " ").splitlines():  # a matrix's rows continue indented
        if entry.startswith("FAIL  "):
            law, rest = entry.split("] ", 1)[1].split("  witness=", 1)
            witness, rest = rest.split("  lhs=", 1)
            witness = ast.literal_eval(witness)
            if isinstance(witness[0], str):  # one (variable, multiset) pair
                witness = (witness,)
            lhs, rest = rest.split("  rhs=", 1)
            rows.append((law, witness, lhs, rest.split("  -- ", 1)[0]))
    return rows


SWEPT = {"check", "powers", "jordan", "identity"}
REPLAYED = [(name, argv) for name, _, argv in CASES
            if argv[0] in SWEPT and argv[1].endswith(".json")]


def replayed_defect(replay, argv, law, witness):
    registry = identity_registry()
    if law.startswith("hom-power-associative(n="):
        return replay.powers(int(law[len("hom-power-associative(n="):-1]), *witness)
    if law == "third-fourth-power-criterion":
        return replay.criterion(*witness)
    if law == "hom-jordan-admissible":
        return replay.jordan(*witness)
    env = {v: replay.point(M) for v, M in witness}
    if law in registry:
        return replay.polynomial(registry[law].defect(), env)
    lhs, rhs = parse_identity(argv[argv.index("--expr") + 1])  # the identity command
    return replay.polynomial(lhs - rhs, env)


@pytest.mark.parametrize("name,argv", REPLAYED, ids=[name for name, _ in REPLAYED])
def test_golden_sweep_failures_replay_through_the_reference(name, argv):
    obj = json.loads((GOLDEN / argv[1]).read_text())
    replay, replayed = Replay(obj), 0
    for law, witness, lhs, rhs in failing_rows(name):
        if law == "right-hom-alternative":  # basis triple (i, j, k)
            got = parse_vector(lhs, obj["basis"]), parse_vector(rhs, obj["basis"])
            want = replay.associators(*witness)
        elif law == "mul-operator-identities":  # basis pair (j, k)
            got, want = (parse_matrix(lhs), parse_matrix(rhs)), replay.r_composition(*witness)
        else:
            got = parse_vector(lhs, obj["basis"]), rhs
            want = replayed_defect(replay, argv, law, witness), "0"
            assert want[0] != [0] * obj["dim"], (law, witness)
        assert got == want and want[0] != want[1], (law, witness)
        replayed += 1
    assert replayed > 0


def test_every_golden_sweep_failure_is_replayed():
    # The golden commands on albert5 pass every sweep, so only file inputs
    # have failing sweep rows to replay.
    for name, code, argv in CASES:
        if argv[0] in SWEPT and not argv[1].endswith(".json"):
            assert code == 0 and not failing_rows(name), name
