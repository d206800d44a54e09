"""The benchmark's workloads: seeded input generators and known answers.

Each workload is a list of ``homalt`` invocations, each with the
verdict it must produce.  Inputs are built from the seed through the
public API only (``HomAlgebra``, ``Matrix``, ``algebra_to_json``); the
albert5 algebras come from the CLI's own ``albert5 --twist`` generator.
Known answers come from theory or from the independent evaluator in
``reference.py``.

Run as a script, it writes one workload's inputs and its ``plan.json``
into a directory; the benchmark times that process as its set-up:

    PYTHONPATH=src python3 perfbench/workloads.py octonion8 7 OUTDIR
"""

import json
import os
import platform
import random
import sys

from homalt import HomAlgebra, Matrix, Scalar, algebra_to_json

import reference

SUITE_LAWS = {
    "axioms": ["multiplicative", "right-hom-alternative"],
    "powers": ["hom-power-associative(n=%d)" % n for n in range(2, 6)]
    + ["third-fourth-power-criterion"],
    "jordan": ["hom-jordan-admissible"],
    "decompose": ["idempotent-decomposition", "element-splitting"],
    "operators": ["mul-operator-identities", "idempotent-operator-suite"],
    "identities": ["assoc-shift", "assoc-shift-linear", "commutator-exchange",
                   "middle-square", "right-moufang", "associator-tail"],
    "symbolic": ["hom-teichmuller"] + ["certificate:" + n for n in (
        "assoc-shift", "assoc-shift-linear", "associator-tail",
        "commutator-exchange", "middle-square", "right-moufang")],
}

NO_IDEMPOTENT_OPERATORS = ["mul-operator-identities"]


def rows(suites, passed=True, operators=None):
    """Expected (suite, law, passed) rows of ``check --suites ...``.

    ``passed`` None leaves the verdict unpinned.  ``operators`` replaces
    the operators suite's rows: its idempotent row appears only when an
    idempotent fixed by alpha exists and the algebra is right
    Hom-alternative.
    """
    out = []
    for s in suites:
        laws = operators if s == "operators" and operators is not None else SUITE_LAWS[s]
        out.extend([s, law, passed] for law in laws)
    return out


def invocation(argv, exit_code, expected_rows, witness=None):
    return {"argv": argv, "exit": exit_code, "rows": expected_rows, "witness": witness or {}}


def write_algebra(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- albert5-family ----------------------------------------------------------


def albert5_family(seed, outdir):
    """The paper's running example at ROADMAP's baseline twist and at a
    twist with non-diagonal alpha, then x^5 = x^(3,2) proved on the
    baseline, which runs the ``identity`` command's DSL parse and tree
    sweep (identity-deg6 at a degree that takes ~2 s).  The seed does
    not enter: the algebras and the identity are fixed.

    With epsilon != 0 no idempotent is fixed by alpha, so ``decompose``
    would exit 3; that invocation runs every other suite.
    """
    suites = list(SUITE_LAWS)
    no_decompose = [s for s in suites if s != "decompose"]
    return [
        invocation(["check", "albert5", "--twist", "2,3,0", "--output", "json"],
                   0, rows(suites)),
        invocation(["check", "albert5", "--twist=-1,4,7", "--suites", ",".join(no_decompose),
                    "--output", "json"],
                   0, rows(no_decompose, operators=NO_IDEMPOTENT_OPERATORS)),
        power_identity(outdir, 5, 3, 2),
    ]


# -- octonion8 -------------------------------------------------------------


def cayley_dickson(x, y):
    """(a, b)(c, d) = (ac - d*b, da + bc*) on coordinate lists of length 2^n."""
    n = len(x)
    if n == 1:
        return [x[0] * y[0]]
    h = n // 2
    a, b, c, d = x[:h], x[h:], y[:h], y[h:]
    left = [p - q for p, q in zip(cayley_dickson(a, c), cayley_dickson(conjugate(d), b))]
    right = [p + q for p, q in zip(cayley_dickson(d, a), cayley_dickson(b, conjugate(c)))]
    return left + right


def conjugate(x):
    if len(x) == 1:
        return list(x)
    h = len(x) // 2
    return conjugate(x[:h]) + [-t for t in x[h:]]


def octonion_table():
    """mu[i][j] = e_i * e_j for the octonions over Q (e_0 = 1)."""
    unit = [[int(t == i) for t in range(8)] for i in range(8)]
    return [[cayley_dickson(unit[i], unit[j]) for j in range(8)] for i in range(8)]


def sign_character(s):
    """chi(t) = (-1)^|t & s|: a character of the Z_2^3 grading e_i e_j ~ e_(i^j)."""
    return [(-1) ** bin(t & s).count("1") for t in range(8)]


def octonion8(seed, outdir):
    """Octonions Yau-twisted by a nontrivial sign automorphism chi:
    mu' = chi o mu, alpha = chi.  Twisting an alternative algebra by an
    automorphism gives a (left and right) Hom-alternative algebra."""
    s = random.Random(seed).randrange(1, 8)
    chi = sign_character(s)
    table = octonion_table()
    names = ["e%d" % i for i in range(8)]
    ident = [[int(i == j) for j in range(8)] for i in range(8)]
    plain = algebra_to_json(HomAlgebra(8, names, table, Matrix(ident)))
    alpha = Matrix.diagonal(chi)
    for bad, what in (
        (reference.right_alternative_witness(plain), "right alternative"),
        (reference.left_alternative_witness(plain), "left alternative"),
        (reference.morphism_witness(plain, [list(r) for r in alpha.data]),
         "fixed by chi = %r" % chi),
    ):
        if bad is not None:
            raise AssertionError("octonion table is not %s: witness %r" % (what, bad))
    twisted = [[[c * chi[k] for k, c in enumerate(table[i][j])] for j in range(8)]
               for i in range(8)]
    write_algebra(os.path.join(outdir, "octonion8.json"),
                  algebra_to_json(HomAlgebra(8, names, twisted, alpha)))
    suites = ["axioms", "powers", "jordan", "decompose", "operators"]
    return [invocation(["check", "octonion8.json", "--suites", ",".join(suites),
                        "--output", "json"], 0, rows(suites))]


# -- identity-deg6 ---------------------------------------------------------


def hom_power(n):
    """x^1 = x, x^n = x^(n-1) * alpha^(n-2)(x), in the homalt DSL."""
    if n == 1:
        return "x"
    return "(mul %s (a %d x))" % (hom_power(n - 1), n - 2)


def hom_power_pair(i, j):
    """x^(i,j) = alpha^(j-1)(x^i) * alpha^(i-1)(x^j)."""
    return "(mul (a %d %s) (a %d %s))" % (j - 1, hom_power(i), i - 1, hom_power(j))


def power_identity(outdir, n, i, j):
    """Write x^n = x^(i,j) as DSL text and return the invocation that
    proves it on albert5 (2,3,0).  n-th power associativity holds in
    every multiplicative right Hom-alternative algebra."""
    name = "x%d=x(%d,%d)" % (n, i, j)
    path = "x%d_x%d%d.dsl" % (n, i, j)
    with open(os.path.join(outdir, path), "w") as fh:
        fh.write("(= %s %s)\n" % (hom_power(n), hom_power_pair(i, j)))
    return invocation(["identity", "albert5", "--twist", "2,3,0", "--file", path,
                       "--name", name, "--output", "json"],
                      0, [["identity", name, True]])


def identity_deg6(seed, outdir):
    """Certificate replay, then x^6 = x^(4,2) proved on albert5 (2,3,0).
    The seed does not enter."""
    return [
        invocation(["symbolic", "--output", "json"], 0, rows(["symbolic"])),
        power_identity(outdir, 6, 4, 2),
    ]


# -- refute-random ---------------------------------------------------------

RANDOM_TABLES = 24


def random_table(rng, dim):
    return [[[rng.randint(-3, 3) for _ in range(dim)] for _ in range(dim)]
            for _ in range(dim)]


def refute_random(seed, outdir):
    """Dense random tables with alpha = Id: multiplicative, not right
    alternative.  Dimensions cycle 4, 5, 6 so every seed does the same
    amount of work; each table is redrawn until the reference finds a
    failing triple, and that triple is the expected witness."""
    rng = random.Random(seed)
    os.makedirs(os.path.join(outdir, "tables"), exist_ok=True)
    suites = ["axioms", "powers", "jordan", "operators", "identities"]
    plan = []
    for t in range(RANDOM_TABLES):
        dim = 4 + t % 3
        ident = Matrix([[int(i == j) for j in range(dim)] for i in range(dim)])
        while True:
            A = HomAlgebra(dim, ["b%d" % i for i in range(dim)], random_table(rng, dim), ident)
            obj = algebra_to_json(A)
            witness = reference.right_alternative_witness(obj)
            if witness is not None:
                break
        path = os.path.join("tables", "random-%02d.json" % t)
        write_algebra(os.path.join(outdir, path), obj)
        expected = rows(suites, passed=None, operators=NO_IDEMPOTENT_OPERATORS)
        expected[0][2] = True   # multiplicative: alpha = Id
        expected[1][2] = False  # right-hom-alternative
        plan.append(invocation(
            ["check", path, "--suites", ",".join(suites), "--output", "json"], 1, expected,
            {"right-hom-alternative": [str(i) for i in witness]}))
    return plan


WORKLOADS = {
    "albert5-family": albert5_family,
    "octonion8": octonion8,
    "identity-deg6": identity_deg6,
    "refute-random": refute_random,
}

# Passes a timed run makes even when --seconds has run out.  The deg-6
# sweep builds a ~180 MB memo and is the noisiest workload on a shared
# host, so its run takes the median of three ~15 s passes.
MIN_PASSES = {"identity-deg6": 3}


def write_plan(name, seed, outdir):
    """Generate the inputs of workload ``name`` into ``outdir`` and write
    its ``plan.json``; returns the plan."""
    os.makedirs(outdir, exist_ok=True)
    plan = {
        "workload": name,
        "seed": seed,
        "invocations": WORKLOADS[name](seed, outdir),
        "min_passes": MIN_PASSES.get(name, 1),
        "environment": {
            "python": platform.python_version(),
            "scalar": "%s.%s" % (Scalar.__module__, Scalar.__qualname__),
            "HOMALT_THREADS": os.environ.get("HOMALT_THREADS"),
        },
    }
    with open(os.path.join(outdir, "plan.json"), "w") as fh:
        json.dump(plan, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return plan


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] not in WORKLOADS:
        sys.exit("usage: workloads.py {%s} SEED OUTDIR" % ",".join(WORKLOADS))
    write_plan(sys.argv[1], int(sys.argv[2]), sys.argv[3])
