import json
import math
import os
import pathlib
import random
import shutil
import subprocess
import sys
import threading
import time

import pytest

from homalt import cli, core, idempotents, linalg, powers, symbolic
from homalt.cli import _build_parser, main
from homalt.constructions import (
    AlbertParams,
    albert5_base,
    albert5_alpha,
    albert5_twisted,
    derived_algebra,
    plus_algebra,
    yau_twist,
)
from homalt.core import (
    Element,
    algebra_from_json,
    is_multiplicative,
    is_right_hom_alternative,
    load_algebra,
    save_algebra,
)
from homalt.dsl import MAX_ALPHA_POWER

from conftest import FIXTURES, GOLDEN, swapped_alpha_albert
from test_core import same_algebra

BAD = str(FIXTURES / "non_right_alt_dim3.json")
# Relative paths that test_unmet_precondition_pins_stderr puts in place.
RANDOM00 = "random-00.json"
SWAPPED = "swapped.json"  # swapped_alpha_albert()
# albert5 (2,3,0) with alpha's rows u and v swapped: not multiplicative
NON_MULTIPLICATIVE = "non_multiplicative_dim5.json"
# Nested past Python's recursion limit.
DEEP = "(= %sx%s x)" % ("(neg " * 3000, ")" * 3000)
# Each level doubles the expanded term count: 2^40 terms unless capped.
WIDE = "(= %sx%s x)" % ("(mul (add x y) " * 40, ")" * 40)


# -- exit-code taxonomy ---------------------------------------------------------


def test_passing_check_exits_zero(capsys):
    assert main(["check", "albert5", "--suites", "axioms"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    assert "2/2 checks passed" in out


def test_full_default_check_on_the_builtin(capsys):
    assert main(["check", "albert5"]) == 0
    assert "25/25 checks passed" in capsys.readouterr().out


def test_failing_law_exits_one(capsys):
    assert main(["check", BAD, "--suites", "axioms"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "witness=(0, 0, 0)" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "/no/such/file.json"],
        ["check", "albert5", "--twist", "1,1,1"],
        ["check", "albert5", "--twist", "2,3"],
        ["check", "albert5", "--suites", "axioms,bogus"],
        ["check", "albert5", "--nmax", "1"],
        ["check", "albert5", "--nmax", "40"],  # a sweep above core.MAX_SWEEP
        ["identity", "albert5", "--expr", "(mul x"],
        ["identity", "albert5", "--expr", "(= (mul x x) x)"],  # not homogeneous
        ["twist", "albert5", "--by", "/no/such/beta.json"],
        ["operators", "albert5", "--twist", "2,3,0", "--idempotent", "1,0"],
        ["powers", "albert5", "--n", "0"],
        ["powers", "albert5", "--n", "1"],
        ["identity", "albert5", "--twist", "2,3,0", "--expr", DEEP],
        ["identity", "albert5", "--twist", "2,3,0", "--expr", WIDE],
        # JSON values where the format wants an integer or a rational string.
        ["check", str(FIXTURES / "boolean_dim.json"), "--output", "json"],
        ["check", str(FIXTURES / "number_coefficient.json")],
        ["check", str(FIXTURES / "number_alpha.json")],
        # Numerals are ASCII: int() and \d also take other scripts' digits.
        ["check", str(FIXTURES / "arabic_indic_numeral.json")],
        ["identity", "albert5", "--expr", "(= (a \u0661 x) x)"],
        ["identity", "albert5", "--expr", "(= (scale \u0661 x) x)"],
        ["identity", "albert5", "--expr", "(= (scale 0_1 x) x)"],
        ["check", BAD, "--twist", "1,2,3"],  # --twist only applies to albert5
        ["derive", "albert5", "--n", "-1"],
    ],
)
def test_bad_input_exits_two(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "flag",
    [
        ["operators", "--samples", "-3"],
        ["operators", "--samples", "3"],
        ["operators", "--seed", "7"],
        ["check", "--samples", "3"],
        ["check", "--seed", "7"],
        ["powers", "--samples", "3"],
        ["powers", "--seed", "7"],
    ],
)
def test_operators_takes_no_sampling_flags(flag, capsys):
    # No command samples, so argparse refuses the flags (usage error, exit 2).
    command, *flag = flag
    with pytest.raises(SystemExit) as exc:
        main([command, "albert5", "--twist", "2,3,0", *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments: %s" % " ".join(flag) in capsys.readouterr().err


def test_unknown_command_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


NOT_UTF8 = b"\xff\xfe{}"
# Nested past the JSON decoder's recursion limit.
DEEP_JSON = b"[" * 200_000 + b"]" * 200_000
# An integer past int()'s digit limit (where there is one), then cut off.
LONG_INT = b"[[" + b"1" * 5000


@pytest.mark.parametrize(
    "argv,content",
    [
        (["check", "FILE"], NOT_UTF8),
        (["check", "FILE"], DEEP_JSON),
        (["twist", "albert5", "--by", "FILE"], NOT_UTF8),
        (["twist", "albert5", "--by", "FILE"], DEEP_JSON),
        (["identity", "albert5", "--file", "FILE"], NOT_UTF8),
        (["check", "FILE"], LONG_INT),
        (["twist", "albert5", "--by", "FILE"], LONG_INT),
    ],
    ids=["check-not-utf8", "check-deep", "twist-not-utf8", "twist-deep", "identity-not-utf8",
         "check-long-int", "twist-long-int"],
)
def test_unreadable_file_exits_two(argv, content, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_bytes(content)
    assert main([str(path) if a == "FILE" else a for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(path) in err


@pytest.mark.parametrize(
    "argv,content",
    [
        (["identity", "albert5", "--file", "FILE"], "[" * 200_000 + "]" * 200_000),
        (["identity", "albert5", "--expr", "(= %s x)" % ("$" * 300_000)], None),
    ],
    ids=["file-of-brackets", "expr-bad-variable"],
)
def test_huge_dsl_token_exits_two_with_a_short_message(argv, content, tmp_path, capsys):
    # The message quotes a prefix of the offending token and its length.
    path = tmp_path / "identity.txt"
    if content is not None:
        path.write_text(content)
    assert main([str(path) if a == "FILE" else a for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.encode()) <= 200, err[:300]


def test_bad_power_names_the_n_flag(capsys):
    assert main(["powers", "albert5", "--n", "1"]) == 2
    assert capsys.readouterr().err == "error: --n must be >= 2, got 1\n"


@pytest.mark.parametrize("matrix, message", [
    ([[1, 2], [3, 4]], " must hold a 5x5 matrix of rationals"),
    ({"matrix": [[1, 0, 0, 0, 0]] * 4}, " must hold a 5x5 matrix of rationals"),
    ({"rows": [[1] * 5] * 5}, " must hold a 5x5 matrix of rationals"),
    ([[1] * 5] * 4 + [[1, 1, 1, 1]], " must hold a 5x5 matrix of rationals"),
    ({"matrix": [[1] * 5] * 4 + [[1, 1, 1, 1, "1/x"]]},
     ": bad rational literal '1/x' (expected p or p/q)"),
], ids=["2x2", "4-rows", "no-matrix-key", "short-row", "bad-literal"])
def test_twist_by_refuses_a_bad_matrix(matrix, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    pathlib.Path("beta.json").write_text(json.dumps(matrix))
    assert main(["twist", "albert5", "--by", "beta.json"]) == 2
    assert capsys.readouterr() == ("", "error: beta.json" + message + "\n")


# int() also takes other scripts' digits ("\u0663" is Arabic-Indic 3) and "1_0".
@pytest.mark.parametrize(
    "argv",
    [
        ["powers", "albert5", "--twist", "2,3,0", "--n", "\u0663"],
        ["check", "albert5", "--nmax", "1_0"],
        ["derive", "albert5", "--twist", "2,3,0", "--n", "1_0"],
        ["powers", "albert5", "--twist", "2,3,0", "--n", "1_0"],
        ["check", "albert5", "--nmax", "\u0662"],
        ["derive","albert5", "--twist", "2,3,0", "--n", "\u0661"],
    ],
)
def test_integer_options_take_only_ascii_digits(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith("error: argument %s: want an ASCII integer, got %r\n" % tuple(argv[-2:]))


BIG = "x" * 100_000


def bad_entry_algebra(tmp_path, **entry):
    """A dim-1 algebra file whose one mu entry is {i: 0, j: 0, k: 0, c: "1"}
    updated by entry."""
    path = tmp_path / "bad.json"
    mu = [{"i": 0, "j": 0, "k": 0, "c": "1", **entry}]
    path.write_text(json.dumps({"dim": 1, "basis": ["e"], "mu": mu, "alpha": [["1"]]}))
    return str(path)


def exit_and_stderr(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    return code, capsys.readouterr().err


# Each message quotes a bounded prefix of a huge input: argparse's usage
# text takes about 160 of the 400 bytes.
@pytest.mark.parametrize("argv", [
    ["check", "albert5", "--twist", BIG],
    ["check", "albert5", "--twist", "1,2," + BIG],
    ["check", "albert5", "--suites", BIG],
    ["check", "albert5", "--nmax", BIG],
    ["decompose", "albert5", "--idempotent", "0,0,0,0," + BIG],
    ["identity", "albert5", "--expr", "(= (mul x x) %s)" % BIG],
    ["identity", "albert5", "--expr", "(= (mul %s %s) x)" % (BIG, BIG)],
    ["check", BIG],
    ["twist", "albert5", "--by", BIG],
    ["identity", "albert5", "--file", BIG],
], ids=["twist", "twist-entry", "suites", "nmax", "idempotent", "degrees", "degree",
        "path", "by-path", "file-path"])
def test_huge_flag_values_make_short_messages(argv, capsys):
    code, err = exit_and_stderr(argv, capsys)
    assert code == 2 and "... (1000" in err, err[:400]
    assert len(err.encode()) <= 400, err[:400]


# A file path is named once, with the OS's reason: the OSError's own text
# would repeat it.
def test_missing_file_is_named_once(capsys):
    assert main(["check", "/no/such/file.json"]) == 2
    assert capsys.readouterr().err == (
        "error: cannot read /no/such/file.json: No such file or directory\n")


def test_unwritable_output_exits_two(capsys):
    assert main(["albert5", "-o", "/no/such/dir/out.json"]) == 2
    assert capsys.readouterr().err == (
        "error: cannot write /no/such/dir/out.json: No such file or directory\n")


# The multidegree is the first monomial's, lhs first; a huge variable name is cut.
@pytest.mark.parametrize("name,tail", [
    ("y", "multidegree {'y': 2}: monomial (x*x) has {'x': 2}\n"),
    (BIG, "multidegree {'%s... (100007 characters): monomial (x*x) has {'x': 2}\n" % BIG[:94]),
], ids=["short", "huge"])
def test_inhomogeneous_degrees_make_a_short_message(name, tail, capsys):
    argv = ["identity", "albert5", "--expr", "(= (mul %s %s) (mul x x))" % (name, name)]
    code, err = exit_and_stderr(argv, capsys)
    assert code == 2 and err == "error: rhs is not homogeneous of " + tail, err[:400]


@pytest.mark.parametrize("value", ["1,0,0,0,0", BIG], ids=["short", "huge"])
def test_usage_errors_cut_the_argument_they_echo(value, capsys):
    # check takes no --idempotent, so argparse echoes both arguments
    code, err = exit_and_stderr(["check", "albert5", "--idempotent", value], capsys)
    message = "unrecognized arguments: --idempotent " + value
    if len(message) > 256:
        message = "%s... (%d characters)" % (message[:256], len(message))
    assert code == 2 and err.endswith("error: %s\n" % message), err[-400:]
    assert len(err.encode()) <= 512


@pytest.mark.parametrize("entry,message", [
    ({"c": "x" * 300_000}, "mu coefficient 'xx"),
    ({"c": "1/0x"}, "mu coefficient '1/0x' is not a rational literal"),
    ({"x" * 300_000: 1}, "mu entries must be objects with keys i, j, k, c (got {'i': 0"),
    ({"n": 1}, "mu entries must be objects with keys i, j, k, c "
               "(got {'i': 0, 'j': 0, 'k': 0, 'c': '1', 'n': 1})"),
    ({"i": "x" * 300_000}, "mu index out of range in {'i': 'xx"),
    ({"i": 1}, "mu index out of range in {'i': 1, 'j': 0, 'k': 0, 'c': '1'}"),
], ids=["coefficient", "short-coefficient", "key", "short-key", "index", "short-index"])
def test_bad_mu_entries_make_short_messages(entry, message, tmp_path, capsys):
    code, err = exit_and_stderr(["check", bad_entry_algebra(tmp_path, **entry)], capsys)
    assert code == 2 and err.startswith("error: bad algebra JSON: " + message), err[:400]
    assert len(err.encode()) <= 400, err[:400]


def test_dim_above_the_cap_exits_two(tmp_path, capsys):
    # An empty basis: the cap must refuse before anything is allocated.
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"dim": core.MAX_DIM + 1, "basis": [], "mu": [], "alpha": []}))
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: bad algebra JSON: dim %d is above the cap of %d\n"
        % (core.MAX_DIM + 1, core.MAX_DIM)
    )


def test_sweep_above_the_cap_exits_two_at_once(capsys):
    # A powers suite's size sums every row's sweep, n = 2..N: C(N + 4, N)
    # lattice points of degree N, each priced N^2 products of 44 steps on
    # albert5 (5 coordinates, 7 structure constants, 32 fixed).  At dim 5
    # the cap admits N = 26 and refuses N = 27; at N = 40 the last row
    # alone is above it.
    start = time.perf_counter()
    assert main(["powers", "albert5", "--n", "27"]) == 2
    size = 44 * sum(math.comb(k + 4, k) * k * k for k in range(2, 28))
    assert capsys.readouterr().err == (
        "error: the 26 sweeps of degrees up to 27 on 5 basis elements, at 44 steps a product, "
        "have size %d, above the cap of %d\n" % (size, core.MAX_SWEEP)
    )
    assert main(["powers", "albert5", "--n", "40"]) == 2
    assert capsys.readouterr().err == (
        "error: a sweep of degrees 40 (1600 operations a point) on 5 basis elements, at 44 "
        "steps a product, has size %d, above the cap of %d\n"
        % (44 * math.comb(44, 40) * 1600, core.MAX_SWEEP)
    )
    assert time.perf_counter() - start < 1.0
    assert core.sweep_size(albert5_base(), *((k,) for k in range(2, 27))) <= core.MAX_SWEEP


# A degree whose one point alone costs more than the cap is refused before
# the suite's size is formed: at 300 digits of N it has over 1,500, and at
# 1,000 digits more than Python turns into a string.
@pytest.mark.parametrize("argv", [["powers", "albert5", "--n", "9" * 300],
                                  ["powers", "albert5", "--n", "9" * 1000],
                                  ["check", "albert5", "--nmax", "9" * 1000]],
                         ids=["n-300-digits", "n-1000-digits", "nmax-1000-digits"])
def test_a_huge_n_is_refused_at_the_cap_with_a_short_message(argv, capsys):
    code, err = exit_and_stderr(argv, capsys)
    assert code == 2 and len(err.encode()) < 300, err[:400]
    assert err == ("error: a sweep of degree above 9534 on 5 basis elements, at 44 steps a "
                   "product, costs more than the cap of %d at each point\n" % core.MAX_SWEEP)


# On a dim-1 algebra (e*e = e, alpha = Id) the price admits --n 300, and up
# to about 705, but Hom-powers past powers.MAX_HOM_POWER nest too deep to
# build: refused before any thread starts.
@pytest.mark.parametrize("argv, err", [
    (["powers", "--n", "300"], "error: --n must be <= 200, got 300\n"),
    (["check", "--suites", "powers", "--nmax", "201"], "error: --nmax must be <= 200, got 201\n"),
], ids=["powers-n", "check-nmax"])
def test_powers_past_the_nesting_limit_are_refused_in_one_line(argv, err, capsys):
    start = time.perf_counter()
    assert exit_and_stderr([argv[0], str(FIXTURES / "idempotent_dim1.json"), *argv[1:]],
                           capsys) == (2, err)
    assert time.perf_counter() - start < 1.0 and powers.MAX_HOM_POWER == 200


def save_dense_table(path, dim):
    """A table with every structure constant nonzero (entries 1..3, seeded)
    and alpha = Id: multiplicative, and dense, so a product costs dim^3 + dim + 32 steps."""
    rng = random.Random(dim)
    pathlib.Path(path).write_text(json.dumps({
        "dim": dim,
        "basis": ["b%d" % i for i in range(dim)],
        "mu": [{"i": i, "j": j, "k": k, "c": str(rng.randint(1, 3))}
               for i in range(dim) for j in range(dim) for k in range(dim)],
        "alpha": [[str(int(i == j)) for j in range(dim)] for i in range(dim)],
    }))


def test_dense_table_sweeps_are_priced_by_their_products(tmp_path, monkeypatch, capsys):
    # At dim 24 a dense n = 4 row took 70 s (17,550 points, about 250 us per
    # point and unit of the old price); the price counts the 13,824 structure
    # constants a product may visit, so n = 5 is refused before any sweep.
    monkeypatch.chdir(tmp_path)
    save_dense_table("dense24.json", 24)
    start = time.perf_counter()
    assert main(["powers", "dense24.json", "--n", "5"]) == 2
    assert time.perf_counter() - start < 5.0
    assert capsys.readouterr() == ("", (
        "error: a sweep of degrees 5 (25 operations a point) on 24 basis elements, at 13880 "
        "steps a product, has size %d, above the cap of %d\n"
        % (13880 * math.comb(28, 5) * 25, core.MAX_SWEEP)))


@pytest.mark.parametrize("argv", [["powers", "albert5", "--n", "14"],
                                  ["check", "albert5", "--nmax", "14"]], ids=["powers", "check"])
def test_a_degree_14_sweep_fits_the_cap(argv, capsys):
    # 3,060 lattice points: the cap once priced 2^14 evaluations at each.
    assert core.sweep_size(albert5_base(), (14,)) == math.comb(18, 14) * 14 ** 2 * 44
    assert main(argv) == 0
    assert "FAIL" not in capsys.readouterr().out


def save_dim64_table(path):
    """alpha = Id and b0*b0 = b1, b1*b0 = b2: multiplicative, and not right
    Hom-alternative (as(b0, b0, b0) = b2), so the identities suite sweeps."""
    dim = core.MAX_DIM
    pathlib.Path(path).write_text(json.dumps({
        "dim": dim,
        "basis": ["b%d" % i for i in range(dim)],
        "mu": [{"i": 0, "j": 0, "k": 1, "c": "1"}, {"i": 1, "j": 0, "k": 2, "c": "1"}],
        "alpha": [[str(int(i == j)) for j in range(dim)] for i in range(dim)],
    }))


@pytest.mark.parametrize(
    "argv,degrees,size",
    [
        (["check", "dim64.json", "--suites", "identities"], "1,2,1", 64 * 2080 * 64 * 16 * 98),
        (["identity", "dim64.json", "--expr", "(= (mul (mul x y) (mul z w)) (mul x (mul y "
          "(mul z w))))"], "1,1,1,1", 64 ** 4 * 16 * 98),
    ],
    ids=["check", "identity"],
)
def test_dim_64_identity_sweeps_exit_two(argv, degrees, size, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    save_dim64_table("dim64.json")
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == (
        "error: a sweep of degrees %s (16 operations a point) on 64 basis elements, at 98 "
        "steps a product, has size %d, above the cap of %d\n" % (degrees, size, core.MAX_SWEEP)
    )


def test_derive_power_above_the_alpha_cap_exits_two(capsys):
    argv = ["derive", "albert5", "--twist", "2,3,0", "--n"]
    assert main(argv + [str(MAX_ALPHA_POWER + 1)]) == 2
    assert capsys.readouterr().err == "error: --n must be <= %d, got %d\n" % (
        MAX_ALPHA_POWER, MAX_ALPHA_POWER + 1)
    assert main(argv + [str(MAX_ALPHA_POWER)]) == 0


def test_huge_alpha_power_exits_two_at_once(capsys):
    expr = "(= (mul (a 10000000 x) y) (mul y (a 10000000 x)))"
    start = time.perf_counter()
    assert main(["identity", "albert5", "--twist", "2,3,0", "--expr", expr]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == (
        "error: alpha powers on one leaf add up to more than 1000 (at position 11)\n"
    )


def test_unmet_precondition_exits_three(tmp_path, capsys):
    path = str(tmp_path / "swapped.json")
    save_algebra(swapped_alpha_albert(), path)
    assert main(["powers", path]) == 3
    assert "multiplicative" in capsys.readouterr().err

    assert main(["operators", "albert5", "--twist", "2,3,0",
                 "--idempotent", "0,1,0,0,0"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("precondition unmet:")
    assert "e*e = 0" in err

    assert main(["decompose", "albert5", "--twist", "2,3,1"]) == 3
    assert "--idempotent" in capsys.readouterr().err

    assert main(["check", "albert5", "--twist", "2,3,1"]) == 3
    err = capsys.readouterr().err
    assert "decompose suite:" in err
    assert "drop 'decompose' from --suites" in err


NO_IDEMPOTENT = "no nonzero idempotent with coordinates of height <= 1"
NOT_A_MORPHISM = ("needs a multiplicative algebra; alpha fails to be a morphism at "
                  "basis pair (0, 0)")

PRECONDITIONS = [
    (["powers", SWAPPED], "the powers suite " + NOT_A_MORPHISM),
    (["operators", "albert5", "--twist", "2,3,0", "--idempotent", "0,1,0,0,0"],
     "operator suite needs an idempotent: e*e = e = alpha(e), got e = u with "
     "e*e = 0, alpha(e) = 3*u"),
    (["operators", RANDOM00], NO_IDEMPOTENT + "; pass --idempotent"),
    (["operators", "albert5", "--twist", "2,3,1"], NO_IDEMPOTENT + "; pass --idempotent"),
    (["decompose", "albert5", "--twist", "2,3,1"], NO_IDEMPOTENT + "; pass --idempotent"),
    (["decompose", "albert5", "--twist", "2,3,0", "--idempotent", "0,1,0,0,0"],
     "decomposition needs an idempotent: e*e = e = alpha(e), got e = u with "
     "e*e = 0, alpha(e) = 3*u"),
    (["check", "albert5", "--twist", "2,3,1"],
     "decompose suite: " + NO_IDEMPOTENT + "; drop 'decompose' from --suites"),
    (["check", SWAPPED, "--suites", "identities"], "the identities suite " + NOT_A_MORPHISM),
    # alpha(x*y) = alpha(x)*alpha(y) normalizes to zero in the free multiplicative
    # Hom-algebra, which proves it only on multiplicative algebras
    (["identity", NON_MULTIPLICATIVE, "--expr", "(= (a 1 (mul x y)) (mul (a 1 x) (a 1 y)))"],
     "the identity sweep " + NOT_A_MORPHISM.replace("(0, 0)", "(0, 1)")),
]


@pytest.mark.parametrize("argv,message", PRECONDITIONS,
                         ids=[" ".join(a) for a, _ in PRECONDITIONS])
def test_unmet_precondition_pins_stderr(argv, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    save_algebra(swapped_alpha_albert(), SWAPPED)
    shutil.copy(GOLDEN / RANDOM00, RANDOM00)
    shutil.copy(FIXTURES / NON_MULTIPLICATIVE, NON_MULTIPLICATIVE)
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "precondition unmet: %s\n" % message


# -- hypotheses are decided once, before any suite runs ----------------------------


def record_calls(monkeypatch, module, name, when=lambda *args: True):
    """Rebind module.name, wherever a homalt module holds it, to a wrapper
    that records the arguments of each call for which when(*args) holds."""
    orig = getattr(module, name)
    calls = []

    def wrapper(*args, **kwargs):
        if when(*args):
            calls.append(args)
        return orig(*args, **kwargs)

    for modname, mod in list(sys.modules.items()):
        if modname.split(".")[0] == "homalt":
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    monkeypatch.setattr(mod, attr, wrapper)
    return calls


def test_check_exits_three_before_any_suite_runs(monkeypatch, capsys):
    sweeps = record_calls(monkeypatch, core, "polarized_defect_sweep")
    assert main(["check", "albert5", "--twist", "2,3,1"]) == 3
    assert capsys.readouterr().err == (
        "precondition unmet: decompose suite: %s; drop 'decompose' from --suites\n"
        % NO_IDEMPOTENT
    )
    assert sweeps == []


def test_check_decides_each_shared_fact_once(monkeypatch, capsys):
    alpha = albert5_alpha(AlbertParams(2, 3, 0))
    laws = record_calls(monkeypatch, core, "_associator_law",
                        lambda A, law, perm: law == "right-hom-alternative")
    searches = record_calls(monkeypatch, idempotents, "_search")
    ranks = record_calls(monkeypatch, core, "rank", lambda m: m == alpha)
    inverses = record_calls(monkeypatch, linalg, "inverse")
    assert main(["check", "albert5", "--twist", "2,3,0"]) == 0
    assert "25/25 checks passed" in capsys.readouterr().out
    assert (len(laws), len(searches), len(inverses)) == (1, 1, 1)
    assert len(ranks) == 0


@pytest.mark.parametrize(
    "build",
    [lambda A: yau_twist(A, A.alpha), lambda A: derived_algebra(A, 1), plus_algebra],
    ids=["yau_twist", "derived_algebra", "plus_algebra"],
)
def test_constructions_decide_their_own_facts(build, monkeypatch):
    A = albert5_twisted(AlbertParams(2, 3, 0))
    facts = (is_multiplicative, is_right_hom_alternative, idempotents.idempotent_search)
    for fact in facts:
        fact(A)
    B = build(A)
    computed = [record_calls(monkeypatch, core, "_multiplicative"),
                record_calls(monkeypatch, core, "_associator_law"),
                record_calls(monkeypatch, idempotents, "_search")]
    fresh = algebra_from_json(core.algebra_to_json(B))
    for fact in facts:
        assert repr(fact(B)) == repr(fact(fresh))
    assert [len(c) for c in computed] == [2, 2, 2]
    assert all(x.algebra is B for x in idempotents.idempotent_search(B))
    for fact in facts:
        fact(A)
        fact(B)
    assert [len(c) for c in computed] == [2, 2, 2]


def test_operators_suite_formats_no_element(monkeypatch, capsys):
    calls = []
    orig = Element.__repr__

    def counting(self):
        calls.append(self)
        return orig(self)

    monkeypatch.setattr(Element, "__repr__", counting)
    argv = ["check", "albert5", "--twist", "2,3,0", "--suites", "operators"]
    assert main(argv + ["--output", "json"]) == 0
    assert calls == []


def test_twist_by_a_non_morphism_exits_three(tmp_path, capsys):
    swap = [[0, 1, 0, 0, 0], [1, 0, 0, 0, 0], [0, 0, 1, 0, 0],
            [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]]
    path = tmp_path / "beta.json"
    path.write_text(json.dumps({"matrix": swap}))
    assert main(["twist", "albert5", "--by", str(path)]) == 3
    assert "weak morphism" in capsys.readouterr().err


def test_check_without_decompose_passes_for_nonzero_eps(capsys):
    suites = "axioms,powers,jordan,operators,identities,symbolic"
    assert main(["check", "albert5", "--twist", "2,3,1", "--suites", suites]) == 0
    assert "22/22 checks passed" in capsys.readouterr().out


# -- determinism and the JSON report shape ---------------------------------------


def run_json(argv, capsys):
    rc = main(argv)
    return rc, capsys.readouterr().out


def test_json_reports_are_byte_identical(capsys):
    argv = ["check", "albert5", "--twist", "2,3,0", "--output", "json"]
    rc1, out1 = run_json(argv, capsys)
    rc2, out2 = run_json(argv, capsys)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_pool_raises_the_first_failing_suite_in_suite_order(monkeypatch):
    later_raised = threading.Event()

    def jordan():
        assert later_raised.wait(10)  # so the later suite fails first
        raise RuntimeError("jordan")

    def identities():
        later_raised.set()
        raise RuntimeError("identities")

    # A suite returns its checks; these two each return one that raises.
    monkeypatch.setitem(cli._SUITE_FNS, "jordan", lambda A, cfg, idempotent: [jordan])
    monkeypatch.setitem(cli._SUITE_FNS, "identities", lambda A, cfg, idempotent: [identities])
    with pytest.raises(RuntimeError, match="^jordan$"):
        main(["check", "albert5", "--suites", "axioms,jordan,identities"])
    assert later_raised.is_set()


def test_suites_run_on_threads_of_their_own_on_one_cpu(tmp_path):
    """Several suites run on threads of their own whatever the host: here
    under perfbench/traced.py, with os.cpu_count() patched to 1 by a
    sitecustomize on the child's PYTHONPATH."""
    (tmp_path / "sitecustomize.py").write_text("import os\nos.cpu_count = lambda: 1\n")
    src = pathlib.Path(cli.__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tmp_path), str(src)]))
    probe = subprocess.run([sys.executable, "-c", "import os; print(os.cpu_count())"],
                           env=env, capture_output=True, text=True, timeout=60)
    assert probe.stdout == "1\n"
    stats = tmp_path / "stats.json"
    traced = src.parent / "perfbench" / "traced.py"
    proc = subprocess.run([sys.executable, str(traced), str(stats), "check", "albert5",
                           "--twist", "2,3,0", "--suites", "axioms,decompose", "--output", "json"],
                          env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(stats.read_text())["threads"] >= 2


def test_import_loads_no_dataclasses_or_futures():
    """Importing the CLI must not pay for modules homalt barely uses."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).parents[1]))
    show = "import sys; print(' '.join(sorted(sys.modules)))"

    def loaded(code):
        # -S: no site hook, which may load some of these on its own.
        proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        return set(proc.stdout.split())

    added = loaded("import homalt.cli; " + show) - loaded(show)
    assert "homalt.cli" in added
    banned = {"dataclasses", "inspect", "concurrent.futures", "logging", "queue", "typing",
              "importlib.resources", "random"}
    assert added & banned == set()


def test_json_report_schema(capsys):
    rc, out = run_json(["check", "albert5", "--suites", "axioms,jordan",
                        "--output", "json"], capsys)
    assert rc == 0
    report = json.loads(out)
    assert sorted(report) == ["algebra", "config", "passed", "results"]
    assert report["passed"] is True
    assert report["algebra"]["dim"] == 5
    assert report["algebra"]["basis"] == ["e", "u", "v", "w", "z"]
    assert report["config"]["command"] == "check"
    for row in report["results"]:
        assert sorted(row) == ["law", "lhs", "note", "passed", "rhs",
                               "suite", "timing_ms", "witness"]
        assert row["timing_ms"] is None


def test_failing_json_report_carries_the_witness(capsys):
    rc, out = run_json(["check", BAD, "--suites", "axioms", "--output", "json"], capsys)
    assert rc == 1
    report = json.loads(out)
    assert report["passed"] is False
    failing = [r for r in report["results"] if not r["passed"]]
    assert failing[0]["law"] == "right-hom-alternative"
    assert failing[0]["witness"] == ["0", "0", "0"]


# Every checker command, whether --timings fills its rows' timing_ms, and its exit code.
TIMED = [
    (["check", "albert5", "--twist", "2,3,0"], True, 0),
    (["powers", "albert5", "--twist", "2,3,0"], True, 0),
    (["jordan", "albert5", "--twist", "2,3,0"], True, 0),
    (["decompose", "albert5", "--twist", "2,3,0"], True, 0),
    (["operators", "albert5", "--twist", "2,3,0"], True, 0),
    (["symbolic"], True, 0),
    (["identity", "albert5", "--expr", "(= (as x y y) (scale 0 x))"], True, 0),
    (["identity", "albert5", "--expr", "(= (mul x y) (mul x y))"], False, 0),  # free zero
    (["distinguish", "albert5", "albert5"], False, 1),  # inconclusive
]


def test_timings_fill_floats(capsys):
    for argv, timed, expected_rc in TIMED:
        rc, out = run_json(argv + ["--output", "json", "--timings"], capsys)
        assert rc == expected_rc, argv
        rows = json.loads(out)["results"]
        assert rows, argv
        for row in rows:
            assert isinstance(row["timing_ms"], float) if timed else row["timing_ms"] is None


# -- constructor commands ---------------------------------------------------------


def test_albert5_stdout_is_the_base_algebra(capsys):
    assert main(["albert5"]) == 0
    A = algebra_from_json(json.loads(capsys.readouterr().out))
    assert same_algebra(A, albert5_base())


def test_albert5_file_output_round_trips(tmp_path):
    path = str(tmp_path / "a.json")
    assert main(["albert5", "--twist", "2,3,5", "-o", path]) == 0
    assert same_algebra(load_algebra(path), albert5_twisted(AlbertParams(2, 3, 5)))


def test_twist_command_matches_the_library(tmp_path):
    params = AlbertParams(2, 3, 0)
    beta = albert5_alpha(params)
    bpath = tmp_path / "beta.json"
    bpath.write_text(json.dumps(
        {"matrix": [[str(v) for v in row] for row in beta.data]}
    ))
    out = str(tmp_path / "twisted.json")
    assert main(["twist", "albert5", "--by", str(bpath), "-o", out]) == 0
    assert same_algebra(load_algebra(out), yau_twist(albert5_base(), beta))
    assert same_algebra(load_algebra(out), albert5_twisted(params))


def test_derive_command_matches_the_library(tmp_path):
    out = str(tmp_path / "derived.json")
    assert main(["derive", "albert5", "--twist", "2,3,0", "--n", "1", "-o", out]) == 0
    want = derived_algebra(albert5_twisted(AlbertParams(2, 3, 0)), 1)
    assert same_algebra(load_algebra(out), want)


def test_plus_command_matches_the_library(tmp_path):
    out = str(tmp_path / "plus.json")
    assert main(["plus", "albert5", "--twist", "2,3,0", "-o", out]) == 0
    want = plus_algebra(albert5_twisted(AlbertParams(2, 3, 0)))
    assert same_algebra(load_algebra(out), want)


# -- single-purpose checkers -------------------------------------------------------


def test_identity_command_proves_the_right_alternative_law(capsys):
    rc = main(["identity", "albert5", "--twist", "2,3,0",
               "--expr", "(= (as x y y) (scale 0 x))"])
    assert rc == 0
    assert "lattice sweep" in capsys.readouterr().out


def test_identity_command_refutes_on_the_bad_algebra(capsys):
    rc = main(["identity", BAD, "--expr", "(= (as x y y) (scale 0 x))"])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out


def test_identity_command_detects_free_zero(capsys):
    rc = main(["identity", "albert5", "--expr", "(= (mul x y) (mul x y))"])
    assert rc == 0
    assert "normalizes to zero in the free multiplicative Hom-algebra" in capsys.readouterr().out


def test_identity_command_with_explicit_degrees(capsys):
    # The degrees are read from the identity; the report names them.
    rc = main(["identity", "albert5", "--twist", "2,3,0", "--output", "json",
               "--expr", "(= (as x y y) (scale 0 x))"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["config"]["degrees"] == {"x": 1, "y": 2}
    assert report["passed"] is True


def test_identity_command_takes_no_degrees_flag(capsys):
    argv = ["identity", "albert5", "--expr", "(= (mul x y) (mul x y))", "--degrees", "x=1,y=1"]
    code, err = exit_and_stderr(argv, capsys)
    assert code == 2 and "unrecognized arguments: --degrees x=1,y=1" in err


def test_operators_command_takes_no_nmax_flag(capsys):
    code, err = exit_and_stderr(["operators", "albert5", "--twist", "2,3,0", "--nmax", "3"], capsys)
    assert code == 2 and "unrecognized arguments: --nmax 3" in err


@pytest.mark.parametrize("flag", ["--teichmuller", "--certificates"])
def test_symbolic_command_takes_no_part_flags(flag, capsys):
    code, err = exit_and_stderr(["symbolic", flag], capsys)
    assert code == 2 and "unrecognized arguments: %s" % flag in err


def test_decompose_command_reports_the_parts(capsys):
    assert main(["decompose", "albert5", "--twist", "2,3,0"]) == 0
    out = capsys.readouterr().out
    assert "A_e(alpha) basis [e, u, z]" in out
    assert "A_e(0) basis [v, w]" in out
    assert "all basis elements split" in out


def test_distinguish_command(tmp_path, capsys):
    other = str(tmp_path / "other.json")
    assert main(["albert5", "--twist", "5,7,0", "-o", other]) == 0
    assert main(["distinguish", "albert5", other]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out

    assert main(["distinguish", "albert5", "albert5"]) == 1
    out = capsys.readouterr().out
    assert "inconclusive" in out


def test_distinguish_computes_each_characteristic_polynomial_once(tmp_path, monkeypatch):
    other = str(tmp_path / "other.json")
    assert main(["albert5", "--twist", "5,7,0", "-o", other]) == 0
    polys = record_calls(monkeypatch, linalg, "char_poly")
    assert main(["distinguish", "albert5", other]) == 0
    assert len(polys) == 2


# -- the single-suite commands are aliases of check --------------------------------


@pytest.mark.parametrize(
    "argv,suite",
    [
        (["powers", "albert5", "--twist", "2,3,0", "--n", "5"], "powers"),
        (["jordan", "albert5", "--twist", "2,3,0"], "jordan"),
        (["decompose", "albert5", "--twist", "2,3,0"], "decompose"),
        (["operators", "albert5", "--twist", "2,3,0"], "operators"),
        (["symbolic"], "symbolic"),
    ],
)
def test_single_suite_command_is_a_check_alias(argv, suite, capsys):
    rc, out = run_json(argv + ["--output", "json"], capsys)
    check = ["check", "albert5", "--twist", "2,3,0", "--suites", suite, "--output", "json"]
    rc_check, out_check = run_json(check, capsys)
    assert rc == rc_check == 0
    assert json.loads(out)["results"] == json.loads(out_check)["results"]


# Every subcommand's flags (all option strings, or the positional's name) and
# their defaults, as the parser stood before the checker commands became one
# table of suites.
FLAGS = {
    "albert5": {("-o", "--out"): None, ("--twist",): None},
    "twist": {"algebra": None, ("--twist",): None, ("-o", "--out"): None, ("--by",): None},
    "derive": {"algebra": None, ("--twist",): None, ("-o", "--out"): None, ("--n",): None},
    "plus": {"algebra": None, ("--twist",): None, ("-o", "--out"): None},
    # check and powers prove every power law by a sweep, so they lost
    # --samples and --seed as operators did
    "check": {"algebra": None, ("--twist",): None, ("--output",): "text",
              ("--timings",): False,
              ("--suites",): "axioms,powers,jordan,decompose,operators,identities,symbolic",
              ("--nmax",): 5},
    "powers": {"algebra": None, ("--twist",): None, ("--output",): "text",
               ("--timings",): False, ("--n",): 5},
    "jordan": {"algebra": None, ("--twist",): None, ("--output",): "text",
               ("--timings",): False},
    "decompose": {"algebra": None, ("--twist",): None, ("--output",): "text",
                  ("--timings",): False, ("--idempotent",): None},
    # operators proves its laws on basis pairs, so it lost --samples and --seed;
    # it proves its power families for every n by induction, so it lost --nmax
    "operators": {"algebra": None, ("--twist",): None, ("--output",): "text",
                  ("--timings",): False, ("--idempotent",): None},
    # identity reads its degrees from the identity, so it lost --degrees
    "identity": {"algebra": None, ("--twist",): None, ("--output",): "text",
                 ("--timings",): False, ("--expr",): None, ("--file",): None,
                 ("--name",): "identity"},
    # symbolic always runs its whole suite, so it lost --teichmuller and --certificates
    "symbolic": {("--output",): "text", ("--timings",): False},
    "distinguish": {("--output",): "text", ("--timings",): False, "algebra": None,
                    "other": None},
}


def test_every_command_keeps_its_flags_and_defaults():
    sub = next(a for a in _build_parser()._actions if isinstance(a.choices, dict))
    got = {
        name: {tuple(a.option_strings) or a.dest: a.default
               for a in parser._actions if a.dest != "help"}
        for name, parser in sub.choices.items()
    }
    assert got == FLAGS


def test_symbolic_default_runs_both(capsys):
    # The Hom-Teichmuller expansion, then the six certificates by name.
    assert main(["symbolic"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "PASS  [symbolic] hom-teichmuller  -- 10 terms → 0"
    assert [line.split()[2] for line in out[1:7]] == [
        "certificate:" + n for n in sorted(symbolic.load_certificates())]
    assert out[7:] == ["7/7 checks passed"]
