"""Reports must not drift: each command's stdout equals a stored file byte
for byte, and its exit code the stored one.

The files under data/golden/ were written by the Fraction-only kernel
that preceded the integer kernel, so these tests tie today's output to
that release, not just one run of the current code to another.  The two
``identity_*_x*.json`` files were written by the integer kernel's
symbolic-multilinearization identity sweep, before check_identity_on_algebra
moved onto the inclusion-exclusion engine; the random-00 one pins the
lhs at a degree-4 witness.  The ``jordan``, ``operators``,
``symbolic``, ``powers_albert5_*`` and ``decompose_albert5_230_e`` files
were written before the single-suite subcommands became aliases of
``check --suites X``, so they tie each alias to the code it replaced.
``random-00.json`` is a dense random table with integer constants and
alpha = Id (multiplicative, not right Hom-alternative);
``random-00-rational.json`` is the same table with every constant
divided by 1 + (i + j + k) mod 3.  The ``distinguish``, ``derive``,
``twist`` and ``decompose_rational_basis`` files were written by the
kernel whose Matrix kept a Fraction copy of its entries, before Matrix
moved to integer rows over one denominator; their inputs carry
non-integer entries, so char_poly, mat_pow, row, transpose,
kernel_basis and solve all meet fractions.  ``albert5-rational-a.json``
and ``-b.json`` are ``albert5 --twist 1/2,3/2,0`` and ``2/3,5/2,0``;
``beta-231-rational.json`` is alpha(1/3, 1/2, -1/4), a non-diagonal
morphism that commutes with alpha(2, 3, 1) (the (2, 3, 0) twist has
only diagonal weak self-morphisms); ``albert5-230-rational-basis.json``
is ``albert5 --twist 2,3,0`` written in the basis f0 = e,
f1 = u + v/2, f2 = v + 2w/3, f3 = w + z/3, f4 = z - u/2.
``check_albert5_230.json`` and ``check_albert5_m147.json`` were
regenerated when the identities suite began deciding certified
identities by certificate transfer: only the note of their six
``identities`` rows changed ("polarized sweep over all basis tuples"
became "certificate (N instances) transfers: ..."), and
tests/test_transfer.py checks every other field of those rows against
the sweep.  Eight files were regenerated when Hom-Jordan admissibility
became one sweep and R-composition a proof on basis pairs:
``check_albert5_230.json``, ``check_albert5_m147.json``,
``check_random00.json``, ``check_random00.txt``,
``check_random00_rational.json``, ``jordan_random00.txt``,
``operators_albert5_230.json`` and ``operators_albert5_230_e.txt`` (then
``operators_albert5_230_e_nmax3.txt``).
Only the Jordan note, the ``mul-operator-identities`` row (its note,
and where it fails its witness, now a basis pair, and its lhs and rhs)
and the ``operators`` config (no ``samples`` or ``seed``) changed, and
the last command lost ``--seed 7``, a flag ``operators`` no longer
takes; tests/test_jordan.py and tests/test_operators.py hold the new
routes to the old ones on six algebras.  Seven files were regenerated
when every powers row became one polarized sweep:
``check_albert5_230.json``, ``check_albert5_m147.json``,
``check_random00.json``, ``check_random00.txt``,
``check_random00_rational.json``, ``powers_albert5_230_n4.json`` and
``powers_random00_rational.txt``.  Only the config (no ``samples`` or
``seed``), the powers notes and the witness, lhs and rhs of failing
powers rows changed: a witness is now a basis multiset and the lhs the
polarized defect there.  The ``powers_albert5_230_n4`` command lost
``--samples 3``; tests/test_powers.py holds the sweep to the sampled
route on six algebras.  Twelve files were regenerated when every sweep
(powers, Jordan and identities) moved from inclusion-exclusion to one
evaluation per lattice point x_M, the sum of the basis elements of the
witness multiset M: ``check_albert5_230.json``,
``check_albert5_m147.json``, ``check_random00.json``,
``check_random00.txt``, ``check_random00_rational.json``,
``powers_random00_rational.txt``, ``identity_random00_rational.txt``,
``identity_albert5_230_x6.json``, ``identity_random00_x4.json``,
``jordan_random00.txt``, ``jordan_random00.json`` and
``powers_albert5_230_n4.json``.  Only the sweep notes ("polarized" became
"lattice") and the lhs of failing sweep rows changed: the lhs is now the
defect at x_M, not the polarized defect at M.  No verdict, exit code or
witness changed; tests/test_lattice.py replays every failing sweep row of
these files through perfbench/reference.py.  Eight files were
regenerated when ``mul-operator-identities`` came to be decided by the
right Hom-alternative law that it restates: ``check_albert5_230.json``,
``check_albert5_m147.json``, ``check_random00.json``,
``check_random00.txt``, ``check_random00_rational.json``,
``operators_albert5_230.json``, ``operators_albert5_230_e.json`` and
``operators_albert5_230_e.txt`` (then named ``_e_nmax3``).  Only that row's note
changed: on random-00 the law's witness (0, 0, 0) gives the basis pair
(0, 0) that the basis-pair loops reported, with the same lhs and rhs.
tests/test_operators.py holds the row to a reference that builds every
operator from mul, and tests/test_lattice.py replays its failing rows
through perfbench/reference.py.  ``jordan_random00.json``,
``decompose_albert5_230_e.json`` and ``operators_albert5_230_e.json``
pin the ``config`` block that each of those commands echoes; they were
written while a checker command's report still read its config from a
record of its own, before it read the parsed flags.  Four files were
regenerated when the idempotent operator suite came to check each power
family at its first member only, R^2 = alpha R and T^2 = alpha^4 T, and
to prove the rest by induction on n, and ``operators`` lost ``--nmax``:
``check_albert5_230.json``, ``operators_albert5_230.json``, and
``operators_albert5_230_e.json`` and ``operators_albert5_230_e.txt``,
which were ``operators_albert5_230_e_nmax3.json`` and ``.txt`` and whose
command lost ``--nmax 3``.  Only that row's note and the ``operators``
config (no ``nmax``) changed; tests/test_operators.py holds the suite to
the matrix powers up to n = 10.  ``symbolic.json`` was regenerated
when ``symbolic`` lost ``--teichmuller`` and ``--certificates`` and came
always to run its whole suite: only its config block (no
``teichmuller`` or ``certificates`` field) changed.  Its rows are the
ones that ``symbolic_teichmuller.txt``, ``symbolic_teichmuller.json``
and ``symbolic_certificates.json`` pinned for the two flags; those
files went with the flags.  Five files were regenerated when
``Decomposition`` lost its constant ``is_direct``:
``check_albert5_230.json``, ``decompose_albert5_230.json``,
``decompose_albert5_230_e.json``, ``decompose_albert5_230_e.txt`` and
``decompose_rational_basis.txt``.  Only the ``idempotent-decomposition``
note lost its "; direct = True" clause; tests/test_idempotents.py checks
that the sum is direct by the rank of the stacked bases.  To regenerate a
file after an intended change of output, run its command from
data/golden/ with ``python -m homalt.cli ARGS > FILE``.
"""

import pytest

from homalt.cli import main

from conftest import GOLDEN

RANDOM_SUITES = "axioms,powers,jordan,operators,identities"
CUBE_COMMUTES = "(= (mul (mul x x) (a 1 x)) (mul (a 1 x) (mul x x)))"
# x^6 = x^(4,2) and x^4 = x^(2,2), with x^n and x^(i,j) as in homalt.powers
X6_X42 = ("(= (mul (mul (mul (mul (mul x (a 0 x)) (a 1 x)) (a 2 x)) (a 3 x)) (a 4 x)) "
          "(mul (a 1 (mul (mul (mul x (a 0 x)) (a 1 x)) (a 2 x))) (a 3 (mul x (a 0 x)))))")
X4_X22 = ("(= (mul (mul (mul x (a 0 x)) (a 1 x)) (a 2 x)) "
          "(mul (a 1 (mul x (a 0 x))) (a 1 (mul x (a 0 x)))))")

CASES = [
    ("check_albert5_230.json", 0,
     ["check", "albert5", "--twist", "2,3,0", "--output", "json"]),
    ("check_albert5_m147.json", 0,
     ["check", "albert5", "--twist=-1,4,7", "--suites",
      "axioms,powers,jordan,operators,identities,symbolic", "--output", "json"]),
    ("check_random00.json", 1,
     ["check", "random-00.json", "--suites", RANDOM_SUITES, "--output", "json"]),
    ("check_random00.txt", 1, ["check", "random-00.json", "--suites", RANDOM_SUITES]),
    ("check_random00_rational.json", 1,
     ["check", "random-00-rational.json", "--suites", RANDOM_SUITES, "--output", "json"]),
    ("powers_random00_rational.txt", 1, ["powers", "random-00-rational.json", "--n", "6"]),
    ("identity_random00_rational.txt", 1,
     ["identity", "random-00-rational.json", "--expr", CUBE_COMMUTES]),
    ("identity_albert5_230_x6.json", 0,
     ["identity", "albert5", "--twist", "2,3,0", "--expr", X6_X42, "--name", "x6=x(4,2)",
      "--output", "json"]),
    ("identity_random00_x4.json", 1,
     ["identity", "random-00.json", "--expr", X4_X22, "--name", "x4=x(2,2)",
      "--output", "json"]),
    ("decompose_albert5_230.json", 0,
     ["decompose", "albert5", "--twist", "2,3,0", "--output", "json"]),
    ("decompose_albert5_230_e.txt", 0,
     ["decompose", "albert5", "--twist", "2,3,0", "--idempotent", "1,0,0,0,0"]),
    ("decompose_albert5_230_e.json", 0,
     ["decompose", "albert5", "--twist", "2,3,0", "--idempotent", "1,0,0,0,0",
      "--output", "json"]),
    ("jordan_random00.txt", 1, ["jordan", "random-00.json"]),
    ("jordan_random00.json", 1, ["jordan", "random-00.json", "--output", "json"]),
    ("operators_albert5_230.json", 0,
     ["operators", "albert5", "--twist", "2,3,0", "--output", "json"]),
    ("operators_albert5_230_e.txt", 0,
     ["operators", "albert5", "--twist", "2,3,0", "--idempotent", "1,0,0,0,0"]),
    ("operators_albert5_230_e.json", 0,
     ["operators", "albert5", "--twist", "2,3,0", "--idempotent", "1,0,0,0,0",
      "--output", "json"]),
    ("symbolic.json", 0, ["symbolic", "--output", "json"]),
    ("powers_albert5_230_n4.json", 0,
     ["powers", "albert5", "--twist", "2,3,0", "--n", "4", "--output", "json"]),
    ("distinguish_rational.json", 0,
     ["distinguish", "albert5-rational-a.json", "albert5-rational-b.json", "--output", "json"]),
    ("derive_albert5_230_n3.json", 0, ["derive", "albert5", "--twist", "2,3,0", "--n", "3"]),
    ("derive_albert5_rational_n3.json", 0,
     ["derive", "albert5", "--twist", "1/2,3/2,1/3", "--n", "3"]),
    ("twist_albert5_231_beta.json", 0,
     ["twist", "albert5", "--twist", "2,3,1", "--by", "beta-231-rational.json"]),
    ("decompose_rational_basis.txt", 0, ["decompose", "albert5-230-rational-basis.json"]),
]


@pytest.mark.parametrize("name,code,argv", CASES, ids=[c[0] for c in CASES])
def test_output_matches_golden_file(name, code, argv, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    assert main(argv) == code
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()
