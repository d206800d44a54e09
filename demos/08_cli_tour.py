"""A guided tour of the command-line interface.

Every library capability is reachable from the `homalt` entry point.
This script drives the CLI in-process (same code path as the installed
command) so the output below is exactly what the shell commands print.

Run:  python3 demos/08_cli_tour.py
"""

import tempfile

from homalt.cli import main

COMMANDS = [
    # the full default check: axioms, powers, jordan, decompose,
    # operators, identities, symbolic
    ["check", "albert5", "--twist", "2,3,0"],
    # a single suite, as machine-readable JSON
    ["check", "albert5", "--suites", "axioms", "--output", "json"],
    # power associativity to a chosen exponent
    ["powers", "albert5", "--twist", "2,3,0", "--n", "6"],
    # Jordan admissibility, idempotent decomposition
    ["jordan", "albert5", "--twist", "2,3,0"],
    ["decompose", "albert5", "--twist", "2,3,0"],
    # prove an identity given in the s-expression DSL
    ["identity", "albert5", "--twist", "2,3,0",
     "--expr", "(= (as x y y) (scale 0 x))"],
    # free-algebra facts need no algebra at all
    ["symbolic"],
]

for argv in COMMANDS:
    print("\n$ homalt " + " ".join(
        "'%s'" % a if "(" in a else a for a in argv))
    rc = main(argv)
    print("[exit %d]" % rc)

# Constructor commands write algebra JSON; checkers read it back.
with tempfile.TemporaryDirectory() as tmp:
    twisted = "%s/twisted.json" % tmp
    derived = "%s/derived.json" % tmp

    print("\n$ homalt albert5 --twist 5,7,0 -o %s" % twisted)
    print("[exit %d]" % main(["albert5", "--twist", "5,7,0", "-o", twisted]))

    print("\n$ homalt derive %s --n 1 -o %s" % (twisted, derived))
    print("[exit %d]" % main(["derive", twisted, "--n", "1", "-o", derived]))

    print("\n$ homalt check %s --suites axioms,identities" % derived)
    print("[exit %d]" % main(["check", derived, "--suites", "axioms,identities"]))

    print("\n$ homalt distinguish albert5 %s" % twisted)
    print("[exit %d]" % main(["distinguish", "albert5", twisted]))

print("""
exit codes:  0 all checks passed        1 a law failed / inconclusive
             2 bad input                3 a precondition was unmet
""")
