"""Each hypothesis of a theorem is needed: an algebra in fixtures/sharp/
that drops it and fails the conclusion.

The conclusion is swept directly, not through ``require``, which would
refuse the algebra for the hypothesis it lacks, on Elements built by mul
and apply_alpha: the free-algebra normal form the library's sweeps
evaluate assumes multiplicativity.  Its failing witness is replayed
through perfbench/reference.py, as tests/test_lattice.py replays the
golden files' rows.
"""

import json

from homalt.cli import main
from homalt.core import is_multiplicative, is_right_hom_alternative, load_algebra

from conftest import FIXTURES, hom_power, hom_power_pair, lattice_sweep
from test_lattice import Replay, parse_vector

SHARP = FIXTURES / "sharp"


def test_hom_power_associativity_needs_multiplicativity(capsys):
    # dim 2, e_i e_j = -(e0 + e1) for all i, j, and alpha = [[-1, -1], [-1, -1]]:
    # right Hom-alternative, but alpha is no morphism, and x^4 = x^(2,2)
    # fails, although every multiplicative right Hom-alternative algebra
    # satisfies it.
    path = SHARP / "power_assoc_needs_multiplicative_dim2.json"
    A = load_algebra(str(path))
    assert is_right_hom_alternative(A).passed
    rep = is_multiplicative(A)
    assert not rep.passed and rep.witness == (0, 0)

    def splits(n):
        return lambda x: [(i, hom_power(A, x, n) - hom_power_pair(A, x, n - i, i))
                          for i in range(2, n)]

    assert lattice_sweep(A, 3, "n=3", splits(3)).passed
    rep = lattice_sweep(A, 4, "n=4", splits(4))
    assert not rep.passed and rep.witness == ((0, 0, 0, 0), 2)
    lhs = rep.as_dict()["lhs"]
    assert lhs == "12288*e0 + 12288*e1"
    obj = json.loads(path.read_text())
    assert Replay(obj).powers(4, (0, 0, 0, 0), 2) == parse_vector(lhs, obj["basis"])
    assert main(["powers", str(path)]) == 3
    assert "needs a multiplicative algebra" in capsys.readouterr().err
