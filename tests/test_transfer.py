"""Certificate transfer in the identities suite, against the basis sweep.

On a multiplicative right Hom-alternative algebra the identities suite
decides each certified identity by transfer and sweeps nothing; the
sweep stays the route everywhere else.  Each transfer row must agree
with the sweep's report on every field but the note.
"""

import copy
import json
from collections import Counter

import pytest

from homalt import symbolic
from homalt.cli import main
from homalt.constructions import AlbertParams, albert5_twisted, direct_sum, yau_twist
from homalt.core import HomAlgebra, load_algebra, save_algebra
from homalt.linalg import Matrix, format_scalar, identity_matrix, parse_scalar
from homalt.symbolic import (
    certified_identities,
    check_identity_on_algebra,
    identity_registry,
    load_certificates,
)

from conftest import FIXTURES
from test_cli import GOLDEN, record_calls

SWEEP_NOTE = "lattice sweep over all basis multisets"
TRANSFER_NOTE = "transfers: multiplicative and right Hom-alternative hold"
# The identities each certificate leans on, directly or through another.
DEPENDENTS = {
    "assoc-shift": {"assoc-shift", "middle-square", "right-moufang", "associator-tail"},
    "assoc-shift-linear": {"assoc-shift-linear", "commutator-exchange", "associator-tail"},
}


@pytest.fixture
def fresh_certificates():
    """Forget the per-process certificate verdicts before and after."""

    symbolic.shipped_certificate_report.cache_clear()
    yield
    symbolic.shipped_certificate_report.cache_clear()


def triangular2():
    """p*p = p, p*q = q (the upper triangular span of e11, e12), twisted
    by the automorphism q -> 2q: multiplicative Hom-associative, dim 2."""
    mu = [[[1, 0], [0, 1]], [[0, 0], [0, 0]]]
    plain = HomAlgebra(2, ["p", "q"], mu, identity_matrix(2))
    return yau_twist(plain, Matrix.diagonal([1, 2]))


def suite_rows(argv, capsys):
    main(["check", *argv, "--suites", "identities", "--output", "json"])
    return json.loads(capsys.readouterr().out)["results"]


def sweep_rows(A):
    return [check_identity_on_algebra(A, i.lhs, i.rhs, name=i.name).as_dict()
            for i in identity_registry().values()]


def without_note(row):
    return {k: row[k] for k in ("passed", "law", "witness", "lhs", "rhs")}


def assert_rows_agree(got, want, transferred):
    assert [r["law"] for r in got] == [r["law"] for r in want] == list(identity_registry())
    for g, w in zip(got, want):
        assert without_note(g) == without_note(w)
        if g["law"] in transferred:
            assert g["note"].startswith("certificate (") and g["note"].endswith(TRANSFER_NOTE)
        else:
            assert g["note"] == w["note"]


@pytest.mark.parametrize("twist", ["2,3,0", "-1,4,7", "1/2,3/2,0"])
def test_transfer_agrees_with_the_sweep_on_albert5(twist, capsys):
    A = albert5_twisted(AlbertParams(*(parse_scalar(t) for t in twist.split(","))))
    got = suite_rows(["albert5", "--twist=" + twist], capsys)
    assert_rows_agree(got, sweep_rows(A), set(identity_registry()))


def test_transfer_agrees_with_the_sweep_on_a_direct_sum(tmp_path, capsys):
    S = direct_sum(albert5_twisted(AlbertParams(2, 3, 0)), triangular2())
    path = str(tmp_path / "sum.json")
    save_algebra(S, path)
    assert_rows_agree(suite_rows([path], capsys), sweep_rows(S), set(identity_registry()))


@pytest.mark.parametrize("path", [str(GOLDEN / "random-00.json"),
                                  str(FIXTURES / "non_right_alt_dim3.json")],
                         ids=["random-00", "non_right_alt_dim3"])
def test_failing_axiom_keeps_the_sweep(path, capsys):
    want = sweep_rows(load_algebra(path))
    got = suite_rows([path], capsys)
    assert [{k: r[k] for k in want[0]} for r in got] == want


@pytest.mark.parametrize("corrupt", sorted(DEPENDENTS))
def test_corrupt_certificate_falls_back_to_the_sweep(corrupt, fresh_certificates,
                                                     monkeypatch, capsys):
    shipped = load_certificates()

    def corrupted():
        data = copy.deepcopy(shipped)
        first = data[corrupt]["instances"][0]
        first["coeff"] = format_scalar(parse_scalar(first["coeff"]) + 1)
        return data

    monkeypatch.setattr(symbolic, "load_certificates", corrupted)
    assert certified_identities() == set(identity_registry()) - DEPENDENTS[corrupt]
    A = albert5_twisted(AlbertParams(2, 3, 0))
    got = suite_rows(["albert5", "--twist", "2,3,0"], capsys)
    assert_rows_agree(got, sweep_rows(A), certified_identities())
    assert [r["note"] == SWEEP_NOTE for r in got] == [
        name in DEPENDENTS[corrupt] for name in identity_registry()]


def test_teichmuller_certificates_need_the_five_term_cancellation(fresh_certificates,
                                                                  monkeypatch):
    shipped = load_certificates()
    data = copy.deepcopy(shipped)
    data["assoc-shift-linear"]["instances"].append(
        {"coeff": "0", "axiom": "hom-teichmuller",
         "substitution": {"w": "w", "x": "x", "y": "y", "z": "z"}})
    monkeypatch.setattr(symbolic, "load_certificates", lambda: data)
    assert certified_identities() == set(identity_registry())
    monkeypatch.setattr(symbolic, "verify_hom_teichmuller", lambda: False)
    assert certified_identities() == set(identity_registry()) - DEPENDENTS["assoc-shift-linear"]


# -- the work the suite does ---------------------------------------------------------


def test_check_sweeps_no_certified_identity(fresh_certificates, monkeypatch, capsys):
    monkeypatch.setenv("HOMALT_THREADS", "4")  # identities and symbolic on the pool
    sweeps = record_calls(monkeypatch, symbolic, "check_identity_on_algebra")
    verified = record_calls(monkeypatch, symbolic, "verify_certificate")
    assert main(["check", "albert5", "--twist", "2,3,0", "--output", "json"]) == 0
    capsys.readouterr()
    assert sweeps == []
    assert Counter(args[0] for args in verified) == {name: 1 for name in load_certificates()}


def test_failing_axiom_sweeps_every_identity(fresh_certificates, monkeypatch, capsys):
    sweeps = record_calls(monkeypatch, symbolic, "check_identity_on_algebra")
    verified = record_calls(monkeypatch, symbolic, "verify_certificate")
    path = str(GOLDEN / "random-00.json")
    assert main(["check", path, "--suites", "identities", "--output", "json"]) == 1
    capsys.readouterr()
    assert len(sweeps) == 6 and verified == []
