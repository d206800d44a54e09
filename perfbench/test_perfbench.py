"""Tests of the benchmark's own parts: the independent reference, the
input generators and the tracer.

    PYTHONPATH=src python3 -m pytest perfbench
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import workloads  # noqa: E402
from homalt import AlbertParams, albert5_base, albert5_twisted, algebra_to_json  # noqa: E402
from homalt.core import algebra_from_json, is_right_hom_alternative, load_algebra  # noqa: E402

FIXTURE = ROOT / "tests" / "fixtures" / "non_right_alt_dim3.json"


def homalt_witness(obj):
    rep = is_right_hom_alternative(algebra_from_json(obj))
    return None if rep.passed else tuple(rep.witness)


@pytest.mark.parametrize("params", [None, (2, 3, 0), (-1, 4, 7)])
def test_reference_agrees_with_homalt_on_albert5(params):
    A = albert5_base() if params is None else albert5_twisted(AlbertParams(*params))
    obj = algebra_to_json(A)
    assert reference.right_alternative_witness(obj) is None
    assert homalt_witness(obj) is None
    assert reference.morphism_witness(obj, obj["alpha"]) is None  # multiplicative


def test_reference_finds_homalt_witness_on_fixture():
    with open(FIXTURE) as fh:
        obj = json.load(fh)
    witness = reference.right_alternative_witness(obj)
    assert witness is not None
    assert witness == tuple(is_right_hom_alternative(load_algebra(str(FIXTURE))).witness)


def test_albert5_is_right_but_not_left_alternative():
    obj = algebra_to_json(albert5_base())
    assert reference.left_alternative_witness(obj) is not None


def test_octonion_table_is_alternative_with_sign_automorphisms():
    names = ["e%d" % i for i in range(8)]
    ident = [[str(int(i == j)) for j in range(8)] for i in range(8)]
    table = workloads.octonion_table()
    obj = {"dim": 8, "basis": names, "alpha": ident, "mu": [
        {"i": i, "j": j, "k": k, "c": str(c)}
        for i in range(8) for j in range(8) for k, c in enumerate(table[i][j]) if c]}
    assert len(obj["mu"]) == 64
    assert reference.right_alternative_witness(obj) is None
    assert reference.left_alternative_witness(obj) is None
    for s in range(1, 8):
        chi = workloads.sign_character(s)
        diag = [[chi[i] if i == j else 0 for j in range(8)] for i in range(8)]
        assert reference.morphism_witness(obj, diag) is None
    swap = [[int(j == (1 if i == 0 else 0 if i == 1 else i)) for j in range(8)]
            for i in range(8)]
    assert reference.morphism_witness(obj, swap) is not None


def plan_bytes(name, seed, outdir):
    workloads.write_plan(name, seed, str(outdir))
    return {str(p.relative_to(outdir)): p.read_bytes()
            for p in sorted(Path(outdir).rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_byte_deterministic(name, tmp_path):
    first = plan_bytes(name, 11, tmp_path / "a")
    assert first == plan_bytes(name, 11, tmp_path / "b")


@pytest.mark.parametrize("name", ["octonion8", "refute-random"])
def test_seed_changes_generated_inputs(name, tmp_path):
    first = plan_bytes(name, 1, tmp_path / "1")
    assert any(plan_bytes(name, s, tmp_path / str(s)) != first for s in (2, 3, 4))


def test_random_tables_match_homalt_witness(tmp_path):
    plan = workloads.write_plan("refute-random", 3, str(tmp_path))
    for inv in plan["invocations"][:6]:
        with open(tmp_path / inv["argv"][1]) as fh:
            obj = json.load(fh)
        want = tuple(int(i) for i in inv["witness"]["right-hom-alternative"])
        assert homalt_witness(obj) == want
        assert reference.morphism_witness(obj, obj["alpha"]) is None


def traced(tmp_path, tag, *argv):
    stats = tmp_path / ("%s.json" % tag)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("HOMALT_THREADS", None)
    proc = subprocess.run([sys.executable, str(HERE / "traced.py"), str(stats), *argv],
                          env=env, capture_output=True, timeout=120)
    with open(stats) as fh:
        return proc, json.load(fh)


def test_tracer_rebinds_every_module_and_repeats_counts(tmp_path):
    # Two suites on two pool threads, of which only axioms calls
    # is_multiplicative: its cache race cannot change the counts here.
    argv = ("check", "albert5", "--twist", "2,3,0", "--suites", "axioms,decompose",
            "--output", "json")
    first, report = traced(tmp_path, "one", *argv)
    second, again = traced(tmp_path, "two", *argv)
    plain = subprocess.run([sys.executable, "-m", "homalt.cli", *argv],
                           env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                           capture_output=True, timeout=120)
    assert first.returncode == plain.returncode == 0
    assert first.stdout == second.stdout == plain.stdout
    # core, cli, powers, jordan, operators, idempotents, symbolic, constructions, homalt
    assert report["rebound"]["core.mul"] == 9
    layers = report["layers"]
    assert layers["linalg.as_scalar"]["calls"] > layers["core.mul"]["calls"] > 0
    assert layers["cli.main"]["calls"] == 1
    assert report["search"]["found"] > 0
    assert ({k: v["calls"] for k, v in layers.items()}, report["search"]) == (
        {k: v["calls"] for k, v in again["layers"].items()}, again["search"])
    for rec in layers.values():
        assert rec["self_s"] <= rec["total_s"] + 1e-9
    assert {span[3] for span in report["spans"]} and report["threads"] >= 2


def test_traced_exit_codes_match_the_cli(tmp_path):
    proc, report = traced(tmp_path, "bad", "check", str(FIXTURE), "--suites", "axioms")
    assert proc.returncode == 1
    assert report["layers"]["core.is_right_hom_alternative"]["calls"] == 1
    proc, _ = traced(tmp_path, "usage", "check", "albert5", "--twist", "-1,4,7")
    assert proc.returncode == 2  # argparse reads -1,4,7 as an option
