"""bench/curve.py, which writes the BENCH file, run on its smallest point."""

import json
import pathlib
import runpy
import subprocess
import sys

from homalt.core import is_multiplicative, is_right_hom_alternative

CURVE = pathlib.Path(__file__).resolve().parent.parent / "bench" / "curve.py"


def test_curve_records_its_smallest_point(tmp_path):
    out = tmp_path / "bench.json"
    proc = subprocess.run([sys.executable, str(CURVE), "--points", "octonion8-s3", "--runs", "1",
                           "--out", str(out)], capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(out.read_text())
    assert set(record["machine"]) == {"nproc", "platform", "python", "PYTHONDONTWRITEBYTECODE"}
    point = record["points"]["octonion8-s3"]
    assert point["exit_code"] == 0 and point["runs"] == 1
    assert point["argv"][:3] == ["homalt", "check", "octonion8_s3.json"]
    assert len(point["wall_s_runs"]) == len(point["peak_rss_mb_runs"]) == 1
    assert 0 < point["wall_s"] and 0 < point["peak_rss_mb"]
    assert len(point["stdout_sha256"]) == 64


def test_dense_table_is_dense_multiplicative_and_right_hom_alternative():
    A = runpy.run_path(str(CURVE))["dense_sum"](10)
    constants = [c for row in A.mu for v in row for c in v]
    assert sum(c != 0 for c in constants) >= 0.9 * len(constants)
    assert is_multiplicative(A) and is_right_hom_alternative(A)
    # the table ROADMAP measures: 969 of 1,000 constants nonzero, max |mu| 313, max |alpha| 67
    assert sum(c != 0 for c in constants) == 969 and max(map(abs, constants)) == 313
    assert max(abs(a) for row in A.alpha.data for a in row) == 67
