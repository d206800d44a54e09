"""Time whole ``homalt`` calls on generated algebras and write a BENCH file.

    python3 bench/curve.py                      # every point, 3 runs each -> BENCH_31.json
    python3 bench/curve.py --points sum10-check --runs 1 --out /tmp/b.json

Every point is a ``homalt`` command on an algebra built here in code:
whole ``check`` on sums of albert5 (2,3,0) copies at dim 10 to 60, two
suites alone on the dim-60 sum, the axioms, powers and jordan suites on
spin factors (1 a unit, e_i e_i = 1, alpha = Id) at dim 10 to 20, the
sums of dim 10 to 20 carried to a seeded unimodular basis, where almost
every structure constant is nonzero and large (the suites but decompose,
whose +-1 idempotent search finds nothing there, and the axioms alone at
dim 20), and the benchmark's octonion8 invocation for one fixed sign
character, its table and character loaded read-only from
perfbench/workloads.py.

Each run is a fresh process of this checkout's ``src`` (PYTHONPATH), and
the record keeps, per point, the median wall time and peak RSS of the
runs, every run's figures, the exit code and the sha256 of stdout; the
runs must agree on both.  A child's ``ru_maxrss`` counts the memory of
the process that forked it, as of the fork, so the script's own (tens of
MB once it has built the dim-60 sum) would be read as the child's.  Each
run therefore starts a small launcher (``python -S``, about 5 MB), which
forks the command, waits for it with ``os.wait4`` and reports its wall
time, exit code and ``ru_maxrss``; the reading's floor is the launcher's.
"""

import argparse
import functools
import hashlib
import json
import os
import pathlib
import platform
import random
import runpy
import statistics
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from homalt.constructions import AlbertParams, albert5_twisted, direct_sum  # noqa: E402
from homalt.core import HomAlgebra, mul, save_algebra  # noqa: E402
from homalt.linalg import Matrix, identity_matrix, inverse, vec_mat  # noqa: E402

# Forks argv[2:] with stdout to the file argv[1], waits, prints "wall exit maxrss_kb".
LAUNCHER = """import os, sys, time
out = os.open(sys.argv[1], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
start = time.perf_counter()
pid = os.fork()
if pid == 0:
    os.dup2(out, 1)
    try:
        os.execv(sys.argv[2], sys.argv[2:])
    finally:
        os._exit(127)
_, status, usage = os.wait4(pid, 0)
print(time.perf_counter() - start, os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def albert5_sum(copies):
    A = albert5_twisted(AlbertParams(2, 3, 0))
    return functools.reduce(direct_sum, [A] * copies)


def dense_sum(dim):
    """albert5_sum(dim // 5) in the basis of the rows of S = L U, with L and U
    unitriangular and their other entries drawn from {-1, 0, 1}: mu' = S mu S^-1
    and alpha' = S alpha S^-1, exactly.  One generator seeded 1 draws S for
    dim 10, 15, ... in turn, so each dim's table is the same in every call."""
    rng = random.Random(1)

    def entry(i, j):
        return 1 if i == j else rng.choice((-1, 0, 1))

    for n in range(10, dim + 1, 5):
        L = [[entry(i, j) if i >= j else 0 for j in range(n)] for i in range(n)]
        U = [[entry(i, j) if i <= j else 0 for j in range(n)] for i in range(n)]
    S = Matrix(L) * Matrix(U)
    A, Sinv = albert5_sum(dim // 5), inverse(S)
    f = [A.element(S.row(i)) for i in range(dim)]
    mu = [[vec_mat(mul(A, x, y).coords, Sinv) for y in f] for x in f]
    return HomAlgebra(dim, ["f%d" % i for i in range(dim)], mu, S * A.alpha * Sinv)


def spin_factor(dim):
    """Q1 + Q^(dim-1) with 1 a unit and e_i e_j = [i = j] 1 for i, j >= 1, alpha = Id."""
    mu = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        mu[0][i][i] = mu[i][0][i] = 1
        mu[i][i][0] = 1
    return HomAlgebra(dim, ["one"] + ["s%d" % i for i in range(1, dim)], mu, identity_matrix(dim))


def octonion8(s):
    """The octonions twisted by the sign character chi_s, as perfbench's octonion8 builds them."""
    sys.path.insert(0, str(ROOT / "perfbench"))  # workloads.py imports reference.py
    try:
        workloads = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    chi, table = workloads["sign_character"](s), workloads["octonion_table"]()
    mu = [[[c * chi[k] for k, c in enumerate(table[i][j])] for j in range(8)] for i in range(8)]
    return HomAlgebra(8, ["e%d" % i for i in range(8)], mu, Matrix.diagonal(chi))


CHECK_SUITES = "axioms,powers,jordan,decompose,operators"  # the octonion8 invocation's
DENSE_SUITES = "axioms,powers,jordan,operators,identities"

# name -> (input file, its builder, the homalt arguments after the file)
POINTS = {}
for _copies in (2, 3, 4, 6, 12):
    POINTS["sum%d-check" % (5 * _copies)] = (
        "sum%d.json" % (5 * _copies), functools.partial(albert5_sum, _copies), [])
for _suites in ("axioms", "operators,decompose"):
    POINTS["sum60-" + _suites.replace(",", "-")] = (
        "sum60.json", functools.partial(albert5_sum, 12), ["--suites", _suites])
for _dim in (10, 15, 20):
    POINTS["spin%d-axioms-powers-jordan" % _dim] = (
        "spin%d.json" % _dim, functools.partial(spin_factor, _dim),
        ["--suites", "axioms,powers,jordan"])
for _dim, _suites in ((10, DENSE_SUITES), (15, DENSE_SUITES), (20, "axioms"),
                      (20, DENSE_SUITES)):
    POINTS["dense%d-%s" % (_dim, "check5" if _suites == DENSE_SUITES else _suites)] = (
        "dense%d.json" % _dim, functools.partial(dense_sum, _dim), ["--suites", _suites])
POINTS["octonion8-s3"] = ("octonion8_s3.json", functools.partial(octonion8, 3),
                          ["--suites", CHECK_SUITES])


def run_once(workdir, argv, env):
    """(wall_s, exit code, peak RSS in MB, stdout bytes) of one fresh process."""
    out = os.path.join(workdir, "stdout.txt")
    proc = subprocess.run([sys.executable, "-S", "-c", LAUNCHER, out, *argv], cwd=workdir,
                          env=env, capture_output=True, text=True, check=True)
    wall, code, maxrss_kb = proc.stdout.split()
    with open(out, "rb") as fh:
        stdout = fh.read()
    return float(wall), int(code), int(maxrss_kb) / 1024, stdout


def measure(name, runs, workdir, env):
    path, build, rest = POINTS[name]
    if not os.path.exists(os.path.join(workdir, path)):
        save_algebra(build(), os.path.join(workdir, path))
    args = ["check", path, *rest, "--output", "json"]
    samples = [run_once(workdir, [sys.executable, "-m", "homalt.cli", *args], env)
               for _ in range(runs)]
    codes = {code for _, code, _, _ in samples}
    digests = {hashlib.sha256(out).hexdigest() for _, _, _, out in samples}
    if len(codes) != 1 or len(digests) != 1:
        raise SystemExit("%s: runs disagree: exit codes %s, stdout digests %s"
                         % (name, sorted(codes), sorted(digests)))
    walls = [w for w, _, _, _ in samples]
    rss = [r for _, _, r, _ in samples]
    return {
        "argv": ["homalt", *args],
        "runs": runs,
        "wall_s": round(statistics.median(walls), 4),
        "wall_s_runs": [round(w, 4) for w in walls],
        "peak_rss_mb": round(statistics.median(rss), 2),
        "peak_rss_mb_runs": [round(r, 2) for r in rss],
        "exit_code": codes.pop(),
        "stdout_sha256": digests.pop(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=3, help="fresh processes per point")
    parser.add_argument("--points", default=",".join(POINTS),
                        help="comma-separated point names (default: all)")
    parser.add_argument("--out", default=str(ROOT / "BENCH_31.json"), help="the file to write")
    args = parser.parse_args(argv)
    names = args.points.split(",")
    unknown = [n for n in names if n not in POINTS]
    if unknown or args.runs < 1:
        parser.error("unknown points %s (known: %s)" % (unknown, ", ".join(POINTS))
                     if unknown else "--runs must be at least 1")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as workdir:
        points = {}
        for name in names:
            points[name] = measure(name, args.runs, workdir, env)
            print("%-32s %8.3f s %7.1f MB  exit %d" % (
                name, points[name]["wall_s"], points[name]["peak_rss_mb"],
                points[name]["exit_code"]), file=sys.stderr)
    record = {
        "machine": {
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE", ""),
        },
        "rss_reading": "ru_maxrss of the command, forked by a python -S launcher",
        "points": points,
    }
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
