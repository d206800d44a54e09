"""Time to verdict for homalt, end to end and layer by layer.

    python3 perfbench/run.py --workload albert5-family --seed 1 --seconds 50 --trace 0

BENCHMARK.json lists albert5-family and refute-random; octonion8 and
identity-deg6 take 13-17 s a pass, too long for steady medians within
one run on a shared host, and are run by hand with larger --seconds.

Run from the root of a checkout; inputs, outputs and scratch files go
under ``.bench_work/`` there.  The load is a closed loop with one
client: each ``python -m homalt.cli`` invocation starts when the
previous one has exited.  ``HOMALT_THREADS`` is removed from the
children's environment, so homalt runs its default suite pool.

Set-up runs ``workloads.py`` in a child: it imports homalt (the
warm-up import, which also compiles the bytecode), generates the seeded
inputs and writes them with the known answers to ``plan.json``.  A timed
run repeats it ``SETUP_REPEATS`` times before the first pass and
``SETUP_PER_PASS`` times after every pass, so its median, like that of
the passes, covers the whole run.  Every repeat must write the same bytes.

``--trace 0`` runs passes over the workload's invocations until
``--seconds`` have elapsed and the workload's minimum number of passes
is made, and prints

  setup_s      median set-up time over the repeats
  wall_s       median over passes of the time from the first
               invocation's start to the last one's exit
  cpu_s        median over passes of the children's user + sys time
  peak_rss_mb  largest maximum RSS of any child, read per child with
               os.wait4 (RUSAGE_CHILDREN would carry the maximum over)

``--trace 1`` runs one untraced pass, then two traced passes through
``traced.py``, which calls ``homalt.cli.main(argv)`` in-process with
timing wrappers around each module's public functions.  It prints the
per-layer metrics of the first traced pass, summed over invocations,
and ``trace.overhead_s`` (traced minus untraced pass time).

An invocation fails on a wrong exit code, a verdict row whose (suite,
law, passed) differs from the known answer, a wrong witness, or a
traceback on stderr; a traced invocation also fails when its stdout is
not byte-identical to the untraced one.  The last stdout line is the
JSON result; ``failed / attempted`` is the fail ratio.

The call counts of each invocation are compared between the two traced
passes.  A difference is reported as ``trace.unrepeated_counts``, not as
a failed invocation: the verdict was right, but the program did
different work.  ``check`` can do so, because its suite threads race on
the algebra's cached ``is_multiplicative`` report and both may compute
it.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from summarize import describe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 8  # before the first pass
SETUP_PER_PASS = 3  # after every pass: one set-up child lasts only ~0.2 s
RUN_BUDGET_S = 170  # children still running this long after start are killed

# Per-layer metrics "<layer>.<field>" reported from the traced run.
LAYER_FIELDS = {
    "linalg.as_scalar": ("calls",),
    "linalg.vec_mat": ("calls", "self_s"),
    "linalg.mat_mul": ("calls", "self_s"),
    "linalg.elim": ("calls", "self_s"),
    "core.mul": ("calls", "self_s"),
    "core.apply_alpha": ("calls", "self_s"),
    "core.is_multiplicative": ("total_s",),
    "core.is_right_hom_alternative": ("total_s",),
    "core.load_algebra": ("total_s",),
    "powers.polarized_defect_sweep": ("calls", "self_s", "total_s"),
    "powers.check_nth_hom_power_associative": ("total_s",),
    "powers.check_third_fourth_criterion": ("total_s",),
    "jordan.check_hom_jordan_admissible": ("total_s",),
    "constructions.plus_algebra": ("total_s",),
    "symbolic.check_identity_on_algebra": ("calls", "self_s", "total_s"),
    "symbolic.multilinearize": ("total_s",),
    "symbolic.verify_certificate": ("total_s",),
    "symbolic.verify_hom_teichmuller": ("total_s",),
    "dsl.parse_identity": ("total_s",),
    "dsl.parse_monomial": ("calls",),
    "idempotents.idempotent_search": ("calls", "total_s"),
    "idempotents.albert_decomposition": ("total_s",),
    "operators.check_mul_operator_identities": ("total_s",),
    "operators.check_idempotent_operator_suite": ("total_s",),
    "operators.left_op": ("calls",),
    "operators.right_op": ("calls",),
    "cli.main": ("calls", "self_s"),
}


class Child:
    """One finished child process: exit code, output and its own rusage."""

    def __init__(self, argv, cwd, env, io_dir, timeout):
        with open(io_dir / "stdout", "w+b") as out, open(io_dir / "stderr", "w+b") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
            previous = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
            signal.alarm(timeout)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                signal.alarm(0)
                signal.signal(signal.SIGALRM, previous)
            self.end = time.perf_counter()
            self.wall = self.end - start
            proc.returncode = self.rc = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            self.out, self.err = out.read(), err.read()
        self.cpu = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def child_env():
    env = dict(os.environ)
    env.pop("HOMALT_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def tree_digest(path):
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(str(f.relative_to(path)).encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


def verdict_errors(inv, child):
    """Ways in which one invocation missed its known answer."""
    errors = []
    if child.rc != inv["exit"]:
        errors.append("exit code %d, expected %d" % (child.rc, inv["exit"]))
    if b"Traceback" in child.err:
        errors.append("traceback on stderr")
    try:
        results = json.loads(child.out)["results"]
    except (ValueError, KeyError, TypeError):
        return errors + ["stdout is not a homalt JSON report"]
    got = [[r["suite"], r["law"], r["passed"]] for r in results]
    want = inv["rows"]
    if len(got) != len(want) or any(
        g[:2] != w[:2] or (w[2] is not None and g[2] != w[2]) for g, w in zip(got, want)
    ):
        errors.append("verdict rows %r, expected %r" % (got, want))
    for law, witness in inv["witness"].items():
        found = [r["witness"] for r in results if r["law"] == law]
        if found != [witness]:
            errors.append("%s witness %r, expected %r" % (law, found, witness))
    return errors


class Runner:
    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.work = ROOT / ".bench_work" / workload
        self.inputs = self.work / "inputs"
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.deadline = time.monotonic() + RUN_BUDGET_S

    def child(self, argv, cwd):
        timeout = max(1, math.ceil(self.deadline - time.monotonic()))
        return Child(argv, cwd, self.env, self.work, timeout)

    def setup(self):
        """Generate the inputs into a fresh work directory; returns the
        set-up time."""
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.digest = None
        return self.generate()

    def generate(self):
        """Generate the inputs once more; they must not change.  Returns
        the set-up time."""
        argv = [sys.executable, str(HERE / "workloads.py"), self.workload, str(self.seed),
                str(self.inputs)]
        c = self.child(argv, ROOT)
        if c.rc != 0:
            sys.stderr.write(c.err.decode(errors="replace"))
            raise SystemExit("set-up failed with exit code %d" % c.rc)
        digest = tree_digest(self.inputs)
        if self.digest not in (None, digest):
            raise SystemExit("set-up is not deterministic: inputs differ between repeats")
        self.digest = digest
        with open(self.inputs / "plan.json") as fh:
            self.plan = json.load(fh)
        return c.wall

    def run_pass(self, launcher):
        """Run every invocation once, back to back; returns (wall, children)."""
        children = []
        start = time.perf_counter()
        for inv in self.plan["invocations"]:
            children.append((inv, self.child(launcher(len(children)) + inv["argv"],
                                              self.inputs)))
        return children[-1][1].end - start, children

    def record(self, label, inv, errors):
        self.attempted += 1
        if errors:
            self.failed += 1
            print("FAIL %s %s: %s" % (label, " ".join(inv["argv"]), "; ".join(errors)),
                  file=sys.stderr)

    def check_pass(self, label, children):
        for inv, c in children:
            self.record(label, inv, verdict_errors(inv, c))


def plain_launcher(_index):
    return [sys.executable, "-m", "homalt.cli"]


def environment_lines(runner):
    env = runner.plan["environment"]
    return [
        "workload %s, seed %d, %d invocations per pass" % (
            runner.workload, runner.seed, len(runner.plan["invocations"])),
        "environment: nproc %d, python %s, scalar %s, HOMALT_THREADS %s" % (
            os.cpu_count() or 0, env["python"], env["scalar"],
            env["HOMALT_THREADS"] or "unset (default suite pool)"),
    ]


def timed_run(runner, seconds):
    setup_times = [runner.setup()]
    setup_times += [runner.generate() for _ in range(SETUP_REPEATS - 1)]
    for line in environment_lines(runner):
        print(line)
    if runner.workload == "albert5-family":
        print("baseline: invocation 1 is ROADMAP's `homalt check albert5 --twist 2,3,0` "
              "(3.7 s with HOMALT_THREADS=1, 4.5 s with the 2-thread pool, 2-core machine)")
    passes = []
    deadline = time.perf_counter() + seconds
    while len(passes) < runner.plan["min_passes"] or time.perf_counter() < deadline:
        wall, children = runner.run_pass(plain_launcher)
        runner.check_pass("pass %d" % (len(passes) + 1), children)
        passes.append((wall, sum(c.cpu for _, c in children), children))
        setup_times += [runner.generate() for _ in range(SETUP_PER_PASS)]
    print("passes: %d; pass wall_s %s" % (len(passes), describe([p[0] for p in passes])))
    print("set-up repeats: %d; setup_s %s" % (len(setup_times), describe(setup_times)))
    invocations = runner.plan["invocations"]
    if len(invocations) <= 4:
        for i, inv in enumerate(invocations):
            walls = [children[i][1].wall for _, _, children in passes]
            print("invocation %d, %s: wall_s %s" % (i + 1, " ".join(inv["argv"]), describe(walls)))
    else:
        walls = [c.wall for _, _, children in passes for _, c in children]
        print("per invocation wall_s: %s" % describe(walls))
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(p[0] for p in passes), "s"),
        "cpu_s": (statistics.median(p[1] for p in passes), "s"),
        "peak_rss_mb": (max(c.rss_mb for _, _, children in passes for _, c in children), "MB"),
    }


def traced_run(runner):
    runner.setup()
    for line in environment_lines(runner):
        print(line)
    plain_wall, plain = runner.run_pass(plain_launcher)
    runner.check_pass("untraced", plain)
    passes = [traced_pass(runner, t, plain) for t in (1, 2)]
    unrepeated = 0
    for inv, first, second in zip(runner.plan["invocations"], passes[0][1], passes[1][1]):
        if first is not None and second is not None and counts(first) != counts(second):
            unrepeated += 1
            layers = [k for k, v in first["layers"].items()
                      if v["calls"] != second["layers"][k]["calls"]]
            print("call counts differ between the traced passes of %s: %s" % (
                " ".join(inv["argv"]), ", ".join(layers) or "idempotent search"))
    with open(runner.work / "trace.json", "w") as fh:
        json.dump({"untraced_wall_s": plain_wall, "passes": [
            {"wall_s": wall, "invocations": loaded} for wall, loaded in passes]}, fh)
    wall, loaded = passes[0]
    metrics = layer_metrics([r for r in loaded if r is not None], plain, wall - plain_wall)
    metrics["trace.unrepeated_counts"] = (unrepeated, "count")
    return metrics


def traced_pass(runner, t, plain):
    """Run every invocation through traced.py; returns (wall, loaded traces)."""
    stats = [runner.work / ("trace%d-%02d.json" % (t, i))
             for i in range(len(runner.plan["invocations"]))]
    wall, traced = runner.run_pass(
        lambda i: [sys.executable, str(HERE / "traced.py"), str(stats[i])])
    loaded = []
    for path, (inv, c), (_, base) in zip(stats, traced, plain):
        errors = verdict_errors(inv, c)
        if c.out != base.out:
            errors.append("traced stdout differs from untraced stdout")
        try:
            with open(path) as fh:
                loaded.append(json.load(fh))
        except (OSError, ValueError):
            loaded.append(None)
            errors.append("no trace written")
        runner.record("traced pass %d" % t, inv, errors)
    return wall, loaded


def counts(report):
    return ({k: v["calls"] for k, v in report["layers"].items()}, report["search"])


def layer_metrics(reports, plain, overhead):
    totals = {}
    for r in reports:
        for layer, rec in r["layers"].items():
            acc = totals.setdefault(layer, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for k in acc:
                acc[k] += rec[k]
    metrics = {}
    for layer, fields in LAYER_FIELDS.items():
        for field in fields:
            value = totals.get(layer, {}).get(field, 0)
            metrics["%s.%s" % (layer, field)] = (value, "count" if field == "calls" else "s")
    found = sum(r["search"]["found"] for r in reports)
    tried = sum(r["search"]["tried"] for r in reports)
    metrics["idempotents.search_yield"] = (found / tried if tried else 0.0, "ratio")
    verdicts = 0
    for _, c in plain:
        try:
            verdicts += len(json.loads(c.out)["results"])
        except (ValueError, KeyError, TypeError):
            pass
    mul_calls = totals.get("core.mul", {}).get("calls", 0)
    metrics["core.mul.calls_per_verdict"] = (mul_calls / verdicts if verdicts else 0.0,
                                             "count")
    metrics["trace.overhead_s"] = (overhead, "s")
    print("traced: %d invocations, %d verdict rows, overhead %.3f s" % (
        len(reports), verdicts, overhead))
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("albert5-family", "octonion8", "identity-deg6", "refute-random"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "homalt" / "cli.py").is_file():
        raise SystemExit("no homalt sources under %s; run from a checkout" % (ROOT / "src"))
    runner = Runner(args.workload, args.seed)
    metrics = traced_run(runner) if args.trace else timed_run(runner, args.seconds)
    print("fail_ratio: %g (%d failed of %d attempted)" % (
        runner.failed / runner.attempted, runner.failed, runner.attempted))
    for name, (value, unit) in metrics.items():
        print("%-48s %.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
