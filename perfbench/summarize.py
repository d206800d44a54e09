"""Summaries of timing samples, within one run and across runs.

    python3 perfbench/summarize.py RESULTS.jsonl

reads one benchmark result per line (the last stdout line of
``run.py``) and prints, per metric, the sample count, median, quartiles,
the quartile spread as a share of the median, and the highest
percentile that has at least ten samples beyond it.
"""

import json
import math
import statistics
import sys

TAIL = 10


def tail_percentile(values):
    """(p, value) for the highest whole percentile (nearest rank) with at
    least TAIL samples above its rank, or None when there are too few."""
    n = len(values)
    if n <= TAIL:
        return None
    p = math.floor(100 * (n - TAIL) / n)
    rank = max(1, math.ceil(p * n / 100))
    return p, sorted(values)[rank - 1]


def describe(values):
    """One line: n, median, quartiles, spread and tail percentile."""
    med = statistics.median(values)
    text = "n=%d median=%.6g" % (len(values), med)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        text += " q1=%.6g q3=%.6g spread=%.2f%%" % (q1, q3, 100 * (q3 - q1) / med if med else 0)
    tail = tail_percentile(values)
    if tail is not None:
        text += " p%d=%.6g" % tail
    return text


def main(paths):
    samples = {}
    for path in paths:
        with open(path) as fh:
            for line in fh:
                if line.strip():
                    for name, m in json.loads(line)["metrics"].items():
                        samples.setdefault((name, m["unit"]), []).append(m["value"])
    for (name, unit), values in sorted(samples.items()):
        print("%-48s %-6s %s" % (name, unit, describe(values)))


if __name__ == "__main__":
    main(sys.argv[1:])
