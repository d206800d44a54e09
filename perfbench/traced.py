"""Run one ``homalt`` command in-process with per-layer timing wrappers.

    PYTHONPATH=src python3 perfbench/traced.py STATS.json check albert5 --twist 2,3,0

The command's stdout and exit code are homalt's own; the per-layer
totals and spans go to STATS.json.  Nothing in ``src/`` is changed: the
wrappers are installed from outside, around the public functions in
``LAYERS``.  ``from .core import mul`` copies the function into every
importing module, so each wrapper is rebound in every ``homalt`` module
that holds the original.

Every wrapper counts calls.  ``time`` layers also record inclusive time
(``total_s``) and self time (``self_s``: inclusive time minus the time
spent in other timed wrappers below it on the same thread), and ``span``
layers additionally keep one span per call, tagged with the thread id
because ``check`` runs its suites on a thread pool.  ``count`` layers
are too hot to time: ``linalg.as_scalar`` runs millions of times per
command, so its wrapper only counts and its time stays in its callers.
"""

import functools
import itertools
import json
import sys
import threading
import time

COUNT, TIME, SPAN = "count", "time", "span"

# (layer, homalt module, public functions reported as that layer, kind)
LAYERS = [
    ("linalg.as_scalar", "linalg", ("as_scalar",), COUNT),
    ("linalg.vec_mat", "linalg", ("vec_mat",), TIME),
    ("linalg.mat_mul", "linalg", ("mat_mul",), TIME),
    ("linalg.elim", "linalg", ("rank", "kernel_basis", "solve", "inverse", "char_poly"), SPAN),
    ("core.mul", "core", ("mul",), TIME),
    ("core.apply_alpha", "core", ("apply_alpha",), TIME),
    ("core.is_multiplicative", "core", ("is_multiplicative",), SPAN),
    ("core.is_right_hom_alternative", "core", ("is_right_hom_alternative",), SPAN),
    ("core.load_algebra", "core", ("load_algebra",), SPAN),
    ("powers.polarized_defect_sweep", "powers", ("polarized_defect_sweep",), SPAN),
    ("powers.check_nth_hom_power_associative", "powers",
     ("check_nth_hom_power_associative",), SPAN),
    ("powers.check_third_fourth_criterion", "powers", ("check_third_fourth_criterion",), SPAN),
    ("jordan.check_hom_jordan_admissible", "jordan", ("check_hom_jordan_admissible",), SPAN),
    ("constructions.plus_algebra", "constructions", ("plus_algebra",), SPAN),
    ("symbolic.check_identity_on_algebra", "symbolic", ("check_identity_on_algebra",), SPAN),
    ("symbolic.multilinearize", "symbolic", ("multilinearize",), SPAN),
    ("symbolic.verify_certificate", "symbolic", ("verify_certificate",), SPAN),
    ("symbolic.verify_hom_teichmuller", "symbolic", ("verify_hom_teichmuller",), SPAN),
    ("dsl.parse_identity", "dsl", ("parse_identity",), SPAN),
    ("dsl.parse_monomial", "dsl", ("parse_monomial",), TIME),
    ("idempotents.idempotent_search", "idempotents", ("idempotent_search",), SPAN),
    ("idempotents.is_idempotent", "idempotents", ("is_idempotent",), TIME),
    ("idempotents.albert_decomposition", "idempotents", ("albert_decomposition",), SPAN),
    ("operators.check_mul_operator_identities", "operators",
     ("check_mul_operator_identities",), SPAN),
    ("operators.check_idempotent_operator_suite", "operators",
     ("check_idempotent_operator_suite",), SPAN),
    ("operators.left_op", "operators", ("left_op",), TIME),
    ("operators.right_op", "operators", ("right_op",), TIME),
    ("cli.main", "cli", ("main",), SPAN),
]

SEARCH = "idempotents.idempotent_search"
SEARCH_PROBE = "idempotents.is_idempotent"


class _ThreadState:
    """One thread's wrapper stack, totals and spans (no locking needed)."""

    def __init__(self):
        self.tid = threading.get_ident()
        self.stack = []  # [time in timed callees, enclosing span id]
        self.stats = {}  # layer -> [calls, total_s, self_s]
        self.spans = []  # (span id, parent span id, layer, tid, start, end)
        self.found = 0   # idempotents returned by idempotent_search
        self.tried = 0   # is_idempotent calls made inside idempotent_search

    def calls(self, layer):
        rec = self.stats.get(layer)
        return rec[0] if rec else 0


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._states = []
        self._counters = {}
        self._span_ids = itertools.count(1)
        self.origin = time.perf_counter()
        self.rebound = {}  # "module.function" -> bindings replaced

    def _state(self):
        try:
            return self._local.state
        except AttributeError:
            st = self._local.state = _ThreadState()
            self._states.append(st)
            return st

    def _counted(self, layer, fn):
        counter = self._counters.setdefault(layer, itertools.count())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            next(counter)
            return fn(*args, **kwargs)

        return wrapper

    def _timed(self, layer, fn, span):
        state = self._state
        clock = time.perf_counter
        span_ids = self._span_ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = state()
            stack = st.stack
            parent = stack[-1][1] if stack else None
            frame = [0.0, next(span_ids) if span else parent]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][0] += elapsed
                rec = st.stats.get(layer)
                if rec is None:
                    rec = st.stats[layer] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - frame[0]
                if span:
                    st.spans.append((frame[1], parent, layer, st.tid, start, end))

        return wrapper

    def _search_yield(self, fn):
        state = self._state

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = state()
            before = st.calls(SEARCH_PROBE)
            found = fn(*args, **kwargs)
            st.tried += st.calls(SEARCH_PROBE) - before
            st.found += len(found)
            return found

        return wrapper

    def install(self, layers=LAYERS):
        """Wrap every listed function, in every loaded homalt module."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "homalt" or name.startswith("homalt.")]
        for layer, modname, names, kind in layers:
            for fname in names:
                orig = getattr(sys.modules["homalt." + modname], fname)
                if kind == COUNT:
                    wrapper = self._counted(layer, orig)
                else:
                    wrapper = self._timed(layer, orig, kind == SPAN)
                if layer == SEARCH:
                    wrapper = self._search_yield(wrapper)
                bound = 0
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapper)
                            bound += 1
                self.rebound["%s.%s" % (modname, fname)] = bound

    def report(self):
        """Per-layer totals merged over threads, plus every span."""
        layers = {layer: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for layer, *_ in LAYERS}
        for layer, counter in self._counters.items():
            layers[layer]["calls"] = next(counter)
        spans = []
        for st in self._states:
            for layer, (calls, total, own) in st.stats.items():
                rec = layers[layer]
                rec["calls"] += calls
                rec["total_s"] += total
                rec["self_s"] += own
            spans.extend((sid, parent, layer, tid, start - self.origin, end - self.origin)
                         for sid, parent, layer, tid, start, end in st.spans)
        return {
            "layers": layers,
            "search": {"found": sum(st.found for st in self._states),
                       "tried": sum(st.tried for st in self._states)},
            "threads": len(self._states),
            "rebound": self.rebound,
            "spans": sorted(spans),
        }


def main(argv):
    if len(argv) < 2:
        sys.exit("usage: traced.py STATS.json HOMALT-ARGS...")
    stats_path, homalt_argv = argv[0], argv[1:]
    import homalt  # noqa: F401  (loads every submodule)
    import homalt.cli

    tracer = Tracer()
    tracer.install()
    try:
        return homalt.cli.main(homalt_argv)
    finally:
        sys.stdout.flush()
        with open(stats_path, "w") as fh:
            json.dump(tracer.report(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
