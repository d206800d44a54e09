"""Command-line front end.

Subcommands fall into two groups.  Constructors (``albert5``, ``twist``,
``derive``, ``plus``) emit algebras in the JSON structure-constant format,
to stdout or to ``-o FILE``: each is a row of ``CONSTRUCTORS``, and
``construct`` resolves its algebra, builds and writes.  Each subcommand's
flags are a row of ``SUBCOMMANDS``, and ``main`` builds only the parser
of the subcommand its arguments name.  Checkers run law
suites and emit a report, human-readable (``--output text``) or
machine-readable (``--output json``).
``check`` runs the suites named by ``--suites``; ``powers``, ``jordan``,
``decompose``, ``operators`` and ``symbolic`` are ``check --suites X``
under their own flags, and ``decompose`` and ``operators`` take
``--idempotent``.  ``COMMANDS`` names each checker command's suites and
its report's config fields; ``run`` reads everything else from the
parsed flags, where the report parser's defaults stand in for the flags
a command lacks.  ``identity`` and ``distinguish`` are checkers of their
own.

Exit codes: 0 all selected checks passed; 1 some law failed (or
``distinguish`` was inconclusive); 2 bad input (unparseable file, flag, or
expression): an ``InputError``, or a ``ValueError`` from the library,
which raises one for each input it refuses; 3 a precondition was unmet
(e.g. a non-multiplicative algebra fed to ``powers``, or no idempotent
found for ``decompose``), i.e. a ``core.HypothesisError``.  Each suite in
``_SUITE_FNS`` owns its preconditions and its checks: called, it decides
the preconditions (exit 3 at the first unmet one) and returns the
checks.  ``run`` calls every selected suite, in suite order, before it
runs any check, so an unmet precondition exits 3 before any work.
Hypotheses are decided once per algebra instance and cached on it.

The ``identities`` suite decides an identity by certificate transfer,
without a sweep, when the algebra is multiplicative and right
Hom-alternative and the identity is in ``symbolic.certified_identities()``:
its shipped certificate then proves it in every such algebra.  Otherwise
-- an axiom fails, or the certificate or one it leans on does not
verify -- the suite runs the lattice sweep, which evaluates the identity
once per point and also finds the witness.  ``identity`` always sweeps,
unless its identity normalizes to zero in the free multiplicative Hom-algebra.
A sweep whose size (``core.sweep_size``; an identity's is
``symbolic.identity_sweep_size``) is above ``core.MAX_SWEEP``
is bad input (exit 2); the powers, jordan and identities suites size
theirs while they decide their preconditions, the powers suite all its
rows' sweeps together.

Files are read and written only through ``core``: algebras by
``load_algebra`` and ``save_algebra``, the ``--by`` matrix by
``read_json`` and the ``--file`` identity by ``read_text``.  Their
messages name a path once, with the OS's reason, and cut a path longer
than ``linalg.CLIP_CHARS``; argparse's usage errors, which echo the
argument they refuse, are cut the same way.

Reports are deterministic: the same command line produces
byte-identical output.  ``--timings`` adds wall-clock times and is
therefore off by default; ``_row`` runs, times and shapes every row.  A
row times a cache hit when the fact it reports was decided as a
precondition: an ``axioms`` row when another suite needed its
hypothesis, a transferred ``identities`` row always, and a ``symbolic``
certificate row after transfer was decided.
When a command selects several suites, each runs its checks on a plain
``threading.Thread`` of its own; a single suite runs on the calling
thread, so ``check --suites X --timings`` times it uncontended.  Rows
come back in suite order, and when checks raise, the exception of the
first in suite order is re-raised.

One CLI call pays for interpreter start, the import of ``homalt``, the
compilation of ``src/homalt`` when no bytecode can be cached (e.g. under
``PYTHONDONTWRITEBYTECODE=1``), and only then the work; refuting a small
table costs less than starting.  So the import path keeps to the
standard library homalt needs: ``collections.namedtuple`` stands in for
``dataclasses`` and ``typing.NamedTuple``, plain threads for
``concurrent.futures``, and ``symbolic`` imports ``importlib.resources``
only to read the certificates.  ``import homalt`` loads only ``linalg``
and ``core``; this module imports every submodule, not because a call
runs them all but because ``perfbench/traced.py`` reads them right after
``import homalt.cli``.
"""

import argparse
import re
import sys
import threading
import time
from functools import partial

from .constructions import (
    AlbertParams,
    albert5_base,
    albert5_twisted,
    derived_algebra,
    hom_module_distinguish,
    plus_algebra,
    yau_twist,
)
from .core import (
    CheckReport,
    HypothesisError,
    is_multiplicative,
    is_right_hom_alternative,
    load_algebra,
    read_json,
    read_text,
    require,
    save_algebra,
    sweep_size,
    write_json,
)
# mul is unused here, but perfbench/traced.py wraps it in every module that holds it.
from .core import mul  # noqa: F401
from .idempotents import _element_splitting, albert_decomposition, idempotent_search
from .jordan import _plus_algebra, check_hom_jordan_admissible
from .linalg import Matrix, clip, parse_scalar, quote
from .operators import check_idempotent_operator_suite, check_mul_operator_identities
from .powers import MAX_HOM_POWER, check_nth_hom_power_associative, check_third_fourth_criterion
from .symbolic import (
    _FREE_ZERO_NOTE,
    IdentityDef,
    certified_identities,
    check_identity_on_algebra,
    identity_registry,
    identity_sweep_size,
    load_certificates,
    shipped_certificate_report,
    verify_hom_teichmuller,
)
from .dsl import MAX_ALPHA_POWER, parse_identity


class InputError(argparse.ArgumentTypeError):
    """Bad input that this module finds in a flag (exit 2, as a ValueError
    from the library).  Raised by an option's ``type``, argparse reports it
    as a usage error."""


class _Parser(argparse.ArgumentParser):
    """argparse's parser, its usage errors cut by linalg.clip: they echo the
    argument they name, which may be any length."""

    def error(self, message):
        super().error(clip(message))


# Each checker command: the suites it runs (None: ``check``'s --suites)
# and its report's config fields, named as its flags.
COMMANDS = {
    "check": (None, ("suites", "nmax", "timings")),
    "powers": (("powers",), ("n", "timings")),
    "jordan": (("jordan",), ("timings",)),
    "decompose": (("decompose",), ("idempotent", "timings")),
    "operators": (("operators",), ("idempotent", "timings")),
    "symbolic": (("symbolic",), ("timings",)),
}


# -- input plumbing -----------------------------------------------------------


def _parse_twist(text):
    parts = text.split(",")
    if len(parts) != 3:
        raise InputError("--twist wants three comma-separated rationals G,D,E, got %s"
                         % quote(text))
    gamma, delta, epsilon = (parse_scalar(p.strip()) for p in parts)
    return AlbertParams(gamma, delta, epsilon)


def _resolve_algebra(name, twist):
    """An algebra argument is a JSON file path or the literal 'albert5'.

    Returns (algebra, source label); the label goes into reports verbatim.
    """
    if name == "albert5":
        if twist is None:
            return albert5_base(), "albert5"
        return albert5_twisted(_parse_twist(twist)), "albert5 --twist %s" % twist
    if twist is not None:
        raise InputError("--twist only applies to the built-in albert5 generator")
    return load_algebra(name), name


def _parse_coords(text, A):
    parts = text.split(",")
    if len(parts) != A.dim:
        raise InputError(
            "expected %d comma-separated coordinates, got %d" % (A.dim, len(parts))
        )
    return A.element([parse_scalar(p.strip()) for p in parts])


def _ascii_int(text):
    """int(text) for ASCII [+-]?[0-9]+ only: int() also takes other
    scripts' digits and "1_0".  The ``type`` of every integer option."""
    if not re.fullmatch(r"\s*[+-]?[0-9]+\s*", text, re.ASCII):
        raise InputError("want an ASCII integer, got %s" % quote(text))
    return int(text)


def _load_morphism(path, dim):
    obj = read_json(path, "JSON")
    if isinstance(obj, dict):
        obj = obj.get("matrix")
    if not isinstance(obj, list) or len(obj) != dim or any(
        not isinstance(row, list) or len(row) != dim for row in obj
    ):
        raise InputError("%s must hold a %dx%d matrix of rationals" % (clip(path), dim, dim))
    try:
        return Matrix.from_rows([[parse_scalar(str(v)) for v in row] for row in obj])
    except ValueError as exc:
        raise InputError("%s: %s" % (clip(path), exc)) from exc


def _map_on_threads(fn, items):
    """[fn(x) for x in items], each call on a thread of its own.  Once all
    are done, the exception of the first item in order whose call raised
    is re-raised, as ``ThreadPoolExecutor.map`` does."""
    results = [None] * len(items)
    errors = [None] * len(items)

    def work(i, item):
        try:
            results[i] = fn(item)
        except BaseException as exc:  # re-raised below, in the calling thread
            errors[i] = exc

    threads = [threading.Thread(target=work, args=job) for job in enumerate(items)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return results


# -- report plumbing ----------------------------------------------------------


def _row(suite, timed, check):
    """Run ``check``, a zero-argument callable that returns one CheckReport,
    and shape its report row; ``timed`` fills ``timing_ms``."""
    start = time.perf_counter()
    report = check()
    ms = round((time.perf_counter() - start) * 1000.0, 3) if timed else None
    row = report.as_dict()
    row["suite"] = suite
    row["timing_ms"] = ms
    return row


def _format_text(report):
    lines = []
    alg = report.get("algebra")
    if alg is not None:
        lines.append("algebra: %s (dim %d)" % (alg["source"], alg["dim"]))
    for r in report["results"]:
        bits = ["%s  [%s] %s" % ("PASS" if r["passed"] else "FAIL", r["suite"], r["law"])]
        if r.get("timing_ms") is not None:
            bits.append("(%s ms)" % r["timing_ms"])
        if not r["passed"]:
            if r["witness"] is not None:
                bits.append("witness=(%s)" % ", ".join(r["witness"]))
            if r["lhs"] is not None:
                bits.append("lhs=%s" % r["lhs"])
            if r["rhs"] is not None:
                bits.append("rhs=%s" % r["rhs"])
        if r["note"]:
            bits.append("-- %s" % r["note"])
        lines.append("  ".join(bits))
    total = len(report["results"])
    good = sum(1 for r in report["results"] if r["passed"])
    lines.append("%d/%d checks passed" % (good, total))
    return "\n".join(lines)


def _describe(A, source):
    return {"source": source, "dim": A.dim, "basis": list(A.basis_names)}


def _emit(rows, output, command, fields, A=None, source=None, **extra):
    """Build every checker's report, print it and return the exit code."""
    report = {
        "algebra": None if A is None else _describe(A, source),
        "config": dict(fields, command=command),
        "results": rows,
        "passed": all(r["passed"] for r in rows),
        **extra,
    }
    if output == "json":
        write_json(report, None)
    else:
        print(_format_text(report))
    return 0 if report["passed"] else 1


# -- the check suites ---------------------------------------------------------
#
# Each takes the algebra, the parsed flags and ``idempotent``, the resolver
# of the idempotent to split at: ``--idempotent``, else the first nonzero
# one of height <= 1 (idempotent_search runs once per algebra).  A suite
# first decides its preconditions, raising HypothesisError (exit 3) at the
# first unmet one, and then returns its checks: zero-argument callables
# that each return one CheckReport.  Deciding a precondition fills the
# fact on A, so no two suites compute one.
#
# ``check`` differs from the single-suite commands in one thing: where they
# exit 3 for want of an idempotent, or of the operator suite's hypotheses,
# it drops the idempotent operator row (and its decompose suite asks to be
# dropped), so a failing algebra still gives a failing report.

_NO_IDEMPOTENT = "no nonzero idempotent with coordinates of height <= 1"


def _suite_axioms(A, args, idempotent):
    # The laws are this suite's checks, not its preconditions.
    return [partial(fn, A) for fn in (is_multiplicative, is_right_hom_alternative)]


def _suite_powers(A, args, idempotent):
    require(A, "the powers suite", "multiplicative")
    # Bad input above the cap, priced over every row's sweep, of degrees 2 to
    # max(nmax, 4); the largest alone first, so that a huge nmax is refused at once.
    top = max(args.nmax, 4)
    sweep_size(A, (top,))
    sweep_size(A, *((n,) for n in range(2, top + 1)))
    if top > MAX_HOM_POWER:  # after the price, whose messages come first
        flag = "--n" if args.command == "powers" else "--nmax"
        raise InputError("%s must be <= %d, got %d" % (flag, MAX_HOM_POWER, args.nmax))
    rows = [partial(check_nth_hom_power_associative, A, n) for n in range(2, args.nmax + 1)]
    return rows + [partial(check_third_fourth_criterion, A)]


def _suite_jordan(A, args, idempotent):
    _plus_algebra(A)  # the sweep's price: bad input above the cap, before any suite runs
    return [partial(check_hom_jordan_admissible, A)]


def _decomposition(A, e):
    dec = albert_decomposition(A, e)
    note = "e = %r; A_e(alpha) basis %r; A_e(0) basis %r" % (e, dec.part_alpha, dec.part_zero)
    return CheckReport(dec.spans_all, "idempotent-decomposition",
                       None if dec.spans_all else (e,), note=note)


def _suite_decompose(A, args, idempotent):
    where = "decompose suite: " if args.command == "check" else ""
    require(A, where + "decomposition", "surjective")
    e = idempotent()
    if e is None:
        raise HypothesisError("%s%s; drop 'decompose' from --suites" % (where, _NO_IDEMPOTENT))
    require(A, where + "decomposition", "idempotent", e=e)
    return [partial(_decomposition, A, e), partial(_element_splitting, A, e)]


def _suite_operators(A, args, idempotent):
    e = None
    # RA first, so that it is decided before the threads: check_mul_operator_identities reads it.
    if args.command != "check" or is_right_hom_alternative(A) and is_multiplicative(A):
        e = idempotent()
        if e is not None:
            require(A, "operator suite", "idempotent", "multiplicative",
                    "right-hom-alternative", e=e)
    checks = [partial(check_mul_operator_identities, A)]
    if e is not None:
        checks.append(partial(check_idempotent_operator_suite, A, e))
    return checks


def _transferable(A):
    """The identities that certificate transfer proves in A: the certified
    ones when A is multiplicative and right Hom-alternative, else none."""
    if is_multiplicative(A) and is_right_hom_alternative(A):
        return certified_identities()
    return frozenset()


def _transferred(name):
    note = "certificate (%s) transfers: multiplicative and right Hom-alternative hold" % (
        shipped_certificate_report(name).note
    )
    return CheckReport(True, name, note=note)


def _suite_identities(A, args, idempotent):
    """Each identity by certificate transfer where _transferable allows it
    (which verifies the shipped certificates), else by the lattice sweep,
    which finds the witness."""
    require(A, "the identities suite", "multiplicative")
    transfer = _transferable(A)
    for ident in identity_registry().values():
        if ident.name not in transfer:
            identity_sweep_size(A, ident.defect(), ident.degrees)
    return [
        partial(_transferred, ident.name)
        if ident.name in transfer
        else partial(check_identity_on_algebra, A, ident.lhs, ident.rhs, name=ident.name)
        for ident in identity_registry().values()
    ]


def _teichmuller():
    ok = verify_hom_teichmuller()
    return CheckReport(
        ok,
        "hom-teichmuller",
        witness=None if ok else ("expansion did not vanish",),
        note="10 terms → 0" if ok else "",
    )


def _suite_symbolic(A, args, idempotent):
    return [_teichmuller] + [partial(shipped_certificate_report, n)
                             for n in sorted(load_certificates())]


_SUITE_FNS = {
    "axioms": _suite_axioms,
    "powers": _suite_powers,
    "jordan": _suite_jordan,
    "decompose": _suite_decompose,
    "operators": _suite_operators,
    "identities": _suite_identities,
    "symbolic": _suite_symbolic,
}
ALL_SUITES = tuple(_SUITE_FNS)


def run(args):
    """Run a checker command from its parsed flags, print its report and return
    the exit code.  Every suite decides its preconditions before any thread starts."""
    if args.nmax < 2:
        flag = "--n" if args.command == "powers" else "--nmax"
        raise InputError("%s must be >= 2, got %d" % (flag, args.nmax))
    wanted, fields = COMMANDS[args.command]
    if wanted is None:
        wanted = [s.strip() for s in args.suites.split(",")]
    unknown = [s for s in wanted if s not in ALL_SUITES]
    if unknown:
        raise InputError("unknown suite %s (have: %s)" % (quote(unknown[0]), ", ".join(ALL_SUITES)))
    A = source = given = None
    if args.algebra is not None:
        A, source = _resolve_algebra(args.algebra, args.twist)
        if args.idempotent is not None:
            given = _parse_coords(args.idempotent, A)  # bad input exits 2 first
    selected = [s for s in ALL_SUITES if s in set(wanted)]

    def idempotent():
        found = [given] if given is not None else idempotent_search(A)
        if not found and args.command != "check":
            raise HypothesisError("%s; pass --idempotent" % _NO_IDEMPOTENT)
        return found[0] if found else None

    suites = [(s, _SUITE_FNS[s](A, args, idempotent)) for s in selected]

    def run_suite(suite):
        s, checks = suite
        return [_row(s, args.timings, check) for check in checks]

    if len(suites) > 1:
        results = _map_on_threads(run_suite, suites)
    else:  # one suite runs on the calling thread
        results = [run_suite(suite) for suite in suites]
    rows = [row for suite_rows in results for row in suite_rows]
    values = dict(vars(args), n=args.nmax, suites=selected)
    return _emit(rows, args.output, args.command, {f: values[f] for f in fields}, A, source)


# -- constructor subcommands --------------------------------------------------
#
# Each builds the algebra it writes from the resolved algebra and the flags.


def _derived(A, args):
    if args.n < 0:
        raise InputError("--n must be >= 0, got %d" % args.n)
    if args.n > MAX_ALPHA_POWER:
        raise InputError("--n must be <= %d, got %d" % (MAX_ALPHA_POWER, args.n))
    return derived_algebra(A, args.n)


CONSTRUCTORS = {
    "albert5": lambda A, args: A,
    "twist": lambda A, args: yau_twist(A, _load_morphism(args.by, A.dim)),
    "derive": _derived,
    "plus": lambda A, args: plus_algebra(A),
}


def construct(args):
    """Run a constructor command: resolve its algebra, build the new one and
    write it to ``-o FILE``, or to stdout."""
    A, _ = _resolve_algebra(args.algebra, args.twist)
    save_algebra(CONSTRUCTORS[args.command](A, args), args.out)
    return 0


# -- checker subcommands ------------------------------------------------------


def cmd_identity(args):
    A, source = _resolve_algebra(args.algebra, args.twist)
    text = args.expr if args.expr is not None else read_text(args.file)
    ident = IdentityDef(args.name, *parse_identity(text))
    row = _row("identity", args.timings,
               partial(check_identity_on_algebra, A, ident.lhs, ident.rhs, name=args.name))
    fields = {"name": args.name}
    if row["note"] == _FREE_ZERO_NOTE:  # no sweep ran: no time, and no degrees to report
        row["timing_ms"] = None
    else:  # the sweep has read the degrees
        fields.update(degrees=ident.degrees, timings=args.timings)
    return _emit([row], args.output, "identity", fields, A, source)


def cmd_distinguish(args):
    A, src_a = _resolve_algebra(args.algebra, None)
    B, src_b = _resolve_algebra(args.other, None)
    report = hom_module_distinguish(A, B)
    if not report:  # witnessed by the algebras as the command line names them
        report = report._replace(witness=(src_a, src_b))
    rows = [_row("distinguish", False, lambda: report)]
    return _emit(rows, args.output, "distinguish", {}, A, src_a, other=_describe(B, src_b))


# -- argument parsing ---------------------------------------------------------


def _add_albert5(p):
    p.add_argument("--twist", metavar="G,D,E", help="twist along the parameterized morphism")
    p.set_defaults(algebra="albert5")


def _add_twist(p):
    p.add_argument("--by", metavar="BETA.json", required=True, help="matrix of the morphism")


def _add_derive(p):
    p.add_argument("--n", type=_ascii_int, required=True, help="power of alpha to twist by (>= 0)")


def _add_check(p):
    p.add_argument(
        "--suites",
        default=",".join(ALL_SUITES),
        help="comma-separated subset of: %s" % ", ".join(ALL_SUITES),
    )
    p.add_argument("--nmax", type=_ascii_int, default=5, help="largest Hom-power (>= 2)")


def _add_powers(p):
    p.add_argument(
        "--n", dest="nmax", metavar="N", type=_ascii_int, default=5,
        help="check powers 2..n (n >= 2)",
    )


def _add_decompose(p):
    p.add_argument("--idempotent", metavar="C0,C1,...", help="coordinates of the idempotent")


def _add_identity(p):
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--expr", help="identity as '(= LHS RHS)'")
    group.add_argument("--file", help="file holding the identity")
    p.add_argument("--name", default="identity", help="label for the report")
    p.set_defaults(fn=cmd_identity)


def _add_distinguish(p):
    p.add_argument("algebra", help="first algebra (path or 'albert5')")
    p.add_argument("other", help="second algebra (path or 'albert5')")
    p.set_defaults(fn=cmd_distinguish)


# Each subcommand: its parent parsers (the algebra argument, -o FILE and the
# report options), its help, and the function that adds its own flags.
SUBCOMMANDS = {
    "albert5": (("out",), "emit the 5-dimensional example algebra", _add_albert5),
    "twist": (("alg", "out"), "Yau-twist along a self-morphism", _add_twist),
    "derive": (("alg", "out"), "nth derived algebra (twist by alpha^n)", _add_derive),
    "plus": (("alg", "out"), "symmetrized (plus) algebra", None),
    "check": (("alg", "rep"), "run named law suites", _add_check),
    "powers": (("alg", "rep"), "nth Hom-power associativity", _add_powers),
    "jordan": (("alg", "rep"), "Hom-Jordan admissibility", None),
    "decompose": (("alg", "rep"), "idempotent splitting of the algebra", _add_decompose),
    "operators": (("alg", "rep"), "multiplication-operator identities", _add_decompose),
    "identity": (("alg", "rep"), "prove an s-expression identity", _add_identity),
    "symbolic": (("rep",), "free-algebra checks and certificates", None),
    "distinguish": (("rep",), "separate two algebras by alpha spectra", _add_distinguish),
}


def _build_parser(command=None):
    """homalt's argument parser.  Given command, a name in SUBCOMMANDS, only
    that subcommand is added: argparse takes milliseconds to build them all,
    which every call would pay."""
    parser = _Parser(
        prog="homalt",
        description="Construct, twist, and verify right Hom-alternative algebras "
        "in exact rational arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    alg = argparse.ArgumentParser(add_help=False)
    alg.add_argument(
        "algebra",
        help="path to an algebra JSON file, or 'albert5' for the built-in 5-dimensional example",
    )
    alg.add_argument(
        "--twist",
        metavar="G,D,E",
        help="parameters for the built-in albert5 generator (rationals; D not in {0,1})",
    )

    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("-o", "--out", metavar="FILE", help="write the algebra here instead of stdout")
    out.set_defaults(fn=construct)

    rep = argparse.ArgumentParser(add_help=False)
    rep.add_argument("--output", choices=("text", "json"), default="text", help="report format")
    rep.add_argument(
        "--timings", action="store_true", help="add wall-clock times (breaks byte-determinism)"
    )
    # A checker command's function, and what it runs with for the flags it lacks (see run).
    rep.set_defaults(fn=run, nmax=5, idempotent=None, algebra=None, twist=None)

    parents = {"alg": alg, "out": out, "rep": rep}
    for name, (uses, help_, add_flags) in SUBCOMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, parents=[parents[u] for u in uses], help=help_)
            if add_flags is not None:
                add_flags(p)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_parser(argv[0] if argv and argv[0] in SUBCOMMANDS else None)
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except HypothesisError as exc:
        print("precondition unmet: %s" % exc, file=sys.stderr)
        return 3
    except (InputError, ValueError) as exc:  # the library's ValueError is bad input
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
