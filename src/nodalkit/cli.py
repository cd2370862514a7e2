"""Command-line entry point.

Subcommands:
    partition euler FILE        verify Euler identity / inequality + parity
    partition normalize FILE    blow up locally-disconnected singular points
    types enum -p N             enumerate interior types
    types label FILE            interior tau (2-row text) -> domain labeling
    types rotate-check -p N     count shift-invariant interior types
    types words FILE            boundary tau -> words + first-repeat report
    solve PROBLEM -k K          solve the eigenproblem, write solution JSON
    nodal report SOLUTION K     nodal extract + checks for eigenfunction K
    plot SOLUTION K -o OUT.svg  SVG rendering of the nodal extract
    bounds SURFACE -k K         classical multiplicity bounds + Pleijel data

Exit codes: 0 all checks pass, 1 a check the subcommand reports failed
(Euler, boundary parity, normalize invariants, rotating limit, rotate-check
count), 2 bad input or usage.  The library's readers only look up keys,
its constructors check every value where they make it, and both raise a
NodalkitError for bad input, which main alone turns into exit 2 as
`error: [FILE: ]KIND: message`; no handler re-checks or translates.  The
parser requires -p and plot's -o.  Every subcommand writes its text
through one writer, `_emit`: to -o when it is given, else to stdout.
Every subcommand that reads a file reads and parses it through one loader,
`_load`, which catches only what reading and parsing text raise, so a
missing, unreadable, non-UTF-8 or non-JSON file exits 2 with a Python KIND
and every other malformed file with the reader's.  A partition file is
loaded with its stats, so one whose boundary cycle bounds no face exits 2
too.  `solve` prints a solution's to_json and assembles its problem's
operator; `nodal report` and `plot` read it with EigenSolution.from_json,
which checks it whole, and only map vectors to grid cells, so they never
build the matrix.  A solution whose mask is in more than one piece solves,
but its extraction raises InvalidProblem (exit 2).  The argument parser is
built once per process; a command group without a subcommand is a usage
error (exit 2, usage and `error: ...` on stderr).  Input files are parsed
by orjson, whose correctly rounded decimal reader gives the same floats as
`json.loads` several times faster; `NaN`, `Infinity` and numbers that
overflow a double are not JSON and exit 2 at parse.  Reports are indented
JSON with sorted keys (`json.dumps`), so fixed inputs give byte-identical
output; `solve` writes its solution through orjson as sorted-key JSON on
one line, with the shortest decimal spelling that reads back to each float.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys

import orjson

from . import __version__
from .bounds import classical_bounds, pleijel_gamma
from .comb_type import (BoundaryType, InteriorType, boundary_words, catalan,
                        enumerate_interior, labeling_from_type, parse_tau_text,
                        rotating_limit_check, shift_invariant_types)
from .errors import InvalidType, NodalkitError
from .partition import (EmbeddedPartition, check_boundary_parity, normalize,
                        partition_stats, verify_euler)
from .plotting import render_svg
from .spectral import (EigenProblem, EigenSolution, assemble_operator,
                       extract_nodal, solve_eigen)
from .surface import parse_surface

FORMAT_VERSION = 1


class InputError(Exception):
    """Malformed input: exit code 2."""


def _read_text(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _describe(args, exc):
    """`FILE: KIND: message` for what a command's input raised, without
    `FILE: ` when the command reads no file."""
    where = [args.file] if hasattr(args, "file") else []
    return ": ".join(where + [type(exc).__name__, str(exc)])


def _load(args, parse):
    """Read args.file, parse and validate it with parse(text) -> (value,
    digest source), record the command's inputDigest and return the value.
    Only what reading and parsing text raise becomes InputError: OSError,
    text that is not UTF-8 or not JSON, and JSON nested past the recursion
    limit (orjson reads it; json.dumps cannot digest it)."""
    try:
        value, key = parse(_read_text(args.file))
    except (OSError, UnicodeDecodeError, orjson.JSONDecodeError,
            RecursionError) as exc:
        raise InputError(_describe(args, exc))
    args._digest = hashlib.sha256(key.encode()).hexdigest()[:16]
    return value


def _parse_json(build, digest=lambda obj: json.dumps(obj, sort_keys=True)):
    """A parse for _load: build(obj) of the JSON document, digested as
    digest(obj), by default its sorted-key dump.  This is the one place the
    CLI parses JSON."""
    def parse(text):
        obj = orjson.loads(text)
        return build(obj), digest(obj)
    return parse


def _operator(obj):
    """solve's loader: the problem's operator with its matrix built."""
    return assemble_operator(EigenProblem.from_json(obj))


def _partition(obj):
    """The loader of partition euler and normalize: the partition with its
    stats, so that a boundary circle that bounds no face exits 2."""
    p = EmbeddedPartition.from_json(obj)
    p.stats  # computed here and kept on p
    return p


_parse_partition = _parse_json(_partition)


# a solution is digested by its eigenvalues alone
_parse_solution = _parse_json(EigenSolution.from_json,
                              lambda obj: json.dumps(obj["eigenvalues"]))


def _load_type(args, cls, need):
    t = _load(args, lambda text: (parse_tau_text(text), text))
    if not isinstance(t, cls):
        raise InvalidType(need)
    return t


def _report(args, checks, extra=None):
    """The text of a subcommand's report."""
    rep = {"formatVersion": FORMAT_VERSION, "toolVersion": __version__,
           "command": args._echo, "checks": checks}
    if getattr(args, "_digest", None) is not None:
        rep["inputDigest"] = args._digest
    if extra:
        rep.update(extra)
    return _pretty(rep)


def _write_text(path, text):
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError("%s: %s" % (type(exc).__name__, exc))


def _pretty(obj):
    """A report's text: indented JSON with sorted keys."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _emit(args, text):
    """Write text to -o or stdout.  Every text a subcommand writes goes
    through here: reports, solutions and the plain lines of `types label`
    and `types rotate-check`."""
    if getattr(args, "output", None):
        _write_text(args.output, text)
    else:
        sys.stdout.write(text)


def _exit_code(checks):
    return 0 if all(c["passed"] for c in checks) else 1


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _euler_checks(p, *parity_keys):
    """p's Euler report and checks: the Euler check, then one boundary
    parity check per component, with those keys of its parity report."""
    er = verify_euler(p)
    checks = [{"name": "euler", "passed": er.passed,
               "relation": er.relation, "predicted": str(er.predicted),
               "kappa": er.kappa}]
    checks += [{"name": "boundary-parity-%d" % r["component"],
                "passed": r["passed"], **{k: r[k] for k in parity_keys}}
               for r in check_boundary_parity(p)]
    return er, checks


def cmd_partition_euler(args):
    er, checks = _euler_checks(_load(args, _parse_partition), "rhoSum", "met")
    _emit(args, _report(args, checks, {"stats": er.stats.to_json()}))
    return _exit_code(checks)


def cmd_partition_normalize(args):
    p = _load(args, _parse_partition)
    before = partition_stats(p)
    n = normalize(p)
    after = partition_stats(n)
    preserved = (after.beta == before.beta
                 and after.kappa - after.sigma == before.kappa - before.sigma
                 and after.omega == before.omega)
    checks = [{"name": "normalize-invariants", "passed": preserved}]
    _emit(args, _report(args, checks,
                        {"before": before.to_json(), "after": after.to_json(),
                         "partition": n.to_json()}))
    return _exit_code(checks)


def cmd_types_enum(args):
    types = enumerate_interior(args.p)
    _emit(args, _report(args, [], {"p": args.p, "count": len(types),
                                   "types": [list(t.tau) for t in types]}))
    return 0


def cmd_types_label(args):
    t = _load_type(args, InteriorType, "labeling needs an interior type")
    lab = labeling_from_type(t)
    _emit(args, "delta = %s\n" % " ".join(str(v) for v in lab.delta))
    return 0


def cmd_types_rotate_check(args):
    invariant = shift_invariant_types(args.p)
    total = catalan(args.p)
    expected = 1 if args.p == 1 else 0
    _emit(args, "%d shift-invariant types among %d\n"
          % (len(invariant), total))
    return 0 if len(invariant) == expected else 1


def cmd_types_words(args):
    t = _load_type(args, BoundaryType,
                   "words need a boundary type (arrow row entry)")
    m_theta, m_zero, m_pi = boundary_words(t)
    rep = rotating_limit_check(t)
    checks = [{"name": "rotating-limit", "passed": rep.passed,
               "posZero": rep.pos_zero, "posPi": rep.pos_pi,
               "scanZero": rep.scan_zero, "scanPi": rep.scan_pi}]
    _emit(args, _report(args, checks, {
        "k": t.k, "a": t.a,
        "mTheta": list(m_theta.letters),
        "mZero": list(m_zero.letters),
        "mPi": list(m_pi.letters)}))
    return _exit_code(checks)


def cmd_solve(args):
    op = _load(args, _parse_json(_operator))
    sol = solve_eigen(op, args.k, tol=args.tol)
    _emit(args, orjson.dumps(sol.to_json(), option=orjson.OPT_APPEND_NEWLINE
                             | orjson.OPT_SORT_KEYS
                             | orjson.OPT_SERIALIZE_NUMPY).decode())
    return 0


def _extract_for_index(args):
    sol = _load(args, _parse_solution)
    return sol, extract_nodal(sol.field(args.index))


def cmd_nodal_report(args):
    sol, ext = _extract_for_index(args)
    _, checks = _euler_checks(ext.as_partition)
    _emit(args, _report(args, checks, {
        "index": args.index,
        "eigenvalue": float(sol.eigenvalues[args.index - 1]),
        "extract": ext.to_json()}))
    return _exit_code(checks)


def cmd_plot(args):
    _, ext = _extract_for_index(args)
    _write_text(args.output, render_svg(ext))
    return 0


def cmd_bounds(args):
    surface = parse_surface(args.surface)
    bs = classical_bounds(surface, args.k)
    out = {"formatVersion": FORMAT_VERSION, "surface": surface.to_json(),
           "bounds": bs.to_json(), "gamma": pleijel_gamma()}
    _emit(args, _pretty(out))
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser():
    """The parser, built once from one table.  A subcommand records its
    handler's name, and main looks the handler up in this module when it
    dispatches, so a tracer that rebinds cmd_* sees its calls.  A command
    group without a subcommand (`nodalkit`, `nodalkit types`) is a usage
    error: usage and `error: ...` on stderr, exit 2."""
    top = argparse.ArgumentParser(prog="nodalkit")
    top.add_argument("--version", action="version", version=__version__)
    groups = {"": top.add_subparsers(required=True)}
    file_index = {"file": {}, "index": {"type": int}}
    # (command words, handler, add_argument keywords per positional or option)
    for words, fn, arguments in [
            ("partition euler", cmd_partition_euler, {"file": {}}),
            ("partition normalize", cmd_partition_normalize, {"file": {}}),
            ("types enum", cmd_types_enum,
             {"-p": {"type": int, "required": True}}),
            ("types label", cmd_types_label, {"file": {}}),
            ("types rotate-check", cmd_types_rotate_check,
             {"-p": {"type": int, "required": True}}),
            ("types words", cmd_types_words, {"file": {}}),
            ("solve", cmd_solve,
             {"file": {}, "-k": {"type": int, "default": 6},
              "--tol": {"type": float, "default": 1e-9}}),
            ("nodal report", cmd_nodal_report, file_index),
            ("plot", cmd_plot,
             {**file_index, "-o": {"dest": "output", "required": True}}),
            ("bounds", cmd_bounds,
             {"surface": {}, "-k": {"type": int, "default": 1}})]:
        group, _, name = words.rpartition(" ")
        if group not in groups:
            groups[group] = groups[""].add_parser(group).add_subparsers(
                required=True)
        p = groups[group].add_parser(name)
        for arg, kwargs in arguments.items():
            p.add_argument(arg, **kwargs)
        if "-o" not in arguments:
            p.add_argument("-o", dest="output", default=None)
        p.set_defaults(handler=fn.__name__)
    return top


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage already; normalize other codes
        return 0 if exc.code in (0, None) else 2
    args._echo = " ".join(["nodalkit"] + argv)
    args._digest = None
    try:
        return globals()[args.handler](args)
    except InputError as exc:
        message = str(exc)
    except NodalkitError as exc:
        message = _describe(args, exc)
    print("error: %s" % message, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
