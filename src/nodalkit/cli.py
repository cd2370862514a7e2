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

Exit codes: 0 all checks pass, 1 a check failed, 2 malformed input.
Reports are JSON with sorted keys, so fixed inputs and seed give
byte-identical output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

import numpy as np

from . import __version__
from .bounds import classical_bounds, pleijel_gamma
from .comb_type import (BoundaryType, InteriorType, boundary_words, catalan,
                        enumerate_interior, first_repeat, labeling_from_type,
                        parse_tau_text, rotating_limit_check,
                        shift_invariant_types, validate_interior)
from .errors import NodalkitError
from .partition import (EmbeddedPartition, check_boundary_parity, normalize,
                        partition_stats, verify_euler)
from .plotting import render_svg
from .spectral import (EigenProblem, EigenSolution, assemble_operator,
                       cluster_multiplicities, extract_nodal, solve_eigen,
                       verify_spectral_laws)
from .surface import parse_surface

FORMAT_VERSION = 1


class InputError(Exception):
    """Malformed input: exit code 2."""


def _read_text(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(str(exc))


def _read_json(path):
    try:
        return json.loads(_read_text(path))
    except ValueError as exc:
        raise InputError("%s: %s" % (path, exc))


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _report(args, checks, extra=None):
    rep = {"formatVersion": FORMAT_VERSION, "toolVersion": __version__,
           "command": args._echo, "checks": checks}
    if getattr(args, "seed", None) is not None:
        rep["seed"] = args.seed
    if getattr(args, "_digest", None) is not None:
        rep["inputDigest"] = args._digest
    if extra:
        rep.update(extra)
    return rep


def _emit(args, obj):
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _exit_code(checks):
    return 0 if all(c["passed"] for c in checks) else 1


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_partition_euler(args):
    p = _load_partition(args.file, args)
    er = verify_euler(p)
    parity = check_boundary_parity(p) if p.surface.has_boundary else []
    st = partition_stats(p)
    checks = [{"name": "euler", "passed": er.passed,
               "relation": er.relation, "predicted": str(er.predicted),
               "kappa": er.kappa}]
    checks += [{"name": "boundary-parity-%d" % r["component"],
                "passed": r["passed"], "rhoSum": r["rhoSum"], "met": r["met"]}
               for r in parity]
    _emit(args, _report(args, checks, {"stats": st.to_json()}))
    return _exit_code(checks)


def cmd_partition_normalize(args):
    p = _load_partition(args.file, args)
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


def _load_partition(path, args):
    obj = _read_json(path)
    args._digest = _digest(json.dumps(obj, sort_keys=True))
    try:
        return EmbeddedPartition.from_json(obj)
    except (NodalkitError, KeyError, ValueError, TypeError) as exc:
        raise InputError("invalid partition: %s" % exc)


def cmd_types_enum(args):
    if args.p is None:
        raise InputError("-p is required")
    try:
        types = enumerate_interior(args.p)
    except NodalkitError as exc:
        raise InputError(str(exc))
    _emit(args, _report(args, [], {"p": args.p, "count": len(types),
                                   "types": [list(t.tau) for t in types]}))
    return 0


def cmd_types_label(args):
    text = _read_text(args.file)
    args._digest = _digest(text)
    try:
        t = parse_tau_text(text)
    except (NodalkitError, ValueError) as exc:
        raise InputError(str(exc))
    if not isinstance(t, InteriorType):
        raise InputError("labeling needs an interior type")
    problems = validate_interior(t)
    if problems:
        raise InputError("; ".join(problems))
    lab = labeling_from_type(t)
    print("delta = " + " ".join(str(v) for v in lab.delta))
    return 0


def cmd_types_rotate_check(args):
    if args.p is None:
        raise InputError("-p is required")
    try:
        invariant = shift_invariant_types(args.p)
    except NodalkitError as exc:
        raise InputError(str(exc))
    total = catalan(args.p)
    expected = 1 if args.p == 1 else 0
    print("%d shift-invariant types among %d" % (len(invariant), total))
    return 0 if len(invariant) == expected else 1


def cmd_types_words(args):
    text = _read_text(args.file)
    args._digest = _digest(text)
    try:
        t = parse_tau_text(text)
    except (NodalkitError, ValueError) as exc:
        raise InputError(str(exc))
    if not isinstance(t, BoundaryType):
        raise InputError("words need a boundary type (arrow row entry)")
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
    obj = _read_json(args.file)
    args._digest = _digest(json.dumps(obj, sort_keys=True))
    try:
        problem = EigenProblem.from_json(obj)
        op = assemble_operator(problem)
        sol = solve_eigen(op, args.k, tol=args.tol)
    except KeyError as exc:
        raise InputError("problem has no field %s" % exc)
    except (NodalkitError, ValueError, TypeError) as exc:
        raise InputError(str(exc))
    out = sol.to_json()
    out["vectors"] = sol.vectors.T.tolist()
    _emit(args, out)
    return 0


def _load_solution(path, args):
    obj = _read_json(path)
    args._digest = _digest(json.dumps(obj.get("eigenvalues", [])))
    try:
        problem = EigenProblem.from_json(obj["problem"])
        op = assemble_operator(problem)
        vecs = np.array(obj["vectors"], float).T
        evs = np.array(obj["eigenvalues"], float)
        clusters = [list(c) for c in obj["clusters"]]
        sol = EigenSolution(evs, vecs, clusters,
                            float(obj.get("clusterRelTol", 1e-3)),
                            np.array(obj.get("residuals", [0] * len(evs))), op)
    except (KeyError, ValueError, NodalkitError) as exc:
        raise InputError("invalid solution file: %s" % exc)
    if vecs.shape[0] != op.n:
        raise InputError("solution vectors do not match the problem grid")
    return problem, sol


def _extract_for_index(path, index, args):
    problem, sol = _load_solution(path, args)
    if not 1 <= index <= len(sol.eigenvalues):
        raise InputError("index %d out of range 1..%d"
                         % (index, len(sol.eigenvalues)))
    return problem, sol, extract_nodal(sol.field(index), problem)


def cmd_nodal_report(args):
    problem, sol, ext = _extract_for_index(args.file, args.index, args)
    er = verify_euler(ext.as_partition)
    parity = check_boundary_parity(ext.as_partition)
    checks = [{"name": "euler", "passed": er.passed,
               "relation": er.relation, "predicted": str(er.predicted),
               "kappa": er.kappa}]
    checks += [{"name": "boundary-parity-%d" % r["component"],
                "passed": r["passed"]} for r in parity]
    _emit(args, _report(args, checks, {
        "index": args.index,
        "eigenvalue": float(sol.eigenvalues[args.index - 1]),
        "extract": ext.to_json()}))
    return _exit_code(checks)


def cmd_plot(args):
    if not args.output:
        raise InputError("-o OUT.svg is required")
    _, _, ext = _extract_for_index(args.file, args.index, args)
    svg = render_svg(ext)
    with open(args.output, "w") as fh:
        fh.write(svg)
    return 0


def cmd_bounds(args):
    try:
        surface = parse_surface(args.surface)
    except ValueError as exc:
        raise InputError(str(exc))
    try:
        bs = classical_bounds(surface, args.k)
    except (NodalkitError, ValueError) as exc:
        raise InputError(str(exc))
    out = {"formatVersion": FORMAT_VERSION, "surface": surface.to_json(),
           "bounds": bs.to_json(), "gamma": pleijel_gamma()}
    _emit(args, out)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser():
    top = argparse.ArgumentParser(prog="nodalkit")
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="cmd")

    def common(p):
        p.add_argument("-o", dest="output", default=None)
        p.add_argument("--tol", type=float, default=1e-9)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--threads", type=int, default=1)

    part = sub.add_parser("partition").add_subparsers(dest="sub")
    pe = part.add_parser("euler")
    pe.add_argument("file")
    common(pe)
    pe.set_defaults(fn=cmd_partition_euler)
    pn = part.add_parser("normalize")
    pn.add_argument("file")
    common(pn)
    pn.set_defaults(fn=cmd_partition_normalize)

    types = sub.add_parser("types").add_subparsers(dest="sub")
    te = types.add_parser("enum")
    te.add_argument("-p", type=int, default=None)
    common(te)
    te.set_defaults(fn=cmd_types_enum)
    tl = types.add_parser("label")
    tl.add_argument("file")
    common(tl)
    tl.set_defaults(fn=cmd_types_label)
    tr = types.add_parser("rotate-check")
    tr.add_argument("-p", type=int, default=None)
    common(tr)
    tr.set_defaults(fn=cmd_types_rotate_check)
    tw = types.add_parser("words")
    tw.add_argument("file")
    common(tw)
    tw.set_defaults(fn=cmd_types_words)

    sv = sub.add_parser("solve")
    sv.add_argument("file")
    sv.add_argument("-k", type=int, default=6)
    common(sv)
    sv.set_defaults(fn=cmd_solve)

    nd = sub.add_parser("nodal").add_subparsers(dest="sub")
    nr = nd.add_parser("report")
    nr.add_argument("file")
    nr.add_argument("index", type=int)
    common(nr)
    nr.set_defaults(fn=cmd_nodal_report)

    pl = sub.add_parser("plot")
    pl.add_argument("file")
    pl.add_argument("index", type=int)
    common(pl)
    pl.set_defaults(fn=cmd_plot)

    bd = sub.add_parser("bounds")
    bd.add_argument("surface")
    bd.add_argument("-k", type=int, default=1)
    common(bd)
    bd.set_defaults(fn=cmd_bounds)
    return top


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage already; normalize other codes
        return 0 if exc.code in (0, None) else 2
    if getattr(args, "fn", None) is None:
        parser.print_help()
        return 2
    args._echo = " ".join(["nodalkit"] + argv)
    args._digest = None
    try:
        return args.fn(args)
    except InputError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except NodalkitError as exc:
        print("check failed: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
