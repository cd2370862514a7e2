"""Spans and counters recorded from outside nodalkit.

`Tracer.install()` replaces each traced function with a wrapper that records
a span (name, start, end, parent span, pass id) and, where a layer has one,
updates a counter.  The wrapper is bound under every name the original
function is reachable by in nodalkit's modules and the benchmark's own
modules (for example `extract_nodal` is bound in both `nodalkit.spectral`
and `nodalkit.cli`), so calls made inside the package are traced too.
`uninstall()` puts the originals back.  Nothing under `src/` is edited.

Spans are kept in memory; `per_pass_metrics()` turns one pass's spans into
calls and self time per span name, where self time is a span's duration minus
the durations of its direct children (the benchmark is single-threaded, so
children never overlap).
"""

import functools
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np
import scipy.sparse.linalg

import nodalkit.bounds
import nodalkit.cli
import nodalkit.comb_type
import nodalkit.nodal_graph
import nodalkit.partition
import nodalkit.plotting
import nodalkit.spectral

# Span names whose calls and self time are reported, one per traced function.
SPAN_LAYERS = [
    "spectral.assemble", "spectral.solve", "spectral.to_field",
    "spectral.extract", "spectral.laws",
    "partition.build", "partition.verify_euler",
    "partition.check_boundary_parity", "partition.partition_stats",
    "partition.normalize",
    "nodal_graph.build_multigraph", "nodal_graph.simplify_to_graph",
    "comb_type.enumerate_interior", "comb_type.labeling_round_trip",
    "comb_type.shift_invariant_types", "comb_type.enumerate_boundary",
    "comb_type.boundary_words", "comb_type.rotating_limit_check",
    "bounds",
    "plotting.render_svg",
    "cli.solve", "cli.nodal_report", "cli.plot",
]

# Counters reported per pass next to the span metrics.
COUNTERS = [
    "spectral.assemble.rows", "spectral.solve.eigsh_calls",
    "spectral.solve.residual_max", "spectral.extract.cells",
    "spectral.laws.combos", "partition.normalize.failed",
    "plotting.render_svg.bytes", "cli.json_read_bytes",
    "cli.json_written_bytes",
]

_BOUNDS_FUNCS = ["bessel_j0_first_zero", "pleijel_gamma", "pleijel_bound",
                 "faber_krahn_threshold", "weyl_term", "classical_bounds"]


def unit_of(metric):
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("bytes"):
        return "bytes"
    if metric.endswith(("ratio", "per_solve")):
        return "ratio"
    if metric.endswith("residual_max"):
        return "1"
    return "count"


class _Span:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.idx = self.tracer._begin(self.name)

    def __exit__(self, *exc):
        self.tracer._end(self.idx)
        return False


class Tracer:
    """Spans and per-pass counters of the traced passes of one run."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, pass id]
        self.stack = []
        self.counters = defaultdict(lambda: defaultdict(float))  # pass -> name
        self.pass_id = None
        self._extract_parts = {}  # pass -> {id(partition): partition}
        self._used_parts = defaultdict(set)
        self._saved = []
        self._targets = self._build_targets()

    # -- recording ---------------------------------------------------------

    def _begin(self, name):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.pass_id])
        self.stack.append(idx)
        return idx

    def _end(self, idx):
        self.stack.pop()
        self.spans[idx][2] = time.perf_counter()

    def span(self, name):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, name)

    def count(self, name, value=1):
        self.counters[self.pass_id][name] += value

    def _wrap(self, fn, name, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._begin(name) if name else None
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if idx is not None:
                    tracer._end(idx)
                if hook:
                    hook(args, None, exc)
                raise
            if idx is not None:
                tracer._end(idx)
            if hook:
                hook(args, result, None)
            return result
        return wrapper

    # -- counters ------------------------------------------------------------

    def _on_assemble(self, args, op, exc):
        if op is not None:
            self.count("spectral.assemble.rows", op.n)

    def _on_solve(self, args, sol, exc):
        if sol is not None:
            c = self.counters[self.pass_id]
            c["spectral.solve.residual_max"] = max(
                c["spectral.solve.residual_max"], float(np.max(sol.residuals)))

    def _on_eigsh(self, args, result, exc):
        self.count("spectral.solve.eigsh_calls")

    def _on_extract(self, args, ext, exc):
        if ext is not None:
            self.count("spectral.extract.cells", ext.sign_field.size)
            # keep the partition alive so its id is not reused in this pass
            parts = self._extract_parts.setdefault(self.pass_id, {})
            parts[id(ext.as_partition)] = ext.as_partition

    def _on_verify_euler(self, args, rep, exc):
        parts = self._extract_parts.get(self.pass_id, {})
        if id(args[0]) in parts:
            self._used_parts[self.pass_id].add(id(args[0]))

    def _on_laws(self, args, rep, exc):
        if rep is not None:
            self.count("spectral.laws.combos",
                       sum(c["samples"] for c in rep.combo_checks))

    def _on_normalize(self, args, result, exc):
        if exc is not None:
            self.count("partition.normalize.failed")

    def _on_render(self, args, svg, exc):
        if svg is not None:
            self.count("plotting.render_svg.bytes", len(svg.encode()))

    def _on_read_text(self, args, text, exc):
        if text is not None:
            self.count("cli.json_read_bytes", len(text.encode()))

    def _on_emit(self, args, result, exc):
        out = getattr(args[0], "output", None)
        if exc is None and out:
            self.count("cli.json_written_bytes", os.path.getsize(out))

    # -- installation --------------------------------------------------------

    def _build_targets(self):
        """(owner, attribute, span name or None, counter hook) per function."""
        sp, pa, ng = nodalkit.spectral, nodalkit.partition, nodalkit.nodal_graph
        ct, cli = nodalkit.comb_type, nodalkit.cli
        targets = [
            (sp, "assemble_operator", "spectral.assemble", self._on_assemble),
            (sp, "solve_eigen", "spectral.solve", self._on_solve),
            (sp.AssembledOperator, "to_field", "spectral.to_field", None),
            (sp, "extract_nodal", "spectral.extract", self._on_extract),
            (sp, "verify_spectral_laws", "spectral.laws", self._on_laws),
            (scipy.sparse.linalg, "eigsh", None, self._on_eigsh),
            (pa.PartitionBuilder, "build", "partition.build", None),
            (pa, "verify_euler", "partition.verify_euler",
             self._on_verify_euler),
            (pa, "check_boundary_parity", "partition.check_boundary_parity",
             None),
            (pa, "partition_stats", "partition.partition_stats", None),
            (pa, "normalize", "partition.normalize", self._on_normalize),
            (ng, "build_multigraph", "nodal_graph.build_multigraph", None),
            (ng, "simplify_to_graph", "nodal_graph.simplify_to_graph", None),
            (ct, "enumerate_interior", "comb_type.enumerate_interior", None),
            (ct, "shift_invariant_types", "comb_type.shift_invariant_types",
             None),
            (ct, "enumerate_boundary", "comb_type.enumerate_boundary", None),
            (ct, "boundary_words", "comb_type.boundary_words", None),
            (ct, "rotating_limit_check", "comb_type.rotating_limit_check",
             None),
            (nodalkit.plotting, "render_svg", "plotting.render_svg",
             self._on_render),
            (cli, "cmd_solve", "cli.solve", None),
            (cli, "cmd_nodal_report", "cli.nodal_report", None),
            (cli, "cmd_plot", "cli.plot", None),
            (cli, "_read_text", None, self._on_read_text),
            (cli, "_emit", None, self._on_emit),
        ]
        targets += [(nodalkit.bounds, f, "bounds", None) for f in _BOUNDS_FUNCS]
        return targets

    def install(self):
        """Bind a wrapper under every name that refers to a traced function."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "nodalkit"
                                         or name.startswith("nodalkit.")
                                         or name.startswith("bench."))]
        for owner, attr, name, hook in self._targets:
            orig = owner.__dict__[attr]
            wrapper = self._wrap(orig, name, hook)
            places = {(id(owner), attr): owner}
            if isinstance(owner, type(sys)):
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            places[(id(m), key)] = m
            for (_, key), where in places.items():
                self._saved.append((where, key, orig))
                setattr(where, key, wrapper)

    def uninstall(self):
        for where, key, orig in reversed(self._saved):
            setattr(where, key, orig)
        self._saved = []

    # -- reporting -------------------------------------------------------------

    def per_pass_metrics(self, pass_id):
        """calls / self_s per span name, counters, and derived ratios."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s[4] == pass_id]
        child_time = defaultdict(float)
        for _, (name, start, end, parent, _) in spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for i, (name, start, end, parent, _) in spans:
            calls[name] += 1
            self_s[name] += (end - start) - child_time[i]
        out = {}
        for layer in SPAN_LAYERS:
            out[layer + ".calls"] = calls[layer]
            out[layer + ".self_s"] = self_s[layer]
        counters = self.counters[pass_id]
        for name in COUNTERS:
            out[name] = counters[name]
        n_extract = calls["spectral.extract"]
        used = len(self._used_parts[pass_id])
        out["spectral.extract.partition_used_ratio"] = (
            used / n_extract if n_extract else 0.0)
        # assemblies per solve inside CLI commands
        names = [s[0] for s in self.spans]
        parents = [s[3] for s in self.spans]

        def under_cli(i):
            while i >= 0:
                if names[i].startswith("cli."):
                    return True
                i = parents[i]
            return False
        cli_assemble = sum(1 for i, s in spans
                           if s[0] == "spectral.assemble" and under_cli(i))
        cli_solve = sum(1 for i, s in spans
                        if s[0] == "spectral.solve" and under_cli(i))
        out["cli.assemble_per_solve"] = (cli_assemble / cli_solve
                                         if cli_solve else 0.0)
        return out

    def dump(self, path, env):
        """Write every span and counter as JSON lines."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"env": env}) + "\n")
            for name, start, end, parent, pass_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "pass": pass_id}) + "\n")
            for pass_id, counters in self.counters.items():
                fh.write(json.dumps({"pass": pass_id,
                                     "counters": dict(counters)}) + "\n")
