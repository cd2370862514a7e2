"""Multigraph counts for a partition boundary set, and vertex-edge additions.

The boundary set of a partition (plus the surface boundary) is a multigraph
G0 whose vertices are the singular points together with one marker per
singular-point-free circle.  Closed-form counts:

    alpha0 = e + |S_i| + |S_b|
    alpha1 = e + (sum nu + sum rho)/2 + |S_b|

with e = number of circle components (components without a singular
point, the partition stats' `circles`), so alpha1 - alpha0 = sigma.
simplify_to_graph removes loops (2 added vertices, 3 edges) and parallel
edges (1 added vertex each) without changing alpha1 - alpha0, the component
count c, or the region count r.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import MalformedEmbedding
from .partition import (ADDED, BOUNDARY, CIRCLE, INTERIOR, EmbeddedPartition,
                        PartitionBuilder, dart, partition_stats)


@dataclass(frozen=True)
class MultigraphCounts:
    alpha0: int
    alpha1: int
    e: int      # circle components (no singular point on them)
    c: int      # connected components
    r: int      # complement regions (= kappa of the partition)

    def to_json(self):
        return {"alpha0": self.alpha0, "alpha1": self.alpha1, "e": self.e,
                "c": self.c, "r": self.r}


def build_multigraph(p: EmbeddedPartition) -> MultigraphCounts:
    """Counts computed directly and from the closed formulas; both must agree.

    Only meaningful on raw partitions (no Added vertices): the closed formulas
    count one vertex per circle and one per singular point.
    """
    if any(v.kind == ADDED for v in p.vertices):
        raise MalformedEmbedding("build_multigraph expects a raw partition "
                                 "(no added vertices)")
    if any(v.kind == CIRCLE and len(p.rotation[v.id]) != 2 for v in p.vertices):
        raise MalformedEmbedding("circle markers must have degree 2")
    st = partition_stats(p)
    e = st.circles
    s_i = [v for v in p.vertices if v.kind == INTERIOR]
    s_b = [v for v in p.vertices if v.kind == BOUNDARY]
    alpha0_formula = e + len(s_i) + len(s_b)
    alpha1_formula = e + Fraction(sum(v.nu for v in s_i)
                                  + sum(v.rho for v in s_b), 2) + len(s_b)
    alpha0 = len(p.vertices)
    alpha1 = p.n_edges
    if alpha0 != alpha0_formula or alpha1 != alpha1_formula:
        raise MalformedEmbedding(
            "direct counts (%d,%d) disagree with closed formulas (%s,%s)"
            % (alpha0, alpha1, alpha0_formula, alpha1_formula))
    if Fraction(alpha1 - alpha0) != st.sigma:
        raise MalformedEmbedding("alpha1 - alpha0 = %d != sigma = %s"
                                 % (alpha1 - alpha0, st.sigma))
    return MultigraphCounts(alpha0, alpha1, e, st.components, st.kappa)


def _subdivide(m: PartitionBuilder, edge: int, times: int):
    """Replace edge u--v by a path through `times` new Added vertices,
    preserving faces (rotation entries substituted in place)."""
    u, v = m.edge_ends[edge]
    bnd = m.edge_boundary[edge]
    comp = m.component_of(edge) if bnd else 0
    ws = [m.added() for _ in range(times)]
    chain = [u] + ws + [v]
    # reuse the original edge id for the first segment
    m.edge_ends[edge] = (chain[0], chain[1])
    new_edges = [edge]
    for i in range(1, times + 1):
        e = m.edge(chain[i], chain[i + 1], boundary=bnd, signature=1,
                   component=comp)
        new_edges.append(e)
    # rotation at v: the old dart (2*edge+1) is replaced by the last new dart
    last_dart = dart(new_edges[-1], 1)
    rot_v = m.rotation[v]
    rot_v[rot_v.index(dart(edge, 1))] = last_dart
    for i, w in enumerate(ws):
        m.rotation[w] = [dart(new_edges[i], 1), dart(new_edges[i + 1], 0)]


def simplify_to_graph(p: EmbeddedPartition):
    """Return (simple partition, counts of the simplified graph).

    Loops get 2 added vertices (3 edges); each parallel edge beyond the first
    gets 1 added vertex.  alpha1 - alpha0, c and r are preserved.  Edges are
    processed in id order so output is reproducible.  A partition that is
    already simple is returned itself, with its stats.
    """
    st_before = partition_stats(p)
    loops, parallel, seen = [], [], set()
    for e, (u, v) in enumerate(p.edge_ends):
        key = (min(u, v), max(u, v))
        if u == v:
            loops.append(e)
        elif key in seen:
            parallel.append(e)
        else:
            seen.add(key)
    out = p
    if loops or parallel:
        # the edges a subdivision adds end at new vertices, so they are
        # neither loops nor parallel to any edge
        m = PartitionBuilder.from_partition(p)
        for e in loops:
            _subdivide(m, e, 2)
        for e in parallel:
            _subdivide(m, e, 1)
        out = m.build()
    # simplicity check
    keys = set()
    for u, v in out.edge_ends:
        if u == v:
            raise MalformedEmbedding("loop survived simplification")
        key = (min(u, v), max(u, v))
        if key in keys:
            raise MalformedEmbedding("parallel edge survived simplification")
        keys.add(key)
    st_after = partition_stats(out)
    if (out.n_edges - len(out.vertices)) != (p.n_edges - len(p.vertices)):
        raise MalformedEmbedding("alpha1 - alpha0 not preserved")
    if (st_after.components != st_before.components
            or st_after.kappa != st_before.kappa):
        raise MalformedEmbedding("(c, r) not preserved by simplification")
    counts = MultigraphCounts(len(out.vertices), out.n_edges,
                              st_after.circles, st_after.components,
                              st_after.kappa)
    return out, counts
