"""Embedded partitions as signed rotation systems, and the Euler-type formulas.

The boundary set of a regular partition (together with the boundary of the
surface, when there is one) is stored as a multigraph embedded via a signed
rotation system: darts (half-edges), a cyclic dart order per vertex, an edge
pairing, and a +-1 orientation signature per edge.  Each face is traced once,
as one orbit of the usual embedding-scheme permutation on (dart, sign) states;
the orbit that walks it the other way is found through the reversal map
(d, s) -> (theta d, -s * sigma(d)) and not walked (Mohar & Thomassen, Graphs
on Surfaces, 2001).  The number of complement regions of the graph is
F - (c-1) over graph components (each extra component nests inside a face of
the rest), and chi = V - E + F - 2(c-1) is the Euler characteristic of the
cellular completion.

Planar domains are modeled on the sphere with q+1 distinguished hole faces
(one per boundary circle: a traced face whose walk uses only that circle's
boundary edges), and the Moebius strip on the projective plane the same
way.  On every surface

    kappa = regions - b0 - max(0, defect) // 2,

where b0 is the number of boundary circles (0 on a closed surface) and
defect = chi(completion) - chi(model).  On closed surfaces of genus >= 1
the embedding of a partition need not be cellular (a region with b boundary
circles is traced as b faces), and the defect counts the handles and
cross-caps hidden inside regions; the formula is then a lower bound for the
true region count, which keeps the Euler inequality check conservative.  On
the sphere, planar domains and the Moebius strip it is exact: each graph
component's rotation system is a closed surface (chi <= 2), and c - 1
connected sums join them, so chi(completion) <= 2.  The defect is then <= 0
on the sphere's model and <= 1 on the projective plane, the floored term is
0, and kappa = regions - b0.

The orientability character omega is 1 iff the model surface is
non-orientable and the defect is positive (a cross-cap hides inside some
region, which is then non-orientable); on orientable surfaces every region is
orientable and omega = 0.

Partitions are built with PartitionBuilder, either fresh or as a copy of
another partition for surgery (the blow-ups of `normalize`, the subdivisions of
`nodal_graph.simplify_to_graph`), or read with `from_json`, which only looks up
keys.  A partition is frozen and validated once, when it is constructed (ids,
counts and darts as ints, flags as bools, kinds, signatures, rotations,
degrees; one boundary component per boundary circle, each one non-empty cycle),
so the functions here take it as well formed.  Its PartitionStats (one face
trace, which also lists the vertices `normalize` blows up and finds each
circle's hole face, so a circle that bounds no face fails there; the CLI's
loader computes them) are computed once per partition, on first use, and kept
for `partition_stats`, `verify_euler`, `normalize`, `simplify_to_graph` and
`build_multigraph`.  Only that small object is kept, not the face walks; a
failure is raised again on every call.

All arithmetic is exact (int / Fraction).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from itertools import chain

from .errors import (MalformedEmbedding, _decimal, _fields, _integer,
                     _integers, _show)
from .surface import SurfaceSpec

INTERIOR = "InteriorSingular"   # interior singular point, index nu >= 3
BOUNDARY = "BoundarySingular"   # boundary singular point, index rho >= 1
CIRCLE = "CircleMarker"         # marker on a singular-point-free circle
ADDED = "Added"                 # auxiliary vertex from additions / blow-ups

_KINDS = (INTERIOR, BOUNDARY, CIRCLE, ADDED)
# a vertex's integer fields and the names their errors give
_VERTEX_COUNTS = tuple((name, "vertex " + name)
                       for name in ("id", "nu", "rho", "component"))


@dataclass(frozen=True)
class PartitionVertex:
    id: int
    kind: str
    nu: int = 0          # semi-arc index for interior singular vertices
    rho: int = 0         # hitting-arc index for boundary singular vertices
    component: int = 0   # boundary component, for boundary vertices

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise MalformedEmbedding("unknown vertex kind %s"
                                     % _show(self.kind))
        # each field by the one integer rule, whose exact-int case returns
        # the value itself; only a converted value is stored again
        for name, label in _VERTEX_COUNTS:
            value = getattr(self, name)
            count = _integer(value, 0, label, MalformedEmbedding)
            if count is not value:
                object.__setattr__(self, name, count)
        # to_json writes only its kind's fields, so the others must be 0
        if self.nu and self.kind != INTERIOR or (self.rho or self.component) \
                and self.kind != BOUNDARY:
            raise MalformedEmbedding("vertex %d: a %s vertex must have 0 in "
                                     "the fields its kind ignores, got %r"
                                     % (self.id, self.kind, self))

    def to_json(self):
        d = {"id": self.id, "kind": self.kind}
        if self.kind == INTERIOR:
            d["nu"] = self.nu
        if self.kind == BOUNDARY:
            d["rho"] = self.rho
            d["component"] = self.component
        return d


def dart(edge: int, end: int) -> int:
    return 2 * edge + end


def _rows(rows, what, kind=tuple):
    """rows, a list of lists or tuples of ints >= 0 by the one integer rule,
    as a list of `kind`s of ints; else MalformedEmbedding naming `what`.
    The rule's bulk form checks every entry at once; only when one is not an
    exact int (a numpy integer, or a value it refuses) is each row checked
    and converted in turn."""
    if not (isinstance(rows, (list, tuple))
            and set(map(type, rows)) <= {list, tuple}):
        raise MalformedEmbedding("%ss must be given in lists, got %s"
                                 % (what, _show(rows)))
    flat = list(chain.from_iterable(rows))
    if _integers(flat, 0, what, MalformedEmbedding) is flat:
        return [kind(r) for r in rows]
    return [kind(_integers(r, 0, what, MalformedEmbedding)) for r in rows]


@dataclass(frozen=True)
class EmbeddedPartition:
    """Frozen: operations return new objects (`dataclasses.replace` too, with
    stats of their own, except where `normalize` only drops the nodal flag
    and hands the input's stats on).  Validated once, when constructed: an
    EmbeddedPartition that exists is well formed (ids, kinds, signatures,
    rotations and degrees agree, and each boundary component is one
    non-empty cycle whose boundary vertices name it).  That each one bounds
    a hole face needs the face trace, so the stats check it; they are
    computed once, on first use (see `stats`)."""
    surface: SurfaceSpec
    vertices: list                  # list[PartitionVertex], ids = positions
    edge_ends: list                 # list[(u, v)]; dart 2e at u, 2e+1 at v
    edge_boundary: list             # list[bool]
    edge_signature: list            # list[int in {+1, -1}]
    rotation: dict                  # vertex id -> tuple of darts (cyclic, ccw)
    boundary_components: list       # list[list[edge id]] (cycles of boundary edges)
    nodal: bool = False             # flagged as coming from an eigenfunction

    def __post_init__(self):
        # each value is stored as PartitionBuilder makes it: ints by the one
        # integer rule, edge ends and rotations as tuples, flags as bools
        if not set(map(type, [*self.edge_boundary, self.nodal])) <= {bool}:
            raise MalformedEmbedding("edge boundary flags and the nodal flag "
                                     "must be true or false")
        signature = list(_integers(self.edge_signature, -1, "edge signature",
                                   MalformedEmbedding))
        if not set(signature) <= {1, -1}:
            # face tracing multiplies by signatures and closes only on +-1
            raise MalformedEmbedding("edge signatures must be +1 or -1")
        keys, = _rows([list(self.rotation)], "rotation vertex")
        for name, value in (
                ("edge_signature", signature),
                ("edge_ends", _rows(self.edge_ends, "edge end")),
                ("rotation", dict(zip(keys, _rows(
                    list(self.rotation.values()), "dart")))),
                ("boundary_components", _rows(self.boundary_components,
                                              "boundary edge", list))):
            object.__setattr__(self, name, value)
        self.validate()

    # ------------------------------------------------------------------

    @property
    def n_edges(self) -> int:
        return len(self.edge_ends)

    def vertex_of(self, d: int) -> int:
        u, v = self.edge_ends[d // 2]
        return u if d % 2 == 0 else v

    def theta(self, d: int) -> int:
        return d ^ 1

    @cached_property
    def stats(self) -> PartitionStats:
        """PartitionStats of this partition, computed on first use and kept;
        a MalformedEmbedding is not kept, so it is raised on every use."""
        return _compute_stats(self)

    def validate(self):
        nv, ne = len(self.vertices), self.n_edges
        for i, v in enumerate(self.vertices):
            if not isinstance(v, PartitionVertex) or v.id != i:
                raise MalformedEmbedding("vertex ids must be 0..n-1 in order")
        if any(len(e) != 2 for e in self.edge_ends):
            raise MalformedEmbedding("an edge must have two ends")
        if not (len(self.edge_boundary) == len(self.edge_signature) == ne):
            raise MalformedEmbedding("edge attribute lists disagree in length")
        seen = {}
        for vid, rot in self.rotation.items():
            if not 0 <= vid < nv:
                raise MalformedEmbedding("rotation given at %r, which is not a "
                                         "vertex id" % (vid,))
            for d in rot:
                if d in seen:
                    raise MalformedEmbedding("dart %d in two rotations" % d)
                seen[d] = vid
        if sorted(seen) != list(range(2 * ne)):
            raise MalformedEmbedding("rotations do not cover every dart exactly once")
        for d, vid in seen.items():
            if self.vertex_of(d) != vid:
                raise MalformedEmbedding("dart %d listed at vertex %d but edge says %d"
                                         % (d, vid, self.vertex_of(d)))
        # degree constraints
        for v in self.vertices:
            deg = len(self.rotation.get(v.id, ()))
            if v.kind == INTERIOR:
                if v.nu < 3:
                    raise MalformedEmbedding("interior singular vertex needs nu >= 3")
                if self.nodal and (v.nu % 2 or v.nu < 4):
                    raise MalformedEmbedding("nodal partitions need even interior "
                                             "valency >= 4 (vertex %d has nu=%d)"
                                             % (v.id, v.nu))
                if deg != v.nu:
                    raise MalformedEmbedding("vertex %d: degree %d != nu %d"
                                             % (v.id, deg, v.nu))
            elif v.kind == BOUNDARY:
                if v.rho < 1:
                    raise MalformedEmbedding("boundary singular vertex needs rho >= 1")
                if deg != v.rho + 2:
                    raise MalformedEmbedding("vertex %d: degree %d != rho+2"
                                             % (v.id, deg))
                nb = sum(1 for d in self.rotation[v.id] if self.edge_boundary[d // 2])
                if nb != 2:
                    raise MalformedEmbedding("boundary vertex %d must meet exactly "
                                             "2 boundary darts" % v.id)
            elif deg < 1:
                raise MalformedEmbedding("isolated vertex %d" % v.id)
        # boundary components: each one a single non-empty cycle (on a
        # closed surface the two checks below reject any boundary edge)
        want = self.surface.boundary_components
        if len(self.boundary_components) != want:
            raise MalformedEmbedding("expected %d boundary components, got %d"
                                     % (want, len(self.boundary_components)))
        claimed = [e for comp in self.boundary_components for e in comp]
        if sorted(claimed) != sorted(i for i in range(self.n_edges)
                                     if self.edge_boundary[i]):
            raise MalformedEmbedding("boundary components must partition the "
                                     "boundary edges")
        for ci, comp in enumerate(self.boundary_components):
            at = {}                 # vertex -> its darts on this component
            for e in comp:
                for d in (dart(e, 0), dart(e, 1)):
                    at.setdefault(self.vertex_of(d), []).append(d)
            if not comp or any(len(ds) != 2 for ds in at.values()):
                raise MalformedEmbedding("boundary component %d is not one "
                                         "non-empty cycle" % ci)
            # walk once from comp[0]: cross an edge, leave its far end by
            # the other dart there; one cycle iff back after len(comp) steps
            d, steps = dart(comp[0], 0), 0
            while steps == 0 or d != dart(comp[0], 0):
                v = self.vertices[self.vertex_of(d ^ 1)]
                if v.kind == BOUNDARY and v.component != ci:
                    raise MalformedEmbedding("boundary vertex %d says component "
                                             "%d, but its boundary edges lie "
                                             "on %d" % (v.id, v.component, ci))
                a, b = at[v.id]
                d = b if a == d ^ 1 else a
                steps += 1
            if steps != len(comp):
                raise MalformedEmbedding("boundary component %d is not one "
                                         "non-empty cycle" % ci)

    # ------------------------------------------------------------------

    def to_json(self):
        return {
            "formatVersion": 1,
            "surface": self.surface.to_json(),
            "vertices": [v.to_json() for v in self.vertices],
            "edges": [{"ends": list(self.edge_ends[i]),
                       "boundary": self.edge_boundary[i],
                       "signature": self.edge_signature[i]}
                      for i in range(self.n_edges)],
            "rotation": {str(v): list(rot) for v, rot in sorted(self.rotation.items())},
            "boundaryComponents": [list(c) for c in self.boundary_components],
            "nodal": self.nodal,
        }

    @staticmethod
    def from_json(obj):
        surface, vertices, edges, rotation, comps, nodal = _fields(
            obj, MalformedEmbedding, "a partition", "surface", "vertices",
            "edges", "rotation", version=1, boundaryComponents=[],
            nodal=False)
        if not (isinstance(vertices, list) and isinstance(edges, list)):
            raise MalformedEmbedding("vertices and edges must be JSON arrays")
        vertices = [PartitionVertex(*_fields(
            v, MalformedEmbedding, "a vertex", "id", "kind", nu=0, rho=0,
            component=0)) for v in vertices]
        edges = [_fields(e, MalformedEmbedding, "an edge", "ends",
                         boundary=False, signature=1) for e in edges]
        ends, bnd, sig = [list(c) for c in zip(*edges)] or ([], [], [])
        _fields(rotation, MalformedEmbedding, "the rotation")  # an object
        # a key is a vertex id as str(id) spells it, else it stays the
        # string, which the integer rule refuses
        rot = {_decimal(k, k): v for k, v in rotation.items()}
        return EmbeddedPartition(SurfaceSpec.from_json(surface), vertices,
                                 ends, bnd, sig, rot, comps, nodal)


class PartitionBuilder:
    """Builds a partition, fresh or as a copy of another one for surgery.

    A fresh builder adds vertices and edges one at a time; rotations of
    degree <= 2 vertices are inferred by `build()`.  `from_partition(p)`
    copies p so that the blow-ups of `normalize` and the subdivisions of
    `simplify_to_graph` can edit it in place, with rotations held as lists
    while a surgery runs.  Each boundary edge joins its component's edge
    list when it is added, so a fresh builder lists them in edge-id order
    and a copy keeps the input's order.  `build()` returns the partition,
    which is validated once, when it is constructed.
    """

    def __init__(self, surface: SurfaceSpec, nodal: bool = False):
        self.surface = surface
        self.nodal = nodal
        self.vertices = []
        self.edge_ends = []
        self.edge_boundary = []
        self.edge_signature = []
        self.rotation = {}
        self.boundary_components = [[] for _ in
                                    range(surface.boundary_components)]

    @classmethod
    def from_partition(cls, p: EmbeddedPartition) -> "PartitionBuilder":
        b = cls(p.surface, p.nodal)
        b.vertices = list(p.vertices)
        b.edge_ends = list(p.edge_ends)
        b.edge_boundary = list(p.edge_boundary)
        b.edge_signature = list(p.edge_signature)
        b.rotation = {v: list(r) for v, r in p.rotation.items()}
        b.boundary_components = [list(c) for c in p.boundary_components]
        return b

    def _vertex(self, kind, **kw):
        v = PartitionVertex(len(self.vertices), kind, **kw)
        self.vertices.append(v)
        return v.id

    def interior(self, nu):
        return self._vertex(INTERIOR, nu=nu)

    def boundary_vertex(self, rho, component=0):
        return self._vertex(BOUNDARY, rho=rho, component=component)

    def circle(self):
        return self._vertex(CIRCLE)

    def added(self):
        return self._vertex(ADDED)

    def edge(self, u, v, boundary=False, signature=1, component=0):
        e = len(self.edge_ends)
        if boundary:
            if not 0 <= component < len(self.boundary_components):
                raise MalformedEmbedding(
                    "boundary edge on component %d, but the surface has %d "
                    "boundary components"
                    % (component, len(self.boundary_components)))
            self.boundary_components[component].append(e)
        self.edge_ends.append((u, v))
        self.edge_boundary.append(boundary)
        self.edge_signature.append(signature)
        return e

    def component_of(self, e):
        """Index of the boundary component that lists boundary edge e."""
        return next(ci for ci, comp in enumerate(self.boundary_components)
                    if e in comp)

    def set_rotation(self, v, darts):
        self.rotation[v] = tuple(darts)

    def reattach(self, d, v):
        """Move dart d's endpoint to vertex v (its rotation entry is set
        separately)."""
        e = d // 2
        a, b = self.edge_ends[e]
        self.edge_ends[e] = (v, b) if d % 2 == 0 else (a, v)

    def build(self) -> EmbeddedPartition:
        rotation = {v: tuple(r) for v, r in self.rotation.items()}
        incident = {v.id: [] for v in self.vertices}
        for e, (u, v) in enumerate(self.edge_ends):
            incident.setdefault(u, []).append(dart(e, 0))
            incident.setdefault(v, []).append(dart(e, 1))
        for vid, darts in incident.items():
            if vid not in rotation:
                if len(darts) > 2:
                    raise MalformedEmbedding("vertex %d has degree %d; rotation "
                                             "must be given" % (vid, len(darts)))
                rotation[vid] = tuple(darts)
        return EmbeddedPartition(self.surface, list(self.vertices),
                                 list(self.edge_ends), list(self.edge_boundary),
                                 list(self.edge_signature), rotation,
                                 [list(c) for c in self.boundary_components],
                                 nodal=self.nodal)


# ---------------------------------------------------------------------------
# face tracing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FaceWalk:
    """One face, walked once, in one of its two directions.

    states: ((dart, sign), ...) in walk order; each element means "traverse
    this dart with the current orientation sign".
    """
    states: tuple
    edges: frozenset
    corners: tuple      # vertex visited at each step (after crossing the edge)

    @property
    def degree(self):
        return len(self.states)


def trace_faces(p: EmbeddedPartition):
    """One FaceWalk per face, in the order of each face's first state.

    The states (d, s) are visited in order of d, then s = +1, -1.  A state
    not yet seen starts a walk of the embedding-scheme permutation
    next(d, s); when the walk has closed, the states of the reverse walk of
    the same face are marked as seen through the involution
    mu(d, s) = (theta d, -s * sigma(d)), which satisfies
    next(mu(next x)) = mu(x).  So each face is walked once."""
    pos = {}
    for vid, rot in p.rotation.items():
        for i, d in enumerate(rot):
            pos[d] = (vid, i)
    sig = p.edge_signature

    def next_state(d, s):
        e = p.theta(d)
        s2 = s * sig[d // 2]
        vid, i = pos[e]
        rot = p.rotation[vid]
        nd = rot[(i + 1) % len(rot)] if s2 > 0 else rot[(i - 1) % len(rot)]
        return nd, s2

    seen = set()
    faces = []
    for d0 in range(2 * p.n_edges):
        for s0 in (1, -1):
            if (d0, s0) in seen:
                continue
            orbit = []
            st = (d0, s0)
            while st not in seen:
                seen.add(st)
                orbit.append(st)
                st = next_state(*st)
            if st != (d0, s0):
                raise MalformedEmbedding("face tracing did not close up")
            seen.update((p.theta(d), -s * sig[d // 2]) for d, s in orbit)
            edges = frozenset(d // 2 for d, _ in orbit)
            corners = tuple(p.vertex_of(p.theta(d)) for d, _ in orbit)
            faces.append(FaceWalk(tuple(orbit), edges, corners))
    return faces


# ---------------------------------------------------------------------------
# statistics and Euler checks
# ---------------------------------------------------------------------------

def _components(p: EmbeddedPartition):
    """Union-find over vertices through edges; returns (count, label per vertex)."""
    parent = list(range(len(p.vertices)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in p.edge_ends:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[rv] = ru
    labels = [find(v) for v in range(len(p.vertices))]
    return len(set(labels)), labels


@dataclass(frozen=True)
class PartitionStats:
    kappa: int
    beta: int
    sigma_i: Fraction
    sigma_b: Fraction
    omega: int
    b0_boundary: int
    faces: int
    components: int
    regions: int
    defect: int
    locally_disconnected: tuple     # vertex ids that `normalize` blows up
    circles: int                    # components without a singular vertex

    @property
    def sigma(self) -> Fraction:
        return self.sigma_i + self.sigma_b

    def to_json(self):
        return {"kappa": self.kappa, "beta": self.beta,
                "sigmaI": str(self.sigma_i), "sigmaB": str(self.sigma_b),
                "sigma": str(self.sigma), "omega": self.omega,
                "b0Boundary": self.b0_boundary, "faces": self.faces,
                "components": self.components, "regions": self.regions,
                "defect": self.defect}


def partition_stats(p: EmbeddedPartition) -> PartitionStats:
    """The stats of p, computed once per partition (`EmbeddedPartition.stats`)."""
    return p.stats


def _compute_stats(p: EmbeddedPartition) -> PartitionStats:
    faces = trace_faces(p)
    F = len(faces)
    c, labels = _components(p)
    # Euler characteristic of the cellular completion: the c components are
    # joined into one surface by c - 1 connected sums
    chi = len(p.vertices) - p.n_edges + F - 2 * (c - 1)
    defect = chi - p.surface.closed_model_euler()

    for ci, comp in enumerate(p.boundary_components):
        if not any(f.edges.issubset(comp) for f in faces):
            raise MalformedEmbedding("no hole face for boundary component %d" % ci)
    regions = F - (c - 1)
    b0 = p.surface.boundary_components
    kappa = regions - b0 - max(0, defect) // 2
    beta = c - b0
    sigma_i = sum((Fraction(v.nu - 2, 2) for v in p.vertices if v.kind == INTERIOR),
                  Fraction(0))
    sigma_b = sum((Fraction(v.rho, 2) for v in p.vertices if v.kind == BOUNDARY),
                  Fraction(0))
    omega = 1 if (not p.surface.orientable and defect > 0) else 0
    if kappa < 1:
        raise MalformedEmbedding("computed kappa %d < 1" % kappa)
    return PartitionStats(kappa, beta, sigma_i, sigma_b, omega, b0,
                          F, c, regions, defect,
                          _locally_disconnected(p, faces),
                          c - len({labels[v.id] for v in p.vertices
                                   if v.kind in (INTERIOR, BOUNDARY)}))


def _locally_disconnected(p: EmbeddedPartition, faces):
    """Singular vertices some face meets in two or more sectors: its corners
    there, less its darts there on edges it walks twice (as on a bridge)."""
    bad = set()
    for f in faces:
        sectors = Counter(f.corners)
        for e, n in Counter(d // 2 for d, _ in f.states).items():
            if n == 2:
                sectors.subtract(p.edge_ends[e])
        bad.update(v for v, n in sectors.items()
                   if n >= 2 and p.vertices[v].kind in (INTERIOR, BOUNDARY))
    return tuple(sorted(bad))


@dataclass(frozen=True)
class EulerReport:
    surface: SurfaceSpec
    stats: PartitionStats
    relation: str        # "equality" or "inequality"
    predicted: Fraction
    kappa: int
    passed: bool


def verify_euler(p: EmbeddedPartition) -> EulerReport:
    """Sphere, planar domain, Moebius strip: kappa = chi - 1 + omega + beta
    + sigma (chi of the closed model); else kappa >= chi + sigma."""
    st, s = partition_stats(p), p.surface
    chi = s.closed_model_euler()
    if s.has_boundary or chi == 2:
        predicted = chi - 1 + st.omega + st.beta + st.sigma
        return EulerReport(s, st, "equality", predicted, st.kappa,
                           st.kappa == predicted)
    predicted = chi + st.sigma
    return EulerReport(s, st, "inequality", predicted, st.kappa,
                       st.kappa >= predicted)


def check_boundary_parity(p: EmbeddedPartition):
    """Per boundary component: if the partition boundary meets it, the total
    hitting index must be even and >= 2 (nodal partitions).  A closed
    surface has no components, so its list is []."""
    reports = []
    for ci in range(len(p.boundary_components)):
        rho_sum = sum(v.rho for v in p.vertices
                      if v.kind == BOUNDARY and v.component == ci)
        # rho >= 1 at a boundary vertex, so an even sum > 0 is >= 2
        reports.append({"component": ci, "rhoSum": rho_sum,
                        "met": rho_sum > 0, "passed": rho_sum % 2 == 0})
    return reports


# ---------------------------------------------------------------------------
# normalization (blow-up of locally-disconnected singular points)
# ---------------------------------------------------------------------------

def _blow_up_interior(m: PartitionBuilder, vid: int):
    rot = m.rotation.pop(vid)
    n = len(rot)
    ws = [m.interior(3) for _ in range(n)]
    for i, d in enumerate(rot):
        m.reattach(d, ws[i])
    circ = [m.edge(ws[i], ws[(i + 1) % n]) for i in range(n)]
    for i in range(n):
        out_d = dart(circ[i], 0)                 # towards w_{i+1}
        in_d = dart(circ[(i - 1) % n], 1)        # from w_{i-1}
        m.rotation[ws[i]] = [rot[i], out_d, in_d]


def _blow_up_boundary(m: PartitionBuilder, vid: int):
    rot = m.rotation.pop(vid)
    # normalize cyclic order to [b1, arcs..., b2]
    i1, i2 = [i for i, d in enumerate(rot) if m.edge_boundary[d // 2]]
    n = len(rot)
    if i2 - i1 == 1:               # forward gap empty; arcs wrap around
        start = i2
    elif i2 - i1 == n - 1:         # wrap gap empty; arcs lie between them
        start = i1
    else:
        raise MalformedEmbedding("arc darts at boundary vertex %d are not "
                                 "contiguous" % vid)
    rot = [rot[(start + t) % n] for t in range(n)]
    b1, b2 = rot[0], rot[-1]
    arcs = rot[1:-1]
    rho = len(arcs)
    ci = m.component_of(b1 // 2)
    z1 = m.boundary_vertex(1, ci)
    z2 = m.boundary_vertex(1, ci)
    ws = [m.interior(3) for _ in range(rho)]
    m.reattach(b1, z1)
    m.reattach(b2, z2)
    for i, d in enumerate(arcs):
        m.reattach(d, ws[i])
    chain = [z1] + ws + [z2]
    half = [m.edge(chain[i], chain[i + 1]) for i in range(rho + 1)]
    nb = m.edge(z1, z2, boundary=True, component=ci)
    m.rotation[z1] = [b1, dart(half[0], 0), dart(nb, 0)]
    m.rotation[z2] = [dart(nb, 1), dart(half[rho], 1), b2]
    for i in range(rho):
        m.rotation[ws[i]] = [arcs[i], dart(half[i + 1], 0), dart(half[i], 1)]


def _drop_vertices(m: PartitionBuilder, gone):
    """Remove the blown-up vertices and renumber the rest in order."""
    kept = [v for v in m.vertices if v.id not in gone]
    new_id = {v.id: i for i, v in enumerate(kept)}
    m.vertices = [replace(v, id=i) for i, v in enumerate(kept)]
    m.edge_ends = [(new_id[u], new_id[v]) for u, v in m.edge_ends]
    m.rotation = {new_id[v]: r for v, r in m.rotation.items()}


def normalize(p: EmbeddedPartition) -> EmbeddedPartition:
    """Blow up every locally-disconnected singular point by inserting a small
    disk face; preserves (beta, kappa - sigma, omega); idempotent.

    One pass blows up the vertices the input's stats list: a blow-up at v
    changes only the corners at v, and its degree-3 vertices are never bad.

    The result is a plain graph partition: the surgery introduces odd-valency
    vertices, so the output does not carry the nodal flag even if the input
    did."""
    bad = p.stats.locally_disconnected
    plain = p
    if p.nodal:
        plain = replace(p, nodal=False)
        # the stats do not read the nodal flag, so the input's stats hold
        vars(plain)["stats"] = p.stats
    if not bad:
        return plain
    m = PartitionBuilder.from_partition(plain)
    for vid in bad:
        blow_up = (_blow_up_interior if p.vertices[vid].kind == INTERIOR
                   else _blow_up_boundary)
        blow_up(m, vid)
    _drop_vertices(m, set(bad))
    out = m.build()
    if out.stats.locally_disconnected:
        raise MalformedEmbedding("normalization left a bad vertex")
    return out
