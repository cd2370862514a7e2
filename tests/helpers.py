"""Shared fixture builders for the test suite.

Hand-built embedded partitions (circle, theta, figure-eight, disk with a
diameter, Moebius-strip curves) plus a random planar-partition generator
based on Delaunay triangulations of random point sets.  Also the
shape-by-shape cell mask, origin and area that the domain classes are
checked against bit for bit, the per-site loop assembler and the
eval-based potential that the array assembler and `parse_potential` are
checked against bit for bit, a 1-D interval
operator used as an oracle for the ghost-cell treatment, the
pair-by-pair type validators that the constructors of `InteriorType` and
`BoundaryType` must agree with, the law report's combination checks
with a full nodal extraction per sampled eigenspace member, the law
report built index by index with every law gating, a pure-Python
flood fill that counts nodal domains without scipy, the nodal extraction
with two walkers and two dart tables that the one-walker extraction must
reproduce, the per-cell boundary-cycle walk it takes its boundary from
(so the oracle shares no boundary code with `extract_nodal`), the face
tracer that walks every orbit and pairs each with its mirror afterwards,
the partition checks with the boundary components checked by degree
count, reachability loop and a pass over the boundary vertices, the
partition statistics traced afresh on every call (with the locally
disconnected vertices found from rotation wedges, the hole faces picked
one per boundary component and kappa by surface kind) and the Euler
relation by surface kind, curves on closed surfaces of genus >= 1 and
with cross-caps, the iterative
normalization that blew up one vertex per face trace, and the recursive
non-crossing matchings, sorted afterwards, that the type enumerations
and the shift census must agree with, and the recursive run parser that
the stack-sweep inverse of a domain labeling must agree with, and the
point-by-point field sample, ray fit and prescribed-singular-point jets
that the array versions must reproduce bit for bit.
"""

import ast
import dataclasses
import math
from fractions import Fraction

import numpy as np
import scipy.sparse
from scipy.spatial import Delaunay

from nodalkit.comb_type import InteriorType, labeling_from_type
from nodalkit.errors import (DegenerateGrid, InconsistentLabeling,
                             InfeasibleOrder, InvalidProblem, InvalidType,
                             MalformedEmbedding, NoFit)
from nodalkit.bounds import faber_krahn_threshold, pleijel_bound, weyl_term
from nodalkit.partition import (_KINDS, BOUNDARY, INTERIOR, EmbeddedPartition,
                                FaceWalk, PartitionBuilder, PartitionStats,
                                PartitionVertex, _blow_up_boundary,
                                _blow_up_interior,
                                check_boundary_parity, dart, trace_faces,
                                verify_euler)
from nodalkit.spectral import (COMBO_BLOCK, DIRICHLET, FK_REL_TOL, NEUMANN,
                               PRESCRIBE_REL_TOL, RAY_FIT_ANGLES,
                               RAY_FIT_LMAX, RAY_FIT_THRESHOLD, ROBIN, Annulus,
                               Disk, GridField, LawReport, MaskedGrid,
                               NodalExtract, Rectangle, extract_nodal,
                               nodal_count, nodal_counts)
from nodalkit.surface import SurfaceSpec


def circle_on_sphere():
    b = PartitionBuilder(SurfaceSpec.sphere(), nodal=True)
    c = b.circle()
    b.edge(c, c)
    return b.build()


def theta_graph():
    b = PartitionBuilder(SurfaceSpec.sphere())
    u = b.interior(3)
    v = b.interior(3)
    e0 = b.edge(u, v)
    e1 = b.edge(u, v)
    e2 = b.edge(u, v)
    b.set_rotation(u, [dart(e0, 0), dart(e1, 0), dart(e2, 0)])
    b.set_rotation(v, [dart(e0, 1), dart(e2, 1), dart(e1, 1)])
    return b.build()


def figure_eight():
    b = PartitionBuilder(SurfaceSpec.sphere(), nodal=True)
    u = b.interior(4)
    a0 = b.edge(u, u)
    a1 = b.edge(u, u)
    b.set_rotation(u, [dart(a0, 0), dart(a0, 1), dart(a1, 0), dart(a1, 1)])
    return b.build()


def disk_with_diameter():
    b = PartitionBuilder(SurfaceSpec.planar_domain(0), nodal=True)
    x = b.boundary_vertex(1, 0)
    y = b.boundary_vertex(1, 0)
    b1 = b.edge(x, y, boundary=True, component=0)
    b2 = b.edge(y, x, boundary=True, component=0)
    d0 = b.edge(x, y)
    b.set_rotation(x, [dart(b1, 0), dart(d0, 0), dart(b2, 1)])
    b.set_rotation(y, [dart(b2, 0), dart(d0, 1), dart(b1, 1)])
    return b.build()


def disk_tangent_loop():
    """Nodal loop tangent to the boundary at a single rho=2 point."""
    b = PartitionBuilder(SurfaceSpec.planar_domain(0), nodal=True)
    z = b.boundary_vertex(2, 0)
    bb = b.edge(z, z, boundary=True, component=0)
    lp = b.edge(z, z)
    b.set_rotation(z, [dart(bb, 0), dart(lp, 0), dart(lp, 1), dart(bb, 1)])
    return b.build()


def moebius_core_circle():
    """1-sided core circle: complement is a single annulus-like domain."""
    b = PartitionBuilder(SurfaceSpec.moebius_strip(), nodal=True)
    c = b.circle()
    b.edge(c, c, signature=-1)
    m = b.circle()
    b.edge(m, m, boundary=True, component=0)
    return b.build()


def moebius_parallel_circle():
    """2-sided boundary-parallel circle: Moebius region + annulus region."""
    b = PartitionBuilder(SurfaceSpec.moebius_strip(), nodal=True)
    c = b.circle()
    b.edge(c, c, signature=1)
    m = b.circle()
    b.edge(m, m, boundary=True, component=0)
    return b.build()


def moebius_separating_arc():
    """Trivial arc: cuts off a disk, the other region keeps the cross-cap."""
    b = PartitionBuilder(SurfaceSpec.moebius_strip(), nodal=True)
    x = b.boundary_vertex(1, 0)
    y = b.boundary_vertex(1, 0)
    b1 = b.edge(x, y, boundary=True, component=0)
    b2 = b.edge(y, x, boundary=True, component=0)
    a = b.edge(x, y, signature=1)
    b.set_rotation(x, [dart(b1, 0), dart(a, 0), dart(b2, 1)])
    b.set_rotation(y, [dart(b2, 0), dart(a, 1), dart(b1, 1)])
    return b.build()


def moebius_fixtures():
    return [moebius_core_circle(), moebius_parallel_circle(),
            moebius_separating_arc()]


def closed_surface_fixtures():
    """Curves on the torus, the genus-2 surface, the projective plane and
    the Klein bottle: a one- and a two-sided circle, the theta graph with
    three twist patterns and the figure eight on each.  Some hide handles
    or cross-caps in a region (defect > 0); some have no region count at
    all (stats raise), or do not fit their surface (the inequality fails)."""
    out = []
    for spec in (SurfaceSpec.closed_orientable(1),
                 SurfaceSpec.closed_orientable(2),
                 SurfaceSpec.closed_non_orientable(1),
                 SurfaceSpec.closed_non_orientable(2)):
        for signature in (1, -1):
            b = PartitionBuilder(spec, nodal=True)
            c = b.circle()
            b.edge(c, c, signature=signature)
            out.append(b.build())
        for twists in ((1, 1, 1), (-1, -1, -1), (1, -1, 1)):
            out.append(dataclasses.replace(theta_graph(), surface=spec,
                                           edge_signature=list(twists)))
        out.append(dataclasses.replace(figure_eight(), surface=spec))
    return out


def random_planar_partition(rng, planar_holes=None):
    """Random embedded partition on the sphere (or a planar domain).

    Delaunay-triangulate a random point set, thin out some edges while
    keeping every vertex degree >= 2, and embed with the counter-clockwise
    rotation read off the coordinates.  Optionally append `planar_holes`+1
    boundary circles (markers far from the triangulation) to obtain a
    partition of a planar domain.
    """
    n = int(rng.integers(6, 15))
    pts = rng.random((n, 2))
    # Delaunay needs non-degenerate input; resample in the rare bad case
    for _ in range(10):
        try:
            tri = Delaunay(pts)
            break
        except Exception:
            pts = rng.random((n, 2))
    edges = set()
    for simplex in tri.simplices:
        for i in range(3):
            a, b = simplex[i], simplex[(i + 1) % 3]
            edges.add((min(a, b), max(a, b)))
    edges = sorted(edges)
    deg = {i: 0 for i in range(n)}
    for a, b in edges:
        deg[a] += 1
        deg[b] += 1
    kept = []
    for a, b in edges:
        if deg[a] > 3 and deg[b] > 3 and rng.random() < 0.35:
            deg[a] -= 1
            deg[b] -= 1
        else:
            kept.append((a, b))

    surface = (SurfaceSpec.sphere() if planar_holes is None
               else SurfaceSpec.planar_domain(planar_holes))
    bld = PartitionBuilder(surface, nodal=False)
    vid = {}
    for i in range(n):
        assert deg[i] >= 2
        if deg[i] == 2:
            vid[i] = bld.added()
        else:
            vid[i] = bld.interior(deg[i])
    incident = {i: [] for i in range(n)}
    for a, b in kept:
        e = bld.edge(vid[a], vid[b])
        incident[a].append((e, 0, b))
        incident[b].append((e, 1, a))
    for i in range(n):
        def angle(item):
            _, _, j = item
            v = pts[j] - pts[i]
            return np.arctan2(v[1], v[0])
        order = sorted(incident[i], key=angle)
        bld.set_rotation(vid[i], [dart(e, end) for e, end, _ in order])
    if planar_holes is not None:
        for comp in range(planar_holes + 1):
            m = bld.circle()
            bld.edge(m, m, boundary=True, component=comp)
    return bld.build()


# ---------------------------------------------------------------------------
# reference validators for the combinatorial types
# ---------------------------------------------------------------------------

def reference_validate_interior(p, tau):
    """Problems of (p, tau) as an interior type, checked invariant by
    invariant with an all-pairs crossing test (empty = valid)."""
    n = 2 * p
    problems = []
    if p < 1:
        problems.append("p must be >= 1")
        return problems
    if len(tau) != n:
        problems.append("tau must have length 2p = %d" % n)
        return problems
    if sorted(tau) != list(range(n)):
        problems.append("tau is not a permutation of 0..%d" % (n - 1))
        return problems
    for j in range(n):
        if tau[j] == j:
            problems.append("fixed point at %d" % j)
        elif tau[tau[j]] != j:
            problems.append("not an involution at %d" % j)
    for j in range(n):
        if tau[j] != j and (tau[j] - j) % 2 == 0:
            problems.append("even difference on pair (%d,%d)" % (j, tau[j]))
            break
    pairs = [(i, tau[i]) for i in range(n) if i < tau[i]]
    for a, b in pairs:
        for c, d in pairs:
            if a < c < b < d:
                problems.append("crossing pairs (%d,%d) and (%d,%d)" % (a, b, c, d))
    return problems


def reference_validate_boundary(k, tau):
    """Problems of (k, tau) as a boundary type, checked invariant by
    invariant with an all-pairs crossing test per block (empty = valid)."""
    problems = []
    if k < 3:
        problems.append("k must be >= 3")
        return problems
    n = 2 * k - 2  # arrow + 2k-3 rays
    if len(tau) != n:
        problems.append("tau must have length 2k-2 = %d" % n)
        return problems
    if sorted(tau) != list(range(n)):
        problems.append("tau is not a permutation")
        return problems
    a = tau[0]
    if a % 2 == 0:
        problems.append("arc position a=%d must be odd" % a)
    if tau[a] != 0:
        problems.append("tau must pair the arrow with ray a")
    for lo, hi, name in ((1, a - 1, "K+"), (a + 1, n - 1, "K-")):
        block = range(lo, hi + 1)
        for j in block:
            if not (lo <= tau[j] <= hi):
                problems.append("%s not invariant at ray %d" % (name, j))
            elif tau[j] == j:
                problems.append("fixed point at ray %d" % j)
            elif tau[tau[j]] != j:
                problems.append("not an involution at ray %d" % j)
        pairs = [(i, tau[i]) for i in block if lo <= tau[i] <= hi and i < tau[i]]
        for x, y in pairs:
            for u, v in pairs:
                if x < u < y < v:
                    problems.append("crossing in %s: (%d,%d),(%d,%d)" % (name, x, y, u, v))
    return problems


# ---------------------------------------------------------------------------
# reference enumerations of the combinatorial types
# ---------------------------------------------------------------------------

def _reference_noncrossing_matchings(points):
    """All non-crossing perfect matchings of the (sorted) point list, as
    pair tuples, by the Catalan recursion: the first point matches a point
    leaving even blocks on both sides."""
    if not points:
        yield ()
        return
    first = points[0]
    for idx in range(1, len(points), 2):
        for m_in in _reference_noncrossing_matchings(points[1:idx]):
            for m_out in _reference_noncrossing_matchings(points[idx + 1:]):
                yield ((first, points[idx]),) + m_in + m_out


def _reference_tau(n, pairs):
    tau = [None] * n
    for i, j in pairs:
        tau[i] = j
        tau[j] = i
    return tuple(tau)


def reference_interior_taus(p):
    """tau tuples of the interior types for p loops, sorted."""
    return sorted(_reference_tau(2 * p, m)
                  for m in _reference_noncrossing_matchings(list(range(2 * p))))


def reference_boundary_taus(k):
    """tau tuples of the boundary types of index 2k-3, sorted: the arrow
    (position 0) pairs with an odd ray a, and each block on either side of
    a is matched on its own."""
    n = 2 * k - 2
    out = []
    for a in range(1, n, 2):
        for m_plus in _reference_noncrossing_matchings(list(range(1, a))):
            for m_minus in _reference_noncrossing_matchings(list(range(a + 1, n))):
                out.append(_reference_tau(n, ((0, a),) + m_plus + m_minus))
    return sorted(out)


def reference_m_theta(tau):
    """m_theta of a boundary type, interval by interval.  Interval j
    (1..2k-2) lies between rays j-1 and j, the arrow as ray 0; its domain is
    the loop (u, v) of least span with u < j <= v, or the outside of every
    loop.  The letters number those domains in order of first appearance."""
    loops = [(u, v) for u, v in enumerate(tau) if u < v]
    seen = {}
    letters = []
    for j in range(1, len(tau) + 1):
        spans = [(v - u, u) for u, v in loops if u < j <= v]
        letters.append(seen.setdefault(min(spans, default=None),
                                       len(seen) + 1))
    return tuple(letters)


def reference_shift_invariant_taus(p):
    """The sorted interior tau tuples fixed by the rotation j -> j+1."""
    n = 2 * p
    return [tau for tau in reference_interior_taus(p)
            if all(tau[(j + 1) % n] == (tau[j] + 1) % n for j in range(n))]


def reference_type_from_labeling(d):
    """The recursive run parser that inverted labeling_from_type before the
    stack sweep, with the pair-list constructor it called inlined.

    Within a region whose surrounding domain has label L, the maximal runs of
    intervals not labeled L are exactly the sub-bouquets hanging off single
    loops; each run [a..b] yields the loop (a, b+1) and recurses.  The outer
    domain is the label of the last interval (which no loop can enclose).
    """
    delta = d.delta
    n = len(delta)
    pairs = []

    def parse(lo, hi, outer):
        j = lo
        while j <= hi:
            if delta[j] == outer:
                j += 1
                continue
            # maximal run without the outer label
            b = j
            while b + 1 <= hi and delta[b + 1] != outer:
                b += 1
            pairs.append((j, b + 1))
            parse(j, b, delta[j])
            j = b + 1

    parse(0, n - 1, delta[n - 1])
    if len(pairs) != n // 2:
        raise InconsistentLabeling("reconstruction produced %d loops, expected %d"
                                   % (len(pairs), n // 2))
    try:
        tau = [None] * n
        for i, j in pairs:
            tau[i] = j
            tau[j] = i
        if any(t is None for t in tau):
            raise InvalidType("pairs do not cover 0..%d" % (n - 1))
        t = InteriorType(len(pairs), tuple(tau))
    except InvalidType as exc:
        raise InconsistentLabeling("reconstructed involution is invalid: %s"
                                   % exc)
    if labeling_from_type(t).delta != delta:
        raise InconsistentLabeling("labeling is not realizable by any valid involution")
    return t


# ---------------------------------------------------------------------------
# reference implementations for the spectral module
# ---------------------------------------------------------------------------

_REFERENCE_FUNCS = {"sin": math.sin, "cos": math.cos, "exp": math.exp,
                    "sqrt": math.sqrt, "abs": abs, "tan": math.tan,
                    "log": math.log}


def reference_potential(expr):
    """V(x, y) on Python floats by `eval` of the expression, one site per
    call: the evaluation the array potential must reproduce bit for bit."""
    code = compile(ast.parse(expr, mode="eval"), "<potential>", "eval")
    env = dict(_REFERENCE_FUNCS, pi=math.pi)

    def V(x, y):
        return float(eval(code, {"__builtins__": {}}, dict(env, x=x, y=y)))
    return V


def reference_domain_mask(dom, h):
    """Cell mask (ny, nx boolean) and lower-left origin of the cell grid,
    one shape at a time: the mask, origin and pinch check that the domain
    classes and EigenProblem must reproduce.

    Raises InvalidProblem where two mask cells meet only at a lattice
    corner (a 2x2 block [[1, 0], [0, 1]] or [[0, 1], [1, 0]])."""
    if isinstance(dom, Rectangle):
        nx, ny = round(dom.w / h), round(dom.h / h)
        mask, origin = np.ones((ny, nx), bool), (0.0, 0.0)
    elif isinstance(dom, Disk):
        n = round(2 * dom.r / h)
        cx = (np.arange(n) + 0.5) * h - dom.r
        X, Y = np.meshgrid(cx, cx)
        mask, origin = X ** 2 + Y ** 2 < dom.r ** 2, (-dom.r, -dom.r)
    elif isinstance(dom, Annulus):
        n = round(2 * dom.r_out / h)
        cx = (np.arange(n) + 0.5) * h - dom.r_out
        X, Y = np.meshgrid(cx, cx)
        R2 = X ** 2 + Y ** 2
        mask = (R2 < dom.r_out ** 2) & (R2 > dom.r_in ** 2)
        origin = (-dom.r_out, -dom.r_out)
    elif isinstance(dom, MaskedGrid):
        mask, origin = np.array(dom.bitmap, bool), (0.0, 0.0)
    else:
        raise ValueError("unknown domain")
    _reference_check_pinch(mask)
    return mask, origin


def _reference_check_pinch(mask):
    sw, se, nw, ne = mask[:-1, :-1], mask[:-1, 1:], mask[1:, :-1], mask[1:, 1:]
    pinch = (sw & ne & ~se & ~nw) | (se & nw & ~sw & ~ne)
    if pinch.any():
        iy, ix = np.argwhere(pinch)[0] + 1
        raise InvalidProblem("the domain mask pinches at lattice corner "
                             "(%d, %d): two cells meet only at that corner"
                             % (ix, iy))


def reference_domain_area(dom, h):
    """Area of a domain, one shape at a time."""
    if isinstance(dom, Rectangle):
        return dom.w * dom.h
    if isinstance(dom, Disk):
        return math.pi * dom.r ** 2
    if isinstance(dom, Annulus):
        return math.pi * (dom.r_out ** 2 - dom.r_in ** 2)
    return sum(sum(row) for row in dom.bitmap) * h * h


def reference_assemble(problem, V=None):
    """CSR matrix of the problem from three per-site loops, one per site
    layout.  V(x, y) is called once per site with Python floats; it defaults
    to the problem's potential."""
    h = problem.grid_step
    dom = problem.domain
    if V is None:
        V = problem.potential
    inv_h2 = 1.0 / (h * h)
    rows, cols, vals = [], [], []
    if isinstance(dom, Rectangle) and problem.bc == DIRICHLET:
        nx, ny = round(dom.w / h), round(dom.h / h)
        if nx - 1 < 3 or ny - 1 < 3:
            raise DegenerateGrid("need at least 3 interior nodes per dimension")
        sites = [(ix, iy) for iy in range(1, ny) for ix in range(1, nx)]
        index = {s: i for i, s in enumerate(sites)}
        for i, (ix, iy) in enumerate(sites):
            diag = 4.0 * inv_h2
            if V is not None:
                diag += V(ix * h, iy * h)
            rows.append(i)
            cols.append(i)
            vals.append(diag)
            for jx, jy in ((ix - 1, iy), (ix + 1, iy), (ix, iy - 1), (ix, iy + 1)):
                j = index.get((jx, jy))
                if j is not None:   # off-grid neighbor: Dirichlet zero
                    rows.append(i)
                    cols.append(j)
                    vals.append(-inv_h2)
    elif isinstance(dom, Rectangle):
        # cell centers with ghost reflection on all four sides
        nx, ny = round(dom.w / h), round(dom.h / h)
        if nx < 3 or ny < 3:
            raise DegenerateGrid("need at least 3 cells per dimension")
        sites = [(ix, iy) for iy in range(ny) for ix in range(nx)]
        index = {s: i for i, s in enumerate(sites)}
        hr = problem.robin_h if problem.bc == ROBIN else 0.0
        # ghost value = g * interior value; Neumann: g = 1
        g = (2.0 - hr * h) / (2.0 + hr * h)
        for i, (ix, iy) in enumerate(sites):
            diag = 4.0 * inv_h2
            if V is not None:
                x, y = (ix + 0.5) * h, (iy + 0.5) * h
                diag += V(x, y)
            for jx, jy in ((ix - 1, iy), (ix + 1, iy), (ix, iy - 1), (ix, iy + 1)):
                j = index.get((jx, jy))
                if j is not None:
                    rows.append(i)
                    cols.append(j)
                    vals.append(-inv_h2)
                else:
                    diag -= g * inv_h2   # ghost cell reflected onto the center
            rows.append(i)
            cols.append(i)
            vals.append(diag)
    else:
        mask, origin = reference_domain_mask(dom, h)
        ny, nx = mask.shape
        if mask.any(axis=0).sum() < 3 or mask.any(axis=1).sum() < 3:
            raise DegenerateGrid("mask thinner than 3 cells")
        sites = [(ix, iy) for iy in range(ny) for ix in range(nx) if mask[iy, ix]]
        index = {s: i for i, s in enumerate(sites)}
        for i, (ix, iy) in enumerate(sites):
            diag = 4.0 * inv_h2
            if V is not None:
                x = origin[0] + (ix + 0.5) * h
                y = origin[1] + (iy + 0.5) * h
                diag += V(x, y)
            rows.append(i)
            cols.append(i)
            vals.append(diag)
            for jx, jy in ((ix - 1, iy), (ix + 1, iy), (ix, iy - 1), (ix, iy + 1)):
                j = index.get((jx, jy))
                if j is not None:
                    rows.append(i)
                    cols.append(j)
                    vals.append(-inv_h2)
    return scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(len(sites),) * 2)


def assemble_interval(n, h, bc_left, bc_right, robin_h=0.0):
    """1-D cell-centered operator -u'' on n cells; used as a cross-check
    oracle for the Robin/Neumann ghost treatment."""
    inv_h2 = 1.0 / (h * h)

    def ghost(bc):
        if bc == DIRICHLET:
            return -1.0  # antisymmetric ghost
        if bc == NEUMANN:
            return 1.0
        return (2.0 - robin_h * h) / (2.0 + robin_h * h)
    A = np.zeros((n, n))
    for i in range(n):
        diag = 2.0 * inv_h2
        for j in (i - 1, i + 1):
            if 0 <= j < n:
                A[i, j] = -inv_h2
            else:
                g = ghost(bc_left if j < 0 else bc_right)
                diag -= g * inv_h2
        A[i, i] = diag
    return A


def reference_combo_checks(sol, problem, seed, n_combos):
    """`comboChecks` of a law report, each sampled combination counted by a
    full `extract_nodal`: what `verify_spectral_laws` must reproduce with
    its kappa-only count."""
    rng = np.random.default_rng(seed)
    combo_checks = []
    for cluster in sol.clusters:
        if len(cluster) < 2:
            continue
        k_hi = cluster[-1]
        worst = 0
        good = True
        for _ in range(n_combos):
            c = rng.standard_normal(len(cluster))
            c /= np.linalg.norm(c)
            vec = sum(ci * sol.vectors[:, idx - 1]
                      for ci, idx in zip(c, cluster))
            ext = extract_nodal(sol.operator.to_field(vec))
            worst = max(worst, ext.domain_count)
            if ext.domain_count > k_hi:
                good = False
        combo_checks.append({"cluster": list(cluster), "samples": n_combos,
                             "maxKappa": worst, "bound": k_hi, "passed": good})
    return combo_checks


def reference_law_report(sol, problem, seed=0, n_combos=200):
    """A law report built index by index: each k's cluster found again from
    first/last maps, every verdict folded into a running `ok`, and every
    law gating `passed`, Faber-Krahn on every boundary condition.  What
    `verify_spectral_laws` must reproduce byte for byte on Dirichlet
    problems, and apart from `passed` on Neumann and Robin ones."""
    area = problem.domain.area(problem.grid_step)
    rng = np.random.default_rng(seed)
    entries = []
    ok = True
    first_of = {}
    last_of = {}
    for cluster in sol.clusters:
        for idx in cluster:
            first_of[idx] = cluster[0]
            last_of[idx] = cluster[-1]
    for k in range(1, len(sol.eigenvalues) + 1):
        lam = float(sol.eigenvalues[k - 1])
        ext = extract_nodal(sol.field(k))
        kappa = ext.domain_count
        mult = last_of[k] - first_of[k] + 1
        kf = first_of[k]
        courant = kappa <= k
        mult_ok = mult <= 2 * kf - 1 and (kf < 3 or mult <= 2 * kf - 2)
        fk_lhs = lam * area
        fk_rhs = faber_krahn_threshold(kappa)
        faber_krahn = fk_lhs >= fk_rhs * (1 - FK_REL_TOL)
        pleijel = mult <= 2 * kf - 1 or (
            lam > 0 and mult <= pleijel_bound(lam, area)[0] + 1e-9)
        euler = verify_euler(ext.as_partition).passed
        parity = all(r["passed"] for r in
                     check_boundary_parity(ext.as_partition))
        entry = {"k": k, "lambda": lam, "kappa": kappa, "mult": mult,
                 "courant": courant, "multBound": mult_ok,
                 "faberKrahn": faber_krahn,
                 "faberKrahnRatio": fk_lhs / fk_rhs,
                 "pleijel": pleijel, "euler": euler, "parity": parity}
        entries.append(entry)
        ok = ok and courant and mult_ok and faber_krahn and euler and parity
    combo_checks = []
    for cluster in sol.clusters:
        if len(cluster) < 2:
            continue
        k_hi = cluster[-1]
        coeffs = rng.standard_normal((n_combos, len(cluster)))
        coeffs /= np.array([np.linalg.norm(c) for c in coeffs])[:, None]
        worst = 0
        for start in range(0, n_combos, COMBO_BLOCK):
            block = coeffs[start:start + COMBO_BLOCK]
            vecs = sum(block[:, j, None] * sol.vectors[:, idx - 1]
                       for j, idx in enumerate(cluster))
            kappas = nodal_counts(sol.operator.cell_values(vecs),
                                  sol.operator.mask)
            worst = max(worst, int(kappas.max()))
        good = worst <= k_hi
        combo_checks.append({"cluster": list(cluster), "samples": n_combos,
                             "maxKappa": worst, "bound": k_hi, "passed": good})
        ok = ok and good
    lam_max = float(sol.eigenvalues[-1])
    n_below = int(len(sol.eigenvalues))
    w = weyl_term(lam_max, area)
    weyl = {"lambda": lam_max, "count": n_below, "weylTerm": w,
            "relativeDeviation": abs(n_below - w) / max(n_below, 1)}
    return LawReport(seed, entries, combo_checks, weyl, ok)


def reference_sample(self, x, y):
    """Bilinear interpolation between cell centers."""
    fx = (x - self.origin[0]) / self.h - 0.5
    fy = (y - self.origin[1]) / self.h - 0.5
    ny, nx = self.values.shape
    ix = min(max(int(math.floor(fx)), 0), nx - 2)
    iy = min(max(int(math.floor(fy)), 0), ny - 2)
    tx, ty = fx - ix, fy - iy
    v = self.values
    return ((1 - tx) * (1 - ty) * v[iy, ix] + tx * (1 - ty) * v[iy, ix + 1]
            + (1 - tx) * ty * v[iy + 1, ix] + tx * ty * v[iy + 1, ix + 1])


def _reference_sampler(u):
    """A GridField's point sample by reference_sample, or the callable."""
    if isinstance(u, GridField):
        return lambda x, y: reference_sample(u, x, y)
    return u


# reference_local_ray_fit and reference_prescribe_singular are the
# point-by-point ray fit and jet construction, sampling a GridField through
# reference_sample; local_ray_fit and prescribe_singular must reproduce them
# bit for bit

def reference_local_ray_fit(u, x0, radius):
    """Fit r^l (a sin l*omega + b cos l*omega) on circles around x0.

    u is a GridField or a callable (x, y) -> value.  Returns
    (l, rayAngles, residual): the order minimizing the relative residual,
    the 2l equiangular zero angles of the fitted trigonometric polynomial,
    and the residual itself."""
    sample = _reference_sampler(u)
    radii = [0.5 * radius, 0.75 * radius, radius]
    omegas = np.arange(RAY_FIT_ANGLES) * (2 * math.pi / RAY_FIT_ANGLES)
    pts, vals = [], []
    for r in radii:
        for w in omegas:
            pts.append((r, w))
            vals.append(sample(x0[0] + r * math.cos(w), x0[1] + r * math.sin(w)))
    vals = np.array(vals)
    norm = np.linalg.norm(vals)
    if norm == 0:
        raise NoFit("field vanishes on the sampling circles")
    best = None
    for ell in range(1, RAY_FIT_LMAX + 1):
        cols = np.empty((len(pts), 2))
        for i, (r, w) in enumerate(pts):
            rl = r ** ell
            cols[i, 0] = rl * math.sin(ell * w)
            cols[i, 1] = rl * math.cos(ell * w)
        coef, _, _, _ = np.linalg.lstsq(cols, vals, rcond=None)
        resid = np.linalg.norm(cols @ coef - vals) / norm
        if best is None or resid < best[2]:
            best = (ell, coef, resid)
    ell, (a, bcoef), resid = best
    if resid > RAY_FIT_THRESHOLD:
        raise NoFit("best relative residual %.3g above threshold" % resid)
    # zeros of a sin(l w) + b cos(l w): l*w = -atan2(b, a) + j*pi
    base = -math.atan2(bcoef, a)
    two_pi = 2 * math.pi
    angles = []
    for j in range(2 * ell):
        w = ((base + j * math.pi) / ell) % two_pi
        if two_pi - w < 1e-9:
            w = 0.0
        angles.append(w)
    angles.sort()
    return ell, angles, resid


def _reference_central_difference(g, k, h):
    """k-th derivative of g(t) at t = 0 by k iterated central differences
    over the 2k + 1 samples g(-kh), ..., g(kh)."""
    arr = np.array([g(i * h) for i in range(-k, k + 1)], float)
    for _ in range(k):
        arr = (arr[2:] - arr[:-2]) / (2 * h)
    return float(arr[0])


def _reference_jet_rows_interior(fn, site, order, h):
    """Central-difference partial derivatives d^(i+j)/dx^i dy^j for
    i + j < order at the site: differenced in x, then in y."""
    x0, y0 = site
    return [_reference_central_difference(
                lambda t: _reference_central_difference(
                    lambda s: fn(x0 + s, y0 + t), i, h), total - i, h)
            for total in range(order) for i in range(total + 1)]


def reference_prescribe_singular(basis, site, target_order, boundary=None,
                                 h=None):
    """Unit coefficient vector whose combination vanishes to the requested
    order at the site (interior) or suppresses the boundary data (boundary).

    basis: list of GridFields or callables.  For an interior site the
    constraints are all discrete partial derivatives of total order
    < target_order.  For a boundary site, pass boundary=(outward normal,
    tangent); constraints are the one-sided normal trace and its tangential
    derivatives of order < target_order.  Raises InfeasibleOrder when fewer
    than 2 basis fields are given or the constraint matrix has no null
    space."""
    m = len(basis)
    if m < 2:
        raise InfeasibleOrder("need at least 2 basis fields, got %d" % m)
    fns = [_reference_sampler(f) for f in basis]
    if h is None:
        h = basis[0].h if isinstance(basis[0], GridField) else 1e-3
    rows = []
    if boundary is None:
        q = target_order * (target_order + 1) // 2
        if q > m - 1:
            raise InfeasibleOrder(
                "order %d needs %d constraints, only %d basis fields"
                % (target_order, q, m))
        for fn in fns:
            rows.append(_reference_jet_rows_interior(fn, site, target_order,
                                                     h))
    else:
        nrm, tangent = boundary
        if target_order > m - 1:
            raise InfeasibleOrder("order beyond the guaranteed range")

        def breve(fn):
            # one-sided inward normal sample (proportional to the normal
            # derivative under Dirichlet conditions; a trace otherwise)
            def g(t):
                x = site[0] + t * tangent[0] - h * nrm[0]
                y = site[1] + t * tangent[1] - h * nrm[1]
                return fn(x, y)
            return g
        for fn in fns:
            rows.append([_reference_central_difference(breve(fn), k, h)
                         for k in range(target_order)])
    J = np.array(rows, float).T   # constraints x basis
    scale = max(np.abs(J).max(), 1e-300)
    _, s, Vt = np.linalg.svd(J)
    if J.shape[0] >= m and s[-1] > PRESCRIBE_REL_TOL * max(s[0], scale):
        raise InfeasibleOrder("constraint matrix has full rank "
                              "(smallest singular value %.3g)" % s[-1])
    c = Vt[-1]
    c = c / np.linalg.norm(c)
    resid = np.linalg.norm(J @ c) / scale
    if resid > PRESCRIBE_REL_TOL:
        raise InfeasibleOrder("suppressed jet residual %.3g above %.3g"
                              % (resid, PRESCRIBE_REL_TOL))
    return c, resid


def reference_kappa(values, mask):
    """Number of nodal domains of one (ny, nx) field: 4-connected components
    of same-sign mask cells, an exact zero counting as negative, found by a
    flood fill over Python lists."""
    ny, nx = len(mask), len(mask[0])
    sign = [[(1 if values[iy][ix] > 0 else -1) if mask[iy][ix] else 0
             for ix in range(nx)] for iy in range(ny)]
    seen = [[False] * nx for _ in range(ny)]
    kappa = 0
    for iy in range(ny):
        for ix in range(nx):
            if sign[iy][ix] == 0 or seen[iy][ix]:
                continue
            kappa += 1
            seen[iy][ix] = True
            todo = [(iy, ix)]
            while todo:
                y, x = todo.pop()
                for qy, qx in ((y - 1, x), (y + 1, x), (y, x - 1), (y, x + 1)):
                    if 0 <= qy < ny and 0 <= qx < nx and not seen[qy][qx] \
                            and sign[qy][qx] == sign[y][x]:
                        seen[qy][qx] = True
                        todo.append((qy, qx))
    return kappa


def reference_boundary_cycles(mask):
    """Boundary of the cell mask as cyclic corner sequences, one per
    boundary component, traced with the domain on the left (outer boundary
    counter-clockwise, holes clockwise) by a per-cell loop over its four
    sides: the cycles, outer first, then holes longest first, that
    `spectral._boundary_cycles` must reproduce.  Raises InvalidProblem
    where the mask pinches."""
    _reference_check_pinch(mask)
    ny, nx = mask.shape

    def inside(c):
        x, y = c
        return 0 <= x < nx and 0 <= y < ny and mask[y, x]
    steps = {}
    for iy in range(ny):
        for ix in range(nx):
            if not mask[iy, ix]:
                continue
            if not inside((ix, iy - 1)):   # south edge, walk east
                steps[(ix, iy)] = (ix + 1, iy)
            if not inside((ix + 1, iy)):   # east edge, walk north
                steps[(ix + 1, iy)] = (ix + 1, iy + 1)
            if not inside((ix, iy + 1)):   # north edge, walk west
                steps[(ix + 1, iy + 1)] = (ix, iy + 1)
            if not inside((ix - 1, iy)):   # west edge, walk south
                steps[(ix, iy + 1)] = (ix, iy)
    cycles = []
    while steps:
        start = min(steps)
        cyc = [start]
        cur = steps.pop(start)
        while cur != start:
            cyc.append(cur)
            cur = steps.pop(cur)
        cycles.append(cyc)

    def clockwise(c):
        return sum(ax * by - bx * ay
                   for (ax, ay), (bx, by) in zip(c, c[1:] + c[:1])) < 0
    cycles.sort(key=lambda c: (clockwise(c), -len(c), c[0]))
    return cycles


def reference_extract_nodal(u):
    """`extract_nodal` as it was with singular corners kept as tagged tuples
    and sorted twice, one walker for chains and a second one for closed
    loops, nodal and boundary darts in two tables, and every boundary
    corner filtered once per cycle: the partition, singular-point lists and
    segments that the one-walker extraction must reproduce."""
    sign, kappa = nodal_count(u)
    mask = u.mask
    ny, nx = sign.shape

    def inside(c):
        x, y = c
        return 0 <= x < nx and 0 <= y < ny and mask[y, x]

    segments = []
    for iy in range(ny):
        for ix in range(nx):
            if not mask[iy, ix]:
                continue
            if inside((ix + 1, iy)) and sign[iy, ix] * sign[iy, ix + 1] < 0:
                segments.append(((ix + 1, iy), (ix + 1, iy + 1)))
            if inside((ix, iy + 1)) and sign[iy, ix] * sign[iy + 1, ix] < 0:
                segments.append(((ix, iy + 1), (ix + 1, iy + 1)))
    incident = {}
    for a, b in segments:
        incident.setdefault(a, []).append(b)
        incident.setdefault(b, []).append(a)

    cycles = reference_boundary_cycles(mask)
    on_boundary = {}
    for ci, cyc in enumerate(cycles):
        for pos, corner in enumerate(cyc):
            on_boundary[corner] = (ci, pos)

    special = {}   # corner -> ("interior", nu) or ("boundary", rho, comp, pos)
    for corner, nbrs in incident.items():
        deg = len(nbrs)
        if corner in on_boundary:
            ci, pos = on_boundary[corner]
            special[corner] = ("boundary", deg, ci, pos)
        elif deg != 2:
            if deg < 2:
                raise MalformedEmbedding("dangling nodal segment at %r"
                                         % (corner,))
            special[corner] = ("interior", deg)

    def walk(start, first):
        path = [start, first]
        prev, cur = start, first
        while cur not in special:
            nbrs = incident[cur]
            nxt = nbrs[0] if nbrs[1] == prev else nbrs[1]
            path.append(nxt)
            prev, cur = cur, nxt
        return path

    chains = []
    used = set()
    for corner in sorted(special):
        for first in sorted(incident[corner]):
            seg = (min(corner, first), max(corner, first))
            if seg in used:
                continue
            path = walk(corner, first)
            for a, b in zip(path, path[1:]):
                used.add((min(a, b), max(a, b)))
            chains.append(path)
    loops = []
    for a, b in sorted(segments):
        if (a, b) in used:
            continue
        path = [a, b]
        prev, cur = a, b
        while cur != a:
            nbrs = incident[cur]
            nxt = nbrs[0] if nbrs[1] == prev else nbrs[1]
            path.append(nxt)
            prev, cur = cur, nxt
        for p, q in zip(path, path[1:]):
            used.add((min(p, q), max(p, q)))
        loops.append(path)

    b = PartitionBuilder(SurfaceSpec.planar_domain(len(cycles) - 1),
                         nodal=True)
    vid = {}
    interior_list = []
    boundary_list = []
    for corner in sorted(special):
        info = special[corner]
        x = u.origin[0] + corner[0] * u.h
        y = u.origin[1] + corner[1] * u.h
        if info[0] == "interior":
            vid[corner] = b.interior(info[1])
            interior_list.append(((x, y), info[1]))
        else:
            deg, ci = info[1], info[2]
            vid[corner] = b.boundary_vertex(deg, ci)
            boundary_list.append(((x, y), deg, ci))

    def step_angle(a, b):
        return math.atan2(b[1] - a[1], b[0] - a[0])

    darts_at = {c: [] for c in special}
    for path in chains:
        e = b.edge(vid[path[0]], vid[path[-1]])
        darts_at[path[0]].append((dart(e, 0), step_angle(path[0], path[1])))
        darts_at[path[-1]].append((dart(e, 1),
                                   step_angle(path[-1], path[-2])))
    for path in loops:
        m = b.circle()
        b.edge(m, m)

    bdart_at = {}
    for ci, cyc in enumerate(cycles):
        hits = sorted((pos, corner) for corner, (cj, pos) in on_boundary.items()
                      if cj == ci and corner in special)
        if not hits:
            m = b.circle()
            b.edge(m, m, boundary=True, component=ci)
            continue
        n = len(hits)
        for t in range(n):
            pos_a, ca = hits[t]
            pos_b, cb = hits[(t + 1) % n]
            e = b.edge(vid[ca], vid[cb], boundary=True, component=ci)
            nxt = cyc[(pos_a + 1) % len(cyc)]
            prv = cyc[pos_b - 1]
            bdart_at.setdefault(ca, []).append((dart(e, 0),
                                                step_angle(ca, nxt)))
            bdart_at.setdefault(cb, []).append((dart(e, 1),
                                                step_angle(cb, prv)))

    for corner in sorted(special):
        entries = darts_at[corner] + bdart_at.get(corner, [])
        entries.sort(key=lambda t: t[1])
        b.set_rotation(vid[corner], [d for d, _ in entries])
    return NodalExtract(sign, kappa, interior_list, boundary_list, b.build(),
                        u, segments)


# ---------------------------------------------------------------------------
# reference partition validation
# ---------------------------------------------------------------------------

class UncheckedPartition(EmbeddedPartition):
    """An EmbeddedPartition that is not validated when constructed, so that
    `reference_validate` can judge fields the constructor would reject."""

    def __post_init__(self):
        pass


def reference_validate(p):
    """The partition checks with the boundary components checked by a degree
    count, a fixed-point reachability loop and a second pass over the
    boundary vertices.  It accepts an empty boundary component, which
    `EmbeddedPartition` rejects; otherwise the two must agree."""
    nv, ne = len(p.vertices), p.n_edges
    for i, v in enumerate(p.vertices):
        if v.id != i:
            raise MalformedEmbedding("vertex ids must be 0..n-1 in order")
        if v.kind not in _KINDS:
            raise MalformedEmbedding("unknown vertex kind %r" % v.kind)
    if not (len(p.edge_boundary) == len(p.edge_signature) == ne):
        raise MalformedEmbedding("edge attribute lists disagree in length")
    if not set(p.edge_signature) <= {1, -1}:
        # face tracing multiplies by signatures and closes only on +-1
        raise MalformedEmbedding("edge signatures must be +1 or -1")
    seen = {}
    for vid, rot in p.rotation.items():
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
        if p.vertex_of(d) != vid:
            raise MalformedEmbedding("dart %d listed at vertex %d but edge says %d"
                                     % (d, vid, p.vertex_of(d)))
    # degree constraints
    for v in p.vertices:
        deg = len(p.rotation.get(v.id, ()))
        if v.kind == INTERIOR:
            if v.nu < 3:
                raise MalformedEmbedding("interior singular vertex needs nu >= 3")
            if p.nodal and (v.nu % 2 or v.nu < 4):
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
            nb = sum(1 for d in p.rotation[v.id] if p.edge_boundary[d // 2])
            if nb != 2:
                raise MalformedEmbedding("boundary vertex %d must meet exactly "
                                         "2 boundary darts" % v.id)
        elif deg < 1:
            raise MalformedEmbedding("isolated vertex %d" % v.id)
    # boundary components
    want = p.surface.boundary_components
    if want == 0:
        if any(p.edge_boundary):
            raise MalformedEmbedding("closed surface with boundary edges")
        if p.boundary_components:
            raise MalformedEmbedding("closed surface with boundary components")
        return
    if len(p.boundary_components) != want:
        raise MalformedEmbedding("expected %d boundary components, got %d"
                                 % (want, len(p.boundary_components)))
    claimed = [e for comp in p.boundary_components for e in comp]
    if sorted(claimed) != sorted(i for i in range(p.n_edges)
                                 if p.edge_boundary[i]):
        raise MalformedEmbedding("boundary components must partition the "
                                 "boundary edges")
    for comp in p.boundary_components:
        degs = {}
        for e in comp:
            for x in p.edge_ends[e]:
                degs[x] = degs.get(x, 0) + 1
        if any(d != 2 for d in degs.values()):
            raise MalformedEmbedding("boundary component is not a disjoint "
                                     "union-free single cycle")
        # connectivity of the cycle
        if comp:
            reach = {p.edge_ends[comp[0]][0]}
            grow = True
            while grow:
                grow = False
                for e in comp:
                    u, v = p.edge_ends[e]
                    if (u in reach) != (v in reach):
                        reach.update((u, v))
                        grow = True
            if set(degs) != reach:
                raise MalformedEmbedding("boundary component is not connected")
    component_of = {e: ci for ci, comp in enumerate(p.boundary_components)
                    for e in comp}
    for v in p.vertices:
        if v.kind != BOUNDARY:
            continue
        e = next(d // 2 for d in p.rotation[v.id]
                 if p.edge_boundary[d // 2])
        if component_of[e] != v.component:
            raise MalformedEmbedding("boundary vertex %d says component %d, "
                                     "but its boundary edges lie on %d"
                                     % (v.id, v.component, component_of[e]))


# ---------------------------------------------------------------------------
# reference face tracer
# ---------------------------------------------------------------------------

def _reference_face_orbits(p):
    pos = {}
    for vid, rot in p.rotation.items():
        for i, d in enumerate(rot):
            pos[d] = (vid, i)

    def next_state(d, s):
        e = p.theta(d)
        s2 = s * p.edge_signature[d // 2]
        vid, i = pos[e]
        rot = p.rotation[vid]
        nd = rot[(i + 1) % len(rot)] if s2 > 0 else rot[(i - 1) % len(rot)]
        return nd, s2

    orbits = []
    orbit_of = {}
    for d0 in range(2 * p.n_edges):
        for s0 in (1, -1):
            if (d0, s0) in orbit_of:
                continue
            orbit = []
            st = (d0, s0)
            while st not in orbit_of:
                orbit_of[st] = len(orbits)
                orbit.append(st)
                st = next_state(*st)
            if st != (d0, s0):
                raise MalformedEmbedding("face tracing did not close up")
            orbits.append(tuple(orbit))
    return orbits, orbit_of


def reference_trace_faces(p):
    """Faces by walking all 4E (dart, sign) states into orbits and then
    pairing each orbit with the one holding (theta d, -s).  That pairing is
    the reverse walk only where sigma(d) = +1; on signature +1 embeddings
    `trace_faces` must give the same walks in the same order."""
    orbits, orbit_of = _reference_face_orbits(p)
    used = [False] * len(orbits)
    faces = []
    for i, orbit in enumerate(orbits):
        if used[i]:
            continue
        d, s = orbit[0]
        j = orbit_of[(p.theta(d), -s)]
        used[i] = used[j] = True
        edges = frozenset(d // 2 for d, _ in orbit)
        corners = tuple(p.vertex_of(p.theta(d)) for d, _ in orbit)
        faces.append(FaceWalk(orbit, edges, corners))
    return faces


# ---------------------------------------------------------------------------
# reference partition statistics
# ---------------------------------------------------------------------------

def _reference_hole_faces(p: EmbeddedPartition, faces):
    """One hole face per boundary component: the traced face whose walk uses
    only that component's boundary edges.  For an untouched circle both sides
    qualify; the first is taken (the count is unaffected by the choice)."""
    holes = []
    for ci, comp in enumerate(p.boundary_components):
        comp_edges = set(comp)
        cands = [fi for fi, f in enumerate(faces) if f.edges <= comp_edges]
        cands = [fi for fi in cands if fi not in holes]
        if not cands:
            raise MalformedEmbedding("no hole face for boundary component %d" % ci)
        holes.append(cands[0])
    return holes


def _reference_components(p):
    """(components, components without an interior or boundary singular
    vertex), by a breadth-first search from each unseen vertex."""
    nbrs = [[] for _ in p.vertices]
    for u, v in p.edge_ends:
        nbrs[u].append(v)
        nbrs[v].append(u)
    seen = set()
    count = circles = 0
    for s in range(len(p.vertices)):
        if s in seen:
            continue
        seen.add(s)
        queue = [s]
        for x in queue:
            for y in nbrs[x]:
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        count += 1
        circles += all(p.vertices[x].kind not in (INTERIOR, BOUNDARY)
                       for x in queue)
    return count, circles


def reference_partition_stats(p):
    """PartitionStats traced afresh on every call, kept on nothing; the
    cached `partition_stats` must give equal stats."""
    faces = trace_faces(p)
    F = len(faces)
    c, circles = _reference_components(p)
    chi = len(p.vertices) - p.n_edges + F - 2 * (c - 1)
    defect = chi - p.surface.closed_model_euler()

    regions = F - (c - 1)
    b0 = p.surface.boundary_components
    if b0:
        _reference_hole_faces(p, faces)  # existence check
        kappa = regions - b0
    elif p.surface.param == 0 and p.surface.orientable:
        kappa = regions
    else:
        kappa = regions - max(0, defect) // 2
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
                          reference_locally_disconnected(p, faces), circles)


def reference_verify_euler(p):
    """(relation, predicted, passed) by the surface kind: 1 + beta + sigma
    on the sphere and planar domains, omega + beta + sigma on the Moebius
    strip, and the inequality kappa >= chi + sigma elsewhere, from the
    reference stats."""
    st = reference_partition_stats(p)
    kind, param = p.surface.kind, p.surface.param
    if kind == "PlanarDomain" or (kind == "ClosedOrientable" and param == 0):
        predicted = 1 + st.beta + st.sigma
    elif kind == "MoebiusStrip":
        predicted = st.omega + st.beta + st.sigma
    else:
        chi = 2 - 2 * param if kind == "ClosedOrientable" else 2 - param
        predicted = chi + st.sigma
        return "inequality", predicted, st.kappa >= predicted
    return "equality", predicted, st.kappa == predicted


def reference_locally_disconnected(p, faces):
    """Singular vertices where some face's wedges fall into two or more
    sectors.  Wedge j at v lies between rotation darts j and j + 1; two
    wedges of one face on either side of a dart are one sector, so a sector
    starts at each wedge of the face whose predecessor is not the face's."""
    pos = {d: (vid, i) for vid, rot in p.rotation.items()
           for i, d in enumerate(rot)}
    bad = set()
    for f in faces:
        wedges = {}
        for d, s in f.states:
            vid, i = pos[p.theta(d)]
            n = len(p.rotation[vid])
            j = i if s * p.edge_signature[d // 2] > 0 else (i - 1) % n
            wedges.setdefault(vid, set()).add(j)
        for vid, ws in wedges.items():
            n = len(p.rotation[vid])
            sectors = sum(1 for j in ws if (j - 1) % n not in ws) or 1
            if sectors >= 2 and p.vertices[vid].kind in (INTERIOR, BOUNDARY):
                bad.add(vid)
    return tuple(sorted(bad))


# ---------------------------------------------------------------------------
# reference normalization
# ---------------------------------------------------------------------------

def _reference_violating_vertices(p):
    """Singular vertices some face visits in two or more rotation corners."""
    faces = trace_faces(p)
    bad = set()
    for f in faces:
        seen = {}
        for v in f.corners:
            seen[v] = seen.get(v, 0) + 1
        for v, n in seen.items():
            if n >= 2 and p.vertices[v].kind in (INTERIOR, BOUNDARY):
                bad.add(v)
    return sorted(bad)


def _reference_drop_vertex(m, vid):
    del m.vertices[vid]

    def ren(x):
        return x - 1 if x > vid else x

    m.vertices = [PartitionVertex(i, v.kind, nu=v.nu, rho=v.rho,
                                  component=v.component)
                  for i, v in enumerate(m.vertices)]
    m.edge_ends = [(ren(u), ren(v)) for u, v in m.edge_ends]
    m.rotation = {ren(v): r for v, r in m.rotation.items()}


def reference_normalize(p):
    """Normalization to a fixed point: blow up the lowest vertex that some
    face visits in two corners, rebuild, trace again.  It never terminates
    on a partition with a bridge, whose face visits both ends twice after
    any number of blow-ups; `normalize` must give the same partition on
    every input this one normalizes."""
    current = dataclasses.replace(p, nodal=False) if p.nodal else p
    for _ in range(len(p.vertices) + p.n_edges + 4):
        bad = _reference_violating_vertices(current)
        if not bad:
            return current
        m = PartitionBuilder.from_partition(current)
        vid = bad[0]
        if current.vertices[vid].kind == INTERIOR:
            _blow_up_interior(m, vid)
        else:
            _blow_up_boundary(m, vid)
        _reference_drop_vertex(m, vid)
        current = m.build()
    raise MalformedEmbedding("normalization did not terminate")
