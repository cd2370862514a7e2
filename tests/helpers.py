"""Shared fixture builders for the test suite.

Hand-built embedded partitions (circle, theta, figure-eight, disk with a
diameter, Moebius-strip curves) plus a random planar-partition generator
based on Delaunay triangulations of random point sets.  Also the per-site
loop assembler and the eval-based potential that the array assembler and
`parse_potential` are checked against bit for bit, and a 1-D interval
operator used as an oracle for the ghost-cell treatment.
"""

import ast
import math

import numpy as np
import scipy.sparse
from scipy.spatial import Delaunay

from nodalkit.errors import DegenerateGrid
from nodalkit.partition import PartitionBuilder, dart
from nodalkit.spectral import (DIRICHLET, NEUMANN, ROBIN, Rectangle,
                               _domain_mask)
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
        if problem.bc != DIRICHLET:
            raise ValueError("masked domains support Dirichlet conditions only")
        mask, origin = _domain_mask(dom, h)
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
