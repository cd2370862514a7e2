"""Seeded random planar partitions for the combinatorics workload.

The benchmark keeps its own copy of the test suite's generator so that a
change to the tests cannot change the benchmark's inputs.  Delaunay-
triangulate a random point set, thin out some edges while keeping every
vertex degree >= 2, and embed with the counter-clockwise rotation read off
the coordinates.  With `planar_holes` set, `planar_holes` + 1 boundary
circles are appended to make a partition of a planar domain.
"""

import numpy as np
from scipy.spatial import Delaunay, QhullError

from nodalkit.partition import PartitionBuilder, dart
from nodalkit.surface import SurfaceSpec


def random_planar_partition(rng, planar_holes=None):
    n = int(rng.integers(6, 15))
    pts = rng.random((n, 2))
    # Delaunay needs non-degenerate input; resample in the rare bad case
    for _ in range(10):
        try:
            tri = Delaunay(pts)
            break
        except QhullError:
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
        if deg[i] < 2:
            raise ValueError("thinning left vertex %d with degree %d"
                             % (i, deg[i]))
        vid[i] = bld.added() if deg[i] == 2 else bld.interior(deg[i])
    incident = {i: [] for i in range(n)}
    for a, b in kept:
        e = bld.edge(vid[a], vid[b])
        incident[a].append((e, 0, b))
        incident[b].append((e, 1, a))
    for i in range(n):
        def angle(item):
            v = pts[item[2]] - pts[i]
            return np.arctan2(v[1], v[0])
        order = sorted(incident[i], key=angle)
        bld.set_rotation(vid[i], [dart(e, end) for e, end, _ in order])
    if planar_holes is not None:
        for comp in range(planar_holes + 1):
            m = bld.circle()
            bld.edge(m, m, boundary=True, component=comp)
    return bld.build()
