"""Tests for embedded partitions: Euler counts, parity, normalization,
face tracing, and statistics computed once per partition.

Normalization is checked against the iterative reference in
tests/helpers.py, on two corpus partitions with a bridge kept as JSON
fixtures in tests/data/, and on random partitions with pendant trees.

Random sphere / planar-domain partitions come from Delaunay triangulations
(tests/helpers.py); the Euler identity must hold exactly on every sample.
Random signed embeddings (any rotations and signatures, loops and parallel
edges allowed) check that face tracing sees through a local orientation
switch.
"""

import dataclasses
import json
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import helpers
from nodalkit import partition
from nodalkit.errors import MalformedEmbedding
from nodalkit.nodal_graph import build_multigraph, simplify_to_graph
from nodalkit.partition import (ADDED, BOUNDARY, CIRCLE, INTERIOR,
                                EmbeddedPartition, FaceWalk,
                                PartitionBuilder, PartitionVertex,
                                check_boundary_parity, dart, normalize,
                                partition_stats, trace_faces, verify_euler)
from nodalkit.surface import SurfaceSpec


def test_circle_on_sphere():
    p = helpers.circle_on_sphere()
    st_ = partition_stats(p)
    assert (st_.kappa, st_.beta, st_.sigma) == (2, 1, 0)
    assert verify_euler(p).passed


def test_theta_graph():
    p = helpers.theta_graph()
    st_ = partition_stats(p)
    assert st_.kappa == 3
    assert st_.sigma == 1  # two nu=3 vertices contribute 1/2 each
    assert st_.faces == 3  # V - E + F = 2 - 3 + 3 = 2
    assert verify_euler(p).passed


def test_figure_eight():
    p = helpers.figure_eight()
    st_ = partition_stats(p)
    assert st_.kappa == 3 and st_.sigma == 1
    assert verify_euler(p).passed


def test_disk_with_diameter():
    p = helpers.disk_with_diameter()
    st_ = partition_stats(p)
    assert st_.kappa == 2
    assert st_.beta == 0
    assert st_.sigma_b == 1  # two rho=1 points, 1/2 each
    assert verify_euler(p).passed


def test_boundary_parity():
    reports = check_boundary_parity(helpers.disk_with_diameter())
    assert len(reports) == 1
    assert reports[0]["rhoSum"] == 2 and reports[0]["met"] and reports[0]["passed"]
    # a closed surface has no boundary components to check
    assert check_boundary_parity(helpers.circle_on_sphere()) == []
    # a circle marker boundary (no singular points) is fine: component not met
    reports = check_boundary_parity(helpers.moebius_core_circle())
    assert reports[0]["met"] is False and reports[0]["passed"]
    # odd rho sum must fail
    b = PartitionBuilder(SurfaceSpec.planar_domain(0), nodal=True)
    z = b.boundary_vertex(1, 0)
    bb = b.edge(z, z, boundary=True, component=0)
    lp = b.edge(z, z)
    b.set_rotation(z, [dart(bb, 0), dart(lp, 0), dart(lp, 1), dart(bb, 1)])
    with pytest.raises(MalformedEmbedding):
        b.build()  # rho=1 but two non-boundary darts attached


def test_moebius_fixtures():
    core, parallel, arc = helpers.moebius_fixtures()
    sc = partition_stats(core)
    assert (sc.kappa, sc.beta, sc.omega) == (1, 1, 0)
    sp = partition_stats(parallel)
    assert (sp.kappa, sp.beta, sp.omega) == (2, 1, 1)
    sa = partition_stats(arc)
    assert (sa.kappa, sa.omega) == (2, 1) and sa.sigma_b == 1
    for p in (core, parallel, arc):
        assert verify_euler(p).passed


def test_torus_non_separating_circle():
    b = PartitionBuilder(SurfaceSpec.closed_orientable(1), nodal=True)
    c = b.circle()
    b.edge(c, c)
    p = b.build()
    st_ = partition_stats(p)
    assert st_.kappa == 1  # complement is one annulus
    r = verify_euler(p)
    assert r.passed  # kappa >= chi + sigma = 0


def test_random_partitions_exact():
    rng = np.random.default_rng(20260824)
    start = time.perf_counter()
    for i in range(1000):
        holes = (None, 0, 2)[i % 3]
        p = helpers.random_planar_partition(rng, planar_holes=holes)
        r = verify_euler(p)
        assert r.passed, (i, r.__dict__)
        st_ = partition_stats(p)
        assert st_.kappa >= 1
    assert time.perf_counter() - start < 5


def test_normalize_preserves_invariants():
    rng = np.random.default_rng(99)
    for i in range(100):
        p = helpers.random_planar_partition(rng, (None, 0)[i % 2])
        before = partition_stats(p)
        n = normalize(p)
        after = partition_stats(n)
        assert after.beta == before.beta
        assert after.kappa - after.sigma == before.kappa - before.sigma
        assert after.omega == before.omega
        assert verify_euler(n).passed
        m = normalize(n)
        assert len(m.vertices) == len(n.vertices)


def test_normalize_figure_eight():
    p = helpers.figure_eight()
    n = normalize(p)
    st_ = partition_stats(n)
    # the nu=4 vertex with a pinched face blows up into a small circle
    assert (st_.kappa, st_.sigma) == (4, 2)
    assert verify_euler(n).passed
    assert len(normalize(n).vertices) == len(n.vertices)


def test_normalize_boundary_tangency():
    p = helpers.disk_tangent_loop()
    before = partition_stats(p)
    assert before.kappa == 2
    n = normalize(p)
    after = partition_stats(n)
    assert after.beta == before.beta
    assert after.kappa - after.sigma == before.kappa - before.sigma
    assert verify_euler(n).passed


def test_normalize_moebius_invariants():
    for p in helpers.moebius_fixtures():
        before = partition_stats(p)
        n = normalize(p)
        after = partition_stats(n)
        assert (after.beta, after.omega) == (before.beta, before.omega)
        assert after.kappa - after.sigma == before.kappa - before.sigma


def test_face_trace_counts():
    assert partition_stats(helpers.circle_on_sphere()).faces == 2
    assert partition_stats(helpers.figure_eight()).faces == 3
    walks = trace_faces(helpers.theta_graph())
    assert len(walks) == 3
    assert sum(len(w.corners) for w in walks) == 2 * 3  # each dart one corner


def test_degree_invariants_enforced():
    b = PartitionBuilder(SurfaceSpec.sphere())
    u = b.interior(3)
    b.edge(u, u)
    with pytest.raises(MalformedEmbedding):
        b.build()  # nu=3 but degree 2
    b = PartitionBuilder(SurfaceSpec.sphere(), nodal=True)
    u = b.interior(3)
    v = b.interior(3)
    for _ in range(3):
        b.edge(u, v)
    b.set_rotation(u, [dart(0, 0), dart(1, 0), dart(2, 0)])
    b.set_rotation(v, [dart(0, 1), dart(2, 1), dart(1, 1)])
    with pytest.raises(MalformedEmbedding):
        b.build()  # nodal partitions need even interior valency >= 4


def test_builder_errors_are_malformed_embedding():
    b = PartitionBuilder(SurfaceSpec.sphere())
    m = b.circle()
    with pytest.raises(MalformedEmbedding, match="component 0"):
        b.edge(m, m, boundary=True)  # a sphere has no boundary
    b = PartitionBuilder(SurfaceSpec.planar_domain(0))
    m = b.circle()
    with pytest.raises(MalformedEmbedding, match="component 3"):
        b.edge(m, m, boundary=True, component=3)
    b.edge(m, 5)
    with pytest.raises(MalformedEmbedding, match="not a vertex id"):
        b.build()


def test_invalid_partition_cannot_be_constructed():
    p = helpers.theta_graph()
    rotation = dict(p.rotation)
    rotation[1] = rotation[0]  # the darts at u listed again at v
    with pytest.raises(MalformedEmbedding, match="in two rotations"):
        EmbeddedPartition(p.surface, p.vertices, p.edge_ends, p.edge_boundary,
                          p.edge_signature, rotation, p.boundary_components)
    # boundary vertices naming a component their boundary edges are not on
    p = helpers.disk_with_diameter()
    vertices = [dataclasses.replace(v, component=3) for v in p.vertices]
    with pytest.raises(MalformedEmbedding, match="component 3"):
        EmbeddedPartition(p.surface, vertices, p.edge_ends, p.edge_boundary,
                          p.edge_signature, p.rotation, p.boundary_components)
    # a signature other than +-1 would keep the face trace from closing up
    for bad, message in ((-2, "edge signature must be >= -1 and an integer"),
                         (0, r"edge signatures must be \+1 or -1")):
        with pytest.raises(MalformedEmbedding, match=message):
            EmbeddedPartition(p.surface, p.vertices, p.edge_ends,
                              p.edge_boundary, [1, bad, 1], p.rotation,
                              p.boundary_components)


# ---------------------------------------------------------------------------
# boundary components, checked at construction
# ---------------------------------------------------------------------------

def _fields(p, **changes):
    """The constructor arguments of p, with some of them replaced."""
    f = {fd.name: getattr(p, fd.name) for fd in dataclasses.fields(p)}
    f.update(changes)
    return f


def _circles(surface, components):
    """A builder with a circle marker and a boundary loop on it for each
    entry of components, on the component the entry names."""
    b = PartitionBuilder(surface)
    for ci in components:
        m = b.circle()
        b.edge(m, m, boundary=True, component=ci)
    return b


def _empty_component():
    b = PartitionBuilder(SurfaceSpec.planar_domain(0), nodal=True)
    c = b.circle()
    b.edge(c, c)                    # a nodal loop; the boundary lists nothing
    b.build()


def _three_edges_at_a_vertex():
    b = PartitionBuilder(SurfaceSpec.planar_domain(0))
    u, v = b.added(), b.added()
    for _ in range(3):
        b.edge(u, v, boundary=True)
    b.set_rotation(u, [dart(0, 0), dart(1, 0), dart(2, 0)])
    b.set_rotation(v, [dart(0, 1), dart(2, 1), dart(1, 1)])
    b.build()


def _vertex_names_another_component():
    b = PartitionBuilder(SurfaceSpec.planar_domain(1))
    x = b.boundary_vertex(1, component=1)       # its edges lie on 0
    y = b.boundary_vertex(1, component=0)
    b1 = b.edge(x, y, boundary=True, component=0)
    b2 = b.edge(y, x, boundary=True, component=0)
    d0 = b.edge(x, y)
    b.set_rotation(x, [dart(b1, 0), dart(d0, 0), dart(b2, 1)])
    b.set_rotation(y, [dart(b2, 0), dart(d0, 1), dart(b1, 1)])
    m = b.circle()
    b.edge(m, m, boundary=True, component=1)
    b.build()


@pytest.mark.parametrize("build, match", [
    (lambda: EmbeddedPartition(**_fields(
        helpers.disk_with_diameter(), boundary_components=[[0, 1], []])),
     "expected 1 boundary components, got 2"),
    (lambda: EmbeddedPartition(**_fields(
        helpers.theta_graph(), edge_boundary=[True, False, False])),
     "partition the boundary edges"),
    (lambda: EmbeddedPartition(**_fields(
        helpers.disk_with_diameter(), boundary_components=[[0, 1, 2]])),
     "partition the boundary edges"),
    (lambda: EmbeddedPartition(**_fields(
        _circles(SurfaceSpec.planar_domain(1), [0, 1]).build(),
        boundary_components=[[0, 1], [1]])),
     "partition the boundary edges"),
    (_empty_component, "component 0 is not one non-empty cycle"),
    (lambda: _circles(SurfaceSpec.planar_domain(0), [0, 0]).build(),
     "component 0 is not one non-empty cycle"),
    (_three_edges_at_a_vertex, "component 0 is not one non-empty cycle"),
    (_vertex_names_another_component, "vertex 0 says component 1"),
], ids=["count", "closed-surface", "non-boundary-edge", "edge-in-two",
        "empty", "two-loops", "three-edges-at-a-vertex", "other-component"])
def test_boundary_components_rejected(build, match):
    with pytest.raises(MalformedEmbedding, match=match):
        build()


def _mutant(p, rng):
    """The constructor arguments of p after one or two seeded edits of its
    boundary data: move or drop a component entry, list an edge (again) in
    a component or a new one, flip an edge's boundary flag (half the time
    adding or dropping its entry too), move one end of an edge (and its
    dart) to another vertex, or relabel a vertex's component (a vertex
    that is not a boundary vertex keeps component 0, which its kind
    requires).  A move or drop with no entry to take relabels a vertex
    instead."""
    f = _fields(p, vertices=list(p.vertices), edge_ends=list(p.edge_ends),
                edge_boundary=list(p.edge_boundary),
                rotation={v: list(r) for v, r in p.rotation.items()},
                boundary_components=[list(c) for c in p.boundary_components])
    comps, ne, nv = f["boundary_components"], p.n_edges, len(p.vertices)

    def pick(n):
        return int(rng.integers(n))
    for _ in range(1 + pick(2)):
        op = pick(6)
        full = [c for c in comps if c]
        if op == 0 and full:                            # move an entry
            c = full[pick(len(full))]
            entry = c.pop(pick(len(c)))
            target = comps[pick(len(comps))]
            target.insert(pick(len(target) + 1), entry)
        elif op == 1 and full:                          # drop an entry
            c = full[pick(len(full))]
            c.pop(pick(len(c)))
        elif op == 2:                                   # list an edge
            i = pick(len(comps) + 1)
            if i == len(comps):
                comps.append([])
            comps[i].append(pick(ne))
        elif op == 3:                                   # flip a boundary flag
            e = pick(ne)
            f["edge_boundary"][e] = not f["edge_boundary"][e]
            if pick(2) and comps:       # and keep the components a partition
                if f["edge_boundary"][e]:
                    comps[pick(len(comps))].append(e)
                else:
                    for c in comps:
                        if e in c:
                            c.remove(e)
        elif op == 4:                                   # retarget an edge end
            d, w = pick(2 * ne), pick(nv)
            e = d // 2
            old = f["edge_ends"][e][d % 2]
            f["rotation"][old].remove(d)
            rot = f["rotation"].setdefault(w, [])
            rot.insert(pick(len(rot) + 1), d)
            ends = list(f["edge_ends"][e])
            ends[d % 2] = w
            f["edge_ends"][e] = tuple(ends)
        else:                                           # relabel a vertex
            v, component = pick(nv), pick(len(comps) + 1)
            if f["vertices"][v].kind == BOUNDARY:
                f["vertices"][v] = dataclasses.replace(f["vertices"][v],
                                                       component=component)
    f["rotation"] = {v: tuple(r) for v, r in f["rotation"].items()}
    return f


def _stats_or_message(stats):
    try:
        return stats()
    except MalformedEmbedding as exc:
        return str(exc)


def test_boundary_checks_match_reference():
    # EmbeddedPartition accepts exactly what the reference validator accepts,
    # apart from empty boundary components, with the same stats
    rng = np.random.default_rng(29)
    bases = _fixtures() + [normalize(helpers.disk_tangent_loop())] + [
        helpers.random_planar_partition(rng, i % 3) for i in range(20)]
    seen = Counter()
    for i, p in enumerate(bases):
        for j in range(40):
            f = _mutant(p, rng)
            ref = helpers.UncheckedPartition(**f)
            try:
                helpers.reference_validate(ref)
                want = all(f["boundary_components"])
                seen["empty" if not want else "accepted"] += 1
            except MalformedEmbedding:
                want = False
                seen["rejected"] += 1
            try:
                q = EmbeddedPartition(**f)
            except MalformedEmbedding:
                assert not want, (i, j)
                continue
            assert want, (i, j)
            assert _stats_or_message(lambda: q.stats) == _stats_or_message(
                lambda: helpers.reference_partition_stats(ref)), (i, j)
    assert min(seen.values()) >= 10 and len(seen) == 3, seen


def test_from_partition_copies():
    for p in [helpers.theta_graph(), helpers.disk_with_diameter(),
              helpers.moebius_separating_arc()]:
        before = json.dumps(p.to_json())
        b = PartitionBuilder.from_partition(p)
        q = b.build()
        assert json.dumps(q.to_json()) == before
        b.added()
        b.edge(0, 0)
        b.rotation[0].append(0)
        assert json.dumps(p.to_json()) == before
        assert json.dumps(q.to_json()) == before  # build() shares no list
        q.validate()


def test_json_round_trip():
    for p in [helpers.circle_on_sphere(), helpers.disk_with_diameter(),
              helpers.moebius_parallel_circle()]:
        blob = json.dumps(p.to_json())
        q = EmbeddedPartition.from_json(json.loads(blob))
        assert partition_stats(q).to_json() == partition_stats(p).to_json()


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_euler_property(seed):
    rng = np.random.default_rng(seed)
    p = helpers.random_planar_partition(rng, planar_holes=seed % 3 - 1
                                        if seed % 3 else None)
    assert verify_euler(p).passed


def _fixtures():
    torus = PartitionBuilder(SurfaceSpec.closed_orientable(1), nodal=True)
    c = torus.circle()
    torus.edge(c, c)
    return [helpers.circle_on_sphere(), helpers.theta_graph(),
            helpers.figure_eight(), helpers.disk_with_diameter(),
            helpers.disk_tangent_loop(), torus.build()] + \
        helpers.moebius_fixtures()


def test_trace_faces_matches_reference():
    # FaceWalk equality compares states, edges and corners
    for p in _fixtures():
        assert trace_faces(p) == helpers.reference_trace_faces(p)
    rng = np.random.default_rng(31)
    for i in range(200):
        p = helpers.random_planar_partition(rng, (None, 0, 1, 2)[i % 4])
        assert trace_faces(p) == helpers.reference_trace_faces(p), i


def _random_signed_embedding(rng):
    """Any rotations and signatures on a random multigraph with loops."""
    n = int(rng.integers(1, 5))
    m = int(rng.integers(1, 7))
    ends = [tuple(int(x) for x in rng.integers(0, n, 2)) for _ in range(m)]
    used = sorted({x for e in ends for x in e})
    b = PartitionBuilder(SurfaceSpec.sphere())
    vid = {x: b.added() for x in used}
    at = {vid[x]: [] for x in used}
    for u, v in ends:
        e = b.edge(vid[u], vid[v], signature=int(rng.choice([1, -1])))
        at[vid[u]].append(dart(e, 0))
        at[vid[v]].append(dart(e, 1))
    for v, darts in at.items():
        b.set_rotation(v, [darts[i] for i in rng.permutation(len(darts))])
    return b.build()


def _switch(p, v):
    """Local orientation switch at v: reverse its rotation and negate the
    signature of its non-loop edges.  The embedding stays the same."""
    rotation = dict(p.rotation)
    rotation[v] = tuple(reversed(rotation[v]))
    sig = [-s if (v in ends and ends[0] != ends[1]) else s
           for ends, s in zip(p.edge_ends, p.edge_signature)]
    return dataclasses.replace(p, rotation=rotation, edge_signature=sig)


def _face_key(faces):
    return sorted((sorted(d // 2 for d, _ in f.states), sorted(f.corners))
                  for f in faces)


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=100, deadline=None)
def test_local_switch_keeps_faces(seed):
    rng = np.random.default_rng(seed)
    p = _random_signed_embedding(rng)
    v = int(rng.integers(0, len(p.vertices)))
    assert _face_key(trace_faces(_switch(p, v))) == _face_key(trace_faces(p))


def test_twisted_theta_on_torus():
    # all three edges twisted: a switch at one end untwists them and leaves
    # the same cyclic order at both ends, the one-face torus embedding
    p = dataclasses.replace(helpers.theta_graph(),
                            surface=SurfaceSpec.closed_orientable(1),
                            edge_signature=[-1, -1, -1])
    st_ = partition_stats(p)
    assert (st_.faces, st_.kappa, st_.defect) == (1, 1, 0)


def test_twisted_pendant_edge():
    b = PartitionBuilder(SurfaceSpec.sphere())
    u = b.interior(3)
    w = b.added()
    loop = b.edge(u, u)
    pendant = b.edge(u, w, signature=-1)
    b.set_rotation(u, [dart(loop, 0), dart(loop, 1), dart(pendant, 0)])
    faces = trace_faces(b.build())
    assert sorted(f.degree for f in faces) == [1, 3]


# ---------------------------------------------------------------------------
# statistics computed once per partition
# ---------------------------------------------------------------------------

def _corpus():
    """The combinatorics benchmark's partition corpus: 1 000 partitions drawn
    from seed 1, cycling through no holes, 0 holes and 2 holes."""
    rng = np.random.default_rng(1)
    holes = (None, 0, 2)
    return [helpers.random_planar_partition(rng, holes[i % 3])
            for i in range(1000)]


def test_partition_stats_match_reference():
    for i, p in enumerate(_fixtures() + _corpus()):
        assert partition_stats(p) == helpers.reference_partition_stats(p), i
        assert partition_stats(p) is p.stats


def _euler_or_message(p, verify):
    try:
        r = verify(p)
    except MalformedEmbedding as exc:
        return str(exc)
    if not isinstance(r, tuple):
        r = (r.relation, r.predicted, r.passed)
    return r + (type(r[1]),)


def test_kappa_and_euler_match_reference_on_every_surface():
    # one kappa formula and one Euler equality, against the formulas by
    # surface kind; on closed surfaces of genus >= 1 and with cross-caps
    # the floored defect term is what keeps kappa a lower bound
    closed = helpers.closed_surface_fixtures()
    for i, p in enumerate(_fixtures() + closed):
        assert _stats_or_message(lambda: partition_stats(p)) == \
            _stats_or_message(lambda: helpers.reference_partition_stats(p)), i
        assert _euler_or_message(p, verify_euler) == \
            _euler_or_message(p, helpers.reference_verify_euler), i
    # the fixtures reach every case: a defect of 2 or more, omega = 1, no
    # region count, and a failed inequality
    reports = [_euler_or_message(p, verify_euler) for p in closed]
    stats = [p.stats for p, r in zip(closed, reports) if r[0] == "inequality"]
    assert max(st_.defect for st_ in stats) >= 2
    assert any(st_.omega for st_ in stats) and len(stats) < len(closed)
    assert not all(r[2] for r in reports if r[0] == "inequality")


@pytest.fixture
def traced(monkeypatch):
    """The partitions `trace_faces` is called on, in call order."""
    calls = []

    def counting(p):
        calls.append(p)
        return trace_faces(p)
    monkeypatch.setattr(partition, "trace_faces", counting)
    return calls


def test_stats_traced_once_per_partition(traced):
    p = helpers.figure_eight()
    rep = verify_euler(p)
    assert partition_stats(p) is rep.stats
    simplify_to_graph(p)
    assert build_multigraph(p).r == rep.kappa
    # simplify_to_graph also traces the simple partition it builds, once
    assert sum(q is p for q in traced) == 1
    assert len(traced) == 2


def test_replace_gets_its_own_stats(traced):
    p = helpers.figure_eight()
    st_ = partition_stats(p)
    q = dataclasses.replace(p, nodal=False)
    assert "stats" not in vars(q)
    assert partition_stats(q) == st_ and partition_stats(q) is not st_
    assert [id(x) for x in traced] == [id(p), id(q)]
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.nodal = False


def test_stats_failure_not_kept(monkeypatch):
    p = helpers.theta_graph()
    calls = []

    def broken(q):
        calls.append(q)
        raise MalformedEmbedding("face tracing did not close up")
    monkeypatch.setattr(partition, "trace_faces", broken)
    for _ in range(2):
        with pytest.raises(MalformedEmbedding):
            partition_stats(p)
    assert len(calls) == 2 and "stats" not in vars(p)
    monkeypatch.undo()
    assert partition_stats(p) == helpers.reference_partition_stats(p)


def _holds_face_walk(value):
    if isinstance(value, FaceWalk):
        return True
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return any(_holds_face_walk(x) for x in value)
    return False


def test_cached_stats_hold_no_face_walks():
    for p in _fixtures():
        partition_stats(p)
        assert set(vars(p)) == {f.name for f in dataclasses.fields(p)} | {"stats"}
        assert not any(_holds_face_walk(v) for v in vars(p).values())


# ---------------------------------------------------------------------------
# normalization in one pass, bridges included
# ---------------------------------------------------------------------------

DATA = Path(__file__).resolve().parent / "data"


def _invariants(st_):
    return (st_.beta, st_.kappa - st_.sigma, st_.omega)


def test_normalize_matches_reference():
    failed = []
    for i, p in enumerate(_corpus()):
        try:
            want = helpers.reference_normalize(p)
        except MalformedEmbedding:
            failed.append(i)
            continue
        assert normalize(p).to_json() == want.to_json(), i
    # the reference never terminates on a partition with a bridge
    assert failed == [330, 833]


@pytest.mark.parametrize("index, stats", [
    (330, {"kappa": 10, "beta": 1, "sigmaI": "8", "sigmaB": "0", "sigma": "8",
           "omega": 0, "b0Boundary": 0, "faces": 10, "components": 1,
           "regions": 10, "defect": 0}),
    (833, {"kappa": 12, "beta": 1, "sigmaI": "10", "sigmaB": "0",
           "sigma": "10", "omega": 0, "b0Boundary": 3, "faces": 18,
           "components": 4, "regions": 15, "defect": 0}),
])
def test_normalize_bridge_fixtures(index, stats):
    """Corpus partitions 330 and 833 (seed 1): the face along both sides of
    a bridge meets each end in one sector, so nothing is blown up."""
    obj = json.loads((DATA / ("bridge_%d.json" % index)).read_text())
    p = EmbeddedPartition.from_json(obj)
    assert p.to_json() == _corpus()[index].to_json()
    with pytest.raises(MalformedEmbedding, match="did not terminate"):
        helpers.reference_normalize(p)
    n = normalize(p)
    assert partition_stats(n).to_json() == stats
    assert _invariants(partition_stats(n)) == _invariants(partition_stats(p))
    assert partition_stats(n).locally_disconnected == ()
    assert n.to_json() == p.to_json() == normalize(n).to_json()


def _with_pendant_trees(p, rng, n_edges):
    """p with n_edges pendant edges, each added from a random interior or
    added vertex (earlier leaves included) into a random gap of its
    rotation; every one of them is a bridge."""
    m = PartitionBuilder.from_partition(p)
    m.nodal = False
    for _ in range(n_edges):
        ids = [v.id for v in m.vertices if v.kind in (INTERIOR, ADDED)]
        v = ids[int(rng.integers(len(ids)))]
        w = m.added()
        e = m.edge(v, w)
        m.rotation[w] = [dart(e, 1)]
        rot = m.rotation[v]
        rot.insert(int(rng.integers(len(rot) + 1)), dart(e, 0))
        if len(rot) >= 3:
            m.vertices[v] = PartitionVertex(v, INTERIOR, nu=len(rot))
    return m.build()


@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.integers(min_value=1, max_value=8))
@settings(max_examples=100, deadline=None)
def test_normalize_with_pendant_trees(seed, n_edges):
    rng = np.random.default_rng(seed)
    kind = seed % 5
    base = (helpers.figure_eight() if kind == 3 else
            helpers.theta_graph() if kind == 4 else
            helpers.random_planar_partition(rng, (None, 0, 2)[kind]))
    p = _with_pendant_trees(base, rng, n_edges)
    assert partition_stats(p) == helpers.reference_partition_stats(p)
    n = normalize(p)
    assert _invariants(partition_stats(n)) == _invariants(partition_stats(p))
    assert partition_stats(n).locally_disconnected == ()
    assert normalize(n).to_json() == n.to_json()


def test_normalize_traces_no_input(traced):
    p = EmbeddedPartition.from_json(
        json.loads((DATA / "bridge_330.json").read_text()))
    partition_stats(p)
    traced.clear()
    assert normalize(p) is p
    assert traced == []
    # a blow-up: only the result is traced, for the stats its callers read
    f = helpers.figure_eight()
    partition_stats(f)
    traced.clear()
    n = normalize(f)
    assert partition_stats(n).locally_disconnected == ()
    assert [id(q) for q in traced] == [id(n)]


def test_partition_stores_the_builders_types():
    # a partition made from JSON-like lists is the one the builder makes:
    # edge ends and rotations as tuples of ints
    p = helpers.theta_graph()
    q = EmbeddedPartition(p.surface, list(p.vertices),
                          [list(e) for e in p.edge_ends],
                          list(p.edge_boundary), list(p.edge_signature),
                          {v: list(r) for v, r in p.rotation.items()},
                          [list(c) for c in p.boundary_components])
    assert q == p and type(q.edge_ends[0]) is tuple
    assert EmbeddedPartition.from_json(p.to_json()) == p


@pytest.mark.parametrize("change, message", [
    (dict(edge_ends=[(0, 1), (0, 1.0), (0, 1)]), "edge end must be >= 0"),
    (dict(edge_ends=[(0, 1), (0, 1, 1), (0, 1)]), "two ends"),
    (dict(edge_ends=[(0, 1), 5, (0, 1)]), "edge ends must be given in lists"),
    (dict(edge_signature=[1, True, 1]),
     "edge signature must be >= -1 and an integer, got True"),
    (dict(edge_boundary=[False, 0, False]), "must be true or false"),
    (dict(nodal=1), "must be true or false"),
    (dict(rotation={0: (0, 2, 4), 1.0: (1, 5, 3)}), "rotation vertex"),
    (dict(rotation={0: (0, 2, 4), 1: (1, 5, 3.0)}), "dart must be >= 0"),
    (dict(boundary_components=[[0.0]]), "boundary edge must be >= 0"),
    (dict(boundary_components={}), "boundary edges must be given in lists"),
], ids=["float-end", "three-ends", "end-not-a-list", "bool-signature",
        "int-flag", "int-nodal", "float-key", "float-dart",
        "float-component-edge", "components-dict"])
def test_partition_values_are_checked_when_made(change, message):
    # 1.0 and True equal 1, so each once passed the structural checks
    p = helpers.theta_graph()
    with pytest.raises(MalformedEmbedding, match=message):
        dataclasses.replace(p, **change)


@pytest.mark.parametrize("fields, message", [
    (dict(id=0.7), "vertex id must be >= 0 and an integer, got 0.7"),
    (dict(nu=3.9), "vertex nu must be >= 0 and an integer, got 3.9"),
    (dict(rho=True), "vertex rho"), (dict(component=-1), "vertex component"),
    (dict(kind=["x"]), "unknown vertex kind"),
    # to_json drops the fields a kind ignores, so each must hold its default
    (dict(kind=CIRCLE, nu=7, rho=2, component=4),
     "vertex 0: a CircleMarker vertex must have 0 in the fields its kind "
     r"ignores, got PartitionVertex\(id=0, kind='CircleMarker', nu=7, rho=2, "
     r"component=4\)"),
    (dict(kind=BOUNDARY, rho=1, nu=3), "BoundarySingular vertex must have 0"),
    (dict(rho=2), "InteriorSingular vertex must have 0"),
    (dict(component=1), "InteriorSingular vertex must have 0"),
], ids=["id", "nu", "rho", "component", "kind", "circle-fields",
        "boundary-nu", "interior-rho", "interior-component"])
def test_vertex_checks_itself(fields, message):
    with pytest.raises(MalformedEmbedding, match=message):
        PartitionVertex(**dict(dict(id=0, kind=INTERIOR, nu=3), **fields))
