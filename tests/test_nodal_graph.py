"""Multigraph counts and loop/parallel-edge removal."""

import numpy as np
import pytest

import helpers
from nodalkit.errors import MalformedEmbedding
from nodalkit import partition
from nodalkit.nodal_graph import (MultigraphCounts, build_multigraph,
                                  simplify_to_graph)
from nodalkit.partition import partition_stats


def test_counts_figure_eight():
    mc = build_multigraph(helpers.figure_eight())
    assert (mc.alpha0, mc.alpha1, mc.e, mc.c) == (1, 2, 0, 1)
    assert mc.r == 3


def test_counts_circle():
    mc = build_multigraph(helpers.circle_on_sphere())
    assert (mc.alpha0, mc.alpha1, mc.e) == (1, 1, 1)
    assert mc.r == 2


def test_counts_disk_diameter():
    mc = build_multigraph(helpers.disk_with_diameter())
    assert (mc.alpha0, mc.alpha1) == (2, 3)
    assert mc.r == 2


def test_alpha_difference_is_sigma():
    rng = np.random.default_rng(5)
    for i in range(50):
        p = helpers.random_planar_partition(rng, (None, 0, 1)[i % 3])
        if any(v.kind == "Added" for v in p.vertices):
            continue
        mc = build_multigraph(p)
        st = partition_stats(p)
        assert mc.alpha1 - mc.alpha0 == st.sigma


def test_simplify_properties():
    rng = np.random.default_rng(6)
    cases = [helpers.figure_eight(), helpers.circle_on_sphere(),
             helpers.disk_with_diameter(), helpers.theta_graph()]
    cases += [helpers.random_planar_partition(rng, (None, 0)[i % 2])
              for i in range(20)]
    for p in cases:
        out, counts = simplify_to_graph(p)
        # simple graph: no loops, no parallel edges
        seen = set()
        for u, v in out.edge_ends:
            assert u != v
            key = (min(u, v), max(u, v))
            assert key not in seen
            seen.add(key)
        # invariants preserved
        assert (out.n_edges - len(out.vertices)
                == p.n_edges - len(p.vertices))
        assert counts.r == partition_stats(p).kappa
        # planar identity r = alpha1 - alpha0 + c + 1 on connected sphere cases
        if counts.c == 1 and not p.surface.has_boundary:
            assert counts.r == counts.alpha1 - counts.alpha0 + 2


def test_simplify_idempotent():
    out, _ = simplify_to_graph(helpers.figure_eight())
    out2, _ = simplify_to_graph(out)
    assert len(out2.vertices) == len(out.vertices)
    assert out2.n_edges == out.n_edges


def test_deterministic():
    a, ca = simplify_to_graph(helpers.figure_eight())
    b, cb = simplify_to_graph(helpers.figure_eight())
    assert a.to_json() == b.to_json()
    assert ca == cb


def test_rejects_added_vertices():
    out, _ = simplify_to_graph(helpers.figure_eight())
    with pytest.raises(MalformedEmbedding):
        build_multigraph(out)


def test_simplify_returns_simple_input_untraced(monkeypatch):
    p = helpers.random_planar_partition(np.random.default_rng(7))
    st = partition_stats(p)
    traced = []
    monkeypatch.setattr(partition, "trace_faces", traced.append)
    out, counts = simplify_to_graph(p)
    assert out is p and traced == []
    assert counts == MultigraphCounts(len(p.vertices), p.n_edges, 0,
                                      st.components, st.kappa)
