import json

import numpy as np
import pytest

from nodalkit.errors import InvalidSurface
from nodalkit.surface import SurfaceSpec, euler_characteristic, parse_surface


def test_euler_characteristics():
    assert euler_characteristic(SurfaceSpec.sphere()) == 2
    assert euler_characteristic(SurfaceSpec.closed_orientable(1)) == 0
    assert euler_characteristic(SurfaceSpec.closed_orientable(2)) == -2
    assert euler_characteristic(SurfaceSpec.closed_non_orientable(1)) == 1
    assert euler_characteristic(SurfaceSpec.closed_non_orientable(2)) == 0
    assert euler_characteristic(SurfaceSpec.planar_domain(0)) == 1
    assert euler_characteristic(SurfaceSpec.planar_domain(3)) == -2
    assert euler_characteristic(SurfaceSpec.moebius_strip()) == 0


def test_boundary_components():
    assert SurfaceSpec.sphere().boundary_components == 0
    assert SurfaceSpec.planar_domain(0).boundary_components == 1
    assert SurfaceSpec.planar_domain(2).boundary_components == 3
    assert SurfaceSpec.moebius_strip().boundary_components == 1
    assert not SurfaceSpec.sphere().has_boundary
    assert SurfaceSpec.moebius_strip().has_boundary


def test_orientability():
    assert SurfaceSpec.closed_orientable(5).orientable
    assert SurfaceSpec.planar_domain(1).orientable
    assert not SurfaceSpec.closed_non_orientable(2).orientable
    assert not SurfaceSpec.moebius_strip().orientable


def test_closed_model_euler():
    # planar domain caps to a sphere, Moebius strip to a projective plane
    assert SurfaceSpec.planar_domain(4).closed_model_euler() == 2
    assert SurfaceSpec.moebius_strip().closed_model_euler() == 1
    assert SurfaceSpec.closed_orientable(2).closed_model_euler() == -2


def test_json_round_trip():
    for s in [SurfaceSpec.sphere(), SurfaceSpec.closed_orientable(3),
              SurfaceSpec.closed_non_orientable(2),
              SurfaceSpec.planar_domain(1), SurfaceSpec.moebius_strip()]:
        blob = json.dumps(s.to_json())
        assert SurfaceSpec.from_json(json.loads(blob)) == s


def test_parse_surface_names():
    assert parse_surface("sphere") == SurfaceSpec.sphere()
    assert parse_surface("torus") == SurfaceSpec.closed_orientable(1)
    assert parse_surface("projective") == SurfaceSpec.closed_non_orientable(1)
    assert parse_surface("klein") == SurfaceSpec.closed_non_orientable(2)
    assert parse_surface("moebius") == SurfaceSpec.moebius_strip()
    assert parse_surface("disk") == SurfaceSpec.planar_domain(0)
    assert parse_surface("annulus") == SurfaceSpec.planar_domain(1)
    assert parse_surface("genus-3") == SurfaceSpec.closed_orientable(3)
    assert parse_surface("crosscaps-4") == SurfaceSpec.closed_non_orientable(4)
    assert parse_surface("planar-2") == SurfaceSpec.planar_domain(2)
    # any other name, and a count that is not a decimal integer, is
    # InvalidSurface
    for name in ("dodecahedron", "genus-x", "genus-", "planar-1.5",
                 "genus---1", "crosscaps-+1"):
        with pytest.raises(InvalidSurface, match="cannot parse"):
            parse_surface(name)
    with pytest.raises(InvalidSurface, match="genus must be >= 0"):
        parse_surface("genus--1")


def test_invalid_params():
    with pytest.raises(InvalidSurface, match="genus"):
        SurfaceSpec.closed_orientable(-1)
    with pytest.raises(InvalidSurface, match="crossCaps"):
        SurfaceSpec.closed_non_orientable(0)
    with pytest.raises(InvalidSurface, match="holes"):
        SurfaceSpec.planar_domain(-1)
    with pytest.raises(InvalidSurface, match="unknown surface kind"):
        SurfaceSpec("Sphere")


@pytest.mark.parametrize("kind, param", [
    ("ClosedOrientable", 1.5), ("ClosedOrientable", "a"),
    ("ClosedOrientable", True), ("ClosedNonOrientable", 2.0),
    ("PlanarDomain", None), ("MoebiusStrip", 0.5), ("MoebiusStrip", -1)],
    ids=["float", "str", "bool", "whole-float", "none", "moebius-float",
         "moebius-negative"])
def test_count_must_be_an_integer(kind, param):
    with pytest.raises(InvalidSurface, match="an integer"):
        SurfaceSpec(kind, param)


def test_moebius_strip_count_is_zero():
    # the count was ignored, written back, and made a second Moebius strip
    # unequal to SurfaceSpec.moebius_strip()
    with pytest.raises(InvalidSurface, match="param must be 0, got 3"):
        SurfaceSpec("MoebiusStrip", 3)
    with pytest.raises(InvalidSurface, match="param must be 0"):
        SurfaceSpec.from_json({"kind": "MoebiusStrip", "param": 1})
    assert SurfaceSpec("MoebiusStrip", np.int64(0)) \
        == SurfaceSpec.moebius_strip()


def test_from_json_reads_no_float_as_a_count():
    # 1.7 was read as genus 1
    with pytest.raises(InvalidSurface, match="genus"):
        SurfaceSpec.from_json({"kind": "ClosedOrientable", "param": 1.7})
    # a numpy integer is stored as an int
    s = SurfaceSpec("PlanarDomain", np.int64(2))
    assert type(s.param) is int and s == SurfaceSpec.planar_domain(2)


def test_counts_are_spelled_as_str_writes_them():
    # "genus-01" was read as genus 1
    for name in ("genus-01", "planar-00", "crosscaps-1_0", "genus--0"):
        with pytest.raises(InvalidSurface, match="cannot parse"):
            parse_surface(name)
    assert parse_surface("genus-10") == SurfaceSpec.closed_orientable(10)
    assert parse_surface("planar-0") == SurfaceSpec.planar_domain(0)


@pytest.mark.parametrize("obj", [[1], None, "sphere", {"param": 0}])
def test_from_json_needs_an_object_with_a_kind(obj):
    # a list once raised TypeError, an object without "kind" KeyError
    with pytest.raises(InvalidSurface, match="a surface"):
        SurfaceSpec.from_json(obj)
