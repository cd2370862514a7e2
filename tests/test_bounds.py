"""Closed-form bound tables, Bessel zero, Pleijel constant."""

import math

import numpy as np
import pytest

from nodalkit.bounds import (BoundSet, bessel_j0_first_zero, classical_bounds,
                             faber_krahn_threshold, pleijel_bound,
                             pleijel_gamma, weyl_term)
from nodalkit.errors import InvalidProblem, UnknownFamily
from nodalkit.surface import SurfaceSpec


def test_bessel_zero():
    j01 = bessel_j0_first_zero()
    # cross-check against an independent high-precision reference value
    assert abs(j01 - 2.40482555769577) < 1e-10
    from scipy.special import j0
    assert abs(j0(j01)) < 1e-10


def test_gamma_value():
    g = pleijel_gamma()
    assert abs(g - 0.69166) < 1e-4
    assert g < 1


def test_sphere_row():
    bs = classical_bounds(SurfaceSpec.sphere(), 1)
    assert (bs.cheng, bs.besson, bs.nadirashvili, bs.hhn) == (1, 1, 1, None)
    bs = classical_bounds(SurfaceSpec.sphere(), 2)
    assert (bs.cheng, bs.besson, bs.nadirashvili) == (3, 3, 3)
    bs = classical_bounds(SurfaceSpec.sphere(), 5)
    assert (bs.cheng, bs.besson, bs.nadirashvili, bs.hhn) == (15, 9, 9, 7)


def test_projective_row():
    bs = classical_bounds(SurfaceSpec.closed_non_orientable(1), 2)
    assert bs.cheng is None
    assert (bs.besson, bs.nadirashvili) == (7, 5)


def test_torus_row():
    bs = classical_bounds(SurfaceSpec.closed_orientable(1), 2)
    assert (bs.cheng, bs.besson, bs.nadirashvili) == (10, 7, 6)


def test_klein_row():
    bs = classical_bounds(SurfaceSpec.closed_non_orientable(2), 2)
    assert bs.cheng is None and bs.besson is None
    assert bs.nadirashvili == 5


def test_higher_genus_rows():
    g = 2
    for k in (1, 3, 7):
        bs = classical_bounds(SurfaceSpec.closed_orientable(g), k)
        assert bs.cheng == (k + 2 * g) * (k + 2 * g + 1) // 2
        assert bs.besson == 2 * k + 4 * g - 1
        assert bs.nadirashvili == 2 * k + 4 * g - 3
    c = 3
    bs = classical_bounds(SurfaceSpec.closed_non_orientable(c), 4)
    assert bs.besson == 4 * 4 + 4 * c - 1
    assert bs.nadirashvili == 2 * 4 + 2 * c - 1


def test_hhn_only_genus_zero_k3():
    assert classical_bounds(SurfaceSpec.sphere(), 2).hhn is None
    assert classical_bounds(SurfaceSpec.sphere(), 3).hhn == 3
    assert classical_bounds(SurfaceSpec.closed_orientable(1), 5).hhn is None


def test_absent_is_none_not_zero():
    bs = classical_bounds(SurfaceSpec.closed_non_orientable(2), 1)
    assert bs.cheng is None and bs.besson is None and bs.hhn is None
    assert 0 not in {bs.cheng, bs.besson, bs.hhn}


def test_unknown_family():
    with pytest.raises(UnknownFamily):
        classical_bounds(SurfaceSpec.planar_domain(0), 1)
    with pytest.raises(UnknownFamily):
        classical_bounds(SurfaceSpec.moebius_strip(), 1)


def test_bounds_need_k_at_least_1():
    for k in (0, -3):
        with pytest.raises(InvalidProblem, match="k must be >= 1"):
            classical_bounds(SurfaceSpec.sphere(), k)


def test_bounds_need_an_integer_k():
    # 2.5 would give float bounds, and True would be read as 1
    for k in (2.5, True, "3"):
        with pytest.raises(InvalidProblem, match="an integer"):
            classical_bounds(SurfaceSpec.sphere(), k)
    bs = classical_bounds(SurfaceSpec.sphere(), np.int64(3))
    assert bs == BoundSet(6, 5, 5, 3, 3)
    assert all(type(v) is int for v in bs.to_json().values())


def test_pleijel_bound():
    j01 = bessel_j0_first_zero()
    lam = 5 * math.pi ** 2  # second cluster of the unit square
    bound, gamma = pleijel_bound(lam, 1.0)
    assert abs(bound - (2 * lam / (math.pi * j01 ** 2) - 1)) < 1e-12
    assert gamma == pleijel_gamma()
    for lam, area in ((-1.0, 1.0), (1.0, 0.0), (math.nan, 1.0)):
        with pytest.raises(InvalidProblem, match="must be positive"):
            pleijel_bound(lam, area)


@pytest.mark.parametrize("call, message", [
    (lambda: pleijel_bound(math.inf, 1), "lambda must be positive and finite"),
    (lambda: pleijel_bound(True, 1), "lambda must be positive and finite"),
    (lambda: pleijel_bound(1, "2"), "area must be positive and finite"),
    (lambda: weyl_term(math.nan, 1), "lambda must be finite"),
    (lambda: weyl_term(1, 0), "area must be positive and finite"),
    (lambda: weyl_term(1, -math.inf), "area must be positive and finite"),
    (lambda: faber_krahn_threshold(0), "kappa must be >= 1 and an integer"),
    (lambda: faber_krahn_threshold(2.0), "kappa must be >= 1 and an integer"),
    (lambda: faber_krahn_threshold(True), "kappa must be >= 1 and an integer"),
], ids=["inf-lambda", "bool-lambda", "str-area", "nan-weyl", "zero-area",
        "inf-area", "zero-kappa", "float-kappa", "bool-kappa"])
def test_bound_inputs_follow_the_value_rules(call, message):
    # pleijel_bound once returned (inf, ...) and (-0.89, ...) for the first
    # two, and weyl_term and faber_krahn_threshold checked nothing
    with pytest.raises(InvalidProblem, match=message):
        call()


def test_weyl_term_takes_a_lambda_below_zero():
    # a Neumann lambda_1 may round below 0, and a report with K = 1 takes
    # the Weyl term at it
    assert weyl_term(-1e-12, 2.0) == pytest.approx(-2e-12 / (4 * math.pi))
    assert faber_krahn_threshold(np.int64(2)) == faber_krahn_threshold(2)


def test_faber_krahn_threshold():
    j01 = bessel_j0_first_zero()
    assert abs(faber_krahn_threshold(1) - math.pi * j01 ** 2) < 1e-12
    # the disk ground state attains it: lambda1 * area = j01^2 * pi
    assert abs(faber_krahn_threshold(1) - (j01 ** 2) * math.pi) < 1e-12
    assert faber_krahn_threshold(3) == pytest.approx(3 * faber_krahn_threshold(1))


def test_weyl_term():
    assert abs(weyl_term(4 * math.pi, 1.0) - 1.0) < 1e-12


def test_json():
    bs = classical_bounds(SurfaceSpec.sphere(), 3)
    d = bs.to_json()
    assert d["hhn"] == 3 and d["k"] == 3
