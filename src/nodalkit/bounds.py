"""Closed-form multiplicity and counting bounds (classical table, Pleijel).

The first zero j01 of the order-zero Bessel function comes from
scipy.special.jn_zeros; everything downstream (Pleijel constant,
Faber-Krahn threshold, Weyl term) uses that value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import scipy.special

from .errors import UnknownFamily, _integer, _real
from .surface import (CLOSED_NON_ORIENTABLE, CLOSED_ORIENTABLE, SurfaceSpec)


@lru_cache(maxsize=1)
def bessel_j0_first_zero() -> float:
    """First positive zero of J0."""
    return float(scipy.special.jn_zeros(0, 1)[0])


def pleijel_gamma() -> float:
    """gamma = 4 / j01^2 (< 1): asymptotic cap on kappa(lambda_k)/k."""
    j01 = bessel_j0_first_zero()
    return 4.0 / (j01 * j01)


def pleijel_bound(lam: float, area: float):
    """(mult bound 2*lam*area/(pi j01^2) - 1, gamma); lam and area finite
    and > 0 by the one real rule, else InvalidProblem."""
    lam = _real(lam, "lambda must be positive and finite", sign=">")
    area = _real(area, "area must be positive and finite", sign=">")
    j01 = bessel_j0_first_zero()
    return 2.0 * lam * area / (math.pi * j01 * j01) - 1.0, pleijel_gamma()


def faber_krahn_threshold(kappa: int) -> float:
    """Lower bound for lambda_k * |Omega| when the eigenfunction has kappa
    nodal domains: kappa * pi * j01^2; InvalidProblem unless kappa is an
    integer >= 1."""
    kappa = _integer(kappa, 1, "kappa")
    j01 = bessel_j0_first_zero()
    return kappa * math.pi * j01 ** 2


def weyl_term(lam: float, area: float) -> float:
    """Leading Weyl asymptotics for the counting function N(lambda); lam
    finite of any sign (a Neumann lambda_1 may round below 0) and area
    finite and > 0, else InvalidProblem."""
    lam = _real(lam, "lambda must be finite", sign=None)
    area = _real(area, "area must be positive and finite", sign=">")
    return area * lam / (4.0 * math.pi)


@dataclass(frozen=True)
class BoundSet:
    cheng: int | None
    besson: int | None
    nadirashvili: int | None
    hhn: int | None      # the 2k-3 bound, genus-0 and k >= 3 only
    k: int

    def to_json(self):
        return {"cheng": self.cheng, "besson": self.besson,
                "nadirashvili": self.nadirashvili, "hhn": self.hhn, "k": self.k}


def classical_bounds(surface: SurfaceSpec, k: int) -> BoundSet:
    """Multiplicity upper bounds per the classical table.

    Absent cells are None, never 0; InvalidProblem unless k is an integer >= 1.
    """
    k = _integer(k, 1, "k")
    cheng = besson = nadir = hhn = None
    if surface.kind == CLOSED_ORIENTABLE:
        g = surface.param
        if g == 0:
            cheng = k * (k + 1) // 2
            besson = 2 * k - 1
            nadir = 2 * k - 1
            if k >= 3:
                hhn = 2 * k - 3
        elif g == 1:
            cheng = (k + 2) * (k + 3) // 2
            besson = 2 * k + 3
            nadir = 2 * k + 2
        else:
            cheng = (k + 2 * g) * (k + 2 * g + 1) // 2
            besson = 2 * k + 4 * g - 1
            nadir = 2 * k + 4 * g - 3
    elif surface.kind == CLOSED_NON_ORIENTABLE:
        c = surface.param
        if c == 1:
            besson = 4 * k - 1
            nadir = 2 * k + 1
        elif c == 2:
            nadir = 2 * k + 1
        else:
            besson = 4 * k + 4 * c - 1
            nadir = 2 * k + 2 * c - 1
    else:
        raise UnknownFamily("no classical table row for %s" % surface.kind)
    return BoundSet(cheng, besson, nadir, hhn, k)
