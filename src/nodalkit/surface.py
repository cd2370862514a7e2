"""Surface descriptors and their topological invariants.

A surface is one of:
  - closed orientable of genus g            (sphere = genus 0)
  - closed non-orientable with c cross-caps (projective plane = 1, Klein = 2)
  - planar domain with q holes              (sphere with q+1 open disks removed;
                                             boundary component 1 is the outer one)
  - Moebius strip                           (projective plane minus a disk)

Immutable value type with an int count, checked when made by the one
integer rule (InvalidSurface); a Moebius strip's count is 0.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidSurface, _decimal, _fields, _integer, _show

CLOSED_ORIENTABLE = "ClosedOrientable"
CLOSED_NON_ORIENTABLE = "ClosedNonOrientable"
PLANAR_DOMAIN = "PlanarDomain"
MOEBIUS_STRIP = "MoebiusStrip"

_KINDS = (CLOSED_ORIENTABLE, CLOSED_NON_ORIENTABLE, PLANAR_DOMAIN, MOEBIUS_STRIP)


@dataclass(frozen=True)
class SurfaceSpec:
    kind: str
    param: int = 0  # genus / crossCaps / holes; 0 for MoebiusStrip

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InvalidSurface("unknown surface kind: %s" % _show(self.kind))
        name, least = {CLOSED_ORIENTABLE: ("genus", 0),
                       CLOSED_NON_ORIENTABLE: ("crossCaps", 1),
                       PLANAR_DOMAIN: ("holes", 0),
                       MOEBIUS_STRIP: ("param", 0)}[self.kind]
        object.__setattr__(self, "param",
                           _integer(self.param, least, name, InvalidSurface))
        if self.kind == MOEBIUS_STRIP and self.param:
            raise InvalidSurface("a Moebius strip has no count: param must "
                                 "be 0, got %d" % self.param)

    # -- convenience constructors ------------------------------------------

    @staticmethod
    def sphere() -> "SurfaceSpec":
        return SurfaceSpec(CLOSED_ORIENTABLE, 0)

    @staticmethod
    def closed_orientable(genus: int) -> "SurfaceSpec":
        return SurfaceSpec(CLOSED_ORIENTABLE, genus)

    @staticmethod
    def closed_non_orientable(cross_caps: int) -> "SurfaceSpec":
        return SurfaceSpec(CLOSED_NON_ORIENTABLE, cross_caps)

    @staticmethod
    def planar_domain(holes: int = 0) -> "SurfaceSpec":
        return SurfaceSpec(PLANAR_DOMAIN, holes)

    @staticmethod
    def moebius_strip() -> "SurfaceSpec":
        return SurfaceSpec(MOEBIUS_STRIP, 0)

    # -- queries ------------------------------------------------------------

    @property
    def has_boundary(self) -> bool:
        return self.kind in (PLANAR_DOMAIN, MOEBIUS_STRIP)

    @property
    def boundary_components(self) -> int:
        """b0 of the boundary of the surface."""
        if self.kind == PLANAR_DOMAIN:
            return self.param + 1
        if self.kind == MOEBIUS_STRIP:
            return 1
        return 0

    @property
    def orientable(self) -> bool:
        return self.kind in (CLOSED_ORIENTABLE, PLANAR_DOMAIN)

    def closed_model_euler(self) -> int:
        """Euler characteristic of the closed model surface (boundary circles capped).

        Planar domains live on the sphere; the Moebius strip on the projective plane.
        """
        if self.kind == CLOSED_ORIENTABLE:
            return 2 - 2 * self.param
        if self.kind == CLOSED_NON_ORIENTABLE:
            return 2 - self.param
        if self.kind == PLANAR_DOMAIN:
            return 2
        return 1  # MoebiusStrip -> projective plane

    # -- JSON ----------------------------------------------------------------

    def to_json(self) -> dict:
        return {"kind": self.kind, "param": self.param}

    @staticmethod
    def from_json(obj: dict) -> "SurfaceSpec":
        return SurfaceSpec(*_fields(obj, InvalidSurface, "a surface", "kind",
                                    param=0))


def euler_characteristic(spec: SurfaceSpec) -> int:
    """chi of the surface itself (with boundary, where applicable): the
    closed model's chi less one for each boundary circle's removed disk."""
    return spec.closed_model_euler() - spec.boundary_components


# the surface names parse_surface reads, with the kind and count of each
_NAMED = {name: spec for names, spec in [
    (("sphere", "s2"), (CLOSED_ORIENTABLE, 0)),
    (("torus", "t2"), (CLOSED_ORIENTABLE, 1)),
    (("projective", "projective-plane", "rp2"), (CLOSED_NON_ORIENTABLE, 1)),
    (("klein", "klein-bottle", "k2"), (CLOSED_NON_ORIENTABLE, 2)),
    (("moebius", "mobius", "moebius-strip"), (MOEBIUS_STRIP, 0)),
    (("disk", "disc"), (PLANAR_DOMAIN, 0)), (("annulus",), (PLANAR_DOMAIN, 1))]
    for name in names}


def parse_surface(text: str) -> SurfaceSpec:
    """Parse CLI-style surface names: sphere, torus, projective, klein,
    genus-G, crosscaps-C, planar-Q (Q holes), moebius, with each count
    spelled as str(n) spells it (_decimal); else InvalidSurface."""
    t = text.strip().lower()
    if t in _NAMED:
        return SurfaceSpec(*_NAMED[t])
    for prefix, kind in (("genus-", CLOSED_ORIENTABLE),
                         ("crosscaps-", CLOSED_NON_ORIENTABLE),
                         ("planar-", PLANAR_DOMAIN)):
        count = _decimal(t[len(prefix):]) if t.startswith(prefix) else None
        if count is not None:
            return SurfaceSpec(kind, count)
    raise InvalidSurface("cannot parse surface name: %r" % (text,))
