"""Desk-scale eigensolver for -Delta + V on planar domains, nodal extraction,
and spectral law checks.

Uniform-grid five-point finite differences.  Rectangles with Dirichlet
conditions use the interior node lattice; Neumann/Robin rectangles use cell
centers with ghost-node reflection; disks, annuli and arbitrary masks use
cell centers inside the mask with Dirichlet conditions on the snapped
boundary (O(h) boundary error, absorbed in the stated tolerances).

Nodal extraction turns the sign pattern of a cell-centered field into an
embedded partition (partition module) so the Euler and parity checks run on
computed eigenfunctions exactly as they do on hand-built examples.
"""

from __future__ import annotations

import ast
import math
import operator
from dataclasses import dataclass, field

import numpy as np
import scipy.ndimage
import scipy.sparse
import scipy.sparse.linalg

from .bounds import bessel_j0_first_zero, pleijel_bound, weyl_term
from .errors import (AllZeroField, DegenerateGrid, InfeasibleOrder,
                     InvalidProblem, MalformedEmbedding, NoConvergence, NoFit)
from .partition import PartitionBuilder, dart, verify_euler, check_boundary_parity
from .surface import SurfaceSpec

DIRICHLET = "Dirichlet"
NEUMANN = "Neumann"
ROBIN = "Robin"

DENSE_LIMIT = 1500  # below this matrix size just use a dense solver


# ---------------------------------------------------------------------------
# domains and problems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Rectangle:
    w: float
    h: float

    def to_json(self):
        return {"shape": "Rectangle", "w": self.w, "h": self.h}


@dataclass(frozen=True)
class Disk:
    r: float

    def to_json(self):
        return {"shape": "Disk", "r": self.r}


@dataclass(frozen=True)
class Annulus:
    r_in: float
    r_out: float

    def to_json(self):
        return {"shape": "Annulus", "rIn": self.r_in, "rOut": self.r_out}


@dataclass(frozen=True)
class MaskedGrid:
    bitmap: tuple  # tuple of row tuples, 0/1, row 0 = lowest y

    def to_json(self):
        return {"shape": "MaskedGrid", "bitmap": [list(r) for r in self.bitmap]}


def _per_element(fn):
    """fn applied with Python floats to each element of its broadcast
    arguments: the bits of a scalar evaluation at every grid site."""
    def apply(*args):
        args = np.broadcast_arrays(*(np.asarray(a, float) for a in args))
        out = np.empty(args[0].shape)
        flat = out.reshape(-1)
        for i, xs in enumerate(zip(*(a.ravel().tolist() for a in args))):
            v = fn(*xs)
            if not isinstance(v, float):   # negative base, fractional power
                raise ValueError("%s%r is not real" % (fn.__name__, xs))
            flat[i] = v
        return out
    return apply


# + - * / run as numpy operations on whole arrays, which round exactly as
# Python floats do.  ** % and the functions run per element, because numpy's
# vectorised pow and transcendentals may differ from libm in the last bit.
_BINARY = {ast.Add: np.add, ast.Sub: np.subtract, ast.Mult: np.multiply,
           ast.Div: np.divide, ast.Pow: _per_element(operator.pow),
           ast.Mod: _per_element(operator.mod)}
_UNARY = {ast.USub: np.negative, ast.UAdd: np.positive}
_FUNCS = {name: _per_element(fn) for name, fn in
          {"sin": math.sin, "cos": math.cos, "exp": math.exp,
           "sqrt": math.sqrt, "abs": abs, "tan": math.tan,
           "log": math.log}.items()}
_NAMES = {"x": lambda x, y: x, "y": lambda x, y: y,
          "pi": lambda x, y: math.pi}


def _compile_potential(node):
    """Closure f(x, y) for one node of a potential's syntax tree; anything
    outside the grammar raises ValueError."""
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        try:
            c = float(node.value)
        except OverflowError:
            raise ValueError("integer constant in potential is too large "
                             "for a float") from None
        return lambda x, y: c
    if isinstance(node, ast.Name):
        if node.id not in _NAMES:
            raise ValueError("unknown name %r in potential" % node.id)
        return _NAMES[node.id]
    if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY:
        fn, a = _UNARY[type(node.op)], _compile_potential(node.operand)
        return lambda x, y: fn(a(x, y))
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        fn = _BINARY[type(node.op)]
        a, b = _compile_potential(node.left), _compile_potential(node.right)
        return lambda x, y: fn(a(x, y), b(x, y))
    if isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCS \
                or len(node.args) != 1 or node.keywords:
            raise ValueError("unknown function or arity in potential")
        fn, a = _FUNCS[node.func.id], _compile_potential(node.args[0])
        return lambda x, y: fn(a(x, y))
    raise ValueError("disallowed token in potential: %r" % type(node).__name__)


def parse_potential(expr):
    """Compile a potential V(x, y) from a small arithmetic grammar.

    Allowed: numbers, x, y, pi, + - * / ** %, and sin/cos/tan/exp/sqrt/log/abs.
    Number literals are floats.  V takes coordinate arrays (or floats) and
    gives, element for element, the bits a Python float evaluation gives.
    Division by zero, overflow, domain errors and non-finite values raise
    ValueError.
    """
    if expr is None:
        return None
    if isinstance(expr, (int, float)):
        c = float(expr)
        return (lambda x, y: c) if c != 0.0 else None
    try:
        tree = ast.parse(str(expr), mode="eval")
    except SyntaxError as exc:
        raise ValueError("potential %r: %s" % (expr, exc.msg)) from None
    f = _compile_potential(tree.body)

    def V(x, y):
        try:
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                v = f(x, y)
        except (ArithmeticError, ValueError) as exc:
            raise ValueError("potential %r fails on the grid: %s"
                             % (expr, exc)) from None
        if not np.all(np.isfinite(v)):
            raise ValueError("potential %r is not finite on the grid" % expr)
        return v
    return V


@dataclass(frozen=True)
class EigenProblem:
    """-Delta + V on a domain at grid step h with one boundary condition.

    `potential` is None or a callable V(x, y) that receives the coordinate
    arrays of all grid sites at once and returns an array of the same shape
    (or a scalar), as `parse_potential` does.  Bad input raises
    InvalidProblem."""
    domain: object
    grid_step: float
    bc: str = DIRICHLET
    robin_h: float = 0.0
    potential: object = None  # callable V(x, y) on coordinate arrays, or None

    def __post_init__(self):
        if not self.grid_step > 0:
            raise InvalidProblem("grid step must be positive, got %r"
                                 % (self.grid_step,))
        if self.bc not in (DIRICHLET, NEUMANN, ROBIN):
            raise InvalidProblem("unknown boundary condition %r (choose from "
                                 "Dirichlet, Neumann, Robin)" % (self.bc,))
        if self.bc == ROBIN and not self.robin_h >= 0:
            raise InvalidProblem("Robin coefficient must be >= 0, got %r"
                                 % (self.robin_h,))
        _check_divisibility(self.domain, self.grid_step)

    def to_json(self):
        out = {"formatVersion": 1, "domain": self.domain.to_json(),
               "gridStep": self.grid_step, "bc": self.bc}
        if self.bc == ROBIN:
            out["robinH"] = self.robin_h
        if getattr(self.potential, "_source", None) is not None:
            out["V"] = self.potential._source
        return out

    @staticmethod
    def from_json(obj):
        d = obj["domain"]
        shape = d["shape"]
        if shape == "Rectangle":
            dom = Rectangle(float(d["w"]), float(d["h"]))
        elif shape == "Disk":
            dom = Disk(float(d["r"]))
        elif shape == "Annulus":
            dom = Annulus(float(d["rIn"]), float(d["rOut"]))
        elif shape == "MaskedGrid":
            dom = MaskedGrid(tuple(tuple(int(v) for v in row)
                                   for row in d["bitmap"]))
        else:
            raise ValueError("unknown domain shape %r" % shape)
        V = parse_potential(obj.get("V"))
        if V is not None:
            V._source = obj.get("V")
        return EigenProblem(dom, float(obj["gridStep"]),
                            obj.get("bc", DIRICHLET),
                            float(obj.get("robinH", 0.0)), V)


def _check_divisibility(dom, h):
    def divides(length):
        n = length / h
        if abs(n - round(n)) > 1e-9 or round(n) < 1:
            raise ValueError("grid step %g does not divide length %g" % (h, length))
    if isinstance(dom, Rectangle):
        divides(dom.w)
        divides(dom.h)
    elif isinstance(dom, Disk):
        divides(2 * dom.r)
    elif isinstance(dom, Annulus):
        if not 0 < dom.r_in < dom.r_out:
            raise InvalidProblem("annulus needs 0 < rIn < rOut, got %r, %r"
                                 % (dom.r_in, dom.r_out))
        divides(2 * dom.r_out)


def domain_area(dom, h=None):
    if isinstance(dom, Rectangle):
        return dom.w * dom.h
    if isinstance(dom, Disk):
        return math.pi * dom.r ** 2
    if isinstance(dom, Annulus):
        return math.pi * (dom.r_out ** 2 - dom.r_in ** 2)
    if isinstance(dom, MaskedGrid):
        if h is None:
            raise InvalidProblem("the area of a MaskedGrid needs the grid step")
        return sum(sum(row) for row in dom.bitmap) * h * h
    raise ValueError("unknown domain")


def _domain_mask(dom, h):
    """Cell mask (ny, nx boolean) and lower-left origin of the cell grid."""
    if isinstance(dom, Rectangle):
        nx, ny = round(dom.w / h), round(dom.h / h)
        return np.ones((ny, nx), bool), (0.0, 0.0)
    if isinstance(dom, Disk):
        n = round(2 * dom.r / h)
        cx = (np.arange(n) + 0.5) * h - dom.r
        X, Y = np.meshgrid(cx, cx)
        return X ** 2 + Y ** 2 < dom.r ** 2, (-dom.r, -dom.r)
    if isinstance(dom, Annulus):
        n = round(2 * dom.r_out / h)
        cx = (np.arange(n) + 0.5) * h - dom.r_out
        X, Y = np.meshgrid(cx, cx)
        R2 = X ** 2 + Y ** 2
        return (R2 < dom.r_out ** 2) & (R2 > dom.r_in ** 2), \
            (-dom.r_out, -dom.r_out)
    if isinstance(dom, MaskedGrid):
        return np.array(dom.bitmap, bool), (0.0, 0.0)
    raise ValueError("unknown domain")


# ---------------------------------------------------------------------------
# grid fields
# ---------------------------------------------------------------------------

@dataclass
class GridField:
    """Cell-centered scalar field: values[iy, ix] at
    (origin + (ix+1/2)h, origin + (iy+1/2)h); mask marks cells in the domain."""
    values: np.ndarray
    mask: np.ndarray
    origin: tuple
    h: float

    def cell_center(self, ix, iy):
        return (self.origin[0] + (ix + 0.5) * self.h,
                self.origin[1] + (iy + 0.5) * self.h)

    def sample(self, x, y):
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

    def to_json(self):
        return {"formatVersion": 1, "nx": int(self.values.shape[1]),
                "ny": int(self.values.shape[0]),
                "origin": list(self.origin), "h": self.h,
                "values": [float(v) for v in self.values.ravel()],
                "mask": [int(v) for v in self.mask.ravel()]}

    @staticmethod
    def from_json(obj):
        ny, nx = int(obj["ny"]), int(obj["nx"])
        vals = np.array(obj["values"], float).reshape(ny, nx)
        mask = np.array(obj["mask"], bool).reshape(ny, nx)
        return GridField(vals, mask, tuple(obj["origin"]), float(obj["h"]))


def sample_field(problem: EigenProblem, fn) -> GridField:
    """Sample an analytic function fn(x, y) at the cell centers of a problem."""
    mask, origin = _domain_mask(problem.domain, problem.grid_step)
    h = problem.grid_step
    ny, nx = mask.shape
    xs = origin[0] + (np.arange(nx) + 0.5) * h
    ys = origin[1] + (np.arange(ny) + 0.5) * h
    X, Y = np.meshgrid(xs, ys)
    vals = np.vectorize(fn)(X, Y).astype(float)
    vals[~mask] = 0.0
    return GridField(vals, mask, origin, h)


# ---------------------------------------------------------------------------
# operator assembly
# ---------------------------------------------------------------------------

@dataclass
class AssembledOperator:
    matrix: scipy.sparse.csr_matrix
    problem: EigenProblem
    layout: str              # "nodes" (Dirichlet rectangle) or "cells"
    sites: tuple             # (iy, ix) index arrays: row -> site on the grid
    origin: tuple
    mask: np.ndarray         # cell mask of the domain

    @property
    def n(self):
        return self.matrix.shape[0]

    def to_field(self, vec) -> GridField:
        """Cell-centered field for nodal extraction.

        For the interior-node layout the cell value is the mean of its four
        corner nodes (boundary nodes are 0 under Dirichlet conditions)."""
        h = self.problem.grid_step
        if self.layout == "cells":
            vals = np.zeros(self.mask.shape)
            vals[self.sites] = vec
            return GridField(vals, self.mask.copy(), self.origin, h)
        ny, nx = self.mask.shape
        nodes = np.zeros((ny + 1, nx + 1))
        nodes[self.sites] = vec
        cells = 0.25 * (nodes[:-1, :-1] + nodes[1:, :-1]
                        + nodes[:-1, 1:] + nodes[1:, 1:])
        return GridField(cells, self.mask.copy(), self.origin, h)


def assemble_operator(problem: EigenProblem) -> AssembledOperator:
    """Five-point Laplacian + diagonal potential; exactly symmetric.

    One stencil over a boolean site grid: the interior nodes of a Dirichlet
    rectangle, else the cell mask.  A neighbour off the site grid is a ghost
    holding g times the site's value (g = 0 Dirichlet, 1 Neumann,
    (2 - h_R h)/(2 + h_R h) Robin), which puts -g/h^2 on the diagonal."""
    h = problem.grid_step
    dom = problem.domain
    if not isinstance(dom, Rectangle) and problem.bc != DIRICHLET:
        raise ValueError("masked domains support Dirichlet conditions only")
    mask, origin = _domain_mask(dom, h)
    ny, nx = mask.shape
    if isinstance(dom, Rectangle) and problem.bc == DIRICHLET:
        if nx - 1 < 3 or ny - 1 < 3:
            raise DegenerateGrid("need at least 3 interior nodes per dimension")
        layout, offset = "nodes", 0.0
        grid = np.zeros((ny + 1, nx + 1), bool)
        grid[1:-1, 1:-1] = True
    else:
        if mask.any(axis=0).sum() < 3 or mask.any(axis=1).sum() < 3:
            raise DegenerateGrid("mask thinner than 3 cells")
        layout, offset, grid = "cells", 0.5, mask
    hr = problem.robin_h if problem.bc == ROBIN else 0.0
    g = 0.0 if problem.bc == DIRICHLET else (2.0 - hr * h) / (2.0 + hr * h)

    iy, ix = np.nonzero(grid)
    n = iy.size
    row_of = np.full((grid.shape[0] + 2, grid.shape[1] + 2), -1)
    row_of[1:-1, 1:-1][grid] = np.arange(n)
    inv_h2 = 1.0 / (h * h)
    diag = np.full(n, 4.0 * inv_h2)
    if problem.potential is not None:
        diag = diag + problem.potential(origin[0] + (ix + offset) * h,
                                        origin[1] + (iy + offset) * h)
    rows, cols = [np.arange(n)], [np.arange(n)]
    # W, E, S, N: the order in which ghost terms enter each diagonal sum
    for dy, dx in ((0, -1), (0, 1), (-1, 0), (1, 0)):
        j = row_of[iy + 1 + dy, ix + 1 + dx]
        has = j >= 0
        diag[~has] -= g * inv_h2
        rows.append(np.flatnonzero(has))
        cols.append(j[has])
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    vals = np.concatenate([diag, np.full(rows.size - n, -inv_h2)])
    A = scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))
    asym = abs(A - A.T)
    if asym.nnz and asym.max() != 0.0:
        raise InvalidProblem("assembled operator not symmetric")
    return AssembledOperator(A, problem, layout, (iy, ix), origin, mask)


# ---------------------------------------------------------------------------
# eigensolution
# ---------------------------------------------------------------------------

@dataclass
class EigenSolution:
    eigenvalues: np.ndarray       # nondecreasing, 1-based labels in reports
    vectors: np.ndarray           # column per eigenpair, orthonormal
    clusters: list                # list of lists of 1-based indices
    cluster_rel_tol: float
    residuals: np.ndarray
    operator: AssembledOperator

    def field(self, k) -> GridField:
        """Cell field of the k-th eigenfunction (1-based)."""
        return self.operator.to_field(self.vectors[:, k - 1])

    def to_json(self):
        return {"formatVersion": 1,
                "problem": self.operator.problem.to_json(),
                "eigenvalues": [float(v) for v in self.eigenvalues],
                "clusters": [list(c) for c in self.clusters],
                "clusterRelTol": self.cluster_rel_tol,
                "residuals": [float(r) for r in self.residuals]}


def cluster_multiplicities(evs, rel_tol=1e-3):
    """Maximal runs of consecutive eigenvalues with relative gap < rel_tol.

    Returns clusters as lists of 1-based indices."""
    evs = list(evs)
    if not evs:
        return []
    clusters = [[1]]
    for i in range(1, len(evs)):
        gap = abs(evs[i] - evs[i - 1])
        scale = max(abs(evs[i]), abs(evs[i - 1]), 1.0)
        if gap / scale < rel_tol:
            clusters[-1].append(i + 1)
        else:
            clusters.append([i + 1])
    return clusters


def solve_eigen(op: AssembledOperator, K: int, tol: float = 1e-9,
                cluster_rel_tol: float = 1e-3) -> EigenSolution:
    """First K eigenpairs, sorted; dense below a size threshold, else
    shift-invert Lanczos."""
    A = op.matrix
    n = A.shape[0]
    if K > n:
        raise ValueError("K exceeds matrix dimension")
    if n <= DENSE_LIMIT:
        w, v = np.linalg.eigh(A.toarray())
        evs, vecs = w[:K], v[:, :K]
    else:
        # Gershgorin lower bound keeps the shift strictly below the spectrum
        diag = A.diagonal()
        radii = np.abs(A).sum(axis=1).A1 - np.abs(diag)
        sigma = float((diag - radii).min()) - 1.0
        try:
            # a fixed random start vector makes the solve repeatable; a
            # constant one would be orthogonal to modes odd in x or y
            v0 = np.random.default_rng(0).standard_normal(n)
            w, v = scipy.sparse.linalg.eigsh(A, k=K, sigma=sigma, which="LM",
                                             v0=v0)
        except Exception as exc:
            raise NoConvergence("eigsh failed: %s" % exc)
        order = np.argsort(w)
        evs, vecs = w[order], v[:, order]
    res = np.empty(K)
    for i in range(K):
        u = vecs[:, i]
        res[i] = np.linalg.norm(A @ u - evs[i] * u) / np.linalg.norm(u)
    if res.max() > max(tol, 1e3 * np.finfo(float).eps * max(abs(evs))):
        raise NoConvergence("max residual %.3g above tolerance %.3g"
                            % (res.max(), tol))
    if K >= 2:
        scale = max(abs(evs[1]), 1.0)
        if not (evs[1] - evs[0]) / scale > 1e-12:
            raise InvalidProblem("ground state must be simple (is the domain "
                                 "connected?)")
    clusters = cluster_multiplicities(evs, cluster_rel_tol)
    return EigenSolution(evs, vecs, clusters, cluster_rel_tol, res, op)


# ---------------------------------------------------------------------------
# nodal extraction
# ---------------------------------------------------------------------------

@dataclass
class NodalExtract:
    sign_field: np.ndarray        # +1/-1 in mask, 0 outside
    domain_count: int             # kappa
    interior_singular: list       # ((x, y), nu estimate)
    boundary_singular: list       # ((x, y), rho estimate, component)
    as_partition: object          # EmbeddedPartition
    field: GridField

    def to_json(self):
        return {"formatVersion": 1, "kappa": self.domain_count,
                "interiorSingular": [{"x": p[0], "y": p[1], "nu": nu}
                                     for p, nu in self.interior_singular],
                "boundarySingular": [{"x": p[0], "y": p[1], "rho": r,
                                      "component": c}
                                     for p, r, c in self.boundary_singular],
                "partition": self.as_partition.to_json()}


def _corner_cells(ix, iy):
    """The four cells around lattice corner (ix, iy): SW, SE, NE, NW."""
    return ((ix - 1, iy - 1), (ix, iy - 1), (ix, iy), (ix - 1, iy))


def _boundary_cycles(mask):
    """Boundary of the cell mask as cyclic corner sequences (one per boundary
    component), each traced with the domain kept on the left (outer boundary
    counter-clockwise, hole boundaries clockwise)."""
    ny, nx = mask.shape

    def inside(c):
        x, y = c
        return 0 <= x < nx and 0 <= y < ny and mask[y, x]
    # directed boundary steps: from corner a to corner b with inside on left
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
    todo = dict(steps)
    while todo:
        start = min(todo)
        cyc = [start]
        cur = todo.pop(start)
        while cur != start:
            cyc.append(cur)
            cur = todo.pop(cur)
        cycles.append(cyc)
    # outer cycle first (largest bounding box), deterministic
    cycles.sort(key=lambda c: (-len(c), c[0]))
    return cycles


def extract_nodal(u: GridField, problem: EigenProblem | None = None,
                  nodal: bool = True) -> NodalExtract:
    """Sign pattern -> nodal domains + embedded partition.

    kappa is the number of 4-connected same-sign cell components; the
    interface between opposite-sign cells is walked into chains; corners
    where the four surrounding cells alternate in sign are interior singular
    points (nu = 4 on a square lattice); chains ending on the mask boundary
    give boundary singular points (rho = 1 each)."""
    mask = u.mask
    vals = u.values
    if not np.any(np.abs(vals[mask]) > 0):
        raise AllZeroField("field vanishes identically")
    sign = np.where(vals > 0, 1, -1)
    sign[~mask] = 0
    ny, nx = sign.shape

    structure = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])
    lab_pos, npos = scipy.ndimage.label(sign > 0, structure)
    lab_neg, nneg = scipy.ndimage.label(sign < 0, structure)
    kappa = int(npos + nneg)

    def inside(c):
        x, y = c
        return 0 <= x < nx and 0 <= y < ny and mask[y, x]

    # interface segments between adjacent opposite-sign cells, keyed by the
    # corner pair they join
    segments = set()
    for iy in range(ny):
        for ix in range(nx):
            if not mask[iy, ix]:
                continue
            if inside((ix + 1, iy)) and sign[iy, ix] * sign[iy, ix + 1] < 0:
                segments.add(((ix + 1, iy), (ix + 1, iy + 1)))   # vertical
            if inside((ix, iy + 1)) and sign[iy, ix] * sign[iy + 1, ix] < 0:
                segments.add(((ix, iy + 1), (ix + 1, iy + 1)))   # horizontal
    incident = {}
    for a, b in segments:
        incident.setdefault(a, []).append(b)
        incident.setdefault(b, []).append(a)

    cycles = _boundary_cycles(mask)
    on_boundary = {}
    for ci, cyc in enumerate(cycles):
        for pos, corner in enumerate(cyc):
            on_boundary[corner] = (ci, pos)

    # classify corners
    special = {}   # corner -> ("interior", nu) or ("boundary", rho, comp, pos)
    for corner, nbrs in incident.items():
        deg = len(nbrs)
        if corner in on_boundary:
            ci, pos = on_boundary[corner]
            special[corner] = ("boundary", deg, ci, pos)
        elif deg != 2:
            if deg < 2:
                raise MalformedEmbedding("dangling nodal segment at %r" % (corner,))
            special[corner] = ("interior", deg)

    # walk chains between special corners; leftover pure cycles become circles
    def walk(start, first):
        path = [start, first]
        prev, cur = start, first
        while cur not in special:
            nbrs = incident[cur]
            assert len(nbrs) == 2
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
    remaining = sorted(s for s in segments if s not in used)
    while remaining:
        a, b = remaining[0]
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
        remaining = sorted(s for s in segments if s not in used)

    # surface: planar domain with (number of boundary cycles - 1) holes
    holes = len(cycles) - 1
    surface = SurfaceSpec.planar_domain(holes)
    b = PartitionBuilder(surface, nodal=nodal)

    vid = {}
    interior_list = []
    boundary_list = []
    for corner in sorted(special):
        info = special[corner]
        x = u.origin[0] + corner[0] * u.h
        y = u.origin[1] + corner[1] * u.h
        if info[0] == "interior":
            nu = info[1]
            vid[corner] = b.interior(nu)
            interior_list.append(((x, y), nu))
        else:
            deg, ci, pos = info[1], info[2], info[3]
            vid[corner] = b.boundary_vertex(deg, ci)
            boundary_list.append(((x, y), deg, ci))

    # nodal edges: one per chain; direction of the first/last step recorded
    # for the rotation ordering at the endpoint vertices
    def step_angle(a, b):
        return math.atan2(b[1] - a[1], b[0] - a[0])

    darts_at = {c: [] for c in special}
    for path in chains:
        e = b.edge(vid[path[0]], vid[path[-1]])
        darts_at[path[0]].append((dart(e, 0), step_angle(path[0], path[1])))
        darts_at[path[-1]].append((dart(e, 1), step_angle(path[-1], path[-2])))
    circle_of_loop = []
    for path in loops:
        m = b.circle()
        b.edge(m, m)
        circle_of_loop.append(m)

    # boundary edges along each cycle between consecutive boundary-singular
    # corners; a cycle with none gets a circle marker with a boundary loop
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
            # outgoing direction along the cycle at each endpoint
            nxt = cyc[(pos_a + 1) % len(cyc)]
            prv = cyc[pos_b - 1]
            bdart_at.setdefault(ca, []).append((dart(e, 0), step_angle(ca, nxt)))
            bdart_at.setdefault(cb, []).append((dart(e, 1), step_angle(cb, prv)))

    for corner in sorted(special):
        entries = darts_at[corner] + bdart_at.get(corner, [])
        entries.sort(key=lambda t: t[1])
        b.set_rotation(vid[corner], [d for d, _ in entries])

    part = b.build()
    return NodalExtract(sign, kappa, interior_list, boundary_list, part, u)


# ---------------------------------------------------------------------------
# local ray fit
# ---------------------------------------------------------------------------

def local_ray_fit(u, x0, radius, lmax=6, n_angles=96, threshold=0.25):
    """Fit r^l (a sin l*omega + b cos l*omega) on circles around x0.

    u is a GridField or a callable (x, y) -> value.  Returns
    (l, rayAngles, residual): the order minimizing the relative residual,
    the 2l equiangular zero angles of the fitted trigonometric polynomial,
    and the residual itself."""
    sample = u.sample if isinstance(u, GridField) else u
    radii = [0.5 * radius, 0.75 * radius, radius]
    omegas = np.arange(n_angles) * (2 * math.pi / n_angles)
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
    for ell in range(1, lmax + 1):
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
    if resid > threshold:
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


# ---------------------------------------------------------------------------
# prescribed singular points
# ---------------------------------------------------------------------------

def _jet_rows_interior(fn, site, order, h):
    """Central-difference partial derivatives d^(i+j)/dx^i dy^j for
    i + j < order at the site."""
    x0, y0 = site
    rows = []
    for total in range(order):
        for i in range(total + 1):
            j = total - i
            rows.append(_mixed_derivative(fn, x0, y0, i, j, h))
    return rows


def _mixed_derivative(fn, x0, y0, i, j, h):
    """d^i/dx^i d^j/dy^j by nested central differences."""
    def dx(f, k):
        if k == 0:
            return f
        return lambda x, y: (dx(f, k - 1)(x + h, y)
                             - dx(f, k - 1)(x - h, y)) / (2 * h)

    def dy(f, k):
        if k == 0:
            return f
        return lambda x, y: (dy(f, k - 1)(x, y + h)
                             - dy(f, k - 1)(x, y - h)) / (2 * h)
    return dy(dx(fn, i), j)(x0, y0)


def prescribe_singular(basis, site, target_order, boundary=None, h=None,
                       rel_tol=1e-6):
    """Unit coefficient vector whose combination vanishes to the requested
    order at the site (interior) or suppresses the boundary data (boundary).

    basis: list of GridFields or callables.  For an interior site the
    constraints are all discrete partial derivatives of total order
    < target_order.  For a boundary site, pass boundary=(outward normal,
    tangent); constraints are the one-sided normal trace and its tangential
    derivatives of order < target_order.  Raises InfeasibleOrder when the
    constraint matrix has no null space."""
    m = len(basis)
    assert m >= 2
    fns = [f.sample if isinstance(f, GridField) else f for f in basis]
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
            rows.append(_jet_rows_interior(fn, site, target_order, h))
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
            g = breve(fn)
            col = []
            for k in range(target_order):
                col.append(_tangential_derivative(g, k, h))
            rows.append(col)
    J = np.array(rows, float).T   # constraints x basis
    scale = max(np.abs(J).max(), 1e-300)
    _, s, Vt = np.linalg.svd(J)
    if J.shape[0] >= m and s[-1] > rel_tol * max(s[0], scale):
        raise InfeasibleOrder("constraint matrix has full rank "
                              "(smallest singular value %.3g)" % s[-1])
    c = Vt[-1]
    c = c / np.linalg.norm(c)
    resid = np.linalg.norm(J @ c) / scale
    if resid > rel_tol:
        raise InfeasibleOrder("suppressed jet residual %.3g above %.3g"
                              % (resid, rel_tol))
    return c, resid


def _tangential_derivative(g, k, h):
    if k == 0:
        return g(0.0)
    # k-th derivative by iterated central differences along the tangent
    pts = [g(i * h) for i in range(-k, k + 1)]
    arr = np.array(pts, float)
    for _ in range(k):
        arr = (arr[2:] - arr[:-2]) / (2 * h)
    return float(arr[0])


# ---------------------------------------------------------------------------
# spectral law checks
# ---------------------------------------------------------------------------

@dataclass
class LawReport:
    seed: int
    entries: list            # per-k dicts
    combo_checks: list       # per-cluster dicts
    weyl: dict
    passed: bool

    def to_json(self):
        return {"formatVersion": 1, "seed": self.seed, "entries": self.entries,
                "comboChecks": self.combo_checks, "weyl": self.weyl,
                "passed": self.passed}


def verify_spectral_laws(sol: EigenSolution, problem: EigenProblem,
                         seed: int = 0, n_combos: int = 200,
                         fk_rel_tol: float = 0.05) -> LawReport:
    """Courant, multiplicity, Faber-Krahn, Pleijel, Weyl, and Euler checks
    on a computed spectrum.  Random in-cluster combinations are sampled with
    a seeded generator; the seed is recorded in the report."""
    area = domain_area(problem.domain, problem.grid_step)
    j01 = bessel_j0_first_zero()
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
        ext = extract_nodal(sol.field(k), problem)
        kappa = ext.domain_count
        mult = last_of[k] - first_of[k] + 1
        kf = first_of[k]
        courant = kappa <= k
        mult_ok = mult <= 2 * kf - 1 and (kf < 3 or mult <= 2 * kf - 2)
        fk_lhs = lam * area
        fk_rhs = kappa * math.pi * j01 ** 2
        faber_krahn = fk_lhs >= fk_rhs * (1 - fk_rel_tol)
        pl_bound, _ = pleijel_bound(lam, area)
        pleijel = mult <= pl_bound + 1e-9 or mult <= 2 * kf - 1
        euler = verify_euler(ext.as_partition).passed
        parity = all(r["passed"] for r in check_boundary_parity(ext.as_partition))
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
        worst = 0
        good = True
        for _ in range(n_combos):
            c = rng.standard_normal(len(cluster))
            c /= np.linalg.norm(c)
            vec = sum(ci * sol.vectors[:, idx - 1]
                      for ci, idx in zip(c, cluster))
            ext = extract_nodal(sol.operator.to_field(vec), problem)
            worst = max(worst, ext.domain_count)
            if ext.domain_count > k_hi:
                good = False
        combo_checks.append({"cluster": list(cluster), "samples": n_combos,
                             "maxKappa": worst, "bound": k_hi, "passed": good})
        ok = ok and good
    lam_max = float(sol.eigenvalues[-1])
    n_below = int(len(sol.eigenvalues))
    w = weyl_term(lam_max, area)
    weyl = {"lambda": lam_max, "count": n_below, "weylTerm": w,
            "relativeDeviation": abs(n_below - w) / max(n_below, 1)}
    return LawReport(seed, entries, combo_checks, weyl, ok)
