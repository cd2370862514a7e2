"""Desk-scale eigensolver for -Delta + V on planar domains, nodal extraction,
and spectral law checks.

Uniform-grid five-point finite differences.  Rectangles with Dirichlet
conditions use the interior node lattice; Neumann/Robin rectangles use cell
centers with ghost-node reflection; disks, annuli and arbitrary masks use
cell centers inside the mask with Dirichlet conditions on the snapped
boundary (O(h) boundary error, absorbed in the stated tolerances).

One solver finds the low spectrum of every problem: shift-invert Lanczos
(ARPACK eigsh) about a Gershgorin shift below the spectrum, for K < n
eigenpairs of n unknowns.

Each domain shape owns its geometry (cell grid, inside test, area).  An
EigenProblem builds and checks its cell mask once, when constructed, and
assembly, sampling and the law report read the mask from it.

Nodal extraction turns the sign pattern of a cell-centered field into an
embedded partition (partition module) so the Euler and parity checks run on
computed eigenfunctions exactly as they do on hand-built examples.
"""

from __future__ import annotations

import ast
import math
import operator
from dataclasses import dataclass, fields
from functools import cached_property, reduce

import numpy as np
import scipy.ndimage
import scipy.sparse
import scipy.sparse.linalg

from .bounds import faber_krahn_threshold, pleijel_bound, weyl_term
from .errors import (AllZeroField, DegenerateGrid, InfeasibleOrder,
                     InvalidProblem, MalformedEmbedding, NoConvergence, NoFit,
                     _fields, _integer, _real, _real_array, _show)
from .partition import PartitionBuilder, dart, verify_euler, check_boundary_parity
from .surface import SurfaceSpec

DIRICHLET = "Dirichlet"
NEUMANN = "Neumann"
ROBIN = "Robin"

MAX_CELLS = 1_000_000  # largest grid a problem may ask for (InvalidProblem)
# 4-connectivity: cells sharing an edge belong to one nodal domain.
# nodal_counts labels a whole stack of images as one 2-D image, each image
# followed by a blank row, so no domain reaches the next image
_FOUR_CONNECTED = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])
# sampled eigenspace members counted per nodal_counts call in the law
# report.  Memory sets it: with members formed on the cell grid and one
# labelling per block, law reports on the square and the disk at h = 1/48
# (K = 10, 200 members per cluster) ran no faster with blocks of 25, while
# the process's peak RSS grew from 70.4-71.2 MB at 10 to 72.1-72.5 MB at 25.
COMBO_BLOCK = 10
# the law report's Faber-Krahn check passes when
# lambda |Omega| >= (1 - FK_REL_TOL) kappa pi j01^2
FK_REL_TOL = 0.05
# local_ray_fit tries orders 1..RAY_FIT_LMAX on RAY_FIT_ANGLES samples per
# circle and fails above the relative residual RAY_FIT_THRESHOLD
RAY_FIT_LMAX = 6
RAY_FIT_ANGLES = 96
RAY_FIT_THRESHOLD = 0.25
# prescribe_singular: residual tolerance of the suppressed jet
PRESCRIBE_REL_TOL = 1e-6


# ---------------------------------------------------------------------------
# domains and problems
# ---------------------------------------------------------------------------

def _cells(length, step):
    """Number of cells of width step across length, which must be a
    multiple of the step; at most MAX_CELLS (InvalidProblem)."""
    n = length / step
    if not math.isfinite(n) or n > MAX_CELLS:
        raise InvalidProblem("grid step %g gives %g cells across length "
                             "%g; a grid may have at most MAX_CELLS = %d "
                             "cells" % (step, n, length, MAX_CELLS))
    if abs(n - round(n)) > 1e-9 or round(n) < 1:
        raise InvalidProblem("grid step %g does not divide length %g"
                             % (step, length))
    return round(n)


# Each domain shape checks its fields when made (InvalidProblem), and
# answers three questions: grid(step) gives nx, ny and the lower-left
# corner of its cell grid, inside(x, y) gives the cell mask from the
# cell-centre coordinate arrays, and area(step) gives the area.

class _Lengths:
    """A shape whose fields are lengths, stored as floats, finite and > 0."""

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, _real(
                getattr(self, f.name), "%s %s must be finite and > 0"
                % (type(self).__name__, f.name), sign=">"))


@dataclass(frozen=True)
class Rectangle(_Lengths):
    """[0, w] x [0, h]."""
    w: float
    h: float

    def to_json(self):
        return {"shape": "Rectangle", "w": self.w, "h": self.h}

    def grid(self, step):
        return _cells(self.w, step), _cells(self.h, step), (0.0, 0.0)

    def inside(self, x, y):
        return np.ones(x.shape, bool)

    def area(self, step):
        return self.w * self.h


@dataclass(frozen=True)
class Disk(_Lengths):
    """Radius r about the origin; a cell is in when its centre is."""
    r: float

    def to_json(self):
        return {"shape": "Disk", "r": self.r}

    def grid(self, step):
        n = _cells(2 * self.r, step)
        return n, n, (-self.r, -self.r)

    def inside(self, x, y):
        return x ** 2 + y ** 2 < self.r ** 2

    def area(self, step):
        return math.pi * self.r ** 2


@dataclass(frozen=True)
class Annulus(_Lengths):
    """r_in < |(x, y)| < r_out; a cell is in when its centre is."""
    r_in: float
    r_out: float

    def __post_init__(self):
        super().__post_init__()
        if not self.r_in < self.r_out:
            raise InvalidProblem("annulus needs 0 < rIn < rOut, got %r, %r"
                                 % (self.r_in, self.r_out))

    def to_json(self):
        return {"shape": "Annulus", "rIn": self.r_in, "rOut": self.r_out}

    def grid(self, step):
        n = _cells(2 * self.r_out, step)
        return n, n, (-self.r_out, -self.r_out)

    def inside(self, x, y):
        r2 = x ** 2 + y ** 2
        return (r2 < self.r_out ** 2) & (r2 > self.r_in ** 2)

    def area(self, step):
        return math.pi * (self.r_out ** 2 - self.r_in ** 2)


@dataclass(frozen=True)
class MaskedGrid:
    """The cells marked 1 in a bitmap of one cell per grid step, stored as
    a tuple of row tuples of ints."""
    bitmap: tuple  # tuple of row tuples, 0/1, row 0 = lowest y

    def __post_init__(self):
        rows = self.bitmap
        if not (isinstance(rows, (tuple, list)) and all(
                isinstance(row, (tuple, list)) for row in rows)):
            raise InvalidProblem("a bitmap must be a sequence of rows of 0s "
                                 "and 1s, got bitmap %s" % _show(rows))
        widths = {len(row) for row in rows}
        if len(widths) != 1 or 0 in widths:
            raise InvalidProblem("a bitmap must be a non-empty list of rows "
                                 "of one length, got row lengths %s"
                                 % sorted(widths))
        # integers by the one rule, so 1.0 and true are not cells
        bitmap = tuple(tuple(_integer(v, 0, "bitmap entry") for v in row)
                       for row in rows)
        if max(map(max, bitmap)) > 1:
            raise InvalidProblem("bitmap entries must be 0 or 1")
        object.__setattr__(self, "bitmap", bitmap)

    def to_json(self):
        return {"shape": "MaskedGrid", "bitmap": [list(r) for r in self.bitmap]}

    def grid(self, step):
        return len(self.bitmap[0]), len(self.bitmap), (0.0, 0.0)

    def inside(self, x, y):
        return np.array(self.bitmap, bool)

    def area(self, step):
        return sum(sum(row) for row in self.bitmap) * step * step


DOMAINS = (Rectangle, Disk, Annulus, MaskedGrid)
# the shapes of a problem file: name, class and the JSON keys of its fields
_SHAPES = {"Rectangle": (Rectangle, "w", "h"), "Disk": (Disk, "r"),
           "Annulus": (Annulus, "rIn", "rOut"),
           "MaskedGrid": (MaskedGrid, "bitmap")}


def _cell_centres(shape, origin, h):
    """(X, Y) coordinate arrays of the centres of an (ny, nx) cell grid."""
    ny, nx = shape
    return np.meshgrid(origin[0] + (np.arange(nx) + 0.5) * h,
                       origin[1] + (np.arange(ny) + 0.5) * h)


def _check_pinch(mask):
    """Raise InvalidProblem where two mask cells meet only at a lattice
    corner (a 2x2 block [[1, 0], [0, 1]] or [[0, 1], [1, 0]]): the boundary
    would leave that corner twice, and the nodal extraction walks it as a
    simple curve."""
    sw, se, nw, ne = mask[:-1, :-1], mask[:-1, 1:], mask[1:, :-1], mask[1:, 1:]
    pinch = (sw & ne & ~se & ~nw) | (se & nw & ~sw & ~ne)
    if pinch.any():
        iy, ix = np.argwhere(pinch)[0] + 1
        raise InvalidProblem("the domain mask pinches at lattice corner "
                             "(%d, %d): two cells meet only at that corner"
                             % (ix, iy))


def _point(xy, message, error):
    """xy as two floats by the one real rule (any sign), else `error`."""
    if not (isinstance(xy, (tuple, list, np.ndarray)) and len(xy) == 2):
        raise error("%s, got %s" % (message, _show(xy)))
    return tuple(_real(x, message, error, sign=None) for x in xy)


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
                raise InvalidProblem("%s%r is not real" % (fn.__name__, xs))
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
    outside the grammar raises InvalidProblem."""
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        try:
            c = float(node.value)
        except OverflowError:
            raise InvalidProblem("integer constant in potential is too "
                                 "large for a float") from None
        return lambda x, y: c
    if isinstance(node, ast.Name):
        if node.id not in _NAMES:
            raise InvalidProblem("unknown name %r in potential" % node.id)
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
            raise InvalidProblem("unknown function or arity in potential")
        fn, a = _FUNCS[node.func.id], _compile_potential(node.args[0])
        return lambda x, y: fn(a(x, y))
    raise InvalidProblem("disallowed token in potential: %r"
                         % type(node).__name__)


def parse_potential(expr):
    """Compile a potential V(x, y) from a small arithmetic grammar.

    Allowed: numbers, x, y, pi, + - * / ** %, and sin/cos/tan/exp/sqrt/log/abs.
    Number literals are floats.  V takes coordinate arrays (or floats) and
    gives, element for element, the bits a Python float evaluation gives.
    Division by zero, overflow, domain errors and non-finite values raise
    InvalidProblem, as does an expression outside the grammar.  V._source
    is expr, which EigenProblem.to_json writes back.  A number is read as
    the expression it spells (0 is no potential); a bool is not a number.
    """
    if isinstance(expr, bool):
        raise InvalidProblem("a potential is an expression or a number, got "
                             "%r" % expr)
    if expr is None or isinstance(expr, (int, float)) and expr == 0:
        return None
    try:
        f = _compile_potential(ast.parse(str(expr), mode="eval").body)
    except (SyntaxError, ValueError) as exc:   # a NUL is ValueError on 3.10
        raise InvalidProblem("potential %r: %s" % (expr, exc.args[0])) from None
    except (RecursionError, MemoryError):
        raise InvalidProblem("potential %s is nested too deeply"
                             % _show(expr)) from None

    def V(x, y):
        try:
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                v = f(x, y)
        # libm raises ValueError outside a function's domain, and
        # _per_element InvalidProblem for a complex power
        except (ArithmeticError, ValueError, InvalidProblem,
                RecursionError) as exc:
            raise InvalidProblem("potential %r fails on the grid: %s"
                                 % (expr, exc)) from None
        if not np.all(np.isfinite(v)):
            raise InvalidProblem("potential %r is not finite on the grid"
                                 % expr)
        return v
    V._source = expr
    return V


@dataclass(frozen=True)
class EigenProblem:
    """-Delta + V on a domain (one of DOMAINS) at grid step h with one
    boundary condition, validated once, when constructed: bad input raises
    InvalidProblem, and a grid under 3 sites across raises DegenerateGrid.
    grid_step (> 0) and a Robin problem's robin_h (>= 0) are floats by the
    one real rule (errors._real).

    `potential` is None or a callable V(x, y) that receives the coordinate
    arrays of all grid sites at once and returns an array of the same shape
    (or a scalar), as `parse_potential` does."""
    domain: object
    grid_step: float
    bc: str = DIRICHLET
    robin_h: float = 0.0
    potential: object = None  # callable V(x, y) on coordinate arrays, or None

    def __post_init__(self):
        if not isinstance(self.domain, DOMAINS):
            raise InvalidProblem("unknown domain %.60r; a domain is a "
                                 "Rectangle, Disk, Annulus or MaskedGrid"
                                 % (self.domain,))
        object.__setattr__(self, "grid_step", _real(
            self.grid_step, "grid step must be finite and > 0", sign=">"))
        if self.bc not in (DIRICHLET, NEUMANN, ROBIN):
            raise InvalidProblem("unknown boundary condition %s (choose from "
                                 "Dirichlet, Neumann, Robin)" % _show(self.bc))
        if self.bc == ROBIN:
            object.__setattr__(self, "robin_h", _real(
                self.robin_h, "Robin coefficient must be finite and >= 0"))
        if self.bc != DIRICHLET and not isinstance(self.domain, Rectangle):
            raise InvalidProblem("masked domains support Dirichlet conditions "
                                 "only, got %s" % self.bc)
        self.grid   # build and check the grid now, once

    @property
    def node_layout(self):
        """True for a Dirichlet rectangle: unknowns on the interior nodes."""
        return isinstance(self.domain, Rectangle) and self.bc == DIRICHLET

    @cached_property
    def grid(self):
        """(mask, origin): the read-only (ny, nx) cell mask and the lower-left
        corner of the cell grid, built and checked once: at most MAX_CELLS
        cells (counted before anything is allocated), no pinch (see
        _check_pinch), and 3 sites across or more (else DegenerateGrid)."""
        nx, ny, origin = self.domain.grid(self.grid_step)
        if nx * ny > MAX_CELLS:
            raise InvalidProblem("the grid has %d cells; a grid may have at "
                                 "most MAX_CELLS = %d cells"
                                 % (nx * ny, MAX_CELLS))
        mask = self.domain.inside(*_cell_centres((ny, nx), origin,
                                                 self.grid_step))
        _check_pinch(mask)
        if self.node_layout:
            if nx - 1 < 3 or ny - 1 < 3:
                raise DegenerateGrid("need at least 3 interior nodes per "
                                     "dimension")
        elif mask.any(axis=0).sum() < 3 or mask.any(axis=1).sum() < 3:
            raise DegenerateGrid("mask thinner than 3 cells")
        mask.flags.writeable = False
        return mask, origin

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
        domain, step, bc, robin_h, V = _fields(
            obj, InvalidProblem, "a problem", "domain", "gridStep", version=1,
            bc=DIRICHLET, robinH=0.0, V=None)
        shape, = _fields(domain, InvalidProblem, "a domain", "shape")
        if not isinstance(shape, str) or shape not in _SHAPES:
            raise InvalidProblem("unknown domain shape %s" % _show(shape))
        cls, *keys = _SHAPES[shape]
        return EigenProblem(cls(*_fields(domain, InvalidProblem,
                                         "a %s domain" % shape, *keys)),
                            step, bc, robin_h, parse_potential(V))


# ---------------------------------------------------------------------------
# grid fields
# ---------------------------------------------------------------------------

@dataclass
class GridField:
    """Cell-centered scalar field: values[iy, ix] at
    (origin + (ix+1/2)h, origin + (iy+1/2)h); mask marks cells in the domain.

    Checked when constructed: InvalidProblem unless values is a 2-D array
    of finite real numbers (errors._real_array), mask a boolean array of its
    shape that does not pinch (_check_pinch), origin two finite numbers and
    h finite and positive (errors._real)."""
    values: np.ndarray
    mask: np.ndarray
    origin: tuple
    h: float

    def __post_init__(self):
        values, mask = self.values, self.mask
        shaped = "field values must be a 2-D array of finite real numbers"
        if _real_array(values, shaped).ndim != 2:
            raise InvalidProblem(shaped)
        if not (isinstance(mask, np.ndarray) and mask.dtype == bool
                and mask.shape == values.shape):
            raise InvalidProblem("field mask must be a boolean array of the "
                                 "values' shape %s" % (values.shape,))
        placed = "field origin must be two finite numbers and h finite and " \
                 "positive"
        _point(self.origin, placed, InvalidProblem)
        _real(self.h, placed, sign=">")
        _check_pinch(mask)

    def sample(self, x, y):
        """Bilinear interpolation between cell centers, element for element
        on arrays or at a point; InvalidProblem at a non-finite one."""
        fx = (np.asarray(x) - self.origin[0]) / self.h - 0.5
        fy = (np.asarray(y) - self.origin[1]) / self.h - 0.5
        if not (np.isfinite(fx).all() and np.isfinite(fy).all()):
            raise InvalidProblem("cannot sample a field at a non-finite point")
        ny, nx = self.values.shape
        ix = np.clip(np.floor(fx), 0, nx - 2).astype(int)
        iy = np.clip(np.floor(fy), 0, ny - 2).astype(int)
        tx, ty = fx - ix, fy - iy
        v = self.values
        return ((1 - tx) * (1 - ty) * v[iy, ix] + tx * (1 - ty) * v[iy, ix + 1]
                + (1 - tx) * ty * v[iy + 1, ix] + tx * ty * v[iy + 1, ix + 1])


def _sampler(u):
    """f(x, y) on coordinate arrays: a GridField's sample, or a callable
    called once per point with Python floats, its values read as floats."""
    if isinstance(u, GridField):
        return u.sample
    return lambda x, y: np.asarray(np.frompyfunc(u, 2, 1)(x, y), float)


def sample_field(problem: EigenProblem, fn) -> GridField:
    """Sample an analytic function fn(x, y) at the cell centers of a
    problem, read as floats (see _sampler)."""
    mask, origin = problem.grid
    X, Y = _cell_centres(mask.shape, origin, problem.grid_step)
    vals = _sampler(fn)(X, Y)
    vals[~mask] = 0.0
    return GridField(vals, mask.copy(), origin, problem.grid_step)


# ---------------------------------------------------------------------------
# operator assembly
# ---------------------------------------------------------------------------

class AssembledOperator:
    """-Delta + V on the grid of one problem.

    The layout of the unknowns is read from the problem when the operator is
    made: `layout` ("nodes" for the interior nodes of a Dirichlet rectangle,
    else "cells"), `sites` ((iy, ix) index arrays, row -> site on the grid),
    `origin` and the cell `mask`.  So is the potential at each site, so a
    potential that fails on the grid fails here, as does one that is not
    real and finite, one value per site or a scalar (InvalidProblem).  The
    CSR `matrix` is built on first use; assemble_operator builds it at once."""

    def __init__(self, problem: EigenProblem):
        self.problem = problem
        self.mask, self.origin = problem.grid
        if problem.node_layout:
            self.layout, offset = "nodes", 0.0
            ny, nx = self.mask.shape
            self._site_grid = np.zeros((ny + 1, nx + 1), bool)
            self._site_grid[1:-1, 1:-1] = True
        else:
            self.layout, offset, self._site_grid = "cells", 0.5, self.mask
        self.sites = iy, ix = np.nonzero(self._site_grid)
        self._potential = None
        if problem.potential is not None:
            h = problem.grid_step
            V = np.asarray(problem.potential(
                self.origin[0] + (ix + offset) * h,
                self.origin[1] + (iy + offset) * h))
            if V.shape not in ((), ix.shape):
                raise InvalidProblem("the potential must be real, one value "
                                     "per site or a scalar, got %s of shape "
                                     "%s" % (V.dtype, V.shape))
            self._potential = _real_array(
                V, "the potential is not finite on the grid, or not real: it "
                "must be one value per site or a scalar, got %s" % V.dtype)

    @property
    def n(self):
        return self.sites[0].size

    @cached_property
    def matrix(self) -> scipy.sparse.csr_matrix:
        """Five-point Laplacian + diagonal potential; exactly symmetric.

        One stencil over a boolean site grid: the interior nodes of a
        Dirichlet rectangle, else the cell mask.  A neighbour off the site
        grid is a ghost holding g times the site's value (g = 0 Dirichlet,
        1 Neumann, (2 - h_R h)/(2 + h_R h) Robin), which puts -g/h^2 on the
        diagonal."""
        problem, grid = self.problem, self._site_grid
        h = problem.grid_step
        hr = problem.robin_h if problem.bc == ROBIN else 0.0
        g = 0.0 if problem.bc == DIRICHLET else (2.0 - hr * h) / (2.0 + hr * h)

        iy, ix = self.sites
        n = iy.size
        row_of = np.full((grid.shape[0] + 2, grid.shape[1] + 2), -1)
        row_of[1:-1, 1:-1][grid] = np.arange(n)
        inv_h2 = 1.0 / (h * h)
        diag = np.full(n, 4.0 * inv_h2)
        if self._potential is not None:
            diag = diag + self._potential
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
        return A

    def to_field(self, vec) -> GridField:
        """Cell-centered field for nodal extraction (see cell_values)."""
        return GridField(self.cell_values(np.asarray(vec)[None])[0],
                         self.mask.copy(), self.origin,
                         self.problem.grid_step)

    def cell_values(self, vecs) -> np.ndarray:
        """(B, ny, nx) cell values of a (B, n) stack of vectors.

        For the interior-node layout the cell value is the mean of its four
        corner nodes (boundary nodes are 0 under Dirichlet conditions)."""
        iy, ix = self.sites
        if self.layout == "cells":
            vals = np.zeros((len(vecs),) + self.mask.shape)
            vals[:, iy, ix] = vecs
            return vals
        ny, nx = self.mask.shape
        nodes = np.zeros((len(vecs), ny + 1, nx + 1))
        nodes[:, iy, ix] = vecs
        return 0.25 * (nodes[:, :-1, :-1] + nodes[:, 1:, :-1]
                       + nodes[:, :-1, 1:] + nodes[:, 1:, 1:])


def assemble_operator(problem: EigenProblem) -> AssembledOperator:
    """The operator of a problem with its matrix built (see
    AssembledOperator.matrix)."""
    op = AssembledOperator(problem)
    op.matrix
    return op


# ---------------------------------------------------------------------------
# eigensolution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EigenSolution:
    """K >= 1 eigenpairs of one operator, checked when made (`replace` too):
    finite real arrays of shapes (K,), (operator.n, K) and (K,), eigenvalues
    nondecreasing, residuals >= 0 and cluster_rel_tol finite and >= 0 (the
    array and real rules of errors), else InvalidProblem; then `clusters` is
    derived from the eigenvalues and cluster_rel_tol.  Only to_json and
    from_json know the document."""
    eigenvalues: np.ndarray       # nondecreasing, 1-based labels in reports
    vectors: np.ndarray           # column per eigenpair, orthonormal
    cluster_rel_tol: float
    residuals: np.ndarray
    operator: AssembledOperator

    def __post_init__(self):
        arrays = evs, vecs, res = (self.eigenvalues, self.vectors,
                                   self.residuals)
        n, K = self.operator.n, len(evs) if np.ndim(evs) == 1 else 0
        if not K or (np.shape(vecs), np.shape(res)) != ((n, K), (K,)):
            raise InvalidProblem(
                "a solution needs K >= 1 eigenvalues, one vector per "
                "eigenvalue (of %d entries) and one residual per eigenvalue, "
                "got shapes %s, %s and %s" % (n, *map(np.shape, arrays)))
        reals = "eigenvalues, vector entries and residuals must be finite " \
                "real numbers, residuals >= 0"
        evs, vecs, res = (_real_array(a, reals) for a in arrays)
        if min(res) < 0:
            raise InvalidProblem(reals)
        if (np.diff(evs) < 0).any():
            raise InvalidProblem("eigenvalues must be nondecreasing")
        tol = _real(self.cluster_rel_tol,
                    "cluster tolerance must be finite and >= 0")
        object.__setattr__(self, "cluster_rel_tol", tol)
        object.__setattr__(self, "clusters", cluster_multiplicities(evs, tol))

    def field(self, k) -> GridField:
        """Cell field of the k-th eigenfunction (1-based).  InvalidProblem
        unless k is an integer in 1..K."""
        k = _integer(k, 1, "k")
        if k > len(self.eigenvalues):
            raise InvalidProblem("k must be <= K = %d, got %d"
                                 % (len(self.eigenvalues), k))
        return self.operator.to_field(self.vectors[:, k - 1])

    def to_json(self):
        """The solution document; `vectors` is a C-contiguous (K, n) array."""
        return {"formatVersion": 1,
                "problem": self.operator.problem.to_json(),
                "eigenvalues": [float(v) for v in self.eigenvalues],
                "clusters": [list(c) for c in self.clusters],
                "clusterRelTol": self.cluster_rel_tol,
                "residuals": [float(r) for r in self.residuals],
                "vectors": np.ascontiguousarray(self.vectors.T, float)}

    @staticmethod
    def from_json(obj):
        """The solution of a document to_json wrote, its operator without a
        matrix.  InvalidProblem unless its `clusters` are the derived ones."""
        problem, evs, c, tol, res, vecs = _fields(
            obj, InvalidProblem, "a solution", "problem", "eigenvalues",
            "clusters", "clusterRelTol", "residuals", "vectors", version=1)
        op = AssembledOperator(EigenProblem.from_json(problem))
        sol = EigenSolution(_reals(evs, "eigenvalues"),
                            _reals(vecs, "vectors").T, tol,
                            _reals(res, "residuals"), op)
        if c != sol.clusters:
            raise InvalidProblem("clusters %s are not the clusters %s that "
                                 "the eigenvalues give"
                                 % (_show(c), sol.clusters))
        for k in (k for x in c for k in x):  # 1.0 and True equal 1
            _integer(k, 1, "an index in clusters")
        return sol


def _reals(value, name):
    """A JSON array of numbers (of arrays, for a matrix) as an array of the
    dtype numpy infers, which EigenSolution checks by the real array rule
    (strings give a str array), else InvalidProblem naming it.  A bool among
    numbers reads as 0 or 1, so only entries of those values are probed."""
    try:
        a = np.array(value)
    except ValueError:              # ragged
        a = None
    if a is None or a.ndim and any(
            isinstance(reduce(operator.getitem, i, value), (bool, np.bool_))
            for i in zip(*np.nonzero((a == 0) | (a == 1)))):
        raise InvalidProblem("%s must be an array of numbers" % name)
    return a


def cluster_multiplicities(evs, rel_tol=1e-3):
    """Maximal runs of consecutive eigenvalues with relative gap < rel_tol.

    Returns clusters as lists of 1-based indices.  InvalidProblem unless
    rel_tol is finite and >= 0."""
    rel_tol = _real(rel_tol, "cluster tolerance must be finite and >= 0")
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


def _shift_factor(A, sigma):
    """Sparse LU factor of A - sigma*I in SuperLU's symmetric mode: one
    minimum-degree ordering of A + A^T for rows and columns, and no
    pivoting.  NoConvergence if the factor pivoted anyway (see
    solve_eigen)."""
    n = A.shape[0]
    shifted = (A - sigma * scipy.sparse.identity(n, format="csr")).tocsc()
    lu = scipy.sparse.linalg.splu(shifted, permc_spec="MMD_AT_PLUS_A",
                                  diag_pivot_thresh=0.0,
                                  options={"SymmetricMode": True})
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise NoConvergence("the factor of A - sigma*I pivoted off its "
                            "diagonal")
    return lu


def solve_eigen(op: AssembledOperator, K: int, tol: float = 1e-9,
                cluster_rel_tol: float = 1e-3) -> EigenSolution:
    """First K eigenpairs, sorted, by shift-invert Lanczos (ARPACK eigsh)
    about a shift sigma below the spectrum.  ARPACK cannot return every
    eigenpair, so K must be below the number of unknowns n.  InvalidProblem
    unless K is an integer >= 1 and both tolerances are finite and >= 0.

    eigsh applies (A - sigma*I)^-1 through one sparse factor per solve
    (_shift_factor): SuperLU in symmetric mode, with a minimum-degree
    ordering of A + A^T and no pivoting.  sigma lies below the Gershgorin
    bound of the symmetric A, so A - sigma*I is strictly diagonally dominant
    with a positive diagonal, hence positive definite; elimination in any
    symmetric order keeps it so, and no pivot is ever needed.  The
    symmetric ordering then fills about half as much as SuperLU's default
    column ordering with partial pivoting.  A factor that pivoted anyway,
    a failed eigsh or a residual above tolerance is a NoConvergence that
    names sigma, n and K."""
    tol = _real(tol, "residual tolerance must be finite and >= 0")
    K = _integer(K, 1, "K")
    A = op.matrix
    n = A.shape[0]
    if K >= n:
        raise InvalidProblem("K = %d is not below the matrix dimension %d"
                             % (K, n))
    # Gershgorin lower bound keeps the shift strictly below the spectrum
    diag = A.diagonal()
    radii = np.abs(A).sum(axis=1).A1 - np.abs(diag)
    sigma = float((diag - radii).min()) - 1.0
    where = "at shift %g (n = %d, K = %d)" % (sigma, n, K)
    try:
        lu = _shift_factor(A, sigma)
        OPinv = scipy.sparse.linalg.LinearOperator(A.shape, matvec=lu.solve,
                                                   dtype=A.dtype)
        # a fixed random start vector makes the solve repeatable; a
        # constant one would be orthogonal to modes odd in x or y
        v0 = np.random.default_rng(0).standard_normal(n)
        w, v = scipy.sparse.linalg.eigsh(A, k=K, sigma=sigma, which="LM",
                                         v0=v0, OPinv=OPinv)
    except Exception as exc:
        raise NoConvergence("eigsh failed %s: %s" % (where, exc))
    order = np.argsort(w)
    evs, vecs = w[order], v[:, order]
    res = np.empty(K)
    for i in range(K):
        u = vecs[:, i]
        res[i] = np.linalg.norm(A @ u - evs[i] * u) / np.linalg.norm(u)
    if res.max() > max(tol, 1e3 * np.finfo(float).eps * max(abs(evs))):
        raise NoConvergence("max residual %.3g above tolerance %.3g %s"
                            % (res.max(), tol, where))
    if K >= 2:
        scale = max(abs(evs[1]), 1.0)
        if not (evs[1] - evs[0]) / scale > 1e-12:
            raise InvalidProblem("ground state must be simple (is the domain "
                                 "connected?)")
    return EigenSolution(evs, vecs, cluster_rel_tol, res, op)


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
    segments: list                # interface corner pairs, in scan order

    def to_json(self):
        return {"formatVersion": 1, "kappa": self.domain_count,
                "interiorSingular": [{"x": p[0], "y": p[1], "nu": nu}
                                     for p, nu in self.interior_singular],
                "boundarySingular": [{"x": p[0], "y": p[1], "rho": r,
                                      "component": c}
                                     for p, r, c in self.boundary_singular],
                "partition": self.as_partition.to_json()}


def _boundary_cycles(mask):
    """Boundary of the cell mask as cyclic corner sequences (one per boundary
    component), each traced with the domain kept on the left (outer boundary
    counter-clockwise, hole boundaries clockwise).  The mask must not pinch,
    as a GridField's is checked when constructed (see _check_pinch), and
    must be one piece: InvalidProblem when a second cycle is
    counter-clockwise."""
    ny, nx = mask.shape

    def inside(c):
        x, y = c
        return 0 <= x < nx and 0 <= y < ny and mask[y, x]
    # directed boundary steps: from corner a to corner b with inside on left;
    # one step leaves each corner, since the mask does not pinch
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
    # outer boundary first (counter-clockwise: positive signed area), then
    # the clockwise holes, longest first; deterministic
    def clockwise(c):
        return sum(ax * by - bx * ay
                   for (ax, ay), (bx, by) in zip(c, c[1:] + c[:1])) < 0
    cycles.sort(key=lambda c: (clockwise(c), -len(c), c[0]))
    if len(cycles) > 1 and not clockwise(cycles[1]):
        raise InvalidProblem("the domain mask is not connected: nodal "
                             "extraction needs a mask in one piece")
    return cycles


def nodal_count(u: GridField):
    """Sign array (+1/-1 in the mask, 0 outside) and kappa, the number of
    4-connected same-sign cell components, without tracing the nodal set.

    extract_nodal starts from the same two values.  An exact zero counts as
    negative.  Raises AllZeroField when the field vanishes on the mask."""
    kappa = int(nodal_counts(u.values[None], u.mask)[0])
    sign = np.where(u.values > 0, 1, -1)
    sign[~u.mask] = 0
    return sign, kappa


def nodal_counts(values, mask):
    """The kappa of nodal_count for each member of a (B, ny, nx) stack of
    cell values on one mask, from one labelling of the whole stack.

    An exact zero counts as negative.  Raises AllZeroField when any member
    vanishes on the mask."""
    if not ((np.abs(values) > 0) & mask).any(axis=(1, 2)).all():
        raise AllZeroField("field vanishes identically")
    positive = values > 0
    n, ny, nx = values.shape
    same = np.zeros((2, n, ny + 1, nx), bool)
    np.logical_and(positive, mask, out=same[0, :, :ny])
    np.logical_and(mask, ~positive, out=same[1, :, :ny])
    labels, _ = scipy.ndimage.label(same.reshape(-1, nx), _FOUR_CONNECTED)
    # a two-pass labeller numbers components in raster order of their first
    # cell, so the components of each image form one label range: the
    # running maximum label at the end of an image, less the one before it
    top = np.maximum.accumulate(labels.reshape(2 * n, -1).max(axis=1))
    counts = np.diff(top, prepend=0)
    return counts[:n] + counts[n:]


def extract_nodal(u: GridField) -> NodalExtract:
    """Sign pattern -> nodal domains + embedded partition.

    The sign array and kappa, the number of 4-connected same-sign cell
    components, come from nodal_count.  Singular corners are the
    partition's vertices: corners where the four surrounding cells
    alternate in sign are interior singular points (nu = 4 on a square
    lattice), and corners where the interface between opposite-sign cells
    meets the mask boundary are boundary singular points (rho = 1 each).
    One walker builds every edge: it follows the interface, then each
    boundary cycle, from each singular corner to the next (an edge) and
    around each closed curve without one (a circle)."""
    sign, kappa = nodal_count(u)
    mask = u.mask
    ny, nx = sign.shape

    def inside(c):
        x, y = c
        return 0 <= x < nx and 0 <= y < ny and mask[y, x]

    # interface segments between adjacent opposite-sign cells, keyed by the
    # corner pair they join; the scan meets each segment once
    segments = []
    for iy in range(ny):
        for ix in range(nx):
            if not mask[iy, ix]:
                continue
            if inside((ix + 1, iy)) and sign[iy, ix] * sign[iy, ix + 1] < 0:
                segments.append(((ix + 1, iy), (ix + 1, iy + 1)))   # vertical
            if inside((ix, iy + 1)) and sign[iy, ix] * sign[iy + 1, ix] < 0:
                segments.append(((ix, iy + 1), (ix + 1, iy + 1)))   # horizontal
    incident = {}
    for a, b in segments:
        incident.setdefault(a, []).append(b)
        incident.setdefault(b, []).append(a)

    cycles = _boundary_cycles(mask)
    component = {c: ci for ci, cyc in enumerate(cycles) for c in cyc}
    # a planar domain with one hole per boundary cycle after the outer one
    b = PartitionBuilder(SurfaceSpec.planar_domain(len(cycles) - 1),
                         nodal=True)

    # singular corners, in sorted order, become the partition's vertices:
    # boundary corners on the nodal set, and interior corners of degree != 2
    vid = {}
    interior_list = []
    boundary_list = []
    for corner in sorted(c for c, nbrs in incident.items()
                         if c in component or len(nbrs) != 2):
        deg = len(incident[corner])
        xy = (u.origin[0] + corner[0] * u.h, u.origin[1] + corner[1] * u.h)
        if corner in component:
            vid[corner] = b.boundary_vertex(deg, component[corner])
            boundary_list.append((xy, deg, component[corner]))
        elif deg < 2:
            raise MalformedEmbedding("dangling nodal segment at %r" % (corner,))
        else:
            vid[corner] = b.interior(deg)
            interior_list.append((xy, deg))

    def step_angle(a, b):
        return math.atan2(b[1] - a[1], b[0] - a[0])

    # one walker builds every edge.  It walks the interface from each
    # singular corner, then from each leftover segment, then each boundary
    # cycle forward from each of its singular corners (or, with none, from
    # its first corner); `nbrs` maps a corner to its two neighbours on the
    # curve walked.  A chain from a singular corner to the next one becomes
    # an edge; a walk from any other corner runs back to its start and
    # becomes a circle.  Each dart is kept with the direction of its first
    # step for the rotation at its vertex.
    walks = [(c, first, incident, {}) for c in vid
             for first in sorted(incident[c])]
    walks += [(a, c, incident, {}) for a, c in sorted(segments)]
    for ci, cyc in enumerate(cycles):
        # each corner's predecessor and successor on the cycle
        nbrs = dict(zip(cyc, zip(cyc[-1:] + cyc[:-1], cyc[1:] + cyc[:1])))
        walks += [(c, nbrs[c][1], nbrs, {"boundary": True, "component": ci})
                  for c in [c for c in cyc if c in vid] or cyc[:1]]
    darts_at = {c: [] for c in vid}
    used = set()
    for start, first, nbrs, kind in walks:
        if (min(start, first), max(start, first)) in used:
            continue
        path = [start, first]
        while path[-1] not in vid and path[-1] != start:
            pair = nbrs[path[-1]]   # two: other degrees are singular
            path.append(pair[0] if pair[1] == path[-2] else pair[1])
        used.update((min(p, q), max(p, q)) for p, q in zip(path, path[1:]))
        if start in vid:
            e = b.edge(vid[start], vid[path[-1]], **kind)
            darts_at[start].append((dart(e, 0), step_angle(start, first)))
            darts_at[path[-1]].append((dart(e, 1),
                                       step_angle(path[-1], path[-2])))
        else:
            m = b.circle()
            b.edge(m, m, **kind)

    # no two darts at a corner leave in the same direction
    for corner, entries in darts_at.items():
        entries.sort(key=lambda t: t[1])
        b.set_rotation(vid[corner], [d for d, _ in entries])

    part = b.build()
    return NodalExtract(sign, kappa, interior_list, boundary_list, part, u,
                        segments)


# ---------------------------------------------------------------------------
# local ray fit
# ---------------------------------------------------------------------------

def local_ray_fit(u, x0, radius):
    """Fit r^l (a sin l*omega + b cos l*omega) on circles around x0.

    u is a GridField or a callable (x, y) -> value, sampled once (see
    _sampler).  Returns (l, rayAngles, residual): the order minimizing the
    relative residual, the 2l equiangular zero angles of the fitted
    trigonometric polynomial, and the residual itself.  NoFit unless the
    radius is finite and positive and the centre two finite numbers."""
    placed = "need a finite positive radius and a centre of two finite " \
             "numbers"
    x0 = _point(x0, placed, NoFit)
    radius = _real(radius, placed, NoFit, sign=">")
    radii = np.array([0.5 * radius, 0.75 * radius, radius])[:, None]
    omegas = np.arange(RAY_FIT_ANGLES) * (2 * math.pi / RAY_FIT_ANGLES)
    # libm's sin, cos and pow, which numpy's may not match in the last bit
    lw = np.arange(1, RAY_FIT_LMAX + 1)[:, None] * omegas
    sin_lw, cos_lw = _FUNCS["sin"](lw), _FUNCS["cos"](lw)
    vals = _sampler(u)(x0[0] + radii * cos_lw[0],
                       x0[1] + radii * sin_lw[0]).ravel()
    norm = np.linalg.norm(vals)
    if norm == 0:
        raise NoFit("field vanishes on the sampling circles")

    def fit(ell):
        rl = _BINARY[ast.Pow](radii, ell)
        cols = np.stack([(rl * sin_lw[ell - 1]).ravel(),
                         (rl * cos_lw[ell - 1]).ravel()], axis=1)
        coef = np.linalg.lstsq(cols, vals, rcond=None)[0]
        return ell, coef, np.linalg.norm(cols @ coef - vals) / norm
    ell, (a, bcoef), resid = min(map(fit, range(1, RAY_FIT_LMAX + 1)),
                                 key=lambda t: t[2])
    if resid > RAY_FIT_THRESHOLD:
        raise NoFit("best relative residual %.3g above threshold" % resid)
    # zeros of a sin(l w) + b cos(l w): l*w = -atan2(b, a) + j*pi
    two_pi = 2 * math.pi
    w = ((-math.atan2(bcoef, a) + np.arange(2 * ell) * math.pi) / ell) % two_pi
    return ell, sorted(np.where(two_pi - w < 1e-9, 0.0, w).tolist()), resid


# ---------------------------------------------------------------------------
# prescribed singular points
# ---------------------------------------------------------------------------

def _derivatives(samples, h):
    """(..., K + 1): for k = 0..K, the centre of the 2K + 1 samples at step
    h along the last axis after k iterated central differences."""
    K = samples.shape[-1] // 2
    out = [samples[..., K]]
    for k in range(1, K + 1):
        samples = (samples[..., 2:] - samples[..., :-2]) / (2 * h)
        out.append(samples[..., K - k])
    return np.stack(out, axis=-1)


def prescribe_singular(basis, site, target_order, boundary=None, h=None):
    """Unit coefficient vector whose combination vanishes to the requested
    order at the site (interior) or suppresses the boundary data (boundary).

    basis: list of GridFields or callables, each sampled once (see
    _sampler); each derivative is a central difference of those samples
    (see _derivatives).  For an interior site the constraints are all
    discrete partial derivatives of total order < q = target_order.  For a
    boundary site, pass boundary=(outward normal, tangent); constraints are
    the one-sided normal trace and its tangential derivatives of order < q.
    Raises InfeasibleOrder when fewer than 2 basis fields are given, q is
    not an integer >= 1 (a numpy integer counts, a bool does not), the
    constraints (q(q + 1)/2 interior, q boundary) are not fewer than the
    basis fields, the site is not two finite numbers or h is not finite and
    positive (errors._real), or the suppressed jet's residual is above
    PRESCRIBE_REL_TOL."""
    m = len(basis)
    if m < 2:
        raise InfeasibleOrder("need at least 2 basis fields, got %d" % m)
    q = _integer(target_order, 1, "target order", InfeasibleOrder)
    count = q * (q + 1) // 2 if boundary is None else q
    if count >= m:
        raise InfeasibleOrder("order %d needs %d constraints, only %d basis "
                              "fields" % (q, count, m))
    if h is None:
        h = basis[0].h if isinstance(basis[0], GridField) else 1e-3
    placed = "need a site of two finite numbers and h finite and positive"
    site = _point(site, placed, InfeasibleOrder)
    h = _real(h, placed, InfeasibleOrder, sign=">")
    t = np.arange(1 - q, q) * h
    if boundary is None:
        x, y = site[0] + t, site[1] + t[:, None]
    else:
        # one step inward along the tangent line: proportional to the normal
        # derivative under Dirichlet conditions, a trace otherwise
        nrm, tangent = boundary
        x = site[0] + t * tangent[0] - h * nrm[0]
        y = site[1] + t * tangent[1] - h * nrm[1]
    jets = _derivatives(np.array([_sampler(f)(x, y) for f in basis]), h)
    if boundary is None:
        # (basis, x order, y order) -> the orders of total below q
        kx, ky = zip(*[(i, total - i) for total in range(q)
                       for i in range(total + 1)])
        jets = _derivatives(jets.swapaxes(1, 2), h)[:, kx, ky]
    # constraints x basis, the transpose of a C-ordered basis x constraints
    # array: a matrix's layout sets the order in which J @ c sums
    J = np.ascontiguousarray(jets).T
    scale = max(np.abs(J).max(), 1e-300)
    c = np.linalg.svd(J)[2][-1]
    c = c / np.linalg.norm(c)
    resid = np.linalg.norm(J @ c) / scale
    if resid > PRESCRIBE_REL_TOL:
        raise InfeasibleOrder("suppressed jet residual %.3g above %.3g"
                              % (resid, PRESCRIBE_REL_TOL))
    return c, resid


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


# the entry keys that gate LawReport.passed, with every combination check;
# faberKrahn gates Dirichlet problems only, and pleijel and weyl never gate
GATING_KEYS = ("courant", "multBound", "faberKrahn", "euler", "parity")


def verify_spectral_laws(sol: EigenSolution, problem: EigenProblem,
                         seed: int = 0, n_combos: int = 200) -> LawReport:
    """Courant, multiplicity, Faber-Krahn, Pleijel, Weyl and Euler checks,
    one eigenvalue cluster at a time.  Each eigenvector is extracted for the
    Euler and parity checks.  Random in-cluster combinations (seeded, seed
    recorded) are formed on the cell grid from the cluster's basis, mapped
    to cells once, and only counted, COMBO_BLOCK at a time, by nodal_counts.
    `passed` needs every combination check and the GATING_KEYS of every
    entry: courant, multBound, euler, parity and, on Dirichlet problems
    only, faberKrahn; pleijel and weyl are reported but do not gate.
    InvalidProblem unless seed and n_combos are integers >= 0 and `problem`
    is the one `sol` solves, whose clusters are derived (EigenSolution)."""
    seed = _integer(seed, 0, "seed")
    n_combos = _integer(n_combos, 0, "n_combos")
    if problem != sol.operator.problem:
        raise InvalidProblem("problem differs from the solved problem")
    area = problem.domain.area(problem.grid_step)
    rng = np.random.default_rng(seed)
    entries, combo_checks = [], []
    for cluster in sol.clusters:
        kf, k_hi, mult = cluster[0], cluster[-1], len(cluster)
        mult_ok = mult <= 2 * kf - 1 and (kf < 3 or mult <= 2 * kf - 2)
        for k in cluster:
            lam = float(sol.eigenvalues[k - 1])
            ext = extract_nodal(sol.field(k))
            kappa = ext.domain_count
            fk_lhs = lam * area
            fk_rhs = faber_krahn_threshold(kappa)
            # the Pleijel bound needs lambda > 0, and a Neumann lambda_1 may
            # round below; the entry then rests on its 2k - 1 clause
            pleijel = mult <= 2 * kf - 1 or (
                lam > 0 and mult <= pleijel_bound(lam, area)[0] + 1e-9)
            entries.append({
                "k": k, "lambda": lam, "kappa": kappa, "mult": mult,
                "courant": kappa <= k, "multBound": mult_ok,
                "faberKrahn": fk_lhs >= fk_rhs * (1 - FK_REL_TOL),
                "faberKrahnRatio": fk_lhs / fk_rhs, "pleijel": pleijel,
                "euler": verify_euler(ext.as_partition).passed,
                "parity": all(r["passed"] for r in
                              check_boundary_parity(ext.as_partition))})
        if mult > 1:
            coeffs = rng.standard_normal((n_combos, mult))
            # a row's 1-D norm; norm(axis=1) may round differently
            coeffs /= np.array([np.linalg.norm(c) for c in coeffs])[:, None]
            basis = sol.operator.cell_values(sol.vectors.T[kf - 1:k_hi])
            worst = 0
            for start in range(0, n_combos, COMBO_BLOCK):
                block = coeffs[start:start + COMBO_BLOCK]
                cells = sum(block[:, j, None, None] * basis[j]
                            for j in range(mult))
                kappas = nodal_counts(cells, sol.operator.mask)
                worst = max(worst, int(kappas.max()))
            combo_checks.append({"cluster": list(cluster), "samples": n_combos,
                                 "maxKappa": worst, "bound": k_hi,
                                 "passed": worst <= k_hi})
    lam_max = float(sol.eigenvalues[-1])
    w = weyl_term(lam_max, area)
    K = len(sol.eigenvalues)
    weyl = {"lambda": lam_max, "count": K, "weylTerm": w,
            "relativeDeviation": abs(K - w) / K}
    gates = [key for key in GATING_KEYS
             if key != "faberKrahn" or problem.bc == DIRICHLET]
    passed = all(e[key] for e in entries for key in gates) \
        and all(c["passed"] for c in combo_checks)
    return LawReport(seed, entries, combo_checks, weyl, passed)
