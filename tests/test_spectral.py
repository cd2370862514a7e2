"""Finite-difference eigensolver, nodal extraction, and law checks."""

import dataclasses
import json
import math
import types

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import jn_zeros, jv

import helpers
from nodalkit import spectral
from nodalkit.bounds import bessel_j0_first_zero
from nodalkit.errors import (AllZeroField, DegenerateGrid, InfeasibleOrder,
                             InvalidProblem, NoConvergence, NoFit)
from nodalkit.partition import (check_boundary_parity, partition_stats,
                                trace_faces, verify_euler)
from nodalkit.spectral import (Annulus, Disk, EigenProblem, GridField,
                               MaskedGrid, Rectangle, assemble_operator,
                               cluster_multiplicities, extract_nodal,
                               local_ray_fit, nodal_count, parse_potential,
                               prescribe_singular,
                               sample_field, solve_eigen, verify_spectral_laws)


def test_assembly_shape_and_symmetry():
    p = EigenProblem(Rectangle(1, 1), 0.25)
    op = assemble_operator(p)
    assert op.n == 9  # 3x3 interior nodes
    A = op.matrix
    assert abs(A - A.T).nnz == 0
    # stencil row: 4/h^2 on the diagonal
    assert A.diagonal()[4] == pytest.approx(4 / 0.25 ** 2)


def test_neumann_constant_null_vector():
    p = EigenProblem(Rectangle(1, 1), 0.25, bc="Neumann")
    op = assemble_operator(p)
    ones = np.ones(op.n)
    assert np.linalg.norm(op.matrix @ ones) < 1e-12


def test_robin_interval_cross_check():
    # -u'' on [0,1], Neumann left, Robin right: sqrt(l) tan(sqrt(l)) = h
    n, hr = 400, 1.0
    A = helpers.assemble_interval(n, 1.0 / n, "Neumann", "Robin", robin_h=hr)
    lam1 = np.linalg.eigvalsh(A)[0]
    root = brentq(lambda l: math.sqrt(l) * math.tan(math.sqrt(l)) - hr,
                  0.1, (math.pi / 2) ** 2 * 0.999)
    assert abs(lam1 - root) / root < 1e-5
    # h -> 0 recovers the Neumann null eigenvalue
    A0 = helpers.assemble_interval(n, 1.0 / n, "Neumann", "Robin", robin_h=0.0)
    assert abs(np.linalg.eigvalsh(A0)[0]) < 1e-9


def test_robin_square_symmetric_and_positive():
    p = EigenProblem(Rectangle(1, 1), 1 / 16, bc="Robin", robin_h=2.0)
    op = assemble_operator(p)
    assert abs(op.matrix - op.matrix.T).nnz == 0
    sol = solve_eigen(op, 3)
    assert sol.eigenvalues[0] > 0  # Robin with h>0 has positive ground state


def test_degenerate_grid():
    with pytest.raises(DegenerateGrid):
        assemble_operator(EigenProblem(Rectangle(1, 1), 0.5))


def test_square_eigenvalues():
    p = EigenProblem(Rectangle(1, 1), 1 / 64)
    sol = solve_eigen(assemble_operator(p), 4)
    assert abs(sol.eigenvalues[0] - 2 * math.pi ** 2) / (2 * math.pi ** 2) < 0.01
    assert sol.clusters[1] == [2, 3]
    gap = abs(sol.eigenvalues[2] - sol.eigenvalues[1]) / sol.eigenvalues[2]
    assert gap < 1e-3
    assert abs(sol.eigenvalues[1] - 5 * math.pi ** 2) / (5 * math.pi ** 2) < 0.01


def test_convergence_second_order():
    lams = []
    for n in (16, 32, 64):
        p = EigenProblem(Rectangle(1, 1), 1.0 / n)
        lams.append(solve_eigen(assemble_operator(p), 1).eigenvalues[0])
    exact = 2 * math.pi ** 2
    e1, e2, e3 = (abs(l - exact) for l in lams)
    assert 3.0 < e1 / e2 < 5.0
    assert 3.0 < e2 / e3 < 5.0


def test_sparse_solve_repeatable():
    # n = 47^2 takes the eigsh path; clusters [2, 3], [5, 6], ... are degenerate
    op = assemble_operator(EigenProblem(Rectangle(1, 1), 1 / 48))
    a, b = solve_eigen(op, 10), solve_eigen(op, 10)
    assert a.vectors.tobytes() == b.vectors.tobytes()
    assert a.eigenvalues.tobytes() == b.eigenvalues.tobytes()


def test_disk_eigenvalue():
    p = EigenProblem(Disk(1.0), 1 / 64)
    sol = solve_eigen(assemble_operator(p), 1)
    j01 = bessel_j0_first_zero()
    assert abs(sol.eigenvalues[0] - j01 ** 2) / j01 ** 2 < 0.015


def test_annulus_runs():
    p = EigenProblem(Annulus(0.25, 1.0), 1 / 32)
    sol = solve_eigen(assemble_operator(p), 2)
    assert sol.eigenvalues[0] > 0
    e = extract_nodal(sol.field(1))
    assert verify_euler(e.as_partition).passed


def test_cluster_multiplicities():
    assert cluster_multiplicities([19.73, 49.34, 49.35, 98.9], 1e-2) \
        == [[1], [2, 3], [4]]
    assert cluster_multiplicities([], 1e-3) == []
    assert cluster_multiplicities([5, 5, 5], 1e-3) == [[1, 2, 3]]


def test_potential_parsing():
    V = parse_potential("sin(pi*x) + y**2")
    assert V(0.5, 2.0) == pytest.approx(1.0 + 4.0)
    assert parse_potential(None) is None
    assert parse_potential(0) is None
    with pytest.raises(InvalidProblem, match="unknown function"):
        parse_potential("__import__('os')")
    with pytest.raises(InvalidProblem, match="unknown function"):
        parse_potential("open('x')")


def _with_potential(p, expr):
    return EigenProblem(p.domain, p.grid_step, p.bc, p.robin_h,
                        parse_potential(expr))


_TWO_PIECES = tuple(tuple(1 if iy in (0, 1, 2, 5, 6, 7) else 0
                          for _ in range(8)) for iy in range(8))

# every problem the suite and the demos assemble, the three cli-pipeline
# benchmark problems (the last three with h = 1/128 or 1/64), and each site
# layout with a potential
_ORACLE_PROBLEMS = [
    (EigenProblem(Rectangle(1, 1), h), None)
    for h in (0.25, 1 / 8, 1 / 16, 1 / 24, 1 / 32, 1 / 48, 1 / 64)
] + [
    (EigenProblem(Rectangle(1, 1), 0.25, bc="Neumann"), None),
    (EigenProblem(Rectangle(1, 1), 1 / 16, bc="Robin", robin_h=2.0), None),
    (EigenProblem(Rectangle(2, 1), 1 / 8, bc="Robin", robin_h=1.5), None),
    (EigenProblem(Rectangle(1, 1), 1 / 16), "7"),
    (EigenProblem(Disk(0.5), 1 / 48), None),
    (EigenProblem(Disk(1.0), 1 / 32), None),
    (EigenProblem(Disk(1.0), 1 / 64), None),
    (EigenProblem(Disk(1.0), 1 / 96), None),
    (EigenProblem(Disk(1.0), 1 / 128), None),
    (EigenProblem(Annulus(0.25, 1.0), 1 / 32), None),
    (EigenProblem(MaskedGrid(tuple(tuple(1 for _ in range(8))
                                   for _ in range(8))), 1 / 8), None),
    (EigenProblem(MaskedGrid(_TWO_PIECES), 1 / 8), None),
    (EigenProblem(Rectangle(2, 1), 1 / 32, bc="Neumann"),
     "sin(pi*x)*cos(3*y) + x**2 % 0.3 + exp(-y) - log(y+2)/tan(x+0.1)"),
    (EigenProblem(Annulus(0.25, 1.0), 1 / 32),
     "sqrt(x*x+y*y) + abs(x-y)**1.5 - 2.5/(1+y*y)"),
    (EigenProblem(Rectangle(1, 1), 1 / 128), None),
    (EigenProblem(Disk(0.5), 1 / 128), "12.3456*(x*x+y*y)"),
    (EigenProblem(Rectangle(2, 1), 1 / 64, bc="Robin", robin_h=2.0), None),
]


@pytest.mark.parametrize("problem,expr", _ORACLE_PROBLEMS)
def test_assembler_matches_loop_reference(problem, expr):
    ref_V = None
    if expr is not None:
        problem = _with_potential(problem, expr)
        ref_V = helpers.reference_potential(expr)
    A = assemble_operator(problem).matrix
    R = helpers.reference_assemble(problem, ref_V)
    assert np.array_equal(A.indptr, R.indptr)
    assert np.array_equal(A.indices, R.indices)
    assert A.data.dtype == R.data.dtype and A.data.tobytes() == R.data.tobytes()


@pytest.mark.parametrize("k", [0, -1, True, 5, 1.5, "2", None],
                         ids=["zero", "negative", "bool", "above-K", "float",
                              "str", "none"])
def test_field_rejects_bad_index(k):
    # 0 and -1 once indexed from the end, True read as 1, and K + 1 and
    # 1.5 raised a bare IndexError
    sol = solve_eigen(assemble_operator(EigenProblem(Rectangle(1, 1), 1 / 16)),
                      4)
    with pytest.raises(InvalidProblem, match="k must be"):
        sol.field(k)


def test_field_accepts_numpy_integers():
    sol = solve_eigen(assemble_operator(EigenProblem(Rectangle(1, 1), 1 / 16)),
                      4)
    for k in (np.int64(4), np.int32(1), np.uint8(2)):
        assert np.array_equal(sol.field(k).values, sol.field(int(k)).values)


@pytest.mark.parametrize("problem", [EigenProblem(Rectangle(2, 1), 1 / 8),
                                     EigenProblem(Rectangle(2, 1), 1 / 8,
                                                  bc="Neumann"),
                                     EigenProblem(Disk(1.0), 1 / 8)])
def test_to_field_places_rows_in_grid_order(problem):
    op = assemble_operator(problem)
    vec = np.arange(1.0, op.n + 1)
    f = op.to_field(vec)
    if op.layout == "cells":
        # rows run over the mask cells with x fastest
        assert np.array_equal(f.values[f.mask], vec)
        assert not f.values[~f.mask].any()
    else:
        ny, nx = f.mask.shape
        nodes = np.zeros((ny + 1, nx + 1))
        nodes[1:-1, 1:-1] = vec.reshape(ny - 1, nx - 1)
        expect = 0.25 * (nodes[:-1, :-1] + nodes[1:, :-1]
                         + nodes[:-1, 1:] + nodes[1:, 1:])
        assert np.array_equal(f.values, expect) and f.mask.all()


@pytest.mark.parametrize("expr", [
    "sin(3*x+y)", "cos(x*y-1)", "tan(x-0.3*y)", "exp(x-2*y)",
    "sqrt(x+y+3)", "log(x+2)", "abs(x-y)", "(x+1)**2.5 + (y+2)**x - 2**-x",
    "x % 0.3 - y % -0.7 + 7 % 3", "-x*pi/3 + +y - 1/7",
    "12.3456*(x*x+y*y)"])
def test_potential_array_bits_equal_scalar_eval(expr):
    rng = np.random.default_rng(5)
    X, Y = rng.uniform(-1, 1, (2, 7, 9))
    ref = helpers.reference_potential(expr)
    expect = np.array([[ref(x, y) for x, y in zip(xr, yr)]
                       for xr, yr in zip(X.tolist(), Y.tolist())])
    V = parse_potential(expr)
    assert V(X, Y).tobytes() == expect.tobytes()
    x, y = float(X[0, 0]), float(Y[0, 0])
    assert float(V(x, y)) == ref(x, y)


@pytest.mark.parametrize("expr", ["1/(x-0.5)", "9**9**9", "1e400",
                                  "exp(1000*x)", "log(x-1)", "(x-0.5)**0.5",
                                  "x % 0", "1e300*1e300*x"])
def test_bad_potential_values_raise(expr):
    # on the node lattice of h = 1/8 the site x = 0.5 exists
    p = _with_potential(EigenProblem(Rectangle(1, 1), 1 / 8), expr)
    with pytest.raises(InvalidProblem, match="potential"):
        assemble_operator(p)


def test_potential_off_its_domain_on_a_disk():
    # the disk's cells reach x < 0, where math.log raises ValueError; the
    # potential reports it as InvalidProblem
    p = _with_potential(EigenProblem(Disk(0.5), 1 / 16), "log(x)")
    with pytest.raises(InvalidProblem,
                       match="'log\\(x\\)' fails on the grid: math domain"):
        assemble_operator(p)


@pytest.mark.parametrize("expr", ["x +", "True", "'a'", "sin", "sin(x, y)",
                                  "x // 2", "x if y else 1", "z"])
def test_bad_potential_syntax_raises(expr):
    with pytest.raises(InvalidProblem, match="potential"):
        parse_potential(expr)


def test_invalid_problems_raise():
    with pytest.raises(InvalidProblem):
        EigenProblem(Rectangle(1, 1), 1 / 8, bc="Foo")
    with pytest.raises(InvalidProblem):
        EigenProblem(Rectangle(1, 1), -0.125)
    with pytest.raises(InvalidProblem):
        EigenProblem(Rectangle(1, 1), 1 / 8, bc="Robin", robin_h=-1.0)
    with pytest.raises(InvalidProblem, match="must be finite and >= 0"):
        EigenProblem(Rectangle(1, 1), 1 / 8, bc="Robin", robin_h=math.inf)
    with pytest.raises(InvalidProblem):
        EigenProblem(Annulus(1.0, 0.5), 1 / 8)
    for dom, bc in ((Disk(0.5), "Neumann"), (Annulus(0.2, 0.5), "Robin")):
        with pytest.raises(InvalidProblem, match="Dirichlet conditions only"):
            EigenProblem(dom, 1 / 8, bc=bc)
    for dom, h in ((Rectangle(1, 1), 0.3), (Rectangle(1, 0.3), 1 / 8),
                   (Disk(0.3), 1 / 8)):
        with pytest.raises(InvalidProblem, match="does not divide"):
            EigenProblem(dom, h)
    obj = EigenProblem(Disk(0.5), 1 / 8).to_json()
    obj["domain"] = {"shape": "Ellipse", "a": 1, "b": 2}
    with pytest.raises(InvalidProblem, match="unknown domain shape 'Ellipse'"):
        EigenProblem.from_json(obj)
    op = assemble_operator(EigenProblem(Rectangle(1, 1), 1 / 4))   # n = 9
    assert solve_eigen(op, 8).eigenvalues.shape == (8,)
    with pytest.raises(InvalidProblem, match="not below the matrix dimension"):
        solve_eigen(op, 9)
    op = assemble_operator(EigenProblem(MaskedGrid(_TWO_PIECES), 1 / 8))
    with pytest.raises(InvalidProblem, match="ground state"):
        solve_eigen(op, 3)


def test_potential_shifts_spectrum():
    p0 = EigenProblem(Rectangle(1, 1), 1 / 16)
    p1 = EigenProblem(Rectangle(1, 1), 1 / 16, potential=parse_potential("7"))
    l0 = solve_eigen(assemble_operator(p0), 1).eigenvalues[0]
    l1 = solve_eigen(assemble_operator(p1), 1).eigenvalues[0]
    assert l1 == pytest.approx(l0 + 7.0)


def test_extract_single_line():
    p = EigenProblem(Rectangle(1, 1), 1 / 32)
    f = sample_field(p, lambda x, y: math.sin(2 * math.pi * x) * math.sin(math.pi * y))
    e = extract_nodal(f)
    assert e.domain_count == 2
    assert e.interior_singular == []
    assert len(e.boundary_singular) == 2
    assert all(rho == 1 for _, rho, _ in e.boundary_singular)
    assert verify_euler(e.as_partition).passed


def test_extract_nodal_cross():
    p = EigenProblem(Rectangle(1, 1), 1 / 32)
    f = sample_field(p, lambda x, y: math.sin(2 * math.pi * x) * math.sin(2 * math.pi * y))
    e = extract_nodal(f)
    assert e.domain_count == 4
    assert len(e.interior_singular) == 1
    assert e.interior_singular[0][1] == 4
    assert len(e.boundary_singular) == 4
    st = partition_stats(e.as_partition)
    # 4 = 1 + beta + sigma with sigma_i = 1 and sigma_b = 2
    assert (st.kappa, st.beta, st.sigma_i, st.sigma_b) == (4, 0, 1, 2)
    assert verify_euler(e.as_partition).passed
    assert all(r["passed"] for r in check_boundary_parity(e.as_partition))


def test_extract_ground_state_and_zero_field():
    p = EigenProblem(Rectangle(1, 1), 1 / 16)
    f = sample_field(p, lambda x, y: math.sin(math.pi * x) * math.sin(math.pi * y))
    e = extract_nodal(f)
    assert e.domain_count == 1
    assert verify_euler(e.as_partition).passed
    z = sample_field(p, lambda x, y: 0.0)
    with pytest.raises(AllZeroField):
        extract_nodal(z)


def test_extract_closed_loop_circle():
    # radial sign change inside a disk: nodal set is a circle, no singular pts
    p = EigenProblem(Disk(1.0), 1 / 32)
    f = sample_field(p, lambda x, y: 0.25 - x * x - y * y)
    e = extract_nodal(f)
    assert e.domain_count == 2
    assert e.interior_singular == [] and e.boundary_singular == []
    st = partition_stats(e.as_partition)
    assert st.beta == 1
    assert verify_euler(e.as_partition).passed


def _comb_hole_problem():
    """14 x 14 cells with a comb-shaped hole: a spine at x = 2, y = 2..11
    and teeth at y = 2, 4, 6, 8, 10, x = 2..11.  The hole's boundary is
    twice as long as the outer one."""
    bitmap = [[1] * 14 for _ in range(14)]
    for y in range(2, 12):
        bitmap[y][2] = 0
    for y in (2, 4, 6, 8, 10):
        for x in range(2, 12):
            bitmap[y][x] = 0
    return EigenProblem(MaskedGrid(tuple(map(tuple, bitmap))), 1 / 14)


def _two_hole_bitmap():
    bitmap = [[1] * 12 for _ in range(10)]
    for y, x in ((3, 3), (3, 4), (4, 3), (6, 8), (7, 8), (6, 7), (5, 8)):
        bitmap[y][x] = 0
    return tuple(map(tuple, bitmap))


@pytest.mark.parametrize("problem", [
    EigenProblem(Rectangle(1, 1), 1 / 48), EigenProblem(Disk(0.5), 1 / 48),
    EigenProblem(Annulus(0.2, 0.5), 1 / 48), _comb_hole_problem(),
    EigenProblem(MaskedGrid(_two_hole_bitmap()), 1 / 12),
], ids=["square", "disk", "annulus", "comb-hole", "two-holes"])
def test_boundary_cycles_match_reference(problem):
    mask = problem.grid[0]
    assert spectral._boundary_cycles(mask) \
        == helpers.reference_boundary_cycles(mask)


def test_boundary_cycles_outer_first():
    p = _comb_hole_problem()
    mask = np.array(p.domain.bitmap, bool)
    outer, hole = spectral._boundary_cycles(mask)
    assert (len(outer), len(hole)) == (56, 112)
    assert outer[0] == (0, 0)
    e = extract_nodal(solve_eigen(assemble_operator(p), 2).field(2))
    assert e.as_partition.surface.boundary_components == 2
    on_bottom = [c for (x, y), _, c in e.boundary_singular if y == 0.0]
    assert on_bottom and all(c == 0 for c in on_bottom)
    assert verify_euler(e.as_partition).passed


def _extract_case_fields(case, K):
    """Every per-k field of the first K eigenpairs of a case and 10 sampled
    members of each degenerate cluster."""
    if case == "comb":
        p, tol = _comb_hole_problem(), 1e-3
    elif case == "robin":
        p = EigenProblem(Rectangle(2, 1), 1 / 16, bc="Robin", robin_h=1.5)
        tol = 0.05   # near pairs, grouped as in _combo_case
    else:
        domain = {"square": Rectangle(1, 1), "disk": Disk(0.5),
                  "disk64": Disk(0.5), "annulus": Annulus(0.2, 0.5)}[case]
        p = EigenProblem(domain, 1 / 64 if case == "disk64" else 1 / 32)
        tol = 1e-3
    sol = solve_eigen(assemble_operator(p), K, cluster_rel_tol=tol)
    rng = np.random.default_rng(12)
    fields = [sol.field(k) for k in range(1, K + 1)]
    for cluster in sol.clusters:
        if len(cluster) >= 2:
            basis = sol.vectors[:, [k - 1 for k in cluster]]
            fields += [sol.operator.to_field(basis @ rng.standard_normal(
                len(cluster))) for _ in range(10)]
    return fields


@pytest.mark.parametrize("case", ["square", "disk", "annulus", "robin",
                                  "comb"])
def test_extract_nodal_matches_reference(case):
    fields = _extract_case_fields(case, 12)
    assert len(fields) > 12 or case == "comb"
    for f in fields:
        e, ref = extract_nodal(f), helpers.reference_extract_nodal(f)
        assert e.to_json() == ref.to_json()
        assert e.segments == ref.segments


@pytest.mark.parametrize("case, n_fields", [
    ("square", 76), ("disk", 46), ("annulus", 56), ("robin", 46),
    ("disk64", 46)])
def test_partition_kappa_equals_labelling_kappa(case, n_fields):
    # the partition's regions less its hole faces are the labelled nodal
    # domains, on 270 fields in all
    fields = _extract_case_fields(case, 16)
    assert len(fields) == n_fields
    for f in fields:
        e = extract_nodal(f)
        assert partition_stats(e.as_partition).kappa == e.domain_count


def _two_piece_problem():
    """A 16 x 10 mask at h = 1/16 in two pieces of 6 x 8 and 5 x 8 cells."""
    bitmap = [[int(1 <= iy <= 8 and (1 <= ix <= 6 or 9 <= ix <= 13))
               for ix in range(16)] for iy in range(10)]
    return EigenProblem(MaskedGrid(bitmap), 1 / 16)


def test_extraction_rejects_a_disconnected_mask():
    # the second piece's outer boundary was once modelled as a hole: the
    # partition's kappa fell one below the labelling's, Euler still held,
    # and the law report failed Courant; the solve itself stays accepted
    p = _two_piece_problem()
    sol = solve_eigen(assemble_operator(p), 4)
    assert sol.clusters == [[1], [2], [3], [4]]
    with pytest.raises(InvalidProblem, match="not connected"):
        spectral._boundary_cycles(sol.operator.mask)
    for k in range(1, 5):
        assert nodal_count(sol.field(k))[1] >= 2
        with pytest.raises(InvalidProblem, match="not connected"):
            extract_nodal(sol.field(k))
    with pytest.raises(InvalidProblem, match="not connected"):
        verify_spectral_laws(sol, p, n_combos=0)


def _count_problems():
    """The square, a disk, an annulus (h = 1/32) and a Robin 2 x 1
    rectangle (h = 1/16), each with its first 10 eigenpairs."""
    problems = [EigenProblem(Rectangle(1, 1), 1 / 32),
                EigenProblem(Disk(0.5), 1 / 32),
                EigenProblem(Annulus(0.2, 0.5), 1 / 32),
                EigenProblem(Rectangle(2, 1), 1 / 16, bc="Robin", robin_h=1.5)]
    return [(p, solve_eigen(assemble_operator(p), 10)) for p in problems]


def test_nodal_count_matches_extract_nodal():
    rng = np.random.default_rng(5)
    for p, sol in _count_problems():
        fields = [sol.field(k) for k in range(1, 11)]
        for _ in range(20):
            c = rng.standard_normal(10)
            fields.append(sol.operator.to_field(sol.vectors @ (c / np.linalg.norm(c))))
        for f in fields:
            sign, kappa = nodal_count(f)
            e = extract_nodal(f)
            assert np.array_equal(sign, e.sign_field)
            assert sign.dtype == e.sign_field.dtype
            assert kappa == e.domain_count
    with pytest.raises(AllZeroField):
        nodal_count(sample_field(EigenProblem(Rectangle(1, 1), 1 / 16),
                                 lambda x, y: 0.0))


def test_trace_faces_matches_reference_on_extracts():
    for domain in (Disk(0.5), Annulus(0.2, 0.5)):
        p = EigenProblem(domain, 1 / 32)
        sol = solve_eigen(assemble_operator(p), 10)
        for k in range(1, 11):
            q = extract_nodal(sol.field(k)).as_partition
            assert trace_faces(q) == helpers.reference_trace_faces(q), k


def test_partition_stats_match_reference_on_extracts():
    for domain in (Disk(0.5), Annulus(0.2, 0.5)):
        p = EigenProblem(domain, 1 / 32)
        sol = solve_eigen(assemble_operator(p), 10)
        for k in range(1, 11):
            q = extract_nodal(sol.field(k)).as_partition
            assert partition_stats(q) == helpers.reference_partition_stats(q), k


def _combo_case(case):
    """A problem and its first 10 eigenpairs, with clusters of m >= 2."""
    if case == "robin":
        # ghost cells; no exact pairs, so near pairs (gaps 0.9% and 2.8%)
        # are grouped by the cluster tolerance
        p = EigenProblem(Rectangle(2, 1), 1 / 16, bc="Robin", robin_h=1.5)
        return p, solve_eigen(assemble_operator(p), 10, cluster_rel_tol=0.05)
    domain = {"square": Rectangle(1, 1), "triple": Rectangle(1, 1),
              "disk": Disk(0.5), "annulus": Annulus(0.2, 0.5)}[case]
    p = EigenProblem(domain, 1 / 32)
    sol = solve_eigen(assemble_operator(p), 10)
    if case == "triple":
        # an m = 3 cluster: the square's first four modes with
        # lambda_2 = lambda_3 = lambda_4, so the pair (2, 3) and the next
        # mode make one cluster
        evs = sol.eigenvalues[:4].copy()
        evs[2:] = evs[1]
        sol = dataclasses.replace(sol, eigenvalues=evs,
                                  vectors=sol.vectors[:, :4],
                                  residuals=sol.residuals[:4])
        assert sol.clusters == [[1], [2, 3, 4]]
    return p, sol


@pytest.mark.parametrize("case, n_combos", [
    ("square", 50), ("disk", 50), ("annulus", 37), ("robin", 37),
    ("triple", 37)], ids=["square", "disk", "annulus", "robin", "triple"])
def test_combo_checks_match_extract_reference(case, n_combos):
    p, sol = _combo_case(case)
    for seed in (1, 2):
        rep = verify_spectral_laws(sol, p, seed=seed, n_combos=n_combos)
        assert rep.combo_checks == helpers.reference_combo_checks(
            sol, p, seed, n_combos)
        assert rep.combo_checks


@pytest.mark.parametrize("K", [3.0, True, "3", None, np.float64(3)],
                         ids=["float", "bool", "str", "none", "numpy-float"])
def test_solve_needs_an_integer_k(K):
    # 3.0 and True once failed inside eigsh, as NoConvergence
    op = assemble_operator(EigenProblem(Rectangle(1, 1), 1 / 8))
    with pytest.raises(InvalidProblem, match="K must be >= 1 and an integer"):
        solve_eigen(op, K)


@pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf, "0.1", True])
def test_solve_needs_finite_tolerances(tol):
    # NaN or a negative tolerance once made every eigenvalue its own
    # cluster, and a string for either tolerance raised a bare TypeError
    op = assemble_operator(EigenProblem(Rectangle(1, 1), 1 / 16))
    assert solve_eigen(op, 6).clusters == [[1], [2, 3], [4], [5, 6]]
    with pytest.raises(InvalidProblem, match="cluster tolerance"):
        solve_eigen(op, 6, cluster_rel_tol=tol)
    with pytest.raises(InvalidProblem, match="residual tolerance"):
        solve_eigen(op, 6, tol=tol)


@pytest.mark.parametrize("tol", [math.nan, -1, math.inf, "1e-3", True])
def test_cluster_multiplicities_needs_a_finite_tolerance(tol):
    # NaN and -1 once made every eigenvalue its own cluster, inf made one
    # cluster of them all
    with pytest.raises(InvalidProblem, match="cluster tolerance"):
        cluster_multiplicities([1.0, 2.0, 2.0, 3.0], tol)


_DENSE_ORACLE_PROBLEMS = {
    "dirichlet-square": EigenProblem(Rectangle(1, 1), 1 / 10),
    "neumann-2x1": EigenProblem(Rectangle(2, 1), 1 / 8, bc="Neumann"),
    "robin-2x1": EigenProblem(Rectangle(2, 1), 1 / 8, bc="Robin",
                              robin_h=2.0),
    "disk-negative": EigenProblem(Disk(0.5), 1 / 16,
                                  potential=parse_potential("-400")),
    "annulus-xy": EigenProblem(Annulus(0.2, 0.5), 1 / 16,
                               potential=parse_potential("50*x*y")),
}


@pytest.mark.parametrize("name", sorted(_DENSE_ORACLE_PROBLEMS))
def test_solve_matches_dense_eigenvalues(name):
    # the shift-invert solve against every eigenvalue of the dense matrix
    p = _DENSE_ORACLE_PROBLEMS[name]
    op = assemble_operator(p)
    dense = np.linalg.eigvalsh(op.matrix.toarray())[:6]
    sol = solve_eigen(op, 6)
    assert np.max(np.abs(sol.eigenvalues - dense)) \
        <= 1e-10 * np.max(np.abs(dense))
    assert sol.clusters == cluster_multiplicities(dense)
    if name == "dirichlet-square":
        assert op.n == 81
    if name == "disk-negative":
        assert dense[0] < 0


def test_shift_factor_keeps_the_diagonal_order():
    # V = 50xy >= -12.5 on the annulus, so sigma = -20 lies below the
    # Gershgorin bound: A - sigma*I is strictly diagonally dominant, and the
    # factor needs no row pivot and solves exactly
    op = assemble_operator(_DENSE_ORACLE_PROBLEMS["annulus-xy"])
    A = op.matrix
    lu = spectral._shift_factor(A, -20.0)
    assert np.array_equal(lu.perm_r, lu.perm_c)
    b = np.random.default_rng(1).standard_normal(op.n)
    x = lu.solve(b)
    assert np.allclose(A @ x + 20.0 * x, b, rtol=0, atol=1e-12)


def test_solve_failures_name_the_shift_n_and_k(monkeypatch):
    op = assemble_operator(EigenProblem(Rectangle(1, 1), 1 / 8))   # n = 49
    where = r"at shift -1 \(n = 49, K = 3\)"
    splu = spectral.scipy.sparse.linalg.splu

    def pivoted(*args, **kwargs):
        lu = splu(*args, **kwargs)
        return types.SimpleNamespace(perm_r=lu.perm_r[::-1],
                                     perm_c=lu.perm_c, solve=lu.solve)

    with monkeypatch.context() as m:
        m.setattr(spectral.scipy.sparse.linalg, "splu", pivoted)
        with pytest.raises(NoConvergence, match="eigsh failed " + where
                           + ": the factor of A - sigma\\*I pivoted"):
            solve_eigen(op, 3)
    eigsh = spectral.scipy.sparse.linalg.eigsh

    def inexact(*args, **kwargs):
        w, v = eigsh(*args, **kwargs)
        return w, v + 1e-3

    with monkeypatch.context() as m:
        m.setattr(spectral.scipy.sparse.linalg, "eigsh", inexact)
        with pytest.raises(NoConvergence, match="above tolerance 1e-09 "
                           + where):
            solve_eigen(op, 3)


@pytest.mark.parametrize("seed", [-1, "a", True, 2.0, None])
def test_law_report_rejects_bad_seed(seed):
    p = EigenProblem(Rectangle(1, 1), 1 / 8)
    sol = solve_eigen(assemble_operator(p), 4)
    with pytest.raises(InvalidProblem, match="seed"):
        verify_spectral_laws(sol, p, seed=seed, n_combos=5)


def test_numpy_integers_are_read_as_ints():
    # a numpy seed once reached to_json, which json.dumps cannot write, and
    # a numpy n_combos was refused while a numpy K was accepted
    p = EigenProblem(Rectangle(1, 1), 1 / 8)
    sol = solve_eigen(assemble_operator(p), np.int64(4))
    assert np.array_equal(sol.eigenvalues,
                          solve_eigen(assemble_operator(p), 4).eigenvalues)
    rep = verify_spectral_laws(sol, p, seed=np.int64(3), n_combos=np.int32(5))
    assert json.dumps(rep.to_json()) == json.dumps(
        verify_spectral_laws(sol, p, seed=3, n_combos=5).to_json())


@pytest.mark.parametrize("n_combos", [-5, 2.5, True, "3", None])
def test_law_report_rejects_bad_n_combos(n_combos):
    p = EigenProblem(Rectangle(1, 1), 1 / 8)
    sol = solve_eigen(assemble_operator(p), 4)
    with pytest.raises(InvalidProblem, match="n_combos"):
        verify_spectral_laws(sol, p, n_combos=n_combos)


def test_law_report_extracts_eigenvectors_only(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append("extract")
        return extract_nodal(*args, **kwargs)
    to_field = spectral.AssembledOperator.to_field

    def counting_to_field(*args, **kwargs):
        calls.append("to_field")
        return to_field(*args, **kwargs)
    monkeypatch.setattr(spectral, "extract_nodal", counting)
    monkeypatch.setattr(spectral.AssembledOperator, "to_field",
                        counting_to_field)
    p = EigenProblem(Rectangle(1, 1), 1 / 24)
    sol = solve_eigen(assemble_operator(p), 6)
    rep = verify_spectral_laws(sol, p, seed=1, n_combos=50)
    assert [c["samples"] for c in rep.combo_checks] == [50, 50]
    assert calls.count("extract") == len(sol.eigenvalues)
    assert calls.count("to_field") == len(sol.eigenvalues)


@pytest.mark.parametrize("domain", [Rectangle(1, 1), Disk(0.5)],
                         ids=["nodes", "masked-cells"])
def test_law_report_maps_each_cluster_basis_to_cells_once(monkeypatch,
                                                          domain):
    # members are formed on the cell grid from one cell_values call per
    # cluster with mult > 1, whatever the number of blocks; every other
    # call maps one eigenvector, through to_field
    calls, stacks = [], []
    cell_values = spectral.AssembledOperator.cell_values
    to_field = spectral.AssembledOperator.to_field

    def counting_cell_values(self, vecs):
        stacks.append(len(vecs))
        return cell_values(self, vecs)

    def counting_to_field(*args, **kwargs):
        calls.append("to_field")
        return to_field(*args, **kwargs)

    def counting_extract(*args, **kwargs):
        calls.append("extract")
        return extract_nodal(*args, **kwargs)
    monkeypatch.setattr(spectral.AssembledOperator, "cell_values",
                        counting_cell_values)
    monkeypatch.setattr(spectral.AssembledOperator, "to_field",
                        counting_to_field)
    monkeypatch.setattr(spectral, "extract_nodal", counting_extract)
    p = EigenProblem(domain, 1 / 24)
    sol = solve_eigen(assemble_operator(p), 6)
    K = len(sol.eigenvalues)
    rep = verify_spectral_laws(sol, p, seed=1, n_combos=37)
    multi = [len(c) for c in sol.clusters if len(c) > 1]
    assert multi and [c["samples"] for c in rep.combo_checks] == \
        [37] * len(multi)
    assert [n for n in stacks if n > 1] == multi
    assert stacks.count(1) == K
    assert calls.count("to_field") == K
    assert calls.count("extract") == K


@pytest.mark.parametrize("problem", [
    EigenProblem(Rectangle(1, 1), 1 / 16),
    EigenProblem(Disk(0.5), 1 / 16),
    EigenProblem(Rectangle(2, 1), 1 / 16, bc="Robin", robin_h=1.5)],
    ids=["nodes", "masked-cells", "ghost-cells"])
def test_nodal_counts_match_nodal_count_per_member(problem):
    op = assemble_operator(problem)
    rng = np.random.default_rng(3)
    sol = solve_eigen(op, 8)
    vecs = np.concatenate([rng.standard_normal((5, op.n)),
                           rng.standard_normal((6, 8)) @ sol.vectors.T])
    vecs[2, : op.n // 2] = 0.0      # exact zeros inside the mask
    values = op.cell_values(vecs)
    assert (values[2][op.mask] == 0.0).any()
    kappas = spectral.nodal_counts(values, op.mask)
    assert kappas.shape == (len(vecs),)
    for v, cells, kappa in zip(vecs, values, kappas):
        f = op.to_field(v)
        assert np.array_equal(f.values, cells)
        sign, count = nodal_count(f)
        assert sign.shape == cells.shape
        assert np.array_equal(sign, np.where(cells > 0, 1, -1) * op.mask)
        assert count == kappa
    values[4] = 0.0
    values[4][~op.mask] = 1.0       # vanishes on the mask only
    with pytest.raises(AllZeroField):
        spectral.nodal_counts(values, op.mask)


@pytest.mark.parametrize("problem", [
    EigenProblem(Rectangle(1, 1), 1 / 16),
    EigenProblem(Disk(0.5), 1 / 16),
    EigenProblem(Rectangle(2, 1), 1 / 16, bc="Robin", robin_h=1.5),
    EigenProblem(Annulus(0.2, 0.5), 1 / 32)],
    ids=["nodes", "masked-cells", "ghost-cells", "annulus"])
@pytest.mark.parametrize("B", [1, 2, 37])
def test_nodal_counts_match_flood_fill(problem, B):
    op = assemble_operator(problem)
    rng = np.random.default_rng(B)
    values = op.cell_values(rng.standard_normal((B, op.n)))
    # smoothed noise: fewer, larger components in every other member
    smooth = values[::2]
    for axis in (1, 2):
        smooth += np.roll(smooth, 1, axis) + np.roll(smooth, -1, axis)
    values[rng.random(values.shape) < 0.05] = 0.0   # exact zeros
    # small components on the first and last rows and columns, next to the
    # rows that separate the members of the stack
    edge = np.where(np.arange(max(values.shape[1:])) % 3 == 0, 1.0, -1.0)
    for member in values[1::3]:
        for row in (0, -1):
            member[row] = edge[: member.shape[1]]
        for col in (0, -1):
            member[:, col] = edge[: member.shape[0]]
    # one member of constant sign: an image with no component at all
    values[B // 2] = np.abs(values[B // 2]) + 1.0
    kappas = spectral.nodal_counts(values, op.mask)
    for cells, kappa in zip(values, kappas):
        expect = helpers.reference_kappa(cells.tolist(), op.mask.tolist())
        assert kappa == expect
        f = GridField(cells, op.mask, op.origin, problem.grid_step)
        sign, count = nodal_count(f)
        assert np.array_equal(sign, np.where(cells > 0, 1, -1) * op.mask)
        assert count == expect


def test_ray_fit_monomials():
    ell, angles, resid = local_ray_fit(lambda x, y: x * y, (0, 0), 0.1)
    assert ell == 2 and resid < 1e-10
    expect = [0, math.pi / 2, math.pi, 3 * math.pi / 2]
    assert np.allclose(angles, expect, atol=1e-6)
    ell, angles, _ = local_ray_fit(lambda x, y: x ** 3 - 3 * x * y ** 2, (0, 0), 0.1)
    assert ell == 3
    expect = [math.pi / 6 + j * math.pi / 3 for j in range(6)]
    assert np.allclose(angles, expect, atol=1e-6)


def test_ray_fit_harmonics_to_order_five():
    for ell in range(1, 6):
        def f(x, y, ell=ell):
            r, w = math.hypot(x, y), math.atan2(y, x)
            return r ** ell * math.sin(ell * w)
        got, angles, resid = local_ray_fit(f, (0, 0), 0.1)
        assert got == ell
        expect = sorted((j * math.pi / ell) % (2 * math.pi)
                        for j in range(2 * ell))
        for a, e in zip(angles, expect):
            d = abs(a - e)
            assert min(d, 2 * math.pi - d) < math.radians(2) / ell


def test_ray_fit_on_eigenfunction():
    p = EigenProblem(Rectangle(1, 1), 1 / 64)
    f = sample_field(p, lambda x, y: math.sin(2 * math.pi * x) * math.sin(2 * math.pi * y))
    ell, angles, resid = local_ray_fit(f, (0.5, 0.5), 0.06)
    assert ell == 2
    assert np.allclose(angles, [0, math.pi / 2, math.pi, 3 * math.pi / 2],
                       atol=0.05)


def test_ray_fit_no_fit():
    with pytest.raises(NoFit):
        local_ray_fit(lambda x, y: 1.0, (0, 0), 0.1)


def test_prescribe_interior():
    b1 = lambda x, y: math.sin(2 * math.pi * x) * math.sin(math.pi * y)
    b2 = lambda x, y: math.sin(math.pi * x) * math.sin(2 * math.pi * y)
    c, resid = prescribe_singular([b1, b2], (0.25, 0.5), 1, h=1e-4)
    assert abs(abs(c[1]) - 1) < 1e-9 and abs(c[0]) < 1e-9
    assert resid < 1e-6
    # m = 3 allows order floor(3/2) = 1 too
    b3 = lambda x, y: math.sin(3 * math.pi * x) * math.sin(math.pi * y)
    c, resid = prescribe_singular([b1, b2, b3], (0.3, 0.4), 1, h=1e-4)
    assert resid < 1e-6
    assert abs(np.linalg.norm(c) - 1) < 1e-12


def test_prescribe_boundary_disk_pair():
    j11 = jn_zeros(1, 1)[0]
    f1 = lambda x, y: jv(1, j11 * math.hypot(x, y)) * math.cos(math.atan2(y, x))
    f2 = lambda x, y: jv(1, j11 * math.hypot(x, y)) * math.sin(math.atan2(y, x))
    c, resid = prescribe_singular([f1, f2], (1.0, 0.0), 1,
                                  boundary=((1, 0), (0, 1)), h=1e-3)
    assert abs(abs(c[1]) - 1) < 1e-9
    assert resid < 1e-6


def test_prescribe_infeasible():
    b1 = lambda x, y: 1.0
    b2 = lambda x, y: 2.0
    with pytest.raises(InfeasibleOrder):
        prescribe_singular([b1, b2], (0, 0), 3, h=1e-3)
    with pytest.raises(InfeasibleOrder, match="at least 2 basis fields"):
        prescribe_singular([b1], (0, 0), 0, h=1e-3)
    # a bad step or a fractional order fails with InfeasibleOrder, not
    # inside the SVD or the jet indexing
    basis = [lambda x, y: x, lambda x, y: y, lambda x, y: x * y,
             lambda x, y: 1.0]
    for h in (math.nan, 0.0, -1e-3, math.inf, True):
        with pytest.raises(InfeasibleOrder, match="finite and positive"):
            prescribe_singular(basis, (0.3, 0.2), 2, h=h)
    for order in (1.5, 2.0, True):
        with pytest.raises(InfeasibleOrder, match="an integer"):
            prescribe_singular(basis, (0.3, 0.2), order, h=1e-3)
    c, _ = prescribe_singular(basis, (0.3, 0.2), np.int64(2), h=1e-3)
    assert np.array_equal(c, prescribe_singular(basis, (0.3, 0.2), 2,
                                                h=1e-3)[0])


def test_prescribe_order_below_one():
    b1 = lambda x, y: x
    b2 = lambda x, y: y
    for order in (0, -1):
        for boundary in (None, ((1, 0), (0, 1))):
            with pytest.raises(InfeasibleOrder, match="order must be >= 1"):
                prescribe_singular([b1, b2], (0.5, 0.5), order,
                                   boundary=boundary, h=1e-3)


@pytest.mark.parametrize("site", [(math.nan, 0), (math.inf, 0), ("a", 0),
                                  (True, 0)],
                         ids=["nan", "inf", "str", "bool"])
def test_prescribe_needs_a_site_of_two_finite_numbers(site):
    # the site is checked before any jet is sampled, on callables and on
    # GridFields alike
    fns = [lambda x, y: x, lambda x, y: y, lambda x, y: x * y]
    p = EigenProblem(Rectangle(1, 1), 1 / 16)
    for basis in (fns, [sample_field(p, f) for f in fns]):
        for boundary in (None, ((1, 0), (0, 1))):
            with pytest.raises(InfeasibleOrder,
                               match="site of two finite numbers"):
                prescribe_singular(basis, site, 1, boundary=boundary)


@pytest.mark.parametrize("x0, radius", [
    ((0, 0), -0.1), ((0, 0), 0.0), ((0, 0), math.nan), ((0, 0), math.inf),
    ((math.nan, 0), 0.1), ((0, -math.inf), 0.1),
    # a centre that is not two numbers once raised IndexError or TypeError
    ((0.5,), 0.1), ((0.5, 0.5, 0.5), 0.1), (0.5, 0.1), ("ab", 0.1),
    ((0.5, 1j), 0.1), ((True, 0), 0.1), ((0, 0), True)])
def test_ray_fit_needs_finite_positive_radius_and_centre(x0, radius):
    with pytest.raises(NoFit, match="finite positive radius"):
        local_ray_fit(lambda x, y: x * y, x0, radius)


def test_grid_field_sample_on_arrays():
    p = EigenProblem(Disk(0.5), 1 / 16)
    f = sample_field(p, lambda x, y: math.cos(3 * x) * (y - 0.1))
    rng = np.random.default_rng(5)
    x, y = rng.uniform(-0.7, 0.7, (2, 7, 9))
    got = f.sample(x, y)
    assert got.shape == (7, 9)
    assert [v.hex() for v in got.ravel().tolist()] == [
        float(helpers.reference_sample(f, a, b)).hex()
        for a, b in zip(x.ravel().tolist(), y.ravel().tolist())]
    assert f.sample(0.1, -0.2) == helpers.reference_sample(f, 0.1, -0.2)
    for bad in (math.nan, math.inf):
        with pytest.raises(InvalidProblem, match="non-finite"):
            f.sample(np.array([0.0, bad]), np.zeros(2))


def test_grid_field_values_must_be_finite_and_real():
    # NaN once counted as negative (kappa 3 for a half-NaN sin 3 pi y on
    # the square), an all-NaN field as vanishing, and None was accepted
    values, mask = _field_8x8()
    x = (np.arange(8) + 0.5) / 8
    half_nan = np.where(x < 0.5, math.nan, values)
    for bad in (np.full((8, 8), math.nan), half_nan,
                np.where(x < 0.5, math.inf, values), values + 0j,
                np.full((8, 8), None), values.astype(str)):
        with pytest.raises(InvalidProblem, match="finite real numbers"):
            GridField(bad, mask, (0.0, 0.0), 1 / 8)
    with pytest.raises(InvalidProblem, match="finite real numbers"):
        sample_field(EigenProblem(Rectangle(1, 1), 1 / 16),
                     lambda x, y: None)
    signs = GridField(np.sign(values).astype(int), mask, (0.0, 0.0), 1 / 8)
    assert extract_nodal(signs).domain_count == 2


def test_sample_field_reads_values_as_floats():
    # the first value an int must not make every value an int
    p = EigenProblem(Rectangle(1, 1), 1 / 8)
    for fn in (lambda x, y: 1 if x < 0.5 else -0.5,
               lambda x, y: 0 if x < 0.1 else x - 0.5):
        x = (np.arange(8) + 0.5) / 8
        expect = [float(fn(v, 0.0)) for v in x.tolist()]
        assert sample_field(p, fn).values[0].tolist() == expect


def _bits(obj):
    """Exact, comparable bits of a result: floats by hex, arrays by bytes."""
    if isinstance(obj, np.ndarray):
        return (obj.dtype.str, obj.shape, obj.tobytes())
    if isinstance(obj, (tuple, list)):
        return tuple(_bits(o) for o in obj)
    if isinstance(obj, float):
        return (type(obj).__name__, obj.hex())
    return (type(obj).__name__, obj)


def _outcome(fn, *args, **kwargs):
    try:
        return _bits(fn(*args, **kwargs))
    except (NoFit, InfeasibleOrder) as exc:
        return type(exc).__name__


def test_local_analysis_matches_reference():
    # ray fits and prescribed singular combinations on callables and on the
    # GridFields of a solved square, against the point-by-point originals
    def harmonic(ell):
        return lambda x, y: (math.hypot(x, y) ** ell
                             * math.sin(ell * math.atan2(y, x)))
    callables = [lambda x, y: x * y, lambda x, y: x ** 3 - 3 * x * y ** 2,
                 lambda x, y: 1.0] + [harmonic(ell) for ell in (1, 4, 5)]
    p = EigenProblem(Rectangle(1, 1), 1 / 32)
    fields = [solve_eigen(assemble_operator(p), 6).field(k)
              for k in range(1, 7)]
    cases = [(u, x0, r) for u in callables
             for x0, r in (((0, 0), 0.1), ((0.01, -0.02), 0.05))]
    cases += [(u, x0, r) for u in fields
              for x0, r in (((0.5, 0.5), 0.1), ((0.5, 0.25), 0.1),
                            ((1 / 3, 0.5), 0.07))]
    fits = [_outcome(local_ray_fit, *case) for case in cases]
    assert fits == [_outcome(helpers.reference_local_ray_fit, *case)
                    for case in cases]
    assert sum(type(fit) is tuple for fit in fits) >= 10
    b = [lambda x, y: math.sin(2 * math.pi * x) * math.sin(math.pi * y),
         lambda x, y: math.sin(math.pi * x) * math.sin(2 * math.pi * y),
         lambda x, y: math.sin(3 * math.pi * x) * math.sin(math.pi * y),
         lambda x, y: math.sin(3 * math.pi * x) * math.sin(2 * math.pi * y)]
    edge = ((1, 0), (0, 1))
    calls = [(basis, site, order, None, h)
             for basis, site, h in ((b, (0.3, 0.45), 1e-4),
                                    (fields, (0.61, 0.37), None))
             for order in (1, 2)]
    calls += [(basis, site, order, edge, h)
              for basis, site, h in ((b, (1.0, 0.3), 1e-3),
                                     (fields, (1.0, 0.41), None))
              for order in (1, 2, 3, 4)]
    got = [_outcome(prescribe_singular, *call) for call in calls]
    assert got == [_outcome(helpers.reference_prescribe_singular, *call)
                   for call in calls]
    assert sum(type(out) is tuple for out in got) >= 10


def test_verify_laws_square():
    p = EigenProblem(Rectangle(1, 1), 1 / 32)
    sol = solve_eigen(assemble_operator(p), 6)
    rep = verify_spectral_laws(sol, p, seed=7, n_combos=25)
    assert rep.passed
    assert rep.seed == 7
    assert all(e["courant"] and e["euler"] and e["parity"] for e in rep.entries)
    assert rep.to_json()["seed"] == 7


def test_verify_laws_deterministic():
    p = EigenProblem(Rectangle(1, 1), 1 / 24)
    sol = solve_eigen(assemble_operator(p), 4)
    a = verify_spectral_laws(sol, p, seed=3, n_combos=10).to_json()
    b = verify_spectral_laws(sol, p, seed=3, n_combos=10).to_json()
    assert a == b


def test_verify_laws_neumann_ground_state_below_zero():
    # a Neumann lambda_1 may round to <= 0, where the Pleijel bound is
    # undefined; the report once raised ValueError there
    p = EigenProblem(Rectangle(2, 1), 1 / 16, bc="Neumann")
    sol = solve_eigen(assemble_operator(p), 4)
    sol.eigenvalues[0] = -6.1e-14
    rep = verify_spectral_laws(sol, p, seed=1, n_combos=10)
    assert rep.entries[0]["lambda"] == -6.1e-14
    assert rep.entries[0]["mult"] == 1 and rep.entries[0]["pleijel"]
    assert all(e["pleijel"] for e in rep.entries)


@pytest.mark.parametrize("domain", [Rectangle(1, 1), Disk(0.5),
                                    Annulus(0.2, 0.5)],
                         ids=["square", "disk", "annulus"])
def test_law_report_matches_index_by_index_reference(domain):
    p = EigenProblem(domain, 1 / 32)
    sol = solve_eigen(assemble_operator(p), 8)
    rep = verify_spectral_laws(sol, p, seed=1, n_combos=10)
    ref = helpers.reference_law_report(sol, p, seed=1, n_combos=10)
    assert json.dumps(rep.to_json()) == json.dumps(ref.to_json())
    assert rep.combo_checks


@pytest.mark.parametrize("domain", [Rectangle(1, 1), Disk(0.5)],
                         ids=["nodes", "masked-cells"])
def test_law_report_matches_reference_over_several_blocks(domain):
    # 37 members per cluster: three full COMBO_BLOCK blocks and a partial
    # one, formed on the cell grid here and in vector space by the reference
    p = EigenProblem(domain, 1 / 32)
    sol = solve_eigen(assemble_operator(p), 8)
    for seed in (1, 2):
        rep = verify_spectral_laws(sol, p, seed=seed, n_combos=37)
        ref = helpers.reference_law_report(sol, p, seed=seed, n_combos=37)
        assert json.dumps(rep.to_json()) == json.dumps(ref.to_json())
        assert rep.combo_checks


@pytest.mark.parametrize("bc", ["Neumann", "Robin"])
def test_faber_krahn_gates_dirichlet_problems_only(bc):
    # lambda_1 of a Neumann rectangle is 0, so Faber-Krahn fails there; it
    # is still reported, and every other key is as in the reference
    p = EigenProblem(Rectangle(2, 1), 1 / 16, bc=bc, robin_h=2.0)
    sol = solve_eigen(assemble_operator(p), 12)
    for seed in (1, 7):
        rep = verify_spectral_laws(sol, p, seed=seed, n_combos=10).to_json()
        ref = helpers.reference_law_report(sol, p, seed, 10).to_json()
        assert rep["passed"] and not ref["passed"]
        assert not all(e["faberKrahn"] for e in rep["entries"])
        ref["passed"] = True
        assert json.dumps(rep) == json.dumps(ref)


@pytest.mark.parametrize("other", [
    EigenProblem(Disk(0.5), 1 / 16),
    EigenProblem(Rectangle(1, 1), 1 / 8),
    EigenProblem(Rectangle(1, 1), 1 / 16, bc="Neumann")],
    ids=["domain", "grid-step", "bc"])
def test_law_report_rejects_another_problem(other):
    p = EigenProblem(Rectangle(1, 1), 1 / 16)
    sol = solve_eigen(assemble_operator(p), 4)
    with pytest.raises(InvalidProblem, match="solved problem"):
        verify_spectral_laws(sol, other, n_combos=2)
    # an equal problem, built anew, is the solved problem
    assert verify_spectral_laws(sol, EigenProblem(Rectangle(1, 1), 1 / 16),
                                n_combos=2).passed


@pytest.mark.parametrize("clusters", [
    [[1], [2, 3]], [[1], [3, 2], [4]], [[1], [2, 3, 4], [4]],
    [[1], [2, 3], [4], []], [[], [1], [2, 3], [4]], [[1]],
    [[1, 2], [3], [4]], [[1.0], [2, 3], [4]], [[True], [2, 3], [4]],
    [(1,), (2, 3), (4,)], None],
    ids=["short", "reversed", "overlap", "trailing-empty", "leading-empty",
         "short-clusters", "other-split", "float-index", "bool-index",
         "tuples", "no-clusters"])
def test_law_report_rejects_malformed_clusters(square_solution, clusters):
    # clusters are derived from the eigenvalues, and a solution document
    # must hold those, as JSON integers; so no law report sees other ones
    doc = dict(square_solution.to_json(), clusters=clusters)
    with pytest.raises(InvalidProblem, match="clusters"):
        spectral.EigenSolution.from_json(doc)


@pytest.fixture(scope="module")
def square_solution():
    p = EigenProblem(Rectangle(1, 1), 1 / 16)
    return solve_eigen(assemble_operator(p), 4)


def _replaced(array, index, value):
    out = array.copy()
    out[index] = value
    return out


@pytest.mark.parametrize("field, value, message", [
    ("eigenvalues", lambda s: s.eigenvalues[:3], "one vector per eigenvalue"),
    ("eigenvalues", lambda s: s.eigenvalues[None], "one vector per"),
    ("eigenvalues", lambda s: s.eigenvalues[:0], "K >= 1 eigenvalues"),
    ("eigenvalues", lambda s: _replaced(s.eigenvalues, 1, math.nan),
     "must be finite"),
    ("eigenvalues", lambda s: list(s.eigenvalues), "finite real numbers"),
    ("vectors", lambda s: s.vectors[:, :3], "one vector per eigenvalue"),
    ("vectors", lambda s: s.vectors[1:], "one vector per eigenvalue"),
    ("vectors", lambda s: _replaced(s.vectors, (0, 0), math.inf),
     "must be finite"),
    ("vectors", lambda s: s.vectors + 0j, "finite real numbers"),
    ("residuals", lambda s: np.array([1.0]), "one residual per eigenvalue"),
    ("residuals", lambda s: _replaced(s.residuals, 2, -1e-12),
     "residuals >= 0"),
    ("residuals", lambda s: _replaced(s.residuals, 0, math.nan),
     "must be finite"),
    ("cluster_rel_tol", lambda s: -5, "cluster tolerance"),
    ("cluster_rel_tol", lambda s: math.nan, "cluster tolerance"),
    ("cluster_rel_tol", lambda s: True, "cluster tolerance"),
    ("cluster_rel_tol", lambda s: "0.1", "cluster tolerance"),
    ("eigenvalues", lambda s: s.eigenvalues[::-1].copy(), "nondecreasing"),
    ("eigenvalues", lambda s: _replaced(s.eigenvalues, 2, 40.0),
     "nondecreasing"),
    # an operator of another grid: the vectors no longer fit it
    ("operator", lambda s: assemble_operator(
        EigenProblem(Rectangle(1, 1), 1 / 8)), "one vector per eigenvalue"),
], ids=["K-3", "2-D", "K-0", "nan-eigenvalue", "list", "3-vectors",
        "short-vectors", "inf-entry", "complex", "one-residual",
        "negative-residual", "nan-residual", "tol-negative", "tol-nan",
        "tol-bool", "tol-str", "reversed-eigenvalues",
        "decreasing-eigenvalue", "other-operator"])
def test_solution_checks_itself(square_solution, field, value, message):
    with pytest.raises(InvalidProblem, match=message):
        dataclasses.replace(square_solution,
                            **{field: value(square_solution)})


def test_solution_is_frozen_and_stores_a_float_tolerance(square_solution):
    with pytest.raises(dataclasses.FrozenInstanceError):
        square_solution.clusters = [[1, 2, 3, 4]]
    sol = dataclasses.replace(square_solution, cluster_rel_tol=1)
    assert type(sol.cluster_rel_tol) is float and sol.cluster_rel_tol == 1.0
    assert sol.to_json()["clusters"] == [[1, 2, 3, 4]]


def test_clusters_are_the_ones_the_eigenvalues_give(square_solution):
    # after solve_eigen, after reading the document back and after replace
    for sol in (square_solution,
                spectral.EigenSolution.from_json(square_solution.to_json()),
                dataclasses.replace(square_solution, cluster_rel_tol=0.5),
                dataclasses.replace(square_solution, cluster_rel_tol=0)):
        assert sol.clusters == cluster_multiplicities(sol.eigenvalues,
                                                      sol.cluster_rel_tol)


@pytest.mark.parametrize("field", ["eigenvalues", "residuals"])
def test_solution_document_refuses_numbers_spelled_as_strings(
        square_solution, field):
    # "19.7" once read as 19.7
    doc = square_solution.to_json()
    doc[field] = [str(v) for v in doc[field]]
    with pytest.raises(InvalidProblem, match="must be finite real numbers"):
        spectral.EigenSolution.from_json(doc)


def test_solution_document_round_trip(square_solution):
    sol = spectral.EigenSolution.from_json(square_solution.to_json())
    for name in ("eigenvalues", "residuals", "vectors"):
        a, b = getattr(sol, name), getattr(square_solution, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert sol.operator.problem == square_solution.operator.problem
    assert "matrix" not in vars(sol.operator)
    vectors = square_solution.to_json()["vectors"]
    assert vectors.flags.c_contiguous and vectors.dtype == np.float64
    assert vectors.shape == (4, square_solution.operator.n)


@pytest.mark.parametrize("domain, message", [
    (lambda: Rectangle(0, 1), "Rectangle w must be finite and > 0, got 0$"),
    (lambda: Rectangle(-1, 1), "Rectangle w must be finite and > 0, got -1"),
    (lambda: Disk(0), "Disk r must be finite and > 0, got 0$"),
    (lambda: Disk(-0.5), r"Disk r must be finite and > 0, got -0\.5"),
    (lambda: MaskedGrid(()), "non-empty list of rows of one length"),
    (lambda: MaskedGrid(((1,) * 8,) * 7 + ((1,) * 7,)),
     r"row lengths \[7, 8\]"),
    (lambda: MaskedGrid(((1,) * 8,) * 7 + ((1,) * 7 + (2,),)),
     "must be 0 or 1"),
    (lambda: MaskedGrid((5,)), "bitmap must be a sequence of rows"),
    (lambda: MaskedGrid(5), "bitmap must be a sequence of rows"),
], ids=["zero-width", "negative-width", "zero-radius", "negative-radius",
        "empty-bitmap", "ragged-bitmap", "bitmap-entry-2", "bitmap-row-5",
        "bitmap-5"])
def test_bad_domain_rejected_at_construction(domain, message):
    # each once got past EigenProblem and failed later, or named the wrong
    # cause ("grid step 0.125 does not divide length 0"); a shape now checks
    # its own fields, so each is refused when the shape is made
    with pytest.raises(InvalidProblem, match=message):
        EigenProblem(domain(), 1 / 8)


@pytest.mark.parametrize("r_in, r_out", [(0.5, 0.2), (0.5, 0.5)])
def test_annulus_checked_when_made(r_in, r_out):
    # Annulus(0.5, 0.2) once existed, with area(0.1) = -0.66, and only its
    # grid was refused
    with pytest.raises(InvalidProblem, match="annulus needs 0 < rIn < rOut"):
        Annulus(r_in, r_out)


def test_masked_grid_domain():
    bitmap = tuple(tuple(1 for _ in range(8)) for _ in range(8))
    p = EigenProblem(MaskedGrid(bitmap), 1 / 8)
    sol = solve_eigen(assemble_operator(p), 1)
    assert p.domain.area(p.grid_step) == pytest.approx(1.0)
    assert sol.eigenvalues[0] > 0
    with pytest.raises(InvalidProblem, match="Dirichlet conditions only"):
        EigenProblem(MaskedGrid(bitmap), 1 / 8, bc="Neumann")


def test_problem_json_round_trip():
    p = EigenProblem(Rectangle(2, 1), 1 / 8, bc="Robin", robin_h=1.5)
    q = EigenProblem.from_json(p.to_json())
    assert q.domain == p.domain and q.bc == p.bc and q.robin_h == p.robin_h
    d = EigenProblem(Disk(1.0), 1 / 16)
    assert EigenProblem.from_json(d.to_json()).domain == d.domain
    bitmap = [[1] * 8 for _ in range(8)]
    bitmap[3][4] = bitmap[0][0] = 0
    m = EigenProblem(MaskedGrid(tuple(map(tuple, bitmap))), 1 / 8).to_json()
    assert m["domain"]["bitmap"] == bitmap
    assert EigenProblem.from_json(m).to_json() == m


def test_potential_source_round_trip():
    # a potential built in Python keeps its source through problem and
    # solution files, as one read from a file does
    for expr in ("3*(x*x+y*y)", 2.5):
        p = EigenProblem(Disk(0.5), 1 / 16, potential=parse_potential(expr))
        assert p.to_json()["V"] == expr
        q = EigenProblem.from_json(json.loads(json.dumps(p.to_json())))
        assert q.to_json() == p.to_json()
        sol = solve_eigen(assemble_operator(p), 2)
        assert sol.to_json()["problem"] == p.to_json()
    assert parse_potential(0) is None


@pytest.mark.parametrize("removed, corner", [
    (((2, 2), (3, 3)), (3, 3)),     # [[0, 1], [1, 0]] around the corner
    (((2, 3), (3, 2)), (3, 3)),     # [[1, 0], [0, 1]]
    (((0, 1), (1, 0)), (1, 1)),     # cell (0, 0) hangs on by its corner
])
def test_pinched_mask_rejected(removed, corner):
    bitmap = [[1] * 6 for _ in range(6)]
    bitmap[removed[0][0]][removed[0][1]] = 0
    assemble_operator(EigenProblem(MaskedGrid(bitmap), 1 / 8))  # one gap: fine
    for iy, ix in removed[1:]:
        bitmap[iy][ix] = 0
    with pytest.raises(InvalidProblem, match=r"corner \(%d, %d\)" % corner):
        assemble_operator(EigenProblem(MaskedGrid(bitmap), 1 / 8))
    # a field built directly meets the same check when it is constructed
    h = 1 / 6
    X, Y = np.meshgrid((np.arange(6) + 0.5) * h, (np.arange(6) + 0.5) * h)
    with pytest.raises(InvalidProblem, match=r"corner \(%d, %d\)" % corner):
        GridField(np.sin(np.pi * X) * np.sin(2 * np.pi * Y),
                  np.array(bitmap, bool), (0.0, 0.0), h)


def _field_8x8():
    """sin(2 pi x) sin(pi y) at the cell centres of the unit square,
    h = 1/8: two nodal domains on a full boolean mask."""
    c = (np.arange(8) + 0.5) / 8
    X, Y = np.meshgrid(c, c)
    return np.sin(2 * np.pi * X) * np.sin(np.pi * Y), np.ones((8, 8), bool)


def test_grid_field_needs_boolean_mask():
    # ~ on an int mask is a bitwise not, so an int 0/1 mask marks every
    # cell as outside it as well as inside; it is refused, not extracted
    values, mask = _field_8x8()
    good = GridField(values, mask, (0.0, 0.0), 1 / 8)
    assert extract_nodal(good).domain_count == 2
    for bad in (mask.astype(int), mask.astype(float), mask.tolist()):
        with pytest.raises(InvalidProblem, match="boolean array"):
            GridField(values, bad, (0.0, 0.0), 1 / 8)


def test_grid_field_needs_finite_positive_step_and_origin():
    # the step and origin place every extracted point, so a step that is
    # not finite and positive, or a non-finite origin, is refused
    values, mask = _field_8x8()
    for origin, h in (((0.0, 0.0), math.nan), ((0.0, 0.0), 0.0),
                      ((0.0, 0.0), -1 / 8), ((0.0, 0.0), math.inf),
                      ((math.nan, 0.0), 1 / 8), ((0.0, -math.inf), 1 / 8),
                      ((0.0,), 1 / 8), ((0.0, 0.0), "1/8"),
                      ((0.0, 0.0), True), ((True, False), True),
                      ((0.0, True), 1 / 8)):
        with pytest.raises(InvalidProblem, match="finite and positive"):
            GridField(values, mask, origin, h)


def test_grid_field_mask_and_values_shapes():
    # the mask covers exactly the grid of values
    values, mask = _field_8x8()
    with pytest.raises(InvalidProblem, match=r"values' shape \(8, 8\)"):
        GridField(values, np.ones((9, 9), bool), (0.0, 0.0), 1 / 8)
    for bad in (values[0], values[None], values.tolist()):
        with pytest.raises(InvalidProblem, match="2-D array"):
            GridField(bad, mask, (0.0, 0.0), 1 / 8)


def test_grid_checked_at_construction():
    # the pinch and the thinness once surfaced only at assembly
    bitmap = [[1] * 6 for _ in range(6)]
    bitmap[2][2] = bitmap[3][3] = 0
    with pytest.raises(InvalidProblem, match=r"corner \(3, 3\)"):
        EigenProblem(MaskedGrid(bitmap), 1 / 8)
    with pytest.raises(DegenerateGrid, match="3 interior nodes"):
        EigenProblem(Rectangle(1, 1), 0.5)
    with pytest.raises(DegenerateGrid, match="thinner than 3 cells"):
        EigenProblem(MaskedGrid(((1,) * 6,) * 2), 1 / 8)


@pytest.mark.parametrize("domain", [(1, 2), "Disk(0.5)"])
def test_unknown_domain_rejected(domain):
    # once accepted, after which assembly raised a bare ValueError
    with pytest.raises(InvalidProblem, match="unknown domain"):
        EigenProblem(domain, 0.1)


@pytest.mark.parametrize("domain", [5, None, [1, 2], "Disk"])
def test_problem_file_domain_must_be_an_object(domain):
    # once a bare TypeError ("'int' object is not subscriptable")
    doc = {"formatVersion": 1, "gridStep": 0.125, "domain": domain}
    with pytest.raises(InvalidProblem, match="domain must be a JSON object"):
        EigenProblem.from_json(doc)


@pytest.mark.parametrize("V", [
    lambda x, y: np.zeros(3), lambda x, y: x * 1j,
    lambda x, y: [None] * len(x), lambda x, y: np.stack([x, y]),
    lambda x, y: "7"], ids=["three-values", "complex", "none", "two-per-site",
                            "string"])
def test_potential_needs_one_real_value_per_site(V):
    # once numpy's broadcast ValueError, a complex matrix and a TypeError
    p = EigenProblem(Rectangle(1, 1), 1 / 8, potential=V)
    with pytest.raises(InvalidProblem, match="one value per site"):
        spectral.AssembledOperator(p)


def test_potential_list_and_scalar_keep_their_bits():
    def matrix(V):
        A = assemble_operator(EigenProblem(Disk(0.5), 1 / 16, potential=V))
        return A.matrix.toarray()
    array = matrix(lambda x, y: 3.5 * x * x + y)
    assert matrix(lambda x, y: (3.5 * x * x + y).tolist()).tobytes() \
        == array.tobytes()
    assert matrix(lambda x, y: 2.0).tobytes() \
        == matrix(lambda x, y: np.full(x.shape, 2.0)).tobytes()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_potential_rejected(value):
    # once reported as "assembled operator not symmetric"
    p = EigenProblem(Rectangle(1, 1), 1 / 8,
                     potential=lambda x, y: np.where(x > 0.5, value, 0.0))
    with pytest.raises(InvalidProblem, match="potential is not finite"):
        assemble_operator(p)


@pytest.mark.parametrize("bitmap", [[5], [[1, 1, 1], 7], 5])
def test_bitmap_rows_must_be_lists(bitmap):
    doc = {"formatVersion": 1, "gridStep": 0.125, "bc": "Dirichlet",
           "domain": {"shape": "MaskedGrid", "bitmap": bitmap}}
    with pytest.raises(InvalidProblem, match="bitmap must be a sequence of rows"):
        EigenProblem.from_json(doc)


def _hole_bitmap():
    bitmap = [[1] * 10 for _ in range(10)]
    bitmap[4][4] = bitmap[4][5] = bitmap[5][4] = 0
    return tuple(map(tuple, bitmap))


@pytest.mark.parametrize("domain, h", [
    (Rectangle(1, 1), 1 / 48), (Disk(0.5), 1 / 3), (Disk(0.5), 1 / 7),
    (Disk(0.5), 1 / 48), (Annulus(0.2, 0.5), 1 / 48),
    (MaskedGrid(_hole_bitmap()), 0.1),
])
def test_grid_matches_reference(domain, h):
    # at h = 1/3 and 1/7 a cell centre of Disk(0.5) sits on the origin
    mask, origin = EigenProblem(domain, h).grid
    ref_mask, ref_origin = helpers.reference_domain_mask(domain, h)
    assert mask.shape == ref_mask.shape
    assert mask.tobytes() == ref_mask.tobytes()
    assert [float(o).hex() for o in origin] \
        == [float(o).hex() for o in ref_origin]
    area, ref_area = domain.area(h), helpers.reference_domain_area(domain, h)
    assert type(area) is type(ref_area)
    assert float(area).hex() == float(ref_area).hex()


def test_grid_size_capped_before_allocation():
    side = math.isqrt(spectral.MAX_CELLS)
    EigenProblem(Rectangle(1, 1), 1 / side)  # exactly at the cap: accepted
    row = (1,) * side
    too_big = [(Rectangle(1, 1), 1 / (side + 1)), (Disk(0.5), 1 / (side + 1)),
               (Annulus(0.2, 0.5), 1 / (side + 1)),
               (MaskedGrid((row,) * (side + 1)), 1.0),
               (Rectangle(1e308, 1.0), 1e-300)]
    for dom, h in too_big:
        with pytest.raises(InvalidProblem, match="MAX_CELLS"):
            EigenProblem(dom, h)
    # a negative width once reached the cell count as -inf cells; the
    # rectangle now refuses it when it is made
    with pytest.raises(InvalidProblem, match="w must be finite and > 0"):
        Rectangle(-1e308, 1.0)


@pytest.mark.parametrize("make, message", [
    (lambda: cluster_multiplicities([1.0], 10 ** 400),
     "cluster tolerance must be finite and >= 0"),
    (lambda: EigenProblem(Rectangle(1, 1), 1 / 8, bc="Robin", robin_h="x"),
     "Robin coefficient must be finite and >= 0, got 'x'"),
    (lambda: EigenProblem(Rectangle(1, 1), 1 / 8, bc="Robin",
                          robin_h=10 ** 400), "Robin coefficient"),
    (lambda: EigenProblem(Rectangle(1, 1), 1 / 8, bc="Robin", robin_h=-1.0),
     "Robin coefficient"),
    (lambda: EigenProblem(Rectangle(1, 1), "x"), "grid step must be finite"),
    (lambda: EigenProblem(Rectangle(1, 1), True), "grid step must be finite"),
    (lambda: Rectangle("1", 1), "Rectangle w must be finite and > 0"),
    (lambda: Annulus(0.2, math.inf), "Annulus r_out must be finite"),
    (lambda: Disk(10 ** 400), "Disk r must be finite"),
    (lambda: MaskedGrid(((1.0,) * 8,) * 8),
     "bitmap entry must be >= 0 and an integer, got 1.0"),
    (lambda: parse_potential(True), "expression or a number, got True"),
    (lambda: parse_potential(math.nan), "unknown name 'nan'"),
    (lambda: parse_potential(-math.inf), "unknown name 'inf'"),
    (lambda: parse_potential(10 ** 400), "too large for a float"),
    (lambda: parse_potential("-" * 100000 + "1"), "nested too deeply"),
    (lambda: parse_potential("1+" * 100000 + "1"), "nested too deeply"),
], ids=["tolerance-10e400", "robin-str", "robin-10e400", "robin-negative",
        "step-str", "step-bool", "width-str", "radius-inf", "radius-10e400", "bitmap-floats", "potential-true", "potential-nan",
        "potential-inf", "potential-10e400", "potential-deep-unary", "potential-deep-sum"])
def test_values_are_checked_where_they_are_made(make, message):
    # each once raised OverflowError, TypeError, MemoryError or
    # RecursionError, or was accepted (a Robin coefficient of 10**400, the
    # potential True as V = 1)
    with pytest.raises(InvalidProblem, match=message):
        make()


def test_constant_potentials_keep_their_bits():
    # a number is read as the expression it spells
    for c in (2.5, -3, 2 ** 64, 1e-320):
        V = parse_potential(c)
        assert V._source == c and float(V(0.5, 0.5)).hex() == float(c).hex()
    assert parse_potential(0) is None and parse_potential(-0.0) is None


def test_shapes_store_float_lengths():
    # as a file-read shape always did: "w": 1 writes back 1.0
    for shape, fields in ((Rectangle(1, np.int64(2)), ("w", "h")),
                          (Disk(1), ("r",)), (Annulus(1, 2), ("r_in", "r_out"))):
        assert all(type(getattr(shape, f)) is float for f in fields)
    p = EigenProblem(Rectangle(2, 1), np.float32(0.125), bc="Robin",
                     robin_h=2)
    assert type(p.grid_step) is float and type(p.robin_h) is float
    assert p.to_json()["domain"] == {"shape": "Rectangle", "w": 2.0, "h": 1.0}
    assert MaskedGrid([[np.int64(1)] * 8] * 8).bitmap == ((1,) * 8,) * 8
