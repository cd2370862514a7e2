"""Finite-difference eigensolver, nodal extraction, and law checks."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import jn_zeros, jv

import helpers
from nodalkit.bounds import bessel_j0_first_zero
from nodalkit.errors import (AllZeroField, DegenerateGrid, InfeasibleOrder,
                             InvalidProblem, NoFit)
from nodalkit.partition import check_boundary_parity, partition_stats, verify_euler
from nodalkit.spectral import (Annulus, Disk, EigenProblem, GridField,
                               MaskedGrid, Rectangle, assemble_operator,
                               cluster_multiplicities, domain_area,
                               extract_nodal, local_ray_fit, parse_potential,
                               prescribe_singular, sample_field, solve_eigen,
                               verify_spectral_laws)


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
    e = extract_nodal(sol.field(1), p)
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
    with pytest.raises(ValueError):
        parse_potential("__import__('os')")
    with pytest.raises(ValueError):
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
    with pytest.raises(ValueError):
        assemble_operator(p)


@pytest.mark.parametrize("expr", ["x +", "True", "'a'", "sin", "sin(x, y)",
                                  "x // 2", "x if y else 1", "z"])
def test_bad_potential_syntax_raises(expr):
    with pytest.raises(ValueError):
        parse_potential(expr)


def test_invalid_problems_raise():
    with pytest.raises(InvalidProblem):
        EigenProblem(Rectangle(1, 1), 1 / 8, bc="Foo")
    with pytest.raises(InvalidProblem):
        EigenProblem(Rectangle(1, 1), -0.125)
    with pytest.raises(InvalidProblem):
        EigenProblem(Rectangle(1, 1), 1 / 8, bc="Robin", robin_h=-1.0)
    with pytest.raises(InvalidProblem):
        EigenProblem(Annulus(1.0, 0.5), 1 / 8)
    with pytest.raises(InvalidProblem):
        domain_area(MaskedGrid(_TWO_PIECES))
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
    e = extract_nodal(f, p)
    assert e.domain_count == 2
    assert e.interior_singular == []
    assert len(e.boundary_singular) == 2
    assert all(rho == 1 for _, rho, _ in e.boundary_singular)
    assert verify_euler(e.as_partition).passed


def test_extract_nodal_cross():
    p = EigenProblem(Rectangle(1, 1), 1 / 32)
    f = sample_field(p, lambda x, y: math.sin(2 * math.pi * x) * math.sin(2 * math.pi * y))
    e = extract_nodal(f, p)
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
    e = extract_nodal(f, p)
    assert e.domain_count == 1
    assert verify_euler(e.as_partition).passed
    z = sample_field(p, lambda x, y: 0.0)
    with pytest.raises(AllZeroField):
        extract_nodal(z, p)


def test_extract_closed_loop_circle():
    # radial sign change inside a disk: nodal set is a circle, no singular pts
    p = EigenProblem(Disk(1.0), 1 / 32)
    f = sample_field(p, lambda x, y: 0.25 - x * x - y * y)
    e = extract_nodal(f, p)
    assert e.domain_count == 2
    assert e.interior_singular == [] and e.boundary_singular == []
    st = partition_stats(e.as_partition)
    assert st.beta == 1
    assert verify_euler(e.as_partition).passed


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


def test_masked_grid_domain():
    bitmap = tuple(tuple(1 for _ in range(8)) for _ in range(8))
    p = EigenProblem(MaskedGrid(bitmap), 1 / 8)
    sol = solve_eigen(assemble_operator(p), 1)
    assert domain_area(p.domain, p.grid_step) == pytest.approx(1.0)
    assert sol.eigenvalues[0] > 0
    with pytest.raises(ValueError):
        assemble_operator(EigenProblem(MaskedGrid(bitmap), 1 / 8, bc="Neumann"))


def test_problem_json_round_trip():
    p = EigenProblem(Rectangle(2, 1), 1 / 8, bc="Robin", robin_h=1.5)
    q = EigenProblem.from_json(p.to_json())
    assert q.domain == p.domain and q.bc == p.bc and q.robin_h == p.robin_h
    d = EigenProblem(Disk(1.0), 1 / 16)
    assert EigenProblem.from_json(d.to_json()).domain == d.domain


def test_grid_field_json_round_trip():
    p = EigenProblem(Rectangle(1, 1), 1 / 8)
    f = sample_field(p, lambda x, y: x + y)
    g = GridField.from_json(f.to_json())
    assert np.allclose(g.values, f.values)
    assert g.h == f.h
