"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line ("acceptance N: ...") and enforces the
stated numeric tolerance and time budget.  Run with -s to see the lines.
"""

import itertools
import math
import time

import numpy as np
import pytest

import helpers
from nodalkit.bounds import bessel_j0_first_zero, pleijel_gamma
from nodalkit.comb_type import (InteriorType, boundary_words, enumerate_boundary,
                                enumerate_interior, labeling_from_type,
                                rotating_limit_check, shift_invariant_types,
                                type_from_labeling)
from nodalkit.partition import normalize, partition_stats, verify_euler
from nodalkit.spectral import (Disk, EigenProblem, Rectangle, assemble_operator,
                               extract_nodal, prescribe_singular, sample_field,
                               solve_eigen, verify_spectral_laws)

TAU16 = (3, 2, 1, 0, 9, 8, 7, 6, 5, 4, 15, 12, 11, 14, 13, 10)
DELTA16 = (1, 2, 1, 3, 4, 5, 6, 5, 4, 3, 7, 8, 7, 9, 7, 3)


def _verdict(n, ok, detail=""):
    print("acceptance %d: %s%s" % (n, "PASS" if ok else "FAIL",
                                   " (%s)" % detail if detail else ""))
    assert ok, detail


def test_acceptance_1_labeling_round_trip():
    t = InteriorType(8, TAU16)
    start = time.perf_counter()
    lab = labeling_from_type(t)
    back = type_from_labeling(lab)
    elapsed = time.perf_counter() - start
    ok = lab.delta == DELTA16 and back.tau == TAU16 and elapsed < 0.010
    _verdict(1, ok, "delta match=%s inverse=%s %.2fms"
             % (lab.delta == DELTA16, back.tau == TAU16, elapsed * 1e3))


def _oracle_count(p):
    """Brute-force count of valid involutions via raw matchings."""
    def matchings(rest):
        if not rest:
            yield ()
            return
        a = rest[0]
        for i in range(1, len(rest)):
            for m in matchings(rest[1:i] + rest[i + 1:]):
                yield ((a, rest[i]),) + m
    count = 0
    for m in matchings(tuple(range(2 * p))):
        if any((b - a) % 2 == 0 for a, b in m):
            continue
        if any(a < c < b < d or c < a < d < b
               for (a, b), (c, d) in itertools.combinations(m, 2)):
            continue
        count += 1
    return count


def test_acceptance_2_catalan_counts():
    start = time.perf_counter()
    counts = [len(enumerate_interior(p)) for p in range(1, 9)]
    elapsed = time.perf_counter() - start
    expected = [1, 2, 5, 14, 42, 132, 429, 1430]
    oracle = [_oracle_count(p) for p in range(1, 6)]  # exponential beyond
    ok = counts == expected and oracle == expected[:5] and elapsed < 1.0
    _verdict(2, ok, "counts=%s %.2fs" % (counts, elapsed))


def test_acceptance_3_shift_invariance():
    start = time.perf_counter()
    single = shift_invariant_types(1)
    empties = [shift_invariant_types(p) for p in range(2, 9)]
    elapsed = time.perf_counter() - start
    ok = len(single) == 1 and all(e == [] for e in empties) and elapsed < 10
    _verdict(3, ok, "%.2fs" % elapsed)


def test_acceptance_4_boundary_words():
    start = time.perf_counter()
    ok = True
    for k in range(3, 8):
        for t in enumerate_boundary(k):
            rep = rotating_limit_check(t)
            if not (rep.passed and rep.pos_zero - rep.pos_pi == 2):
                ok = False
    from nodalkit.comb_type import BoundaryType
    w69 = boundary_words(BoundaryType(4, (3, 2, 1, 0, 5, 4)))[0].letters
    left = boundary_words(BoundaryType(4, (5, 2, 1, 4, 3, 0)))[0].letters
    right = boundary_words(BoundaryType(4, (1, 0, 3, 2, 5, 4)))[0].letters
    ok = ok and w69 == (1, 2, 1, 3, 4, 3)
    ok = ok and left == (1, 2, 1, 3, 1, 4) and right == (1, 2, 3, 2, 4, 2)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    _verdict(4, ok, "words %s/%s/%s %.2fs"
             % ("".join(map(str, w69)), "".join(map(str, left)),
                "".join(map(str, right)), elapsed))


def test_acceptance_5_euler_identities():
    rng = np.random.default_rng(20260824)
    start = time.perf_counter()
    ok = True
    samples = []
    for i in range(1000):
        holes = (None, 0, 2)[i % 3]
        p = helpers.random_planar_partition(rng, planar_holes=holes)
        samples.append(p)
        if not verify_euler(p).passed:
            ok = False
    fixtures = helpers.moebius_fixtures()
    for p in fixtures:
        if not verify_euler(p).passed:
            ok = False
    for p in samples[::37] + fixtures:
        before = partition_stats(p)
        after = partition_stats(normalize(p))
        if not (after.beta == before.beta
                and after.kappa - after.sigma == before.kappa - before.sigma
                and after.omega == before.omega):
            ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    _verdict(5, ok, "%.2fs" % elapsed)


def test_acceptance_6_spectral_regression():
    start = time.perf_counter()
    p = EigenProblem(Rectangle(1, 1), 1 / 128)
    sol = solve_eigen(assemble_operator(p), 3)
    l1, l2, l3 = sol.eigenvalues
    ok = abs(l1 - 2 * math.pi ** 2) / (2 * math.pi ** 2) < 0.01
    ok = ok and sol.clusters[1] == [2, 3]
    ok = ok and abs(l3 - l2) / max(l2, l3) < 1e-3
    ok = ok and abs(l2 - 5 * math.pi ** 2) / (5 * math.pi ** 2) < 0.01
    pd = EigenProblem(Disk(1.0), 1 / 128)
    sold = solve_eigen(assemble_operator(pd), 1)
    j01 = bessel_j0_first_zero()
    disk_err = abs(sold.eigenvalues[0] - j01 ** 2) / j01 ** 2
    ok = ok and disk_err < 0.015
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60
    _verdict(6, ok, "l1=%.4f disk err=%.4f %.1fs" % (l1, disk_err, elapsed))


def test_acceptance_7_nodal_extraction():
    start = time.perf_counter()
    p = EigenProblem(Rectangle(1, 1), 1 / 64)
    f = sample_field(p, lambda x, y: math.sin(2 * math.pi * x)
                     * math.sin(2 * math.pi * y))
    e = extract_nodal(f)
    st = partition_stats(e.as_partition)
    ok = e.domain_count == 4
    ok = ok and [nu for _, nu in e.interior_singular] == [4]
    ok = ok and sorted(r for _, r, _ in e.boundary_singular) == [1, 1, 1, 1]
    # 4 = 1 + beta + sigma with beta = 0, sigma_i = 1, sigma_b = 2
    ok = ok and (st.kappa, st.beta, st.sigma_i, st.sigma_b) == (4, 0, 1, 2)
    ok = ok and verify_euler(e.as_partition).passed
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5
    _verdict(7, ok, "kappa=%d %.2fs" % (e.domain_count, elapsed))


def test_acceptance_8_law_report():
    start = time.perf_counter()
    p = EigenProblem(Rectangle(1, 1), 1 / 48)
    sol = solve_eigen(assemble_operator(p), 10)
    rep = verify_spectral_laws(sol, p, seed=20260824, n_combos=200)
    ok = rep.passed
    ok = ok and all(e["courant"] and e["multBound"] and e["faberKrahn"]
                    and e["pleijel"] and e["euler"] for e in rep.entries)
    ok = ok and all(c["samples"] == 200 and c["passed"]
                    for c in rep.combo_checks)
    pd = EigenProblem(Disk(1.0), 1 / 96)
    sold = solve_eigen(assemble_operator(pd), 1)
    repd = verify_spectral_laws(sold, pd, seed=20260824)
    ratio = repd.entries[0]["faberKrahnRatio"]
    ok = ok and abs(ratio - 1.0) < 0.02   # equality within 2%
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60
    _verdict(8, ok, "disk FK ratio=%.4f %.1fs" % (ratio, elapsed))


def test_acceptance_9_prescribed_singular():
    from scipy.special import jn_zeros, jv
    start = time.perf_counter()
    j11 = jn_zeros(1, 1)[0]
    f1 = lambda x, y: jv(1, j11 * math.hypot(x, y)) * math.cos(math.atan2(y, x))
    f2 = lambda x, y: jv(1, j11 * math.hypot(x, y)) * math.sin(math.atan2(y, x))
    c, resid = prescribe_singular([f1, f2], (1.0, 0.0), 1,
                                  boundary=((1, 0), (0, 1)), h=1e-3)
    ok = resid < 1e-6 and abs(np.linalg.norm(c) - 1) < 1e-12
    # interior prescriptions at order floor(m/2) for m = 2, 3
    b1 = lambda x, y: math.sin(2 * math.pi * x) * math.sin(math.pi * y)
    b2 = lambda x, y: math.sin(math.pi * x) * math.sin(2 * math.pi * y)
    b3 = lambda x, y: math.sin(3 * math.pi * x) * math.sin(math.pi * y)
    for basis in ([b1, b2], [b1, b2, b3]):
        order = len(basis) // 2
        c2, r2 = prescribe_singular(basis, (0.3, 0.45), order, h=1e-4)
        ok = ok and r2 < 1e-6
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30
    _verdict(9, ok, "boundary resid=%.2e %.2fs" % (resid, elapsed))


def test_acceptance_10_gamma():
    start = time.perf_counter()
    g = pleijel_gamma()
    elapsed = time.perf_counter() - start
    ok = abs(g - 0.69166) <= 1e-4 and g < 1 and elapsed < 1
    _verdict(10, ok, "gamma=%.6f" % g)
