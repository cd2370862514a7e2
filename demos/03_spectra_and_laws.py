"""Solve small eigenproblems, extract nodal partitions, check the laws.

Solves the Dirichlet unit square and the unit disk, prints eigenvalues
against the analytic values, extracts nodal partitions (including the
interior crossing of the sin(2 pi x) sin(2 pi y) mode) and runs the
Courant / Faber-Krahn / Pleijel / Euler report.
"""

import math

from nodalkit.bounds import bessel_j0_first_zero
from nodalkit.partition import partition_stats, verify_euler
from nodalkit.spectral import (Disk, EigenProblem, Rectangle,
                               assemble_operator, extract_nodal, local_ray_fit,
                               sample_field, solve_eigen, verify_spectral_laws)

p = EigenProblem(Rectangle(1, 1), 1 / 64)
sol = solve_eigen(assemble_operator(p), 6)
print("unit square, Dirichlet, h=1/64")
exact = sorted(math.pi ** 2 * (m * m + n * n)
               for m in range(1, 4) for n in range(1, 4))[:6]
for k, (lam, ex) in enumerate(zip(sol.eigenvalues, exact), start=1):
    print("  lambda_%d = %9.4f   analytic %9.4f   err %.2e"
          % (k, lam, ex, abs(lam - ex) / ex))
print("  clusters:", sol.clusters)

pd = EigenProblem(Disk(1.0), 1 / 64)
sold = solve_eigen(assemble_operator(pd), 1)
j01 = bessel_j0_first_zero()
print("unit disk: lambda_1 = %.4f vs j01^2 = %.4f" %
      (sold.eigenvalues[0], j01 ** 2))

print("\nnodal extraction of sin(2 pi x) sin(2 pi y):")
f = sample_field(p, lambda x, y: math.sin(2 * math.pi * x)
                 * math.sin(2 * math.pi * y))
e = extract_nodal(f)
st = partition_stats(e.as_partition)
print("  kappa=%d, interior singular %s, boundary singular %d points"
      % (e.domain_count, [nu for _, nu in e.interior_singular],
         len(e.boundary_singular)))
print("  Euler: %d = 1 + %d + %s  ->  %s"
      % (st.kappa, st.beta, st.sigma, verify_euler(e.as_partition).passed))
ell, angles, resid = local_ray_fit(f, (0.5, 0.5), 0.06)
print("  local ray fit at the crossing: order %d, rays at %s (resid %.1e)"
      % (ell, ["%.2f" % a for a in angles], resid))

print("\nlaw report on the first 6 square eigenpairs (seed 1):")
rep = verify_spectral_laws(sol, p, seed=1, n_combos=50)
for entry in rep.entries:
    print("  k=%2d lambda=%8.3f kappa=%d mult=%d courant=%s FK ratio=%.3f"
          % (entry["k"], entry["lambda"], entry["kappa"], entry["mult"],
             entry["courant"], entry["faberKrahnRatio"]))
print("  overall:", "PASS" if rep.passed else "FAIL")
