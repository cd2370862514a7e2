"""The three benchmark workloads.

Each workload is a closed loop with a single client: one pass runs a fixed
job list through nodalkit's public API, and the next pass starts when the
previous one has finished.  `setup()` makes the inputs from the seed and
primes every code path the pass uses, so lazy initialisation (the first
ARPACK call, first-use imports) is paid before timing.  `run_pass()` times
each job with a `bench.clock.PassClock`, which also probes the machine's
speed while the jobs run; correctness checks that need extra parsing run
outside the jobs.

All calls go through module attributes (`spectral.solve_eigen`, ...) so that
the tracer's rebinding reaches them.
"""

import contextlib
import hashlib
import json
import math
import os
import xml.etree.ElementTree as ET

import numpy as np

from nodalkit import cli, comb_type, nodal_graph, partition, spectral
from nodalkit.errors import NodalkitError
from nodalkit.partition import ADDED

from bench.clock import PassClock
from bench.partitions import random_planar_partition


class Checks:
    """Checked operations.  Each check and each attempted call is one
    operation.  A check that finds a wrong answer counts as failed and makes
    the run incorrect; a call that raises a NodalkitError counts as failed
    only (it gave no answer that could be wrong)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.notes = []

    def _note(self, text):
        if len(self.notes) < 20 and text not in self.notes:
            self.notes.append(text)

    def expect(self, ok, what, *args):
        """One check; `what % args` describes it and is only built when it
        fails, to keep string work out of the timed jobs."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.wrong += 1
            self._note("wrong: " + (what % args if args else what))

    def attempt(self, what, fn, *args):
        """Run one operation; returns (ok, result)."""
        self.attempted += 1
        try:
            return True, fn(*args)
        except NodalkitError as exc:
            self.failed += 1
            self._note("failed: %s: %s: %s" % (what, type(exc).__name__, exc))
            return False, None


def _no_span(name):
    return contextlib.nullcontext()


class _Digests:
    """Determinism probe: distinct eigenvector digests per problem."""

    def __init__(self):
        self.seen = {}

    def add(self, key, vectors):
        digest = hashlib.sha256(np.ascontiguousarray(vectors).tobytes())
        self.seen.setdefault(key, set()).add(digest.hexdigest())

    def distinct(self):
        return sum(len(s) for s in self.seen.values())


# ---------------------------------------------------------------------------
# laws
# ---------------------------------------------------------------------------

class Laws:
    """assemble -> solve_eigen(K=10) -> verify_spectral_laws(seed, 200 combos)
    on the unit square and on Disk(0.5), both with h = 1/48."""

    K = 10
    N_COMBOS = 200
    SQUARE_CLUSTERS = [[1], [2, 3], [4], [5, 6], [7, 8], [9, 10]]

    def __init__(self, seed, workdir):
        self.seed = seed
        self.digests = _Digests()

    def setup(self):
        self.problems = [
            ("square", spectral.EigenProblem(spectral.Rectangle(1, 1), 1 / 48)),
            ("disk", spectral.EigenProblem(spectral.Disk(0.5), 1 / 48)),
        ]
        for _, problem in self.problems:
            sol = spectral.solve_eigen(spectral.assemble_operator(problem),
                                       self.K)
            spectral.verify_spectral_laws(sol, problem, seed=self.seed,
                                          n_combos=2)

    def run_pass(self, checks, clock, span=_no_span):
        results = []
        for name, problem in self.problems:
            sol = rep = None
            with clock.job():
                ok, op = checks.attempt(name + " assemble",
                                        spectral.assemble_operator, problem)
            if ok:
                with clock.job():
                    ok, sol = checks.attempt(name + " solve",
                                             spectral.solve_eigen, op, self.K)
            if ok:
                with clock.job():
                    ok, rep = checks.attempt(
                        name + " laws", spectral.verify_spectral_laws, sol,
                        problem, self.seed, self.N_COMBOS)
            results.append((name, sol, rep))
        for name, sol, rep in results:
            if sol is not None:
                self.digests.add(name, sol.vectors)
            if rep is not None:
                checks.expect(rep.passed, "%s law report passed", name)
                for c in rep.combo_checks:
                    checks.expect(c["maxKappa"] <= c["bound"],
                                  "%s cluster %s maxKappa %d <= %d", name,
                                  c["cluster"], c["maxKappa"], c["bound"])
            if name == "square" and sol is not None:
                lam1 = float(sol.eigenvalues[0])
                checks.expect(abs(lam1 - 2 * math.pi ** 2)
                              < 0.01 * 2 * math.pi ** 2,
                              "square lambda_1 %.6f within 1%% of 2 pi^2", lam1)
                checks.expect(sol.clusters == self.SQUARE_CLUSTERS,
                              "square clusters %s", sol.clusters)


# ---------------------------------------------------------------------------
# cli-pipeline
# ---------------------------------------------------------------------------

def _problem_files(h_dirichlet, h_robin, c):
    """The three problem documents: node layout, masked cell layout with a
    potential, ghost-cell (Robin) layout."""
    return [
        ("square", {"formatVersion": 1,
                    "domain": {"shape": "Rectangle", "w": 1.0, "h": 1.0},
                    "gridStep": h_dirichlet, "bc": "Dirichlet"}),
        ("disk", {"formatVersion": 1, "domain": {"shape": "Disk", "r": 0.5},
                  "gridStep": h_dirichlet, "bc": "Dirichlet",
                  "V": "%r*(x*x+y*y)" % c}),
        ("robin", {"formatVersion": 1,
                   "domain": {"shape": "Rectangle", "w": 2.0, "h": 1.0},
                   "gridStep": h_robin, "bc": "Robin", "robinH": 2.0}),
    ]


def _expected_unknowns(doc):
    """Grid size of a problem, counted independently of the assembler."""
    h = doc["gridStep"]
    d = doc["domain"]
    if d["shape"] == "Rectangle":
        nx, ny = round(d["w"] / h), round(d["h"] / h)
        if doc["bc"] == "Dirichlet":
            return (nx - 1) * (ny - 1)
        return nx * ny
    n = round(2 * d["r"] / h)
    centers = (np.arange(n) + 0.5) * h - d["r"]
    return int(sum(1 for x in centers for y in centers
                   if x * x + y * y < d["r"] ** 2))


class CliPipeline:
    """`nodalkit.cli.main` in process: per problem file `solve -k 10 -o`,
    `nodal report` for k = 1..10, then `plot 10`."""

    K = 10

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        rng = np.random.default_rng(seed)
        self.c = round(float(rng.uniform(1.0, 20.0)), 4)
        self.digests = _Digests()

    def _write_problems(self, tag, h_dirichlet, h_robin):
        jobs = []
        for name, doc in _problem_files(h_dirichlet, h_robin, self.c):
            base = os.path.join(self.workdir, "%s-%s" % (tag, name))
            with open(base + ".problem.json", "w") as fh:
                json.dump(doc, fh)
            jobs.append((name, doc, base))
        return jobs

    def _run_chain(self, base, clock):
        """(command, exit code) for each command on one problem file."""
        sol = base + ".solution.json"
        commands = [("solve", ["solve", base + ".problem.json",
                               "-k", str(self.K), "-o", sol])]
        commands += [("nodal report %d" % k,
                      ["nodal", "report", sol, str(k),
                       "-o", "%s.report%d.json" % (base, k)])
                     for k in range(1, self.K + 1)]
        commands.append(("plot", ["plot", sol, str(self.K),
                                  "-o", base + ".svg"]))
        codes = []
        for what, argv in commands:
            with clock.job():
                codes.append((what, cli.main(argv)))
        return codes

    def setup(self):
        for _, _, base in self._write_problems("prime", 1 / 48, 1 / 48):
            self._run_chain(base, PassClock(probe=False))
        self.jobs = self._write_problems("run", 1 / 128, 1 / 64)

    def run_pass(self, checks, clock, span=_no_span):
        codes = [self._run_chain(base, clock) for _, _, base in self.jobs]
        for (name, doc, base), chain in zip(self.jobs, codes):
            for what, code in chain:
                checks.expect(code == 0, "%s %s exit code %d", name, what,
                              code)
            with open(base + ".solution.json") as fh:
                vectors = np.array(json.load(fh)["vectors"], float)
            n = _expected_unknowns(doc)
            checks.expect(vectors.shape == (self.K, n),
                          "%s solution vectors %s, grid needs %d x %d", name,
                          vectors.shape, self.K, n)
            self.digests.add(name, vectors)
            try:
                ET.parse(base + ".svg")
                svg_ok = True
            except (ET.ParseError, OSError):
                svg_ok = False
            checks.expect(svg_ok, "%s SVG parses as XML", name)


# ---------------------------------------------------------------------------
# combinatorics
# ---------------------------------------------------------------------------

def _catalan(p):
    return math.comb(2 * p, p) // (p + 1)


class Combinatorics:
    """The exact core: random planar partitions through the Euler, parity,
    statistics, normalisation and multigraph code, plus the interior-type
    enumeration, labeling round trip, shift census and boundary words.

    The partition corpus is drawn from the fixed CORPUS_SEED and the run's
    seed sets the order a pass visits it in.  `normalize` fails on partitions
    with a bridge edge (a known defect, counted as failed operations), and
    how many of them a corpus holds depends on the seed it was drawn from:
    0 to 4 in 1 000.  With one corpus every run fails on the same two
    partitions per pass, so `failed / attempted` is identical on every run
    and never zero."""

    N_PARTITIONS = 1000
    CORPUS_SEED = 1
    HOLES = (None, 0, 2)
    P_MAX = 10             # enumerate_interior, shift census
    P_ROUND_TRIP = 9       # labeling round trip on every type
    K_MAX = 9              # enumerate_boundary, words, rotating limit
    CHUNK = 25             # partitions per timed job

    def __init__(self, seed, workdir):
        self.seed = seed
        self.digests = None

    def setup(self):
        rng = np.random.default_rng(self.CORPUS_SEED)
        corpus = []
        for i in range(self.N_PARTITIONS):
            holes = self.HOLES[i % len(self.HOLES)]
            corpus.append(
                (i, holes, random_planar_partition(rng, planar_holes=holes)))
        order = np.random.default_rng(self.seed).permutation(len(corpus))
        self.partitions = [corpus[i] for i in order]
        self._pass(Checks(), PassClock(probe=False), _no_span,
                   self.partitions[:30], 5, 5, 5)

    def run_pass(self, checks, clock, span=_no_span):
        self._pass(checks, clock, span, self.partitions, self.P_MAX,
                   self.P_ROUND_TRIP, self.K_MAX)

    def _pass(self, checks, clock, span, partitions, p_max, p_round_trip,
              k_max):
        for start in range(0, len(partitions), self.CHUNK):
            with clock.job():
                for item in partitions[start:start + self.CHUNK]:
                    self._partition_ops(checks, *item)
        for p in range(1, p_max + 1):
            with clock.job():
                types = comb_type.enumerate_interior(p)
            checks.expect(len(types) == _catalan(p),
                          "enumerate_interior(%d) count %d", p, len(types))
            if p > p_round_trip:
                continue
            with clock.job():
                for t in types:
                    with span("comb_type.labeling_round_trip"):
                        back = comb_type.type_from_labeling(
                            comb_type.labeling_from_type(t))
                    checks.expect(back == t, "round trip of %s", t.tau)
        for p in range(1, p_max + 1):
            with clock.job():
                n = len(comb_type.shift_invariant_types(p))
            checks.expect(n == (1 if p == 1 else 0),
                          "shift census p=%d gives %d", p, n)
        for k in range(3, k_max + 1):
            with clock.job():
                for t in comb_type.enumerate_boundary(k):
                    comb_type.boundary_words(t)
                    rep = comb_type.rotating_limit_check(t)
                    checks.expect(rep.passed and rep.pos_zero - rep.pos_pi == 2,
                                  "rotating limit of %s", t.tau)

    @staticmethod
    def _partition_ops(checks, i, holes, p):
        """Operations on corpus partition number `i`."""
        what = "partition %d" % i
        ok, rep = checks.attempt(what + " verify_euler", partition.verify_euler, p)
        if ok:
            checks.expect(rep.passed, what + " Euler identity")
        if holes is not None:
            ok, parity = checks.attempt(what + " parity",
                                        partition.check_boundary_parity, p)
            if ok:
                checks.expect(all(r["passed"] for r in parity),
                              what + " boundary parity")
        ok, before = checks.attempt(what + " stats", partition.partition_stats, p)
        if not ok:
            return
        ok, normal = checks.attempt(what + " normalize", partition.normalize, p)
        if ok:
            ok, after = checks.attempt(what + " stats after normalize",
                                       partition.partition_stats, normal)
            if ok:
                checks.expect(after.beta == before.beta
                              and after.kappa - after.sigma
                              == before.kappa - before.sigma
                              and after.omega == before.omega,
                              what + " normalize keeps (beta, kappa-sigma, omega)")
        ok, simple = checks.attempt(what + " simplify_to_graph",
                                    nodal_graph.simplify_to_graph, p)
        if ok:
            checks.expect(simple[1].r == before.kappa,
                          what + " simplify keeps the region count")
        if not any(v.kind == ADDED for v in p.vertices):
            ok, counts = checks.attempt(what + " build_multigraph",
                                        nodal_graph.build_multigraph, p)
            if ok:
                checks.expect(counts.r == before.kappa
                              and counts.alpha1 - counts.alpha0 == before.sigma,
                              what + " multigraph counts")


WORKLOADS = {"laws": Laws, "cli-pipeline": CliPipeline,
             "combinatorics": Combinatorics}
