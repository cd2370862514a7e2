"""nodalkit benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds nothing: it imports nodalkit from `src/` of the checkout it sits in
and fails (exit code 2) when those sources are missing.  One run:

1. imports numpy, scipy and nodalkit (timed once);
2. sets the workload up three times (inputs from the seed plus a priming
   pass); `setup_s` is import time plus the median set-up;
3. runs timed passes of the workload's job list until S seconds have gone
   by (at least one pass), checking every pass's outputs; `pass_s` is the
   median pass;
4. prints a summary and, as the last line, one JSON object.

`pass_s` and `setup_s` are seconds at a fixed reference speed (see
bench/clock.py); the summary also prints the plain wall-clock times.

With --trace 0 the metrics are the end-to-end ones (tracing off).  With
--trace 1, passes alternate untraced and traced (starting untraced); the
metrics are the per-layer ones, the median over traced passes, plus the
tracing overhead (traced minus untraced median wall time of a pass).  All
spans are written to `.bench_out/trace-<workload>-<seed>.jsonl` in the
checkout.

See bench/README.md for the workloads and what each metric should move.
"""

import argparse
import json
import os
import shutil
import statistics
import sys
import time

# One client, one thread: the BLAS and OpenMP pools are pinned before numpy
# loads, so the workloads start no worker threads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_REPS = 3


def _parse(argv):
    ap = argparse.ArgumentParser(prog="bench/run.py")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, or None."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _environment():
    import numpy
    import platform
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": _blas_threads()}


def _peak_rss_mb():
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main(argv=None):
    args = _parse(sys.argv[1:] if argv is None else argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(SRC, "nodalkit", "__init__.py")):
        print("error: no nodalkit sources under %s" % SRC, file=sys.stderr)
        return 2
    # import nodalkit from this checkout only, and the benchmark as a package
    sys.path[0:1] = [SRC, ROOT]
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import scipy.sparse.linalg  # noqa: F401
    import nodalkit
    import nodalkit.cli  # noqa: F401
    import_s = time.perf_counter() - t0
    if not os.path.abspath(nodalkit.__file__).startswith(SRC + os.sep):
        print("error: nodalkit imported from %s, not %s"
              % (nodalkit.__file__, SRC), file=sys.stderr)
        return 2
    from bench.workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print("error: unknown workload %r (choose from %s)"
              % (args.workload, ", ".join(WORKLOADS)), file=sys.stderr)
        return 2

    out_dir = os.path.join(ROOT, ".bench_out")
    workdir = os.path.join(out_dir, "work-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    try:
        return _run(args, import_s, out_dir, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, import_s, out_dir, workdir):
    from bench import trace, workloads
    from bench.clock import REFERENCE_S, PassClock

    env = _environment()
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    setups = []
    for _ in range(SETUP_REPS):
        with PassClock() as clock, clock.job():
            wl.setup()
        setups.append(clock)
    # the import ran before numpy could be probed: scale it by the set-ups'
    # reference times, measured moments later
    reference = statistics.median(r for c in setups for r in c.reference_s)
    setup_s = (import_s * REFERENCE_S / reference
               + statistics.median(c.ref_s for c in setups))
    setup_wall_s = import_s + statistics.median(c.job_s for c in setups)

    checks = workloads.Checks()
    tracer = trace.Tracer() if args.trace else None
    untraced, traced, ref = [], [], []
    start = time.perf_counter()
    i = 0
    while (i == 0 or time.perf_counter() - start < args.seconds
           or (tracer is not None and not traced)):
        if tracer is not None and i % 2 == 1:
            # no speed probes in traced passes: they would land in spans
            tracer.pass_id = i
            tracer.install()
            try:
                with tracer.span("bench.pass"), \
                        PassClock(probe=False) as clock:
                    wl.run_pass(checks, clock, tracer.span)
            finally:
                tracer.uninstall()
            traced.append(clock.job_s)
        else:
            with PassClock() as clock:
                wl.run_pass(checks, clock)
            untraced.append(clock.job_s)
            ref.append(clock.ref_s)
        i += 1

    pass_s = statistics.median(ref)
    wall_s = statistics.median(untraced)
    q1, q3 = _quartiles(untraced)
    ok_ratio = 1.0 - checks.failed / checks.attempted
    print("env %s" % env)
    print("workload %s seed %d: pass_s %.4f s | setup_s %.4f s | peak_rss_mb"
          " %.1f MB | fail_ratio %d/%d = %.6f"
          % (args.workload, args.seed, pass_s, setup_s, _peak_rss_mb(),
             checks.failed, checks.attempted,
             checks.failed / checks.attempted))
    print("  wall clock: pass median %.4f s (q1 %.4f, q3 %.4f, n %d),"
          " set-up %.4f s (import %.4f s, set-ups %s s)"
          % (wall_s, q1, q3, len(untraced), setup_wall_s, import_s,
             " ".join("%.3f" % c.job_s for c in setups)))
    print("  passes at reference speed (s): %s"
          % " ".join("%.3f" % t for t in ref))
    for note in checks.notes:
        print("  " + note)

    if tracer is None:
        metrics = {"pass_s": (pass_s, "s"), "setup_s": (setup_s, "s"),
                   "peak_rss_mb": (_peak_rss_mb(), "MB"),
                   "ok_ratio": (ok_ratio, "ratio")}
    else:
        metrics = _layer_metrics(tracer, wl, untraced, traced)
        os.makedirs(out_dir, exist_ok=True)
        tracer.dump(os.path.join(out_dir, "trace-%s-%d.jsonl"
                                 % (args.workload, args.seed)), env)
        for name, (value, unit) in metrics.items():
            print("  %-45s %14.6g %s" % (name, value, unit))

    print(json_line(checks, metrics))
    return 0


def _layer_metrics(tracer, wl, untraced, traced):
    from bench import trace

    passes = [tracer.per_pass_metrics(i) for i in sorted(
        {s[4] for s in tracer.spans})]
    metrics = {name: (statistics.median(p[name] for p in passes),
                      trace.unit_of(name)) for name in passes[0]}
    digests = wl.digests.distinct() if wl.digests is not None else 0
    metrics["spectral.solve.distinct_digests"] = (digests, "count")
    metrics["trace.traced_wall_s"] = (statistics.median(traced), "s")
    metrics["trace.untraced_wall_s"] = (statistics.median(untraced), "s")
    metrics["trace.overhead_s"] = (statistics.median(traced)
                                   - statistics.median(untraced), "s")
    return metrics


def json_line(checks, metrics):
    return json.dumps({
        "correct": checks.wrong == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}})


if __name__ == "__main__":
    sys.exit(main())
