#!/usr/bin/env python3
"""couettelab benchmark: one workload per process, run from the repository root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload builds its inputs from the seed (set-up), then runs whole rounds
of the same operations until the next round would end after S seconds (at
least one round; two with --trace 1).  Every round's outputs are checked, and
the first round's outputs are also checked against separate computations.

--trace 0 prints the end-to-end metrics: setup_s (process start to the first
timed call), run_s (time of one round: the sum over its operations of each
operation's median time over the rounds) and peak_rss_mb (peak resident
memory at the end of the timed rounds).  --trace 1 alternates untraced and
traced rounds and prints the per-layer metrics of the set-up plus one traced
round, and the tracing overhead.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  Results and
spans are also written under perfbench/results/.

BLAS runs on one thread: OPENBLAS_NUM_THREADS is fixed before numpy loads,
because the package's numbers (and its timings) change with the thread count.
"""

import time

_PERF_START = time.perf_counter()

import os  # noqa: E402

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOAD_NAMES = ("nonslip_resolvent", "enhanced_dissipation", "nonlinear_stability")


def process_age():
    """Seconds since this process started.

    Read from /proc (start time in clock ticks since boot); where that is
    unavailable, the interpreter start-up before this file is not counted.
    """
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _PERF_START


def machine():
    """Processor count and the versions the figures depend on."""
    import platform

    import numpy
    import scipy

    def blas(mod):
        try:
            return mod.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (TypeError, KeyError):
            return "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "numpy_openblas": blas(numpy), "scipy_openblas": blas(scipy),
            "blas_threads": BLAS_THREADS}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_package():
    """Put the checkout's src/ first on the path; refuse to run without it."""
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "couettelab", "__init__.py")):
        raise SystemExit("perfbench: src/couettelab not found under the current "
                         "directory; run from the repository root")
    sys.path[:0] = [src, HERE]


def run_round(wl, op_times):
    """Call every operation once; record each one's time."""
    out = {}
    for name, call in wl.operations:
        t0 = time.perf_counter()
        out[name] = call()
        op_times.setdefault(name, []).append(time.perf_counter() - t0)
    return out


def round_time(op_times):
    """Sum over the operations of each one's median time over the rounds."""
    return sum(statistics.median(ts) for ts in op_times.values())


def measure(wl, seconds, tracer):
    """Whole rounds until the next one would end after `seconds`.

    With a tracer, rounds alternate untraced / traced, starting untraced.
    """
    plain, traced, layers, checks = {}, {}, [], []
    first = None
    rounds = []
    t_begin = time.perf_counter()
    while True:
        trace_this = tracer is not None and len(rounds) % 2 == 1
        if trace_this:
            tracer.install()
            mark = tracer.mark()
        t0 = time.perf_counter()
        out = run_round(wl, traced if trace_this else plain)
        rounds.append(time.perf_counter() - t0)
        if trace_this:
            tracer.uninstall()
            layers.append(tracer.per_layer(mark))
        checks.append(wl.round_checks(out))
        if first is None:
            first = out
        enough = len(rounds) >= (2 if tracer is not None else 1)
        if enough and time.perf_counter() - t_begin + max(rounds) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return dict(plain=plain, traced=traced, rounds=rounds, layers=layers,
                checks=checks, first=first, peak_rss_mb=peak_rss_mb)


def tally(wl, round_checks, oracle_checks):
    """Operations attempted and failed; a failing check fails its operations."""
    failed = 0
    for checks in round_checks:
        bad = {op for c in checks + oracle_checks if not c.ok for op in c.ops}
        failed += len(bad)
    every = [c for cs in round_checks for c in cs] + oracle_checks
    return len(round_checks) * len(wl.operations), failed, every


def per_layer_metrics(setup_layer, layers, plain, traced):
    """Set-up plus one traced round (mean over the traced rounds)."""
    out = {name: setup_layer[name] + sum(l[name] for l in layers) / len(layers)
           for name in setup_layer}
    out["trace.round_s"] = round_time(traced)
    out["trace.overhead_pct"] = 100.0 * (round_time(traced) / round_time(plain) - 1.0)
    return out


def main(argv=None):
    args = parse_args(argv)
    import_package()
    import tracing
    import workloads

    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    wl = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = process_age()
    setup_layer = None
    if tracer is not None:
        tracer.uninstall()
        setup_layer = tracer.per_layer()

    m = measure(wl, args.seconds, tracer)
    oracle = wl.oracle_checks(wl.oracle_values(m["first"]))
    attempted, failed, every = tally(wl, m["checks"], oracle)
    correct = all(c.ok for c in every)

    if tracer is None:
        values = {"setup_s": setup_s, "run_s": round_time(m["plain"]),
                  "peak_rss_mb": m["peak_rss_mb"]}
        units = {x["name"]: x["unit"] for x in spec["end_to_end"]}
    else:
        units = {x["name"]: x["unit"] for x in spec["per_layer"]}
        values = per_layer_metrics(setup_layer, m["layers"], m["plain"], m["traced"])

    for c in m["checks"][0] + oracle:
        print(f"{'ok  ' if c.ok else 'FAIL'} {c.name}: {c.detail}",
              file=sys.stdout if c.ok else sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(m['rounds'])} rounds, "
          f"{attempted} operations, {failed} failed, BLAS threads {BLAS_THREADS}")
    for name, unit in units.items():
        print(f"  {name} = {values[name]:.6g} {unit}")

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {n: {"value": float(values[n]), "unit": u}
                          for n, u in units.items()}}
    outdir = os.path.join(HERE, "results")
    os.makedirs(outdir, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(outdir, tag + ".json"), "w") as fh:
        json.dump(dict(result, round_s=m["rounds"], op_s=m["plain"],
                       traced_op_s=m["traced"], machine=machine(),
                       checks=[[c.name, c.ok, c.detail] for c in every]), fh,
                  indent=1)
    if tracer is not None:
        tracer.dump(os.path.join(outdir, f"spans-{args.workload}-seed{args.seed}.json"),
                    {"workload": args.workload, "seed": args.seed})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
