"""felogit benchmark: one closed-loop client in one process.

    python3 perfbench/run.py --workload estimate --seed 0 --seconds 60 --trace 0

Workloads: ``estimate`` and ``identification`` (see README.md).
A run sets up the workload from the seed, then repeats the workload's
fixed task list in passes.  A new pass starts only while the elapsed
time plus the median pass so far stays within ``--seconds``; at least
one pass runs, and a traced run runs at least one traced and one
untraced pass, alternating and starting traced.  A fixed calibration
kernel (``speed.py``) runs before and after each pass and between its
tasks; ``wall_ref_s`` rescales each pass to a reference speed.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics,
with ``--trace 1`` the per-layer ones.  The line before it records the
environment.  Full results, including the spans of traced passes, go to
``perfbench/results/``.  Run from the root of a checkout that holds
``src/felogit``; felogit is imported from there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORKLOAD_NAMES = ("estimate", "identification")
# One BLAS thread: a single-threaded client, no contention with the
# other processes of a shared machine, and reductions in a fixed order
# so the reference estimates reproduce.  Never more than nproc.
BLAS_THREADS = 1
SETUP_PROBES = 5  # at least this many; one runs before every untraced pass


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--probe-setup", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def pin_blas_threads():
    """Fix the BLAS thread count before numpy loads OpenBLAS."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


# -- environment record --------------------------------------------------------


def git_sha():
    if not (ROOT / ".git").exists():
        return None  # the checkout is not a git repository
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() or None


def source_digest():
    """SHA-256 over src/felogit, identifying the code in any checkout."""
    h = hashlib.sha256()
    for path in sorted((SRC / "felogit").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def openblas_threads():
    """Thread count reported by each OpenBLAS library loaded here."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.split()[-1]})
    except OSError:
        return {}
    out = {}
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(lib).name] = int(fn())
                break
    return out


def environment(args):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        openblas = None
    return {
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "blas_threads_set": BLAS_THREADS,
        "openblas_threads": openblas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# -- measurement ---------------------------------------------------------------


def probe_setup(args):
    """Seconds from starting a fresh interpreter to its first task being
    ready: imports, BLAS set-up and building the workload's configs."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0",
           "--probe-setup"]
    start = time.monotonic()  # CLOCK_MONOTONIC is shared by all processes
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(done.stdout.split()[-1]) - start


def run_passes(bench, args):
    """Run passes until the time is up.  An untraced run probes set-up
    before each pass, so the probes meet the machine in the same states
    as the passes, and returns their median."""
    import speed
    from tracing import NullTracer, Tracer

    passes, probes = [], []
    start = perf_counter()
    while True:
        if not args.trace:
            probes.append(probe_setup(args))
        traced = bool(args.trace) and len(passes) % 2 == 0
        tracer = Tracer() if traced else NullTracer()
        tracer.sample_speed()
        t0 = perf_counter()
        tasks = bench.run_pass(tracer)
        elapsed = perf_counter() - t0
        tracer.sample_speed()
        # The samples taken between tasks ran inside the pass.
        wall = elapsed - sum(tracer.kernel_s[1:-1])
        passes.append({"traced": traced, "wall_s": wall,
                       "wall_ref_s": speed.at_reference(wall, tracer.kernel_s),
                       "tasks": tasks, "tracer": tracer})
        if args.trace and len(passes) < 2:
            continue
        typical = statistics.median(p["wall_s"] for p in passes)
        if perf_counter() - start + typical > args.seconds:
            break
    while not args.trace and len(probes) < SETUP_PROBES:
        probes.append(probe_setup(args))
    return passes, statistics.median(probes) if probes else None


def check_spans(passes):
    """In each task, top-level spans may not outlast the task itself."""
    for p in passes:
        if not p["traced"]:
            continue
        busy = p["tracer"].top_level_busy()
        for task in p["tasks"]:
            wall = task["wall_s"]
            if wall is not None and busy.get(task["id"], 0.0) > wall:
                task["problems"].append(
                    f"top-level spans {busy[task['id']]:.6f} s exceed the "
                    f"task's {wall:.6f} s")


def task_times(passes):
    return [t["wall_s"] for p in passes for t in p["tasks"]
            if t["wall_s"] is not None]


def end_to_end_metrics(passes, setup_s):
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (setup_s, "s"),
        "wall_ref_s": (statistics.median(p["wall_ref_s"] for p in passes), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


GMM_KINDS = ("ar2_t3", "quarterly_t6")
CMLE_KINDS = ("cmle_static", "cmle_pairwise", "cmle_dynamic_ar")


def layer_metrics(t):
    """Per-layer metrics of one traced pass: name -> (value, unit).

    Every workload reports every metric; a layer it does not call reads
    0.  Units other than "s" are counts, which repeat exactly from pass
    to pass.
    """
    m = {
        "cli.write_sample_csv.busy_s": (t.busy("cli.write_sample_csv"), "s"),
        "cli.read_sample_csv.busy_s": (t.busy("cli.read_sample_csv"), "s"),
        "cli.csv_bytes": (t.total("cli.csv_bytes"), "bytes"),
        "simulate.generate.busy_s": (t.busy("simulate.generate"), "s"),
        "simulate.units": (t.total("simulate.units"), "count"),
        "simulate.monte_carlo.self_s": (t.self_time("simulate.monte_carlo"), "s"),
    }
    for kind in (None, *GMM_KINDS):
        sfx = f".{kind}" if kind else ""
        m[f"estimation.gmm{sfx}.busy_s"] = (t.busy("estimation.gmm", kind), "s")
        m[f"estimation.gmm{sfx}.self_s"] = (t.self_time("estimation.gmm", kind), "s")
        m[f"estimation.gmm{sfx}.iterations"] = (
            t.total("estimation.gmm.iterations", kind), "count")
    for kind in CMLE_KINDS:
        units = t.total("simulate.units", kind)
        informative = t.total("estimation.informative_units", kind)
        m[f"estimation.{kind}.busy_s"] = (t.busy(f"estimation.{kind}"), "s")
        m[f"estimation.{kind}.newton_iters"] = (
            t.total("estimation.newton_iters", kind), "count")
        m[f"estimation.{kind}.informative_frac"] = (
            informative / units if units else 0.0, "ratio")
    for kind in (None, *GMM_KINDS):
        sfx = f".{kind}" if kind else ""
        m[f"moments.stacked{sfx}.calls"] = (t.calls("moments.stacked", kind), "count")
        m[f"moments.stacked{sfx}.rows"] = (
            t.total("moments.stacked.rows", kind), "count")
        m[f"moments.stacked{sfx}.busy_s"] = (t.busy("moments.stacked", kind), "s")
    for name in ("moments.nullspace_moments", "moments.verify_moment"):
        m[f"{name}.busy_s"] = (t.busy(name), "s")
    m["moments.verify_moment.calls"] = (t.calls("moments.verify_moment"), "count")
    for name in ("moments.nullspace.dimension", "moments.nullspace.weak_separation"):
        m[name] = (t.total(name), "count")
    for name in ("moments.coefficient_matrix.bytes_computed",
                 "moments.svd.bytes_computed"):
        m[name] = (t.total(name), "bytes")
    for name in ("designs.minimal_T_polytrend", "designs.find_wperp"):
        m[f"{name}.busy_s"] = (t.busy(name), "s")
    m["designs.find_wperp.solutions"] = (
        t.total("designs.find_wperp.solutions"), "count")
    m["sufficiency.enumerate_pairs_ar1.busy_s"] = (
        t.busy("sufficiency.enumerate_pairs_ar1"), "s")
    m["sufficiency.pairs"] = (t.total("sufficiency.pairs"), "count")
    m["sufficiency.network_star_equality_fraction.busy_s"] = (
        t.busy("sufficiency.network_star_equality_fraction"), "s")
    m["trace.spans"] = (len(t.spans), "count")
    return m


def per_layer_metrics(passes):
    """Times are medians over the traced passes, counts come from the
    first; the tracing overhead compares traced and untraced passes."""
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    rows = [layer_metrics(p["tracer"]) for p in traced]
    out = {
        name: (statistics.median(r[name][0] for r in rows) if unit == "s"
               else value, unit)
        for name, (value, unit) in rows[0].items()
    }
    out["trace.overhead_s"] = (
        statistics.median(p["wall_ref_s"] for p in traced)
        - statistics.median(p["wall_ref_s"] for p in untraced), "s")
    # The untraced passes' own time and the machine speed they met, so
    # that wall_ref_s can be traced back to both.
    out["wall_s"] = (statistics.median(p["wall_s"] for p in untraced), "s")
    out["speed.kernel_s"] = (statistics.median(
        k for p in untraced for k in p["tracer"].kernel_s), "s")
    # Task-time percentiles come from the untraced passes.  A single
    # task's time follows the machine's fast and slow phases, so these
    # jump between the two from run to run; a pass averages over them,
    # which is why only wall_ref_s carries an end-to-end bound.
    times = task_times(untraced)
    out["task_p50_s"] = (statistics.median(times), "s")
    out["task_p90_s"] = (
        statistics.quantiles(times, n=10, method="inclusive")[-1], "s")
    return out


def write_results(args, env, result, passes):
    RESULTS.mkdir(exist_ok=True)
    doc = {
        "env": env,
        "result": result,
        "passes": [
            {"traced": p["traced"], "wall_s": p["wall_s"],
             "wall_ref_s": p["wall_ref_s"], "kernel_s": p["tracer"].kernel_s,
             "tasks": p["tasks"], **(p["tracer"].dump() if p["traced"] else {})}
            for p in passes
        ],
    }
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(doc, indent=1, default=float))


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "felogit" / "__init__.py").is_file():
        print(f"error: no felogit sources under {SRC}", file=sys.stderr)
        return 2
    pin_blas_threads()
    sys.path.insert(0, str(SRC))
    import workloads

    if args.probe_setup:
        workloads.build(args.workload, args.seed)
        print(time.monotonic())
        return 0

    bench = workloads.build(args.workload, args.seed)
    passes, setup_s = run_passes(bench, args)
    check_spans(passes)

    tasks = [t for p in passes for t in p["tasks"]]
    failed = [t for t in tasks if t["problems"]]
    for t in failed:
        print(f"task {t['id']} failed: " + "; ".join(t["problems"]),
              file=sys.stderr)
    metrics = (per_layer_metrics(passes) if args.trace
               else end_to_end_metrics(passes, setup_s))
    result = {
        "correct": not failed,
        "attempted": len(tasks),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    env = environment(args)
    write_results(args, env, result, passes)
    print(json.dumps({"env": env}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
