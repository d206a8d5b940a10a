"""lrsetd benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``. The process pins every BLAS pool to one thread before numpy is
loaded, generates the workload's inputs from ``--seed``, writes them to
files under ``.perfbench_work/`` and hands them to lrsetd only through
``lrsetd.io`` and ``lrsetd.masks``.

``--trace 0`` repeats the workload's timed unit until ``--seconds`` would be
exceeded and prints the end-to-end metrics.
``--trace 1`` runs one unit untraced, one with span tracing and one with
span tracing plus tracemalloc, checks that tracing changed no result, and
prints the per-layer metrics. ``--workload all`` runs every workload, each
in a fresh process.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A failed solve or
sweep point is counted in ``failed``; it never aborts the run.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOAD_NAMES = ("image-256", "traffic-wholeday", "synth-batch", "hosvd-sweep")
BLAS_THREADS = 1
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "LRSETD_THREADS",
)
# set-up is repeated, at least SETUP_REPEATS times and for SETUP_SECONDS,
# and its median reported, so that slow reads while the host is busy do
# not move setup_s
SETUP_REPEATS = 7
SETUP_SECONDS = 1.0
MB = 1024.0 * 1024.0
TOP_PATHS = 12  # call paths listed in a traced run's header


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # the self-test runs every workload at a tiny size
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_library():
    """Import lrsetd from this checkout's src/, never from site-packages."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "lrsetd", "__init__.py")):
        sys.exit(f"perfbench: no lrsetd sources under {src}")
    sys.path.insert(0, src)
    import lrsetd

    if os.path.dirname(os.path.dirname(os.path.abspath(lrsetd.__file__))) != src:
        sys.exit(f"perfbench: imported lrsetd from {lrsetd.__file__}, not {src}")
    return lrsetd


# ------------------------------------------------------------ environment


def _blas_thread_counts():
    """Thread count of every OpenBLAS that numpy and scipy ship, read from
    the libraries themselves."""
    import ctypes
    import glob

    import numpy
    import scipy

    counts = {}
    for pkg in (numpy, scipy):
        libdir = os.path.dirname(pkg.__file__) + ".libs"
        for path in sorted(glob.glob(os.path.join(libdir, "*openblas*.so*"))):
            lib = ctypes.CDLL(path)
            for symbol in (
                "scipy_openblas_get_num_threads64_",
                "scipy_openblas_get_num_threads",
                "openblas_get_num_threads64_",
                "openblas_get_num_threads",
            ):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    counts[os.path.basename(path)] = fn()
                    break
    return counts


def _git_commit():
    """Commit of the checkout, read from .git without running git;
    'unknown' outside a git repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed):
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    scipy_blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": f"{blas.get('name')} {blas.get('version')}",
        "scipy_blas": f"{scipy_blas.get('name')} {scipy_blas.get('version')}",
        "blas_threads_requested": BLAS_THREADS,
        "blas_threads": _blas_thread_counts(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "git_commit": _git_commit(),
    }


# ------------------------------------------------------------- measuring


def _failed_attempts(failures, attempts):
    """Number of attempts with a failure; a failure not tied to one attempt
    (index None) fails them all."""
    indices = {k for k, _ in failures}
    return attempts if None in indices else len(indices)


def _attempts(out):
    return len(out.results) + len({k for k, _ in out.errors})


def measure(wl, seed, seconds, workdir):
    """Untraced run: set-up repeated, then timed units until `seconds`,
    with the host probe run between their timed steps."""
    import resource

    from workloads import HostProbe

    prep = wl.prepare(workdir, seed)
    setup_times = []
    while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_SECONDS:
        t0 = time.perf_counter()
        data = wl.setup(prep)
        setup_times.append(time.perf_counter() - t0)

    walls, steps, failures = [], [], []
    attempted = failed = 0
    first = None
    probe = HostProbe()
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        out = wl.run(data, probe)
        wall = time.perf_counter() - t0
        quality = wl.check(prep, data, out)
        unit_failures = list(quality.failures)
        key = (out.iterations, quality.rse, quality.psnr_db)
        if first is None:
            first = (key, quality, out.iterations)
        elif key != first[0]:
            unit_failures.append((None, "a repeated unit gave another result"))
        n = _attempts(out)
        attempted += n
        failed += _failed_attempts(unit_failures, n)
        failures += unit_failures
        walls.append(wall)
        steps += out.step_seconds
        del out, quality
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            break

    _, quality, iterations = first
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    iter_s = statistics.median(steps) if steps else math.nan
    probe_s = statistics.median(probe.seconds) if probe.seconds else math.nan
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "iter_cost": (iter_s / probe_s, "probe"),
        "iterations": (iterations, "count"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "rse": (quality.rse, "ratio"),
        "psnr_db": (quality.psnr_db, "dB"),
    }
    # printed for reading, not declared: these times follow the host's speed
    notes = {
        "units": len(walls),
        "unit_wall_s": walls,
        "iter_ms": 1000.0 * iter_s,
        "iterations_timed": len(steps),
        "probe_ms": 1000.0 * probe_s,
        "probes": len(probe.seconds),
        "setup_repeats": len(setup_times),
    }
    return metrics, attempted, failed, failures, notes


def measure_traced(wl, seed, workdir):
    """One untraced unit, one traced unit (with a traced set-up), and one
    unit traced with tracemalloc; per-layer metrics from the last two."""
    from spans import Tracer, span_names

    prep = wl.prepare(workdir, seed)
    data = wl.setup(prep)
    failures = []
    attempted = failed = 0
    results = {}
    tracers = {"untraced": None, "spans": Tracer(), "memory": Tracer(memory=True)}
    for label, tracer in tracers.items():
        if tracer is not None:
            tracer.install()
        try:
            unit_data = wl.setup(prep) if label == "spans" else data
            t0 = time.perf_counter()
            out = wl.run(unit_data)
            wall = time.perf_counter() - t0
        finally:
            if tracer is not None and not tracer.remove():
                failures.append((None, f"{label}: a traced function was not restored"))
        quality = wl.check(prep, unit_data, out)
        n = _attempts(out)
        attempted += n
        failed += _failed_attempts(quality.failures, n)
        failures += quality.failures
        results[label] = (wall, out.iterations, quality.rse)
        del out

    untraced = results["untraced"]
    for label in ("spans", "memory"):
        if results[label][1:] != untraced[1:]:
            failures.append(
                (None, f"{label} pass changed iterations or rse: "
                       f"{results[label][1:]} vs {untraced[1:]}")
            )
    if failures and not failed:
        failed = attempted

    spans = tracers["spans"].summary()
    memory = tracers["memory"].summary()
    metrics = {}
    for name in span_names():
        row = spans.get(name, {"calls": 0, "self_s": 0.0, "gflop": 0.0, "bytes": 0})
        metrics[f"{name}.self_ms"] = (1000.0 * row["self_s"], "ms")
        metrics[f"{name}.calls"] = (row["calls"], "count")
        if name.startswith("solver."):
            peak = memory.get(name, {"peak_alloc": 0})["peak_alloc"]
            metrics[f"{name}.peak_alloc_mb"] = (peak / MB, "MB")
        if name == "tensor.mode_product":
            metrics[f"{name}.gflop"] = (row["gflop"], "GFLOP")
        if name.startswith("io.read_") or name == "io.write_image":
            metrics[f"{name}.bytes"] = (row["bytes"], "B")
    metrics["trace.untraced_wall_s"] = (untraced[0], "s")
    metrics["trace.traced_wall_s"] = (results["spans"][0], "s")
    metrics["trace.overhead_s"] = (results["spans"][0] - untraced[0], "s")
    metrics["trace.spans"] = (len(tracers["spans"].spans), "count")
    paths = tracers["spans"].path_summary()
    top = sorted(paths.items(), key=lambda item: -item[1][1])[:TOP_PATHS]
    notes = {
        "passes": list(results),
        "top_self_ms_by_call_path": {p: [c, 1000.0 * t] for p, (c, t) in top},
    }
    return metrics, attempted, failed, failures, notes


# --------------------------------------------------------------- output


def _json_number(value):
    # NaN is not JSON; it only appears when every attempt failed
    return None if isinstance(value, float) and value != value else value


def report(workload, seed, trace, metrics, attempted, failed, failures, notes, env):
    print(f"perfbench {workload} seed={seed} trace={trace}")
    for key, value in notes.items():
        if isinstance(value, dict):
            print(key)
            for k, v in value.items():
                print(f"  {k}  {json.dumps(v)}")
        else:
            print(f"{key} {json.dumps(value)}")
    print("env " + json.dumps(env, sort_keys=True))
    width = max(len(n) for n in metrics)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}}  {value!r} {unit}")
    for k, msg in failures:
        where = "" if k is None else f"[{k}] "
        print(f"  FAILED {where}{msg}")
    print(
        f"  attempted {attempted}, failed {failed}, "
        f"failed_frac {failed / max(attempted, 1)!r}"
    )
    result = {
        "correct": failed == 0 and not failures and attempted >= 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": _json_number(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    sys.stdout.flush()
    print(json.dumps(result))


def run_one(args):
    import_library()
    import workloads

    wl = workloads.make(args.workload, args.size)
    work_root = os.path.join(ROOT, ".perfbench_work")
    workdir = os.path.join(work_root, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.trace:
            result = measure_traced(wl, args.seed, workdir)
        else:
            result = measure(wl, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:  # another run still uses it
            pass
    env = environment(args.seed)
    metrics, attempted, failed, failures, notes = result
    if any(n != BLAS_THREADS for n in env["blas_threads"].values()):
        failures.append((None, f"BLAS thread pools not pinned: {env['blas_threads']}"))
        failed = attempted
    report(args.workload, args.seed, args.trace, metrics, attempted, failed,
           failures, notes, env)
    return 0


def run_all(args):
    """Each workload in a fresh process; the last line merges their
    results with metric names prefixed by the workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            sys.exit(f"perfbench: workload {name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None):
    args = parse_args(argv)
    # before numpy is imported anywhere in this process
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
