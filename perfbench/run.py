"""Runs one workload of the graphsamp benchmark and prints its metrics.

    python3 perfbench/run.py --workload mc_gmrf_n256 --seed 0 --seconds 36 --trace 0

Run it from the root of a source checkout: the program is imported from
``src/`` there and nowhere else, and scratch files go to
``.perfbench_work/`` (removed at exit) and results to ``.perfbench_out/``.
The process starts no threads or processes of its own, BLAS runs on one
thread and glibc's malloc thresholds are fixed (see the functions below).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The line before it is a JSON object with the details: environment,
workload rationale, the operations' wall times (``op_s.p50``,
``ops_per_s``, ``op_s.tail``), the reference kernel's median time,
``fail_ratio``, failed checks and, when traced, layer shares and the
per-trial design iteration counts.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
MIN_OPS = 12  # every run completes at least this many operations, past the deadline if need be
SETUP_REPEATS = 3
REFERENCE_WARM_UPS = 3
WORKLOAD_NAMES = ("mc_gmrf_n256", "mc_pwl_n256_fixed", "cli_reconstruct_n1024")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3  # mallopt parameter numbers in glibc's malloc.h


def pin_malloc_thresholds() -> None:
    """Fix glibc's mmap threshold at 4 MiB and its trim threshold at 64 MiB.

    glibc otherwise moves both after large frees, which made peak RSS on
    cli_reconstruct_n1024 jump between about 160 and 175 MB from run to
    run. Arrays of n=256 stay on the heap, as they do by default.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return
    libc.mallopt(M_MMAP_THRESHOLD, 4 * 1024 * 1024)
    libc.mallopt(M_TRIM_THRESHOLD, 64 * 1024 * 1024)


def pin_blas_threads() -> None:
    """Pin BLAS to one thread; must precede importing numpy.

    On a shared 2-CPU machine, one other busy process made trials 2.6x
    slower with two BLAS threads and left them unchanged with one.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for lib in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.restype = ctypes.c_int
                threads = getter()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads if threads is not None else os.environ["OPENBLAS_NUM_THREADS"],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def tail(values: list[float]) -> tuple[int, float, int]:
    """Highest whole percentile with at least 10 values beyond it (nearest rank).

    Returns (percentile, value, values beyond it); needs at least 11 values.
    """
    ordered = sorted(values)
    percentile = (100 * (len(ordered) - 10)) // len(ordered)
    rank = max(1, math.ceil(percentile * len(ordered) / 100))
    return percentile, ordered[rank - 1], len(ordered) - rank


def timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def run_op(workload, request, out_dir: Path, observer=None, op=None):
    """One timed operation; with an observer, traced as operation ``op``."""
    if observer is None:
        return timed(workload.run, request, out_dir)
    observer.begin(op)
    try:
        return timed(workload.run, request, out_dir)
    finally:
        observer.end()


def measure(workload, seconds: float, workdir: Path, time_reference, observer=None) -> dict:
    """Closed loop with one caller: operation i+1 is issued when i has finished and been checked.

    Without an observer, ``time_reference`` (the reference kernel) is
    timed before every operation and once after the last; ``refs[j]`` is
    the one timed just before ``untraced[j]``. With an observer, every operation runs twice
    on the same request, untraced and traced, alternating which goes
    first so that warm-cache effects cancel in ``trace.overhead_ratio``.
    """
    untraced, refs, traced, outputs, failures = [], [], [], [], []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while attempted < MIN_OPS or time.perf_counter() < deadline:
        i = attempted
        attempted += 1
        op_dir = workdir / "ops" / str(i)
        problems = []
        try:
            request = workload.prepare(i, op_dir)
            if observer is None:
                ref = time_reference()
                output, elapsed = run_op(workload, request, op_dir / "untraced")
                untraced.append(elapsed)
                refs.append(ref)
                problems += workload.check(request, output)
            else:
                sides = [(None, "untraced"), (observer, "traced")]
                if i % 2:
                    sides.reverse()
                done = {name: run_op(workload, request, op_dir / name, obs, i) for obs, name in sides}
                (output, elapsed), (traced_output, traced_elapsed) = done["untraced"], done["traced"]
                untraced.append(elapsed)
                traced.append((i, traced_elapsed))
                problems += workload.check(request, output)
                problems += workload.check(request, traced_output)
                problems += observer.check(i, workload.expected_designs)
                if not workload.same(output, traced_output):
                    problems.append(f"op {i}: traced output differs from the untraced one")
        except Exception as exc:  # a failed operation is counted, and the run goes on
            problems.append(f"op {i}: {type(exc).__name__}: {exc}")
        shutil.rmtree(op_dir, ignore_errors=True)
        if problems:
            failed += 1
            failures += problems
        else:
            outputs.append(output)
    if observer is None:
        refs.append(time_reference())
    return {
        "untraced": untraced,
        "refs": refs,
        "traced": traced,
        "outputs": outputs,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument("--seconds", type=float, default=36.0, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seed = args.seed
    if seed < 0:
        parser.error("--seed must be non-negative")

    pin_blas_threads()
    pin_malloc_thresholds()
    package = ROOT / "src" / "graphsamp"
    if not (package / "__init__.py").is_file():
        print(f"error: no graphsamp source under {package}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import graphsamp

    if Path(graphsamp.__file__).resolve().parent != package.resolve():
        print(f"error: graphsamp was imported from {graphsamp.__file__}", file=sys.stderr)
        return 2
    import layers
    import reference
    import workloads

    why, make = workloads.WORKLOADS[args.workload]
    workload = make(seed)
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    outdir = ROOT / ".perfbench_out"
    outdir.mkdir(exist_ok=True)
    try:
        setup_runs = []
        for rep in range(SETUP_REPEATS):
            _, elapsed = timed(workload.setup, workdir / "setup" / str(rep))
            setup_runs.append(elapsed)
        workload.warm_up(workdir / "warm_up")
        if not args.trace:
            for _ in range(REFERENCE_WARM_UPS):
                reference.timed_kernel()
        before_first_op = time.perf_counter() - PROCESS_START
        observer = layers.Observer() if args.trace else None
        run = measure(workload, args.seconds, workdir, reference.timed_kernel, observer)
        if observer is not None:
            observer.begin(layers.REPORT_OP)
        try:
            mse_metrics, run_failures = workload.finish(run["outputs"])
        finally:
            if observer is not None:
                observer.end()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = run["failures"] + run_failures
    attempted, failed = run["attempted"], run["failed"] + len(run_failures)
    detail = {
        "workload": args.workload,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "why": why,
        "environment": environment(),
        "fail_ratio": {"value": failed / attempted, "unit": "ratio"},
        "setup_runs_s": setup_runs,
        "failures": failures[:20],
    }
    if not run["untraced"]:
        print(json.dumps(detail))
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}))
        return 1
    if args.trace:
        op_ids = [i for i, _ in run["traced"]]
        metrics, shares, iters = layers.per_layer_metrics(
            observer,
            op_ids,
            [elapsed for _, elapsed in run["traced"]],
            run["untraced"],
            MIN_OPS,
        )
        units = layers.UNITS
        detail.update({"traced_ops": len(op_ids), "layer_shares": shares,
                       "design_iters_per_trial": iters, "mse": mse_metrics})
        observer.tracer.write(outdir / f"spans-{args.workload}-seed{seed}.jsonl")
    else:
        times, refs = run["untraced"], run["refs"]
        # each operation over the mean of the reference kernel timed before and after it
        relative = [t / ((a + b) / 2) for t, a, b in zip(times, refs, refs[1:])]
        percentile, tail_value, beyond = tail(times)
        metrics = {
            "setup_s": before_first_op - sum(setup_runs) + statistics.median(setup_runs),
            "op_ref.p50": statistics.median(relative),
            "ops_per_ref": (attempted - failed) / sum(relative),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_ratio": (attempted - failed) / attempted,
            **mse_metrics,
        }
        units = {"setup_s": "s", "op_ref.p50": "ref", "ops_per_ref": "1/ref",
                 "peak_rss_mb": "MB", "ok_ratio": "ratio", "mse.proposed": "1",
                 "mse.random_vertex": "1"}
        detail.update({
            "op_s.p50": {"value": statistics.median(times), "unit": "s"},
            "ops_per_s": {"value": (attempted - failed) / sum(times), "unit": "1/s"},
            "op_s.tail": {"value": tail_value, "unit": "s", "percentile": percentile,
                          "ops": len(times), "ops_beyond": beyond},
            "ref_s.p50": {"value": statistics.median(refs), "unit": "s"},
        })
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    (outdir / f"result-{args.workload}-seed{seed}-trace{args.trace}.json").write_text(
        json.dumps({"result": result, "detail": detail}, indent=1) + "\n")
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
