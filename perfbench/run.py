"""Run one benchmark workload against scenrisk and print its metrics as JSON.

    python3 perfbench/run.py --workload desk_cli --seed 1 --seconds 10 --trace 0

Run from the root of a checkout: the program is imported from ./src.  One
process, one thread, one workload.  The last line of standard output is
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics are
the end-to-end ones of BENCHMARK.json, with --trace 1 the per-layer ones.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads its thread pools
os.environ.pop("SCENRISK_SEED", None)  # the CLI must run at its documented default seed

import argparse
import contextlib
import importlib
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

# set-ups before the first op; one more runs after every op, so that setup_s
# is a median over the whole run, like the op metrics
SETUP_BEFORE = 5


def import_program():
    """Import scenrisk from ./src of the checkout, and from nowhere else."""
    src = os.path.abspath("src")
    sys.path.insert(0, src)
    try:
        api = importlib.import_module("scenrisk")
        importlib.import_module("scenrisk.cli")
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import scenrisk from {src}: {exc}")
    if not os.path.abspath(api.__file__).startswith(src + os.sep):
        sys.exit(f"perfbench: scenrisk was imported from {api.__file__}, not from {src}")
    return api


def timed_setup(wl, times) -> None:
    t0 = time.perf_counter()
    wl.setup()
    times.append(time.perf_counter() - t0)


def check(op, out) -> str:
    """The op's failure message, or "" when its output passes every check."""
    try:
        return op.check(out)
    except (LookupError, ValueError) as exc:  # output missing a field or not a number
        return f"unexpected output: {exc!r}"


def selftest() -> None:
    """Pin the references against brute force, in a child process so that its
    memory does not count in this process's peak_rss_mb."""
    proc = subprocess.run([sys.executable, os.path.join(HERE, "reference.py")],
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        sys.exit(f"perfbench: reference self-test failed\n{proc.stderr[-2000:]}")


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_loop(ops, seconds: float, between, mark):
    """Closed loop, one client: whole rounds of `ops` until `seconds` of op time.

    Only the program calls are timed; the checks and `between()` run between
    ops.  Each op's (mark() before, mark() after) is kept too.
    """
    records = []  # (kind, wall s, cpu s, failure message, known fault)
    windows = []
    busy = 0.0
    while True:
        for op in ops:
            m0 = mark()
            c0 = time.process_time()
            t0 = time.perf_counter()
            out = op.run()
            t1 = time.perf_counter()
            c1 = time.process_time()
            windows.append((m0, mark()))
            records.append((op.kind, t1 - t0, c1 - c0, check(op, out), op.known_fault))
            busy += t1 - t0
            between()
        if busy >= seconds:
            return records, windows


def tally(records):
    failures = [(kind, msg, known) for kind, _, _, msg, known in records if msg]
    correct = all(known for _, _, known in failures)
    for kind, msg, known in sorted(set(failures)):
        print(f"{'known fault' if known else 'check failed'}: {kind}: {msg}", file=sys.stderr)
    return correct, len(records), len(failures)


def end_to_end(records, setup_times):
    wall = [r[1] for r in records]
    cpu = [r[2] for r in records]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (len(wall) / sum(wall), "ops/s"),
        "op_p50_ms": (statistics.median(wall) * 1e3, "ms"),
        "op_cpu_ms": (sum(cpu) / len(cpu) * 1e3, "ms"),
        "peak_rss_mb": (rss_mb(), "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    api = import_program()
    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)}")
    selftest()

    workdir = os.path.join(HERE, ".work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        wl = workloads.WORKLOADS[args.workload](api, args.seed, workdir)
        tracer = None
        if args.trace:
            scaling = layers.scaling_exponents(api, args.seed)  # untraced calls
            tracer = layers.Tracer()
            tracer.install(api)
        else:
            print(f"perfbench: peak rss before set-up {rss_mb():.2f} MB", file=sys.stderr)
        setup_times = []
        for _ in range(SETUP_BEFORE):
            timed_setup(wl, setup_times)
        ops = wl.round()
        warm = ops[0]
        check(warm, warm.run())
        records, windows = run_loop(ops, args.seconds, lambda: timed_setup(wl, setup_times),
                                    tracer.mark if tracer else (lambda: None))
        correct, attempted, failed = tally(records)
        if tracer:
            metrics = layers.per_layer(tracer, records, windows)
            metrics.update(scaling)
        else:
            metrics = end_to_end(records, setup_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))  # only when no other run is using it

    out = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    if not all(math.isfinite(m["value"]) for m in out.values()):
        print("perfbench: a metric is not finite", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
