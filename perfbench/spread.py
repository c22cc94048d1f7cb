"""Run two sets of ten benchmark runs of the same commit and compare them.

    python3 perfbench/spread.py                       # seeds 1-20
    python3 perfbench/spread.py --first-seed 201 --traced

Run from the root of a checkout.  Each run is one process of BENCHMARK.json's
command with its own seed; set 1 takes the first ten seeds and set 2 the next
ten, over every workload.  For every end-to-end metric and workload it prints
each set's median and quartiles, the spread (q3 - q1) / median, and the drift
of the second median from the first, and marks a metric OUT when a set's
spread or the drift in either direction exceeds the metric's bound.  It also
checks that the share of failed operations is the same in every run.

--traced adds a traced run right after the untraced run of each of the first
three seeds, per workload, and prints the tracing overhead against that
same-seed untraced run, the median of every per-layer metric, and the
range of every scaling exponent.
"""

import argparse
import json
import statistics
import subprocess
import sys

SETS = 2
RUNS = 10
TRACED_SEEDS = 3


def run_once(cmd, workload, seed, seconds, trace):
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"run failed ({proc.returncode}): {' '.join(argv)}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)

    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    results = {w: [[] for _ in range(SETS)] for w in names}
    traced = {w: [] for w in names}  # (untraced twin, traced result)
    seed = args.first_seed
    for s in range(SETS):
        for _ in range(RUNS):
            for w in names:
                res = run_once(bench["command"], w, seed, seconds, 0)
                results[w][s].append(res)
                print(f"set {s + 1} seed {seed} {w}: attempted={res['attempted']} "
                      f"failed={res['failed']} correct={res['correct']}", file=sys.stderr)
                if args.traced and seed < args.first_seed + TRACED_SEEDS:
                    traced[w].append((res, run_once(bench["command"], w, seed, seconds, 1)))
            seed += 1

    ok = True
    print(f"{'workload':11s} {'metric':12s} {'set':>3s} {'median':>11s} {'q1':>11s} "
          f"{'q3':>11s} {'spread':>7s} {'drift':>7s} {'bound':>5s} verdict")
    for w in names:
        shares = {r["failed"] / r["attempted"] for runs in results[w] for r in runs}
        correct = all(r["correct"] for runs in results[w] for r in runs)
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            first_median = None
            for s, runs in enumerate(results[w]):
                vals = [r["metrics"][name]["value"] for r in runs]
                q1, med, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med
                first_median = med if first_median is None else first_median
                drift = sign * (med - first_median) / first_median  # > 0: set 2 is worse
                good = spread <= bound and abs(drift) <= bound
                ok &= good
                print(f"{w:11s} {name:12s} {s + 1:3d} {med:11.5g} {q1:11.5g} {q3:11.5g} "
                      f"{spread:7.3f} {drift:+7.3f} {bound:5.2f} {'ok' if good else 'OUT'}")
        print(f"{w:11s} failed share per run: {sorted(shares)}; all correct: {correct}")
        ok &= len(shares) == 1 and correct

    if args.traced:
        exps = {}
        for w in names:
            for plain, res in traced[w]:
                m = res["metrics"]
                plain_ms = 1e3 / plain["metrics"]["ops_per_s"]["value"]
                print(f"{w:11s} traced op mean {m['trace.op_mean_ms']['value']:.1f} ms vs untraced "
                      f"{plain_ms:.1f} ms (same seed): "
                      f"{100 * (m['trace.op_mean_ms']['value'] / plain_ms - 1):+.1f}% "
                      f"(recorder's own estimate {m['trace.overhead_pct']['value']:.2f}%)")
                for key, val in m.items():
                    if key.endswith(".scaling_exp"):
                        exps.setdefault(key, []).append(val["value"])
        print(f"{'per-layer metric (median of traced runs)':40s} " + " ".join(f"{w:>11s}" for w in names))
        for metric in bench["per_layer"]:
            row = [statistics.median(r["metrics"][metric["name"]]["value"] for _, r in traced[w])
                   for w in names]
            print(f"{metric['name']:40s} " + " ".join(f"{v:11.4g}" for v in row))
        for key, vals in exps.items():
            print(f"{key:40s} median {statistics.median(vals):.3f} "
                  f"range [{min(vals):.3f}, {max(vals):.3f}] over {len(vals)} traced runs")
    print("all sets agree within the bounds" if ok else "OUT OF BOUNDS")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
