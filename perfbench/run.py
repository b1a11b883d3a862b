"""Cold-solve benchmark of the sk1 library.

Run from the root of a checkout (the library is imported from ``src``):

    python3 perfbench/run.py --workload deep-p3 --seed 1 --seconds 25 --trace 0

Each round starts a fresh interpreter (worker.py) that answers every
query of the workload once, one at a time, and checks every answer, so
no round sees a cache filled by another.  A new round starts only when
it should end within ``--seconds`` (at least two rounds run), and
timings are medians over rounds.

``--trace 0`` reports the end-to-end metrics: solve_ref, query_ref.p50,
query_ref.p90 (times in units of the reference task that worker.py runs
between queries; the wall times are printed too), peak_rss_mb and
setup_s (a fresh interpreter's ``import sk1``, the median of samples
taken before each round).
``--trace 1`` alternates traced and untraced rounds and reports the
per-layer metrics; trace.overhead_s is the traced minus the untraced
median solve time.  Counts must repeat exactly between traced rounds.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 only when
every answer was right.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads as W  # noqa: E402

SETUP_SAMPLES = 7
MIN_ROUNDS = 2
# Every run must end within 180 s; stop starting rounds that would not.
RUN_LIMIT_S = 170
RUN_BUDGET_S = 150

# Per-layer metrics derived from counts: they must repeat exactly.
EXACT_METRICS = (
    "genetic.homs_enumerated", "genetic.basis_size", "genetic.kept_ratio",
    "genetic.elements_scanned", "sk1_abelian.candidate_rows", "sk1_abelian.rows",
    "sk1_abelian.kept_ratio", "snf.calls", "snf.rows", "snf.cols", "snf.nnz",
    "snf.max_abs_entry", "metacyclic.component_calls", "metacyclic.kept_ratio",
    "cache.repeat_share", "cache.basis_hits", "cache.basis_misses", "cache.sk1_hits",
    "cli.calls",
)


def metric_units(trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics this mode reports, from BENCHMARK.json."""
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def child_env(src: str) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def setup_time(env: dict[str, str], src: str, deadline: float) -> float:
    """Seconds from starting a fresh interpreter until ``import sk1`` returns.

    CLOCK_MONOTONIC is shared by every process, so the child's reading
    after the import minus the parent's reading before the start is the
    set-up time.
    """
    code = "import time, sk1; print(time.monotonic(), sk1.__file__)"
    t0 = time.monotonic()
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=deadline - t0, check=True).stdout.split()
    if not os.path.abspath(out[1]).startswith(src + os.sep):
        raise RuntimeError(f"sk1 was imported from {out[1]}, not from {src}")
    return float(out[0]) - t0


def run_round(args, env: dict[str, str], traced: bool, index: int, deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(int(traced))]
    if traced:
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}-{index}.jsonl")]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=deadline - time.monotonic())
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def latency_summary(rounds: list[dict], total: str, per_query: str):
    """The median of ``total`` over rounds, and p50 and p90 over the
    queries of each query's median over rounds, so that a workload of a
    few big queries reports their typical latency, not one slow round."""
    latencies = [statistics.median(q) for q in zip(*(r[per_query] for r in rounds))]
    return (statistics.median(r[total] for r in rounds), statistics.median(latencies),
            statistics.quantiles(latencies, n=10, method="inclusive")[8])


def main() -> int:
    parser = argparse.ArgumentParser(description="Cold-solve benchmark of sk1")
    parser.add_argument("--workload", choices=W.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "sk1", "__init__.py")):
        return fail(f"no sk1 package under {src}; run from the root of a checkout")
    env = child_env(src)
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S

    try:
        units = metric_units(bool(args.trace))
        setup = []
        if not args.trace:
            setup_time(env, src, deadline)  # compiles bytecode; not a sample
        traced, plain, durations = [], [], []
        while True:
            want_traced = bool(args.trace) and len(traced) <= len(plain)
            if not args.trace:
                # One sample before each round spreads them over the run.
                setup.append(setup_time(env, src, deadline))
            t0 = time.monotonic()
            result = run_round(args, env, want_traced, len(traced) + len(plain), deadline)
            durations.append(time.monotonic() - t0)
            (traced if want_traced else plain).append(result)
            enough = len(plain) >= (1 if args.trace else MIN_ROUNDS) and (
                not args.trace or len(traced) >= MIN_ROUNDS)
            left = start + min(args.seconds, RUN_BUDGET_S) - time.monotonic()
            if enough and left < statistics.fmean(durations):
                break
        while len(setup) < SETUP_SAMPLES and not args.trace:
            setup.append(setup_time(env, src, deadline))
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
        return fail(str(exc))

    rounds = traced + plain
    failures = [f for r in rounds for f in r["failures"]]
    failed = len(failures)
    attempted = sum(r["attempted"] for r in rounds)
    if args.trace:
        for name in EXACT_METRICS:
            seen = {r["layers"][name] for r in traced}
            if len(seen) > 1:
                failures.append(f"count {name} differs between traced rounds: {sorted(seen)}")
    correct = not failures

    if args.trace:
        values = {
            name: traced[0]["layers"][name] if name in EXACT_METRICS
            else statistics.median(r["layers"][name] for r in traced)
            for name in traced[0]["layers"]
        }
        solve_traced = statistics.median(r["solve_s"] for r in traced)
        values["trace.solve_s"] = solve_traced
        values["trace.overhead_s"] = solve_traced - statistics.median(
            r["solve_s"] for r in plain)
    else:
        solve_ref, p50_ref, p90_ref = latency_summary(plain, "solve_ref", "latencies_ref")
        solve_s, p50_s, p90_s = latency_summary(plain, "solve_s", "latencies_s")
        values = {
            "solve_ref": solve_ref,
            "query_ref.p50": p50_ref,
            "query_ref.p90": p90_ref,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "setup_s": statistics.median(setup),
        }
    if set(values) != set(units):
        return fail(f"metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json")

    print(f"workload {args.workload}  seed {args.seed}  rounds {len(plain)} untraced"
          f" + {len(traced)} traced  (single process, closed loop, one query at a time)")
    if not args.trace:
        print(f"query samples: {len(plain[0]['latencies_s'])} queries x {len(plain)} rounds"
              f"  setup samples: {len(setup)}")
    for name, value in values.items():
        print(f"{name:28s} {value:.6g} {units[name]}")
    if not args.trace:
        print(f"wall time (not a metric): solve_s {solve_s:.6g} s"
              f"  query_ms.p50 {1000 * p50_s:.6g} ms  query_ms.p90 {1000 * p90_s:.6g} ms")
    print(f"fail_ratio {failed}/{attempted} = {failed / attempted:.6g}")
    for f in failures[:20]:
        print(f"FAILED {f}")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
