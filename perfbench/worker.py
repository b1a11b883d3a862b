"""One cold round of a workload: a fresh interpreter answers every query
once, in order, one at a time, then checks every answer.

Started by run.py with PYTHONPATH pointing at the checkout's ``src``:

    python3 perfbench/worker.py --workload sweep --seed 1 --trace 0

Prints one JSON object: the round's solve time, per-query latencies,
the same in reference units, peak RSS, the failures found and, with
``--trace 1``, the per-layer metrics of spans/Tracer.

Reference units: before the first query, after each stretch of at
least REF_EVERY_S seconds of query time and after the last query, the
round times ``reference()``, a fixed pure-Python task that never calls
the library.  Each query's latency is divided by the mean of the two
reference times around it.  On a shared host the speed of a round swings
by up to 1.8x in phases of 20 to 60 seconds; the reference slows down
and speeds up with it, so the ratio measures the library's work and not
the host's load at that moment.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
from time import perf_counter

import numpy as np
import sk1
import sk1.cli

import workloads as W
from spans import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))

REF_EVERY_S = 1.0
REF_STEPS = 150_000
REF_MODULUS = 10**40 + 7
REF_ORDER = 361
REF_COORDS = (np.arange(240_000, dtype=np.int64).reshape(-1, 2) * 7919) % REF_ORDER


def reference() -> float:
    """Seconds taken by a fixed task that never calls the library: about
    half dict, tuple and big-integer work like the library's Python loops,
    half int64 products and bit packing like its numpy code."""
    t0 = perf_counter()
    table: dict[tuple[int, int], int] = {}
    for i in range(REF_STEPS):
        key = (i * 7919) % 997, i % 13
        table[key] = table.get(key, 0) + i
    x = 1
    for i in range(1000):
        x = (x * x + i) % REF_MODULUS
    masks = set()
    for a in range(1, 46):
        w = np.array([a, 7 * a + 1], dtype=np.int64)
        masks.add(np.packbits((REF_COORDS @ w) % REF_ORDER == 0).tobytes())
    return perf_counter() - t0


def cli_argv(query: tuple) -> list[str]:
    kind = query[0]
    if kind == "sk1":
        _, p, orders, strategy = query
        argv = ["abelian", "--prime", str(p), "--orders", ",".join(map(str, orders)),
                "--strategy", strategy]
    elif kind == "sk1_metacyclic":
        _, p, n = query
        argv = ["metacyclic", "--prime", str(p), "--n", str(n), "--max-order", str(p**n)]
    elif kind == "verify":
        _, p, n = query
        argv = ["conjecture", "--prime", str(p), "--n", str(n), "--verify"]
    else:
        _, family, p, n = query
        return ["rank", "--family", family, "--prime", str(p), "--n", str(n)]
    return argv + ["--format", "tsv"]


def via_cli(query: tuple):
    """Answer through ``sk1.cli.main`` in-process, parsed from its TSV output."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = sk1.cli.main(cli_argv(query))
    lines = [line.split("\t") for line in buf.getvalue().splitlines()]
    if query[0] == "verify":
        p = query[1]
        if code not in (sk1.cli.EXIT_OK, sk1.cli.EXIT_MISMATCH):
            raise RuntimeError(f"exit code {code}")
        computed = {p ** int(i): int(c) for i, _, c in lines if int(c)}
        return computed, code == sk1.cli.EXIT_OK
    if code != sk1.cli.EXIT_OK:
        raise RuntimeError(f"exit code {code}")
    if query[0] == "rank":
        return int(lines[0][0])
    return {int(d): int(m) for d, m in lines}


def via_api(query: tuple, tracer: Tracer | None):
    kind = query[0]
    if kind == "sk1":
        _, p, orders, strategy = query

        def fn():
            return sk1.sk1(sk1.make_group(p, orders), strategy).multiplicities()
    elif kind == "sk1_metacyclic":
        _, p, n = query

        def fn():
            G = sk1.make_metacyclic(p, n)
            return sk1.sk1_metacyclic(G, max_order=G.order).multiplicities()
    elif kind == "verify":
        _, p, n = query

        def fn():
            dec = sk1.sk1(sk1.make_group(p, W.square(p, n)))
            return dec.multiplicities(), sk1.verify(p, n, dec).match
    else:
        _, family, p, n = query
        rank = getattr(sk1, W.RANK_FUNCS[family])

        def fn():
            return rank(p, n)
    return tracer.call(kind, fn) if tracer else fn()


def check(query: tuple, answer, expected: dict) -> str | None:
    """None when the answer is right, else what is wrong with it."""
    want = expected[W.answer_key(query)]
    kind = query[0]
    if kind == "rank":
        return None if answer == want else f"rank {answer}, pinned {want}"
    if kind == "verify":
        answer, match = answer
        if not match:
            return "conjecture verify reports a mismatch"
    if answer != {d: m for d, m in want}:
        return f"{answer}, pinned {want}"
    p = query[1]
    dec = sk1.CyclicDecomposition(tuple(d for d, m in answer.items() for _ in range(m)))
    if kind == "sk1":
        n = W.square_exponent(p, query[2])
        if n is not None and not sk1.verify(p, n, dec).match:
            return "conjecture verify disagrees"
    if kind == "sk1_metacyclic":
        n = query[2]
        if dec.prime_power_multiplicities(p) != {1: (n - 2) * (p - 1)}:
            return "breaks the (n-2)(p-1) law"
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=W.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", help="write the recorded spans here as JSON lines")
    args = parser.parse_args()

    queries = W.stream(args.workload, args.seed)
    with open(os.path.join(HERE, "expected.json")) as fh:
        expected = json.load(fh)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()

    answers = []
    latencies = []
    reference()  # warm-up, not a sample
    refs = [reference()]
    ref_before = []  # index in refs of the reference sample before each query
    since_ref = 0.0
    for qid, (query, cli) in enumerate(queries):
        if tracer:
            tracer.query = qid
        t0 = perf_counter()
        try:
            answer = via_cli(query) if cli else via_api(query, tracer)
        except Exception as exc:  # a raised error is a failed query, not a crash
            answer = exc
        latencies.append(perf_counter() - t0)
        answers.append(answer)
        ref_before.append(len(refs) - 1)
        since_ref += latencies[-1]
        if since_ref >= REF_EVERY_S or qid == len(queries) - 1:
            refs.append(reference())
            since_ref = 0.0
    solve_s = sum(latencies)
    latencies_ref = [t / ((refs[i] + refs[i + 1]) / 2) for t, i in zip(latencies, ref_before)]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failures = []
    for (query, cli), answer in zip(queries, answers):
        problem = (f"raised {answer!r}" if isinstance(answer, Exception)
                   else check(query, answer, expected))
        if problem:
            failures.append(f"{query} via {'cli' if cli else 'api'}: {problem}")

    result = {
        "solve_s": solve_s,
        "latencies_s": latencies,
        "solve_ref": sum(latencies_ref),
        "latencies_ref": latencies_ref,
        "peak_rss_mb": rss_mb,
        "attempted": len(queries),
        "failures": failures,
    }
    if tracer:
        result["layers"] = tracer.summary(solve_s, queries)
        if args.spans_out:
            tracer.dump(args.spans_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
