"""Spans recorded around calls into the library's public functions.

Each wrapper replaces a function at the module attribute its caller looks
it up through, so the library itself is unchanged.  Spans stay in memory
with their arguments and results; the counts derived from those are
computed after the timed loop, so they add nothing to the traced time.
"""

from __future__ import annotations

import json
from time import perf_counter

import numpy as np
import sk1.cli
import sk1.metacyclic
import sk1.sk1_abelian

import workloads as W

# Span name -> the per-layer self-time metric it feeds.
SELF_TIME_METRIC = {
    "genetic_basis_abelian": "genetic.basis_s",
    "relation_matrix": "sk1_abelian.relations_s",
    "cokernel_decomposition": "snf.smith_s",
    "genetic_basis_metacyclic": "metacyclic.basis_s",
    "sk1_metacyclic": "metacyclic.rows_s",
    "cli.main": "cli.main_s",
    "sk1": "api.self_s",
    "verify": "api.self_s",
    "rank": "api.self_s",
}
# The self times of the named layers.  api.self_s, the self time of the
# benchmark's own root calls, is left out, so that time spent outside
# the layers lowers trace.accounted_share.
LAYER_METRICS = sorted(set(SELF_TIME_METRIC.values()) - {"api.self_s"})


class Span:
    __slots__ = ("name", "query", "parent", "start", "end", "args", "kwargs",
                 "result", "component_calls", "cache_hit")

    def __init__(self, name, query, parent, args, kwargs):
        self.name = name
        self.query = query
        self.parent = parent
        self.args = args
        self.kwargs = kwargs
        self.result = None
        self.cache_hit = False

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder.  ``query`` is set by the caller before
    each query so spans of one query share an identifier."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.query = -1
        self.component_calls = 0
        self.originals: dict[str, object] = {}

    def call(self, name, fn, args=(), kwargs=None, cache_info=None):
        kwargs = kwargs or {}
        span = Span(name, self.query, self.stack[-1] if self.stack else None, args, kwargs)
        self.stack.append(len(self.spans))
        self.spans.append(span)
        hits = cache_info().hits if cache_info else 0
        calls = self.component_calls
        span.start = perf_counter()
        try:
            span.result = fn(*args, **kwargs)
            return span.result
        finally:
            span.end = perf_counter()
            self.stack.pop()
            span.component_calls = self.component_calls - calls
            span.cache_hit = bool(cache_info) and cache_info().hits > hits

    def wrap(self, module, attr: str, name: str | None = None) -> None:
        fn = getattr(module, attr)
        self.originals[f"{module.__name__}.{attr}"] = fn
        cache_info = getattr(fn, "cache_info", None)
        name = name or attr

        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, cache_info)

        setattr(module, attr, wrapper)

    def count(self, module, attr: str) -> None:
        """Count calls without a span; relation_component runs ~10^5 times
        per group."""
        fn = getattr(module, attr)

        def wrapper(*args, **kwargs):
            self.component_calls += 1
            return fn(*args, **kwargs)

        setattr(module, attr, wrapper)

    def install(self) -> None:
        for attr in ("genetic_basis_abelian", "relation_matrix", "cokernel_decomposition"):
            self.wrap(sk1.sk1_abelian, attr)
        for attr in ("genetic_basis_metacyclic", "cokernel_decomposition"):
            self.wrap(sk1.metacyclic, attr)
        self.count(sk1.metacyclic, "relation_component")
        # The CLI's own solver lookups get spans too, so that cli.main's
        # self time is argument parsing and printing only.
        self.wrap(sk1.cli, "main", "cli.main")
        self.wrap(sk1.cli, "sk1")
        self.wrap(sk1.cli, "sk1_metacyclic")

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "query": s.query}) + "\n")

    def summary(self, solve_s: float, queries) -> dict[str, float]:
        """Per-layer metrics of one traced round."""
        out = {metric: 0.0 for metric in SELF_TIME_METRIC.values()}
        children: list[list[Span]] = [[] for _ in self.spans]
        for s in self.spans:
            if s.parent is not None:
                children[s.parent].append(s)
        for s, kids in zip(self.spans, children):
            out[SELF_TIME_METRIC[s.name]] += s.duration - sum(k.duration for k in kids)

        homs = basis_size = scanned = 0
        candidates = rows = 0
        snf_calls = snf_rows = snf_cols = snf_nnz = snf_max = 0
        meta_attempted = meta_kept = 0
        n_sk1 = n_relations = n_cli = 0
        for s, kids in zip(self.spans, children):
            if s.name == "genetic_basis_abelian" and not s.cache_hit:
                G = s.args[0]
                h = len(sk1.enumerate_cyclic_homs(G))
                homs += h
                basis_size += len(s.result)
                scanned += h * G.order
            elif s.name == "relation_matrix":
                n_relations += 1
                G = s.args[0]
                strategy = s.kwargs.get("strategy", W.REPRESENTATIVES)
                if strategy == W.EXHAUSTIVE:
                    refs = G.order
                else:
                    refs = next(len(k.result) for k in kids
                                if k.name == "genetic_basis_abelian")
                candidates += len(s.result.target.columns) + refs * len(G.orders)
                rows += s.result.rows.shape[0]
            elif s.name == "cokernel_decomposition":
                mat = np.asarray(s.args[0], dtype=np.int64)
                snf_calls += 1
                snf_rows += mat.shape[0]
                snf_cols += mat.shape[1]
                snf_nnz += int(np.count_nonzero(mat))
                snf_max = max(snf_max, int(np.abs(mat).max()))
            elif s.name == "sk1_metacyclic":
                basis = next(k.result for k in kids if k.name == "genetic_basis_metacyclic")
                n_cols = sum(1 for S in basis if S.quotient_order > 1)
                # Each attempted row costs one component call per column.
                meta_attempted += n_cols + s.component_calls // n_cols
                meta_kept += sum(len(k.args[0]) for k in kids
                                 if k.name == "cokernel_decomposition")
            elif s.name == "cli.main":
                n_cli += 1
            if s.name == "sk1" or (s.name == "verify" and s.parent is None):
                n_sk1 += 1

        basis_hits = basis_misses = 0
        for key in ("sk1.sk1_abelian.genetic_basis_abelian",
                    "sk1.metacyclic.genetic_basis_metacyclic"):
            info = getattr(self.originals[key], "cache_info", None)
            if info is not None:
                basis_hits += info().hits
                basis_misses += info().misses
            else:
                basis_misses += sum(1 for s in self.spans if s.name == key.rsplit(".", 1)[1])

        out.update({
            "genetic.homs_enumerated": homs,
            "genetic.basis_size": basis_size,
            "genetic.kept_ratio": basis_size / homs if homs else 0.0,
            "genetic.elements_scanned": scanned,
            "sk1_abelian.candidate_rows": candidates,
            "sk1_abelian.rows": rows,
            "sk1_abelian.kept_ratio": rows / candidates if candidates else 0.0,
            "snf.calls": snf_calls,
            "snf.rows": snf_rows,
            "snf.cols": snf_cols,
            "snf.nnz": snf_nnz,
            "snf.max_abs_entry": snf_max,
            "snf.share": out["snf.smith_s"] / solve_s,
            "metacyclic.component_calls": self.component_calls,
            "metacyclic.kept_ratio": meta_kept / meta_attempted if meta_attempted else 0.0,
            "cache.repeat_share": W.repeat_share(queries),
            "cache.basis_hits": basis_hits,
            "cache.basis_misses": basis_misses,
            "cache.sk1_hits": n_sk1 - n_relations,
            "cli.calls": n_cli,
            "trace.accounted_share": sum(out[m] for m in LAYER_METRICS) / solve_s,
        })
        return out
