"""Regenerate ``expected.json``, the pinned answers every benchmark query
is checked against.

Run from the repository root on a commit whose answers are trusted:

    PYTHONPATH=src python3 perfbench/pin.py

Each pinned decomposition is cross-checked before it is written: with
``strategy="exhaustive"`` where |G| <= 729, with ``verify(p, n, dec)``
for squares of cyclic groups, and with the (n-2)(p-1) law for modular
metacyclic groups.  Rank values are checked against the representation
counts (real minus rational).  The script stops at the first
disagreement and writes nothing.
"""

from __future__ import annotations

import json
import math
import os
import sys

import sk1

import workloads as W

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    pinned: dict[str, object] = {}
    groups = set(W.DEEP_P3 + W.WIDE_PRIME + W.SWEEP_MULTI)
    groups |= {(p, W.square(p, n)) for p, n in W.SWEEP_SQUARES}
    for p, orders in sorted(groups, key=lambda g: math.prod(g[1])):
        G = sk1.make_group(p, orders)
        dec = sk1.sk1(G)
        if G.order <= W.EXHAUSTIVE_LIMIT and sk1.sk1(G, W.EXHAUSTIVE) != dec:
            raise SystemExit(f"{G}: exhaustive strategy disagrees")
        n = W.square_exponent(p, orders)
        if n is not None and not sk1.verify(p, n, dec).match:
            raise SystemExit(f"{G}: conjecture verify disagrees")
        pinned[W.answer_key(("sk1", p, orders, W.REPRESENTATIVES))] = [
            [d, m] for d, m in dec.multiplicities().items()
        ]
        print(f"{G}: {dec}", flush=True)
    for p, n in sorted(set(W.METACYCLIC + W.SWEEP_METACYCLIC)):
        G = sk1.make_metacyclic(p, n)
        dec = sk1.sk1_metacyclic(G, max_order=G.order)
        if dec.prime_power_multiplicities(p) != {1: (n - 2) * (p - 1)}:
            raise SystemExit(f"{G}: (n-2)(p-1) law disagrees")
        pinned[W.answer_key(("sk1_metacyclic", p, n))] = [
            [d, m] for d, m in dec.multiplicities().items()
        ]
        print(f"{G}: {dec}", flush=True)
    counts_funcs = {"abelian": sk1.irrep_counts_square_abelian,
                    "metacyclic": sk1.irrep_counts_metacyclic}
    for family, p, n in W.RANK_POOL:
        value = getattr(sk1, W.RANK_FUNCS[family])(p, n)
        counts = counts_funcs[family](p, n)
        if value != counts.real - counts.rational:
            raise SystemExit(f"rank {family} {p} {n}: disagrees with the representation counts")
        pinned[W.answer_key(("rank", family, p, n))] = value
    with open(os.path.join(HERE, "expected.json"), "w") as fh:
        json.dump(pinned, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
