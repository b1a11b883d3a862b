"""Smith normal form and cokernel decompositions of integer matrices.

``cokernel_decomposition`` computes Z^cols modulo the row span.  The
relation matrices of this package carry seed rows, rows with a single
nonzero entry, whose entries put q*Z^cols inside the row span for a
prime power q = p^e (the group exponent).  The cokernel is then exact
over the local ring Z/q, where each nonzero entry is p^k times a unit
for its valuation k < e, and one sparse elimination computes it:

- rows are dicts {column: entry} built from the nonzero entries, with
  an index from each column to the rows that have an entry there;
- the seed rows of column c put g*e_c into the span for some g | q, so
  the other entries of column c are kept mod g and one seed row {c: g}
  stands in for all of them (none when g = q);
- the elimination runs in valuation phases k = 0, ..., e-1.  In phase k
  every entry left has valuation >= k, so any entry of valuation exactly
  k divides all of them and can be the pivot.  It is taken from the
  shortest row that has one, in that row's column with the fewest
  entries, which keeps the fill-in small;
- scaled by the inverse of the pivot's unit part, the pivot row clears
  the pivot column from every other row.  The pivot row and column are
  then dropped, and the pivot contributes p^k;
- after phase e-1 no entry is left, and each column without a pivot
  is a C_q.

The precondition is checked on the input: every column has a seed row,
the lcm q of the per-column gcds of the seed entries is a prime power,
and q**2 < 2**63.  Any other input, and every ``smith_divisors`` call,
goes through an exact elimination on unbounded Python integers instead.

``distinct_rows`` assembles a relation matrix for both families: the
seed rows first, then every other row at its first occurrence.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import InfiniteCokernel

@dataclass(frozen=True)
class CyclicDecomposition:
    """A finite abelian group given as a sorted multiset of cyclic orders > 1."""

    divisors: tuple[int, ...] = ()

    def __post_init__(self):
        divs = tuple(sorted(_exact_int(d) for d in self.divisors))
        if divs and divs[0] <= 1:
            raise ValueError("cyclic orders must all exceed 1")
        object.__setattr__(self, "divisors", divs)

    @property
    def is_trivial(self) -> bool:
        return not self.divisors

    @property
    def order(self) -> int:
        return math.prod(self.divisors)

    def multiplicities(self) -> dict[int, int]:
        """Map cyclic order -> multiplicity, ascending key order."""
        return dict(sorted(Counter(self.divisors).items()))

    def prime_power_multiplicities(self, p: int) -> dict[int, int]:
        """Map exponent e -> multiplicity of C_{p^e}; every divisor must be
        a power of p, and p must be at least 2."""
        if p < 2:
            raise ValueError(f"p must be at least 2, got {p}")
        out: Counter = Counter()
        for d in self.divisors:
            e, v = 0, d
            while v % p == 0:
                v //= p
                e += 1
            if v != 1:
                raise ValueError(f"{d} is not a power of {p}")
            out[e] += 1
        return dict(sorted(out.items()))

    def __str__(self) -> str:
        if not self.divisors:
            return "0"
        return " x ".join(f"(C{d})^{m}" for d, m in self.multiplicities().items())


def _exact_int(v) -> int:
    """v as a Python integer; ValueError unless v is an integer value."""
    try:
        i = int(v)
        if i == v:
            return i
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{v!r} is not an integer")


def _as_int_rows(mat) -> list[list[int]]:
    rows = [[_exact_int(v) for v in r] for r in mat]
    if not rows or not rows[0]:
        raise ValueError("matrix must be non-empty")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError("matrix rows must all have the same length")
    return rows


def _int_array(mat) -> np.ndarray:
    """mat as a 2-d int64 array, or as an object array of Python integers
    when some entry does not fit in int64; ValueError on any entry that
    is not an integer value."""
    if isinstance(mat, np.ndarray):
        if mat.ndim != 2 or 0 in mat.shape:
            raise ValueError("matrix must be 2-d and non-empty")
        if np.can_cast(mat.dtype, np.int64):
            return mat.astype(np.int64, copy=False)
        mat = mat.tolist()
    rows = _as_int_rows(mat)
    try:
        return np.array(rows, dtype=np.int64)
    except OverflowError:
        return np.array(rows, dtype=object)


def distinct_rows(orders, rows: np.ndarray) -> np.ndarray:
    """Relation matrix, in int64, of the seed rows diag(orders), then each
    row of the 2-d integer array ``rows`` at its first occurrence;
    duplicates are dropped.

    Rows are keyed by their bytes in one dtype that holds the rows and the
    orders exactly, so equal rows meet whatever their dtypes, and narrow
    rows give short keys.  Rows that do not cast exactly to int64 raise
    TypeError.
    """
    rows = np.asarray(rows)
    dtype = np.result_type(rows.dtype, np.min_scalar_type(max(orders)))
    seeds = np.diag(np.asarray(orders, dtype=dtype))
    rows = rows.astype(dtype, copy=False)
    seen = {r.tobytes() for r in seeds}
    keep = []
    for i, r in enumerate(rows):
        key = r.tobytes()
        if key not in seen:
            seen.add(key)
            keep.append(i)
    return np.concatenate([seeds, rows[keep]], dtype=np.int64, casting="safe")


def smith_divisors(mat) -> list[int]:
    """Diagonal invariants d_1 | d_2 | ... of an integer matrix.

    The list has length min(rows, cols); zeros (rank deficiency) appear
    last.  Accepts any rectangular nest of integers or a 2-d integer
    ndarray.
    """
    rows = _int_array(mat).tolist()
    return _divisor_chain(_diagonalize_exact(rows), min(len(rows), len(rows[0])))


def cokernel_decomposition(mat) -> CyclicDecomposition:
    """Z^cols modulo the row span, as a cyclic decomposition.

    Raises InfiniteCokernel unless the rows have full column rank.
    """
    arr = _int_array(mat)
    local = _seed_prime_power(arr)
    if local is not None:
        return CyclicDecomposition(_cokernel_mod_prime_power(arr, *local))
    divisors = smith_divisors(arr)
    if arr.shape[0] < arr.shape[1] or 0 in divisors:
        raise InfiniteCokernel("relation rows do not have full column rank")
    return CyclicDecomposition(tuple(d for d in divisors if d > 1))


def _seed_prime_power(arr: np.ndarray) -> tuple[int, int] | None:
    """(p, e) when the row span contains q*Z^cols for q = p^e, read off
    the rows with exactly one nonzero entry, and q**2 < 2**63; else None.

    A column's seed entries put their gcd g_c times the unit vector into
    the row span, so q = lcm(g_c) works once every column has a seed.
    """
    seeds = arr[np.count_nonzero(arr, axis=1) == 1]
    cols = np.argmax(seeds != 0, axis=1)
    gcds = [0] * arr.shape[1]
    for c, v in zip(cols.tolist(), seeds[np.arange(len(seeds)), cols].tolist()):
        gcds[c] = math.gcd(gcds[c], v)
    if 0 in gcds:
        return None
    q = math.lcm(*gcds)
    if q == 1 or q * q >= 2**63:
        return None
    p = next((d for d in range(2, math.isqrt(q) + 1) if q % d == 0), q)
    e = 0
    while q % p == 0:
        q //= p
        e += 1
    return (p, e) if q == 1 else None


def _cokernel_mod_prime_power(arr: np.ndarray, p: int, e: int) -> list[int]:
    """Cyclic orders > 1 of Z^cols modulo the row span of arr, which must
    contain q*Z^cols for q = p^e, by sparse elimination over Z/q."""
    q = p**e
    rows, cols, mods = _local_rows(arr, q)
    orders: list[int] = []
    pivots = 0
    for k in range(e):
        pk, pk1 = p**k, p ** (k + 1)
        # Every entry left has valuation >= k.  Rows come off the heap
        # shortest first; an entry whose length is out of date is stale.
        heap = [(len(row), i) for i, row in enumerate(rows) if row]
        heapq.heapify(heap)
        while heap:
            n, i = heapq.heappop(heap)
            prow = rows[i]
            if len(prow) != n:
                continue
            # The pivot column: fewest entries among the row's entries of
            # valuation exactly k.
            c, fewest = -1, 0
            for j, v in prow.items():
                if v % pk1 and (c < 0 or len(cols[j]) < fewest):
                    c, fewest = j, len(cols[j])
            if c < 0:
                continue
            rows[i] = {}
            for j in prow:
                cols[j].discard(i)
            below = cols[c]
            cols[c] = set()
            # Scaled by the inverse of its unit part, the pivot is p^k, and
            # each entry of column c is f * p^k: subtracting f times the
            # pivot row clears it.
            unit_inv = pow(prow.pop(c) // pk, -1, q)
            scaled = [(j, v * unit_inv % q) for j, v in prow.items()]
            for s in below:
                row = rows[s]
                f = row.pop(c) // pk
                get = row.get
                for j, v in scaled:
                    w = get(j)
                    if w is None:
                        w = -f * v % mods[j]
                        if w:
                            row[j] = w
                            cols[j].add(s)
                    else:
                        w = (w - f * v) % mods[j]
                        if w:
                            row[j] = w
                        else:
                            del row[j]
                            cols[j].discard(s)
                if row:
                    heapq.heappush(heap, (len(row), s))
            pivots += 1
            if k:
                orders.append(pk)
    # No entry is left: each column without a pivot is a C_q.
    return orders + [q] * (len(cols) - pivots)


def _local_rows(arr: np.ndarray, q: int):
    """Sparse rows of arr over Z/q, for a row span containing q*Z^cols.

    Returns (rows, cols, mods): rows are dicts {column: entry}, cols[c] is
    the set of rows with an entry in column c, and column c's entries are
    reduced mod mods[c], which divides q.  A row whose only nonzero entry
    mod q is v, in column c, puts gcd(v, q) * e_c into the span, so
    mods[c] is the gcd of q and all such v, and one seed row {c: mods[c]}
    (none when it is q) stands in for all of them.
    """
    n_rows, n_cols = arr.shape
    at = np.flatnonzero(arr)
    vals = (arr.ravel()[at] % q).astype(np.int64)
    keep = vals != 0
    r, c = np.divmod(at[keep], n_cols)
    vals = vals[keep]
    single = np.bincount(r, minlength=n_rows)[r] == 1
    mods = np.full(n_cols, q, dtype=np.int64)
    np.gcd.at(mods, c[single], vals[single])
    r, c = r[~single], c[~single]
    vals = vals[~single] % mods[c]
    keep = vals != 0
    r, c, vals = r[keep], c[keep], vals[keep]
    # The entries are in row-major order: split them where the row changes.
    starts = np.flatnonzero(np.diff(r, prepend=-1)).tolist() + [len(r)]
    cl, vl = c.tolist(), vals.tolist()
    rows = [dict(zip(cl[a:b], vl[a:b])) for a, b in zip(starts, starts[1:])]
    mods = mods.tolist()
    rows += [{j: m} for j, m in enumerate(mods) if m < q]
    cols = [set() for _ in mods]
    for i, row in enumerate(rows):
        for j in row:
            cols[j].add(i)
    return rows, cols, mods


def _divisor_chain(diagonal: list[int], slots: int) -> list[int]:
    """Rebalance a diagonal multiset into the invariant-factor chain."""
    vals = [abs(v) for v in diagonal if v]
    changed = True
    while changed:
        changed = False
        for i in range(len(vals) - 1):
            a, b = vals[i], vals[i + 1]
            if b % a:
                g = math.gcd(a, b)
                vals[i], vals[i + 1] = g, a // g * b
                changed = True
    return vals + [0] * (slots - len(vals))


def _diagonalize_exact(rows: list[list[int]]) -> list[int]:
    """Reduce rows to diagonal form over Z; return the diagonal entries.

    Pivots on the smallest nonzero entry of the remaining block and
    clears its row and column by Euclidean steps, on unbounded integers.
    """
    M = [list(r) for r in rows]
    n_rows, n_cols = len(M), len(M[0])
    diagonal: list[int] = []
    t = 0
    while t < n_rows and t < n_cols:
        best = None
        bi = bj = -1
        for i in range(t, n_rows):
            Mi = M[i]
            for j in range(t, n_cols):
                v = Mi[j]
                if v:
                    a = -v if v < 0 else v
                    if best is None or a < best:
                        best, bi, bj = a, i, j
        if best is None:
            break
        M[t], M[bi] = M[bi], M[t]
        if bj != t:
            for r in M:
                r[t], r[bj] = r[bj], r[t]
        if M[t][t] < 0:
            M[t] = [-v for v in M[t]]
        while True:
            pivot = M[t][t]
            Mt = M[t]
            dirty = -1
            for i in range(t + 1, n_rows):
                Mi = M[i]
                v = Mi[t]
                if v:
                    q = v // pivot
                    if q:
                        for j in range(t, n_cols):
                            Mi[j] -= q * Mt[j]
                    if Mi[t] and (dirty < 0 or Mi[t] < M[dirty][t]):
                        dirty = i
            if dirty >= 0:
                M[t], M[dirty] = M[dirty], M[t]
                continue
            rowdirty = -1
            for j in range(t + 1, n_cols):
                v = Mt[j]
                if v:
                    v %= pivot
                    Mt[j] = v
                    if v and (rowdirty < 0 or v < Mt[rowdirty]):
                        rowdirty = j
            if rowdirty >= 0:
                for r in M:
                    r[t], r[rowdirty] = r[rowdirty], r[t]
                continue
            break
        diagonal.append(M[t][t])
        t += 1
    return diagonal
