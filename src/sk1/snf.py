"""Smith normal form and cokernel decompositions of integer matrices.

Relation lattices are sparse, and they reach the Smith form in one of
two forms, neither of them a dense matrix:

- a ``Lattice`` holds the (row, column, value) triples of the nonzero
  entries, sorted by row and then column, and the shape.
  ``seeds_first`` assembles the abelian ones, the whole lattice and each
  torus block: the seed rows diag(orders), then the other rows in order,
  none dropped;
- ``SparseRows`` holds the seed orders and the other rows as dicts
  {column: entry}, the form the metacyclic rows are built in.  It reads
  as the lattice ``seeds_first`` would give (``.lattice()``).

``np.asarray`` of either gives the dense matrix for readers that want
one.

``cokernel_decomposition`` computes Z^cols modulo the row span.  A dense
matrix is converted to a Lattice once.  The relation lattices of this
package carry seed rows, rows with a single nonzero entry, whose entries
put q*Z^cols inside the row span for a prime power q = p^e (the group
exponent).  The cokernel is then exact over the local ring Z/q, where
each nonzero entry is p^k times a unit for its valuation k < e, and one
sparse elimination computes it:

- rows are dicts {column: entry}, built in one walk over the input
  together with an index from each column to the rows that have an
  entry there;
- the seed rows of column c put g*e_c into the span for some g | q, so
  the other entries of column c are kept mod g and one seed row {c: g}
  stands in for all of them (none when g = q);
- the elimination runs in valuation phases k = 0, ..., e-1.  In phase k
  every entry left has valuation >= k, so any entry of valuation exactly
  k divides all of them and can be the pivot.  One pass visits the rows
  in their (length, index) order at the start of the phase; a row with
  such an entry pivots in its column with the fewest entries, which
  keeps the fill-in small, and a row without one never gains one later
  in the phase;
- scaled by the inverse of the pivot's unit part, the pivot row clears
  the pivot column from every other row; a pivot row with no other
  entry just drops the column from them.  The pivot row and column are
  then dropped, and the pivot contributes p^k;
- the phases stop once every column has a pivot, or after phase e-1;
  either way no entry is left, and each column without a pivot is a
  C_q.

This is the only elimination.  Each input gives the column moduli g its
own way: a Lattice from the gcd of each column's seed entries, read off
its triples in one array pass, and SparseRows from its orders.  One tail
then checks the precondition for both (``_local_form``): every column
has a seed row, the lcm q of the moduli is a prime power, and q**2 <
2**63.  An input that fails one raises ValueError naming it.  The
elimination runs on Python integers.  When q = 1 every column has a
unit seed, the rows span Z^cols, and the trivial decomposition is
returned without an elimination.  A seed row in every column gives full
rank, so the cokernel is always finite.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np


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
        return _format_multiplicities(self.multiplicities())


def _format_multiplicities(multiplicities: dict[int, int]) -> str:
    """(C{d})^{m} per cyclic order d of multiplicity m, joined by " x ";
    "0" for the trivial group."""
    return " x ".join(f"(C{d})^{m}" for d, m in multiplicities.items()) or "0"


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


@dataclass(frozen=True, eq=False)
class Lattice:
    """Integer matrix as (row, col, value) triples of its nonzero entries,
    sorted by row and then by column, with its shape; a row without a
    triple is a zero row.

    ``np.asarray`` gives the dense matrix (int64, or object when an entry
    does not fit), and ``len`` the number of rows, for callers and tests
    that read a dense matrix.
    """

    row: np.ndarray
    col: np.ndarray
    val: np.ndarray
    shape: tuple[int, int]

    def __len__(self) -> int:
        return self.shape[0]

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        # NumPy 2 passes ``copy``; the dense matrix is always a new array.
        out = np.zeros(self.shape, dtype=self.val.dtype)
        out[self.row, self.col] = self.val
        return out if dtype is None else out.astype(dtype, copy=False)


def _as_lattice(mat) -> Lattice:
    """mat as a Lattice; a dense matrix is read once, through ``_int_array``."""
    if isinstance(mat, Lattice):
        return mat
    arr = _int_array(mat)
    r, c = np.nonzero(arr)
    return Lattice(r, c, arr[r, c], arr.shape)


def seeds_first(orders, rows) -> Lattice:
    """Relation lattice of the seed rows diag(orders), then every row of
    ``rows`` (a Lattice or a dense integer matrix) in order, in one array
    pass; no row is dropped."""
    rows = _as_lattice(rows)
    orders = np.asarray(orders, dtype=np.int64)
    k = len(orders)
    if rows.shape[1] != k:
        raise ValueError(f"rows have {rows.shape[1]} columns, expected {k}")
    seeds = np.arange(k)
    return Lattice(
        np.concatenate([seeds, rows.row + k]),
        np.concatenate([seeds, rows.col]),
        np.concatenate([orders, rows.val]),
        (k + len(rows), k),
    )


@dataclass(frozen=True, eq=False)
class SparseRows:
    """Relation lattice as the seed rows diag(orders), then ``rows``, each
    a dict {column: entry} of its nonzero entries; no row is dropped.

    ``len``, ``shape`` and ``np.asarray`` read it as the lattice that
    ``seeds_first(orders, ...)`` gives for the same rows, and
    ``.lattice()`` returns that lattice.  ``cokernel_decomposition``
    reads the dicts as they are, with no array on the way.
    """

    orders: tuple[int, ...]
    rows: tuple[dict[int, int], ...]

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.orders) + len(self.rows), len(self.orders))

    def __len__(self) -> int:
        return self.shape[0]

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return self.lattice().__array__(dtype, copy)

    def lattice(self) -> Lattice:
        """The same rows as a Lattice, by ``seeds_first``."""
        entries = [sorted(row.items()) for row in self.rows]
        flat = [entry for row in entries for entry in row]
        rows = Lattice(
            np.repeat(np.arange(len(entries), dtype=np.int64), [len(row) for row in entries]),
            np.array([c for c, _ in flat], dtype=np.int64),
            np.array([v for _, v in flat], dtype=np.int64),
            (len(entries), len(self.orders)),
        )
        return seeds_first(self.orders, rows)


def cokernel_decomposition(mat) -> CyclicDecomposition:
    """Z^cols modulo the row span, as a cyclic decomposition.

    ``mat`` is SparseRows, a Lattice or a dense integer matrix, which is
    converted to a Lattice once.  Raises ValueError, naming the
    condition, when the seed rows do not meet the precondition of
    ``_local_form``.
    """
    if isinstance(mat, SparseRows):
        p, e, rows, cols, mods = _local_rows(mat)
    else:
        p, e, rows, cols, mods = _local_lattice(_as_lattice(mat))
    if e == 0:
        return CyclicDecomposition()
    return CyclicDecomposition(_cokernel_mod_prime_power(p, e, rows, cols, mods))


def _local_form(mods: list[int], walk):
    """(p, e, rows, cols, mods) for column moduli ``mods`` whose lcm is q
    = p^e; (1, 0, [], [], mods) when q = 1.

    Column c's seed rows put mods[c] times e_c into the row span, so q
    works once every column has a seed (mods[c] != 0).  Only then does
    ``walk()`` build the other rows over Z/q, reduced mod their column's
    modulus, as (rows, cols): rows are dicts {column: entry}, and cols[c]
    is the set of rows with an entry in column c.  One seed row {c:
    mods[c]} (none when mods[c] = q) is then added for each column.

    Raises ValueError when a column has no seed row, when q is not a
    prime power, or when q**2 >= 2**63.  That bound keeps the reduced
    entries inside int64 and the trial division that finds p below 2**16
    steps.
    """
    if 0 in mods:
        raise ValueError(f"column {mods.index(0)} has no seed row (a row with one nonzero entry)")
    q = math.lcm(*mods)
    if q == 1:
        # A unit seed in every column: the rows span Z^cols.
        return 1, 0, [], [], mods
    if q * q >= 2**63:
        raise ValueError(f"the seed rows give q = {q}, and q**2 >= 2**63")
    p = next((d for d in range(2, math.isqrt(q) + 1) if q % d == 0), q)
    e, rest = 0, q
    while rest % p == 0:
        rest //= p
        e += 1
    if rest != 1:
        raise ValueError(f"the seed rows give q = {q}, which is not a prime power")
    rows, cols = walk()
    for j, m in enumerate(mods):
        if m < q:
            cols[j].add(len(rows))
            rows.append({j: m})
    return p, e, rows, cols, mods


def _local_lattice(lat: Lattice):
    """``_local_form`` of a lattice, whose seed rows are its rows with one
    nonzero entry: column c's modulus g_c is the gcd of its seed entries,
    read off the triples in one array pass, and the walk visits the
    other triples in their (row, column) order.
    """
    n_rows, n_cols = lat.shape
    single = np.bincount(lat.row, minlength=n_rows)[lat.row] == 1
    gcds = np.zeros(n_cols, dtype=lat.val.dtype)
    np.gcd.at(gcds, lat.col[single], lat.val[single])

    def walk():
        r, c = lat.row[~single], lat.col[~single]
        vals = (lat.val[~single] % gcds[c]).astype(np.int64)
        keep = vals != 0
        r, c, vals = r[keep], c[keep], vals[keep]
        # The entries are sorted by row: a new row starts where the row changes.
        rows: list[dict[int, int]] = []
        cols = [set() for _ in range(n_cols)]
        starts = (np.diff(r, prepend=-1) != 0).tolist()
        for start, j, v in zip(starts, c.tolist(), vals.tolist()):
            if start:
                n, row = len(rows), {}
                rows.append(row)
            row[j] = v
            cols[j].add(n)
        return rows, cols

    return _local_form(gcds.tolist(), walk)


def _local_rows(sparse: SparseRows):
    """``_local_form`` of SparseRows: column c's modulus is |orders[c]|,
    and the walk visits the dict rows as they are, dropping each entry
    that vanishes mod its column's modulus and each row left empty.  The
    given dicts are read, never changed.

    A given row with a single entry stays a row: unlike the gcd of
    ``_local_lattice``, it does not lower its column's modulus, which
    changes the pivots of the elimination, never the cokernel.
    """
    mods = [abs(o) for o in sparse.orders]

    def walk():
        rows: list[dict[int, int]] = []
        cols = [set() for _ in mods]
        for given in sparse.rows:
            n, row = len(rows), {}
            for j, v in given.items():
                v %= mods[j]
                if v:
                    row[j] = v
                    cols[j].add(n)
            if row:
                rows.append(row)
        return rows, cols

    return _local_form(mods, walk)


def _cokernel_mod_prime_power(p: int, e: int, rows, cols, mods) -> list[int]:
    """Cyclic orders > 1 of Z^cols modulo the span of the sparse rows over
    Z/q, q = p^e, as ``_local_form`` builds them, by elimination; the
    rows and the column index are consumed."""
    q = p**e
    orders: list[int] = []
    pivots = 0
    for k in range(e):
        if pivots == len(cols):
            # Every column has a pivot, so no entry is left.
            break
        pk, pk1 = p**k, p ** (k + 1)
        # Every entry left has valuation >= k.  Each row is visited once,
        # by (length, index) at the start of the phase: a row visited
        # without an entry of valuation k never gains one, since its entry
        # f * p^k in a later pivot column has p | f, and w - f * v keeps
        # valuation > k.
        for _, i in sorted((len(row), i) for i, row in enumerate(rows) if row):
            prow = rows[i]
            # The pivot column: fewest entries among the row's entries of
            # valuation exactly k.
            c, fewest = -1, 0
            for j, v in prow.items():
                if v % pk1 and (c < 0 or len(cols[j]) < fewest):
                    c, fewest = j, len(cols[j])
            if c < 0:
                continue
            pivots += 1
            if k:
                orders.append(pk)
            rows[i] = {}
            for j in prow:
                cols[j].discard(i)
            below = cols[c]
            cols[c] = set()
            pivot = prow.pop(c)
            if not prow:
                # The pivot p^k divides every entry of column c, and the
                # pivot row has nothing else to subtract.
                for s in below:
                    del rows[s][c]
                continue
            # Scaled by the inverse of its unit part, the pivot is p^k, and
            # each entry of column c is f * p^k: subtracting f times the
            # pivot row clears it.
            unit_inv = pow(pivot // pk, -1, q)
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
    # No entry is left: each column without a pivot is a C_q.
    return orders + [q] * (len(cols) - pivots)
