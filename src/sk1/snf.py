"""Smith normal form and cokernel decompositions of integer matrices.

Relation lattices are sparse, and both families hand them to the Smith
form in one input, ``SparseRows``: the seed orders, and the other rows,
either dicts {column: entry} (the metacyclic rows, as they are built)
or a ``Lattice`` (the abelian rows, the whole lattice or one torus
block).  A ``Lattice`` holds the (row, column, value) triples of the
nonzero entries, sorted by row and then column, and the shape.
``SparseRows.lattice()`` stacks the seed rows diag(orders) on top of
the other rows in order (``seeds_first``), none dropped, and
``np.asarray`` of either gives the dense matrix for readers that want
one.

``cokernel_decomposition`` computes Z^cols modulo the row span.  A dense
matrix or a Lattice passed to it is converted to SparseRows once: its
seed rows, the rows with a single nonzero entry, give column c the gcd
g_c of its seed entries (``_find_seeds``).  The seed orders put q*Z^cols
inside the row span for a prime power q = p^e (the group exponent).  The
cokernel is then exact over the local ring Z/q, where each nonzero
entry is p^k times a unit for its valuation k < e, and one sparse
elimination computes it:

- rows are dicts {column: entry}, built in one walk over the other rows
  together with an index from each column to the rows that have an
  entry there;
- the seed order of column c puts g*e_c into the span for g = |orders[c]|,
  g | q, so the other entries of column c are kept mod g and one seed
  row {c: g} stands in for the seeds (none when g = q);
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

This is the only elimination.  Its precondition is checked on the seed
orders (``_local_rows``): every column has a nonzero one, their lcm q is
a prime power, and q**2 < 2**63.  A malformed input, one that fails
either of the first two, raises ValueError naming the condition; the
third is a size limit (``guard_modulus``), the one numeric limit of the
metacyclic pipeline, and raises TooLarge.  The elimination runs on
Python integers.  When q = 1 every column has a unit seed, the rows
span Z^cols, and the trivial decomposition is returned without an
elimination.  A seed row in every column gives full rank, so the
cokernel is always finite.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .abelian import _integral
from .errors import TooLarge


@dataclass(frozen=True)
class CyclicDecomposition:
    """A finite abelian group given as a sorted multiset of cyclic orders > 1.

    The multiset is counted once, when it is sorted; the views read that
    count, and ``prime_power_multiplicities`` keeps its answer per int p.
    Every view returns a fresh dict, so a caller that changes one never
    changes a later answer of this (possibly cached and shared) object.
    """

    divisors: tuple[int, ...] = ()
    _counts: dict[int, int] = field(init=False, repr=False, compare=False)
    _by_prime: dict[int, dict[int, int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        divs = tuple(sorted(_exact_int(d) for d in self.divisors))
        if divs and divs[0] <= 1:
            raise ValueError("cyclic orders must all exceed 1")
        object.__setattr__(self, "divisors", divs)
        # Counter keeps first-seen order, so the keys of sorted input ascend.
        object.__setattr__(self, "_counts", dict(Counter(divs)))
        object.__setattr__(self, "_by_prime", {})

    @property
    def is_trivial(self) -> bool:
        return not self.divisors

    @property
    def order(self) -> int:
        return math.prod(self.divisors)

    def multiplicities(self) -> dict[int, int]:
        """Map cyclic order -> multiplicity, ascending key order."""
        return dict(self._counts)

    def prime_power_multiplicities(self, p: int) -> dict[int, int]:
        """Map exponent e -> multiplicity of C_{p^e}; every divisor must be
        a power of p, and p must be an integer at least 2.

        The answer is kept per int(p) that answers, so a refused p raises
        on every call, and 3.0 reads the answer of 3.  Every p answers the
        trivial group, which keeps none; any other keeps only p with a
        power equal to its least divisor, at most log2 of it."""
        q = _integral(p)
        if q is None or q < 2:
            raise ValueError(f"p must be an integer at least 2, got {p!r}")
        memo = self._by_prime if self._counts else {}
        out = memo.get(q)
        if out is None:
            out = memo[q] = self._count_powers(q)
        return dict(out)

    def _count_powers(self, p: int) -> dict[int, int]:
        out = {}
        for d, m in self._counts.items():
            e, v = 0, d
            while v % p == 0:
                v //= p
                e += 1
            if v != 1:
                raise ValueError(f"{d} is not a power of {p}")
            out[e] = m
        return out

    def __str__(self) -> str:
        return _format_multiplicities(self._counts)


def _format_multiplicities(multiplicities: dict[int, int]) -> str:
    """(C{d})^{m} per cyclic order d of multiplicity m, joined by " x ";
    "0" for the trivial group."""
    return " x ".join(f"(C{d})^{m}" for d, m in multiplicities.items()) or "0"


def _exact_int(v) -> int:
    """v as a Python integer; ValueError unless v is an integer value."""
    i = _integral(v)
    if i is None:
        raise ValueError(f"{v!r} is not an integer")
    return i


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
    """Relation lattice as the seed rows diag(orders), then ``rows``: a
    tuple of dicts {column: entry} of their nonzero entries, or a Lattice
    sorted by row; no row is dropped.

    ``len``, ``shape`` and ``np.asarray`` read it as the lattice that
    ``.lattice()`` returns.  ``cokernel_decomposition`` reads the orders
    and the rows as they are, with no seed search on the way.
    """

    orders: tuple[int, ...] | np.ndarray
    rows: tuple[dict[int, int], ...] | Lattice

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.orders) + len(self.rows), len(self.orders))

    def __len__(self) -> int:
        return self.shape[0]

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return self.lattice().__array__(dtype, copy)

    def lattice(self) -> Lattice:
        """The seed rows, then the other rows, as one Lattice (``seeds_first``)."""
        rows = self.rows
        if not isinstance(rows, Lattice):
            entries = [sorted(row.items()) for row in rows]
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

    ``mat`` is SparseRows, or a Lattice or dense integer matrix, whose
    seed rows ``_find_seeds`` finds.  Raises ValueError, naming the
    condition, when the seed orders are malformed for ``_local_rows``,
    and TooLarge when their modulus is past ``guard_modulus``.
    """
    if not isinstance(mat, SparseRows):
        mat = _find_seeds(_as_lattice(mat))
    p, e, rows, cols, mods = _local_rows(mat)
    if e == 0:
        return CyclicDecomposition()
    return CyclicDecomposition(_cokernel_mod_prime_power(p, e, rows, cols, mods))


def guard_modulus(q: int, what) -> None:
    """Raise TooLarge, naming ``what``, unless q**2 < 2**63: the limit of
    the elimination on its modulus q (see ``_local_rows``)."""
    if q * q >= 2**63:
        raise TooLarge(f"{what}: the Smith form's modulus q has q**2 >= 2**63")


def _find_seeds(lat: Lattice) -> SparseRows:
    """lat as SparseRows: its seed rows are its rows with one nonzero
    entry, and column c's order is the gcd of its seed entries (0 when
    it has none), read off the triples in one array pass.  The other
    rows keep their numbers, the seed rows left empty."""
    single = np.bincount(lat.row, minlength=lat.shape[0])[lat.row] == 1
    gcds = np.zeros(lat.shape[1], dtype=lat.val.dtype)
    np.gcd.at(gcds, lat.col[single], lat.val[single])
    rest = ~single
    return SparseRows(gcds, Lattice(lat.row[rest], lat.col[rest], lat.val[rest], lat.shape))


def _local_rows(sparse: SparseRows):
    """(p, e, rows, cols, mods) for the elimination; (1, 0, [], [], mods)
    when q = 1.

    Column c's modulus mods[c] = |orders[c]| puts mods[c] times e_c into
    the row span, so the lcm q of the moduli works once every column has
    a nonzero one.  Only then are the other rows walked over Z/q, as they
    are given, each entry reduced mod its column's modulus and dropped
    when that gives 0, and each row left empty dropped: rows are dicts
    {column: entry}, and cols[c] is the set of rows with an entry in
    column c.  The given rows are read, never changed.  One seed row {c:
    mods[c]} (none when mods[c] = q) is then added for each column.  A
    given row with a single entry stays a row; folding it into its
    column's modulus, as ``_find_seeds`` does, changes the pivots, never
    the cokernel.

    Raises ValueError when a column has no seed row or when q is not a
    prime power, and TooLarge (``guard_modulus``) when q**2 >= 2**63.
    That bound keeps the reduced entries inside int64 and the trial
    division that finds p below 2**16 steps.
    """
    orders = sparse.orders
    mods = np.abs(orders).tolist() if isinstance(orders, np.ndarray) else [abs(o) for o in orders]
    if 0 in mods:
        raise ValueError(f"column {mods.index(0)} has no seed row (a row with one nonzero entry)")
    q = math.lcm(*mods)
    if q == 1:
        # A unit seed in every column: the rows span Z^cols.
        return 1, 0, [], [], mods
    guard_modulus(q, "the seed rows")
    p = next((d for d in range(2, math.isqrt(q) + 1) if q % d == 0), q)
    e, rest = 0, q
    while rest % p == 0:
        rest //= p
        e += 1
    if rest != 1:
        raise ValueError(f"the seed rows give q = {q}, which is not a prime power")
    rows: list[dict[int, int]] = []
    cols = [set() for _ in mods]
    given = sparse.rows
    if isinstance(given, Lattice):
        vals = given.val % np.abs(np.asarray(orders))[given.col]
        # The entries are sorted by row: a new row starts at the first
        # nonzero entry of each row.
        last = -1
        for i, j, v in zip(given.row.tolist(), given.col.tolist(), vals.tolist()):
            if v:
                if i != last:
                    last, n, row = i, len(rows), {}
                    rows.append(row)
                row[j] = v
                cols[j].add(n)
    else:
        for given_row in given:
            n, row = len(rows), {}
            for j, v in given_row.items():
                v %= mods[j]
                if v:
                    row[j] = v
                    cols[j].add(n)
            if row:
                rows.append(row)
    for j, m in enumerate(mods):
        if m < q:
            cols[j].add(len(rows))
            rows.append({j: m})
    return p, e, rows, cols, mods


def _cokernel_mod_prime_power(p: int, e: int, rows, cols, mods) -> list[int]:
    """Cyclic orders > 1 of Z^cols modulo the span of the sparse rows over
    Z/q, q = p^e, as ``_local_rows`` builds them, by elimination; the
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
