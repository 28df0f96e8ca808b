"""Exact rational matrices with fraction-free elimination on primitive rows.

Every exact matrix in the package is eliminated here.  The solver fills
the sparse integer rows of every operator matrix, the Psi matrices on the
blade basis among them, from the operator's symbol.

A matrix keeps each row once, sparse and in integers: the nonzero
entries times the lcm of their denominators, as (column, int) pairs, plus
that lcm as the row scale.  Scaling a row changes neither rank nor
kernel, so elimination starts from these integer rows and keeps them
sparse; `mat_vec` multiplies a sparse integer vector through the rows
that touch its support alone.

One elimination runs on these rows.  A `RowEchelon` takes them one at a
time, reduces each against the pivot rows in insertion order and only then
divides it by its content, the gcd of its entries: a row being reduced
can grow, but every stored row is primitive, so no stored entry outgrows
the Bareiss minor it divides.
- Rank is the row count of the echelon.  Growing an echelon leaves it as
  it was, so the joint kernels of several row groups can share a prefix
  (`solver.class_dimensions`).
- The kernel sorts the pivot rows by pivot column.  Each has no entry
  left of its pivot, so sorted they are an echelon form of the row space
  and their pivot columns are those of the reduced echelon form.  The
  kernel vector of a free column is unique, so back-substitution gives
  the reduced-echelon basis, which depends only on the row space: so it
  also comes from echelons grown elsewhere (`solver.class_dimensions`).
  Its size is the free column count, known before any back-substitution,
  so `nullspace` computes each vector on first access and guards it before
  handing it out: a caller back-substitutes only what it reads.

Both eliminate each connected block (rows linked by shared columns) on
its own, so a row is reduced against the pivot rows of its own block
alone.
"""

from __future__ import annotations

from bisect import bisect
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

from .algebra import _as_integers

# The nonzero (column, integer) entries of a row times its scale, and that scale.
IntegerRow = tuple[tuple[tuple[int, int], ...], int]


def _reduced_row(entries: list[tuple[int, int]], scale: int) -> IntegerRow:
    """Nonzero (column, int) entries over `scale` as the integer row of their values: both divided by any gcd > 1."""
    g = 1 if scale == 1 else gcd(scale, *(x for _, x in entries))
    if g == 1:
        return tuple(entries), scale
    return tuple((j, x // g) for j, x in entries), scale // g


class RowEchelon:
    """Echelon form of primitive integer rows, built by inserting rows; immutable.

    `grown(rows)` reduces each new row against the pivot rows present, in
    insertion order, and a row left nonzero, divided by its content (the
    gcd of its entries), becomes the next pivot row, its leading column the
    pivot column.  The result shares the rows already present, so one
    echelon can be grown along several chains.
    """

    __slots__ = ("_cols", "_tails", "_pivots")

    def __init__(self):
        self._cols: tuple[int, ...] = ()  # the pivot column of each step
        self._tails: tuple[tuple[tuple[int, int], ...], ...] = ()  # each pivot row less its pivot entry
        self._pivots: tuple[int, ...] = ()  # the pivot entry of each step

    def __len__(self) -> int:
        """The rank of the inserted rows."""
        return len(self._cols)

    def grown(self, rows: Iterable[Iterable[tuple[int, int]]]) -> "RowEchelon":
        """The echelon of the rows present and then `rows`, each its nonzero (column, int) entries.

        A step with pivot p clears entry r of a row in the pivot column as
        (p/g) row - (r/g) pivot row, g = gcd(p, r) with the sign of p, so
        p/g > 0.  After s steps the row is zero in the first s pivot columns
        and lies in the span of the first s pivot rows and itself, which
        holds one such vector up to scale.  So a row left nonzero, divided by
        its content once after its last step, is the Bareiss row (the minors
        of order s + 1 of the inserted rows) over its content.  Its entries
        can be larger before that one gcd; no stored entry outgrows the minor.
        """
        cols, tails, pivots = list(self._cols), list(self._tails), list(self._pivots)
        for pairs in rows:
            row = dict(pairs)
            for s, c in enumerate(cols):
                rc = row.pop(c, 0)
                if not rc:
                    continue
                pc = pivots[s]
                g = gcd(pc, rc)
                if pc < 0:
                    g = -g
                if g != 1:
                    pc, rc = pc // g, rc // g
                if pc != 1:
                    row = {j: pc * a for j, a in row.items()}
                for j, a in tails[s]:
                    a = row.get(j, 0) - rc * a
                    if a:
                        row[j] = a
                    else:
                        del row[j]
            if row:
                g = gcd(*row.values())
                if g > 1:
                    row = {j: a // g for j, a in row.items()}
                c = min(row)
                pivots.append(row.pop(c))
                cols.append(c)
                tails.append(tuple(row.items()))
        out = RowEchelon.__new__(RowEchelon)
        out._cols, out._tails, out._pivots = tuple(cols), tuple(tails), tuple(pivots)
        return out


class _Lazy:
    """The sequence f(0), ..., f(n - 1), each item computed on first access and kept.

    Indices are integers, negative ones counted from the end; a slice
    raises `TypeError`, since the cache holds None for items not yet read.
    """

    __slots__ = ("_f", "_items")

    def __init__(self, n: int, f):
        self._f, self._items = f, [None] * n

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, k: int):
        if not isinstance(k, int):
            raise TypeError(f"lazy sequence indices must be integers, not {type(k).__name__}")
        item = self._items[k]
        if item is None:
            item = self._items[k] = self._f(k % len(self._items))
        return item


class RationalMatrix:
    """Matrix over the rationals kept as sparse integer rows; immutable by convention."""

    __slots__ = ("nrows", "ncols", "_int_rows", "_rows_of")

    def __init__(self, rows: Iterable[Iterable[Fraction]], ncols: int | None = None):
        rows = [[Fraction(x) for x in row] for row in rows]
        if rows:
            if any(len(r) != len(rows[0]) for r in rows):
                raise ValueError("ragged rows")
            if ncols is not None and ncols != len(rows[0]):
                raise ValueError("ncols disagrees with row length")
            ncols = len(rows[0])
        elif ncols is None:
            raise ValueError("empty matrix needs an explicit column count")
        self.nrows, self.ncols, self._rows_of = len(rows), ncols, None
        self._int_rows = []
        for row in rows:
            num, scale = _as_integers({j: x for j, x in enumerate(row) if x})
            self._int_rows.append((tuple(num.items()), scale))

    @classmethod
    def _of(cls, int_rows: list[IntegerRow], ncols: int) -> "RationalMatrix":
        """The matrix with these integer rows, taken as they are."""
        mat = cls.__new__(cls)
        mat.nrows, mat.ncols, mat._int_rows, mat._rows_of = len(int_rows), ncols, int_rows, None
        return mat

    @classmethod
    def stack(cls, matrices: Sequence["RationalMatrix"], ncols: int) -> "RationalMatrix":
        """The rows of `matrices` in order; no matrices give the 0 x ncols matrix."""
        if any(mat.ncols != ncols for mat in matrices):
            raise ValueError("column counts differ")
        if len(matrices) == 1:
            return matrices[0]
        return cls._of([row for mat in matrices for row in mat._int_rows], ncols)

    @property
    def rows(self) -> list[list[Fraction]]:
        """Dense rows of `Fraction` entries, built on each access."""
        out = []
        for pairs, scale in self._int_rows:
            row = [Fraction(0)] * self.ncols
            for j, a in pairs:
                row[j] = Fraction(a, scale)
            out.append(row)
        return out

    def mat_vec(self, y: dict[int, int]) -> dict[int, int]:
        """The nonzero {row: sum_j a_ij y_j} of the sparse integer vector y ({column: value}), a_ij the integer row entries.

        Entry i is row scale i times (A y)_i.  A column -> rows index, built
        once per matrix, gives the rows that touch the support of y, which
        are the only rows that can give a nonzero entry; the product runs
        through those rows alone.  A column outside 0..ncols-1 raises `IndexError`.
        """
        if min(y, default=0) < 0:
            raise IndexError(f"column {min(y)} out of range 0..{self.ncols - 1}")
        rows_of = self._rows_of
        if rows_of is None:
            rows_of = self._rows_of = [[] for _ in range(self.ncols)]
            for i, (pairs, _) in enumerate(self._int_rows):
                for j, _ in pairs:
                    rows_of[j].append(i)
        image = {}
        for i in {i for j in y for i in rows_of[j]}:
            s = sum(a * y.get(j, 0) for j, a in self._int_rows[i][0])
            if s:
                image[i] = s
        return image

    def __eq__(self, other):
        if isinstance(other, RationalMatrix):
            return self.ncols == other.ncols and self._int_rows == other._int_rows
        return NotImplemented

    __hash__ = None

    def _blocks(self) -> list[list[int]]:
        """Row indices of each connected block, by first row, zero rows left out.

        A union-find over the columns joins the columns of each row.
        """
        parent = list(range(self.ncols))

        def find(j: int) -> int:
            while parent[j] != j:
                parent[j] = parent[parent[j]]
                j = parent[j]
            return j

        for pairs, _ in self._int_rows:
            if pairs:
                root = find(pairs[0][0])
                for j, _ in pairs[1:]:
                    parent[find(j)] = root
        blocks: dict[int, list[int]] = {}
        for i, (pairs, _) in enumerate(self._int_rows):
            if pairs:
                blocks.setdefault(find(pairs[0][0]), []).append(i)
        return list(blocks.values())

    def rank(self) -> int:
        """Exact rank: the rows of each block inserted into a `RowEchelon`, summed over blocks."""
        return sum(map(len, self._echelons()))

    def _echelons(self) -> list[RowEchelon]:
        """The `RowEchelon` of the rows of each connected block."""
        return [RowEchelon().grown(self._int_rows[i][0] for i in block) for block in self._blocks()]

    def nullspace(self, echelons: Iterable[RowEchelon] | None = None) -> _Lazy:
        """Exact kernel basis, one vector per free column in increasing column order, each computed on first access.

        Vector k is the pair (y, den), the vector y / den, y its nonzero
        {column: int} entries, back-substituted on `echelons` (default
        `_echelons`: any whose rows span the row space, no column in two).
        It is the reduced-echelon vector of its free column: 1 there, 0 at
        the other free columns of its block (a unit vector if no row touches
        it), solved for the pivot columns left of it, from the right, over
        one positive den that grows only by the factor a pivot row needs, so
        every division is exact.  Before it is handed out, `mat_vec`
        multiplies it through every row that touches its support, so the
        guard relies neither on the block split nor on where the echelons
        came from; a nonzero product raises `ArithmeticError`.
        """
        home, pivot_cols = {}, set()  # each tail column: the (pivot columns, pivots, tails) of its echelon, sorted
        for echelon in self._echelons() if echelons is None else echelons:
            if echelon:
                cols, pivots, tails = zip(*sorted(zip(echelon._cols, echelon._pivots, echelon._tails)))
                pivot_cols.update(cols)
                home.update(dict.fromkeys((j for tail in tails for j, _ in tail), (cols, pivots, tails)))
        free = [f for f in range(self.ncols) if f not in pivot_cols]
        return _Lazy(len(free), lambda k: self._kernel_vector(free[k], home.get(free[k], ((), (), ()))))

    def _kernel_vector(self, f: int, sorted_echelon: tuple) -> tuple[dict[int, int], int]:
        """The (y, den) of free column f back-substituted on the (pivot columns, pivots, tails) of its echelon, guarded."""
        y, den = {f: 1}, 1
        pivot_cols, pivots, tails = sorted_echelon
        for r in range(bisect(pivot_cols, f) - 1, -1, -1):
            s = sum(a * y.get(j, 0) for j, a in tails[r])
            if not s:
                continue
            p = pivots[r]
            if p < 0:
                p, s = -p, -s
            g = gcd(p, s)
            if g != p:
                q = p // g
                y = {j: q * a for j, a in y.items()}
                den *= q
            y[pivot_cols[r]] = -s // g
        if self.mat_vec(y):
            raise ArithmeticError("nullspace vector failed verification")
        return y, den

    def __repr__(self):
        return f"RationalMatrix({self.nrows}x{self.ncols})"

