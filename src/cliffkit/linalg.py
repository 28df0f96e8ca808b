"""Exact rational matrices with fraction-free elimination.

Every exact matrix in the package is eliminated here.  The solver fills
the sparse integer rows of every operator matrix, the Psi matrices on the
blade basis among them, from the operator's symbol.

A matrix keeps each row once, sparse and in integers: the nonzero
entries times the lcm of their denominators, as (column, int) pairs, plus
that lcm as the row scale.  Scaling a row changes neither rank nor
kernel, so elimination starts from these integer rows and keeps them
sparse; a matrix-vector product reads only the columns in the vector's
support.

Two Bareiss (fraction-free) eliminations run on these rows, one for each
job:
- Rank inserts rows into a `RowEchelon`, the row count of which is the
  rank.  A new row is reduced against the pivot rows in insertion order,
  so it takes the steps of a Bareiss sweep over the inserted rows, in
  that order, with the pivot columns in the order they were found.  After
  s steps each entry of a row is a minor of order s + 1 of the inserted
  rows (Sylvester's identity), so every division is exact.  Growing an
  echelon leaves it as it was, so the joint kernels of several row
  groups can share a prefix (`solver.class_dimensions`).
  `rank(reverse_columns=True)` mirrors the columns, so each pivot is a
  row's last column: an independent order for cross-checks.
- The kernel sweeps the columns left to right with `_bareiss_echelon`.
  Its pivots are the leading minors in column order, which make
  back-substitution integral and give the unique reduced-echelon basis.

Both eliminate each connected block (rows linked by shared columns) on
its own.  A Bareiss step multiplies every later row by its pivot over
the previous one, so in one sweep the rows of a block would grow by the
minors of all blocks before it; split, their entries stay minors of
their own block.
"""

from __future__ import annotations

from bisect import bisect
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Vector = list[Fraction]
# The nonzero (column, integer) entries of a row times its scale, and that scale.
IntegerRow = tuple[tuple[tuple[int, int], ...], int]


def _integer_row(entries: Iterable[tuple[int, Fraction]]) -> IntegerRow:
    """(column, value) entries as the nonzero (column, int) pairs times the lcm of their denominators."""
    nonzero = [(j, x) for j, x in entries if x]
    scale = lcm(*(x.denominator for _, x in nonzero))
    return tuple((j, x.numerator * (scale // x.denominator)) for j, x in nonzero), scale


def _reduced_row(entries: list[tuple[int, int]], scale: int) -> IntegerRow:
    """Nonzero (column, int) entries over `scale` as the `_integer_row` of their values: both divided by their gcd."""
    g = gcd(scale, *(x for _, x in entries))
    return tuple((j, x // g) for j, x in entries), scale // g


def _bareiss_echelon(rows: list[dict[int, int]], columns: Sequence[int]) -> tuple[list[dict[int, int]], list[int]]:
    """In-place fraction-free row echelon form of sparse rows ({column: int}, no zeros) over increasing `columns`.

    Returns (rows, pivot columns); row r of the result is the r-th pivot
    row, for r below the rank.  A step with pivot p multiplies
    each row it does not eliminate by p over the previous pivot.  These
    factors telescope, so such a row keeps the step it is current for and
    is brought up to date, by one exact division, when a step uses it.
    """
    nrows = len(rows)
    pivots = [1]  # pivots[s]: the pivot of step s
    current = [0] * nrows  # rows[i] holds its values after step current[i]
    pivot_cols: list[int] = []
    for c in columns:
        r = len(pivot_cols)
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if c in rows[i]), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            current[r], current[piv] = current[piv], current[r]
        prev = pivots[r]
        for i in range(r, nrows):
            if c in rows[i] and current[i] != r:
                old = pivots[current[i]]
                rows[i] = {j: a * prev // old for j, a in rows[i].items()}
        row_r = rows[r]
        pc = row_r[c]
        tail = [(j, a) for j, a in row_r.items() if j != c]
        for i in range(r + 1, nrows):
            row_i = rows[i]
            if c not in row_i:
                continue
            ric = row_i.pop(c)
            new = {j: pc * a for j, a in row_i.items()}
            for j, a in tail:
                new[j] = new.get(j, 0) - ric * a
            rows[i] = {j: a // prev for j, a in new.items() if a}
            current[i] = r + 1
        pivots.append(pc)
        pivot_cols.append(c)
    return rows, pivot_cols


class RowEchelon:
    """Fraction-free row echelon form built by inserting rows; immutable.

    `grown(rows)` reduces each new row against the pivot rows present, in
    insertion order, and a row left nonzero becomes the next pivot row,
    its leading column the pivot column.  The pivot rows are then exactly
    the rows a Bareiss sweep over the inserted rows, in that order, with
    those pivot columns, would give, so every division is exact.  The
    result shares the rows already present, so one echelon can be grown
    along several chains.
    """

    __slots__ = ("_cols", "_tails", "_pivots")

    def __init__(self):
        self._cols: tuple[int, ...] = ()  # the pivot column of each step
        self._tails: tuple[tuple[tuple[int, int], ...], ...] = ()  # each pivot row less its pivot entry
        self._pivots: tuple[int, ...] = (1,)  # _pivots[s + 1]: the pivot of step s

    def __len__(self) -> int:
        """The rank of the inserted rows."""
        return len(self._cols)

    def grown(self, rows: Iterable[Iterable[tuple[int, int]]]) -> "RowEchelon":
        """The echelon of the rows present and then `rows`, each its nonzero (column, int) entries.

        A Bareiss step with pivot p multiplies a row by p over the
        previous pivot.  A row with no entry in the pivot column of a
        step would only be scaled by it.  These factors telescope, so such
        a row keeps the step it is current for, and the next step that
        uses it divides by the pivot of the last step the row took instead
        of by the previous pivot: one exact division.  A new pivot row is
        brought up to date before it is kept.
        """
        cols, tails, pivots = list(self._cols), list(self._tails), list(self._pivots)
        for pairs in rows:
            row = dict(pairs)
            current = 0  # row holds its values after step `current`
            for s, c in enumerate(cols):
                rc = row.pop(c, 0)
                if not rc:
                    continue
                pc, old = pivots[s + 1], pivots[current]
                new = {j: pc * a for j, a in row.items()}
                for j, a in tails[s]:
                    new[j] = new.get(j, 0) - rc * a
                row = {j: a // old for j, a in new.items() if a}
                current = s + 1
            if row:
                k = len(cols)
                if current != k:
                    row = {j: a * pivots[k] // pivots[current] for j, a in row.items()}
                c = min(row)
                pivots.append(row.pop(c))
                cols.append(c)
                tails.append(tuple(row.items()))
        out = RowEchelon.__new__(RowEchelon)
        out._cols, out._tails, out._pivots = tuple(cols), tuple(tails), tuple(pivots)
        return out


class RationalMatrix:
    """Matrix over the rationals kept as sparse integer rows; immutable by convention."""

    __slots__ = ("nrows", "ncols", "_int_rows")

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
        self.nrows, self.ncols = len(rows), ncols
        self._int_rows = [_integer_row(enumerate(row)) for row in rows]

    @classmethod
    def _of(cls, int_rows: list[IntegerRow], ncols: int) -> "RationalMatrix":
        """The matrix with these integer rows, taken as they are."""
        mat = cls.__new__(cls)
        mat.nrows, mat.ncols, mat._int_rows = len(int_rows), ncols, int_rows
        return mat

    @classmethod
    def zero(cls, nrows: int, ncols: int) -> "RationalMatrix":
        return cls._of([((), 1)] * nrows, ncols)

    @classmethod
    def stack(cls, matrices: Sequence["RationalMatrix"], ncols: int) -> "RationalMatrix":
        """The rows of `matrices` in order; no matrices give the 0 x ncols matrix."""
        if any(mat.ncols != ncols for mat in matrices):
            raise ValueError("column counts differ")
        if len(matrices) == 1:
            return matrices[0]
        return cls._of([row for mat in matrices for row in mat._int_rows], ncols)

    @property
    def rows(self) -> list[Vector]:
        """Dense rows of `Fraction` entries, built on each access."""
        out = []
        for pairs, scale in self._int_rows:
            row = [Fraction(0)] * self.ncols
            for j, a in pairs:
                row[j] = Fraction(a, scale)
            out.append(row)
        return out

    def _products(self, vectors: Sequence[dict[int, int]]) -> list[dict[int, int]]:
        """The nonzero {row: sum_j a_ij y_j} of each sparse vector y ({column: value}), a_ij the integer row entries.

        Entry i is row scale i times (A y)_i.  A column -> rows index, built
        for this call alone, gives the rows that touch the support of y,
        which are the only rows that can give a nonzero entry; each product
        runs through those rows alone.
        """
        rows_of: list[list[int]] = [[] for _ in range(self.ncols)]
        for i, (pairs, _) in enumerate(self._int_rows):
            for j, _ in pairs:
                rows_of[j].append(i)
        out = []
        for y in vectors:
            image = {}
            for i in {i for j in y for i in rows_of[j]}:
                s = sum(a * y.get(j, 0) for j, a in self._int_rows[i][0])
                if s:
                    image[i] = s
            out.append(image)
        return out

    def mat_vec(self, v: Sequence[Fraction]) -> Vector:
        if len(v) != self.ncols:
            raise ValueError(f"vector length {len(v)} does not match {self.ncols} columns")
        den = lcm(*(x.denominator for x in v))
        (image,) = self._products([{j: x.numerator * (den // x.denominator) for j, x in enumerate(v) if x}])
        out = [Fraction(0)] * self.nrows
        for i, s in image.items():
            out[i] = Fraction(s, self._int_rows[i][1] * den)
        return out

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

    def rank(self, reverse_columns: bool = False) -> int:
        """Exact rank: the rows of each block inserted into a `RowEchelon`, summed over blocks.

        `reverse_columns` mirrors the columns, so each pivot is a row's last
        column instead of its first: an independent elimination.
        """
        last = self.ncols - 1
        rank = 0
        for block in self._blocks():
            rows = (self._int_rows[i][0] for i in block)
            if reverse_columns:
                rows = ([(last - j, a) for j, a in pairs] for pairs in rows)
            rank += len(RowEchelon().grown(rows))
        return rank

    def _kernel(self) -> list[tuple[dict[int, int], int]]:
        """The basis of `nullspace` as pairs (y, den): the vector y / den, y its nonzero {column: int} entries."""
        kernel: dict[int, tuple[dict[int, int], int]] = {}
        touched: set[int] = set()
        for block in self._blocks():
            rows = [dict(self._int_rows[i][0]) for i in block]
            columns = sorted({j for row in rows for j in row})
            ech, pivot_cols = _bareiss_echelon(rows, columns)
            touched.update(columns)
            pivots = [ech[r][c] for r, c in enumerate(pivot_cols)]
            tails = [[(j, a) for j, a in row.items() if j != c] for row, c in zip(ech, pivot_cols)]
            pivot_set = set(pivot_cols)
            for f in columns:
                if f in pivot_set:
                    continue
                k = bisect(pivot_cols, f)
                den = pivots[k - 1] if k else 1
                y = {f: den}
                for r in range(k - 1, -1, -1):
                    y[pivot_cols[r]] = -sum(a * y.get(j, 0) for j, a in tails[r]) // pivots[r]
                kernel[f] = {j: a for j, a in y.items() if a}, den
        for f in range(self.ncols):
            if f not in touched:
                kernel[f] = {f: 1}, 1
        basis = [kernel[f] for f in sorted(kernel)]
        if any(self._products([y for y, _ in basis])):
            raise ArithmeticError("nullspace vector failed verification")
        return basis

    def nullspace(self) -> list[Vector]:
        """Exact kernel basis, one vector per free column in increasing column order, echelon-derived.

        A free column's vector lives in its block (a unit vector if no row
        touches it), and is the reduced-echelon one a whole-matrix sweep
        gives.  Bareiss pivot k of a block is the determinant of its first
        k rows (after the swaps) in its first k pivot columns, and the
        kernel vector of free column f solves that minor for k the number
        of the block's pivot columns left of f.  By Cramer's rule pivot k
        (1 when k = 0) times the vector is integral, so back-substitution
        runs in integers and every division is exact.

        Back-substitution leaves each vector as integers y over one den.
        Before the basis is handed back, each y is multiplied as a
        soundness guard, in integers, through every row of the matrix that
        touches its support (`_products` indexes the rows itself and does
        not rely on the block split); a nonzero product raises
        `ArithmeticError`.
        """
        basis = []
        for y, den in self._kernel():
            x = [Fraction(0)] * self.ncols
            for j, a in y.items():
                x[j] = Fraction(a, den)
            basis.append(x)
        return basis

    def __repr__(self):
        return f"RationalMatrix({self.nrows}x{self.ncols})"

