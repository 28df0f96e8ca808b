"""Exact rational matrices with fraction-free elimination.

Every exact matrix in the package is built and eliminated here.
`RationalMatrix.from_columns` builds the matrix of a linear map from the
coordinates of its basis images; it makes both the Psi matrices on the
blade basis and the field operator matrices on coefficient spaces.  A
single one-step Bareiss kernel on integer rows (each row pre-scaled by
the lcm of its denominators, which changes neither rank nor kernel)
gives rank, kernel basis and determinant.  Pivoting is deterministic:
columns left to right, first row with a nonzero entry.  A reversed
column sweep is available as an independent route for rank cross-checks.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, prod
from typing import Iterable, Sequence

Vector = list[Fraction]


def _lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b)


def _integer_rows(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], list[int]]:
    """Each row times the lcm of its denominators; returns (integer rows, scales)."""
    out, scales = [], []
    for row in rows:
        scale = 1
        for x in row:
            scale = _lcm(scale, Fraction(x).denominator)
        out.append([int(Fraction(x) * scale) for x in row])
        scales.append(scale)
    return out, scales


def _bareiss_echelon(rows: list[list[int]], ncols: int) -> tuple[list[list[int]], list[int], int]:
    """In-place fraction-free row echelon form; returns (rows, pivot columns, row swaps)."""
    nrows = len(rows)
    pivot_cols: list[int] = []
    swaps = 0
    prev = 1
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if rows[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            swaps += 1
        pc = rows[r][c]
        for i in range(r + 1, nrows):
            ric = rows[i][c]
            if ric:
                row_i, row_r = rows[i], rows[r]
                for j in range(c + 1, ncols):
                    row_i[j] = (pc * row_i[j] - ric * row_r[j]) // prev
            else:
                row_i = rows[i]
                for j in range(c + 1, ncols):
                    row_i[j] = (pc * row_i[j]) // prev
            rows[i][c] = 0
        prev = pc
        pivot_cols.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivot_cols, swaps


class RationalMatrix:
    """Dense matrix over the rationals; immutable by convention."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, rows: Iterable[Iterable[Fraction]], ncols: int | None = None):
        self.rows = [[Fraction(x) for x in row] for row in rows]
        self.nrows = len(self.rows)
        if self.nrows:
            self.ncols = len(self.rows[0])
            if any(len(r) != self.ncols for r in self.rows):
                raise ValueError("ragged rows")
            if ncols is not None and ncols != self.ncols:
                raise ValueError("ncols disagrees with row length")
        else:
            if ncols is None:
                raise ValueError("empty matrix needs an explicit column count")
            self.ncols = ncols

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls([[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, nrows: int, ncols: int) -> "RationalMatrix":
        return cls([[Fraction(0)] * ncols for _ in range(nrows)], ncols=ncols)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[Fraction]], nrows: int) -> "RationalMatrix":
        """Matrix of a linear map whose column j holds the coordinates of basis image j."""
        if any(len(col) != nrows for col in columns):
            raise ValueError(f"every column needs {nrows} coordinates")
        return cls([[col[r] for col in columns] for r in range(nrows)], ncols=len(columns))

    @classmethod
    def stack(cls, matrices: Sequence["RationalMatrix"], ncols: int) -> "RationalMatrix":
        """The rows of `matrices` in order; no matrices give the 0 x ncols matrix."""
        if any(mat.ncols != ncols for mat in matrices):
            raise ValueError("column counts differ")
        if len(matrices) == 1:
            return matrices[0]
        return cls([row for mat in matrices for row in mat.rows], ncols=ncols)

    def mat_vec(self, v: Sequence[Fraction]) -> Vector:
        if len(v) != self.ncols:
            raise ValueError(f"vector length {len(v)} does not match {self.ncols} columns")
        return [sum((row[j] * v[j] for j in range(self.ncols)), Fraction(0)) for row in self.rows]

    def __eq__(self, other):
        if isinstance(other, RationalMatrix):
            return self.nrows == other.nrows and self.ncols == other.ncols and self.rows == other.rows
        return NotImplemented

    __hash__ = None

    def rank(self, reverse_columns: bool = False) -> int:
        """Exact rank; `reverse_columns` runs an independent elimination order."""
        rows, _ = _integer_rows(self.rows)
        if reverse_columns:
            rows = [row[::-1] for row in rows]
        _, pivots, _ = _bareiss_echelon(rows, self.ncols)
        return len(pivots)

    def nullspace(self) -> list[Vector]:
        """Exact kernel basis, one vector per free column, echelon-derived.

        Every returned vector is re-multiplied through the matrix as a
        soundness guard before the basis is handed back.
        """
        n = self.ncols
        rows, _ = _integer_rows(self.rows)
        ech, pivot_cols, _ = _bareiss_echelon(rows, n)
        pivot_set = set(pivot_cols)
        free_cols = [c for c in range(n) if c not in pivot_set]
        basis: list[Vector] = []
        for f in free_cols:
            x: Vector = [Fraction(0)] * n
            x[f] = Fraction(1)
            for r in range(len(pivot_cols) - 1, -1, -1):
                pc = pivot_cols[r]
                if pc > f:
                    continue
                s = sum((Fraction(ech[r][j]) * x[j] for j in range(pc + 1, n) if x[j]), Fraction(0))
                x[pc] = -s / ech[r][pc]
            basis.append(x)
        for x in basis:
            if any(self.mat_vec(x)):
                raise ArithmeticError("nullspace vector failed verification")
        return basis

    def __repr__(self):
        return f"RationalMatrix({self.nrows}x{self.ncols})"


def det(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """Determinant: the last Bareiss pivot, signed by the row swaps, over the row scales."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant needs a square matrix")
    ints, scales = _integer_rows(rows)
    ech, pivot_cols, swaps = _bareiss_echelon(ints, n)
    if len(pivot_cols) < n:
        return Fraction(0)
    last = ech[n - 1][n - 1] if n else 1
    return Fraction(-last if swaps & 1 else last, prod(scales))
