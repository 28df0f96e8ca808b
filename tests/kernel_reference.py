"""Dense `Fraction` views of the sparse kernel API, for comparisons with dense references.

`RationalMatrix.nullspace` gives lazy pairs (y, den), the vector y / den
with y its nonzero {column: int} entries, and `RationalMatrix.mat_vec`
multiplies one such y; these helpers write both out densely.
"""

from fractions import Fraction

from cliffkit.algebra import _as_integers


def densify(n, y, den):
    """The vector y / den of Q^n, y its {coordinate: int} entries, as a dense `Fraction` list."""
    vec = [Fraction(0)] * n
    for j, a in y.items():
        vec[j] = Fraction(a, den)
    return vec


def dense_nullspace(mat):
    """Every vector of `mat.nullspace()`, in order, each back-substituted and guarded, as a dense list."""
    return [densify(mat.ncols, y, den) for y, den in mat.nullspace()]


def dense_mat_vec(mat, v):
    """The dense product of `mat` and the dense vector v, computed from `mat.rows`."""
    if len(v) != mat.ncols:
        raise ValueError(f"vector length {len(v)} does not match {mat.ncols} columns")
    return [sum((a * x for a, x in zip(row, v) if a), Fraction(0)) for row in mat.rows]


def field_of(space, vec):
    """The field whose coordinates on the basis of `space` are the dense vector `vec`."""
    if len(vec) != space.size:
        raise ValueError(f"vector length {len(vec)} does not match space size {space.size}")
    return space._field(*_as_integers({j: Fraction(x) for j, x in enumerate(vec) if x}))


def kernel_fields(opmat):
    """The fields of every kernel vector of the `OperatorMatrix` opmat, in `nullspace` order."""
    return [opmat.source._field(y, den) for y, den in opmat.matrix.nullspace()]
