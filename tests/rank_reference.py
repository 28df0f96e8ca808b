"""A rank by an elimination order the package never uses, for cross-checks."""

from cliffkit.linalg import RowEchelon


def mirrored_rank(mat):
    """The rank of `mat` with column j moved to ncols - 1 - j, so each pivot is a row's last column.

    The whole matrix goes into one `RowEchelon`, with no block split.
    """
    last = mat.ncols - 1
    return len(RowEchelon().grown([(last - j, a) for j, a in pairs] for pairs, _ in mat._int_rows))
