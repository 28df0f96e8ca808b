"""Dense `Fraction` views of the sparse kernel API, the class dimensions without the pseudoscalar split,
and a field derivative on `Multivector` coefficients.

`RationalMatrix.nullspace` gives lazy pairs (y, den), the vector y / den
with y its nonzero {column: int} entries, and `RationalMatrix.mat_vec`
multiplies one such y; these helpers write both out densely.
`half_ranks` and `unsplit_dimensions` eliminate every block of the class
stack, the odd-blade half at odd m included.
`partial` and `sum_terms` work on (monomial, `Multivector`) pairs, apart
from the integer terms of `cliffkit.fields`, so a reference built on them
does not share the field kernel.
"""

from fractions import Fraction

from cliffkit.algebra import _as_integers, blade_order
from cliffkit.classify import _CLASS_ORDER
from cliffkit.fields import PolyField
from cliffkit.linalg import RationalMatrix, RowEchelon
from cliffkit.solver import _CHAINS, CoefficientSpace, class_matrices


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


def half_ranks(phi, psi, m, d):
    """For parity 0 and 1, {frozenset(chain): rank} of each joint kernel of `_CHAINS` on the output blades of that parity.

    Every connected block of the class stack grows every chain of `_CHAINS`
    from the one before its last class, and adds its ranks to the parity
    of the output blade of its first row.
    """
    space = CoefficientSpace(m, d)
    mats = class_matrices(phi, psi, space)
    stack = RationalMatrix.stack([mats[name] for name in _CLASS_ORDER], space.size)
    class_of = [name for name in _CLASS_ORDER for _ in range(mats[name].nrows)]
    order = blade_order(m)
    ranks = [dict.fromkeys(map(frozenset, _CHAINS), 0) for _ in range(2)]
    for block in stack._blocks():
        rows = {name: [] for name in _CLASS_ORDER}
        for i in block:
            rows[class_of[i]].append(stack._int_rows[i][0])
        echelons = {(): RowEchelon()}
        half = ranks[order[block[0] % (1 << m)].bit_count() % 2]
        for chain in _CHAINS:
            echelons[chain] = echelons[chain[:-1]].grown(rows[chain[-1]])
            half[frozenset(chain)] += len(echelons[chain])
    return ranks


def unsplit_dimensions(phi, psi, m, d):
    """{frozenset(chain): dimension} of each joint kernel of `_CHAINS`, both halves eliminated."""
    size = CoefficientSpace(m, d).size
    even, odd = half_ranks(phi, psi, m, d)
    return {names: size - even[names] - odd[names] for names in even}


def sum_terms(m, pairs):
    """The field of (monomial, `Multivector`) pairs, summed monomial by monomial with `Multivector` sums."""
    acc = {}
    for a, mv in pairs:
        acc[a] = acc[a] + mv if a in acc else mv
    return PolyField(m, acc)


def partial(f, i):
    """d f / d x_i coefficient by coefficient: each term c x^alpha gives alpha_i * c at alpha - e_i."""
    k = i - 1
    return sum_terms(f.m, ((a[:k] + (a[k] - 1,) + a[k + 1:], mv * a[k]) for a, mv in f.terms() if a[k]))
