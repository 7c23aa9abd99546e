"""Exact linear algebra: one sparse, fraction-free elimination kernel.

Every caller needs the same two facts about a square exact matrix: whether
it is negative definite, and the solution of a system against it. ``factor``
is the one way into the kernel: it eliminates the matrix once and records
what it did, and ``Factorization.solve`` replays that record on a rhs. A
caller that asks one matrix several questions keeps the ``Factorization``
and pays for the elimination once. ``solve_exact`` and
``is_negative_definite_matrix`` are its dense-matrix front ends.

Rows. Each row is a sparse ``{column: entry}`` dict of its nonzero integer
entries. A replay's rhs holds ints too, so the kernel never touches a
Fraction: a caller with a rational rhs puts it over one common denominator
once, solves on the numerators and multiplies that denominator into the
returned one (``solve_exact`` does so for its dense rhs).

Order. Columns are eliminated in index order. On a string whose curves are
numbered along the path, as resolution strings are, the pivot row of column
c meets only row c + 1, so no row ever grows; other sparse patterns may fill
in. The order depends on the matrix alone, so one record serves every rhs.

Pivot rule. The pivot of column c is the diagonal entry when row c remains
and that entry is nonzero; otherwise it is the first remaining row, by
index, with a nonzero entry in column c. When there is none, the matrix is
singular, and back substitution through the pivot rows of the earlier
columns, from x_c = the product of their |pivots|, gives an integer kernel
vector.

Update. Every other remaining row i with a_ic != 0 becomes
``(|p| * row_i - f * row_k) / g`` with k the pivot row, p its pivot,
f = sign(p) * a_ic and g the gcd of the new row's entries. All arithmetic is
on integers, rows the step does not touch are left alone, and the step is
recorded as ``(i, k, |p|, f, g)``. Each step multiplies the determinant by
|p| / g, and the pivot rows end up triangular, so D = |det A| is the product
of the pivots' |p| and every g over the product of every update's |p|;
``factor`` keeps it. By Cramer's rule y = D * x is an integer vector for an
integer rhs. The replay applies the same steps to D * rhs in the same order,
and after each step row i's entry is (row i) . y, so every division by g is
exact. Back substitution through the pivot rows then gives y on integers, one
exact division by the pivot per column, and one gcd at the end reduces y / D.

Verdict. With diagonal pivots the elimination is Gaussian elimination of the
matrix itself, and its k-th pivot is, up to a positive factor, the ratio
D_k / D_(k-1) of consecutive leading principal minors. By Sylvester's
criterion a symmetric matrix is therefore negative definite exactly when
every pivot was diagonal and negative. The verdict is part of the record.
With ``stop_early`` elimination stops at the first pivot that rules
definiteness out, a missing one included, and there is no record; so any
record it returns is complete and definite.

Complexity. A step costs the lengths of the rows it touches; a replay costs
one integer update per record, one multiply per entry of the pivot rows and
one gcd at the end. On a string of r curves both are O(r), against O(r^3)
for dense elimination; a dense matrix still costs O(r^3) to factor and
O(r^2) per replay. A ``Factorization`` holds the filled pivot rows and one
record per row update: O(r) on a string, O(fill) in general. Once some row
has filled in, each pivot row is copied when it is chosen, since a dict
keeps the room of the entries it lost.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod

from .errors import ValidationError
from .rationals import exact_int


class Factorization:
    """The record of one forward elimination of a square integer matrix; see the module docstring.

    ``definite`` is the verdict. ``pivots`` holds ``(k, row)`` per column c:
    the pivot row's index and its final entries, zero before column c.
    ``updates`` holds the ``(i, k, scale, f, g)`` records in the order they
    ran, flattened into one list, five ints per record. ``det`` is |det A|,
    which scales the rhs of every replay. ``kernel`` is None for a
    nonsingular matrix. A singular one keeps only its verdict (False),
    ``det`` = 0 and ``kernel``, a primitive integer vector Z with rows @ Z = 0.
    Nothing here is modified after ``factor`` returns.
    """

    __slots__ = ("definite", "pivots", "updates", "det", "kernel")

    def __init__(self, definite, pivots, updates, det, kernel):
        self.definite = definite
        self.pivots = pivots
        self.updates = updates
        self.det = det
        self.kernel = kernel

    def solve(self, rhs):
        """``(numerators, den)`` with x_i = numerators[i] / den, den > 0 least, or None if singular.

        ``rhs`` holds one int per row; any other entry, a Fraction, bool or float
        included, is refused with ``ValidationError``, since ``//`` on a Fraction
        would give a wrong answer silently. A caller with a rational rhs puts it
        over one common denominator, solves on the numerators and multiplies that
        denominator into ``den``.
        """
        if not set(map(type, rhs)) <= {int}:
            raise ValidationError("a replayed rhs must hold ints only")
        if self.kernel is not None:
            return None
        den = self.det
        b = [x * den for x in rhs]
        fields = iter(self.updates)
        for i, k, scale, f, g in zip(fields, fields, fields, fields, fields):
            b[i] = (scale * b[i] - f * b[k]) // g
        y = _back_substitute(self.pivots, [0] * len(b), b)
        h = gcd(den, *y)
        return [x // h for x in y], den // h


def _back_substitute(pivots, y, b):
    """``y`` with y_c = (b[k] - sum of v_j * y_j over j != c) // p_c for the pivot columns, last first.

    The pivot row of column c, with index k and pivot p_c, says row . y = b[k]; entries of ``y``
    past the pivot columns are given. Each division is exact when that y is an integer vector.
    """
    for c in reversed(range(len(pivots))):
        k, row = pivots[c]
        acc = b[k]
        for j, v in row.items():
            if j != c:
                acc -= v * y[j]
        y[c] = acc // row[c]
    return y


def _kernel(pivots, free, n):
    """The primitive integer Z, zero past ``free`` and positive at it, orthogonal to ``pivots``.

    ``pivots`` are the pivot rows of the columns before ``free``, which no row left has an entry in.
    They form a triangular block, so with Z_free the product of their |p_c| every Z_c is an
    integer by Cramer's rule.
    """
    y = [0] * n
    y[free] = prod(abs(row[c]) for c, (_, row) in enumerate(pivots))
    z = _back_substitute(pivots, y, [0] * n)
    content = gcd(*z)
    return [x // content for x in z]


def factor(rows, *, stop_early: bool = False) -> Factorization | None:
    """Eliminate the square integer matrix ``rows`` once, recording every row update.

    ``rows`` gives the nonzero entries, one ``{column: int}`` mapping per row;
    it is not modified. With ``stop_early``, a pivot that rules definiteness
    out, or a missing one, stops elimination and returns None.
    """
    n = len(rows)
    work = list(map(dict, rows))
    # cols[c]: the remaining rows with a nonzero entry in column c
    cols: list[set[int]] = [set() for _ in range(n)]
    for i, row in enumerate(rows):
        for j in row:
            cols[j].add(i)
    definite = True
    pivots: list[tuple[int, dict[int, int]]] = []
    updates: list[int] = []
    det_num = det_den = 1  # |det A| = det_num / det_den: each column's |p|^(1 - updates) and every g
    filled = False  # whether some row has grown; only then can a row hold room for entries it lost
    for c in range(n):
        col = cols[c]
        k = c if c in col else min(col, default=None)
        if k is None:
            return None if stop_early else Factorization(False, [], [], 0, _kernel(pivots, c, n))
        pivot_row = work[k]
        p = pivot_row[c]
        if k != c or p > 0:
            if stop_early:
                return None
            definite = False
        if filled:
            work[k] = pivot_row = dict(pivot_row)  # a fresh dict is sized to the row
        pivots.append((k, pivot_row))
        for j in pivot_row:
            cols[j].discard(k)
        scale = abs(p)
        sign = 1 if p > 0 else -1
        if not col:
            det_num *= scale
        elif len(col) > 1:
            det_den *= scale ** (len(col) - 1)
        for i in col:
            row = work[i]
            f = sign * row.pop(c)
            if scale != 1:
                for j in row:
                    row[j] *= scale
            for j, v in pivot_row.items():
                if j == c:
                    continue
                old = row.get(j, 0)
                new = old - f * v
                if new:
                    row[j] = new
                    if not old:
                        cols[j].add(i)
                        filled = True
                else:
                    del row[j]
                    cols[j].discard(i)
            g = gcd(*row.values()) or 1  # an emptied row has content 0
            if g > 1:
                for j in row:
                    row[j] //= g
                det_num *= g
            updates += (i, k, scale, f, g)
        col.clear()
    return Factorization(definite, pivots, updates, det_num // det_den, None)


def _sparse(matrix) -> list[dict[int, int]]:
    """The nonzero entries of a square integer matrix; any other matrix is refused."""
    if not isinstance(matrix, list) or any(
        not isinstance(row, list) or len(row) != len(matrix) for row in matrix
    ):
        raise ValidationError("matrix must be a square list of row lists")
    return [{j: v for j, v in enumerate(row) if exact_int(v, "matrix entry")} for row in matrix]


def solve_exact(matrix, rhs) -> list[Fraction] | None:
    """Solve the square system ``matrix @ x = rhs`` exactly.

    Returns None when the matrix is singular. The matrix must be a square list
    of int rows and the rhs a list of one int or Fraction per row, else
    ``ValidationError``.
    """
    rows = _sparse(matrix)
    if not isinstance(rhs, list) or len(rhs) != len(rows) or any(
        type(b) not in (int, Fraction) for b in rhs
    ):
        raise ValidationError(f"rhs must be a list of {len(rows)} ints or Fractions, one per row")
    r = lcm(*(b.denominator for b in rhs))
    solution = factor(rows).solve([b.numerator * (r // b.denominator) for b in rhs])
    if solution is None:
        return None
    numerators, den = solution
    den *= r
    return [Fraction(x, den) for x in numerators]


def is_negative_definite_matrix(matrix) -> bool:
    """Whether the symmetric integer ``matrix`` is negative definite (True when empty)."""
    return factor(_sparse(matrix), stop_early=True) is not None
