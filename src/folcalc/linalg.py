"""Exact linear algebra: one sparse, fraction-free elimination kernel.

Every caller needs the same two facts about a square exact matrix: whether
it is negative definite, and the solution of a system against it. ``factor``
is the one way into the kernel: it eliminates the matrix once and records
what it did, and ``Factorization.solve`` replays that record on a rhs. A
caller that asks one matrix several questions keeps the ``Factorization``
and pays for the elimination once. ``solve_exact`` and
``is_negative_definite_matrix`` are its dense-matrix front ends.

Rows. Each row is a sparse ``{column: entry}`` dict of its nonzero integer
entries. The rhs, ints or Fractions, is put over its least common denominator
once per solve and enters only the replay.

Order. Columns are eliminated in index order. On a string whose curves are
numbered along the path, as resolution strings are, the pivot row of column
c meets only row c + 1, so no row ever grows; other sparse patterns may fill
in. The order depends on the matrix alone, so one record serves every rhs.

Pivot rule. The pivot of column c is the diagonal entry when row c remains
and that entry is nonzero; otherwise it is the first remaining row, by
index, with a nonzero entry in column c. When there is none, the matrix is
singular, and back substitution with x_c = 1 through the pivot rows of the
earlier columns gives an integer kernel vector.

Update. Every other remaining row i with a_ic != 0 becomes
``(|p| * row_i - f * row_k) / g`` with k the pivot row, p its pivot,
f = sign(p) * a_ic and g the gcd of the new row's entries. All arithmetic is
on integers, rows the step does not touch are left alone, and the step is
recorded as ``(i, k, |p|, f, g)``. Replaying the records on the rhs applies
the same steps to its entries in the same order: the division by g is exact
when g divides the new entry, and otherwise that row's entry keeps a
denominator of its own. Back substitution through the pivot rows then gives
the solution.

Verdict. With diagonal pivots the elimination is Gaussian elimination of the
matrix itself, and its k-th pivot is, up to a positive factor, the ratio
D_k / D_(k-1) of consecutive leading principal minors. By Sylvester's
criterion a symmetric matrix is therefore negative definite exactly when
every pivot was diagonal and negative. The verdict is part of the record.
With ``stop_early`` elimination stops at the first pivot that rules
definiteness out, a missing one included, and there is no record; so any
record it returns is complete and definite.

Complexity. A step costs the lengths of the rows it touches; a replay costs
one integer update per record plus the entries of the pivot rows. On a
string of r curves both are O(r), against O(r^3) for dense elimination; a
dense matrix still costs O(r^3) to factor and O(r^2) per replay. A
``Factorization`` holds the filled pivot rows and one record per row update:
O(r) on a string, O(fill) in general. Once some row has filled in, each
pivot row is copied when it is chosen, since a dict keeps the room of the
entries it lost.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import ValidationError
from .rationals import exact_int


class Factorization:
    """The record of one forward elimination of a square integer matrix; see the module docstring.

    ``definite`` is the verdict. ``pivots`` holds ``(k, row)`` per column c:
    the pivot row's index and its final entries, zero before column c.
    ``updates`` holds the ``(i, k, scale, f, g)`` records in the order they
    ran, flattened into one list, five ints per record. ``kernel`` is None
    for a nonsingular matrix. A singular one keeps only its verdict (False)
    and ``kernel``, a primitive integer vector Z with rows @ Z = 0. Nothing
    here is modified after ``factor`` returns.
    """

    __slots__ = ("definite", "pivots", "updates", "kernel")

    def __init__(self, definite, pivots, updates, kernel):
        self.definite = definite
        self.pivots = pivots
        self.updates = updates
        self.kernel = kernel

    def solve(self, rhs):
        """``(numerators, den)`` with x_i = numerators[i] / den, den > 0 least, or None if singular.

        ``rhs`` holds one int or Fraction per row.
        """
        if self.kernel is not None:
            return None
        rhs_den = lcm(*(b.denominator for b in rhs))
        b = [x.numerator * (rhs_den // x.denominator) for x in rhs]
        row_dens: dict[int, int] = {}  # rows whose entry of b has a denominator > 1
        fields = iter(self.updates)
        for i, k, scale, f, g in zip(fields, fields, fields, fields, fields):
            if row_dens and (i in row_dens or k in row_dens):
                di, dk = row_dens.get(i, 1), row_dens.get(k, 1)
                num, den = scale * b[i] * dk - f * b[k] * di, di * dk * g
            else:
                num = scale * b[i] - f * b[k]
                if g == 1:
                    b[i] = num
                    continue
                q, r = divmod(num, g)
                if not r:
                    b[i] = q
                    continue
                den = g
            h = gcd(num, den)
            b[i], den = num // h, den // h
            if den > 1:
                row_dens[i] = den
            else:
                row_dens.pop(i, None)
        nums, dens = _back_substitute(self.pivots, [0] * len(b), b, row_dens, rhs_den)
        common = lcm(*dens)
        return [x * (common // d) for x, d in zip(nums, dens)], common


def _back_substitute(pivots, nums, b, row_dens, rhs_den):
    """Reduced x_c = nums[c] / dens[c] for the pivot columns, from the last one down.

    The pivot row of column c, with index k, says row . x = b[k] / (rhs_den * row_dens[k]).
    Entries of ``nums`` past the pivot columns are given, over denominator 1.
    """
    dens = [1] * len(nums)
    for c in reversed(range(len(pivots))):
        k, row = pivots[c]
        num, den = b[k], rhs_den * row_dens.get(k, 1)
        for j, v in row.items():
            if j != c:
                num = num * dens[j] - v * nums[j] * den
                den *= dens[j]
        den *= row[c]
        g = gcd(num, den) if den > 0 else -gcd(num, den)
        nums[c], dens[c] = num // g, den // g
    return nums, dens


def _kernel(pivots, free, n):
    """The primitive integer Z, zero past ``free`` and positive at it, orthogonal to ``pivots``.

    ``pivots`` are the pivot rows of the columns before ``free``, which no row left has an entry in.
    """
    nums = [0] * n
    nums[free] = 1
    nums, dens = _back_substitute(pivots, nums, [0] * n, {}, 1)
    common = lcm(*dens)
    z = [x * (common // d) for x, d in zip(nums, dens)]
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
    filled = False  # whether some row has grown; only then can a row hold room for entries it lost
    for c in range(n):
        col = cols[c]
        k = c if c in col else min(col, default=None)
        if k is None:
            return None if stop_early else Factorization(False, [], [], _kernel(pivots, c, n))
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
            updates += (i, k, scale, f, g)
        col.clear()
    return Factorization(definite, pivots, updates, None)


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
    solution = factor(rows).solve(rhs)
    return None if solution is None else [Fraction(x, solution[1]) for x in solution[0]]


def is_negative_definite_matrix(matrix) -> bool:
    """Whether the symmetric integer ``matrix`` is negative definite (True when empty)."""
    return factor(_sparse(matrix), stop_early=True) is not None
