"""Exact linear algebra: one sparse, fraction-free elimination kernel.

Every caller needs the same two facts about a square exact matrix: whether
it is negative definite, and the solution of a system against it. A
``Factorization`` is one growing elimination of a set of integer rows: it
takes rows, eliminates their columns and records what it did, and
``Factorization.solve`` replays that record on a rhs. ``factor`` is the
elimination that takes every row of a matrix at once. A caller that asks one
matrix several questions keeps the ``Factorization`` and pays for the
elimination once; a caller that asks about a growing principal submatrix,
as the Zariski passes do, keeps one elimination and has it take the new rows.
``solve_exact`` and ``is_negative_definite_matrix`` are its dense-matrix
front ends.

Rows. Each row is a sparse ``{column: entry}`` dict of its nonzero integer
entries. The rows taken are the principal submatrix on the taken indices,
but each is carried whole: entries in columns not taken ride along through
every update, are read as 0 by the replay, and are there when their column
is taken later. A replay's rhs holds ints too, so the kernel never touches a
Fraction: a caller with a rational rhs puts it over one common denominator
once, solves on the numerators and multiplies that denominator into the
returned one (``solve_exact`` does so for its dense rhs).

Order. A take first brings each new row up to date against the pivot rows
already there, in the order their columns were taken: the pivot row of
column c is zero in every column taken before c, so the fill it brings lands
only in columns taken after it, which the row then meets in turn. Then the
new columns are eliminated in index order. ``factor`` takes every row in
index order, so its columns are eliminated in index order. On a string whose
curves are numbered along the path, as resolution strings are, the pivot row
of column c meets only row c + 1, so no row ever grows; other sparse
patterns may fill in. The order depends on the rows and the takes alone, so
one record serves every rhs.

Pivot rule. The pivot of a new column c is the diagonal entry when row c
remains and that entry is nonzero; otherwise it is the first remaining row
of the take, by index, with a nonzero entry in column c. When there is none,
the rows taken are singular, and back substitution through the pivot rows of
the earlier columns, from x_c = the product of their |pivots|, gives an
integer kernel vector.

Update. Every other row i with a_ic != 0 that is not yet a pivot row becomes
``(|p| * row_i - f * row_k) / g`` with k the pivot row, p its pivot,
f = sign(p) * a_ic and g the gcd of the new row's entries. All arithmetic is
on integers, rows the step does not touch are left alone, and the step is
recorded as ``(i, k, |p|, f, g)``. Each step multiplies the determinant by
|p| / g, and the pivot rows end up triangular, so D, the |det| of the block
taken so far, is the product of the pivots' |p| and every g over the
product of every update's |p|; each take carries it from the last. By
Cramer's rule y = D * x is an integer vector for an integer rhs. The replay
applies the same steps to D * rhs in the same order, and after each step row
i's entry is (row i) . y, so every division by g is exact. Back substitution
through the pivot rows then gives y on integers, one exact division by the
pivot per column, and one gcd at the end reduces y / D.

Verdict. With diagonal pivots the elimination is Gaussian elimination of the
block itself, in the order its columns were taken, and its k-th pivot is, up
to a positive factor, the ratio D_k / D_(k-1) of consecutive leading
principal minors in that order. Sylvester's criterion holds in any order, so
a symmetric block is negative definite exactly when every pivot was diagonal
and negative. The verdict is part of the record. With ``stop_early`` a take
stops at the first pivot that rules definiteness out, a missing one
included, and returns False; the elimination is then of no further use, and
``factor`` returns no record. So any record it returns is complete and
definite.

Complexity. A step costs the lengths of the rows it touches; a replay costs
one integer update per record, one multiply per entry of the pivot rows and
one gcd at the end. On a string of r curves both are O(r), against O(r^3)
for dense elimination; a dense matrix still costs O(r^3) to factor and
O(r^2) per replay. A take costs the steps of its new rows alone, so growing
one elimination a few rows at a time costs what taking them all at once
does: the Zariski passes down a string of r curves make O(r) row updates in
all, not O(r) per pass. That holds while the order of the takes adds no
fill. A take in the wrong order can fill in badly: on a star whose hub is
taken before its leaves, each leaf row brought up to date against the hub's
pivot row gains an entry for every other leaf. So a take first weighs the
entries of the pivot rows its rows meet against the entries of every row
taken and to be taken; when the first is more, the elimination starts over
and takes all those rows afresh, in index order. On a string the pivot rows
a row meets are no longer than the row, so a string taken a few curves at a
time never starts over. A ``Factorization`` holds the filled pivot rows and
one record per row update: O(r) on a string, O(fill) in general. Once some
row has filled in, each pivot row is copied when it is chosen, since a dict
keeps the room of the entries it lost.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod

from .errors import ValidationError
from .rationals import exact_int


class Factorization:
    """One growing forward elimination of the integer ``rows`` it was made on; see the module docstring.

    ``take`` adds rows; nothing else modifies the record. ``definite`` is the
    verdict so far. ``pivots`` holds ``(k, row)`` per pivot column, in the
    order the columns were taken: the pivot row's index and its final entries,
    zero in every column taken before. ``columns`` lists those columns in the
    same order. ``updates`` holds the ``(i, k, scale, f, g)`` records in the
    order they ran, flattened into one list, five ints per record. ``det`` is
    the |det| of the block taken so far, which scales the rhs of every replay.
    ``kernel`` is None for a nonsingular block. A singular one keeps only its
    verdict (False), ``det`` = 0 and ``kernel``, a primitive integer vector Z,
    zero in every column not taken, with row . Z = 0 for every row taken.
    """

    __slots__ = ("definite", "pivots", "columns", "updates", "det", "kernel", "_rows", "_work", "_cols", "_position")

    def __init__(self, rows):
        """An elimination of ``rows``, one ``{column: int}`` mapping per row, that has taken none yet.

        Each row is copied; ``rows`` is not modified.
        """
        # _work: a copy of each row taken, as eliminated so far; _cols[j]: the rows of the take under
        # way with a nonzero entry in column j, empty between takes. They and _rows go once every
        # row is taken.
        self._rows = rows
        self._work: list[dict[int, int] | None] = [None] * len(rows)
        self._cols: list[set[int]] = [set() for _ in rows]
        self._position: dict[int, int] = {}  # a taken column's index in ``columns``, filled in lazily
        self.definite = True
        self.pivots: list[tuple[int, dict[int, int]]] = []
        self.columns: list[int] = []
        self.updates: list[int] = []
        self.det = 1
        self.kernel = None

    def take(self, block, stop_early: bool = False) -> bool:
        """Take the rows ``block``, ascending indices none of which was taken before, and eliminate their columns.

        Returns False, and leaves the elimination of no further use, when
        ``stop_early`` stops it at a pivot that rules definiteness out or a
        missing one; otherwise True, a singular block included. A take whose
        rows meet pivot rows holding more entries than the rows taken and to
        be taken starts the elimination over (see the module docstring).
        """
        pivots, columns, updates = self.pivots, self.columns, self.updates
        rows, work, cols, position = self._rows, self._work, self._cols, self._position
        order = block
        if columns:
            for t in range(len(position), len(columns)):  # the columns taken since the last take
                position[columns[t]] = t
            pending = set()  # where in ``columns`` the pivot columns the rows meet are
            cost = 0  # the entries of the pivot rows they meet
            for i in block:
                for j in rows[i]:
                    t = position.get(j)
                    if t is not None:
                        pending.add(t)
                        cost += len(pivots[t][1])
            fresh = sum(len(rows[i]) for i in block)  # the rows taken so far are counted only past this
            if cost > fresh and cost > fresh + sum(len(rows[c]) for c in columns):
                # bringing the rows up to date would cost more than eliminating every row afresh
                self.__init__(rows)
                return self.take(sorted(columns + list(block)), stop_early)
            order = _catch_up(pending, columns, block)
        if len(block) == len(work):  # every row at once
            work[:] = map(dict, rows)
        else:
            for i in block:
                work[i] = dict(rows[i])
        for i in block:
            for j in work[i]:
                cols[j].add(i)
        det_num, det_den = self.det, 1  # D = det_num / det_den: each column's |p|^(1 - updates) and every g
        filled = False  # whether some row has grown; only then can a row hold room for entries it lost
        for c in order:
            col = cols[c]
            if position and c in position:  # a column taken before: bring the rows up to date against it
                k, pivot_row = pivots[position[c]]
                p = pivot_row[c]
                scale = abs(p)
                det_den *= scale ** len(col)
            else:
                k = c if c in col else min(col, default=None)
                if k is None:
                    if stop_early:
                        return False
                    taken = columns + list(block)[: len(pivots) - len(columns)]
                    self.kernel = _kernel(pivots, taken, c, len(work))
                    self.definite, self.pivots, self.columns, self.updates, self.det = False, [], [], [], 0
                    self._rows = self._work = self._cols = None
                    return True
                pivot_row = work[k]
                p = pivot_row[c]
                if k != c or p > 0:
                    if stop_early:
                        return False
                    self.definite = False
                if filled:
                    work[k] = pivot_row = dict(pivot_row)  # a fresh dict is sized to the row
                pivots.append((k, pivot_row))
                for j in pivot_row:
                    cols[j].discard(k)
                scale = abs(p)
                if not col:
                    det_num *= scale
                elif len(col) > 1:
                    det_den *= scale ** (len(col) - 1)
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
                            if j in position:  # only while catching up: fill in an earlier pivot column
                                pending.add(position[j])
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
        columns += block  # a take that ends here pivots its columns in order
        if len(columns) == len(work):  # no row is left to take
            self._rows = self._work = self._cols = None
        self.det = det_num // det_den
        return True

    def solve(self, rhs):
        """``(numerators, den)`` with x_c = numerators[c] / den, den > 0 least, or None if singular.

        ``rhs`` holds one int per row the elimination was made on; the entries
        of rows not taken are not read, and x is 0 in every column not taken.
        Any other entry, a Fraction, bool or float included, is refused with
        ``ValidationError``, since ``//`` on a Fraction would give a wrong
        answer silently. A caller with a rational rhs puts it over one common
        denominator, solves on the numerators and multiplies that denominator
        into ``den``.
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
        y = _back_substitute(self.pivots, self.columns, [0] * len(b), b)
        h = gcd(den, *y)
        return [x // h for x in y], den // h


def _catch_up(pending, columns, block):
    """The columns at the positions ``pending`` of ``columns``, least first as the set grows, then ``block``."""
    while pending:
        t = min(pending)
        pending.remove(t)
        yield columns[t]
    yield from block


def _back_substitute(pivots, columns, y, b):
    """``y`` with y_c = (b[k] - sum of v_j * y_j over j != c) // p_c for the pivot columns, last first.

    The pivot row of column c, with index k and pivot p_c, says row . y = b[k]; entries of ``y``
    outside the pivot columns are given. Each division is exact when that y is an integer vector.
    """
    for t in reversed(range(len(pivots))):
        k, row = pivots[t]
        c = columns[t]
        acc = b[k]
        for j, v in row.items():
            if j != c:
                acc -= v * y[j]
        y[c] = acc // row[c]
    return y


def _kernel(pivots, columns, free, n):
    """The primitive integer Z, zero outside ``columns`` and ``free`` and positive at it, orthogonal to ``pivots``.

    ``pivots`` are the pivot rows of ``columns``, which no row left has an entry in. They form a
    triangular block, so with Z_free the product of their |p_c| every Z_c is an integer by
    Cramer's rule.
    """
    y = [0] * n
    y[free] = prod(abs(row[c]) for c, (_, row) in zip(columns, pivots))
    z = _back_substitute(pivots, columns, y, [0] * n)
    content = gcd(*z)
    return [x // content for x in z]


def factor(rows, *, stop_early: bool = False) -> Factorization | None:
    """Eliminate the square integer matrix ``rows`` once, recording every row update.

    ``rows`` gives the nonzero entries, one ``{column: int}`` mapping per row;
    it is not modified. This is the elimination that takes every row at once.
    With ``stop_early``, a pivot that rules definiteness out, or a missing one,
    stops elimination and returns None.
    """
    record = Factorization(rows)
    return record if record.take(range(len(rows)), stop_early) else None


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
