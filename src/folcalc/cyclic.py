"""Continued fractions for cyclic quotient points and sheaf-transform degrees.

A cyclic quotient point of type (1/n)(1,q) resolves into a string of rational
curves whose self-intersections -b_1, ..., -b_r come from the expansion

    n/q = b_1 - 1/(b_2 - 1/(... - 1/b_r)),   b_j >= 2.

The degrees of the torsion-free pull-backs of the reflexive eigensheaves
against the string curves are the greedy digits of i in the mixed radix
s_1 > s_2 > ... > s_r = 1, where s_0 = n, s_1 = q and
s_j = b_{j-1} s_{j-1} - s_{j-2}.

The expansion, the radix and the closed forms built on them need n and q
alone. Only ``hj_string_graph`` and ``fchain_profile`` build lattice objects;
they reach ``folcalc.lattice`` through the package, which loads it (and
``folcalc.linalg``) on their first call, so a process that never builds a
string graph never loads either.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import folcalc

from .errors import ValidationError
from .rationals import Record, exact_int, format_rational, require, setfield

MAX_STRING_CURVES = 100_000  # longest resolution string; (1/n)(1, n-1) has n - 1 curves


class CyclicType(Record):
    """Type (1/n)(1,q): n >= 2, 1 <= q < n, gcd(n, q) = 1.

    ``hj_string_graph`` keeps the resolution string it builds in ``_graph``,
    which is not a field: it takes no part in ``==``, ``hash``, ``repr`` or a
    pickle, and a copy builds its own.
    """

    n: int
    q: int
    _graph = None

    def __init__(self, n: int, q: int):
        if not (type(n) is int and type(q) is int and 1 <= q < n and gcd(n, q) == 1):
            n = exact_int(n, "n", 2)
            q = exact_int(q, "q", 1, n - 1)
            if gcd(n, q) != 1:
                raise ValidationError("gcd(n,q) must be 1")
        setfield(self, "n", n)
        setfield(self, "q", q)

    def __getstate__(self):
        return {"n": self.n, "q": self.q}


class HJExpansion(Record):
    """Entries b_1, ..., b_r, every one >= 2."""

    entries: tuple[int, ...]

    def __post_init__(self):
        if not require(self.entries, tuple, "entries"):
            raise ValidationError("a Hirzebruch-Jung expansion needs at least one entry")
        for b in self.entries:
            exact_int(b, "Hirzebruch-Jung entry", 2)

    def evaluate(self) -> Fraction:
        """Collapse b_1 - 1/(b_2 - ...) back to a single fraction."""
        value = Fraction(self.entries[-1])
        for b in reversed(self.entries[:-1]):
            value = b - 1 / value
        return value


class WunramDegrees(Record):
    """Radix data for one eigensheaf index i.

    ``s`` is (s_0, ..., s_r) with s_0 = n, s_1 = q, s_r = 1; ``d`` the digits
    (the degrees against the string curves) and ``remainders`` the trace
    (t_1, ..., t_r) with 0 <= t_j < s_j.
    """

    s: tuple[int, ...]
    d: tuple[int, ...]
    remainders: tuple[int, ...]


def _hj_loop(t: CyclicType) -> tuple[list[int], list[int]]:
    """The entries b_1, ..., b_r of n/q and the radix (s_0, ..., s_r) = (n, q, ..., 1).

    b_j is the ceiling of s_(j-1)/s_j, and s_(j+1) = b_j s_j - s_(j-1) ends at s_r = 1, then 0.
    """
    require(t, CyclicType, "t")
    entries, s = [], [t.n]
    a, b = t.n, t.q
    for _ in range(MAX_STRING_CURVES):
        k = -(-a // b)  # ceiling division forces k >= 2 while 0 < b < a
        entries.append(k)
        s.append(b)
        a, b = b, k * b - a
        if not b:
            return entries, s
    n, q = format_rational(t.n), format_rational(t.q)
    raise ValidationError(f"(1/{n})(1,{q}) resolves into more than {MAX_STRING_CURVES} curves")


def hj_expansion(t: CyclicType) -> HJExpansion:
    """Expand n/q with every entry the ceiling of the running quotient."""
    return HJExpansion(tuple(_hj_loop(t)[0]))


def hj_string_graph(t: CyclicType) -> folcalc.lattice.DualGraph:
    """The resolution string: curves C1..Cr, consecutive ones meeting once.

    Its rows are written straight from the entries, (1, -b_j, 1) around the
    diagonal, so no Curve or edge is built and checked on the way. The graph
    is built once per ``t`` and kept on it, so every call on ``t`` (the one
    inside ``fchain_profile`` too) returns the same graph, with its kept
    factorization (see ``folcalc.lattice``).
    """
    graph = require(t, CyclicType, "t")._graph
    if graph is None:
        entries = _hj_loop(t)[0]
        rows = [{j - 1: 1, j: -b, j + 1: 1} for j, b in enumerate(entries)]
        del rows[0][-1]
        del rows[-1][len(entries)]
        labels = tuple(f"C{j}" for j in range(1, len(entries) + 1))
        graph = folcalc.lattice.DualGraph._from_rows(labels, rows)
        setfield(t, "_graph", graph)
    return graph


def wunram_degrees(t: CyclicType, i: int) -> WunramDegrees:
    """Greedy digits of i in the radix s_1, ..., s_r.

    The index is range-checked only: it must lie in [0, n-1]. The radix comes
    from the recursion that also gives ``hj_expansion`` its entries.
    """
    require(t, CyclicType, "t")
    rem = exact_int(i, "i", 0, t.n - 1)
    s = _hj_loop(t)[1]
    digits, remainders = [], []
    for sj in s[1:]:
        dj, rem = divmod(rem, sj)
        digits.append(dj)
        remainders.append(rem)
    return WunramDegrees(tuple(s), tuple(digits), tuple(remainders))


def fchain_profile(t: CyclicType) -> folcalc.lattice.IntersectionProfile:
    """Degrees (-1, 0, ..., 0) on the resolution string of t, the graph ``hj_string_graph(t)`` itself.

    Solving the pull-back system for this profile produces the numerical
    class of the foliation canonical divisor on the string.
    """
    return folcalc.lattice.IntersectionProfile(hj_string_graph(t), {"C1": Fraction(-1)})
