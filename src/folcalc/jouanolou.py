"""The degree-d family of plane foliations and its quotient volumes.

Dividing the plane with the degree-d member by the order d^2+d+1 cyclic
symmetry yields a foliation with ample canonical class of self-intersection
(d-1)^2 / (d^2+d+1) and symmetry group of order 3(d^2+d+1); the volumes
increase strictly with d, stay below 1 and accumulate at 1 from below, with
the exact gap 1 - volume = 3d / (d^2+d+1) < 3/d. The quotient also acquires
three terminal foliation points; nothing about them is recorded here, since
the construction data tracked does not determine their cyclic types.
"""

from __future__ import annotations

from fractions import Fraction

from .rationals import Record, exact_int

MAX_DMAX = 10_000  # the report holds d_max - 1 entries and renders them all at once


class JouanolouEntry(Record):
    d: int
    volume: Fraction
    aut_order: int


class AccumulationReport(Record):
    entries: tuple[JouanolouEntry, ...]
    strictly_increasing: bool
    all_below_one: bool
    minimum: Fraction
    gap_at_dmax: Fraction
    gap_identity_holds: bool
    converges: bool


def jouanolou_entry(d: int) -> JouanolouEntry:
    """Exact volume and symmetry-group order of the degree-d quotient."""
    exact_int(d, "d", 2)
    denom = d * d + d + 1
    return JouanolouEntry(d=d, volume=Fraction((d - 1) ** 2, denom), aut_order=3 * denom)


def accumulation_report(d_max: int) -> AccumulationReport:
    """Entries for d = 2..d_max plus the exact accumulation-from-below verdicts.

    The gap identity 1 - volume(d) = 3d/(d^2+d+1) is asserted for every d and
    the convergence witness is the strict comparison of the final gap with
    3/d_max. d_max above MAX_DMAX is refused.
    """
    exact_int(d_max, "d_max", 2, MAX_DMAX)
    entries = tuple(jouanolou_entry(d) for d in range(2, d_max + 1))
    volumes = [e.volume for e in entries]
    gap_identity = all(
        1 - e.volume == Fraction(3 * e.d, e.d * e.d + e.d + 1) for e in entries
    )
    gap = 1 - volumes[-1]
    return AccumulationReport(
        entries=entries,
        strictly_increasing=all(a < b for a, b in zip(volumes, volumes[1:])),
        all_below_one=all(v < 1 for v in volumes),
        minimum=min(volumes),
        gap_at_dmax=gap,
        gap_identity_holds=gap_identity,
        converges=gap < Fraction(3, d_max),
    )
