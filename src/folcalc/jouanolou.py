"""The degree-d family of plane foliations and its quotient volumes.

Dividing the plane with the degree-d member by the order d^2+d+1 cyclic
symmetry yields a foliation with ample canonical class of self-intersection
(d-1)^2 / (d^2+d+1) and symmetry group of order 3(d^2+d+1); the volumes
increase strictly with d, stay below 1 and accumulate at 1 from below, with
the exact gap 1 - volume = 3d / (d^2+d+1) < 3/d. The quotient acquires three
terminal foliation points; only their count is recorded here, their cyclic
types are not determined by the construction data we track.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ValidationError

QUOTIENT_TERMINAL_POINTS = 3
MAX_DMAX = 10_000  # the report holds d_max - 1 entries and renders them all at once


@dataclass(frozen=True)
class JouanolouEntry:
    d: int
    volume: Fraction
    aut_order: int


@dataclass(frozen=True)
class AccumulationReport:
    entries: tuple[JouanolouEntry, ...]
    strictly_increasing: bool
    all_below_one: bool
    minimum: Fraction
    gap_at_dmax: Fraction
    gap_bound: Fraction
    gap_identity_holds: bool
    converges: bool


def jouanolou_entry(d: int) -> JouanolouEntry:
    """Exact volume and symmetry-group order of the degree-d quotient."""
    if not isinstance(d, int) or isinstance(d, bool) or d < 2:
        raise ValidationError("d must be an integer >= 2")
    denom = d * d + d + 1
    return JouanolouEntry(d=d, volume=Fraction((d - 1) ** 2, denom), aut_order=3 * denom)


def accumulation_report(d_max: int) -> AccumulationReport:
    """Entries for d = 2..d_max plus the exact accumulation-from-below verdicts.

    The gap identity 1 - volume(d) = 3d/(d^2+d+1) is asserted for every d and
    the convergence witness is the strict comparison of the final gap with
    3/d_max. d_max above MAX_DMAX is refused.
    """
    if not isinstance(d_max, int) or isinstance(d_max, bool) or not 2 <= d_max <= MAX_DMAX:
        raise ValidationError(f"d_max must be an integer in [2, {MAX_DMAX}]")
    entries = tuple(jouanolou_entry(d) for d in range(2, d_max + 1))
    volumes = [e.volume for e in entries]
    gap_identity = all(
        1 - e.volume == Fraction(3 * e.d, e.d * e.d + e.d + 1) for e in entries
    )
    gap = 1 - volumes[-1]
    bound = Fraction(3, d_max)
    return AccumulationReport(
        entries=entries,
        strictly_increasing=all(a < b for a, b in zip(volumes, volumes[1:])),
        all_below_one=all(v < 1 for v in volumes),
        minimum=min(volumes),
        gap_at_dmax=gap,
        gap_bound=bound,
        gap_identity_holds=gap_identity,
        converges=gap < bound,
    )
