"""Curve configurations and their exact intersection theory.

A configuration is a finite list of labelled curves with integer
self-intersections together with a symmetric, nonnegative integer adjacency;
these assemble into the pairing matrix (C_i . C_j), and a ``DualGraph`` is
just its labels and the sparse rows of that matrix. Divisors supported on
the configuration are formal rational combinations of the curves and pair
bilinearly through that matrix. Prescribing the intersection number of an
unknown combination against every curve is an exact linear solve against the
pairing matrix; it has a unique solution exactly when the matrix is
invertible (negative definiteness suffices).

Everything here is pure and exact: public scalars are ``fractions.Fraction``,
there is no floating point, and all functions are safe to call concurrently
(two callers may both factor a graph that has no kept factorization yet;
either record gives the same answers).
Inside, Z . C sums run on integers: a divisor's coefficients become integer
numerators over one positive common denominator (``_by_index``), and
``degree_vector`` maps those to integer numerators of Z . C_j over the same
denominator; a Fraction is built only for a result.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .errors import DegenerateConfigurationError, ValidationError
from .linalg import factor
from .rationals import exact_int, format_rational, parse_rational, require


@dataclass(frozen=True)
class Curve:
    """One vertex of a dual graph."""

    label: str
    self_intersection: int

    def __post_init__(self):
        exact_int(self.self_intersection, "self-intersection")


class DualGraph:
    """Weighted configuration graph carrying the symmetric pairing.

    A graph is its unique ``labels`` and its ``sparse_rows``: per curve, the
    nonzero entries of its matrix row as a ``{curve index: entry}`` dict, not
    to be modified. Off-diagonal entries are nonnegative integers; diagonal
    entries are the self-intersections (any integer). Cycles and non-definite
    lattices are allowed. ``curves`` is derived from the rows on each read;
    ``intersection_matrix`` builds the dense form.

    The first elimination of the whole pairing that runs to completion is
    kept in ``_factorization`` (see ``folcalc.linalg``), so later pull-backs
    and full-support definiteness checks replay it instead of eliminating
    again. It stays with the graph for as long as the graph lives, takes no
    part in ``==`` or ``hash``, and gives the answers a fresh equal graph gives.
    """

    __slots__ = ("labels", "sparse_rows", "_index", "_factorization")

    def __init__(self, curves: Iterable[Curve], edges: Iterable[Sequence] = ()):
        try:
            curves = tuple(curves)
            labels = tuple(require(c, Curve, "curve").label for c in curves)
            index = {label: i for i, label in enumerate(labels)}  # TypeError: an unhashable label
            rows: list[dict[int, int]] = [{i: c.self_intersection} for i, c in enumerate(curves)]
            edges = iter(edges)
        except TypeError:
            raise ValidationError("a dual graph needs iterables of Curves and of edges") from None
        if len(index) != len(labels):
            raise ValidationError("curve labels must be unique")
        for edge in edges:
            try:
                a, b, mult = edge
            except (TypeError, ValueError):
                message = f"edge {edge!r} is not a (label, label, multiplicity) triple"
                raise ValidationError(message) from None
            try:
                i, j = index[a], index[b]
            except (KeyError, TypeError):
                raise ValidationError(f"edge {a!r}-{b!r} uses an unknown label") from None
            if i == j:
                raise ValidationError(f"edge {a!r}-{b!r} is a loop; use the self-intersection instead")
            exact_int(mult, "edge multiplicity", 0)
            rows[i][j] = rows[j][i] = rows[i].get(j, 0) + mult
        self._fill(labels, [{j: v for j, v in row.items() if v} for row in rows], index)

    @classmethod
    def _from_rows(cls, labels: tuple[str, ...], rows: Sequence[dict[int, int]]) -> "DualGraph":
        """The graph of ``labels`` and ``rows`` as given: the caller vouches for what ``__init__`` checks."""
        graph = cls.__new__(cls)
        graph._fill(labels, rows, {label: i for i, label in enumerate(labels)})
        return graph

    def _fill(self, labels: tuple[str, ...], rows: Sequence[dict[int, int]], index: dict[str, int]):
        self.labels = labels
        self.sparse_rows = tuple(rows)
        self._index = index
        self._factorization = None

    @property
    def curves(self) -> tuple[Curve, ...]:
        """One Curve per label, built on each read from the diagonal of its row."""
        rows = self.sparse_rows
        return tuple(Curve(label, rows[i].get(i, 0)) for i, label in enumerate(self.labels))

    def index_of(self, label: str) -> int:
        try:
            return self._index[label]
        except (KeyError, TypeError):  # TypeError: an unhashable label
            raise ValidationError(f"unknown curve label {label!r}") from None

    def __len__(self) -> int:
        return len(self.labels)

    def __eq__(self, other) -> bool:
        # a self-intersection is its row's diagonal entry (absent when 0)
        return (
            isinstance(other, DualGraph)
            and self.labels == other.labels
            and self.sparse_rows == other.sparse_rows
        )

    def __hash__(self) -> int:
        return hash((self.labels, tuple(tuple(sorted(row.items())) for row in self.sparse_rows)))

    def __repr__(self) -> str:
        return f"DualGraph({list(self.labels)!r})"


def _coeff_map(graph: DualGraph, coefficients: Mapping[str, object], what: str) -> dict[str, Fraction]:
    require(graph, DualGraph, "graph")
    out: dict[str, Fraction] = {}
    for label, value in require(coefficients, Mapping, what).items():
        graph.index_of(label)
        v = value if isinstance(value, Fraction) else parse_rational(value)
        if v:
            out[label] = v
    return out


@dataclass(frozen=True)
class QDivisor:
    """Formal rational combination of the curves of a graph.

    Zero coefficients are dropped, so equality of divisors is equality of the
    stored maps. Missing labels read as coefficient 0.
    """

    graph: DualGraph
    coefficients: Mapping[str, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        coefficients = _coeff_map(self.graph, self.coefficients, "divisor coefficients")
        object.__setattr__(self, "coefficients", coefficients)

    def coefficient(self, label: str) -> Fraction:
        self.graph.index_of(label)
        return self.coefficients.get(label, Fraction(0))

    @property
    def support(self) -> tuple[str, ...]:
        return tuple(label for label in self.graph.labels if label in self.coefficients)

    def __add__(self, other: "QDivisor") -> "QDivisor":
        _on_graph(self.graph, other)
        merged = dict(self.coefficients)
        for label, v in other.coefficients.items():
            merged[label] = merged.get(label, Fraction(0)) + v
        return QDivisor(self.graph, merged)

    def __sub__(self, other: "QDivisor") -> "QDivisor":
        _on_graph(self.graph, other)
        return self + (-other)

    def __neg__(self) -> "QDivisor":
        return QDivisor(self.graph, {label: -v for label, v in self.coefficients.items()})

    def __rmul__(self, scalar) -> "QDivisor":
        s = Fraction(require(scalar, (int, Fraction), "scalar"))
        return QDivisor(self.graph, {label: s * v for label, v in self.coefficients.items()})

    def __repr__(self) -> str:
        body = " + ".join(f"({format_rational(v)})*{k}" for k, v in sorted(self.coefficients.items()))
        return f"QDivisor({body or '0'})"


@dataclass(frozen=True)
class IntersectionProfile:
    """Prescribed intersection numbers D . C_i, one per curve (missing = 0)."""

    graph: DualGraph
    degrees: Mapping[str, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "degrees", _coeff_map(self.graph, self.degrees, "profile degrees"))


def _on_graph(graph: DualGraph, *parts, kind: type = QDivisor) -> None:
    """Refuse each of ``parts`` that is not a ``kind`` on ``graph``; its type is checked first."""
    for part in parts:
        if require(part, kind, "argument").graph != graph:
            raise ValidationError("divisor or profile belongs to a different graph")


def intersection_matrix(graph: DualGraph) -> list[list[int]]:
    """The full symmetric pairing matrix, diagonal included."""
    n = len(require(graph, DualGraph, "graph").labels)
    dense = [[0] * n for _ in range(n)]
    for i, row in enumerate(graph.sparse_rows):
        for j, v in row.items():
            dense[i][j] = v
    return dense


def _factored(graph: DualGraph, stop_early: bool = False):
    """The graph's factorization of its whole pairing, made and kept on first use.

    With ``stop_early`` a pairing that is not negative definite gives None, and nothing is kept.
    """
    record = graph._factorization
    if record is None:
        record = graph._factorization = factor(graph.sparse_rows, stop_early=stop_early)
    return record


def is_negative_definite(graph: DualGraph, support: Iterable[str]) -> bool:
    """Whether the principal submatrix on ``support`` is negative definite.

    Decided by the signs of the pivots of one sparse exact elimination; see
    ``folcalc.linalg``. On the whole graph the verdict is read from its kept
    factorization when there is one.
    """
    require(graph, DualGraph, "graph")
    chosen = {graph.index_of(label) for label in require(support, Iterable, "support")}
    if not chosen:
        raise ValidationError("support must be nonempty")
    if len(chosen) == len(graph.labels):
        record = _factored(graph, stop_early=True)
        return record is not None and record.definite
    return factor(principal_rows(graph, sorted(chosen)), stop_early=True) is not None


def principal_rows(graph: DualGraph, idxs: Sequence[int]) -> list[dict[int, int]]:
    """Sparse rows of the principal submatrix on the curve indices ``idxs``.

    Row and column k of the result stand for curve ``idxs[k]``.
    """
    position = {i: k for k, i in enumerate(idxs)}
    return [
        {position[j]: v for j, v in graph.sparse_rows[i].items() if j in position}
        for i in idxs
    ]


def solve_pullback(graph: DualGraph, profile: IntersectionProfile) -> QDivisor:
    """The unique combination Z of all curves with Z . C_j as prescribed.

    Raises DegenerateConfigurationError when the pairing matrix is singular
    (cusp cycles, for instance); such configurations need the local
    contribution tables instead of a solve. Its ``location`` names the curves
    of an exact kernel vector, a nonzero Z with Z . C_j = 0 for every curve.
    One elimination per graph: later calls replay the kept factorization.
    """
    _on_graph(graph, profile, kind=IntersectionProfile)
    record = _factored(graph)
    rhs = [profile.degrees.get(label, 0) for label in graph.labels]
    solution = record.solve(rhs)
    if solution is None:
        raise DegenerateConfigurationError(
            "degenerate configuration: pairing matrix is singular",
            location=", ".join(label for label, z in zip(graph.labels, record.kernel) if z),
        )
    xs, den = solution
    return QDivisor(graph, {label: Fraction(x, den) for label, x in zip(graph.labels, xs)})


def degree_vector(graph: DualGraph, coefficients: Mapping[int, int]) -> list[int]:
    """Z . C_j for every curve j of the graph, Z given as {curve index: integer coefficient}.

    Integers go in and integers come out: for Z's numerators over a common
    denominator, entry j is the numerator of Z . C_j over that denominator.
    One pass over the sparse rows of Z's curves, so linear in their entries.
    """
    out = [0] * len(graph)
    for i, x in coefficients.items():
        for j, v in graph.sparse_rows[i].items():
            out[j] += x * v
    return out


def _by_index(d: QDivisor) -> tuple[dict[int, int], int]:
    """d's coefficients as ({curve index: numerator}, den), den > 0 their common denominator."""
    coefficients = d.coefficients
    den = lcm(*(x.denominator for x in coefficients.values()))
    index = d.graph._index
    return {index[label]: x.numerator * (den // x.denominator) for label, x in coefficients.items()}, den


def pair(d1: QDivisor, d2: QDivisor) -> Fraction:
    """Bilinear symmetric intersection number of two divisors."""
    _on_graph(getattr(d1, "graph", None), d1, d2)
    coefficients2, den2 = _by_index(d2)
    degrees = degree_vector(d2.graph, coefficients2)
    coefficients1, den1 = _by_index(d1)
    return Fraction(sum(x * degrees[i] for i, x in coefficients1.items()), den1 * den2)


def degree_against_curve(d: QDivisor, label: str) -> Fraction:
    """d . C for a single curve C of the graph: d's coefficients dotted with C's row."""
    graph = require(d, QDivisor, "d").graph
    coefficients = d.coefficients
    total = Fraction(0)
    for j, v in graph.sparse_rows[graph.index_of(label)].items():
        x = coefficients.get(graph.labels[j])
        if x is not None:
            total += x * v
    return total


@dataclass(frozen=True)
class HodgeReport:
    """Outcome of an index-inequality check on a pair of divisors.

    ``inequality_holds`` and the equality fields stay None when the Gram form
    of the pair is negative semidefinite: no witness exists, nothing is claimed.
    """

    hypothesis_holds: bool
    witness: tuple[int, int] | None
    inequality_holds: bool | None
    equality_with_trivial_combination: bool | None
    trivial_combination: tuple[Fraction, Fraction] | None
    products: tuple[Fraction, Fraction, Fraction]


def _trivial_combination(d1: QDivisor, d2: QDivisor) -> tuple[Fraction, Fraction] | None:
    """Nonzero (b1, b2) with (b1*d1 + b2*d2) . C = 0 for every curve, if one exists."""
    coefficients1, den1 = _by_index(d1)
    coefficients2, den2 = _by_index(d2)
    v1 = degree_vector(d1.graph, coefficients1)
    v2 = degree_vector(d2.graph, coefficients2)
    if not any(v1):
        return (Fraction(1), Fraction(0))
    if not any(v2):
        return (Fraction(0), Fraction(1))
    j0 = next(j for j, v in enumerate(v1) if v)
    # v2 / den2 = lam * v1 / den1 entrywise, tested by cross-multiplication
    if all(v2[j] * v1[j0] == v2[j0] * v1[j] for j in range(len(v1))):
        return (Fraction(v2[j0] * den1, v1[j0] * den2), Fraction(-1))
    return None


def _positive_point(s11: Fraction, s12: Fraction, s22: Fraction) -> tuple[int, int] | None:
    """Coprime integers (a1, a2) with a1^2 s11 + 2 a1 a2 s12 + a2^2 s22 > 0, None if none exist.

    Past a positive diagonal entry, a form with s11, s22 <= 0 and s11 s22 < s12^2
    takes the value s11 (s11 s22 - s12^2) > 0 at (-s12, s11), s22 (s11 s22 - s12^2) > 0
    at (s22, -s12), and 2 |s12| at (1, sign s12) when s11 = s22 = 0. The value
    is even in (a1, a2), so the point is returned as the reduced ratio a1/a2.
    """
    if s11 <= 0 and s22 <= 0 and s11 * s22 >= s12 * s12:
        return None  # negative semidefinite
    if s11 > 0 or s22 > 0:
        return (1, 0) if s11 > 0 else (0, 1)
    if not s11 and not s22:
        return (1, 1 if s12 > 0 else -1)
    ratio = -s12 / s11 if s11 else s22 / -s12
    return (ratio.numerator, ratio.denominator)


def hodge_inequality_check(d1: QDivisor, d2: QDivisor) -> HodgeReport:
    """Check d1^2 d2^2 <= (d1 . d2)^2 under the positivity hypothesis.

    The hypothesis "(a1 d1 + a2 d2)^2 > 0 for some reals" holds exactly when
    the Gram form of d1, d2 is not negative semidefinite, and is then
    witnessed by a closed-form integer point. When equality holds the check
    also searches for an exact rational combination pairing to zero with
    every curve.
    """
    _on_graph(getattr(d1, "graph", None), d1, d2)
    s11 = pair(d1, d1)
    s12 = pair(d1, d2)
    s22 = pair(d2, d2)
    products = (s11, s12, s22)
    witness = _positive_point(s11, s12, s22)
    if witness is None:
        return HodgeReport(False, None, None, None, None, products)
    inequality = s11 * s22 <= s12 * s12
    if s11 * s22 == s12 * s12:
        combination = _trivial_combination(d1, d2)
        return HodgeReport(True, witness, inequality, combination is not None, combination, products)
    return HodgeReport(True, witness, inequality, None, None, products)


def chi_additivity_check(triples: Iterable[Sequence[int]]) -> bool:
    """Verify per-point additivity of modified Euler characteristics.

    Each triple is (value for f, value for g, value for the composite); the
    composite must be the sum of the two stages, pointwise.
    """
    ok = True
    try:
        for f, g, composite in triples:
            for v in (f, g, composite):
                exact_int(v, "modified Euler characteristic", 0)
            if composite != f + g:
                ok = False
    except (TypeError, ValueError):
        raise ValidationError("chi additivity needs an iterable of (f, g, composite) triples") from None
    return ok


# --- JSON forms -----------------------------------------------------------
#
# graph:   {"curves": [{"label": str, "self": int}, ...],
#           "edges": [[str, str, int], ...]}
# divisor / profile: flat map {label: "p/q" | int, ...}


def graph_from_json(obj) -> DualGraph:
    if not isinstance(obj, dict) or not isinstance(obj.get("curves"), list):
        raise ValidationError('graph JSON must be an object with a "curves" list')
    if not isinstance(obj.get("edges", []), list):
        raise ValidationError('graph JSON "edges" must be a list')
    curves = []
    for entry in obj["curves"]:
        if not isinstance(entry, dict) or "label" not in entry or "self" not in entry:
            raise ValidationError('each curve needs "label" and "self" fields')
        curves.append(Curve(str(entry["label"]), entry["self"]))
    edges = []
    for edge in obj.get("edges", ()):
        if not isinstance(edge, (list, tuple)) or len(edge) != 3:
            raise ValidationError("each edge must be [label, label, multiplicity]")
        edges.append((str(edge[0]), str(edge[1]), edge[2]))
    return DualGraph(curves, edges)


def divisor_from_json(graph: DualGraph, obj) -> QDivisor:
    if not isinstance(obj, dict):
        raise ValidationError("divisor JSON must be an object mapping labels to rationals")
    return QDivisor(graph, {str(k): parse_rational(v) for k, v in obj.items()})


def divisor_to_json(d: QDivisor) -> dict:
    return {label: format_rational(v) for label, v in sorted(require(d, QDivisor, "d").coefficients.items())}


def profile_from_json(graph: DualGraph, obj) -> IntersectionProfile:
    if not isinstance(obj, dict):
        raise ValidationError("profile JSON must be an object mapping labels to rationals")
    return IntersectionProfile(graph, {str(k): parse_rational(v) for k, v in obj.items()})
