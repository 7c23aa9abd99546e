"""Curve configurations and their exact intersection theory.

A configuration is a finite list of labelled curves with integer
self-intersections together with a symmetric, nonnegative integer adjacency;
these assemble into the pairing matrix (C_i . C_j), and a ``DualGraph`` is
just its labels and the sparse rows of that matrix. Divisors supported on
the configuration are formal rational combinations of the curves and pair
bilinearly through that matrix. Prescribing the intersection number of an
unknown combination against every curve is an exact linear solve against the
pairing matrix; it has a unique solution exactly when the matrix is
invertible (negative definiteness suffices). A graph eliminates its whole
pairing at most once, to the end, for whichever comes first of a pull-back
and a whole-graph definiteness check, and keeps it for every later one.

Everything here is pure and exact: public scalars are ``fractions.Fraction``,
there is no floating point, and all functions are safe to call concurrently
(two callers may both factor a graph that has no kept factorization yet, or
both build the string graph ``cyclic.hj_string_graph`` keeps on a
``CyclicType``; either record or graph gives the same answers, and a divisor
or profile on one graph is accepted on the other, since they are equal).
Divisors and profiles have one format: integer numerators by curve index over
one denominator den > 0, with no zero numerator and gcd(den, numerators) = 1.
It is canonical, so equal divisors store equal pairs and ``==`` compares the
pairs. The public constructors check each label, then its value, and take the
lcm of the denominators; computed divisors (pull-backs, ``zariski``,
arithmetic) come from ``QDivisor._reduced``, which drops zeros and divides out
one gcd. All work runs on the pair: ``degree_vector`` maps Z's numerators to
those of Z . C_j over the same den, ``solve_pullback`` hands the profile's
numerators to ``folcalc.linalg``, and ``divisor_to_json`` prints from the
ints. A Fraction is built only for a public scalar or a read of
``coefficients`` or ``degrees``.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType

from .errors import DegenerateConfigurationError, ValidationError
from .linalg import factor
from .rationals import Record, exact_int, format_ratio, parse_rational, require, setfield


class Curve(Record):
    """One vertex of a dual graph: a string label and an integer self-intersection."""

    label: str
    self_intersection: int

    def __init__(self, label: str, self_intersection: int):
        if type(label) is not str or type(self_intersection) is not int:
            require(label, str, "label")
            exact_int(self_intersection, "self-intersection")
        setfield(self, "label", label)
        setfield(self, "self_intersection", self_intersection)


class DualGraph:
    """Weighted configuration graph carrying the symmetric pairing.

    A graph is its unique ``labels`` and its ``sparse_rows``: per curve, the
    nonzero entries of its matrix row as a ``{curve index: entry}`` dict, not
    to be modified. Off-diagonal entries are nonnegative integers; diagonal
    entries are the self-intersections (any integer). Cycles and non-definite
    lattices are allowed. ``curves`` is derived from the rows on each read;
    ``intersection_matrix`` builds the dense form.

    The whole pairing is eliminated at most once, to the end, by whichever
    question comes first: a pull-back or a whole-graph definiteness check.
    That factorization is kept in ``_factorization`` (see ``folcalc.linalg``),
    and every later one of those questions replays it. It stays with the
    graph for as long as the graph lives, takes no part in ``==`` or
    ``hash``, and gives the answers a fresh equal graph gives.
    """

    __slots__ = ("labels", "sparse_rows", "_index", "_factorization")

    def __init__(self, curves: Iterable[Curve], edges: Iterable[Sequence] = ()):
        try:
            curves = tuple(curves)
            labels = tuple(require(c, Curve, "curve").label for c in curves)
            index = {label: i for i, label in enumerate(labels)}
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
        return self is other or (
            isinstance(other, DualGraph)
            and self.labels == other.labels
            and self.sparse_rows == other.sparse_rows
        )

    def __hash__(self) -> int:
        return hash((self.labels, tuple(tuple(sorted(row.items())) for row in self.sparse_rows)))

    def __repr__(self) -> str:
        return f"DualGraph({list(self.labels)!r})"


def _over_one_denominator(record, graph: DualGraph, values: Mapping[str, object], what: str) -> None:
    """Check ``values``, {label: rational}, label before value; store them on ``record`` in canonical form."""
    require(graph, DualGraph, "graph")
    parsed: dict[int, Fraction] = {}
    for label, value in require(values, Mapping, what).items():
        i = graph.index_of(label)
        v = value if isinstance(value, Fraction) else parse_rational(value)
        if v:
            parsed[i] = v
    den = lcm(*(v.denominator for v in parsed.values()))  # so gcd(den, numerators) = 1 already
    setfield(record, "graph", graph)
    setfield(record, "_numerators", {i: v.numerator * (den // v.denominator) for i, v in parsed.items()})
    setfield(record, "_den", den)


def _as_fractions(record) -> dict[str, Fraction]:
    """``record``'s {label: Fraction} map, built from its numerators in their stored order."""
    labels, den = record.graph.labels, record._den
    return {labels[i]: Fraction(x, den) for i, x in record._numerators.items()}


def _stored(record) -> tuple:
    """What ``==`` compares: the graph and the stored pair, which is canonical."""
    return record.graph, record._numerators, record._den


class QDivisor(Record):
    """Formal rational combination of the curves of a graph, missing labels reading as 0.

    Stored as ``_numerators``, {curve index: nonzero int}, over ``_den`` in the
    canonical form of the module docstring; ``coefficients`` is built on each read.
    """

    graph: DualGraph
    coefficients: Mapping[str, Fraction]

    def __init__(self, graph: DualGraph, coefficients: Mapping[str, Fraction] = MappingProxyType({})):
        _over_one_denominator(self, graph, coefficients, "divisor coefficients")

    @classmethod
    def _reduced(cls, graph: DualGraph, numerators: dict[int, int], den: int) -> "QDivisor":
        """The divisor of numerators[i] / den on curve i, zeros dropped and reduced by one gcd.

        The caller vouches for every key being a curve index of ``graph``, and for den > 0.
        """
        g = gcd(den, *numerators.values())
        d = cls.__new__(cls)
        setfield(d, "graph", graph)
        setfield(d, "_numerators", {i: x // g for i, x in numerators.items() if x})
        setfield(d, "_den", den // g)
        return d

    coefficients = property(_as_fractions)
    _values = _stored

    def coefficient(self, label: str) -> Fraction:
        return Fraction(self._numerators.get(self.graph.index_of(label), 0), self._den)

    @property
    def support(self) -> tuple[str, ...]:
        return tuple(label for i, label in enumerate(self.graph.labels) if i in self._numerators)

    def __add__(self, other: "QDivisor") -> "QDivisor":
        _on_graph(self.graph, other)
        merged = {i: x * other._den for i, x in self._numerators.items()}
        for i, x in other._numerators.items():
            merged[i] = merged.get(i, 0) + x * self._den
        return QDivisor._reduced(self.graph, merged, self._den * other._den)

    def __sub__(self, other: "QDivisor") -> "QDivisor":
        _on_graph(self.graph, other)
        return self + (-other)

    def __neg__(self) -> "QDivisor":
        return QDivisor._reduced(self.graph, {i: -x for i, x in self._numerators.items()}, self._den)

    def __rmul__(self, scalar) -> "QDivisor":
        s = Fraction(require(scalar, (int, Fraction), "scalar"))
        numerators = {i: s.numerator * x for i, x in self._numerators.items()}
        return QDivisor._reduced(self.graph, numerators, s.denominator * self._den)

    def __repr__(self) -> str:
        body = " + ".join(f"({text})*{label}" for label, text in divisor_to_json(self).items())
        return f"QDivisor({body or '0'})"


class IntersectionProfile(Record):
    """Prescribed intersection numbers D . C_i (missing = 0), stored as a ``QDivisor`` is."""

    graph: DualGraph
    degrees: Mapping[str, Fraction]

    def __init__(self, graph: DualGraph, degrees: Mapping[str, Fraction] = MappingProxyType({})):
        _over_one_denominator(self, graph, degrees, "profile degrees")

    degrees = property(_as_fractions)
    _values = _stored


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


def _factored(graph: DualGraph):
    """The graph's full factorization of its whole pairing, made and kept on first use."""
    record = graph._factorization
    if record is None:
        record = graph._factorization = factor(graph.sparse_rows)
    return record


def is_negative_definite(graph: DualGraph, support: Iterable[str]) -> bool:
    """Whether the principal submatrix on ``support`` is negative definite.

    Decided by the signs of the pivots of one sparse exact elimination; see
    ``folcalc.linalg``. On the whole graph the verdict is that of its kept
    factorization, made here if no pull-back has made it yet; a proper
    support is eliminated afresh and stops at the first pivot that rules
    definiteness out.
    """
    require(graph, DualGraph, "graph")
    chosen = {graph.index_of(label) for label in require(support, Iterable, "support")}
    if not chosen:
        raise ValidationError("support must be nonempty")
    if len(chosen) == len(graph.labels):
        return _factored(graph).definite
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
    rhs = [0] * len(graph.labels)
    for i, x in profile._numerators.items():
        rhs[i] = x
    solution = record.solve(rhs)
    if solution is None:
        raise DegenerateConfigurationError(
            "degenerate configuration: pairing matrix is singular",
            location=", ".join(label for label, z in zip(graph.labels, record.kernel) if z),
        )
    xs, den = solution
    return QDivisor._reduced(graph, dict(enumerate(xs)), den * profile._den)


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


def pair(d1: QDivisor, d2: QDivisor) -> Fraction:
    """Bilinear symmetric intersection number of two divisors."""
    _on_graph(getattr(d1, "graph", None), d1, d2)
    degrees = degree_vector(d2.graph, d2._numerators)
    return Fraction(sum(x * degrees[i] for i, x in d1._numerators.items()), d1._den * d2._den)


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


class HodgeReport(Record):
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
    v1 = degree_vector(d1.graph, d1._numerators)
    v2 = degree_vector(d2.graph, d2._numerators)
    if not any(v1):
        return (Fraction(1), Fraction(0))
    if not any(v2):
        return (Fraction(0), Fraction(1))
    j0 = next(j for j, v in enumerate(v1) if v)
    # v2 / d2._den = lam * v1 / d1._den entrywise, tested by cross-multiplication
    if all(v2[j] * v1[j0] == v2[j0] * v1[j] for j in range(len(v1))):
        return (Fraction(v2[j0] * d1._den, v1[j0] * d2._den), Fraction(-1))
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
    labels, den = require(d, QDivisor, "d").graph.labels, d._den
    return {label: format_ratio(x, den) for label, x in sorted((labels[i], x) for i, x in d._numerators.items())}


def profile_from_json(graph: DualGraph, obj) -> IntersectionProfile:
    if not isinstance(obj, dict):
        raise ValidationError("profile JSON must be an object mapping labels to rationals")
    return IntersectionProfile(graph, {str(k): parse_rational(v) for k, v in obj.items()})
