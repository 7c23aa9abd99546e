"""The JSON edge of ``folcalc.lattice``: graphs, divisors and profiles read from documents.

``graph_from_json``, ``divisor_from_json`` and ``profile_from_json`` refuse a
malformed document with the message and in the order the public constructors
would, so the first refusal of a document with several faults is pinned here.
The reader's integer fast path is checked against ``parse_rational``, and its
records against the public constructors; its refusals carry JSON Pointers.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from folcalc.errors import ValidationError
from folcalc.lattice import (
    Curve,
    DualGraph,
    IntersectionProfile,
    QDivisor,
    _ratio,
    divisor_from_json,
    graph_from_json,
    profile_from_json,
)
from folcalc.rationals import parse_rational

GRAPH = graph_from_json(
    {"curves": [{"label": "A", "self": -2}, {"label": "B", "self": -3}], "edges": [["A", "B", 1]]}
)


def refused(read, *args) -> ValidationError:
    with pytest.raises(ValidationError) as caught:
        read(*args)
    return caught.value


def refusal(read, *args) -> str:
    return refused(read, *args).message


class TestRefusalOrder:
    """With two faults, the one the constructors check first is the one reported."""

    @pytest.mark.parametrize("read", [divisor_from_json, profile_from_json], ids=["divisor", "profile"])
    def test_every_value_before_any_label(self, read):
        # "X" names no curve, but "zz" is read before any label is looked up
        assert refusal(read, GRAPH, {"X": "1/2", "1": "zz"}) == "not an exact rational: 'zz'"
        assert refusal(read, GRAPH, {"X": "1/2", "A": 1.5}) == "not an exact rational: 1.5"
        assert refusal(read, GRAPH, {"X": "1/2", "A": "1"}) == "unknown curve label 'X'"

    @pytest.mark.parametrize("read", [divisor_from_json, profile_from_json], ids=["divisor", "profile"])
    def test_values_before_the_graph_argument(self, read):
        assert refusal(read, 5, {"A": "zz"}) == "not an exact rational: 'zz'"
        assert refusal(read, 5, {"A": "1/2"}) == "graph: expected DualGraph, got int"

    def test_unknown_edge_label_then_malformed_edge(self):
        graph = {"curves": [{"label": "A", "self": -2}], "edges": [["A", "Z", 1], ["A"]]}
        assert refusal(graph_from_json, graph) == "each edge must be [label, label, multiplicity]"

    def test_duplicate_label_then_bad_edge(self):
        curves = [{"label": "A", "self": -2}, {"label": "A", "self": -3}]
        assert refusal(graph_from_json, {"curves": curves, "edges": [["A", "B"]]}) == (
            "each edge must be [label, label, multiplicity]"
        )
        # every edge shape passes, so the labels are checked before any edge is looked at
        for edge in (["A", "Z", 1], ["A", "A", 1], ["A", "B", -1.5]):
            assert refusal(graph_from_json, {"curves": curves, "edges": [edge]}) == "curve labels must be unique"

    def test_curve_fields_before_its_self_and_curves_in_order(self):
        assert refusal(graph_from_json, {"curves": [{"self": 1.5}]}) == 'each curve needs "label" and "self" fields'
        curves = [{"label": "A", "self": 1.5}, {"label": "B"}]
        assert refusal(graph_from_json, {"curves": curves}) == "self-intersection must be an integer, not float"
        curves = [{"label": "A", "self": -2}, {"label": "B"}, {"label": "C", "self": "x"}]
        assert refusal(graph_from_json, {"curves": curves}) == 'each curve needs "label" and "self" fields'

    def test_every_curve_before_any_edge(self):
        graph = {"curves": [{"label": "A", "self": "x"}], "edges": [["A"]]}
        assert refusal(graph_from_json, graph) == "self-intersection must be an integer, not str"

    def test_within_an_edge_labels_then_loop_then_multiplicity(self):
        curves = [{"label": "A", "self": -2}, {"label": "B", "self": -2}]
        cases = {
            ("A", "Z", -1): "edge 'A'-'Z' uses an unknown label",
            ("Z", "A", 1.5): "edge 'Z'-'A' uses an unknown label",
            ("A", "A", 1.5): "edge 'A'-'A' is a loop; use the self-intersection instead",
            ("A", "B", 1.5): "edge multiplicity must be an integer >= 0, not float",
            ("A", "B", -1): "edge multiplicity out of range: must be an integer >= 0",
        }
        for edge, message in cases.items():
            assert refusal(graph_from_json, {"curves": curves, "edges": [list(edge)]}) == message
        # edges are checked in order
        edges = [["A", "B", True], ["A", "Z", 1]]
        assert refusal(graph_from_json, {"curves": curves, "edges": edges}) == (
            "edge multiplicity must be an integer >= 0, not bool"
        )

    def test_document_shape_first(self):
        assert refusal(graph_from_json, []) == 'graph JSON must be an object with a "curves" list'
        assert refusal(graph_from_json, {"curves": {}}) == 'graph JSON must be an object with a "curves" list'
        assert refusal(graph_from_json, {"curves": [{}], "edges": {}}) == 'graph JSON "edges" must be a list'
        assert refusal(divisor_from_json, 5, ["A"]) == "divisor JSON must be an object mapping labels to rationals"
        assert refusal(profile_from_json, 5, ["A"]) == "profile JSON must be an object mapping labels to rationals"


# --- the reader against parse_rational and the public constructors --------


def outcome(call, *args):
    """("ok", result) or ("refused", message) of one call; anything but a ValidationError propagates."""
    try:
        return "ok", call(*args)
    except ValidationError as err:
        return "refused", err.message


def reference_graph(obj):
    """The graph of ``obj`` built through the public ``Curve`` and ``DualGraph``, checked as they check it."""
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


def reference_values(cls, kind):
    """A divisor or profile reader that parses each value and hands the map to the public ``cls``."""

    def read(graph, obj):
        if not isinstance(obj, dict):
            raise ValidationError(f"{kind} JSON must be an object mapping labels to rationals")
        return cls(graph, {str(k): parse_rational(v) for k, v in obj.items()})

    return read


DIGITS = st.text("0123456789", min_size=1, max_size=5)
LONG = st.integers(4295, 4305).map(lambda n: "7" * n)  # about Python's 4300-digit limit for int(str)
NUMERALS = st.one_of(
    DIGITS,
    LONG,
    st.just(""),
    st.sampled_from(["1_000", "1__0", "_1", "٣", "١٢", "１", "²", "0"]),
    st.builds("{}.{}".format, DIGITS, DIGITS),
    st.builds("{}e{}".format, DIGITS, st.sampled_from(["5", "-3", "+2", "0", "4301", "99999", "1_0", ""])),
)


@st.composite
def rational_texts(draw):
    """Strings near the "-?digits(/digits)?" form: signs, spaces, separators, other digits, lengths."""
    sign = draw(st.sampled_from(["", "-", "+", "--", "- "]))
    tail = draw(st.one_of(st.just(""), st.just("/"), NUMERALS.map("/{}".format), st.sampled_from(["/0", "/00", "/-2"])))
    pad = draw(st.sampled_from(["", " ", "\t", "\n "]))
    return pad + sign + draw(NUMERALS) + tail + draw(st.sampled_from(["", " ", "/3", "x"]))


SCALARS = st.one_of(
    st.integers(), st.booleans(), st.floats(), st.none(), st.fractions(), rational_texts(), st.text(max_size=8)
)


class TestFastPathOracle:
    @settings(max_examples=1500, deadline=None)
    @given(SCALARS)
    @example("7" * 4300)
    @example("-" + "7" * 4300)
    @example("7" * 4301)
    @example("1/" + "7" * 4300)
    @example("1e4300")
    @example("0/5")
    @example("-0")
    @example("00012/0004")
    def test_ratio_is_parse_rational(self, value):
        # the pair is not reduced, so it is compared by value, with den > 0 and both ints
        expected = outcome(parse_rational, value)
        got = outcome(_ratio, value)
        if expected[0] == "refused":
            assert got == expected
        else:
            num, den = got[1]
            assert type(num) is int and type(den) is int and den > 0
            assert Fraction(num, den) == expected[1]

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_documents_match_the_public_constructors(self, data):
        doc = data.draw(graph_documents())
        expected, got = outcome(reference_graph, doc), outcome(graph_from_json, doc)
        assert got[0] == expected[0] and (got[1] == expected[1])
        if got[0] == "refused":
            return
        graph, reference = got[1], expected[1]
        assert graph.labels == reference.labels
        assert [list(row.items()) for row in graph.sparse_rows] == [list(row.items()) for row in reference.sparse_rows]
        for read, cls, kind in ((divisor_from_json, QDivisor, "divisor"), (profile_from_json, IntersectionProfile, "profile")):
            values = data.draw(value_maps(graph.labels))
            expected, got = outcome(reference_values(cls, kind), graph, values), outcome(read, graph, values)
            assert got == expected
            if got[0] == "ok":
                record = got[1]
                assert (record._numerators, record._den) == (expected[1]._numerators, expected[1]._den)
                assert type(record) is cls


BAD_LEAVES = st.sampled_from([1.5, True, None, "x", "1/0", [], {}, -1])
LABELS = st.sampled_from(["A", "B", "C", "a/b", "t~1", "1", "é"])


def sometimes(good, bad=BAD_LEAVES):
    """Mostly ``good``, now and then a leaf the reader may refuse."""
    return st.one_of(good, good, good, good, good, good, bad)


@st.composite
def graph_documents(draw):
    labels = draw(st.lists(LABELS, max_size=5, unique=draw(st.booleans()) or draw(st.booleans())))
    curves = []
    for label in labels:
        entry = {"label": draw(sometimes(st.just(label), st.sampled_from([1, None, 1.5]))),
                 "self": draw(sometimes(st.integers(-4, 1)))}
        if draw(st.integers(0, 19)) == 0:
            del entry[draw(st.sampled_from(["label", "self"]))]
        curves.append(entry)
    ends = st.sampled_from(labels + ["Z"]) if labels else st.just("Z")
    edge = st.builds(lambda a, b, m: [a, b, m], ends, ends, sometimes(st.integers(0, 2)))
    edges = draw(st.lists(sometimes(edge, st.sampled_from([["A", "B"], "AB", 3, ["A", "B", 1, 0]])), max_size=6))
    doc = {"curves": curves, "edges": edges}
    if draw(st.integers(0, 29)) == 0:
        doc = draw(st.sampled_from([[], {"curves": {}}, {"curves": curves, "edges": {}}, {"curves": curves}]))
    return doc


def value_maps(labels):
    rationals = st.one_of(
        st.integers(-6, 6),
        st.builds("{}/{}".format, st.integers(-6, 6), st.integers(1, 12)),
        st.sampled_from(["0.25", "-1.5e-2", " 3 ", "+2", "2/4", "0/7", "1_0"]),
    )
    keys = st.sampled_from(list(labels) + ["Z"])
    return st.dictionaries(keys, sometimes(rationals), max_size=6)


# --- duplicate labels and locations ----------------------------------------


def resolve(doc, pointer: str):
    """The member of ``doc`` at the JSON Pointer ``pointer`` (RFC 6901); a KeyError or IndexError if none."""
    for token in pointer.split("/")[1:]:
        token = token.replace("~1", "/").replace("~0", "~")
        doc = doc[int(token)] if isinstance(doc, list) else doc[token]
    return doc


class TestDuplicateLabels:
    @pytest.mark.parametrize("read, kind", [(divisor_from_json, "divisor"), (profile_from_json, "profile")])
    def test_two_keys_naming_one_label_refused(self, read, kind):
        graph = graph_from_json({"curves": [{"label": "1", "self": -2}]})
        err = refused(read, graph, {1: "1/2", "1": "1/3"})
        assert (err.code, err.message, err.location) == ("invalid-input", f"{kind} JSON: two keys name the curve '1'", "/1")
        # every value is read, and every label looked up, before the key that repeats a label is refused,
        # so a document refused before this check is refused as it was
        assert refused(read, graph, {1: "1/2", "1": "zz"}).message == "not an exact rational: 'zz'"
        assert refused(read, graph, {1: "1/2", "1": "1/3", "2": "zz"}).message == "not an exact rational: 'zz'"
        assert refused(read, graph, {1: "1/2", "1": "1/3", "Z": 1}).message == "unknown curve label 'Z'"
        assert refused(read, graph, {"1": 0, "x": 1.5}).location == "/x"
        assert read(graph, {1: "1/2"}) == read(graph, {"1": "1/2"})


class TestLocations:
    CURVES = [{"label": "A", "self": -2}, {"label": "a/b~", "self": -3}]

    @pytest.mark.parametrize(
        "doc, location",
        [
            ([], ""),
            ({"edges": []}, "/curves"),
            ({"curves": CURVES, "edges": {}}, "/edges"),
            ({"curves": [{"label": "A", "self": -2}, {"self": -2}]}, "/curves/1"),
            ({"curves": [{"label": "A", "self": -2}, {"label": "B", "self": 1.5}]}, "/curves/1/self"),
            ({"curves": CURVES + [{"label": "A", "self": -1}]}, "/curves/2/label"),
            ({"curves": CURVES, "edges": [["A", "a/b~", 1], ["A"]]}, "/edges/1"),
            ({"curves": CURVES, "edges": [["Z", "A", 1]]}, "/edges/0/0"),
            ({"curves": CURVES, "edges": [["A", "Z", 1]]}, "/edges/0/1"),
            ({"curves": CURVES, "edges": [["A", "A", 1]]}, "/edges/0"),
            ({"curves": CURVES, "edges": [["A", "a/b~", -1]]}, "/edges/0/2"),
        ],
    )
    def test_graph_refusals_name_their_pointer(self, doc, location):
        assert refused(graph_from_json, doc).location == location

    @pytest.mark.parametrize("read", [divisor_from_json, profile_from_json], ids=["divisor", "profile"])
    def test_value_refusals_name_their_key(self, read):
        graph = graph_from_json({"curves": self.CURVES})
        assert refused(read, graph, ["A"]).location == ""
        assert refused(read, graph, {"A": 1, "a/b~": 1.5}).location == "/a~1b~0"
        assert refused(read, graph, {"A": 1, "Z/": "1"}).location == "/Z~1"
        assert resolve({"a/b~": 1.5}, "/a~1b~0") == 1.5

    def test_library_callers_keep_unlocated_constructor_refusals(self):
        assert refused(QDivisor, GRAPH, {"A": 1.5}).location is None
        assert refused(DualGraph, [Curve("A", -2)], [("A", "A", 1)]).location is None
