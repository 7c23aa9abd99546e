"""Record semantics, pinned for every record class of the package.

Every frozen record derives from ``rationals.Record``. For one sample of each
class: construction by position, by keyword and from defaults agrees; a
record equals only a record of its own class; hash and repr follow the
declared fields, whatever order the keywords came in; fields cannot be
assigned or deleted; pickle and copy round trips compare equal; and the repr
is, byte for byte, what the dataclass records of earlier versions printed.
The one binding path of ``Record.__init__`` is compared, on drawn call
shapes, with the three-branch binding it replaced.
"""

import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import folcalc as f
from folcalc import bounds, contributions, cyclic, jouanolou, lattice, zariski
from folcalc.bounds import IndexBoundsResult, N1Result
from folcalc.errors import FrozenRecordError, ValidationError
from folcalc.rationals import Record, setfield

GRAPH = f.DualGraph([f.Curve("C1", -2), f.Curve("C2", -3)], [("C1", "C2", 1)])
D1 = f.QDivisor(GRAPH, {"C1": 1, "C2": Fraction(1, 2)})
D2 = f.QDivisor(GRAPH, {"C2": 1})
T = f.CyclicType(5, 2)
INV = f.ModelInvariants(Fraction(1), Fraction(1), 1, Fraction(1, 4), None)
CONFIG = f.SingularityConfiguration((2,), 0, 0)
N1 = N1Result(Fraction(5), 10, True, True)

# one record of each class with every field given, and its repr as the dataclass records printed it
SAMPLES = [
    (
        f.BoundReport("weak-nef", INV, (CONFIG,), 2, (2,), (N1,), 10),
        "BoundReport(mode='weak-nef', invariants=ModelInvariants(k2=Fraction(1, 1), "
        "k_dot_ky=Fraction(1, 1), chi_o=1, contribution_sum=Fraction(1, 4), cusp_count=None), "
        "configurations=(SingularityConfiguration(terminal_orders=(2,), dihedral_count=0, "
        "cusp_count=0),), max_terminal_order=2, index_candidates=(2,), results=(N1Result("
        "gamma=Fraction(5, 1), n1=10, square_threshold_holds=True, curve_threshold_holds=True),), "
        "n1_worst=10)",
    ),
    (
        f.HilbertSamples({0: 1, 1: Fraction(5, 2)}, 2),
        "HilbertSamples(values={0: Fraction(1, 1), 1: Fraction(5, 2)}, period_hint=2)",
    ),
    (
        INV,
        "ModelInvariants(k2=Fraction(1, 1), k_dot_ky=Fraction(1, 1), chi_o=1, "
        "contribution_sum=Fraction(1, 4), cusp_count=None)",
    ),
    (CONFIG, "SingularityConfiguration(terminal_orders=(2,), dihedral_count=0, cusp_count=0)"),
    (IndexBoundsResult(3, (6, 2)), "IndexBoundsResult(max_terminal_order=3, index_candidates=(6, 2))"),
    (
        N1,
        "N1Result(gamma=Fraction(5, 1), n1=10, square_threshold_holds=True, curve_threshold_holds=True)",
    ),
    (f.Terminal(T), "Terminal(type=CyclicType(n=5, q=2))"),
    (f.Dihedral(1, 1, 3, 5, "e1"), "Dihedral(a_exp=1, l=1, m_odd=3, p=5, variant='e1')"),
    (f.Cusp(), "Cusp()"),
    (f.GorensteinCanonical(), "GorensteinCanonical()"),
    (
        f.DihedralSumReport(complex(3, 0), Fraction(3), 3, True, Fraction(-1, 2)),
        "DihedralSumReport(sum_value=(3+0j), sum_exact=Fraction(3, 1), expected_n=3, passed=True, "
        "a_value=Fraction(-1, 2))",
    ),
    (T, "CyclicType(n=5, q=2)"),
    (f.HJExpansion((3, 2)), "HJExpansion(entries=(3, 2))"),
    (f.WunramDegrees((5, 2, 1), (1, 1), (1, 0)), "WunramDegrees(s=(5, 2, 1), d=(1, 1), remainders=(1, 0))"),
    (f.JouanolouEntry(3, Fraction(4, 13), 39), "JouanolouEntry(d=3, volume=Fraction(4, 13), aut_order=39)"),
    (
        f.AccumulationReport(
            (f.JouanolouEntry(2, Fraction(1, 7), 21),), True, True, Fraction(1, 7), Fraction(6, 7), True, True
        ),
        "AccumulationReport(entries=(JouanolouEntry(d=2, volume=Fraction(1, 7), aut_order=21),), "
        "strictly_increasing=True, all_below_one=True, minimum=Fraction(1, 7), "
        "gap_at_dmax=Fraction(6, 7), gap_identity_holds=True, converges=True)",
    ),
    (f.Curve("C1", -2), "Curve(label='C1', self_intersection=-2)"),
    (D1, "QDivisor((1)*C1 + (1/2)*C2)"),
    (
        f.IntersectionProfile(GRAPH, {"C1": -1}),
        "IntersectionProfile(graph=DualGraph(['C1', 'C2']), degrees={'C1': Fraction(-1, 1)})",
    ),
    (
        f.hodge_inequality_check(D1, D2),
        "HodgeReport(hypothesis_holds=False, witness=None, inequality_holds=None, "
        "equality_with_trivial_combination=None, trivial_combination=None, "
        "products=(Fraction(-7, 4), Fraction(-1, 2), Fraction(-3, 1)))",
    ),
    (
        f.zariski_decompose(GRAPH, D1),
        "ZariskiResult(positive=QDivisor(0), negative=QDivisor((1)*C1 + (1/2)*C2), support=('C1', 'C2'))",
    ),
]
RECORDS = [record for record, _ in SAMPLES]
IDS = [type(record).__name__ for record in RECORDS]

# the fields that have a default, with it
DEFAULTS = {
    f.HilbertSamples: {"period_hint": None},
    f.ModelInvariants: {"cusp_count": None},
    f.SingularityConfiguration: {"terminal_orders": (), "dihedral_count": 0, "cusp_count": 0},
    f.Dihedral: {"variant": "e1"},
    f.QDivisor: {"coefficients": {}},
    f.IntersectionProfile: {"degrees": {}},
}
# records built on hot paths, whose own __init__ Python binds: a wrong call is a TypeError there
OWN_INIT = {f.Curve, f.CyclicType, f.SingularityConfiguration, f.QDivisor, f.IntersectionProfile, N1Result}
# a dict among the fields, directly or inside a field
UNHASHABLE = {f.HilbertSamples, f.QDivisor, f.IntersectionProfile, f.ZariskiResult}


def field_values(record) -> tuple:
    return tuple(getattr(record, name) for name in record._fields)


def test_every_record_class_has_a_sample():
    modules = (bounds, contributions, cyclic, jouanolou, lattice, zariski)
    classes = {
        value
        for module in modules
        for value in vars(module).values()
        if isinstance(value, type) and issubclass(value, Record) and value.__module__ == module.__name__
    }
    assert len(classes) == 21
    assert {type(record) for record in RECORDS} == classes
    assert len(RECORDS) == 21


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_positional_keyword_and_default_construction_agree(record):
    cls, names, values = type(record), record._fields, field_values(record)
    assert cls(*values) == record
    assert cls(**dict(zip(names, values))) == record
    defaults = DEFAULTS.get(cls, {})
    required = {name: value for name, value in zip(names, values) if name not in defaults}
    assert list(required) == list(names[: len(required)])  # the defaults trail
    full = cls(*required.values(), *defaults.values())
    assert cls(*required.values()) == full
    assert cls(**required) == full


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_never_equal_to_its_values_or_to_another_class(record):
    values = field_values(record)
    assert record != values and values != record
    twin = type("Twin", (type(record),), {})(*values)
    assert field_values(twin) == values
    assert twin != record and record != twin


def test_records_without_fields_differ_by_class():
    assert f.Cusp() == f.Cusp() and f.GorensteinCanonical() == f.GorensteinCanonical()
    assert f.Cusp() != f.GorensteinCanonical()


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_keyword_order_changes_neither_hash_nor_repr(record):
    cls, items = type(record), list(zip(record._fields, field_values(record)))
    for order in (items[::-1], random.Random(len(items)).sample(items, len(items))):
        again = cls(**dict(order))
        assert again == record and repr(again) == repr(record)
        if cls in UNHASHABLE:
            with pytest.raises(TypeError):
                hash(again)
        else:
            assert hash(again) == hash(record)


def test_a_dict_field_makes_a_record_unhashable():
    with pytest.raises(TypeError):
        hash(D1)
    with pytest.raises(TypeError):
        hash(f.IntersectionProfile(GRAPH))


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(record):
    values = field_values(record)
    for name in (*record._fields, "extra"):
        with pytest.raises(FrozenRecordError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(ValidationError):
        record.extra = None
    assert field_values(record) == values
    assert not hasattr(record, "extra")


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_a_wrong_call_is_refused(record):
    cls, values = type(record), field_values(record)
    error = TypeError if cls in OWN_INIT else ValidationError
    with pytest.raises(error):
        cls(*values, None)
    with pytest.raises(error):
        cls(*values, unknown=None)
    if values:
        with pytest.raises(error):
            cls(*values, **{record._fields[0]: values[0]})


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_pickle_and_copy_round_trips(record):
    for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(clone) is type(record)
        assert clone == record and repr(clone) == repr(record)


@pytest.mark.parametrize(("record", "text"), SAMPLES, ids=IDS)
def test_repr_is_the_dataclass_repr(record, text):
    assert repr(record) == text


def three_branch_init(self, *args, **kwargs):
    """The earlier ``Record.__init__``: a positional call padded from the defaults, a call naming
    every field, and field-by-field binding for the rest; the reference for the one path."""
    names, defaults = self._fields, self._defaults
    missing = len(names) - len(args)
    if not kwargs and 0 <= missing <= len(defaults):
        values = dict(zip(names, args + defaults[len(defaults) - missing:]))
    elif not args and kwargs.keys() == set(names):
        values = kwargs
    else:
        values = dict(zip(names[len(names) - len(defaults):], defaults))
        values.update(zip(names, args))
        values.update(kwargs)
        named_twice = not kwargs.keys().isdisjoint(names[:len(args)])
        if missing < 0 or named_twice or values.keys() != set(names):
            given = f"{len(args)} positional arguments and the keywords {sorted(kwargs)}"
            raise ValidationError(f"{type(self).__name__} takes the fields {names}, not {given}")
    setfield(self, "__dict__", values)
    self.__post_init__()


def bind_three_branches(cls, *args, **kwargs):
    record = cls.__new__(cls)
    three_branch_init(record, *args, **kwargs)
    return record


# records bound by the generic __init__; each sample gives every field, a defaulted one a non-default value
BOUND_GENERICALLY = [
    f.HilbertSamples({1: 2, 0: Fraction(1, 2)}, 2),
    f.ModelInvariants(Fraction(1), Fraction(-1, 3), 1, Fraction(1, 4), 3),
    f.Dihedral(2, 1, 3, 5, "e2"),
    f.JouanolouEntry(3, Fraction(4, 13), 39),
]


def outcome(bind):
    """What a binding leaves: the fields and repr of the record, or the type and text of its error."""
    try:
        record = bind()
    except Exception as exc:  # the two bindings must fail alike, whatever the error
        return type(exc), str(exc)
    return vars(record), repr(record)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(BOUND_GENERICALLY), st.data())
def test_one_binding_path_matches_the_three_branches(sample, data):
    cls, names = type(sample), sample._fields
    # a field's value is its sample's, or one that __post_init__ may refuse
    value = st.sampled_from([None, -1, 2.0, "e1", ()])
    valid = vars(sample)
    count = data.draw(st.integers(0, len(names) + 1), label="positional count")
    args = tuple(
        valid.get(name) if data.draw(st.booleans()) else data.draw(value) for name in (*names, "extra")[:count]
    )
    # a keyword subset may name a positional field again, and may add unknown names
    keywords = data.draw(st.sets(st.sampled_from((*names, "unknown", "extra"))), label="keywords")
    kwargs = {name: valid.get(name) if data.draw(st.booleans()) else data.draw(value) for name in keywords}
    assert outcome(lambda: cls(*args, **kwargs)) == outcome(lambda: bind_three_branches(cls, *args, **kwargs))
