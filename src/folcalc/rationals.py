"""Exact scalars: the integer contract, rationals and their canonical string form.

``exact_int`` is the one integer check of the package. Every public entry
point that takes an integer (a multiple m, an order n, an index, a
self-intersection, a count) passes it through here: the test is
``type(value) is int``, so bools, floats, strings and int subclasses are
refused, as is a value outside the allowed range, each with a
``ValidationError`` naming the argument and the range. ``parse_integer``
applies the same check to anything that is not a string, and
``parse_integer_keys`` reads the keys of a table of multiples with it,
refusing two keys that name one multiple. ``require`` is the one check for
every other kind of argument (a record such as a ``CyclicType``, an int or a
Fraction, a mapping, an iterable); anything else, a bool always, is refused
with a ``ValidationError`` "what: expected Kind, got type".

``Record`` is the base of every frozen record. Its fields are the names its
class annotates, read once at class creation (a class-level value is a trailing
default). It compares them within one class only, hashes and prints them in
declaration order and refuses assignment with ``FrozenRecordError``. Its
``__init__`` has one binding path for every call shape: the defaults, then the
positional arguments, then the keywords, refusing a call that leaves a field
unbound, names one twice, passes too many or names an unknown one; then it
calls ``__post_init__``. Records built on hot paths write their own
``__init__`` with ``setfield``.

Rationals travel through JSON as lowest-terms strings ("p/q", plain "p" for
integers); floats are rejected everywhere so no value is ever rounded.
Strings in decimal or exponent form ("0.25", "6.1e-16") are read exactly,
but one whose digits before the exponent plus the exponent's magnitude
exceed ``MAX_DIGITS`` is refused before any work is done: "1e999999999"
would otherwise build a number of about 415 MB. A string of d such
characters (the decimal point counts, a leading sign does not) with
exponent e expands to a numerator and a denominator of at most d + |e|
digits, and ``MAX_DIGITS`` is Python's default digit limit for integer
strings, so every parsed value can be printed again.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from math import gcd

from .errors import FrozenRecordError, ValidationError

MAX_DIGITS = 4300


def format_ratio(num: int, den: int) -> str:
    """Canonical lowest-terms string of num / den (ints, den nonzero), e.g. ``-2/5`` or ``-1``.

    A reduced numerator or denominator of more than ``MAX_DIGITS`` digits,
    which ``str`` cannot print, is refused with ``ValidationError``.
    """
    g = gcd(num, den) if den > 0 else -gcd(num, den)
    num, den = num // g, den // g
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError:
        raise ValidationError(f"value has more than {MAX_DIGITS} digits, too many to print") from None


def format_rational(value) -> str:
    """``format_ratio`` of a rational's numerator and denominator."""
    value = value if type(value) is Fraction else Fraction(value)  # Fraction(Fraction) costs an ABC check
    return format_ratio(value.numerator, value.denominator)


def parse_rational(value) -> Fraction:
    """Parse an int or a "p/q" string; anything else (floats included) is rejected.

    A decimal or exponent string is read exactly; one that would expand past
    ``MAX_DIGITS`` digits is refused before it is expanded.
    """
    if isinstance(value, bool):
        raise ValidationError(f"not an exact rational: {value!r}")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        if "e" in text or "E" in text or (len(text) > MAX_DIGITS and "." in text):
            mantissa, _, exponent = text.lower().partition("e")
            exponent = exponent.lstrip("+-").replace("_", "").lstrip("0") or "0"
            if exponent.isdecimal() and (
                len(exponent) > 4 or len(mantissa.lstrip("+-")) + int(exponent) > MAX_DIGITS
            ):
                raise ValidationError(f"expands past {MAX_DIGITS} digits: {value!r}")
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"not an exact rational: {value!r}") from exc
    raise ValidationError(f"not an exact rational: {value!r}")


def exact_int(value, what: str, low: int | None = None, high: int | None = None) -> int:
    """``value`` itself when it is an int with low <= value <= high (either end optional).

    Anything else raises ``ValidationError`` naming ``what`` and the range;
    every caller that passes ``high`` passes ``low`` too.
    """
    if type(value) is int and (low is None or low <= value) and (high is None or value <= high):
        return value
    span = "" if low is None else f" >= {format_rational(low)}"
    if high is not None:
        span = f" in [{format_rational(low)}, {format_rational(high)}]"
    if type(value) is int:
        raise ValidationError(f"{what} out of range: must be an integer{span}")
    raise ValidationError(f"{what} must be an integer{span}, not {type(value).__name__}")


def require(value, kind, what: str):
    """``value`` itself when it is a ``kind`` (a type or a tuple of types) and not a bool."""
    if isinstance(value, kind) and type(value) is not bool:
        return value
    names = " or ".join(k.__name__ for k in (kind if isinstance(kind, tuple) else (kind,)))
    raise ValidationError(f"{what}: expected {names}, got {type(value).__name__}")


# writes a field past the frozen __setattr__: for a record's own __init__ and __post_init__ only
setfield = object.__setattr__


class Record:
    """Frozen record over the fields its class annotates; see the module docstring."""

    _fields = ()  # the field names, in declaration order
    _defaults = ()  # the defaults of the trailing fields that have one

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = tuple(cls.__annotations__)
        cls._fields += own
        cls._defaults += tuple(vars(cls)[name] for name in own if name in vars(cls))

    def __init__(self, *args, **kwargs):
        names, defaults = self._fields, self._defaults
        values = dict(zip(names[len(names) - len(defaults):], defaults))
        values.update(zip(names, args))
        values.update(kwargs)
        named_twice = not kwargs.keys().isdisjoint(names[:len(args)])
        if len(args) > len(names) or named_twice or values.keys() != set(names):
            given = f"{len(args)} positional arguments and the keywords {sorted(kwargs)}"
            raise ValidationError(f"{type(self).__name__} takes the fields {names}, not {given}")
        setfield(self, "__dict__", values)
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def _refuse(self, name, value=None):
        raise FrozenRecordError(f"{type(self).__name__} is frozen: cannot assign or delete {name!r}")

    __setattr__ = __delattr__ = _refuse


def parse_integer(value) -> int:
    """Parse an int (given directly or as a decimal string); floats are rejected."""
    if isinstance(value, str):
        try:
            return int(value.strip())
        except ValueError as exc:
            raise ValidationError(f"not an integer: {value!r}") from exc
    return exact_int(value, "value")


def parse_integer_keys(table, what: str) -> dict:
    """``table``, a mapping, with each key read by ``parse_integer``; values are kept as given.

    Two keys that name the same integer ("3" and "03", "1" and " 1", 3 and
    "3") are refused with a ``ValidationError`` naming ``what`` and the integer,
    so no value is dropped silently.
    """
    parsed = {}
    for key, value in require(table, Mapping, what).items():
        m = parse_integer(key)
        if m in parsed:
            raise ValidationError(f"{what}: two keys name the multiple {m}")
        parsed[m] = value
    return parsed
