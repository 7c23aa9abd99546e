"""Invariant extraction, configuration enumeration, and the explicit bound."""

import functools
import json
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import folcalc as f
from folcalc import bounds
from folcalc import (
    CANONICAL,
    WEAK_NEF,
    HilbertSamples,
    ModelInvariants,
    SingularityConfiguration,
    bound_singularity_count,
    compute_n1,
    enumerate_configurations,
    enumerate_reciprocal_tuples,
    extract_invariants,
    index_bounds,
    pipeline,
    relate_models,
)
from folcalc.errors import (
    FolcalcError,
    InconsistentModelError,
    InconsistentSamplesError,
    NotGeneralTypeError,
    SearchBudgetError,
    ValidationError,
)
from folcalc.linalg import solve_exact
from folcalc.rationals import MAX_DIGITS

import make_cli_corpus
from conftest import brute_reciprocal_tuples, make_synthetic_model, model_samples


def invariants(k2, k_dot_ky, chi_o, s, cusps=None):
    return ModelInvariants(Fraction(k2), Fraction(k_dot_ky), chi_o, Fraction(s), cusps)


@functools.lru_cache(maxsize=4096)
def fraction_reciprocal_tuples(slots, remaining, lo):
    """The Fraction recursion that the integer search replaced; the reference for it."""
    if slots == 0:
        return ((),) if remaining == 0 else ()
    if remaining <= 0:
        return ()
    lower = max(lo, -(-remaining.denominator // remaining.numerator))
    upper = slots * remaining.denominator // remaining.numerator
    out = []
    for n in range(lower, upper + 1):
        for tail in fraction_reciprocal_tuples(slots - 1, remaining - Fraction(1, n), n):
            out.append((n,) + tail)
    return tuple(out)


def halves_two_slot_divisors(p, q, low, spend):
    """The divisor-halves route that every two-slot level took before the scan; the reference for it.

    The prime powers of q^2 are dealt into two halves, the smaller one taking
    the next prime; each divisor of one half looks up the residues mod p that
    complete -q among the other. The list and every amount told to ``spend``
    are what the two-slot level must still return and report.
    """
    halves = ([1], [1])
    for f, e in bounds._prime_powers(q, spend):
        half = min(halves, key=len)
        spend(len(half) * (2 * e + 1))
        half[:] = [d * f**j for d in half for j in range(2 * e + 1)]
    left, right = halves
    by_residue = {}
    for d in right:
        by_residue.setdefault(d % p, []).append(d)
    r = -q % p
    matches = [(a, by_residue.get(r * pow(a, -1, p) % p, ())) for a in left]
    spend(sum(len(bs) for _, bs in matches))
    return sorted(d for a, bs in matches for b in bs if low <= (d := a * b) <= q)


def scan_is_cheaper(p, q):
    """The documented switch: scan the R = 2q//p - q//p candidates when R is at most the
    divisors the halves would list, plus the pairs when p <= 2 (then all of q^2's divisors pair)."""
    sizes, built = [1, 1], 0
    for _, e in bounds._prime_powers(q, lambda n: None):
        half = int(sizes[1] < sizes[0])
        built += sizes[half] * (2 * e + 1)
        sizes[half] *= 2 * e + 1
    return 2 * q // p - q // p <= built + (sizes[0] * sizes[1] if p <= 2 else 0)


def two_slot_outcome(divisors, p, q, low):
    """The list a two-slot route returns and the amounts it tells ``spend``, in order."""
    spent = []
    return divisors(p, q, low, spent.append), spent


def reference_configurations(inv, mode):
    """The enumeration over fraction_reciprocal_tuples: collected in a set, sorted at the end."""
    s = inv.contribution_sum
    configs = set()

    def terminal_multisets(target):
        for k in range(0, math.floor(4 * target) + 1):
            if k - 2 * target >= 0:
                yield from fraction_reciprocal_tuples(k, k - 2 * target, 2)

    if mode == WEAK_NEF:
        for orders in terminal_multisets(s):
            configs.add(SingularityConfiguration(terminal_orders=orders))
    else:
        cusp_options = [inv.cusp_count] if inv.cusp_count is not None else range(math.floor(s) + 1)
        for cusps in cusp_options:
            if s - cusps < 0:
                continue
            for dihedrals in range(math.floor(2 * (s - cusps)) + 1):
                for orders in terminal_multisets(s - cusps - Fraction(dihedrals, 2)):
                    configs.add(SingularityConfiguration(orders, dihedrals, cusps))
    return sorted(
        configs,
        key=lambda c: (c.cusp_count, c.dihedral_count, len(c.terminal_orders), c.terminal_orders),
    )


# the Fraction fit that the integer one of bounds._try_period replaced, copied verbatim; the reference for it
def _quadratic_through(x0: int, step: int, v0, v1, v2) -> tuple[Fraction, Fraction, Fraction]:
    """(a, b, c) with a m^2 + b m + c = v_k at m = x0 + k*step, by finite differences."""
    a = (v2 - 2 * v1 + v0) / (2 * step * step)
    b = (v1 - v0) / step - a * (2 * x0 + step)
    return a, b, v0 - (a * x0 + b) * x0


def fraction_try_period(values, mode, period):
    """The Fraction residue check that the integer one replaced; the reference for it."""
    needed = {0, 1, period, 2 * period, 3 * period}
    if not needed.issubset(values):
        return f"period {period}"
    x0 = period if mode == CANONICAL else 0
    qa, qb, qc = _quadratic_through(x0, period, *(values[x0 + k * period] for k in range(3)))
    k2 = 2 * qa
    k_dot_ky = -2 * qb
    chi_o_value = values[0]
    if chi_o_value.denominator != 1:
        raise InconsistentSamplesError("chi(O) sample at m = 0 must be an integer", location="m = 0")
    chi_o = int(chi_o_value)
    cusp_count = None
    if mode == CANONICAL:
        b4 = chi_o - qc
        if b4.denominator != 1 or b4 < 0:
            return f"period {period}, m = 0"
        cusp_count = int(b4)
    constants = {}
    for m, v in values.items():
        if mode == CANONICAL and m == 0:
            continue
        c = v - (qa * m * m + qb * m)
        if constants.setdefault(m % period, c) != c:
            return f"period {period}, m = {m}"
    if k2 <= 0:
        raise NotGeneralTypeError(
            "not general type: extracted K^2 is not positive", location=f"period {period}"
        )
    s = -values[1] + (k2 - k_dot_ky) / 2 + chi_o
    return ModelInvariants(k2, k_dot_ky, chi_o, s, cusp_count)


def fraction_extract(samples, mode):
    """The period scan over fraction_try_period, with its closest-refusal ranking; the reference for
    extract_invariants."""
    values = samples.values
    if samples.period_hint is None:
        start = 1 if mode == WEAK_NEF else 2
        periods = range(start, bounds.MAX_PERIOD + 1, start)
        scope = f"any period <= {bounds.MAX_PERIOD}"
    else:
        hint = samples.period_hint
        periods = [2 * hint if mode == CANONICAL and hint % 2 else hint]
        scope = f"period {periods[0]}"
        needed = sorted({0, 1, periods[0], 2 * periods[0], 3 * periods[0]})
        missing = [m for m in needed if m not in values]
        if missing:
            raise ValidationError(f"samples must include m = {needed}; missing {missing}")
    refusals = []
    for period in periods:
        result = fraction_try_period(values, mode, period)
        if isinstance(result, ModelInvariants):
            return result
        # a refusal names its breaking multiple last; one without a multiple ranks lowest
        _, found, m = result.partition(", m = ")
        refusals.append((int(m) if found else -1, result))
    raise InconsistentSamplesError(
        f"samples incompatible with quasi-polynomial of {scope}",
        location=max(refusals, key=lambda r: r[0])[1],
    )


def fraction_compute_n1(inv, i):
    """The Fraction evaluation of N1 that the integer one replaced; the reference for it."""
    if inv.k2 <= 0:
        raise NotGeneralTypeError("not general type: K^2 must be positive")
    gamma = max(2 * inv.k_dot_ky / inv.k2 + 3 * i, Fraction(0))
    return bounds.N1Result(
        gamma=gamma,
        n1=4 * i + math.ceil(gamma) + 1,
        square_threshold_holds=i * i * inv.k2 >= 1,
        curve_threshold_holds=Fraction(4 * i + 1, i) > 4,
    )


def outcome(call, *args):
    """The result of a call, or the type and message of the FolcalcError it raised."""
    try:
        return call(*args)
    except (InconsistentSamplesError, NotGeneralTypeError) as err:
        return type(err), err.message


def scan_outcome(call, *args):
    """The result of a call, or the type, message and location of the FolcalcError it raised."""
    try:
        return call(*args)
    except FolcalcError as err:
        return type(err), err.message, err.location


def over_one_denominator(values):
    """The sample table as ``extract_invariants`` hands it to ``_try_period``: numerators and their lcm."""
    den = math.lcm(*(v.denominator for v in values.values()))
    return {m: v.numerator * (den // v.denominator) for m, v in values.items()}, den


def integer_try_period(values, mode, period):
    """The integer residue check, its refusal reduced to the location string."""
    result = bounds._try_period(*over_one_denominator(values), mode, period)
    return result if isinstance(result, ModelInvariants) else result[1]


def solver_fit(points):
    """The Vandermonde solve that the difference formula replaced; the reference for it."""
    return tuple(solve_exact([[m * m, m, 1] for m, _ in points], [v for _, v in points]))


rationals = st.fractions(min_value=-(10**4), max_value=10**4, max_denominator=50)


@settings(max_examples=200, deadline=None)
@given(rationals, rationals, rationals, st.integers(1, 60), st.booleans())
def test_difference_fit_matches_solver(a, b, c, period, canonical):
    x0 = period if canonical else 0
    points = [(m, a * m * m + b * m + c) for m in (x0, x0 + period, x0 + 2 * period)]
    fit = _quadratic_through(x0, period, *(v for _, v in points))
    assert fit == solver_fit(points) == (a, b, c)
    assert all(type(x) is Fraction for x in fit)


@settings(max_examples=200, deadline=None)
@given(
    st.fractions(min_value=Fraction(1, 50), max_value=10**4, max_denominator=50),
    rationals,
    st.integers(-50, 50),
    st.integers(1, 12),
    st.sampled_from([WEAK_NEF, CANONICAL]),
    st.data(),
)
def test_integer_fit_recovers_the_drawn_quadratic(a, b, c, period, mode, data):
    # an honest table: a m^2 + b m plus one constant per residue, c on residue 0, and the cusps at m = 0
    constants = [c] + data.draw(st.lists(rationals, min_size=period - 1, max_size=period - 1))
    up_to = 3 * period + data.draw(st.integers(0, 6))
    values = {m: a * m * m + b * m + constants[m % period] for m in range(up_to + 1)}
    cusps = data.draw(st.integers(0, 5)) if mode == CANONICAL else None
    values[0] += cusps or 0
    inv = bounds._try_period(*over_one_denominator(values), mode, period)
    assert (inv.k2, inv.k_dot_ky, inv.chi_o, inv.cusp_count) == (2 * a, -2 * b, values[0], cusps)
    assert inv.contribution_sum == -values[1] + a + b + values[0]


@st.composite
def quasi_polynomial_tables(draw):
    """A rational quadratic plus one rational constant per residue, sampled with faults.

    Some tables get one sample moved, a shift at m = 0 (the canonical cusp
    shift, integral or not) or samples dropped.
    """
    fractions = st.fractions(min_value=-50, max_value=50, max_denominator=12)
    period = draw(st.integers(1, 8))
    qa, qb = draw(fractions), draw(fractions)
    constants = draw(st.lists(fractions, min_size=period, max_size=period))
    values = {
        m: qa * m * m + qb * m + constants[m % period] for m in range(draw(st.integers(3, 4 * period + 6)))
    }
    values[0] = Fraction(math.floor(values[0]))  # chi(O) is an integer
    if draw(st.booleans()):
        m = draw(st.sampled_from(sorted(values)))
        values[m] += draw(fractions.filter(bool))
    if draw(st.booleans()):
        values[0] += draw(st.sampled_from([1, 2, 3, -1, Fraction(1, 2)]))
    for m in draw(st.lists(st.sampled_from(sorted(values)), max_size=3)):
        values.pop(m, None)
    return HilbertSamples(values).values


# primes between 1000 and 1400: any two of them multiply to more than 10^6
LARGE_PRIMES = [p for p in range(1001, 1400, 2) if all(p % d for d in range(3, 38, 2))]


@st.composite
def large_denominator_tables(draw):
    """A quasi-polynomial table whose samples carry distinct denominators with an lcm of at least 10^6.

    Returns the table and its true period L. a, b and each residue's constant
    have distinct prime denominators above 1000, except that the constant of
    residue 0 is an integer half of the time (otherwise no mode can fit
    chi(O), which is an integer). So every sample at 0 < m < 1000 has a
    denominator of at least 1009 * 1013, and samples of different residues
    have different ones. At most one fault is made: one sample moved, a shift
    at m = 0, or up to three samples dropped; the samples at m = 0 and m = 1
    always stay.
    """
    period = draw(st.integers(1, 8))
    primes = draw(st.lists(st.sampled_from(LARGE_PRIMES), min_size=period + 2, max_size=period + 2, unique=True))
    qa, qb, *constants = [
        Fraction(draw(st.integers(-50 * p, 50 * p).filter(lambda n, p=p: n % p)), p) for p in primes
    ]
    if draw(st.booleans()):
        constants[0] = Fraction(draw(st.integers(-50, 50)))
    up_to = draw(st.integers(max(4, 3 * period), 4 * period + 6))  # every fit at L needs 3L
    values = {m: qa * m * m + qb * m + constants[m % period] for m in range(up_to + 1)}
    values[0] = Fraction(math.floor(values[0]))  # chi(O) is an integer
    fault = draw(st.sampled_from([None, "move", "shift", "drop"]))
    if fault == "move":
        m = draw(st.sampled_from(sorted(values)))
        values[m] += draw(st.fractions(min_value=-50, max_value=50, max_denominator=12).filter(bool))
    elif fault == "shift":
        values[0] += draw(st.sampled_from([1, 2, 3, -1, Fraction(1, 2)]))
    elif fault == "drop":
        for m in draw(st.lists(st.sampled_from(sorted(values)[2:]), min_size=1, max_size=3)):
            values.pop(m, None)
    return values, period


@settings(max_examples=300, deadline=None)
@given(large_denominator_tables(), st.sampled_from([WEAK_NEF, CANONICAL]), st.data())
def test_one_denominator_scan_matches_fraction_scan(table, mode, data):
    values, period = table
    # no hint, the true period as the hint, or any hint
    hint = data.draw(st.sampled_from([None, period]) | st.integers(1, 12))
    samples = HilbertSamples(values, period_hint=hint)
    assert math.lcm(*(v.denominator for v in samples.values.values())) >= 10**6
    assert len({v.denominator for v in samples.values.values()}) > 1
    assert scan_outcome(extract_invariants, samples, mode) == scan_outcome(fraction_extract, samples, mode)


@settings(max_examples=300, deadline=None)
@given(quasi_polynomial_tables(), st.sampled_from([WEAK_NEF, CANONICAL]), st.integers(1, 12))
def test_integer_residue_check_matches_fractions(values, mode, period):
    expected = outcome(fraction_try_period, values, mode, period)
    assert outcome(integer_try_period, values, mode, period) == expected


def test_integer_residue_check_on_model_tables():
    # geometric tables fit at their period; one moved sample breaks it at its m
    rng = random.Random(909)
    for trial in range(60):
        mode = WEAK_NEF if trial % 2 == 0 else CANONICAL
        k2, k_dot_ky, chi_o, data, *_, period = make_synthetic_model(rng, mode)
        values = HilbertSamples(model_samples(k2, k_dot_ky, chi_o, data, 4 * period)).values
        moved = dict(values)
        moved[rng.randrange(1, 4 * period + 1)] += Fraction(1, rng.randint(1, 7))
        for table in (values, moved):
            for trial_period in range(1, 2 * period + 1):
                expected = outcome(fraction_try_period, table, mode, trial_period)
                assert outcome(integer_try_period, table, mode, trial_period) == expected
        assert isinstance(integer_try_period(values, mode, period), ModelInvariants)


class TestExtractInvariants:
    def test_polynomial_model_any_period(self):
        # no singular points: chi is honestly quadratic and S = 0
        values = {m: Fraction(m * m - m + 2) for m in range(0, 12)}
        inv = extract_invariants(HilbertSamples(values), WEAK_NEF)
        assert inv.k2 == 2 and inv.k_dot_ky == 2 and inv.chi_o == 2
        assert inv.contribution_sum == 0

    def test_half_point_model_with_rational_samples(self):
        # K^2 = 2, K.K_Y = 1, chi(O) = 1 with one order-2 point; the table is
        # rational-valued but extraction still recovers everything exactly
        data = [f.Terminal(f.CyclicType(2, 1))]
        values = {m: f.global_chi(2, 1, 1, data, m) for m in range(0, 7)}
        inv = extract_invariants(HilbertSamples(values, period_hint=2), WEAK_NEF)
        assert (inv.k2, inv.k_dot_ky, inv.chi_o) == (2, 1, 1)
        assert inv.contribution_sum == Fraction(1, 4)

    def test_canonical_mode_recovers_cusp_count(self):
        data = [f.Cusp()]
        values = {m: f.global_chi(2, 0, 1, data, m) for m in range(0, 7)}
        inv = extract_invariants(HilbertSamples(values, period_hint=2), CANONICAL)
        assert inv.cusp_count == 1
        assert inv.chi_o == 1

    def test_sparse_samples_suffice(self):
        data = [f.Terminal(f.CyclicType(3, 1))]
        k2, k_dot_ky, chi_o = Fraction(4, 3), Fraction(2, 3), 0
        values = {
            m: f.global_chi(k2, k_dot_ky, chi_o, data, m, require_integer=True)
            for m in (0, 1, 3, 6, 9)
        }
        inv = extract_invariants(HilbertSamples(values), WEAK_NEF)
        assert (inv.k2, inv.k_dot_ky, inv.chi_o) == (k2, k_dot_ky, 0)

    def test_odd_hint_doubled_in_canonical_mode(self):
        data = [f.Terminal(f.CyclicType(3, 1)), f.Cusp()]
        k2, k_dot_ky = Fraction(4, 3), Fraction(2, 3)
        values = {
            m: f.global_chi(k2, k_dot_ky, 1, data, m, require_integer=True)
            for m in range(0, 19)
        }
        inv = extract_invariants(HilbertSamples(values, period_hint=3), CANONICAL)
        assert inv.cusp_count == 1 and inv.k2 == k2

    def test_incompatible_samples_rejected(self):
        values = {m: Fraction(m * m + 2) for m in range(0, 8)}
        values[5] += 1
        with pytest.raises(InconsistentSamplesError):
            extract_invariants(HilbertSamples(values), WEAK_NEF)

    def test_hinted_period_failure_names_first_breaking_multiple(self):
        values = {m: Fraction(m * m + 2) for m in range(0, 181)}
        values[91] += 1
        values[97] += 1
        with pytest.raises(InconsistentSamplesError) as err:
            extract_invariants(HilbertSamples(dict(reversed(values.items())), period_hint=6), WEAK_NEF)
        assert err.value.location == "period 6, m = 91"

    def test_not_general_type_rejected(self):
        values = {m: Fraction(-m * m + m + 1) for m in range(0, 8)}
        with pytest.raises(NotGeneralTypeError):
            extract_invariants(HilbertSamples(values), WEAK_NEF)

    def test_period_scan_stops_at_max_period(self, monkeypatch):
        # the samples at 0, 1, 3, 6, 9 pin the period to 3
        data = [f.Terminal(f.CyclicType(3, 1))]
        values = {m: f.global_chi(Fraction(4, 3), Fraction(2, 3), 0, data, m) for m in (0, 1, 3, 6, 9)}
        assert extract_invariants(HilbertSamples(values), WEAK_NEF).k2 == Fraction(4, 3)
        monkeypatch.setattr(bounds, "MAX_PERIOD", 2)
        with pytest.raises(InconsistentSamplesError, match="any period <= 2$"):
            extract_invariants(HilbertSamples(values), WEAK_NEF)

    def test_scan_location_names_closest_refusal(self):
        # the benchmark's inconsistent tables: the value at m = 91 moved by one
        data = [f.Terminal(f.CyclicType(3, 1))]
        values = {m: f.global_chi(Fraction(4, 3), Fraction(2, 3), 0, data, m) for m in range(0, 181)}
        values[91] += 1
        for mode, location in ((WEAK_NEF, "period 3, m = 91"), (CANONICAL, "period 6, m = 91")):
            with pytest.raises(InconsistentSamplesError, match="any period <= 60$") as err:
                extract_invariants(HilbertSamples(values), mode)
            assert err.value.location == location

    def test_scan_location_ranking(self, monkeypatch):
        def refusal(values, mode, period):
            return bounds._try_period(*over_one_denominator(values), mode, period)

        # periods 1 and 2 both break at m = 5 and period 3 lacks m = 9: the tie goes to period 1
        values = {m: Fraction(m * m + 2) for m in range(0, 9)}
        values[5] += 1
        monkeypatch.setattr(bounds, "MAX_PERIOD", 3)
        refusals = [refusal(values, WEAK_NEF, period) for period in (1, 2, 3)]
        assert refusals == [(5, "period 1, m = 5"), (5, "period 2, m = 5"), (-1, "period 3")]
        with pytest.raises(InconsistentSamplesError) as err:
            extract_invariants(HilbertSamples(values), WEAK_NEF)
        assert err.value.location == "period 1, m = 5"
        # refusals without a multiple rank lowest, so the cusp shift's m = 0 wins
        values = {0: Fraction(1), 1: Fraction(2), 2: Fraction(7), 4: Fraction(17), 6: Fraction(37)}
        monkeypatch.setattr(bounds, "MAX_PERIOD", 6)
        refusals = [refusal(values, CANONICAL, period) for period in (2, 4, 6)]
        assert refusals == [(0, "period 2, m = 0"), (-1, "period 4"), (-1, "period 6")]
        with pytest.raises(InconsistentSamplesError) as err:
            extract_invariants(HilbertSamples(values), CANONICAL)
        assert err.value.location == "period 2, m = 0"
        # with no multiple at all, the smallest period is named
        with pytest.raises(InconsistentSamplesError) as err:
            extract_invariants(HilbertSamples({0: 1, 1: 2}), WEAK_NEF)
        assert err.value.location == "period 1"

    def test_mixed_denominators_with_and_without_hint(self):
        # (1/2)(1,1) + (1/3)(1,1) + one cusp: samples over 1, 2, 3, 4, 6 and 12; the scan refuses 2 and 4
        data = [f.Terminal(f.CyclicType(2, 1)), f.Terminal(f.CyclicType(3, 1)), f.Cusp()]
        values = {m: f.global_chi(Fraction(7, 6), Fraction(1, 6), 1, data, m) for m in range(19)}
        assert {v.denominator for v in values.values()} == {1, 2, 3, 4, 6, 12}
        expected = invariants(Fraction(7, 6), Fraction(1, 6), 1, Fraction(19, 12), 1)
        for hint in (6, 3, None):
            assert extract_invariants(HilbertSamples(values, period_hint=hint), CANONICAL) == expected

    def test_missing_required_samples_with_hint(self):
        values = {0: 1, 1: 2, 2: 5}
        with pytest.raises(ValidationError, match="missing"):
            extract_invariants(HilbertSamples(values, period_hint=2), WEAK_NEF)


class TestBoundSingularityCount:
    @pytest.mark.parametrize("s, expected", [(0, 0), (Fraction(1, 4), 1), (Fraction(3, 2), 6)])
    def test_values(self, s, expected):
        assert bound_singularity_count(s) == expected

    def test_negative_sum_rejected(self):
        with pytest.raises(InconsistentModelError):
            bound_singularity_count(Fraction(-1, 4))


class TestReciprocalTuples:
    def test_three_terms_summing_to_one(self):
        assert enumerate_reciprocal_tuples(3, 1) == [(2, 3, 6), (2, 4, 4), (3, 3, 3)]

    def test_pair_summing_to_one(self):
        assert enumerate_reciprocal_tuples(2, 1) == [(2, 2)]

    def test_single_unit_fraction(self):
        assert enumerate_reciprocal_tuples(1, Fraction(1, 7)) == [(7,)]

    def test_empty_cases(self):
        assert enumerate_reciprocal_tuples(0, 0) == [()]
        assert enumerate_reciprocal_tuples(0, 1) == []
        assert enumerate_reciprocal_tuples(1, Fraction(2, 3)) == []
        assert enumerate_reciprocal_tuples(2, 3) == []

    def test_matches_brute_force(self):
        for k in range(1, 5):
            for c in [Fraction(1), Fraction(1, 2), Fraction(3, 4), Fraction(5, 6), Fraction(2)]:
                assert enumerate_reciprocal_tuples(k, c) == brute_reciprocal_tuples(k, c, 2)

    def test_matches_fraction_recursion(self):
        # targets below 1/4 make the reference recursion slow at k = 4
        targets = {Fraction(a, b) for a in range(0, 13) for b in range(1, 13)}
        for k in range(0, 5):
            for c in sorted(c for c in targets if c == 0 or c >= Fraction(1, 4)):
                for lo in (1, 2, 3, 5):
                    expected = list(fraction_reciprocal_tuples(k, c, lo))
                    assert enumerate_reciprocal_tuples(k, c, lo) == expected, (k, c, lo)

    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(
            # a large denominator, target at least 1/30 so the scan oracle stays short
            st.integers(1, 10_000).flatmap(
                lambda q: st.integers(-(-q // 30), 2 * q).map(lambda p: Fraction(p, q))
            ),
            # a target with solutions: 1/a + 1/b, denominators up to 10^4
            st.tuples(st.integers(1, 40), st.integers(1, 250)).map(
                lambda ab: Fraction(1, ab[0]) + Fraction(1, ab[1])
            ),
        ),
        st.integers(1, 60),
    )
    def test_two_slot_divisor_path_matches_scan(self, c, lo):
        assert enumerate_reciprocal_tuples(2, c, lo) == brute_reciprocal_tuples(2, c, lo)

    @settings(max_examples=400, deadline=None)
    @given(
        st.one_of(
            # p up to 2q + 2: short candidate ranges, mostly scanned
            st.integers(1, 10_000).flatmap(lambda q: st.tuples(st.integers(1, 2 * q + 2), st.just(q))),
            # p <= 3 and q up to 10^6: long ranges, mostly left to the divisor halves
            st.tuples(st.integers(1, 3), st.integers(1, 10**6)),
            # p <= 2 and a small q: scanned, and d = q is among the divisors found
            st.tuples(st.integers(1, 2), st.integers(1, 300)),
        )
        .filter(lambda pq: math.gcd(*pq) == 1)
        .flatmap(lambda pq: st.tuples(st.just(pq[0]), st.just(pq[1]), st.integers(-pq[1], pq[1] + 2))),
    )
    def test_two_slot_switch_matches_the_halves(self, pql):
        p, q, low = pql
        assert two_slot_outcome(bounds._two_slot_divisors, p, q, low) == two_slot_outcome(
            halves_two_slot_divisors, p, q, low
        )

    @pytest.mark.parametrize(
        "p, q, low, scans",
        [
            (7, 12, 1, True),  # R = 2 candidates against 8 listed divisors
            (1, 30030, 1, False),  # R = 30030 against 78 listed divisors and 729 pairs
            (2, 15, 1, True),  # p = 2, q odd: every divisor of q^2 is odd, in the class of -q
            (2, 10001, 1, False),
            (3, 8, -5, True),  # low <= 0
            (3, 1000001, -5, False),
            (5, 12, 13, True),  # low > q: nothing returned, every pair still counted
            (1, 30030, 30031, False),
            (1, 12, 12, True),  # d = q pairs with itself and counts once
            (1, 1, 1, True),
            (5, 1, 1, True),  # R = 0: nothing to scan
        ],
    )
    def test_two_slot_switch_cases(self, p, q, low, scans):
        assert scan_is_cheaper(p, q) == scans
        assert two_slot_outcome(bounds._two_slot_divisors, p, q, low) == two_slot_outcome(
            halves_two_slot_divisors, p, q, low
        )

    @pytest.mark.parametrize(
        "k, c, count, steps",
        [
            (8, Fraction(2), 3662, 25440),
            (6, Fraction(1), 3462, 24097),
            (9, Fraction(3), 168, 969),
            (5, Fraction(1, 2), 2892, 20239),
            (4, Fraction(5, 6), 33, 169),
            (10, Fraction(4), 17, 81),
            (12, Fraction(11, 2), 3, 12),
            (7, Fraction(1), 294314, 3968180),  # the bulk of weak-nef sum 3
        ],
    )
    def test_tuple_and_step_counts(self, k, c, count, steps):
        # the counts of the depth-first walk, pinned: the same tuples in the same order
        # cost the same divisors however the walk keeps its open levels
        spent = []
        tuples = list(bounds._reciprocal_tuples(k, c.numerator, c.denominator, 2, spent.append))
        assert (len(tuples), sum(spent)) == (count, steps)
        assert tuples == sorted(set(tuples))

    def test_slot_count_past_the_recursion_limit(self):
        # 1500 slots each at most 1/2 add up to 750 only as 1500 halves; the walk keeps one
        # open level per slot, more than Python's default recursion limit of 1000
        assert enumerate_reciprocal_tuples(1500, 750) == [(2,) * 1500]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 4), st.fractions(min_value=0, max_value=3))
    def test_every_tuple_checks_out(self, k, c):
        if c.denominator > 12:
            return
        tuples = enumerate_reciprocal_tuples(k, c)
        assert len(set(tuples)) == len(tuples)
        for tup in tuples:
            assert list(tup) == sorted(tup)
            assert all(n >= 2 for n in tup)
            assert sum(Fraction(1, n) for n in tup) == c


class TestEnumerateConfigurations:
    def test_quarter_sum_weak_nef(self):
        configs = enumerate_configurations(invariants(2, 0, 1, Fraction(1, 4)), WEAK_NEF)
        assert configs == [SingularityConfiguration(terminal_orders=(2,))]

    def test_zero_sum_gives_smooth_configuration(self):
        configs = enumerate_configurations(invariants(2, 0, 1, 0), WEAK_NEF)
        assert configs == [SingularityConfiguration()]

    def test_half_sum_canonical_without_cusps(self):
        configs = enumerate_configurations(invariants(2, 0, 1, Fraction(1, 2), cusps=0), CANONICAL)
        assert configs == [
            SingularityConfiguration(terminal_orders=(2, 2)),
            SingularityConfiguration(dihedral_count=1),
        ]

    def test_cusp_count_pins_configurations(self):
        configs = enumerate_configurations(invariants(2, 0, 1, Fraction(5, 4), cusps=1), CANONICAL)
        assert all(cfg.cusp_count == 1 for cfg in configs)
        assert SingularityConfiguration(terminal_orders=(2,), cusp_count=1) in configs

    def test_every_configuration_matches_sum_exactly(self):
        for s in [Fraction(1, 2), Fraction(3, 4), Fraction(7, 6), Fraction(2)]:
            for mode, cusps in ((WEAK_NEF, None), (CANONICAL, 0), (CANONICAL, 1)):
                if mode is WEAK_NEF:
                    inv = invariants(2, 0, 1, s)
                elif cusps is not None and cusps > s:
                    continue
                else:
                    inv = invariants(2, 0, 1, s, cusps=cusps)
                for cfg in enumerate_configurations(inv, mode):
                    assert cfg.contribution_sum() == s

    def test_unrealizable_sum_yields_nothing(self):
        assert enumerate_configurations(invariants(2, 0, 1, Fraction(1, 5)), WEAK_NEF) == []

    @pytest.mark.parametrize("cusps", [1, 2])
    def test_pinned_cusps_above_the_sum_yield_nothing(self, cusps):
        # sum 1/2 leaves a negative remainder for one cusp or two, so no dihedral count fits
        inv = invariants(2, 0, 1, Fraction(1, 2), cusps=cusps)
        assert enumerate_configurations(inv, CANONICAL) == []

    @pytest.mark.parametrize(
        "s, mode, cusps",
        [
            (s, mode, cusps)
            for s in (Fraction(2), Fraction(15, 8), Fraction(9, 4))
            for mode, cusps in ((WEAK_NEF, None), (CANONICAL, 0), (CANONICAL, 1))
        ]
        + [(Fraction(5, 2), WEAK_NEF, None)],
    )
    def test_matches_fraction_recursion(self, s, mode, cusps):
        inv = invariants(2, 0, 1, s, cusps)
        assert enumerate_configurations(inv, mode) == reference_configurations(inv, mode)

    def test_search_budget(self, monkeypatch):
        # weak-nef sum 2: 168 configurations, 147 of them with five points
        inv = invariants(2, 0, 1, 2)
        monkeypatch.setattr(bounds, "MAX_CONFIGURATIONS", 168)
        assert len(enumerate_configurations(inv, WEAK_NEF)) == 168
        monkeypatch.setattr(bounds, "MAX_CONFIGURATIONS", 160)
        with pytest.raises(SearchBudgetError, match="reached 161 configurations") as err:
            enumerate_configurations(inv, WEAK_NEF)
        assert err.value.code == "search-budget-exceeded"
        assert err.value.location == "contribution sum 2"
        # one unit-fraction search past the budget stops before it returns
        monkeypatch.setattr(bounds, "MAX_CONFIGURATIONS", 100)
        with pytest.raises(SearchBudgetError, match="reached 101 tuples") as err:
            enumerate_configurations(inv, WEAK_NEF)
        assert err.value.location == "5 slots, sum 1"

    def test_search_step_budget(self, monkeypatch):
        # weak-nef sum 2: the 5-slot search for 1 examines the most divisors, 842
        # (771 from the two-slot levels, 71 trial divisors factoring their targets)
        inv = invariants(2, 0, 1, 2)
        monkeypatch.setattr(bounds, "MAX_SEARCH_STEPS", 842)
        assert len(enumerate_configurations(inv, WEAK_NEF)) == 168
        monkeypatch.setattr(bounds, "MAX_SEARCH_STEPS", 841)
        with pytest.raises(SearchBudgetError, match="divisors, over the budget of 841$") as err:
            enumerate_configurations(inv, WEAK_NEF)
        assert err.value.code == "search-budget-exceeded"
        assert err.value.location == "5 slots, sum 1"
        # the count is per unit-fraction call: the 3-slot search for 1 fits in 12
        monkeypatch.setattr(bounds, "MAX_SEARCH_STEPS", 12)
        assert enumerate_reciprocal_tuples(3, 1) == [(2, 3, 6), (2, 4, 4), (3, 3, 3)]

    def test_step_budget_at_its_real_size(self):
        # weak-nef sum 25/8: the 7-slot search for 3/4 runs past 5,000,000 divisors; the
        # count at the trip is pinned, so a cheaper route to the same divisors counts the same
        with pytest.raises(
            SearchBudgetError, match="examined 5000091 divisors, over the budget of 5000000$"
        ) as err:
            enumerate_configurations(invariants(2, 0, 1, Fraction(25, 8)), WEAK_NEF)
        assert err.value.location == "7 slots, sum 3/4"

    @pytest.mark.parametrize("prime_count", [15, 40])
    def test_search_step_budget_before_the_work(self, monkeypatch, prime_count):
        # 1/Q, Q the product of the first primes, has a divisor pair for every
        # product of the two halves (3^15 of them for 15 primes, 3^40 for 40);
        # the budget stops the search before the products, or the halves, are built
        primes = [p for p in range(2, 200) if all(p % d for d in range(2, p))][:prime_count]
        target = Fraction(1, math.prod(primes))
        monkeypatch.setattr(bounds, "MAX_SEARCH_STEPS", 10_000)
        start = time.perf_counter()
        with pytest.raises(SearchBudgetError, match="over the budget of 10000$") as err:
            enumerate_reciprocal_tuples(2, target)
        assert time.perf_counter() - start < 1.0
        assert err.value.location == f"2 slots, sum {target}"
        # the same target reached from a contribution sum (k = 2, s = 1 - 1/(2Q))
        with pytest.raises(SearchBudgetError) as err:
            enumerate_configurations(invariants(2, 0, 1, 1 - target / 2), WEAK_NEF)
        assert err.value.location == f"2 slots, sum {target}"

    @pytest.mark.parametrize(
        "s, mode, location",
        [
            (8, WEAK_NEF, "17 slots, sum 1"),
            (50, WEAK_NEF, "101 slots, sum 1"),
            (8, CANONICAL, "17 slots, sum 1"),
        ],
    )
    def test_large_sums_stop_at_the_denominator_limit(self, s, mode, location):
        # the first descent 1/2 + 1/3 + 1/7 + ... about squares the remaining denominator per
        # level, long before any two-slot level counts a step
        start = time.perf_counter()
        with pytest.raises(SearchBudgetError, match=f"denominator of more than {MAX_DIGITS} digits$") as err:
            enumerate_configurations(invariants(2, 0, 1, s), mode)
        assert time.perf_counter() - start < 5.0
        assert err.value.code == "search-budget-exceeded"
        assert err.value.location == location

    def test_denominator_limit_below_the_top_level(self):
        # 3 slots for 1/10^4299: the second entry 10^4299 + 1 leaves a denominator of about
        # 8600 digits to two slots
        q = 10 ** (MAX_DIGITS - 1)
        with pytest.raises(SearchBudgetError, match="denominator of more than") as err:
            enumerate_reciprocal_tuples(3, Fraction(1, q))
        assert err.value.location == f"3 slots, sum 1/{q}"

    def test_sum_too_long_to_print_refused(self):
        # the location names the slot count and the sum, so either one too long to print is invalid input
        with pytest.raises(ValidationError, match=f"more than {MAX_DIGITS} digits"):
            enumerate_reciprocal_tuples(1, Fraction(1, 10**MAX_DIGITS))
        with pytest.raises(ValidationError, match=f"more than {MAX_DIGITS} digits"):
            enumerate_reciprocal_tuples(10**MAX_DIGITS, 1)

    def test_trial_divisors_weighted_by_the_size_of_q(self, monkeypatch):
        # 2^3217 - 1 is prime, so its trial division runs on; each divisor counts
        # 1 + 3217 // 2048 = 2, and batches of 1024 pass 5000 at 6144 (unweighted: 5120)
        monkeypatch.setattr(bounds, "MAX_SEARCH_STEPS", 5000)
        with pytest.raises(SearchBudgetError, match="examined 6144 divisors"):
            enumerate_reciprocal_tuples(2, Fraction(1, 2**3217 - 1))

    def test_trial_division_counts_against_the_budget(self, monkeypatch):
        # 3/4 + 1/p, p = 10^14 + 31 prime: its two-slot targets have p in the
        # denominator, whose trial division runs to sqrt(p) = 10^7 unless charged
        p = 10**14 + 31
        monkeypatch.setattr(bounds, "MAX_SEARCH_STEPS", 100_000)
        start = time.perf_counter()
        with pytest.raises(SearchBudgetError) as err:
            enumerate_configurations(invariants(2, 0, 1, Fraction(3, 4) + Fraction(1, p)), WEAK_NEF)
        assert time.perf_counter() - start < 1.0
        assert err.value.code == "search-budget-exceeded"
        assert err.value.location.startswith("2 slots, sum ")


@pytest.mark.parametrize(
    "call",
    [
        lambda: extract_invariants(HilbertSamples({m: m * m + 1 for m in range(8)}), "bogus"),
        lambda: enumerate_configurations(invariants(2, 0, 1, 0), "bogus"),
        lambda: index_bounds([SingularityConfiguration()], "bogus"),
    ],
    ids=["extract_invariants", "enumerate_configurations", "index_bounds"],
)
def test_unknown_mode_refused(call):
    with pytest.raises(ValidationError, match="mode must be 'weak-nef' or 'canonical'"):
        call()


def test_negative_reciprocal_sum_refused():
    with pytest.raises(ValidationError, match="c must be nonnegative"):
        enumerate_reciprocal_tuples(3, -1)


class TestIndexBounds:
    def test_single_half_point(self):
        result = index_bounds([SingularityConfiguration(terminal_orders=(2,))], WEAK_NEF)
        assert result.max_terminal_order == 2
        assert list(result.index_candidates) == [2]

    def test_smooth_configuration(self):
        result = index_bounds([SingularityConfiguration()], WEAK_NEF)
        assert result.max_terminal_order == 1
        assert list(result.index_candidates) == [1]
        result = index_bounds([SingularityConfiguration(dihedral_count=1)], CANONICAL)
        assert list(result.index_candidates) == [2]

    def test_canonical_doubles_lcm(self):
        result = index_bounds([SingularityConfiguration(terminal_orders=(3, 4))], CANONICAL)
        assert list(result.index_candidates) == [24]

    def test_empty_configuration_list_rejected(self):
        with pytest.raises(ValidationError):
            index_bounds([], WEAK_NEF)

    def test_one_candidate_per_input_in_order(self):
        a = SingularityConfiguration(terminal_orders=(3,))
        b = SingularityConfiguration(terminal_orders=(2, 5))
        result = index_bounds([a, b, a, SingularityConfiguration(terminal_orders=(3,))], WEAK_NEF)
        assert result.index_candidates == (3, 10, 3, 3)

    @pytest.mark.parametrize(
        ("configs", "message"),
        [
            ([SingularityConfiguration((1,)), 5], "configuration: expected SingularityConfiguration, got int"),
            (
                [SingularityConfiguration((1,)), SingularityConfiguration([2])],
                "terminal_orders: expected tuple, got list",
            ),
            (
                [SingularityConfiguration((2.0,)), SingularityConfiguration((1,))],
                "terminal order must be an integer >= 2, not float",
            ),
        ],
        ids=["item-type-before-any-order", "orders-type-before-any-order", "first-bad-order"],
    )
    def test_refusal_order(self, configs, message):
        # every item is checked before any order, and the orders in input order
        with pytest.raises(ValidationError) as err:
            index_bounds(configs, WEAK_NEF)
        assert str(err.value) == message


class TestComputeN1:
    def test_reference_values(self):
        assert compute_n1(invariants(2, 0, 1, 0), 1).n1 == 8
        assert compute_n1(invariants(2, 0, 1, 0), 1).gamma == 3
        assert compute_n1(invariants(1, 1, 1, 0), 2).n1 == 17

    def test_gamma_clamped_at_zero(self):
        result = compute_n1(invariants(2, -10, 1, 0), 1)
        assert result.gamma == 0
        assert result.n1 == 5

    def test_monotone_in_index(self):
        for inv in [invariants(2, 0, 1, 0), invariants(Fraction(1, 2), 3, 1, 0)]:
            values = [compute_n1(inv, i).n1 for i in range(1, 51)]
            assert values == sorted(values)
            assert min(values) >= 5

    def test_threshold_report(self):
        ok = compute_n1(invariants(2, 0, 1, 0), 1)
        assert ok.square_threshold_holds and ok.curve_threshold_holds
        small = compute_n1(invariants(Fraction(1, 2), 0, 1, 0), 1)
        assert not small.square_threshold_holds

    def test_invalid_index_rejected(self):
        with pytest.raises(ValidationError):
            compute_n1(invariants(2, 0, 1, 0), 0)

    @pytest.mark.parametrize(
        "k2, k_dot_ky, i",
        [
            (2, -3, 1),  # gamma exactly 0
            (Fraction(4, 3), -2, 1),  # gamma exactly 0 from fractions
            (2, -4, 1),  # clamped from -1
            (Fraction(7, 5), Fraction(-7, 2), 2),  # 2*(K.K_Y)/K^2 = -5, so gamma = 1
            (2, 1, 1),  # gamma an integer: 4
            (3, Fraction(3, 2), 7),  # gamma an integer: 22
            (Fraction(10**6 + 1, 10**6), 1, 1),  # gamma just below 5
            (Fraction(10**6 - 1, 10**6), 1, 1),  # gamma just above 5
            (Fraction(1, 10**12), 0, 10**6),  # i^2 K^2 = 1: the square bound holds
            (Fraction(1, 10**12 + 1), 0, 10**6),  # i^2 K^2 < 1
            (Fraction(3, 7), Fraction(-9 * 10**6, 7), 10**6),  # gamma exactly 0 at i = 10^6
            (Fraction(3, 7), Fraction(-9 * 10**6 + 1, 7), 10**6),
            (Fraction(3, 7), Fraction(-9 * 10**6 - 1, 7), 10**6),
        ],
    )
    def test_integer_evaluation_matches_fractions_at_edges(self, k2, k_dot_ky, i):
        inv = ModelInvariants(k2, k_dot_ky, 1, 0)
        assert compute_n1(inv, i) == fraction_compute_n1(inv, i)

    @settings(max_examples=400, deadline=None)
    @given(
        st.fractions(min_value=Fraction(1, 1000), max_value=1000, max_denominator=1000),
        st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=1000),
        st.integers(1, 10**6),
    )
    def test_integer_evaluation_matches_fractions(self, k2, k_dot_ky, i):
        inv = ModelInvariants(k2, k_dot_ky, 1, 0)
        result = compute_n1(inv, i)
        assert result == fraction_compute_n1(inv, i)
        assert type(result.gamma) is Fraction
        assert type(result.square_threshold_holds) is type(result.curve_threshold_holds) is bool

    def test_integer_invariants_give_exact_gamma(self):
        inv = ModelInvariants(2, 1, 1, 0)
        assert all(type(x) is Fraction for x in (inv.k2, inv.k_dot_ky, inv.contribution_sum))
        gamma = compute_n1(inv, 1).gamma
        assert gamma == 4 and type(gamma) is Fraction


class TestModelInvariantsContract:
    # only types are checked on construction; the values keep their domain errors
    def test_negative_sum_still_inconsistent_model(self):
        with pytest.raises(InconsistentModelError):
            enumerate_configurations(ModelInvariants(2, 0, 1, Fraction(-1, 4)), WEAK_NEF)

    @pytest.mark.parametrize("k2", [0, -1, Fraction(-1, 2)])
    def test_nonpositive_k2_still_not_general_type(self, k2):
        with pytest.raises(NotGeneralTypeError):
            compute_n1(ModelInvariants(k2, 0, 1, 0), 1)


class TestDomainErrorsNameTheirPlace:
    def test_chi_o_not_an_integer_names_m_0(self):
        values = {m: Fraction(m * m + 2) for m in range(0, 8)}
        values[0] = Fraction(5, 2)
        with pytest.raises(InconsistentSamplesError, match="chi\\(O\\)") as err:
            extract_invariants(HilbertSamples(values), WEAK_NEF)
        assert err.value.location == "m = 0"

    def test_nonpositive_k2_names_the_period(self):
        values = {m: Fraction(-m * m + m + 1) for m in range(0, 8)}
        with pytest.raises(NotGeneralTypeError) as err:
            extract_invariants(HilbertSamples(values, period_hint=2), WEAK_NEF)
        assert err.value.location == "period 2"

    def test_negative_singularity_count_names_the_sum(self):
        with pytest.raises(InconsistentModelError) as err:
            bound_singularity_count(Fraction(-1, 4))
        assert err.value.location == "contribution sum -1/4"

    def test_negative_configuration_sum_names_the_sum(self):
        with pytest.raises(InconsistentModelError) as err:
            enumerate_configurations(invariants(2, 0, 1, -3), CANONICAL)
        assert err.value.location == "contribution sum -3"

    def test_compute_n1_names_the_index(self):
        with pytest.raises(NotGeneralTypeError) as err:
            compute_n1(invariants(0, 0, 1, 0), 3)
        assert err.value.location == "index 3"

    def test_pipeline_without_configuration_names_the_sum(self):
        # as in TestPipeline: every odd sample moved by 1/20 moves the sum to 1/5
        data = [f.Terminal(f.CyclicType(2, 1))]
        values = {m: f.global_chi(2, 1, 1, data, m) + (Fraction(1, 20) if m % 2 else 0) for m in range(7)}
        with pytest.raises(InconsistentSamplesError, match="no singularity configuration") as err:
            pipeline(HilbertSamples(values, period_hint=2), WEAK_NEF)
        assert err.value.location == "contribution sum 1/5"


class TestPipeline:
    def test_smooth_model(self):
        values = {m: Fraction(m * m + 1) for m in range(0, 8)}
        report = pipeline(HilbertSamples(values), WEAK_NEF)
        assert report.invariants.k2 == 2 and report.invariants.k_dot_ky == 0
        assert report.configurations == (SingularityConfiguration(),)
        assert report.n1_worst == 8

    def test_roundtrip_many_models(self):
        rng = random.Random(202)
        for trial in range(40):
            mode = WEAK_NEF if trial % 2 == 0 else CANONICAL
            k2, k_dot_ky, chi_o, data, terminals, dihedrals, cusps, period = (
                make_synthetic_model(rng, mode)
            )
            values = model_samples(k2, k_dot_ky, chi_o, data, 3 * period)
            hint = period if trial % 4 < 2 else None
            report = pipeline(HilbertSamples(values, period_hint=hint), mode)
            inv = report.invariants
            assert (inv.k2, inv.k_dot_ky, inv.chi_o) == (k2, k_dot_ky, chi_o)
            assert inv.contribution_sum == -sum(f.contribution(d, 1) for d in data)
            generating = SingularityConfiguration(
                terminal_orders=tuple(sorted(t.n for t in terminals)),
                dihedral_count=dihedrals,
                cusp_count=cusps if mode == CANONICAL else 0,
            )
            assert generating in report.configurations
            if mode == CANONICAL:
                assert inv.cusp_count == cusps

    def test_n1_once_per_distinct_index(self, monkeypatch):
        # eight order-2 points: contribution sum 2, 168 configurations
        data = [f.Terminal(f.CyclicType(2, 1))] * 8
        samples = HilbertSamples({m: f.global_chi(2, 1, 1, data, m) for m in range(7)}, period_hint=2)
        calls = []
        n1_core = bounds._n1_results

        def counting_n1(inv, indices):
            indices = list(indices)
            calls.extend(indices)
            return n1_core(inv, indices)

        monkeypatch.setattr(bounds, "_n1_results", counting_n1)
        report = pipeline(samples, WEAK_NEF)
        assert len(report.configurations) == 168
        assert sorted(calls) == sorted(set(report.index_candidates))
        assert len(calls) < len(report.configurations)
        assert report.results == tuple(compute_n1(report.invariants, i) for i in report.index_candidates)
        assert report.n1_worst == max(r.n1 for r in report.results)

    def test_unrealizable_sum_raises(self):
        # shifting every odd sample keeps the quasi-polynomial shape but moves
        # the contribution sum to 1/5, which no configuration can hit
        data = [f.Terminal(f.CyclicType(2, 1))]
        values = {m: f.global_chi(2, 1, 1, data, m) for m in range(0, 7)}
        broken = {m: v + (Fraction(1, 20) if m % 2 else 0) for m, v in values.items()}
        with pytest.raises(InconsistentSamplesError, match="no singularity configuration"):
            pipeline(HilbertSamples(broken, period_hint=2), WEAK_NEF)


def reference_index(configs, mode):
    """The index stage from its definition: an lcm fold per configuration, and the largest order."""
    factor = 2 if mode == CANONICAL else 1
    candidates = tuple(factor * functools.reduce(math.lcm, cfg.terminal_orders, 1) for cfg in configs)
    return candidates, max([n for cfg in configs for n in cfg.terminal_orders], default=1)


def assert_pipeline_matches_the_public_stages(report):
    """``pipeline`` calls the cores unchecked; the checked public stages and the references agree."""
    configs = list(report.configurations)
    idx = index_bounds(configs, report.mode)
    assert report.index_candidates == idx.index_candidates
    assert report.max_terminal_order == idx.max_terminal_order
    assert (idx.index_candidates, idx.max_terminal_order) == reference_index(configs, report.mode)
    inv = report.invariants
    assert report.results == tuple(compute_n1(inv, i) for i in report.index_candidates)
    assert all(r == fraction_compute_n1(inv, i) for i, r in zip(report.index_candidates, report.results))
    assert report.n1_worst == max(compute_n1(inv, i).n1 for i in report.index_candidates)


CORPUS_SEARCHES = [
    entry
    for entry in make_cli_corpus.load()
    if entry["source"].startswith("bounds pool") and entry["source"].endswith("json")
]


@st.composite
def model_tables(draw):
    """Samples of a model with up to two terminal points, dihedral points and cusps; K^2 may be tiny."""
    mode = draw(st.sampled_from([WEAK_NEF, CANONICAL]))
    orders = draw(st.lists(st.integers(2, 5), max_size=2))
    terminals = [f.CyclicType(n, draw(st.sampled_from([q for q in range(1, n) if math.gcd(n, q) == 1])))
                 for n in orders]
    dihedrals = draw(st.integers(0, 1)) if mode == CANONICAL else 0
    cusps = draw(st.integers(0, 2)) if mode == CANONICAL else 0
    k2 = draw(st.fractions(min_value=Fraction(1, 60), max_value=4, max_denominator=60))
    k_dot_ky = draw(st.fractions(min_value=-60, max_value=10, max_denominator=60))
    return model_table(mode, terminals, dihedrals, cusps, k2, k_dot_ky, draw(st.integers(-2, 3)))


def model_table(mode, terminals, dihedrals, cusps, k2, k_dot_ky, chi_o):
    data = (
        [f.Terminal(t) for t in terminals]
        + [f.Dihedral(a_exp=1, l=1, m_odd=1, p=1)] * dihedrals
        + [f.Cusp()] * cusps
    )
    period = math.lcm(2 if mode == CANONICAL else 1, *(t.n for t in terminals))
    values = {m: f.global_chi(k2, k_dot_ky, chi_o, data, m) for m in range(3 * period + 1)}
    return mode, HilbertSamples(values, period_hint=period)


# canonical with a dihedral point and two cusps, gamma clamped at 0 for every index
CLAMPED = model_table(CANONICAL, [f.CyclicType(3, 1), f.CyclicType(5, 2)], 1, 2, Fraction(1, 100), -37, 1)
# canonical, smooth but for a cusp: index 2 and 4 K^2 < 1, so the square threshold fails
SQUARE_FAILS = model_table(CANONICAL, [], 0, 1, Fraction(1, 5), 3, 0)


class TestCores:
    """``pipeline`` reaches the index and N1 cores without the public checks."""

    @pytest.mark.parametrize("entry", CORPUS_SEARCHES, ids=[e["source"] for e in CORPUS_SEARCHES])
    def test_bounds_pool_searches(self, entry):
        doc = json.loads(entry["files"]["samples.json"])
        samples = HilbertSamples({int(m): Fraction(v) for m, v in doc["values"].items()}, doc["period_hint"])
        assert_pipeline_matches_the_public_stages(pipeline(samples, entry["argv"][2]))

    def test_the_pool_covers_both_modes(self):
        assert len(CORPUS_SEARCHES) == 36
        assert {e["argv"][2] for e in CORPUS_SEARCHES} == {WEAK_NEF, CANONICAL}

    @settings(max_examples=60, deadline=None)
    @given(model_tables())
    @example(CLAMPED)
    @example(SQUARE_FAILS)
    def test_model_tables(self, table):
        mode, samples = table
        assert_pipeline_matches_the_public_stages(pipeline(samples, mode))

    def test_examples_reach_the_edge_branches(self):
        clamped = pipeline(CLAMPED[1], CANONICAL)
        assert clamped.invariants.cusp_count == 2
        assert any(c.dihedral_count and c.cusp_count for c in clamped.configurations)
        assert {r.gamma for r in clamped.results} == {0}
        square = pipeline(SQUARE_FAILS[1], CANONICAL)
        assert not all(r.square_threshold_holds for r in square.results)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.lists(st.integers(2, 40), max_size=5), min_size=1, max_size=6),
        st.sampled_from([WEAK_NEF, CANONICAL]),
    )
    def test_index_bounds_on_unsorted_orders(self, orders, mode):
        configs = [SingularityConfiguration(tuple(o)) for o in orders]
        result = index_bounds(configs, mode)
        assert (result.index_candidates, result.max_terminal_order) == reference_index(configs, mode)

    def test_largest_order_is_not_the_last(self):
        result = index_bounds([SingularityConfiguration((7, 3)), SingularityConfiguration((2,))], WEAK_NEF)
        assert result.max_terminal_order == 7
        assert result.index_candidates == (21, 2)

    def test_n1_core_checks_k2_once_at_the_first_index(self):
        with pytest.raises(NotGeneralTypeError) as err:
            bounds._n1_results(invariants(-1, 0, 1, 0), {5: None, 3: None})
        assert err.value.location == "index 5"


class TestRelateModels:
    def test_identical_tables_no_cusps(self):
        table = {0: 1, 1: 3, 2: 9}
        assert relate_models(table, table, 0)

    def test_cusp_shift_accepted(self):
        canon = {0: 2, 1: 3, 2: 9, 3: 19}
        weak = {0: 0, 1: 3, 2: 9, 3: 19}
        assert relate_models(weak, canon, 2)

    def test_wrong_shift_rejected(self):
        canon = {0: 2, 1: 3}
        weak = {0: 1, 1: 4}
        assert not relate_models(weak, canon, 1)

    def test_key_sets_must_match(self):
        with pytest.raises(ValidationError):
            relate_models({0: 1}, {0: 1, 1: 2}, 0)

    def test_zero_must_be_present(self):
        with pytest.raises(ValidationError):
            relate_models({1: 1}, {1: 1}, 0)

    def test_decimal_string_keys_accepted(self):
        assert relate_models({"0": 0, "1": 3}, {"0": 2, 1: 3}, 2)

    def test_keys_naming_one_multiple_rejected(self):
        # " 1" would silently replace "1", and the shifted tables would then match
        with pytest.raises(ValidationError, match="weak nef table: two keys name the multiple 1"):
            relate_models({"0": 1, "1": 2, " 1": 3}, {"0": 3, "1": 3}, 2)

    @pytest.mark.parametrize(
        "weak, canon, named",
        [
            ({"-1": 2, "0": 1}, {"-1": 2, "0": 2}, "weak nef"),
            ({-1: 2, 0: 1}, {-1: 2, 0: 2}, "weak nef"),
            ({"0": 1, "1": 2}, {"0": 2, "1": 2, "-3": 0}, "canonical"),
        ],
    )
    def test_negative_multiples_rejected(self, weak, canon, named):
        # the first two pairs would match under the shift; a sample table refuses the same key
        with pytest.raises(ValidationError, match=f"^{named} table key out of range: must be an integer >= 0$"):
            relate_models(weak, canon, 1)

    @pytest.mark.parametrize("key", [1.5, 1.0, "x", "1.5", True, None])
    def test_non_integer_keys_rejected(self, key):
        with pytest.raises(ValidationError):
            relate_models({0: 1, key: 2}, {0: 1, key: 2}, 0)
