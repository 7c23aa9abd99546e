"""Effective pluricanonical bounds from a sampled Hilbert function.

The Euler characteristic of the m-th pluricanonical sheaf of a model is a
quasi-polynomial in m: a fixed quadratic part (the searched-for invariants
K^2, K.K_Y, chi(O)) plus the periodic local contributions of the singular
points, plus (on canonical models) a constant -#cusps shift away from m = 0.
On one residue class mod the period L the local part is constant, so three
samples P(x0), P(x0 + L), P(x0 + 2L) there give the quadratic by finite
differences: the second difference is 2*L^2 times the leading coefficient.
Without a hint the least period up to ``MAX_PERIOD`` that fits every sample
is taken. The fit and the check that every sample sits on the quadratic up
to one constant per residue run on integers: the table is put over one
denominator once, and at each period the quadratic and every sample's
constant are scaled by one integer, 2*L^2 times that denominator, so the
constants of a residue are compared with ``==``; Fractions are built only
for the invariants of the period that fits. The contribution sum at m = 1
then caps how many singular points can exist (each contributes at least
1/4), the possible configurations are enumerated as unit-fraction
decompositions, every configuration yields a Cartier-index candidate, and
the worst case over configurations feeds the explicit bound

    N1 = 4*i + ceil(gamma) + 1,   gamma = max(2*(K.K_Y)/K^2 + 3*i, 0),

past which every pluricanonical system is birational. N1 and its threshold
checks are evaluated on the numerators and denominators of K^2 and K.K_Y;
only the reported gamma is built as a Fraction.

The index and N1 stages check their arguments once, at the public entry
point. ``index_bounds`` and ``compute_n1`` validate and then call a private
core; ``pipeline`` calls the same cores directly on the configurations its
own search built. The N1 core reads K^2 and K.K_Y, checks K^2 > 0 and
reduces 2*(K.K_Y)/K^2 once per report, then builds one result per distinct
index, which every configuration with that index shares.

The unit-fraction search runs on integers: the remaining target is a reduced
pair p/q, and taking 1/n off it leaves (p*n - q)/(q*n) over their gcd. The
last two slots are solved outright, since 1/a + 1/b = p/q exactly when
(p*a - q)(p*b - q) = q^2, so the pairs come from the divisors of q^2
(Curtiss 1922). The divisors d = p*a - q for a in (q/p, 2q/p] are found by
testing each candidate a directly when there are no more candidates than the
divisors the level is charged for before any pair is tested, and from the
prime powers of q^2 otherwise; both report the same count, so the step budget
trips at the same place whichever runs. The search stops with
``SearchBudgetError`` past ``MAX_CONFIGURATIONS`` configurations, and a
unit-fraction search for one number of points stops once its two-slot levels
would examine more than ``MAX_SEARCH_STEPS`` divisors. The divisors of q^2
are counted before they are built or multiplied, the candidates are scanned
only when that count already covers them, and the trial divisors that factor
q are counted in batches of 1024 as they are tried, so the budget bounds the
work and not only the output. A trial division costs time in proportion to
the size of q, so each trial divisor counts 1 + (bits of q) // 2048. A
remaining denominator q of more than ``rationals.MAX_DIGITS`` digits stops
the search as well: q divides the lcm of the orders still to come, so every
configuration below it would have an index candidate of at least q, too large
to print.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Collection, Iterable, Iterator, Mapping
from fractions import Fraction
from operator import attrgetter

from .errors import (
    InconsistentModelError,
    InconsistentSamplesError,
    NotGeneralTypeError,
    SearchBudgetError,
    ValidationError,
)
from .rationals import (
    MAX_DIGITS, Record, _pointer, exact_int, format_rational, parse_integer_keys, parse_rational, require, setfield
)

WEAK_NEF = "weak-nef"
CANONICAL = "canonical"
MAX_PERIOD = 60  # longest quasi-period tried when the samples carry no hint
MAX_CONFIGURATIONS = 500_000  # per search, and per unit-fraction call; weak-nef sum 3 has 298,165
MAX_SEARCH_STEPS = 5_000_000  # divisors examined per unit-fraction call; weak-nef sum 3 needs 3,968,180
_DENOMINATOR_LIMIT = 10**MAX_DIGITS  # the least denominator of more than MAX_DIGITS digits


class HilbertSamples(Record):
    """Finite table m -> chi(m), plus an optional quasi-period hint.

    Values are exact rationals; honest geometric models give integers, but
    the extraction arithmetic never needs that. The table is kept in
    ascending m.
    """

    values: Mapping[int, Fraction]
    period_hint: int | None = None

    def __post_init__(self):
        items = require(self.values, Mapping, "Hilbert samples").items()
        clean = {m: _table_value(m, v, "sample key") for m, v in items}
        setfield(self, "values", dict(sorted(clean.items())))
        if self.period_hint is not None:
            exact_int(self.period_hint, "period hint", 1)


def _table_value(m, value, what: str) -> Fraction:
    """The rational of an entry m: value of a table of multiples, once m is an int >= 0 (refused naming ``what``)."""
    exact_int(m, what, 0)
    return parse_rational(value)


class ModelInvariants(Record):
    """Numerical invariants pinned down by the Hilbert samples.

    k2 = K^2, k_dot_ky = K.K_Y, chi_o = chi(O), contribution_sum = the total
    -sum a(y, K) over singular points, cusp_count only on canonical models.
    Only the types are checked here: the rationals must be ints or Fractions
    and are stored as Fractions; bools, floats and strings are rejected.
    """

    k2: Fraction
    k_dot_ky: Fraction
    chi_o: int
    contribution_sum: Fraction
    cusp_count: int | None = None

    def __post_init__(self):
        for name in ("k2", "k_dot_ky", "contribution_sum"):
            setfield(self, name, Fraction(require(getattr(self, name), (int, Fraction), name)))
        exact_int(self.chi_o, "chi_o")
        if self.cusp_count is not None:
            exact_int(self.cusp_count, "cusp_count")


class SingularityConfiguration(Record):
    """One way to realize the contribution sum.

    Terminal points are recorded by their orders n (each contributing
    (n-1)/(2n)), dihedral points contribute 1/2 apiece and cusps 1 apiece.
    """

    terminal_orders: tuple[int, ...]
    dihedral_count: int
    cusp_count: int

    def __init__(self, terminal_orders: tuple[int, ...] = (), dihedral_count: int = 0, cusp_count: int = 0):
        setfield(self, "terminal_orders", terminal_orders)
        setfield(self, "dihedral_count", dihedral_count)
        setfield(self, "cusp_count", cusp_count)

    def contribution_sum(self) -> Fraction:
        total = Fraction(exact_int(self.dihedral_count, "dihedral_count", 0), 2)
        total += exact_int(self.cusp_count, "cusp_count", 0)
        for n in require(self.terminal_orders, tuple, "terminal_orders"):
            total += Fraction(exact_int(n, "terminal order", 2) - 1, 2 * n)
        return total


class IndexBoundsResult(Record):
    """Uniform order bound and one Cartier-index candidate per configuration, in input order."""

    max_terminal_order: int
    index_candidates: tuple[int, ...]


class N1Result(Record):
    """The bound and the two numeric thresholds its proof leans on."""

    gamma: Fraction
    n1: int
    square_threshold_holds: bool
    curve_threshold_holds: bool

    def __init__(self, gamma: Fraction, n1: int, square_threshold_holds: bool, curve_threshold_holds: bool):
        setfield(self, "gamma", gamma)
        setfield(self, "n1", n1)
        setfield(self, "square_threshold_holds", square_threshold_holds)
        setfield(self, "curve_threshold_holds", curve_threshold_holds)


class BoundReport(Record):
    """Full pipeline output; n1_worst covers every enumerated configuration.

    The per-configuration index candidates are least common multiples of the
    terminal orders (doubled on canonical models), an explicit upper-bound
    surrogate for the unknown true index. Birationality holds for every
    m >= n1_worst, not just at it.
    """

    mode: str
    invariants: ModelInvariants
    configurations: tuple[SingularityConfiguration, ...]
    max_terminal_order: int
    index_candidates: tuple[int, ...]
    results: tuple[N1Result, ...]
    n1_worst: int


def _check_mode(mode: str) -> str:
    if mode not in (WEAK_NEF, CANONICAL):
        raise ValidationError(f"mode must be {WEAK_NEF!r} or {CANONICAL!r}")
    return mode


def _resolved_hint(hint: int, mode: str) -> int:
    # the cusp shift is isolated on even multiples, so canonical periods are even
    if mode == CANONICAL and hint % 2:
        return 2 * hint
    return hint


def _needed_samples(period: int) -> list[int]:
    """The multiples a fit at period L reads: 0, 1, L, 2L and 3L, ascending."""
    return sorted({0, 1, period, 2 * period, 3 * period})


def _try_period(
    numerators: Mapping[int, int], den: int, mode: str, period: int
) -> ModelInvariants | tuple[int, str]:
    """Extraction attempt at one period, on the samples v_m/den (``numerators`` maps m to v_m, ascending).

    When the samples refuse the period, the result is the first multiple M
    whose sample breaks it (-1 when a needed sample is missing) and the
    location "period L, m = M" (or "period L").

    Everything runs on integers over one scale S = 2*L^2*den. Through the
    samples v0, v1, v2 at x0, x0 + L, x0 + 2L the quadratic times S is
    A*m^2 + B*m + C, with A = v2 - 2*v1 + v0, B = 2L*(v1 - v0) - A*(2*x0 + L)
    and C = 2L^2*v0 - (A*x0 + B)*x0. The sample at m leaves the constant
    2L^2*v_m - (A*m + B)*m, times S, compared with ``==`` per residue mod L;
    the cusp count is (chi(O)*S - C)/S. Only once the period fits are
    Fractions built: K^2 = 2A/S, K.K_Y = -2B/S and the contribution sum.
    """
    if any(m not in numerators for m in _needed_samples(period)):
        return -1, f"period {period}"
    # canonical models fit at L, 2L, 3L, away from the cusp shift at m = 0
    x0 = period if mode == CANONICAL else 0
    v0, v1, v2 = (numerators[x0 + k * period] for k in range(3))
    two_l2 = 2 * period * period
    scale = two_l2 * den
    a = v2 - 2 * v1 + v0
    b = 2 * period * (v1 - v0) - a * (2 * x0 + period)
    chi_o, rest = divmod(numerators[0], den)
    if rest:
        raise InconsistentSamplesError("chi(O) sample at m = 0 must be an integer", location="m = 0")
    cusp_count = None
    if mode == CANONICAL:
        cusp_count, rest = divmod(chi_o * scale - two_l2 * v0 + (a * x0 + b) * x0, scale)
        if rest or cusp_count < 0:
            return 0, f"period {period}, m = 0"
    # every sample must sit on the same quadratic up to a constant per residue
    constants: dict[int, int] = {}
    for m, v in numerators.items():
        if mode == CANONICAL and m == 0:
            continue  # the cusp shift breaks periodicity only at m = 0
        c = two_l2 * v - (a * m + b) * m
        if constants.setdefault(m % period, c) != c:
            return m, f"period {period}, m = {m}"
    if a <= 0:
        raise NotGeneralTypeError(
            "not general type: extracted K^2 is not positive", location=f"period {period}"
        )
    return ModelInvariants(
        k2=Fraction(2 * a, scale),
        k_dot_ky=Fraction(-2 * b, scale),
        chi_o=chi_o,
        contribution_sum=Fraction(a + b - two_l2 * numerators[1], scale) + chi_o,
        cusp_count=cusp_count,
    )


def extract_invariants(samples: HilbertSamples, mode: str) -> ModelInvariants:
    """Recover (K^2, K.K_Y, chi(O), contribution sum[, cusp count]) from samples.

    The quasi-period L is the hint when one is supplied (doubled on canonical
    models when odd); otherwise the least period up to ``MAX_PERIOD`` under
    which every sample is consistent. Needs samples at 0, 1, L, 2L and 3L. The
    table goes over one denominator, the lcm of the samples', once; every
    period is tried on its integer numerators. The quadratic part comes from
    the first and second differences of the samples at 0, L, 2L (weak nef) or
    L, 2L, 3L (canonical); every other sample must then differ from it by one
    constant per residue mod L. When no period fits, ``location`` names the
    closest refusal: the one whose breaking multiple m is largest (refusals
    without one rank lowest, ties go to the smaller period).
    """
    _check_mode(mode)
    values = require(samples, HilbertSamples, "samples").values
    den = math.lcm(*(v.denominator for v in values.values()))
    numerators = {m: v.numerator * (den // v.denominator) for m, v in values.items()}
    if samples.period_hint is None:
        start, step = (1, 1) if mode == WEAK_NEF else (2, 2)
        periods = range(start, MAX_PERIOD + 1, step)
        scope = f"any period <= {MAX_PERIOD}"
    else:
        periods = [_resolved_hint(samples.period_hint, mode)]
        scope = f"period {format_rational(periods[0])}"
        needed = _needed_samples(periods[0])
        missing = [m for m in needed if m not in values]
        if missing:
            listed = (", ".join(map(format_rational, ms)) for ms in (needed, missing))
            raise ValidationError("samples must include m = [{}]; missing [{}]".format(*listed))
    refusals = []
    for period in periods:
        inv = _try_period(numerators, den, mode, period)
        if isinstance(inv, ModelInvariants):
            return inv
        refusals.append(inv)
    raise InconsistentSamplesError(
        f"samples incompatible with quasi-polynomial of {scope}",
        # max keeps the first of equal multiples, which is the smaller period
        location=max(refusals, key=lambda r: r[0])[1],
    )


def bound_singularity_count(s) -> int:
    """Largest possible number of contributing points: floor(4 * sum).

    Every contributing point adds at least 1/4 to the sum.
    """
    s = parse_rational(s)
    if s < 0:
        raise InconsistentModelError(
            "inconsistent contribution sum: negative total",
            location=f"contribution sum {format_rational(s)}",
        )
    return math.floor(4 * s)


def _prime_powers(q: int, spend: Callable[[int], None]) -> list[tuple[int, int]]:
    """(prime, exponent) pairs of q by trial division.

    The trial divisors are reported to ``spend`` in batches of 1024 as they
    are tried, and the rest at the end, so a large prime factor runs into the
    step budget instead of being tried up to its square root. Each one counts
    1 + (bits of q) // 2048, since q % f takes time in proportion to the size
    of q; below 2^2048 that is 1.
    """
    out = []
    f = 2
    tried = 0
    weight = 1 + q.bit_length() // 2048
    while f * f <= q:
        if q % f == 0:
            e = 0
            while q % f == 0:
                q //= f
                e += 1
            out.append((f, e))
        f += 1 if f == 2 else 2
        tried += 1
        if tried == 1024:
            spend(tried * weight)
            tried = 0
    spend(tried * weight)
    if q > 1:
        out.append((q, 1))
    return out


def _two_slot_divisors(p: int, q: int, low: int, spend: Callable[[int], None]) -> list[int]:
    """The divisors d of q^2 with low <= d <= q and d = -q mod p, ascending.

    Two methods give the list, and ``spend`` hears the same amounts in the
    same order from both. First the prime powers of q^2 are dealt into two
    halves of about equal divisor counts (the smaller half takes the next
    prime, ties go to the first), and each list of divisors a half grows to
    is reported. When the 2q//p - q//p candidates d = p*a - q, a in
    (q/p, 2q/p], are no more than those lists, plus the pairs when p <= 2
    (then every divisor of q^2 lies in the class of -q), each candidate is
    tested directly, so the scan does no more work than is already reported.
    Otherwise the halves are built: the divisors of one are filed by residue
    mod p, and each divisor of the other looks up the residue that completes
    -q (p is prime to q, so every divisor of q^2 is invertible mod p). Last,
    the number of divisors of q^2 in the class of -q is reported, before any
    pair is multiplied. d -> q^2/d maps the class to itself, so the scan
    reports twice what it finds, less one for d = q, which pairs with itself
    and lies in the class only when p <= 2.
    """
    sizes = [1, 1]
    plan = []
    built = 0
    for f, e in _prime_powers(q, spend):
        half = int(sizes[1] < sizes[0])
        listed = sizes[half] * (2 * e + 1)
        spend(listed)
        built += listed
        sizes[half] = listed
        plan.append((half, f, e))
    if 2 * q // p - q // p <= built + (sizes[0] * sizes[1] if p <= 2 else 0):
        qq = q * q
        found = [d for d in range(p - q % p, q + 1, p) if qq % d == 0]
        spend(2 * len(found) - (p <= 2))
        return [d for d in found if d >= low]
    halves = ([1], [1])
    for half, f, e in plan:
        powers = [f**j for j in range(2 * e + 1)]
        halves[half][:] = [d * power for d in halves[half] for power in powers]
    left, right = halves
    by_residue: dict[int, list[int]] = {}
    for d in right:
        by_residue.setdefault(d % p, []).append(d)
    r = -q % p
    matches = [(a, by_residue.get(r * pow(a, -1, p) % p, ())) for a in left]
    spend(sum(len(bs) for _, bs in matches))
    return sorted(d for a, bs in matches for b in bs if low <= (d := a * b) <= q)


def _reciprocal_tuples(
    slots: int, p: int, q: int, lo: int, spend: Callable[[int], None]
) -> Iterator[tuple[int, ...]]:
    """Nondecreasing slot-tuples with entries >= lo whose reciprocals add up to p/q.

    p/q is reduced, p >= 0. Tuples come out in lexicographic order. The first
    entry n runs from ceil(q/p) (it must fit) to floor(slots*q/p) (it is the
    smallest); the remainder (p*n - q)/(q*n) goes down reduced by its gcd. One
    slot is a unit-fraction test. Two slots are solved outright: for a <= b,
    1/a + 1/b = p/q exactly when (p*a - q)(p*b - q) = q^2, so d = p*a - q is
    a divisor d <= q of q^2 with d = -q mod p (then so is e = q^2/d, as q is
    prime to p), a = (d + q)/p, b = (e + q)/p, and ascending d gives
    ascending a. ``spend`` is told how many divisors each two-slot level
    examines, trial divisors included, whether it scans the candidates for a
    or builds the divisors (see ``_two_slot_divisors``). A level of two or more
    slots whose q has more than ``MAX_DIGITS`` digits raises
    ``SearchBudgetError``, with no location.
    The walk is depth first on an explicit stack, so no slot count meets the
    recursion limit: an open level of three or more slots keeps its prefix,
    slots, p, q and the lazy range of its first entries (q may be huge).
    """
    stack: list[tuple[tuple[int, ...], int, int, int, Iterator[int]]] = []
    prefix = ()
    while True:
        if slots == 0 or p == 0:
            if slots == p == 0:
                yield prefix
        elif slots == 1:
            if p == 1 and q >= lo:
                yield prefix + (q,)
        elif q >= _DENOMINATOR_LIMIT:
            raise SearchBudgetError(
                f"unit-fraction search reached a denominator of more than {MAX_DIGITS} digits"
            )
        elif slots == 2:
            qq = q * q
            for d in _two_slot_divisors(p, q, p * lo - q, spend):  # a >= lo
                yield prefix + ((d + q) // p, (qq // d + q) // p)
        else:
            stack.append((prefix, slots, p, q, iter(range(max(lo, -(-q // p)), slots * q // p + 1))))
        # descend below the next first entry n of the innermost open level, closing spent ones
        while stack and (n := next(stack[-1][4], None)) is None:
            stack.pop()
        if not stack:
            return
        prefix, slots, p, q, _ = stack[-1]
        num, den = p * n - q, q * n
        g = math.gcd(num, den)
        prefix, slots, p, q, lo = prefix + (n,), slots - 1, num // g, den // g, n


def enumerate_reciprocal_tuples(k: int, c, n_min: int = 2) -> list[tuple[int, ...]]:
    """All nondecreasing k-tuples with entries >= n_min and sum of reciprocals c.

    The smallest entry of any solution is at most k/c, so the recursion is
    finite; tuples come out in lexicographic order. More than
    MAX_CONFIGURATIONS tuples raise SearchBudgetError, since each of them
    would be a configuration, and so does a search that examines more than
    MAX_SEARCH_STEPS divisors in its two-slot levels (trial divisors
    included, weighted by the size of what they divide), however few tuples it
    has found, or that reaches a remaining denominator of more than MAX_DIGITS
    digits. ``location`` names the call, as "k slots, sum c".
    """
    exact_int(k, "k", 0)
    exact_int(n_min, "n_min", 1)
    c = parse_rational(c)
    if c < 0:
        raise ValidationError("c must be nonnegative")
    location = f"{format_rational(k)} slots, sum {format_rational(c)}"  # refuses a k or c too long to print
    steps = 0

    def spend(n: int) -> None:
        nonlocal steps
        steps += n
        if steps > MAX_SEARCH_STEPS:
            raise SearchBudgetError(
                f"unit-fraction search examined {steps} divisors, "
                f"over the budget of {MAX_SEARCH_STEPS}"
            )

    search = _reciprocal_tuples(k, c.numerator, c.denominator, n_min, spend)
    try:
        tuples = list(itertools.islice(search, MAX_CONFIGURATIONS + 1))
    except SearchBudgetError as err:
        err.location = location  # the step and denominator refusals come from inside the search
        raise
    if len(tuples) > MAX_CONFIGURATIONS:
        raise SearchBudgetError(
            f"unit-fraction search reached {len(tuples)} tuples, "
            f"over the budget of {MAX_CONFIGURATIONS}",
            location=location,
        )
    return tuples


def enumerate_configurations(inv: ModelInvariants, mode: str) -> list[SingularityConfiguration]:
    """Every configuration whose contributions add up to the extracted sum.

    Canonical models mix terminal points, dihedral points (1/2 each) and
    cusps (1 each), with the cusp count pinned when the invariants carry it;
    weak nef models are searched the same way with no cusps and no dihedral
    points. The list is ordered by cusp count, dihedral count, number of
    terminal points and then terminal orders, the order of the loops below.
    More than MAX_CONFIGURATIONS configurations raise SearchBudgetError.
    """
    _check_mode(mode)
    s = require(inv, ModelInvariants, "inv").contribution_sum
    bound_singularity_count(s)  # refuses a negative sum
    canonical = mode == CANONICAL
    if not canonical:
        cusp_counts = [0]
    elif inv.cusp_count is None:
        cusp_counts = range(math.floor(s) + 1)
    else:
        cusp_counts = [inv.cusp_count]
    configs: list[SingularityConfiguration] = []
    for cusps in cusp_counts:
        # at most 2(s - cusps) dihedral points, so none once the cusps exceed the sum
        for dihedrals in range(math.floor(2 * (s - cusps)) + 1 if canonical else 1):
            target = s - cusps - Fraction(dihedrals, 2)
            # k points contribute k/2 - (1/2) sum 1/n, so sum 1/n = k - 2*target;
            # each one adds between 1/4 and 1/2, boxing k into [2*target, 4*target]
            for k in range(math.ceil(2 * target), bound_singularity_count(target) + 1):
                found = enumerate_reciprocal_tuples(k, k - 2 * target)
                # the list is complete before it is read, so one check per call finds the
                # same overflow that a check per configuration would
                if len(configs) + len(found) > MAX_CONFIGURATIONS:
                    raise SearchBudgetError(
                        f"configuration search reached {MAX_CONFIGURATIONS + 1} configurations, "
                        f"over the budget of {MAX_CONFIGURATIONS}",
                        location=f"contribution sum {s}",
                    )
                configs.extend(SingularityConfiguration(orders, dihedrals, cusps) for orders in found)
    return configs


def _index_candidates(configs: list[SingularityConfiguration], mode: str) -> tuple[tuple[int, ...], int]:
    """The index core: one candidate per configuration, in order, and the largest terminal order.

    A candidate is the lcm of the configuration's terminal orders, doubled on
    canonical models; the largest order is 1 when no configuration has one.
    The configurations must be valid: ``index_bounds`` checks them, and
    ``pipeline`` passes only those its own search built.
    """
    orders = list(map(attrgetter("terminal_orders"), configs))
    candidates = tuple(itertools.starmap(math.lcm, orders))
    if mode == CANONICAL:
        candidates = tuple(2 * i for i in candidates)
    return candidates, max(itertools.chain.from_iterable(orders), default=1)


def index_bounds(configs, mode: str) -> IndexBoundsResult:
    """Order bound and per-configuration Cartier-index candidates.

    A multiple of every terminal order makes each terminal contribution
    vanish, so the candidate is their least common multiple; canonical models
    double it because dihedral points are 2-Gorenstein. The configurations
    are checked here: first each item, a ``SingularityConfiguration`` whose
    ``terminal_orders`` is a tuple, then each order, an int >= 2 (so 2.0 and
    True are refused). The candidates come from the same core that
    ``pipeline`` calls on the configurations its search built.
    """
    _check_mode(mode)
    configs = list(require(configs, Iterable, "configs"))
    if not configs:
        raise ValidationError("need at least one configuration")
    for cfg in configs:
        require(cfg, SingularityConfiguration, "configuration")
        require(cfg.terminal_orders, tuple, "terminal_orders")
    for cfg in configs:
        for n in cfg.terminal_orders:
            exact_int(n, "terminal order", 2)
    candidates, max_order = _index_candidates(configs, mode)
    return IndexBoundsResult(max_terminal_order=max_order, index_candidates=candidates)


def _n1_results(inv: ModelInvariants, indices: Collection[int]) -> dict[int, N1Result]:
    """The N1 core: one ``N1Result`` per index of ``indices`` (each at least 1, none repeated).

    K^2 and K.K_Y are read, and K^2 is checked to be positive, once for all
    the indices; a non-positive K^2 is located at the first index. Then
    2*(K.K_Y)/K^2 = base/den in lowest terms, with den > 0, and for each
    index i gamma before clamping is num/den with num = base + 3i*den, still
    in lowest terms. The clamp is max(num, 0), so a clamped gamma is
    Fraction(0, den) = 0; N1 = 4i + ceil(gamma) + 1 and the square bound
    i^2 K^2 >= 1 run on integers.
    """
    k2, kky = inv.k2, inv.k_dot_ky
    k2_num, k2_den = k2.numerator, k2.denominator
    if k2_num <= 0:
        first = next(iter(indices))
        raise NotGeneralTypeError(
            "not general type: K^2 must be positive", location=f"index {format_rational(first)}"
        )
    base, den = 2 * kky.numerator * k2_den, kky.denominator * k2_num
    g = math.gcd(base, den)
    base, den = base // g, den // g
    results = {}
    for i in indices:
        num = max(base + 3 * i * den, 0)
        ceil = -(-num // den)
        results[i] = N1Result(Fraction(num, den), 4 * i + ceil + 1, i * i * k2_num >= k2_den, 4 * i + 1 > 4 * i)
    return results


def compute_n1(inv: ModelInvariants, i: int) -> N1Result:
    """The explicit birationality bound for Cartier index i.

    gamma = max(2*(K.K_Y)/K^2 + 3i, 0) and N1 = 4i + ceil(gamma) + 1. The two
    threshold facts the bound rests on are re-checked numerically: the square
    bound (4i)^2 K^2 >= 16 (equivalently i^2 K^2 >= 1) and the per-curve
    margin (4i+1)/i > 4, which holds identically for i >= 1. The index and
    the invariants are checked here; the value comes from the same integer
    core that ``pipeline`` calls once for all its distinct indices, so only
    the reported gamma is built as a Fraction.
    """
    exact_int(i, "index", 1)
    return _n1_results(require(inv, ModelInvariants, "inv"), (i,))[i]


def pipeline(samples: HilbertSamples, mode: str) -> BoundReport:
    """Samples -> invariants -> configurations -> indices -> worst-case N1.

    The configurations come from the pipeline's own search, so they are
    valid by construction and go straight to the index core, without the
    checks of ``index_bounds``. N1 depends on the index alone: the N1 core
    reads the invariants and checks K^2 once, then builds one result per
    distinct index, which every configuration with that index shares.
    """
    inv = extract_invariants(samples, mode)
    configs = enumerate_configurations(inv, mode)
    if not configs:
        raise InconsistentSamplesError(
            "no singularity configuration matches the contribution sum",
            location=f"contribution sum {format_rational(inv.contribution_sum)}",
        )
    candidates, max_order = _index_candidates(configs, mode)
    n1_by_index = _n1_results(inv, dict.fromkeys(candidates))
    return BoundReport(
        mode=mode,
        invariants=inv,
        configurations=tuple(configs),
        max_terminal_order=max_order,
        index_candidates=candidates,
        results=tuple(map(n1_by_index.__getitem__, candidates)),
        n1_worst=max(r.n1 for r in n1_by_index.values()),
    )


def relate_models(weak_nef_chi: Mapping[int, int], canonical_chi: Mapping[int, int], cusps: int) -> bool:
    """Check the crepant relation between the two Euler tables.

    The weak nef table must sit below the canonical one by the cusp count at
    m = 0 and agree everywhere else. Keys are ints or decimal-integer
    strings naming multiples m >= 0; bools, floats, other strings and
    negative multiples are rejected, and so are two keys of one table that
    name the same multiple. A refused key or value is the ``location``, as a
    JSON Pointer into its table.
    """
    exact_int(cusps, "cusp count", 0)
    weak, canon = (
        _chi_table(chi, what) for chi, what in ((weak_nef_chi, "weak nef table"), (canonical_chi, "canonical table"))
    )
    if set(weak) != set(canon):
        raise ValidationError("both tables must cover the same multiples")
    if 0 not in weak:
        raise ValidationError("tables must contain m = 0")
    return all(weak[m] - canon[m] == (-cusps if m == 0 else 0) for m in weak)


def _chi_table(chi: Mapping, what: str) -> dict[int, Fraction]:
    """``chi`` as {m: Fraction}: every key read, then each entry checked, a refusal located at its key."""
    table = {}
    for key, (m, v) in zip(chi, parse_integer_keys(chi, what).items()):
        try:
            table[m] = _table_value(m, v, f"{what} key")
        except ValidationError as err:
            err.location = _pointer(key)
            raise
    return table
