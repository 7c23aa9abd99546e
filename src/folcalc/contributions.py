"""Local Riemann-Roch contributions of foliation singularities.

At a cyclic quotient point of type (1/n)(1,q) the eigensheaf indexed by
i in [0, n-1] contributes

    a(i) = (1/n) * ( sum_{j=0}^{i-1} ((c*j) mod n)  -  i*(n-1)/2 ),

where c is the representative in [1, n] of -q^{-1} mod n. A terminal
foliation point of that type contributes a((m*q) mod n) for the m-th
multiple of the canonical class, which makes the contribution periodic in m
with period n and gives -(n-1)/(2n) at m = 1. Dihedral quotient points
contribute 0 for even and -1/2 for odd multiples; non-Q-Gorenstein (cusp)
points contribute 0 at m = 0 and -1 otherwise; Gorenstein canonical points
contribute nothing.

The dihedral value is certified here by the defining root-of-unity sums: for
group order 4n the 2n terms 1/(1 +- eps^(u_j)) must add up to exactly n. Two
independent evaluations are provided: an exact closed form over the coset of
exponents, pairing conjugate terms, and a double-precision complex one.
"""

from __future__ import annotations

import cmath
from collections.abc import Iterable
from fractions import Fraction
from math import fsum, gcd, pi

from .cyclic import CyclicType
from .errors import InconsistentModelError, ValidationError
from .rationals import Record, exact_int, format_rational, parse_integer, parse_rational, require

DIHEDRAL_E1 = "e1"
DIHEDRAL_E2 = "e2"

MAX_NUMERIC_TWO_N = 4096  # the numeric route's error grows with 2n; about 5e-11 here
NUMERIC_TOLERANCE = 1e-9


class Terminal(Record):
    """Terminal foliation point over a cyclic quotient of the given type."""

    type: CyclicType

    def __post_init__(self):
        require(self.type, CyclicType, "type")


class Dihedral(Record):
    """Dihedral quotient point of group order 4n, 2n = 2^a_exp * l * m_odd.

    The two variants constrain the twist exponent p by congruences:
    e1 needs p = -1 mod 2^a_exp * m_odd and p = 1 mod l;
    e2 needs a_exp >= 2, p = 1 mod 2^a_exp, p = 1 mod l and p = -1 mod m_odd.
    The congruences mod 2^a_exp test the low a_exp bits of p +- 1 by shifts, never 2**a_exp.
    """

    a_exp: int
    l: int
    m_odd: int
    p: int
    variant: str = DIHEDRAL_E1

    def __post_init__(self):
        for name in ("a_exp", "l", "m_odd", "p"):
            exact_int(getattr(self, name), f"invalid dihedral datum: {name}", 1)
        if self.variant not in (DIHEDRAL_E1, DIHEDRAL_E2):
            raise ValidationError(f"invalid dihedral datum: unknown variant {self.variant!r}")
        if self.l % 2 == 0 or self.m_odd % 2 == 0:
            raise ValidationError("invalid dihedral datum: l and m_odd must be odd")
        if gcd(self.l, self.m_odd) != 1:
            raise ValidationError("invalid dihedral datum: l and m_odd must be coprime")
        if self.variant == DIHEDRAL_E1:
            if (self.p + 1) >> self.a_exp << self.a_exp != self.p + 1 or (self.p + 1) % self.m_odd:
                raise ValidationError("invalid dihedral datum: need p = -1 (mod 2^a_exp * m_odd)")
            if (self.p - 1) % self.l:
                raise ValidationError("invalid dihedral datum: need p = 1 (mod l)")
        else:
            if self.a_exp < 2:
                raise ValidationError("invalid dihedral datum: variant e2 needs a_exp >= 2")
            if (self.p - 1) >> self.a_exp << self.a_exp != self.p - 1:
                raise ValidationError("invalid dihedral datum: need p = 1 (mod 2^a_exp)")
            if (self.p - 1) % self.l:
                raise ValidationError("invalid dihedral datum: need p = 1 (mod l)")
            if (self.p + 1) % self.m_odd:
                raise ValidationError("invalid dihedral datum: need p = -1 (mod m_odd)")


class Cusp(Record):
    """Point where the foliation canonical class is not Q-Cartier."""


class GorensteinCanonical(Record):
    """Canonical, non-terminal point with Cartier canonical class."""


SingularityDatum = Terminal | Dihedral | Cusp | GorensteinCanonical


def _sheaf_numerator(i: int, n: int, c: int) -> int:
    """2n * a(i) = 2 * sum_{j<i} ((c*j) mod n) - i*(n-1), for 0 <= i and 0 < c < n.

    The remainder sum is c*i*(i-1)/2 - n * F with F = sum_{j<i} floor(c*j/n),
    and F is summed by the Euclid-like floor-sum recursion: while the top
    term mult*count + add reaches mod, the floors are counted column-wise,
    which swaps the roles of mod and mult and reduces both. The loop runs one
    step per step of Euclid's algorithm on (n, c) at most.
    """
    total = 0
    count, mod, mult, add = i, n, c, 0
    while True:
        top = mult * count + add
        if top < mod:
            return c * i * (i - 1) - 2 * n * total - i * (n - 1)
        count, add, mod, mult = top // mod, top % mod, mult, mod
        total += mult // mod * (count * (count - 1) // 2) + add // mod * count
        mult %= mod
        add %= mod


def dual_generator(t: CyclicType) -> int:
    """The representative c in [1, n - 1] of -q^{-1} mod n."""
    if type(t) is not CyclicType:  # criterion 1 calls this 76,115 times: no call on the exact type
        require(t, CyclicType, "t")
    return (-pow(t.q, -1, t.n)) % t.n


def a_cyclic_sheaf(t: CyclicType, i: int) -> Fraction:
    """Contribution of the i-th eigensheaf at a cyclic quotient point."""
    c = dual_generator(t)  # refuses a t that is not a CyclicType
    n = t.n
    return Fraction(_sheaf_numerator(exact_int(i, "i", 0, n - 1), n, c), 2 * n)


def a_terminal(t: CyclicType, m: int) -> Fraction:
    """Contribution of m times the canonical class at a terminal point.

    The m-th multiple is the eigensheaf indexed by (m*q) mod n, so the value
    is periodic in m with period n. The same value is the (m mod n)-th
    partial sum with multiplier -q in place of c:

        a((m*q) mod n) = (1/n) * sum_{k < m mod n} (((-k*q) mod n) - (n-1)/2),

    which needs no inverse mod n, and whose floor-sum recursion is short for
    small multiples. The tests check it against the eigensheaf form at every
    multiple.
    """
    if type(t) is not CyclicType:  # as in dual_generator
        require(t, CyclicType, "t")
    n = t.n
    return Fraction(_sheaf_numerator(exact_int(m, "m") % n, n, n - t.q), 2 * n)


def a_dihedral(m: int) -> Fraction:
    """0 for even multiples, -1/2 for odd ones."""
    exact_int(m, "m")
    return Fraction(0) if m % 2 == 0 else Fraction(-1, 2)


def a_cusp(m: int) -> Fraction:
    """0 at m = 0, -1 for every other multiple."""
    exact_int(m, "m")
    return Fraction(0) if m == 0 else Fraction(-1)


def contribution(datum: SingularityDatum, m: int) -> Fraction:
    """Contribution of m times the canonical class at the given point."""
    if isinstance(datum, Terminal):
        return a_terminal(datum.type, m)
    if isinstance(datum, Dihedral):
        return a_dihedral(m)
    if isinstance(datum, Cusp):
        return a_cusp(m)
    if isinstance(datum, GorensteinCanonical):
        return Fraction(0)
    raise ValidationError(f"unknown singularity datum: {datum!r}")


def _exact_root_sum(two_n: int, plus_sign: bool, offset: int, g: int) -> Fraction:
    """Exact value of the sum over the exponent coset offset + gZ mod 2n, each residue g times.

    On the unit circle 1/(1+z) + 1/(1+conj(z)) = 1 (same with both signs
    flipped), and the self-conjugate terms (u = 0 or n) are literal halves.
    """
    n = two_n // 2
    pole = n if plus_sign else 0
    if (pole - offset) % g == 0:
        raise ValidationError("invalid dihedral datum: the sum has a vanishing denominator")
    if 2 * offset % g:
        raise InconsistentModelError(
            "root-of-unity sum is not conjugation-symmetric",
            location=f"2n = {two_n}, exponents {offset} mod {g}",
        )
    self_conjugate = sum(1 for u in (0, n) if (u - offset) % g == 0)
    pairs = (two_n // g - self_conjugate) // 2
    return g * pairs + Fraction(g * self_conjugate, 2)


def _root_sum_terms(two_n: int, plus_sign: bool, step: int, offset: int):
    """The terms 1/(1 +- eps^(u_j)), u_j = step*j + offset mod 2n, in double precision.

    Each exponent is reduced into [-n, n) first, so conjugate terms mirror
    exactly and their imaginary parts cancel in ``fsum``.
    """
    n = two_n // 2
    sign = 1 if plus_sign else -1
    for j in range(two_n):
        u = (step * j + offset + n) % two_n - n
        yield 1 / (1 + sign * cmath.exp(1j * (pi * u / n)))


class DihedralSumReport(Record):
    sum_value: complex
    sum_exact: Fraction
    expected_n: int
    passed: bool
    a_value: Fraction


def dihedral_sum_verify(datum: Dihedral) -> DihedralSumReport:
    """Certify that the defining root-of-unity sum of the datum equals n.

    The exact evaluation must give n on the nose and the numeric one must land
    within NUMERIC_TOLERANCE of n; the resulting contribution -sum/(2n) is
    reported alongside (it must be -1/2). 2n above MAX_NUMERIC_TWO_N is refused,
    through a_exp first, so a huge 2^a_exp is never built.
    """
    require(datum, Dihedral, "datum")
    if (
        datum.a_exp >= MAX_NUMERIC_TWO_N.bit_length()
        or (two_n := (datum.l * datum.m_odd) << datum.a_exp) > MAX_NUMERIC_TWO_N
    ):
        raise ValidationError(f"dihedral certificate: 2n must be at most {MAX_NUMERIC_TWO_N}")
    n = two_n // 2
    plus_sign = datum.variant == DIHEDRAL_E1
    step = (datum.p + 1) % two_n
    offset = 0 if plus_sign else (datum.m_odd * datum.l) % two_n
    exact = _exact_root_sum(two_n, plus_sign, offset, gcd(step, two_n))
    terms = list(_root_sum_terms(two_n, plus_sign, step, offset))
    numeric = complex(fsum(t.real for t in terms), fsum(t.imag for t in terms))
    a_value = -exact / two_n
    passed = abs(numeric - n) < NUMERIC_TOLERANCE and exact == n and a_value == Fraction(-1, 2)
    return DihedralSumReport(
        sum_value=numeric,
        sum_exact=exact,
        expected_n=n,
        passed=passed,
        a_value=a_value,
    )


def chi_fchain(t: CyclicType, m: int) -> Fraction:
    """Local Euler defect of the m-th pluricanonical sheaf across a contracted string.

    Closed form
        (1/n) * ( (m - mb)*(n-1)/2 + m*(m-1)*q/2 + sum_{k<mb} ((-k*q) mod n) )
    with mb = m mod n, the eigensheaf sum written in the multiplier -q form of
    ``a_terminal``; the value is a nonnegative integer and vanishes at m = 0
    and m = 1.
    """
    require(t, CyclicType, "t")
    exact_int(m, "m", 0)
    n, q = t.n, t.q
    return Fraction(m * (n - 1) + m * (m - 1) * q + _sheaf_numerator(m % n, n, n - q), 2 * n)


def chi_partial_crepant(datum: SingularityDatum, m: int) -> int:
    """Euler defect across the minimal partial crepant resolution.

    1 exactly when the point is a cusp and m = 0; every other case gives 0.
    The dihedral 0 is recomputed from the primitive contributions, as the
    cancellation a(y) - a(x1) - a(x2) = -1/2 + 1/4 + 1/4, never hard-coded.
    """
    exact_int(m, "m")
    if isinstance(datum, Cusp):
        return 1 if m == 0 else 0
    if isinstance(datum, Dihedral):
        half_point = CyclicType(2, 1)
        value = a_dihedral(m) - 2 * a_cyclic_sheaf(half_point, m % 2)
        if value.denominator != 1:
            raise InconsistentModelError(
                "dihedral crepant cancellation failed", location=f"m = {format_rational(m)}"
            )
        return int(value)
    if isinstance(datum, (Terminal, GorensteinCanonical)):
        return 0
    raise ValidationError(f"unknown singularity datum: {datum!r}")


def global_chi(
    k2,
    k_dot_ky,
    chi_o: int,
    sings,
    m: int,
    require_integer: bool = False,
) -> Fraction:
    """Euler characteristic of the m-th pluricanonical sheaf on a model.

    Computes m^2/2 * K^2 - m/2 * K.K_Y + chi(O) plus the local contributions
    of the listed singular points. Geometrically consistent data always
    yields an integer; pass ``require_integer=True`` to enforce that and
    reject inconsistent models.
    """
    exact_int(m, "m", 0)
    chi_o = parse_integer(chi_o)
    k2 = parse_rational(k2)
    k_dot_ky = parse_rational(k_dot_ky)
    total = Fraction(m * m, 2) * k2 - Fraction(m, 2) * k_dot_ky + chi_o
    for datum in require(sings, Iterable, "sings"):
        total += contribution(datum, m)
    if require_integer and total.denominator != 1:
        raise InconsistentModelError(
            "inconsistent model data: chi is not an integer", location=f"m = {format_rational(m)}"
        )
    return total
