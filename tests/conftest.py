"""Shared test helpers: random configurations, synthetic models, oracles."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

import folcalc as f
from folcalc.errors import NotPseudoeffectiveError
from folcalc.lattice import degree_against_curve, divisor_from_json
from folcalc.linalg import solve_exact


def coprime_pairs(n_max, n_min=2):
    for n in range(n_min, n_max + 1):
        for q in range(1, n):
            if gcd(n, q) == 1:
                yield n, q


def random_graph(rng, max_curves=6, self_range=(-4, -1)):
    n = rng.randint(1, max_curves)
    labels = [f"E{i}" for i in range(n)]
    curves = [f.Curve(label, rng.randint(*self_range)) for label in labels]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            mult = rng.choice([0, 0, 0, 1, 1, 2])
            if mult:
                edges.append((labels[i], labels[j], mult))
    return f.DualGraph(curves, edges)


def random_divisor(rng, graph, numerator=6, denominator=3):
    return f.QDivisor(
        graph,
        {
            label: Fraction(rng.randint(-numerator, numerator), rng.randint(1, denominator))
            for label in graph.labels
        },
    )


def exhaustive_zariski(graph, d):
    """Every support subset satisfying the three decomposition conditions.

    Independent of the iterative algorithm: tries all subsets, solves the
    matching system directly, and filters by strict positivity of the
    negative part and nefness of the remainder.
    """
    valid = []
    matrix = f.intersection_matrix(graph)
    for r in range(len(graph.labels) + 1):
        for subset in combinations(graph.labels, r):
            if subset and not f.is_negative_definite(graph, subset):
                continue
            if subset:
                idxs = [graph.index_of(label) for label in subset]
                sub = [[matrix[i][j] for j in idxs] for i in idxs]
                rhs = [degree_against_curve(d, label) for label in subset]
                xs = solve_exact(sub, rhs)
                if xs is None:
                    continue
                coeffs = dict(zip(subset, xs))
            else:
                coeffs = {}
            if any(v <= 0 for v in coeffs.values()):
                continue  # the subset must be the exact support
            negative = f.QDivisor(graph, coeffs)
            positive = d - negative
            if all(degree_against_curve(positive, label) >= 0 for label in graph.labels):
                valid.append((subset, positive, negative))
    return valid


def fraction_degree_vector(graph, coefficients):
    """Z . C_j summed in Fraction arithmetic, Z as {curve index: Fraction}.

    The reference for the integer sums of ``lattice.degree_vector``: the same
    pass over the sparse rows, with no common denominator.
    """
    out = [Fraction(0)] * len(graph)
    for i, x in coefficients.items():
        for j, v in graph.sparse_rows[i].items():
            out[j] += x * v
    return out


def fraction_by_index(d):
    """d's coefficients as {curve index: Fraction}."""
    return {d.graph.index_of(label): x for label, x in d.coefficients.items()}


def first_primes(count):
    primes = []
    n = 2
    while len(primes) < count:
        if all(n % p for p in primes if p * p <= n):
            primes.append(n)
        n += 1
    return primes


def prime_denominator_divisor(rng, graph):
    """A divisor whose coefficients have pairwise distinct prime denominators."""
    primes = rng.sample(first_primes(25), len(graph.labels))
    return f.QDivisor(
        graph,
        {label: Fraction(rng.choice([-1, 1]) * rng.randint(1, 30), p) for label, p in zip(graph.labels, primes)},
    )


def exponent_divisor(rng, graph):
    """A divisor read from decimal strings as float reprs write them, many in
    exponent form such as "6.106226635438361e-16"."""

    def text():
        mantissa = f"{rng.choice(['', '-'])}{rng.randint(1, 9)}.{rng.randint(0, 10**15 - 1):015d}"
        return f"{mantissa}e-{rng.randint(0, 17)}" if rng.random() < 0.7 else mantissa

    return divisor_from_json(graph, {label: text() for label in graph.labels})


def decompose_or_none(graph, d):
    try:
        return f.zariski_decompose(graph, d)
    except NotPseudoeffectiveError:
        return None


def x1_closed_form(t: f.CyclicType) -> Fraction:
    """First coefficient of the canonical-profile pull-back on the string of t."""
    return Fraction(-1) + Fraction(t.q + 1, t.n)


def brute_reciprocal_tuples(slots, remaining, lo):
    """Scan-and-break enumeration of unit-fraction tuples; the independent oracle.

    Walks candidate entries upward one by one and stops once even ``slots``
    copies of the current unit fraction cannot reach the target; no index
    arithmetic shared with the production recursion. (A static entry cap
    would be wrong: (3, 7, 43, 1806) already solves 4 slots and target 1/2.)
    """
    remaining = Fraction(remaining)
    if slots == 0:
        return [()] if remaining == 0 else []
    if remaining <= 0:
        return []
    out = []
    n = lo
    while True:
        unit = Fraction(1, n)
        if unit * slots < remaining:
            return out
        if unit <= remaining:
            out.extend(
                (n,) + tail for tail in brute_reciprocal_tuples(slots - 1, remaining - unit, n)
            )
        n += 1


def random_terminal(rng, max_order=5) -> f.CyclicType:
    n = rng.randint(2, max_order)
    q = rng.choice([q for q in range(1, n) if gcd(n, q) == 1])
    return f.CyclicType(n, q)


def make_synthetic_model(rng, mode, max_terminals=2, max_order=5):
    """A numerically consistent model: integer chi at every multiple.

    The fractional parts of the local contributions are quadratic in m, so
    choosing K^2 and K.K_Y to absorb them (with matching parities of the
    integer remainders) makes the global Euler characteristic integral.
    Returns (k2, k_dot_ky, chi_o, data list, terminal types, dihedral count,
    cusp count, quasi-period).
    """
    terminals = [random_terminal(rng, max_order) for _ in range(rng.randint(0, max_terminals))]
    dihedrals = rng.randint(0, 1) if mode == f.CANONICAL else 0
    cusps = rng.randint(0, 2) if mode == f.CANONICAL else 0
    quad_defect = sum((Fraction(t.q, t.n) for t in terminals), Fraction(0))
    lin_defect = sum((x1_closed_form(t) for t in terminals), Fraction(0)) - dihedrals
    a1 = rng.randint(1, 4)
    a2 = rng.choice([a1 - 2, a1, a1 + 2, a1 + 4])
    k2 = a1 + quad_defect
    k_dot_ky = a2 + lin_defect
    chi_o = rng.randint(-2, 3)
    data = (
        [f.Terminal(t) for t in terminals]
        + [f.Dihedral(a_exp=1, l=1, m_odd=1, p=1)] * dihedrals
        + [f.Cusp()] * cusps
    )
    period = lcm(1, *(t.n for t in terminals))
    if mode == f.CANONICAL:
        period = lcm(period, 2)
    return k2, k_dot_ky, chi_o, data, terminals, dihedrals, cusps, period


def model_samples(k2, k_dot_ky, chi_o, data, up_to):
    return {
        m: f.global_chi(k2, k_dot_ky, chi_o, data, m, require_integer=True)
        for m in range(up_to + 1)
    }
