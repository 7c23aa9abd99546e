"""Workload ``strings``: resolution strings and long chains (cubic linalg today).

A pool of 60 jobs is replayed in a closed loop. The sizes are fixed and the
seed picks the entries, so every seed has the same cost profile, and each of
the two reported percentiles falls inside a block of same-sized jobs rather
than on the step between two sizes:

- 46 short strings (entries 2..6), 25 of them with 5 curves, which hold the
  median on per-call overhead;
- long strings: one of 60 curves, nine of 120 curves, which hold the 90th
  percentile, each with a single (-3)-curve at a seeded position, and the
  all-(-2) string of type (201, 200);
- Zariski decompositions on (-2)-chains of 20, 35 and 80 curves whose degree
  profile makes the support grow by one curve per pass, from one end or from
  both ends towards a stopping curve in the middle; their sizes fix them.
"""

from __future__ import annotations

from fractions import Fraction

from folcalc import cyclic, lattice, zariski
from folcalc.errors import FolcalcError

import oracles

NAME = "strings"
MODULE = "folcalc"

# (curves, copies): 6 + 5 + 25 + 10 = 46 short strings
SHORT = ((1, 2), (2, 2), (3, 2), (4, 5), (5, 25), (6, 2), (7, 2), (8, 2), (9, 2), (10, 2))
LONG = ((60, 1), (120, 9))  # one (-3)-curve each
ALL_MINUS_TWO = 200
CHAINS = ((20, "one"), (35, "both"), (80, "both"))


def _short_job(rng, length):
    entries = [rng.randint(2, 6) for _ in range(length)]
    n, q = oracles.string_type(entries)
    return {"kind": "string", "n": n, "q": q}


def _long_job(rng, length, threes):
    entries = [2] * length
    for j in rng.sample(range(length), threes):
        entries[j] = 3
    n, q = oracles.string_type(entries)
    return {"kind": "string", "n": n, "q": q}


def _tridiagonal_solve(diagonal, rhs):
    """Exact solve of the chain system with unit off-diagonal (Thomas algorithm)."""
    size = len(diagonal)
    c = [Fraction(0)] * size
    d = [Fraction(0)] * size
    for i in range(size):
        denom = diagonal[i] - (c[i - 1] if i else 0)
        c[i] = Fraction(1) / denom
        d[i] = (rhs[i] - (d[i - 1] if i else 0)) / denom
    x = [Fraction(0)] * size
    for i in range(size - 1, -1, -1):
        x[i] = d[i] - (c[i] * x[i + 1] if i + 1 < size else 0)
    return x


def chain_job(length, growth):
    """A chain and a divisor D whose support grows one curve per pass.

    D . C is -1 on the growing end(s), +1 on one stopping curve (the far end,
    or the middle) and 0 elsewhere; the negative part is then positive on
    every adopted curve, so the decomposition exists and takes about as many
    passes as curves adopted. Every curve is a (-2)-curve: a (-3)-curve would
    make the cost depend on where it sits, by up to a factor of two.
    """
    selfs = [-2] * length
    profile = [0] * length
    profile[0] = -1
    if growth == "one":
        profile[-1] = 1
    else:
        profile[-1] = -1
        profile[length // 2] = 1
    coeffs = _tridiagonal_solve(selfs, profile)
    labels = [f"C{j + 1}" for j in range(length)]
    graph = {
        "curves": [{"label": label, "self": s} for label, s in zip(labels, selfs)],
        "edges": [[labels[j], labels[j + 1], 1] for j in range(length - 1)],
    }
    divisor = {label: str(c) for label, c in zip(labels, coeffs)}
    return {"kind": "chain", "graph": graph, "divisor": divisor}


def pool(rng):
    jobs = [_short_job(rng, length) for length, copies in SHORT for _ in range(copies)]
    jobs += [_long_job(rng, length, 1) for length, copies in LONG for _ in range(copies)]
    jobs.append(_long_job(rng, ALL_MINUS_TWO, 0))
    jobs += [chain_job(length, growth) for length, growth in CHAINS]
    rng.shuffle(jobs)
    return jobs


def warmup(rng):
    return [_short_job(rng, 1 + i % 10) for i in range(20)] + [chain_job(12, "one")]


def run(job):
    if job["kind"] == "string":
        t = cyclic.CyclicType(job["n"], job["q"])
        graph = cyclic.hj_string_graph(t)
        fchain = lattice.solve_pullback(graph, cyclic.fchain_profile(t))
        canonical_profile = lattice.profile_from_json(
            graph, {c.label: -c.self_intersection - 2 for c in graph.curves}
        )
        canonical = lattice.solve_pullback(graph, canonical_profile)
        definite = lattice.is_negative_definite(graph, graph.labels)
        return graph, fchain, canonical, definite
    graph = lattice.graph_from_json(job["graph"])
    divisor = lattice.divisor_from_json(graph, job["divisor"])
    try:
        result = zariski.zariski_decompose(graph, divisor)
    except FolcalcError as err:
        return err.code
    return result


def normalize(job, out):
    """Plain JSON data for the output, taken after the timed region."""
    if job["kind"] == "string":
        graph, fchain, canonical, definite = out
        return {
            "selfs": [c.self_intersection for c in graph.curves],
            "fchain": [str(fchain.coefficient(label)) for label in graph.labels],
            "canonical": [str(canonical.coefficient(label)) for label in graph.labels],
            "definite": definite,
        }
    if isinstance(out, str):
        return {"error": out}
    labels = out.positive.graph.labels
    return {
        "P": [str(out.positive.coefficient(label)) for label in labels],
        "N": [str(out.negative.coefficient(label)) for label in labels],
        "support": list(out.support),
    }


def chain_matrix(selfs):
    size = len(selfs)
    return [
        [selfs[i] if i == j else (1 if abs(i - j) == 1 else 0) for j in range(size)]
        for i in range(size)
    ]


def check(job, doc, _context):
    if job["kind"] == "string":
        return _check_string(job, doc)
    if "error" in doc:
        return [f"chain decomposition failed with {doc['error']}"]
    selfs = [c["self"] for c in job["graph"]["curves"]]
    d = [Fraction(v) for v in job["divisor"].values()]
    p = [Fraction(v) for v in doc["P"]]
    n = [Fraction(v) for v in doc["N"]]
    problems = oracles.check_zariski(chain_matrix(selfs), d, p, n)
    labels = [c["label"] for c in job["graph"]["curves"]]
    if doc["support"] != [label for label, v in zip(labels, n) if v]:
        problems.append("reported support differs from supp N")
    return problems


def _check_string(job, doc):
    n, q = job["n"], job["q"]
    entries = oracles.string_entries(n, q)
    problems = []
    if doc["selfs"] != [-b for b in entries]:
        return [f"string of ({n},{q}) has self-intersections {doc['selfs']}"]
    matrix = chain_matrix(doc["selfs"])
    fchain = [Fraction(v) for v in doc["fchain"]]
    canonical = [Fraction(v) for v in doc["canonical"]]
    profile = [-1] + [0] * (len(entries) - 1)
    problems += oracles.check_pullback(matrix, profile, fchain)
    problems += oracles.check_pullback(matrix, [b - 2 for b in entries], canonical)
    if fchain[0] != Fraction(q, n):
        problems.append(f"F-chain C1 coefficient {fchain[0]} != q/n")
    if canonical[0] != Fraction(q + 1, n) - 1:
        problems.append(f"canonical C1 coefficient {canonical[0]} != -1 + (q+1)/n")
    expected = oracles.string_is_negative_definite(doc["selfs"], [1] * len(entries))
    if doc["definite"] != expected:
        problems.append(f"negative definiteness {doc['definite']}, minors say {expected}")
    return problems


def probes(job, doc):
    """(matrix, rhs) pairs for the traced run's direct linalg calls."""
    if job["kind"] == "string":
        return [(chain_matrix(doc["selfs"]), [-1] + [0] * (len(doc["selfs"]) - 1))]
    if "error" in doc:
        return []
    selfs = [c["self"] for c in job["graph"]["curves"]]
    matrix = chain_matrix(selfs)
    d = [Fraction(v) for v in job["divisor"].values()]
    degrees = oracles.matvec(matrix, d)
    support = [j for j, v in enumerate(doc["N"]) if v != "0"]
    return [
        (matrix, degrees),
        (oracles.submatrix(matrix, support), [degrees[j] for j in support]),
    ]


def observe(job, doc, counters):
    if job["kind"] == "chain" and "support" in doc:
        counters["zariski.support_sizes"].append(len(doc["support"]))
