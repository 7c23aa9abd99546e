"""Workload ``configs``: random configurations in the style of criterion 5.

A pool of 768 configurations (64 of each size from 1 to 12 curves) is
replayed in a closed loop. Graphs have cycles, edge multiplicities up to 2
and self-intersections from -4 to -1; each job decomposes a random rational
divisor and solves a random pull-back profile on the whole graph. The
matrices are small, dense and often indefinite, so many outcomes are the
expected domain errors (not pseudoeffective, degenerate configuration).
"""

from __future__ import annotations

from fractions import Fraction

from folcalc import lattice, zariski
from folcalc.errors import DegenerateConfigurationError, NotPseudoeffectiveError

import oracles

NAME = "configs"
MODULE = "folcalc"

MAX_CURVES = 12
PER_SIZE = 64


def _config_job(rng, size):
    labels = [f"E{i}" for i in range(size)]
    curves = [{"label": label, "self": rng.randint(-4, -1)} for label in labels]
    edges = []
    for i in range(size):
        for j in range(i + 1, size):
            mult = rng.choice([0, 0, 0, 1, 1, 2])
            if mult:
                edges.append([labels[i], labels[j], mult])
    divisor = {label: f"{rng.randint(-6, 6)}/{rng.randint(1, 3)}" for label in labels}
    profile = {label: rng.randint(-2, 2) for label in labels}
    return {"graph": {"curves": curves, "edges": edges}, "divisor": divisor, "profile": profile}


def pool(rng):
    jobs = [_config_job(rng, 1 + i % MAX_CURVES) for i in range(PER_SIZE * MAX_CURVES)]
    rng.shuffle(jobs)
    return jobs


def warmup(rng):
    return [_config_job(rng, 1 + i % MAX_CURVES) for i in range(48)]


def run(job):
    graph = lattice.graph_from_json(job["graph"])
    divisor = lattice.divisor_from_json(graph, job["divisor"])
    out = {}
    try:
        result = zariski.zariski_decompose(graph, divisor)
        out["P"] = lattice.divisor_to_json(result.positive)
        out["N"] = lattice.divisor_to_json(result.negative)
        out["support"] = list(result.support)
    except NotPseudoeffectiveError as err:
        out["zariski_error"] = err.code
    profile = lattice.profile_from_json(graph, job["profile"])
    try:
        out["Z"] = lattice.divisor_to_json(lattice.solve_pullback(graph, profile))
    except DegenerateConfigurationError as err:
        out["pullback_error"] = err.code
    return out


def normalize(_job, out):
    return out


def matrix_of(graph_json):
    labels = [c["label"] for c in graph_json["curves"]]
    index = {label: i for i, label in enumerate(labels)}
    matrix = [[0] * len(labels) for _ in labels]
    for i, c in enumerate(graph_json["curves"]):
        matrix[i][i] = c["self"]
    for a, b, mult in graph_json["edges"]:
        matrix[index[a]][index[b]] += mult
        matrix[index[b]][index[a]] += mult
    return labels, matrix


def _vector(labels, coeffs):
    return [Fraction(coeffs.get(label, 0)) for label in labels]


def check(job, doc, _context):
    labels, matrix = matrix_of(job["graph"])
    d = _vector(labels, job["divisor"])
    problems = []
    if "P" not in doc:
        if oracles.expected_zariski(matrix, d) is not None:
            problems.append("declared not pseudoeffective, but a decomposition exists")
    else:
        p = _vector(labels, doc["P"])
        n = _vector(labels, doc["N"])
        problems += oracles.check_zariski(matrix, d, p, n)
        if doc["support"] != [label for label, v in zip(labels, n) if v]:
            problems.append("reported support differs from supp N")
    profile = [Fraction(job["profile"][label]) for label in labels]
    if "Z" not in doc:
        if oracles.solve(matrix, profile) is not None:
            problems.append("pull-back declared degenerate on an invertible matrix")
    else:
        problems += oracles.check_pullback(matrix, profile, _vector(labels, doc["Z"]))
    return problems


def probes(job, doc):
    labels, matrix = matrix_of(job["graph"])
    out = [(matrix, [job["profile"][label] for label in labels])]
    if doc.get("support"):
        d = _vector(labels, job["divisor"])
        degrees = oracles.matvec(matrix, d)
        idxs = [labels.index(label) for label in doc["support"]]
        out.append((oracles.submatrix(matrix, idxs), [degrees[j] for j in idxs]))
    return out


def observe(_job, doc, counters):
    if "support" in doc:
        counters["zariski.support_sizes"].append(len(doc["support"]))
