"""The traced run: untraced and traced passes, then per-layer metrics from the spans.

Untraced and traced passes over the pool alternate until the run's time is
up, so drift on the machine cancels out of the tracing overhead. A traced
pass wraps every function in tracing.TRACED (for the cli workload the timing
child does the wrapping, and its overhead includes the child's second parse
and handler call). After the last pass the benchmark calls
``linalg.solve_exact`` and ``linalg.is_negative_definite_matrix`` directly on
each job's pairing matrix (and on the final Zariski support), as spans of
their own outside any job. The spans are written to the run's span file.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from time import perf_counter

import tracing
from loop import closed_loop

SPEC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "metrics.json")


def per_layer_names():
    with open(SPEC, encoding="utf-8") as handle:
        return [m["name"] for m in json.load(handle)["per_layer"]]


def _probe(tracer, wl, jobs, book):
    """Direct linalg calls on every job's matrices; returns their input/output sizes."""
    from folcalc import linalg

    dims, densities, bits = [], [], []
    for i, job in enumerate(jobs):
        if i not in book.first:
            continue
        for matrix, rhs in wl.probes(job, book.first[i]):
            if not matrix:
                continue
            size = len(matrix)
            dims.append(size)
            densities.append(sum(1 for row in matrix for v in row if v) / size**2)
            tracer.job = i
            xs = linalg.solve_exact(matrix, rhs)
            linalg.is_negative_definite_matrix(matrix)
            if xs:
                bits.append(max(max(x.numerator.bit_length(), x.denominator.bit_length()) for x in xs))
    return dims, densities, bits


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def measure(wl, jobs, request, book):
    """Alternate untraced and traced passes over the pool until the time is up."""
    tracer = tracing.Tracer()
    spans_path = None
    if wl.MODULE == "folcalc.cli":
        spans_path = os.path.join(request["workdir"], "child-spans.json")
    plain, traced = [], []
    deadline = perf_counter() + request["seconds"]
    while not traced or perf_counter() < deadline:
        plain += closed_loop(wl, jobs, 0, book)
        if spans_path is None:
            tracer.install()
        try:
            traced += closed_loop(wl, jobs, 0, book, tracer, spans_path)
        finally:
            tracer.uninstall()
    tracer.install()
    try:
        dims, densities, bits = _probe(tracer, wl, jobs, book)
    finally:
        tracer.uninstall()
    book.check()

    counters: dict = defaultdict(list)
    counters["bounds.seen"] = set()
    for k in range(len(traced)):
        i = k % len(jobs)
        if i in book.first:
            wl.observe(jobs[i], book.first[i], counters)

    summary = tracing.summarize(tracer.spans)
    values = dict.fromkeys(per_layer_names(), 0.0)
    for name, entry in summary["per_name"].items():
        if f"{name}.calls" in values:
            values[f"{name}.calls"] = entry["calls"]
            values[f"{name}.failed"] = entry["failed"]
            values[f"{name}.self_ms"] = entry["self_ns"] / 1e6 / entry["calls"]
    stats = summary["per_name"]
    if "lattice.solve_pullback" in stats:
        values["lattice.solve_pullback.degenerate"] = stats["lattice.solve_pullback"]["domain"]
    if "zariski.zariski_decompose" in stats:
        z = stats["zariski.zariski_decompose"]
        values["zariski.decomposed_ratio"] = (z["calls"] - z["domain"] - z["failed"]) / z["calls"]
    values["linalg.solve_exact.dim_max"] = max(dims, default=0)
    values["linalg.solve_exact.density"] = _mean(densities)
    values["linalg.solve_exact.result_bits_max"] = max(bits, default=0)
    values["zariski.support_size_mean"] = _mean(counters["zariski.support_sizes"])
    values["bounds.extract_invariants.periods_tried"] = _mean(counters["bounds.periods_tried"])
    values["bounds.enumerate_configurations.configs"] = _mean(counters["bounds.configs"])
    values["bounds.enumerate_configurations.repeat_share"] = _mean(counters["bounds.repeats"])
    values["cli.stdout_bytes"] = _mean(counters["cli.stdout_bytes"])
    values["cli.interpreter_ms"] = request["interpreter_ms"]
    if spans_path:
        stage_ms = dict.fromkeys(("cli.import", "cli.parse", "cli.compute", "cli.render"), 0.0)
        for _sid, _parent, name, start, end, _job, _status in tracer.spans:
            if name in stage_ms:
                stage_ms[name] += (end - start) / 1e6 / len(traced)
        for stage, ms in stage_ms.items():
            values[f"{stage}_ms"] = ms

    plain_ms = sum(plain) / len(plain) / 1e6
    traced_ms = sum(traced) / len(traced) / 1e6
    values["trace.job_ms"] = summary["job_ms"]
    values["trace.unattributed_ms"] = summary["unattributed_ms"]
    values["trace.overhead_ms"] = traced_ms - plain_ms
    values["trace.overhead_pct"] = 100 * (traced_ms - plain_ms) / plain_ms
    attempted = len(plain) + len(traced)
    values["error_rate"] = book.failed / attempted

    os.makedirs(os.path.dirname(request["spans_file"]), exist_ok=True)
    tracer.write(request["spans_file"], {"workload": request["workload"], "seed": request["seed"],
                                         "stamp": request["stamp"]})
    return values, attempted
