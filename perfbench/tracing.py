"""Spans around the benchmark's calls into folcalc's public functions.

The traced run replaces each function in TRACED on its defining module with a
wrapper that records (id, parent, name, start, end, job, status). Callers
that look the function up on its module at call time go through the wrapper:
the benchmark itself, the CLI handlers (``bounds_mod.pipeline``), and calls
inside one module (``pipeline`` -> ``extract_invariants``). Names a module
imported from another one (``zariski``'s ``solve_exact``) keep the original,
so ``linalg`` is measured through direct calls the benchmark makes on each
job's matrices instead. Nothing inside folcalc changes; spans stay in memory
and are written out when the run ends.

Status is 0 for a return, 1 for a FolcalcError (an expected domain outcome)
and 2 for any other exception.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from time import perf_counter_ns

from folcalc.errors import FolcalcError

TRACED = {
    "linalg": ("solve_exact", "is_negative_definite_matrix"),
    "lattice": (
        "graph_from_json",
        "divisor_from_json",
        "profile_from_json",
        "divisor_to_json",
        "intersection_matrix",
        "solve_pullback",
        "is_negative_definite",
    ),
    "cyclic": ("hj_expansion", "hj_string_graph", "fchain_profile"),
    "zariski": ("zariski_decompose",),
    "bounds": (
        "pipeline",
        "extract_invariants",
        "enumerate_configurations",
        "enumerate_reciprocal_tuples",
        "index_bounds",
        "compute_n1",
        "relate_models",
    ),
    "contributions": ("a_terminal", "chi_fchain", "dihedral_sum_verify"),
    "jouanolou": ("accumulation_report",),
}

TRACED_NAMES = [f"{module}.{name}" for module, names in TRACED.items() for name in names]

OK, DOMAIN, FAILED = 0, 1, 2


class Tracer:
    """In-memory span recorder; install() wraps, uninstall() restores."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.job = None
        self._stack: list[int] = []
        self._next_id = 0
        self._saved: list[tuple] = []

    def new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def begin(self, name: str):
        """Open a span by hand (job roots, probes, CLI stages)."""
        sid = self.new_id()
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return [sid, parent, name, perf_counter_ns()]

    def end(self, opened, status=OK):
        sid, parent, name, start = opened
        self._stack.pop()
        self.spans.append((sid, parent, name, start, perf_counter_ns(), self.job, status))

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            opened = self.begin(name)
            status = OK
            try:
                return fn(*args, **kwargs)
            except FolcalcError:
                status = DOMAIN
                raise
            except BaseException:
                status = FAILED
                raise
            finally:
                self.end(opened, status)

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for module_name, names in TRACED.items():
            module = importlib.import_module(f"folcalc.{module_name}")
            for name in names:
                original = getattr(module, name)
                self._saved.append((module, name, original))
                setattr(module, name, self.wrap(f"{module_name}.{name}", original))

    def uninstall(self):
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()

    def write(self, path, header):
        """One JSON header line, then one line per span."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def summarize(spans):
    """Per-name calls, failures and self time, plus per-job root figures.

    A span's self time is its duration minus the durations of its children.
    The spans named ``job`` stand for whole jobs; their self time is the part
    of a job no traced function accounts for.
    """
    child_ns: dict = defaultdict(int)
    for sid, parent, name, start, end, job, status in spans:
        if parent is not None:
            child_ns[parent] += end - start
    per_name: dict = defaultdict(lambda: {"calls": 0, "failed": 0, "domain": 0, "self_ns": 0})
    job_ns = unattributed_ns = jobs = 0
    for sid, parent, name, start, end, job, status in spans:
        self_ns = end - start - child_ns[sid]
        if name == "job":
            jobs += 1
            job_ns += end - start
            unattributed_ns += self_ns
            continue
        entry = per_name[name]
        entry["calls"] += 1
        entry["self_ns"] += self_ns
        if status == FAILED:
            entry["failed"] += 1
        elif status == DOMAIN:
            entry["domain"] += 1
    return {
        "per_name": dict(per_name),
        "job_ms": job_ns / 1e6 / max(jobs, 1),
        "unattributed_ms": unattributed_ns / 1e6 / max(jobs, 1),
    }
