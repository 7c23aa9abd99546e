"""Tests of the benchmark itself: its checkers, its oracles and its output.

    python -m pytest perfbench -q

Each checker must reject a deliberately corrupted result, and every metric
the benchmark prints must be declared in BENCHMARK.json.
"""

import json
import os
import random
import re
import shutil
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import oracles  # noqa: E402
import wl_bounds  # noqa: E402
import wl_cli  # noqa: E402
import wl_configs  # noqa: E402
import wl_strings  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _doc(wl, job):
    return wl.normalize(job, wl.run(job))


def _first(jobs, predicate):
    return next(job for job in jobs if predicate(job))


# --- oracles -----------------------------------------------------------------


def test_oracles_on_known_values():
    assert oracles.string_entries(12, 5) == [3, 2, 3]
    assert oracles.string_type([3, 2, 3]) == (12, 5)
    assert oracles.UnitFractionScan().tuples(3, Fraction(1)) == [(2, 3, 6), (2, 4, 4), (3, 3, 3)]
    assert oracles.is_negative_definite([[-2, 1], [1, -2]])
    assert not oracles.is_negative_definite([[-1, 2], [2, -1]])
    assert oracles.string_is_negative_definite([-2, -2, -2], [1, 1])
    assert not oracles.string_is_negative_definite([-1, -1], [1])
    assert oracles.solve([[2, 1], [1, 1]], [3, 2]) == [1, 1]
    assert oracles.solve([[1, 1], [1, 1]], [1, 1]) is None
    # an order-2 point contributes -1/4 at odd multiples and 0 at even ones
    assert oracles.terminal_contribution(2, 1, 1) == Fraction(-1, 4)
    assert oracles.terminal_contribution(2, 1, 2) == 0


# --- every checker rejects a corrupted result -----------------------------------


def test_strings_checker_rejects_a_wrong_coefficient():
    jobs = wl_strings.pool(random.Random(1))
    job = _first(jobs, lambda j: j["kind"] == "string")
    doc = _doc(wl_strings, job)
    assert wl_strings.check(job, doc, {}) == []
    for key in ("fchain", "canonical"):
        bad = dict(doc, **{key: [str(Fraction(doc[key][0]) + 1)] + doc[key][1:]})
        assert wl_strings.check(job, bad, {})
    assert wl_strings.check(job, dict(doc, definite=not doc["definite"]), {})


def test_chain_checker_rejects_a_wrong_coefficient():
    job = wl_strings.chain_job(20, "both")
    doc = _doc(wl_strings, job)
    assert doc["support"] and wl_strings.check(job, doc, {}) == []
    n = list(doc["N"])
    j = next(k for k, v in enumerate(n) if v != "0")
    n[j] = str(Fraction(n[j]) + Fraction(1, 7))
    assert wl_strings.check(job, dict(doc, N=n), {})


def test_configs_checker_rejects_wrong_outcomes():
    jobs = wl_configs.pool(random.Random(3))
    decomposed = _first(jobs, lambda j: "support" in _doc(wl_configs, j) and len(j["graph"]["curves"]) > 2)
    doc = _doc(wl_configs, decomposed)
    assert wl_configs.check(decomposed, doc, {}) == []
    label = decomposed["graph"]["curves"][0]["label"]
    p = dict(doc["P"], **{label: str(Fraction(doc["P"].get(label, 0)) + 1)})
    assert wl_configs.check(decomposed, dict(doc, P=p), {})
    hidden = {k: v for k, v in doc.items() if k not in ("P", "N", "support")}
    assert wl_configs.check(decomposed, dict(hidden, zariski_error="not-pseudoeffective"), {})
    solved = _first(jobs, lambda j: "Z" in _doc(wl_configs, j))
    doc = _doc(wl_configs, solved)
    z = {k: v for k, v in doc.items() if k != "Z"}
    assert wl_configs.check(solved, dict(z, pullback_error="degenerate-configuration"), {})


def test_bounds_checker_rejects_a_missing_configuration():
    jobs = wl_bounds.pool(random.Random(4))
    for kind in ("search", "roundtrip"):
        job = _first(jobs, lambda j: j["kind"] == kind and j["mode"] == wl_bounds.WEAK)
        doc = _doc(wl_bounds, job)
        assert wl_bounds.check(job, doc, {}) == []
        bad = dict(doc, configs=doc["configs"][:-1], index=doc["index"][:-1], n1=doc["n1"][:-1])
        assert wl_bounds.check(job, bad, {})
    job = _first(jobs, lambda j: j["kind"] == "inconsistent")
    assert wl_bounds.check(job, _doc(wl_bounds, job), {}) == []
    assert wl_bounds.check(job, {"error": "not-general-type"}, {})


def test_cli_checker_rejects_a_changed_byte_and_a_wrong_exit_code(tmp_path):
    jobs = wl_cli.pool(random.Random(5))
    wl_cli.prepare(jobs, os.path.join(ROOT, "src"), str(tmp_path), "t")
    good = _first(jobs, lambda j: j["argv"][0] == "hj" and j["format"] == "json" and "--bogus" not in j["argv"])
    doc = _doc(wl_cli, good)
    assert wl_cli.check(good, doc, {}) == []
    text = doc["stdout"]
    flipped = text[:-2] + ("0" if text[-2] != "0" else "1") + text[-1]
    assert wl_cli.check(good, dict(doc, stdout=flipped), {})
    failing = _first(jobs, lambda j: j["argv"][0] == "zariski" and "{positive.json}" in j["argv"])
    doc = _doc(wl_cli, failing)
    assert doc["exit"] == 1 and wl_cli.check(failing, doc, {}) == []
    assert wl_cli.check(failing, dict(doc, exit=2), {})


# --- the printed metrics ---------------------------------------------------------


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    return bench, {m["name"] for m in bench["end_to_end"]}, {m["name"] for m in bench["per_layer"]}


def test_metric_spec_matches_benchmark_json():
    bench, end_to_end, per_layer = _declared()
    with open(os.path.join(HERE, "metrics.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [m["name"] for m in spec["end_to_end"]] == [m["name"] for m in bench["end_to_end"]]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (m["name"], m["unit"], m["better"]) for m in bench["per_layer"]
    ]
    assert all(NAME.fullmatch(name) for name in end_to_end | per_layer)
    assert all(m["moves"] and m["workload"] for m in spec["per_layer"])


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_printed_metrics_are_declared_and_correct():
    _, end_to_end, per_layer = _declared()
    for trace, declared in ((0, end_to_end), (1, per_layer)):
        proc = _run("configs", trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == declared
        assert all(NAME.fullmatch(name) for name in result["metrics"])


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("strings", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
