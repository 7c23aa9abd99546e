"""Workload ``cli``: fresh ``python -m folcalc.cli`` processes, one at a time.

A pool of 25 invocations is replayed in a closed loop: all ten subcommands
with small inputs, JSON and table output, three dihedral certificates from
the criterion-3 tuples with 2n <= 200, three malformed invocations that must
exit with 2 and three domain failures that must exit with 1. Interpreter
start, the import, argparse and rendering dominate; the computation is tiny.
Input files are written under the run's working directory during set-up.

Every JSON stdout must equal, byte for byte, the sorted-key indented
serialization of the same result computed in-process through the library;
table output must equal the flat ``key = value`` rendering of that result.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from math import gcd

from folcalc import bounds, contributions, cyclic, jouanolou, lattice, zariski
from folcalc.errors import FolcalcError, ValidationError

import wl_bounds
import wl_strings

NAME = "cli"
MODULE = "folcalc.cli"

BOUNDS_NOTE = (
    "index candidates are lcm-based upper bounds; |mK| is birational for every m >= N1_worst"
)

# set by prepare(): the environment every child process runs with
ENV: dict = {}
CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_child.py")


def _coprime_q(rng, n):
    return rng.choice([q for q in range(1, n) if gcd(n, q) == 1])


def _crt(residues_moduli):
    value, modulus = 0, 1
    for r, m in residues_moduli:
        if m == 1:
            continue
        value += modulus * ((pow(modulus, -1, m) * (r - value)) % m)
        modulus *= m
    return value % modulus, modulus


def dihedral_tuples(max_two_n=200):
    """Criterion 3's admissible (variant, a, l, m_odd, p) with 2n <= max_two_n."""
    out = []
    for two_n in range(2, max_two_n + 1, 2):
        odd, a = two_n, 0
        while odd % 2 == 0:
            odd //= 2
            a += 1
        splits = [(l, odd // l) for l in range(1, odd + 1) if odd % l == 0 and gcd(l, odd // l) == 1]
        for l, m_odd in splits:
            p, modulus = _crt([(-1, 2**a * m_odd), (1, l)])
            out.append(("e1", a, l, m_odd, p or modulus))
        if a >= 2:
            for l, m_odd in splits:
                p, modulus = _crt([(1, 2**a), (1, l), (-1, m_odd)])
                out.append(("e2", a, l, m_odd, p or modulus))
    return out


def _job(argv, files=None, fmt="json"):
    argv = list(argv) + (["--format", "table"] if fmt == "table" else [])
    return {"argv": [str(a) for a in argv], "files": files or {}, "format": fmt}


def pool(rng):
    jobs = []
    n = rng.randint(5, 97)
    q = _coprime_q(rng, n)
    jobs.append(_job(["hj", n, q]))
    jobs.append(_job(["hj", rng.randint(5, 97) | 1, 2], fmt="table"))
    n = rng.randint(5, 40)
    jobs.append(_job(["wunram", n, _coprime_q(rng, n), rng.randint(0, n - 1)]))
    jobs.append(_job(["wunram", 7, 3, rng.randint(0, 6)], fmt="table"))
    n = rng.randint(2, 60)
    jobs.append(_job(["contrib", "--kind", "terminal", "--n", n, "--q", _coprime_q(rng, n), "--m", rng.randint(0, 90)]))
    jobs.append(_job(["contrib", "--kind", "cusp", "--m", rng.randint(0, 9)], fmt="table"))
    jobs.append(_job(["contrib", "--kind", "dihedral", "--m", rng.randint(0, 9)]))
    n = rng.randint(2, 60)
    jobs.append(_job(["chi-local", "--n", n, "--q", _coprime_q(rng, n), "--m", rng.randint(0, 40)]))
    jobs.append(_job(["chi-local", "--kind", "cusp", "--m", rng.randint(0, 2)]))

    entries = [rng.randint(2, 5) for _ in range(rng.randint(2, 8))]
    labels = [f"C{j + 1}" for j in range(len(entries))]
    graph = {
        "curves": [{"label": label, "self": -b} for label, b in zip(labels, entries)],
        "edges": [[labels[j], labels[j + 1], 1] for j in range(len(labels) - 1)],
    }
    profile = {label: rng.randint(-2, 1) for label in labels}
    jobs.append(_job(["pullback", "{graph.json}", "{profile.json}"], {"graph.json": graph, "profile.json": profile}))
    chain = wl_strings.chain_job(rng.randint(6, 12), "one")
    files = {"chain.json": chain["graph"], "divisor.json": chain["divisor"]}
    jobs.append(_job(["zariski", "{chain.json}", "{divisor.json}"], files))
    for mode in (wl_bounds.WEAK, wl_bounds.CANONICAL):
        model = wl_bounds.round_trip(rng, mode, hint=rng.random() < 0.5)
        doc = {"values": model["values"], "period_hint": model["period_hint"]}
        jobs.append(_job(["bounds", "--mode", mode, "{samples.json}"], {"samples.json": doc}))
    jobs.append(_job(["jouanolou", "--dmax", rng.randint(5, 60)]))
    tuples = dihedral_tuples()
    for k, (variant, a, l, m_odd, p) in enumerate(rng.sample(tuples, 3)):
        argv = ["dihedral-verify", "--variant", variant, "--a", a, "--l", l, "--modd", m_odd, "--p", p]
        jobs.append(_job(argv, fmt="table" if k == 2 else "json"))
    canonical = {str(m): rng.randint(-5, 30) for m in range(8)}
    cusps = rng.randint(0, 3)
    weak = {m: v - (cusps if m == "0" else 0) for m, v in canonical.items()}
    jobs.append(_job(["relate", "{weak.json}", "{canonical.json}", "--cusps", cusps],
                     {"weak.json": weak, "canonical.json": canonical}))
    off = dict(weak, **{"3": weak["3"] + 1})
    jobs.append(_job(["relate", "{off.json}", "{canonical.json}", "--cusps", cusps],
                     {"off.json": off, "canonical.json": canonical}))

    # malformed invocations: exit 2
    jobs.append(_job(["pullback", "{broken.json}", "{profile.json}"],
                     {"broken.json": '{"curves": [', "profile.json": profile}))
    jobs.append(_job(["hj", rng.randint(5, 50), "--bogus"]))
    jobs.append(_job(["hj", 2 * rng.randint(3, 40), 2]))
    # domain failures: exit 1
    label = f"A{rng.randint(0, 9)}"
    jobs.append(_job(["zariski", "{positive.json}", "{negative.json}"], {
        "positive.json": {"curves": [{"label": label, "self": rng.randint(1, 3)}]},
        "negative.json": {label: f"-{rng.randint(1, 5)}"},
    }))
    size = rng.randint(3, 6)
    cycle = [f"K{j}" for j in range(size)]
    jobs.append(_job(["pullback", "{cycle.json}", "{cycle_profile.json}"], {
        "cycle.json": {
            "curves": [{"label": k, "self": -2} for k in cycle],
            "edges": [[cycle[j], cycle[(j + 1) % size], 1] for j in range(size)],
        },
        "cycle_profile.json": {k: rng.randint(-2, 2) for k in cycle},
    }))
    bad = wl_bounds.inconsistent(rng, wl_bounds.WEAK)
    jobs.append(_job(["bounds", "--mode", "weak-nef", "{inconsistent.json}"],
                     {"inconsistent.json": {"values": bad["values"]}}))
    rng.shuffle(jobs)
    return jobs


def warmup(rng):
    return pool(rng)[:3]


def prepare(jobs, src, workdir, tag):
    """Write every job's input files under ``workdir`` and resolve the argv."""
    ENV.clear()
    ENV.update(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0")
    for i, job in enumerate(jobs):
        paths = {}
        for name, content in job["files"].items():
            path = os.path.join(workdir, f"{tag}{i}-{name}")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(content if isinstance(content, str) else json.dumps(content))
            paths["{" + name + "}"] = path
        job["cmd"] = [paths.get(a, a) for a in job["argv"]]


def _invoke(launcher, job):
    proc = subprocess.run([sys.executable, *launcher, *job["cmd"]], env=ENV, capture_output=True)
    return proc.returncode, proc.stdout, proc.stderr


def run(job):
    return _invoke(["-m", "folcalc.cli"], job)


def run_traced(job, spans_path):
    """The same invocation through the timing child, which writes its spans to a file."""
    return _invoke([CHILD, spans_path], job)


def normalize(_job, out):
    """Exit code, stdout (undecodable bytes kept as surrogates) and the error code."""
    code, stdout, stderr = out
    try:
        error = json.loads(stderr)["code"] if stderr else None
    except (ValueError, KeyError, TypeError):
        error = stderr.decode("utf-8", "replace")
    return {"exit": code, "stdout": stdout.decode("utf-8", "surrogateescape"), "error": error}


# --- expected results, computed in-process through the library ----------------


def _load(job, name):
    content = job["files"][name]
    if isinstance(content, str):
        try:
            return json.loads(content)
        except ValueError as exc:
            raise ValidationError(f"malformed JSON: {exc}") from exc
    return content


def _expected_doc(job):
    argv = job["argv"]
    command = argv[0]
    if "--bogus" in argv:
        raise ValidationError("unrecognized arguments: --bogus")
    opts = {argv[k]: argv[k + 1] for k in range(len(argv) - 1) if argv[k].startswith("--")}
    if command == "hj":
        return {"b": list(cyclic.hj_expansion(cyclic.CyclicType(int(argv[1]), int(argv[2]))).entries)}
    if command == "wunram":
        t = cyclic.CyclicType(int(argv[1]), int(argv[2]))
        data = cyclic.wunram_degrees(t, int(argv[3]))
        return {"b": list(cyclic.hj_expansion(t).entries), "s": list(data.s), "d": list(data.d)}
    if command == "contrib":
        m = int(opts["--m"])
        kind = opts["--kind"]
        if kind == "terminal":
            value = contributions.a_terminal(cyclic.CyclicType(int(opts["--n"]), int(opts["--q"])), m)
        else:
            value = contributions.a_cusp(m) if kind == "cusp" else contributions.a_dihedral(m)
        return {"a": str(value)}
    if command == "chi-local":
        m = int(opts["--m"])
        if "--kind" in opts:
            return {"chi": str(contributions.chi_partial_crepant(contributions.Cusp(), m))}
        return {"chi": str(contributions.chi_fchain(cyclic.CyclicType(int(opts["--n"]), int(opts["--q"])), m))}
    names = [a[1:-1] for a in argv if a.startswith("{")]
    if command == "pullback":
        graph = lattice.graph_from_json(_load(job, names[0]))
        z = lattice.solve_pullback(graph, lattice.profile_from_json(graph, _load(job, names[1])))
        return {label: str(z.coefficient(label)) for label in graph.labels}
    if command == "zariski":
        graph = lattice.graph_from_json(_load(job, names[0]))
        result = zariski.zariski_decompose(graph, lattice.divisor_from_json(graph, _load(job, names[1])))
        return {
            "P": lattice.divisor_to_json(result.positive),
            "N": lattice.divisor_to_json(result.negative),
            "support": list(result.support),
        }
    if command == "bounds":
        doc = _load(job, names[0])
        samples = bounds.HilbertSamples(
            {int(m): v for m, v in doc["values"].items()}, period_hint=doc.get("period_hint")
        )
        report = bounds.pipeline(samples, opts["--mode"])
        inv = report.invariants
        return {
            "mode": report.mode,
            "invariants": {
                "K2": str(inv.k2),
                "K_dot_KY": str(inv.k_dot_ky),
                "chi_O": inv.chi_o,
                "contribution_sum": str(inv.contribution_sum),
                "cusp_count": inv.cusp_count,
            },
            "configurations": [
                {"terminal_orders": list(c.terminal_orders), "dihedral_count": c.dihedral_count,
                 "cusp_count": c.cusp_count}
                for c in report.configurations
            ],
            "index_candidates": list(report.index_candidates),
            "max_terminal_order": report.max_terminal_order,
            "per_config": [
                {"index": i, "gamma": str(r.gamma), "N1": r.n1,
                 "square_threshold_holds": r.square_threshold_holds,
                 "curve_threshold_holds": r.curve_threshold_holds}
                for i, r in zip(report.index_candidates, report.results)
            ],
            "N1_worst": report.n1_worst,
            "note": BOUNDS_NOTE,
        }
    if command == "jouanolou":
        report = jouanolou.accumulation_report(int(opts["--dmax"]))
        return {
            "entries": [
                {"d": e.d, "volume": str(e.volume), "aut_order": e.aut_order,
                 "one_minus_volume": str(1 - e.volume)}
                for e in report.entries
            ],
            "strictly_increasing": report.strictly_increasing,
            "all_below_one": report.all_below_one,
            "minimum": str(report.minimum),
            "gap_identity_holds": report.gap_identity_holds,
            "converges": report.converges,
        }
    if command == "dihedral-verify":
        datum = contributions.Dihedral(
            a_exp=int(opts["--a"]), l=int(opts["--l"]), m_odd=int(opts["--modd"]),
            p=int(opts["--p"]), variant=opts["--variant"],
        )
        report = contributions.dihedral_sum_verify(datum)
        z = report.sum_value
        return {
            "sum_value": f"{z.real:.15g}{z.imag:+.15g}j",
            "sum_exact": str(report.sum_exact),
            "expected_n": report.expected_n,
            "pass": report.passed,
            "a": str(report.a_value),
        }
    if command == "relate":
        weak, canon = (
            {int(k): Fraction(v) for k, v in _load(job, name).items()} for name in names
        )
        return {"match": bounds.relate_models(weak, canon, int(opts["--cusps"]))}
    raise AssertionError(f"no expectation for {command}")


def _table(doc):
    lines = []
    for key, value in sorted(doc.items()):
        if isinstance(value, dict):
            lines.append(f"{key} = {{{', '.join(f'{k}: {v}' for k, v in sorted(value.items()))}}}")
        else:
            lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def expected(job):
    """(exit code, stdout, error code) that the invocation must produce."""
    try:
        doc = _expected_doc(job)
    except ValidationError as err:
        return 2, "", err.code
    except FolcalcError as err:
        return 1, "", err.code
    text = _table(doc) if job["format"] == "table" else json.dumps(doc, sort_keys=True, indent=2) + "\n"
    return 0, text, None


def check(job, doc, _context):
    code, stdout, error = expected(job)
    problems = []
    if doc["exit"] != code:
        problems.append(f"{job['argv']}: exit {doc['exit']}, expected {code}")
    if doc["stdout"].encode("utf-8", "surrogateescape") != stdout.encode():
        problems.append(f"{job['argv']}: stdout differs from the in-process result")
    if doc["error"] != error:
        problems.append(f"{job['argv']}: error {doc['error']!r}, expected {error!r}")
    return problems


def probes(_job, _doc):
    return []


def observe(_job, doc, counters):
    counters["cli.stdout_bytes"].append(len(doc["stdout"].encode("utf-8", "surrogateescape")))

