"""Run one workload of the folcalc benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; folcalc is imported from its ``src``
directory and nothing is installed. The set-up time is the median, over
several fresh worker interpreters, of the CPU time a worker uses from its
launch until it has imported folcalc (folcalc.cli for the cli workload) and
is ready for its first job. The last worker then generates the seeded inputs, runs the
closed loop and checks every output; see README.md for the workloads.

With ``--trace 0`` the end-to-end metrics are printed, with ``--trace 1``
the per-layer metrics of a traced run (spans go to
``.perfbench_out/spans-<workload>-seed<n>.jsonl``). A human-readable table
goes to stderr; stdout ends with a stamp line and then one JSON line with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

from reference import scaled

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("strings", "configs", "bounds", "cli")
SETUP_SAMPLES = 15
INTERPRETER_SAMPLES = 7
WORKER_TIMEOUT_S = 150


def fail(message):
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(2)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def load_spec():
    with open(os.path.join(HERE, "metrics.json"), encoding="utf-8") as handle:
        return json.load(handle)


def commit():
    """The checked-out commit, read from .git without running git; None outside a repository."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    """sha256 over folcalc's sources, which identifies the code outside a repository too."""
    digest = hashlib.sha256()
    package = os.path.join(SRC, "folcalc")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def worker_env():
    return dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")


def launch(module, ready_only):
    """Start a worker; returns (process, scaled CPU seconds it used until it was ready)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), module, SRC]
    if ready_only:
        cmd.append("--ready-only")
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=worker_env(), text=True)
    word, *numbers = proc.stdout.readline().split()
    if word != "ready":
        proc.kill()
        proc.communicate()
        fail(f"worker did not become ready (exit {proc.returncode})")
    cpu_ns, *references = map(int, numbers)
    return proc, scaled(cpu_ns, references) / 1e9


def interpreter_ms():
    """Median wall time of a bare ``python -c pass``, the floor under every CLI job.

    Wall time on the same clock as the traced run's spans, unscaled: it also
    stamps how fast the machine was.
    """
    samples = []
    for _ in range(INTERPRETER_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        samples.append((time.perf_counter() - start) * 1000)
    return statistics.median(samples)


def measure(args, stamp):
    module = "folcalc.cli" if args.workload == "cli" else "folcalc"
    proc, _ = launch(module, ready_only=True)  # compiles bytecode and warms the file cache
    proc.wait()
    setup = []
    for _ in range(SETUP_SAMPLES - 1):
        proc, ready_s = launch(module, ready_only=True)
        proc.wait()
        setup.append(ready_s)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        proc, ready_s = launch(module, ready_only=False)
        setup.append(ready_s)
        request = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "workdir": workdir,
            "interpreter_ms": stamp["cli.interpreter_ms"],
            "spans_file": os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl"),
            "stamp": stamp,
        }
        try:
            out, _ = proc.communicate(json.dumps(request) + "\n", timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            fail(f"worker ran longer than {WORKER_TIMEOUT_S} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0 or not out.strip():
        fail(f"worker failed (exit {proc.returncode})")
    reply = json.loads(out.strip().splitlines()[-1])
    reply["setup_s"] = statistics.median(setup)
    return reply


def main(argv=None):
    args = parse_args(argv)
    # one core for the workers, their children and the reference computation
    # that scales their times (see loop.py)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not os.path.isfile(os.path.join(SRC, "folcalc", "__init__.py")):
        fail(f"no folcalc sources under {SRC}; run from the root of a folcalc checkout")
    spec = load_spec()
    try:
        mpmath_version = metadata.version("mpmath")
    except metadata.PackageNotFoundError:
        mpmath_version = None
    stamp = {
        "commit": commit(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "mpmath": mpmath_version,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cli.interpreter_ms": interpreter_ms(),
    }
    reply = measure(args, stamp)
    stamp["jobs"] = {args.workload: reply["attempted"]}
    stamp["pool"] = reply["pool"]

    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = reply["metrics"]
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = dict(reply["metrics"], setup_s=reply["setup_s"])
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    for message in reply["messages"]:
        sys.stderr.write(f"perfbench: FAILED {message}\n")
    sys.stderr.write(f"{args.workload} seed={args.seed} jobs={reply['attempted']} failed={reply['failed']}\n")
    for name, metric in metrics.items():
        sys.stderr.write(f"  {name:<52} {metric['value']:>14.6g} {metric['unit']}\n")
    print(json.dumps({"stamp": stamp}, sort_keys=True))
    print(json.dumps({
        "correct": reply["failed"] == 0,
        "attempted": reply["attempted"],
        "failed": reply["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
