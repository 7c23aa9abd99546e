"""Benchmark worker: one fresh interpreter that imports folcalc and runs a closed loop.

    python perfbench/worker.py MODULE SRC [--ready-only]

Imports MODULE (``folcalc``, or ``folcalc.cli`` for the cli workload) from
the checkout's SRC directory and prints ``ready`` with the CPU time the
process has used since it was created (run.py takes it as the set-up time)
and three runs of the reference computation that scale it; with
``--ready-only`` the worker exits there.
Otherwise it reads one JSON request line from stdin, generates the seeded
inputs, warms up on separately seeded inputs, runs the closed loop (a single
caller that issues the next job when the previous one returns), checks every
output outside the timed region and prints one JSON reply line.

"""

import os
import sys
import time


def _fail(message):
    sys.stderr.write(f"perfbench worker: {message}\n")
    sys.exit(2)


def main():
    module, src = sys.argv[1], sys.argv[2]
    __import__(module)
    loaded = os.path.realpath(sys.modules["folcalc"].__file__)
    if not loaded.startswith(os.path.realpath(src) + os.sep):
        _fail(f"folcalc was imported from {loaded}, not from {src}")
    cpu_ns = time.process_time_ns()
    from reference import reference_ns

    references = [reference_ns() for _ in range(3)]
    sys.stdout.write(f"ready {cpu_ns} {' '.join(map(str, references))}\n")
    sys.stdout.flush()
    if sys.argv[3:] == ["--ready-only"]:
        return
    import json

    request = json.loads(sys.stdin.readline())
    import loop

    reply = loop.serve(request, src)
    sys.stdout.write(json.dumps(reply) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
