"""The closed loop, output bookkeeping and the untraced measurement.

The loop replays the workload's job pool in whole passes until ``seconds``
have elapsed, so every run measures the same job mix: one caller issues the
next job only when the previous one has returned.

A job's latency is the CPU time it costs (the caller's thread plus, for the
cli workload, the child process), scaled by the reference computation timed
around it (see reference.py). Outputs are normalized to plain data outside
the timed region; the first output of each pool job is checked by the
workload's oracles and every replay must reproduce it.
"""

import importlib
import json
import os
import random
import resource
import statistics
from time import perf_counter, thread_time_ns

import tracing
from reference import reference_ns, scaled

WORKLOADS = {"strings": "wl_strings", "configs": "wl_configs", "bounds": "wl_bounds", "cli": "wl_cli"}


class Book:
    """First output of every pool job, plus failures seen while replaying it."""

    def __init__(self, wl, jobs):
        self.wl = wl
        self.jobs = jobs
        self.first: dict = {}
        self.runs = [0] * len(jobs)
        self.failed = 0
        self.messages: list = []

    def record(self, i, out, error):
        self.runs[i] += 1
        if error is None:
            try:
                doc = self.wl.normalize(self.jobs[i], out)
            except Exception as exc:  # a malformed result is a failed job
                error = f"unreadable result: {exc!r}"
        if error is not None:
            self._fail(i, error)
        elif i not in self.first:
            self.first[i] = doc
        elif doc != self.first[i]:
            self._fail(i, "output differs from the first run of the same input")

    def _fail(self, i, message):
        self.failed += 1
        if len(self.messages) < 10:
            self.messages.append(f"job {i}: {message}")

    def check(self):
        """Oracle checks, once per distinct job; a wrong output fails every run of it."""
        context: dict = {}
        for i, doc in sorted(self.first.items()):
            try:
                problems = self.wl.check(self.jobs[i], doc, context)
            except Exception as exc:  # a checker crash must not pass silently
                problems = [f"check raised {exc!r}"]
            if problems:
                self.failed += self.runs[i]
                if len(self.messages) < 10:
                    self.messages.append(f"job {i}: {'; '.join(problems[:3])}")


def cpu_ns():
    """CPU time of this thread plus every child process waited for, in ns."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return thread_time_ns() + round((children.ru_utime + children.ru_stime) * 1e9)


def closed_loop(wl, jobs, seconds, book, tracer=None, spans_path=None):
    """Whole passes over the pool until ``seconds`` of wall time elapse; scaled ns per job."""
    runner = wl.run
    latencies = []
    references = []
    deadline = perf_counter() + seconds
    while True:
        for i, job in enumerate(jobs):
            references.append(reference_ns())
            if tracer is not None:
                tracer.job = i
                root = tracer.begin("job")
            error = out = None
            start = cpu_ns()
            try:
                out = wl.run_traced(job, spans_path) if spans_path else runner(job)
            except Exception as exc:  # an unexpected exception is a failed job
                error = f"{type(exc).__name__}: {exc}"
            latencies.append(cpu_ns() - start)
            if tracer is not None:
                tracer.end(root, tracing.OK if error is None else tracing.FAILED)
                if spans_path:
                    _adopt_child_spans(tracer, spans_path, root[0], i)
            book.record(i, out, error)
        if perf_counter() >= deadline:
            references.append(reference_ns())
            # the reference beside a job: median of the two runs before and the two after it
            return [scaled(t, references[max(i - 1, 0) : i + 3]) for i, t in enumerate(latencies)]


def _adopt_child_spans(tracer, path, root_id, job):
    """Attach the CLI child's spans below the job span that launched it."""
    try:
        with open(path, encoding="utf-8") as handle:
            spans = json.load(handle)
        os.remove(path)
    except (OSError, ValueError):
        return
    ids = {span[0]: tracer.new_id() for span in spans}
    for sid, parent, name, start, end, _job, status in spans:
        tracer.spans.append((ids[sid], ids.get(parent, root_id), name, start, end, job, status))


def _peak_rss_mb(wl):
    who = resource.RUSAGE_CHILDREN if wl.MODULE == "folcalc.cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def per_job_medians(latencies, pool_size):
    """Each pool job's median time over the passes (the loop replays whole passes)."""
    passes = len(latencies) // pool_size
    return [
        statistics.median(latencies[k * pool_size + i] for k in range(passes))
        for i in range(pool_size)
    ]


def window_quantile(values, p, half_width=0.05):
    """Mean of the values ranked between p - half_width and p + half_width.

    The pool has a few blocks of similar jobs; a single order statistic would
    jump between neighbouring blocks, while the mean over the window moves
    smoothly.
    """
    ranked = sorted(values)
    lo = int((p - half_width) * len(ranked))
    hi = max(int((p + half_width) * len(ranked)), lo + 1)
    window = ranked[lo:hi]
    return sum(window) / len(window)


def end_to_end(latencies, pool_size):
    """Throughput and percentiles from the per-job medians, in jobs/s and ms.

    Taking each job at its median over the passes drops the passes in which
    the reference scaling missed a change of load in the middle of a long job.
    """
    medians = per_job_medians(latencies, pool_size)
    return {
        "throughput_jobs_s": pool_size / (sum(medians) / 1e9),
        "latency_p50_ms": window_quantile(medians, 0.5) / 1e6,
        "latency_p90_ms": window_quantile(medians, 0.9) / 1e6,
    }


def serve(request, src):
    wl = importlib.import_module(WORKLOADS[request["workload"]])
    seed = request["seed"]
    jobs = wl.pool(random.Random(f"pool:{seed}"))
    warm = wl.warmup(random.Random(f"warmup:{seed}"))
    if hasattr(wl, "prepare"):
        wl.prepare(jobs, src, request["workdir"], "job")
        wl.prepare(warm, src, request["workdir"], "warm")
    for job in warm:
        try:
            wl.run(job)
        except Exception:  # warm-up results are not measured; the timed loop reports failures
            pass
    book = Book(wl, jobs)
    if not request["trace"]:
        latencies = closed_loop(wl, jobs, request["seconds"], book)
        peak_rss_mb = _peak_rss_mb(wl)
        book.check()
        metrics = dict(end_to_end(latencies, len(jobs)), peak_rss_mb=peak_rss_mb)
        attempted = len(latencies)
    else:
        import traced_run

        metrics, attempted = traced_run.measure(wl, jobs, request, book)
    return {
        "attempted": attempted,
        "failed": book.failed,
        "messages": book.messages,
        "pool": len(jobs),
        "metrics": metrics,
    }
