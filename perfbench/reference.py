"""The reference computation that scales every measured CPU time.

On a shared host the same work takes up to 1.7 times longer for seconds at a
time while other tenants load the core. The benchmark times this fixed
computation next to each measurement and reports t * REFERENCE_NS / r, which
reads as CPU milliseconds on an unloaded core of the host the benchmark was
defined on. The computation never changes with folcalc.
"""

import statistics
from fractions import Fraction
from time import thread_time_ns

# CPU ns one run takes on an unloaded core of that host
REFERENCE_NS = 185_000


_BIG = 3**2000


def reference_ns() -> int:
    """CPU ns of one run of a fixed mix of Fraction and big-integer arithmetic.

    The mix follows folcalc's: small Fractions for the bookkeeping and long
    integer products and exact divisions for Bareiss elimination.
    """
    start = thread_time_ns()
    total = Fraction(0)
    for i in range(1, 50):
        total += Fraction(i % 7, i)
    acc = 0
    for i in range(1, 100):
        acc += (_BIG * (i + 7)) // (i + 3)
    return thread_time_ns() - start


def scaled(cpu_ns, references) -> float:
    """``cpu_ns`` at reference speed, given reference runs taken around it."""
    return cpu_ns * REFERENCE_NS / statistics.median(references)
