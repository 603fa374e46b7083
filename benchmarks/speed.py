"""Machine-speed reference for the benchmark's times.

On a shared machine the same job can run up to twice as slow for minutes
at a time, while other tenants load the host.  The benchmark therefore
times a fixed pure-Python loop before and after every job and reports
times in reference seconds:

    reference seconds = wall seconds * REF_SECONDS / reference time

where the reference time is the mean of the two samples around the call.
A slow phase stretches the job and the loop alike and cancels out.  The
loop does what the search loop does (big-int reductions, list growth, a
Counter over small ints) and uses nothing from sssfactor, so a change to
the program cannot change it.
"""

import time
from collections import Counter

REF_SECONDS = 0.125  # about the loop's time on the baseline machine when idle
_CALLS = 150


def _primes(count: int) -> list[int]:
    out = []
    v = 1001
    while len(out) < count:
        if all(v % d for d in range(3, int(v**0.5) + 1, 2)):
            out.append(v)
        v += 2
    return out


_PRIMES = _primes(1500)
_X = 3**200


def _scan() -> int:
    offsets = []
    for p in _PRIMES:
        r = _X % p
        a1 = 7 * r % p
        a2 = 11 * r % p
        offsets.extend((a1, a1 - p, a2, a2 - p))
    return sum(1 for c in Counter(offsets).values() if c >= 2)


def reference_time() -> float:
    """Wall time of one fixed batch of the reference loop."""
    t0 = time.perf_counter()
    for _ in range(_CALLS):
        _scan()
    return time.perf_counter() - t0
