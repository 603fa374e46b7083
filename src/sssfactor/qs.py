"""Single-polynomial quadratic sieve baseline.

Deliberately basic: one polynomial f(x) = (x + ceil(sqrt(N)))**2 - N,
sieved over widening intervals on both sides of 0, rounded base-2 prime
logs in byte accumulators, prime squares up to the interval length
sieved once.  One interval is one round of the engine's collection loop,
and survivors go through the shared batch smoothness check and the shared
relation store, so the comparison against the subsum search differs only
in how candidates are generated.
"""

import numpy as np

from .factorbase import FactorBase, poly_value
from .numtheory import isqrt_ceil
from .relations import RelationStore
from .search import RoundStats
from .smoothness import Smoothness, SmoothnessContext, classify, smooth_batch

__all__ = ["sieve_interval", "sieve_threshold", "run_sieve", "qs_factor"]

SIEVE_LENGTH = 65536


def _ceil_log2(v: int) -> int:
    return (v - 1).bit_length() if v > 1 else 0


def sieve_threshold(n: int, fb: FactorBase, start: int, length: int,
                    partial_multiplier: int = 128) -> int:
    """ceil(log2 |f(mid)|) minus the partial-cofactor allowance, so that
    candidates leading to partial relations still clear the bar."""
    shift = isqrt_ceil(n)
    mid = start + length // 2
    f_mid = abs(poly_value(mid, n, shift))
    return max(_ceil_log2(f_mid) - _ceil_log2(partial_multiplier * fb.p_max), 1)


def sieve_interval(n: int, fb: FactorBase, start: int, length: int,
                   threshold: int) -> list[int]:
    """All x in [start, start + length) whose accumulated prime-log weight
    reaches the threshold.

    Each root of f mod p adds ceil(log2 p); roots are lifted mod p^2 once
    when p^2 fits in the interval.  Accumulators are bytes, which is ample
    for inputs up to 100 digits.
    """
    shift = isqrt_ceil(n)
    logs = np.zeros(length, dtype=np.uint8)

    # p = 2: f(x) is even exactly when x = n + shift mod 2
    off = (n + shift - start) % 2
    logs[off::2] += 1
    if n % 4 == 1:
        # then x + shift must be odd and f(x) = 0 mod 4 on two classes
        for r in ((1 - shift) % 4, (3 - shift) % 4):
            off = (r - start) % 4
            if off < length:
                logs[off::4] += 1

    for p in fb.odd_primes:
        weight = (p - 1).bit_length()
        roots = fb.roots[p]
        for s in roots:
            off = (s - start) % p
            if off < length:
                logs[off::p] += weight
        pp = p * p
        if pp <= length:
            for s in roots:
                # Hensel lift: f'(s) = 2(s + shift) is invertible mod p
                f_s = poly_value(s, n, shift)
                lifted = (s - f_s * pow(2 * (s + shift), -1, pp)) % pp
                off = (lifted - start) % pp
                if off < length:
                    logs[off::pp] += weight

    hits = np.nonzero(logs >= threshold)[0]
    return [start + int(i) for i in hits]


def _interval_start(index: int, length: int) -> int:
    # 0, -L, L, -2L, 2L, ... alternating sides
    side = index % 2
    step = index // 2
    return step * length if side == 0 else -(step + 1) * length


def run_sieve(
    n: int,
    fb: FactorBase,
    ctx: SmoothnessContext,
    store: RelationStore,
    index: int,
    *,
    partial_multiplier: int = 128,
) -> RoundStats:
    """Sieve interval number index (0, -L, L, -2L, ... with L = SIEVE_LENGTH)
    and ingest its full and partial relations into the store.

    Returns the round's counts; candidates are the sieve survivors and
    nothing is filtered.  May raise FoundFactor via the store.
    """
    shift = isqrt_ceil(n)
    p_max = fb.p_max
    start = _interval_start(index, SIEVE_LENGTH)
    threshold = sieve_threshold(n, fb, start, SIEVE_LENGTH, partial_multiplier)
    xs = sieve_interval(n, fb, start, SIEVE_LENGTH, threshold)
    values = [abs(poly_value(x, n, shift)) for x in xs]
    fulls = partials = 0
    for x, g in zip(xs, smooth_batch(ctx, values)):
        kind = classify(g, p_max, partial_multiplier)
        if kind is Smoothness.REJECT:
            continue
        if kind is Smoothness.FULL:
            fulls += 1
        else:
            partials += 1
        store.ingest(x, g)
    return RoundStats(fulls, partials, len(xs), 0)


def qs_factor(n: int, config=None):
    """Factor n with the sieve baseline; thin wrapper over the engine."""
    from .engine import RunConfig, factor

    cfg = config if config is not None else RunConfig()
    if cfg.algo != "qs":
        from dataclasses import replace

        cfg = replace(cfg, algo="qs")
    return factor(n, cfg)
