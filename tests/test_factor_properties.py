"""Property tests for factor() on awkward inputs.

Every result must multiply back to n and list only probable primes; a run
that does not finish must leave its composite part in `residue`.
"""

import random
from collections import Counter

from hypothesis import given, settings, strategies as st

from semiprimes import generate_semiprime, random_prime

from sssfactor.engine import RunConfig, factor
from sssfactor.numtheory import is_probable_prime, primes_below

SMALL_PRIMES = primes_below(1000)
CARMICHAEL = {561: (3, 11, 17), 1105: (5, 13, 17), 41041: (7, 11, 13, 41)}


def _prime(digits):
    return st.integers(0, 2**32).map(lambda s: random_prime(digits, random.Random(s)))


def _semiprime(digits):
    return st.integers(0, 2**32).map(
        lambda s: generate_semiprime(digits, random.Random(s))[1:]
    )


prime_powers = st.tuples(
    st.one_of(st.sampled_from(SMALL_PRIMES), st.integers(2, 7).flatmap(_prime)),
    st.integers(2, 6),
).map(lambda pe: [pe[0]] * pe[1])

squares_of_products = st.tuples(
    st.integers(3, 7).flatmap(_prime), st.integers(3, 7).flatmap(_prime)
).map(lambda pq: [pq[0], pq[0], pq[1], pq[1]])

carmichael = st.sampled_from(sorted(CARMICHAEL)).map(lambda c: list(CARMICHAEL[c]))

small_times_semiprime = st.tuples(
    st.sampled_from(SMALL_PRIMES), st.integers(12, 16).flatmap(_semiprime)
).map(lambda t: [t[0], *t[1]])

awkward = st.one_of(prime_powers, squares_of_products, carmichael, small_times_semiprime)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(primes=awkward, seed=st.integers(0, 3))
def test_factor_is_sound_on_awkward_inputs(primes, seed):
    n = 1
    for p in primes:
        n *= p
    result = factor(n, RunConfig(seed=seed))
    assert result.check()
    assert all(is_probable_prime(p) for p, _ in result.factors)
    if result.success:
        assert dict(result.factors) == Counter(primes)
    else:
        assert result.residue > 1 and not is_probable_prime(result.residue)
