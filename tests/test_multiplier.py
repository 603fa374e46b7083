"""The Knuth-Schroeppel multiplier k: its choice, the factor base of kN, and
sss, sssf and qs collecting on f(x) = (x + ceil(sqrt(kN)))**2 - kN while
every relation, gcd and square root stays mod N."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from numtheory_oracle import legendre, root_pairs
from sieve_oracle import interval_survivors

from sssfactor.engine import RunConfig, collect_relations, factor, prepare
from sssfactor.factorbase import MULTIPLIERS, choose_multiplier, poly_value
from sssfactor.numtheory import is_probable_prime, primes_below
from sssfactor.qs import BLOCK_INTERVALS, Sieve, sieve_interval

# (n, its multiplier): p | k past the 12-prime small base of 18 digits, two
# primes in k, 25 and 30 digits, and the sss-40d and qs-35d bench-panel
# composites
K89 = 279223759547999729
K77 = 223069665544596653
K33 = 1314559764095517441338857
K41 = 372983090218474781368872200009
K23 = 1251681611221125843937253098284462597887
K61 = 29100640830005092842290581694238229
MULTIPLIED = {K89: 89, K77: 77, K33: 33, K41: 41, K23: 23, K61: 61}


def ks_score(k, n):
    """The Knuth-Schroeppel function of kN, term by term."""
    kn = k * n
    score = -math.log(k) / 2 + math.log(2) * {1: 2, 5: 1}.get(kn % 8, 0.5)
    for p in primes_below(1000)[1:]:
        if kn % p == 0:
            score += math.log(p) / p
        elif legendre(kn, p) == 1:
            score += 2 * math.log(p) / (p - 1)
    return score


def ks_oracle(n):
    candidates = [k for k in range(1, 100, 2) if all(k % (d * d) for d in (3, 5, 7))]
    scores = [ks_score(k, n) for k in candidates]
    return candidates[scores.index(max(scores))]


def test_candidates_are_the_odd_squarefree_k_below_100():
    assert MULTIPLIERS[0] == 1 and len(MULTIPLIERS) == 41
    for k in range(1, 100, 2):
        squarefree = all(k % (p * p) for p in primes_below(10))
        assert (k in MULTIPLIERS) == squarefree


@settings(max_examples=150, deadline=None, derandomize=True)
@given(n=st.integers(10**17, 10**60 - 1).map(lambda v: v | 1))
def test_choice_matches_the_oracle(n):
    k, best = choose_multiplier(n), ks_oracle(n)
    # the terms are rounded to 2**-40 nats: only a tie to 1e-9 may differ
    assert k == best or abs(ks_score(k, n) - ks_score(best, n)) < 1e-9


def test_known_choices():
    for n, k in MULTIPLIED.items():
        assert choose_multiplier(n) == k
    # the first stream-lock composites keep k = 1, and so their pinned streams
    for n in (
        588090330819903606914786460449,
        2025187160651667522159602188240446426637,
        10631269693415190522128026926094032979418574955981,
    ):
        assert choose_multiplier(n) == 1


@pytest.mark.parametrize("n", [K89, K77, K33, K23])
def test_multiplier_primes_have_one_root_and_no_search_role(n):
    k = MULTIPLIED[n]
    fb, sb, pre, _ = prepare(n, RunConfig(algo="sss"))
    assert fb.multiplier == k
    kn = k * n
    shift = math.isqrt(kn - 1) + 1
    assert (fb.kn, fb.shift) == (kn, shift)
    single = [p for p in fb.odd_primes if k % p == 0]
    assert single and math.prod(single) == k
    pairs = root_pairs(fb)
    for p in single:
        r1, r2 = pairs[p]
        assert r1 == r2
        assert poly_value(r1, kn, shift) % p == 0
        assert poly_value(r1, kn, shift) % (p * p) != 0
    assert fb.paired == tuple(p for p in fb.odd_primes if k % p)
    assert sb == pre.primes == fb.paired[: len(sb)]
    primes, roots = fb.large_arrays(len(sb))
    assert tuple(primes.tolist()) == fb.paired[len(sb) :]
    assert (roots[0] != roots[1]).all()
    if n == K89:
        assert 89 > sb[-1]


# sssf starts at 30 digits: below that its pass-1 cutoff drops every
# candidate, whatever the multiplier
@pytest.mark.parametrize(
    "n, algo",
    [
        (K89, "sss"), (K89, "qs"), (K77, "sss"), (K77, "qs"), (K33, "sss"), (K33, "qs"),
        (K41, "sssf"), (K23, "sss"), (K23, "sssf"), (K61, "qs"),
    ],
)
def test_factor_on_kn(n, algo):
    result = factor(n, RunConfig(algo=algo, seed=3, max_rounds=5000))
    assert result.success and result.check()
    assert len(result.factors) == 2
    assert all(is_probable_prime(p) and e == 1 for p, e in result.factors)


def test_block_sieve_matches_oracle_on_kn():
    # the qs-35d panel composite with k = 61: one progression for 61, the
    # other primes lifted mod p**2 as for k = 1
    n = K61
    fb, _, _, _ = prepare(n, RunConfig(algo="qs"))
    assert fb.kn == 61 * n
    sieve = Sieve(fb)
    assert 61 in sieve.mods.tolist() and 61 * 61 not in sieve.mods.tolist()
    survivors = 0
    for index in range(2 * BLOCK_INTERVALS + 3):
        got = sieve_interval(sieve, index)
        assert got == interval_survivors(fb, index), index
        survivors += len(got)
    assert survivors > 0


@pytest.mark.parametrize(
    "n, algo, rounds", [(K23, "sss", 20), (K23, "sssf", 20), (K61, "qs", 40)]
)
def test_every_relation_of_a_kn_run_holds_mod_n(n, algo, rounds):
    config = RunConfig(algo=algo, seed=5, max_rounds=rounds)
    fb, sb, pre, ctx = prepare(n, config)
    store, stats = collect_relations(n, config, fb, sb, pre, ctx)
    assert fb.multiplier == MULTIPLIED[n] and store.fulls and store.partials

    def rhs(sign, exponents, cofactor=1):
        value = cofactor
        for i, e in exponents:
            value = value * pow(fb.primes[i], e, n) % n
        return -value if sign else value

    for rel in store.fulls.values():
        assert (rel.x * rel.x - rhs(rel.sign, rel.exponents)) % n == 0
    for prel in store.partial_rows():
        assert (prel.x * prel.x - rhs(prel.sign, prel.exponents, prel.cofactor)) % n == 0
    # the primes of k do divide some relations
    used = {fb.primes[i] for rel in store.fulls.values() for i, _ in rel.exponents}
    assert any(MULTIPLIED[n] % p == 0 for p in used)


def test_shortfall_names_the_multiplier():
    result = factor(K23, RunConfig(algo="sss", seed=3, max_rounds=1))
    assert not result.success
    assert result.shortfalls[0].startswith(
        f"starved factoring {K23} after 1 rounds (the round cap) of kN with k = 23: "
    )
