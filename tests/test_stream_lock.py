"""Stream lock: the relation stream of fixed runs, pinned by hash.

Each case runs prepare() plus collect_relations() on a literal composite
with seed 7 and a round cap, then hashes the full and partial relation
dumps.  The pinned values were taken before the collision search moved to
numpy arrays; any change in hit order, batch order, ingest order or the
counters shows up here.  A change meant to keep behaviour must leave this
test untouched; a change that alters the stream on purpose re-pins it and
says so.
"""

import hashlib

import pytest

from sssfactor.engine import RunConfig, collect_relations, prepare

# The three sss cases were re-pinned, digests and counters, when sss and
# sssf became one search: every round runs the two-pass filter, and from 35
# digits a subsum modulus takes k = 7 primes instead of 6; each case's
# comment gives its counters before.  The sssf and qs cases did not move.
#
# The sss and sssf counters were re-pinned when a round stopped
# batch-testing an x_bar that an earlier variant of the same round had
# already produced: candidates dropped by the repeats (3, 5, 4, 4 and 5,
# in case order), filtered by the sssf repeats, and partials by the
# repeats that were partial relations.  The store already dropped every
# repeat, so no digest changed.
CASES = [
    # before the one search (k = 6, no filter): 14 rounds, 2512
    # candidates, 0 filtered, 153 fulls, 890 partials, 79 combined; digest
    # 2300f57b...
    pytest.param(
        "sss", 588090330819903606914786460449, 30,
        "3dbf56204e4131b38db017e888195a680a320c5a4796b857e04cf1fc74603e00",
        {"rounds": 15, "candidates": 2685, "filtered": 1112,
         "fulls": 160, "partials": 814, "combined": 77},
        id="sss-30d",
    ),
    # partials was 1037 while the batch test left high base-prime powers in
    # some residuals: one find counted as a partial although the store,
    # stripping its residual down to 1, kept it as a full; the dumps and
    # the digest did not change when the batch became exact; before the one
    # search (k = 6, no filter): 8113 candidates, 0 filtered, 121 fulls,
    # 1032 partials, 34 combined; digest f5a46fff...
    pytest.param(
        "sss", 2025187160651667522159602188240446426637, 30,
        "108fcc7cb358ed316ec4d03a8ccb7f907527de0258695b4a524636e5d8618124",
        {"rounds": 30, "candidates": 11079, "filtered": 8788,
         "fulls": 139, "partials": 927, "combined": 50},
        id="sss-40d",
    ),
    # both sssf cases were re-pinned when the collision primes left the
    # values before the filter and its pass-1 cutoff became fb.p_max**2:
    # the same candidates, fewer dropped, and more fulls and partials
    # (here 33 fulls, 279 partials and 16584 filtered before)
    pytest.param(
        "sssf", 10631269693415190522128026926094032979418574955981, 25,
        "b8d5819c04910d7950f5fdac7a52220d0326d4bd32141cac83b789c27a9ccf9d",
        {"rounds": 25, "candidates": 17268, "filtered": 16004,
         "fulls": 43, "partials": 437, "combined": 3},
        id="sssf-50d",
    ),
    # pinned on the sieve's own interval loop, before collect_relations
    # became the one loop for all three algorithms
    pytest.param(
        "qs", 2025187160651667522159602188240446426637, 10,
        "e9b6b90f2b67f5a45ef75e9d2e10b600a0d10f48d5a99eabe06f515037cb1c29",
        {"rounds": 10, "candidates": 158, "filtered": 0,
         "fulls": 3, "partials": 76, "combined": 0},
        id="qs-40d",
    ),
    # composites whose Knuth-Schroeppel multiplier is not 1, pinned when
    # the rounds still took kN and ceil(sqrt(kN)) as arguments; sss-40d-k23
    # before the one search (k = 6, no filter): 8863 candidates, 0 filtered,
    # 122 fulls, 1023 partials, 41 combined; digest d5848920...
    pytest.param(
        "sss", 1251681611221125843937253098284462597887, 30,
        "6fcdbd9635758e4cb7e990f5b23b8266750c67594b10d8b7441bd7087b0c1165",
        {"rounds": 30, "candidates": 12201, "filtered": 9710,
         "fulls": 151, "partials": 1015, "combined": 57},
        id="sss-40d-k23",
    ),
    pytest.param(
        "qs", 29100640830005092842290581694238229, 20,
        "df8cc12623bf57df0caafc2347df0e6325f4cf338108e971e3b9fd7d705956cc",
        {"rounds": 20, "candidates": 833, "filtered": 0,
         "fulls": 26, "partials": 423, "combined": 6},
        id="qs-35d-k61",
    ),
    # 48 fulls, 226 partials and 16136 filtered before the re-pin
    pytest.param(
        "sssf", 71572202837660953991862295872154805899815805546319, 25,
        "535f61b664dd36353fd8a110bc2553680b1764097be8c38a8c6ee57dcc03ece4",
        {"rounds": 25, "candidates": 16981, "filtered": 16107,
         "fulls": 51, "partials": 267, "combined": 0},
        id="sssf-50d-k31",
    ),
]


@pytest.mark.parametrize("algo, n, rounds, digest, counters", CASES)
def test_relation_stream_is_pinned(algo, n, rounds, digest, counters):
    config = RunConfig(algo=algo, seed=7, max_rounds=rounds)
    fb, sb, pre, ctx = prepare(n, config)
    store, stats = collect_relations(n, config, fb, sb, pre, ctx)
    assert stats.counters() == counters
    dump = store.fulls_csv() + store.partials_csv()
    assert hashlib.sha256(dump.encode()).hexdigest() == digest
