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

# The sss and sssf counters were re-pinned when a round stopped
# batch-testing an x_bar that an earlier variant of the same round had
# already produced: candidates dropped by the repeats (3, 5, 4, 4 and 5,
# in case order), filtered by the sssf repeats, and partials by the
# repeats that were partial relations.  The store already dropped every
# repeat, so no digest changed.
CASES = [
    pytest.param(
        "sss", 588090330819903606914786460449, 30,
        "2300f57bd0fc7c5ccdc805ea8164b6b7190aa487e2fdb87ba7dd55bcff2c9e76",
        {"rounds": 14, "candidates": 2512, "filtered": 0,
         "fulls": 153, "partials": 890, "combined": 79},
        id="sss-30d",
    ),
    # partials was 1037 while the batch test left high base-prime powers in
    # some residuals: one find counted as a partial although the store,
    # stripping its residual down to 1, kept it as a full; the dumps and
    # the digest did not change when the batch became exact
    pytest.param(
        "sss", 2025187160651667522159602188240446426637, 30,
        "f5a46fff7354d1e35a7e7718dbcbd5b3e8f9985eb643f6503200b7db0508fb39",
        {"rounds": 30, "candidates": 8113, "filtered": 0,
         "fulls": 121, "partials": 1032, "combined": 34},
        id="sss-40d",
    ),
    pytest.param(
        "sssf", 10631269693415190522128026926094032979418574955981, 25,
        "99ede8b3112f854a108c704c0f2062fa11d7a08dc6b096557776e9e7d58cee5a",
        {"rounds": 25, "candidates": 17268, "filtered": 16584,
         "fulls": 33, "partials": 279, "combined": 1},
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
    # the rounds still took kN and ceil(sqrt(kN)) as arguments
    pytest.param(
        "sss", 1251681611221125843937253098284462597887, 30,
        "d5848920adc1fd819b5a11424efbad5613bc2e175288c3ceb838f46c9a7f557c",
        {"rounds": 30, "candidates": 8863, "filtered": 0,
         "fulls": 122, "partials": 1023, "combined": 41},
        id="sss-40d-k23",
    ),
    pytest.param(
        "qs", 29100640830005092842290581694238229, 20,
        "df8cc12623bf57df0caafc2347df0e6325f4cf338108e971e3b9fd7d705956cc",
        {"rounds": 20, "candidates": 833, "filtered": 0,
         "fulls": 26, "partials": 423, "combined": 6},
        id="qs-35d-k61",
    ),
    pytest.param(
        "sssf", 71572202837660953991862295872154805899815805546319, 25,
        "0896e20d87f76781a8a9597694ba91d5767b9bbe3804851d1b4840d9561e6914",
        {"rounds": 25, "candidates": 16981, "filtered": 16136,
         "fulls": 48, "partials": 226, "combined": 0},
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
