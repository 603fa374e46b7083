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

CASES = [
    pytest.param(
        "sss", 588090330819903606914786460449, 30,
        "2300f57bd0fc7c5ccdc805ea8164b6b7190aa487e2fdb87ba7dd55bcff2c9e76",
        {"rounds": 14, "candidates": 2515, "filtered": 0,
         "fulls": 153, "partials": 892, "combined": 79},
        id="sss-30d",
    ),
    pytest.param(
        "sss", 2025187160651667522159602188240446426637, 30,
        "f5a46fff7354d1e35a7e7718dbcbd5b3e8f9985eb643f6503200b7db0508fb39",
        {"rounds": 30, "candidates": 8118, "filtered": 0,
         "fulls": 121, "partials": 1037, "combined": 34},
        id="sss-40d",
    ),
    pytest.param(
        "sssf", 10631269693415190522128026926094032979418574955981, 25,
        "99ede8b3112f854a108c704c0f2062fa11d7a08dc6b096557776e9e7d58cee5a",
        {"rounds": 25, "candidates": 17272, "filtered": 16588,
         "fulls": 33, "partials": 279, "combined": 1},
        id="sssf-50d",
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
