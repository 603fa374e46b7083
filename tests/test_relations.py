import itertools
import random

import pytest

from sssfactor.factorbase import FactorBase, build_factor_bases, poly_value
from sssfactor.numtheory import FoundFactor, isqrt_ceil
from sssfactor.relations import (
    NotSmoothError,
    PartialRelation,
    Relation,
    RelationStore,
    assemble_square,
    extract_factor,
    factor_over_base,
    needed_count,
    solve_dependencies,
)

STORE_N = 10403  # 101 * 103; no factor among the first 16 primes


def small_store(**kwargs):
    fb, _ = build_factor_bases(STORE_N, 8, 4)
    return RelationStore(STORE_N, fb, **kwargs), fb


def test_factor_over_base_examples():
    primes = (2, 3, 5, 7, 11, 13)
    assert factor_over_base(78, primes) == (0, (1, 1, 0, 0, 0, 1))
    assert factor_over_base(-78, primes) == (1, (1, 1, 0, 0, 0, 1))
    with pytest.raises(NotSmoothError) as err:
        factor_over_base(77 * 17, primes)
    assert err.value.cofactor == 17


def test_needed_count():
    assert needed_count(range(200)) == 211
    assert needed_count(range(10)) < needed_count(range(50))


def find_relation_material(n, primes, bound):
    """Scan x_bar values, trial-dividing f, to craft fulls and partials."""
    shift = isqrt_ceil(n)
    fulls, partials = [], {}
    for x_bar in range(-600, 600):
        value = poly_value(x_bar, n, shift)
        if value == 0:
            continue
        rest = abs(value)
        for p in primes:
            while rest % p == 0:
                rest //= p
        if rest == 1:
            fulls.append(x_bar)
        elif rest < bound:
            partials.setdefault(rest, []).append(x_bar)
    return fulls, partials


def test_store_ingests_and_verifies_fulls():
    store, fb = small_store()
    fulls, _ = find_relation_material(STORE_N, fb.primes, store.partial_bound)
    assert fulls
    for x_bar in fulls:
        store.ingest(x_bar, 1)
    assert store.native_count == len(store.fulls) == len(set(
        (x + store.shift) % STORE_N for x in fulls
    ))
    for rel in store.fulls.values():
        rhs = 1
        for p, e in zip(fb.primes, rel.exponents):
            rhs = rhs * pow(p, e, STORE_N) % STORE_N
        if rel.sign:
            rhs = (STORE_N - rhs) % STORE_N
        assert rel.x * rel.x % STORE_N == rhs


def test_store_deduplicates_by_x():
    store, fb = small_store()
    fulls, _ = find_relation_material(STORE_N, fb.primes, store.partial_bound)
    store.ingest(fulls[0], 1)
    store.ingest(fulls[0], 1)
    assert store.native_count == 1


def test_partials_combine_into_verified_full():
    store, fb = small_store()
    _, partials = find_relation_material(STORE_N, fb.primes, store.partial_bound)
    pair = next(
        (xs for r, xs in partials.items() if len(xs) >= 2 and STORE_N % r),
        None,
    )
    assert pair is not None, "test instance must provide a shared cofactor"
    store.ingest(pair[0], 2)  # residual value of a partial is not used beyond
    store.ingest(pair[1], 2)  # classification, the store re-divides anyway
    assert store.combined_count == 1
    assert len(store.partials) == 1  # first one stays available


def test_partial_duplicate_find_does_not_self_combine():
    store, fb = small_store()
    _, partials = find_relation_material(STORE_N, fb.primes, store.partial_bound)
    r, xs = next(iter(partials.items()))
    store.ingest(xs[0], r)
    store.ingest(xs[0], r)
    assert store.combined_count == 0
    assert len(store.partials) == 1


def test_partial_cofactor_sharing_factor_with_n_is_lucky():
    store, fb = small_store()
    # f(-1) = 101**2 - 10403 = -202 = -2 * 101: cofactor 101 divides n
    assert poly_value(-1, STORE_N, store.shift) == -202
    with pytest.raises(FoundFactor) as err:
        store.ingest(-1, 101)
    assert err.value.divisor == 101


def test_add_partial_and_combine_direct_api():
    store, fb = small_store()
    _, partials = find_relation_material(STORE_N, fb.primes, store.partial_bound)
    r, xs = next((item for item in partials.items() if len(item[1]) >= 2))
    made = []
    for x_bar in xs[:2]:
        value = poly_value(x_bar, STORE_N, store.shift)
        sign = 1 if value < 0 else 0
        rest = abs(value)
        exps = []
        for p in fb.primes:
            e = 0
            while rest % p == 0:
                e += 1
                rest //= p
            exps.append(e)
        assert rest == r
        made.append(
            store.add_partial_and_combine(
                PartialRelation((x_bar + store.shift) % STORE_N, r, sign, tuple(exps))
            )
        )
    assert made[0] is None
    assert isinstance(made[1], Relation)


def test_store_use_partials_off_ignores_them():
    store, fb = small_store(use_partials=False)
    _, partials = find_relation_material(STORE_N, fb.primes, store.partial_bound)
    r, xs = next(iter(partials.items()))
    store.ingest(xs[0], r)
    assert not store.partials and not store.fulls


def test_store_rejects_corrupt_relation():
    store, _ = small_store()
    with pytest.raises(ValueError):
        store.add_full(Relation(5, 0, (1,) * len(store.primes)))


def test_csv_dumps():
    store, fb = small_store()
    fulls, partials = find_relation_material(STORE_N, fb.primes, store.partial_bound)
    header = "x,sign," + ",".join(f"e_{p}" for p in fb.primes)
    assert store.fulls_csv() == header + "\n"  # empty dump keeps its header
    store.ingest(fulls[0], 1)
    lines = store.fulls_csv().strip().split("\n")
    assert lines[0] == header
    assert len(lines) == 2
    cells = lines[1].split(",")
    assert len(cells) == 2 + len(fb.primes)
    rel = next(iter(store.fulls.values()))
    assert cells[0] == str(rel.x) and cells[1] == str(rel.sign)
    r, xs = next(iter(partials.items()))
    store.ingest(xs[0], r)
    plines = store.partials_csv().strip().split("\n")
    assert plines[0].startswith("x,r,sign,")
    assert plines[1].split(",")[1] == str(r)


# -- GF(2) solving ----------------------------------------------------------


def rel_from_row(row):
    return Relation(0, row[0], tuple(row[1:]))


def brute_force_dependencies(rows):
    found = []
    for size in range(1, len(rows) + 1):
        for subset in itertools.combinations(range(len(rows)), size):
            sums = [0] * len(rows[0])
            for i in subset:
                sums = [a + b for a, b in zip(sums, rows[i])]
            if all(s % 2 == 0 for s in sums):
                found.append(list(subset))
    return found


def test_solve_dependencies_examples():
    rows = [[0, 1, 0, 1], [0, 0, 1, 1], [0, 1, 1, 0]]
    deps = solve_dependencies([rel_from_row(r) for r in rows])
    assert deps == [[0, 1, 2]]

    deps = solve_dependencies([rel_from_row([0, 2, 4, 6])])
    assert deps == [[0]]  # all-even exponents: singleton dependency

    twice = [rel_from_row([1, 1, 0]), rel_from_row([1, 1, 0])]
    assert solve_dependencies(twice) == [[0, 1]]


def test_solve_dependencies_against_brute_force():
    rng = random.Random(31)
    for _ in range(150):
        n_rows = rng.randrange(1, 13)
        n_cols = rng.randrange(1, 10)
        rows = [
            [rng.randrange(2) for _ in range(n_cols + 1)] for _ in range(n_rows)
        ]
        rels = [rel_from_row(r) for r in rows]
        deps = solve_dependencies(rels)
        oracle = brute_force_dependencies(rows)
        for subset in deps:
            sums = [0] * (n_cols + 1)
            for i in subset:
                sums = [a + b for a, b in zip(sums, rows[i])]
            assert all(s % 2 == 0 for s in sums)
        if oracle:
            assert deps, f"oracle found {oracle[0]} but solver found nothing"
        else:
            assert not deps


def test_assemble_square_example():
    # 10^2 = 9 = 3^2 mod 91 (f(0) with shift 10)
    primes = (2, 3)
    rel = Relation(10, 0, (0, 2))
    big_x, big_y = assemble_square([0], [rel], primes, 91)
    assert (big_x, big_y) == (10, 3)
    assert extract_factor(big_x, big_y, 91) == 7


def test_assemble_square_rejects_non_dependency():
    rel = Relation(10, 0, (0, 1))
    with pytest.raises(AssertionError):
        assemble_square([0], [rel], (2, 3), 91)


def test_extract_factor_trivial_cases():
    assert extract_factor(3, 3, 91) is None       # X = Y
    assert extract_factor(88, 3, 91) is None      # X = -Y mod 91
    assert extract_factor(10, 3, 91) == 7
