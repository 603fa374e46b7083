import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from relations_oracle import NotSmoothError, dense, factor_over_base, sparse, trial_divide

from sssfactor.engine import RunConfig, collect_relations, prepare
from sssfactor.factorbase import FactorBase, build_factor_bases, poly_value
from sssfactor.numtheory import FoundFactor, is_probable_prime, isqrt_ceil
from sssfactor.relations import (
    PartialRelation,
    Relation,
    RelationStore,
    assemble_square,
    extract_factor,
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
        for p, e in zip(fb.primes, dense(rel.exponents, len(fb.primes))):
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
    r, pair = next(
        ((r, xs) for r, xs in partials.items() if len(xs) >= 2 and STORE_N % r),
        (None, None),
    )
    assert pair is not None, "test instance must provide a shared cofactor"
    store.ingest(pair[0], r)  # the residual carries the cofactor
    store.ingest(pair[1], r)
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
                PartialRelation((x_bar + store.shift) % STORE_N, r, sign, sparse(exps))
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


def coprime_partials(store, fb):
    """(cofactor, x_bars) pairs of the crafted partials whose cofactor is
    prime to STORE_N, so that none of them is a lucky factor."""
    _, partials = find_relation_material(STORE_N, fb.primes, store.partial_bound)
    return [(r, xs) for r, xs in partials.items() if math.gcd(r, STORE_N) == 1]


def test_partial_is_keyed_by_the_cofactor_without_base_prime_powers():
    store, fb = small_store()
    r, xs = coprime_partials(store, fb)[0]
    # a residual can keep base prime powers the boosted batch did not strip
    store.ingest(xs[0], r * 2**20 * fb.primes[3] ** 5)
    assert list(store.partials) == [r]
    sign, exps, cofactor = trial_divide(poly_value(xs[0], STORE_N, store.shift), fb.primes)
    assert cofactor == r
    x = (xs[0] + store.shift) % STORE_N
    assert store.partial_rows() == [PartialRelation(x, r, sign, sparse(exps))]


def test_residual_that_does_not_divide_f_is_rejected():
    store, fb = small_store()
    r, xs = coprime_partials(store, fb)[0]
    value = poly_value(xs[0], STORE_N, store.shift)
    stranger = next(p for p in range(fb.p_max + 1, 10**4) if is_probable_prime(p) and value % p)
    with pytest.raises(ValueError):
        store.ingest(xs[0], r * stranger)
    assert not store.partials and not store.fulls


def test_use_partials_off_stores_no_partial_pair():
    store, fb = small_store(use_partials=False)
    r, xs = next((r, xs) for r, xs in coprime_partials(store, fb) if len(xs) >= 2)
    store.ingest(xs[0], r)
    store.ingest(xs[1], r)
    assert not store.partials and not store.fulls
    assert store.combined_count == store.native_count == 0


def test_partial_pair_combines_into_oracle_exponents():
    store, fb = small_store()
    r, xs = next((r, xs) for r, xs in coprime_partials(store, fb) if len(xs) >= 2)
    x1, x2 = xs[:2]
    store.ingest(x1, r)
    assert not store.fulls
    store.ingest(x2, r)
    assert store.combined_count == 1
    [rel] = store.fulls.values()
    (s1, e1, c1), (s2, e2, c2) = (
        trial_divide(poly_value(x, STORE_N, store.shift), fb.primes) for x in (x1, x2)
    )
    assert c1 == c2 == r
    assert rel.sign == (s1 + s2) % 2
    assert rel.exponents == sparse([a + b for a, b in zip(e1, e2)])
    a1, a2 = ((x + store.shift) % STORE_N for x in (x1, x2))
    assert rel.x == a1 * a2 * pow(r, -1, STORE_N) % STORE_N
    rhs = 1
    for i, e in rel.exponents:
        rhs = rhs * pow(fb.primes[i], e, STORE_N) % STORE_N
    assert rel.x * rel.x % STORE_N == (-rhs if rel.sign else rhs) % STORE_N


def test_partial_stored_under_a_wrong_cofactor_fails_when_factored():
    store, fb = small_store()
    # a partial whose cofactor is a product of two primes outside the base,
    # stored under one of them
    for x_bar in range(-600, 600):
        rest = trial_divide(poly_value(x_bar, STORE_N, store.shift), fb.primes)[2]
        q = next((d for d in range(2, math.isqrt(rest) + 1) if rest % d == 0), rest)
        if q < rest and math.gcd(rest, STORE_N) == 1:
            break
    else:
        pytest.fail("test instance must provide a composite cofactor")
    store.ingest(x_bar, q)
    assert list(store.partials) == [q]
    with pytest.raises(AssertionError):
        store.partials_csv()


def test_store_rejects_corrupt_relation():
    store, _ = small_store()
    with pytest.raises(ValueError):
        store.add_full(Relation(5, 0, sparse((1,) * len(store.primes))))


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


# -- root test against the trial-division oracle -----------------------------

# = 1 mod 24: 3 is in its factor base and f(x) = t**2 - n can take any
# power of 2, so the properties below can plant high powers of both
ORACLE_N = 2785958206286403544965313685434190010121


@pytest.fixture(scope="module")
def oracle_store():
    fb, _ = build_factor_bases(ORACLE_N, 500, 100)
    return RelationStore(ORACLE_N, fb)


def assert_matches_oracle(store, x_bar):
    sign, exps, cofactor = trial_divide(
        poly_value(x_bar, store.n, store.shift), store.primes
    )
    assert store.exponents_of(x_bar) == (sign, sparse(exps), cofactor)


def sqrt_mod_prime_power(n, p, k):
    """t with t*t = n mod p**k, for odd n that is a square mod p (mod 8
    when p = 2)."""
    if p == 2:
        t = 1
        for j in range(3, k):
            if (t * t - n) % 2 ** (j + 1):
                t += 2 ** (j - 1)
        return t % 2**k
    t = next(t for t in range(p) if (t * t - n) % p == 0)
    for j in range(2, k + 1):
        t = (t - (t * t - n) * pow(2 * t, -1, p**j)) % p**j
    return t


@settings(max_examples=200, deadline=None, derandomize=True)
@given(x_bar=st.integers(-(2**160), 2**160))
def test_exponents_match_oracle_on_any_x(oracle_store, x_bar):
    assert_matches_oracle(oracle_store, x_bar)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    powers=st.dictionaries(st.integers(0, 8), st.integers(1, 12), min_size=1, max_size=4),
    j=st.integers(-(2**100), 2**100),
)
def test_exponents_match_oracle_on_high_prime_powers(oracle_store, powers, j):
    store = oracle_store
    moduli = [store.primes[i] ** k for i, k in powers.items()]
    targets = [sqrt_mod_prime_power(ORACLE_N, store.primes[i], k) for i, k in powers.items()]
    modulus = math.prod(moduli)
    # CRT: t = target mod every p**k, so p**k divides f(t - shift)
    t = sum(r * (modulus // m) * pow(modulus // m, -1, m) for r, m in zip(targets, moduli))
    x_bar = t % modulus - store.shift + j * modulus
    planted = dict(store.exponents_of(x_bar)[1])
    assert all(planted[i] >= k for i, k in powers.items())
    assert_matches_oracle(store, x_bar)


def test_exponents_match_oracle_on_3_pow_7_and_2_pow_k(oracle_store):
    store = oracle_store
    assert store.primes[:2] == (2, 3)
    for p, k in ((3, 7), (2, 3), (2, 20), (2, 64)):
        t = sqrt_mod_prime_power(ORACLE_N, p, k)
        for x_bar in (t - store.shift, t - store.shift - p**k * 977):
            assert_matches_oracle(store, x_bar)
            assert dict(store.exponents_of(x_bar)[1])[store.primes.index(p)] >= k


class RecordingStore(RelationStore):
    """A relation store that keeps every x_bar it was asked to ingest."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.finds = []

    def ingest(self, x_bar, residual):
        self.finds.append(x_bar)
        super().ingest(x_bar, residual)


REAL_RUNS = {
    # the sss-40d stream-lock case
    "sss-40d": ("sss", 2025187160651667522159602188240446426637, 7, 30),
    # a 50-digit sssf composite whose finds reach past 2**90 (four limbs)
    "sssf-50d": ("sssf", 71572202837660953991862295872154805899815805546319, 2, 50),
}


@pytest.fixture(scope="module", params=sorted(REAL_RUNS))
def real_run(request):
    algo, n, seed, rounds = REAL_RUNS[request.param]
    config = RunConfig(algo=algo, seed=seed, max_rounds=rounds)
    fb, sb, pre, ctx = prepare(n, config)
    store = RecordingStore(n, fb)
    collect_relations(n, config, fb, sb, pre, ctx, store=store)
    return request.param, store


def test_exponents_match_oracle_on_real_finds(real_run):
    name, store = real_run
    assert store.finds
    for x_bar in store.finds:
        assert_matches_oracle(store, x_bar)
    if name == "sssf-50d":
        assert max(abs(x) for x in store.finds) >> 90


def test_stored_rows_are_sparse(real_run):
    _, store = real_run
    rows = [rel.exponents for rel in store.fulls.values()]
    rows += [prel.exponents for prel in store.partial_rows()]
    cells = [line.split(",")[2:] for line in store.fulls_csv().splitlines()[1:]]
    cells += [line.split(",")[3:] for line in store.partials_csv().splitlines()[1:]]
    assert rows and len(cells) == len(rows)
    for row, dense_row in zip(rows, cells):
        assert len(row) <= sum(1 for e in dense_row if e != "0")
        indices = [i for i, _ in row]
        assert indices == sorted(set(indices))
        assert all(e > 0 for _, e in row)


# -- GF(2) solving ----------------------------------------------------------


def rel_from_row(row):
    return Relation(0, row[0], sparse(row[1:]))


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
    rel = Relation(10, 0, sparse((0, 2)))
    big_x, big_y = assemble_square([0], [rel], primes, 91)
    assert (big_x, big_y) == (10, 3)
    assert extract_factor(big_x, big_y, 91) == 7


def test_assemble_square_rejects_non_dependency():
    rel = Relation(10, 0, sparse((0, 1)))
    with pytest.raises(AssertionError):
        assemble_square([0], [rel], (2, 3), 91)


def test_extract_factor_trivial_cases():
    assert extract_factor(3, 3, 91) is None       # X = Y
    assert extract_factor(88, 3, 91) is None      # X = -Y mod 91
    assert extract_factor(10, 3, 91) == 7
