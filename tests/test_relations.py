import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from relations_oracle import (
    NotSmoothError,
    dense,
    factor_over_base,
    gf2_rank,
    lowest_bit_dependencies,
    row_bits,
    sparse,
    trial_divide,
)

from sssfactor.engine import RunConfig, collect_relations, prepare
from sssfactor.factorbase import build_factor_bases, poly_value
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


def test_store_rejects_another_numbers_base():
    fb, _ = build_factor_bases(STORE_N, 8, 4)
    with pytest.raises(ValueError, match="factor base built for kN = 10403"):
        RelationStore(10807, fb)  # 101 * 107
    # prepared for one number (k = 89) and collecting for another (k = 77)
    k89, k77 = 279223759547999729, 223069665544596653
    config = RunConfig(algo="sss", seed=1, max_rounds=1)
    fb, sb, pre, ctx = prepare(k89, config)
    assert fb.multiplier == 89
    with pytest.raises(ValueError, match="not for 89 \\* 223069665544596653"):
        collect_relations(k77, config, fb, sb, pre, ctx)


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
    fulls, _ = find_relation_material(STORE_N, fb.primes, fb.partial_bound)
    assert fulls
    for x_bar in fulls:
        store.ingest(x_bar, 1)
    assert store.native_count == len(store.fulls) == len(set(
        (x + fb.shift) % STORE_N for x in fulls
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
    fulls, _ = find_relation_material(STORE_N, fb.primes, fb.partial_bound)
    store.ingest(fulls[0], 1)
    store.ingest(fulls[0], 1)
    assert store.native_count == 1


def test_partials_combine_into_verified_full():
    store, fb = small_store()
    _, partials = find_relation_material(STORE_N, fb.primes, fb.partial_bound)
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
    _, partials = find_relation_material(STORE_N, fb.primes, fb.partial_bound)
    r, xs = next(iter(partials.items()))
    store.ingest(xs[0], r)
    store.ingest(xs[0], r)
    assert store.combined_count == 0
    assert len(store.partials) == 1


def test_partial_cofactor_sharing_factor_with_n_is_lucky():
    store, fb = small_store()
    # f(-1) = 101**2 - 10403 = -202 = -2 * 101: cofactor 101 divides n
    assert poly_value(-1, STORE_N, fb.shift) == -202
    with pytest.raises(FoundFactor) as err:
        store.ingest(-1, 101)
    assert err.value.divisor == 101


def test_store_use_partials_off_ignores_them():
    store, fb = small_store(use_partials=False)
    _, partials = find_relation_material(STORE_N, fb.primes, fb.partial_bound)
    r, xs = next(iter(partials.items()))
    store.ingest(xs[0], r)
    assert not store.partials and not store.fulls


def coprime_partials(store, fb):
    """(cofactor, x_bars) pairs of the crafted partials whose cofactor is
    prime to STORE_N, so that none of them is a lucky factor."""
    _, partials = find_relation_material(STORE_N, fb.primes, fb.partial_bound)
    return [(r, xs) for r, xs in partials.items() if math.gcd(r, STORE_N) == 1]


def test_residual_carrying_a_base_prime_never_becomes_a_relation():
    # the store takes the residual as the cofactor and strips nothing: a
    # residual that still carries a base prime, but divides f(x_bar), is kept
    # under that key, and the root test refuses it when the partial is dumped
    store, fb = small_store()
    for x_bar, r in ((x, r) for r, xs in coprime_partials(store, fb) for x in xs):
        value = poly_value(x_bar, STORE_N, fb.shift)
        p = next((p for p in fb.primes if value % (r * p) == 0), None)
        if p is not None:
            break
    else:
        pytest.fail("test instance must provide a partial with a base prime")
    store.ingest(x_bar, r * p)
    assert list(store.partials) == [r * p]
    assert not store.fulls
    with pytest.raises(AssertionError):
        store.partials_csv()


def test_residual_that_does_not_divide_f_is_rejected():
    store, fb = small_store()
    r, xs = coprime_partials(store, fb)[0]
    value = poly_value(xs[0], STORE_N, fb.shift)
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
        trial_divide(poly_value(x, STORE_N, fb.shift), fb.primes) for x in (x1, x2)
    )
    assert c1 == c2 == r
    assert rel.sign == (s1 + s2) % 2
    assert rel.exponents == sparse([a + b for a, b in zip(e1, e2)])
    a1, a2 = ((x + fb.shift) % STORE_N for x in (x1, x2))
    assert rel.x == a1 * a2 * pow(r, -1, STORE_N) % STORE_N
    rhs = 1
    for i, e in rel.exponents:
        rhs = rhs * pow(fb.primes[i], e, STORE_N) % STORE_N
    assert rel.x * rel.x % STORE_N == (-rhs if rel.sign else rhs) % STORE_N
    # the first partial stays, and its row derives a from x_bar
    assert store.partial_rows() == [PartialRelation(a1, r, s1, sparse(e1))]


def test_third_partial_of_a_cofactor_combines_with_the_first():
    store, fb = small_store()
    r, xs = next((r, xs) for r, xs in coprime_partials(store, fb) if len(xs) >= 3)
    for x_bar in xs[:3]:
        store.ingest(x_bar, r)
    assert store.combined_count == 2
    assert list(store.partials) == [r]
    (s1, e1, c1), *later = (
        trial_divide(poly_value(x, STORE_N, fb.shift), fb.primes) for x in xs[:3]
    )
    a1, *later_a = ((x + fb.shift) % STORE_N for x in xs[:3])
    for rel, (s2, e2, c2), a2 in zip(store.fulls.values(), later, later_a):
        assert c1 == c2 == r
        assert rel.sign == (s1 + s2) % 2
        assert rel.exponents == sparse([a + b for a, b in zip(e1, e2)])
        assert rel.x == a1 * a2 * pow(r, -1, STORE_N) % STORE_N


def test_first_partial_of_a_cofactor_is_factored_once(monkeypatch):
    # three partials with one cofactor: the first is root-tested when the
    # second arrives and its row is reused for the third, so three calls
    store, fb = small_store()
    r, xs = next((r, xs) for r, xs in coprime_partials(store, fb) if len(xs) >= 3)
    calls = []
    exponents_of = store.exponents_of

    def counted(x_bar):
        calls.append(x_bar)
        return exponents_of(x_bar)

    monkeypatch.setattr(store, "exponents_of", counted)
    for x_bar in xs[:3]:
        store.ingest(x_bar, r)
    assert calls == [xs[0], xs[1], xs[2]]
    assert store.combined_count == 2
    (s1, e1, _), *later = (
        trial_divide(poly_value(x, STORE_N, fb.shift), fb.primes) for x in xs[:3]
    )
    for rel, (s2, e2, _) in zip(store.fulls.values(), later):
        assert rel.sign == (s1 + s2) % 2
        assert rel.exponents == sparse([a + b for a, b in zip(e1, e2)])


def test_partial_stored_under_a_wrong_cofactor_fails_when_factored():
    store, fb = small_store()
    # a partial whose cofactor is a product of two primes outside the base,
    # stored under one of them
    for x_bar in range(-600, 600):
        rest = trial_divide(poly_value(x_bar, STORE_N, fb.shift), fb.primes)[2]
        q = next((d for d in range(2, math.isqrt(rest) + 1) if rest % d == 0), rest)
        if q < rest and math.gcd(rest, STORE_N) == 1:
            break
    else:
        pytest.fail("test instance must provide a composite cofactor")
    store.ingest(x_bar, q)
    assert list(store.partials) == [q]
    with pytest.raises(AssertionError):
        store.partials_csv()


def test_store_rejects_corrupt_relation(monkeypatch):
    store, fb = small_store()
    fulls, _ = find_relation_material(STORE_N, fb.primes, fb.partial_bound)
    corrupt = (0, sparse((1,) * len(fb.primes)), 1)
    monkeypatch.setattr(store, "exponents_of", lambda x_bar: corrupt)
    with pytest.raises(ValueError):
        store.ingest(fulls[0], 1)


def test_csv_dumps():
    store, fb = small_store()
    fulls, partials = find_relation_material(STORE_N, fb.primes, fb.partial_bound)
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
        poly_value(x_bar, store.fb.kn, store.fb.shift), store.fb.primes
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
    moduli = [store.fb.primes[i] ** k for i, k in powers.items()]
    targets = [sqrt_mod_prime_power(ORACLE_N, store.fb.primes[i], k) for i, k in powers.items()]
    modulus = math.prod(moduli)
    # CRT: t = target mod every p**k, so p**k divides f(t - shift)
    t = sum(r * (modulus // m) * pow(modulus // m, -1, m) for r, m in zip(targets, moduli))
    x_bar = t % modulus - store.fb.shift + j * modulus
    planted = dict(store.exponents_of(x_bar)[1])
    assert all(planted[i] >= k for i, k in powers.items())
    assert_matches_oracle(store, x_bar)


def test_exponents_match_oracle_on_3_pow_7_and_2_pow_k(oracle_store):
    store = oracle_store
    assert store.fb.primes[:2] == (2, 3)
    for p, k in ((3, 7), (2, 3), (2, 20), (2, 64)):
        t = sqrt_mod_prime_power(ORACLE_N, p, k)
        for x_bar in (t - store.fb.shift, t - store.fb.shift - p**k * 977):
            assert_matches_oracle(store, x_bar)
            assert dict(store.exponents_of(x_bar)[1])[store.fb.primes.index(p)] >= k


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
    # a 50-digit sssf composite with multiplier k = 31, whose finds at seed
    # 10 reach past 2**90 (four limbs)
    "sssf-50d": ("sssf", 71572202837660953991862295872154805899815805546319, 10, 50),
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


@st.composite
def sparse_matrices(draw):
    """Relation rows over a few columns with exponents up to 4, plus
    inserted duplicate, all-even, empty and sign-only rows."""
    cols = draw(st.integers(1, 40))
    index = st.integers(0, cols - 1)
    row = st.builds(
        lambda sign, exps: Relation(0, sign, tuple(sorted(exps.items()))),
        st.integers(0, 1),
        st.dictionaries(index, st.integers(1, 4), max_size=6),
    )
    rows = draw(st.lists(row, max_size=50))
    kinds = st.sampled_from(("duplicate", "even", "empty", "sign"))
    for kind in draw(st.lists(kinds, max_size=6)):
        if kind == "duplicate" and rows:
            extra = rows[draw(st.integers(0, len(rows) - 1))]
        elif kind == "even":
            exps = draw(st.dictionaries(index, st.sampled_from((2, 4)), min_size=1, max_size=6))
            extra = Relation(0, 0, tuple(sorted(exps.items())))
        else:
            extra = Relation(0, int(kind == "sign"), ())
        rows.insert(draw(st.integers(0, len(rows))), extra)
    return rows


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rows=sparse_matrices())
def test_solve_dependencies_on_sparse_matrices(rows):
    deps = solve_dependencies(rows)
    bits = [row_bits(rel) for rel in rows]
    for subset in deps:
        assert subset and subset == sorted(set(subset)) and subset[-1] < len(rows)
        total = 0
        for i in subset:
            total ^= bits[i]
        assert total == 0
    # independent over GF(2), and one per row that adds no rank, as the
    # lowest-bit reference finds
    assert gf2_rank(sum(1 << i for i in subset) for subset in deps) == len(deps)
    assert len(deps) == len(rows) - gf2_rank(bits)
    assert len(deps) == len(lowest_bit_dependencies(rows))
    # the engine's retry skips the dependencies of an earlier row prefix
    for k in range(len(rows)):
        head = solve_dependencies(rows[:k])
        assert head == deps[: len(head)]


def test_solve_dependencies_on_a_real_matrix():
    # the rows the engine solves for the 40-digit stream-lock composite
    n = 2025187160651667522159602188240446426637
    config = RunConfig(algo="sss", seed=7)
    fb, sb, pre, ctx = prepare(n, config)
    store, _ = collect_relations(n, config, fb, sb, pre, ctx)
    assert store.have_enough()
    rels = list(store.fulls.values())[: store.target]
    deps = solve_dependencies(rels)
    assert len(deps) == len(lowest_bit_dependencies(rels)) >= 1
    for subset in deps:
        assemble_square(subset, rels, fb.primes, n)  # raises unless a square


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
