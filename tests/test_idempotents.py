"""Idempotent endomorphisms, found per congruence as the retractions onto one
representative per class that are homomorphisms, and the column-wise
homomorphism test, pinned to the map-by-map search and the tuple-by-tuple
check of `tests/oracles.py`."""

import os
import random
import subprocess
import sys
from itertools import product as iproduct
from math import prod
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from oracles import UnreadTable, _is_hom, backtracking_idempotents, brute_force_idempotent_endos
from ualgebra import algebras
from ualgebra.algebras import FiniteAlgebra, Homomorphism, is_homomorphism, product, quotient
from ualgebra.catalog import (
    chain_lattice,
    cyclic_group,
    cyclic_heap,
    groups_up_to_8,
    left_zero_semigroup,
    mult_semigroup,
    standard_corpus,
)
from ualgebra.congruences import all_congruences
from ualgebra.errors import SignatureMismatch, SizeLimitExceeded, SizeMismatch
from ualgebra.heaps import heap_from_group
from ualgebra.inner import CANDIDATE_LIMIT, idempotent_endomorphisms
from ualgebra.terms import BYTE_CARRIER, Signature

TESTS = Path(__file__).resolve().parent


def algebra(n, arities, tables, name="random"):
    symbols = tuple((f"f{p}", k) for p, k in enumerate(arities))
    return FiniteAlgebra(name, Signature(symbols), n, tuple(tuple(t) for t in tables))


SMALL = (
    [A for A, _ in standard_corpus() if A.size <= 6]
    + [left_zero_semigroup(n) for n in range(1, 7)]
    + [chain_lattice(n) for n in range(1, 7)]
    + [mult_semigroup(n) for n in range(1, 7)]
    + [heap_from_group(G) for G in groups_up_to_8() if G.size <= 6]
    # null semigroups: every product is 0, so most retractions fail to fix 0
    + [algebra(n, [2], [[0] * n * n], name=f"null{n}") for n in range(1, 7)]
)


def idempotent_maps(A):
    return [e.map for e in idempotent_endomorphisms(A)]


@st.composite
def random_tables(draw, n, arities):
    top = draw(st.integers(0, n - 1))
    return [draw(st.lists(st.integers(0, top), min_size=n**k, max_size=n**k)) for k in arities]


@st.composite
def random_algebras(draw):
    """An algebra of order <= 5 with up to two constants and up to two
    operations of arity 1-3; small value ranges leave many maps homomorphic."""
    n = draw(st.integers(1, 5))
    arities = [0] * draw(st.integers(0, 2))
    arities += draw(st.lists(st.sampled_from([1, 2, 3]), min_size=0 if arities else 1, max_size=2))
    return algebra(n, arities, draw(random_tables(n, arities)))


@pytest.mark.parametrize("A", SMALL, ids=lambda A: A.name)
def test_idempotents_match_the_map_by_map_search(A):
    assert idempotent_maps(A) == backtracking_idempotents(A)


@settings(max_examples=200, deadline=None)
@given(A=random_algebras())
def test_idempotents_of_random_tables_match_the_map_by_map_search(A):
    assert idempotent_maps(A) == backtracking_idempotents(A)


def test_constants_in_one_block_leave_no_transversal():
    # constants 0 and 1 and f = (1, 1, 2): a kept retraction fixes both
    # constants, which are 0-ary operations, so no congruence joining 0 and 1
    # keeps one, and on {{0}, {1, 2}} only the representative 1 is kept
    A = algebra(3, [0, 0, 1], [[0], [1], [1, 1, 2]])
    found = idempotent_maps(A)
    assert found == backtracking_idempotents(A) == [(0, 1, 1), (0, 1, 2)]
    joined = [omega for omega in all_congruences(A) if omega.same(0, 1)]
    assert joined and not any(m[0] == m[1] for m in found)


def test_left_zero_semigroups_keep_every_candidate():
    # x * y = x: every self-map is a homomorphism, so each retraction is kept
    # and the count is that of idempotent self-maps (OEIS A000248); n = 8 is
    # CANDIDATE_LIMIT, the largest search that runs
    counts = [len(idempotent_endomorphisms(left_zero_semigroup(n))) for n in range(1, 9)]
    assert counts == [1, 3, 10, 41, 196, 1057, 6322, CANDIDATE_LIMIT]


@pytest.mark.parametrize(
    "A",
    [mult_semigroup(8), heap_from_group(next(G for G in groups_up_to_8() if G.name == "q8"))],
    ids=lambda A: A.name,
)
def test_each_candidate_is_tested_once(A, monkeypatch):
    # one retraction per congruence and choice of representatives, and each
    # retraction reaches the kernel once, in some batch: a kept map is never
    # checked again
    congruences = all_congruences(A)
    candidates = sum(prod(len(block) for block in omega.blocks()) for omega in congruences)
    received = []
    real = algebras.maps_tables

    def counted(codes, count, *args):
        step = len(codes) // count
        received.extend(tuple(codes[c * step : (c + 1) * step]) for c in range(count))
        return real(codes, count, *args)

    monkeypatch.setattr(algebras, "maps_tables", counted)
    idempotent_endomorphisms.cache_clear()
    maps = idempotent_maps(A)
    assert len(received) == len(set(received)) == candidates > len(maps)
    assert set(maps) <= set(received)
    assert all(m[x] == x for m in received for x in m)


def test_the_search_raises_nothing_per_candidate(monkeypatch):
    # mult_semigroup(8) has 193 candidates and keeps 19: a rejected one is
    # left out by `Homomorphism.among`, not told apart by a raised
    # NotAHomomorphism, and a kept one equals the constructor's
    A = mult_semigroup(8)
    assert candidates(A) == 193
    raised = []

    class Counted(algebras.NotAHomomorphism):
        def __init__(self, *args):
            raised.append(args)
            super().__init__(*args)

    monkeypatch.setattr(algebras, "NotAHomomorphism", Counted)
    idempotent_endomorphisms.cache_clear()
    found = idempotent_endomorphisms(A)
    assert len(found) == 19 and raised == []
    for e in found:
        built = Homomorphism(A, A, e.map)
        assert e == built and hash(e) == hash(built) and repr(e) == repr(built)


# 9-12 elements: below the carrier cap, with answers inside both limits
LARGE = (
    [mult_semigroup(n) for n in range(9, 13)]
    + [cyclic_group(n) for n in (9, 10, 12)]
    + [heap_from_group(cyclic_group(n)) for n in (9, 12)]
    + [product(chain_lattice(3), chain_lattice(4)), chain_lattice(9)]
)


@pytest.mark.parametrize("A", LARGE, ids=lambda A: A.name)
def test_idempotents_of_9_to_12_elements_match_the_map_by_map_search(A):
    assert idempotent_maps(A) == backtracking_idempotents(A)


def candidates(A):
    return sum(prod(len(block) for block in omega.blocks()) for omega in all_congruences(A))


def test_the_candidate_limit_is_checked_before_any_candidate(monkeypatch):
    # the retractions of a chain are its interval partitions with a chosen
    # point per interval: Fibonacci numbers, F(22) = 17711 and F(24) = 46368
    assert candidates(chain_lattice(11)) == 17711 == len(idempotent_maps(chain_lattice(11)))
    A = chain_lattice(12)
    assert candidates(A) == 46368 > CANDIDATE_LIMIT
    calls = []
    for name in ("is_homomorphism", "_homomorphic_maps", "maps_tables"):
        monkeypatch.setattr(algebras, name, lambda *args: calls.append(args))
    idempotent_endomorphisms.cache_clear()
    for _ in range(2):
        with pytest.raises(SizeLimitExceeded, match="^idempotent search capped at 41393 candidates$"):
            idempotent_endomorphisms(A)
    assert calls == []
    assert idempotent_endomorphisms.cache_info().currsize == 0


def test_the_congruence_limit_stops_the_search_first():
    # Con(left_zero_semigroup(9)) holds all Bell(9) = 21147 partitions
    message = "^congruence enumeration capped at 4140 congruences$"
    with pytest.raises(SizeLimitExceeded, match=message):
        idempotent_endomorphisms(left_zero_semigroup(9))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_is_homomorphism_matches_the_tuple_check_on_random_maps(data):
    A = data.draw(random_algebras())
    arities = [k for _, k in A.signature.symbols]
    m = data.draw(st.integers(1, 5))
    B = algebra(m, arities, data.draw(random_tables(m, arities)))
    mapping = tuple(data.draw(st.lists(st.integers(0, m - 1), min_size=A.size, max_size=A.size)))
    assert is_homomorphism(mapping, A, B) == _is_hom(A, mapping, B)
    # the projections onto the quotients are homomorphisms into smaller algebras
    for omega in all_congruences(A):
        Q, proj = quotient(A, omega)
        assert is_homomorphism(proj.map, A, Q) and _is_hom(A, proj.map, Q)
        if Q.size > 1:
            moved = tuple((v + 1) % Q.size for v in proj.map)
            assert is_homomorphism(moved, A, Q) == _is_hom(A, moved, Q)


def test_is_homomorphism_checks_the_signature_then_the_map():
    z4, z2 = cyclic_group(4), cyclic_group(2)
    with pytest.raises(SignatureMismatch):
        is_homomorphism((0, 1, 2), z4, chain_lattice(2))
    with pytest.raises(SignatureMismatch):
        Homomorphism.among(z4, chain_lattice(2), ((0, 1, 0, 1),))
    for bad in [(0, 1, 0), (0, 1, 0, 1, 0), (0, 1, 2, 3), (0, -1, 0, 1)]:
        with pytest.raises(SizeMismatch, match="map must send A's carrier into B's"):
            is_homomorphism(bad, z4, z2)
    assert is_homomorphism((0, 1, 0, 1), z4, z2)
    assert not is_homomorphism((0, 1, 1, 0), z4, z2)


def test_a_map_entry_outside_b_is_refused_on_both_paths():
    # an entry must be an int in B's carrier, on carriers of at most
    # BYTE_CARRIER elements and beyond; a float, str or None once ended in
    # TypeError
    for A, B, good in [
        (cyclic_group(4), cyclic_group(2), (0, 1, 0, 1)),
        (left_zero_semigroup(17), left_zero_semigroup(2), (0, 1) * 8 + (0,)),
    ]:
        assert is_homomorphism(good, A, B)
        for bad in [1.0, "1", None, -1, B.size, 255, 256]:
            bad_map = (bad,) + good[1:]
            with pytest.raises(SizeMismatch, match="map must send A's carrier into B's"):
                is_homomorphism(bad_map, A, B)
            with pytest.raises(SizeMismatch, match="map must send A's carrier into B's"):
                Homomorphism(A, B, bad_map)
            with pytest.raises(SizeMismatch, match="map must send A's carrier into B's"):
                Homomorphism.among(A, B, (bad_map,))


def test_a_bool_map_entry_reads_as_its_int():
    z4, z2 = cyclic_group(4), cyclic_group(2)
    assert is_homomorphism((False, True, False, True), z4, z2)
    assert not is_homomorphism((False, True, True, False), z4, z2)


KERNEL_SYMBOLS = (("c", 0), ("u", 1), ("b", 2), ("t", 3), ("q", 4))


def _kernel_algebra(rng, n, top=None):
    """Random tables of arity 0-4 on n elements, values below `top`."""
    symbols = tuple((name, k) for name, k in KERNEL_SYMBOLS if n**k <= 5000)
    top = n if top is None else top
    tables = [[rng.randrange(top) for _ in range(n**k)] for _, k in symbols]
    return algebra(n, [k for _, k in symbols], tables, name=f"kernel{n}")


def _agree_with_the_tuple_check(A, B, maps):
    outcomes = set()
    for m in maps:
        got = is_homomorphism(m, A, B)
        assert got == _is_hom(A, m, B), (A.name, B.name, m)
        outcomes.add(got)
    return outcomes


def _all_maps(n, m):
    return list(iproduct(range(m), repeat=n))


def test_maps_between_unequal_carriers_match_the_tuple_check():
    # 4 -> 2 and 2 -> 8, every map: group maps and random tables of arity
    # 0-4 over small value ranges, so that some maps are homomorphisms
    outcomes = set()
    outcomes |= _agree_with_the_tuple_check(cyclic_group(4), cyclic_group(2), _all_maps(4, 2))
    outcomes |= _agree_with_the_tuple_check(cyclic_group(2), cyclic_group(8), _all_maps(2, 8))
    rng = random.Random(4)
    for n, m in [(4, 2), (2, 8)]:
        for _ in range(6):
            A, B = _kernel_algebra(rng, n, 1 + (n > m)), _kernel_algebra(rng, m, 2)
            outcomes |= _agree_with_the_tuple_check(A, B, _all_maps(n, m))
    assert outcomes == {True, False}


@pytest.mark.parametrize("n", range(1, BYTE_CARRIER + 2))
def test_tables_of_arity_0_to_4_match_the_tuple_check(n):
    # orders 1-17 with tables of arity 0-4 (at most 5,000 entries) reach every
    # table read of the byte path: one map (n^k <= 256), one window per first
    # value (ternary on 7-16, 4-ary on 5-6), the list path over `bytes`
    # columns (4-ary on 7-8, past 256 * n entries), and, at 17, `pack_product`
    rng = random.Random(500 + n)
    A = _kernel_algebra(rng, n)
    if n in (7, 8):
        assert len(A.tables[-1]) > 256 * n
    # the identity preserves every table, the random maps rarely do; on
    # tables constant at c, exactly the maps that fix c do, such as a
    # retraction onto a set holding c
    c = rng.randrange(n)
    C = FiniteAlgebra("const", A.signature, n, tuple((c,) * len(t) for t in A.tables))
    maps = [tuple(rng.randrange(n) for _ in range(n)) for _ in range(20)]
    maps += [tuple(range(n)), tuple(x if x % 2 == c % 2 else c for x in range(n))]
    outcomes = _agree_with_the_tuple_check(A, A, maps) | _agree_with_the_tuple_check(C, C, maps)
    assert outcomes == ({True, False} if n > 1 else {True})


@pytest.mark.parametrize("n", [7, 8])
def test_heaps_read_through_windows_match_the_tuple_check(n):
    # the ternary table of a heap on 7 or 8 elements is read one window per
    # first value; every affine map x -> a*x + c is a heap endomorphism
    X = cyclic_heap(n)
    assert len(X.byte_tables[0]) == n
    rng = random.Random(n)
    affine = [tuple((a * x + c) % n for x in range(n)) for a in range(n) for c in range(n)]
    other = [tuple(rng.randrange(n) for _ in range(n)) for _ in range(40)]
    assert _agree_with_the_tuple_check(X, X, affine) == {True}
    assert False in _agree_with_the_tuple_check(X, X, other)
    assert _agree_with_the_tuple_check(X, cyclic_heap(2), _all_maps(n, 2)) == {True, False}


def test_a_table_past_256_n_entries_reads_bytes_columns_on_the_list_path():
    # a 4-ary table on 7 elements has 2,401 > 256 * 7 entries: `read_table`
    # packs the mapped `bytes` columns row by row
    rng = random.Random(7)
    A = algebra(7, [4], [[rng.randrange(2) for _ in range(7**4)]])
    assert 0 not in A.byte_tables
    maps = [tuple(rng.randrange(7) for _ in range(7)) for _ in range(10)]
    maps += [tuple(range(7)), (0, 1, 0, 1, 0, 1, 0)]
    assert _agree_with_the_tuple_check(A, A, maps) == {True, False}


def test_17_element_carriers_take_the_index_list_and_match_the_tuple_check():
    # a carrier past BYTE_CARRIER on either side keeps `pack_product`
    rng = random.Random(17)
    big, small = chain_lattice(17), chain_lattice(3)
    monotone = [tuple(sorted(rng.randrange(3) for _ in range(17))) for _ in range(10)]
    shuffled = [tuple(rng.sample(m, 17)) for m in monotone]
    assert _agree_with_the_tuple_check(big, small, monotone + shuffled) == {True, False}
    up = [tuple(sorted(rng.sample(range(17), 3))) for _ in range(10)]
    assert _agree_with_the_tuple_check(small, big, up + [m[::-1] for m in up]) == {True, False}
    z17 = cyclic_group(17)
    scaled = [tuple(a * x % 17 for x in range(17)) for a in range(17)]
    assert _agree_with_the_tuple_check(z17, z17, scaled + shuffled) == {True, False}


@st.composite
def wide_algebras(draw):
    """An algebra of order 1-8 with tables of arity 0-4, at most 1,296
    entries each, over a small value range: one translation map or one
    window per first value on the byte path."""
    n = draw(st.integers(1, 8))
    arities = draw(
        st.lists(st.sampled_from([k for k in range(5) if n**k <= 1296]), min_size=1, max_size=2)
    )
    return algebra(n, arities, draw(random_tables(n, arities)))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_random_tables_with_random_maps_and_retractions_match_the_tuple_check(data):
    A = data.draw(wide_algebras())
    n = A.size
    mapping = tuple(data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))
    maps = [mapping]
    # and the retraction onto the fixed points of `mapping`, when it has any
    fixed = [x for x in range(n) if mapping[x] == x]
    if fixed:
        maps.append(tuple(x if x in fixed else fixed[mapping[x] % len(fixed)] for x in range(n)))
    for m in maps:
        assert is_homomorphism(m, A, A) == _is_hom(A, m)


@pytest.mark.parametrize("A", [chain_lattice(7), cyclic_heap(8)], ids=lambda A: A.name)
def test_the_idempotent_search_reads_no_table_entry_by_index(A):
    # on a byte carrier each candidate is read through `bytes` alone: one
    # map per lattice operation, one window per first value of the heap's t
    expected = idempotent_maps(A)
    all_congruences(A)  # Con(A) is built before the tables are swapped
    object.__setattr__(A, "tables", tuple(map(UnreadTable, A.tables)))
    idempotent_endomorphisms.cache_clear()
    try:
        assert idempotent_maps(A) == expected
    finally:
        idempotent_endomorphisms.cache_clear()


def _kernel_batches(monkeypatch):
    """The batch sizes that `terms.maps_tables` receives, recorded in order."""
    sizes = []
    real = algebras.maps_tables

    def recorded(codes, count, *args):
        sizes.append(count)
        return real(codes, count, *args)

    monkeypatch.setattr(algebras, "maps_tables", recorded)
    return sizes


@pytest.mark.parametrize("A", [mult_semigroup(5), chain_lattice(7), cyclic_heap(8)], ids=lambda A: A.name)
def test_batches_around_multiples_of_the_batch_size(A, monkeypatch):
    # 256 // n maps fill a batch; k full batches and one map fewer or more
    # each keep exactly the maps that the tuple check accepts, in order
    full = 256 // A.size
    rng = random.Random(A.size)
    pool = [tuple(rng.randrange(A.size) for _ in range(A.size)) for _ in range(3 * full + 1)]
    endos = [e.map for e in idempotent_endomorphisms(A)]
    for i in range(0, len(pool), 3):
        pool[i] = endos[i // 3 % len(endos)]
    sizes = _kernel_batches(monkeypatch)
    for k in (1, 2, 3):
        for total in (k * full - 1, k * full, k * full + 1):
            maps = pool[:total]
            sizes.clear()
            kept = Homomorphism.among(A, A, iter(maps))
            assert [e.map for e in kept] == [m for m in maps if _is_hom(A, m)]
            assert sizes == [full] * (total // full) + ([total % full] if total % full else [])
    assert 0 < len(kept) < len(maps)


def test_a_rejected_map_first_in_the_middle_and_last_of_a_full_batch(monkeypatch):
    # 32 maps of 8 elements fill the 256 codes, the last one 31 * 8 + 7 =
    # 255 = TABLE_PAD; each monotone retraction is a lattice endomorphism
    A = chain_lattice(8)
    good = [e.map for e in idempotent_endomorphisms(A)][:32]
    # differs from the identity only at 7, the last entry of its map
    bad = (0, 1, 2, 3, 4, 5, 6, 5)
    assert all(_is_hom(A, m) for m in good) and not _is_hom(A, bad)
    sizes = _kernel_batches(monkeypatch)
    for slots in [(), (0,), (15,), (31,), (0, 15, 31), tuple(range(32))]:
        maps = [bad if c in slots else m for c, m in enumerate(good)]
        kept = Homomorphism.among(A, A, maps)
        assert [e.map for e in kept] == [m for c, m in enumerate(good) if c not in slots]
    assert set(sizes) == {32}
    # the last map alone decides on the last code
    maps = [tuple(range(8))] * 31 + [bad]
    assert [e.map for e in Homomorphism.among(A, A, maps)] == maps[:31]


def test_batches_over_constants_keep_the_maps_that_fix_them():
    # constants are read once per batch as one entry per map
    rng = random.Random(0)
    for n in (3, 8):
        A = algebra(n, [0, 0, 2], [[1], [2], [rng.randrange(n) for _ in range(n * n)]])
        maps = [tuple(rng.randrange(n) for _ in range(n)) for _ in range(300)]
        maps += [tuple(range(n))] * 5 + [tuple(x if x in (1, 2) else 1 for x in range(n))] * 5
        rng.shuffle(maps)
        kept = [e.map for e in Homomorphism.among(A, A, maps)]
        assert kept == [m for m in maps if _is_hom(A, m)]
        assert kept and all(m[1] == 1 and m[2] == 2 for m in kept)
        C = algebra(n, [0], [[n - 1]])
        assert [e.map for e in Homomorphism.among(C, C, maps)] == [m for m in maps if m[n - 1] == n - 1]


@pytest.mark.parametrize("n", range(7, BYTE_CARRIER + 1))
def test_windowed_heaps_of_7_to_16_elements_match_the_tuple_check(n):
    # t on n elements has n^3 <= 256 * n entries, read one window per run of
    # its first argument: by `is_homomorphism` one map at a time and by a
    # batch of 256 // n maps
    X = cyclic_heap(n)
    assert type(X.byte_tables[0]) is tuple
    rng = random.Random(n)
    affine = [tuple((a * x + c) % n for x in range(n)) for a in range(n) for c in range(n)]
    other = [tuple(rng.randrange(n) for _ in range(n)) for _ in range(30)]
    maps = affine + other
    rng.shuffle(maps)
    expected = [m for m in maps if _is_hom(X, m)]
    assert set(affine) <= set(expected) and len(expected) < len(maps)
    assert [m for m in maps if is_homomorphism(m, X, X)] == expected
    assert [e.map for e in Homomorphism.among(X, X, maps)] == expected


def test_a_batch_refuses_a_bad_entry_in_any_map_before_testing():
    A, B = cyclic_group(4), cyclic_group(2)
    good = [(0, 1, 0, 1), (0, 0, 0, 0), (0, 1, 1, 0)]
    for bad in [(0, 1, 0), (0, 1, 0, 1, 0), (0, 1, 2, 1), (0, -1, 0, 1), (0, 1.0, 0, 1), (0, None, 0, 1)]:
        for slot in (0, 2, 40, 63):
            maps = good * 22
            maps[slot] = bad
            with pytest.raises(SizeMismatch, match="map must send A's carrier into B's"):
                Homomorphism.among(A, B, maps)
    assert [e.map for e in Homomorphism.among(A, B, good * 30)] == [good[0], good[1]] * 30
    with pytest.raises(SignatureMismatch):
        Homomorphism.among(A, chain_lattice(2), [])


@settings(max_examples=150, deadline=None)
@given(A=random_algebras())
def test_the_batched_search_matches_both_oracles(A):
    found = idempotent_maps(A)
    assert found == backtracking_idempotents(A) == sorted(brute_force_idempotent_endos(A))


OPTIMIZED_RUN = """
import sys
from oracles import backtracking_idempotents, principal_join_bfs
from ualgebra.algebras import all_subalgebras
from ualgebra.catalog import (
    chain_lattice,
    cyclic_heap,
    groups_up_to_8,
    left_zero_semigroup,
    standard_corpus,
)
from ualgebra.congruences import all_congruences
from ualgebra.errors import SizeMismatch
from ualgebra.heaps import heap_from_group
from ualgebra.inner import count_transversal_pairs, idempotent_endomorphisms
from ualgebra.partitions import Partition

if not sys.flags.optimize:
    sys.exit("not run under -O")
try:
    Partition((1, 0, 2, 3))
except SizeMismatch:
    pass
else:
    sys.exit("a partition not in canonical form was accepted")
corpus = [A for A, _ in standard_corpus() if A.size <= 5] + [left_zero_semigroup(4)]
corpus += [heap_from_group(G) for G in groups_up_to_8() if G.size <= 4]
# windowed tables, and a full batch of 32 maps on 8 elements
corpus += [cyclic_heap(7), cyclic_heap(8), chain_lattice(8)]
for A in corpus:
    maps = [e.map for e in idempotent_endomorphisms(A)]
    congruences = all_congruences(A)
    pairs = count_transversal_pairs(A, all_subalgebras(A), congruences)
    if maps != backtracking_idempotents(A) or len(maps) != pairs:
        sys.exit(f"mismatch on {A.name}")
    if [omega.rep for omega in congruences] != principal_join_bfs(A):
        sys.exit(f"congruence mismatch on {A.name}")
print("agree", len(corpus))
"""


def test_idempotents_agree_with_the_oracles_under_python_O():
    path = os.pathsep.join([str(TESTS.parent / "src"), str(TESTS)])
    env = dict(os.environ, PYTHONPATH=path)
    run = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_RUN],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.split()[0] == "agree"
