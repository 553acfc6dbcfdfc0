import pytest
from hypothesis import given, settings, strategies as st

from oracles import set_partitions, transitive_closure_classes
from ualgebra.algebras import CARRIER_CAP
from ualgebra.errors import SizeMismatch
from ualgebra.partitions import Partition, parse_partition


def assert_rebuilds(*partitions):
    # a trusted builder's output passes the constructor's canonical check
    for p in partitions:
        assert Partition(p.rep) == p


def test_canonical_form_and_equality():
    p = Partition.from_pairs(4, [(0, 2), (3, 1)])
    q = Partition.from_blocks(4, [[2, 0], [1, 3]])
    assert p == q
    assert p.rep == (0, 1, 0, 1)


def test_blocks_sorted_by_least_element():
    p = Partition.from_blocks(5, [[3, 4], [0], [1, 2]])
    assert p.blocks() == [(0,), (1, 2), (3, 4)]
    assert Partition((0, 1, 0, 3, 1)).blocks() == [(0, 2), (1, 4), (3,)]


def test_identity_and_total():
    assert Partition.identity(3).blocks() == [(0,), (1,), (2,)]
    assert Partition.total(3).blocks() == [(0, 1, 2)]
    for n in range(CARRIER_CAP + 1):
        assert_rebuilds(Partition.identity(n), Partition.total(n))


def test_join_meet_refines():
    a = Partition.from_blocks(4, [[0, 1], [2], [3]])
    b = Partition.from_blocks(4, [[0], [1, 2], [3]])
    assert a.join(b) == Partition.from_blocks(4, [[0, 1, 2], [3]])
    assert a.meet(b) == Partition.identity(4)
    assert a.refines(a.join(b))
    assert not a.join(b).refines(a)
    assert Partition.identity(4).refines(a)
    assert a.refines(Partition.total(4))


@pytest.mark.parametrize(
    "rep",
    [(0, 1, 2, 99), (0, None, 2, 3), (1, 0, 2, 3)],
    ids=["outside-the-carrier", "not-an-int", "not-least"],
)
def test_the_constructor_refuses_a_rep_not_in_canonical_form(rep):
    # once `join` met these as an IndexError, a TypeError and a silent
    # {{0,1},{2},{3}}; no Partition holds them now
    with pytest.raises(SizeMismatch, match="^partition is not canonical"):
        Partition(rep)


@pytest.mark.parametrize("a", [-1, -4, 4, 9, 1.0, "1", None], ids=repr)
def test_block_of_and_same_refuse_a_non_element(a):
    # -1 once gave the block of 3, and same(-4, 1) True; 4 an IndexError
    p = Partition.from_blocks(4, [[0, 1], [2, 3]])
    message = "^partition elements must be integers in range\\(4\\)$"
    with pytest.raises(SizeMismatch, match=message):
        p.block_of(a)
    with pytest.raises(SizeMismatch, match=message):
        p.same(a, 1)
    with pytest.raises(SizeMismatch, match=message):
        p.same(1, a)
    assert p.block_of(3) == (2, 3) and p.same(0, 1) and not p.same(1, 2)


def test_print_parse_roundtrip():
    p = Partition.from_blocks(4, [[0, 2], [1, 3]])
    assert str(p) == "{{0,2},{1,3}}"
    assert parse_partition(str(p), 4) == p
    assert parse_partition(" { {1,3} , {0,2} } ", 4) == p


def test_parse_rejects_bad_input():
    with pytest.raises(Exception):
        parse_partition("{{0,1}}", 3)  # does not cover 2
    with pytest.raises(Exception):
        parse_partition("{{0,1},{1,2}}", 3)  # overlapping blocks
    with pytest.raises(Exception):
        parse_partition("{{0,5}}", 3)  # out of range


def test_size_mismatch_guard():
    with pytest.raises(SizeMismatch):
        Partition.identity(3).refines(Partition.identity(4))


@pytest.mark.parametrize(
    "build",
    [
        lambda: Partition.from_pairs(4, [(0, -1)]),
        lambda: Partition.from_pairs(4, [(0, 9)]),
        lambda: Partition.from_pairs(4, ((a, a + 1.0) for a in range(3))),
        lambda: Partition.from_blocks(4, [[0, 1], [2, 3], [9]]),
        lambda: Partition.from_blocks(4, [[0, 1], [2, -1], [3]]),
        lambda: Partition.from_blocks(4, [[0, 1], [2, 3.0]]),
    ],
)
def test_from_pairs_and_from_blocks_refuse_entries_outside_the_carrier(build):
    # -1 used to index from the end and 9 past it
    with pytest.raises(SizeMismatch, match="must be integers in range"):
        build()


def test_from_blocks_refuses_an_empty_block():
    # min() of the empty block used to raise a bare ValueError
    with pytest.raises(SizeMismatch, match="block is empty"):
        Partition.from_blocks(4, [[0, 1, 2, 3], []])


def test_from_pairs_refuses_a_triple():
    # tuple unpacking used to raise a bare ValueError
    with pytest.raises(SizeMismatch, match="in pairs"):
        Partition.from_pairs(4, [(0, 1, 2)])


def test_from_pairs_refuses_an_entry_that_is_not_a_pair():
    # tuple unpacking used to raise a bare TypeError
    with pytest.raises(SizeMismatch, match="in pairs"):
        Partition.from_pairs(4, [5])


def test_set_partitions_oracle_counts_are_bell_numbers():
    bell = {0: 1, 1: 1, 2: 2, 3: 5, 4: 15, 5: 52}
    for n, count in bell.items():
        parts = list(set_partitions(n))
        assert len(parts) == count
        assert len(set(parts)) == count
        # each is a least-member tuple, the form of Partition.rep
        assert all(Partition.from_pairs(n, enumerate(rep)).rep == rep for rep in parts)


def _pair_lists(n, max_size=10):
    return st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=max_size)


@settings(max_examples=200, deadline=None)
@given(data=st.integers(1, 8).flatmap(lambda n: st.tuples(st.just(n), _pair_lists(n))))
def test_from_pairs_matches_brute_force_closure(data):
    n, pairs = data
    p = Partition.from_pairs(n, pairs)
    assert p.rep == transitive_closure_classes(n, pairs)
    blocks = [block[::-1] for block in reversed(p.blocks())]
    rebuilt = Partition.from_blocks(n, blocks)
    assert rebuilt == p
    assert_rebuilds(p, rebuilt)


@settings(max_examples=200, deadline=None)
@given(
    data=st.integers(1, CARRIER_CAP).flatmap(
        lambda n: st.tuples(st.just(n), _pair_lists(n, 24), _pair_lists(n, 24))
    )
)
def test_join_matches_brute_force_closure_of_both_sides(data):
    # up to CARRIER_CAP elements, where the congruence lattice joins
    n, left, right = data
    p, q = Partition.from_pairs(n, left), Partition.from_pairs(n, right)
    joined = p.join(q)
    assert joined.rep == transitive_closure_classes(n, left + right)
    assert p.meet(q).refines(p) and p.meet(q).refines(q)
    assert_rebuilds(joined, q.join(p), p.meet(q), q.meet(p))
