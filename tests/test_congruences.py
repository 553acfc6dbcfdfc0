from hypothesis import given, settings, strategies as st

from ualgebra import congruences
from ualgebra.algebras import IDEMPOTENT_CACHE_SIZE, FiniteAlgebra, Homomorphism, product, quotient
from ualgebra.catalog import (
    chain_lattice,
    cyclic_group,
    cyclic_heap,
    groups_up_to_8,
    klein_group,
    left_zero_semigroup,
    mult_semigroup,
    symmetric_group_s3,
)
from ualgebra.congruences import (
    _congruence_closure,
    _principal_components,
    all_congruences,
    congruence_generated,
    is_congruence,
    kernel,
    principal_congruence,
)
from ualgebra.errors import NotACongruence, SizeLimitExceeded, SizeMismatch
from ualgebra.heaps import heap_from_group
from ualgebra.inner import idempotent_endomorphisms, verify_inner_sdp
from ualgebra.partitions import Partition
from ualgebra.terms import Signature

import pytest

from oracles import (
    brute_force_congruences,
    brute_force_is_congruence,
    fixpoint_congruence_generated,
    principal_join_bfs,
    set_partitions,
)


ORACLE_CORPUS = [heap_from_group(G) for G in groups_up_to_8() if G.size <= 6] + [
    left_zero_semigroup(5),
    chain_lattice(6),
    mult_semigroup(6),
]


@st.composite
def random_tables(draw):
    """A random algebra of order <= 5 with one binary or one ternary
    operation; small value ranges make nontrivial congruences likely."""
    n = draw(st.integers(1, 5))
    arity = draw(st.sampled_from([2, 3]))
    top = draw(st.integers(0, n - 1))
    table = draw(st.lists(st.integers(0, top), min_size=n**arity, max_size=n**arity))
    symbol = ("m", 2) if arity == 2 else ("t", 3)
    return FiniteAlgebra("random", Signature((symbol,)), n, (tuple(table),))


def test_trivial_partitions_are_congruences():
    for A in [cyclic_group(4), chain_lattice(3), mult_semigroup(4)]:
        assert is_congruence(A, Partition.identity(A.size))
        assert is_congruence(A, Partition.total(A.size))


def test_non_congruence_detected_on_z4():
    z4 = cyclic_group(4)
    assert not is_congruence(z4, Partition.from_blocks(4, [[0, 1], [2, 3]]))
    assert is_congruence(z4, Partition.from_blocks(4, [[0, 2], [1, 3]]))


def test_congruence_generated_on_z4():
    z4 = cyclic_group(4)
    assert congruence_generated(z4, [(0, 2)]) == Partition.from_blocks(4, [[0, 2], [1, 3]])
    assert congruence_generated(z4, []) == Partition.identity(4)
    assert congruence_generated(z4, [(3, 3)]) == Partition.identity(4)


def test_congruence_generated_refuses_a_pair_outside_the_carrier():
    # (0, -1) used to give the total congruence and (0, 9) an IndexError
    z4 = cyclic_group(4)
    for a, b in [(0, -1), (0, 9), (0, 1.0), (4, 0)]:
        with pytest.raises(SizeMismatch, match="must be integers in range"):
            principal_congruence(z4, a, b)
    pairs = ((a, a + 2) for a in range(2))
    assert congruence_generated(z4, pairs) == Partition.from_blocks(4, [[0, 2], [1, 3]])


def test_all_congruences_counts():
    assert len(all_congruences(cyclic_group(4))) == 3
    assert len(all_congruences(symmetric_group_s3())) == 3
    assert len(all_congruences(chain_lattice(2))) == 2


def test_all_congruences_matches_partition_scan():
    # independent oracle: the exhaustive pairwise check over every partition
    for A in [cyclic_group(4), chain_lattice(3), mult_semigroup(4), cyclic_heap(4)] + ORACLE_CORPUS:
        found = all_congruences(A)
        assert [p.rep for p in found] == brute_force_congruences(A), A.name
        assert_rebuilds(*found, *map(kernel, idempotent_endomorphisms(A)))


def assert_rebuilds(*partitions):
    # a trusted builder's output passes the constructor's canonical check
    for p in partitions:
        assert Partition(p.rep) == p


# above the Bell-number scan's reach: up to 12 elements and up to 4,140
# congruences, against the breadth-first search over the principal joins
BFS_CORPUS = (
    [chain_lattice(k) for k in range(9, 13)]
    + [mult_semigroup(k) for k in range(9, 13)]
    + [cyclic_group(12), product(chain_lattice(3), chain_lattice(4)), left_zero_semigroup(8)]
    + [heap_from_group(G) for G in groups_up_to_8() if G.size == 8]
)


@pytest.mark.parametrize("A", BFS_CORPUS, ids=lambda A: A.name)
def test_all_congruences_matches_the_principal_join_bfs(A):
    assert [p.rep for p in all_congruences(A)] == principal_join_bfs(A)


@st.composite
def random_tables_6_to_8(draw):
    """A random algebra of order 6-8 with one binary operation and maybe
    one unary one, values drawn from a prefix of at least two elements (a
    constant table makes all Bell(n) partitions congruences, which
    `left_zero_semigroup(8)` already covers)."""
    n = draw(st.integers(6, 8))
    top = draw(st.integers(1, n - 1))
    arities = [2] + draw(st.lists(st.just(1), max_size=1))
    symbols = tuple((f"f{i}", arity) for i, arity in enumerate(arities))
    tables = tuple(
        tuple(draw(st.lists(st.integers(0, top), min_size=n**arity, max_size=n**arity)))
        for arity in arities
    )
    return FiniteAlgebra("random", Signature(symbols), n, tables)


@settings(max_examples=25, deadline=None)
@given(A=random_tables_6_to_8())
def test_all_congruences_matches_the_principal_join_bfs_on_random_tables(A):
    assert [p.rep for p in all_congruences(A)] == principal_join_bfs(A)


def test_is_congruence_matches_pairwise_oracle():
    for A in ORACLE_CORPUS:
        for rep in set_partitions(A.size):
            assert is_congruence(A, Partition(rep)) == brute_force_is_congruence(A, rep), (A.name, rep)


def test_congruence_generated_matches_fixpoint_oracle():
    for A in ORACLE_CORPUS:
        for a in range(A.size):
            for b in range(a + 1, A.size):
                got = congruence_generated(A, [(a, b)])
                assert got.rep == fixpoint_congruence_generated(A, [(a, b)]), (A.name, a, b)
                assert_rebuilds(got)


def component_principals(A):
    """{(a, b): the principal congruence of its component}, after checking
    that the components hold every pair a < b exactly once."""
    got = [(pair, p) for pairs, p in _principal_components(A) for pair in pairs]
    n = A.size
    assert sorted(pair for pair, _ in got) == [(a, b) for a in range(n) for b in range(a + 1, n)]
    return dict(got)


@pytest.mark.parametrize(
    "A",
    ORACLE_CORPUS + [cyclic_heap(k) for k in range(7, 10)] + [mult_semigroup(k) for k in range(9, 13)],
    ids=lambda A: A.name,
)
def test_component_principal_congruences_match_the_fixpoint_oracle(A):
    for (a, b), p in component_principals(A).items():
        assert p.rep == fixpoint_congruence_generated(A, [(a, b)]), (a, b)


@settings(max_examples=60, deadline=None)
@given(A=random_tables())
def test_component_principal_congruences_match_the_fixpoint_oracle_on_random_tables(A):
    for (a, b), p in component_principals(A).items():
        assert p.rep == fixpoint_congruence_generated(A, [(a, b)]), (a, b)


WORKLIST_CORPUS = (
    [chain_lattice(k) for k in range(2, 13)]
    + [left_zero_semigroup(k) for k in range(2, 9)]
    + groups_up_to_8()
    + [heap_from_group(G) for G in groups_up_to_8()]
    + [cyclic_heap(k) for k in range(7, 13)]
)


@pytest.mark.parametrize("A", WORKLIST_CORPUS, ids=lambda A: A.name)
def test_component_principal_congruences_match_the_worklist(A):
    for (a, b), p in component_principals(A).items():
        assert p == principal_congruence(A, a, b), (a, b)


@pytest.mark.parametrize("A", [cyclic_heap(7), chain_lattice(9), mult_semigroup(8)], ids=lambda A: A.name)
def test_a_congruence_lattice_build_generates_no_congruence(A, monkeypatch):
    # every principal congruence comes from the components, none from the worklist
    calls = []
    real = congruences.congruence_generated

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(congruences, "congruence_generated", counted)
    _congruence_closure.cache_clear()
    assert [p.rep for p in all_congruences(A)] == principal_join_bfs(A)
    assert calls == []


@pytest.mark.parametrize("n", [13, 200])
def test_the_carrier_cap_is_checked_before_any_section(n, monkeypatch):
    calls = []
    monkeypatch.setattr(congruences, "_section", lambda *args: calls.append(args))
    A = FiniteAlgebra("big", Signature((("m", 2),)), n, (tuple((a + b) % n for a in range(n) for b in range(n)),))
    _congruence_closure.cache_clear()
    with pytest.raises(SizeLimitExceeded, match="^congruence enumeration capped at 12$"):
        all_congruences(A)
    assert calls == []


@settings(max_examples=60, deadline=None)
@given(A=random_tables(), data=st.data())
def test_congruence_kernel_matches_oracles_on_random_tables(A, data):
    found = all_congruences(A)
    assert [p.rep for p in found] == brute_force_congruences(A)
    for rep in set_partitions(A.size):
        assert is_congruence(A, Partition(rep)) == brute_force_is_congruence(A, rep)
    element = st.integers(0, A.size - 1)
    pairs = data.draw(st.lists(st.tuples(element, element), max_size=3))
    generated = congruence_generated(A, pairs)
    assert generated.rep == fixpoint_congruence_generated(A, pairs)
    assert_rebuilds(generated, *found, *map(kernel, idempotent_endomorphisms(A)))


def test_all_congruences_closed_under_join_and_meet():
    for A in [cyclic_group(6), symmetric_group_s3(), chain_lattice(4), klein_group()]:
        found = set(all_congruences(A))
        for a in found:
            for b in found:
                assert a.join(b) in found
                assert a.meet(b) in found


def test_congruence_iff_quotient_succeeds():
    for A in [cyclic_group(4), mult_semigroup(4), chain_lattice(3)]:
        for p in map(Partition, set_partitions(A.size)):
            if is_congruence(A, p):
                quotient(A, p)
            else:
                with pytest.raises(NotACongruence):
                    quotient(A, p)


def test_the_carrier_cap_and_the_congruence_limit():
    assert len(all_congruences(cyclic_group(12))) == 6
    with pytest.raises(SizeLimitExceeded, match="^congruence enumeration capped at 12$"):
        all_congruences(cyclic_group(13))
    # every partition of a left-zero semigroup is a congruence: Bell(8) = 4140
    # is the largest lattice the closure holds, and Bell(9) = 21147 stops it
    assert len(all_congruences(left_zero_semigroup(8))) == 4140
    message = "^congruence enumeration capped at 4140 congruences$"
    with pytest.raises(SizeLimitExceeded, match=message):
        all_congruences(left_zero_semigroup(9))


def test_kernels():
    z4 = cyclic_group(4)
    ident = Homomorphism(z4, z4, (0, 1, 2, 3))
    assert kernel(ident) == Partition.identity(4)
    const = Homomorphism(z4, z4, (0, 0, 0, 0))
    assert kernel(const) == Partition.total(4)
    s3 = symmetric_group_s3()
    # retraction onto {identity, transposition} along the sign of the permutation
    sign = Homomorphism(s3, s3, (0, 1, 1, 0, 0, 1))
    blocks = sorted(kernel(sign).blocks())
    assert blocks == [(0, 3, 4), (1, 2, 5)]
    assert is_congruence(s3, kernel(sign))


@settings(max_examples=40, deadline=None)
@given(pairs=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=4))
def test_congruence_generated_is_a_closure_operator(pairs):
    A = cyclic_group(6)
    c = congruence_generated(A, pairs)
    assert is_congruence(A, c)
    # extensive
    assert all(c.same(a, b) for a, b in pairs)
    # idempotent: regenerating from the relation pairs changes nothing
    regen = congruence_generated(
        A, [(i, c.rep[i]) for i in range(6)]
    )
    assert regen == c
    # monotone: adding a pair only coarsens
    coarser = congruence_generated(A, list(pairs) + [(0, 3)])
    assert c.refines(coarser)


def test_congruence_cache_is_bounded_and_serves_the_idempotent_search():
    assert _congruence_closure.cache_info().maxsize == IDEMPOTENT_CACHE_SIZE
    A = mult_semigroup(6)
    _congruence_closure.cache_clear()
    idempotent_endomorphisms.cache_clear()
    all_congruences(A)
    idempotent_endomorphisms(A)
    info = _congruence_closure.cache_info()
    # the job's own call builds Con(A), the search's call reuses it
    assert (info.misses, info.hits) == (1, 1)


def test_a_size_limit_is_not_memoized():
    _congruence_closure.cache_clear()
    for A in [cyclic_group(13), left_zero_semigroup(9)] * 2:
        with pytest.raises(SizeLimitExceeded):
            all_congruences(A)
    info = _congruence_closure.cache_info()
    assert (info.misses, info.hits, info.currsize) == (4, 0, 0)


def test_a_caller_cannot_change_the_cached_congruences():
    A = chain_lattice(4)
    want = [p.rep for p in all_congruences(A)]
    assert want == brute_force_congruences(A)
    appended = all_congruences(A)
    appended.append(Partition.identity(4))
    assert [p.rep for p in all_congruences(A)] == want
    cleared = all_congruences(A)
    cleared.clear()
    assert [p.rep for p in all_congruences(A)] == want


def test_a_refused_quotient_is_refused_on_every_call():
    z4 = cyclic_group(4)
    bad = Partition.from_blocks(4, [[0, 1], [2, 3]])
    quotient.cache_clear()
    for _ in range(2):
        with pytest.raises(NotACongruence):
            quotient(z4, bad)
    assert quotient.cache_info().currsize == 0


@pytest.mark.parametrize(
    "rep",
    [(0, 0, 1.5, 3), (0, 0, True, 3), (0, 0, -1, 3), (0, 0, 99, 3), (1, 0, 2, 3), (0, 1, 2, -1), (0, 1, 1, 2)],
    ids=str,
)
def test_quotient_refuses_a_partition_that_is_not_canonical(rep):
    # rep[a] must be an int, the least element of a's block, and its own
    # representative: a non-int or an element out of place is refused on
    # every call, before any block is read
    z4 = cyclic_group(4)
    quotient.cache_clear()
    for _ in range(2):
        with pytest.raises(SizeMismatch, match="partition is not canonical"):
            quotient(z4, Partition(rep))
    assert quotient.cache_info().currsize == 0
    q, proj = quotient(z4, Partition((0, 1, 0, 1)))
    assert q.size == 2 and proj.map == (0, 1, 0, 1)


@pytest.mark.parametrize(
    "rep", [(0, None, 2, 3), (0, 0.0, 2, 3), (1, 0, 2, 3), (0, 0, 2, -1), (0, 1, 2, 99)], ids=str
)
def test_is_congruence_refuses_a_partition_that_is_not_canonical(rep):
    # the test `quotient` applies: a None or a float once ended in a bare
    # TypeError, and an element out of place or outside the carrier in a
    # computed False; `verify_inner_sdp` reaches it through `is_congruence`
    z4 = cyclic_group(4)
    with pytest.raises(SizeMismatch, match="partition is not canonical"):
        is_congruence(z4, Partition(rep))
    with pytest.raises(SizeMismatch, match="partition is not canonical"):
        verify_inner_sdp(z4, {0}, Partition(rep))


@pytest.mark.parametrize("n", [0, 3, 5])
def test_a_partition_over_another_carrier_is_refused(n):
    # every Partition is canonical, so its size is all these entry points test
    z4 = cyclic_group(4)
    message = "^partition size differs from carrier size$"
    with pytest.raises(SizeMismatch, match=message):
        is_congruence(z4, Partition.identity(n))
    with pytest.raises(SizeMismatch, match=message):
        quotient(z4, Partition.total(n))
    with pytest.raises(SizeMismatch, match="^partitions over different carriers$"):
        Partition.identity(4).join(Partition.total(n))
