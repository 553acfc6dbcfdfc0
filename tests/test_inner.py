import pytest
from hypothesis import given, settings, strategies as st

from ualgebra.algebras import (
    FiniteAlgebra,
    Homomorphism,
    all_subalgebras,
    is_subalgebra,
    product,
    quotient,
)
from ualgebra.catalog import (
    chain_lattice,
    cyclic_group,
    cyclic_heap,
    groups_up_to_8,
    klein_group,
    left_zero_semigroup,
    mult_semigroup,
    standard_corpus,
    swap_semigroup,
    symmetric_group_s3,
)
from ualgebra.congruences import all_congruences, kernel
from ualgebra.errors import NotIdempotent, SizeLimitExceeded
from ualgebra.heaps import heap_from_group, heap_inner_report
from ualgebra.inner import (
    IDEMPOTENT_CACHE_SIZE,
    _image_masks,
    constant_endomorphisms,
    count_transversal_pairs,
    decomposition_from_idempotent,
    endo_witness,
    idempotent_endomorphisms,
    idempotent_poset,
    totally_idempotent_elements,
    verify_inner_sdp,
)
from ualgebra.partitions import Partition
from ualgebra.terms import Signature

from oracles import brute_force_idempotent_endos, transversal_pairs_by_blocks


def test_counts_on_small_groups():
    assert len(idempotent_endomorphisms(cyclic_group(4))) == 2
    assert len(idempotent_endomorphisms(cyclic_group(6))) == 4
    assert len(idempotent_endomorphisms(symmetric_group_s3())) == 5
    assert len(idempotent_endomorphisms(klein_group())) == 8


def test_z6_idempotents_are_the_idempotent_multipliers():
    maps = {e.map for e in idempotent_endomorphisms(cyclic_group(6))}
    expected = {tuple(k * x % 6 for x in range(6)) for k in (0, 1, 3, 4)}
    assert maps == expected


def test_matches_brute_force_oracle_on_mixed_corpus():
    for A, _ in standard_corpus():
        if A.size > 5:
            continue
        ours = {e.map for e in idempotent_endomorphisms(A)}
        assert ours == brute_force_idempotent_endos(A)


def test_enumeration_reaches_the_carrier_cap():
    endos = idempotent_endomorphisms(cyclic_group(9))
    assert [e.map for e in endos] == [(0,) * 9, tuple(range(9))]
    assert len(idempotent_endomorphisms(cyclic_group(12))) == 4
    # the carrier cap is the congruence enumeration's
    with pytest.raises(SizeLimitExceeded, match="^congruence enumeration capped at 12$"):
        idempotent_endomorphisms(cyclic_group(13))


def test_decomposition_from_identity_and_constant():
    z4 = cyclic_group(4)
    ident = decomposition_from_idempotent(z4, Homomorphism(z4, z4, (0, 1, 2, 3)))
    assert ident.B == frozenset(range(4))
    assert ident.omega == Partition.identity(4)
    zero = decomposition_from_idempotent(z4, Homomorphism(z4, z4, (0, 0, 0, 0)))
    assert zero.B == frozenset({0})
    assert zero.omega == Partition.total(4)


def test_decomposition_of_s3_sign_retraction():
    s3 = symmetric_group_s3()
    e = Homomorphism(s3, s3, (0, 1, 1, 0, 0, 1))
    dec = decomposition_from_idempotent(s3, e)
    assert dec.B == frozenset({0, 1})
    assert dec.omega.blocks() == [(0, 3, 4), (1, 2, 5)]
    assert dec.pointed_partition == (((0, 3, 4), 0), ((1, 2, 5), 1))


def test_decomposition_rejects_non_idempotent():
    z4 = cyclic_group(4)
    with pytest.raises(NotIdempotent):
        decomposition_from_idempotent(z4, Homomorphism(z4, z4, (0, 3, 2, 1)))


def test_verify_inner_sdp_s3():
    s3 = symmetric_group_s3()
    omega = Partition.from_blocks(6, [[0, 3, 4], [1, 2, 5]])
    report = verify_inner_sdp(s3, {0, 1}, omega)
    assert (report.a, report.b, report.c, report.d) == (True, True, True, True)
    assert report.decomposition is not None


def test_verify_inner_sdp_failure_case():
    z4 = cyclic_group(4)
    omega = Partition.from_blocks(4, [[0, 2], [1, 3]])
    report = verify_inner_sdp(z4, {0, 2}, omega)
    assert (report.a, report.b, report.c, report.d) == (False, False, False, False)
    trivial = verify_inner_sdp(z4, set(range(4)), Partition.identity(4))
    assert trivial.holds


def test_verify_inner_sdp_reports_bad_inputs_as_flags():
    z4 = cyclic_group(4)
    report = verify_inner_sdp(z4, {1, 2}, Partition.identity(4))
    assert not report.b_is_subalgebra
    assert not report.holds
    report = verify_inner_sdp(z4, {0, 2}, Partition.from_blocks(4, [[0, 1], [2, 3]]))
    assert not report.omega_is_congruence
    assert not report.holds


def test_totally_idempotent_elements():
    assert totally_idempotent_elements(cyclic_group(4)) == {0}
    assert totally_idempotent_elements(symmetric_group_s3()) == {0}
    lat = chain_lattice(3)
    assert totally_idempotent_elements(lat) == frozenset(range(3))
    assert totally_idempotent_elements(mult_semigroup(2)) == {0, 1}


def test_constant_endomorphisms():
    assert len(constant_endomorphisms(cyclic_group(5))) == 1
    assert len(constant_endomorphisms(chain_lattice(2))) == 2
    assert len(constant_endomorphisms(swap_semigroup())) == 0
    assert len(constant_endomorphisms(left_zero_semigroup(3))) == 3


def test_idempotent_poset_z4_chain():
    report = idempotent_poset(cyclic_group(4))
    maps = [e.map for e in report.endos]
    assert maps == [(0, 0, 0, 0), (0, 1, 2, 3)]
    assert report.leq[0][1] and not report.leq[1][0]


def test_idempotent_poset_z6_diamond():
    report = idempotent_poset(cyclic_group(6))
    maps = [e.map for e in report.endos]
    zero = maps.index((0,) * 6)
    ident = maps.index(tuple(range(6)))
    e3 = maps.index(tuple(3 * x % 6 for x in range(6)))
    e4 = maps.index(tuple(4 * x % 6 for x in range(6)))
    assert report.leq[zero][e3] and report.leq[zero][e4]
    assert report.leq[e3][ident] and report.leq[e4][ident]
    assert not report.leq[e3][e4] and not report.leq[e4][e3]


def test_idempotent_poset_s3():
    report = idempotent_poset(symmetric_group_s3())
    trivial = report.endos[0]
    assert trivial.map == (0,) * 6
    for j in range(5):
        assert report.leq[0][j]
    identity_index = [e.map for e in report.endos].index((0, 1, 2, 3, 4, 5))
    assert all(report.leq[i][identity_index] for i in range(5))
    # the three retractions are pairwise incomparable
    middles = [i for i, e in enumerate(report.endos) if 1 < len(e.image()) < 6]
    for i in middles:
        for j in middles:
            if i != j:
                assert not report.leq[i][j]


def test_idempotent_poset_runs_across_varieties():
    # the internal greatest/minimal/per-class assertions fire on every call;
    # exercising them on non-group corpora is the point here
    for A, _ in standard_corpus():
        if A.size <= 5:
            idempotent_poset(A)
    idempotent_poset(left_zero_semigroup(3))


def test_poset_class_reports_on_s3_sign_decomposition():
    s3 = symmetric_group_s3()
    report = idempotent_poset(s3)
    sign_index = [e.map for e in report.endos].index((0, 1, 1, 0, 0, 1))
    rows = [r for r in report.class_reports if r.endo_index == sign_index]
    by_block = {r.block: r for r in rows}
    assert by_block[(0, 3, 4)].is_subalgebra  # the even permutations
    assert not by_block[(1, 2, 5)].is_subalgebra
    assert by_block[(0, 3, 4)].dominated_constant_exists


def test_restriction_bijection_totally_idempotent_vs_subalgebra_classes():
    # within any decomposition, totally idempotent B-elements match the
    # omega-classes that are subalgebras
    for A, _ in standard_corpus():
        if A.size > 6:
            continue
        totally = totally_idempotent_elements(A)
        for e in idempotent_endomorphisms(A):
            dec = decomposition_from_idempotent(A, e)
            ti_in_b = {b for b in dec.B if b in totally}
            sub_blocks = {
                block for block, _ in dec.pointed_partition if is_subalgebra(A, block)
            }
            assert len(ti_in_b) == len(sub_blocks)
            assert {bp for bl, bp in dec.pointed_partition if bl in sub_blocks} == ti_in_b


def test_pointed_partition_grading():
    # operations map products of blocks into the block of the basepoint image
    for A in [cyclic_group(6), symmetric_group_s3(), chain_lattice(3), cyclic_heap(4)]:
        for e in idempotent_endomorphisms(A):
            dec = decomposition_from_idempotent(A, e)
            block_of = {bp: bl for bl, bp in dec.pointed_partition}
            import itertools

            for p, (sym, arity) in enumerate(A.signature.symbols):
                for bases in itertools.product(sorted(dec.B), repeat=arity):
                    target = A.apply(sym, bases)
                    target_base = dec.e(target)
                    for args in itertools.product(*[block_of[b] for b in bases]):
                        assert A.apply(sym, args) in block_of[target_base]


def test_corollary_bijection_against_exhaustive_pair_count():
    for A, _ in standard_corpus():
        if A.size > 6:
            continue
        subs = all_subalgebras(A)
        congs = all_congruences(A)
        assert len(idempotent_endomorphisms(A)) == count_transversal_pairs(A, subs, congs)


def test_theorem_agreement_across_exhaustive_sweep():
    for A in [cyclic_group(4), cyclic_group(6), chain_lattice(3), mult_semigroup(4)]:
        for B in all_subalgebras(A):
            for omega in all_congruences(A):
                report = verify_inner_sdp(A, B, omega)
                assert report.a == report.b == report.c == report.d


def test_idempotent_cache_is_bounded_and_serves_a_whole_heap_census():
    assert idempotent_endomorphisms.cache_info().maxsize == IDEMPOTENT_CACHE_SIZE
    X = heap_from_group(klein_group())
    pairs = [(Y, omega) for Y in all_subalgebras(X) for omega in all_congruences(X)]
    idempotent_endomorphisms.cache_clear()
    _image_masks.cache_clear()
    holds = sum(heap_inner_report(X, Y, omega).holds for Y, omega in pairs)
    info = idempotent_endomorphisms.cache_info()
    index = _image_masks.cache_info()
    # one enumeration for the whole census, read once into the (image,
    # kernel) index of condition (b), and every later pair a hit there
    assert (info.misses, info.hits) == (1, 0)
    assert (index.misses, index.hits) == (1, len(pairs) - 1)
    assert holds == len(idempotent_endomorphisms(X))


@pytest.mark.parametrize(
    "A",
    [cyclic_group(6), chain_lattice(4), mult_semigroup(5), left_zero_semigroup(3)]
    + [heap_from_group(G) for G in groups_up_to_8() if G.size in (4, 6)],
    ids=lambda A: A.name,
)
def test_endo_witness_agrees_with_the_scan_of_the_idempotent_list(A):
    # condition (b) read from the (image, kernel) index is the list scan it
    # replaced, on every pair of a subalgebra and a congruence
    endos = idempotent_endomorphisms(A)
    hits = 0
    for B in all_subalgebras(A):
        for omega in all_congruences(A):
            scan = any(e.image() == B and kernel(e) == omega for e in endos)
            assert endo_witness(A, B, omega) == scan
            assert endo_witness(A, set(B), omega) == scan
            hits += scan
    assert hits == len(endos)
    # the identity has image A and the identity kernel; no image holds an
    # element outside the carrier
    identity = Partition.identity(A.size)
    assert endo_witness(A, range(A.size), identity)
    for extra in (A.size, -1, 0.5, "0"):
        assert not endo_witness(A, [*range(A.size), extra], identity)


def test_the_endo_index_is_built_only_by_a_condition_b_query():
    assert _image_masks.cache_info().maxsize == IDEMPOTENT_CACHE_SIZE
    A = chain_lattice(5)
    _image_masks.cache_clear()
    idempotent_endomorphisms(A)
    all_congruences(A)
    assert _image_masks.cache_info().currsize == 0
    assert endo_witness(A, frozenset(range(5)), Partition.identity(5))
    assert _image_masks.cache_info().currsize == 1


def test_quotient_memo_builds_each_congruence_once_in_a_heap_census():
    X = heap_from_group(klein_group())
    subs, congs = all_subalgebras(X), all_congruences(X)
    quotient.cache_clear()
    for Y in subs:
        for omega in congs:
            heap_inner_report(X, Y, omega)
    info = quotient.cache_info()
    # (d) quotients once per omega, every later subheap paired with it hits
    assert (info.misses, info.hits) == (len(congs), len(congs) * (len(subs) - 1))


c, m, lz = chain_lattice, mult_semigroup, left_zero_semigroup
TRANSVERSAL_CORPUS = (
    [lz(n) for n in range(2, 7)]
    + [c(n) for n in range(2, 9)]
    + [m(n) for n in range(2, 9)]
    + [
        product(c(2), c(3)),
        product(c(2), c(4)),
        product(m(2), m(3)),
        product(m(2), m(4)),
        product(lz(2), m(3)),
        product(m(3), lz(2)),
    ]
    + groups_up_to_8()
    + [heap_from_group(G) for G in groups_up_to_8()]
)


@pytest.mark.parametrize("A", TRANSVERSAL_CORPUS, ids=lambda A: A.name)
def test_transversal_count_matches_the_block_scan(A):
    subs, congs = all_subalgebras(A), all_congruences(A)
    count = count_transversal_pairs(A, subs, congs)
    assert count == transversal_pairs_by_blocks(subs, congs)
    assert count == len(idempotent_endomorphisms(A))


@st.composite
def random_tables_4_to_7(draw):
    """A random algebra of order 4-7 with one binary operation, values drawn
    from a prefix of the carrier so that congruences and subalgebras vary."""
    n = draw(st.integers(4, 7))
    top = draw(st.integers(1, n - 1))
    table = draw(st.lists(st.integers(0, top), min_size=n * n, max_size=n * n))
    return FiniteAlgebra("random", Signature((("m", 2),)), n, (tuple(table),))


@settings(max_examples=60, deadline=None)
@given(A=random_tables_4_to_7())
def test_transversal_count_matches_the_block_scan_on_random_tables(A):
    subs, congs = all_subalgebras(A), all_congruences(A)
    assert count_transversal_pairs(A, subs, congs) == transversal_pairs_by_blocks(subs, congs)


def test_transversal_count_takes_subalgebras_in_any_container():
    A = heap_from_group(klein_group())
    subs, congs = all_subalgebras(A), all_congruences(A)
    want = transversal_pairs_by_blocks(subs, congs)
    assert count_transversal_pairs(A, [sorted(B) for B in subs], congs) == want
    assert count_transversal_pairs(A, [set(B) for B in subs], congs) == want
    # a repeated element names the same subalgebra, not a larger one
    repeated = [sorted(B) + [min(B)] for B in subs]
    assert count_transversal_pairs(A, repeated, congs) == want
    assert transversal_pairs_by_blocks(repeated, congs) == want
