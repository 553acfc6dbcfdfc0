import pytest

from ualgebra import heaps
from ualgebra.algebras import find_isomorphism
from ualgebra.catalog import (
    cyclic_group,
    cyclic_heap,
    cyclic_ring,
    groups_up_to_8,
    klein_group,
    symmetric_group_s3,
)
from ualgebra.congruences import all_congruences
from ualgebra.errors import (
    AxiomFailure,
    DecompositionInvalid,
    HypothesisViolation,
    InternalInconsistency,
    NotASubheap,
)
from ualgebra.heaps import (
    HeapAction,
    group_from_heap,
    heap_congruence_correspondence,
    heap_direct_criterion,
    heap_from_group,
    heap_inner_report,
    heap_op,
    heap_outer,
    is_heap,
    is_near_truss,
    is_normal_subheap,
    is_subheap,
    near_truss_report,
    normal_subheap_report,
    opposite_multiplication,
    subheap_preorder_leq,
    subheap_relation,
    truss_from_ring,
)
from ualgebra.partitions import Partition
from ualgebra.varieties import HEAP_SIG, TRUSS_SIG
from ualgebra.algebras import FiniteAlgebra

# (X, Y, omega) on two-element t/3 tables that are not heaps: on `split` the
# five decomposition conditions disagree, on `agree` they all hold but the
# basepoint action is not a permutation of the block, on `holds` they hold
# and so does the action, and on `fails` they are all false
NON_HEAPS = [
    (
        FiniteAlgebra("split", HEAP_SIG, 2, ((0, 0, 1, 0, 1, 1, 0, 0),)),
        {0},
        Partition.from_blocks(2, [[0, 1]]),
    ),
    (
        FiniteAlgebra("agree", HEAP_SIG, 2, ((0, 1, 1, 1, 1, 1, 1, 0),)),
        {0, 1},
        Partition.identity(2),
    ),
    (
        FiniteAlgebra("holds", HEAP_SIG, 2, ((0, 1, 0, 1, 1, 1, 1, 0),)),
        {0},
        Partition.from_blocks(2, [[0, 1]]),
    ),
    (
        FiniteAlgebra("fails", HEAP_SIG, 2, ((0,) * 8,)),
        {0, 1},
        Partition.from_blocks(2, [[0, 1]]),
    ),
]


def s3_heap():
    return heap_from_group(symmetric_group_s3())


def test_heap_from_z2_is_triple_sum():
    X = heap_from_group(cyclic_group(2))
    for x in range(2):
        for y in range(2):
            for z in range(2):
                assert heap_op(X, x, y, z) == (x + y + z) % 2


def test_group_heap_roundtrip_at_identity():
    for G in groups_up_to_8():
        X = heap_from_group(G)
        assert is_heap(X)
        back = group_from_heap(X, G.table("e")[0])
        assert back.tables == G.tables


def test_group_from_heap_at_shifted_basepoint():
    X = cyclic_heap(4)
    G = group_from_heap(X, 2)
    assert G.table("e")[0] == 2
    assert find_isomorphism(G, cyclic_group(4)) is not None


def test_group_from_heap_rejects_non_heap():
    n = 3
    bad = FiniteAlgebra(
        "bad", cyclic_heap(3).signature, n, (tuple((x + y + z) % n for x in range(n) for y in range(n) for z in range(n)),)
    )
    # x + y + z on Z3 is Mal'tsev-broken: t(x,x,y) = 2x + y != y
    assert not is_heap(bad)
    with pytest.raises(AxiomFailure):
        group_from_heap(bad, 0)


def test_normal_subheaps_of_z4_heap():
    X = cyclic_heap(4)
    report = normal_subheap_report(X, {0, 2})
    assert report.normal
    assert report.relation == Partition.from_blocks(4, [[0, 2], [1, 3]])
    singleton = normal_subheap_report(X, {1})
    assert singleton.normal
    assert singleton.relation == Partition.identity(4)
    full = normal_subheap_report(X, set(range(4)))
    assert full.normal
    assert full.relation == Partition.total(4)


def test_normal_subheap_report_rejects_bad_input():
    X = cyclic_heap(4)
    with pytest.raises(Exception):
        normal_subheap_report(X, set())
    with pytest.raises(NotASubheap):
        normal_subheap_report(X, {0, 1})


def test_subheaps_of_s3_heap():
    X = s3_heap()
    assert is_subheap(X, {0, 3, 4})
    assert is_normal_subheap(X, {0, 3, 4})
    assert is_subheap(X, {0, 1})
    # 2-element subheaps of the s3 heap are not normal
    assert not is_normal_subheap(X, {0, 1})


def test_correspondence_normal_subheaps_onto_congruences():
    for X in [cyclic_heap(2), cyclic_heap(3), cyclic_heap(4), cyclic_heap(5),
              heap_from_group(klein_group()), s3_heap()]:
        report = heap_congruence_correspondence(X)
        assert report.surjective
        assert report.order_isomorphic


def test_preorder_examples():
    X = cyclic_heap(4)
    assert subheap_preorder_leq(X, {1}, {0, 2})
    assert subheap_preorder_leq(X, {0, 2}, set(range(4)))
    assert not subheap_preorder_leq(X, {0, 2}, {1})
    # equivalent singletons induce the same congruence
    assert subheap_preorder_leq(X, {1}, {3}) and subheap_preorder_leq(X, {3}, {1})
    assert subheap_relation(X, {1}) == subheap_relation(X, {3})


def test_heap_inner_report_klein():
    X = heap_from_group(klein_group())
    omega = Partition.from_blocks(4, [[0, 1], [2, 3]])
    report = heap_inner_report(X, {0, 2}, omega)
    assert (report.a, report.b, report.c, report.d, report.e) == (True,) * 5
    assert report.block == (0, 1)
    # alpha lands in the automorphisms of the block and alpha_e = id
    assert report.action[0] == (0, 1)


def test_heap_inner_report_s3():
    X = s3_heap()
    omega = Partition.from_blocks(6, [[0, 3, 4], [1, 2, 5]])
    report = heap_inner_report(X, {0, 1}, omega)
    assert (report.a, report.b, report.c, report.d, report.e) == (True,) * 5


def test_heap_inner_report_trivial_and_failing():
    X = cyclic_heap(4)
    assert heap_inner_report(X, set(range(4)), Partition.identity(4)).holds
    report = heap_inner_report(X, {0, 2}, Partition.from_blocks(4, [[0, 2], [1, 3]]))
    assert report.a is False
    assert report.action is None


@pytest.mark.parametrize("X, Y, omega", NON_HEAPS, ids=lambda x: getattr(x, "name", ""))
def test_heap_inner_report_of_a_non_heap_is_an_axiom_failure(X, Y, omega):
    assert not is_heap(X)
    with pytest.raises(AxiomFailure, match=f"{X.name} fails the heap identities"):
        heap_inner_report(X, Y, omega)


def test_z4_heap_has_no_two_block_decomposition():
    # the heap endomorphisms of this heap are affine, so only constants and
    # the identity are idempotent; no subheap crosses both blocks
    X = cyclic_heap(4)
    omega = Partition.from_blocks(4, [[0, 2], [1, 3]])
    for mask in range(1, 2**4):
        Y = frozenset(i for i in range(4) if mask >> i & 1)
        if is_subheap(X, Y):
            assert not heap_inner_report(X, Y, omega).holds


def test_heap_outer_trivial_action_is_direct_product():
    K, Y = cyclic_heap(3), cyclic_heap(2)
    ident = (0, 1, 2)
    action = HeapAction(Y, K, (ident, ident), 0)
    result = heap_outer(action)
    from ualgebra.algebras import product

    assert result.algebra.tables == product(K, Y).tables


def test_heap_outer_with_inversion_action():
    K, Y = cyclic_heap(3), cyclic_heap(2)
    ident = (0, 1, 2)
    neg = (0, 2, 1)
    action = HeapAction(Y, K, (ident, neg), 0)
    result = heap_outer(action)
    assert result.algebra.size == 6
    assert is_heap(result.algebra)
    # the s3 heap appears: retract at the basepoint and compare
    G = group_from_heap(result.algebra, 0)
    assert find_isomorphism(G, symmetric_group_s3()) is not None


def test_heap_outer_with_translation_action_on_a_larger_base():
    # alpha_y = translation by y is a heap morphism into Aut and fixes y0 = 0
    K = cyclic_heap(3)
    Y = cyclic_heap(3)
    alpha = tuple(tuple((x + y) % 3 for x in range(3)) for y in range(3))
    result = heap_outer(HeapAction(Y, K, alpha, 0))
    assert result.algebra.size == 9
    assert is_heap(result.algebra)
    G = group_from_heap(result.algebra, 0)
    from ualgebra.varieties import REGISTRY, check_identities

    assert check_identities(G, REGISTRY["group"]).passes


def test_heap_outer_failing_the_heap_axioms_is_an_internal_inconsistency(monkeypatch):
    # Y and K pass, so only the built product fails: a theorem contradiction
    honest = heaps.is_heap
    monkeypatch.setattr(heaps, "is_heap", lambda X: X.name != "outer_heap" and honest(X))
    K, Y = cyclic_heap(3), cyclic_heap(2)
    ident = (0, 1, 2)
    with pytest.raises(InternalInconsistency, match="must be a heap"):
        heap_outer(HeapAction(Y, K, (ident, ident), 0))


def test_heap_outer_rejects_bad_distinguished_element():
    K, Y = cyclic_heap(3), cyclic_heap(2)
    ident = (0, 1, 2)
    neg = (0, 2, 1)
    with pytest.raises(HypothesisViolation):
        heap_outer(HeapAction(Y, K, (ident, neg), 1))  # alpha[1] != id
    for y0 in (-1, 2):  # outside Y
        with pytest.raises(HypothesisViolation):
            heap_outer(HeapAction(Y, K, (ident, ident), y0))
    with pytest.raises(HypothesisViolation):
        heap_outer(HeapAction(Y, K, (ident, (0, 1, 5)), 0))  # alpha[1] leaves K


def test_heap_direct_criterion_abelian_case():
    X = heap_from_group(klein_group())
    omega = Partition.from_blocks(4, [[0, 1], [2, 3]])
    report = heap_direct_criterion(X, omega, {0, 2}, 0)
    assert (report.a, report.b, report.c, report.d, report.e) == (True,) * 5


def test_heap_direct_criterion_s3_case_fails():
    X = s3_heap()
    omega = Partition.from_blocks(6, [[0, 3, 4], [1, 2, 5]])
    report = heap_direct_criterion(X, omega, {0, 1}, 0)
    assert (report.a, report.b, report.c, report.d, report.e) == (False,) * 5


def test_heap_direct_criterion_trivial_decomposition():
    X = cyclic_heap(4)
    report = heap_direct_criterion(X, Partition.identity(4), set(range(4)), 0)
    assert (report.a, report.b, report.c, report.d, report.e) == (True,) * 5


def test_heap_direct_criterion_requires_decomposition():
    X = cyclic_heap(4)
    with pytest.raises(DecompositionInvalid):
        heap_direct_criterion(X, Partition.total(4), {0, 2}, 0)


def test_prop_agreement_across_all_heap_decompositions():
    for X in [cyclic_heap(2), cyclic_heap(3), cyclic_heap(4),
              heap_from_group(klein_group()), cyclic_heap(5), s3_heap()]:
        subheaps = [
            frozenset(s)
            for mask in range(1, 2**X.size)
            for s in [frozenset(i for i in range(X.size) if mask >> i & 1)]
            if is_subheap(X, s)
        ]
        congs = all_congruences(X)
        for Y in subheaps:
            for omega in congs:
                report = heap_inner_report(X, Y, omega)
                flags = (report.a, report.b, report.c, report.d, report.e)
                assert len(set(flags)) == 1
                if report.holds:
                    for e in sorted(Y):
                        direct = heap_direct_criterion(X, omega, Y, e)
                        assert len(
                            {direct.a, direct.b, direct.c, direct.d, direct.e}
                        ) == 1


# -- near-trusses -------------------------------------------------------------


def test_ring_truss_is_two_sided():
    T = truss_from_ring(cyclic_ring(4))
    assert is_near_truss(T, "left")
    assert is_near_truss(T, "right")


def test_left_projection_multiplication_is_two_sided():
    # m(x, y) = x distributes over any heap on both sides
    n = 2
    X = cyclic_heap(n)
    m = tuple(a for a in range(n) for _ in range(n))
    T = FiniteAlgebra("proj", TRUSS_SIG, n, (X.tables[0], m))
    assert is_near_truss(T, "left")
    assert is_near_truss(T, "right")


def one_sided_truss():
    # found by exhaustive search: m(2, y) = y and m(x, y) = 0 otherwise
    m = (0, 0, 0, 0, 0, 0, 0, 1, 2)
    return FiniteAlgebra("onesided", TRUSS_SIG, 3, (cyclic_heap(3).tables[0], m))


def test_one_sided_near_truss_example():
    T = one_sided_truss()
    assert is_near_truss(T, "left")
    assert not is_near_truss(T, "right")


def test_left_right_duality_under_opposite_multiplication():
    for T in [truss_from_ring(cyclic_ring(3)), one_sided_truss()]:
        op = opposite_multiplication(T)
        assert is_near_truss(T, "left") == is_near_truss(op, "right")
        assert is_near_truss(T, "right") == is_near_truss(op, "left")


def test_near_truss_report_on_ring_truss():
    # F2 x F2 as a ring: Y = the first factor, omega = the first projection
    from ualgebra.algebras import product

    T = truss_from_ring(product(cyclic_ring(2), cyclic_ring(2)))
    omega = Partition.from_blocks(4, [[0, 1], [2, 3]])
    report = near_truss_report(T, {0, 2}, omega)
    assert (report.a, report.b, report.c, report.d) == (True,) * 4


def test_near_truss_report_trivial():
    T = truss_from_ring(cyclic_ring(4))
    report = near_truss_report(T, set(range(4)), Partition.identity(4))
    assert report.holds


def test_near_truss_report_failing():
    T = truss_from_ring(cyclic_ring(4))
    omega = Partition.from_blocks(4, [[0, 2], [1, 3]])
    report = near_truss_report(T, {0, 2}, omega)
    assert (report.a, report.b, report.c, report.d) == (False,) * 4


def test_near_truss_report_agreement_sweep():
    T = truss_from_ring(cyclic_ring(4))
    subs = [
        frozenset(s)
        for mask in range(1, 2**T.size)
        for s in [frozenset(i for i in range(T.size) if mask >> i & 1)]
        if all(
            heap_op(T, a, b, c) in s and T.table("m")[a * T.size + b] in s
            for a in s for b in s for c in s
        )
    ]
    for Y in subs:
        for omega in all_congruences(T):
            report = near_truss_report(T, Y, omega)
            assert len({report.a, report.b, report.c, report.d}) == 1
