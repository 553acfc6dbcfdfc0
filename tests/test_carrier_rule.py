"""The one element rule, `errors.in_carrier`, at every public boundary: a
value at an element position is an int in the carrier, a bool reads as its
int, and anything else ends in the entry point's own UAError. Also the
tuple form of `Partition.rep`, `FiniteAlgebra.tables` and
`Homomorphism.map`."""

from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from ualgebra.algebras import (
    FiniteAlgebra,
    Homomorphism,
    generated_subalgebra,
    is_homomorphism,
    is_subalgebra,
    quotient,
    subalgebra_as_algebra,
)
from ualgebra.catalog import SEMIGROUP_SIG, cyclic_group, cyclic_ring
from ualgebra.congruences import all_congruences, congruence_generated, principal_congruence
from ualgebra.digroups import DigroupActionTriple, digroup_outer, trivial_digroup
from ualgebra.envcat import TupleObject
from ualgebra.errors import (
    CompatibilityViolation,
    EmptySet,
    HypothesisViolation,
    NotAutomorphism,
    ShapeMismatch,
    SizeMismatch,
    TableRangeError,
    UAError,
    in_carrier,
)
from ualgebra.groups import RingActionPair, group_semidirect, ring_semidirect
from ualgebra.heaps import HeapAction, group_from_heap, heap_from_group, heap_outer
from ualgebra.inner import verify_inner_sdp
from ualgebra.outer import ActionFamily, PointedFamily, build_outer_product, sdp_morphism_check
from ualgebra.partitions import Partition
from ualgebra.terms import eval_term, parse_term
from ualgebra.varieties import GROUP_SIG, REGISTRY, check_identities

Z2, Z4 = cyclic_group(2), cyclic_group(4)
H2 = heap_from_group(Z2)
P4 = Partition((0, 1, 0, 1))


def test_in_carrier_takes_ints_and_bools_in_range():
    assert in_carrier((0, 1, True, False), 2) and in_carrier((), 0)
    for bad in (-1, 2, 2**70, 1.0, 0.5, None, "1"):
        assert not in_carrier((0, bad), 2)


# A list rep, table or map is kept as a tuple, so it equals and hashes like
# its tuple twin, and the memos keyed on it take it.
def test_a_list_rep_is_kept_as_a_tuple():
    p = Partition([0, 1, 0, 1])
    assert p == P4 and hash(p) == hash(P4) and type(p.rep) is tuple


def test_quotient_takes_a_partition_built_from_a_list():
    Q, proj = quotient(Z4, Partition([0, 1, 0, 1]))
    assert (Q.size, proj.map) == (2, (0, 1, 0, 1))


def test_a_list_table_is_kept_as_a_tuple():
    xor = FiniteAlgebra("x", SEMIGROUP_SIG, 2, ([0, 1, 1, 0],))
    assert [c.rep for c in all_congruences(xor)] == [(0, 1), (0, 0)]
    assert xor == FiniteAlgebra("x", SEMIGROUP_SIG, 2, ((0, 1, 1, 0),))


def test_a_list_map_is_kept_as_a_tuple():
    h = Homomorphism(Z2, Z2, [0, 1])
    assert hash(h) == hash(Homomorphism(Z2, Z2, (0, 1))) and h == Homomorphism(Z2, Z2, (0, 1))
    assert Homomorphism.among(Z2, Z2, [[0, 1]]) == [h] and type(h.map) is tuple


@cache
def z2_outer():
    """Z2 x Z2 as the outer product over Z2 with the constant fiber Z2."""
    return build_outer_product(
        PointedFamily.constant(Z2, 2, 0), z2_actions((0, 1, 1, 0)), REGISTRY["group"]
    )


def z2_actions(m00):
    """The direct-product actions of Z2 on the fiber Z2, with `m00` as the
    table of m at the base pair (0, 0)."""
    maps = {("m", (a, b)): (0, 1, 1, 0) for a in range(2) for b in range(2)}
    maps.update({("m", (0, 0)): m00, ("i", (0,)): (0, 1), ("i", (1,)): (0, 1), ("e", ()): (0,)})
    return ActionFamily.from_dict(maps)


def digroup_triple(phi_star_1, lambda_1):
    Y, K = trivial_digroup(Z2, "y2"), trivial_digroup(Z2, "k2")
    return DigroupActionTriple(Y, K, ((0, 1), phi_star_1), ((0, 1), (0, 1)), ((0, 1), lambda_1))


# Each probe was refused outside the UAError hierarchy, or not at all.
PROBES = {
    "algebra entry 1.0": (
        TableRangeError,
        lambda: check_identities(
            FiniteAlgebra("x", SEMIGROUP_SIG, 2, ((0, 1, 1.0, 0),)), REGISTRY["semigroup"]
        ),
    ),
    "algebra size 2.0": (
        SizeMismatch,
        lambda: FiniteAlgebra("x", SEMIGROUP_SIG, 2.0, ((0, 1, 1, 0),)),
    ),
    "fiber size 2.0": (ShapeMismatch, lambda: PointedFamily.constant(Z2, 2.0, 0)),
    "basepoint 0.0": (ShapeMismatch, lambda: PointedFamily.constant(Z2, 2, 0.0)),
    "action entry 1.0": (
        ShapeMismatch,
        lambda: build_outer_product(
            PointedFamily.constant(Z2, 2, 0), z2_actions((0, 1, 1.0, 0)), REGISTRY["group"]
        ),
    ),
    "decode 1.5": (ShapeMismatch, lambda: z2_outer().decode(1.5)),
    "sdp map entry 1.0": (
        ShapeMismatch,
        lambda: sdp_morphism_check(z2_outer(), z2_outer(), ((0, 1), (0, 1.0))),
    ),
    "Lambda entry 1.0": (
        HypothesisViolation,
        lambda: digroup_outer(digroup_triple((0, 1), (1.0, 0))),
    ),
    "phi_star entry 1.0": (
        HypothesisViolation,
        lambda: digroup_outer(digroup_triple((0, 1.0), (0, 1))),
    ),
    "lam entry 1.0": (
        CompatibilityViolation,
        lambda: ring_semidirect(
            RingActionPair(cyclic_ring(2), cyclic_ring(2), ((0, 0), (0, 1.0)), ((0, 0), (0, 1)))
        ),
    ),
    "heap y0 0.0": (
        HypothesisViolation,
        lambda: heap_outer(HeapAction(H2, H2, ((0, 1), (0, 1)), 0.0)),
    ),
    "heap alpha entry 1.0": (
        HypothesisViolation,
        lambda: heap_outer(HeapAction(H2, H2, ((0, 1), (0, 1.0)), 0)),
    ),
    "heap basepoint 1.0": (EmptySet, lambda: group_from_heap(H2, 1.0)),
    "phi entry 1.0": (NotAutomorphism, lambda: group_semidirect(Z2, Z2, ((0, 1), (0, 1.0)))),
}


@pytest.mark.parametrize("error, probe", PROBES.values(), ids=PROBES)
def test_each_probe_ends_in_the_entry_points_error(error, probe):
    with pytest.raises(UAError) as caught:
        probe()
    assert caught.type is error


def test_a_bool_size_reads_as_its_int():
    one = FiniteAlgebra("one", SEMIGROUP_SIG, True, ((0,),))
    assert one == FiniteAlgebra("one", SEMIGROUP_SIG, 1, ((0,),))
    assert PointedFamily.constant(Z2, True, False).fibers == ((1, 0), (1, 0))


@cache
def z17():
    # past `terms.BYTE_CARRIER`: maps are tested one by one, by index
    return cyclic_group(17)


# name -> (n, the error raised for a non-element v, a call with v at an
# element position of an n-element carrier or fiber); the calls are on Z2,
# Z4, their heaps and the outer product of Z2 on Z2, and the README's
# "Elements" paragraph lists each entry point
ENTRY_POINTS = {
    "FiniteAlgebra": (
        2,
        TableRangeError,
        lambda v: FiniteAlgebra("x", SEMIGROUP_SIG, 2, ((0, 1, v, 0),)),
    ),
    "PointedFamily": (2, ShapeMismatch, lambda v: PointedFamily.constant(Z2, 2, v).fibers),
    "build_outer_product": (
        2,
        ShapeMismatch,
        lambda v: build_outer_product(
            PointedFamily.constant(Z2, 2, 0), z2_actions((0, 1, v, 0)), REGISTRY["group"]
        ).algebra,
    ),
    "OuterProduct.decode": (4, ShapeMismatch, lambda v: z2_outer().decode(v)),
    "sdp_morphism_check": (
        2,
        ShapeMismatch,
        lambda v: sdp_morphism_check(z2_outer(), z2_outer(), ((0, 1), (0, v))),
    ),
    "digroup_outer Lambda": (
        2,
        HypothesisViolation,
        lambda v: digroup_outer(digroup_triple((0, 1), (v, 0))).algebra,
    ),
    "digroup_outer phi_star": (
        2,
        HypothesisViolation,
        lambda v: digroup_outer(digroup_triple((0, v), (0, 1))).algebra,
    ),
    "ring_semidirect": (
        2,
        CompatibilityViolation,
        lambda v: ring_semidirect(
            RingActionPair(cyclic_ring(2), cyclic_ring(2), ((0, 0), (0, v)), ((0, 0), (0, 1)))
        ),
    ),
    "heap_outer y0": (
        2,
        HypothesisViolation,
        lambda v: heap_outer(HeapAction(H2, H2, ((0, 1), (0, 1)), v)).algebra,
    ),
    "heap_outer alpha": (
        2,
        HypothesisViolation,
        lambda v: heap_outer(HeapAction(H2, H2, ((0, 1), (0, v)), 0)).algebra,
    ),
    "group_from_heap": (2, EmptySet, lambda v: group_from_heap(H2, v)),
    "group_semidirect": (2, NotAutomorphism, lambda v: group_semidirect(Z2, Z2, ((0, 1), (0, v)))),
    "eval_term": (
        4,
        SizeMismatch,
        lambda v: eval_term(parse_term("m(x0, x1)", GROUP_SIG), Z4, (1, v)),
    ),
    "congruence_generated": (4, SizeMismatch, lambda v: congruence_generated(Z4, [(0, v)])),
    "principal_congruence": (4, SizeMismatch, lambda v: principal_congruence(Z4, 0, v)),
    "Partition": (2, SizeMismatch, lambda v: Partition((0, v))),
    "Partition.from_pairs": (4, SizeMismatch, lambda v: Partition.from_pairs(4, [(0, v)])),
    "Partition.from_blocks": (
        4,
        SizeMismatch,
        lambda v: Partition.from_blocks(4, [[0, v], [2], [3]]),
    ),
    "Partition.block_of": (4, SizeMismatch, lambda v: P4.block_of(v)),
    "Partition.same": (4, SizeMismatch, lambda v: P4.same(0, v)),
    "is_subalgebra": (4, SizeMismatch, lambda v: is_subalgebra(Z4, {0, v})),
    "generated_subalgebra": (4, SizeMismatch, lambda v: generated_subalgebra(Z4, {v})),
    "subalgebra_as_algebra": (4, SizeMismatch, lambda v: subalgebra_as_algebra(Z4, {0, v})),
    "verify_inner_sdp": (4, SizeMismatch, lambda v: verify_inner_sdp(Z4, {0, v}, P4)),
    "is_homomorphism": (2, SizeMismatch, lambda v: is_homomorphism((0, v), Z2, Z2)),
    "is_homomorphism past the byte carriers": (
        17,
        SizeMismatch,
        lambda v: is_homomorphism((v, *range(1, 17)), z17(), z17()),
    ),
    "Homomorphism": (2, SizeMismatch, lambda v: Homomorphism(Z2, Z2, (0, v))),
    "Homomorphism.among": (
        2,
        SizeMismatch,
        lambda v: Homomorphism.among(Z2, Z2, [(0, 1), (0, v)]),
    ),
    "TupleObject": (4, ShapeMismatch, lambda v: TupleObject(Z4, (0, v))),
}

CARRIER_SIZE = object()  # stands for each entry point's own n
HOSTILE = (1.0, 0.5, -1, CARRIER_SIZE, 2**70, None, "1")


def outcome(call, v):
    """What `call(v)` answers, or the class of the UAError it raises."""
    try:
        return "answers", call(v)
    except UAError as e:
        return "raises", type(e)


@settings(max_examples=100, deadline=None)
@given(value=st.sampled_from(HOSTILE), flag=st.booleans())
def test_every_entry_point_refuses_a_non_element_and_reads_a_bool_as_its_int(value, flag):
    for name, (n, error, call) in ENTRY_POINTS.items():
        hostile = n if value is CARRIER_SIZE else value
        assert outcome(call, hostile) == ("raises", error), (name, hostile)
        assert outcome(call, flag) == outcome(call, int(flag)), (name, flag)
