"""The four specialized semidirect products, pinned table for table against
the textbook formulas in `tests/oracles.py` on nontrivial actions."""

import pytest

from oracles import (
    digroup_outer_tables,
    group_sdp_tables,
    heap_outer_tables,
    ring_sdp_tables,
)
from ualgebra.catalog import cyclic_group, cyclic_heap, cyclic_ring, klein_group, zero_ring
from ualgebra.digroups import DigroupActionTriple, digroup_outer, trivial_digroup
from ualgebra.groups import RingActionPair, group_semidirect, ring_semidirect
from ualgebra.heaps import HeapAction, heap_outer

ID3, NEG3 = (0, 1, 2), (0, 2, 1)


def s3_as_z3_by_z2():
    N, B, phi = cyclic_group(3), cyclic_group(2), (ID3, NEG3)
    return group_semidirect(N, B, phi).tables, group_sdp_tables(N, B, phi)


def d4_as_z4_by_z2():
    N, B, phi = cyclic_group(4), cyclic_group(2), ((0, 1, 2, 3), (0, 3, 2, 1))
    return group_semidirect(N, B, phi).tables, group_sdp_tables(N, B, phi)


def klein_by_z3():
    # Z3 cycles the three involutions of the Klein group
    N, B = klein_group(), cyclic_group(3)
    phi = ((0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 1, 2))
    return group_semidirect(N, B, phi).tables, group_sdp_tables(N, B, phi)


def ring_with_asymmetric_actions():
    K, S = zero_ring(2), cyclic_ring(2)
    lam, rho = ((0, 0), (0, 1)), ((0, 0), (0, 0))
    return ring_semidirect(RingActionPair(K, S, lam, rho)).tables, ring_sdp_tables(K, S, lam, rho)


def heap_with_inversion_action():
    Y, K = cyclic_heap(2), cyclic_heap(3)
    alpha = (ID3, NEG3)
    return heap_outer(HeapAction(Y, K, alpha, 0)).algebra.tables, heap_outer_tables(Y, K, alpha, 0)


def heap_with_translation_action():
    Y, K = cyclic_heap(3), cyclic_heap(3)
    alpha = tuple(tuple((x + y) % 3 for x in range(3)) for y in range(3))
    return heap_outer(HeapAction(Y, K, alpha, 0)).algebra.tables, heap_outer_tables(Y, K, alpha, 0)


def digroup(phi_star, phi_circ, Lambda):
    Y, K = trivial_digroup(cyclic_group(2)), trivial_digroup(cyclic_group(3))
    built = digroup_outer(DigroupActionTriple(Y, K, phi_star, phi_circ, Lambda))
    expected = digroup_outer_tables(Y.algebra, K.algebra, phi_star, phi_circ, Lambda)
    return built.algebra.tables, expected


def digroup_with_nontrivial_lambda():
    return digroup((ID3, NEG3), (ID3, NEG3), (ID3, NEG3))


def digroup_with_lambda_moving_the_unit():
    return digroup((ID3, ID3), (ID3, ID3), (ID3, (1, 2, 0)))


CASES = [
    s3_as_z3_by_z2,
    d4_as_z4_by_z2,
    klein_by_z3,
    ring_with_asymmetric_actions,
    heap_with_inversion_action,
    heap_with_translation_action,
    digroup_with_nontrivial_lambda,
    digroup_with_lambda_moving_the_unit,
]


@pytest.mark.parametrize("case", CASES, ids=[c.__name__ for c in CASES])
def test_product_tables_match_the_textbook_formulas(case):
    built, expected = case()
    assert built == expected
