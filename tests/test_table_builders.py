"""The table builders read and write through `pack_product`, the one
row-major index over a product of element lists. Each is pinned to its
per-tuple form in `tests/oracles.py` on the lattice families, the groups up
to order 8, their heaps and the cyclic heaps."""

from itertools import product as iproduct

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (
    fiber_major_tables,
    product_tables,
    quotient_tables,
    subalgebra_tables,
    union_tables,
)
from ualgebra.algebras import (
    all_subalgebras,
    compose,
    is_action,
    pack,
    pack_product,
    product,
    quotient,
    subalgebra_as_algebra,
)
from ualgebra.catalog import (
    chain_lattice,
    cyclic_heap,
    groups_up_to_8,
    left_zero_semigroup,
    mult_semigroup,
)
from ualgebra.congruences import all_congruences
from ualgebra.errors import NotACongruence, NotASubalgebra
from ualgebra.groups import automorphism_group, group_data_from_action, group_data_to_family
from ualgebra.heaps import heap_from_group
from ualgebra.inner import decomposition_from_idempotent, idempotent_endomorphisms
from ualgebra.outer import assemble_union_algebra, fiber_major, inner_to_outer
from ualgebra.partitions import Partition

c, m, lz = chain_lattice, mult_semigroup, left_zero_semigroup
FAMILIES = (
    [lz(n) for n in (2, 3, 4, 5)]
    + [c(n) for n in range(2, 8)]
    + [m(n) for n in range(2, 9)]
    + [
        product(c(2), c(3)),
        product(c(2), c(4)),
        product(m(2), m(3)),
        product(m(2), m(4)),
        product(lz(2), m(3)),
        product(m(3), lz(2)),
    ]
)
GROUPS = groups_up_to_8()
HEAPS = [heap_from_group(G) for G in GROUPS] + [cyclic_heap(n) for n in range(1, 7)]
CORPUS = FAMILIES + GROUPS + HEAPS
SMALL = [A for A in CORPUS if A.size <= 4]

places = st.lists(
    st.one_of(
        st.lists(st.integers(0, 4), max_size=4),
        st.builds(range, st.integers(0, 5), st.integers(0, 5)),
    ),
    max_size=4,
)


@settings(max_examples=300, deadline=None)
@given(places, st.integers(1, 6))
@example([], 3)
@example([[1, 2], []], 3)
@example([range(2), range(3)], 3)
def test_pack_product_is_pack_of_each_tuple(places, n):
    assert pack_product(places, n) == [pack(t, n) for t in iproduct(*places)]


@pytest.mark.parametrize("A", CORPUS, ids=lambda A: A.name)
def test_quotients_and_subalgebras_equal_their_oracles(A):
    for omega in all_congruences(A):
        Q, proj = quotient(A, omega)
        assert (Q.tables, proj.map) == quotient_tables(A, omega.rep)
        assert quotient(A, omega)[0] is Q  # the memoized value
    for S in all_subalgebras(A):
        sub, members = subalgebra_as_algebra(A, S)
        assert members == tuple(sorted(S))
        assert sub.tables == subalgebra_tables(A, S)


@pytest.mark.parametrize("A", [A for A in CORPUS if A.size <= 6], ids=lambda A: A.name)
def test_rejections_equal_their_oracles(A):
    for a in range(A.size):
        for b in range(a + 1, A.size):
            omega = Partition.from_pairs(A.size, [(a, b)])
            if quotient_tables(A, omega.rep) is None:
                with pytest.raises(NotACongruence):
                    quotient(A, omega)
            else:
                assert quotient(A, omega)[0].tables == quotient_tables(A, omega.rep)[0]
    for mask in range(1, 2**A.size):
        S = [x for x in range(A.size) if mask >> x & 1]
        if subalgebra_tables(A, S) is None:
            with pytest.raises(NotASubalgebra):
                subalgebra_as_algebra(A, S)


def test_products_of_small_pairs_equal_their_oracle():
    pairs = [(A, B) for A in SMALL for B in SMALL if A.signature == B.signature]
    assert len(pairs) > 100
    for A, B in pairs:
        assert product(A, B).tables == product_tables(A, B)


@pytest.mark.parametrize("A", [A for A in CORPUS if A.size <= 6], ids=lambda A: A.name)
def test_inner_to_outer_fills_the_union_as_the_oracle_does(A):
    for e in idempotent_endomorphisms(A):
        family, actions, _ = inner_to_outer(decomposition_from_idempotent(A, e))
        F = assemble_union_algebra(family, actions)
        assert F.algebra.tables == union_tables(family.base, family.fibers, actions.as_dict())
        if len({size for size, _ in family.fibers}) == 1:
            nk = family.fibers[0][0]
            assert fiber_major(F).tables == fiber_major_tables(F.algebra, family.base.size, nk)


def test_twisted_group_unions_equal_their_oracles():
    small = [G for G in GROUPS if G.size <= 4]
    seen = 0
    for N in small:
        auts = automorphism_group(N)
        for B in small:
            for phi in iproduct(auts, repeat=B.size):
                if not is_action(phi, B, "m", compose):
                    continue
                family, actions = group_data_to_family(group_data_from_action(N, B, phi))
                F = assemble_union_algebra(family, actions)
                assert F.algebra.tables == union_tables(B, family.fibers, actions.as_dict())
                assert fiber_major(F).tables == fiber_major_tables(F.algebra, B.size, N.size)
                seen += 1
    assert seen > 30
