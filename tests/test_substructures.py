"""Substructures are subalgebras: the closure test, the subalgebra list and
the normal-subheap and ideal lists, pinned to the subset scans of
`tests/oracles.py`."""

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    brute_force_ideals,
    brute_force_normal_subheaps,
    closed_subsets,
    fixpoint_closure,
)
from test_isomorphisms import LATTICE_MEMBERS, relabelled
from ualgebra.algebras import FiniteAlgebra, all_subalgebras, emit_algebra, is_subalgebra, product
from ualgebra.catalog import (
    chain_lattice,
    cyclic_group,
    cyclic_heap,
    groups_up_to_8,
    left_zero_semigroup,
    mult_semigroup,
)
from ualgebra.cli import main
from ualgebra.digroups import all_digroups, all_ideals, is_subdigroup, trivial_digroup
from ualgebra.errors import SizeLimitExceeded, SizeMismatch
from ualgebra.groups import is_subgroup
from ualgebra.heaps import all_normal_subheaps, heap_from_group, is_subheap
from ualgebra.terms import Signature

SEMILATTICES_AND_SEMIGROUPS = (
    [chain_lattice(n) for n in range(1, 8)]
    + [left_zero_semigroup(n) for n in range(1, 6)]
    + [mult_semigroup(n) for n in range(1, 9)]
)
GROUPS = groups_up_to_8()
HEAPS = [heap_from_group(G) for G in GROUPS]
DIGROUPS = [D for n in range(1, 6) for D in all_digroups(n)]
# 9-12 elements, up to the cap: 512-4,096 subsets, each tested by the kernel
LARGE = [
    chain_lattice(12),
    left_zero_semigroup(10),
    mult_semigroup(11),
    cyclic_group(9),
    cyclic_heap(9),
    product(chain_lattice(3), chain_lattice(4)),
]


def subsets(n):
    return [frozenset(i for i in range(n) if mask >> i & 1) for mask in range(2**n)]


def assert_subalgebras_match(A):
    assert all_subalgebras(A) == closed_subsets(A)
    for S in subsets(A.size):
        assert is_subalgebra(A, S) == (bool(S) and fixpoint_closure(A, S) == S)


@pytest.mark.parametrize(
    "A",
    SEMILATTICES_AND_SEMIGROUPS + GROUPS + HEAPS + LARGE + [relabelled(A) for A in LATTICE_MEMBERS],
    ids=lambda A: A.name,
)
def test_subalgebras_match_closing_every_subset(A):
    assert_subalgebras_match(A)


@pytest.mark.parametrize("G", GROUPS, ids=lambda G: G.name)
def test_subgroups_are_the_closed_subsets(G):
    # the fixpoint closure of the empty set holds e, so the empty set fails
    for S in subsets(G.size):
        assert is_subgroup(G, S) == (fixpoint_closure(G, S) == S)


@pytest.mark.parametrize("X", HEAPS, ids=lambda X: X.name)
def test_subheaps_and_normal_subheaps_match_the_scans(X):
    # a heap has no constant, so the empty set is its own closure: the empty heap
    assert is_subheap(X, set())
    for S in subsets(X.size):
        assert is_subheap(X, S) == (fixpoint_closure(X, S) == S)
    assert all_normal_subheaps(X) == brute_force_normal_subheaps(X)


@pytest.mark.parametrize("D", DIGROUPS, ids=lambda D: D.algebra.name)
def test_subdigroups_and_ideals_match_the_scans(D):
    assert_subalgebras_match(D.algebra)
    for S in subsets(D.n):
        assert is_subdigroup(D, S) == (fixpoint_closure(D.algebra, S) == S)
    assert all_ideals(D) == brute_force_ideals(D.algebra)


@st.composite
def random_algebras(draw):
    """An algebra of order <= 5 with one to three operations of arity 0-3,
    and 4 below order 5, constants alone included; small value ranges leave
    many subsets closed."""
    n = draw(st.integers(1, 5))
    kinds = [0, 1, 2, 3, 4] if n < 5 else [0, 1, 2, 3]
    arities = draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=3))
    top = draw(st.integers(0, n - 1))
    tables = tuple(
        tuple(draw(st.lists(st.integers(0, top), min_size=n**k, max_size=n**k)))
        for k in arities
    )
    symbols = tuple((f"f{p}", k) for p, k in enumerate(arities))
    return FiniteAlgebra("random", Signature(symbols), n, tables)


@settings(max_examples=150, deadline=None)
@given(A=random_algebras())
def test_subalgebras_of_random_tables_match_closing_every_subset(A):
    assert_subalgebras_match(A)


def test_mixed_and_constant_only_signatures():
    # one operation of each arity 0-4 on 3 elements: the constant pins 1, and
    # the unary 2 -> 0 leaves {1, 2} open
    mixed = Signature((("c", 0), ("u", 1), ("b", 2), ("t", 3), ("q", 4)))
    tables = (
        (1,),
        (0, 1, 0),
        tuple(max(a, b) for a in range(3) for b in range(3)),
        tuple(min(a, b, c) for a in range(3) for b in range(3) for c in range(3)),
        tuple(1 for _ in range(81)),
    )
    A = FiniteAlgebra("mixed", mixed, 3, tables)
    assert_subalgebras_match(A)
    assert all_subalgebras(A) == [{1}, {0, 1}, {0, 1, 2}]
    # constants alone: the closed subsets are those holding both
    K = FiniteAlgebra("constants", Signature((("a", 0), ("b", 0))), 4, ((1,), (3,)))
    assert_subalgebras_match(K)
    assert all_subalgebras(K) == [{1, 3}, {0, 1, 3}, {1, 2, 3}, {0, 1, 2, 3}]


class CountedTable(tuple):
    """A table that counts its reads by index."""

    reads = 0

    def __getitem__(self, i):
        CountedTable.reads += 1
        return super().__getitem__(i)


def test_the_closure_test_stops_at_the_first_value_outside():
    # every product of {0, 1} is 3, so the first read settles it
    A = FiniteAlgebra("const3", Signature((("m", 2),)), 4, (CountedTable((3,) * 16),))
    CountedTable.reads = 0
    assert not is_subalgebra(A, {0, 1})
    assert CountedTable.reads == 1
    assert all_subalgebras(A) == [{3}, {0, 3}, {1, 3}, {2, 3}, {0, 1, 3}, {0, 2, 3}, {1, 2, 3}, {0, 1, 2, 3}]


def test_the_closure_test_takes_members_by_the_carrier_rule():
    z4 = cyclic_group(4)
    # the empty set is never a subalgebra, not even without constants
    assert not is_subalgebra(z4, set())
    assert not is_subalgebra(heap_from_group(z4), ())
    # a bool reads as 0 or 1
    assert is_subalgebra(z4, {False}) and is_subalgebra(z4, {False, 2})
    assert not is_subalgebra(z4, {True}) and not is_subalgebra(z4, {False, True})
    assert is_subalgebra(mult_semigroup(4), {True}) == is_subalgebra(mult_semigroup(4), {1}) is True
    for bad in (1.0, 0.5, "1", None):
        with pytest.raises(SizeMismatch, match="subset outside the carrier"):
            is_subalgebra(z4, {0, bad})
    # one test has no cap, the scan of every subset does
    z16 = cyclic_group(16)
    assert is_subalgebra(z16, {0, 4, 8, 12}) and not is_subalgebra(z16, {0, 4, 8})
    assert fixpoint_closure(z16, {0, 4, 8}) == {0, 4, 8, 12}
    with pytest.raises(SizeLimitExceeded, match="subalgebra enumeration capped at 12"):
        all_subalgebras(chain_lattice(13))


def test_substructure_tests_reject_elements_outside_the_carrier():
    D = trivial_digroup(cyclic_group(4))
    heap = heap_from_group(cyclic_group(4))
    for S in ({0, 4}, {-1}, {9}):
        with pytest.raises(SizeMismatch, match="subset outside the carrier"):
            is_subalgebra(chain_lattice(4), S)
        with pytest.raises(SizeMismatch, match="subset outside the carrier"):
            is_subgroup(cyclic_group(4), S)
        with pytest.raises(SizeMismatch, match="subset outside the carrier"):
            is_subdigroup(D, S)
        with pytest.raises(SizeMismatch, match="subset outside the carrier"):
            is_subheap(heap, S)


def test_normal_subheaps_and_ideals_share_the_subalgebra_cap(tmp_path, capsys):
    with pytest.raises(SizeLimitExceeded, match="subalgebra enumeration capped at 12"):
        all_normal_subheaps(cyclic_heap(13))
    D = trivial_digroup(cyclic_group(13), "dgz13")
    with pytest.raises(SizeLimitExceeded, match="subalgebra enumeration capped at 12"):
        all_ideals(D)
    # `ua brace center` needs every ideal, so a 13-element brace is oversized input
    path = tmp_path / "dg.alg"
    path.write_text(emit_algebra(D.algebra))
    assert main(["brace", "center", f"{path}#dgz13"]) == 2
    assert "subalgebra enumeration capped at 12" in capsys.readouterr().err
