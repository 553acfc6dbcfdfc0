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
from ualgebra.algebras import FiniteAlgebra, all_subalgebras, emit_algebra, is_subalgebra
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


def subsets(n):
    return [frozenset(i for i in range(n) if mask >> i & 1) for mask in range(2**n)]


def assert_subalgebras_match(A):
    assert all_subalgebras(A) == closed_subsets(A)
    for S in subsets(A.size):
        assert is_subalgebra(A, S) == (bool(S) and fixpoint_closure(A, S) == S)


@pytest.mark.parametrize(
    "A", SEMILATTICES_AND_SEMIGROUPS + GROUPS + HEAPS, ids=lambda A: A.name
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
    """An algebra of order <= 5 with one or two operations of arity 0-3;
    small value ranges leave many subsets closed."""
    n = draw(st.integers(1, 5))
    arities = draw(st.lists(st.sampled_from([0, 1, 2, 3]), min_size=1, max_size=2))
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
