"""The one isomorphism search, `algebras.isomorphisms`, and its two readers
`find_isomorphism` (the first map) and `automorphism_group` (every map of
G onto itself), pinned to the permutation scan of `tests/oracles.py`: the
same maps in the same lexicographic order."""

import os
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import permutation_isomorphisms
from ualgebra.algebras import (
    FiniteAlgebra,
    find_isomorphism,
    inverse_permutation,
    isomorphisms,
    pack,
    product,
    tuples,
)
from ualgebra.catalog import (
    chain_lattice,
    cyclic_group,
    groups_up_to_8,
    klein_group,
    left_zero_semigroup,
    mult_semigroup,
)
from ualgebra.errors import SignatureMismatch, SizeLimitExceeded
from ualgebra.groups import automorphism_group
from ualgebra.heaps import heap_from_group
from ualgebra.terms import Signature

TESTS = Path(__file__).resolve().parent


def relabel(A, p, name=None):
    """A copy of A with every element x renamed p[x]."""
    inv = inverse_permutation(p)
    n = A.size
    tables = tuple(
        tuple(p[table[pack(tuple(inv[a] for a in args), n)]] for args in tuples(n, arity))
        for (_, arity), table in zip(A.signature.symbols, A.tables)
    )
    return FiniteAlgebra(name or f"{A.name}_relabelled", A.signature, n, tables)


def assert_pinned(A, B):
    expected = permutation_isomorphisms(A, B)
    assert list(isomorphisms(A, B)) == expected
    assert find_isomorphism(A, B) == next(iter(expected), None)
    return expected


GROUPS = groups_up_to_8()
# the members of the benchmark's inner-decomposition census with at most 7
# elements: left-zero semigroups, chains, multiplicative semigroups, their
# small products, and the groups and group heaps
c, m, lz = chain_lattice, mult_semigroup, left_zero_semigroup
LATTICE_FAMILY = (
    [lz(n) for n in (2, 3, 4, 5)]
    + [c(n) for n in range(2, 8)]
    + [m(n) for n in range(2, 8)]
    + [product(c(2), c(3)), product(m(2), m(3)), product(lz(2), m(3)), product(m(3), lz(2))]
    + [G for G in GROUPS if G.size <= 7]
    + [heap_from_group(G) for G in GROUPS if G.size <= 7]
)

# the whole census: its members with 8 elements added
EIGHT = [G for G in GROUPS if G.size == 8]
LATTICE_MEMBERS = (
    LATTICE_FAMILY
    + [m(8), product(c(2), c(4)), product(m(2), m(4))]
    + EIGHT
    + [heap_from_group(G) for G in EIGHT]
)


def relabelled(A):
    """A's copy under a permutation seeded by its name and size."""
    return relabel(A, tuple(Random(f"{A.name}/{A.size}").sample(range(A.size), A.size)))


@pytest.mark.parametrize("G", GROUPS, ids=lambda G: G.name)
def test_group_isomorphisms_match_the_permutation_scan(G):
    auts = assert_pinned(G, G)
    assert automorphism_group(G) == auts
    copy = relabel(G, tuple(Random(G.size).sample(range(G.size), G.size)))
    assert_pinned(G, copy)
    assert_pinned(copy, G)


@pytest.mark.parametrize(
    "G, count",
    [(cyclic_group(3), 2), (klein_group(), 6), (cyclic_group(8), 4)]
    + [(G, c) for G, c in zip(GROUPS[-4:], (8, 168, 8, 24))],
    ids=lambda x: getattr(x, "name", str(x)),
)
def test_automorphism_counts(G, count):
    # |Aut| of Z3, V4 and Z8, then of Z2xZ4, Z2^3, D4 and Q8
    assert len(automorphism_group(G)) == count


def test_relabelled_four_group():
    v4 = klein_group()
    copy = relabel(v4, (2, 0, 3, 1))
    assert len(assert_pinned(v4, copy)) == 6


@pytest.mark.parametrize("A", LATTICE_FAMILY, ids=lambda A: f"{A.name}_{A.size}")
def test_family_relabellings_match_the_permutation_scan(A):
    rng = Random(f"{A.name}/{A.size}")
    for _ in range(2):
        copy = relabel(A, tuple(rng.sample(range(A.size), A.size)))
        assert_pinned(A, copy)
        assert_pinned(copy, A)


@pytest.mark.parametrize(
    "A", LATTICE_MEMBERS[len(LATTICE_FAMILY) :], ids=lambda A: f"{A.name}_{A.size}"
)
def test_eight_element_census_members_match_the_permutation_scan(A):
    copy = relabelled(A)
    assert_pinned(A, copy)
    assert_pinned(copy, A)


@st.composite
def algebra_pairs(draw):
    """Two algebras in one signature of up to two constants and up to two
    operations of arity 1-3, on 1-5 elements: B is a relabelled copy of A,
    the copy with one entry changed, or an independent table, so many pairs
    are not isomorphic. Small value ranges leave many maps structural."""
    n = draw(st.integers(1, 5))
    arities = [0] * draw(st.integers(0, 2))
    arities += draw(st.lists(st.sampled_from([1, 2, 3]), min_size=0 if arities else 1, max_size=2))
    signature = Signature(tuple((f"f{i}", k) for i, k in enumerate(arities)))

    def tables():
        top = draw(st.integers(0, n - 1))
        return tuple(
            tuple(draw(st.lists(st.integers(0, top), min_size=n**k, max_size=n**k)))
            for k in arities
        )

    A = FiniteAlgebra("a", signature, n, tables())
    kind = draw(st.sampled_from(["copy", "changed", "other"]))
    if kind == "other":
        return A, FiniteAlgebra("b", signature, n, tables())
    B = relabel(A, tuple(draw(st.permutations(range(n)))), "b")
    if kind == "changed":
        p = draw(st.integers(0, len(arities) - 1))
        i = draw(st.integers(0, len(B.tables[p]) - 1))
        changed = list(B.tables[p])
        changed[i] = draw(st.integers(0, n - 1))
        B = FiniteAlgebra("b", signature, n, B.tables[:p] + (tuple(changed),) + B.tables[p + 1 :])
    return A, B


@settings(max_examples=300, deadline=None)
@given(pair=algebra_pairs())
def test_random_pairs_match_the_permutation_scan(pair):
    A, B = pair
    assert_pinned(A, B)
    assert_pinned(B, A)


def test_input_checks_run_at_the_call_in_order():
    z4, z12, z13 = cyclic_group(4), cyclic_group(12), cyclic_group(13)
    # a signature mismatch is reported before unequal sizes
    with pytest.raises(SignatureMismatch):
        isomorphisms(z4, chain_lattice(5))
    # unequal sizes give no maps, even above the cap
    assert list(isomorphisms(z13, cyclic_group(14))) == []
    assert find_isomorphism(z12, z13) is None
    with pytest.raises(SizeLimitExceeded, match="isomorphism search capped at 12"):
        isomorphisms(z13, z13)
    # 12 elements are in scope: Aut(Z12) is the four units
    assert automorphism_group(z12) == [tuple(u * x % 12 for x in range(12)) for u in (1, 5, 7, 11)]


def test_automorphism_group_rejects_bad_input():
    with pytest.raises(SignatureMismatch, match="expected the group signature"):
        automorphism_group(chain_lattice(3))
    with pytest.raises(SizeLimitExceeded):
        automorphism_group(cyclic_group(13))


OPTIMIZED_RUN = """
import sys
from oracles import permutation_isomorphisms
from test_heaps import NON_HEAPS
from test_isomorphisms import relabel
from ualgebra.algebras import find_isomorphism, isomorphisms
from ualgebra.catalog import chain_lattice, groups_up_to_8, left_zero_semigroup, mult_semigroup
from ualgebra.errors import AxiomFailure
from ualgebra.groups import automorphism_group
from ualgebra.heaps import heap_inner_report

if not sys.flags.optimize:
    sys.exit("not run under -O")
groups = [G for G in groups_up_to_8() if G.size <= 6]
algebras = groups + [chain_lattice(5), mult_semigroup(6), left_zero_semigroup(4)]
for A in algebras:
    B = relabel(A, tuple(reversed(range(A.size))))
    expected = permutation_isomorphisms(A, B)
    if list(isomorphisms(A, B)) != expected or find_isomorphism(A, B) != expected[0]:
        sys.exit(f"mismatch on {A.name}")
for G in groups:
    if automorphism_group(G) != permutation_isomorphisms(G, G):
        sys.exit(f"automorphisms differ on {G.name}")
for X, Y, omega in NON_HEAPS:
    try:
        heap_inner_report(X, Y, omega)
    except AxiomFailure:
        continue
    sys.exit(f"{X.name}: no AxiomFailure")
print("agree", len(algebras), len(NON_HEAPS))
"""


def test_isomorphisms_agree_with_the_oracle_under_python_O():
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
    assert run.stdout.split() == ["agree", "11", "4"]
