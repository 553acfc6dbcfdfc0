"""The one action test, `algebras.is_action` with `is_automorphism` and
`compose`, and the routes that replaced hand-written loops in the group,
digroup and heap modules, pinned to the loops they replaced in
`tests/oracles.py`: the composition loops, the left skew brace loop, the
ideal fixpoint and the coset tables."""

import os
import subprocess
import sys
from functools import cache
from itertools import permutations, product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    antimultiplicative_by_loops,
    brace_center_by_scan,
    brace_commutator_by_fixpoint,
    closed_subsets,
    coset_group_tables,
    fixpoint_brace_ideal,
    heap_morphism_by_loops,
    is_automorphism_by_scan,
    lsb_witness_by_loops,
    multiplicative_by_loops,
    permutation_isomorphisms,
    reflection_ideal_by_fixpoint,
)
from ualgebra.algebras import compose, inverse_permutation, is_action, is_automorphism
from ualgebra.catalog import (
    cyclic_group,
    cyclic_ring,
    groups_up_to_8,
    klein_group,
    symmetric_group_s3,
)
from ualgebra.digroups import (
    DigroupActionTriple,
    all_digroups,
    all_ideals,
    brace_center,
    brace_commutator,
    brace_ideal_generated,
    circ_reduct,
    digroup_outer,
    skew_brace_check,
    skew_brace_reflection,
    star_reduct,
    trivial_digroup,
)
from ualgebra.groups import (
    RingActionPair,
    group_data_from_action,
    group_data_from_inner,
    group_semidirect,
    ring_semidirect,
)
from ualgebra.heaps import HeapAction, heap_from_group, heap_outer

TESTS = Path(__file__).resolve().parent

BASES = [cyclic_group(n) for n in (1, 2, 3, 4)] + [klein_group(), symmetric_group_s3()]
FIBERS = [cyclic_group(n) for n in (1, 2, 3, 4)] + [klein_group()]


def antiact(f, g):
    return compose(g, f)


def bracket(f, g, h):
    return compose(f, compose(inverse_permutation(g), h))


@cache
def genuine_actions(B, K):
    """Every homomorphism B -> Aut(K), as row families, for |B| <= 4."""
    auts = permutation_isomorphisms(K, K)
    return [
        rows
        for rows in product(auts, repeat=B.size)
        if multiplicative_by_loops(rows, B.table("m"), B.size)
    ]


@st.composite
def row_families(draw):
    """(B, K, rows): one row on K per element of the group B. The rows are
    arbitrary self-maps, permutations, automorphisms of K, or a genuine
    action of B, which is then often changed at one entry."""
    B = draw(st.sampled_from(BASES))
    K = draw(st.sampled_from(FIBERS))
    k = K.size
    kind = draw(st.sampled_from(["maps", "permutations", "automorphisms", "action"]))
    if kind == "action" and B.size <= 4:
        rows = list(draw(st.sampled_from(genuine_actions(B, K))))
        if draw(st.booleans()):
            y, i = draw(st.integers(0, B.size - 1)), draw(st.integers(0, k - 1))
            row = list(rows[y])
            row[i] = draw(st.integers(0, k - 1))
            rows[y] = tuple(row)
    elif kind == "automorphisms":
        auts = permutation_isomorphisms(K, K)
        rows = [draw(st.sampled_from(auts)) for _ in range(B.size)]
    elif kind in ("permutations", "action"):
        rows = [tuple(draw(st.permutations(range(k)))) for _ in range(B.size)]
    else:
        row = st.lists(st.integers(0, k - 1), min_size=k, max_size=k).map(tuple)
        rows = [draw(row) for _ in range(B.size)]
    return B, K, tuple(rows)


@settings(max_examples=400, deadline=None)
@given(case=row_families())
def test_is_action_matches_the_composition_loops(case):
    B, K, rows = case
    mul = B.table("m")
    assert is_action(rows, B, "m", compose) == multiplicative_by_loops(rows, mul, B.size)
    assert is_action(rows, B, "m", antiact) == antimultiplicative_by_loops(rows, mul, B.size)
    for row in rows:
        assert is_automorphism(row, K) == is_automorphism_by_scan(row, K)
    if all(len(set(row)) == K.size for row in rows):
        Y = heap_from_group(B)
        assert is_action(rows, Y, "t", bracket) == heap_morphism_by_loops(rows, Y.tables[0], B.size)


# Each builder takes a row converter, `list` or `tuple`, and returns what the
# entry point builds from the rows of the action Z2 -> Aut(Z3) (ring: S = K = Z2).
ROW_BUILDERS = {
    "group_semidirect": lambda rows: group_semidirect(
        cyclic_group(3), cyclic_group(2), [rows((0, 1, 2)), rows((0, 2, 1))]
    ),
    "group_data_from_action": lambda rows: group_data_from_action(
        cyclic_group(3), cyclic_group(2), [rows((0, 1, 2)), rows((0, 2, 1))]
    ),
    "digroup_outer": lambda rows: digroup_outer(
        DigroupActionTriple(
            trivial_digroup(cyclic_group(2), "y2"),
            trivial_digroup(cyclic_group(3), "k3"),
            [rows((0, 1, 2)), rows((0, 2, 1))],
            [rows((0, 1, 2)), rows((0, 2, 1))],
            [rows((0, 1, 2)), rows((0, 1, 2))],
        )
    ).algebra,
    "heap_outer": lambda rows: heap_outer(
        HeapAction(
            heap_from_group(cyclic_group(2)),
            heap_from_group(cyclic_group(3)),
            [rows((0, 1, 2)), rows((0, 2, 1))],
            0,
        )
    ).algebra,
    # lam as the converter gives it, rho always as tuples
    "ring_semidirect": lambda rows: ring_semidirect(
        RingActionPair(
            cyclic_ring(2), cyclic_ring(2), [rows((0, 0)), rows((0, 1))], ((0, 0), (0, 1))
        )
    ),
}


@pytest.mark.parametrize("build", ROW_BUILDERS.values(), ids=ROW_BUILDERS)
def test_rows_given_as_lists_build_what_tuples_build(build):
    assert build(list) == build(tuple)


def test_genuine_actions_pass_every_action_law():
    # the Hypothesis families reach these only by sampling; here each one is
    # checked as an action, as a heap morphism and, against the loop, as an
    # antiaction (which it is when B's image in Aut(K) is abelian)
    for B in BASES[:5]:
        for K in FIBERS:
            for rows in genuine_actions(B, K):
                assert is_action(rows, B, "m", compose)
                assert is_action(rows, heap_from_group(B), "t", bracket)
                assert is_action(rows, B, "m", antiact) == antimultiplicative_by_loops(
                    rows, B.table("m"), B.size
                )


DIGROUPS = [D for n in range(1, 7) for D in all_digroups(n)]


def small_outer_digroups():
    """digroup_outer over every triple on the digroups Y, K of orders 2 and
    3 whose phi families are antihomomorphisms into the automorphisms of
    the reducts and whose Lambda is any family of permutations with the
    identity at Y's unit."""
    small = [D for D in DIGROUPS if D.n in (2, 3)]
    built = []
    for Y in small:
        for K in small:
            families = []
            for reduct, symbol in ((star_reduct(K), "star"), (circ_reduct(K), "circ")):
                auts = permutation_isomorphisms(reduct, reduct)
                families.append(
                    [
                        rows
                        for rows in product(auts, repeat=Y.n)
                        if antimultiplicative_by_loops(rows, Y.algebra.table(symbol), Y.n)
                    ]
                )
            lambdas = [
                rows
                for rows in product(permutations(range(K.n)), repeat=Y.n)
                if rows[Y.one] == tuple(range(K.n))
            ]
            for phi_star, phi_circ, lam in product(*families, lambdas):
                built.append(digroup_outer(DigroupActionTriple(Y, K, phi_star, phi_circ, lam)))
    return built


def test_skew_brace_check_matches_the_lsb_loop():
    outer = small_outer_digroups()
    assert len(DIGROUPS) == 73
    braces = 0
    for D in DIGROUPS + outer:
        report = skew_brace_check(D)
        witness = lsb_witness_by_loops(D.algebra)
        assert (report.lsb, report.witness) == (witness is None, witness)
        assert report.lambda_morphism == report.lsb
        braces += report.lsb
    # 14 of the digroups are skew braces (1, 1, 1, 4, 1, 6 by order) and 28
    # of the 66 outer products
    assert (len(outer), braces) == (66, 42)


def test_brace_ideals_match_the_fixpoint():
    for D in DIGROUPS:
        A = D.algebra
        for x, y in product(range(D.n), repeat=2):
            assert brace_ideal_generated(D, {x, y}) == fixpoint_brace_ideal(A, {x, y})
        assert brace_ideal_generated(D, ()) == fixpoint_brace_ideal(A, ())
        ideals = all_ideals(D)
        for I in ideals:
            for J in ideals:
                assert brace_commutator(D, I, J) == brace_commutator_by_fixpoint(A, I, J)
        _, ideal = skew_brace_reflection(D)
        assert ideal == reflection_ideal_by_fixpoint(A)
        if skew_brace_check(D).lsb:
            assert brace_center(D) == brace_center_by_scan(A)


def inner_group_decompositions():
    """(G, K, Y) for every group G of order at most 8, normal K and subgroup
    Y with K n Y = 1 and |K||Y| = |G|, from the oracle's subset scan."""
    found = []
    for G in groups_up_to_8():
        n, mul, inv = G.size, G.tables[0], G.tables[1]
        one = G.tables[2][0]
        subgroups = closed_subsets(G)
        normal = [
            K
            for K in subgroups
            if all(mul[mul[g * n + k] * n + inv[g]] in K for g in range(n) for k in K)
        ]
        found += [
            (G, K, Y)
            for K in normal
            for Y in subgroups
            if K & Y == {one} and len(K) * len(Y) == n
        ]
    return found


def test_group_data_from_inner_matches_the_coset_tables():
    decompositions = inner_group_decompositions()
    assert len(decompositions) == 110
    for G, K, Y in decompositions:
        data = group_data_from_inner(G, K, Y)
        g, h = coset_group_tables(G, K, Y)
        assert dict(data.g) == g
        assert list(data.h) == h


OPTIMIZED_RUN = """
import sys
from test_actions import BASES, FIBERS, DIGROUPS, antiact, bracket, genuine_actions
from oracles import (
    antimultiplicative_by_loops, brace_commutator_by_fixpoint, fixpoint_brace_ideal,
    heap_morphism_by_loops, lsb_witness_by_loops, multiplicative_by_loops,
)
from ualgebra.algebras import compose, is_action
from ualgebra.digroups import all_ideals, brace_commutator, brace_ideal_generated, skew_brace_check
from ualgebra.heaps import heap_from_group

if not sys.flags.optimize:
    sys.exit("not run under -O")
checked = 0
for B in BASES[:5]:
    mul, Y = B.table("m"), heap_from_group(B)
    for K in FIBERS:
        for rows in genuine_actions(B, K):
            changed = rows[:-1] + (tuple(reversed(rows[-1])),)
            for fam in (rows, changed):
                ok = (
                    is_action(fam, B, "m", compose) == multiplicative_by_loops(fam, mul, B.size)
                    and is_action(fam, B, "m", antiact) == antimultiplicative_by_loops(fam, mul, B.size)
                    and is_action(fam, Y, "t", bracket) == heap_morphism_by_loops(fam, Y.tables[0], B.size)
                )
                if not ok:
                    sys.exit(f"action laws differ on {B.name}, {K.name}, {fam}")
                checked += 1
for D in DIGROUPS:
    report, witness = skew_brace_check(D), lsb_witness_by_loops(D.algebra)
    if (report.lsb, report.witness) != (witness is None, witness):
        sys.exit(f"skew brace check differs on {D.algebra.name}")
    for x in range(D.n):
        if brace_ideal_generated(D, {x}) != fixpoint_brace_ideal(D.algebra, {x}):
            sys.exit(f"generated ideal differs on {D.algebra.name} at {x}")
    for I in all_ideals(D):
        if brace_commutator(D, I, I) != brace_commutator_by_fixpoint(D.algebra, I, I):
            sys.exit(f"commutator differs on {D.algebra.name}")
print("agree", checked, len(DIGROUPS))
"""


def test_action_and_brace_routes_agree_with_the_oracles_under_python_O():
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
    # 52 genuine actions and each with its last row reversed; 73 digroups
    assert run.stdout.split() == ["agree", "104", "73"]
