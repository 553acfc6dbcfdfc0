"""The specialised inner reports agree with the general theory.

Each of `group_inner_equivalences`, `heap_inner_report`, `near_truss_report`
and `digroup_inner_report` carries flags for the general decomposition
conditions of `verify_inner_sdp` on its own (B, omega): (a) transversal,
(b) idempotent endomorphism, (c) retraction, (d) canonical isomorphism.
Wherever B is a subalgebra, those flags must equal the general report's.
"""

import pytest

from ualgebra.algebras import all_subalgebras
from ualgebra.catalog import cyclic_group, cyclic_ring, groups_up_to_8, zero_ring
from ualgebra.congruences import all_congruences
from ualgebra.digroups import (
    all_digroups,
    all_ideals,
    digroup_inner_report,
    ideal_partition,
    is_subdigroup,
)
from ualgebra.groups import group_inner_equivalences, group_mul, is_normal_subgroup
from ualgebra.heaps import heap_from_group, heap_inner_report, near_truss_report, truss_from_ring
from ualgebra.inner import verify_inner_sdp
from ualgebra.partitions import Partition

# Z12 and its heap: the reports reach the carrier cap of 12
GROUPS = [G for G in groups_up_to_8() if G.size <= 6] + [cyclic_group(12)]
HEAPS = [heap_from_group(G) for G in GROUPS if G.size <= 4 or G.size == 12]
TRUSSES = [truss_from_ring(R(n)) for n in (1, 2, 3) for R in (cyclic_ring, zero_ring)]
DIGROUPS = [D for n in (1, 2, 3) for D in all_digroups(n)]


def _general(A, B, omega):
    report = verify_inner_sdp(A, B, omega)
    assert report.b_is_subalgebra and report.omega_is_congruence
    return report.a, report.b, report.c, report.d


@pytest.mark.parametrize("G", GROUPS, ids=lambda G: G.name)
def test_group_report_matches_general_conditions(G):
    subgroups = all_subalgebras(G)
    for K in filter(lambda S: is_normal_subgroup(G, S), subgroups):
        coset = Partition.from_pairs(G.size, [(g, group_mul(G, g, k)) for g in G.elements for k in K])
        for Y in subgroups:
            r = group_inner_equivalences(G, K, Y)
            a, b, c, d = _general(G, Y, coset)
            assert (r.a, r.d, r.e, r.f) == (a, b, c, d)


@pytest.mark.parametrize("X", HEAPS, ids=lambda X: X.name)
def test_heap_report_matches_general_conditions(X):
    congruences = all_congruences(X)
    for Y in all_subalgebras(X):
        for omega in congruences:
            r = heap_inner_report(X, Y, omega)
            a, b, _, d = _general(X, Y, omega)
            assert (r.a, r.b, r.e) == (a, b, d)


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("X", TRUSSES, ids=lambda X: X.name)
def test_near_truss_report_matches_general_conditions(X, side):
    congruences = all_congruences(X)
    for Y in all_subalgebras(X):
        for omega in congruences:
            r = near_truss_report(X, Y, omega, side=side)
            a, b, _, d = _general(X, Y, omega)
            assert (r.a, r.b, r.d) == (a, b, d)


@pytest.mark.parametrize("D", DIGROUPS, ids=lambda D: D.algebra.name)
def test_digroup_report_matches_general_conditions(D):
    subdigroups = [S for S in all_subalgebras(D.algebra) if is_subdigroup(D, S)]
    for I in all_ideals(D):
        omega = ideal_partition(D, I)
        for B in subdigroups:
            r = digroup_inner_report(D, B, I)
            a, b, _, _ = _general(D.algebra, B, omega)
            assert (r.conditions[0], r.conditions[6]) == (a, b)
