import re
from itertools import product as iproduct

import pytest

from oracles import first_group_condition_failure
from ualgebra import groups
from ualgebra.algebras import find_isomorphism
from ualgebra.catalog import (
    cyclic_group,
    cyclic_ring,
    dihedral_group,
    klein_group,
    symmetric_group_s3,
    zero_ring,
)
from ualgebra.errors import (
    CompatibilityViolation,
    ConditionViolation,
    DecompositionInvalid,
    NotAnAction,
    NotAutomorphism,
    NotNormal,
    SizeMismatch,
)
from ualgebra.groups import (
    GroupSDPData,
    RingActionPair,
    automorphism_group,
    conjugation_action,
    group_action_from_data,
    group_data_from_action,
    group_data_from_inner,
    group_inner_equivalences,
    group_semidirect,
    ring_semidirect,
)
from ualgebra.varieties import REGISTRY, check_identities


NEG3 = (0, 2, 1)  # inversion of Z3
ID3 = (0, 1, 2)


def test_z3_by_z2_nontrivial_is_s3():
    G = group_semidirect(cyclic_group(3), cyclic_group(2), (ID3, NEG3))
    assert find_isomorphism(G, symmetric_group_s3()) is not None


def test_z3_by_z2_trivial_is_z6():
    G = group_semidirect(cyclic_group(3), cyclic_group(2), (ID3, ID3))
    assert find_isomorphism(G, cyclic_group(6)) is not None


def test_z4_by_z2_inversion_is_dihedral():
    inv4 = (0, 3, 2, 1)
    G = group_semidirect(cyclic_group(4), cyclic_group(2), ((0, 1, 2, 3), inv4))
    assert check_identities(G, REGISTRY["group"]).passes
    assert find_isomorphism(G, dihedral_group(4)) is not None


def test_group_semidirect_validates_action():
    with pytest.raises(NotAutomorphism):
        group_semidirect(cyclic_group(3), cyclic_group(2), (ID3, (0, 0, 0)))
    with pytest.raises(NotAnAction):
        # both maps automorphisms but phi not multiplicative: phi_1 = neg
        # with phi_0 = neg as well fails phi(0) = id
        group_semidirect(cyclic_group(3), cyclic_group(2), (NEG3, NEG3))


@pytest.mark.parametrize("build", [group_semidirect, group_data_from_action])
@pytest.mark.parametrize(
    "phi, error, message",
    [
        ((ID3,), NotAnAction, "one automorphism per element of B required"),
        ((ID3, ID3, ID3), NotAnAction, "one automorphism per element of B required"),
        ((ID3, (0, 1)), NotAutomorphism, "phi[1] is not a table on N"),
        ((ID3, (0, 2, 3)), NotAutomorphism, "phi[1] is not a table on N"),
    ],
)
def test_malformed_phi_is_rejected_before_any_table_is_read(build, phi, error, message):
    with pytest.raises(error, match=re.escape(message)):
        build(cyclic_group(3), cyclic_group(2), phi)


def test_data_from_an_invalid_well_shaped_phi_fails_condition_1():
    with pytest.raises(ConditionViolation) as info:
        group_data_from_action(cyclic_group(3), cyclic_group(2), (NEG3, NEG3))
    assert info.value.condition == "1"


def test_semidirect_contains_the_expected_subgroups():
    G = group_semidirect(cyclic_group(3), cyclic_group(2), (ID3, NEG3))
    # {1} x B and N x {1} under the (k, y) -> k*|B| + y encoding
    b_part = frozenset(0 * 2 + y for y in range(2))
    n_part = frozenset(k * 2 + 0 for k in range(3))
    report = group_inner_equivalences(G, n_part, b_part)
    assert report.holds


def test_group_inner_equivalences_s3():
    s3 = symmetric_group_s3()
    report = group_inner_equivalences(s3, {0, 3, 4}, {0, 1})
    assert (report.a, report.b, report.c, report.d, report.e, report.f) == (True,) * 6


def test_group_inner_equivalences_failing_case():
    z4 = cyclic_group(4)
    report = group_inner_equivalences(z4, {0, 2}, {0, 2})
    assert not any((report.a, report.b, report.c, report.d, report.e, report.f))


def test_group_inner_equivalences_trivial_case():
    for G in [cyclic_group(4), symmetric_group_s3()]:
        report = group_inner_equivalences(G, {0}, set(G.elements))
        assert report.holds


def test_group_inner_equivalences_requires_normality():
    s3 = symmetric_group_s3()
    with pytest.raises(NotNormal):
        group_inner_equivalences(s3, {0, 1}, {0, 3, 4})


def test_group_inner_equivalences_rejects_subsets_outside_the_carrier():
    with pytest.raises(SizeMismatch, match="outside the carrier"):
        group_inner_equivalences(cyclic_group(5), (0, 9), (0,))
    with pytest.raises(SizeMismatch, match="outside the carrier"):
        group_inner_equivalences(cyclic_group(5), (0,), (0, -1))


def test_every_inner_group_decomposition_passes_the_six_conditions():
    from ualgebra.inner import decomposition_from_idempotent, idempotent_endomorphisms

    for G in [cyclic_group(4), cyclic_group(6), klein_group(), symmetric_group_s3()]:
        one = G.table("e")[0]
        for e in idempotent_endomorphisms(G):
            dec = decomposition_from_idempotent(G, e)
            K = frozenset(x for x in G.elements if e(x) == one)
            report = group_inner_equivalences(G, K, dec.B)
            assert report.holds


def test_data_from_action_and_back_roundtrips():
    n3, z2 = cyclic_group(3), cyclic_group(2)
    for phi in [(ID3, ID3), (ID3, NEG3)]:
        data = group_data_from_action(n3, z2, phi)
        gamma = group_action_from_data(data)
        assert gamma == {0: phi[0], 1: phi[1]}
        again = group_data_from_action(n3, z2, tuple(gamma[b] for b in range(2)))
        assert again == data


def test_data_roundtrip_over_all_small_actions():
    groups = [cyclic_group(2), cyclic_group(3), cyclic_group(4), klein_group()]
    for N in groups:
        auts = automorphism_group(N)
        for B in groups:
            # all homomorphisms B -> Aut(N) by brute force over tuples
            from itertools import product as iproduct

            mul = B.table("m")
            for choice in iproduct(range(len(auts)), repeat=B.size):
                ok = all(
                    tuple(auts[choice[a]][auts[choice[b]][x]] for x in range(N.size))
                    == auts[choice[mul[a * B.size + b]]]
                    for a in range(B.size)
                    for b in range(B.size)
                )
                if not ok:
                    continue
                phi = tuple(auts[i] for i in choice)
                data = group_data_from_action(N, B, phi)
                gamma = group_action_from_data(data)
                assert tuple(gamma[b] for b in range(B.size)) == phi


def test_trivial_action_collapses_g_to_multiplication():
    n3, z2 = cyclic_group(3), cyclic_group(2)
    data = group_data_from_action(n3, z2, (ID3, ID3))
    mul = n3.table("m")
    for b1 in range(2):
        for b2 in range(2):
            assert data.g_table(b1, b2) == mul


def test_data_from_inner_s3_recovers_conjugation():
    s3 = symmetric_group_s3()
    K, Y = {0, 3, 4}, {0, 1}
    data = group_data_from_inner(s3, K, Y)
    gamma = group_action_from_data(data)
    expected = conjugation_action(s3, K, Y)
    assert tuple(gamma[b] for b in range(2)) == expected


def test_data_from_inner_rejects_a_pair_that_does_not_decompose():
    # {0,2} is normal in Z4 but meets itself in more than the identity
    with pytest.raises(DecompositionInvalid):
        group_data_from_inner(cyclic_group(4), {0, 2}, {0, 2})


def test_inner_data_tables_match_the_displayed_formula():
    s3 = symmetric_group_s3()
    data = group_data_from_inner(s3, {0, 3, 4}, {0, 1})
    # g_(b1,b2)(n1,n2) = n1 * gamma_b1(n2) per the extracted action
    gamma = group_action_from_data(data)
    N = data.N
    for b1 in range(2):
        for b2 in range(2):
            table = data.g_table(b1, b2)
            for n1 in range(3):
                for n2 in range(3):
                    expected = N.apply("m", (n1, gamma[b1][n2]))
                    assert table[n1 * 3 + n2] == expected


def test_ring_semidirect_with_identity_actions():
    z2 = cyclic_ring(2)
    ident = (0, 1)
    zero = (0, 0)
    pair = RingActionPair(z2, z2, (zero, ident), (zero, ident))
    R = ring_semidirect(pair)
    assert R.size == 4
    assert check_identities(R, REGISTRY["ring"]).passes


def test_ring_semidirect_zero_actions_give_the_direct_sum():
    z2 = cyclic_ring(2)
    zero = (0, 0)
    pair = RingActionPair(z2, z2, (zero, zero), (zero, zero))
    R = ring_semidirect(pair)
    from ualgebra.algebras import product

    assert R.tables == product(z2, z2).tables


def test_ring_semidirect_rejects_broken_rho():
    z2 = cyclic_ring(2)
    ident = (0, 1)
    zero = (0, 0)
    broken = (1, 0)  # swaps the entries of the zero map
    with pytest.raises(CompatibilityViolation):
        ring_semidirect(RingActionPair(z2, z2, (zero, ident), (zero, broken)))


def test_ring_semidirect_recovers_the_factors_as_subrings():
    z2 = cyclic_ring(2)
    ident = (0, 1)
    zero = (0, 0)
    R = ring_semidirect(RingActionPair(z2, z2, (zero, ident), (zero, ident)))
    # K x {0} and {0} x S with the pair encoding k*|S| + s
    from ualgebra.algebras import subalgebra_as_algebra

    left, _ = subalgebra_as_algebra(R, {0, 2})
    right, _ = subalgebra_as_algebra(R, {0, 1})
    assert left.tables == z2.tables
    assert right.tables == z2.tables


def test_ring_semidirect_with_asymmetric_actions():
    # zero multiplication on K makes lambda = id, rho = 0 compatible and the
    # resulting four-element ring non-commutative
    K = zero_ring(2)
    S = cyclic_ring(2)
    zero = (0, 0)
    ident = (0, 1)
    R = ring_semidirect(RingActionPair(K, S, (zero, ident), (zero, zero)))
    assert check_identities(R, REGISTRY["ring"]).passes
    mul = R.table("mul")
    assert any(mul[a * R.size + b] != mul[b * R.size + a] for a in range(4) for b in range(4))


def test_group_inner_equivalences_dihedral_non_split_center():
    # every order-4 subgroup of the dihedral group of order 8 contains the
    # center, so the center has no complement
    d4 = dihedral_group(4)
    center = {0, 4}  # rotations r^0 and r^2 under the 2k encoding
    assert {g for g in center} == {0, 4}
    from ualgebra.algebras import generated_subalgebra

    order4 = [
        frozenset(s)
        for mask in range(1, 2**8)
        for s in [frozenset(i for i in range(8) if mask >> i & 1)]
        if len(s) == 4 and generated_subalgebra(d4, s) == s
    ]
    assert order4
    for Y in order4:
        report = group_inner_equivalences(d4, frozenset(center), Y)
        assert not report.holds


def test_group_inner_equivalences_dihedral_split():
    d4 = dihedral_group(4)
    rotations = frozenset({0, 2, 4, 6})
    reflection = frozenset({0, 1})
    report = group_inner_equivalences(d4, rotations, reflection)
    assert report.holds


def test_zero_ring_actions():
    z4 = zero_ring(4)
    z2 = cyclic_ring(2)
    zero4 = (0, 0, 0, 0)
    pair = RingActionPair(z4, z2, (zero4, zero4), (zero4, zero4))
    R = ring_semidirect(pair)
    assert check_identities(R, REGISTRY["ring"]).passes


def _last_action(N, B):
    """The last homomorphism B -> Aut(N), choices in lexicographic order:
    a nontrivial action where one exists."""
    auts = automorphism_group(N)
    mul = B.table("m")
    last = None
    for choice in iproduct(range(len(auts)), repeat=B.size):
        if all(
            tuple(auts[choice[a]][x] for x in auts[choice[b]]) == auts[choice[mul[a * B.size + b]]]
            for a in range(B.size)
            for b in range(B.size)
        ):
            last = tuple(auts[i] for i in choice)
    return last


def _condition_failure(data):
    try:
        groups._check_51_conditions(data)
    except ConditionViolation as error:
        return error.condition, error.witness
    return None


CATALOG_PAIRS = [
    (cyclic_group(4), cyclic_group(2)),
    (klein_group(), cyclic_group(2)),
    (cyclic_group(3), cyclic_group(2)),
    (cyclic_group(2), cyclic_group(2)),
    (cyclic_group(4), cyclic_group(4)),
    (klein_group(), cyclic_group(3)),
]


@pytest.mark.parametrize("N, B", CATALOG_PAIRS, ids=lambda G: G.name)
def test_condition_witnesses_match_the_lookup_loop_under_every_one_entry_change(N, B):
    data = group_data_from_action(N, B, _last_action(N, B))
    assert _condition_failure(data) is None
    assert first_group_condition_failure(N, B, data._g_lookup, data.h) is None
    one, top = N.table("e")[0], B.size - 1
    g, h = dict(data.g), list(data.h)
    seen = set()
    for i, v in iproduct(range(N.size**2), range(N.size)):
        if i == one * N.size + one or v == g[(top, top)][i]:
            continue  # the pointed entry stays, or GroupSDPData refuses the data
        changed = dict(g)
        changed[(top, top)] = g[(top, top)][:i] + (v,) + g[(top, top)][i + 1 :]
        failure = first_group_condition_failure(N, B, changed, h)
        assert _condition_failure(GroupSDPData.build(N, B, changed, h)) == failure
        seen.add(failure and failure[0])
    for i, v in iproduct(range(N.size), range(N.size)):
        if i == one or v == h[top][i]:
            continue
        changed = h[:top] + [h[top][:i] + (v,) + h[top][i + 1 :]]
        failure = first_group_condition_failure(N, B, g, changed)
        assert _condition_failure(GroupSDPData.build(N, B, g, changed)) == failure
        seen.add(failure and failure[0])
    assert None not in seen and "1" in seen and "3" in seen
