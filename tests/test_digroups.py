import hashlib
from itertools import permutations, product as iproduct

import pytest
from oracles import (
    antimultiplicative_by_loops,
    digroup_outer_tables,
    is_automorphism_by_scan,
    product_tables,
)

from ualgebra import digroups
from ualgebra.algebras import find_isomorphism, product
from ualgebra.catalog import cyclic_group, symmetric_group_s3
from ualgebra.digroups import (
    Digroup,
    DigroupActionTriple,
    all_digroups,
    all_ideals,
    all_skew_braces,
    brace_center,
    brace_commutator,
    brace_ideal_generated,
    circ_reduct,
    digroup_direct_criterion,
    digroup_extract_actions,
    digroup_from_tables,
    digroup_inner_report,
    digroup_outer,
    ideal_partition,
    is_ideal,
    is_subdigroup,
    pair_identities,
    skew_brace_check,
    skew_brace_outer_condition,
    skew_brace_reflection,
    star_reduct,
    sub_digroup,
    trivial_digroup,
    trivial_triple,
)
from ualgebra.errors import (
    AxiomFailure,
    HypothesisViolation,
    InternalInconsistency,
    NotIdeal,
    SizeLimitExceeded,
    SizeMismatch,
)
from ualgebra.varieties import REGISTRY, check_identities

def klein_z4_digroup() -> Digroup:
    """Star = Z4, circ = the Klein table on the same carrier, identity 0."""
    z4 = cyclic_group(4).table("m")
    klein = tuple(((a >> 1) ^ (b >> 1)) << 1 | ((a & 1) ^ (b & 1)) for a in range(4) for b in range(4))
    return digroup_from_tables(z4, klein, "z4_klein")


def test_digroup_from_tables_validates():
    D = klein_z4_digroup()
    assert D.one == 0
    assert check_identities(D.algebra, REGISTRY["digroup"]).passes
    z4 = cyclic_group(4).table("m")
    shifted = tuple((a + b + 1) % 4 for a in range(4) for b in range(4))  # identity 3
    with pytest.raises(AxiomFailure):
        digroup_from_tables(z4, shifted)


@pytest.mark.parametrize(
    "star, circ, error",
    [((0, 1, 1, 1), (0, 1, 1, 1), AxiomFailure), ((0, 1, 1, 0), (0,), SizeMismatch)],
)
def test_digroup_from_tables_refuses_tables_that_are_no_digroup(star, circ, error):
    # a row without the identity, and a circ table on another carrier
    with pytest.raises(error):
        digroup_from_tables(star, circ)


def test_the_census_trusts_the_catalog_and_digroup_from_tables_validates(monkeypatch):
    # every table of `all_group_tables` is a group with identity 0
    # (tests/test_catalog.py), so the census joins them unchecked
    calls = []
    honest = digroups.check_identities
    monkeypatch.setattr(digroups, "check_identities", lambda *a: calls.append(a) or honest(*a))
    assert all_digroups.__wrapped__(4) == all_digroups(4)
    assert calls == []
    klein_z4_digroup()
    assert len(calls) == 1


def test_trivial_digroup_on_s3():
    D = trivial_digroup(symmetric_group_s3())
    assert skew_brace_check(D).lsb  # the identity reduces to associativity
    assert is_subdigroup(D, {0, 1})
    assert is_ideal(D, {0, 3, 4})
    assert not is_ideal(D, {0, 1})


def test_digroup_inner_report_rejects_subsets_outside_the_carrier():
    D = trivial_digroup(symmetric_group_s3())
    with pytest.raises(SizeMismatch, match="outside the carrier"):
        digroup_inner_report(D, (0, 9), (0,))
    with pytest.raises(SizeMismatch, match="outside the carrier"):
        digroup_inner_report(D, (0,), (0, 6))


def test_ideal_partition_matches_cosets():
    D = trivial_digroup(symmetric_group_s3())
    part = ideal_partition(D, {0, 3, 4})
    assert sorted(part.blocks()) == [(0, 3, 4), (1, 2, 5)]


def test_digroup_inner_report_s3():
    D = trivial_digroup(symmetric_group_s3())
    report = digroup_inner_report(D, {0, 1}, {0, 3, 4})
    assert report.conditions == (True,) * 7
    assert report.factorization_formulas


def test_digroup_inner_report_trivial_and_failing():
    D = trivial_digroup(cyclic_group(4))
    assert digroup_inner_report(D, {0}, set(range(4))).holds
    report = digroup_inner_report(D, {0, 2}, {0, 2})
    assert report.conditions == (False,) * 7
    assert report.factorization_formulas is None


def test_inner_report_requires_ideal():
    D = trivial_digroup(symmetric_group_s3())
    with pytest.raises(NotIdeal):
        digroup_inner_report(D, {0, 3, 4}, {0, 1})


def test_outer_trivial_triple_is_direct_product():
    Y = trivial_digroup(cyclic_group(2))
    K = trivial_digroup(cyclic_group(3))
    triple = trivial_triple(Y, K)
    D = digroup_outer(triple)
    assert D.n == 6
    assert digroup_direct_criterion(triple)
    assert D.algebra.tables == product(Y.algebra, K.algebra).tables


def test_outer_with_conjugation_style_action():
    Y = trivial_digroup(cyclic_group(2))
    K = trivial_digroup(cyclic_group(3))
    neg = (0, 2, 1)
    ident = (0, 1, 2)
    triple = DigroupActionTriple(Y, K, (ident, neg), (ident, neg), (ident, ident))
    D = digroup_outer(triple)
    s3 = symmetric_group_s3()
    from ualgebra.digroups import circ_reduct, star_reduct

    assert find_isomorphism(star_reduct(D), s3) is not None
    assert find_isomorphism(circ_reduct(D), s3) is not None
    assert not digroup_direct_criterion(triple)
    assert pair_identities(triple, D) == (True, True, True, True)


def test_outer_with_nontrivial_lambda_only():
    Y = trivial_digroup(cyclic_group(2))
    K = trivial_digroup(cyclic_group(3))
    ident = (0, 1, 2)
    neg = (0, 2, 1)
    triple = DigroupActionTriple(Y, K, (ident, ident), (ident, ident), (ident, neg))
    D = digroup_outer(triple)
    assert check_identities(D.algebra, REGISTRY["digroup"]).passes
    # the two reducts now differ
    assert D.algebra.tables[0] != D.algebra.tables[2]
    assert pair_identities(triple, D) == (True, True, True, True)
    assert not digroup_direct_criterion(triple)


def test_outer_accepts_lambda_that_moves_the_unit():
    # a permutation family pointed only at 1_Y still yields a digroup, but
    # the mixed-pair identities 3 and 4 fail
    Y = trivial_digroup(cyclic_group(2))
    K = trivial_digroup(cyclic_group(3))
    ident = (0, 1, 2)
    cycle = (1, 2, 0)  # does not fix K's identity
    triple = DigroupActionTriple(Y, K, (ident, ident), (ident, ident), (ident, cycle))
    D = digroup_outer(triple)
    assert check_identities(D.algebra, REGISTRY["digroup"]).passes
    flags = pair_identities(triple, D)
    assert flags[0] and flags[1]
    assert not flags[2] and not flags[3]


def test_direct_criterion_needs_lambda_to_fix_the_unit():
    # a valid triple whose outer tables are those of the direct product,
    # though Lambda swaps K's two elements: the criterion cannot say True,
    # so it refuses the triple before building anything
    Y = K = trivial_digroup(cyclic_group(2))
    ident, swap = (0, 1), (1, 0)
    triple = DigroupActionTriple(Y, K, (ident, ident), (ident, ident), (ident, swap))
    assert digroup_outer(triple).algebra.tables == product(Y.algebra, K.algebra).tables
    assert not triple.lambda_fixes_unit()
    with pytest.raises(HypothesisViolation, match="fix K's unit"):
        digroup_direct_criterion(triple)
    # a malformed triple is refused by the triple's own validation
    with pytest.raises(HypothesisViolation, match="one table per element of Y"):
        digroup_direct_criterion(DigroupActionTriple(Y, K, (ident, ident), (ident, ident), (ident,)))


def _unit_fixing_triples(Y, K):
    """Every triple over (Y, K) whose three families fix K's unit and are
    the identity at Y's, with its validity by the oracles' own scans: phi_star
    and phi_circ automorphisms of the reducts, antimultiplicative over Y."""
    ident = tuple(range(K.n))
    rows = [p for p in permutations(range(K.n)) if p[K.one] == K.one]
    others = [y for y in range(Y.n) if y != Y.one]
    reducts = (star_reduct(K), circ_reduct(K))
    for choice in iproduct(rows, repeat=3 * len(others)):
        families = [[ident] * Y.n for _ in range(3)]
        for i, row in enumerate(choice):
            families[i // len(others)][others[i % len(others)]] = row
        valid = all(
            all(is_automorphism_by_scan(row, reduct) for row in family)
            and antimultiplicative_by_loops(family, Y.algebra.table(symbol), Y.n)
            for family, reduct, symbol in zip(families, reducts, ("star", "circ"))
        )
        yield DigroupActionTriple(Y, K, *families), valid


def test_direct_criterion_is_the_table_comparison_on_every_small_triple():
    # the oracle's answer: do the outer tables, by formula, equal the product's?
    valid = direct = 0
    for ny, nk in iproduct((1, 2), (1, 2, 3, 4)):
        for Y, K in iproduct(all_digroups(ny), all_digroups(nk)):
            for triple, is_valid in _unit_fixing_triples(Y, K):
                if not is_valid:
                    with pytest.raises(HypothesisViolation):
                        digroup_direct_criterion(triple)
                    continue
                expected = digroup_outer_tables(
                    Y.algebra, K.algebra, triple.phi_star, triple.phi_circ, triple.Lambda
                ) == product_tables(Y.algebra, K.algebra)
                assert digroup_direct_criterion(triple) == expected
                valid += 1
                direct += expected
    # the identity triple is the only direct one of each of the 16 pairs
    assert (valid, direct) == (258, 16)


def test_direct_criterion_builds_no_digroup(monkeypatch):
    # the criterion reads the action tables, so it runs no digroup axiom check
    Y = trivial_digroup(cyclic_group(2))
    K = trivial_digroup(cyclic_group(3))
    ident, neg = (0, 1, 2), (0, 2, 1)
    twisted = DigroupActionTriple(Y, K, (ident, neg), (ident, neg), (ident, neg))

    def failing(*args):
        raise AssertionError("check_identities called")

    monkeypatch.setattr(digroups, "check_identities", failing)
    assert digroup_direct_criterion(trivial_triple(Y, K))
    assert not digroup_direct_criterion(twisted)


def test_outer_digroup_failing_its_axioms_is_an_internal_inconsistency(monkeypatch):
    # every hypothesis held, so a failed axiom check contradicts the theorem
    Y = trivial_digroup(cyclic_group(2))
    K = trivial_digroup(cyclic_group(3))
    monkeypatch.setattr(digroups, "satisfies", lambda *args: False)
    with pytest.raises(InternalInconsistency, match="must be a digroup"):
        digroup_outer(trivial_triple(Y, K))


def test_outer_rejects_bad_hypotheses():
    Y = trivial_digroup(cyclic_group(2))
    K = trivial_digroup(cyclic_group(3))
    ident = (0, 1, 2)
    with pytest.raises(HypothesisViolation):
        DigroupActionTriple(Y, K, (ident, (0, 0, 0)), (ident, ident), (ident, ident))
        digroup_outer(
            DigroupActionTriple(Y, K, (ident, (0, 0, 0)), (ident, ident), (ident, ident))
        )
    with pytest.raises(HypothesisViolation):
        # Lambda not pointed at the identity of Y
        digroup_outer(DigroupActionTriple(Y, K, (ident, ident), (ident, ident), ((0, 2, 1), ident)))


def test_outer_rejects_out_of_range_lambda_entries():
    # (0, 1, 5) has three distinct entries but is no permutation of K
    Y = trivial_digroup(cyclic_group(2))
    K = trivial_digroup(cyclic_group(3))
    ident = (0, 1, 2)
    with pytest.raises(HypothesisViolation):
        digroup_outer(DigroupActionTriple(Y, K, (ident, ident), (ident, ident), (ident, (0, 1, 5))))


def test_a_malformed_triple_is_refused_on_every_call():
    # errors are not memoized: each call validates the triple again
    Y = trivial_digroup(cyclic_group(2))
    K = trivial_digroup(cyclic_group(3))
    ident, neg = (0, 1, 2), (0, 2, 1)
    malformed = [
        (DigroupActionTriple(Y, K, (ident, ident), (ident, ident), (ident,)), "one table per element"),
        (
            DigroupActionTriple(Y, K, (ident, (0, 0, 0)), (ident, ident), (ident, ident)),
            r"phi_star\[1\] is not an automorphism",
        ),
        (DigroupActionTriple(Y, K, (ident, ident), (ident, ident), (neg, ident)), "Lambda at the identity"),
    ]
    for triple, message in malformed:
        for _ in range(2):
            for call in (digroup_outer, digroup_direct_criterion, skew_brace_outer_condition):
                with pytest.raises(HypothesisViolation, match=message):
                    call(triple)


def test_the_calls_on_one_triple_check_and_translate_it_once(monkeypatch):
    Y = trivial_digroup(cyclic_group(2))
    K = trivial_digroup(cyclic_group(3))
    ident, neg = (0, 1, 2), (0, 2, 1)
    triple = DigroupActionTriple(Y, K, (ident, neg), (ident, neg), (ident, neg))
    checked = []
    validate = digroups._validate_triple
    monkeypatch.setattr(digroups, "_validate_triple", lambda t: checked.append(t) or validate(t))
    digroups._digroup_data.cache_clear()
    D = digroup_outer(triple)
    assert not digroup_direct_criterion(triple)
    # its own check, and digroup_outer's inside: both read the memo
    assert skew_brace_outer_condition(triple) == skew_brace_check(D).lsb
    assert checked == [triple]
    assert digroups._digroup_data.cache_info()[:2] == (3, 1)
    # an equal triple, built anew, is the same key
    again = DigroupActionTriple(Y, K, (ident, neg), (ident, neg), (ident, neg))
    assert digroup_outer(again).algebra == D.algebra and checked == [triple]


def test_extract_actions_s3_sign_decomposition():
    D = trivial_digroup(symmetric_group_s3())
    triple, alpha = digroup_extract_actions(D, {0, 1}, {0, 3, 4})
    # trivial digroup: both conjugation families coincide and Lambda is trivial
    assert triple.phi_star == triple.phi_circ
    assert all(row == (0, 1, 2) for row in triple.Lambda)
    assert len(set(alpha)) == 6


def test_extract_actions_abelian_case_is_trivial():
    D = trivial_digroup(cyclic_group(6))
    triple, _ = digroup_extract_actions(D, {0, 3}, {0, 2, 4})
    ident = tuple(range(3))
    assert all(row == ident for row in triple.phi_star)
    assert all(row == ident for row in triple.phi_circ)
    assert all(row == ident for row in triple.Lambda)


def test_extract_actions_degenerate_base():
    D = trivial_digroup(cyclic_group(4))
    triple, alpha = digroup_extract_actions(D, {0}, set(range(4)))
    assert triple.Y.n == 1
    assert alpha == (0, 1, 2, 3)


def test_extract_actions_on_mixed_digroup():
    D = klein_z4_digroup()
    # find a proper decomposition if one exists; otherwise use the trivial one
    report = digroup_inner_report(D, {0}, set(range(4)))
    assert report.holds
    triple, alpha = digroup_extract_actions(D, {0}, set(range(4)))
    assert triple.K.n == 4


def test_prop_equivalence_sweep_over_small_digroups():
    for n in (2, 3, 4, 5, 6):
        for D in all_digroups(n):
            subs = [
                frozenset(s)
                for mask in range(1, 2**D.n)
                for s in [frozenset(i for i in range(D.n) if mask >> i & 1)]
                if is_subdigroup(D, s)
            ]
            ideals = all_ideals(D)
            for B in subs:
                for I in ideals:
                    report = digroup_inner_report(D, B, I)
                    assert len(set(report.conditions)) == 1


def test_bachi_flags_agree_on_small_corpus():
    for n in (2, 3, 4):
        for D in all_digroups(n):
            skew_brace_check(D)  # asserts lsb == lambda-morphism internally


def test_klein_z4_digroup_brace_status():
    report = skew_brace_check(klein_z4_digroup())
    assert report.lsb == report.lambda_morphism


def test_skew_brace_outer_condition_cross_check():
    Y = trivial_digroup(cyclic_group(2))
    K = trivial_digroup(cyclic_group(3))
    ident = (0, 1, 2)
    neg = (0, 2, 1)
    # all eight valid triples with Lambda a homomorphism (Y,o) -> Aut(K,*)
    outcomes = {}
    for ps in [(ident, ident), (ident, neg)]:
        for pc in [(ident, ident), (ident, neg)]:
            for lam in [(ident, ident), (ident, neg)]:
                triple = DigroupActionTriple(Y, K, ps, pc, lam)
                outcomes[(ps[1], pc[1], lam[1])] = skew_brace_outer_condition(triple)
    assert outcomes[(ident, ident, ident)] is True
    assert outcomes[(neg, ident, ident)] is True
    assert outcomes[(ident, neg, neg)] is True
    assert outcomes[(ident, ident, neg)] is False


def test_skew_brace_outer_condition_requires_braces():
    bad = next(D for D in all_digroups(4) if not skew_brace_check(D).lsb)
    Y = trivial_digroup(cyclic_group(2))
    ident4 = tuple(range(4))
    triple = DigroupActionTriple(Y, bad, (ident4, ident4), (ident4, ident4), (ident4, ident4))
    with pytest.raises(HypothesisViolation):
        skew_brace_outer_condition(triple)


def test_brace_ideal_generated():
    D = trivial_digroup(symmetric_group_s3())
    assert brace_ideal_generated(D, {0}) == {0}
    assert brace_ideal_generated(D, {3}) == {0, 3, 4}
    assert brace_ideal_generated(D, {1}) == frozenset(range(6))


def test_reflection_of_a_brace_is_itself():
    D = trivial_digroup(symmetric_group_s3())
    Q, ideal = skew_brace_reflection(D)
    assert ideal == {0}
    assert Q.n == 6


def test_reflection_of_a_non_brace_is_proper():
    bad = next(D for D in all_digroups(4) if not skew_brace_check(D).lsb)
    Q, ideal = skew_brace_reflection(bad)
    assert len(ideal) > 1
    assert skew_brace_check(Q).lsb


def test_commutator_on_trivial_braces():
    abelian = trivial_digroup(cyclic_group(4))
    everything = frozenset(range(4))
    assert brace_commutator(abelian, everything, everything) == {0}
    assert brace_center(abelian) == everything

    s3 = trivial_digroup(symmetric_group_s3())
    all6 = frozenset(range(6))
    assert brace_commutator(s3, all6, all6) == {0, 3, 4}
    assert brace_center(s3) == {0}


def test_commutator_laws_on_small_braces():
    for n in (2, 3, 4):
        for D in all_skew_braces(n):
            ideals = all_ideals(D)
            for I in ideals:
                for J in ideals:
                    assert brace_commutator(D, I, J) == brace_commutator(D, J, I)
            for I in ideals:
                for J in ideals:
                    for K in ideals:
                        jk = brace_ideal_generated(D, J | K)
                        lhs = brace_commutator(D, I, jk)
                        rhs = brace_ideal_generated(
                            D, brace_commutator(D, I, J) | brace_commutator(D, I, K)
                        )
                        assert lhs == rhs


def test_sub_digroup_relabeling():
    D = trivial_digroup(symmetric_group_s3())
    sub, members = sub_digroup(D, {0, 3, 4})
    assert members == (0, 3, 4)
    assert sub.n == 3


def test_digroup_corpus_counts():
    assert len(all_digroups(1)) == 1
    assert len(all_digroups(2)) == 1
    assert len(all_digroups(3)) == 1
    assert len(all_digroups(4)) == 5
    assert len(all_skew_braces(4)) == 4
    assert len(all_skew_braces(6)) == 6
    # orders 7 and 8; Guarnieri and Vendramin (Math. Comp. 86, 2017)
    # tabulate 1 and 47 skew braces
    assert len(all_digroups(7)) == 24
    assert len(all_digroups(8)) == 1684
    assert len(all_skew_braces(7)) == 1
    assert len(all_skew_braces(8)) == 47


def census_digest(top: int) -> str:
    """sha256 over the name and tables of each digroup of order 1..top and
    the name of each skew brace, order by order."""
    digest = hashlib.sha256()
    for n in range(1, top + 1):
        for D in all_digroups(n):
            digest.update(repr((D.algebra.name, D.algebra.tables)).encode())
        for D in all_skew_braces(n):
            digest.update(repr(D.algebra.name).encode())
    return digest.hexdigest()


def test_digroup_census_content_is_pinned():
    # names, order and tables, not only the counts
    assert census_digest(6) == "ebd469514ee830a0c02ae0c9bba574c36fa71aeafbc3c16c78eb72e5a10f7a75"


def test_digroup_enumeration_stops_at_the_catalogs_largest_order():
    with pytest.raises(SizeLimitExceeded):
        all_digroups(9)
