import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from ualgebra import varieties
from ualgebra.algebras import FiniteAlgebra
from ualgebra.catalog import (
    chain_lattice,
    cyclic_group,
    cyclic_heap,
    cyclic_ring,
    diamond_lattice,
    dihedral_group,
    klein_group,
    left_zero_semigroup,
    mult_semigroup,
    quaternion_group,
    subtraction_algebra,
    symmetric_group_s3,
    zero_ring,
)
from ualgebra.digroups import all_digroups, trivial_digroup
from ualgebra.errors import SignatureMismatch, UAError
from ualgebra.terms import Identity, eval_block, parse_identity
from ualgebra.varieties import (
    BLOCK_SIZE,
    GROUP_SIG,
    HEAP_SIG,
    REGISTRY,
    TRUSS_SIG,
    IdentityReport,
    VarietySpec,
    check_identities,
    emit_variety,
    get_variety,
    parse_varieties,
    satisfies,
)

from oracles import UnreadTable, first_identity_failure


def test_z4_passes_group_variety():
    assert check_identities(cyclic_group(4), REGISTRY["group"]).passes


def test_subtraction_fails_associativity_with_first_witness():
    report = check_identities(subtraction_algebra(3), REGISTRY["semigroup"])
    assert not report.passes
    # (0-0)-1 = 2 but 0-(0-1) = 1: the lexicographically first failure
    assert report.witness.assignment == (0, 0, 1)
    assert {report.witness.lhs_value, report.witness.rhs_value} == {1, 2}


def test_singleton_satisfies_everything_in_signature():
    one = cyclic_group(1)
    assert satisfies(one, REGISTRY["group"])
    assert satisfies(one, REGISTRY["abelian_group"])


def test_a_one_element_algebra_satisfies_every_variety_in_one_row_blocks():
    # on one element every block has one row, so both sides of every
    # identity are one-row columns, and they must compare as equal
    for V in REGISTRY.values():
        symbols = V.signature.symbols
        one = FiniteAlgebra("one", V.signature, 1, tuple((0,) for _ in symbols))
        assert check_identities(one, V) == IdentityReport(True), V.name


def test_standard_algebras_land_in_their_varieties():
    assert satisfies(cyclic_ring(4), REGISTRY["ring"])
    assert satisfies(chain_lattice(3), REGISTRY["lattice"])
    assert satisfies(diamond_lattice(), REGISTRY["lattice"])
    assert satisfies(mult_semigroup(4), REGISTRY["semigroup"])
    assert satisfies(cyclic_heap(5), REGISTRY["heap"])
    assert not satisfies(symmetric_group_s3(), REGISTRY["abelian_group"])


def test_check_identities_agrees_with_independent_double_loop():
    from itertools import product as iproduct

    from ualgebra.terms import eval_term

    for A, spec_name in [
        (cyclic_group(4), "group"),
        (subtraction_algebra(3), "semigroup"),
        (chain_lattice(3), "lattice"),
    ]:
        V = REGISTRY[spec_name]
        expected = all(
            eval_term(ident.lhs, A, assignment) == eval_term(ident.rhs, A, assignment)
            for ident in V.identities + V.quasi_conditions
            for assignment in iproduct(range(A.size), repeat=ident.var_count)
        )
        assert check_identities(A, V).passes == expected


def test_signature_mismatch_raises():
    with pytest.raises(SignatureMismatch):
        check_identities(chain_lattice(2), REGISTRY["group"])


def test_registry_contents():
    expected = {
        "semigroup",
        "monoid",
        "group",
        "abelian_group",
        "ring",
        "lattice",
        "heap",
        "digroup",
        "skew_brace",
        "left_near_truss",
        "right_near_truss",
    }
    assert expected <= set(REGISTRY)


def test_quasi_conditions_checked_after_identities():
    brace = REGISTRY["skew_brace"]
    assert brace.quasi_conditions
    # a group viewed as a trivial digroup satisfies the brace condition
    from ualgebra.digroups import trivial_digroup

    D = trivial_digroup(symmetric_group_s3())
    assert check_identities(D.algebra, brace).passes


def test_identity_failures_are_reported_before_quasi_failures():
    # a table violating both the primary identities and the quasi condition
    # must witness the primary failure first
    from ualgebra.digroups import trivial_digroup
    from ualgebra.algebras import FiniteAlgebra

    brace = REGISTRY["skew_brace"]
    good = trivial_digroup(symmetric_group_s3()).algebra
    tables = list(good.tables)
    broken = list(tables[0])
    broken[1], broken[2] = broken[2], broken[1]  # break associativity of star
    tables[0] = tuple(broken)
    bad = FiniteAlgebra("bad", good.signature, good.size, tuple(tables))
    report = check_identities(bad, brace)
    assert not report.passes
    assert report.witness.quasi is False


def test_variety_file_roundtrip():
    text = emit_variety(REGISTRY["group"])
    parsed = parse_varieties(text)["group"]
    assert parsed.signature == REGISTRY["group"].signature
    assert parsed.identities == REGISTRY["group"].identities


def test_parse_varieties_wraps_only_library_errors(monkeypatch):
    # a stray exception of the identity parser is a bug and propagates as is
    def failing(*args):
        raise ValueError("stray")

    monkeypatch.setattr(varieties, "parse_identity", failing)
    with pytest.raises(ValueError, match="^stray$"):
        parse_varieties(emit_variety(REGISTRY["group"]))


def test_get_variety_unknown():
    with pytest.raises(UAError, match=r"^unknown variety 'nope'$"):
        get_variety("nope")


# -- the block scan against the one-assignment-at-a-time oracle ---------------


def _report_tuple(A, V):
    report = check_identities(A, V)
    w = report.witness
    if report.passes:
        assert w is None
        return None
    return w.identity, w.assignment, w.lhs_value, w.rhs_value, w.quasi


def _agrees_with_oracle(A, V):
    got = _report_tuple(A, V)
    assert got == first_identity_failure(A, V), (A.name, V.name)
    if got is not None:
        assert all(type(v) is int for v in got[1] + got[2:4])
    return got


def _fits(A, V):
    return all(sym in A.signature and A.signature.arity(sym) == k for sym, k in V.signature.symbols)


def _random_algebra(rng, sig, n, name="random"):
    tables = tuple(tuple(rng.randrange(n) for _ in range(n**k)) for _, k in sig.symbols)
    return FiniteAlgebra(name, sig, n, tables)


def _perturbed(rng, A):
    """A with one table entry overwritten: mostly a late or no failure."""
    tables = [list(t) for t in A.tables]
    table = rng.choice(tables)
    table[rng.randrange(len(table))] = rng.randrange(A.size)
    return FiniteAlgebra(A.name + "'", A.signature, A.size, tuple(map(tuple, tables)))


def _genuine_corpus():
    corpus = [
        *(cyclic_group(n) for n in range(1, 7)),
        klein_group(),
        symmetric_group_s3(),
        dihedral_group(4),
        quaternion_group(),
        cyclic_ring(4),
        zero_ring(3),
        chain_lattice(3),
        diamond_lattice(),
        mult_semigroup(4),
        left_zero_semigroup(3),
        subtraction_algebra(3),
        *(cyclic_heap(n) for n in range(1, 7)),
        trivial_digroup(symmetric_group_s3()).algebra,
    ]
    corpus += [D.algebra for n in (1, 2, 3, 4) for D in all_digroups(n)]
    return corpus


def test_every_variety_on_random_tables_agrees_with_the_oracle():
    rng = random.Random(4)
    failures = 0
    for V in REGISTRY.values():
        for n in range(1, 7):
            for _ in range(3):
                failures += _agrees_with_oracle(_random_algebra(rng, V.signature, n), V) is not None
    assert failures > 0


def test_genuine_and_perturbed_catalog_algebras_agree_with_the_oracle():
    rng = random.Random(5)
    outcomes = set()
    for A in _genuine_corpus():
        for B in [A] + [_perturbed(rng, A) for _ in range(3)]:
            for V in REGISTRY.values():
                if _fits(B, V):
                    outcomes.add(_agrees_with_oracle(B, V) is None)
                else:
                    with pytest.raises(SignatureMismatch):
                        check_identities(B, V)
    assert outcomes == {True, False}


def test_quasi_condition_failure_matches_the_oracle():
    brace = REGISTRY["skew_brace"]
    witnesses = [_agrees_with_oracle(D.algebra, brace) for D in all_digroups(4)]
    assert any(w is not None and w[4] for w in witnesses)


def test_heaps_past_the_byte_lanes_and_a_carrier_past_the_bytes_agree_with_the_oracle():
    # the ternary t of a heap of order 7-12 has 256 < n^3 <= 256 * n entries,
    # so its nodes read one translation window per value of their first
    # argument; order 17 takes the list path over lists
    rng = random.Random(21)
    heap = REGISTRY["heap"]
    outcomes = set()
    for n in (7, 8, 9, 10, 12):
        for X in [cyclic_heap(n)] + [_perturbed(rng, cyclic_heap(n)) for _ in range(2)]:
            outcomes.add(_agrees_with_oracle(X, heap) is None)
    assert outcomes == {True, False}
    group = REGISTRY["group"]
    assert _agrees_with_oracle(cyclic_group(17), group) is None
    for _ in range(3):
        assert _agrees_with_oracle(_perturbed(rng, cyclic_group(17)), group) is not None


def test_the_z8_heap_check_reads_its_table_through_the_windows_alone():
    heap = REGISTRY["heap"]
    rng = random.Random(8)
    witnesses = []
    for X in [cyclic_heap(8)] + [_perturbed(rng, cyclic_heap(8)) for _ in range(2)]:
        expected = first_identity_failure(X, heap)
        assert len(X.byte_tables[0]) == 8
        object.__setattr__(X, "tables", tuple(map(UnreadTable, X.tables)))
        assert _report_tuple(X, heap) == expected
        witnesses.append(expected)
    assert witnesses[0] is None and None not in witnesses[1:]


def test_witness_in_a_later_block():
    # Z9 as a heap, with m(a, y) = 0 for a = 0 and the indicator of y != 0
    # otherwise: the heap laws and associativity of m hold, left
    # distributivity first fails at x0 = 1, past the 9^3 assignments of x0 = 0
    n = 9
    heap = cyclic_heap(n).tables[0]
    mul = tuple(0 if a == 0 else int(y != 0) for a in range(n) for y in range(n))
    X = FiniteAlgebra("z9_truss", TRUSS_SIG, n, (heap, mul))
    V = REGISTRY["left_near_truss"]
    assert n**4 > BLOCK_SIZE
    witness = _agrees_with_oracle(X, V)
    assert witness[0] == V.identities[-1] and witness[1] == (1, 0, 1, 0)


def test_zero_variable_identities_and_unused_quantified_variables():
    idempotent = parse_identity("m(x0,x0) = x0", GROUP_SIG)
    spec = VarietySpec(
        "padded",
        GROUP_SIG,
        (
            parse_identity("m(e,e) = e", GROUP_SIG),
            # quantified over five variables but using only x0: the first
            # failure, x0 = 1 and the rest 0, lies in the second block of 6^4
            Identity(idempotent.lhs, idempotent.rhs, var_count=5),
        ),
    )
    assert _agrees_with_oracle(cyclic_group(6), spec)[1:] == ((1, 0, 0, 0, 0), 2, 1, False)
    constant = VarietySpec("constant", GROUP_SIG, (parse_identity("m(e,e) = i(e)", GROUP_SIG),))
    # Z3 with unit 1 and the identity map as inversion: m(e,e) = 2, i(e) = 1
    broken = FiniteAlgebra("broken", GROUP_SIG, 3, (cyclic_group(3).tables[0], (0, 1, 2), (1,)))
    assert _agrees_with_oracle(broken, constant)[1:] == ((), 2, 1, False)
    assert _agrees_with_oracle(cyclic_group(3), constant) is None


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_check_identities_matches_the_oracle(data):
    V = data.draw(st.sampled_from(sorted(REGISTRY.values(), key=lambda v: v.name)))
    n = data.draw(st.integers(1, 6))
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    A = _random_algebra(rng, V.signature, n)
    _agrees_with_oracle(A, V)
    if V.signature == HEAP_SIG:
        _agrees_with_oracle(_perturbed(rng, cyclic_heap(n)), V)


def test_heap_scan_stays_within_its_block_memory():
    X = cyclic_heap(12)
    V = REGISTRY["heap"]
    tracemalloc.start()
    try:
        assert check_identities(X, V).passes
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # whole 12^5 columns would take tens of MiB
    assert peak < 2 * 2**20


@pytest.mark.parametrize("n, lengths", [(1, {1}), (8, {8**2, 8**4}), (12, {12**2, 12**3})])
def test_blocks_are_the_largest_power_of_n_within_the_block_size(monkeypatch, n, lengths):
    seen = set()

    def recording(t, A, columns, length):
        assert all(len(column) == length for column in columns)
        seen.add(length)
        return eval_block(t, A, columns, length)

    monkeypatch.setattr(varieties, "eval_block", recording)
    assert check_identities(cyclic_heap(n), REGISTRY["heap"]).passes
    assert seen == lengths and max(seen) <= BLOCK_SIZE
