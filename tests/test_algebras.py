import dataclasses

import pytest

from ualgebra.algebras import (
    FiniteAlgebra,
    Homomorphism,
    all_subalgebras,
    emit_algebra,
    find_isomorphism,
    generated_subalgebra,
    is_homomorphism,
    is_subalgebra,
    parse_algebras,
    product,
    quotient,
    subalgebra_as_algebra,
)
from ualgebra.catalog import (
    chain_lattice,
    cyclic_group,
    cyclic_heap,
    groups_up_to_8,
    klein_group,
    mult_semigroup,
    symmetric_group_s3,
)
from ualgebra.congruences import kernel
from ualgebra.errors import (
    DuplicateName,
    NotACongruence,
    NotAHomomorphism,
    NotASubalgebra,
    SizeLimitExceeded,
    SizeMismatch,
    TableRangeError,
)
from ualgebra.outer import PointedFamily
from ualgebra.partitions import Partition
from ualgebra.varieties import REGISTRY, check_identities


def test_group_constructors_pass_group_identities():
    for g in [cyclic_group(1), cyclic_group(5), klein_group(), symmetric_group_s3()]:
        assert check_identities(g, REGISTRY["group"]).passes


def test_is_homomorphism_on_z4():
    z4 = cyclic_group(4)
    assert is_homomorphism(tuple(range(4)), z4, z4)
    assert is_homomorphism(tuple(2 * x % 4 for x in range(4)), z4, z4)
    assert not is_homomorphism(tuple((x + 1) % 4 for x in range(4)), z4, z4)


def test_homomorphism_constructor_validates():
    z4 = cyclic_group(4)
    with pytest.raises(NotAHomomorphism):
        Homomorphism(z4, z4, (1, 2, 3, 0))
    h = Homomorphism(z4, z4, (0, 2, 0, 2))
    assert h.is_endo and not h.is_idempotent
    assert Homomorphism(z4, z4, (0, 0, 0, 0)).is_idempotent


def test_generated_subalgebra():
    z6 = cyclic_group(6)
    assert generated_subalgebra(z6, {2}) == frozenset({0, 2, 4})
    assert generated_subalgebra(z6, set()) == frozenset({0})
    assert generated_subalgebra(z6, set(z6.elements)) == frozenset(z6.elements)
    for seed in ({-1}, {6}, {0, 7}):
        with pytest.raises(SizeMismatch, match="subset outside the carrier"):
            generated_subalgebra(z6, seed)


@pytest.mark.parametrize(
    "check, subset",
    [
        (is_subalgebra, [0, 1.0]),
        (is_subalgebra, [None]),
        (generated_subalgebra, ["a"]),
        (generated_subalgebra, [1.5]),
        (subalgebra_as_algebra, [0, "a"]),
        (subalgebra_as_algebra, [2.0]),
    ],
)
def test_subset_entry_points_refuse_elements_that_are_not_ints(check, subset):
    with pytest.raises(SizeMismatch, match="subset outside the carrier"):
        check(cyclic_group(4), subset)


def test_bool_members_read_as_0_and_1():
    z4 = cyclic_group(4)
    assert is_subalgebra(z4, [False]) and not is_subalgebra(z4, [True])
    assert generated_subalgebra(z4, [True]) == frozenset(range(4))


def test_generated_subalgebra_is_a_closure_operator():
    z6 = cyclic_group(6)
    seeds = [set(), {2}, {3}, {2, 3}, {1}, {4, 5}]
    for seed in seeds:
        closed = generated_subalgebra(z6, seed)
        # extensive and idempotent
        assert seed <= closed
        assert generated_subalgebra(z6, closed) == closed
        # monotone
        for other in seeds:
            if seed <= other:
                assert closed <= generated_subalgebra(z6, other)


def test_all_subalgebras_of_z6():
    z6 = cyclic_group(6)
    subs = all_subalgebras(z6)
    assert frozenset({0}) in subs
    assert frozenset({0, 2, 4}) in subs
    assert frozenset({0, 3}) in subs
    assert frozenset(range(6)) in subs
    assert len(subs) == 4


def test_subalgebra_as_algebra_relabels():
    z6 = cyclic_group(6)
    sub, members = subalgebra_as_algebra(z6, {0, 2, 4})
    assert members == (0, 2, 4)
    assert sub.size == 3
    assert find_isomorphism(sub, cyclic_group(3)) is not None


def test_subalgebra_as_algebra_rejects_exactly_the_non_subalgebras():
    for A in [cyclic_group(6), symmetric_group_s3(), chain_lattice(4), mult_semigroup(5)]:
        for mask in range(2**A.size):
            subset = {x for x in range(A.size) if mask >> x & 1}
            if is_subalgebra(A, subset):
                sub, members = subalgebra_as_algebra(A, subset)
                assert members == tuple(sorted(subset)) and sub.size == len(subset)
            else:
                with pytest.raises(NotASubalgebra):
                    subalgebra_as_algebra(A, subset)
    with pytest.raises(SizeMismatch, match="outside the carrier"):
        subalgebra_as_algebra(cyclic_group(6), {0, 9})


def test_quotient_of_z4():
    z4 = cyclic_group(4)
    omega = Partition.from_blocks(4, [[0, 2], [1, 3]])
    q, proj = quotient(z4, omega)
    assert q.size == 2
    assert find_isomorphism(q, cyclic_group(2)) is not None
    assert proj.map == (0, 1, 0, 1)


def test_quotient_trivial_partitions():
    z4 = cyclic_group(4)
    q_id, _ = quotient(z4, Partition.identity(4))
    assert find_isomorphism(q_id, z4) is not None
    q_all, _ = quotient(z4, Partition.total(4))
    assert q_all.size == 1


def test_quotient_rejects_non_congruence():
    z4 = cyclic_group(4)
    with pytest.raises(NotACongruence):
        quotient(z4, Partition.from_blocks(4, [[0, 1], [2, 3]]))


def test_product_z2_z3_is_cyclic():
    p = product(cyclic_group(2), cyclic_group(3))
    assert find_isomorphism(p, cyclic_group(6)) is not None


def test_product_with_singleton_is_isomorphic():
    z4 = cyclic_group(4)
    p = product(z4, cyclic_group(1))
    assert find_isomorphism(p, z4) is not None


def test_klein_is_not_cyclic():
    assert find_isomorphism(klein_group(), cyclic_group(4)) is None


def test_find_isomorphism_is_identity_on_equal_algebras():
    z4 = cyclic_group(4)
    assert find_isomorphism(z4, z4) == (0, 1, 2, 3)


def test_find_isomorphism_size_cap():
    with pytest.raises(SizeLimitExceeded):
        find_isomorphism(cyclic_group(13), cyclic_group(13))


def test_product_projections_are_homomorphisms():
    a, b = cyclic_group(2), cyclic_group(3)
    p = product(a, b)
    left = tuple(x // b.size for x in range(p.size))
    right = tuple(x % b.size for x in range(p.size))
    assert is_homomorphism(left, p, a)
    assert is_homomorphism(right, p, b)


def test_first_isomorphism_property():
    # quotient by kernel(h) is isomorphic to the image subalgebra of h
    from ualgebra.congruences import is_congruence
    from ualgebra.inner import idempotent_endomorphisms

    z6 = cyclic_group(6)
    homs = [Homomorphism(z6, z6, tuple(k * x % 6 for x in range(6))) for k in range(6)]
    for A in [z6, symmetric_group_s3(), klein_group()]:
        for h in idempotent_endomorphisms(A):
            ker = kernel(h)
            assert is_congruence(A, ker)
            q, _ = quotient(A, ker)
            image, _ = subalgebra_as_algebra(A, h.image())
            assert find_isomorphism(q, image) is not None
    for h in homs:
        q, _ = quotient(z6, kernel(h))
        image, _ = subalgebra_as_algebra(z6, h.image())
        assert find_isomorphism(q, image) is not None


def test_emit_parse_roundtrip():
    for g in [cyclic_group(4), symmetric_group_s3(), klein_group()]:
        text = emit_algebra(g)
        back = parse_algebras(text)[g.name]
        assert back == g


def test_parse_rejects_out_of_range_entry():
    text = "algebra bad\nsize 2\nop m/2\n0 1 1 2\nend\n"
    with pytest.raises(TableRangeError):
        parse_algebras(text)


def test_parse_rejects_duplicate_names():
    text = "algebra g\nsize 1\nop m/2\n0\nend\nalgebra g\nsize 1\nop m/2\n0\nend\n"
    with pytest.raises(DuplicateName):
        parse_algebras(text)


def test_parse_multiple_algebras_and_comments():
    text = (
        "# two cyclic groups\n"
        "algebra a\nsize 2\nop m/2\n0 1\n1 0\nop i/1\n0 1\nop e/0\n0\nend\n"
        "\n"
        "algebra b\nsize 1\nop m/2\n0\nop i/1\n0\nop e/0\n0\nend\n"
    )
    algebras = parse_algebras(text)
    assert set(algebras) == {"a", "b"}
    assert algebras["a"].size == 2


def _fresh_copy(x):
    """An equal object built anew from x's fields, an algebra field anew too."""
    values = [getattr(x, f.name) for f in dataclasses.fields(x)]
    return type(x)(*[_fresh_copy(v) if isinstance(v, FiniteAlgebra) else v for v in values])


@pytest.mark.parametrize(
    "x",
    groups_up_to_8()
    + [chain_lattice(12), cyclic_heap(12)]
    + [
        PointedFamily.constant(cyclic_group(3), 2, 1),
        PointedFamily(chain_lattice(3), ((1, 0), (3, 2), (2, 1))),
        PointedFamily(cyclic_heap(12), tuple((k % 3 + 1, 0) for k in range(12))),
    ],
    ids=lambda x: getattr(x, "name", None) or f"family-{x.base.name}",
)
def test_the_cached_hash_is_the_generated_one(x):
    assert hash(x) == hash(tuple(getattr(x, f.name) for f in dataclasses.fields(x)))
    assert "_hash" in x.__dict__ and "_hash" not in repr(x)
    copy = _fresh_copy(x)
    assert copy is not x and "_hash" not in copy.__dict__
    assert copy == x and hash(copy) == hash(x)
    assert "_hash" in copy.__dict__ and repr(copy) == repr(x)


@pytest.mark.parametrize(
    "A", [cyclic_group(5), symmetric_group_s3(), cyclic_heap(8), chain_lattice(12)], ids=lambda A: A.name
)
def test_the_homomorphism_byte_views_leave_equality_hash_and_repr_alone(A):
    # `table_bytes` and `byte_places` are built once, by the first map tested
    copy = _fresh_copy(A)
    shown, hashed = repr(A), hash(A)
    assert is_homomorphism(tuple(range(A.size)), A, A)
    assert A.table_bytes == tuple(map(bytes, A.tables))
    assert [len(places) for places in A.byte_places] == [k for _, k in A.signature.symbols]
    assert "table_bytes" not in repr(A) and "byte_places" not in repr(A)
    assert "table_bytes" not in copy.__dict__ and "byte_places" not in copy.__dict__
    assert repr(A) == shown == repr(copy) and hash(A) == hashed == hash(copy) and A == copy
