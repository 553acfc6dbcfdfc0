from itertools import product

import pytest

from oracles import commuting_squares
from ualgebra.algebras import find_isomorphism, is_homomorphism
from ualgebra.catalog import (
    chain_lattice,
    cyclic_group,
    cyclic_heap,
    mult_semigroup,
    standard_corpus,
    symmetric_group_s3,
)
from ualgebra.errors import IdentityFailure, PointednessViolation, SectionViolation, ShapeMismatch
from ualgebra.groups import group_data_from_action, group_data_to_family
from ualgebra.inner import decomposition_from_idempotent, idempotent_endomorphisms
from ualgebra.outer import (
    ActionFamily,
    PointedFamily,
    assemble_union_algebra,
    build_outer_product,
    direct_product_check,
    emit_action_file,
    inner_to_outer,
    outer_to_pointed_object,
    parse_action_file,
    pointed_object_to_sdp,
    sdp_morphism_check,
    union_algebra,
)
from ualgebra.algebras import Homomorphism
from ualgebra.varieties import REGISTRY


def s3_building_data():
    """Fibers Z3 over base Z2, twisted by negation."""
    n3, z2 = cyclic_group(3), cyclic_group(2)
    phi = ((0, 1, 2), (0, 2, 1))
    return group_data_from_action(n3, z2, phi)


def trivial_data():
    n3, z2 = cyclic_group(3), cyclic_group(2)
    phi = ((0, 1, 2), (0, 1, 2))
    return group_data_from_action(n3, z2, phi)


def test_build_s3_from_action_family():
    family, actions = group_data_to_family(s3_building_data())
    built = build_outer_product(family, actions, REGISTRY["group"])
    assert built.algebra.size == 6
    assert find_isomorphism(built.algebra, symmetric_group_s3()) is not None


def test_trivial_actions_build_the_direct_product():
    family, actions = group_data_to_family(trivial_data())
    built = build_outer_product(family, actions, REGISTRY["group"])
    assert find_isomorphism(built.algebra, cyclic_group(6)) is not None


def unequal_fiber_data():
    """Fibers of sizes 2 and 3 over Z2 with pointed tables of the right shapes."""
    z2 = cyclic_group(2)
    family = PointedFamily(z2, ((2, 0), (3, 0)))
    maps = {}
    maps[("m", (0, 0))] = (0, 1, 1, 0)
    maps[("m", (0, 1))] = (0, 1, 2, 1, 2, 0)
    maps[("m", (1, 0))] = (0, 1, 1, 2, 2, 0)
    maps[("m", (1, 1))] = tuple((i + j) % 2 for i in range(3) for j in range(3))
    maps[("i", (0,))] = (0, 1)
    maps[("i", (1,))] = (0, 2, 1)
    maps[("e", ())] = (0,)
    return family, ActionFamily.from_dict(maps)


def test_unequal_fibers_cannot_build_a_group():
    family, actions = unequal_fiber_data()
    with pytest.raises(IdentityFailure):
        build_outer_product(family, actions, REGISTRY["group"])


def test_encode_decode_roundtrip_over_unequal_fibers():
    built = assemble_union_algebra(*unequal_fiber_data())
    pairs = [(i, b) for b, (size, _) in enumerate(built.family.fibers) for i in range(size)]
    assert [built.decode(x) for x in range(built.algebra.size)] == pairs
    assert [built.encode(b, i) for i, b in pairs] == list(range(built.algebra.size))


@pytest.mark.parametrize("x", [-1, 5])
def test_decode_rejects_elements_outside_the_union(x):
    built = assemble_union_algebra(*unequal_fiber_data())
    with pytest.raises(ShapeMismatch):
        built.decode(x)


def test_missing_action_table_is_a_shape_error():
    from ualgebra.errors import ShapeMismatch

    z2 = cyclic_group(2)
    family = PointedFamily.constant(z2, 2, 0)
    maps = {("m", (0, 0)): (0, 1, 1, 0)}  # everything else missing
    with pytest.raises(ShapeMismatch):
        assemble_union_algebra(family, ActionFamily.from_dict(maps))


def test_wrong_length_action_table_is_a_shape_error():
    from ualgebra.errors import ShapeMismatch

    z2 = cyclic_group(2)
    family = PointedFamily.constant(z2, 2, 0)
    maps = {}
    import itertools

    for p, (sym, arity) in enumerate(z2.signature.symbols):
        for bs in itertools.product(range(2), repeat=arity):
            maps[(sym, bs)] = (0,) * (2**arity)
    maps[("m", (0, 0))] = (0, 1)  # should have four entries
    with pytest.raises(ShapeMismatch):
        assemble_union_algebra(family, ActionFamily.from_dict(maps))
    with pytest.raises(ValueError):  # the unchecked fill does not truncate
        union_algebra(family, ActionFamily.from_dict(maps), "short")


def test_pointedness_is_enforced():
    z2 = cyclic_group(2)
    family = PointedFamily.constant(z2, 2, 0)
    maps = {
        ("m", (0, 0)): (1, 0, 0, 1),  # sends (0,0) to 1: not pointed
        ("m", (0, 1)): (0, 1, 1, 0),
        ("m", (1, 0)): (0, 1, 1, 0),
        ("m", (1, 1)): (0, 1, 1, 0),
        ("i", (0,)): (0, 1),
        ("i", (1,)): (0, 1),
        ("e", ()): (0,),
    }
    with pytest.raises(PointednessViolation):
        assemble_union_algebra(family, ActionFamily.from_dict(maps))


@pytest.mark.parametrize(
    "algebra",
    [cyclic_group(4), cyclic_group(6), symmetric_group_s3(), chain_lattice(3),
     mult_semigroup(4), cyclic_heap(4)],
    ids=lambda a: a.name,
)
def test_inner_to_outer_roundtrip(algebra):
    for e in idempotent_endomorphisms(algebra):
        dec = decomposition_from_idempotent(algebra, e)
        family, actions, iso = inner_to_outer(dec)
        rebuilt = assemble_union_algebra(family, actions)
        assert len(set(iso)) == algebra.size
        assert is_homomorphism(iso, algebra, rebuilt.algebra)


def test_roundtrip_across_corpus():
    for A, _ in standard_corpus():
        if A.size > 6:
            continue
        for e in idempotent_endomorphisms(A):
            dec = decomposition_from_idempotent(A, e)
            inner_to_outer(dec)  # asserts the isomorphism internally


def test_outer_product_reconstructs_inner_structure():
    # the basepoint section is a subalgebra copy of B and the projection's
    # kernel classes are the fibers; the pair passes all four inner conditions
    from ualgebra.algebras import subalgebra_as_algebra
    from ualgebra.congruences import kernel
    from ualgebra.inner import verify_inner_sdp

    for data in (s3_building_data(), trivial_data()):
        family, actions = group_data_to_family(data)
        built = build_outer_product(family, actions, REGISTRY["group"])
        section, projection = outer_to_pointed_object(built)
        image = frozenset(section.map)
        from ualgebra.algebras import is_subalgebra

        assert is_subalgebra(built.algebra, image)
        copy_of_base, _ = subalgebra_as_algebra(built.algebra, image)
        assert find_isomorphism(copy_of_base, family.base) is not None
        omega = kernel(projection)
        blocks = omega.blocks()
        expected = [
            tuple(built.encode(b, i) for i in range(size))
            for b, (size, _) in enumerate(family.fibers)
        ]
        assert sorted(blocks) == sorted(expected)
        report = verify_inner_sdp(built.algebra, image, omega)
        assert (report.a, report.b, report.c, report.d) == (True,) * 4


def test_sdp_morphism_check_identity_and_mismatch():
    family, actions = group_data_to_family(s3_building_data())
    F = build_outer_product(family, actions, REGISTRY["group"])
    ident_maps = tuple(tuple(range(size)) for size, _ in family.fibers)
    assert sdp_morphism_check(F, F, ident_maps)

    family2, actions2 = group_data_to_family(trivial_data())
    G = build_outer_product(family2, actions2, REGISTRY["group"])
    assert not sdp_morphism_check(F, G, ident_maps)


def test_sdp_morphism_collapse_onto_trivial_fibers():
    family, actions = group_data_to_family(trivial_data())
    F = build_outer_product(family, actions, REGISTRY["group"])
    z2 = cyclic_group(2)
    singleton = PointedFamily.constant(z2, 1, 0)
    trivial_maps = {}
    for p, (sym, arity) in enumerate(z2.signature.symbols):
        import itertools

        for bs in itertools.product(range(2), repeat=arity):
            trivial_maps[(sym, bs)] = (0,)
    T = build_outer_product(singleton, ActionFamily.from_dict(trivial_maps), REGISTRY["group"])
    collapse = tuple((0,) * size for size, _ in family.fibers)
    assert sdp_morphism_check(F, T, collapse)


@pytest.mark.parametrize("A", [chain_lattice(4), chain_lattice(5)], ids=lambda a: a.name)
def test_sdp_morphism_check_across_unequal_fibers(A):
    # every pointed map between two outer forms of A's decompositions over
    # one base whose fiber sizes differ, at some base element, from each other
    products = []
    for e in idempotent_endomorphisms(A):
        family, actions, _ = inner_to_outer(decomposition_from_idempotent(A, e))
        products.append(assemble_union_algebra(family, actions))
    verdicts = []
    for F, G in product(products, repeat=2):
        sizes_f = [size for size, _ in F.family.fibers]
        sizes_g = [size for size, _ in G.family.fibers]
        if F.family.base != G.family.base or sizes_f == sizes_g:
            continue
        pointed = [
            [m for m in product(range(size_g), repeat=size_f) if m[point_f] == point_g]
            for (size_f, point_f), (size_g, point_g) in zip(F.family.fibers, G.family.fibers)
        ]
        for maps in product(*pointed):
            verdicts.append(sdp_morphism_check(F, G, maps))
            assert verdicts[-1] == commuting_squares(F, G, maps)
    assert True in verdicts and False in verdicts


def test_pointed_object_to_sdp_s3():
    s3 = symmetric_group_s3()
    # B = the subgroup {0, 1} relabeled; alpha includes it, beta retracts
    from ualgebra.algebras import subalgebra_as_algebra

    B, members = subalgebra_as_algebra(s3, {0, 1})
    alpha = Homomorphism(B, s3, members)
    beta = Homomorphism(s3, B, (0, 1, 1, 0, 0, 1))
    built = pointed_object_to_sdp(s3, alpha, beta, REGISTRY["group"])
    assert built.algebra.size == 6
    assert [size for size, _ in built.family.fibers] == [3, 3]
    assert find_isomorphism(built.algebra, s3) is not None


def test_pointed_object_identity_object():
    z4 = cyclic_group(4)
    ident = Homomorphism(z4, z4, (0, 1, 2, 3))
    built = pointed_object_to_sdp(z4, ident, ident)
    assert all(size == 1 for size, _ in built.family.fibers)


def test_pointed_object_section_violation():
    z4 = cyclic_group(4)
    const = Homomorphism(z4, z4, (0, 0, 0, 0))
    with pytest.raises(SectionViolation):
        pointed_object_to_sdp(z4, const, const)


def test_direct_product_check_componentwise_true():
    family, actions = group_data_to_family(trivial_data())
    assert direct_product_check(family, actions, cyclic_group(3))


def test_direct_product_check_twisted_false():
    family, actions = group_data_to_family(s3_building_data())
    assert not direct_product_check(family, actions, cyclic_group(3))


def test_direct_product_check_singleton_base():
    z1 = cyclic_group(1)
    K = cyclic_group(3)
    family = PointedFamily.constant(z1, 3, 0)
    maps = {
        ("m", (0, 0)): K.table("m"),
        ("i", (0,)): K.table("i"),
        ("e", ()): (0,),
    }
    assert direct_product_check(family, ActionFamily.from_dict(maps), K)


def test_action_file_roundtrip(tmp_path):
    family, actions = group_data_to_family(s3_building_data())
    z2 = cyclic_group(2)
    algfile = tmp_path / "base.alg"
    from ualgebra.algebras import emit_algebra

    algfile.write_text(emit_algebra(z2))
    text = emit_action_file(family, actions, f"{algfile}#z2")

    def resolve(ref):
        from ualgebra.algebras import parse_algebras

        path, _, name = ref.partition("#")
        from pathlib import Path

        return parse_algebras(Path(path).read_text())[name]

    family2, actions2 = parse_action_file(text, resolve)
    assert family2 == family
    assert actions2.as_dict() == actions.as_dict()
