import random

import pytest

from oracles import fiber_points, functor_table
from ualgebra.catalog import (
    chain_lattice,
    cyclic_group,
    diamond_lattice,
    klein_group,
    left_zero_semigroup,
    mult_semigroup,
)
from ualgebra import envcat
from ualgebra.envcat import (
    FIBER_BLOCK_CACHE_SIZE,
    FIBER_BLOCK_LIMIT,
    FUNCTOR_P_CACHE_SIZE,
    ProductPointedSet,
    TermTupleMorphism,
    TupleObject,
    basepoint_preserved,
    check_functoriality,
    check_identity_law,
    compose_morphisms,
    functor_morphism,
    functor_object,
    identity_morphism,
    is_cat_morphism,
    tables_compose,
)
from ualgebra.errors import EndpointMismatch, ShapeMismatch, SizeLimitExceeded
from ualgebra.groups import group_data_from_action, group_data_to_family
from ualgebra.inner import decomposition_from_idempotent, idempotent_endomorphisms
from ualgebra.outer import (
    ActionFamily,
    PointedFamily,
    assemble_union_algebra,
    build_outer_product,
    inner_to_outer,
)
from ualgebra.terms import App, Var, parse_term
from ualgebra.varieties import GROUP_SIG, REGISTRY


@pytest.fixture(scope="module")
def s3_product():
    data = group_data_from_action(cyclic_group(3), cyclic_group(2), ((0, 1, 2), (0, 2, 1)))
    family, actions = group_data_to_family(data)
    return build_outer_product(family, actions, REGISTRY["group"])


def term(text):
    return parse_term(text, GROUP_SIG)


def test_is_cat_morphism_examples():
    z4 = cyclic_group(4)
    src = TupleObject(z4, (1, 3))
    assert is_cat_morphism(z4, src, TupleObject(z4, (0,)), (term("m(x0,x1)"),))
    assert is_cat_morphism(z4, src, TupleObject(z4, (3,)), (term("x1"),))
    assert not is_cat_morphism(z4, src, TupleObject(z4, (1,)), (term("m(x0,x1)"),))


def test_a_later_term_past_the_source_is_refused_before_any_term_is_evaluated():
    # x0 sends (1, 3) to 1, not 0; the second term still reads a third place
    z4 = cyclic_group(4)
    src, dst = TupleObject(z4, (1, 3)), TupleObject(z4, (0, 0))
    terms = (term("x0"), term("m(x1,i(x2))"))
    for _ in range(2):
        with pytest.raises(ShapeMismatch, match="only use source coordinates"):
            is_cat_morphism(z4, src, dst, terms)
        with pytest.raises(ShapeMismatch, match="only use source coordinates"):
            TermTupleMorphism(src, dst, terms)


def test_tuple_object_entries_are_ints_in_the_carrier():
    z4 = cyclic_group(4)
    for elements in [(1.0,), (0, 2.5), (4,), (-1,)]:
        with pytest.raises(ShapeMismatch, match="must lie in the carrier"):
            TupleObject(z4, elements)
    assert TupleObject(z4, (True, 3)).elements == (True, 3)


def test_morphism_validation_is_eager():
    z4 = cyclic_group(4)
    src = TupleObject(z4, (1, 3))
    with pytest.raises(EndpointMismatch):
        TermTupleMorphism(src, TupleObject(z4, (1,)), (term("m(x0,x1)"),))


def test_composition_by_substitution():
    z4 = cyclic_group(4)
    src = TupleObject(z4, (1, 3))
    mid = TupleObject(z4, (0,))
    dst = TupleObject(z4, (0,))
    p = TermTupleMorphism(src, mid, (term("m(x0,x1)"),))
    q = TermTupleMorphism(mid, dst, (term("i(x0)"),))
    composed = compose_morphisms(q, p)
    assert composed.terms == (term("i(m(x0,x1))"),)
    assert composed.source == src and composed.target == dst


def test_identity_is_a_unit_for_composition():
    z4 = cyclic_group(4)
    src = TupleObject(z4, (2, 3))
    dst = TupleObject(z4, (1, 2))
    p = TermTupleMorphism(src, dst, (term("m(x0,x1)"), term("x0")))
    assert compose_morphisms(p, identity_morphism(src)).terms == p.terms
    assert compose_morphisms(identity_morphism(dst), p).terms == p.terms


def test_composition_is_associative_as_substitution():
    z4 = cyclic_group(4)
    a = TupleObject(z4, (1, 2))
    b = TupleObject(z4, (3,))
    c = TupleObject(z4, (1,))
    d = TupleObject(z4, (3,))
    p = TermTupleMorphism(a, b, (term("m(x0,x1)"),))
    q = TermTupleMorphism(b, c, (term("i(x0)"),))
    r = TermTupleMorphism(c, d, (term("m(x0,m(x0,x0))"),))
    left = compose_morphisms(r, compose_morphisms(q, p))
    right = compose_morphisms(compose_morphisms(r, q), p)
    assert left.terms == right.terms


def test_endpoint_mismatch_raises():
    z4 = cyclic_group(4)
    p = TermTupleMorphism(TupleObject(z4, (1,)), TupleObject(z4, (3,)), (term("i(x0)"),))
    q = TermTupleMorphism(TupleObject(z4, (2,)), TupleObject(z4, (2,)), (term("x0"),))
    with pytest.raises(EndpointMismatch):
        compose_morphisms(q, p)


def test_functor_object_cases(s3_product):
    base = s3_product.family.base
    empty = functor_object(s3_product, TupleObject(base, ()))
    assert empty == ProductPointedSet((), ())
    assert empty.total() == 1
    pair = functor_object(s3_product, TupleObject(base, (0, 1)))
    assert pair.sizes == (3, 3)
    assert pair.basepoint == (0, 0)


def test_variable_term_gives_the_identity_table(s3_product):
    base = s3_product.family.base
    obj = TupleObject(base, (1,))
    morphism = TermTupleMorphism(obj, obj, (term("x0"),))
    tables = functor_morphism(s3_product, morphism)
    assert tables == ((0, 1, 2),)


def test_binary_term_matches_the_action_table(s3_product):
    base = s3_product.family.base
    src = TupleObject(base, (0, 1))
    dst = TupleObject(base, (1,))
    morphism = TermTupleMorphism(src, dst, (term("m(x0,x1)"),))
    tables = functor_morphism(s3_product, morphism)
    assert len(tables) == 1 and len(tables[0]) == 9
    assert tables[0] == s3_product.actions.table("m", (0, 1))


def test_identity_law_on_all_small_objects(s3_product):
    base = s3_product.family.base
    for elems in [(), (0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)]:
        assert check_identity_law(s3_product, TupleObject(base, elems))


def test_functoriality_on_sample_pairs(s3_product):
    base = s3_product.family.base
    src = TupleObject(base, (0, 1))
    mid = TupleObject(base, (1, 1))
    dst = TupleObject(base, (0,))
    p = TermTupleMorphism(src, mid, (term("m(x0,x1)"), term("x1")))
    q = TermTupleMorphism(mid, dst, (term("m(x0,x1)"),))
    assert check_functoriality(s3_product, p, q)
    assert basepoint_preserved(s3_product, p)
    assert basepoint_preserved(s3_product, q)


def test_functoriality_through_the_empty_object(s3_product):
    base = s3_product.family.base
    src = TupleObject(base, (1,))
    empty = TupleObject(base, ())
    dst = TupleObject(base, (0,))
    p = TermTupleMorphism(src, empty, ())
    q = TermTupleMorphism(empty, dst, (term("e"),))
    assert check_functoriality(s3_product, p, q)


def test_tables_compose_through_an_empty_middle_repeats_the_point_value():
    assert tables_compose(((5,),), (), (), 3) == ((5, 5, 5),)
    assert tables_compose(((5,), (2,)), (), (), 1) == ((5,), (2,))
    # a non-empty middle: (x, y) -> (y, x) over 2 x 3, then the middle's flat index
    swap = ((0, 1, 2, 0, 1, 2), (0, 0, 0, 1, 1, 1))
    assert tables_compose((tuple(range(6)),), swap, (3, 2), 6) == ((0, 2, 4, 1, 3, 5),)


# -- the functor tables against the pointwise oracle -------------------------


def _twisted_group_products():
    z2, z3, z4, z5 = (cyclic_group(n) for n in (2, 3, 4, 5))
    negate3, negate4 = ((0, 1, 2), (0, 2, 1)), ((0, 1, 2, 3), (0, 3, 2, 1))
    double5 = tuple(tuple(k * 2**y % 5 for k in range(5)) for y in range(4))
    for N, B, phi in [
        (z3, z2, negate3),
        (z4, z2, negate4),
        (z5, z4, double5),
        (z3, z4, negate3 * 2),
    ]:
        family, actions = group_data_to_family(group_data_from_action(N, B, phi))
        yield build_outer_product(family, actions, REGISTRY["group"])


def _decomposed_products():
    """Products with unequal fibers and basepoints other than 0: the outer
    form of every inner decomposition of some non-group algebras."""
    algebras = (chain_lattice(3), chain_lattice(4), left_zero_semigroup(3), mult_semigroup(4))
    for A in algebras + (diamond_lattice(),):
        for e in idempotent_endomorphisms(A):
            family, actions, _ = inner_to_outer(decomposition_from_idempotent(A, e))
            yield assemble_union_algebra(family, actions)


def _random_term(rng, signature, variables, depth):
    leaves = [Var(j) for j in range(variables)]
    leaves += [App(sym) for sym, arity in signature.symbols if arity == 0]
    applications = [(sym, arity) for sym, arity in signature.symbols if arity > 0]
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(leaves)
    sym, arity = rng.choice(applications)
    return App(sym, tuple(_random_term(rng, signature, variables, depth - 1) for _ in range(arity)))


def _random_morphism(rng, F, source):
    """A morphism from `source` with up to two random terms of depth <= 3;
    its target is read off the oracle."""
    base = F.family.base
    has_leaves = len(source) > 0 or any(arity == 0 for _, arity in base.signature.symbols)
    terms = tuple(
        _random_term(rng, base.signature, len(source), 3)
        for _ in range(rng.randrange(3) if has_leaves else 0)
    )
    target = tuple(functor_table(F, source.elements, t)[1] for t in terms)
    return TermTupleMorphism(source, TupleObject(base, target), terms)


def _oracle_tables(F, p):
    return tuple(functor_table(F, p.source.elements, t)[0] for t in p.terms)


def _oracle_law(F, p, q):
    """G(q o p) == G(q) o G(p), each side read point by point off the oracle."""
    gp, gq = _oracle_tables(F, p), _oracle_tables(F, q)
    points = fiber_points(F, p.source.elements)
    mid_points = fiber_points(F, p.target.elements)
    staged = tuple(
        tuple(table[mid_points.index(tuple(g[j] for g in gp))] for j in range(len(points)))
        for table in gq
    )
    return _oracle_tables(F, compose_morphisms(q, p)) == staged


@pytest.mark.parametrize(
    "products", [_twisted_group_products, _decomposed_products], ids=["twisted", "decomposed"]
)
def test_functor_tables_match_the_pointwise_oracle(products):
    rng = random.Random(5)
    fibers_seen = set()
    for F in products():
        base = F.family.base
        fibers_seen.update(F.family.fibers)
        for _ in range(25):
            elements = tuple(rng.randrange(base.size) for _ in range(rng.randrange(3)))
            source = TupleObject(base, elements)
            p = _random_morphism(rng, F, source)
            q = _random_morphism(rng, F, p.target)
            gp, gq = _oracle_tables(F, p), _oracle_tables(F, q)
            assert functor_morphism(F, p) == gp
            assert functor_morphism(F, q) == gq

            points = fiber_points(F, source.elements)
            projections = tuple(
                functor_table(F, source.elements, Var(j))[0] for j in range(len(source))
            )
            assert check_identity_law(F, source) == (projections == tuple(zip(*points)))

            flat = points.index(tuple(F.family.fibers[a][1] for a in source.elements))
            preserved = all(
                table[flat] == F.family.fibers[b][1] for table, b in zip(gp, p.target.elements)
            )
            assert basepoint_preserved(F, p) == preserved

            assert check_functoriality(F, p, q) == _oracle_law(F, p, q)
    if products is _decomposed_products:
        assert len({size for size, _ in fibers_seen}) > 1
        assert any(basepoint != 0 for _, basepoint in fibers_seen)


# -- the memoized fiber block ------------------------------------------------


def _chain4_products_over_two_elements():
    """The decompositions of the 4-chain over a two-element base: one base,
    fibers (3, 1), (2, 2), (1, 3) and basepoints 0 or 1."""
    return [
        F
        for F in _decomposed_products()
        if F.family.base.name == "chain4_base" and len(F.family.fibers) == 2
    ]


def _oracle_morphism(F, elements, texts):
    """A morphism from the object `elements` with the given terms, its
    target read off the oracle, and the oracle's tables."""
    base = F.family.base
    terms = tuple(parse_term(text, base.signature) for text in texts)
    target = tuple(functor_table(F, elements, t)[1] for t in terms)
    p = TermTupleMorphism(TupleObject(base, elements), TupleObject(base, target), terms)
    return p, tuple(functor_table(F, elements, t)[0] for t in terms)


def test_one_tuple_over_products_with_other_fibers_gets_its_own_table():
    products = _chain4_products_over_two_elements()
    assert len({F.family.fibers for F in products}) == len(products) >= 4
    assert len({F.family.base for F in products}) == 1
    tables = set()
    for F in products:
        p, expected = _oracle_morphism(F, (0, 1, 1), ["join(x0,x1)", "meet(x2,x0)", "x1"])
        assert functor_morphism(F, p) == expected
        point = functor_object(F, p.source)
        sizes = tuple(F.family.fibers[a][0] for a in (0, 1, 1))
        assert point == ProductPointedSet(sizes, tuple(F.family.fibers[a][1] for a in (0, 1, 1)))
        assert point.total() == len(fiber_points(F, (0, 1, 1)))
        tables.add(expected)
    assert len(tables) > 1


def test_tables_are_the_same_after_a_clear_and_after_the_memo_turns_over(s3_product):
    base = s3_product.family.base
    p, expected = _oracle_morphism(s3_product, (0, 1), ["m(x0,i(x1))", "x1"])
    before = functor_morphism(s3_product, p)
    envcat._fiber_block.cache_clear()
    assert functor_morphism(s3_product, p) == before == expected
    # more objects than the memo holds push the first one out
    for k in range(FIBER_BLOCK_CACHE_SIZE + 8):
        elements = tuple(int(bit) for bit in format(k, "06b"))
        assert functor_object(s3_product, TupleObject(base, elements)).sizes == (3,) * 6
    assert envcat._fiber_block.cache_info().currsize == FIBER_BLOCK_CACHE_SIZE
    assert functor_morphism(s3_product, p) == expected


def test_equal_families_share_a_block():
    first, second = (next(_twisted_group_products()) for _ in range(2))
    assert first.family == second.family and first.family is not second.family
    p, expected = _oracle_morphism(first, (1, 0), ["m(x0,x1)"])
    other, other_expected = _oracle_morphism(first, (1, 0), ["m(x1,x0)"])
    envcat._p_side.cache_clear()
    assert functor_morphism(first, p) == expected
    # equal products share p's G(p) entry, and another p over p's source its block
    hits, g_hits = envcat._fiber_block.cache_info().hits, envcat._p_side.cache_info().hits
    assert functor_morphism(second, p) == expected
    assert envcat._p_side.cache_info().hits == g_hits + 1
    assert functor_morphism(second, other) == other_expected
    assert envcat._fiber_block.cache_info().hits == hits + 1


def test_block_errors_are_raised_again(s3_product):
    z4 = cyclic_group(4)
    foreign = TupleObject(z4, (0, 1))
    assert z4 != s3_product.family.base
    wide = TupleObject(s3_product.family.base, (0,) * 11)
    for _ in range(2):
        with pytest.raises(ShapeMismatch):
            functor_object(s3_product, foreign)
        with pytest.raises(SizeLimitExceeded):
            functor_object(s3_product, wide)
    assert envcat._fiber_block.cache_info().currsize <= FIBER_BLOCK_CACHE_SIZE


def _constant_product(size):
    """Z_size x Z_2 as an outer product over Z_2 with constant fibers and
    the trivial action; no identity is checked."""
    z2 = cyclic_group(2)
    maps = [(("e", ()), (0,))]
    for b in range(2):
        maps.append((("i", (b,)), tuple(-k % size for k in range(size))))
        for c in range(2):
            table = tuple((k + j) % size for k in range(size) for j in range(size))
            maps.append((("m", (b, c)), table))
    return assemble_union_algebra(PointedFamily.constant(z2, size, 0), ActionFamily(tuple(maps)))


def test_the_limit_counts_rows_times_places():
    F = _constant_product(2)
    base = F.family.base
    # 2^16 rows of 16 places are exactly the limit; a 17th place passes it
    assert 2**16 * 16 == FIBER_BLOCK_LIMIT
    assert functor_object(F, TupleObject(base, (1,) * 16)).total() == 2**16
    with pytest.raises(SizeLimitExceeded, match=f"capped at {FIBER_BLOCK_LIMIT} entries"):
        functor_object(F, TupleObject(base, (1,) * 17))
    # one-point fibers add places but no rows
    family = PointedFamily(base, ((2, 0), (1, 0)))
    point, length, columns = envcat._fiber_block(family, (1,) * 5000)
    assert point == ProductPointedSet((1,) * 5000, (0,) * 5000) and length == 1
    assert set(columns) == {bytes([2])}
    with pytest.raises(SizeLimitExceeded):
        envcat._fiber_block(family, (1,) * (FIBER_BLOCK_LIMIT + 1))


def test_a_union_past_a_byte_gets_tuple_columns():
    F = _constant_product(130)
    assert F.algebra.size == 260
    _, length, columns = envcat._fiber_block(F.family, (1, 0))
    assert length == 130**2 and all(type(column) is tuple for column in columns)
    p, expected = _oracle_morphism(F, (1, 0), ["m(x0,i(x1))", "x0"])
    assert functor_morphism(F, p) == expected
    assert type(envcat._fiber_block(_constant_product(3).family, (1, 0))[2][0]) is bytes


def _block_reads():
    info = envcat._fiber_block.cache_info()
    return info.hits + info.misses, info.hits, info.misses


def _g_reads():
    info = envcat._p_side.cache_info()
    return info.hits, info.misses


def test_each_call_reads_each_object_block_once(s3_product):
    base = s3_product.family.base
    src, mid, dst = TupleObject(base, (0, 1)), TupleObject(base, (1, 1)), TupleObject(base, (0,))
    p = TermTupleMorphism(src, mid, (term("m(x0,x1)"), term("x1")))
    q = TermTupleMorphism(mid, dst, (term("m(x0,x1)"),))
    envcat._p_side.cache_clear()
    reads, _, _ = _block_reads()
    assert check_functoriality(s3_product, p, q)
    # a G(p) miss: the source block for G(p) and G(q o p), the middle for G(q)
    assert _block_reads()[0] == reads + 2
    assert _g_reads() == (0, 1)
    _, hits, misses = _block_reads()
    assert check_functoriality(s3_product, p, q)
    # a G(p) hit holds the source block: only the middle block is read
    assert _block_reads()[1:] == (hits + 1, misses)
    assert _g_reads() == (1, 1)
    reads = _block_reads()[0]
    functor_morphism(s3_product, p)
    assert _block_reads()[0] == reads
    assert _g_reads() == (2, 1)
    assert check_identity_law(s3_product, src)
    assert _block_reads()[0] == reads + 1
    # G(p) from the memo, and the target's block for its basepoint
    assert basepoint_preserved(s3_product, p)
    assert _block_reads()[0] == reads + 2
    assert _g_reads() == (3, 1)


# -- the G(p) memo -------------------------------------------------------------


def _twisted_over_z2():
    """z4 x| z2 (negation) and klein x| z2 (a swap): equal pointed families,
    fibers ((4, 0), (4, 0)) over z2, but different unions."""
    z2 = cyclic_group(2)
    products = []
    for N, phi in [
        (cyclic_group(4), ((0, 1, 2, 3), (0, 3, 2, 1))),
        (klein_group(), ((0, 1, 2, 3), (0, 2, 1, 3))),
    ]:
        family, actions = group_data_to_family(group_data_from_action(N, z2, phi))
        products.append(build_outer_product(family, actions, REGISTRY["group"]))
    return products


def test_equal_families_with_other_unions_get_their_own_functor_tables():
    products = _twisted_over_z2()
    assert products[0].family == products[1].family
    assert products[0].algebra != products[1].algebra
    rng = random.Random(11)
    for elements, texts in [((1, 1), ["m(x0,x1)", "i(x1)"]), ((1,), ["m(x0,x0)"]), ((0, 1), ["m(x1,x0)"])]:
        tables = []
        for F in products:
            # the same p over the same base, one product after the other
            p, expected = _oracle_morphism(F, elements, texts)
            assert functor_morphism(F, p) == expected
            for _ in range(4):
                q = _random_morphism(rng, F, p.target)
                assert check_functoriality(F, p, q) == _oracle_law(F, p, q)
            tables.append(expected)
        assert tables[0] != tables[1]


def test_a_morphism_over_another_algebra_is_refused_on_every_call(s3_product):
    base, z4 = s3_product.family.base, cyclic_group(4)
    terms = (term("m(x0,x1)"), term("x1"))
    # equal elements and terms: only the objects' algebra tells them apart
    p = TermTupleMorphism(TupleObject(base, (0, 1)), TupleObject(base, (1, 1)), terms)
    foreign = TermTupleMorphism(TupleObject(z4, (0, 1)), TupleObject(z4, (1, 1)), terms)
    foreign_q = TermTupleMorphism(foreign.target, TupleObject(z4, (2,)), (term("m(x0,x1)"),))
    for _ in range(2):
        assert functor_morphism(s3_product, p) == _oracle_tables(s3_product, p)
        hits = envcat._p_side.cache_info().hits
        for call in (
            lambda: functor_morphism(s3_product, foreign),
            lambda: basepoint_preserved(s3_product, foreign),
            lambda: check_functoriality(s3_product, foreign, foreign_q),
        ):
            with pytest.raises(ShapeMismatch, match="must live over the product's base"):
                call()
        assert envcat._p_side.cache_info().hits == hits
    assert envcat._p_side.cache_info().currsize <= FUNCTOR_P_CACHE_SIZE


def test_a_target_too_wide_for_a_block_still_has_functor_tables():
    # G(p) reads only the middle's fiber sizes: 17 places of a two-point
    # fiber pass the block limit, yet p's tables are over one place
    F = _constant_product(2)
    p, expected = _oracle_morphism(F, (1,), ["x0"] * 17)
    assert functor_morphism(F, p) == expected
    with pytest.raises(SizeLimitExceeded):
        functor_object(F, p.target)
