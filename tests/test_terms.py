import random

import pytest
from hypothesis import given, strategies as st

from oracles import WalkFault, tree_walk
from ualgebra.algebras import FiniteAlgebra
from ualgebra.catalog import cyclic_group, cyclic_heap
from ualgebra.errors import (
    ArityMismatch,
    MissingAssignment,
    SignatureMismatch,
    SizeMismatch,
    TermSyntaxError,
    UnknownSymbol,
)
from ualgebra.terms import (
    BYTE_CARRIER,
    MAX_TERM_DEPTH,
    TABLE_PAD,
    App,
    Identity,
    Signature,
    Var,
    eval_block,
    eval_term,
    parse_identity,
    parse_term,
    substitute,
    term_depth,
    term_to_str,
    term_variables,
)
from ualgebra.varieties import DIGROUP_SIG, GROUP_SIG, HEAP_SIG, REGISTRY


def test_parse_application_over_group_signature():
    t = parse_term("m(x0,i(x1))", GROUP_SIG)
    assert t == App("m", (Var(0), App("i", (Var(1),))))


def test_parse_bare_constant():
    assert parse_term("e", GROUP_SIG) == App("e", ())
    assert parse_term("e()", GROUP_SIG) == App("e", ())


def test_parse_unbalanced_parenthesis_position():
    with pytest.raises(TermSyntaxError) as exc:
        parse_term("m(x0", GROUP_SIG)
    assert exc.value.position == 5


@pytest.mark.parametrize(
    "text, position",
    [("m(x\u0663,x0)", 3), ("m(x0,x" + "9" * 5000 + ")", 6)],
    ids=["arabic-indic digit", "5000-digit index"],
)
def test_parse_variable_index_is_ascii_digits_that_fit_an_int(text, position):
    with pytest.raises(TermSyntaxError) as exc:
        parse_term(text, GROUP_SIG)
    assert exc.value.position == position


def test_parse_whitespace_insensitive():
    assert parse_term(" m( x0 , i( x1 ) ) ", GROUP_SIG) == parse_term("m(x0,i(x1))", GROUP_SIG)


def test_parse_unknown_symbol():
    with pytest.raises(UnknownSymbol):
        parse_term("f(x0)", GROUP_SIG)


def test_parse_arity_mismatch():
    with pytest.raises(ArityMismatch):
        parse_term("m(x0)", GROUP_SIG)
    with pytest.raises(ArityMismatch):
        parse_term("i", GROUP_SIG)


def test_parse_caps_the_nesting_depth():
    def nested(depth, var="x0"):
        return "i(" * depth + var + ")" * depth

    deepest = parse_term(nested(MAX_TERM_DEPTH), GROUP_SIG)
    assert term_depth(deepest) == MAX_TERM_DEPTH
    # the deepest accepted term stays within the default recursion limit
    assert eval_term(deepest, cyclic_group(4), (1,)) == (1, 3)[MAX_TERM_DEPTH % 2]
    assert term_variables(deepest) == {0}
    assert substitute(deepest, (Var(1),)) == parse_term(nested(MAX_TERM_DEPTH, "x1"), GROUP_SIG)
    assert term_to_str(deepest) == nested(MAX_TERM_DEPTH)
    for depth in (MAX_TERM_DEPTH + 1, 3000):
        with pytest.raises(TermSyntaxError):
            parse_term(nested(depth), GROUP_SIG)


def test_signature_rejects_variable_like_names():
    with pytest.raises(Exception):
        Signature((("x0", 1),))


def test_eval_against_z4():
    z4 = cyclic_group(4)
    t = parse_term("m(x0,i(x1))", GROUP_SIG)
    assert eval_term(t, z4, (3, 1)) == 2
    assert eval_term(parse_term("e", GROUP_SIG), z4, ()) == 0
    assert eval_term(Var(0), z4, (3,)) == 3


def test_eval_missing_assignment():
    z4 = cyclic_group(4)
    with pytest.raises(MissingAssignment):
        eval_term(Var(2), z4, (0, 1))


def test_eval_rejects_terms_outside_the_algebras_signature():
    # built with App directly, as the parser would reject both terms itself;
    # a node is checked before its arguments, so the outer fault is reported
    z4 = cyclic_group(4)
    with pytest.raises(SignatureMismatch, match="'f' not in the algebra's signature"):
        eval_term(App("f", (Var(5),)), z4, (0,))
    with pytest.raises(SignatureMismatch, match="arity mismatch for 'm'"):
        eval_term(App("m", (App("f", (Var(0),)),)), z4, (0,))


def test_eval_single_application_is_table_lookup():
    z4 = cyclic_group(4)
    t = App("m", (Var(0), Var(1)))
    for a in range(4):
        for b in range(4):
            assert eval_term(t, z4, (a, b)) == z4.apply("m", (a, b))


def test_identity_var_count_derived_and_validated():
    ident = parse_identity("m(x0,x1) = m(x1,x0)", GROUP_SIG)
    assert ident.var_count == 2
    with pytest.raises(ArityMismatch):
        Identity(Var(3), Var(0), var_count=2)


def test_substitute():
    t = parse_term("i(m(x0,x1))", GROUP_SIG)
    s = substitute(t, (App("e", ()), Var(0)))
    assert term_to_str(s) == "i(m(e,x0))"


def _terms(sig, max_vars=3):
    leaves = st.builds(Var, st.integers(min_value=0, max_value=max_vars - 1))
    nullary = [App(name, ()) for name, k in sig.symbols if k == 0]
    if nullary:
        leaves = leaves | st.sampled_from(nullary)

    def extend(children):
        apps = [
            st.builds(App, st.just(name), st.tuples(*([children] * k)))
            for name, k in sig.symbols
            if k > 0
        ]
        return st.one_of(*apps) if apps else children

    return st.recursive(leaves, extend, max_leaves=12)


@pytest.mark.parametrize(
    "sig", sorted({spec.signature for spec in REGISTRY.values()}, key=str)
)
@given(data=st.data())
def test_parse_print_roundtrip(sig, data):
    t = data.draw(_terms(sig))
    assert parse_term(term_to_str(t), sig) == t


@given(data=st.data())
def test_substitution_commutes_with_evaluation(data):
    # eval(t[ps], env) == eval(t, [eval(p, env) for p in ps])
    z4 = cyclic_group(4)
    t = data.draw(_terms(GROUP_SIG, max_vars=2))
    ps = tuple(data.draw(_terms(GROUP_SIG, max_vars=2)) for _ in range(2))
    env = (data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3)))
    inner_values = tuple(eval_term(p, z4, env) for p in ps)
    assert eval_term(substitute(t, ps), z4, env) == eval_term(t, z4, inner_values)


def test_roundtrip_across_registry():
    # depth-limited spot checks for every registered signature
    for spec in REGISTRY.values():
        for name, k in spec.signature.symbols:
            t = App(name, tuple(Var(j) for j in range(k)))
            assert parse_term(term_to_str(t), spec.signature) == t


# -- the column kernel against the tree walker --------------------------------
#
# Orders 2-17 with symbols of arity 0-5 (those whose table has at most
# 100,000 entries) reach every path of `eval_block`: one translation map
# (n^k <= 256: binary tables on every byte carrier, ternary on 2-6, 4-ary on
# 2-4, 5-ary on 2-3), one window per first-argument value (256 < n^k <=
# 256 * n: ternary on 7-16, 4-ary on 5-6, 5-ary on 4), the list path on a
# byte carrier (longer tables: 4-ary on 7-16, 5-ary on 5-10) and the list
# path of a carrier above BYTE_CARRIER (17).

KERNEL_SYMBOLS = (("c", 0), ("u", 1), ("b", 2), ("t", 3), ("q", 4), ("p", 5))
KERNEL_ORDERS = range(2, BYTE_CARRIER + 2)


def _kernel_algebra(n: int):
    rng = random.Random(n)
    symbols = tuple((name, k) for name, k in KERNEL_SYMBOLS if n**k <= 100_000)
    tables = tuple(tuple(rng.choices(range(n), k=n**k)) for _, k in symbols)
    return FiniteAlgebra(f"random{n}", Signature(symbols), n, tables)


def _random_term(rng, symbols, variables: int, depth: int):
    if depth == 0 or rng.random() < 0.25:
        return Var(rng.randrange(variables))
    name, k = rng.choice(symbols)
    return App(name, tuple(_random_term(rng, symbols, variables, depth - 1) for _ in range(k)))


def _walk(t, A, assignment):
    try:
        return tree_walk(t, A, assignment)
    except WalkFault as fault:
        return str(fault)


def _fault(exc: Exception) -> str:
    """The kind of WalkFault that `exc` is raised for."""
    if isinstance(exc, MissingAssignment):
        return "missing"
    if isinstance(exc, SignatureMismatch) and "arity mismatch" in str(exc):
        return "arity"
    if isinstance(exc, SignatureMismatch) and "not in the algebra's signature" in str(exc):
        return "symbol"
    raise exc


@pytest.mark.parametrize("n", KERNEL_ORDERS)
def test_eval_block_values_match_the_tree_walker(n):
    A = _kernel_algebra(n)
    rng = random.Random(100 + n)
    for _ in range(25):
        t = _random_term(rng, A.signature.symbols, 4, 4)
        length = rng.choice((1, 2, 7, 40))
        rows = [tuple(rng.randrange(n) for _ in range(4)) for _ in range(length)]
        expected = [tree_walk(t, A, row) for row in rows]
        for column_type in (list, bytes) if n <= BYTE_CARRIER else (list,):
            got = eval_block(t, A, [column_type(c) for c in zip(*rows)], length)
            assert list(got) == expected, (n, term_to_str(t))
            if isinstance(t, App):
                # the two sides of an identity compare as columns of one type
                assert type(got) is (bytes if n <= BYTE_CARRIER else list)


@pytest.mark.parametrize("n", KERNEL_ORDERS)
def test_a_one_row_block_returns_the_column_type_of_a_longer_block(n):
    # a block of one row indexes the tables directly, and still returns a
    # one-byte `bytes` on a byte carrier, so that a one-row identity check
    # compares like with like
    A = _kernel_algebra(n)
    rng = random.Random(150 + n)
    column_type = bytes if n <= BYTE_CARRIER else list
    for _ in range(40):
        name, k = rng.choice(A.signature.symbols)
        t = App(name, tuple(_random_term(rng, A.signature.symbols, 4, 3) for _ in range(k)))
        row = tuple(rng.randrange(n) for _ in range(4))
        for columns in ([column_type((v,)) for v in row], [(v,) for v in row]):
            got = eval_block(t, A, columns, 1)
            assert type(got) is column_type and list(got) == [tree_walk(t, A, row)]


@pytest.mark.parametrize("n", KERNEL_ORDERS)
def test_eval_block_raises_the_first_fault_of_the_tree_walk(n):
    # terms over more symbols and variables than the algebra and the block
    # have, and symbols at the wrong arity
    A = _kernel_algebra(n)
    rng = random.Random(200 + n)
    symbols = A.signature.symbols + (("z", 1), ("b", 3), ("u", 0))
    faults = set()
    for _ in range(60):
        t = _random_term(rng, symbols, 5, 4)
        row = tuple(rng.randrange(n) for _ in range(4))
        expected = _walk(t, A, row)
        column_type = bytes if n <= BYTE_CARRIER else list
        for length in (1, 3):
            try:
                got = eval_block(t, A, [column_type((v,)) * length for v in row], length)[0]
            except (MissingAssignment, SignatureMismatch) as exc:
                got = _fault(exc)
            assert got == expected, (n, term_to_str(t))
        try:
            got = eval_term(t, A, row)
        except (MissingAssignment, SignatureMismatch) as exc:
            got = _fault(exc)
        assert got == expected, (n, term_to_str(t))
        faults.add(expected)
    assert {"missing", "symbol", "arity"} <= faults


def _variables_by_definition(t):
    """vars(x_j) = {j}, and vars(f(t1, ..., tk)) is the union of the vars(t_i)."""
    if isinstance(t, Var):
        return {t.index}
    return set().union(*map(_variables_by_definition, t.args))


# carriers of two, of five and of more than BYTE_CARRIER elements
DEFINITION_ALGEBRAS = {n: _kernel_algebra(n) for n in (2, 5, BYTE_CARRIER + 1)}


@given(data=st.data())
def test_term_variables_and_eval_term_agree_with_the_definitions(data):
    # rows of 3 or 4 values, so that x3 may have none
    n = data.draw(st.sampled_from(sorted(DEFINITION_ALGEBRAS)))
    A = DEFINITION_ALGEBRAS[n]
    t = data.draw(_terms(A.signature, max_vars=4))
    assert term_variables(t) == _variables_by_definition(t)
    row = tuple(data.draw(st.lists(st.integers(0, n - 1), min_size=3, max_size=4)))
    try:
        got = eval_term(t, A, row)
    except MissingAssignment as exc:
        got = _fault(exc)
    assert got == _walk(t, A, row), (n, term_to_str(t), row)


# Values outside a carrier of n elements: below it, just past it, further
# past it, the largest byte and the first value past a byte.
def _outside(n: int) -> tuple[int, ...]:
    return (-1, n, n + 3, 255, 256)


@pytest.mark.parametrize("n", KERNEL_ORDERS)
def test_eval_term_refuses_a_value_outside_the_carrier(n):
    # one row, as `eval_term` evaluates: a value outside the carrier at any
    # place raises SizeMismatch, whether or not the term reads that place
    A = _kernel_algebra(n)
    rng = random.Random(300 + n)
    outcomes = set()
    for _ in range(60):
        t = _random_term(rng, A.signature.symbols, 3, 3)
        row = tuple(rng.choice((rng.randrange(n), rng.choice(_outside(n)))) for _ in range(3))
        if all(0 <= v < n for v in row):
            assert eval_term(t, A, row) == tree_walk(t, A, row), (n, term_to_str(t), row)
        else:
            with pytest.raises(SizeMismatch, match="must lie in the carrier"):
                eval_term(t, A, row)
        outcomes.add(all(0 <= v < n for v in row))
    assert outcomes == {True, False}
    t = App("b", (Var(0), Var(1)))
    for place in range(3):
        for v in _outside(n):
            row = tuple(v if j == place else 0 for j in range(3))
            with pytest.raises(SizeMismatch):
                eval_term(t, A, row)


def test_eval_term_refuses_values_whose_index_stays_inside_the_table():
    # a tuple lookup at the row-major index reads an entry for (0,5) and
    # (0,-1) on Z4 and for (0,-1) and (0,17) on Z17; no byte lane holds 256
    # or 300
    z4, z17 = cyclic_group(4), cyclic_group(17)
    m = App("m", (Var(0), Var(1)))
    for t, A, row in [
        (m, z4, (0, 5)),
        (m, z17, (0, -1)),
        (m, z17, (0, 17)),
        (App("i", (Var(0),)), z4, (256,)),
        (m, z4, (0, -1)),
        (App("t", (Var(0), Var(1), Var(2))), cyclic_heap(4), (0, 0, 300)),
    ]:
        with pytest.raises(SizeMismatch):
            eval_term(t, A, row)
    assert eval_term(m, z17, (16, 1)) == tree_walk(m, z17, (16, 1)) == 0


def test_eval_term_refuses_a_value_that_is_not_an_int():
    # 1.0 and 2.5 pass the range test 0 <= a < n; an element is an int, and
    # a bool reads as the int it is
    m = App("m", (Var(0), Var(1)))
    for A in (cyclic_group(4), cyclic_group(17)):
        for row in [(1.0, 0), (0, 2.5), (3.0, 1.0)]:
            with pytest.raises(SizeMismatch, match="must lie in the carrier"):
                eval_term(m, A, row)
        assert eval_term(m, A, (True, 1)) == eval_term(m, A, (1, 1)) == 2


# -- windowed tables: n^(k-1) <= 256 < n^k on a byte carrier ---------------

WINDOWED = [(3, n) for n in range(7, BYTE_CARRIER + 1)] + [(4, 5), (4, 6)]


def _windowed_algebra(k: int, n: int):
    rng = random.Random(1000 * k + n)
    table = tuple(rng.choices(range(n), k=n**k))
    return FiniteAlgebra(f"w{k}_{n}", Signature((("w", k),)), n, (table,))


def _first_column(kind: str, rng, n: int, length: int) -> list[int]:
    if kind == "constant":
        return [rng.randrange(n)] * length
    if kind == "two-valued":
        pair = rng.sample(range(n), 2)
        return [rng.choice(pair) for _ in range(length)]
    column = [i % n for i in range(length)]
    rng.shuffle(column)
    return column


@pytest.mark.parametrize("k, n", WINDOWED)
def test_windowed_tables_match_the_tree_walker(k, n):
    A = _windowed_algebra(k, n)
    assert n ** (k - 1) <= 256 < n**k and type(A.byte_tables[0]) is tuple
    rng = random.Random(400 + 10 * k + n)
    flat = App("w", tuple(Var(j) for j in range(k)))
    # an application as the first argument, and as a trailing one
    nested = App("w", (flat,) + tuple(Var(j) for j in range(1, k - 1)) + (flat,))
    for length in (0, 1, 7, 4096):
        for kind in ("constant", "two-valued", "full-range"):
            rows = list(
                zip(
                    _first_column(kind, rng, n, length),
                    *([rng.randrange(n) for _ in range(length)] for _ in range(k - 1)),
                )
            )
            for t in (flat, nested):
                expected = [tree_walk(t, A, row) for row in rows]
                for column_type in (bytes, list):
                    columns = [column_type(c) for c in zip(*rows)] or [column_type()] * k
                    got = eval_block(t, A, columns, length)
                    assert type(got) is bytes and list(got) == expected, (k, n, length, kind)


@pytest.mark.parametrize("k, n", WINDOWED)
def test_a_windowed_table_refuses_values_outside_the_carrier(k, n):
    A = _windowed_algebra(k, n)
    t = App("w", tuple(Var(j) for j in range(k)))
    # a value outside the carrier at any argument place is refused; the
    # walker's index leaves the table where the first argument is past it
    for place in range(k):
        for v in _outside(n):
            row = tuple(v if j == place else 0 for j in range(k))
            with pytest.raises(SizeMismatch):
                eval_term(t, A, row)
            if place == 0 and v >= n:
                assert _walk(t, A, row) == "index"
    # rows inside the carrier read what the walker reads
    rng = random.Random(500 + 10 * k + n)
    for _ in range(40):
        row = tuple(rng.randrange(n) for _ in range(k))
        assert eval_term(t, A, row) == tree_walk(t, A, row), (k, n, row)


def test_a_middle_argument_past_the_carrier_is_refused():
    # 0 * 256 + 19 * 16 + 0 = 304 is an entry of the table, which the
    # walker reads, but 19 is no element of a 16-element carrier
    A = _windowed_algebra(3, 16)
    t = App("w", (Var(0), Var(1), Var(2)))
    assert tree_walk(t, A, (0, 19, 0)) == A.tables[0][304]
    with pytest.raises(SizeMismatch):
        eval_term(t, A, (0, 19, 0))


@pytest.mark.parametrize("n", range(2, BYTE_CARRIER + 1))
def test_each_table_has_the_translation_map_its_length_allows(n):
    A = _kernel_algebra(n)
    maps = A.byte_tables
    for p, ((_, k), table) in enumerate(zip(A.signature.symbols, A.tables)):
        if len(table) <= 256:
            assert maps[p] == bytes(table) + bytes((TABLE_PAD,)) * (256 - len(table))
        elif len(table) <= 256 * n:
            # window v holds v's own m entries, then TABLE_PAD
            m = n ** (k - 1)
            assert len(maps[p]) == n
            for v, window in enumerate(maps[p]):
                assert window == bytes(table[v * m : (v + 1) * m]) + bytes((TABLE_PAD,)) * (256 - m)
        else:
            assert p not in maps
