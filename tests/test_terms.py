import pytest
from hypothesis import given, strategies as st

from ualgebra.catalog import cyclic_group
from ualgebra.errors import (
    ArityMismatch,
    MissingAssignment,
    SignatureMismatch,
    TermSyntaxError,
    UnknownSymbol,
)
from ualgebra.terms import (
    MAX_TERM_DEPTH,
    App,
    Identity,
    Signature,
    Var,
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
