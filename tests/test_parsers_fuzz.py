"""Fuzzing the text parsers: every input is either parsed or rejected with
a UAError, never with another exception."""

import pytest
from hypothesis import given, settings, strategies as st

from ualgebra.algebras import parse_algebras
from ualgebra.catalog import chain_lattice, cyclic_group
from ualgebra.errors import ParseError, UAError
from ualgebra.outer import parse_action_file
from ualgebra.varieties import parse_varieties

# numbers include non-ASCII digits: '²' passes str.isdigit() but not int()
_NUMBER = st.sampled_from(["0", "1", "2", "3", "10", "²", "٣", "1²", "-1", "+2", "1_0", "", "x"])
_NAME = st.sampled_from(["m", "e", "t", "i", "x0", "1a", "m/2", ""])
_TERM = st.sampled_from(
    ["m(x0,x1)", "x0", "e", "m(x0", "f(x0)", "m(x0,x1,x2)", "", "=", "x\u0663", "x" + "9" * 5000]
)


def _line(*parts):
    return st.tuples(*parts).map(" ".join)


_ALGEBRA_LINES = st.one_of(
    _line(st.just("algebra"), _NAME),
    _line(st.just("size"), _NUMBER),
    _line(st.just("op"), st.tuples(_NAME, _NUMBER).map("/".join)),
    st.lists(_NUMBER, max_size=6).map(" ".join),
    st.sampled_from(["end", "# comment", "", "algebra", "size", "op m"]),
    st.text(max_size=12),
)

_VARIETY_LINES = st.one_of(
    _line(st.just("variety"), _NAME),
    _line(st.just("op"), st.tuples(_NAME, _NUMBER).map("/".join)),
    _line(st.just("id"), _TERM, st.just("="), _TERM),
    st.sampled_from(["end", "# comment", "", "variety", "op", "id"]),
    st.text(max_size=12),
)


_ACTION_LINES = st.one_of(
    _line(st.just("base"), st.sampled_from(["z2", "c3", "q", ""])),
    _line(st.just("fiber"), st.one_of(st.just("*"), _NUMBER), _NUMBER, _NUMBER),
    _line(st.just("map"), _NAME, st.lists(_NUMBER, max_size=3).map(",".join).map("({})".format)),
    st.lists(_NUMBER, max_size=6).map(" ".join),
    st.sampled_from(["action", "end", "# comment", "", "base", "fiber * 1", "map", "map m"]),
    st.text(max_size=12),
)

_BASES = {"z2": cyclic_group(2), "c3": chain_lattice(3)}


def _resolve(ref):
    try:
        return _BASES[ref]
    except KeyError:
        raise ParseError(f"no algebra {ref!r}") from None


@settings(max_examples=300, deadline=None)
@given(st.lists(_ALGEBRA_LINES, max_size=12))
def test_parse_algebras_parses_or_raises_a_library_error(lines):
    try:
        parse_algebras("\n".join(lines))
    except UAError:
        pass


@settings(max_examples=300, deadline=None)
@given(st.lists(_VARIETY_LINES, max_size=12))
def test_parse_varieties_parses_or_raises_a_library_error(lines):
    try:
        parse_varieties("\n".join(lines))
    except UAError:
        pass


@settings(max_examples=300, deadline=None)
@given(st.booleans(), st.lists(_ACTION_LINES, max_size=12))
def test_parse_action_file_parses_or_raises_a_library_error(opened, lines):
    try:
        parse_action_file("\n".join(["action"] * opened + lines), _resolve)
    except UAError:
        pass


@pytest.mark.parametrize(
    "parse, text",
    [
        (parse_algebras, "algebra a\nsize \u00b2\nend\n"),
        (parse_algebras, "algebra a\nsize 2\nop m/\u00b2\nend\n"),
        (parse_varieties, "variety v\nop m/\u00b2\nend\n"),
        # int() refuses numerals over 4,300 digits
        pytest.param(
            parse_varieties, "variety v\nop m/" + "9" * 5000 + "\nend\n", id="5000-digit arity"
        ),
    ],
)
def test_non_ascii_digits_are_parse_errors(parse, text):
    with pytest.raises(ParseError):
        parse(text)


@pytest.mark.parametrize(
    "line",
    ["fiber * x 0", "fiber * \u00b2 0", "fiber 7 2 0", "fiber -1 2 0", "map m (0,q)", "0 a 1 0"]
    # map lines the base cannot use, and repeated lines
    + ["map zz (0)", "map m (5,5,5)", "map m (0,5)", "map i (-1)", "map m (0,0)", "fiber * 3 0"],
)
def test_bad_action_file_numbers_are_parse_errors_at_their_line(line):
    lines = ["action", "base z2", "fiber * 2 0", "map m (0,0)", "0 1 1 0", line, "end"]
    with pytest.raises(ParseError, match=r"^<input>:6:"):
        parse_action_file("\n".join(lines), _resolve)


def test_repeated_fiber_line_is_a_parse_error_at_its_line():
    lines = ["action", "base z2", "fiber 0 2 0", "fiber 1 2 0", "fiber 0 3 0", "end"]
    with pytest.raises(ParseError, match=r"^<input>:5:0: repeated fiber for 0"):
        parse_action_file("\n".join(lines), _resolve)


@pytest.mark.parametrize("arity", [10**5, 10**6])
def test_arities_too_large_for_the_input_are_parse_errors(arity):
    with pytest.raises(ParseError, match="cannot fit"):
        parse_algebras(f"algebra a\nsize 10\nop m/{arity}\nend\n")
