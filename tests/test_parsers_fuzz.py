"""Fuzzing the text parsers: every input is either parsed or rejected with
a UAError, never with another exception."""

import pytest
from hypothesis import given, settings, strategies as st

from ualgebra.algebras import parse_algebras
from ualgebra.errors import ParseError, UAError
from ualgebra.varieties import parse_varieties

# numbers include non-ASCII digits: '²' passes str.isdigit() but not int()
_NUMBER = st.sampled_from(["0", "1", "2", "3", "10", "²", "٣", "1²", "-1", "+2", "1_0", "", "x"])
_NAME = st.sampled_from(["m", "e", "t", "i", "x0", "1a", "m/2", ""])
_TERM = st.sampled_from(["m(x0,x1)", "x0", "e", "m(x0", "f(x0)", "m(x0,x1,x2)", "", "="])


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


@pytest.mark.parametrize(
    "parse, text",
    [
        (parse_algebras, "algebra a\nsize \u00b2\nend\n"),
        (parse_algebras, "algebra a\nsize 2\nop m/\u00b2\nend\n"),
        (parse_varieties, "variety v\nop m/\u00b2\nend\n"),
    ],
)
def test_non_ascii_digits_are_parse_errors(parse, text):
    with pytest.raises(ParseError):
        parse(text)
