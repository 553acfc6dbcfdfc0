"""The four text formats (algebra, variety, action and map files) share one
line reader and one integer rule, `algebras.content_lines` and
`algebras.parse_uint`. GOLDEN pins malformed inputs to their exact error
class and message; every numeral in them is an unsigned decimal, and the
parsers gave these same errors before they shared the helpers. Signed and
underscored numerals are refused in every format."""

import pytest

from ualgebra import algebras, cli
from ualgebra.algebras import content_lines, parse_algebras, parse_uint
from ualgebra.catalog import chain_lattice, cyclic_group
from ualgebra.errors import DuplicateName, ParseError, SizeMismatch, TableRangeError
from ualgebra.outer import parse_action_file
from ualgebra.varieties import parse_varieties

_BASES = {"z2": cyclic_group(2), "c3": chain_lattice(3)}


def _resolve(ref):
    try:
        return _BASES[ref]
    except KeyError:
        raise ParseError(f"no algebra {ref!r}") from None


def _parse(fmt, text, tmp_path):
    if fmt == "algebra":
        return parse_algebras(text)
    if fmt == "variety":
        return parse_varieties(text)
    if fmt == "action":
        return parse_action_file(text, _resolve)
    path = tmp_path / "m.map"
    path.write_text(text)
    return cli._parse_map_file(str(path), ("phi", "lambda", "rho"))


# (format, text, error class, message); `{path}` is the map file's path
GOLDEN = [
    ("algebra", "algebra a\nsize 2\nop m/2\n0 1\n1 0\n", ParseError, "<input>:5:1: missing 'end'"),
    ("algebra", "algebra a\nsize 1\n# c\n\n", ParseError, "<input>:4:1: missing 'end'"),
    ("algebra", "algebra a\nsize 2\nop m/2\n0 1 1\nend\n", ParseError, "<input>:5:1: table for 'm' has 3 of 4 entries"),
    ("algebra", "algebra a\nsize 2\nop m/2\n0 1 1\nop i/1\n0 1\nend\n", ParseError, "<input>:5:1: table for 'm' has 3 of 4 entries"),
    ("algebra", "algebra a\nsize 2\nop m/2\n0 1 1 0 1\nend\n", ParseError, "<input>:4:1: too many entries for 'm'"),
    ("algebra", "algebra a\nsize 2\nop i/1\n0 2\nend\n", TableRangeError, "<input>:4: entry 2 out of range for size 2"),
    ("algebra", "algebra a\nsize 2\nop i/1\n0 x\nend\n", ParseError, "<input>:4:1: bad table entry 'x'"),
    ("algebra", "algebra a\nsize 2\nop m/2\n0 1\n1 5 x\nend\n", TableRangeError, "<input>:5: entry 5 out of range for size 2"),
    ("algebra", "algebra a\nsize 2\nop m/2\n0 1\n1 x 5\nend\n", ParseError, "<input>:5:1: bad table entry 'x'"),
    ("algebra", "algebra a\nsize x\nend\n", ParseError, "<input>:2:1: bad size line"),
    ("algebra", "algebra a\nsize 2\nsize 2\nend\n", ParseError, "<input>:3:1: bad size line"),
    ("algebra", "algebra a\nop m/2\nend\n", ParseError, "<input>:2:1: size must precede op lines"),
    ("algebra", "algebra a\nsize 2\n0 1\nend\n", ParseError, "<input>:3:1: table entries before any op line"),
    ("algebra", "algebra a\nsize 2\nop m\nend\n", ParseError, "<input>:3:1: expected 'op <name>/<arity>'"),
    ("algebra", "algebra a\nsize 2\nop m/x\nend\n", ParseError, "<input>:3:1: arity must be an integer"),
    ("algebra", "algebra a\nend\n", ParseError, "<input>:2:1: missing size"),
    ("algebra", "algebra\n", ParseError, "<input>:1:1: expected 'algebra <name>'"),
    ("algebra", "\n# c\nsize 2\n", ParseError, "<input>:3:1: expected 'algebra <name>'"),
    ("algebra", "algebra a\nsize 1\nend\nalgebra a\nsize 1\nend\n", DuplicateName, "<input>: algebra 'a' defined twice"),
    ("algebra", "algebra a\nsize 10\nop m/100000\nend\n", ParseError, "<input>:3:1: table for 'm' cannot fit in the input"),
    ("algebra", "algebra a\nsize 0\nend\n", SizeMismatch, "carrier must be nonempty"),
    ("variety", "variety v\nop m/2\nid m(x0,x1) = m(x1,x0)\n", ParseError, "<input>:3:0: missing 'end'"),
    ("variety", "variety v\nop m/2\n\n# c\n", ParseError, "<input>:4:0: missing 'end'"),
    ("variety", "variety\n", ParseError, "<input>:1:0: expected 'variety <name>'"),
    ("variety", "# c\nop m/2\n", ParseError, "<input>:2:0: expected 'variety <name>'"),
    ("variety", "variety v\nop m/x\nend\n", ParseError, "<input>:2:0: expected 'op <name>/<arity>'"),
    ("variety", "variety v\nop m\nend\n", ParseError, "<input>:2:0: expected 'op <name>/<arity>'"),
    ("variety", "variety v\nfoo bar\nend\n", ParseError, "<input>:2:0: unexpected line 'foo bar'"),
    ("variety", "variety v\nop m/2\nid m(x0) = x0\nend\n", ParseError, "<input>:3:0: bad identity: 'm' takes 2 arguments, got 1"),
    ("variety", "variety v\nop m/2\nid m(x0 = x0\nend\n", ParseError, "<input>:3:0: bad identity: expected ')' (at offset 5)"),
    ("variety", "variety v\nid m(x0,x1) = x0\nid m(x0) = x0\nop m/2\nend\n", ParseError, "<input>:3:0: bad identity: 'm' takes 2 arguments, got 1"),
    ("variety", "variety v\nend\nvariety v\nend\n", DuplicateName, "<input>: variety 'v' defined twice"),
    ("action", "action\nbase z2\nfiber * 2 0\nmap m (0,0)\n0 1 1 0\n", ParseError, "<input>:5:0: missing 'end'"),
    ("action", "\n# c\n", ParseError, "<input>:2:0: missing 'end'"),
    ("action", "base z2\nend\n", ParseError, "<input>:1:0: expected 'action'"),
    ("action", "action\nbase z2\nfiber * 2 0\nmap m (0,0)\n0 1 1 0\nmap m (0,0)\n0 1 1 0\nend\n", ParseError, "<input>:6:0: repeated map for m (0, 0)"),
    ("action", "action\nbase z2\nfiber * 2 0\nmap m (0,0)\n0 1 1 0\nmap m ( 0 , 0 )\nend\n", ParseError, "<input>:6:0: repeated map for m (0, 0)"),
    ("action", "action\nbase z2\nfiber * x 0\nend\n", ParseError, "<input>:3:0: bad integer 'x'"),
    ("action", "action\nbase z2\nfiber * 2\nend\n", ParseError, "<input>:3:0: expected 'fiber <b|*> <size> <basepoint>'"),
    ("action", "action\nbase z2\nfiber 0 2 0\nfiber 0 2 0\nend\n", ParseError, "<input>:4:0: repeated fiber for 0"),
    ("action", "action\nbase z2\nfiber * 2 0\nfiber * 2 0\nend\n", ParseError, "<input>:4:0: repeated 'fiber *' line"),
    ("action", "action\nbase z2\nfiber 5 2 0\nfiber * 2 0\nend\n", ParseError, "<input>:3:0: fiber for 5 outside the base"),
    ("action", "action\nbase z2\nfiber 0 2 0\nend\n# c\n", ParseError, "<input>:5:0: no fiber for base element 1"),
    ("action", "action\nfiber * 2 0\nend\n", ParseError, "<input>:3:0: missing base"),
    ("action", "action\nbase\nend\n", ParseError, "<input>:2:0: expected 'base <ref>'"),
    ("action", "action\nbase q\nend\n", ParseError, "<input>:0:0: no algebra 'q'"),
    ("action", "action\nbase z2\n0 1\nend\n", ParseError, "<input>:3:0: table entries before any map line"),
    ("action", "action\nbase z2\nfiber * 2 0\nmap zz (0)\n0 1\nend\n", ParseError, "<input>:4:0: map for 'zz', which is not in the signature"),
    ("action", "action\nbase z2\nfiber * 2 0\nmap m (0)\n0 1\nend\n", ParseError, "<input>:4:0: map for m needs 2 base elements"),
    ("action", "action\nbase z2\nfiber * 2 0\nmap m (0,5)\n0 1\nend\n", ParseError, "<input>:4:0: map for m (0, 5) outside the base"),
    ("action", "action\nbase z2\nfiber * 2 0\nmap m (0,q)\n0 1\nend\n", ParseError, "<input>:4:0: bad integer 'q'"),
    ("action", "action\nbase z2\nfiber * 2 0\nmap m (0,0)\n0 a\nend\n", ParseError, "<input>:5:0: bad integer 'a'"),
    ("map", "phi x\n0 1\n", ParseError, "{path}:1:0: bad integer 'x'"),
    ("map", "0 1\nphi 0\n", ParseError, "{path}:1:0: table entries before any map header"),
    ("map", "phi\n0 1\n", ParseError, "{path}:1:0: expected 'phi <element>'"),
    ("map", "phi 0 1\n0 1\n", ParseError, "{path}:1:0: expected 'phi <element>'"),
    ("map", "phi 0\n0 1.0\n", ParseError, "{path}:2:0: bad integer '1.0'"),
    ("map", "# c\n\nrho 0\n0 y 1\n", ParseError, "{path}:4:0: bad integer 'y'"),
]


@pytest.mark.parametrize("fmt, text, error, message", GOLDEN)
def test_malformed_input_gives_its_golden_error(tmp_path, fmt, text, error, message):
    with pytest.raises(error) as caught:
        _parse(fmt, text, tmp_path)
    assert type(caught.value) is error
    assert str(caught.value) == message.format(path=tmp_path / "m.map")


# signed and underscored numerals: a ParseError at their line in every format
NUMERALS = [
    ("algebra", "algebra a\nsize +2\nend\n", "<input>:2:1: bad size line"),
    ("algebra", "algebra a\nsize 2\nop m/-1\nend\n", "<input>:3:1: arity must be an integer"),
    ("algebra", "algebra a\nsize 2\nop i/1\n0 -1\nend\n", "<input>:4:1: bad table entry '-1'"),
    ("algebra", "algebra a\nsize 11\nop e/0\n1_0\nend\n", "<input>:4:1: bad table entry '1_0'"),
    ("algebra", "algebra a\nsize 2\nop e/0\n+1\nend\n", "<input>:4:1: bad table entry '+1'"),
    ("variety", "variety v\nop m/+2\nend\n", "<input>:2:0: expected 'op <name>/<arity>'"),
    ("variety", "variety v\nop m/-1\nend\n", "<input>:2:0: expected 'op <name>/<arity>'"),
    ("variety", "variety v\nop m/1_0\nend\n", "<input>:2:0: expected 'op <name>/<arity>'"),
    ("action", "action\nbase z2\nfiber * +2 0\nend\n", "<input>:3:0: bad integer '+2'"),
    ("action", "action\nbase z2\nfiber -1 2 0\nend\n", "<input>:3:0: bad integer '-1'"),
    ("action", "action\nbase z2\nfiber * 2 0\nmap m (0,1_0)\n0\nend\n", "<input>:4:0: bad integer '1_0'"),
    ("action", "action\nbase z2\nfiber * 2 0\nmap m (0,0)\n0 +1 1 0\nend\n", "<input>:5:0: bad integer '+1'"),
    ("map", "phi +1\n0 1\n", "{path}:1:0: bad integer '+1'"),
    ("map", "phi 0\n0 -1\n", "{path}:2:0: bad integer '-1'"),
    ("map", "phi 1_0\n0 1\n", "{path}:1:0: bad integer '1_0'"),
]


@pytest.mark.parametrize("fmt, text, message", NUMERALS)
def test_signed_and_underscored_numerals_are_parse_errors_at_their_line(
    tmp_path, fmt, text, message
):
    with pytest.raises(ParseError) as caught:
        _parse(fmt, text, tmp_path)
    assert str(caught.value) == message.format(path=tmp_path / "m.map")


def test_spaces_inside_a_map_tuple_are_allowed():
    lines = ["action", "base z2", "fiber * 2 0", "map m (0,1)", "0 1 1 0", "end"]
    spaced = lines[:3] + ["map m ( 0, 1 )"] + lines[4:]
    assert parse_action_file("\n".join(spaced), _resolve) == parse_action_file(
        "\n".join(lines), _resolve
    )


def test_a_non_numeral_in_a_map_tuple_is_quoted_without_its_spaces():
    lines = ["action", "base z2", "fiber * 2 0", "map m (0, q)", "end"]
    with pytest.raises(ParseError, match=r"^<input>:4:0: bad integer 'q'$"):
        parse_action_file("\n".join(lines), _resolve)


def test_map_file_skips_comments_and_refuses_a_repeated_header(tmp_path):
    text = "# c\n\nphi 0\n0 1\nlambda 1\n2\n  3  \n"
    assert _parse("map", text, tmp_path) == {"phi": {0: [0, 1]}, "lambda": {1: [2, 3]}, "rho": {}}
    # a second 'phi 0' table would replace the first
    with pytest.raises(ParseError, match=r"m\.map:5:0: repeated map for phi 0$"):
        _parse("map", "# c\n\nphi 0\n0 1\nphi 0\n1 0\n", tmp_path)


def test_content_lines_numbers_every_line_and_skips_blank_and_comment_lines():
    text = "# c\n\n  a b  \n\t#x\nc\r\nd"
    assert list(content_lines(text)) == [(3, "a b"), (5, "c"), (6, "d")]


@pytest.mark.parametrize(
    "token", ["+2", "-1", "1_0", " 1", "1.0", "²", "\u0663", "\uff13", "", "9" * 5000]
)
def test_parse_uint_refuses_all_but_unsigned_decimals(token):
    with pytest.raises(ParseError, match=r"^src:7:3: bad \{x\} "):
        parse_uint(token, "bad {{x}} {token!r}", "src", 7, 3)
    assert parse_uint("0" + "9" * 4000, "", "src", 7) == int("9" * 4000)


def test_table_entries_read_as_parse_uint_reads_them():
    # common spellings are looked up, every other token goes through parse_uint
    assert all(parse_uint(k, "", "src", 1) == v for k, v in algebras._NUMERALS.items())
    for token in ["0", "07", "255", "256", "299", "\u0663", "\uff13"]:
        text = f"algebra a\nsize 300\nop e/0\n{token}\nend\n"
        try:
            value = parse_uint(token, "", "src", 1)
        except ParseError:
            with pytest.raises(ParseError, match=r"^<input>:4:1: bad table entry "):
                parse_algebras(text)
        else:
            (A,) = parse_algebras(text).values()
            assert A.tables == ((value,),)

