"""Signatures and the term language: parsing, printing, evaluation."""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Union

from .errors import (
    ArityMismatch,
    MissingAssignment,
    SignatureMismatch,
    SizeMismatch,
    TermSyntaxError,
    UnknownSymbol,
    in_carrier,
)

if TYPE_CHECKING:
    from .algebras import FiniteAlgebra

_VAR_RE = re.compile(r"x(\d+)")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# Deeper terms are rejected at parse time: evaluation, substitution and
# printing recurse once or twice per level, within Python's default limit.
MAX_TERM_DEPTH = 200
# On carriers of at most this many elements `eval_block` works over byte
# columns: every value fits in a byte and a binary index in an 8-bit lane.
BYTE_CARRIER = 16
# The byte that pads a translation table or window to 256 entries.
TABLE_PAD = 0xFF
# each byte value as a one-byte string: a constant's column repeats one
_ONE_BYTE = tuple(bytes((v,)) for v in range(256))
# for each carrier value v, the map of v to 0xFF and of every other byte to 0
_EQUALS = tuple(bytes(v) + b"\xff" + bytes(255 - v) for v in range(BYTE_CARRIER))


@dataclass(frozen=True)
class Signature:
    """Ordered list of (name, arity) pairs; the order indexes operation tables."""

    symbols: tuple[tuple[str, int], ...]

    def __post_init__(self):
        seen = set()
        for name, arity in self.symbols:
            if name in seen:
                raise SignatureMismatch(f"duplicate symbol {name!r}")
            seen.add(name)
            if arity < 0:
                raise SignatureMismatch(f"negative arity for {name!r}")
            # names of the form x<digits> would be unparseable (variables win)
            if _VAR_RE.fullmatch(name):
                raise SignatureMismatch(f"symbol name {name!r} collides with variable syntax")
            if not _NAME_RE.fullmatch(name):
                raise SignatureMismatch(f"symbol name {name!r} is not an identifier")

    @cached_property
    def _index(self) -> dict[str, int]:
        return {name: i for i, (name, _) in enumerate(self.symbols)}

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def position(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownSymbol(f"symbol {name!r} not in signature") from None

    def arity(self, name: str) -> int:
        return self.symbols[self.position(name)][1]


@dataclass(frozen=True)
class Var:
    index: int


@dataclass(frozen=True)
class App:
    symbol: str
    args: tuple["Term", ...] = ()


Term = Union[Var, App]


def term_variables(t: Term) -> set[int]:
    """The variable indices of `t`, collected into one set by one walk."""
    out: set[int] = set()
    stack = [t]
    while stack:
        u = stack.pop()
        if type(u) is Var:
            out.add(u.index)
        else:
            stack.extend(u.args)
    return out


def term_depth(t: Term) -> int:
    if isinstance(t, Var):
        return 0
    return 1 + max((term_depth(a) for a in t.args), default=0)


def term_to_str(t: Term) -> str:
    if isinstance(t, Var):
        return f"x{t.index}"
    if not t.args:
        return t.symbol
    return f"{t.symbol}({','.join(term_to_str(a) for a in t.args)})"


class _Parser:
    def __init__(self, text: str, sig: Signature):
        self.text = text
        self.sig = sig
        self.pos = 0
        self.depth = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def fail(self, message: str):
        raise TermSyntaxError(message, self.pos + 1)

    def parse(self) -> Term:
        t = self.term()
        self.skip_ws()
        if self.pos != len(self.text):
            self.fail("trailing input")
        return t

    def term(self) -> Term:
        self.skip_ws()
        m = _VAR_RE.match(self.text, self.pos)
        if m:
            digits = m.group(1)
            if not digits.isascii():
                self.fail("a variable index is written with the digits 0-9")
            try:
                index = int(digits)
            except ValueError:  # over the interpreter's limit of 4,300 digits
                self.fail("variable index too long")
            self.pos = m.end()
            return Var(index)
        m = _NAME_RE.match(self.text, self.pos)
        if m is None:
            self.fail("expected a variable or symbol")
        name = m.group(0)
        if name not in self.sig:
            raise UnknownSymbol(f"symbol {name!r} not in signature")
        self.pos = m.end()
        arity = self.sig.arity(name)
        self.skip_ws()
        if self.pos < len(self.text) and self.text[self.pos] == "(":
            self.depth += 1
            if self.depth > MAX_TERM_DEPTH:
                self.fail(f"term nested deeper than {MAX_TERM_DEPTH} levels")
            self.pos += 1
            args: list[Term] = []
            self.skip_ws()
            if self.pos < len(self.text) and self.text[self.pos] == ")":
                self.pos += 1
            else:
                while True:
                    args.append(self.term())
                    self.skip_ws()
                    if self.pos >= len(self.text):
                        self.fail("expected ')'")
                    ch = self.text[self.pos]
                    if ch == ",":
                        self.pos += 1
                        continue
                    if ch == ")":
                        self.pos += 1
                        break
                    self.fail("expected ',' or ')'")
            if len(args) != arity:
                raise ArityMismatch(f"{name!r} takes {arity} arguments, got {len(args)}")
            self.depth -= 1
            return App(name, tuple(args))
        # bare symbol: only constants may omit the argument list
        if arity != 0:
            raise ArityMismatch(f"{name!r} takes {arity} arguments, got none")
        return App(name, ())


def parse_term(text: str, sig: Signature) -> Term:
    """Parse `text` into a term over `sig`.

    Grammar: variables `x0,x1,...`; applications `name(t1,...,tk)`; arity-0
    symbols may be written bare. Whitespace-insensitive. Terms nested deeper
    than MAX_TERM_DEPTH raise TermSyntaxError.
    """
    return _Parser(text, sig).parse()


def translation_tables(tables, n: int) -> dict[int, bytes | tuple[bytes, ...]]:
    """The `bytes.translate` maps that `eval_block` reads on a carrier of
    n <= BYTE_CARRIER elements, by table position, each padded to 256 bytes
    with TABLE_PAD. A table of at most 256 entries is one map. A table of
    n^k <= 256 * n entries is n windows: window v holds v's own m = n^(k-1)
    entries, v * m up to (v + 1) * m, so rest index r reads entry v * m + r
    as the row-major lookup does. Longer tables have no map."""
    pad = bytes((TABLE_PAD,))
    maps: dict[int, bytes | tuple[bytes, ...]] = {}
    for p, table in enumerate(tables):
        if len(table) <= 256:
            maps[p] = bytes(table).ljust(256, pad)
        elif len(table) <= 256 * n:
            m, data = len(table) // n, bytes(table)
            maps[p] = tuple(data[v * m : (v + 1) * m].ljust(256, pad) for v in range(n))
    return maps


def _read_windows(windows: tuple[bytes, ...], cols, n: int, length: int) -> bytes:
    """An application's values through the windows of its table: its
    trailing columns packed as 8-bit lanes, read through the window of each
    row's first value."""
    first = bytes(cols[0])
    idx = 0
    for col in cols[1:]:  # two or more: a binary table has at most 256 entries
        idx = idx * n + int.from_bytes(col, "little")
    lanes = idx.to_bytes(length, "little")
    v = first[0] if length else 0
    if first.count(v) == length:
        return lanes.translate(windows[v])
    # each row keeps the window of its first value: a mask of 0xFF where the
    # first column holds v, ANDed with the lanes read through v's
    acc = 0
    for v in range(n):
        if v in first:
            mask = int.from_bytes(first.translate(_EQUALS[v]), "little")
            acc |= mask & int.from_bytes(lanes.translate(windows[v]), "little")
    return acc.to_bytes(length, "little")


def read_table(algebra: "FiniteAlgebra", p: int, cols, length: int):
    """The entries of `algebra`'s table p at `length` rows: row r reads the
    entry at the row-major index of (cols[0][r], ..., cols[-1][r]). The
    columns hold carrier elements, one per argument place, and the result
    has the column type of `eval_block`: `bytes` on a carrier of at most
    BYTE_CARRIER elements, a list beyond.

    On a byte carrier a table of n^k <= 256 entries packs the columns as
    8-bit lanes of one big int, `idx = idx * n + int.from_bytes(column)`,
    which never carry, since every index is below n^k, and reads them by one
    `bytes.translate` through its `translation_tables` map; no columns read
    the one entry of a constant. A table of n^k <= 256 * n entries (ternary
    on 7-16, 4-ary on 5-6) packs its trailing k - 1 columns the same way and
    reads each row through the window of its first column's value. A longer
    table, and every table on a larger carrier, takes the list path: it
    packs the row-major index per row and reads the table once per row.
    """
    table = algebra.tables[p]
    n = algebra.size
    if n <= BYTE_CARRIER and len(table) <= 256:
        if len(cols) == 1:
            lanes = bytes(cols[0])
        else:
            idx = 0
            for col in cols:
                idx = idx * n + int.from_bytes(col, "little")
            lanes = idx.to_bytes(length, "little")
        return lanes.translate(algebra.byte_tables[p])
    if n <= BYTE_CARRIER and len(table) <= 256 * n:
        return _read_windows(algebra.byte_tables[p], cols, n, length)
    packed = cols[0]
    if len(cols) == 1:
        # on a byte carrier a unary table has at most 16 entries: never here
        return [table[a] for a in packed]
    for col in cols[1:-1]:
        packed = [i * n + a for i, a in zip(packed, col)]
    out = [table[i * n + a] for i, a in zip(packed, cols[-1])]
    return bytes(out) if n <= BYTE_CARRIER else out


def batch_tables(tables, places, n: int, count: int):
    """`count` copies of each table and of each of its place columns, all
    `bytes` over an n-element carrier, for `maps_tables`: copy c adds c * n
    to every byte, so code c * n + x reads map c at x. count * n is at most
    256. The copies are made by doubling, the copies so far followed by
    themselves shifted by their number times n through one `translate`, so
    a column costs about log2(count) `bytes` operations and no loop per
    copy. A shift carries codes past 255 into TABLE_PAD only in copies that
    the final slice drops."""
    shifts = []
    have = 1
    while have < count:
        shifts.append(bytes(range(have * n, 256)).ljust(256, bytes((TABLE_PAD,))))
        have *= 2

    made: dict[bytes, bytes] = {}  # tables of one arity share their place columns

    def copies(column: bytes) -> bytes:
        if column not in made:
            out = column
            for shift in shifts:
                out += out.translate(shift)
            made[column] = out[: count * len(column)]
        return made[column]

    return tuple(map(copies, tables)), tuple(tuple(map(copies, cols)) for cols in places)


def maps_tables(codes: bytes, count: int, tables, places, B: "FiniteAlgebra") -> list[int]:
    """The indices c, ascending, of the maps among a batch of `count` that
    carry each table of `tables` to B's table at its position.

    `codes` is the batch's maps one after another, map c at c * m up to
    (c + 1) * m for m = len(codes) // count, at most 256 bytes, each entry
    an element of B, which has at most BYTE_CARRIER. Table p and its place
    columns `places[p]` are `bytes` holding `count` copies of one table over
    an m-element carrier and of its row-major place columns, copy c coded
    c * m + x (`batch_tables`; a batch of one is the table itself). So one
    `translate` through `codes` maps every copy through its own map, and
    B's table is read at the place columns mapped the same way:

    - a table of B with at most 256 entries: each column is packed into
      8-bit lanes as it is mapped, and the lanes are read by one
      `translate` through B's map (`read_table`'s lane pack, inlined);
    - a windowed table (ternary on 7-16 elements, 4-ary on 5-6): the
      columns are row-major, so every run of m^(k-1) rows with one first
      code holds the same trailing rows as its copy's first run. Those
      first runs are packed the same way, and each run is read through the
      one window of its mapped first value, one `translate` per run;
    - a table with no map: `read_table`'s list path.

    Only a table whose mapped bytes differ from B's read is split into one
    slice per map, and the search stops once no map is left."""
    byte_map = codes.ljust(256, bytes((TABLE_PAD,)))
    n, maps = B.size, B.byte_tables
    m = len(codes) // count
    kept = range(count)
    for p, (table, columns) in enumerate(zip(tables, places)):
        length = len(table)
        step = length // count  # one copy
        target = maps.get(p)
        if type(target) is bytes:
            idx = 0
            for col in columns:
                idx = idx * n + int.from_bytes(col.translate(byte_map), "little")
            got = idx.to_bytes(length, "little").translate(target)
        elif target is None:
            got = read_table(B, p, [col.translate(byte_map) for col in columns], length)
        else:
            run = step // m
            idx = 0
            for col in columns[1:]:
                head = b"".join([col[s : s + run] for s in range(0, length, step)])
                idx = idx * n + int.from_bytes(head.translate(byte_map), "little")
            lanes = idx.to_bytes(count * run, "little")
            heads = [lanes[s : s + run] for s in range(0, count * run, run)]
            firsts = columns[0][::run].translate(byte_map)
            got = b"".join([heads[i // m].translate(target[v]) for i, v in enumerate(firsts)])
        want = table.translate(byte_map)
        if got != want:
            kept = [c for c in kept if got[c * step : (c + 1) * step] == want[c * step : (c + 1) * step]]
            if not kept:
                break
    return list(kept)


def eval_block(t: Term, algebra: "FiniteAlgebra", columns, length: int):
    """The values of `t` over a block of `length` assignments.

    `columns[j]` holds x_j's value in each assignment of the block, as
    `bytes` or as a list or tuple of ints. A variable is its column (the same
    object, not a copy), a constant its table entry repeated, and an
    application reads its table at its argument columns through
    `read_table`. Symbol and arity are checked once per node, before its
    arguments are evaluated, so the errors are those of a tree walk. A block
    of one row is walked as one row of ints by `_eval_row`, which indexes
    the tables directly with the same checks in the same order. On a carrier of at most BYTE_CARRIER elements a constant or an
    application returns `bytes`, and a list beyond.

    The columns hold elements of the carrier, and `eval_block` trusts them:
    `check_identities` builds its columns from the carrier and `envcat` from
    the union's elements, and `eval_term` checks its assignment. A value
    outside the carrier has no defined result.
    """
    if type(t) is Var:
        if t.index >= len(columns):
            raise MissingAssignment(f"no value for variable x{t.index}")
        return columns[t.index]
    n = algebra.size
    if length == 1:
        v = _eval_row(t, algebra, [column[0] for column in columns])
        return _ONE_BYTE[v] if n <= BYTE_CARRIER else [v]
    sig = algebra.signature
    p = sig._index.get(t.symbol)
    if p is None:
        raise SignatureMismatch(f"symbol {t.symbol!r} not in the algebra's signature")
    args = t.args
    if sig.symbols[p][1] != len(args):
        raise SignatureMismatch(f"arity mismatch for {t.symbol!r}")
    if not args:
        v = algebra.tables[p][0]
        return _ONE_BYTE[v] * length if n <= BYTE_CARRIER else [v] * length
    cols = []
    for arg in args:
        cols.append(eval_block(arg, algebra, columns, length))
    return read_table(algebra, p, cols, length)


def _eval_row(t: Term, algebra: "FiniteAlgebra", row) -> int:
    """The value of `t` at one assignment `row` of carrier elements, as an
    int: `eval_block` on one row, with its checks in its order."""
    if type(t) is Var:
        if t.index >= len(row):
            raise MissingAssignment(f"no value for variable x{t.index}")
        return row[t.index]
    sig = algebra.signature
    p = sig._index.get(t.symbol)
    if p is None:
        raise SignatureMismatch(f"symbol {t.symbol!r} not in the algebra's signature")
    args = t.args
    if sig.symbols[p][1] != len(args):
        raise SignatureMismatch(f"arity mismatch for {t.symbol!r}")
    n = algebra.size
    idx = 0
    for arg in args:
        idx = idx * n + _eval_row(arg, algebra, row)
    return algebra.tables[p][idx]


def eval_term(t: Term, algebra: "FiniteAlgebra", assignment) -> int:
    """The value of `t` under one assignment, by `eval_block`'s one-row path.
    A value not in the carrier (`errors.in_carrier`) raises SizeMismatch,
    whatever `t` reads."""
    if not in_carrier(assignment, algebra.size):
        raise SizeMismatch("assignment values must lie in the carrier")
    return _eval_row(t, algebra, assignment)


def substitute(t: Term, replacements: tuple[Term, ...]) -> Term:
    """Replace each variable x_j of `t` by replacements[j]."""
    if isinstance(t, Var):
        if t.index >= len(replacements):
            raise MissingAssignment(f"no replacement for variable x{t.index}")
        return replacements[t.index]
    return App(t.symbol, tuple(substitute(a, replacements) for a in t.args))


@dataclass(frozen=True)
class Identity:
    """An equation lhs = rhs quantified over `var_count` variables."""

    lhs: Term
    rhs: Term
    var_count: int = field(default=-1)

    def __post_init__(self):
        used = term_variables(self.lhs) | term_variables(self.rhs)
        least = max(used, default=-1) + 1
        if self.var_count < 0:
            object.__setattr__(self, "var_count", least)
        elif self.var_count < least:
            raise ArityMismatch(
                f"identity uses variable x{least - 1} but quantifies only {self.var_count}"
            )

    def __str__(self) -> str:
        return f"{term_to_str(self.lhs)} = {term_to_str(self.rhs)}"


def parse_identity(text: str, sig: Signature) -> Identity:
    """Parse `lhs = rhs` into an Identity over `sig`."""
    if text.count("=") != 1:
        raise TermSyntaxError("an identity needs exactly one '='", text.find("=") + 1)
    left, right = text.split("=")
    return Identity(parse_term(left.strip(), sig), parse_term(right.strip(), sig))
