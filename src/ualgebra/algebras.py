"""Finite algebras as flat operation tables, and the maps between them.

`is_subalgebra` is the one closure test: subgroups, subdigroups and subheaps
are subalgebras, and normal subheaps and ideals are filtered from
`all_subalgebras`. `is_action` is the one action test of the group, digroup
and heap semidirect products."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate, chain, islice, permutations, product as iproduct
from operator import mul

from .errors import (
    DuplicateName,
    NotACongruence,
    NotAHomomorphism,
    NotASubalgebra,
    ParseError,
    SignatureMismatch,
    SizeLimitExceeded,
    SizeMismatch,
    TableRangeError,
)
from .partitions import Partition
from .terms import BYTE_CARRIER, Signature, batch_tables, maps_tables, translation_tables

# The largest carrier that the isomorphism search, the subalgebra scan and
# the congruence lattice take.
CARRIER_CAP = 12
# Entries of each per-algebra memo, least recently used dropped first:
# `quotient` here, `congruences.all_congruences` and the idempotent search.
# A census asks each of them once per (B, omega) pair it scans, and a few
# hundred algebras of desk size stay warm.
IDEMPOTENT_CACHE_SIZE = 256


def pack(args: tuple[int, ...], n: int) -> int:
    # row-major mixed radix: f(i1,..,ik) sits at i1*n^(k-1)+...+ik
    idx = 0
    for a in args:
        idx = idx * n + a
    return idx


def pack_product(places, n: int) -> list[int]:
    """The row-major index, in a table over {0..n-1}, of each tuple of
    places[0] x ... x places[-1], the tuples in row-major order. No places
    give [0], the index of a constant's one entry."""
    idx = [0]
    for place in places:
        idx = [p * n + v for p in idx for v in place]
    return idx


# Unequal radices (fibers, assignment blocks) take the column helpers below;
# `pack` keeps one radix for a single point, `pack_product` for a product of
# element lists.
def pack_columns(columns, sizes, length: int) -> list[int]:
    """The row-major index of each of the first `length` rows of `columns`,
    place j in radix sizes[j]; no columns pack every row to 0."""
    packed = [0] * length
    for column, m in zip(columns, sizes):
        packed = [p * m + a for p, a in zip(packed, column)]
    return packed


def row_major_columns(sizes) -> list[list[int]]:
    """The rows of range(sizes[0]) x ... x range(sizes[-1]), one column per
    place, in row-major order: `pack_columns` of them is 0, 1, 2, ....
    Linear in the places and the entries."""
    before = list(accumulate(sizes, mul, initial=1))
    after = list(accumulate(reversed(sizes), mul, initial=1))[::-1]
    return [
        [v for v in range(m) for _ in range(after[j + 1])] * before[j]
        for j, m in enumerate(sizes)
    ]


@lru_cache(maxsize=64)
def byte_projections(n: int, k: int) -> tuple[bytes, ...]:
    """The `row_major_columns` of range(n)^k as `bytes`, for n <= 256: the
    place columns of `check_identities`' blocks and of the tables that
    `is_homomorphism` maps."""
    return tuple(map(bytes, row_major_columns((n,) * k)))


def inverse_permutation(p) -> tuple[int, ...]:
    """The inverse of a permutation p of {0..len(p)-1}, as a tuple."""
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def perms_fixing_zero(n: int):
    """The permutations of {0..n-1} that fix 0, in lexicographic order."""
    for tail in permutations(range(1, n)):
        yield (0,) + tail


def relabel_table(table: tuple[int, ...], p, arity: int) -> tuple[int, ...]:
    """The table of an `arity`-ary operation after renaming each element x to p[x]."""
    inv = inverse_permutation(p)
    return tuple(p[table[i]] for i in pack_product([inv] * arity, len(p)))


@dataclass(frozen=True)
class FiniteAlgebra:
    """Carrier {0..size-1} with one flat table per signature symbol.

    `tables[p]` belongs to `signature.symbols[p]` and has length size**arity,
    in row-major mixed-radix order.

    The hash is computed once and cached: it equals the generated dataclass
    hash, hash((name, signature, size, tables)), so set and dict orders stay
    the same, while a memo lookup no longer rehashes every table. Equality
    and `repr` are the generated ones.
    """

    name: str
    signature: Signature
    size: int
    tables: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.size < 1:
            raise SizeMismatch("carrier must be nonempty")
        if len(self.tables) != len(self.signature.symbols):
            raise SignatureMismatch("one table per symbol required")
        for (sym, arity), table in zip(self.signature.symbols, self.tables):
            if len(table) != self.size**arity:
                raise SizeMismatch(f"table for {sym!r} has wrong length")
            for v in table:
                if not 0 <= v < self.size:
                    raise TableRangeError(f"table entry {v} for {sym!r} out of range")

    @cached_property
    def _hash(self) -> int:
        return hash((self.name, self.signature, self.size, self.tables))

    def __hash__(self) -> int:
        return self._hash

    @property
    def elements(self) -> range:
        return range(self.size)

    @cached_property
    def byte_tables(self) -> dict[int, bytes | tuple[bytes, ...]]:
        """`terms.translation_tables` of this algebra's tables, built once and
        read on carriers of at most `terms.BYTE_CARRIER` elements: one
        256-byte `translate` map per table of at most 256 entries, a tuple of
        `size` windows per table of at most 256 * size, window v holding the
        entries whose first argument is v. Read at carrier elements only.
        Derived from `tables`, which equality, hashing and the text formats
        use."""
        return translation_tables(self.tables, self.size)

    @cached_property
    def table_bytes(self) -> tuple[bytes, ...]:
        """Each table as `bytes`, built once and read by `is_homomorphism` on
        carriers of at most `terms.BYTE_CARRIER` elements. Derived from
        `tables`, like `byte_tables`."""
        return tuple(map(bytes, self.tables))

    @cached_property
    def byte_places(self) -> tuple[tuple[bytes, ...], ...]:
        """The `byte_projections` of each symbol's arity: the place columns
        at which `is_homomorphism` reads `table_bytes`, on carriers of at
        most `terms.BYTE_CARRIER` elements."""
        return tuple(byte_projections(self.size, k) for _, k in self.signature.symbols)

    def table(self, symbol: str) -> tuple[int, ...]:
        return self.tables[self.signature.position(symbol)]

    def apply(self, symbol: str, args: tuple[int, ...]) -> int:
        return self.tables[self.signature.position(symbol)][pack(args, self.size)]

    def rename(self, name: str) -> "FiniteAlgebra":
        return FiniteAlgebra(name, self.signature, self.size, self.tables)


def tuples(n: int, k: int):
    return iproduct(range(n), repeat=k)


def is_homomorphism(mapping, A: FiniteAlgebra, B: FiniteAlgebra) -> bool:
    """True iff f(map a1,..,map ak) = map f(a1,..,ak) for every symbol and tuple:
    `_homomorphic_maps` of the one map, a batch of one over A's cached
    `table_bytes` and `byte_places` on byte carriers."""
    return bool(_homomorphic_maps((mapping,), A, B))


def _homomorphic_maps(maps, A: FiniteAlgebra, B: FiniteAlgebra) -> list:
    """The maps among `maps`, drawn lazily, that are homomorphisms A -> B,
    in their order. Each is tested once, one column per operation in A's
    row-major order.

    The signature is checked once. When both carriers have at most
    `terms.BYTE_CARRIER` elements the maps are tested in batches of up to
    256 // |A|: the entries of a batch are checked together, and
    `terms.maps_tables` tests the whole batch in one pass per table. It
    reads as many copies of A's `table_bytes` and `byte_places`, built by
    `terms.batch_tables` once per call and sliced for a shorter last
    batch; a batch of one reads those cached bytes themselves. On a larger
    carrier each map builds the B-indices of its mapped argument tuples one
    place at a time with `pack_product`. A map that is not |A| ints in B's
    carrier raises SizeMismatch before its batch is tested."""
    if A.signature != B.signature:
        raise SignatureMismatch("homomorphisms need a shared signature")
    n = A.size
    if n > BYTE_CARRIER or B.size > BYTE_CARRIER:
        return [mp for mp in maps if _maps_by_index(mp, A, B)]
    maps = iter(maps)
    tables, places, size = A.table_bytes, A.byte_places, 1
    out = []
    while batch := list(islice(maps, 256 // n)):
        count = len(batch)
        codes = _entry_codes(batch, n, B.size)
        if count > size:  # the first batch: every later one is as long or shorter
            tables, places = batch_tables(tables, places, n, count)
            size = count
        elif count < size:
            tables = [t[: len(t) // size * count] for t in tables]
            places = [[c[: len(c) // size * count] for c in cols] for cols in places]
        out += [batch[c] for c in maps_tables(codes, count, tables, places, B)]
    return out


def _entry_codes(batch, n: int, m: int) -> bytes:
    """The maps of `batch` one after another as `bytes`, each of n ints in
    range(m), else SizeMismatch: a bool reads as its int, and a float,
    str or None is refused."""
    flat = list(chain.from_iterable(batch))
    codes = b""
    if set(map(len, batch)) == {n} and all(issubclass(t, int) for t in set(map(type, flat))):
        try:
            codes = bytes(flat)
        except ValueError:  # an int past 0..255
            pass
    if len(codes) != len(batch) * n or max(codes) >= m:
        raise SizeMismatch("map must send A's carrier into B's")
    return codes


def _maps_by_index(mapping, A: FiniteAlgebra, B: FiniteAlgebra) -> bool:
    """`_homomorphic_maps`' test of one map past the byte carriers."""
    n = B.size
    kept = [v for v in mapping if isinstance(v, int) and 0 <= v < n]
    if len(kept) != len(mapping) or len(mapping) != A.size:
        raise SizeMismatch("map must send A's carrier into B's")
    m = mapping
    return all(
        [m[v] for v in ta] == [tb[i] for i in pack_product([m] * arity, n)]
        for (_, arity), ta, tb in zip(A.signature.symbols, A.tables, B.tables)
    )


def is_automorphism(row, K: FiniteAlgebra) -> bool:
    """Is `row`, a table on K's carrier, a bijective homomorphism K -> K?"""
    return len(set(row)) == K.size and is_homomorphism(row, K, K)


def compose(f, g) -> tuple[int, ...]:
    """The map x -> f[g[x]], as a tuple."""
    return tuple(f[x] for x in g)


def is_action(rows, Y: FiniteAlgebra, symbol: str, word) -> bool:
    """Is rows[f(y1, .., yk)] == word(rows[y1], .., rows[yk]) for Y's
    operation f = `symbol` at every tuple, in row-major order? With `compose`
    as the word, y -> rows[y] is multiplicative."""
    table = Y.table(symbol)
    arity = Y.signature.arity(symbol)
    return all(
        rows[table[i]] == word(*(rows[y] for y in args))
        for i, args in enumerate(tuples(Y.size, arity))
    )


@dataclass(frozen=True)
class Homomorphism:
    """A structure-preserving map, validated on construction."""

    source: FiniteAlgebra
    target: FiniteAlgebra
    map: tuple[int, ...]

    def __post_init__(self):
        if not is_homomorphism(self.map, self.source, self.target):
            raise NotAHomomorphism("map does not preserve the operations")

    @classmethod
    def among(cls, source: FiniteAlgebra, target: FiniteAlgebra, maps) -> list["Homomorphism"]:
        """`Homomorphism(source, target, m)` for each m among `maps` that is
        one, in order, and no exception for one that is not: one
        `_homomorphic_maps` pass, with its signature and entry checks. A kept
        map is built without a second test, and is ==, hash- and repr-equal
        to the constructor's."""
        out = []
        for mapping in _homomorphic_maps(maps, source, target):
            # set as the frozen constructor sets them: a `vars(h).update`
            # would build a per-instance dict, 248 against 105 bytes per map
            h = object.__new__(cls)
            object.__setattr__(h, "source", source)
            object.__setattr__(h, "target", target)
            object.__setattr__(h, "map", mapping)
            out.append(h)
        return out

    def __call__(self, a: int) -> int:
        return self.map[a]

    @property
    def is_endo(self) -> bool:
        return self.source == self.target

    @property
    def is_idempotent(self) -> bool:
        return self.is_endo and all(self.map[v] == v for v in self.map)

    def image(self) -> frozenset[int]:
        return frozenset(self.map)


def _require_members(A: FiniteAlgebra, members) -> None:
    """Raise SizeMismatch unless every member is an int in A's carrier, by
    `terms.eval_term`'s rule: a bool reads as 0 or 1, a float, str or None
    is refused."""
    n = A.size
    if not all(isinstance(x, int) and 0 <= x < n for x in members):
        raise SizeMismatch("subset outside the carrier")


def generated_subalgebra(A: FiniteAlgebra, seed) -> frozenset[int]:
    """Least superset of `seed` closed under all operations; constants are the
    0-ary case. A seed element that is not an int in the carrier raises
    SizeMismatch."""
    current = set(seed)
    _require_members(A, current)
    size = -1
    while size != len(current):
        size = len(current)
        members = sorted(current)
        for (_, arity), table in zip(A.signature.symbols, A.tables):
            current.update(table[i] for i in pack_product([members] * arity, A.size))
    return frozenset(current)


def _closed(ops, n: int, mask: int, members) -> bool:
    """Does every operation send each tuple of `members` into `mask`, the
    same subset as a bitmask over {0..n-1}? `ops` holds (arity, table) per
    symbol. A constant and a unary table are read directly, a binary table
    at a*n + b; a table of arity k >= 3 row by row, a row per tuple of the
    first k - 1 places, at each member in the last place. Stops at the
    first value outside."""
    for arity, table in ops:
        if arity == 2:
            for a in members:
                row = a * n
                for b in members:
                    if not mask >> table[row + b] & 1:
                        return False
        elif arity == 1:
            for a in members:
                if not mask >> table[a] & 1:
                    return False
        elif not arity:
            if not mask >> table[0] & 1:
                return False
        else:
            for head in pack_product([members] * (arity - 1), n):
                row = head * n
                for b in members:
                    if not mask >> table[row + b] & 1:
                        return False
    return True


def _ops(A: FiniteAlgebra) -> list[tuple[int, tuple[int, ...]]]:
    return [(arity, table) for (_, arity), table in zip(A.signature.symbols, A.tables)]


def is_subalgebra(A: FiniteAlgebra, subset) -> bool:
    """Is `subset` nonempty and closed? `_closed` reads each operation at
    every tuple of members against the subset's bitmask, stopping at the
    first value outside; constants are the 0-ary case. A member that is not
    an int in the carrier raises SizeMismatch."""
    members = frozenset(subset)
    if not members:
        return False
    _require_members(A, members)
    mask = sum(1 << x for x in members)
    return _closed(_ops(A), A.size, mask, members)


def all_subalgebras(A: FiniteAlgebra) -> list[frozenset[int]]:
    """All nonempty closed subsets, by testing every subset (carrier at most
    CARRIER_CAP) with `_closed`, ordered by size, then by sorted members.
    Subset `mask` lists its members as those of `mask` without its top
    element, then the top; only a closed subset becomes a frozenset."""
    n = A.size
    if n > CARRIER_CAP:
        raise SizeLimitExceeded(f"subalgebra enumeration capped at {CARRIER_CAP}")
    ops = _ops(A)
    members_of = [()]
    found = []
    for mask in range(1, 2**n):
        top = mask.bit_length() - 1
        members = members_of[mask ^ 1 << top] + (top,)
        members_of.append(members)
        if _closed(ops, n, mask, members):
            found.append(members)
    found.sort(key=lambda s: (len(s), s))
    return [frozenset(s) for s in found]


def subalgebra_as_algebra(A: FiniteAlgebra, subset, name: str | None = None):
    """Relabel a closed subset as an algebra on {0..k-1}; returns (algebra, inclusion).

    Elements keep their relative order: inclusion[i] is the i-th smallest member.
    The relabelling reads f at every tuple of members, which is the closure
    check: a value outside the subset raises NotASubalgebra, and a member
    that is not an int in the carrier raises SizeMismatch.
    """
    members = list(subset)
    _require_members(A, members)
    members.sort()
    if not members:
        raise NotASubalgebra("subset is not closed under the operations")
    pos = {x: i for i, x in enumerate(members)}
    try:
        tables = tuple(
            tuple(pos[table[i]] for i in pack_product([members] * arity, A.size))
            for (_, arity), table in zip(A.signature.symbols, A.tables)
        )
    except KeyError:
        raise NotASubalgebra("subset is not closed under the operations") from None
    sub = FiniteAlgebra(name or f"{A.name}_sub", A.signature, len(members), tables)
    return sub, tuple(members)


@lru_cache(maxsize=IDEMPOTENT_CACHE_SIZE)
def quotient(A: FiniteAlgebra, omega: Partition):
    """Quotient by a congruence; returns (algebra on blocks, projection).

    Blocks are ordered by least element: `omega` is canonical, so block i
    is the i-th rep to appear in `omega.rep`. An `omega` not over A's
    carrier raises SizeMismatch. Well-definedness of every induced table
    entry is verified directly; a conflict raises NotACongruence. Memoized
    on (A, omega), IDEMPOTENT_CACHE_SIZE entries: both values are frozen,
    so a caller cannot change what the next one gets. Errors are raised
    again on every call.
    """
    if omega.n != A.size:
        raise SizeMismatch("partition size differs from carrier size")
    index: dict[int, int] = {}
    proj = tuple([index.setdefault(r, len(index)) for r in omega.rep])
    k = len(index)
    tables = []
    for (sym, arity), table in zip(A.signature.symbols, A.tables):
        # every block tuple is hit, so one value per slot leaves k**arity cells
        cells = set(zip(pack_product([proj] * arity, k), [proj[v] for v in table]))
        if len(cells) != k**arity:
            raise NotACongruence(f"operation {sym!r} is not well defined on blocks")
        tables.append(tuple(v for _, v in sorted(cells)))
    Q = FiniteAlgebra(f"{A.name}_q", A.signature, k, tuple(tables))
    return Q, Homomorphism(A, Q, proj)


def product(A: FiniteAlgebra, B: FiniteAlgebra) -> FiniteAlgebra:
    """Componentwise product; pair (a, b) is encoded as a*|B| + b."""
    if A.signature != B.signature:
        raise SignatureMismatch("product needs a shared signature")
    nb = B.size
    aside = [x // nb for x in range(A.size * nb)]
    bside = [x % nb for x in range(A.size * nb)]
    tables = tuple(
        tuple(
            ta[i] * nb + tb[j]
            for i, j in zip(
                pack_product([aside] * arity, A.size), pack_product([bside] * arity, nb)
            )
        )
        for (_, arity), ta, tb in zip(A.signature.symbols, A.tables, B.tables)
    )
    return FiniteAlgebra(f"{A.name}_x_{B.name}", A.signature, A.size * nb, tables)


def isomorphisms(A: FiniteAlgebra, B: FiniteAlgebra):
    """Every isomorphism A -> B, in lexicographic order of the maps.

    Elements 0, 1, ... are mapped in carrier order, each to the unused images
    in ascending order. Each operation instance f(args) = out is filed under
    the step max(args + (out,)), where it becomes decidable, and is checked
    once there, at the row-major index of its mapped arguments, packed in
    place; constants are the 0-ary case. At the call, in this order: a
    signature mismatch raises SignatureMismatch, unequal sizes give no maps,
    and carriers above CARRIER_CAP raise SizeLimitExceeded.
    """
    if A.signature != B.signature:
        raise SignatureMismatch("isomorphism needs a shared signature")
    if A.size != B.size:
        return iter(())
    n = A.size
    if n > CARRIER_CAP:
        raise SizeLimitExceeded(f"isomorphism search capped at {CARRIER_CAP}")
    due = [[] for _ in range(n)]
    for (_, arity), ta, tb in zip(A.signature.symbols, A.tables, B.tables):
        for args, out in zip(tuples(n, arity), ta):
            due[max(args + (out,))].append((tb, args, out))
    mapping = [0] * n
    used = [False] * n

    def extend(i: int):
        if i == n:
            yield tuple(mapping)
            return
        for v in range(n):
            if used[v]:
                continue
            mapping[i] = v
            for tb, xs, y in due[i]:
                idx = 0
                for a in xs:
                    idx = idx * n + mapping[a]
                if tb[idx] != mapping[y]:
                    break
            else:
                used[v] = True
                yield from extend(i + 1)
                used[v] = False

    return extend(0)


def find_isomorphism(A: FiniteAlgebra, B: FiniteAlgebra):
    """Lexicographically least isomorphism A -> B, or None: the first map of
    `isomorphisms`, which raises on a signature mismatch or an oversized carrier."""
    return next(isomorphisms(A, B), None)


def is_isomorphic(A: FiniteAlgebra, B: FiniteAlgebra) -> bool:
    return find_isomorphism(A, B) is not None


# -- text formats -----------------------------------------------------------
#
# Algebra, variety, action and map files share one line syntax: blank lines
# and lines starting with `#` are skipped, and every numeral is an unsigned
# decimal. An algebra file reads
#
# algebra <name>
# size <n>
# op <symbol>/<arity>
# <n^arity whitespace-separated integers>
# ...
# end
#
# and several algebras may share one file.


def content_lines(text: str):
    """(line number, stripped line) for each line of `text` that is neither
    blank nor a `#` comment, numbered from 1."""
    for no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if line and not line.startswith("#"):
            yield no, line


def parse_uint(token: str, message: str, source: str, line: int, column: int = 0) -> int:
    """`token` as an unsigned decimal numeral, or ParseError(`message`) at
    source:line:column. isascii() and isdecimal() admit the digits 0-9 only,
    refusing signs, '_', '²' and other scripts' digits such as '٣' and '３',
    and int() refuses over 4,300 digits; `message` is formatted with the
    token only on failure."""
    if token.isascii() and token.isdecimal():
        try:
            return int(token)
        except ValueError:
            pass
    raise ParseError(message.format(token=token), source, line, column)


# The plain spellings of table entries 0..255. Looking one up costs less than
# a call of `parse_uint`, which reads every other token and gives the same
# values for these.
_NUMERALS = {str(v): v for v in range(256)}


def parse_algebras(text: str, source: str = "<input>") -> dict[str, FiniteAlgebra]:
    out: dict[str, FiniteAlgebra] = {}
    lines = content_lines(text)

    def err(msg: str, line_no: int):
        raise ParseError(msg, source, line_no, 1)

    for no, line in lines:
        head = line.split()
        if head[0] != "algebra" or len(head) != 2:
            err("expected 'algebra <name>'", no)
        name = head[1]
        if name in out:
            raise DuplicateName(f"{source}: algebra {name!r} defined twice")
        size = None
        symbols: list[tuple[str, int]] = []
        tables: list[list[int]] = []
        needed = 0
        for no, line in lines:
            parts = line.split()
            if parts[0] == "size":
                if size is not None or len(parts) != 2:
                    err("bad size line", no)
                size = parse_uint(parts[1], "bad size line", source, no, 1)
            elif parts[0] in ("op", "end"):
                if tables and len(tables[-1]) != needed:
                    err(f"table for {symbols[-1][0]!r} has {len(tables[-1])} of {needed} entries", no)
                if parts[0] == "end":
                    break
                if size is None:
                    err("size must precede op lines", no)
                if len(parts) != 2 or "/" not in parts[1]:
                    err("expected 'op <name>/<arity>'", no)
                sym, _, ar = parts[1].partition("/")
                arity = parse_uint(ar, "arity must be an integer", source, no, 1)
                # size**arity >= 2**(arity*(size.bit_length()-1)) entries, 1 char each
                if arity * (size.bit_length() - 1) >= len(text).bit_length():
                    err(f"table for {sym!r} cannot fit in the input", no)
                symbols.append((sym, arity))
                tables.append([])
                needed = size**arity
            else:
                if not tables:
                    err("table entries before any op line", no)
                table = tables[-1]
                for p in parts:
                    v = _NUMERALS.get(p)
                    if v is None or v >= size:  # type: ignore[operator]
                        v = parse_uint(p, "bad table entry {token!r}", source, no, 1)
                        if v >= size:
                            raise TableRangeError(
                                f"{source}:{no}: entry {v} out of range for size {size}"
                            )
                    table.append(v)
                if len(table) > needed:
                    err(f"too many entries for {symbols[-1][0]!r}", no)
        else:
            err("missing 'end'", len(text.splitlines()))
        if size is None:
            err("missing size", no)
        out[name] = FiniteAlgebra(name, Signature(tuple(symbols)), size, tuple(map(tuple, tables)))
    return out


def emit_algebra(A: FiniteAlgebra) -> str:
    """Deterministic text form; `parse_algebras` reads it back bit-exactly."""
    lines = [f"algebra {A.name}", f"size {A.size}"]
    for (sym, arity), table in zip(A.signature.symbols, A.tables):
        lines.append(f"op {sym}/{arity}")
        if arity == 0:
            lines.append(str(table[0]))
        else:
            row = A.size ** max(arity - 1, 1)
            for start in range(0, len(table), row):
                lines.append(" ".join(map(str, table[start : start + row])))
    lines.append("end")
    return "\n".join(lines) + "\n"
