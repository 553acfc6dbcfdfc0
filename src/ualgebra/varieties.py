"""Equationally defined classes of algebras and the exhaustive identity check.

`check_identities` scans the n^k assignments of a k-variable identity in
row-major (lexicographic) order, in blocks of at most BLOCK_SIZE: the
leading variables are fixed per block and the trailing ones, as many as fit,
run through every value as projection columns. `terms.eval_block` evaluates
both sides over the whole block at once. On a carrier of at most
`terms.BYTE_CARRIER` (16) elements the columns are `bytes`: the kernel reads
tables of at most 256 * n entries, which covers every heap on such a
carrier, through 8-bit lanes and longer ones row by row, and the two sides
compare as `bytes`. On a larger carrier they are lists. Within a block the
rows follow the lexicographic order and the blocks follow each other in
it, so the first row where the two value columns differ, in the first block
where they differ at all, is the lexicographically first failing
assignment: the witness the one-assignment-at-a-time scan reports. That row
is looked for only once the block has failed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct

from .algebras import (
    FiniteAlgebra,
    byte_projections,
    content_lines,
    parse_uint,
    row_major_columns,
)
from .errors import DuplicateName, ParseError, SignatureMismatch, UAError
from .terms import BYTE_CARRIER, Identity, Signature, eval_block, parse_identity

# Assignments are scanned in row-major blocks of at most this many.
BLOCK_SIZE = 4096


@dataclass(frozen=True)
class VarietySpec:
    name: str
    signature: Signature
    identities: tuple[Identity, ...]
    quasi_conditions: tuple[Identity, ...] = ()


@dataclass(frozen=True)
class Witness:
    """First failing instance: which equation, under which assignment."""

    identity: Identity
    assignment: tuple[int, ...]
    lhs_value: int
    rhs_value: int
    quasi: bool = False


@dataclass(frozen=True)
class IdentityReport:
    passes: bool
    witness: Witness | None = None


def check_identities(A: FiniteAlgebra, V: VarietySpec) -> IdentityReport:
    """Check every identity of V over all assignments (n^var_count each).

    Identities are scanned in definition order, assignments in lexicographic
    order, so the reported witness is deterministic. Quasi conditions run
    after the primary identities.
    """
    for sym, arity in V.signature.symbols:
        if sym not in A.signature or A.signature.arity(sym) != arity:
            raise SignatureMismatch(f"algebra lacks {sym}/{arity}")
    n = A.size
    column_type = bytes if n <= BYTE_CARRIER else list
    for quasi, ident in [(False, i) for i in V.identities] + [
        (True, i) for i in V.quasi_conditions
    ]:
        trailing = 0
        while trailing < ident.var_count and n ** (trailing + 1) <= BLOCK_SIZE:
            trailing += 1
        length = n**trailing
        if column_type is bytes:
            tail = list(byte_projections(n, trailing))
        else:
            tail = row_major_columns((n,) * trailing)
        for lead in iproduct(range(n), repeat=ident.var_count - trailing):
            columns = [column_type((v,)) * length for v in lead] + tail
            left = eval_block(ident.lhs, A, columns, length)
            right = eval_block(ident.rhs, A, columns, length)
            if left != right:
                i = next(i for i in range(length) if left[i] != right[i])
                assignment = lead + tuple(column[i] for column in tail)
                return IdentityReport(False, Witness(ident, assignment, left[i], right[i], quasi))
    return IdentityReport(True)


def satisfies(A: FiniteAlgebra, V: VarietySpec) -> bool:
    return check_identities(A, V).passes


def _build(name: str, symbols, identity_strings, quasi_strings=()) -> VarietySpec:
    sig = Signature(tuple(symbols))
    ids = tuple(parse_identity(s, sig) for s in identity_strings)
    quasi = tuple(parse_identity(s, sig) for s in quasi_strings)
    return VarietySpec(name, sig, ids, quasi)


GROUP_SIG = Signature((("m", 2), ("i", 1), ("e", 0)))
RING_SIG = Signature((("add", 2), ("neg", 1), ("zero", 0), ("mul", 2)))
LATTICE_SIG = Signature((("join", 2), ("meet", 2)))
HEAP_SIG = Signature((("t", 3),))
TRUSS_SIG = Signature((("t", 3), ("m", 2)))
DIGROUP_SIG = Signature(
    (("star", 2), ("star_inv", 1), ("circ", 2), ("circ_inv", 1), ("one", 0))
)

_GROUP_IDS = [
    "m(m(x0,x1),x2) = m(x0,m(x1,x2))",
    "m(e,x0) = x0",
    "m(i(x0),x0) = e",
]

_DIGROUP_IDS = [
    "star(star(x0,x1),x2) = star(x0,star(x1,x2))",
    "star(one,x0) = x0",
    "star(star_inv(x0),x0) = one",
    "circ(circ(x0,x1),x2) = circ(x0,circ(x1,x2))",
    "circ(one,x0) = x0",
    "circ(circ_inv(x0),x0) = one",
]

# a o (b * c) = ((a o b) * a^-*) * (a o c)
_LSB = "circ(x0,star(x1,x2)) = star(star(circ(x0,x1),star_inv(x0)),circ(x0,x2))"

_HEAP_IDS = [
    "t(x0,x0,x1) = x1",
    "t(x0,x1,x1) = x0",
    "t(t(x0,x1,x2),x3,x4) = t(x0,x1,t(x2,x3,x4))",
]

REGISTRY: dict[str, VarietySpec] = {}


def register(spec: VarietySpec) -> VarietySpec:
    if spec.name in REGISTRY:
        raise DuplicateName(f"variety {spec.name!r} already registered")
    REGISTRY[spec.name] = spec
    return spec


def get_variety(name: str) -> VarietySpec:
    try:
        return REGISTRY[name]
    except KeyError:
        raise UAError(f"unknown variety {name!r}") from None


for _spec in [
    _build("semigroup", [("m", 2)], ["m(m(x0,x1),x2) = m(x0,m(x1,x2))"]),
    _build(
        "monoid",
        [("m", 2), ("e", 0)],
        ["m(m(x0,x1),x2) = m(x0,m(x1,x2))", "m(e,x0) = x0", "m(x0,e) = x0"],
    ),
    _build("group", GROUP_SIG.symbols, _GROUP_IDS),
    _build("abelian_group", GROUP_SIG.symbols, _GROUP_IDS + ["m(x0,x1) = m(x1,x0)"]),
    _build(
        "ring",
        RING_SIG.symbols,
        [
            "add(add(x0,x1),x2) = add(x0,add(x1,x2))",
            "add(x0,x1) = add(x1,x0)",
            "add(zero,x0) = x0",
            "add(neg(x0),x0) = zero",
            "mul(mul(x0,x1),x2) = mul(x0,mul(x1,x2))",
            "mul(x0,add(x1,x2)) = add(mul(x0,x1),mul(x0,x2))",
            "mul(add(x0,x1),x2) = add(mul(x0,x2),mul(x1,x2))",
        ],
    ),
    _build(
        "lattice",
        LATTICE_SIG.symbols,
        [
            "join(x0,x1) = join(x1,x0)",
            "meet(x0,x1) = meet(x1,x0)",
            "join(join(x0,x1),x2) = join(x0,join(x1,x2))",
            "meet(meet(x0,x1),x2) = meet(x0,meet(x1,x2))",
            "join(x0,meet(x0,x1)) = x0",
            "meet(x0,join(x0,x1)) = x0",
        ],
    ),
    _build("heap", HEAP_SIG.symbols, _HEAP_IDS),
    _build("digroup", DIGROUP_SIG.symbols, _DIGROUP_IDS),
    _build("skew_brace", DIGROUP_SIG.symbols, _DIGROUP_IDS, [_LSB]),
    _build(
        "left_near_truss",
        TRUSS_SIG.symbols,
        _HEAP_IDS
        + [
            "m(m(x0,x1),x2) = m(x0,m(x1,x2))",
            "m(x0,t(x1,x2,x3)) = t(m(x0,x1),m(x0,x2),m(x0,x3))",
        ],
    ),
    _build(
        "right_near_truss",
        TRUSS_SIG.symbols,
        _HEAP_IDS
        + [
            "m(m(x0,x1),x2) = m(x0,m(x1,x2))",
            "m(t(x1,x2,x3),x0) = t(m(x1,x0),m(x2,x0),m(x3,x0))",
        ],
    ),
]:
    register(_spec)


# -- text format ------------------------------------------------------------
#
# variety <name>
# op <symbol>/<arity>
# id <term> = <term>
# end


def parse_varieties(text: str, source: str = "<input>") -> dict[str, VarietySpec]:
    out: dict[str, VarietySpec] = {}
    lines = content_lines(text)
    for no, line in lines:
        parts = line.split()
        if parts[0] != "variety" or len(parts) != 2:
            raise ParseError("expected 'variety <name>'", source, no)
        name = parts[1]
        if name in out:
            raise DuplicateName(f"{source}: variety {name!r} defined twice")
        symbols: list[tuple[str, int]] = []
        id_lines: list[tuple[int, str]] = []
        for no, line in lines:
            if line == "end":
                break
            word, _, rest = line.partition(" ")
            if word == "op":
                sym, _, ar = rest.strip().partition("/")
                symbols.append((sym, parse_uint(ar, "expected 'op <name>/<arity>'", source, no)))
            elif word == "id":
                id_lines.append((no, rest))
            else:
                raise ParseError(f"unexpected line {line!r}", source, no)
        else:
            raise ParseError("missing 'end'", source, len(text.splitlines()))
        # an identity may use an op declared below it, so parse after `end`
        sig = Signature(tuple(symbols))
        ids = []
        for id_no, id_text in id_lines:
            try:
                ids.append(parse_identity(id_text, sig))
            except UAError as exc:
                raise ParseError(f"bad identity: {exc}", source, id_no) from exc
        out[name] = VarietySpec(name, sig, tuple(ids))
    return out


def emit_variety(V: VarietySpec) -> str:
    lines = [f"variety {V.name}"]
    lines += [f"op {sym}/{arity}" for sym, arity in V.signature.symbols]
    lines += [f"id {ident}" for ident in V.identities]
    lines.append("end")
    return "\n".join(lines) + "\n"
