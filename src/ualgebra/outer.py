"""Outer semidirect products from pointed fibers and action families.

The data is a base algebra B, one pointed fiber per base element, and one
pointed map per function symbol and base tuple. The product lives on the
disjoint union of the fibers; a candidate is only a semidirect product when
the assembled algebra satisfies its variety.

Element i of the fiber over b is b's offset plus i; with a constant fiber K
that is b*|K| + i. Group, ring, digroup and heap semidirect products are
translated into this data and built by `assemble_union_algebra` as well.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, product as iproduct
from math import prod

from .algebras import (
    FiniteAlgebra,
    Homomorphism,
    content_lines,
    is_homomorphism,
    pack,
    pack_columns,
    pack_product,
    parse_uint,
    product,
    relabel_table,
    row_major_columns,
    subalgebra_as_algebra,
)
from .errors import (
    IdentityFailure,
    ParseError,
    PointednessViolation,
    SectionViolation,
    ShapeMismatch,
    SignatureMismatch,
    crosscheck,
    in_carrier,
)
from .inner import InnerDecomposition, totally_idempotent_elements
from .varieties import VarietySpec, check_identities


@dataclass(frozen=True)
class PointedFamily:
    """One pointed fiber (size, basepoint) for every element of the base.

    The hash is computed once and cached, equal to the generated
    hash((base, fibers)): `envcat`'s fiber-block memo looks the family up on
    every block read."""

    base: FiniteAlgebra
    fibers: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if len(self.fibers) != self.base.size:
            raise ShapeMismatch("one fiber per base element required")
        for size, basepoint in self.fibers:
            if not isinstance(size, int) or not in_carrier((basepoint,), size):
                raise ShapeMismatch("fiber must be nonempty with an internal basepoint")

    @cached_property
    def _hash(self) -> int:
        return hash((self.base, self.fibers))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def constant(cls, base: FiniteAlgebra, size: int, basepoint: int) -> "PointedFamily":
        return cls(base, ((size, basepoint),) * base.size)

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        """offsets[b] is the global index of position 0 of the fiber over b."""
        return tuple(accumulate((size for size, _ in self.fibers), initial=0))[:-1]

    def total_size(self) -> int:
        return sum(size for size, _ in self.fibers)


@dataclass(frozen=True)
class ActionFamily:
    """Per symbol f and base tuple bs, a flat table over the argument fibers.

    `maps[(f, bs)][i]` is an element of the fiber over f(bs), where i packs
    the argument-fiber indices in row-major mixed radix.
    """

    maps: tuple[tuple[tuple[str, tuple[int, ...]], tuple[int, ...]], ...]

    @cached_property
    def _lookup(self) -> dict:
        return dict(self.maps)

    def table(self, symbol: str, bs: tuple[int, ...]) -> tuple[int, ...]:
        try:
            return self._lookup[(symbol, bs)]
        except KeyError:
            raise ShapeMismatch(f"no action table for {symbol} at {bs}") from None

    @classmethod
    def from_dict(cls, d: dict) -> "ActionFamily":
        return cls(tuple(sorted(d.items())))

    def as_dict(self) -> dict:
        return dict(self.maps)


@dataclass(frozen=True)
class OuterProduct:
    """The assembled algebra on the disjoint union, with its fiber labeling."""

    algebra: FiniteAlgebra
    family: PointedFamily
    actions: ActionFamily

    def encode(self, b: int, i: int) -> int:
        return self.family.offsets[b] + i

    def decode(self, x: int) -> tuple[int, int]:
        """Global element -> (fiber index within its block, base element)."""
        if not in_carrier((x,), self.algebra.size):
            raise ShapeMismatch(f"element {x} outside the disjoint union")
        b = bisect_right(self.family.offsets, x) - 1
        return x - self.family.offsets[b], b

    def section_map(self) -> tuple[int, ...]:
        """b -> the basepoint of its fiber, as a global element."""
        return tuple(self.encode(b, self.family.fibers[b][1]) for b in range(self.family.base.size))

    def projection_map(self) -> tuple[int, ...]:
        return tuple(self.decode(x)[1] for x in range(self.algebra.size))


def _validate_family(family: PointedFamily, actions: ActionFamily):
    base = family.base
    for p, (sym, arity) in enumerate(base.signature.symbols):
        table = base.tables[p]
        for bs in iproduct(range(base.size), repeat=arity):
            target = table[pack(bs, base.size)]
            sizes = tuple(family.fibers[b][0] for b in bs)
            action = actions.table(sym, bs)
            if len(action) != prod(sizes):
                raise ShapeMismatch(f"action table for {sym} at {bs} has wrong length")
            target_size, target_base = family.fibers[target]
            if not in_carrier(action, target_size):
                raise ShapeMismatch(f"action table for {sym} at {bs} leaves its fiber")
            basepoints = [(family.fibers[b][1],) for b in bs]
            if action[pack_columns(basepoints, sizes, 1)[0]] != target_base:
                raise PointednessViolation(
                    f"action for {sym} at {bs} does not send basepoints to the basepoint"
                )


def union_algebra(family: PointedFamily, actions: ActionFamily, name: str) -> FiniteAlgebra:
    """Fill the union's tables: position i of the fiber over b is element
    offset(b) + i. Pointedness is not checked; a table of the wrong length
    raises ValueError.

    Each action table is looked up once per base tuple and written over the
    product of the argument fibers, each fiber a range of the union.
    """
    base = family.base
    offsets = family.offsets
    n = family.total_size()
    tables = []
    for (sym, arity), base_table in zip(base.signature.symbols, base.tables):
        table = [0] * n**arity
        for bs, target in zip(iproduct(range(base.size), repeat=arity), base_table):
            offset = offsets[target]
            fibers = [range(offsets[b], offsets[b] + family.fibers[b][0]) for b in bs]
            action = actions.table(sym, bs)
            for idx, value in zip(pack_product(fibers, n), action, strict=True):
                table[idx] = offset + value
        tables.append(tuple(table))
    return FiniteAlgebra(name, base.signature, n, tables)


def assemble_union_algebra(
    family: PointedFamily, actions: ActionFamily, name: str = "outer"
) -> OuterProduct:
    """Build the disjoint-union algebra; pointedness is enforced, identities not."""
    _validate_family(family, actions)
    return OuterProduct(union_algebra(family, actions, name), family, actions)


def fiber_major(F: OuterProduct) -> FiniteAlgebra:
    """F's union relabelled from its native b*|K| + k to the pair encoding
    k*|B| + b of `product(K, B)`, for a family whose fibers all have size |K|.

    Group, ring and heap semidirect products are published in this encoding.
    """
    A, nb = F.algebra, F.family.base.size
    nk = F.family.fibers[0][0]
    # old element b*|K| + k becomes k*|B| + b
    new = [k * nb + b for b in range(nb) for k in range(nk)]
    tables = tuple(
        relabel_table(table, new, arity)
        for (_, arity), table in zip(A.signature.symbols, A.tables)
    )
    return FiniteAlgebra(A.name, A.signature, A.size, tables)


def build_outer_product(
    family: PointedFamily, actions: ActionFamily, V: VarietySpec, name: str = "outer"
) -> OuterProduct:
    """Assemble and validate: base and union must both satisfy V.

    A family whose union breaks an identity of V is rejected data, not a
    product; the raised error carries the first witness.
    """
    base_report = check_identities(family.base, V)
    if not base_report.passes:
        w = base_report.witness
        raise IdentityFailure(
            f"base fails {w.identity} at {w.assignment}", w.identity, w.assignment
        )
    outer = assemble_union_algebra(family, actions, name)
    report = check_identities(outer.algebra, V)
    if not report.passes:
        w = report.witness
        raise IdentityFailure(
            f"actions fail {w.identity} at {w.assignment}", w.identity, w.assignment
        )
    return outer


def restrict_to_fibers(A: FiniteAlgebra, base: FiniteAlgebra, fibers, points):
    """A's operations restricted to fibers given as element lists of A.

    `fibers[b]` lists the elements over base element b and `points[b]` is the
    one it is pointed at. Returns (family, actions, position), where
    position[x] is x's index inside its fiber.
    """
    position = {x: i for fiber in fibers for i, x in enumerate(fiber)}
    family = PointedFamily(
        base, tuple((len(fiber), position[pt]) for fiber, pt in zip(fibers, points))
    )
    maps = {
        (sym, bs): tuple(
            position[table[i]] for i in pack_product([fibers[b] for b in bs], A.size)
        )
        for (sym, arity), table in zip(A.signature.symbols, A.tables)
        for bs in iproduct(range(base.size), repeat=arity)
    }
    return family, ActionFamily.from_dict(maps), position


def inner_to_outer(dec: InnerDecomposition):
    """Fibers = omega-classes pointed by their B-element; actions = restrictions.

    Returns (family, actions, iso) where iso maps each a to its (position in
    class, class) coordinates in the assembled union, and is asserted to be a
    bijective homomorphism onto it.
    """
    A = dec.algebra
    base, members = subalgebra_as_algebra(A, dec.B, name=f"{A.name}_base")
    blocks = {basepoint: block for block, basepoint in dec.pointed_partition}
    family, actions, position = restrict_to_fibers(
        A, base, [blocks[b] for b in members], members
    )
    outer = assemble_union_algebra(family, actions, name=f"{A.name}_outer")
    base_index = {m: i for i, m in enumerate(members)}
    iso = tuple(
        outer.encode(base_index[dec.e(a)], position[a]) for a in range(A.size)
    )
    crosscheck(len(set(iso)) == A.size, "the labeling must be a bijection")
    crosscheck(is_homomorphism(iso, A, outer.algebra), "the labeling must preserve operations")
    return family, actions, iso


def sdp_morphism_check(F: OuterProduct, G: OuterProduct, maps) -> bool:
    """Do the per-fiber pointed maps commute with every action square?

    The squares commute exactly when the induced map between the union
    algebras is a homomorphism, which is asserted as a cross-check.
    """
    if F.family.base != G.family.base:
        raise ShapeMismatch("both products must share the base")
    base = F.family.base
    if len(maps) != base.size:
        raise ShapeMismatch("one pointed map per base element required")
    for b in range(base.size):
        size_f, base_f = F.family.fibers[b]
        size_g, base_g = G.family.fibers[b]
        if len(maps[b]) != size_f or not in_carrier(maps[b], size_g):
            raise ShapeMismatch(f"map at base element {b} has the wrong shape")
        if maps[b][base_f] != base_g:
            return False

    def commutes(p: int, sym: str, bs: tuple[int, ...]) -> bool:
        # both sides of the square, over the whole fiber product at once
        target = base.tables[p][pack(bs, base.size)]
        sizes_f = [F.family.fibers[b][0] for b in bs]
        sizes_g = [G.family.fibers[b][0] for b in bs]
        mapped = [
            [maps[b][i] for i in column] for b, column in zip(bs, row_major_columns(sizes_f))
        ]
        tab_f, tab_g = F.actions.table(sym, bs), G.actions.table(sym, bs)
        lhs = [tab_g[i] for i in pack_columns(mapped, sizes_g, prod(sizes_f))]
        return lhs == [maps[target][v] for v in tab_f]

    squares = all(
        commutes(p, sym, bs)
        for p, (sym, arity) in enumerate(base.signature.symbols)
        for bs in iproduct(range(base.size), repeat=arity)
    )
    total = tuple(
        G.encode(b, maps[b][i])
        for x in range(F.algebra.size)
        for i, b in [F.decode(x)]
    )
    crosscheck(
        squares == is_homomorphism(total, F.algebra, G.algebra),
        "square commutation must match the union-level homomorphism test",
    )
    return squares


def pointed_object_to_sdp(
    A: FiniteAlgebra,
    alpha: Homomorphism,
    beta: Homomorphism,
    V: VarietySpec | None = None,
) -> OuterProduct:
    """Turn a split pair (alpha: B -> A, beta: A -> B, beta o alpha = id)
    into the semidirect product with fibers beta^-1(b) pointed at alpha(b).

    The union algebra is asserted isomorphic to A; with V given, the product
    is also validated against the variety.
    """
    if alpha.target != A or beta.source != A or alpha.source != beta.target:
        raise ShapeMismatch("need alpha: B -> A and beta: A -> B")
    B = alpha.source
    if any(beta(alpha(b)) != b for b in range(B.size)):
        raise SectionViolation("beta o alpha must be the identity on B")
    fibers = [sorted(x for x in range(A.size) if beta(x) == b) for b in range(B.size)]
    if any(not fiber for fiber in fibers):
        raise SectionViolation("beta must be surjective")
    family, actions, position = restrict_to_fibers(A, B, fibers, alpha.map)
    if V is not None:
        outer = build_outer_product(family, actions, V, name=f"{A.name}_split")
    else:
        outer = assemble_union_algebra(family, actions, name=f"{A.name}_split")
    iso = tuple(outer.encode(beta(x), position[x]) for x in range(A.size))
    crosscheck(
        len(set(iso)) == A.size and is_homomorphism(iso, A, outer.algebra),
        "the fiber labeling must be an isomorphism onto the union",
    )
    return outer


def outer_to_pointed_object(F: OuterProduct):
    """Every product yields a split pair: the basepoint section and the
    fiber projection, with projection o section = identity."""
    base = F.family.base
    section = Homomorphism(base, F.algebra, F.section_map())
    projection = Homomorphism(F.algebra, base, F.projection_map())
    crosscheck(
        all(projection(section(b)) == b for b in range(base.size)),
        "projection o section must be the identity",
    )
    return section, projection


def direct_product_check(
    family: PointedFamily, actions: ActionFamily, K: FiniteAlgebra
) -> bool:
    """With a constant fiber K, is every action table K's own table?

    Agreement with the canonical pairing against product(K, B) is asserted:
    the pairing (i, b) -> i*|B| + b is an isomorphism exactly when the
    criterion holds (an accidental abstract isomorphism does not count).
    """
    base = family.base
    if K.signature != base.signature:
        raise SignatureMismatch("fiber algebra must share the base signature")
    if any(size != K.size for size, _ in family.fibers):
        raise ShapeMismatch("all fibers must share K's carrier")
    basepoints = {bp for _, bp in family.fibers}
    if len(basepoints) != 1:
        raise ShapeMismatch("all fibers must share one basepoint")
    if next(iter(basepoints)) not in totally_idempotent_elements(K):
        raise ShapeMismatch("shared basepoint must be totally idempotent in K")
    criterion = all(
        actions.table(sym, bs) == table
        for (sym, arity), table in zip(base.signature.symbols, K.tables)
        for bs in iproduct(range(base.size), repeat=arity)
    )
    outer = assemble_union_algebra(family, actions)
    target = product(K, base)
    pairing = tuple(
        i * base.size + b for x in range(outer.algebra.size) for i, b in [outer.decode(x)]
    )
    canonical = len(set(pairing)) == outer.algebra.size and is_homomorphism(
        pairing, outer.algebra, target
    )
    crosscheck(criterion == canonical, "criterion must match the canonical pairing")
    return criterion


# -- text format ------------------------------------------------------------
#
# action
# base <name>
# fiber <b> <size> <basepoint>      (or: fiber * <size> <basepoint>)
# map <symbol> (<b1>,...,<bk>)
# <flat table>
# end


def parse_action_file(text: str, resolve, source: str = "<input>"):
    """Parse an action file; `resolve` maps a base reference to its algebra."""
    lines = content_lines(text)
    base = None
    fibers: dict[int, tuple[int, int, int]] = {}  # b -> size, basepoint, line
    constant_fiber = None
    maps: dict[tuple[str, tuple[int, ...]], tuple[int, list[int]]] = {}  # -> line, table
    table: list[int] | None = None
    bad = "bad integer {token!r}"
    first = next(lines, None)
    if first is not None and first[1] != "action":
        raise ParseError("expected 'action'", source, first[0])
    for no, line in lines:
        parts = line.split()
        if parts[0] == "base":
            if len(parts) != 2:
                raise ParseError("expected 'base <ref>'", source, no)
            base = resolve(parts[1])
        elif parts[0] == "fiber":
            if len(parts) != 4:
                raise ParseError("expected 'fiber <b|*> <size> <basepoint>'", source, no)
            size = parse_uint(parts[2], bad, source, no)
            basepoint = parse_uint(parts[3], bad, source, no)
            if parts[1] == "*":
                if constant_fiber is not None:
                    raise ParseError("repeated 'fiber *' line", source, no)
                constant_fiber = (size, basepoint)
            else:
                b = parse_uint(parts[1], bad, source, no)
                if b in fibers:
                    raise ParseError(f"repeated fiber for {b}", source, no)
                fibers[b] = (size, basepoint, no)
        elif parts[0] == "map":
            sym, _, tup = line[len("map") :].partition("(")
            sym = sym.strip()
            entries = (x.strip() for x in tup.rstrip(")").split(","))
            bs = tuple(parse_uint(x, bad, source, no) for x in entries if x)
            if (sym, bs) in maps:
                raise ParseError(f"repeated map for {sym} {bs}", source, no)
            table = []
            maps[(sym, bs)] = (no, table)
        elif parts[0] == "end":
            break
        elif table is None:
            raise ParseError("table entries before any map line", source, no)
        else:
            table.extend(parse_uint(p, bad, source, no) for p in parts)
    else:
        raise ParseError("missing 'end'", source, len(text.splitlines()))
    if base is None:
        raise ParseError("missing base", source, len(text.splitlines()))
    for b, (_, _, no) in fibers.items():
        if not in_carrier((b,), base.size):
            raise ParseError(f"fiber for {b} outside the base", source, no)
    arities = dict(base.signature.symbols)
    for (sym, bs), (no, _) in maps.items():
        if sym not in arities:
            raise ParseError(f"map for {sym!r}, which is not in the signature", source, no)
        if len(bs) != arities[sym]:
            raise ParseError(f"map for {sym} needs {arities[sym]} base elements", source, no)
        if not in_carrier(bs, base.size):
            raise ParseError(f"map for {sym} {bs} outside the base", source, no)
    fiber_list = []
    for b in range(base.size):
        if b in fibers:
            fiber_list.append(fibers[b][:2])
        elif constant_fiber is not None:
            fiber_list.append(constant_fiber)
        else:
            raise ParseError(f"no fiber for base element {b}", source, len(text.splitlines()))
    family = PointedFamily(base, tuple(fiber_list))
    tables = {key: tuple(table) for key, (_, table) in maps.items()}
    # arity-0 maps may be omitted: they are forced onto the basepoint
    for p, (sym, arity) in enumerate(base.signature.symbols):
        if arity == 0 and (sym, ()) not in tables:
            target = base.tables[p][0]
            tables[(sym, ())] = (fiber_list[target][1],)
    return family, ActionFamily.from_dict(tables)


def emit_action_file(family: PointedFamily, actions: ActionFamily, base_ref: str) -> str:
    lines = ["action", f"base {base_ref}"]
    for b, (size, basepoint) in enumerate(family.fibers):
        lines.append(f"fiber {b} {size} {basepoint}")
    for (sym, bs), table in actions.maps:
        lines.append(f"map {sym} ({','.join(map(str, bs))})")
        lines.append(" ".join(map(str, table)))
    lines.append("end")
    return "\n".join(lines) + "\n"
