"""Tuple objects, term-tuple morphisms, and the functor a semidirect product
induces on them.

Objects are tuples over an algebra; a morphism (a1..an) -> (b1..bm) is an
m-tuple of n-ary terms evaluating componentwise to the target. A semidirect
product extends to these by sending a tuple to the product of its fibers and
a term t to its term function on the union algebra, restricted to the fibers
over a1..an; it lands in the fiber over t(a1..an), since the fiber projection
is a homomorphism. Tables list the fiber product in row-major order.

Tables read a memoized fiber block: the rows of a tuple object's fiber
product, as union elements, are built once per pointed family and object,
and every table over that object evaluates its term over them at once.

G(p) is memoized per morphism p, keyed on the union algebra, the family and
p's source elements, terms and target elements: its source block, its tables
and their row-major index into the middle product. `functor_morphism` and
`basepoint_preserved` read G(p) there, so a morphism's tables have one code
path. A functor-law check reads G(p)'s index from the memo and the middle
block once, and evaluates only G(q o p) over the source block and G(q) over
the middle; so a run of checks of many q against one p builds G(p) once.
Every call checks that p's objects live over F's base before it reads the
memo, whose key holds their elements only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import prod

from .algebras import FiniteAlgebra, pack_columns, row_major_columns
from .errors import EndpointMismatch, ShapeMismatch, SizeLimitExceeded, in_carrier
from .outer import OuterProduct, PointedFamily
from .terms import Term, Var, eval_block, eval_term, substitute, term_variables


@dataclass(frozen=True)
class TupleObject:
    algebra: FiniteAlgebra
    elements: tuple[int, ...]

    def __post_init__(self):
        if not in_carrier(self.elements, self.algebra.size):
            raise ShapeMismatch("tuple entries must lie in the carrier")

    def __len__(self) -> int:
        return len(self.elements)


def is_cat_morphism(A: FiniteAlgebra, src: TupleObject, dst: TupleObject, terms) -> bool:
    """Does every component term evaluate src to the matching dst entry?"""
    if src.algebra != A or dst.algebra != A:
        raise ShapeMismatch("objects must live over the given algebra")
    if len(terms) != len(dst):
        raise ShapeMismatch("one term per target coordinate required")
    for t in terms:
        used = term_variables(t)
        if used and max(used) >= len(src):
            raise ShapeMismatch("terms may only use source coordinates")
    return all(
        eval_term(t, A, src.elements) == b for t, b in zip(terms, dst.elements)
    )


@dataclass(frozen=True)
class TermTupleMorphism:
    """Validated eagerly: construction fails unless the terms really map
    source to target."""

    source: TupleObject
    target: TupleObject
    terms: tuple[Term, ...]

    def __post_init__(self):
        if not is_cat_morphism(self.source.algebra, self.source, self.target, self.terms):
            raise EndpointMismatch("terms do not evaluate source to target")


def identity_morphism(obj: TupleObject) -> TermTupleMorphism:
    return TermTupleMorphism(obj, obj, tuple(Var(j) for j in range(len(obj))))


def compose_morphisms(q: TermTupleMorphism, p: TermTupleMorphism) -> TermTupleMorphism:
    """q after p, by substituting p's terms into q's."""
    if p.target != q.source:
        raise EndpointMismatch("p must end where q starts")
    composed = tuple(substitute(t, p.terms) for t in q.terms)
    return TermTupleMorphism(p.source, q.target, composed)


@dataclass(frozen=True)
class ProductPointedSet:
    """Product of fibers: per-coordinate sizes and the basepoint tuple."""

    sizes: tuple[int, ...]
    basepoint: tuple[int, ...]

    def total(self) -> int:
        return prod(self.sizes)

    def flat_basepoint(self) -> int:
        return pack_columns([(i,) for i in self.basepoint], self.sizes, 1)[0]


# Entries (rows x places) of the largest fiber product a table is built
# over: every product of at most 2**16 rows and 16 places fits.
FIBER_BLOCK_LIMIT = 2**20
# Fiber blocks kept, least recently used dropped first: a functor-law check
# reads three objects, and a family has few small ones.
FIBER_BLOCK_CACHE_SIZE = 32


@lru_cache(maxsize=FIBER_BLOCK_CACHE_SIZE)
def _fiber_block(family: PointedFamily, elements: tuple[int, ...]):
    """(F(a1) x ... x F(an) as a ProductPointedSet, its number of rows, its
    rows as union elements offsets[a_j] + i_j, one column per place).

    The columns are `bytes` when the union has at most 256 elements and
    tuples beyond, so `eval_block` reads them as they are. Above
    FIBER_BLOCK_LIMIT entries SizeLimitExceeded is raised before any column
    is built. Memoized on (family, elements), since the block depends on the
    fibers and their offsets alone; errors are not memoized. The memo holds
    at most FIBER_BLOCK_CACHE_SIZE x FIBER_BLOCK_LIMIT entries: 32 MiB as
    bytes, or 8 bytes an entry over a larger union, where a column's entries
    share one int per fiber element; and about 40 bytes of column header per
    place of the objects it holds.
    """
    fibers = [family.fibers[a] for a in elements]
    length = 1
    for size, _ in fibers:
        length *= size
        if length * len(fibers) > FIBER_BLOCK_LIMIT:
            raise SizeLimitExceeded(f"fiber product capped at {FIBER_BLOCK_LIMIT} entries")
    sizes = tuple(size for size, _ in fibers)
    column_type = bytes if family.total_size() <= 256 else tuple
    offsets = family.offsets
    columns = []
    for a, size, column in zip(elements, sizes, row_major_columns(sizes)):
        fiber = tuple(range(offsets[a], offsets[a] + size))
        columns.append(column_type([fiber[i] for i in column]))
    return ProductPointedSet(sizes, tuple(b for _, b in fibers)), length, tuple(columns)


def _block(F: OuterProduct, obj: TupleObject):
    """The fiber block of `obj`, which must live over F's base."""
    _check_base(F, obj)
    return _fiber_block(F.family, obj.elements)


def _check_base(F: OuterProduct, obj: TupleObject) -> None:
    if obj.algebra is not F.family.base and obj.algebra != F.family.base:
        raise ShapeMismatch("the object must live over the product's base")


def functor_object(F: OuterProduct, obj: TupleObject) -> ProductPointedSet:
    """F(a1) x ... x F(an), with the product basepoint; empty tuples give the
    one-point product."""
    return _block(F, obj)[0]


def _tables_over(
    algebra: FiniteAlgebra, offsets, block, terms, values
) -> tuple[tuple[int, ...], ...]:
    """The maps F(t): product of fibers over a block's object -> fiber over
    t's base value at that object, which the caller passes in `values`, one
    per term, for the product with union `algebra` and fiber `offsets`.

    The rows of the fiber product are one block of assignments in the union
    algebra; each term's values are shifted back into the fiber over its
    value.
    """
    _, length, columns = block
    tables = []
    for t, b in zip(terms, values):
        shift = offsets[b]
        tables.append(tuple([x - shift for x in eval_block(t, algebra, columns, length)]))
    return tuple(tables)


def _term_table(F: OuterProduct, obj: TupleObject, t: Term, value: int) -> tuple[int, ...]:
    """The map F(t) over obj into the fiber over `value`."""
    return _tables_over(F.algebra, F.family.offsets, _block(F, obj), (t,), (value,))[0]


# G(p)s kept, least recently used dropped first: a functor-law run checks
# many q against one p.
FUNCTOR_P_CACHE_SIZE = 16


@lru_cache(maxsize=FUNCTOR_P_CACHE_SIZE)
def _p_side(algebra: FiniteAlgebra, family: PointedFamily, source, terms, target):
    """(the source block, G(p)'s tables over it, and the row-major index of
    their values in the middle product, one per source row) of a morphism p
    with these source elements, terms and target elements.

    The key holds the union algebra beside the family: equal families can
    carry different actions, so different unions and tables. Only the
    middle's fiber sizes are read, never its block, so a G(p) raises nothing
    that p's source block does not. Errors are not memoized. An entry holds
    |terms| + 1 ints per source row besides the block.
    """
    block = _fiber_block(family, source)
    tables = _tables_over(algebra, family.offsets, block, terms, target)
    mid_sizes = tuple(family.fibers[b][0] for b in target)
    return block, tables, pack_columns(tables, mid_sizes, block[1])


def _p_memo(F: OuterProduct, p: TermTupleMorphism):
    """`_p_side` of p in F, after checking, on every call, that p's source
    lives over F's base; p's target lives over the same algebra."""
    _check_base(F, p.source)
    return _p_side(F.algebra, F.family, p.source.elements, tuple(p.terms), p.target.elements)


def functor_morphism(F: OuterProduct, p: TermTupleMorphism) -> tuple[tuple[int, ...], ...]:
    """One flat table per target coordinate, each over the source product;
    p's construction already checked that each term sends the source to its
    target entry."""
    return _p_memo(F, p)[1]


def check_functoriality(
    F: OuterProduct, p: TermTupleMorphism, q: TermTupleMorphism
) -> bool:
    """G(q o p) == G(q) o G(p) as exact tables: G(p) and its middle-row index
    come from the memo, and G(q o p) and G(q) are evaluated over one read
    of the source block and one of the middle block."""
    composite = compose_morphisms(q, p)
    source, _, packed = _p_memo(F, p)
    middle = _block(F, p.target)
    offsets = F.family.offsets
    direct = _tables_over(F.algebra, offsets, source, composite.terms, composite.target.elements)
    g_q = _tables_over(F.algebra, offsets, middle, q.terms, q.target.elements)
    return direct == tuple(tuple([table[i] for i in packed]) for table in g_q)


def check_identity_law(F: OuterProduct, obj: TupleObject) -> bool:
    """G(id) must reassemble to the identity on the fiber product."""
    identity = identity_morphism(obj)
    block = _block(F, obj)
    tables = _tables_over(F.algebra, F.family.offsets, block, identity.terms, obj.elements)
    return tables == tuple(map(tuple, row_major_columns(block[0].sizes)))


def basepoint_preserved(F: OuterProduct, p: TermTupleMorphism) -> bool:
    src, tables, _ = _p_memo(F, p)
    dst = functor_object(F, p.target)
    flat = src[0].flat_basepoint()
    return tuple(t[flat] for t in tables) == dst.basepoint
