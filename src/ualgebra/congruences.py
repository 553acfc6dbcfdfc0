"""Congruence testing, generation and full enumeration at desk scale.

All three work on the row-major operation tables, one argument place at a
time: a partition is compatible with an operation as soon as it is
compatible with every one-place translation x -> f(c1, .., x, .., ck), by
transitivity. The entries whose place j holds the value a form a `_section`
of the table; the sections of two values line up entry by entry.

- `is_congruence` compares, per place, the section of each element with the
  section of its class representative: O(k * n^k) per operation.
- `congruence_generated` is the worklist method of R. Freese, "Computing
  congruences efficiently", Algebra Universalis 59 (2008): every pair that
  merges two classes is pushed once, and each popped pair is propagated once
  through every one-place translation.
- `all_congruences` is the join-closure of the principal congruences: after
  each pair (a, b) it holds every join of the principal congruences seen so
  far, so a new Cg(a, b) is joined once with each member not already above
  it. That is at most |Con(A)| joins per distinct principal congruence.
  Con(A) is built once per algebra: a memo keyed on A alone holds
  IDEMPOTENT_CACHE_SIZE sorted tuples, so a caller's own call and the
  idempotent search share one build. Every call returns a fresh list, so
  no caller can change a cached value.
"""

from __future__ import annotations

from functools import lru_cache

from .algebras import CARRIER_CAP, IDEMPOTENT_CACHE_SIZE, FiniteAlgebra, Homomorphism
from .errors import SizeLimitExceeded, SizeMismatch
from .partitions import Partition, UnionFind

# Bell(8): Con(A) of an n-element algebra has at most Bell(n) members
CONGRUENCE_LIMIT = 4140


def _section(table, n: int, stride: int, a: int) -> list[int]:
    """The entries of a row-major table over {0..n-1} whose argument is a
    at the place of weight `stride` (n^(k-1-j) for place j). The other
    places run in an order fixed by (len(table), n, stride), so the sections
    of two values at one place line up."""
    step = n * stride
    start = a * stride
    out: list[int] = []
    if stride <= len(table) // step:
        for lo in range(start, start + stride):
            out += table[lo::step]
    else:
        for hi in range(start, len(table), step):
            out += table[hi : hi + stride]
    return out


def is_congruence(A: FiniteAlgebra, pi: Partition) -> bool:
    """Is `pi` compatible with every operation of A?

    One place at a time: for every place and every element a off its class
    representative r, the section of a and the section of r must agree class
    by class. That covers every pair of related argument tuples, changing
    one place at a time and going through the representatives.
    """
    if pi.n != A.size:
        raise SizeMismatch("partition size differs from carrier size")
    n, rep = A.size, pi.rep
    moved = [a for a in range(n) if rep[a] != a]
    if not moved:
        return True
    for (_, arity), table in zip(A.signature.symbols, A.tables):
        classes = [rep[v] for v in table]
        for j in range(arity):
            stride = n ** (arity - 1 - j)
            for a in moved:
                if _section(classes, n, stride, a) != _section(classes, n, stride, rep[a]):
                    return False
    return True


def congruence_generated(A: FiniteAlgebra, pairs) -> Partition:
    """Least congruence containing `pairs`, by a worklist of merged pairs.

    Each pair whose union merges two classes is pushed once. A popped pair
    (a, b) is propagated through every one-place translation: the sections
    of a and b at every place are paired up entry by entry, each distinct
    pair is merged, and the merging ones are pushed in turn. The pushed
    pairs connect every class and each is respected by every translation,
    so the result is compatible; every merge is forced, so it is least.
    """
    n = A.size
    uf = UnionFind(n)
    # from_pairs refuses an entry outside the carrier; each (x, rep x) joins a class
    uf.parent = list(Partition.from_pairs(n, pairs).rep)
    union = uf.union
    pending = [(x, r) for x, r in enumerate(uf.parent) if x != r]
    places = [
        (table, n ** (arity - 1 - j))
        for (_, arity), table in zip(A.signature.symbols, A.tables)
        for j in range(arity)
    ]
    while pending:
        a, b = pending.pop()
        images: set[tuple[int, int]] = set()
        for table, stride in places:
            images.update(zip(_section(table, n, stride, a), _section(table, n, stride, b)))
        for x, y in images:
            if x != y and union(x, y):
                pending.append((x, y))
    return uf.partition()


def principal_congruence(A: FiniteAlgebra, a: int, b: int) -> Partition:
    return congruence_generated(A, [(a, b)])


def all_congruences(A: FiniteAlgebra) -> list[Partition]:
    """Every congruence of A, as the join-closure of its principal congruences.

    Each congruence is the join of the principal congruences Cg(a, b) of its
    pairs. Over the pairs a < b in order, `found` holds every join of the
    principal congruences seen so far (the identity is the empty join), so
    it is closed under joins. A new Cg(a, b) adds its join with each member,
    and a member that relates a and b already lies above it; one already in
    `found` adds nothing. So each distinct principal congruence is joined
    once with each member of a subset of Con(A), at most |Con(A)| joins.
    Sorted by block count descending, then by representatives.

    A carrier above CARRIER_CAP raises SizeLimitExceeded, and so does a
    closure holding more than CONGRUENCE_LIMIT members, as soon as it does;
    no algebra of at most 8 elements reaches that limit. The closure is
    memoized on A alone (IDEMPOTENT_CACHE_SIZE algebras), errors are not,
    and each call gets a fresh list.
    """
    return list(_congruence_closure(A))


@lru_cache(maxsize=IDEMPOTENT_CACHE_SIZE)
def _congruence_closure(A: FiniteAlgebra) -> tuple[Partition, ...]:
    n = A.size
    if n > CARRIER_CAP:
        raise SizeLimitExceeded(f"congruence enumeration capped at {CARRIER_CAP}")
    found = {Partition.identity(n)}
    for a in range(n):
        for b in range(a + 1, n):
            p = principal_congruence(A, a, b)
            if p not in found:
                found.update([c.join(p) for c in found if c.rep[a] != c.rep[b]])
                if len(found) > CONGRUENCE_LIMIT:
                    raise SizeLimitExceeded(
                        f"congruence enumeration capped at {CONGRUENCE_LIMIT} congruences"
                    )
    return tuple(sorted(found, key=lambda p: (-p.block_count(), p.rep)))


def kernel(h: Homomorphism) -> Partition:
    """a ~ a' iff h(a) = h(a')."""
    first: dict[int, int] = {}
    rep = []
    for a, v in enumerate(h.map):
        rep.append(first.setdefault(v, a))
    return Partition(tuple(rep))
