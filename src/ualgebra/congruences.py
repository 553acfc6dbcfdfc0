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
  through every one-place translation. A pair merges two classes when
  their canonical reps differ, one comparison, and each merge is one
  `Partition.merged` pass.
- `all_congruences` is the join-closure of the principal congruences, one
  per strongly connected component of the pair graph: by Mal'cev's
  description (Burris and Sankappanavar, *A Course in Universal Algebra*,
  Ch. II) Cg(a, b) is the equivalence closure of the pairs reachable from
  {a, b}, and Tarjan's search (SIAM J. Comput. 1, 1972) emits the components
  sinks first, so each Cg is joined from those already built, with no
  worklist of Freese's kind. Con(A) is built once per algebra: a memo keyed
  on A alone holds IDEMPOTENT_CACHE_SIZE sorted tuples, so a caller's own
  call and the idempotent search share one build. Every call returns a
  fresh list, so no caller can change a cached value.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, count

from .algebras import CARRIER_CAP, IDEMPOTENT_CACHE_SIZE, FiniteAlgebra, Homomorphism
from .errors import SizeLimitExceeded, SizeMismatch
from .partitions import Partition

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
    one place at a time and going through the representatives. Every
    `Partition` is canonical; one not over A's carrier raises SizeMismatch.
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

    Each pair (x, y) with rep[x] != rep[y] at that moment merges two
    classes, and is pushed once and merged in by `Partition.merged`: at most
    n - 1 merges. A popped pair (a, b) is propagated through every one-place
    translation: the sections of a and b at every place are paired up entry
    by entry, and each distinct merging pair is pushed in turn. The pushed
    pairs connect every class and each is respected by every translation,
    so the result is compatible; every merge is forced, so it is least.
    """
    n = A.size
    # from_pairs refuses an entry outside the carrier; each (x, rep x) joins a class
    cg = Partition.from_pairs(n, pairs)
    pending = [(x, r) for x, r in enumerate(cg.rep) if x != r]
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
            if cg.rep[x] != cg.rep[y]:
                pending.append((x, y))
                cg = Partition.merged(list(cg.rep), [(x, y)])
    return cg


def principal_congruence(A: FiniteAlgebra, a: int, b: int) -> Partition:
    return congruence_generated(A, [(a, b)])


def all_congruences(A: FiniteAlgebra) -> list[Partition]:
    """Every congruence of A, as the join-closure of its principal congruences.

    By Mal'cev's description (Burris and Sankappanavar, *A Course in
    Universal Algebra*, Ch. II), Cg(a, b) is the equivalence closure of the
    pairs that composites of one-place translations send {a, b} to: one Cg
    per strongly connected component C of the pair graph. Tarjan's search
    (SIAM J. Comput. 1, 1972) emits the components sinks first, so Cg(C) is
    C's own pairs joined with Cg(D) for each D that C has an edge to, and no
    worklist runs (Freese, Algebra Universalis 59, 2008). A new Cg(C) is
    joined once with each member of the closure so far not relating C's
    pairs. Sorted by block count descending, then by representatives.

    A carrier above CARRIER_CAP raises SizeLimitExceeded before any section
    is read, and so does a closure past CONGRUENCE_LIMIT members, as soon as
    it is; no algebra of at most 8 elements reaches that limit. Memoized on
    A alone (IDEMPOTENT_CACHE_SIZE algebras), errors are not; each call gets
    a fresh list.
    """
    return list(_congruence_closure(A))


@lru_cache(maxsize=IDEMPOTENT_CACHE_SIZE)
def _congruence_closure(A: FiniteAlgebra) -> tuple[Partition, ...]:
    n = A.size
    if n > CARRIER_CAP:
        raise SizeLimitExceeded(f"congruence enumeration capped at {CARRIER_CAP}")
    found = {Partition.identity(n)}
    for ((a, b), *_), p in _principal_components(A):
        if p not in found:
            # `Partition.join` of c and p, with p's links listed once for all c
            links = [(x, r) for x, r in enumerate(p.rep) if x != r]
            found.update([Partition.merged(list(c.rep), links) for c in found if c.rep[a] != c.rep[b]])
            if len(found) > CONGRUENCE_LIMIT:
                raise SizeLimitExceeded(
                    f"congruence enumeration capped at {CONGRUENCE_LIMIT} congruences"
                )
    return tuple(sorted(found, key=lambda p: (-p.block_count(), p.rep)))


def _principal_components(A: FiniteAlgebra) -> list[tuple[list[tuple[int, int]], Partition]]:
    """Each strongly connected component of the pair graph, sinks first, with its Cg.

    The edges are read as byte codes. At each table place every element's
    section is one int, a byte per entry, and (lanes[a] * n + lanes[b]) is
    the codes x * n + y of the pairs that (a, b) reaches there, one byte
    each: the carrier is at most CARRIER_CAP = 12 elements, so every code
    is at most 143 and no lane carries into the next. A set takes those
    bytes in one `update`, and its distinct codes are mapped to pair ids
    once, off the diagonal. Each Cg is one `Partition.merged` pass over the
    component's own pairs and the links of its successors' Cg."""
    n = A.size
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    node: list[int] = [-1] * (n * n)
    for i, (a, b) in enumerate(pairs):
        node[a * n + b] = node[b * n + a] = i
    codes: list[set[int]] = [set() for _ in pairs]
    for (_, arity), table in zip(A.signature.symbols, A.tables):
        for j in range(arity):
            stride = n ** (arity - 1 - j)
            lanes = [int.from_bytes(bytes(_section(table, n, stride, a)), "little") for a in range(n)]
            high = [lane * n for lane in lanes]
            length = len(table) // n
            for (a, b), reached in zip(pairs, codes):
                reached.update((high[a] + lanes[b]).to_bytes(length, "little"))
    diagonal = set(range(0, n * n, n + 1))
    succ = [set(map(node.__getitem__, reached - diagonal)) for reached in codes]
    order, low, comp = [-1] * len(pairs), [0] * len(pairs), [-1] * len(pairs)
    clock, stack, out = count(), [], []
    for root in range(len(pairs)):
        work = [(root, iter(succ[root]))] if order[root] < 0 else []
        while work:
            v, edges = work.pop()
            if order[v] < 0:
                order[v] = low[v] = next(clock)
                stack.append(v)
            for w in edges:
                if order[w] < 0:  # descend; w comes up again when v resumes
                    work += [(v, chain([w], edges)), (w, iter(succ[w]))]
                    break
                low[v] = min(low[v], low[w])
            else:
                if low[v] == order[v]:
                    i = stack.index(v)
                    members, stack[i:] = stack[i:], []
                    for w in members:
                        comp[w], low[w] = len(out), len(pairs)  # above every order
                    own = [pairs[w] for w in members]
                    links = [
                        (x, r)
                        for d in {comp[x] for w in members for x in succ[w]} - {len(out)}
                        for x, r in enumerate(out[d][1].rep)
                        if x != r
                    ]
                    out.append((own, Partition.merged(list(range(n)), own + links)))
    return out


def kernel(h: Homomorphism) -> Partition:
    """a ~ a' iff h(a) = h(a')."""
    first: dict[int, int] = {}
    rep = []
    for a, v in enumerate(h.map):
        rep.append(first.setdefault(v, a))
    return Partition._trusted(tuple(rep))
