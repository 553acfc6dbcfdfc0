"""Congruence testing, generation and full enumeration at desk scale."""

from __future__ import annotations

from itertools import product as iproduct

from .algebras import FiniteAlgebra, Homomorphism, pack
from .errors import SizeLimitExceeded, SizeMismatch
from .partitions import Partition, UnionFind

CONGRUENCE_ENUM_CAP = 8


def _related_tuples(A: FiniteAlgebra, pi: Partition, arity: int):
    """Yield pairs of componentwise pi-related argument tuples."""
    blocks = {r: pi.block_of(r) for r in set(pi.rep)}
    for args in iproduct(range(A.size), repeat=arity):
        choices = [blocks[pi.rep[a]] for a in args]
        for other in iproduct(*choices):
            yield args, other


def is_congruence(A: FiniteAlgebra, pi: Partition) -> bool:
    """Exhaustive compatibility check of `pi` with every operation of A."""
    if pi.n != A.size:
        raise SizeMismatch("partition size differs from carrier size")
    for p, (_, arity) in enumerate(A.signature.symbols):
        if arity == 0:
            continue
        table = A.tables[p]
        for args, other in _related_tuples(A, pi, arity):
            if not pi.same(table[pack(args, A.size)], table[pack(other, A.size)]):
                return False
    return True


def congruence_generated(A: FiniteAlgebra, pairs) -> Partition:
    """Least congruence containing `pairs`.

    Alternates union-find merging with one-coordinate propagation through all
    operation tables until a fixpoint; one-coordinate steps suffice because
    the full compatibility condition follows from them by transitivity.
    """
    n = A.size
    uf = UnionFind(n)
    find, union = uf.find, uf.union
    for a, b in pairs:
        union(a, b)
    changed = True
    while changed:
        changed = False
        classes: dict[int, list[int]] = {}
        for x in range(n):
            classes.setdefault(find(x), []).append(x)
        for p, (_, arity) in enumerate(A.signature.symbols):
            if arity == 0:
                continue
            table = A.tables[p]
            for args in iproduct(range(n), repeat=arity):
                base = table[pack(args, n)]
                for j in range(arity):
                    for b in classes[find(args[j])]:
                        if b == args[j]:
                            continue
                        other = args[:j] + (b,) + args[j + 1 :]
                        if union(base, table[pack(other, n)]):
                            changed = True
    return uf.partition()


def principal_congruence(A: FiniteAlgebra, a: int, b: int) -> Partition:
    return congruence_generated(A, [(a, b)])


def all_congruences(A: FiniteAlgebra, cap: int = CONGRUENCE_ENUM_CAP) -> list[Partition]:
    """Every congruence of A, as the join closure of the principal ones.

    Each congruence is the join of the principal congruences of its pairs, so
    closing the principal ones (plus the identity) under binary join finds
    them all without scanning the Bell-number space of partitions.
    """
    if A.size > cap:
        raise SizeLimitExceeded(f"congruence enumeration capped at {cap}")
    found: set[Partition] = {Partition.identity(A.size)}
    frontier = []
    for a in range(A.size):
        for b in range(a + 1, A.size):
            c = principal_congruence(A, a, b)
            if c not in found:
                found.add(c)
                frontier.append(c)
    while frontier:
        fresh: list[Partition] = []
        for c in frontier:
            for d in list(found):
                j = c.join(d)
                if j not in found:
                    found.add(j)
                    fresh.append(j)
        frontier = fresh
    return sorted(found, key=lambda p: (-p.block_count(), p.rep))


def kernel(h: Homomorphism) -> Partition:
    """a ~ a' iff h(a) = h(a')."""
    first: dict[int, int] = {}
    rep = []
    for a, v in enumerate(h.map):
        rep.append(first.setdefault(v, a))
    return Partition(tuple(rep))
