"""Partitions of {0..n-1} in a canonical least-representative form."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParseError, SizeMismatch


@dataclass(frozen=True)
class Partition:
    """Equivalence relation; `rep[i]` is the least element of i's block."""

    rep: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.rep)

    @classmethod
    def identity(cls, n: int) -> "Partition":
        return cls(tuple(range(n)))

    @classmethod
    def total(cls, n: int) -> "Partition":
        return cls((0,) * n) if n else cls(())

    @classmethod
    def from_pairs(cls, n: int, pairs) -> "Partition":
        uf = UnionFind(n)
        for pair in pairs:
            a, b = pair if isinstance(pair, (tuple, list)) and len(pair) == 2 else (None, None)
            if not (isinstance(a, int) and isinstance(b, int) and 0 <= a < n and 0 <= b < n):
                raise SizeMismatch(f"partition entries must be integers in range({n}), in pairs")
            uf.union(a, b)
        return uf.partition()

    @classmethod
    def from_blocks(cls, n: int, blocks) -> "Partition":
        rep = [-1] * n
        for block in blocks:
            if not block:
                raise SizeMismatch("a partition block is empty")
            if not all(isinstance(x, int) and 0 <= x < n for x in block):
                raise SizeMismatch(f"partition entries must be integers in range({n})")
            least = min(block)
            for x in block:
                if rep[x] != -1:
                    raise SizeMismatch(f"element {x} occurs in two blocks")
                rep[x] = least
        if any(r == -1 for r in rep):
            raise SizeMismatch("blocks do not cover the carrier")
        return cls(tuple(rep))

    def same(self, a: int, b: int) -> bool:
        return self.rep[a] == self.rep[b]

    def block_of(self, a: int) -> tuple[int, ...]:
        r = self.rep[a]
        return tuple(i for i in range(self.n) if self.rep[i] == r)

    def blocks(self) -> list[tuple[int, ...]]:
        by_rep: dict[int, list[int]] = {}
        for i, r in enumerate(self.rep):
            by_rep.setdefault(r, []).append(i)
        return [tuple(by_rep[r]) for r in sorted(by_rep)]

    def block_count(self) -> int:
        return len(set(self.rep))

    def refines(self, other: "Partition") -> bool:
        """True when every block of self lies inside a block of other."""
        if self.n != other.n:
            raise SizeMismatch("partitions over different carriers")
        return all(other.rep[i] == other.rep[self.rep[i]] for i in range(self.n))

    def join(self, other: "Partition") -> "Partition":
        if self.n != other.n:
            raise SizeMismatch("partitions over different carriers")
        # self.rep is a union-find forest; only other's non-representatives merge
        uf = UnionFind(self.n)
        uf.parent = list(self.rep)
        for i, r in enumerate(other.rep):
            if i != r:
                uf.union(i, r)
        return uf.partition()

    def meet(self, other: "Partition") -> "Partition":
        if self.n != other.n:
            raise SizeMismatch("partitions over different carriers")
        keys: dict[tuple[int, int], int] = {}
        rep = []
        for i in range(self.n):
            key = (self.rep[i], other.rep[i])
            rep.append(keys.setdefault(key, i))
        return Partition(tuple(rep))

    def __str__(self) -> str:
        return "{" + ",".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks()) + "}"


class UnionFind:
    """Disjoint sets on {0..n-1}; a union hangs the larger root under the
    smaller, so every root is the least element of its class."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        """Merge the classes of a and b; False when they were already one."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[max(ra, rb)] = min(ra, rb)
        return True

    def partition(self) -> Partition:
        return Partition(tuple(self.find(x) for x in range(len(self.parent))))


def parse_partition(text: str, n: int, source: str = "<input>") -> Partition:
    """Parse the `{{0,2},{1,3}}` form back into a Partition over {0..n-1};
    an error cites `source`:1:<column>."""
    from .algebras import parse_uint  # algebras imports this module

    s = "".join(text.split())
    if not (s.startswith("{") and s.endswith("}")):
        raise ParseError("partition must be wrapped in braces", source, 1, 1)
    body = s[1:-1]
    blocks: list[list[int]] = []
    i = 0
    while i < len(body):
        if body[i] == ",":
            i += 1
            continue
        if body[i] != "{":
            raise ParseError("expected '{' opening a block", source, 1, i + 2)
        j = body.find("}", i)
        if j < 0:
            raise ParseError("unterminated block", source, 1, i + 2)
        inner = body[i + 1 : j]
        message = "block entries must be integers"
        block = [parse_uint(p, message, source, 1, i + 2) for p in inner.split(",") if p != ""]
        if not block:
            raise ParseError("empty block", source, 1, i + 2)
        if any(x >= n for x in block):
            raise ParseError(f"block entry out of range 0..{n - 1}", source, 1, i + 2)
        blocks.append(block)
        i = j + 1
    return Partition.from_blocks(n, blocks)

