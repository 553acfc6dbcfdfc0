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
        links = []
        for pair in pairs:
            a, b = pair if isinstance(pair, (tuple, list)) and len(pair) == 2 else (None, None)
            if not (isinstance(a, int) and isinstance(b, int) and 0 <= a < n and 0 <= b < n):
                raise SizeMismatch(f"partition entries must be integers in range({n}), in pairs")
            links.append((a, b))
        return cls.merged(list(range(n)), links)

    @classmethod
    def merged(cls, parent: list[int], links) -> "Partition":
        """The partition of the forest `parent` with each link (a, b) merged
        in. `parent` must have parent[x] <= x, each root the least element
        of its tree, as the identity and every canonical `rep` do; it is
        changed in place. A link finds both roots inline, halving the paths
        as `UnionFind.find` does, and hangs the larger root under the
        smaller. Both keep parent[x] <= x, so one ascending pass
        parent[x] = parent[parent[x]] then names each element's root: its
        parent's root is already in place. Every join and every component's
        Cg in `congruences` is one such pass."""
        for a, b in links:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            while parent[b] != b:
                parent[b] = parent[parent[b]]
                b = parent[b]
            if a < b:
                parent[b] = a
            elif b < a:
                parent[a] = b
        for x in range(len(parent)):
            parent[x] = parent[parent[x]]
        return cls(tuple(parent))

    def check_canonical(self, n: int) -> None:
        """Raise SizeMismatch unless this partition is over {0..n-1} in the
        canonical form: each rep[a] an int with 0 <= rep[a] <= a and
        rep[rep[a]] == rep[a]. The boundary check of `is_congruence` and
        `quotient`, which read `rep` as class labels."""
        rep = self.rep
        if len(rep) != n:
            raise SizeMismatch("partition size differs from carrier size")
        if not all(isinstance(r, int) and 0 <= r <= a and rep[r] == r for a, r in enumerate(rep)):
            raise SizeMismatch("partition is not canonical: rep[a] must be the least of a's block")

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
        """The least partition above both. Each operand must be canonical
        (`check_canonical`), else SizeMismatch; the congruence lattice, whose
        partitions are canonical by construction, merges through
        `Partition.merged` itself."""
        if self.n != other.n:
            raise SizeMismatch("partitions over different carriers")
        self.check_canonical(self.n)
        other.check_canonical(self.n)
        # self.rep is a forest of depth one; only other's non-representatives merge
        return Partition.merged(list(self.rep), [(i, r) for i, r in enumerate(other.rep) if i != r])

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
        # every union keeps parent[x] <= x, the forest `Partition.merged` takes
        return Partition.merged(self.parent, ())


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

