"""Partitions of {0..n-1} in a canonical least-representative form."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParseError, SizeMismatch


@dataclass(frozen=True)
class Partition:
    """Equivalence relation; `rep[i]` is the least element of i's block.

    The constructor refuses any other `rep` with SizeMismatch: each rep[a]
    must be an int with 0 <= rep[a] <= a and rep[rep[a]] == rep[a]. The
    builders below make partitions canonical by construction, and skip
    that check through `_trusted`."""

    rep: tuple[int, ...]

    def __post_init__(self):
        rep = self.rep
        if not all(isinstance(r, int) and 0 <= r <= a and rep[r] == r for a, r in enumerate(rep)):
            raise SizeMismatch("partition is not canonical: rep[a] must be the least of a's block")

    @classmethod
    def _trusted(cls, rep: tuple[int, ...]) -> "Partition":
        """The partition of a `rep` canonical by construction, unchecked."""
        p = object.__new__(cls)
        object.__setattr__(p, "rep", rep)
        return p

    @property
    def n(self) -> int:
        return len(self.rep)

    @classmethod
    def identity(cls, n: int) -> "Partition":
        return cls._trusted(tuple(range(n)))

    @classmethod
    def total(cls, n: int) -> "Partition":
        return cls._trusted((0,) * n)

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
        trusted, and changed in place. A link finds both roots inline,
        halving the paths, and hangs the larger root under the smaller.
        Both keep parent[x] <= x, so one ascending pass
        parent[x] = parent[parent[x]] then names each element's root: its
        parent's root is already in place. Every join, every Cg and every
        merge of `congruence_generated`'s worklist is one such pass."""
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
        return cls._trusted(tuple(parent))

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
        return cls._trusted(tuple(rep))

    def _require_elements(self, *elements) -> None:
        n = self.n
        if not all(isinstance(x, int) and 0 <= x < n for x in elements):
            raise SizeMismatch(f"partition elements must be integers in range({n})")

    def same(self, a: int, b: int) -> bool:
        self._require_elements(a, b)
        return self.rep[a] == self.rep[b]

    def block_of(self, a: int) -> tuple[int, ...]:
        self._require_elements(a)
        r = self.rep[a]
        return tuple(i for i in range(self.n) if self.rep[i] == r)

    def blocks(self) -> list[tuple[int, ...]]:
        """The blocks by least element: in canonical form, the order in
        which their reps first appear."""
        by_rep: dict[int, list[int]] = {}
        for i, r in enumerate(self.rep):
            by_rep.setdefault(r, []).append(i)
        return [tuple(block) for block in by_rep.values()]

    def block_count(self) -> int:
        return len(set(self.rep))

    def refines(self, other: "Partition") -> bool:
        """True when every block of self lies inside a block of other."""
        if self.n != other.n:
            raise SizeMismatch("partitions over different carriers")
        return all(other.rep[i] == other.rep[self.rep[i]] for i in range(self.n))

    def join(self, other: "Partition") -> "Partition":
        """The least partition above both: `Partition.merged` of self's
        rep, a forest of depth one, with other's non-representatives."""
        if self.n != other.n:
            raise SizeMismatch("partitions over different carriers")
        return Partition.merged(list(self.rep), [(i, r) for i, r in enumerate(other.rep) if i != r])

    def meet(self, other: "Partition") -> "Partition":
        if self.n != other.n:
            raise SizeMismatch("partitions over different carriers")
        keys: dict[tuple[int, int], int] = {}
        rep = []
        for i in range(self.n):
            key = (self.rep[i], other.rep[i])
            rep.append(keys.setdefault(key, i))
        return Partition._trusted(tuple(rep))

    def __str__(self) -> str:
        return "{" + ",".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks()) + "}"


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

