"""Independent brute-force references for the benchmark's verdicts.

Nothing here imports the library: identities are re-declared as text, terms
are parsed and compiled by a small evaluator of this file's own, and lattice
counts come from complete scans (every subset, every set partition, every
idempotent self-map). Algebras are plain data: a carrier size and a dict
`symbol -> (arity, flat row-major table)`.
"""

from __future__ import annotations

import re
from itertools import combinations, permutations, product

# Identity texts in definition order, as the `ua` CLI prints them. The quasi
# list of a variety is scanned after its identities.
_GROUP = [
    "m(m(x0,x1),x2) = m(x0,m(x1,x2))",
    "m(e,x0) = x0",
    "m(i(x0),x0) = e",
]
_DIGROUP = [
    "star(star(x0,x1),x2) = star(x0,star(x1,x2))",
    "star(one,x0) = x0",
    "star(star_inv(x0),x0) = one",
    "circ(circ(x0,x1),x2) = circ(x0,circ(x1,x2))",
    "circ(one,x0) = x0",
    "circ(circ_inv(x0),x0) = one",
]
_LSB = "circ(x0,star(x1,x2)) = star(star(circ(x0,x1),star_inv(x0)),circ(x0,x2))"

VARIETIES: dict[str, tuple[list[str], list[str]]] = {
    "semigroup": (["m(m(x0,x1),x2) = m(x0,m(x1,x2))"], []),
    "monoid": (
        ["m(m(x0,x1),x2) = m(x0,m(x1,x2))", "m(e,x0) = x0", "m(x0,e) = x0"],
        [],
    ),
    "group": (_GROUP, []),
    "lattice": (
        [
            "join(x0,x1) = join(x1,x0)",
            "meet(x0,x1) = meet(x1,x0)",
            "join(join(x0,x1),x2) = join(x0,join(x1,x2))",
            "meet(meet(x0,x1),x2) = meet(x0,meet(x1,x2))",
            "join(x0,meet(x0,x1)) = x0",
            "meet(x0,join(x0,x1)) = x0",
        ],
        [],
    ),
    "heap": (
        [
            "t(x0,x0,x1) = x1",
            "t(x0,x1,x1) = x0",
            "t(t(x0,x1,x2),x3,x4) = t(x0,x1,t(x2,x3,x4))",
        ],
        [],
    ),
    "digroup": (_DIGROUP, []),
    "skew_brace": (_DIGROUP, [_LSB]),
}

_TOKEN = re.compile(r"\s*(x\d+|[A-Za-z_]\w*|[(),])")


def _parse(text: str):
    """Term text -> nested tuples: ('var', j) or ('app', symbol, args)."""
    tokens = _TOKEN.findall(text)
    pos = 0

    def term():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        if re.fullmatch(r"x\d+", tok):
            return ("var", int(tok[1:]))
        args = []
        if pos < len(tokens) and tokens[pos] == "(":
            pos += 1
            while tokens[pos] != ")":
                args.append(term())
                if tokens[pos] == ",":
                    pos += 1
            pos += 1
        return ("app", tok, tuple(args))

    out = term()
    if pos != len(tokens):
        raise ValueError(f"trailing input in {text!r}")
    return out


def _variables(t) -> int:
    if t[0] == "var":
        return t[1] + 1
    return max((_variables(a) for a in t[2]), default=0)


def _compile(t, ops: dict, n: int):
    """Term -> function of an assignment tuple, by direct table indexing."""
    if t[0] == "var":
        j = t[1]
        return lambda a: a[j]
    arity, table = ops[t[1]]
    args = [_compile(s, ops, n) for s in t[2]]
    if arity == 0:
        value = table[0]
        return lambda a: value
    if arity == 1:
        (f,) = args
        return lambda a: table[f(a)]
    if arity == 2:
        f, g = args
        return lambda a: table[f(a) * n + g(a)]
    f, g, h = args
    return lambda a: table[(f(a) * n + g(a)) * n + h(a)]


def first_failure(n: int, ops: dict, variety: str):
    """First failing (identity text, assignment, quasi) in scan order, or None.

    Scan order is the identities in definition order, then the quasi list,
    each over all assignments in lexicographic order.
    """
    identities, quasi = VARIETIES[variety]
    for is_quasi, text in [(False, s) for s in identities] + [(True, s) for s in quasi]:
        lhs, rhs = (_parse(side) for side in text.split(" = "))
        k = max(_variables(lhs), _variables(rhs))
        fl, fr = _compile(lhs, ops, n), _compile(rhs, ops, n)
        for a in product(range(n), repeat=k):
            if fl(a) != fr(a):
                return text, a, is_quasi
    return None


def scan_length(n: int, variety: str, failure) -> int:
    """Assignments a check visits: n^k per identity scanned, and on a failure
    the witness's lexicographic rank plus one within its identity."""
    identities, quasi = VARIETIES[variety]
    total = 0
    for text in identities + quasi:
        lhs, rhs = (_parse(side) for side in text.split(" = "))
        k = max(_variables(lhs), _variables(rhs))
        if failure is not None and failure[0] == text:
            rank = 0
            for v in failure[1]:
                rank = rank * n + v
            return total + rank + 1
        total += n**k
    return total


def evaluate(text: str, n: int, ops: dict, assignment) -> int:
    return _compile(_parse(text), ops, n)(tuple(assignment))


# -- lattice oracles ---------------------------------------------------------


def _instances(n: int, ops: dict, members):
    for arity, table in ops.values():
        for args in product(members, repeat=arity):
            idx = 0
            for x in args:
                idx = idx * n + x
            yield args, table[idx]


def is_closed(n: int, ops: dict, subset) -> bool:
    members = set(subset)
    return all(v in members for _, v in _instances(n, ops, sorted(members)))


def subalgebras(n: int, ops: dict) -> list[frozenset[int]]:
    """Every nonempty subset closed under every operation (constants too)."""
    return [
        frozenset(s)
        for k in range(1, n + 1)
        for s in combinations(range(n), k)
        if is_closed(n, ops, s)
    ]


def set_partitions(n: int):
    """Every partition of {0..n-1} as its least-element map, Bell(n) of them."""
    code = [0] * n

    def rec(i: int, top: int):
        if i == n:
            least: dict[int, int] = {}
            yield tuple(least.setdefault(c, x) for x, c in enumerate(code))
            return
        for c in range(top + 2):
            code[i] = c
            yield from rec(i + 1, max(top, c))

    if n:
        yield from rec(1, 0)


def is_congruence(n: int, ops: dict, rep) -> bool:
    """Compatible with every operation: related arguments give related values."""
    for arity, table in ops.values():
        if arity == 0:
            continue
        for args in product(range(n), repeat=arity):
            idx = 0
            for x in args:
                idx = idx * n + x
            for j in range(arity):
                for b in range(n):
                    if rep[b] != rep[args[j]]:
                        continue
                    jdx = 0
                    for pos, x in enumerate(args):
                        jdx = jdx * n + (b if pos == j else x)
                    if rep[table[idx]] != rep[table[jdx]]:
                        return False
    return True


def congruences(n: int, ops: dict) -> list[tuple[int, ...]]:
    return [rep for rep in set_partitions(n) if is_congruence(n, ops, rep)]


def is_homomorphism(n: int, ops: dict, mapping, target: dict | None = None) -> bool:
    """mapping(f(a..)) = f'(mapping(a)..) for every table f of `ops` and the
    same-named table f' of `target` (by default `ops` itself)."""
    target = ops if target is None else target
    for sym, (arity, table) in ops.items():
        image = target[sym][1]
        for args in product(range(n), repeat=arity):
            idx = jdx = 0
            for x in args:
                idx = idx * n + x
                jdx = jdx * n + mapping[x]
            if mapping[table[idx]] != image[jdx]:
                return False
    return True


def idempotent_maps(n: int):
    """Every idempotent self-map: fix an image set, send the rest into it."""
    for k in range(1, n + 1):
        for image in combinations(range(n), k):
            rest = [x for x in range(n) if x not in image]
            for choice in product(image, repeat=len(rest)):
                mapping = list(range(n))
                for x, v in zip(rest, choice):
                    mapping[x] = v
                yield tuple(mapping)


def idempotent_endomorphisms(n: int, ops: dict) -> list[tuple[int, ...]]:
    return sorted(m for m in idempotent_maps(n) if is_homomorphism(n, ops, m))


def automorphisms(n: int, ops: dict) -> list[tuple[int, ...]]:
    """Every bijective endomorphism, in lexicographic order."""
    return [p for p in permutations(range(n)) if is_homomorphism(n, ops, p)]


def transversal_pairs(subs, cons) -> int:
    """(B, omega) with B meeting every omega-class exactly once."""
    count = 0
    for B in subs:
        for rep in cons:
            if len({rep[b] for b in B}) == len(B) and len(set(rep)) == len(B):
                count += 1
    return count


def is_isomorphism(n: int, src: dict, dst: dict, mapping) -> bool:
    return mapping is not None and sorted(mapping) == list(range(n)) and is_homomorphism(n, src, mapping, dst)


def partition_text(rep) -> str:
    """`{{0,2},{1}}`: blocks by least element, members ascending."""
    blocks: dict[int, list[int]] = {}
    for x, r in enumerate(rep):
        blocks.setdefault(r, []).append(x)
    return "{" + ",".join("{" + ",".join(map(str, blocks[r])) + "}" for r in sorted(blocks)) + "}"
