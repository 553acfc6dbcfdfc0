"""Ready-made small algebras for test corpora, with one group per
isomorphism class of order 1..8; every group table with identity 0 of those
orders is a relabelling of one of them."""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations
from math import isqrt

from .algebras import FiniteAlgebra, perms_fixing_zero, product, relabel_table
from .errors import AxiomFailure, SizeLimitExceeded, SizeMismatch
from .varieties import GROUP_SIG, HEAP_SIG, LATTICE_SIG, RING_SIG, Signature

SEMIGROUP_SIG = Signature((("m", 2),))


def group_from_mul(name: str, n: int, mul) -> FiniteAlgebra:
    """The group algebra of a multiplication callable, by `group_algebra_from_table`."""
    return group_algebra_from_table(tuple(mul(a, b) for a in range(n) for b in range(n)), name)


def cyclic_group(n: int) -> FiniteAlgebra:
    return group_from_mul(f"z{n}", n, lambda a, b: (a + b) % n)


def klein_group() -> FiniteAlgebra:
    return product(cyclic_group(2), cyclic_group(2)).rename("klein")


def symmetric_group_s3() -> FiniteAlgebra:
    """S3 on {0..5} via the permutations of (0,1,2) in lexicographic order."""
    perms = list(permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    return group_from_mul(
        "s3", 6, lambda a, b: index[tuple(perms[a][perms[b][k]] for k in range(3))]
    )


def dihedral_group(n: int) -> FiniteAlgebra:
    """Dihedral group of order 2n; element 2k is rotation r^k, 2k+1 is r^k s."""

    def mul(a, b):
        ka, sa = divmod(a, 2)
        kb, sb = divmod(b, 2)
        if sa == 0:
            return ((ka + kb) % n) * 2 + sb
        return ((ka - kb) % n) * 2 + (1 - sb)

    return group_from_mul(f"d{n}", 2 * n, mul)


def quaternion_group() -> FiniteAlgebra:
    """Q8 as {1,-1,i,-i,j,-j,k,-k} encoded 0..7 (sign bit is the low bit)."""
    basis = {
        ("1", "1"): ("1", 1), ("1", "i"): ("i", 1), ("1", "j"): ("j", 1), ("1", "k"): ("k", 1),
        ("i", "1"): ("i", 1), ("i", "i"): ("1", -1), ("i", "j"): ("k", 1), ("i", "k"): ("j", -1),
        ("j", "1"): ("j", 1), ("j", "i"): ("k", -1), ("j", "j"): ("1", -1), ("j", "k"): ("i", 1),
        ("k", "1"): ("k", 1), ("k", "i"): ("j", 1), ("k", "j"): ("i", -1), ("k", "k"): ("1", -1),
    }
    units = ["1", "i", "j", "k"]

    def mul(a, b):
        ua, sa = units[a >> 1], -1 if a & 1 else 1
        ub, sb = units[b >> 1], -1 if b & 1 else 1
        u, s = basis[(ua, ub)]
        s *= sa * sb
        return units.index(u) * 2 + (0 if s == 1 else 1)

    return group_from_mul("q8", 8, mul)


def groups_up_to_8() -> list[FiniteAlgebra]:
    """One representative per isomorphism class of groups of order 1..8."""
    return list(_catalog_groups())


# built once: `all_group_tables` and `all_digroups` ask at every order
@lru_cache(maxsize=1)
def _catalog_groups() -> tuple[FiniteAlgebra, ...]:
    z = cyclic_group
    return (
        z(1), z(2), z(3),
        z(4), klein_group(),
        z(5),
        z(6), symmetric_group_s3(),
        z(7),
        z(8), product(z(2), z(4)).rename("z2xz4"),
        product(z(2), klein_group()).rename("z2cube"),
        dihedral_group(4), quaternion_group(),
    )


def cyclic_ring(n: int) -> FiniteAlgebra:
    mul = tuple((a * b) % n for a in range(n) for b in range(n))
    return FiniteAlgebra(f"zring{n}", RING_SIG, n, cyclic_group(n).tables + (mul,))


def zero_ring(n: int) -> FiniteAlgebra:
    return FiniteAlgebra(f"zero{n}", RING_SIG, n, cyclic_group(n).tables + ((0,) * (n * n),))


def chain_lattice(n: int) -> FiniteAlgebra:
    join = tuple(max(a, b) for a in range(n) for b in range(n))
    meet = tuple(min(a, b) for a in range(n) for b in range(n))
    return FiniteAlgebra(f"chain{n}", LATTICE_SIG, n, (join, meet))


def diamond_lattice() -> FiniteAlgebra:
    """M3: bottom 0, atoms 1,2,3, top 4."""
    n = 5
    leq = {(a, b) for a in range(n) for b in range(n) if a == b or a == 0 or b == 4}

    def join(a, b):
        return next(c for c in range(n) if (a, c) in leq and (b, c) in leq
                    and all((c, d) in leq for d in range(n)
                            if (a, d) in leq and (b, d) in leq))

    def meet(a, b):
        return next(c for c in reversed(range(n)) if (c, a) in leq and (c, b) in leq
                    and all((d, c) in leq for d in range(n)
                            if (d, a) in leq and (d, b) in leq))

    jt = tuple(join(a, b) for a in range(n) for b in range(n))
    mt = tuple(meet(a, b) for a in range(n) for b in range(n))
    return FiniteAlgebra("m3", LATTICE_SIG, n, (jt, mt))


def mult_semigroup(n: int) -> FiniteAlgebra:
    """{0..n-1} under multiplication mod n."""
    return FiniteAlgebra(
        f"mulsg{n}", SEMIGROUP_SIG, n, (tuple((a * b) % n for a in range(n) for b in range(n)),)
    )


def left_zero_semigroup(n: int) -> FiniteAlgebra:
    return FiniteAlgebra(
        f"leftzero{n}", SEMIGROUP_SIG, n, (tuple(a for a in range(n) for _ in range(n)),)
    )


def swap_semigroup() -> FiniteAlgebra:
    """x*y = the element other than x; has no idempotent elements."""
    return FiniteAlgebra("swap2", SEMIGROUP_SIG, 2, ((1, 1, 0, 0),))


def subtraction_algebra(n: int) -> FiniteAlgebra:
    """(a, b) -> a - b mod n; not associative for n >= 3."""
    return FiniteAlgebra(
        f"sub{n}", SEMIGROUP_SIG, n, (tuple((a - b) % n for a in range(n) for b in range(n)),)
    )


def cyclic_heap(n: int) -> FiniteAlgebra:
    return FiniteAlgebra(
        f"heapz{n}",
        HEAP_SIG,
        n,
        (tuple((x - y + z) % n for x in range(n) for y in range(n) for z in range(n)),),
    )


@lru_cache(maxsize=None)
def all_group_tables(n: int) -> tuple[tuple[int, ...], ...]:
    """Every group Cayley table on {0..n-1} with identity 0, sorted.

    Each is a relabelling, by a permutation fixing 0, of one of the
    catalog's groups of order n, whose identity is 0; so the catalog's
    largest order, 8, bounds n.
    """
    groups = [G for G in groups_up_to_8() if G.size == n]
    if not groups:
        raise SizeLimitExceeded(f"the catalog lists groups of order 1..8, not {n}")
    return tuple(
        sorted({relabel_table(G.tables[0], p, 2) for G in groups for p in perms_fixing_zero(n)})
    )


def group_algebra_from_table(table: tuple[int, ...], name: str) -> FiniteAlgebra:
    """The group algebra (m, i, e) of an n x n table, with its identity and each
    element's first right inverse read off it; associativity is not checked."""
    n = isqrt(len(table))
    if n * n != len(table):
        raise SizeMismatch(f"a table of {len(table)} entries is not n x n")
    rows = [tuple(table[a * n : a * n + n]) for a in range(n)]
    ids = tuple(range(n))
    e = next((e for e, col in enumerate(zip(*rows)) if rows[e] == col == ids), None)
    if e is None:
        raise AxiomFailure("the table has no two-sided identity")
    inv = tuple(row.index(e) if e in row else None for row in rows)
    if None in inv:
        raise AxiomFailure(f"element {inv.index(None)} has no right inverse")
    return FiniteAlgebra(name, GROUP_SIG, n, (tuple(table), inv, (e,)))


def standard_corpus() -> list[tuple[FiniteAlgebra, str]]:
    """Small algebras paired with their variety names; spans several varieties."""
    return [
        (cyclic_group(2), "group"),
        (cyclic_group(3), "group"),
        (cyclic_group(4), "group"),
        (cyclic_group(6), "group"),
        (klein_group(), "group"),
        (symmetric_group_s3(), "group"),
        (chain_lattice(2), "lattice"),
        (chain_lattice(3), "lattice"),
        (diamond_lattice(), "lattice"),
        (mult_semigroup(2), "semigroup"),
        (mult_semigroup(4), "semigroup"),
        (left_zero_semigroup(3), "semigroup"),
        (cyclic_heap(4), "heap"),
        (cyclic_heap(5), "heap"),
    ]
