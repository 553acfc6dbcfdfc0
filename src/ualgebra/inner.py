"""Inner semidirect decompositions via idempotent endomorphisms.

A decomposition of A consists of a subalgebra B and a congruence omega such
that B meets every omega-class in exactly one point. Decompositions biject
with idempotent endomorphisms, and every carrier splits into pointed blocks.
`idempotent_endomorphisms` reads that bijection as its definition: for each
congruence and each choice of one representative per block, the retraction
x -> the representative of x's block is one endomorphism when it is a
homomorphism.
Each of the four equivalent conditions of `verify_inner_sdp` is one public
function: (a) `is_transversal`, (b) `endo_witness`, (c) `retraction_witness`,
(d) `canonical_iso_witness`. The group, digroup, heap and near-truss reports
evaluate them on their own (B, omega), and count their class-specific
factorizations with `unique_factorizations`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import prod
from operator import attrgetter, itemgetter

from .algebras import (
    IDEMPOTENT_CACHE_SIZE,
    FiniteAlgebra,
    Homomorphism,
    is_homomorphism,
    is_subalgebra,
    pack,
    quotient,
    subalgebra_as_algebra,
)
from .congruences import all_congruences, is_congruence, kernel
from .errors import NotIdempotent, SizeLimitExceeded, crosscheck
from .partitions import Partition

# The idempotent self-maps of an 8-set: no algebra of at most 8 elements
# has more candidate retractions
CANDIDATE_LIMIT = 41393


@lru_cache(maxsize=IDEMPOTENT_CACHE_SIZE)
def idempotent_endomorphisms(A: FiniteAlgebra) -> tuple[Homomorphism, ...]:
    """All idempotent endomorphisms of A, in lexicographic map order.

    e <-> (im e, ker e) is a bijection onto the pairs (B, omega) with omega a
    congruence and B a subalgebra meeting every omega-class once, and e sends
    x to the element of B in x's class. So for each congruence omega in
    `all_congruences(A)` and each choice of one representative per block,
    the retraction onto the chosen set is kept when it is a homomorphism.
    The retractions are drawn lazily, congruence by congruence, and
    `Homomorphism.among` tests them in batches of up to 256 // |A|, one
    byte-kernel pass per table and batch: each candidate is tested once,
    against every table row, a rejected one raises nothing and a kept one
    is not tested again.

    The candidates number the sum over omega of the product of its block
    sizes; above CANDIDATE_LIMIT, SizeLimitExceeded is raised before any is
    tested. Memoized on A alone (IDEMPOTENT_CACHE_SIZE algebras); errors
    are not memoized.
    """
    congruences = [(omega.rep, omega.blocks()) for omega in all_congruences(A)]
    if sum(prod(map(len, blocks)) for _, blocks in congruences) > CANDIDATE_LIMIT:
        raise SizeLimitExceeded(f"idempotent search capped at {CANDIDATE_LIMIT} candidates")
    found = Homomorphism.among(A, A, _retractions(congruences))
    return tuple(sorted(found, key=attrgetter("map")))


def _retractions(congruences):
    """For each (rep, blocks) of a congruence in turn, the retraction onto
    each choice of one representative per block, drawn lazily."""
    for rep, blocks in congruences:
        index = {block[0]: i for i, block in enumerate(blocks)}
        # reps[where[x]] represents x's block; one element is its own block
        where = [index[r] for r in rep]
        yield from map(itemgetter(*where) if len(where) > 1 else tuple, product(*blocks))


@dataclass(frozen=True)
class InnerDecomposition:
    """A = B x| omega, with the witnessing idempotent endomorphism.

    `pointed_partition` lists (block, basepoint) in block order; the basepoint
    is the unique element of the block lying in B.
    """

    algebra: FiniteAlgebra
    B: frozenset[int]
    omega: Partition
    e: Homomorphism
    pointed_partition: tuple[tuple[tuple[int, ...], int], ...]


def decomposition_from_idempotent(A: FiniteAlgebra, e: Homomorphism) -> InnerDecomposition:
    """B = im(e), omega = ker(e), blocks pointed by their unique B-element."""
    if e.source != A or e.target != A:
        raise NotIdempotent("endomorphism of a different algebra")
    if not e.is_idempotent:
        raise NotIdempotent("map is not idempotent")
    B = e.image()
    omega = kernel(e)
    pointed = []
    for block in omega.blocks():
        inside = sorted(B.intersection(block))
        crosscheck(inside == [e(block[0])], "block must meet B exactly in its basepoint")
        pointed.append((block, inside[0]))
    return InnerDecomposition(A, B, omega, e, tuple(pointed))


@dataclass(frozen=True)
class InnerSdpReport:
    b_is_subalgebra: bool
    omega_is_congruence: bool
    a: bool  # B is a transversal of the omega-classes
    b: bool  # an idempotent endomorphism has image B and kernel omega
    c: bool  # a surjective A -> B restricting to the identity has kernel omega
    d: bool  # the canonical map B -> A/omega is an isomorphism
    decomposition: InnerDecomposition | None

    @property
    def holds(self) -> bool:
        return self.a


def is_transversal(B: frozenset[int], omega: Partition) -> bool:
    """(a): B meets every omega-class in exactly one element."""
    return all(len(B.intersection(block)) == 1 for block in omega.blocks())


def endo_witness(A: FiniteAlgebra, B: frozenset[int], omega: Partition) -> bool:
    """(b): some idempotent endomorphism has image B and kernel omega: one
    lookup of B's bitmask among the image masks that `_image_masks(A)`
    keeps for omega. A B holding anything but carrier elements is no
    image."""
    B = set(B)
    if not all(isinstance(x, int) and 0 <= x < A.size for x in B):
        return False
    return sum(1 << x for x in B) in _image_masks(A).get(tuple(omega.rep), ())


@lru_cache(maxsize=IDEMPOTENT_CACHE_SIZE)
def _image_masks(A: FiniteAlgebra) -> dict[tuple[int, ...], frozenset[int]]:
    """For each kernel of an idempotent endomorphism of A, by its `rep`, the
    bitmasks of the images of those with that kernel; read by `endo_witness`
    alone.
    Built from `idempotent_endomorphisms` by the first (b) query on A and
    memoized on A (IDEMPOTENT_CACHE_SIZE algebras) apart from the
    idempotent list, so a caller that never asks (b) holds none. Masks,
    not sets of elements: (image, kernel) pairs of sets held about twice
    the memory of the idempotent list itself."""
    masks: dict[tuple[int, ...], set[int]] = {}
    for e in idempotent_endomorphisms(A):
        masks.setdefault(kernel(e).rep, set()).add(sum(1 << x for x in set(e.map)))
    return {k: frozenset(v) for k, v in masks.items()}


def _retraction(A: FiniteAlgebra, B: frozenset[int], omega: Partition) -> tuple[int, ...] | None:
    """x -> the element of B in its omega-class; None unless B is a transversal."""
    mapping = [-1] * A.size
    for block in omega.blocks():
        inside = [x for x in block if x in B]
        if len(inside) != 1:
            return None
        for x in block:
            mapping[x] = inside[0]
    return tuple(mapping)


def retraction_witness(A: FiniteAlgebra, B: frozenset[int], omega: Partition) -> bool:
    """(c): a homomorphism A -> B restricting to the identity has kernel omega."""
    # a map with kernel exactly omega is constant on classes and injective
    # across them, and the identity on B pins the classes that meet B; its
    # image is B, so it is a homomorphism onto B exactly when it is one A -> A
    r = _retraction(A, B, omega)
    return r is not None and is_homomorphism(r, A, A)


def canonical_iso_witness(A: FiniteAlgebra, B: frozenset[int], omega: Partition) -> bool:
    """(d): the canonical map B -> A/omega, b -> [b], is an isomorphism."""
    Q, proj = quotient(A, omega)
    sub, members = subalgebra_as_algebra(A, B)
    canonical = tuple(proj(b) for b in members)
    if len(set(canonical)) != len(members) or len(members) != Q.size:
        return False
    return is_homomorphism(canonical, sub, Q)


def unique_factorizations(n: int, left, right, op) -> bool:
    """Every element of {0..n-1} is op(l, r) for exactly one pair in left x right."""
    return sorted(op(l, r) for l in left for r in right) == list(range(n))


def verify_inner_sdp(A: FiniteAlgebra, B, omega: Partition) -> InnerSdpReport:
    """Evaluate the four equivalent decomposition conditions independently.

    Violated preconditions (B not a subalgebra, omega not a congruence) are
    reported as flags; all four conditions are then false rather than raised.
    """
    B = frozenset(B)
    sub_ok = is_subalgebra(A, B)
    cong_ok = is_congruence(A, omega)
    if not (sub_ok and cong_ok):
        return InnerSdpReport(sub_ok, cong_ok, False, False, False, False, None)
    flag_a = is_transversal(B, omega)
    flag_b = endo_witness(A, B, omega)
    flag_c = retraction_witness(A, B, omega)
    flag_d = canonical_iso_witness(A, B, omega)
    crosscheck(flag_a == flag_b == flag_c == flag_d, "the four conditions must agree")
    r = _retraction(A, B, omega)
    dec = decomposition_from_idempotent(A, Homomorphism(A, A, r)) if flag_a else None
    return InnerSdpReport(sub_ok, cong_ok, flag_a, flag_b, flag_c, flag_d, dec)


def totally_idempotent_elements(A: FiniteAlgebra) -> frozenset[int]:
    """Elements a with f(a,...,a) = a for every operation (constants included)."""
    out = []
    for a in range(A.size):
        if all(
            A.tables[p][pack((a,) * arity, A.size)] == a
            for p, (_, arity) in enumerate(A.signature.symbols)
        ):
            out.append(a)
    return frozenset(out)


def constant_endomorphisms(A: FiniteAlgebra) -> tuple[Homomorphism, ...]:
    """One constant endomorphism per totally idempotent element.

    The three descriptions (constant endomorphisms, singleton subalgebras,
    totally idempotent elements) are computed separately and asserted to
    coincide.
    """
    constants = [
        a for a in range(A.size) if is_homomorphism((a,) * A.size, A, A)
    ]
    singletons = [a for a in range(A.size) if is_subalgebra(A, {a})]
    totally = sorted(totally_idempotent_elements(A))
    crosscheck(constants == singletons == totally, "the three sets must biject")
    return tuple(Homomorphism(A, A, (a,) * A.size) for a in constants)


def endo_leq(e: Homomorphism, f: Homomorphism) -> bool:
    """e <= f iff im(e) is inside im(f) and ker(f) refines ker(e)."""
    return e.image() <= f.image() and kernel(f).refines(kernel(e))


@dataclass(frozen=True)
class BlockClassReport:
    """Per omega-class status for one decomposition."""

    endo_index: int
    block: tuple[int, ...]
    basepoint: int
    is_subalgebra: bool
    basepoint_totally_idempotent: bool
    dominated_constant_exists: bool


@dataclass(frozen=True)
class PosetReport:
    endos: tuple[Homomorphism, ...]
    leq: tuple[tuple[bool, ...], ...]
    class_reports: tuple[BlockClassReport, ...]


def idempotent_poset(A: FiniteAlgebra) -> PosetReport:
    """Order the idempotent endomorphisms and grade every block of every
    decomposition by the three equivalent class conditions.

    The identity is asserted greatest and the constant endomorphisms minimal.
    For each decomposition e and omega-class K the report records whether K is
    a subalgebra, whether its basepoint is totally idempotent, and whether a
    constant endomorphism below e lands inside K; the three are asserted
    equivalent.
    """
    endos = idempotent_endomorphisms(A)
    matrix = tuple(tuple(endo_leq(e, f) for f in endos) for e in endos)
    identity_index = endos.index(Homomorphism(A, A, tuple(range(A.size))))
    crosscheck(all(row[identity_index] for row in matrix), "identity must be greatest")
    constants = {e.map[0] for e in constant_endomorphisms(A)}
    for i, e in enumerate(endos):
        if len(e.image()) == 1:
            below = [j for j in range(len(endos)) if matrix[j][i] and j != i]
            crosscheck(not below, "constant endomorphisms must be minimal")
    totally = totally_idempotent_elements(A)
    reports = []
    for i, e in enumerate(endos):
        dec = decomposition_from_idempotent(A, e)
        for block, basepoint in dec.pointed_partition:
            is_sub = is_subalgebra(A, block)
            base_ti = basepoint in totally
            dominated = basepoint in constants and endo_leq(
                Homomorphism(A, A, (basepoint,) * A.size), e
            )
            crosscheck(is_sub == base_ti == dominated, "class conditions must agree")
            reports.append(
                BlockClassReport(i, block, basepoint, is_sub, base_ti, dominated)
            )
    return PosetReport(endos, matrix, tuple(reports))


def count_transversal_pairs(A: FiniteAlgebra, subalgebras, congruences) -> int:
    """|{(B, omega) : B meets every omega-class exactly once}| by direct scan.

    B meets each of the k classes of omega once iff |B| = k and the members
    of B lie in k different classes. So the congruences' class labels `rep`
    are grouped by their class count k once per call, each B is read only
    against the omegas of k = |B|, and each such pair costs one set of |B|
    labels. Nothing is memoized here; the congruences usually come from the
    memoized `all_congruences`, as a fresh list.
    """
    by_count: dict[int, list] = {}
    for omega in congruences:
        by_count.setdefault(omega.block_count(), []).append(omega.rep)
    return sum(
        len({rep[x] for x in B}) == len(B)
        for B in map(frozenset, subalgebras)
        for rep in by_count.get(len(B), ())
    )
