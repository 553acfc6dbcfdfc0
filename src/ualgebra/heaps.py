"""Heaps (associative Mal'tsev ternary operation) and near-trusses.

Every nonempty heap is the heap of a group; decompositions mirror the general
theory, with normal subheaps giving congruences and a conjugation-style
action on the block of a chosen basepoint.

A nonempty subheap is a subalgebra in t/3: `is_subheap` is `is_subalgebra`
plus the empty heap, and `all_normal_subheaps` filters `all_subalgebras`.

`heap_outer` translates a heap action into a pointed family (K over every
y, pointed at 0) and the action family t(k1, k2, k3) = [k1, a_w(k2), a_w(k3)],
and builds through `outer.assemble_union_algebra`. Products are published in
the pair encoding k*|Y| + y. `heap_inner_report` flags a, b and e and
`near_truss_report` flags a, b and d are the general inner conditions (a),
(b) and (d) on (Y, omega); the bracket factorizations are heap-specific.
The heap action law is one `algebras.is_action` call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product as iproduct

from .algebras import (
    FiniteAlgebra,
    Homomorphism,
    all_subalgebras,
    compose,
    find_isomorphism,
    inverse_permutation,
    is_action,
    is_automorphism,
    is_homomorphism,
    is_subalgebra,
    product,
    subalgebra_as_algebra,
)
from .congruences import all_congruences, congruence_generated, is_congruence
from .errors import (
    AxiomFailure,
    DecompositionInvalid,
    EmptySet,
    HypothesisViolation,
    NotACongruence,
    NotASubheap,
    SignatureMismatch,
    crosscheck,
    in_carrier,
)
from .inner import (
    canonical_iso_witness,
    endo_witness,
    idempotent_endomorphisms,
    is_transversal,
    unique_factorizations,
)
from .outer import ActionFamily, PointedFamily, assemble_union_algebra, fiber_major
from .partitions import Partition
from .varieties import GROUP_SIG, HEAP_SIG, TRUSS_SIG, REGISTRY, check_identities


def heap_op(X: FiniteAlgebra, a: int, b: int, c: int) -> int:
    return X.tables[0][(a * X.size + b) * X.size + c]


def is_heap(X: FiniteAlgebra) -> bool:
    if X.signature != HEAP_SIG:
        raise SignatureMismatch("expected the heap signature t/3")
    return check_identities(X, REGISTRY["heap"]).passes


def heap_from_group(G: FiniteAlgebra) -> FiniteAlgebra:
    """t(x, y, z) = x y^-1 z; verified to satisfy the heap axioms."""
    if G.signature != GROUP_SIG:
        raise SignatureMismatch("expected the group signature m/2, i/1, e/0")
    mul, inv = G.table("m"), G.table("i")
    n = G.size
    table = tuple(
        mul[mul[x * n + inv[y]] * n + z]
        for x in range(n)
        for y in range(n)
        for z in range(n)
    )
    X = FiniteAlgebra(f"{G.name}_heap", HEAP_SIG, n, (table,))
    if not is_heap(X):
        raise AxiomFailure("group-derived table fails the heap axioms")
    return X


def group_from_heap(X: FiniteAlgebra, e: int) -> FiniteAlgebra:
    """Retract at basepoint e: product t(x, e, y), identity e, inverse t(e, x, e)."""
    n = X.size
    if not in_carrier((e,), n):
        raise EmptySet("basepoint outside the carrier")
    e = int(e)  # a bool basepoint names and builds what its int does
    mul = tuple(heap_op(X, x, e, y) for x in range(n) for y in range(n))
    inv = tuple(heap_op(X, e, x, e) for x in range(n))
    G = FiniteAlgebra(f"{X.name}_at{e}", GROUP_SIG, n, (mul, inv, (e,)))
    report = check_identities(G, REGISTRY["group"])
    if not report.passes:
        raise AxiomFailure(f"retract fails the group identities: {report.witness.identity}")
    return G


def is_subheap(X: FiniteAlgebra, S) -> bool:
    """Is S closed under t? The empty set is the empty heap, so it passes;
    a nonempty S is a subheap exactly when it is a subalgebra."""
    S = frozenset(S)
    return not S or is_subalgebra(X, S)


def is_normal_subheap(X: FiniteAlgebra, S) -> bool:
    """Nonempty subheap with [[x,e,s],x,e] inside S for all x and e,s in S."""
    S = frozenset(S)
    if not S or not is_subheap(X, S):
        return False
    return all(
        heap_op(X, heap_op(X, x, e, s), x, e) in S
        for x in range(X.size)
        for e in S
        for s in S
    )


def all_normal_subheaps(X: FiniteAlgebra) -> list[frozenset[int]]:
    """The subalgebras that are normal subheaps, in `all_subalgebras` order."""
    return [S for S in all_subalgebras(X) if is_normal_subheap(X, S)]


def subheap_relation(X: FiniteAlgebra, S) -> Partition:
    """The congruence generated by relating all of S to itself."""
    members = sorted(frozenset(S))
    if not members:
        raise EmptySet("the empty set generates no relation")
    pairs = [(members[0], s) for s in members[1:]]
    return congruence_generated(X, pairs)


def subheap_preorder_leq(X: FiniteAlgebra, M, N) -> bool:
    """M <= N iff whenever [x,y,s] lands in M for some s in M, some t in N
    puts [x,y,t] in N."""
    M, N = frozenset(M), frozenset(N)
    for x in range(X.size):
        for y in range(X.size):
            hit_m = any(heap_op(X, x, y, s) in M for s in M)
            if hit_m and not any(heap_op(X, x, y, t) in N for t in N):
                return False
    return True


@dataclass(frozen=True)
class NormalSubheapReport:
    normal: bool
    relation: Partition
    preorder_row: tuple[bool, ...]


def normal_subheap_report(X: FiniteAlgebra, S, others=()) -> NormalSubheapReport:
    S = frozenset(S)
    if not S:
        raise EmptySet("S must be nonempty")
    if not is_subheap(X, S):
        raise NotASubheap("S must be a subheap")
    row = tuple(subheap_preorder_leq(X, S, other) for other in others)
    return NormalSubheapReport(is_normal_subheap(X, S), subheap_relation(X, S), row)


@dataclass(frozen=True)
class HeapCorrespondenceReport:
    """How the normal subheaps map onto the congruences."""

    normal_subheaps: tuple[frozenset[int], ...]
    congruences: tuple[Partition, ...]
    relation_of: tuple[Partition, ...]
    surjective: bool
    order_isomorphic: bool


def heap_congruence_correspondence(X: FiniteAlgebra) -> HeapCorrespondenceReport:
    """S -> ~S must cover every congruence, and the preorder on normal
    subheaps must mirror refinement of the induced congruences."""
    subheaps = tuple(all_normal_subheaps(X))
    congruences = tuple(all_congruences(X))
    relations = tuple(subheap_relation(X, S) for S in subheaps)
    surjective = set(relations) == set(congruences)
    order_iso = all(
        subheap_preorder_leq(X, M, N) == relations[i].refines(relations[j])
        for i, M in enumerate(subheaps)
        for j, N in enumerate(subheaps)
    )
    return HeapCorrespondenceReport(subheaps, congruences, relations, surjective, order_iso)


@dataclass(frozen=True)
class HeapInnerReport:
    a: bool  # Y is a transversal of the omega-classes: inner (a)
    b: bool  # an idempotent heap endomorphism has image Y and kernel omega: inner (b)
    c: bool  # unique a = [b,c,d] with b omega c, d in Y
    d: bool  # unique a = [d,c,b] with b omega c, d in Y
    e: bool  # y -> [y] is an isomorphism Y -> X/omega: inner (d)
    action: tuple[tuple[int, ...], ...] | None
    block: tuple[int, ...] | None

    @property
    def holds(self) -> bool:
        return self.a


def _unique_brackets(X: FiniteAlgebra, Y: frozenset[int], omega: Partition, swap: bool) -> bool:
    """For every c in Y, each a is [b, c, d] (or [d, c, b] with `swap`) for
    exactly one b in the omega-class of c and one d in Y."""

    def bracket(b, c, d):
        return heap_op(X, d, c, b) if swap else heap_op(X, b, c, d)

    return all(
        unique_factorizations(X.size, omega.block_of(c), Y, lambda b, d: bracket(b, c, d))
        for c in Y
    )


def _bracket_of_maps(f, g, h) -> tuple[int, ...]:
    """[f, g, h] = f o g^-1 o h in the heap of permutations."""
    return compose(f, compose(inverse_permutation(g), h))


@lru_cache(maxsize=8)
def _heap_axioms_hold(X: FiniteAlgebra) -> bool:
    # heap_inner_report runs once per (Y, omega) on one algebra; check it once
    return is_heap(X)


def _basepoint_action(X: FiniteAlgebra, Y: frozenset[int], block, e: int):
    """The rows alpha_y(k) = [y, e, [k, y, e]] on the block of e, one per
    member y of Y in order. On a heap the block is a subheap, each row is
    an automorphism of it, alpha_e is the identity and y -> alpha_y is a
    heap morphism into the automorphism heap; this is asserted."""
    pos = {x: i for i, x in enumerate(block)}
    block_heap, _ = subalgebra_as_algebra(X, block)
    sub_y, members = subalgebra_as_algebra(X, Y)
    action = tuple(
        tuple(pos[heap_op(X, y, e, heap_op(X, k, y, e))] for k in block) for y in members
    )
    crosscheck(
        all(is_automorphism(row, block_heap) for row in action)
        and action[members.index(e)] == tuple(range(len(block)))
        and is_action(action, sub_y, "t", _bracket_of_maps),
        "alpha must be a heap morphism into Aut(block), alpha_e = id",
    )
    return action


def heap_inner_report(
    X: FiniteAlgebra, Y, omega: Partition, e: int | None = None
) -> HeapInnerReport:
    """Evaluate the five decomposition conditions independently; on success
    build the action alpha_y(k) = [y, e, [k, y, e]] on the block of e and
    verify it is a heap morphism into the automorphism heap. A t/3 table
    that is not a heap raises AxiomFailure."""
    if X.signature != HEAP_SIG:
        raise SignatureMismatch("expected the heap signature t/3")
    Y = frozenset(Y)
    if not Y or not is_subheap(X, Y):
        raise NotASubheap("Y must be a nonempty subheap")
    if not is_congruence(X, omega):
        raise NotACongruence("omega must be a congruence")
    if not _heap_axioms_hold(X):
        raise AxiomFailure(f"{X.name} fails the heap identities")

    flag_a = is_transversal(Y, omega)
    flag_b = endo_witness(X, Y, omega)
    flag_c = _unique_brackets(X, Y, omega, swap=False)
    flag_d = _unique_brackets(X, Y, omega, swap=True)
    flag_e = canonical_iso_witness(X, Y, omega)
    crosscheck(flag_a == flag_b == flag_c == flag_d == flag_e, "the five conditions must agree")

    action = None
    block = None
    if flag_a:
        if e is None:
            e = min(Y)
        if e not in Y:
            raise DecompositionInvalid("the basepoint must lie in Y")
        block = omega.block_of(e)
        action = _basepoint_action(X, Y, block, e)
    return HeapInnerReport(flag_a, flag_b, flag_c, flag_d, flag_e, action, block)


@dataclass(frozen=True)
class HeapAction:
    """Base heap Y acting on K through automorphisms, trivial at y0; the rows
    of alpha are stored as tuples."""

    Y: FiniteAlgebra
    K: FiniteAlgebra
    alpha: tuple[tuple[int, ...], ...]
    y0: int

    def __post_init__(self):
        object.__setattr__(self, "alpha", tuple(map(tuple, self.alpha)))
        if len(self.alpha) != self.Y.size:
            raise HypothesisViolation("one automorphism per element of Y required")


def _validate_heap_action(action: HeapAction):
    Y, K = action.Y, action.K
    if not is_heap(Y) or not is_heap(K):
        raise HypothesisViolation("both carriers must be heaps")
    if not in_carrier((action.y0,), Y.size):
        raise HypothesisViolation("the distinguished element must lie in Y")
    for y, row in enumerate(action.alpha):
        if len(row) != K.size or not in_carrier(row, K.size):
            raise HypothesisViolation(f"alpha[{y}] is not a table on K")
    for y, row in enumerate(action.alpha):
        if not is_automorphism(row, K):
            raise HypothesisViolation(f"alpha[{y}] is not a heap automorphism")
    if action.alpha[action.y0] != tuple(range(K.size)):
        raise HypothesisViolation("alpha at the distinguished element must be id")
    if not is_action(action.alpha, Y, "t", _bracket_of_maps):
        raise HypothesisViolation("alpha must be a heap morphism into Aut(K)")


@dataclass(frozen=True)
class HeapOuterResult:
    algebra: FiniteAlgebra
    action: HeapAction
    retractions: tuple[Homomorphism, ...]


def heap_outer(action: HeapAction, name: str = "outer_heap") -> HeapOuterResult:
    """Heap on K x Y with

        [(k1,y1),(k2,y2),(k3,y3)] = ([k1, a_w(k2), a_w(k3)], [y1,y2,y3])

    where w = [y1, y2, y0], assembled over Y with every fiber pointed at 0
    (the fiber maps fix every point) and encoded k*|Y| + y. The axioms are
    cross-checked (a failure contradicts the construction theorem); K x {y0}
    is asserted to be a normal subheap isomorphic to K and each (a, b) -> (k, b)
    an idempotent endomorphism with {k} x Y a subheap isomorphic to Y.
    """
    _validate_heap_action(action)
    Y, K = action.Y, action.K
    n = K.size * Y.size

    def enc(k, y):
        return k * Y.size + y

    maps = {}
    for y1, y2, y3 in iproduct(range(Y.size), repeat=3):
        row = action.alpha[heap_op(Y, y1, y2, action.y0)]
        maps[("t", (y1, y2, y3))] = tuple(
            heap_op(K, k1, row[k2], row[k3]) for k1, k2, k3 in iproduct(range(K.size), repeat=3)
        )
    family = PointedFamily.constant(Y, K.size, 0)
    X = fiber_major(assemble_union_algebra(family, ActionFamily.from_dict(maps), name))
    crosscheck(is_heap(X), "the outer product must be a heap")
    fiber = frozenset(enc(k, action.y0) for k in range(K.size))
    crosscheck(is_normal_subheap(X, fiber), "K x {y0} must be a normal subheap")
    fiber_alg, _ = subalgebra_as_algebra(X, fiber)
    crosscheck(find_isomorphism(fiber_alg, K) is not None, "the fiber must be a copy of K")
    retractions = []
    for k in range(K.size):
        mapping = tuple(enc(k, x % Y.size) for x in range(n))
        h = Homomorphism(X, X, mapping)
        crosscheck(h.is_idempotent, "each (a, b) -> (k, b) must be idempotent")
        retractions.append(h)
        section = frozenset(enc(k, y) for y in range(Y.size))
        section_alg, _ = subalgebra_as_algebra(X, section)
        crosscheck(find_isomorphism(section_alg, Y) is not None, "{k} x Y must be a copy of Y")
    return HeapOuterResult(X, action, tuple(retractions))


@dataclass(frozen=True)
class HeapDirectReport:
    a: bool  # Y is normal
    b: bool  # the canonical pairing X -> K x Y is an isomorphism
    c: bool  # [y,e,k] = [k,e,y] for all y, k
    d: bool  # an idempotent endomorphism has image K and fiber Y over e
    e: bool  # the action alpha is constantly the identity

    @property
    def holds(self) -> bool:
        return self.a


def heap_direct_criterion(
    X: FiniteAlgebra, omega: Partition, Y, e: int
) -> HeapDirectReport:
    """The five equivalent direct-product conditions for a decomposition.

    The canonical pairing sends a to (b, d) where a = [b, e, d] is the unique
    factorization with b in the block of e and d in Y.
    """
    Y = frozenset(Y)
    inner = heap_inner_report(X, Y, omega, e)
    if not inner.holds:
        raise DecompositionInvalid("X must decompose as omega x| Y")
    block = omega.block_of(e)
    pos_k = {x: i for i, x in enumerate(block)}
    pos_y = {x: i for i, x in enumerate(sorted(Y))}

    flag_a = is_normal_subheap(X, Y)

    block_alg, _ = subalgebra_as_algebra(X, block)
    sub_y, _ = subalgebra_as_algebra(X, Y)
    target = product(block_alg, sub_y)
    pairing = [-1] * X.size
    for a in range(X.size):
        found = [
            (b, d)
            for b in block
            for d in sorted(Y)
            if heap_op(X, b, e, d) == a
        ]
        crosscheck(len(found) == 1, "the [b,e,d] factorization must be unique")
        b, d = found[0]
        pairing[a] = pos_k[b] * len(Y) + pos_y[d]
    flag_b = len(set(pairing)) == X.size and is_homomorphism(tuple(pairing), X, target)

    flag_c = all(
        heap_op(X, y, e, k) == heap_op(X, k, e, y) for y in Y for k in block
    )

    flag_d = any(
        endo.image() == frozenset(block)
        and frozenset(x for x in range(X.size) if endo(x) == e) == Y
        for endo in idempotent_endomorphisms(X)
    )

    identity_row = tuple(range(len(block)))
    flag_e = all(row == identity_row for row in inner.action)

    report = HeapDirectReport(flag_a, flag_b, flag_c, flag_d, flag_e)
    crosscheck(len({flag_a, flag_b, flag_c, flag_d, flag_e}) == 1, "the five conditions must agree")
    return report


# -- near-trusses ------------------------------------------------------------


def is_near_truss(X: FiniteAlgebra, side: str) -> bool:
    if X.signature != TRUSS_SIG:
        raise SignatureMismatch("expected the near-truss signature t/3, m/2")
    if side not in ("left", "right"):
        raise SignatureMismatch("side must be 'left' or 'right'")
    name = "left_near_truss" if side == "left" else "right_near_truss"
    return check_identities(X, REGISTRY[name]).passes


def opposite_multiplication(X: FiniteAlgebra) -> FiniteAlgebra:
    """Transpose the binary table; swaps left and right distributivity."""
    n = X.size
    m = X.table("m")
    flipped = tuple(m[b * n + a] for a in range(n) for b in range(n))
    return FiniteAlgebra(f"{X.name}_op", TRUSS_SIG, n, (X.tables[0], flipped))


def truss_from_ring(R: FiniteAlgebra) -> FiniteAlgebra:
    """t(x,y,z) = x - y + z with the ring multiplication; two-sided."""
    n = R.size
    add, neg, mul = R.table("add"), R.table("neg"), R.table("mul")
    t = tuple(
        add[add[x * n + neg[y]] * n + z]
        for x in range(n)
        for y in range(n)
        for z in range(n)
    )
    return FiniteAlgebra(f"{R.name}_truss", TRUSS_SIG, n, (t, mul))


@dataclass(frozen=True)
class NearTrussReport:
    a: bool  # Y is a transversal of the omega-classes: inner (a)
    b: bool  # an idempotent endomorphism has image Y and kernel omega: inner (b)
    c: bool  # unique a = [d,c,b] with b omega c, d in Y
    d: bool  # y -> [y] is an isomorphism Y -> X/omega: inner (d)

    @property
    def holds(self) -> bool:
        return self.a


def near_truss_report(
    X: FiniteAlgebra, Y, omega: Partition, side: str = "left"
) -> NearTrussReport:
    """The four equivalent decomposition conditions for a near-truss."""
    if not is_near_truss(X, side):
        raise AxiomFailure(f"X is not a {side} near-truss")
    Y = frozenset(Y)
    if not is_subalgebra(X, Y):  # closed under both t and m
        raise NotASubheap("Y must be a nonempty sub-near-truss")
    if not is_congruence(X, omega):
        raise NotACongruence("omega must be a congruence of both operations")

    flag_a = is_transversal(Y, omega)
    flag_b = endo_witness(X, Y, omega)
    flag_c = _unique_brackets(X, Y, omega, swap=True)
    flag_d = canonical_iso_witness(X, Y, omega)

    report = NearTrussReport(flag_a, flag_b, flag_c, flag_d)
    crosscheck(len({flag_a, flag_b, flag_c, flag_d}) == 1, "the four conditions must agree")
    return report
