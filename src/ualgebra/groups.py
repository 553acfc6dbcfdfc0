"""Specialized semidirect-product machinery for groups and rings.

`group_semidirect` and `ring_semidirect` translate their action data into a
pointed family (N or K over every base element, pointed at its identity or
zero) and an action family, and build through `outer.assemble_union_algebra`
like every outer product. Products are published in the pair encoding
k*|B| + b, the pairing of `product(K, B)`, relabelled from the union's native
b*|K| + k. `group_inner_equivalences` flags d, e and f are the general inner
conditions (b), (c) and (d) on (Y, the coset partition of K).

Groups are a variety in GROUP_SIG, whose inverse and identity are
operations, so `is_subgroup` is `algebras.is_subalgebra`. The action law is
one `algebras.is_action` call; `group_data_from_inner` restricts G to the
cosets Kb with `outer.restrict_to_fibers`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from itertools import product as iproduct

from .algebras import (
    FiniteAlgebra,
    compose,
    is_action,
    is_automorphism,
    is_subalgebra,
    isomorphisms,
    subalgebra_as_algebra,
)
from .errors import (
    CompatibilityViolation,
    ConditionViolation,
    DecompositionInvalid,
    NotAnAction,
    NotAutomorphism,
    NotNormal,
    NotSubgroup,
    PointednessViolation,
    SignatureMismatch,
    crosscheck,
)
from .inner import (
    canonical_iso_witness,
    endo_witness,
    retraction_witness,
    unique_factorizations,
)
from .outer import (
    ActionFamily,
    PointedFamily,
    assemble_union_algebra,
    fiber_major,
    restrict_to_fibers,
)
from .partitions import Partition
from .varieties import GROUP_SIG, RING_SIG, REGISTRY, check_identities


def group_identity(G: FiniteAlgebra) -> int:
    return G.table("e")[0]


def group_mul(G: FiniteAlgebra, a: int, b: int) -> int:
    return G.table("m")[a * G.size + b]


def group_inv(G: FiniteAlgebra, a: int) -> int:
    return G.table("i")[a]


def _require_group(G: FiniteAlgebra):
    if G.signature != GROUP_SIG:
        raise SignatureMismatch("expected the group signature m/2, i/1, e/0")
    if not check_identities(G, REGISTRY["group"]).passes:
        raise SignatureMismatch(f"{G.name} fails the group identities")


def is_subgroup(G: FiniteAlgebra, S) -> bool:
    """A subalgebra in GROUP_SIG: closed under m and i, and holding e."""
    return is_subalgebra(G, S)


def is_normal_subgroup(G: FiniteAlgebra, S) -> bool:
    S = frozenset(S)
    return is_subgroup(G, S) and all(
        group_mul(G, group_mul(G, g, s), group_inv(G, g)) in S
        for g in range(G.size)
        for s in S
    )


def automorphism_group(G: FiniteAlgebra) -> list[tuple[int, ...]]:
    """All automorphisms of G in lexicographic order: the maps of
    `isomorphisms(G, G)`, which raises SizeLimitExceeded above CARRIER_CAP.
    Off GROUP_SIG it raises SignatureMismatch."""
    if G.signature != GROUP_SIG:
        raise SignatureMismatch("expected the group signature m/2, i/1, e/0")
    return list(isomorphisms(G, G))


def _require_phi_tables(N: FiniteAlgebra, B: FiniteAlgebra, phi) -> tuple[tuple[int, ...], ...]:
    """N and B are groups and phi holds one table on N per element of B;
    returns phi with its rows as tuples, the form the action test compares."""
    _require_group(N)
    _require_group(B)
    phi = tuple(map(tuple, phi))
    if len(phi) != B.size:
        raise NotAnAction("one automorphism per element of B required")
    for y, row in enumerate(phi):
        if len(row) != N.size or any(not 0 <= k < N.size for k in row):
            raise NotAutomorphism(f"phi[{y}] is not a table on N")
    return phi


def group_semidirect(N: FiniteAlgebra, B: FiniteAlgebra, phi) -> FiniteAlgebra:
    """The group on N x B with (k, y)(k', y') = (k phi_y(k'), y y').

    `phi[y]` must be an automorphism table of N and y -> phi_y a homomorphism
    from B into Aut(N). The tables of `group_data_from_action` are assembled
    over B and published in the pair encoding k*|B| + y; the result is
    verified against the group variety.
    """
    phi = _require_phi_tables(N, B, phi)
    for y in range(B.size):
        if not is_automorphism(phi[y], N):
            raise NotAutomorphism(f"phi[{y}] is not an automorphism of N")
    if not is_action(phi, B, "m", compose):
        raise NotAnAction("phi is not multiplicative")
    family, actions = group_data_to_family(_synthesize_group_data(N, B, phi))
    G = fiber_major(assemble_union_algebra(family, actions, f"{N.name}_sdp_{B.name}"))
    report = check_identities(G, REGISTRY["group"])
    crosscheck(report.passes, "a valid action must produce a group")
    return G


@dataclass(frozen=True)
class GroupInnerReport:
    a: bool  # G = KY and K n Y = 1
    b: bool  # unique g = ky factorization
    c: bool  # unique g = yk factorization
    d: bool  # idempotent endomorphism with kernel K and image Y: inner (b)
    e: bool  # retraction onto Y with kernel K: inner (c)
    f: bool  # y -> yK is an isomorphism Y -> G/K: inner (d)

    @property
    def holds(self) -> bool:
        return self.a


def group_inner_equivalences(G: FiniteAlgebra, K, Y) -> GroupInnerReport:
    """Evaluate the six classical split-extension conditions independently."""
    _require_group(G)
    K, Y = frozenset(K), frozenset(Y)
    if not is_normal_subgroup(G, K):
        raise NotNormal("K must be a normal subgroup")
    if not is_subgroup(G, Y):
        raise NotSubgroup("Y must be a subgroup")
    one = group_identity(G)

    mul = partial(group_mul, G)
    products = {mul(k, y) for k in K for y in Y}
    flag_a = products == set(G.elements) and K & Y == {one}
    flag_b = unique_factorizations(G.size, K, Y, mul)
    flag_c = unique_factorizations(G.size, Y, K, mul)

    # for an endomorphism e, kernel(e) is the coset partition of e^-1(1), so
    # kernel(e) = the cosets of K exactly when e^-1(1) = K
    coset = Partition.from_pairs(G.size, [(g, mul(g, k)) for g in G.elements for k in K])
    flag_d = endo_witness(G, Y, coset)
    flag_e = retraction_witness(G, Y, coset)
    flag_f = canonical_iso_witness(G, Y, coset)

    report = GroupInnerReport(flag_a, flag_b, flag_c, flag_d, flag_e, flag_f)
    crosscheck(
        len({flag_a, flag_b, flag_c, flag_d, flag_e, flag_f}) == 1, "the six conditions must agree"
    )
    return report


def conjugation_action(G: FiniteAlgebra, K, Y) -> tuple[tuple[int, ...], ...]:
    """phi_y(k) = y k y^-1 restricted to K, re-indexed to sorted members.

    The result is indexed like the relabeled subalgebras: entry j is the
    action of the j-th smallest element of Y on K's sorted carrier.
    """
    members = sorted(frozenset(K))
    pos = {k: i for i, k in enumerate(members)}
    return tuple(
        tuple(
            pos[group_mul(G, group_mul(G, y, members[i]), group_inv(G, y))]
            for i in range(len(members))
        )
        for y in sorted(frozenset(Y))
    )


@dataclass(frozen=True)
class GroupSDPData:
    """Pointed tables describing one group structure on N x B.

    g[(b1, b2)] is a flat |N|x|N| table, h[b] a unary table, both pointed at
    N's identity.
    """

    N: FiniteAlgebra
    B: FiniteAlgebra
    g: tuple[tuple[tuple[int, int], tuple[int, ...]], ...]
    h: tuple[tuple[int, ...], ...]

    @cached_property
    def _g_lookup(self) -> dict:
        return dict(self.g)

    def g_table(self, b1: int, b2: int) -> tuple[int, ...]:
        return self._g_lookup[(b1, b2)]

    def __post_init__(self):
        one = group_identity(self.N)
        for _, table in self.g:
            if table[one * self.N.size + one] != one:
                raise PointednessViolation("g must send (1,1) to 1")
        for table in self.h:
            if table[one] != one:
                raise PointednessViolation("h must fix 1")

    @classmethod
    def build(cls, N, B, g_dict, h_list) -> "GroupSDPData":
        return cls(N, B, tuple(sorted(g_dict.items())), tuple(h_list))


def _check_51_conditions(data: GroupSDPData):
    """The three group axioms on the union, as conditions on the tables.

    Condition (1) binds the four g tables of a base triple once, in the
    order the comparison first reads them, and indexes them inline."""
    N, B = data.N, data.B
    k = N.size
    one_n, one_b = group_identity(N), group_identity(B)
    g = data._g_lookup

    def gv(b1, b2, n1, n2):
        return g[(b1, b2)][n1 * k + n2]

    for b1, b2, b3 in iproduct(range(B.size), repeat=3):
        b12 = group_mul(B, b1, b2)
        b23 = group_mul(B, b2, b3)
        g1_2, g12_3, g2_3, g1_23 = g[(b1, b2)], g[(b12, b3)], g[(b2, b3)], g[(b1, b23)]
        for n1, n2, n3 in iproduct(range(k), repeat=3):
            if g12_3[g1_2[n1 * k + n2] * k + n3] != g1_23[n1 * k + g2_3[n2 * k + n3]]:
                raise ConditionViolation(
                    "associativity condition (1) fails",
                    condition="1",
                    witness=(b1, b2, b3, n1, n2, n3),
                )
    for b in range(B.size):
        for n in range(N.size):
            if gv(one_b, b, one_n, n) != n:
                raise ConditionViolation(
                    "left identity condition (2) fails", condition="2", witness=(b, n)
                )
    for b in range(B.size):
        binv = group_inv(B, b)
        for n in range(N.size):
            if gv(binv, b, data.h[b][n], n) != one_n:
                raise ConditionViolation(
                    "left inverse condition (3) fails", condition="3", witness=(b, n)
                )


def _synthesize_group_data(N: FiniteAlgebra, B: FiniteAlgebra, phi) -> GroupSDPData:
    """g_(b1,b2)(n1,n2) = n1 gamma_b1(n2) and h_b(n) = gamma_{b^-1}(n^-1)."""
    g = {}
    for b1 in range(B.size):
        for b2 in range(B.size):
            g[(b1, b2)] = tuple(
                group_mul(N, n1, phi[b1][n2])
                for n1 in range(N.size)
                for n2 in range(N.size)
            )
    h = []
    for b in range(B.size):
        binv = group_inv(B, b)
        h.append(tuple(phi[binv][group_inv(N, n)] for n in range(N.size)))
    return GroupSDPData.build(N, B, g, h)


def group_data_from_action(N: FiniteAlgebra, B: FiniteAlgebra, phi) -> GroupSDPData:
    """Synthesize the tables from an action, then verify conditions (1)-(3).

    Missing or malformed tables raise NotAnAction or NotAutomorphism, as in
    `group_semidirect`; well-shaped tables that are no action fail a condition."""
    phi = _require_phi_tables(N, B, phi)
    data = _synthesize_group_data(N, B, phi)
    _check_51_conditions(data)
    return data


def group_action_from_data(data: GroupSDPData) -> dict[int, tuple[int, ...]]:
    """Extract gamma_b = g_(b,1)(1,-) and verify it is an action by
    automorphisms satisfying conditions (1)-(3)."""
    N, B = data.N, data.B
    one_n, one_b = group_identity(N), group_identity(B)
    gamma = {}
    for b in range(B.size):
        table = data.g_table(b, one_b)
        gamma[b] = tuple(table[one_n * N.size + n] for n in range(N.size))
    for b, table in gamma.items():
        if not is_automorphism(table, N):
            raise NotAutomorphism(f"gamma[{b}] is not an automorphism of N")
    if not is_action(gamma, B, "m", compose):
        raise NotAnAction("gamma is not multiplicative")
    _check_51_conditions(data)
    return gamma


def group_data_to_family(data: GroupSDPData):
    """Re-express the data as a pointed family and action family over B."""
    N, B = data.N, data.B
    one_n = group_identity(N)
    family = PointedFamily.constant(B, N.size, one_n)
    maps = {}
    for (b1, b2), table in data.g:
        maps[("m", (b1, b2))] = table
    for b in range(B.size):
        maps[("i", (b,))] = data.h[b]
    maps[("e", ())] = (one_n,)
    return family, ActionFamily.from_dict(maps)


def group_data_from_inner(G: FiniteAlgebra, K, Y) -> GroupSDPData:
    """Tables of an inner decomposition, transported along n -> nb:
    g(n1,n2) = (n1 b1)(n2 b2)(b1 b2)^-1 and h_b(n) = (n b)^-1 b."""
    _require_group(G)
    report = group_inner_equivalences(G, K, Y)
    if not report.holds:
        raise DecompositionInvalid("K and Y do not decompose G")
    N, members_k = subalgebra_as_algebra(G, frozenset(K), name=f"{G.name}_K")
    B, members_y = subalgebra_as_algebra(G, frozenset(Y), name=f"{G.name}_Y")
    # the coset Kb is the fiber over b, and nb sits at n's position in it
    cosets = [[group_mul(G, n, b) for n in members_k] for b in members_y]
    _, actions, _ = restrict_to_fibers(G, B, cosets, members_y)
    maps = actions.as_dict()
    g = {bs: table for (sym, bs), table in maps.items() if sym == "m"}
    h = [maps[("i", (b,))] for b in range(B.size)]
    return GroupSDPData.build(N, B, g, h)


@dataclass(frozen=True)
class RingActionPair:
    """Two compatible one-sided actions of S on K, as unary tables per s,
    stored as tuples whatever sequences they are given as."""

    K: FiniteAlgebra
    S: FiniteAlgebra
    lam: tuple[tuple[int, ...], ...]
    rho: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "lam", tuple(map(tuple, self.lam)))
        object.__setattr__(self, "rho", tuple(map(tuple, self.rho)))


def _require_ring(R: FiniteAlgebra):
    if R.signature != RING_SIG:
        raise SignatureMismatch("expected the ring signature add/2, neg/1, zero/0, mul/2")
    if not check_identities(R, REGISTRY["ring"]).passes:
        raise SignatureMismatch(f"{R.name} fails the ring identities")


def _check_ring_pair(pair: RingActionPair):
    K, S = pair.K, pair.S
    lam, rho = pair.lam, pair.rho
    kadd = K.table("add")
    kmul = K.table("mul")
    sadd = S.table("add")
    smul = S.table("mul")

    def fail(name: str, witness):
        raise CompatibilityViolation(f"ring action condition {name} fails", name, witness)

    for s in range(S.size):
        for x, y in iproduct(range(K.size), repeat=2):
            if lam[s][kadd[x * K.size + y]] != kadd[lam[s][x] * K.size + lam[s][y]]:
                fail("lambda additive in K", (s, x, y))
            if rho[s][kadd[x * K.size + y]] != kadd[rho[s][x] * K.size + rho[s][y]]:
                fail("rho additive in K", (s, x, y))
            if lam[s][kmul[x * K.size + y]] != kmul[lam[s][x] * K.size + y]:
                fail("lambda right K-linear", (s, x, y))
            if rho[s][kmul[x * K.size + y]] != kmul[x * K.size + rho[s][y]]:
                fail("rho left K-linear", (s, x, y))
            if kmul[rho[s][x] * K.size + y] != kmul[x * K.size + lam[s][y]]:
                fail("rho(s)(x)y = x lambda(s)(y)", (s, x, y))
    for s, t in iproduct(range(S.size), repeat=2):
        st_add = sadd[s * S.size + t]
        st_mul = smul[s * S.size + t]
        for x in range(K.size):
            if lam[st_add][x] != kadd[lam[s][x] * K.size + lam[t][x]]:
                fail("lambda additive in S", (s, t, x))
            if rho[st_add][x] != kadd[rho[s][x] * K.size + rho[t][x]]:
                fail("rho additive in S", (s, t, x))
            if lam[st_mul][x] != lam[s][lam[t][x]]:
                fail("lambda multiplicative", (s, t, x))
            if rho[st_mul][x] != rho[t][rho[s][x]]:
                fail("rho antimultiplicative", (s, t, x))
            if lam[s][rho[t][x]] != rho[t][lam[s][x]]:
                fail("lambda and rho commute", (s, t, x))


def ring_semidirect(pair: RingActionPair) -> FiniteAlgebra:
    """Ring on K x S: componentwise addition and the twisted multiplication
    (k,s)(k',s') = (kk' + lambda_s(k') + rho_s'(k), ss').

    All compatibility conditions are verified before construction. Over S,
    add/neg/zero act by K's own tables and mul by the twisted formula; the
    assembled ring is published in the pair encoding k*|S| + s and checked
    against the ring identities (associativity included).
    """
    _require_ring(pair.K)
    _require_ring(pair.S)
    K, S = pair.K, pair.S
    if len(pair.lam) != S.size or len(pair.rho) != S.size:
        raise CompatibilityViolation("one table per element of S required", "shape", None)
    for row in pair.lam + pair.rho:
        if len(row) != K.size or any(not 0 <= k < K.size for k in row):
            raise CompatibilityViolation("every action table must map K to K", "shape", None)
    _check_ring_pair(pair)
    kadd, kmul = K.table("add"), K.table("mul")
    maps = {("zero", ()): K.table("zero")}
    for s1 in range(S.size):
        maps[("neg", (s1,))] = K.table("neg")
        for s2 in range(S.size):
            maps[("add", (s1, s2))] = kadd
            maps[("mul", (s1, s2))] = tuple(
                kadd[kadd[kmul[k1 * K.size + k2] * K.size + pair.lam[s1][k2]] * K.size
                + pair.rho[s2][k1]]
                for k1 in range(K.size)
                for k2 in range(K.size)
            )
    family = PointedFamily.constant(S, K.size, K.table("zero")[0])
    outer = assemble_union_algebra(family, ActionFamily.from_dict(maps), f"{K.name}_rsdp_{S.name}")
    R = fiber_major(outer)
    report = check_identities(R, REGISTRY["ring"])
    crosscheck(report.passes, "compatible actions must produce a ring")
    return R
