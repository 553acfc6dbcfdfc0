"""Digroups (one carrier, two group structures, one identity) and left skew
braces: inner/outer semidirect products, action extraction, brace predicates,
ideals, commutators, center, and the brace reflection of a digroup.

`_digroup_data` translates an action triple into a family (K over every y,
marked at K's unit) and the star, circ and inverse action tables.
It validates the triple first and is memoized per triple, so the calls on
one triple (`digroup_outer`, `digroup_direct_criterion`,
`skew_brace_outer_condition`) check and translate it once.
`digroup_outer` fills them with `outer.union_algebra`, the assembly behind
`outer.assemble_union_algebra`, in the union's encoding y*|K| + k, unchecked
for pointedness: a Lambda that moves K's unit leaves the family unpointed,
and its tables still define a digroup on Y x K. `digroup_direct_criterion`
asks `outer.direct_product_check` of the same family and tables.
`digroup_inner_report` condition c7 is the general inner condition (b) on
(B, ideal_partition(D, I)).

Subdigroups are the subalgebras in DIGROUP_SIG, whose inverses and identity
are operations: `is_subdigroup` and `sub_digroup` go through `algebras`, and
`all_ideals` filters `all_subalgebras` with `is_ideal`. Ideals are the
identity classes of congruences, so `brace_ideal_generated` reads one off
`congruence_generated`. Each action law is one `algebras.is_action` call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product as iproduct

from .algebras import (
    FiniteAlgebra,
    all_subalgebras,
    compose,
    inverse_permutation,
    is_action,
    is_automorphism,
    is_homomorphism,
    is_subalgebra,
    isomorphisms,
    perms_fixing_zero,
    quotient,
    relabel_table,
    subalgebra_as_algebra,
)
from .catalog import all_group_tables, group_algebra_from_table, groups_up_to_8
from .congruences import congruence_generated, is_congruence
from .errors import (
    AxiomFailure,
    DecompositionInvalid,
    HypothesisViolation,
    NotIdeal,
    NotSubdigroup,
    SignatureMismatch,
    crosscheck,
    in_carrier,
)
from .inner import endo_witness, unique_factorizations
from .outer import ActionFamily, PointedFamily, direct_product_check, union_algebra
from .partitions import Partition
from .varieties import DIGROUP_SIG, GROUP_SIG, REGISTRY, VarietySpec, check_identities, satisfies


@dataclass(frozen=True)
class Digroup:
    """Wrapper around an algebra in the two-group signature."""

    algebra: FiniteAlgebra

    def __post_init__(self):
        if self.algebra.signature != DIGROUP_SIG:
            raise SignatureMismatch("expected star/2, star_inv/1, circ/2, circ_inv/1, one/0")

    @property
    def n(self) -> int:
        return self.algebra.size

    @property
    def one(self) -> int:
        return self.algebra.table("one")[0]

    def star(self, a: int, b: int) -> int:
        return self.algebra.tables[0][a * self.n + b]

    def sinv(self, a: int) -> int:
        return self.algebra.tables[1][a]

    def circ(self, a: int, b: int) -> int:
        return self.algebra.tables[2][a * self.n + b]

    def cinv(self, a: int) -> int:
        return self.algebra.tables[3][a]

    def lam(self, a: int, b: int) -> int:
        """a^-* * (a o b), the pointed-permutation family of the carrier."""
        return self.star(self.sinv(a), self.circ(a, b))

    def validate(self) -> "Digroup":
        report = check_identities(self.algebra, REGISTRY["digroup"])
        if not report.passes:
            raise AxiomFailure(f"digroup axioms fail: {report.witness.identity}")
        return self


def digroup_from_tables(star, circ, name: str = "digroup") -> Digroup:
    """Build a digroup from two multiplication tables sharing an identity,
    each read by `catalog.group_algebra_from_table`, and validate it."""
    S = group_algebra_from_table(star, "star")
    C = group_algebra_from_table(circ, "circ")
    return _join(S, C, name).validate()


def _join(S: FiniteAlgebra, C: FiniteAlgebra, name: str) -> Digroup:
    """The digroup of a star group S and a circ group C, unvalidated."""
    if S.tables[2] != C.tables[2]:
        raise AxiomFailure("the two tables must share a unique identity")
    return Digroup(FiniteAlgebra(name, DIGROUP_SIG, S.size, S.tables[:2] + C.tables))


def trivial_digroup(G: FiniteAlgebra, name: str | None = None) -> Digroup:
    """Both structures equal to a given group (signature m/2, i/1, e/0)."""
    mul = G.table("m")
    return digroup_from_tables(mul, mul, name or f"{G.name}_dg")


def star_reduct(D: Digroup) -> FiniteAlgebra:
    tables = D.algebra.tables
    return FiniteAlgebra(f"{D.algebra.name}_star", GROUP_SIG, D.n, tables[:2] + tables[4:])


def circ_reduct(D: Digroup) -> FiniteAlgebra:
    return FiniteAlgebra(f"{D.algebra.name}_circ", GROUP_SIG, D.n, D.algebra.tables[2:])


def is_subdigroup(D: Digroup, S) -> bool:
    """A subalgebra in DIGROUP_SIG: closed under both products and both
    inverses, and holding the shared identity."""
    return is_subalgebra(D.algebra, S)


def is_ideal(D: Digroup, I) -> bool:
    """Normal in both reducts with matching cosets a*I = a o I.

    The coset condition is also re-checked through lambda-invariance; the two
    characterizations are asserted to agree.
    """
    I = frozenset(I)
    if not is_subdigroup(D, I):
        return False
    for g in range(D.n):
        for s in I:
            if D.star(D.star(g, s), D.sinv(g)) not in I:
                return False
            if D.circ(D.circ(g, s), D.cinv(g)) not in I:
                return False
    cosets_match = all(
        {D.star(a, i) for i in I} == {D.circ(a, i) for i in I} for a in range(D.n)
    )
    lam_invariant = all(D.lam(a, i) in I for a in range(D.n) for i in I)
    crosscheck(cosets_match == lam_invariant, "coset equality must match lambda-invariance")
    return cosets_match


def all_ideals(D: Digroup) -> list[frozenset[int]]:
    """The subdigroups that are ideals, in `all_subalgebras` order."""
    return [I for I in all_subalgebras(D.algebra) if is_ideal(D, I)]


def ideal_partition(D: Digroup, I) -> Partition:
    """a ~ b iff a * b^-* lies in I (equivalently a o b^-o does)."""
    I = frozenset(I)
    star_rel = Partition.from_pairs(
        D.n, [(a, b) for a in range(D.n) for b in range(D.n) if D.star(a, D.sinv(b)) in I]
    )
    circ_rel = Partition.from_pairs(
        D.n, [(a, b) for a in range(D.n) for b in range(D.n) if D.circ(a, D.cinv(b)) in I]
    )
    crosscheck(star_rel == circ_rel, "both difference relations must agree on an ideal")
    return star_rel


@dataclass(frozen=True)
class DigroupInnerReport:
    """Status of the seven equivalent decomposition conditions plus the
    element-wise factorization formulas."""

    conditions: tuple[bool, bool, bool, bool, bool, bool, bool]
    factorization_formulas: bool | None

    @property
    def holds(self) -> bool:
        return self.conditions[0]


def digroup_inner_report(D: Digroup, B, I) -> DigroupInnerReport:
    """Evaluate the seven split conditions independently and, when they hold,
    verify that the four factorizations of every element are linked by the
    conjugation and lambda formulas."""
    B, I = frozenset(B), frozenset(I)
    if not is_subdigroup(D, B):
        raise NotSubdigroup("B must be a subdigroup")
    if not is_ideal(D, I):
        raise NotIdeal("I must be an ideal")

    circ_set = {D.circ(b, i) for b in B for i in I}
    star_set = {D.star(b, i) for b in B for i in I}
    trivial_meet = B & I == {D.one}
    c1 = circ_set == set(range(D.n)) and trivial_meet
    c2 = unique_factorizations(D.n, B, I, D.circ)
    c3 = unique_factorizations(D.n, I, B, D.circ)
    c4 = star_set == set(range(D.n)) and trivial_meet
    c5 = unique_factorizations(D.n, B, I, D.star)
    c6 = unique_factorizations(D.n, I, B, D.star)
    # kernel(e) is the ideal partition of e^-1(1), so it equals the ideal
    # partition of I exactly when e^-1(1) = I
    c7 = endo_witness(D.algebra, B, ideal_partition(D, I))
    conditions = (c1, c2, c3, c4, c5, c6, c7)
    crosscheck(len(set(conditions)) == 1, "the seven conditions must agree")
    formulas = None
    if c1:
        formulas = True
        for a in range(D.n):
            b = next(x for x in B if any(D.circ(x, i) == a for i in I))
            i1 = next(i for i in I if D.circ(b, i) == a)
            i2 = next(i for i in I if D.circ(i, b) == a)
            i3 = next(i for i in I if D.star(b, i) == a)
            i4 = next(i for i in I if D.star(i, b) == a)
            # i2 = phi_ob^-1(i1) = b o i1 o b^-o
            if i2 != D.circ(D.circ(b, i1), D.cinv(b)):
                formulas = False
            # i3 = lambda_b(i1)
            if i3 != D.lam(b, i1):
                formulas = False
            # i4 = phi_*b^-1(lambda_b(i1)) = b * lambda_b(i1) * b^-*
            if i4 != D.star(D.star(b, D.lam(b, i1)), D.sinv(b)):
                formulas = False
        crosscheck(formulas, "factorization formulas must hold on a decomposition")
    return DigroupInnerReport(conditions, formulas)


@dataclass(frozen=True)
class DigroupActionTriple:
    """Action data for the outer construction on Y x K.

    phi_star[y] must be an automorphism table of (K, *), phi_circ[y] one of
    (K, o), with both families antimultiplicative; Lambda is any family of
    permutations of K with Lambda[1_Y] the identity. Rows are stored as tuples,
    each a table on K, else HypothesisViolation here: `_digroup_data` is
    memoized on the triple, where a row holding 1.0 would find 1's entry."""

    Y: Digroup
    K: Digroup
    phi_star: tuple[tuple[int, ...], ...]
    phi_circ: tuple[tuple[int, ...], ...]
    Lambda: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for field in ("phi_star", "phi_circ", "Lambda"):
            object.__setattr__(self, field, tuple(map(tuple, getattr(self, field))))
            for y, row in enumerate(getattr(self, field)):
                if len(row) != self.K.n or not in_carrier(row, self.K.n):
                    raise HypothesisViolation(f"{field}[{y}] is not a table on K")

    def lambda_fixes_unit(self) -> bool:
        return all(self.Lambda[y][self.K.one] == self.K.one for y in range(self.Y.n))


def _check_antihom(maps, Y: FiniteAlgebra, symbol: str, K_alg: FiniteAlgebra, what: str):
    for y, table in enumerate(maps):
        if not is_automorphism(table, K_alg):
            raise HypothesisViolation(f"{what}[{y}] is not an automorphism")
    # antimultiplicative: the row of y1 y2 is maps[y2] after maps[y1]
    if not is_action(maps, Y, symbol, lambda f, g: compose(g, f)):
        raise HypothesisViolation(f"{what} is not antimultiplicative")


def _validate_triple(t: DigroupActionTriple):
    if len(t.phi_star) != t.Y.n or len(t.phi_circ) != t.Y.n or len(t.Lambda) != t.Y.n:
        raise HypothesisViolation("one table per element of Y required")
    _check_antihom(t.phi_star, t.Y.algebra, "star", star_reduct(t.K), "phi_star")
    _check_antihom(t.phi_circ, t.Y.algebra, "circ", circ_reduct(t.K), "phi_circ")
    for y, table in enumerate(t.Lambda):
        if len(set(table)) != t.K.n:
            raise HypothesisViolation(f"Lambda[{y}] is not a permutation")
    if t.Lambda[t.Y.one] != tuple(range(t.K.n)):
        raise HypothesisViolation("Lambda at the identity of Y must be id")


# Checked triples kept, least recently used dropped first: a job asks for the
# outer digroup and then for the direct-product criterion of one triple.
TRIPLE_CACHE_SIZE = 16


@lru_cache(maxsize=TRIPLE_CACHE_SIZE)
def _digroup_data(triple: DigroupActionTriple) -> tuple[PointedFamily, ActionFamily]:
    """The family of the outer digroup, K over every y marked at K's unit,
    and its star, circ and inverse action tables (formulas at
    `digroup_outer`), of a triple that `_validate_triple` passes first.
    Errors are not memoized, so a malformed triple raises on every call."""
    _validate_triple(triple)
    Y, K = triple.Y, triple.K
    lam, phi_s, phi_c = triple.Lambda, triple.phi_star, triple.phi_circ
    lam_inv = [inverse_permutation(p) for p in lam]
    pairs = list(iproduct(range(K.n), repeat=2))
    maps = {("one", ()): (K.one,)}
    for y1 in range(Y.n):
        # the star inverse of (y,k) is (y^-*, Lam_{y^-*}^-1(phi_{* y^-*}((Lam_y k)^-*)))
        ys, yc = Y.sinv(y1), Y.cinv(y1)
        maps[("star_inv", (y1,))] = tuple(
            lam_inv[ys][phi_s[ys][K.sinv(lam[y1][k])]] for k in range(K.n)
        )
        # the circ inverse of (y,k) is (y^-o, phi_{o y^-o}(k^-o))
        maps[("circ_inv", (y1,))] = tuple(phi_c[yc][K.cinv(k)] for k in range(K.n))
        for y2 in range(Y.n):
            yy = Y.star(y1, y2)
            maps[("star", (y1, y2))] = tuple(
                lam_inv[yy][K.star(phi_s[y2][lam[y1][k1]], lam[y2][k2])] for k1, k2 in pairs
            )
            maps[("circ", (y1, y2))] = tuple(K.circ(phi_c[y2][k1], k2) for k1, k2 in pairs)
    return PointedFamily.constant(Y.algebra, K.n, K.one), ActionFamily.from_dict(maps)


def digroup_outer(triple: DigroupActionTriple, name: str = "outer_digroup") -> Digroup:
    """The digroup on Y x K with

        (y,k) + (y',k') = (y * y', Lam_{y*y'}^-1(phi_*y'(Lam_y(k)) * Lam_y'(k')))
        (y,k) o (y',k') = (y o y', phi_oy'(k) o k')

    encoded y*|K| + k, which is the union's own encoding over Y. Hypotheses
    are validated up front; the fibers are marked at K's unit, the inverse
    tables come from the inverse formulas, and the construction is then
    cross-checked against the digroup axioms (a failure would contradict the
    construction theorem, so it raises InternalInconsistency).
    """
    data = _digroup_data(triple)
    # not `assemble_union_algebra`: pointedness is no digroup hypothesis, and a
    # Lambda that moves K's unit breaks the section y -> (y, 1)
    D = Digroup(union_algebra(*data, name))
    crosscheck(satisfies(D.algebra, REGISTRY["digroup"]), "the outer product must be a digroup")
    # the tables' own check of the unit (1_Y, 1_K): two-sided for star and circ
    e = D.one
    crosscheck(
        all(D.star(x, e) == D.star(e, x) == x == D.circ(x, e) == D.circ(e, x) for x in range(D.n)),
        "(1_Y, 1_K) must be a two-sided unit of both products",
    )
    # the first two pair identities hold unconditionally
    flags = pair_identities(triple, D)
    crosscheck(flags[:2] == (True, True), "the first two pair identities must hold")
    crosscheck(all(flags) or not triple.lambda_fixes_unit(), "all four pair identities must hold")
    return D


def pair_identities(triple: DigroupActionTriple, D: Digroup) -> tuple[bool, bool, bool, bool]:
    """Status of the four mixed-pair identities on a built outer digroup."""
    Y, K = triple.Y, triple.K
    lam_inv = [inverse_permutation(p) for p in triple.Lambda]

    def enc(y, k):
        return y * K.n + k

    flags = [True, True, True, True]
    for y in range(Y.n):
        for k in range(K.n):
            if D.circ(enc(y, K.one), enc(Y.one, k)) != enc(y, k):
                flags[0] = False
            if D.circ(enc(Y.one, k), enc(y, K.one)) != enc(y, triple.phi_circ[y][k]):
                flags[1] = False
            if D.star(enc(y, K.one), enc(Y.one, k)) != enc(y, lam_inv[y][k]):
                flags[2] = False
            if D.star(enc(Y.one, k), enc(y, K.one)) != enc(y, lam_inv[y][triple.phi_star[y][k]]):
                flags[3] = False
    return tuple(flags)


def sub_digroup(D: Digroup, S, name: str | None = None) -> tuple[Digroup, tuple[int, ...]]:
    """Relabel a subdigroup on {0..k-1}; returns (digroup, sorted members)."""
    sub, members = subalgebra_as_algebra(D.algebra, S, name)
    return Digroup(sub).validate(), members


def digroup_extract_actions(D: Digroup, Y, K):
    """Recover (phi_star, phi_circ, Lambda) from an inner decomposition and
    rebuild: the map (y,k) -> y o k must be an isomorphism onto D.

    The rebuild itself checks the recovered tables against the pair-product
    form (all four pair identities, since a recovered Lambda fixes the unit:
    lambda_y(1) = y^-* * y = 1) and the inverse tables against the axioms.
    """
    Y, K = frozenset(Y), frozenset(K)
    report = digroup_inner_report(D, Y, K)
    if not report.holds:
        raise DecompositionInvalid("Y and K do not decompose D")
    Ydg, members_y = sub_digroup(D, Y, name="Y")
    Kdg, members_k = sub_digroup(D, K, name="K")
    pos_k = {x: i for i, x in enumerate(members_k)}
    phi_star = tuple(
        tuple(pos_k[D.star(D.star(D.sinv(y), members_k[i]), y)] for i in range(Kdg.n))
        for y in members_y
    )
    phi_circ = tuple(
        tuple(pos_k[D.circ(D.circ(D.cinv(y), members_k[i]), y)] for i in range(Kdg.n))
        for y in members_y
    )
    Lambda = tuple(
        tuple(pos_k[D.lam(y, members_k[i])] for i in range(Kdg.n)) for y in members_y
    )
    triple = DigroupActionTriple(Ydg, Kdg, phi_star, phi_circ, Lambda)
    rebuilt = digroup_outer(triple, name=f"{D.algebra.name}_rebuilt")
    alpha = tuple(
        D.circ(members_y[x // Kdg.n], members_k[x % Kdg.n]) for x in range(rebuilt.n)
    )
    crosscheck(len(set(alpha)) == D.n, "(y,k) -> y o k must be a bijection")
    crosscheck(
        is_homomorphism(alpha, rebuilt.algebra, D.algebra),
        "(y,k) -> y o k must be a digroup isomorphism",
    )
    return triple, alpha


def trivial_triple(Y: Digroup, K: Digroup) -> DigroupActionTriple:
    ident = (tuple(range(K.n)),) * Y.n
    return DigroupActionTriple(Y, K, ident, ident, ident)


def digroup_direct_criterion(triple: DigroupActionTriple) -> bool:
    """Is the outer digroup Y x K: is every action table of `_digroup_data`
    K's own, by `outer.direct_product_check`? That needs a Lambda fixing K's
    unit, so that the family is pointed; any other Lambda is a
    HypothesisViolation. Equal tables then force phi_star = Lambda, so
    Lambda = id and phi_circ = id: the answer is cross-checked against all
    three families being constantly the identity of K.
    """
    data = _digroup_data(triple)  # a malformed triple fails here, not in the unit test
    if not triple.lambda_fixes_unit():
        raise HypothesisViolation("the direct-product criterion needs Lambda to fix K's unit")
    direct = direct_product_check(*data, triple.K.algebra)
    crosscheck(
        direct == (triple == trivial_triple(triple.Y, triple.K)),
        "the action tables must be K's own exactly when all three families are the identity",
    )
    return direct


# -- left skew braces --------------------------------------------------------


@dataclass(frozen=True)
class SkewBraceReport:
    lsb: bool
    lambda_morphism: bool
    witness: tuple[int, int, int] | None


# a o (b*c) = (a o b) * a^-* * (a o c), alone: its witness is the first (a, b, c)
_LSB_ONLY = VarietySpec("lsb", DIGROUP_SIG, REGISTRY["skew_brace"].quasi_conditions)


def skew_brace_check(D: Digroup) -> SkewBraceReport:
    """Evaluate a o (b*c) = (a o b) * a^-* * (a o c) exhaustively, and
    independently test whether a -> lambda_a is a homomorphism of (A, o)
    into Aut(A, *); the two verdicts are asserted equal."""
    report = check_identities(D.algebra, _LSB_ONLY)
    lsb = report.passes
    witness = None if lsb else report.witness.assignment
    star_alg = star_reduct(D)
    lam_tables = [tuple(D.lam(a, b) for b in range(D.n)) for a in range(D.n)]
    morph = all(is_automorphism(t, star_alg) for t in lam_tables) and is_action(
        lam_tables, D.algebra, "circ", compose
    )
    crosscheck(lsb == morph, "the identity must match the lambda-morphism test")
    return SkewBraceReport(lsb, morph, witness)


def skew_brace_outer_condition(triple: DigroupActionTriple) -> bool:
    """Is the outer product of two left skew braces again a left skew brace?

    Requires Lambda to be a homomorphism (Y, o) -> Aut(K, *) on top of the
    digroup hypotheses. The six-variable compatibility equation is evaluated
    exhaustively; agreement with the direct identity check on the built
    product is asserted.
    """
    Y, K = triple.Y, triple.K
    if not skew_brace_check(Y).lsb or not skew_brace_check(K).lsb:
        raise HypothesisViolation("Y and K must be left skew braces")
    _digroup_data(triple)  # validates the triple; digroup_outer below reads the memo
    star_k = star_reduct(K)
    for y, table in enumerate(triple.Lambda):
        if not is_automorphism(table, star_k):
            raise HypothesisViolation(f"Lambda[{y}] must respect the star structure")
    if not is_action(triple.Lambda, Y.algebra, "circ", compose):
        raise HypothesisViolation("Lambda must be multiplicative over (Y, o)")
    lam_inv = [inverse_permutation(p) for p in triple.Lambda]

    def lam_y(y, ypp):  # y^-* * (y o y'') inside Y
        return Y.star(Y.sinv(y), Y.circ(y, ypp))

    ok = True
    for y, yp, ypp in iproduct(range(Y.n), repeat=3):
        yp_ypp = Y.star(yp, ypp)
        y_circ_all = Y.circ(y, yp_ypp)
        for k, kp, kpp in iproduct(range(K.n), repeat=3):
            lhs = K.circ(
                triple.phi_circ[yp_ypp][k],
                lam_inv[yp_ypp][
                    K.star(triple.phi_star[ypp][triple.Lambda[yp][kp]], triple.Lambda[ypp][kpp])
                ],
            )
            inner = K.star(
                triple.Lambda[Y.circ(y, yp)][K.circ(triple.phi_circ[yp][k], kp)],
                K.sinv(triple.Lambda[y][k]),
            )
            rhs = lam_inv[y_circ_all][
                K.star(
                    triple.phi_star[lam_y(y, ypp)][inner],
                    triple.Lambda[Y.circ(y, ypp)][K.circ(triple.phi_circ[ypp][k], kpp)],
                )
            ]
            if lhs != rhs:
                ok = False
                break
        if not ok:
            break
    built = digroup_outer(triple)
    crosscheck(
        ok == skew_brace_check(built).lsb,
        "the compatibility equation must match the direct identity check",
    )
    return ok


def brace_ideal_generated(D: Digroup, X) -> frozenset[int]:
    """Least ideal containing X: the class of the identity in the least
    congruence relating it to every x, since the identity class of a
    congruence is an ideal and the cosets of an ideal are a congruence."""
    pairs = [(D.one, x) for x in X]
    ideal = frozenset(congruence_generated(D.algebra, pairs).block_of(D.one))
    crosscheck(is_ideal(D, ideal), "the identity class of a congruence must be an ideal")
    return ideal


def quotient_digroup(D: Digroup, I) -> tuple[Digroup, tuple[int, ...]]:
    """Quotient by the coset partition of an ideal; returns (digroup, proj)."""
    if not is_ideal(D, I):
        raise NotIdeal("quotient requires an ideal")
    part = ideal_partition(D, I)
    crosscheck(is_congruence(D.algebra, part), "ideal cosets must form a congruence")
    Q, proj = quotient(D.algebra, part)
    return Digroup(Q).validate(), proj.map


def skew_brace_reflection(D: Digroup) -> tuple[Digroup, frozenset[int]]:
    """Quotient by the ideal generated by all left-distributivity defects
    (a o b) * a^-* * (a o c) * (a o (b*c))^-*; the result satisfies the
    brace identity."""
    defects = set()
    for a, b, c in iproduct(range(D.n), repeat=3):
        lhs = D.circ(a, D.star(b, c))
        rhs = D.star(D.star(D.circ(a, b), D.sinv(a)), D.circ(a, c))
        defects.add(D.star(rhs, D.sinv(lhs)))
    ideal = brace_ideal_generated(D, defects)
    Q, _ = quotient_digroup(D, ideal)
    crosscheck(skew_brace_check(Q).lsb, "the reflection must be a left skew brace")
    return Q, ideal


def brace_commutator(D: Digroup, I, J) -> frozenset[int]:
    """Ideal generated by both group commutators of I and J together with
    the mixed elements (i o j)^-* * i * j."""
    I, J = frozenset(I), frozenset(J)
    if not is_ideal(D, I) or not is_ideal(D, J):
        raise NotIdeal("commutator arguments must be ideals")
    gens = set()
    for i in I:
        for j in J:
            gens.add(
                D.star(D.star(D.star(D.sinv(i), D.sinv(j)), i), j)
            )
            gens.add(
                D.circ(D.circ(D.circ(D.cinv(i), D.cinv(j)), i), j)
            )
            gens.add(D.star(D.star(D.sinv(D.circ(i, j)), i), j))
    return brace_ideal_generated(D, gens)


def brace_center(D: Digroup) -> frozenset[int]:
    """Elements commuting with everything in both structures and with the
    two multiplications agreeing; verified to be the greatest ideal with
    trivial commutator against the whole brace."""
    if not skew_brace_check(D).lsb:
        raise HypothesisViolation("the center is computed for left skew braces")
    center = frozenset(
        z
        for z in range(D.n)
        if all(
            D.star(a, z) == D.star(z, a)
            and D.circ(a, z) == D.circ(z, a)
            and D.star(a, z) == D.circ(a, z)
            for a in range(D.n)
        )
    )
    crosscheck(is_ideal(D, center), "the center must be an ideal")
    everything = frozenset(range(D.n))
    crosscheck(brace_commutator(D, center, everything) == {D.one}, "[center, D] must be trivial")
    for ideal in all_ideals(D):
        if brace_commutator(D, ideal, everything) == {D.one}:
            crosscheck(ideal <= center, "the center must dominate such ideals")
    return center


# -- enumeration -------------------------------------------------------------


@lru_cache(maxsize=None)
def all_digroups(n: int) -> tuple[Digroup, ...]:
    """All digroups on n elements up to simultaneous isomorphism, for n up
    to 8, the catalog's largest group order.

    Every digroup can be relabeled so that its star table is the least
    relabelling, fixing 0, of one of the catalog's groups; each circ table
    orbit under the automorphisms of that star, `isomorphisms(S, S)`, is
    then taken once, at its least member, and joined unvalidated: every
    table of `all_group_tables` is a group with identity 0 (tests/test_catalog.py).
    """
    tables = all_group_tables(n)
    stars = sorted(
        min(relabel_table(G.tables[0], p, 2) for p in perms_fixing_zero(n))
        for G in groups_up_to_8()
        if G.size == n
    )
    out: list[Digroup] = []
    for star in stars:
        S = group_algebra_from_table(star, "star")
        autos = list(isomorphisms(S, S))
        marked: set[tuple[int, ...]] = set()
        for circ in tables:
            if circ not in marked:
                marked.update(relabel_table(circ, p, 2) for p in autos)
                C = group_algebra_from_table(circ, "circ")
                out.append(_join(S, C, f"dg{n}_{len(out)}"))
    return tuple(out)


def all_skew_braces(n: int) -> tuple[Digroup, ...]:
    return tuple(D for D in all_digroups(n) if skew_brace_check(D).lsb)
