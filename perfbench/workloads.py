"""The three seeded workloads: input generation, the library calls each job
makes, and the check of each verdict against `reference`.

A workload yields rounds: lists of zero-argument callables that each make
one Job, so a job's inputs are generated just before it runs. Every round
has the same composition (the same kinds of job on inputs of the same
sizes); the seed picks the concrete inputs and the order inside a round.
Runs that measure whole rounds therefore agree on the mix whatever the seed.

A job's time is the time spent inside its library calls, all made through
`Tracer.call`. Input generation and reference checks are not timed.
"""

from __future__ import annotations

import contextlib
import io
import json
from functools import partial
from itertools import product
from pathlib import Path
from random import Random

import reference as ref

from ualgebra import catalog, cli, digroups, envcat, groups, heaps, inner
from ualgebra.algebras import FiniteAlgebra, all_subalgebras, find_isomorphism
from ualgebra.congruences import all_congruences
from ualgebra.errors import IdentityFailure
from ualgebra.outer import ActionFamily, PointedFamily, build_outer_product
from ualgebra.terms import parse_term
from ualgebra.varieties import HEAP_SIG, REGISTRY, check_identities


class Job:
    """One unit of work. `run()` makes the timed library calls; `check()`
    compares what it returned with the reference. `key` is the job's input,
    used to count repeats."""

    def __init__(self, kind: str, key, run, check):
        self.kind = kind
        self.key = key
        self.run = run
        self.check = check


def ops_of(A: FiniteAlgebra) -> dict:
    return {sym: (arity, table) for (sym, arity), table in zip(A.signature.symbols, A.tables)}


def frozen(ops: dict) -> tuple:
    return tuple(sorted(ops.items()))


def relabel_ops(n: int, ops: dict, perm) -> dict:
    """The tables with every element x renamed perm[x]."""
    out = {}
    for sym, (arity, table) in ops.items():
        new = [0] * len(table)
        for args in product(range(n), repeat=arity):
            idx = jdx = 0
            for x in args:
                idx = idx * n + x
                jdx = jdx * n + perm[x]
            new[jdx] = perm[table[idx]]
        out[sym] = (arity, tuple(new))
    return out


def shuffled_perm(rng: Random, n: int) -> tuple[int, ...]:
    perm = list(range(n))
    rng.shuffle(perm)
    return tuple(perm)


def group_parts(G: FiniteAlgebra):
    """(mul, inv, identity) of an algebra in the group signature."""
    return G.table("m"), G.table("i"), G.table("e")[0]


def actions_into(mul, nb: int, auts, anti: bool = False):
    """Every b -> auts[choice[b]] that turns the table `mul` on {0..nb-1}
    into composition: f(b1 b2) = f(b1) f(b2), or f(b2) f(b1) with `anti`."""
    nk = len(auts[0])
    index = {a: i for i, a in enumerate(auts)}
    out = []
    for choice in product(range(len(auts)), repeat=nb):
        if all(
            index.get(
                tuple(auts[choice[b2]][auts[choice[b1]][k]] for k in range(nk))
                if anti
                else tuple(auts[choice[b1]][auts[choice[b2]][k]] for k in range(nk))
            )
            == choice[mul[b1 * nb + b2]]
            for b1 in range(nb)
            for b2 in range(nb)
        ):
            out.append(tuple(auts[i] for i in choice))
    return out


def heap_ops_of_group(G: FiniteAlgebra) -> dict:
    """The heap t(x, y, z) = x y^-1 z of a group."""
    mul, inv, _ = group_parts(G)
    n = G.size
    return {"t": (3, tuple(mul[mul[x * n + inv[y]] * n + z] for x, y, z in product(range(n), repeat=3)))}


def heap_of_group(G: FiniteAlgebra) -> FiniteAlgebra:
    """Built directly: heaps.heap_from_group also verifies the heap axioms,
    which takes seconds on the order-8 groups and would swell set-up."""
    return FiniteAlgebra(f"{G.name}_heap", HEAP_SIG, G.size, (heap_ops_of_group(G)["t"][1],))


def group_action_maps(N: FiniteAlgebra, B: FiniteAlgebra, phi):
    """Action tables of the semidirect product: m at (b1, b2) sends
    (n1, n2) to n1 phi_b1(n2); i at b sends n to phi_{b^-1}(n^-1)."""
    mn, inn, _ = group_parts(N)
    _, inb, _ = group_parts(B)
    k = N.size
    m_maps = {
        (b1, b2): tuple(mn[n1 * k + phi[b1][n2]] for n1 in range(k) for n2 in range(k))
        for b1, b2 in product(range(B.size), repeat=2)
    }
    i_maps = {b: tuple(phi[inb[b]][inn[x]] for x in range(k)) for b in range(B.size)}
    return m_maps, i_maps


def union_tables(B: FiniteAlgebra, fiber: int, m_maps, i_maps) -> dict:
    """Reference tables of the outer product over B with constant fiber
    {0..fiber-1} pointed at 0: element (n over b) is b*fiber + n."""
    mb, ib, eb = group_parts(B)
    nb = B.size
    mul = tuple(
        mb[b1 * nb + b2] * fiber + m_maps[(b1, b2)][n1 * fiber + n2]
        for b1, n1, b2, n2 in product(range(nb), range(fiber), range(nb), range(fiber))
    )
    inv = tuple(ib[b] * fiber + i_maps[b][x] for b in range(nb) for x in range(fiber))
    return {"m": (2, mul), "i": (1, inv), "e": (0, (eb * fiber,))}


def functor_table(union: dict, n: int, fiber: int, elements, term: str):
    """F(term) on the fiber product over `elements`, by evaluating the term
    in the union algebra at (a_j*fiber + i_j) for every index tuple."""
    return tuple(
        ref.evaluate(term, n, union, [a * fiber + i for a, i in zip(elements, idx)]) % fiber
        for idx in product(range(fiber), repeat=len(elements))
    )


def _random_term(rng: Random, k: int, depth: int) -> str:
    if depth == 0 or rng.random() < 0.25:
        return f"x{rng.randrange(k)}" if k and rng.random() < 0.85 else "e"
    if rng.random() < 0.7:
        return f"m({_random_term(rng, k, depth - 1)},{_random_term(rng, k, depth - 1)})"
    return f"i({_random_term(rng, k, depth - 1)})"


def random_term(rng: Random, k: int) -> str:
    """A term of depth at most 2 over m/2, i/1, e/0 and x0..x(k-1)."""
    return _random_term(rng, k, 2)


def same_verdict(report, failure) -> bool:
    """A library IdentityReport against a reference first failure."""
    if failure is None:
        return report.passes
    w = report.witness
    return (
        not report.passes
        and (str(w.identity), w.assignment, w.quasi) == failure
    )


def count_report(T, n: int, variety: str, report):
    w = report.witness
    failure = None if w is None else (str(w.identity), w.assignment)
    T.count("varieties.assignments", ref.scan_length(n, variety, failure))
    T.count("varieties.rejects", 0 if report.passes else 1)


def count_outer(T, size: int, signature, rejected: bool):
    T.count("outer.entries", sum(size**arity for _, arity in signature.symbols))
    T.count("outer.rejects", 1 if rejected else 0)


# -- products ----------------------------------------------------------------

# One round: digroup triples by (|Y|, |K|), group and heap products by the
# names (N, B), and functor-law checks. The seed picks which digroup of a
# size, which action and which terms, never the sizes.
DIGROUP_SIZES = [(4, 4), (4, 4), (4, 4), (4, 3), (3, 4), (4, 2), (2, 4), (3, 3), (2, 2), (1, 4)]
GROUP_PAIRS = [("z4", "z2"), ("klein", "z2"), ("z3", "z2"), ("z2", "z2"), ("z4", "z4"), ("klein", "z3")]
HEAP_PAIRS = [("z2", "z2"), ("z3", "z2"), ("z4", "z2")]
ENVCAT_JOBS = 16
ENVCAT_QS = 32


class Products:
    """Build and verify semidirect products; every candidate is valid, so
    every identity check scans all n^k assignments."""

    def __init__(self, seed: int, tracer, workdir: Path):
        self.rng = Random(seed)
        self.T = tracer
        tracer.call("catalog.all_group_tables", lambda: [catalog.all_group_tables(n) for n in (1, 2, 3, 4)])
        pool = tracer.call(
            "digroups.all_digroups", lambda: [D for n in (1, 2, 3, 4) for D in digroups.all_digroups(n)]
        )
        self.digroups_by_size: dict[int, list] = {}
        for D in pool:
            self.digroups_by_size.setdefault(D.n, []).append(D)
        self.groups = {
            G.name: G
            for G in (catalog.cyclic_group(n) for n in (1, 2, 3, 4))
        }
        self.groups["klein"] = catalog.klein_group()
        self.heaps = {name: heap_of_group(G) for name, G in self.groups.items()}
        self._auts: dict = {}
        self._actions: dict = {}
        self._antiactions: dict = {}
        # twisted group products for the functor-law checks
        self.twisted = []
        for nname, bname in [("z3", "z2"), ("z4", "z2"), ("klein", "z2")]:
            N, B = self.groups[nname], self.groups[bname]
            phi = next(p for p in self.actions(N, B) if len(set(p)) > 1)
            family, actions = groups.group_data_to_family(groups.group_data_from_action(N, B, phi))
            F = build_outer_product(family, actions, REGISTRY["group"])
            union = union_tables(B, N.size, *group_action_maps(N, B, phi))
            self.twisted.append((F, N.size, union))

    def auts(self, G: FiniteAlgebra):
        if G not in self._auts:
            self._auts[G] = ref.automorphisms(G.size, ops_of(G))
        return self._auts[G]

    def actions(self, N, B):
        key = (N.name, B.name)
        if key not in self._actions:
            self._actions[key] = actions_into(B.table("m"), B.size, self.auts(N))
        return self._actions[key]

    def rounds(self):
        while True:
            specs = (
                [(self._digroup, s) for s in DIGROUP_SIZES]
                + [(self._group_sdp, p) for p in GROUP_PAIRS]
                + [(self._heap_outer, p) for p in HEAP_PAIRS]
                + [(self._envcat, None)] * ENVCAT_JOBS
            )
            self.rng.shuffle(specs)
            yield [partial(make, arg) for make, arg in specs]

    def _digroup(self, sizes):
        """digroup_outer, both identity checks, the brace check and the
        direct-product criterion on one seeded action triple."""
        rng, T = self.rng, self.T
        Y = rng.choice(self.digroups_by_size[sizes[0]])
        K = rng.choice(self.digroups_by_size[sizes[1]])
        star_K, circ_K = digroups.star_reduct(K), digroups.circ_reduct(K)
        key = (Y.algebra.name, K.algebra.name)
        if key not in self._antiactions:
            self._antiactions[key] = (
                actions_into(Y.algebra.tables[0], Y.n, self.auts(star_K), anti=True),
                actions_into(Y.algebra.tables[2], Y.n, self.auts(circ_K), anti=True),
            )
        phis, phic = self._antiactions[key]
        lam = []
        for y in range(Y.n):
            perm = list(range(K.n))
            if y != Y.one:
                rest = [k for k in range(K.n) if k != K.one]
                rng.shuffle(rest)
                for spot, value in zip([k for k in range(K.n) if k != K.one], rest):
                    perm[spot] = value
            lam.append(tuple(perm))
        triple = digroups.DigroupActionTriple(Y, K, rng.choice(phis), rng.choice(phic), tuple(lam))

        def run():
            auts = (
                T.call("groups.automorphism_group", groups.automorphism_group, star_K),
                T.call("groups.automorphism_group", groups.automorphism_group, circ_K),
            )
            D = T.call("digroups.digroup_outer", digroups.digroup_outer, triple)
            T.count("digroups.entries", sum(D.n**a for _, a in D.algebra.signature.symbols))
            reports = {
                v: T.call("varieties.check_identities", check_identities, D.algebra, REGISTRY[v])
                for v in ("digroup", "skew_brace")
            }
            for v, report in reports.items():
                count_report(T, D.n, v, report)
            brace = T.call("digroups.skew_brace_check", digroups.skew_brace_check, D)
            direct = T.call("digroups.digroup_direct_criterion", digroups.digroup_direct_criterion, triple)
            return auts, D, reports, brace, direct

        def check(result):
            auts, D, reports, brace, direct = result
            if list(auts) != [self.auts(star_K), self.auts(circ_K)]:
                return False
            expected = digroup_outer_tables(Y, K, triple.phi_star, triple.phi_circ, triple.Lambda)
            if ops_of(D.algebra) != expected:
                return False
            sb = ref.first_failure(D.n, expected, "skew_brace")
            return (
                same_verdict(reports["digroup"], ref.first_failure(D.n, expected, "digroup"))
                and same_verdict(reports["skew_brace"], sb)
                and (brace.lsb, brace.witness) == ((True, None) if sb is None else (False, sb[1]))
                and direct == (expected == direct_product_tables(Y, K))
            )

        return Job("digroup", ("digroup", key, triple.phi_star, triple.phi_circ, triple.Lambda), run, check)

    def _group_sdp(self, names):
        """The classical semidirect product and the outer construction fed
        by the same action."""
        T = self.T
        N, B = self.groups[names[0]], self.groups[names[1]]
        phi = self.rng.choice(self.actions(N, B))

        def run():
            auts = T.call("groups.automorphism_group", groups.automorphism_group, N)
            G = T.call("groups.group_semidirect", groups.group_semidirect, N, B, phi)
            data = T.call("groups.group_data_from_action", groups.group_data_from_action, N, B, phi)
            family, actions = T.call("groups.group_data_to_family", groups.group_data_to_family, data)
            F = T.call("outer.build_outer_product", build_outer_product, family, actions, REGISTRY["group"])
            count_outer(T, F.algebra.size, F.algebra.signature, rejected=False)
            return auts, G, F

        def check(result):
            auts, G, F = result
            k, nb = N.size, B.size
            union = union_tables(B, k, *group_action_maps(N, B, phi))
            # the classical construction encodes (n over b) as n*|B| + b
            classical = relabel_ops(k * nb, union, tuple((x % k) * nb + x // k for x in range(k * nb)))
            return (
                auts == self.auts(N)
                and ops_of(G) == classical
                and ops_of(F.algebra) == union
                and ref.first_failure(k * nb, union, "group") is None
            )

        return Job("group_sdp", ("group_sdp", names, phi), run, check)

    def _heap_outer(self, names):
        """heap_outer on the heaps of two groups, acted on through a group
        action (a group morphism into Aut(N) is a heap morphism)."""
        T = self.T
        N, B = self.groups[names[0]], self.groups[names[1]]
        phi = self.rng.choice(self.actions(N, B))
        action = heaps.HeapAction(self.heaps[B.name], self.heaps[N.name], phi, B.table("e")[0])

        def run():
            return T.call("heaps.heap_outer", heaps.heap_outer, action)

        def check(result):
            mk, ik, _ = group_parts(N)
            my, iy, ey = group_parts(B)
            k, ny = N.size, B.size

            def hk(a, b, c):
                return mk[mk[a * k + ik[b]] * k + c]

            def hy(a, b, c):
                return my[my[a * ny + iy[b]] * ny + c]

            # [(k1,y1),(k2,y2),(k3,y3)] = ([k1, a_w(k2), a_w(k3)], [y1,y2,y3]), w = [y1,y2,e]
            table = []
            for k1, y1, k2, y2 in product(range(k), range(ny), range(k), range(ny)):
                row = phi[hy(y1, y2, ey)]
                for k3, y3 in product(range(k), range(ny)):
                    table.append(hk(k1, row[k2], row[k3]) * ny + hy(y1, y2, y3))
            return result.algebra.tables == (tuple(table),)

        return Job("heap_outer", ("heap_outer", names, phi), run, check)

    def _envcat(self, _):
        """Functor laws for one source object and term tuple p against
        several q, and the functor tables of p."""
        rng, T = self.rng, self.T
        F, fiber, union = rng.choice(self.twisted)
        base = F.family.base
        base_ops = ops_of(base)
        elements = tuple(rng.randrange(base.size) for _ in range(rng.randrange(1, 3)))
        p_texts = [random_term(rng, len(elements)) for _ in range(rng.randrange(1, 3))]
        mid = tuple(ref.evaluate(t, base.size, base_ops, elements) for t in p_texts)
        q_texts = [random_term(rng, len(mid)) for _ in range(ENVCAT_QS)]
        src, mid_obj = envcat.TupleObject(base, elements), envcat.TupleObject(base, mid)
        p_terms = tuple(parse_term(t, base.signature) for t in p_texts)
        qs = [
            (parse_term(t, base.signature), envcat.TupleObject(base, (ref.evaluate(t, base.size, base_ops, mid),)))
            for t in q_texts
        ]

        def run():
            p = T.call("envcat.TermTupleMorphism", envcat.TermTupleMorphism, src, mid_obj, p_terms)
            verdicts = []
            for q, dst in qs:
                q_m = T.call("envcat.TermTupleMorphism", envcat.TermTupleMorphism, mid_obj, dst, (q,))
                verdicts.append(T.call("envcat.check_functoriality", envcat.check_functoriality, F, p, q_m))
                # G(q o p) and G(p) over the source, G(q) over the middle
                T.count("envcat.table_entries", fiber ** len(elements) * (1 + len(p_terms)) + fiber ** len(mid))
            tables = T.call("envcat.functor_morphism", envcat.functor_morphism, F, p)
            T.count("envcat.table_entries", fiber ** len(elements) * len(p_terms))
            return verdicts, tables

        def check(result):
            verdicts, tables = result
            n = F.algebra.size
            expected = tuple(functor_table(union, n, fiber, elements, t) for t in p_texts)
            return all(verdicts) and tables == expected

        return Job("envcat", ("envcat", base.name, fiber, elements, tuple(p_texts), tuple(q_texts)), run, check)


def digroup_outer_tables(Y, K, phi_star, phi_circ, Lambda) -> dict:
    """Reference digroup on Y x K, encoded y*|K| + k:
    (y,k) * (y',k') = (y*y', Lam_{y*y'}^-1(phi*_y'(Lam_y(k)) * Lam_y'(k')))
    (y,k) o (y',k') = (y o y', phio_y'(k) o k')."""
    ys, yc = Y.algebra.tables[0], Y.algebra.tables[2]
    ks, kc = K.algebra.tables[0], K.algebra.tables[2]
    ny, nk = Y.n, K.n
    lam_inv = []
    for perm in Lambda:
        inv = [0] * nk
        for i, v in enumerate(perm):
            inv[v] = i
        lam_inv.append(inv)
    star, circ = [], []
    for y1, k1, y2, k2 in product(range(ny), range(nk), range(ny), range(nk)):
        yy = ys[y1 * ny + y2]
        inside = ks[phi_star[y2][Lambda[y1][k1]] * nk + Lambda[y2][k2]]
        star.append(yy * nk + lam_inv[yy][inside])
        circ.append(yc[y1 * ny + y2] * nk + kc[phi_circ[y2][k1] * nk + k2])
    return _digroup_ops(star, circ, ny * nk, Y.one * nk + K.one)


def direct_product_tables(Y, K) -> dict:
    """The componentwise product: the construction with every family the identity."""
    ident = (tuple(range(K.n)),) * Y.n
    return digroup_outer_tables(Y, K, ident, ident, ident)


def _digroup_ops(star, circ, n: int, one: int) -> dict:
    sinv = tuple(next(b for b in range(n) if star[a * n + b] == one) for a in range(n))
    cinv = tuple(next(b for b in range(n) if circ[a * n + b] == one) for a in range(n))
    return {
        "star": (2, tuple(star)),
        "star_inv": (1, sinv),
        "circ": (2, tuple(circ)),
        "circ_inv": (1, cinv),
        "one": (0, (one,)),
    }


# -- lattices ----------------------------------------------------------------


def lattice_members():
    """(algebra, copies per round) for every family member.

    Left-zero semigroups stop at 5 and chains at 7, because
    left_zero_semigroup(6) alone takes about a second. The heap census runs
    only on heaps of order at most 6: on an order-8 heap it takes 3-22 s.
    """
    p = catalog.product
    c, m, lz = catalog.chain_lattice, catalog.mult_semigroup, catalog.left_zero_semigroup
    members = [(lz(n), 2) for n in (2, 3, 4, 5)]
    members += [(c(n), 2) for n in range(2, 8)]
    members += [(m(n), 2) for n in range(2, 9)]
    members += [
        (p(c(2), c(3)), 2),
        (p(c(2), c(4)), 2),
        (p(m(2), m(3)), 2),
        (p(m(2), m(4)), 2),
        (p(lz(2), m(3)), 2),
        (p(m(3), lz(2)), 2),
    ]
    gs = catalog.groups_up_to_8()
    members += [(G, 2) for G in gs]
    members += [(heap_of_group(G), 1) for G in gs]
    return members


FROZEN_COUNTS = Path(__file__).with_name("frozen_counts.json")


class Lattices:
    """The inner-decomposition census on relabelled family members."""

    def __init__(self, seed: int, tracer, workdir: Path):
        self.rng = Random(seed)
        self.T = tracer
        self.members = lattice_members()
        self.frozen = json.loads(FROZEN_COUNTS.read_text())

    def rounds(self):
        while True:
            specs = [A for A, copies in self.members for _ in range(copies)]
            self.rng.shuffle(specs)
            yield [partial(self._job, A, shuffled_perm(self.rng, A.size)) for A in specs]

    def _job(self, A: FiniteAlgebra, perm):
        T = self.T
        # keeps A's name, so two equal relabellings are equal inputs
        X = FiniteAlgebra(A.name, A.signature, A.size, tuple(t for _, t in relabel_ops(A.size, ops_of(A), perm).values()))
        census = A.signature.symbols == (("t", 3),) and A.size <= 6

        def run():
            subs = T.call("algebras.all_subalgebras", all_subalgebras, X)
            cons = T.call("congruences.all_congruences", all_congruences, X)
            idems = T.call("inner.idempotent_endomorphisms", inner.idempotent_endomorphisms, X)
            pairs = T.call("inner.count_transversal_pairs", inner.count_transversal_pairs, X, subs, cons)
            iso = T.call("algebras.find_isomorphism", find_isomorphism, X, A)
            holds = None
            if census:
                holds = sum(
                    T.call("heaps.heap_inner_report", heaps.heap_inner_report, X, Y, omega).holds
                    for Y in subs
                    for omega in cons
                )
            T.count("algebras.closures", 2**X.size - 1)
            T.count("algebras.subalgebras", len(subs))
            T.count("congruences.found", len(cons))
            T.count("inner.idempotents", len(idems))
            T.count("inner.pairs_scanned", len(subs) * len(cons))
            T.count("inner.transversal_pairs", pairs)
            return len(subs), len(cons), len(idems), pairs, iso, holds

        def check(result):
            n_sub, n_con, n_idem, pairs, iso, holds = result
            want = self.frozen[A.name]
            return (
                (n_sub, n_con, n_idem, pairs) == (want["sub"], want["con"], want["idem"], want["pairs"])
                and n_idem == pairs
                and ref.is_isomorphism(X.size, ops_of(X), ops_of(A), iso)
                and holds == (pairs if census else None)
            )

        return Job("lattice", (A.name, X.tables), run, check)


# -- candidates --------------------------------------------------------------

RANDOM_SIGNATURES = {
    "semigroup": (("m", 2),),
    "monoid": (("m", 2), ("e", 0)),
    "group": (("m", 2), ("i", 1), ("e", 0)),
    "lattice": (("join", 2), ("meet", 2)),
    "heap": (("t", 3),),
}

# One round: (job, variety, count).
CANDIDATE_MIX = [
    ("check", "semigroup", 3),
    ("check", "monoid", 3),
    ("check", "group", 3),
    ("check", "lattice", 3),
    ("check", "heap", 2),
    ("check_pass", None, 4),
    ("congruences", None, 2),
    ("idempotents", None, 2),
    ("decompose", None, 2),
    ("brace", None, 2),
    ("heap", None, 2),
    ("envcat", None, 2),
    ("family", None, 4),
]


def algebra_text(name: str, n: int, ops: dict) -> str:
    lines = [f"algebra {name}", f"size {n}"]
    for sym, (arity, table) in ops.items():
        lines.append(f"op {sym}/{arity}")
        width = n if arity else 1
        lines += [" ".join(map(str, table[i : i + width])) for i in range(0, len(table), width)]
    lines.append("end")
    return "\n".join(lines) + "\n"


def action_text(base_ref: str, fiber: int, m_maps, i_maps) -> str:
    lines = ["action", f"base {base_ref}", f"fiber * {fiber} 0"]
    for (b1, b2), table in sorted(m_maps.items()):
        lines += [f"map m ({b1},{b2})", " ".join(map(str, table))]
    for b, table in sorted(i_maps.items()):
        lines += [f"map i ({b})", " ".join(map(str, table))]
    lines.append("end")
    return "\n".join(lines) + "\n"


class Candidates:
    """Many short `ua` calls on small inputs (n <= 6), plus action families
    sent straight to `build_outer_product`, one in four of them valid. Each
    round writes its own workspace file, so inputs seldom repeat."""

    def __init__(self, seed: int, tracer, workdir: Path):
        self.rng = Random(seed)
        self.T = tracer
        self.workdir = workdir
        gs = [G for G in catalog.groups_up_to_8() if 1 < G.size <= 6]
        self.genuine = [(G, "group") for G in gs]
        self.genuine += [(catalog.chain_lattice(n), "lattice") for n in range(2, 7)]
        self.genuine += [(catalog.diamond_lattice(), "lattice")]
        self.genuine += [(catalog.left_zero_semigroup(n), "semigroup") for n in range(2, 6)]
        self.genuine += [(catalog.mult_semigroup(n), "semigroup") for n in range(2, 7)]
        self.heap_groups = gs
        self.digroup_pool = tracer.call(
            "digroups.all_digroups", lambda: [D for n in (2, 3, 4) for D in digroups.all_digroups(n)]
        )
        self.bases = [catalog.cyclic_group(2), catalog.cyclic_group(3)]
        self.cycles: dict = {}
        self.round_no = 0

    def rounds(self):
        while True:
            yield [partial(self._job, *spec) for spec in self._write_round()]

    # inputs ------------------------------------------------------------------

    def _pick(self, name: str, items):
        """The next item of a seeded cycle through `items`, reshuffled each
        pass: every item comes up equally often whatever the seed, so runs
        agree on the mix of sizes."""
        if name not in self.cycles:
            self.cycles[name] = self._cycle(list(items))
        return next(self.cycles[name])

    def _cycle(self, items):
        while True:
            self.rng.shuffle(items)
            yield from items

    def _random_ops(self, kind: str, sizes) -> tuple[int, dict]:
        n = self._pick(f"size.{kind}", sizes)
        return n, {
            sym: (arity, tuple(self.rng.randrange(n) for _ in range(n**arity)))
            for sym, arity in RANDOM_SIGNATURES[kind]
        }

    def _genuine(self, job: str):
        A, variety = self._pick(f"genuine.{job}", self.genuine)
        return A.size, relabel_ops(A.size, ops_of(A), shuffled_perm(self.rng, A.size)), variety

    def _write_round(self):
        """Draw one round of inputs, write them as one workspace file, and
        return the job specs in a seeded order."""
        rng = self.rng
        self.round_no += 1
        path = self.workdir / f"ws{self.round_no}.alg"
        texts: list[str] = []
        specs = []

        def add(n, ops) -> str:
            name = f"a{len(texts)}"
            texts.append(algebra_text(name, n, ops))
            return f"{path}#{name}"

        for job, variety, count in CANDIDATE_MIX:
            for i in range(count):
                # where a job mixes two kinds of input, a round has one of each
                if job == "check":
                    n, ops = self._random_ops(variety, range(2, 5) if variety == "heap" else range(2, 7))
                    specs.append(("check", add(n, ops), n, ops, variety))
                elif job == "check_pass":
                    n, ops, variety_ = self._genuine(job)
                    specs.append(("check", add(n, ops), n, ops, variety_))
                elif job in ("congruences", "idempotents"):
                    if i % 2:
                        n, ops = self._random_ops(self._pick(f"{job}.kind", ["semigroup", "lattice"]), range(2, 7))
                    else:
                        n, ops, _ = self._genuine(job)
                    specs.append((job, add(n, ops), n, ops, None))
                elif job == "decompose":
                    n, ops, _ = self._genuine(job)
                    specs.append(("decompose", add(n, ops), n, ops, self._decomposition(n, ops, genuine=i % 2 == 0)))
                elif job == "brace":
                    D = self._pick("brace", self.digroup_pool)
                    ops = relabel_ops(D.n, ops_of(D.algebra), shuffled_perm(rng, D.n))
                    specs.append(("brace", add(D.n, ops), D.n, ops, None))
                elif job == "heap":
                    if i % 2:
                        n, ops = self._random_ops("heap", range(2, 5))
                    else:
                        G = self._pick("heap", self.heap_groups)
                        n = G.size
                        ops = relabel_ops(n, heap_ops_of_group(G), shuffled_perm(rng, n))
                    specs.append(("heap", add(n, ops), n, ops, None))
                elif job == "envcat":
                    B, fiber, maps = self._action(job, valid=True)
                    base_ref = add(B.size, ops_of(B))
                    action_path = path.with_name(f"{path.stem}_{len(texts)}.act")
                    action_path.write_text(action_text(base_ref, fiber, *maps))
                    elements = tuple(rng.randrange(B.size) for _ in range(self._pick("envcat.length", range(3))))
                    terms = [random_term(rng, len(elements)) for _ in range(rng.randrange(1, 3))]
                    specs.append(("envcat", str(action_path), B.size, ops_of(B), (fiber, maps, elements, terms, B)))
                else:
                    specs.append(("family", None, 0, None, self._action(job, valid=i == 0)))
        path.write_text("".join(texts))
        rng.shuffle(specs)
        return specs

    def _decomposition(self, n: int, ops: dict, genuine: bool):
        """A genuine decomposition (image and kernel of an idempotent
        endomorphism), or a random subalgebra and congruence."""
        rng = self.rng
        if genuine:
            e = rng.choice(ref.idempotent_endomorphisms(n, ops))
            least: dict[int, int] = {}
            return sorted(set(e)), tuple(least.setdefault(v, x) for x, v in enumerate(e))
        return sorted(rng.choice(ref.subalgebras(n, ops))), rng.choice(ref.congruences(n, ops))

    def _action(self, job: str, valid: bool):
        """(base, fiber size, (m maps, i maps)) over Z2 or Z3 with a cyclic
        fiber pointed at 0: the action of a group (phi_b = x -> x u^b for a
        unit u with u^|B| = 1), or random pointed tables."""
        rng = self.rng
        B, fiber = self._pick(f"{job}.shape", [(B, f) for B in self.bases for f in (2, 3)])
        if valid:
            u = rng.choice([u for u in range(1, fiber) if pow(u, B.size, fiber) == 1])
            phi = tuple(tuple(x * u**b % fiber for x in range(fiber)) for b in range(B.size))
            return B, fiber, group_action_maps(catalog.cyclic_group(fiber), B, phi)
        m_maps = {
            bs: tuple(0 if i == 0 else rng.randrange(fiber) for i in range(fiber * fiber))
            for bs in product(range(B.size), repeat=2)
        }
        i_maps = {b: tuple(0 if i == 0 else rng.randrange(fiber) for i in range(fiber)) for b in range(B.size)}
        return B, fiber, (m_maps, i_maps)

    # jobs --------------------------------------------------------------------

    def _cli(self, verb: str, argv):
        T = self.T
        out, err = io.StringIO(), io.StringIO()

        def call():
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    return cli.main(argv)
                except SystemExit as exc:  # argparse rejected the arguments
                    return exc.code

        code = T.call(f"cli.main.{verb}", call)
        T.count("cli.main.calls", 1)
        T.count("cli.exit_false", 1 if code == 1 else 0)
        T.count("cli.stdout_bytes", len(out.getvalue().encode()))
        return code, out.getvalue()

    def _job(self, verb, target, n, ops, arg):
        if verb == "family":
            return self._family_job(*arg)
        name = target.rpartition("#")[2]
        if verb == "check":
            argv, expect = ["check", target, "--variety", arg], partial(expect_check, name, n, ops, arg)
        elif verb == "congruences":
            argv, expect = [verb, target], partial(expect_congruences, n, ops)
        elif verb == "idempotents":
            argv, expect = [verb, target], partial(expect_idempotents, n, ops)
        elif verb == "decompose":
            B, rep = arg
            argv = [verb, target, "--B", ",".join(map(str, B)), "--omega", ref.partition_text(rep)]
            expect = partial(expect_decompose, n, ops, B, rep)
        elif verb == "brace":
            argv, expect = ["brace", "check", target], partial(expect_brace, n, ops)
        elif verb == "heap":
            argv, expect = ["heap", "check", target], partial(expect_heap, name, n, ops)
        else:
            fiber, maps, elements, terms, B = arg
            argv = [
                "envcat", "--action", target, "--variety", "group",
                "--object", ",".join(map(str, elements)), "--terms", ";".join(terms),
            ]
            expect = partial(expect_envcat, elements, terms, union_tables(B, fiber, *maps), fiber, ops, n)
        key = (verb, n, frozen(ops), repr(arg))
        return Job(verb, key, partial(self._cli, verb, argv), lambda result: result == expect())

    def _family_job(self, B, fiber, maps):
        T = self.T
        m_maps, i_maps = maps
        family = PointedFamily.constant(B, fiber, 0)
        table = {("m", bs): t for bs, t in m_maps.items()}
        table.update({("i", (b,)): t for b, t in i_maps.items()})
        table[("e", ())] = (0,)
        actions = ActionFamily.from_dict(table)
        union = union_tables(B, fiber, m_maps, i_maps)

        def run():
            try:
                F = T.call("outer.build_outer_product", build_outer_product, family, actions, REGISTRY["group"])
            except IdentityFailure as exc:
                count_outer(T, B.size * fiber, B.signature, rejected=True)
                return False, (str(exc.identity), exc.assignment)
            count_outer(T, B.size * fiber, B.signature, rejected=False)
            return True, ops_of(F.algebra)

        def check(result):
            failure = ref.first_failure(B.size * fiber, union, "group")
            return result == ((True, union) if failure is None else (False, failure[:2]))

        return Job("family", ("family", B.name, fiber, frozen(union)), run, check)


# expected CLI results: (exit code, stdout) ------------------------------------


def expect_check(name: str, n: int, ops: dict, variety: str):
    failure = ref.first_failure(n, ops, variety)
    if failure is None:
        return 0, f"{name}: passes {variety}\n"
    text, assignment, quasi = failure
    kind = "quasi condition" if quasi else "identity"
    return 1, f"{name}: fails {variety} {kind} {text} at {assignment}\n"


def expect_congruences(n: int, ops: dict):
    found = sorted(ref.congruences(n, ops), key=lambda rep: (-len(set(rep)), rep))
    return 0, "".join([f"{len(found)}\n"] + [ref.partition_text(rep) + "\n" for rep in found])


def expect_idempotents(n: int, ops: dict):
    found = ref.idempotent_endomorphisms(n, ops)
    return 0, "".join([f"{len(found)}\n"] + [" ".join(map(str, m)) + "\n" for m in found])


def expect_decompose(n: int, ops: dict, B, rep):
    sub_ok = ref.is_closed(n, ops, B)
    cong_ok = ref.is_congruence(n, ops, rep)
    holds = sub_ok and cong_ok and ref.transversal_pairs([B], [rep]) == 1
    lines = [f"subalgebra: {sub_ok}", f"congruence: {cong_ok}"]
    lines += [f"({label}): {holds}" for label in "abcd"]
    return (0 if holds else 1), "\n".join(lines) + "\n"


def expect_brace(n: int, ops: dict):
    failure = ref.first_failure(n, ops, "skew_brace")
    if failure is None:
        return 0, "left skew brace: True\n"
    return 1, f"left skew brace: False\nwitness: {failure[1]}\n"


def expect_heap(name: str, n: int, ops: dict):
    ok = ref.first_failure(n, ops, "heap") is None
    return (0 if ok else 1), f"{name}: heap: {ok}\n"


def expect_envcat(elements, terms, union, fiber, base_ops, nb):
    values = tuple(ref.evaluate(t, nb, base_ops, elements) for t in terms)
    n = nb * fiber
    lines = [f"object {elements} -> {values}", f"source fiber sizes: {(fiber,) * len(elements)}"]
    lines += [f"{t}: " + " ".join(map(str, functor_table(union, n, fiber, elements, t))) for t in terms]
    return 0, "\n".join(lines) + "\n"


WORKLOADS = {"products": Products, "lattices": Lattices, "candidates": Candidates}
