"""Independent brute-force oracles, kept deliberately separate from the
library's search code: straight scans over complete map spaces."""

from itertools import permutations, product


def brute_force_idempotent_endos(A):
    """All idempotent endomorphisms by scanning every self-map of the carrier.

    Idempotence (a 1-pass filter) is applied before the homomorphism test to
    keep the n^n scan workable up to n = 6.
    """
    n = A.size
    found = set()
    for mapping in product(range(n), repeat=n):
        if any(mapping[v] != v for v in mapping):
            continue
        if _is_hom(A, mapping):
            found.add(mapping)
    return found


def _is_hom(A, mapping, B=None):
    """Does `mapping` carry A's operations to B's (B defaults to A), one
    argument tuple at a time?"""
    B = A if B is None else B
    n, m = A.size, B.size
    for pos, (_, arity) in enumerate(A.signature.symbols):
        table, target = A.tables[pos], B.tables[pos]
        for args in product(range(n), repeat=arity):
            idx = 0
            for a in args:
                idx = idx * n + a
            jdx = 0
            for a in args:
                jdx = jdx * m + mapping[a]
            if mapping[table[idx]] != target[jdx]:
                return False
    return True


class UnreadTable(tuple):
    """A table that fails when one of its entries is read by index: set as
    an algebra's tables, it shows that a kernel reads them as bytes alone."""

    def __getitem__(self, i):
        if isinstance(i, int):
            raise AssertionError(f"table entry {i} read row by row")
        return super().__getitem__(i)


def permutation_isomorphisms(A, B):
    """Every isomorphism A -> B of two algebras in one signature, in
    lexicographic order, by testing each of the n! permutations with `_is_hom`
    (n <= 8); unequal sizes give none."""
    if A.size != B.size:
        return []
    if A.size > 8:
        raise ValueError("the permutation scan stops at 8 elements")
    return [p for p in permutations(range(A.size)) if _is_hom(A, p, B)]


def backtracking_idempotents(A):
    """Every idempotent endomorphism of A as a sorted list of maps, by
    choosing images element by element.

    Constants are pinned first, every chosen image is made a fixed point at
    once, and each step rescans every operation instance whose arguments and
    result are decided.
    """
    n = A.size
    image = [-1] * n
    for (_, arity), table in zip(A.signature.symbols, A.tables):
        if arity == 0:
            image[table[0]] = table[0]

    def ok():
        decided = [x for x in range(n) if image[x] >= 0]
        for (_, arity), table in zip(A.signature.symbols, A.tables):
            for args in product(decided, repeat=arity):
                out = table[_flat(args, n)]
                if image[out] < 0:
                    continue
                if table[_flat([image[a] for a in args], n)] != image[out]:
                    return False
        return True

    results = []

    def assign(x):
        while x < n and image[x] >= 0:
            x += 1
        if x == n:
            results.append(tuple(image))
            return
        for v in range(n):
            if image[v] >= 0 and image[v] != v:
                continue  # idempotence: the image point must be fixed
            undo = [(x, image[x])]
            image[x] = v
            if image[v] < 0:
                undo.append((v, image[v]))
                image[v] = v
            if ok():
                assign(x + 1)
            for pos, old in reversed(undo):
                image[pos] = old

    assign(0)
    return sorted(results)


# counts computed with this oracle before the main implementation existed
FROZEN_IDEMPOTENT_COUNTS = {
    "z4": 2,
    "z6": 4,
    "s3": 5,
    "klein": 8,
}


def transitive_closure_classes(n, pairs):
    """Equivalence classes of the reflexive-symmetric-transitive closure of
    `pairs`, by repeated relation squaring; each element maps to the least
    member of its class."""
    related = [[i == j for j in range(n)] for i in range(n)]
    for a, b in pairs:
        related[a][b] = related[b][a] = True
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for j in range(n):
                if related[i][j]:
                    continue
                if any(related[i][k] and related[k][j] for k in range(n)):
                    related[i][j] = True
                    changed = True
    return tuple(min(j for j in range(n) if related[i][j]) for i in range(n))


# -- congruences by exhaustive pair comparison --------------------------------
#
# A partition is a tuple `rep` naming each element's class by its least
# member (the library's `Partition.rep` passes as is). Partitions come from
# their own restricted-growth enumeration; nothing of the library's
# congruence or partition code is used.


def _flat(args, n):
    idx = 0
    for a in args:
        idx = idx * n + a
    return idx


def brute_force_is_congruence(A, rep):
    """Compare f at every pair of componentwise related argument tuples."""
    n = A.size
    blocks = {r: [x for x in range(n) if rep[x] == r] for r in set(rep)}
    for (_, arity), table in zip(A.signature.symbols, A.tables):
        for args in product(range(n), repeat=arity):
            value = rep[table[_flat(args, n)]]
            for other in product(*(blocks[rep[a]] for a in args)):
                if rep[table[_flat(other, n)]] != value:
                    return False
    return True


def set_partitions(n):
    """Every partition of {0..n-1} as a least-member tuple, from the
    restricted growth strings (each label at most one above all before)."""
    def grow(code):
        if len(code) == n:
            first = {}
            yield tuple(first.setdefault(c, i) for i, c in enumerate(code))
            return
        for c in range(max(code, default=-1) + 2):
            yield from grow(code + [c])

    yield from grow([])


def brute_force_congruences(A):
    """Every congruence of A by filtering all Bell(n) partitions (n <= 7),
    sorted by block count descending, then by representatives."""
    assert A.size <= 7, "the Bell-number scan is meant for n <= 7"
    found = [rep for rep in set_partitions(A.size) if brute_force_is_congruence(A, rep)]
    return sorted(found, key=lambda rep: (-len(set(rep)), rep))


def _join_reps(r, s):
    """The join of two least-member tuples: merge the classes of i and s[i]
    for every i, relabelling the larger label's class by the smaller."""
    label = list(r)
    for i, j in enumerate(s):
        lo, hi = sorted((label[i], label[j]))
        if lo != hi:
            label = [lo if x == hi else x for x in label]
    return tuple(label)


def transversal_pairs_by_blocks(subalgebras, congruences):
    """|{(B, omega) : B meets every omega-class in exactly one element}|,
    intersecting each B with every class of every omega; the classes are
    read off `omega.rep` here."""
    count = 0
    for B in subalgebras:
        B = set(B)
        for omega in congruences:
            classes = {}
            for x, r in enumerate(omega.rep):
                classes.setdefault(r, set()).add(x)
            count += all(len(B & cls) == 1 for cls in classes.values())
    return count


def principal_join_bfs(A):
    """Every congruence of A by a breadth-first search from the identity
    that joins each congruence found with each distinct principal
    congruence (from `fixpoint_congruence_generated`) not already below it;
    sorted like `brute_force_congruences`, with no cap on n."""
    n = A.size
    principals = {}
    for a in range(n):
        for b in range(a + 1, n):
            principals.setdefault(fixpoint_congruence_generated(A, [(a, b)]), (a, b))
    identity = tuple(range(n))
    found = {identity}
    frontier = [identity]
    while frontier:
        fresh = []
        for c in frontier:
            for p, (a, b) in principals.items():
                if c[a] == c[b]:
                    continue
                j = _join_reps(c, p)
                if j not in found:
                    found.add(j)
                    fresh.append(j)
        frontier = fresh
    return sorted(found, key=lambda rep: (-len(set(rep)), rep))


def fixpoint_congruence_generated(A, pairs):
    """Least congruence containing `pairs`: add f(.., a, ..) ~ f(.., b, ..)
    for every related a, b at every place, and close transitively, until
    nothing changes."""
    n = A.size
    relation = set(pairs)
    rep = transitive_closure_classes(n, relation)
    while True:
        for (_, arity), table in zip(A.signature.symbols, A.tables):
            for args in product(range(n), repeat=arity):
                for j in range(arity):
                    for b in range(n):
                        if rep[b] == rep[args[j]]:
                            other = args[:j] + (b,) + args[j + 1 :]
                            relation.add((table[_flat(args, n)], table[_flat(other, n)]))
        closed = transitive_closure_classes(n, relation)
        if closed == rep:
            return rep
        rep = closed


# -- semidirect products straight from the textbook formulas ----------------
#
# Each oracle reads only the operation tables of its inputs and writes the
# whole product table by one loop over the pair carrier; inverses are found
# by scanning for the element that multiplies to the identity.


def _inverse_by_scan(mul, n, one):
    return tuple(next(b for b in range(n) if mul[a * n + b] == one) for a in range(n))


def group_sdp_tables(N, B, phi):
    """(k1,y1)(k2,y2) = (k1 phi_y1(k2), y1 y2), pairs encoded k*|B| + y."""
    nm, bm = N.table("m"), B.table("m")
    nn, nb = N.size, B.size
    n = nn * nb
    mul = tuple(
        nm[k1 * nn + phi[y1][k2]] * nb + bm[y1 * nb + y2]
        for k1 in range(nn)
        for y1 in range(nb)
        for k2 in range(nn)
        for y2 in range(nb)
    )
    one = N.table("e")[0] * nb + B.table("e")[0]
    return (mul, _inverse_by_scan(mul, n, one), (one,))


def first_group_condition_failure(N, B, g, h):
    """(condition, witness) of the first failure of the group conditions
    (1)-(3) on the tables g[(b1, b2)] and h[b], or None: one closure call
    and one dict lookup per table read, in the library's scan order."""
    bm, bi = B.table("m"), B.table("i")
    nn, nb = N.size, B.size
    one_n, one_b = N.table("e")[0], B.table("e")[0]

    def gv(b1, b2, n1, n2):
        return g[(b1, b2)][n1 * nn + n2]

    for b1, b2, b3 in product(range(nb), repeat=3):
        b12, b23 = bm[b1 * nb + b2], bm[b2 * nb + b3]
        for n1, n2, n3 in product(range(nn), repeat=3):
            if gv(b12, b3, gv(b1, b2, n1, n2), n3) != gv(b1, b23, n1, gv(b2, b3, n2, n3)):
                return "1", (b1, b2, b3, n1, n2, n3)
    for b in range(nb):
        for n in range(nn):
            if gv(one_b, b, one_n, n) != n:
                return "2", (b, n)
    for b in range(nb):
        for n in range(nn):
            if gv(bi[b], b, h[b][n], n) != one_n:
                return "3", (b, n)
    return None


def ring_sdp_tables(K, S, lam, rho):
    """(k1,s1)+(k2,s2) componentwise and
    (k1,s1)(k2,s2) = (k1k2 + lam_s1(k2) + rho_s2(k1), s1s2), encoded k*|S| + s."""
    ka, kn, km = K.table("add"), K.table("neg"), K.table("mul")
    sa, sn, sm = S.table("add"), S.table("neg"), S.table("mul")
    nk, ns = K.size, S.size
    pairs = [(k, s) for k in range(nk) for s in range(ns)]
    add = tuple(
        ka[k1 * nk + k2] * ns + sa[s1 * ns + s2] for k1, s1 in pairs for k2, s2 in pairs
    )
    neg = tuple(kn[k] * ns + sn[s] for k, s in pairs)
    zero = (K.table("zero")[0] * ns + S.table("zero")[0],)
    mul = tuple(
        ka[ka[km[k1 * nk + k2] * nk + lam[s1][k2]] * nk + rho[s2][k1]] * ns + sm[s1 * ns + s2]
        for k1, s1 in pairs
        for k2, s2 in pairs
    )
    return (add, neg, zero, mul)


def heap_outer_tables(Y, K, alpha, y0):
    """[(k1,y1),(k2,y2),(k3,y3)] = ([k1, a_w(k2), a_w(k3)], [y1,y2,y3]) with
    w = [y1,y2,y0], encoded k*|Y| + y."""
    yt, kt = Y.tables[0], K.tables[0]
    ny, nk = Y.size, K.size
    pairs = [(k, y) for k in range(nk) for y in range(ny)]
    table = []
    for k1, y1 in pairs:
        for k2, y2 in pairs:
            for k3, y3 in pairs:
                a = alpha[yt[(y1 * ny + y2) * ny + y0]]
                k = kt[(k1 * nk + a[k2]) * nk + a[k3]]
                table.append(k * ny + yt[(y1 * ny + y2) * ny + y3])
    return (tuple(table),)


def digroup_outer_tables(Y, K, phi_star, phi_circ, Lambda):
    """(y,k) * (y',k') = (y*y', Lam_{y*y'}^-1(phi_*y'(Lam_y(k)) * Lam_y'(k')))
    and (y,k) o (y',k') = (y o y', phi_oy'(k) o k'), encoded y*|K| + k."""
    ys, yc = Y.table("star"), Y.table("circ")
    ks, kc = K.table("star"), K.table("circ")
    ny, nk = Y.size, K.size
    n = ny * nk
    lam_inv = []
    for perm in Lambda:
        inv = [0] * nk
        for i, v in enumerate(perm):
            inv[v] = i
        lam_inv.append(inv)
    pairs = [(y, k) for y in range(ny) for k in range(nk)]
    star, circ = [], []
    for y1, k1 in pairs:
        for y2, k2 in pairs:
            yy = ys[y1 * ny + y2]
            kk = ks[phi_star[y2][Lambda[y1][k1]] * nk + Lambda[y2][k2]]
            star.append(yy * nk + lam_inv[yy][kk])
            circ.append(yc[y1 * ny + y2] * nk + kc[phi_circ[y2][k1] * nk + k2])
    one = Y.table("one")[0] * nk + K.table("one")[0]
    star, circ = tuple(star), tuple(circ)
    return (star, _inverse_by_scan(star, n, one), circ, _inverse_by_scan(circ, n, one), (one,))


# -- identity checking, one assignment at a time ------------------------------
#
# Reads terms structurally (a variable has `index`, an application has
# `symbol` and `args`) and evaluates them by recursion over one assignment,
# with its own packing; nothing of the library's evaluator is used.


class WalkFault(Exception):
    """The first fault of a tree walk, by kind: `missing` (a variable past
    the assignment), `symbol` (a symbol the algebra lacks), `arity` (a
    symbol applied to the wrong number of arguments) or `index` (an index
    past a table, from a value outside the carrier)."""


def _oracle_eval(t, ops, n, assignment):
    # a node is checked before its arguments, its table read after them
    if hasattr(t, "index"):
        if t.index >= len(assignment):
            raise WalkFault("missing")
        return assignment[t.index]
    if t.symbol not in ops:
        raise WalkFault("symbol")
    arity, table = ops[t.symbol]
    if arity != len(t.args):
        raise WalkFault("arity")
    idx = 0
    for a in t.args:
        idx = idx * n + _oracle_eval(a, ops, n, assignment)
    if idx >= len(table):
        raise WalkFault("index")
    return table[idx]


def tree_walk(t, A, assignment):
    """The value of t under one assignment of non-negative ints, or the
    WalkFault of the first fault met, walking the tree in order."""
    ops = {
        sym: (arity, table) for (sym, arity), table in zip(A.signature.symbols, A.tables)
    }
    return _oracle_eval(t, ops, A.size, assignment)


def first_identity_failure(A, V):
    """None if A satisfies every identity and quasi condition of V, else
    (identity, assignment, lhs value, rhs value, quasi) for the first failure:
    identities in definition order, then quasi conditions, each over its
    assignments in lexicographic order."""
    ops = {
        sym: (arity, table) for (sym, arity), table in zip(A.signature.symbols, A.tables)
    }
    for quasi, identities in ((False, V.identities), (True, V.quasi_conditions)):
        for ident in identities:
            for assignment in product(range(A.size), repeat=ident.var_count):
                left = _oracle_eval(ident.lhs, ops, A.size, assignment)
                right = _oracle_eval(ident.rhs, ops, A.size, assignment)
                if left != right:
                    return ident, assignment, left, right, quasi
    return None


# -- the functor of an outer product, one point at a time ---------------------
#
# Reads an outer product only through its base tables, its fibers and its
# action tables (`F.family.base`, `F.family.fibers`, `F.actions.maps`), and
# composes action tables pointwise by recursion over the term. Points of a
# fiber product are enumerated by `itertools.product`, in the row-major order
# the library's flat tables use; nothing of the library's evaluator or
# packers is used.


def fiber_points(F, elements):
    """The points of the product of the fibers over `elements`, in order."""
    return list(product(*(range(F.family.fibers[a][0]) for a in elements)))


def functor_table(F, elements, t):
    """(table, base value) of F(t) on the fiber product over `elements`:
    entry j is the position, in the fiber over t's base value, of the
    composite of action tables at the j-th point."""
    base, fibers = F.family.base, F.family.fibers
    ops = {sym: table for (sym, _), table in zip(base.signature.symbols, base.tables)}
    actions = dict(F.actions.maps)

    def at(t, point):
        if hasattr(t, "index"):
            return elements[t.index], point[t.index]
        args = [at(a, point) for a in t.args]
        idx = jdx = 0
        for b, i in args:
            idx = idx * base.size + b
            jdx = jdx * fibers[b][0] + i
        return ops[t.symbol][idx], actions[(t.symbol, tuple(b for b, _ in args))][jdx]

    values = [at(t, point) for point in fiber_points(F, elements)]
    return tuple(i for _, i in values), values[0][0]


def commuting_squares(F, G, maps):
    """Does G's action after the fiber maps equal the fiber map after F's
    action, for every symbol, base tuple and point of its fiber product?"""
    base = F.family.base
    f_actions, g_actions = dict(F.actions.maps), dict(G.actions.maps)
    for (sym, arity), table in zip(base.signature.symbols, base.tables):
        for bs in product(range(base.size), repeat=arity):
            idx = 0
            for b in bs:
                idx = idx * base.size + b
            target = table[idx]
            for j, point in enumerate(fiber_points(F, bs)):
                k = 0
                for b, i in zip(bs, point):
                    k = k * G.family.fibers[b][0] + maps[b][i]
                if g_actions[(sym, bs)][k] != maps[target][f_actions[(sym, bs)][j]]:
                    return False
    return True


# -- substructures by closing and scanning every subset -----------------------
#
# Subsets come from one bitmask scan, in mask order. Each structure has its
# own closure test; nothing of the library's closure or subset code is used.


def _subsets(n):
    """Every subset of {0..n-1} as a frozenset, the empty one first."""
    return [frozenset(i for i in range(n) if mask >> i & 1) for mask in range(2**n)]


def _by_size(S):
    return len(S), sorted(S)


def fixpoint_closure(A, seed):
    """Least superset of `seed` that holds every constant and is closed under
    every operation: add each value at every tuple of members until a round
    adds nothing."""
    current = set(seed)
    changed = True
    while changed:
        changed = False
        for (_, arity), table in zip(A.signature.symbols, A.tables):
            for args in product(sorted(current), repeat=arity):
                value = table[_flat(args, A.size)]
                if value not in current:
                    current.add(value)
                    changed = True
    return frozenset(current)


def closed_subsets(A):
    """Every nonempty subset that its fixpoint closure leaves as it is,
    ordered by size, then by sorted members."""
    return sorted((S for S in _subsets(A.size)[1:] if fixpoint_closure(A, S) == S), key=_by_size)


def brute_force_normal_subheaps(X):
    """Every nonempty S closed under t with [[x,e,s],x,e] in S for every x of
    X and e, s in S, by scanning all subsets, ordered like `closed_subsets`."""
    n, table = X.size, X.tables[0]

    def t(a, b, c):
        return table[(a * n + b) * n + c]

    found = [
        S
        for S in _subsets(n)[1:]
        if all(t(a, b, c) in S for a in S for b in S for c in S)
        and all(t(t(x, e, s), x, e) in S for x in range(n) for e in S for s in S)
    ]
    return sorted(found, key=_by_size)


def brute_force_ideals(A):
    """Every ideal of the digroup A (signature star, star_inv, circ,
    circ_inv, one) by scanning all subsets: a subset holding the identity,
    closed under both products and both inverses, normal in both groups,
    with a * I = a o I for every a; ordered like `closed_subsets`."""
    n = A.size
    ops = {sym: table for (sym, _), table in zip(A.signature.symbols, A.tables)}
    star, sinv, circ, cinv = ops["star"], ops["star_inv"], ops["circ"], ops["circ_inv"]
    one = ops["one"][0]

    def closed(S):
        return (
            one in S
            and all(star[a * n + b] in S and circ[a * n + b] in S for a in S for b in S)
            and all(sinv[a] in S and cinv[a] in S for a in S)
        )

    def normal(S, mul, inv):
        return all(mul[mul[g * n + s] * n + inv[g]] in S for g in range(n) for s in S)

    def cosets_match(S):
        return all({star[a * n + i] for i in S} == {circ[a * n + i] for i in S} for a in range(n))

    found = [
        S
        for S in _subsets(n)
        if closed(S) and normal(S, star, sinv) and normal(S, circ, cinv) and cosets_match(S)
    ]
    return sorted(found, key=_by_size)


# -- action laws, one composition at a time -----------------------------------
#
# The loops the group, digroup and heap modules ran before they shared one
# action test: compose two or three rows pointwise for every tuple of base
# elements and compare with the row of the product.


def is_automorphism_by_scan(row, A):
    """Is `row` a bijection of A's carrier that `_is_hom` accepts?"""
    return len(set(row)) == A.size and _is_hom(A, row)


def multiplicative_by_loops(rows, mul, n):
    """rows[y1 y2] == rows[y1] o rows[y2] for all y1, y2 of a base with
    binary table `mul` on n elements."""
    for y1 in range(n):
        for y2 in range(n):
            composed = tuple(rows[y1][rows[y2][k]] for k in range(len(rows[y2])))
            if composed != tuple(rows[mul[y1 * n + y2]]):
                return False
    return True


def antimultiplicative_by_loops(rows, mul, n):
    """rows[y1 y2] == rows[y2] o rows[y1] for all y1, y2."""
    for y1 in range(n):
        for y2 in range(n):
            composed = tuple(rows[y2][rows[y1][k]] for k in range(len(rows[y1])))
            if composed != tuple(rows[mul[y1 * n + y2]]):
                return False
    return True


def heap_morphism_by_loops(rows, t, n):
    """rows[t(y1, y2, y3)] == rows[y1] o rows[y2]^-1 o rows[y3] for all
    y1, y2, y3, for rows that are permutations; the inverse is found by
    scanning."""
    for y1, y2, y3 in product(range(n), repeat=3):
        g = rows[y2]
        composed = tuple(rows[y1][g.index(v)] for v in rows[y3])
        if composed != tuple(rows[t[(y1 * n + y2) * n + y3]]):
            return False
    return True


# -- skew braces by their defining formulas -----------------------------------
#
# A digroup is read through its tables (star, star_inv, circ, circ_inv, one);
# ideals are closed by adding every product, inverse, conjugate and lambda
# image until a round adds nothing.


def _digroup_ops(A):
    ops = {sym: table for (sym, _), table in zip(A.signature.symbols, A.tables)}
    n = A.size

    def star(a, b):
        return ops["star"][a * n + b]

    def circ(a, b):
        return ops["circ"][a * n + b]

    return star, ops["star_inv"].__getitem__, circ, ops["circ_inv"].__getitem__, ops["one"][0]


def lsb_witness_by_loops(A):
    """The first (a, b, c) in lexicographic order with
    a o (b * c) != (a o b) * a^-* * (a o c), or None."""
    star, sinv, circ, _, _ = _digroup_ops(A)
    for a, b, c in product(range(A.size), repeat=3):
        if circ(a, star(b, c)) != star(star(circ(a, b), sinv(a)), circ(a, c)):
            return (a, b, c)
    return None


def fixpoint_brace_ideal(A, X):
    """Least ideal holding X: close X and the identity under both products,
    both inverses, both conjugations and every lambda_g(s) = g^-* * (g o s)."""
    star, sinv, circ, cinv, one = _digroup_ops(A)
    current = set(X) | {one}
    while True:
        fresh = set()
        for s in current:
            fresh.update(star(s, t) for t in current)
            fresh.update(circ(s, t) for t in current)
            fresh.update((sinv(s), cinv(s)))
            for g in range(A.size):
                fresh.add(star(star(g, s), sinv(g)))
                fresh.add(circ(circ(g, s), cinv(g)))
                fresh.add(star(sinv(g), circ(g, s)))
        if fresh <= current:
            return frozenset(current)
        current |= fresh


def brace_commutator_by_fixpoint(A, I, J):
    """The fixpoint ideal of both group commutators of I and J and the
    mixed elements (i o j)^-* * i * j."""
    star, sinv, circ, cinv, _ = _digroup_ops(A)
    gens = set()
    for i in I:
        for j in J:
            gens.add(star(star(star(sinv(i), sinv(j)), i), j))
            gens.add(circ(circ(circ(cinv(i), cinv(j)), i), j))
            gens.add(star(star(sinv(circ(i, j)), i), j))
    return fixpoint_brace_ideal(A, gens)


def brace_center_by_scan(A):
    """Every z commuting with all a in both products, where a * z = a o z."""
    star, _, circ, _, _ = _digroup_ops(A)
    return frozenset(
        z
        for z in range(A.size)
        if all(
            star(a, z) == star(z, a) and circ(a, z) == circ(z, a) and star(a, z) == circ(a, z)
            for a in range(A.size)
        )
    )


def reflection_ideal_by_fixpoint(A):
    """The fixpoint ideal of every defect (a o b) * a^-* * (a o c) * (a o (b*c))^-*."""
    star, sinv, circ, _, _ = _digroup_ops(A)
    defects = set()
    for a, b, c in product(range(A.size), repeat=3):
        lhs = circ(a, star(b, c))
        rhs = star(star(circ(a, b), sinv(a)), circ(a, c))
        defects.add(star(rhs, sinv(lhs)))
    return fixpoint_brace_ideal(A, defects)


# -- group data of an inner decomposition, coset by coset ---------------------


def coset_group_tables(G, K, Y):
    """(g, h) of G = K x| Y transported along n -> nb, with K and Y indexed
    by their sorted members: g[(i1, i2)] is the flat |K|x|K| table of
    (n1 b1)(n2 b2)(b1 b2)^-1 and h[i] the table of (n b)^-1 b, read from the
    group tables (m, i, e) of G."""
    n = G.size
    mul, inv = G.tables[0], G.tables[1]

    def m(a, b):
        return mul[a * n + b]

    ks, ys = sorted(K), sorted(Y)
    pos_k = {k: i for i, k in enumerate(ks)}
    g = {}
    for i1, b1 in enumerate(ys):
        for i2, b2 in enumerate(ys):
            b12_inv = inv[m(b1, b2)]
            g[(i1, i2)] = tuple(
                pos_k[m(m(m(n1, b1), m(n2, b2)), b12_inv)] for n1 in ks for n2 in ks
            )
    h = [tuple(pos_k[m(inv[m(k, b)], b)] for k in ks) for b in ys]
    return g, h


# -- table builders, one argument tuple at a time ------------------------------
#
# The per-tuple forms of the library's relabelling, quotient, product and
# union builders: each table entry is read and written at the flat index of
# its own argument tuple.


def subalgebra_tables(A, subset):
    """A's tables on the sorted members of `subset`, relabelled to
    0..k-1, or None when some value falls outside the subset."""
    members = sorted(subset)
    pos = {x: i for i, x in enumerate(members)}
    tables = []
    for (_, arity), table in zip(A.signature.symbols, A.tables):
        out = []
        for args in product(range(len(members)), repeat=arity):
            v = table[_flat([members[i] for i in args], A.size)]
            if v not in pos:
                return None
            out.append(pos[v])
        tables.append(tuple(out))
    return tuple(tables)


def quotient_tables(A, rep):
    """(tables on the blocks, projection) for the least-member labelling
    `rep`, blocks numbered by least element, or None when some operation
    is not well defined on blocks."""
    n = A.size
    leasts = sorted(set(rep))
    proj = tuple(leasts.index(rep[a]) for a in range(n))
    k = len(leasts)
    tables = []
    for (_, arity), table in zip(A.signature.symbols, A.tables):
        induced = [None] * k**arity
        for args in product(range(n), repeat=arity):
            slot = _flat([proj[a] for a in args], k)
            value = proj[table[_flat(args, n)]]
            if induced[slot] is None:
                induced[slot] = value
            elif induced[slot] != value:
                return None
        tables.append(tuple(induced))
    return tuple(tables), proj


def product_tables(A, B):
    """The componentwise tables of A x B on pairs (a, b) = a*|B| + b."""
    nb = B.size
    tables = []
    for (_, arity), ta, tb in zip(A.signature.symbols, A.tables, B.tables):
        out = []
        for args in product(range(A.size * nb), repeat=arity):
            a = _flat([x // nb for x in args], A.size)
            b = _flat([x % nb for x in args], nb)
            out.append(ta[a] * nb + tb[b])
        tables.append(tuple(out))
    return tuple(tables)


def union_tables(base, fibers, maps):
    """The tables on the disjoint union of `fibers` ((size, basepoint) per
    base element), position i over b being the sum of the earlier sizes
    plus i, filled from `maps[(symbol, base tuple)]`."""
    offsets = [sum(size for size, _ in fibers[:b]) for b in range(base.size)]
    n = sum(size for size, _ in fibers)
    tables = []
    for (sym, arity), base_table in zip(base.signature.symbols, base.tables):
        table = [None] * n**arity
        for bs in product(range(base.size), repeat=arity):
            target = base_table[_flat(bs, base.size)]
            action = maps[(sym, bs)]
            positions = product(*(range(fibers[b][0]) for b in bs))
            for i, ps in enumerate(positions):
                args = [offsets[b] + p for b, p in zip(bs, ps)]
                table[_flat(args, n)] = offsets[target] + action[i]
        tables.append(tuple(table))
    return tuple(tables)


def fiber_major_tables(A, nb, nk):
    """A's tables, on b*nk + k, relabelled to k*nb + b."""
    old = [b * nk + k for k in range(nk) for b in range(nb)]
    new = {x: i for i, x in enumerate(old)}
    tables = []
    for (_, arity), table in zip(A.signature.symbols, A.tables):
        tables.append(tuple(
            new[table[_flat([old[x] for x in args], A.size)]]
            for args in product(range(A.size), repeat=arity)
        ))
    return tuple(tables)


def latin_square_group_tables(n: int) -> tuple[tuple[int, ...], ...]:
    """Every group Cayley table on {0..n-1} with identity 0.

    Backtracking over rows under the Latin-square constraint with row 0 and
    column 0 pinned to the identity permutation, followed by an associativity
    filter. Self-contained: no classification facts are used, so it checks
    the library's relabellings of the catalog's groups; it explodes past six
    elements.
    """
    if n == 1:
        return ((0,),)
    rows: list[tuple[int, ...]] = [tuple(range(n))]
    out: list[tuple[int, ...]] = []

    def place(r: int):
        if r == n:
            flat = tuple(v for row in rows for v in row)
            if all(
                flat[flat[a * n + b] * n + c] == flat[a * n + flat[b * n + c]]
                for a in range(1, n)
                for b in range(1, n)
                for c in range(1, n)
            ):
                out.append(flat)
            return
        used_cols = [{rows[i][c] for i in range(r)} for c in range(n)]

        def fill(row: list[int], c: int, used_row: set[int]):
            if c == n:
                rows.append(tuple(row))
                place(r + 1)
                rows.pop()
                return
            for v in range(n):
                if v in used_row or v in used_cols[c]:
                    continue
                row.append(v)
                used_row.add(v)
                fill(row, c + 1, used_row)
                row.pop()
                used_row.remove(v)

        fill([r], 1, {r})

    place(1)
    return tuple(out)
