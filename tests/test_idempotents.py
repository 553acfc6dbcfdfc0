"""Idempotent endomorphisms, found per congruence as the retractions onto one
representative per class that are homomorphisms, and the column-wise
homomorphism test, pinned to the map-by-map search and the tuple-by-tuple
check of `tests/oracles.py`."""

import os
import subprocess
import sys
from math import prod
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from oracles import _is_hom, backtracking_idempotents
from ualgebra import algebras
from ualgebra.algebras import FiniteAlgebra, is_homomorphism, product, quotient
from ualgebra.catalog import (
    chain_lattice,
    cyclic_group,
    groups_up_to_8,
    left_zero_semigroup,
    mult_semigroup,
    standard_corpus,
)
from ualgebra.congruences import all_congruences
from ualgebra.errors import SignatureMismatch, SizeLimitExceeded, SizeMismatch
from ualgebra.heaps import heap_from_group
from ualgebra.inner import CANDIDATE_LIMIT, idempotent_endomorphisms
from ualgebra.terms import Signature

TESTS = Path(__file__).resolve().parent


def algebra(n, arities, tables, name="random"):
    symbols = tuple((f"f{p}", k) for p, k in enumerate(arities))
    return FiniteAlgebra(name, Signature(symbols), n, tuple(tuple(t) for t in tables))


SMALL = (
    [A for A, _ in standard_corpus() if A.size <= 6]
    + [left_zero_semigroup(n) for n in range(1, 7)]
    + [chain_lattice(n) for n in range(1, 7)]
    + [mult_semigroup(n) for n in range(1, 7)]
    + [heap_from_group(G) for G in groups_up_to_8() if G.size <= 6]
    # null semigroups: every product is 0, so most retractions fail to fix 0
    + [algebra(n, [2], [[0] * n * n], name=f"null{n}") for n in range(1, 7)]
)


def idempotent_maps(A):
    return [e.map for e in idempotent_endomorphisms(A)]


@st.composite
def random_tables(draw, n, arities):
    top = draw(st.integers(0, n - 1))
    return [draw(st.lists(st.integers(0, top), min_size=n**k, max_size=n**k)) for k in arities]


@st.composite
def random_algebras(draw):
    """An algebra of order <= 5 with up to two constants and up to two
    operations of arity 1-3; small value ranges leave many maps homomorphic."""
    n = draw(st.integers(1, 5))
    arities = [0] * draw(st.integers(0, 2))
    arities += draw(st.lists(st.sampled_from([1, 2, 3]), min_size=0 if arities else 1, max_size=2))
    return algebra(n, arities, draw(random_tables(n, arities)))


@pytest.mark.parametrize("A", SMALL, ids=lambda A: A.name)
def test_idempotents_match_the_map_by_map_search(A):
    assert idempotent_maps(A) == backtracking_idempotents(A)


@settings(max_examples=200, deadline=None)
@given(A=random_algebras())
def test_idempotents_of_random_tables_match_the_map_by_map_search(A):
    assert idempotent_maps(A) == backtracking_idempotents(A)


def test_constants_in_one_block_leave_no_transversal():
    # constants 0 and 1 and f = (1, 1, 2): a kept retraction fixes both
    # constants, which are 0-ary operations, so no congruence joining 0 and 1
    # keeps one, and on {{0}, {1, 2}} only the representative 1 is kept
    A = algebra(3, [0, 0, 1], [[0], [1], [1, 1, 2]])
    found = idempotent_maps(A)
    assert found == backtracking_idempotents(A) == [(0, 1, 1), (0, 1, 2)]
    joined = [omega for omega in all_congruences(A) if omega.same(0, 1)]
    assert joined and not any(m[0] == m[1] for m in found)


def test_left_zero_semigroups_keep_every_candidate():
    # x * y = x: every self-map is a homomorphism, so each retraction is kept
    # and the count is that of idempotent self-maps (OEIS A000248); n = 8 is
    # CANDIDATE_LIMIT, the largest search that runs
    counts = [len(idempotent_endomorphisms(left_zero_semigroup(n))) for n in range(1, 9)]
    assert counts == [1, 3, 10, 41, 196, 1057, 6322, CANDIDATE_LIMIT]


@pytest.mark.parametrize(
    "A",
    [mult_semigroup(8), heap_from_group(next(G for G in groups_up_to_8() if G.name == "q8"))],
    ids=lambda A: A.name,
)
def test_each_candidate_is_tested_once(A, monkeypatch):
    # one retraction per congruence and choice of representatives, and one
    # homomorphism test per retraction: a kept map is never checked again
    congruences = all_congruences(A)
    candidates = sum(prod(len(block) for block in omega.blocks()) for omega in congruences)
    calls = []
    real = algebras.is_homomorphism

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(algebras, "is_homomorphism", counted)
    idempotent_endomorphisms.cache_clear()
    maps = idempotent_maps(A)
    assert len(calls) == candidates > len(maps)


# 9-12 elements: below the carrier cap, with answers inside both limits
LARGE = (
    [mult_semigroup(n) for n in range(9, 13)]
    + [cyclic_group(n) for n in (9, 10, 12)]
    + [heap_from_group(cyclic_group(n)) for n in (9, 12)]
    + [product(chain_lattice(3), chain_lattice(4)), chain_lattice(9)]
)


@pytest.mark.parametrize("A", LARGE, ids=lambda A: A.name)
def test_idempotents_of_9_to_12_elements_match_the_map_by_map_search(A):
    assert idempotent_maps(A) == backtracking_idempotents(A)


def candidates(A):
    return sum(prod(len(block) for block in omega.blocks()) for omega in all_congruences(A))


def test_the_candidate_limit_is_checked_before_any_candidate(monkeypatch):
    # the retractions of a chain are its interval partitions with a chosen
    # point per interval: Fibonacci numbers, F(22) = 17711 and F(24) = 46368
    assert candidates(chain_lattice(11)) == 17711 == len(idempotent_maps(chain_lattice(11)))
    A = chain_lattice(12)
    assert candidates(A) == 46368 > CANDIDATE_LIMIT
    calls = []
    monkeypatch.setattr(algebras, "is_homomorphism", lambda *args: calls.append(args))
    idempotent_endomorphisms.cache_clear()
    for _ in range(2):
        with pytest.raises(SizeLimitExceeded, match="^idempotent search capped at 41393 candidates$"):
            idempotent_endomorphisms(A)
    assert calls == []
    assert idempotent_endomorphisms.cache_info().currsize == 0


def test_the_congruence_limit_stops_the_search_first():
    # Con(left_zero_semigroup(9)) holds all Bell(9) = 21147 partitions
    message = "^congruence enumeration capped at 4140 congruences$"
    with pytest.raises(SizeLimitExceeded, match=message):
        idempotent_endomorphisms(left_zero_semigroup(9))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_is_homomorphism_matches_the_tuple_check_on_random_maps(data):
    A = data.draw(random_algebras())
    arities = [k for _, k in A.signature.symbols]
    m = data.draw(st.integers(1, 5))
    B = algebra(m, arities, data.draw(random_tables(m, arities)))
    mapping = tuple(data.draw(st.lists(st.integers(0, m - 1), min_size=A.size, max_size=A.size)))
    assert is_homomorphism(mapping, A, B) == _is_hom(A, mapping, B)
    # the projections onto the quotients are homomorphisms into smaller algebras
    for omega in all_congruences(A):
        Q, proj = quotient(A, omega)
        assert is_homomorphism(proj.map, A, Q) and _is_hom(A, proj.map, Q)
        if Q.size > 1:
            moved = tuple((v + 1) % Q.size for v in proj.map)
            assert is_homomorphism(moved, A, Q) == _is_hom(A, moved, Q)


def test_is_homomorphism_checks_the_signature_then_the_map():
    z4, z2 = cyclic_group(4), cyclic_group(2)
    with pytest.raises(SignatureMismatch):
        is_homomorphism((0, 1, 2), z4, chain_lattice(2))
    for bad in [(0, 1, 0), (0, 1, 0, 1, 0), (0, 1, 2, 3), (0, -1, 0, 1)]:
        with pytest.raises(SizeMismatch, match="map must send A's carrier into B's"):
            is_homomorphism(bad, z4, z2)
    assert is_homomorphism((0, 1, 0, 1), z4, z2)
    assert not is_homomorphism((0, 1, 1, 0), z4, z2)


OPTIMIZED_RUN = """
import sys
from oracles import backtracking_idempotents
from ualgebra.algebras import all_subalgebras
from ualgebra.catalog import groups_up_to_8, left_zero_semigroup, standard_corpus
from ualgebra.congruences import all_congruences
from ualgebra.heaps import heap_from_group
from ualgebra.inner import count_transversal_pairs, idempotent_endomorphisms

if not sys.flags.optimize:
    sys.exit("not run under -O")
corpus = [A for A, _ in standard_corpus() if A.size <= 5] + [left_zero_semigroup(4)]
corpus += [heap_from_group(G) for G in groups_up_to_8() if G.size <= 4]
for A in corpus:
    maps = [e.map for e in idempotent_endomorphisms(A)]
    pairs = count_transversal_pairs(A, all_subalgebras(A), all_congruences(A))
    if maps != backtracking_idempotents(A) or len(maps) != pairs:
        sys.exit(f"mismatch on {A.name}")
print("agree", len(corpus))
"""


def test_idempotents_agree_with_the_oracles_under_python_O():
    path = os.pathsep.join([str(TESTS.parent / "src"), str(TESTS)])
    env = dict(os.environ, PYTHONPATH=path)
    run = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_RUN],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.split()[0] == "agree"
