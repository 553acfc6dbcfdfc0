from collections import Counter
from math import factorial

import pytest

from oracles import latin_square_group_tables
from ualgebra.algebras import find_isomorphism, is_isomorphic
from ualgebra.catalog import (
    all_group_tables,
    cyclic_group,
    dihedral_group,
    group_algebra_from_table,
    groups_up_to_8,
    klein_group,
    quaternion_group,
    symmetric_group_s3,
)
from ualgebra.errors import AxiomFailure, SizeLimitExceeded, SizeMismatch
from ualgebra.varieties import REGISTRY, check_identities


def test_catalog_groups_pass_the_group_identities():
    for G in groups_up_to_8():
        assert check_identities(G, REGISTRY["group"]).passes, G.name


def test_catalog_groups_are_pairwise_non_isomorphic():
    groups = groups_up_to_8()
    for i, A in enumerate(groups):
        for B in groups[i + 1 :]:
            if A.size != B.size:
                continue
            assert find_isomorphism(A, B) is None, (A.name, B.name)


def test_dihedral_and_quaternion_are_the_expected_groups():
    d4 = dihedral_group(4)
    q8 = quaternion_group()
    assert not check_identities(d4, REGISTRY["abelian_group"]).passes
    assert not check_identities(q8, REGISTRY["abelian_group"]).passes
    assert is_isomorphic(dihedral_group(3), symmetric_group_s3())


def test_groups_up_to_8_has_one_group_per_isomorphism_class():
    # the classification the table enumeration rests on: 1, 1, 1, 2, 1, 2,
    # 1, 5 groups of orders 1..8 (pairwise non-isomorphic, tested above)
    sizes = Counter(G.size for G in groups_up_to_8())
    assert [sizes[n] for n in range(1, 9)] == [1, 1, 1, 2, 1, 2, 1, 5]


@pytest.mark.parametrize("n", range(1, 7))
def test_all_group_tables_match_the_latin_square_search(n):
    assert all_group_tables(n) == latin_square_group_tables(n)


def test_all_group_tables_counts_match_the_orbit_formula():
    # tables with identity 0 on an n-set: sum over isomorphism classes of
    # (n-1)!/|Aut|; Aut sizes: Z2:1, Z3:2, Z4:2, V4:6, Z5:4, Z6:2, S3:6,
    # Z7:6, Z8:4, Z2xZ4:8, Z2^3:168, D4:8, Q8:24
    expected = {
        1: 1,
        2: 1,
        3: factorial(2) // 2,
        4: factorial(3) // 2 + factorial(3) // 6,
        5: factorial(4) // 4,
        6: factorial(5) // 2 + factorial(5) // 6,
        7: factorial(6) // 6,
        8: sum(factorial(7) // a for a in (4, 8, 168, 8, 24)),
    }
    assert expected[8] == 2760
    for n, count in expected.items():
        assert len(all_group_tables(n)) == count


def test_all_group_tables_stop_at_the_catalogs_largest_order():
    with pytest.raises(SizeLimitExceeded):
        all_group_tables(9)


def test_all_group_tables_really_are_groups():
    # `all_digroups` joins these tables without checking the digroup axioms,
    # so every one of them, the 2,760 of order 8 included, is checked here
    for n in range(1, 9):
        for i, table in enumerate(all_group_tables(n)):
            G = group_algebra_from_table(table, f"t{n}_{i}")
            assert check_identities(G, REGISTRY["group"]).passes
            assert G.table("e")[0] == 0


def test_all_group_tables_iso_class_split():
    # of the four tables on a 4-set, three are cyclic and one is the
    # four-group; on a 6-set, sixty are cyclic and twenty symmetric
    def split(n, kinds):
        return Counter(
            next(name for name, G in kinds if is_isomorphic(group_algebra_from_table(t, "x"), G))
            for t in all_group_tables(n)
        )

    assert split(4, [("z4", cyclic_group(4)), ("v4", klein_group())]) == {"z4": 3, "v4": 1}
    assert split(6, [("z6", cyclic_group(6)), ("s3", symmetric_group_s3())]) == {
        "z6": 60,
        "s3": 20,
    }


@pytest.mark.parametrize(
    "table, error, message",
    [
        ((0, 1, 1, 1), AxiomFailure, "element 1 has no right inverse"),
        ((1, 1, 1, 1), AxiomFailure, "no two-sided identity"),
        ((0, 1, 1), SizeMismatch, "a table of 3 entries is not n x n"),
    ],
)
def test_group_algebra_from_table_refuses_a_table_that_is_no_group(table, error, message):
    with pytest.raises(error, match=message):
        group_algebra_from_table(table, "x")


def test_group_algebra_from_table_reads_identity_and_inverses_off_the_table():
    # x * y = x + y + 1 mod 3: identity 2, and 0 and 1 inverse to each other
    table = tuple((a + b + 1) % 3 for a in range(3) for b in range(3))
    assert group_algebra_from_table(table, "x").tables == (table, (1, 0, 2), (2,))
