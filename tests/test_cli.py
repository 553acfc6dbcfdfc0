import ast
import contextlib
import io
import os
import random
import subprocess
import sys
from pathlib import Path
from string import Template

import pytest
from hypothesis import given, seed, settings, strategies as st

from ualgebra import cli, congruences, digroups, heaps, varieties
from ualgebra.algebras import emit_algebra, parse_algebras, parse_uint
from ualgebra.catalog import (
    chain_lattice,
    cyclic_group,
    left_zero_semigroup,
    subtraction_algebra,
    symmetric_group_s3,
)
from ualgebra.cli import main
from ualgebra.digroups import trivial_digroup
from ualgebra.envcat import FIBER_BLOCK_LIMIT
from ualgebra.errors import InternalInconsistency, ParseError
from ualgebra.groups import group_data_from_action, group_data_to_family
from ualgebra.heaps import heap_from_group
from ualgebra.outer import emit_action_file
from ualgebra.varieties import REGISTRY, emit_variety


@pytest.fixture()
def workspace(tmp_path):
    files = {}
    algs = tmp_path / "algebras.alg"
    algs.write_text(
        emit_algebra(cyclic_group(4))
        + emit_algebra(symmetric_group_s3())
        + emit_algebra(cyclic_group(2))
        + emit_algebra(cyclic_group(3))
    )
    files["algs"] = algs
    bad = tmp_path / "nonassoc.alg"
    bad.write_text(emit_algebra(subtraction_algebra(3)))
    files["bad"] = bad
    heap = tmp_path / "heap.alg"
    heap.write_text(emit_algebra(heap_from_group(cyclic_group(4)).rename("hz4")))
    files["heap"] = heap
    dg = tmp_path / "digroup.alg"
    dg.write_text(emit_algebra(trivial_digroup(symmetric_group_s3(), "dgs3").algebra))
    files["dg"] = dg
    data = group_data_from_action(cyclic_group(3), cyclic_group(2), ((0, 1, 2), (0, 2, 1)))
    family, actions = group_data_to_family(data)
    act = tmp_path / "s3build.act"
    act.write_text(emit_action_file(family, actions, f"{algs}#z2"))
    files["act"] = act
    return files


def test_check_passes(workspace, capsys):
    code = main(["check", f"{workspace['algs']}#z4", "--variety", "group"])
    assert code == 0
    assert "passes" in capsys.readouterr().out


def test_check_fails_with_witness(workspace, capsys):
    code = main(["check", f"{workspace['bad']}#sub3", "--variety", "semigroup"])
    assert code == 1
    out = capsys.readouterr().out
    assert "(0, 0, 1)" in out


def test_check_unknown_variety_is_input_error(workspace, capsys):
    code = main(["check", f"{workspace['algs']}#z4", "--variety", "nope"])
    assert code == 2
    assert capsys.readouterr().err == "error: unknown variety 'nope'\n"


def test_workspace_reference_errors_carry_no_position(workspace, tmp_path, capsys):
    from ualgebra.varieties import REGISTRY, emit_variety

    algs = workspace["algs"]
    v = tmp_path / "v.var"
    v.write_text(emit_variety(REGISTRY["group"]))
    cases = [
        ([f"{algs}#nosuch", "--variety", "group"], f"no algebra 'nosuch' in {algs}"),
        ([str(algs), "--variety", "group"], f"reference {str(algs)!r} needs the form <file>#<name>"),
        ([f"{algs}#z4", "--variety", f"{v}#nosuch"], f"no variety 'nosuch' in {v}"),
    ]
    for args, message in cases:
        assert main(["check", *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


def test_idempotents_output(workspace, capsys):
    code = main(["idempotents", f"{workspace['algs']}#z4"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "2"
    assert lines[1] == "0 0 0 0"
    assert lines[2] == "0 1 2 3"


def test_congruences_output(workspace, capsys):
    code = main(["congruences", f"{workspace['algs']}#z4"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "3"
    assert "{{0,2},{1,3}}" in lines


def test_decompose_report(workspace, capsys):
    code = main(
        [
            "decompose",
            f"{workspace['algs']}#s3",
            "--B",
            "0,1",
            "--omega",
            "{{0,3,4},{1,2,5}}",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("True") == 6


def test_decompose_failing_exit_code(workspace, capsys):
    code = main(
        [
            "decompose",
            f"{workspace['algs']}#z4",
            "--B",
            "0,2",
            "--omega",
            "{{0,2},{1,3}}",
        ]
    )
    assert code == 1


def test_outer_echoes_parseable_algebra(workspace, capsys):
    code = main(["outer", "--action", str(workspace["act"]), "--variety", "group"])
    assert code == 0
    out = capsys.readouterr().out
    parsed = parse_algebras(out)["outer"]
    assert parsed.size == 6
    assert emit_algebra(parsed) == out


def test_outer_accepts_constant_fiber_syntax(workspace, tmp_path, capsys):
    lines = [
        "action",
        f"base {workspace['algs']}#z2",
        "fiber * 3 0",
    ]
    data = group_data_from_action(cyclic_group(3), cyclic_group(2), ((0, 1, 2), (0, 2, 1)))
    family, actions = group_data_to_family(data)
    for (sym, bs), table in actions.maps:
        lines.append(f"map {sym} ({','.join(map(str, bs))})")
        lines.append(" ".join(map(str, table)))
    lines.append("end")
    act = tmp_path / "const.act"
    act.write_text("\n".join(lines) + "\n")
    assert main(["outer", "--action", str(act), "--variety", "group"]) == 0
    parsed = parse_algebras(capsys.readouterr().out)["outer"]
    assert parsed.size == 6


def test_outer_is_deterministic(workspace, capsys):
    main(["outer", "--action", str(workspace["act"]), "--variety", "group"])
    first = capsys.readouterr().out
    main(["outer", "--action", str(workspace["act"]), "--variety", "group"])
    assert capsys.readouterr().out == first


def test_group_sdp(workspace, tmp_path, capsys):
    phi = tmp_path / "phi.map"
    phi.write_text("phi 0\n0 1 2\nphi 1\n0 2 1\n")
    code = main(
        [
            "group-sdp",
            "--N",
            f"{workspace['algs']}#z3",
            "--B",
            f"{workspace['algs']}#z2",
            "--phi",
            str(phi),
        ]
    )
    assert code == 0
    parsed = parse_algebras(capsys.readouterr().out)
    (G,) = parsed.values()
    assert G.size == 6


def test_digroup_sdp(workspace, tmp_path, capsys):
    dgfile = tmp_path / "small.alg"
    dgfile.write_text(
        emit_algebra(trivial_digroup(cyclic_group(2), "y2").algebra)
        + emit_algebra(trivial_digroup(cyclic_group(3), "k3").algebra)
    )
    maps = tmp_path / "maps.map"
    maps.write_text(
        "phistar 0\n0 1 2\nphistar 1\n0 2 1\n"
        "phicirc 0\n0 1 2\nphicirc 1\n0 2 1\n"
        "lambda 0\n0 1 2\nlambda 1\n0 1 2\n"
    )
    code = main(
        [
            "digroup-sdp",
            "--Y",
            f"{dgfile}#y2",
            "--K",
            f"{dgfile}#k3",
            "--maps",
            str(maps),
        ]
    )
    assert code == 0
    parsed = parse_algebras(capsys.readouterr().out)["outer_digroup"]
    assert parsed.size == 6


def test_ring_sdp(tmp_path, capsys):
    from ualgebra.catalog import cyclic_ring

    rings = tmp_path / "rings.alg"
    rings.write_text(emit_algebra(cyclic_ring(2)))
    maps = tmp_path / "maps.map"
    maps.write_text("lambda 0\n0 0\nlambda 1\n0 1\nrho 0\n0 0\nrho 1\n0 1\n")
    code = main(
        [
            "ring-sdp",
            "--K",
            f"{rings}#zring2",
            "--S",
            f"{rings}#zring2",
            "--maps",
            str(maps),
        ]
    )
    assert code == 0
    parsed = parse_algebras(capsys.readouterr().out)
    (R,) = parsed.values()
    assert R.size == 4


def ring_sdp_over_z2(tmp_path, maps_text):
    from ualgebra.catalog import cyclic_ring

    rings = tmp_path / "rings.alg"
    rings.write_text(emit_algebra(cyclic_ring(2)))
    maps = tmp_path / "maps.map"
    maps.write_text(maps_text)
    return main(
        ["ring-sdp", "--K", f"{rings}#zring2", "--S", f"{rings}#zring2", "--maps", str(maps)]
    )


def test_ring_sdp_missing_lambda_block_is_input_error(tmp_path, capsys):
    assert ring_sdp_over_z2(tmp_path, "lambda 0\n0 0\nrho 0\n0 0\nrho 1\n0 1\n") == 2
    assert capsys.readouterr().err == f"error: {tmp_path / 'maps.map'}: no 'lambda 1' table\n"


def test_ring_sdp_out_of_range_entry_is_input_error(tmp_path, capsys):
    maps = "lambda 0\n0 0\nlambda 1\n0 5\nrho 0\n0 0\nrho 1\n0 1\n"
    assert ring_sdp_over_z2(tmp_path, maps) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "maps_text, line, token",
    [
        ("lambda x\n0 0\n", 1, "x"),
        ("lambda 0\n0 0\nlambda 1\n0 1.0\nrho 0\n0 0\nrho 1\n0 1\n", 4, "1.0"),
    ],
    ids=["header", "table"],
)
def test_map_file_bad_integer_is_a_parse_error_at_its_line(tmp_path, capsys, maps_text, line, token):
    assert ring_sdp_over_z2(tmp_path, maps_text) == 2
    assert capsys.readouterr().err == f"error: {tmp_path / 'maps.map'}:{line}:0: bad integer {token!r}\n"


def test_group_sdp_missing_phi_block_is_input_error(workspace, tmp_path, capsys):
    phi = tmp_path / "phi.map"
    phi.write_text("phi 0\n0 1 2\n")
    code = main(
        [
            "group-sdp",
            "--N",
            f"{workspace['algs']}#z3",
            "--B",
            f"{workspace['algs']}#z2",
            "--phi",
            str(phi),
        ]
    )
    assert code == 2
    assert capsys.readouterr().err == f"error: {phi}: no 'phi 1' table\n"


@pytest.mark.parametrize(
    "phi_text, error",
    [
        # a second block would replace the first, and build Z3 x Z2
        ("phi 0\n0 1 2\nphi 1\n0 2 1\nphi 1\n0 1 2\n", "{phi}:5:0: repeated map for phi 1"),
        # a block for no element of the base would be ignored
        ("phi 0\n0 1 2\nphi 1\n0 2 1\nphi 7\n0 1 2\n", "{phi}: 'phi 7' table past the carrier of 2 elements"),
    ],
    ids=["repeated", "past-the-carrier"],
)
def test_group_sdp_phi_blocks_name_each_base_element_once(workspace, tmp_path, capsys, phi_text, error):
    phi = tmp_path / "phi.map"
    phi.write_text(phi_text)
    algs = workspace["algs"]
    assert main(["group-sdp", "--N", f"{algs}#z3", "--B", f"{algs}#z2", "--phi", str(phi)]) == 2
    assert capsys.readouterr() == ("", f"error: {error.format(phi=phi)}\n")


def test_brace_check(workspace, capsys):
    code = main(["brace", "check", f"{workspace['dg']}#dgs3"])
    assert code == 0
    assert "True" in capsys.readouterr().out


def test_brace_commutator_and_center(workspace, capsys):
    code = main(
        ["brace", "commutator", f"{workspace['dg']}#dgs3", "--I", "0,1,2,3,4,5", "--J", "0,1,2,3,4,5"]
    )
    assert code == 0
    assert capsys.readouterr().out.strip() == "{0,3,4}"
    code = main(["brace", "center", f"{workspace['dg']}#dgs3"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "{0}"


def test_heap_check_and_convert(workspace, capsys):
    code = main(["heap", "check", f"{workspace['heap']}#hz4"])
    assert code == 0
    capsys.readouterr()
    code = main(["heap", "convert", f"{workspace['heap']}#hz4", "--basepoint", "2"])
    assert code == 0
    parsed = parse_algebras(capsys.readouterr().out)
    (G,) = parsed.values()
    assert G.table("e")[0] == 2
    assert main(["heap", "convert", f"{workspace['heap']}#hz4"]) == 2
    assert capsys.readouterr().err == "error: heap convert needs --basepoint\n"


def test_heap_decompose(workspace, tmp_path, capsys):
    from ualgebra.catalog import klein_group

    kheap = tmp_path / "klein_heap.alg"
    kheap.write_text(emit_algebra(heap_from_group(klein_group()).rename("hk")))
    code = main(
        [
            "heap",
            "decompose",
            f"{kheap}#hk",
            "--Y",
            "0,2",
            "--omega",
            "{{0,1},{2,3}}",
        ]
    )
    assert code == 0
    assert capsys.readouterr().out.count("True") == 5


def test_heap_decompose_of_a_non_heap_is_input_error(workspace, tmp_path, capsys):
    from ualgebra.catalog import chain_lattice

    chains = tmp_path / "chain.alg"
    chains.write_text(emit_algebra(chain_lattice(3)))
    for ref, omega in [(f"{workspace['algs']}#z4", "{{0,1,2,3}}"), (f"{chains}#chain3", "{{0,1,2}}")]:
        assert main(["heap", "decompose", ref, "--Y", "0", "--omega", omega]) == 2
        assert capsys.readouterr().err == "error: expected the heap signature t/3\n"


def test_heap_decompose_of_a_t3_table_that_is_not_a_heap_is_input_error(tmp_path, capsys):
    # on `split` the five conditions disagree; on `agree` they hold, but the
    # basepoint action does not permute the block; on `holds` the conditions
    # and the action hold; on `fails` the conditions are all false
    tables = tmp_path / "t3.alg"
    tables.write_text(
        "algebra split\nsize 2\nop t/3\n0 0\n1 0\n1 1\n0 0\nend\n"
        "algebra agree\nsize 2\nop t/3\n0 1\n1 1\n1 1\n1 0\nend\n"
        "algebra holds\nsize 2\nop t/3\n0 1\n0 1\n1 1\n1 0\nend\n"
        "algebra fails\nsize 2\nop t/3\n0 0\n0 0\n0 0\n0 0\nend\n"
    )
    cases = [("split", "0", "{{0,1}}"), ("agree", "0,1", "{{0},{1}}")]
    cases += [("holds", "0", "{{0,1}}"), ("fails", "0,1", "{{0,1}}")]
    for name, Y, omega in cases:
        assert main(["heap", "decompose", f"{tables}#{name}", "--Y", Y, "--omega", omega]) == 2
        assert capsys.readouterr().err == f"error: {name} fails the heap identities\n"


def test_truss_check(tmp_path, capsys):
    from ualgebra.catalog import cyclic_ring
    from ualgebra.heaps import truss_from_ring

    tfile = tmp_path / "truss.alg"
    tfile.write_text(emit_algebra(truss_from_ring(cyclic_ring(4)).rename("t4")))
    assert main(["truss", "check", f"{tfile}#t4", "--side", "left"]) == 0
    assert main(["truss", "check", f"{tfile}#t4", "--side", "right"]) == 0
    capsys.readouterr()


def test_truss_decompose(tmp_path, capsys):
    from ualgebra.algebras import product as alg_product
    from ualgebra.catalog import cyclic_ring
    from ualgebra.heaps import truss_from_ring

    T = truss_from_ring(alg_product(cyclic_ring(2), cyclic_ring(2))).rename("t22")
    tfile = tmp_path / "truss.alg"
    tfile.write_text(emit_algebra(T))
    code = main(
        [
            "truss",
            "decompose",
            f"{tfile}#t22",
            "--Y",
            "0,2",
            "--omega",
            "{{0,1},{2,3}}",
        ]
    )
    assert code == 0
    assert capsys.readouterr().out.count("True") == 4


def test_envcat_prints_table(workspace, capsys):
    code = main(
        [
            "envcat",
            "--action",
            str(workspace["act"]),
            "--variety",
            "group",
            "--object",
            "0,1",
            "--terms",
            "m(x0,x1)",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "m(x0,x1):" in out


def test_deep_term_is_input_error(workspace, capsys):
    code = main(
        [
            "envcat",
            "--action",
            str(workspace["act"]),
            "--variety",
            "group",
            "--object",
            "0",
            "--terms",
            "i(" * 3000 + "x0" + ")" * 3000,
        ]
    )
    assert code == 2
    assert "nested deeper" in capsys.readouterr().err


def test_envcat_object_past_the_fiber_block_limit_is_input_error(workspace, capsys):
    # the fibers of the S3 action file have 3 elements: 3^10 rows of 10
    # places fit in the limit, 3^11 rows of 11 do not
    def envcat(places):
        obj = ",".join(["0"] * places)
        argv = ["--action", str(workspace["act"]), "--variety", "group", "--object", obj]
        return main(["envcat", *argv, "--terms", "m(x0,x9)"])

    assert 3**10 * 10 <= FIBER_BLOCK_LIMIT < 3**11 * 11
    assert envcat(10) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1] == f"source fiber sizes: {(3,) * 10}" and len(out[2].split()) == 1 + 3**10
    assert envcat(11) == 2
    err = f"error: fiber product capped at {FIBER_BLOCK_LIMIT} entries\n"
    assert capsys.readouterr() == ("", err)


def test_a_stray_value_error_is_an_internal_error(workspace, monkeypatch, capsys):
    # input errors are UAErrors; a ValueError out of the library is a bug
    def failing(*args):
        raise ValueError("tuple.index(x): x not in tuple")

    monkeypatch.setattr(congruences, "all_congruences", failing)
    assert main(["congruences", f"{workspace['algs']}#z4"]) == 3
    assert capsys.readouterr() == (
        "",
        "internal error: ValueError('tuple.index(x): x not in tuple')\n",
    )


def test_an_outer_digroup_failing_its_axioms_is_an_internal_error(
    monkeypatch, tmp_path, capsys
):
    # the hypotheses hold, so a failed axiom check is a bug, not bad input
    dgfile = tmp_path / "small.alg"
    dgfile.write_text(
        emit_algebra(trivial_digroup(cyclic_group(2), "y2").algebra)
        + emit_algebra(trivial_digroup(cyclic_group(3), "k3").algebra)
    )
    maps = tmp_path / "maps.map"
    blocks = ("phistar", "phicirc", "lambda")
    maps.write_text("".join(f"{b} {y}\n0 1 2\n" for b in blocks for y in (0, 1)))
    monkeypatch.setattr(digroups, "satisfies", lambda *args: False)
    argv = ["digroup-sdp", "--Y", f"{dgfile}#y2", "--K", f"{dgfile}#k3", "--maps", str(maps)]
    assert main(argv) == 3
    assert capsys.readouterr() == (
        "",
        "internal error: InternalInconsistency('the outer product must be a digroup')\n",
    )


def test_a_stray_value_error_in_a_variety_file_is_an_internal_error(
    workspace, monkeypatch, tmp_path, capsys
):
    # only a UAError of the identity parser is a bad identity
    def failing(*args):
        raise ValueError("stray")

    varieties_file = tmp_path / "ws.var"
    varieties_file.write_text(emit_variety(REGISTRY["group"]), encoding="utf-8")
    monkeypatch.setattr(varieties, "parse_identity", failing)
    argv = ["check", f"{workspace['algs']}#z4", "--variety", f"{varieties_file}#group"]
    assert main(argv) == 3
    assert capsys.readouterr() == ("", "internal error: ValueError('stray')\n")


@pytest.mark.parametrize("error", [AssertionError, InternalInconsistency])
def test_failed_cross_check_is_internal_error(workspace, monkeypatch, capsys, error):
    def failing_report(*args):
        raise error("the five conditions must agree")

    monkeypatch.setattr(heaps, "heap_inner_report", failing_report)
    argv = ["heap", "decompose", f"{workspace['heap']}#hz4", "--Y", "0", "--omega", "{{0,1,2,3}}"]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"internal error: {error.__name__}(") and err.count("\n") == 1


OPTIMIZED_RUN = """
import sys
import tempfile
from pathlib import Path

from ualgebra import cli, inner
from ualgebra.algebras import emit_algebra
from ualgebra.catalog import cyclic_group
from ualgebra.errors import InternalInconsistency
from ualgebra.partitions import Partition

if not sys.flags.optimize:
    sys.exit("not run under -O")
# a broken condition (d): on Z4 with B = {0} and the total partition the four
# conditions hold, so the cross-check in verify_inner_sdp sees (d) disagree
honest = inner.canonical_iso_witness
inner.canonical_iso_witness = lambda *args: not honest(*args)
z4 = cyclic_group(4)
try:
    inner.verify_inner_sdp(z4, {0}, Partition.from_blocks(4, [[0, 1, 2, 3]]))
except InternalInconsistency:
    print("raised")
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "z4.alg"
    path.write_text(emit_algebra(z4))
    print("exit", cli.main(["decompose", f"{path}#z4", "--B", "0", "--omega", "{{0,1,2,3}}"]))
"""


def test_failed_cross_check_is_internal_error_under_python_O():
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=str(tests.parent / "src"))
    run = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_RUN],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.stdout.split() == ["raised", "exit", "3"], run.stderr
    assert run.stderr == "internal error: InternalInconsistency('the four conditions must agree')\n"


_OMEGA = ["--omega", "{{0,1,2,3}}"]


@pytest.mark.parametrize(
    "argv, err",
    [
        (["decompose", "$algs#z4", "--B", "+1", *_OMEGA], "--B:1:0: bad integer '+1'"),
        (["decompose", "$algs#z4", "--B", "x", *_OMEGA], "--B:1:0: bad integer 'x'"),
        (
            ["decompose", "$algs#z4", "--B", "0", "--omega", "{{0,+1,2,3}}"],
            "--omega:1:2: block entries must be integers",
        ),
        (["heap", "decompose", "$heap#hz4", "--Y", "-1", *_OMEGA], "--Y:1:0: bad integer '-1'"),
        (["brace", "commutator", "$dg#dgs3", "--I", "0", "--J", "+0"], "--J:1:0: bad integer '+0'"),
        (
            ["envcat", "--action", "$act", "--variety", "group", "--object", "0,+1", "--terms", "x0"],
            "--object:1:0: bad integer '+1'",
        ),
    ],
    ids=["B+1", "Bx", "omega+1", "Y-1", "J+0", "object+1"],
)
def test_numerals_in_arguments_are_unsigned(workspace, capsys, argv, err):
    # the rule of the text formats: a sign or a non-numeral is input error 2
    assert main([Template(a).substitute(workspace) for a in argv]) == 2
    assert capsys.readouterr().err == f"error: {err}\n"


@pytest.mark.parametrize("Y", ["9", "0,9"])
def test_decompose_element_outside_carrier_is_input_error(workspace, tmp_path, capsys, Y):
    from ualgebra.catalog import cyclic_ring
    from ualgebra.heaps import truss_from_ring

    tfile = tmp_path / "truss.alg"
    tfile.write_text(emit_algebra(truss_from_ring(cyclic_ring(4)).rename("t4")))
    omega = "{{0,1,2,3}}"
    assert main(["heap", "decompose", f"{workspace['heap']}#hz4", "--Y", Y, "--omega", omega]) == 2
    assert "outside the carrier" in capsys.readouterr().err
    assert main(["truss", "decompose", f"{tfile}#t4", "--Y", Y, "--omega", omega]) == 2
    assert "outside the carrier" in capsys.readouterr().err


def test_missing_file_is_input_error(capsys):
    assert main(["check", "nosuch.alg#x", "--variety", "group"]) == 2


NINE = "{{0,1,2,3,4,5,6,7,8}}"
HOLDS = "".join(f"({c}): True\n" for c in "abcde")


@pytest.mark.parametrize(
    "argv, out",
    [
        (
            ["congruences", "$big#z9"],
            "3\n{{0},{1},{2},{3},{4},{5},{6},{7},{8}}\n{{0,3,6},{1,4,7},{2,5,8}}\n" + NINE + "\n",
        ),
        (["idempotents", "$big#z9"], "2\n0 0 0 0 0 0 0 0 0\n0 1 2 3 4 5 6 7 8\n"),
        (
            ["decompose", "$big#z9", "--B", "0", "--omega", NINE],
            "subalgebra: True\ncongruence: True\n" + HOLDS[: -len("(e): True\n")],
        ),
        (["heap", "decompose", "$big#hz9", "--Y", "0", "--omega", NINE], HOLDS),
    ],
    ids=["congruences", "idempotents", "decompose", "heap-decompose"],
)
def test_nine_element_carriers_answer(tmp_path, capsys, argv, out):
    # every verb reaches the carrier cap of 12; only the size of the answer stops it
    big = tmp_path / "big.alg"
    hz9 = heap_from_group(cyclic_group(9)).rename("hz9")
    big.write_text(emit_algebra(cyclic_group(9)) + emit_algebra(hz9))
    assert main([Template(a).substitute(big=big) for a in argv]) == 0
    assert capsys.readouterr() == (out, "")


@pytest.mark.parametrize(
    "algebra, verb, err",
    [
        (
            lambda: left_zero_semigroup(9),
            "congruences",
            "congruence enumeration capped at 4140 congruences",
        ),
        (lambda: chain_lattice(12), "idempotents", "idempotent search capped at 41393 candidates"),
        (lambda: cyclic_group(13), "idempotents", "congruence enumeration capped at 12"),
    ],
    ids=["congruence-limit", "candidate-limit", "carrier-cap"],
)
def test_size_limits_are_input_errors(tmp_path, capsys, algebra, verb, err):
    path = tmp_path / "a.alg"
    path.write_text(emit_algebra(algebra().rename("a")))
    assert main([verb, f"{path}#a"]) == 2
    assert capsys.readouterr() == ("", f"error: {err}\n")


@pytest.mark.parametrize("argv", [["--size-cap", "9"], ["--size-cap=9"]], ids=["separate", "joined"])
def test_size_cap_is_not_an_option(workspace, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "idempotents", f"{workspace['algs']}#z4"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "ua: error:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["congruences", "$bin#a"],
        ["check", "$algs#z4", "--variety", "$bin#group"],
        ["outer", "--action", "$bin", "--variety", "group"],
        ["group-sdp", "--N", "$algs#z3", "--B", "$algs#z2", "--phi", "$bin"],
    ],
    ids=["algebra", "variety", "action", "map"],
)
def test_a_file_that_is_not_utf8_is_a_parse_error_naming_it(workspace, tmp_path, capsys, argv):
    # every file is read as UTF-8, whatever the locale; the error names the
    # file and the line of the first byte that does not decode, counted as
    # the parser counts lines: a form feed and U+2028 end one too
    path = tmp_path / "bin.txt"
    path.write_bytes("# caf\u00e9\r\n\n#\x0c#\u2028".encode() + b"size \xff\n")
    assert main([Template(a).substitute(workspace, bin=path) for a in argv]) == 2
    assert capsys.readouterr() == ("", f"error: {path}:5:0: byte 0xff is not UTF-8\n")


def test_check_against_variety_file(tmp_path, capsys):
    from ualgebra.varieties import REGISTRY, emit_variety

    algs = tmp_path / "a.alg"
    algs.write_text(emit_algebra(cyclic_group(4)))
    v = tmp_path / "v.var"
    v.write_text(emit_variety(REGISTRY["group"]))
    assert main(["check", f"{algs}#z4", "--variety", f"{v}#group"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, err",
    [
        (["heap", "convert", "$heap#hz4", "--basepoint", "+2"], "--basepoint:1:0: bad integer '+2'"),
        (["heap", "check", "$heap#hz4", "--basepoint", "x"], "--basepoint:1:0: bad integer 'x'"),
        (
            ["heap", "decompose", "$heap#hz4", "--basepoint", "-1", "--Y", "0", *_OMEGA],
            "--basepoint:1:0: bad integer '-1'",
        ),
    ],
    ids=["basepoint+2", "basepoint-x", "basepoint-1"],
)
def test_integer_options_are_unsigned_numerals(workspace, capsys, argv, err):
    assert main([Template(a).substitute(workspace) for a in argv]) == 2
    assert capsys.readouterr() == ("", f"error: {err}\n")


@pytest.mark.parametrize("digit", ["٣", "３"], ids=["arabic-indic-3", "full-width-3"])
def test_digits_of_other_scripts_are_not_numerals(workspace, tmp_path, capsys, digit):
    path = tmp_path / "a.alg"
    path.write_text(f"algebra a\nsize {digit}\nop e/0\n0\nend\n")
    with pytest.raises(ParseError):
        parse_algebras(path.read_text())
    with pytest.raises(ParseError):
        parse_uint(digit, "", "src", 1)
    assert main(["check", f"{path}#a", "--variety", "group"]) == 2
    assert capsys.readouterr().err == f"error: {path}:2:1: bad size line\n"
    assert main(["decompose", f"{workspace['algs']}#z4", "--B", digit, *_OMEGA]) == 2
    assert capsys.readouterr() == ("", f"error: --B:1:0: bad integer {digit!r}\n")


def test_calls_do_not_leak_options_into_each_other(workspace, capsys):
    heap = f"{workspace['heap']}#hz4"
    assert main(["heap", "convert", heap, "--basepoint", "1"]) == 0
    first = capsys.readouterr()
    # the shared parser keeps no value of an earlier call
    assert main(["heap", "convert", heap]) == 2
    assert capsys.readouterr() == ("", "error: heap convert needs --basepoint\n")
    with pytest.raises(SystemExit) as exc:
        main(["heap", "convert", "--basepoint", "1"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["heap", "convert", heap, "--B", "0"])
    capsys.readouterr()
    outer = ["outer", "--action", str(workspace["act"]), "--variety", "group"]
    assert main([*outer, "--name", "s3"]) == 0
    assert capsys.readouterr().out.startswith("algebra s3\n")
    assert main(outer) == 0
    assert capsys.readouterr().out.startswith("algebra outer\n")
    assert main(["heap", "convert", heap, "--basepoint", "1"]) == 0
    assert capsys.readouterr() == first


def _help(argv, parse) -> str:
    """What `ua <argv>` prints before argparse exits 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exc:
        parse(argv)
    assert exc.value.code == 0
    return out.getvalue()


def test_help_of_the_shared_parser_is_that_of_a_fresh_one(monkeypatch):
    cli.build_parser()  # built at the terminal width of the test run
    verbs = [[]] + [[verb] for verb in cli._HANDLERS]
    top = {}
    for columns in ("40", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        for verb in verbs:
            argv = [*verb, "--help"]
            assert _help(argv, main) == _help(argv, cli.build_parser.__wrapped__().parse_args)
        top[columns] = _help(["--help"], main)
    assert top["40"] != top["200"]  # the width is read as help is formatted



FUZZED_VERBS = (
    "check", "congruences", "idempotents", "decompose", "outer", "group-sdp",
    "digroup-sdp", "brace", "commutator", "heap", "heap-decompose", "envcat",
)


def _random_argv(rng, workspace, phi, maps) -> list[str]:
    """One `ua` argument list over the workspace, most of them well formed:
    each slot takes one of its hostile values one time in eight."""

    def pick(valid, hostile):
        return rng.choice(hostile if rng.random() < 1 / 8 else valid)

    algs, act, heap = str(workspace["algs"]), str(workspace["act"]), f"{workspace['heap']}#hz4"
    refs = [f"{algs}#nosuch", algs, "nosuch.alg#z4", f"{act}#z4", f"{phi}#z2"]
    digroup = [f"{workspace['dg']}#dgs3"], [f"{algs}#s3", heap]
    elements = ["0", "0,2", "0,1,2,3", "1", ""], ["9", "x", "+1", "0,,2", "\u0663", "-1"]
    omega = (
        ["{{0,1,2,3}}", "{{0,2},{1,3}}", "{{0},{1},{2},{3}}", "{{0,1},{2,3}}"],
        ["{{0,1}}", "{0}", "", "{{0,1},{1,2}}", "{{0,9}}", "{{}}", "{{0,1,2},{3,4,5}}"],
    )
    verb = rng.choice(FUZZED_VERBS)
    if verb == "check":
        variety = pick(["group", "semigroup"], ["nope", "heap", f"{algs}#z4"])
        return [verb, pick([f"{algs}#z4", f"{workspace['bad']}#sub3"], refs), "--variety", variety]
    if verb in ("congruences", "idempotents"):
        return [verb, pick([f"{algs}#{name}" for name in ("z4", "s3", "z2", "z3")], refs)]
    if verb == "decompose":
        return [verb, pick([f"{algs}#z4"], refs), "--B", pick(*elements), "--omega", pick(*omega)]
    if verb == "outer":
        action, variety = pick([act], [algs, str(phi)]), pick(["group"], ["heap"])
        return [verb, "--action", action, "--variety", variety]
    if verb == "group-sdp":
        N, B = pick([f"{algs}#z3"], refs), pick([f"{algs}#z2"], [f"{algs}#z4"])
        return [verb, "--N", N, "--B", B, "--phi", pick([str(phi)], [str(maps), "nosuch.map"])]
    if verb == "digroup-sdp":
        Y, K = pick(*digroup), pick(*digroup)
        return [verb, "--Y", Y, "--K", K, "--maps", pick([str(maps)], [str(phi)])]
    if verb == "brace":
        return [verb, rng.choice(["check", "center", "reflect"]), pick(*digroup)]
    if verb == "commutator":
        ideals = ["0", "0,3,4", "0,1,2,3,4,5"], ["0,1", "x", "9"]  # the ideals of S3
        return ["brace", verb, pick(*digroup), "--I", pick(*ideals), "--J", pick(*ideals)]
    if verb == "heap":
        action = rng.choice(["check", "convert"])
        basepoint = pick(["0", "1", "3"], ["7", "x", "+1"])
        return [verb, action, pick([heap], refs), "--basepoint", basepoint]
    if verb == "heap-decompose":
        Y, parts = pick(*elements), pick(*omega)
        return ["heap", "decompose", pick([heap], [f"{algs}#z4"]), "--Y", Y, "--omega", parts]
    obj = pick(["0", "0,1", "1,1", "1", ""], ["2", "x", "0,-1"])
    terms = pick(
        ["x0", "m(x0,x1)", "i(x0)", "e", "m(x0,i(x1));x1"], ["x5", "m(", "q(x0)", "m(x0)", ";"]
    )
    action = pick([act], [algs, "nosuch.act"])
    return [verb, "--action", action, "--variety", "group", "--object", obj, "--terms", terms]


def _call(argv, capsys):
    """(exit code, stdout, stderr) of one in-process `ua` call; argparse's own
    errors exit through SystemExit."""
    capsys.readouterr()
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def _fuzz_maps(tmp_path) -> tuple[Path, Path]:
    """The `--phi` map of Z2 on Z3 and the trivial `--maps` file on S3 that
    `_random_argv` names."""
    phi = tmp_path / "phi.map"
    phi.write_text("phi 0\n0 1 2\nphi 1\n0 2 1\n")
    maps = tmp_path / "trivial.map"
    blocks = ["phistar", "phicirc", "lambda"]
    maps.write_text("".join(f"{b} {y}\n0 1 2 3 4 5\n" for b in blocks for y in range(6)))
    return phi, maps


def test_fuzzed_argv_ends_in_an_answer_or_an_input_error(workspace, tmp_path, capsys):
    # over well-formed and hostile arguments alike, `ua` answers (0, 1) or
    # reports malformed input (2), never an internal error, and a second
    # call prints the same bytes
    phi, maps = _fuzz_maps(tmp_path)

    @seed(22)
    @settings(max_examples=300, deadline=None, database=None)
    @given(st.integers(0, 2**32 - 1))
    def run(draw):
        argv = _random_argv(random.Random(draw), workspace, phi, maps)
        first = _call(argv, capsys)
        assert first[0] in (0, 1, 2), (argv, first)
        assert "internal error:" not in first[2], argv
        assert _call(argv, capsys) == first, argv

    run()


HASH_SEED_RUN = """
import contextlib, io, random, sys
from test_cli import _random_argv
from test_digroups import census_digest
from ualgebra.cli import main

print(census_digest(6))
files = dict(arg.split("=", 1) for arg in sys.argv[1:])
for draw in range(150):
    argv = _random_argv(random.Random(draw), files, files["phi"], files["maps"])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    print(repr((argv, code, out.getvalue(), err.getvalue())))
"""


def test_no_output_depends_on_the_hash_seed(workspace, tmp_path):
    # the digroup census and 150 seeded `ua` calls over one workspace, in two
    # processes whose str and bytes hashes differ
    phi, maps = _fuzz_maps(tmp_path)
    args = [f"{key}={path}" for key, path in {**workspace, "phi": phi, "maps": maps}.items()]
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    outputs = []
    for hash_seed in ("0", "1"):
        run = subprocess.run(
            [sys.executable, "-c", HASH_SEED_RUN, *args],
            env=dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path),
            cwd=tmp_path,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert run.returncode == 0, run.stderr
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]
    digest, *calls = outputs[0].splitlines()
    assert digest == "ebd469514ee830a0c02ae0c9bba574c36fa71aeafbc3c16c78eb72e5a10f7a75"
    assert len(calls) == 150
    assert {ast.literal_eval(call)[1] for call in calls} == {0, 1, 2}
