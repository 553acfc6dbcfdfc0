"""Deterministic command-line front end.

Exit codes: 0 for a computed-true answer or successful construction, 1 for a
computed-false answer (the report carries a witness), 2 for malformed input,
3 for an internal error (a failed cross-check or any other unexpected
exception), reported as one `internal error:` line on stderr.
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache
from pathlib import Path

from . import congruences, digroups, groups, heaps, inner, outer
from .algebras import FiniteAlgebra, content_lines, emit_algebra, parse_algebras, parse_uint
from .digroups import Digroup
from .envcat import TermTupleMorphism, TupleObject, functor_morphism, functor_object
from .errors import ParseError, UAError
from .partitions import parse_partition
from .terms import eval_term, parse_term, term_to_str
from .varieties import check_identities, get_variety, parse_varieties


def _read(path: str) -> str:
    """The text of a workspace, variety, action or map file, decoded as
    UTF-8 whatever the locale; a byte that is not UTF-8 is a ParseError at
    its line."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        # the text before it is UTF-8, and its lines count as the parser's do
        line = len((exc.object[: exc.start].decode() + ".").splitlines())
        raise ParseError(f"byte 0x{exc.object[exc.start]:02x} is not UTF-8", path, line) from None


class Workspace:
    """Lazy `<file>#<name>` reference resolution with per-file caching."""

    def __init__(self):
        self._algebra_files: dict[str, dict[str, FiniteAlgebra]] = {}
        self._variety_files: dict[str, dict] = {}

    def algebra(self, ref: str) -> FiniteAlgebra:
        path, _, name = ref.partition("#")
        if not name:
            raise UAError(f"reference {ref!r} needs the form <file>#<name>")
        if path not in self._algebra_files:
            self._algebra_files[path] = parse_algebras(_read(path), source=path)
        try:
            return self._algebra_files[path][name]
        except KeyError:
            raise UAError(f"no algebra {name!r} in {path}") from None

    def variety(self, ref: str):
        if "#" not in ref:
            return get_variety(ref)
        path, _, name = ref.partition("#")
        if path not in self._variety_files:
            self._variety_files[path] = parse_varieties(_read(path), source=path)
        try:
            return self._variety_files[path][name]
        except KeyError:
            raise UAError(f"no variety {name!r} in {path}") from None


def _uint(token: str, option: str) -> int:
    """The unsigned numeral given to `option`; the error names the option."""
    return parse_uint(token, "bad integer {token!r}", option, 1)


def _elements(text: str, option: str) -> tuple[int, ...]:
    """The comma-separated elements given to `option`, as unsigned numerals."""
    tokens = [x.strip() for x in text.split(",")]
    return tuple(_uint(x, option) for x in tokens if x)


def _parse_map_file(path: str, keywords) -> dict[str, dict[int, list[int]]]:
    """The tables of a map file: a header `<keyword> <element>` opens the
    table of that element, and the lines up to the next header are its
    entries. A repeated header is a ParseError at its line."""
    out: dict[str, dict[int, list[int]]] = {k: {} for k in keywords}
    table: list[int] | None = None
    for no, line in content_lines(_read(path)):
        parts = line.split()
        if parts[0] in keywords:
            if len(parts) != 2:
                raise ParseError(f"expected '{parts[0]} <element>'", path, no)
            x = parse_uint(parts[1], "bad integer {token!r}", path, no)
            if x in out[parts[0]]:
                raise ParseError(f"repeated map for {parts[0]} {x}", path, no)
            table = out[parts[0]][x] = []
        elif table is None:
            raise ParseError("table entries before any map header", path, no)
        else:
            table.extend(parse_uint(p, "bad integer {token!r}", path, no) for p in parts)
    return out


def _per_element(maps, keyword: str, size: int, path: str) -> tuple[tuple[int, ...], ...]:
    """The `keyword` tables for elements 0..size-1; a missing block, or one
    for an element past the carrier, is malformed input."""
    for x in range(size):
        if x not in maps[keyword]:
            raise UAError(f"{path}: no '{keyword} {x}' table")
    for x in sorted(maps[keyword]):
        if x >= size:
            raise UAError(f"{path}: '{keyword} {x}' table past the carrier of {size} elements")
    return tuple(tuple(maps[keyword][x]) for x in range(size))


def cmd_check(args, ws: Workspace) -> int:
    A = ws.algebra(args.ref)
    V = ws.variety(args.variety)
    report = check_identities(A, V)
    if report.passes:
        print(f"{A.name}: passes {V.name}")
        return 0
    w = report.witness
    kind = "quasi condition" if w.quasi else "identity"
    print(f"{A.name}: fails {V.name} {kind} {w.identity} at {w.assignment}")
    return 1


def cmd_congruences(args, ws: Workspace) -> int:
    A = ws.algebra(args.ref)
    found = congruences.all_congruences(A)
    print(len(found))
    for part in found:
        print(part)
    return 0


def cmd_idempotents(args, ws: Workspace) -> int:
    A = ws.algebra(args.ref)
    endos = inner.idempotent_endomorphisms(A)
    print(len(endos))
    for endo in endos:
        print(" ".join(map(str, endo.map)))
    return 0


def cmd_decompose(args, ws: Workspace) -> int:
    A = ws.algebra(args.ref)
    B = _elements(args.B, "--B")
    omega = parse_partition(args.omega, A.size, "--omega")
    report = inner.verify_inner_sdp(A, B, omega)
    print(f"subalgebra: {report.b_is_subalgebra}")
    print(f"congruence: {report.omega_is_congruence}")
    for label, value in zip("abcd", (report.a, report.b, report.c, report.d)):
        print(f"({label}): {value}")
    return 0 if report.holds else 1


def cmd_outer(args, ws: Workspace) -> int:
    family, actions = outer.parse_action_file(
        _read(args.action), ws.algebra, source=args.action
    )
    V = ws.variety(args.variety)
    built = outer.build_outer_product(family, actions, V, name=args.name)
    sys.stdout.write(emit_algebra(built.algebra))
    return 0


def cmd_group_sdp(args, ws: Workspace) -> int:
    N = ws.algebra(args.N)
    B = ws.algebra(args.B)
    phi = _per_element(_parse_map_file(args.phi, ("phi",)), "phi", B.size, args.phi)
    G = groups.group_semidirect(N, B, phi)
    sys.stdout.write(emit_algebra(G))
    return 0


def cmd_ring_sdp(args, ws: Workspace) -> int:
    K = ws.algebra(args.K)
    S = ws.algebra(args.S)
    maps = _parse_map_file(args.maps, ("lambda", "rho"))
    pair = groups.RingActionPair(
        K,
        S,
        _per_element(maps, "lambda", S.size, args.maps),
        _per_element(maps, "rho", S.size, args.maps),
    )
    R = groups.ring_semidirect(pair)
    sys.stdout.write(emit_algebra(R))
    return 0


def cmd_digroup_sdp(args, ws: Workspace) -> int:
    Y = Digroup(ws.algebra(args.Y)).validate()
    K = Digroup(ws.algebra(args.K)).validate()
    maps = _parse_map_file(args.maps, ("phistar", "phicirc", "lambda"))
    triple = digroups.DigroupActionTriple(
        Y,
        K,
        _per_element(maps, "phistar", Y.n, args.maps),
        _per_element(maps, "phicirc", Y.n, args.maps),
        _per_element(maps, "lambda", Y.n, args.maps),
    )
    D = digroups.digroup_outer(triple, name=args.name)
    sys.stdout.write(emit_algebra(D.algebra))
    return 0


def cmd_brace(args, ws: Workspace) -> int:
    D = Digroup(ws.algebra(args.ref)).validate()
    if args.action == "check":
        report = digroups.skew_brace_check(D)
        print(f"left skew brace: {report.lsb}")
        if report.witness is not None:
            print(f"witness: {report.witness}")
        return 0 if report.lsb else 1
    if args.action == "commutator":
        ideal = digroups.brace_commutator(D, _elements(args.I, "--I"), _elements(args.J, "--J"))
        print("{" + ",".join(map(str, sorted(ideal))) + "}")
        return 0
    if args.action == "center":
        print("{" + ",".join(map(str, sorted(digroups.brace_center(D)))) + "}")
        return 0
    # argparse's choices leave "reflect"
    Q, ideal = digroups.skew_brace_reflection(D)
    print("ideal {" + ",".join(map(str, sorted(ideal))) + "}")
    sys.stdout.write(emit_algebra(Q.algebra))
    return 0


def cmd_heap(args, ws: Workspace) -> int:
    basepoint = None if args.basepoint is None else _uint(args.basepoint, "--basepoint")
    A = ws.algebra(args.ref)
    if args.action == "check":
        ok = heaps.is_heap(A)
        print(f"{A.name}: heap: {ok}")
        return 0 if ok else 1
    if args.action == "convert":
        if "t" in A.signature:
            if basepoint is None:
                raise UAError("heap convert needs --basepoint")
            G = heaps.group_from_heap(A, basepoint)
            sys.stdout.write(emit_algebra(G))
        else:
            sys.stdout.write(emit_algebra(heaps.heap_from_group(A)))
        return 0
    # argparse's choices leave "decompose"
    Y = _elements(args.Y, "--Y")
    omega = parse_partition(args.omega, A.size, "--omega")
    report = heaps.heap_inner_report(A, Y, omega, basepoint)
    for label, value in zip("abcde", (report.a, report.b, report.c, report.d, report.e)):
        print(f"({label}): {value}")
    return 0 if report.holds else 1


def cmd_truss(args, ws: Workspace) -> int:
    A = ws.algebra(args.ref)
    if args.action == "check":
        ok = heaps.is_near_truss(A, args.side)
        print(f"{A.name}: {args.side} near-truss: {ok}")
        return 0 if ok else 1
    # argparse's choices leave "decompose"
    Y = _elements(args.Y, "--Y")
    omega = parse_partition(args.omega, A.size, "--omega")
    report = heaps.near_truss_report(A, Y, omega, side=args.side)
    for label, value in zip("abcd", (report.a, report.b, report.c, report.d)):
        print(f"({label}): {value}")
    return 0 if report.holds else 1


def cmd_envcat(args, ws: Workspace) -> int:
    family, actions = outer.parse_action_file(
        _read(args.action), ws.algebra, source=args.action
    )
    V = ws.variety(args.variety)
    built = outer.build_outer_product(family, actions, V)
    base = built.family.base
    src = TupleObject(base, _elements(args.object, "--object"))
    terms = tuple(parse_term(t.strip(), base.signature) for t in args.terms.split(";"))
    values = tuple(eval_term(t, base, src.elements) for t in terms)
    dst = TupleObject(base, values)
    morphism = TermTupleMorphism(src, dst, terms)
    tables = functor_morphism(built, morphism)
    print(f"object {src.elements} -> {dst.elements}")
    print(f"source fiber sizes: {functor_object(built, src).sizes}")
    for t, table in zip(terms, tables):
        print(f"{term_to_str(t)}: {' '.join(map(str, table))}")
    return 0


# One tree per process: parse_args keeps no state in it, and argparse reads
# the terminal width only when it formats help or usage.
@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ua", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("check", help="check an algebra against a variety")
    p.add_argument("ref")
    p.add_argument("--variety", required=True)

    p = sub.add_parser("congruences", help="list all congruences")
    p.add_argument("ref")

    p = sub.add_parser("idempotents", help="list all idempotent endomorphisms")
    p.add_argument("ref")

    p = sub.add_parser("decompose", help="inner decomposition report")
    p.add_argument("ref")
    p.add_argument("--B", required=True)
    p.add_argument("--omega", required=True)

    p = sub.add_parser("outer", help="build an outer product from an action file")
    p.add_argument("--action", required=True)
    p.add_argument("--variety", required=True)
    p.add_argument("--name", default="outer")

    p = sub.add_parser("group-sdp", help="group semidirect product")
    p.add_argument("--N", required=True)
    p.add_argument("--B", required=True)
    p.add_argument("--phi", required=True, help="file of per-b permutation tables")

    p = sub.add_parser("ring-sdp", help="ring semidirect product")
    p.add_argument("--K", required=True)
    p.add_argument("--S", required=True)
    p.add_argument("--maps", required=True, help="file with lambda/rho tables")

    p = sub.add_parser("digroup-sdp", help="digroup semidirect product")
    p.add_argument("--Y", required=True)
    p.add_argument("--K", required=True)
    p.add_argument("--maps", required=True, help="file with phistar/phicirc/lambda tables")
    p.add_argument("--name", default="outer_digroup")

    p = sub.add_parser("brace", help="skew brace reports")
    p.add_argument("action", choices=["check", "commutator", "center", "reflect"])
    p.add_argument("ref")
    p.add_argument("--I", default="")
    p.add_argument("--J", default="")

    p = sub.add_parser("heap", help="heap reports and conversions")
    p.add_argument("action", choices=["check", "convert", "decompose"])
    p.add_argument("ref")
    # an integer option stays text here and is read by `parse_uint` inside
    # main's error handler, so a bad one exits 2 with an `error:` line
    p.add_argument("--basepoint", default=None)
    p.add_argument("--Y", default="")
    p.add_argument("--omega", default="")

    p = sub.add_parser("truss", help="near-truss reports")
    p.add_argument("action", choices=["check", "decompose"])
    p.add_argument("ref")
    p.add_argument("--side", choices=["left", "right"], default="left")
    p.add_argument("--Y", default="")
    p.add_argument("--omega", default="")

    p = sub.add_parser("envcat", help="print a functor table for a term tuple")
    p.add_argument("--action", required=True)
    p.add_argument("--variety", required=True)
    p.add_argument("--object", required=True, help="comma-separated base elements")
    p.add_argument("--terms", required=True, help="semicolon-separated terms")

    return parser


_HANDLERS = {
    "check": cmd_check,
    "congruences": cmd_congruences,
    "idempotents": cmd_idempotents,
    "decompose": cmd_decompose,
    "outer": cmd_outer,
    "group-sdp": cmd_group_sdp,
    "ring-sdp": cmd_ring_sdp,
    "digroup-sdp": cmd_digroup_sdp,
    "brace": cmd_brace,
    "heap": cmd_heap,
    "truss": cmd_truss,
    "envcat": cmd_envcat,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.verb](args, Workspace())
    except (UAError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
