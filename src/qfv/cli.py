"""Command-line front end.

Subcommands mirror the library modules: tableau listings, graded cell
counts, the finite-field verification run, moment-graph exports with
membership checking, and graded standard-module dimensions.  All output
is exact; everything is deterministic for identical inputs.

Exit codes: 0 success (and, for oracle runs, full agreement), 1
malformed input or unwritable output, 2 structurally valid but
incompatible inputs, 3 resource guard tripped (override with --force)
or out of memory, 4 oracle mismatch.

`main` may be called any number of times in one process.  The argument
parser is built on the first call and reused by later ones; parsing
keeps no state in it, so every call behaves as in a fresh process.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import betti, ffmod, gkm, tableaux
from .cyclic_core import Shape, _compatible, validate_word

EXIT_OK = 0
EXIT_MALFORMED = 1
EXIT_INCOMPATIBLE = 2
EXIT_GUARD = 3
EXIT_MISMATCH = 4

# combinatorial-explosion guards
KATO_BOX_LIMIT = 12
FLAG_ENUM_LIMIT = 10**7


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


class _Parser(argparse.ArgumentParser):
    # route usage errors through the malformed-input exit code
    def error(self, message):
        raise CliError(EXIT_MALFORMED, message)


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliError(EXIT_MALFORMED, f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError, bad UTF-8 and integer literals
        # past Python's int-string limit; RecursionError, deep nesting
        raise CliError(EXIT_MALFORMED, f"invalid JSON in {path}: {exc}") from exc


def _load_shape(path: str) -> Shape:
    data = _load_json(path)
    if not isinstance(data, dict):
        raise CliError(EXIT_MALFORMED, f"shape file {path} must hold an object")
    try:
        return Shape.from_json(data)
    except ValueError as exc:
        raise CliError(EXIT_MALFORMED, f"bad shape: {exc}") from exc


def _parse_filtration(arg: str, n: int) -> tuple[int, ...]:
    """Inline comma/space separated word, or a JSON file with a "word" key."""
    if os.path.isfile(arg):
        data = _load_json(arg)
        if not isinstance(data, dict) or "word" not in data:
            raise CliError(
                EXIT_MALFORMED, f'filtration file {arg} must hold {{"word": [...]}}'
            )
        raw = data["word"]
        if not isinstance(raw, list):
            raise CliError(EXIT_MALFORMED, "filtration word must be a list")
    else:
        raw = _parse_ints(arg, "filtration")
    try:
        return validate_word(raw, n)
    except ValueError as exc:
        raise CliError(EXIT_MALFORMED, f"bad filtration: {exc}") from exc


def _parse_ints(arg: str, what: str) -> list[int]:
    """Comma/space separated tokens, each plain ASCII digits: `int` alone
    would also read `1_1` as 11, `+3` and `٣` as 3."""
    tokens = arg.replace(",", " ").split()
    if not all(tok.isascii() and tok.isdigit() for tok in tokens):
        raise CliError(EXIT_MALFORMED, f"cannot parse {what} {arg!r}")
    try:
        return [int(tok) for tok in tokens]
    except ValueError as exc:  # past Python's int-string limit
        raise CliError(EXIT_MALFORMED, f"cannot parse {what} {arg!r}") from exc


def _parse_primes(arg: str) -> tuple[int, ...]:
    """Comma/space separated primes, each plain ASCII digits and given
    once."""
    primes = _parse_ints(arg, "primes")
    if not primes:
        raise CliError(EXIT_MALFORMED, "no primes given")
    for i, p in enumerate(primes):
        if p not in ffmod.SUPPORTED_PRIMES:
            raise CliError(
                EXIT_MALFORMED,
                f"prime {p} unsupported, choose from {ffmod.SUPPORTED_PRIMES}",
            )
        if p in primes[:i]:
            raise CliError(EXIT_MALFORMED, f"prime {p} given twice")
    return tuple(primes)


def _instance(args) -> tuple[Shape, tuple[int, ...]]:
    """The shape and filtration word of a subcommand, checked compatible."""
    shape = _load_shape(args.shape)
    word = _parse_filtration(args.filtration, shape.n)
    if not _compatible(shape, word):
        raise CliError(
            EXIT_INCOMPATIBLE,
            f"filtration {','.join(map(str, word))} is incompatible with "
            f"dimension vector {shape.dim_vector()}",
        )
    return shape, word


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(EXIT_MALFORMED, f"cannot write {out}: {exc}") from exc
    else:
        sys.stdout.write(text)


def cmd_tableaux(args) -> int:
    shape, word = _instance(args)
    records = []
    for t in tableaux.enumerate_tableaux(shape, word):
        stats = [t.d_tau(k) for k in range(1, t.size + 1)]
        filling = [list(row) for row in t.filling]
        records.append({"filling": filling, "d_tau": stats, "dim": sum(stats)})
    if args.format == "json":
        payload = {"count": len(records), "tableaux": records}
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
        return EXIT_OK
    lines = [f"count: {len(records)}"]
    for idx, rec in enumerate(records, start=1):
        filling = json.dumps(rec["filling"], separators=(",", ":"))
        lines.append(f"tableau {idx}: {filling}")
        lines.append(f"  d_tau: {' '.join(map(str, rec['d_tau']))}")
        lines.append(f"  dim: {rec['dim']}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_betti(args) -> int:
    shape, word = _instance(args)
    poly = betti.f_graded(shape, word)
    count = poly.total()
    if args.format == "json":
        payload = {"count": count, "poincare": poly.to_json()}
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
        return EXIT_OK
    _emit(f"count: {count}\npoincare: {poly.qstring()}\n", args.out)
    return EXIT_OK


def _oracle_one(shape: Shape, word, p: int, poly, expected_cells):
    found = ffmod.classify_flags(ffmod.build_module(shape, p), word)
    count = sum(found.values())
    cells = [(f, p**dim, found.pop(f, 0)) for f, dim in expected_cells]
    # then the realized classes the enumeration did not predict
    cells += [(f, 0, found[f]) for f in sorted(found)]
    per_cell = [
        {"tableau": [list(row) for row in f], "expected": expected, "found": got}
        for f, expected, got in cells
    ]
    poincare_at_p = poly.evaluate(p)
    return {
        "p": p,
        "count": count,
        "poincare_at_p": poincare_at_p,
        "match": count == poincare_at_p
        and all(cell["expected"] == cell["found"] for cell in per_cell),
        "per_cell": per_cell,
    }


def cmd_oracle(args) -> int:
    shape, word = _instance(args)
    primes = _parse_primes(args.primes)
    poly = betti.f_graded(shape, word)
    expected_flags = max(poly.evaluate(p) for p in primes)
    if expected_flags > FLAG_ENUM_LIMIT and not args.force:
        raise CliError(
            EXIT_GUARD,
            f"about {expected_flags} flags to enumerate exceeds "
            f"{FLAG_ENUM_LIMIT}; rerun with --force to proceed",
        )
    expected_cells = [
        (t.filling, t.cell_dim())
        for t in tableaux.enumerate_tableaux(shape, word)
    ]
    reports = [_oracle_one(shape, word, p, poly, expected_cells) for p in primes]
    if args.format == "json":
        _emit(json.dumps(reports, indent=2) + "\n", args.out)
    else:
        lines = []
        for rep in reports:
            verdict = "yes" if rep["match"] else "NO"
            lines.append(
                f"p={rep['p']}: count={rep['count']} "
                f"poincare_at_p={rep['poincare_at_p']} match={verdict}"
            )
            for cell in rep["per_cell"]:
                filling = json.dumps(cell["tableau"], separators=(",", ":"))
                marker = "" if cell["expected"] == cell["found"] else "  <-- mismatch"
                lines.append(
                    f"  cell {filling}: expected {cell['expected']} "
                    f"found {cell['found']}{marker}"
                )
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if all(rep["match"] for rep in reports) else EXIT_MISMATCH


def cmd_gkm(args) -> int:
    shape, word = _instance(args)
    graph = gkm.build_gkm_graph(shape, word)
    if args.check:
        data = _load_json(args.check)
        if not isinstance(data, list):
            raise CliError(
                EXIT_MALFORMED,
                f"check file {args.check} must hold a list of polynomials",
            )
        try:
            ok, failures = gkm.membership_check(graph, data)
        except ValueError as exc:
            raise CliError(EXIT_MALFORMED, f"bad polynomial tuple: {exc}") from exc
        lines = [f"member: {'true' if ok else 'false'}"]
        for e in failures:
            lines.append(
                f"  failing edge {e.a}-{e.b} on rows ({e.rows[0]},{e.rows[1]})"
            )
        _emit("\n".join(lines) + "\n", args.out)
        return EXIT_OK
    if args.format == "dot":
        _emit(gkm.export_dot(graph), args.out)
    elif args.format == "json":
        _emit(json.dumps(gkm.graph_to_json(graph), indent=2) + "\n", args.out)
    else:
        lines = [f"nodes: {len(graph.nodes)}", f"edges: {len(graph.edges)}"]
        for idx, node in enumerate(graph.nodes):
            filling = json.dumps(
                [list(row) for row in node.filling], separators=(",", ":")
            )
            lines.append(f"node {idx}: {filling} dim {node.cell_dim()}")
        for e in graph.edges:
            lines.append(
                f"edge {e.a}-{e.b} rows ({e.rows[0]},{e.rows[1]}) "
                f"entries ({e.entries[0]},{e.entries[1]})"
            )
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_kato(args) -> int:
    shape = _load_shape(args.shape)
    if shape.size > KATO_BOX_LIMIT and not args.force:
        raise CliError(
            EXIT_GUARD,
            f"{shape.size} boxes exceeds the limit of {KATO_BOX_LIMIT} for the "
            "graded sum; rerun with --force",
        )
    result = betti.kato_gdim(shape)
    if args.format == "json":
        _emit(json.dumps(result.to_json(), indent=2) + "\n", args.out)
        return EXIT_OK
    _emit(
        f"gdim: {result.tstring()}\norbit_dim: {result.orbit_dim}\n", args.out
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qfv",
        description=(
            "Cell decompositions of complete quiver flag varieties on the "
            "oriented cycle: tableau enumeration, graded cell counts, "
            "finite-field verification, moment graphs, graded module "
            "dimensions."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, filtration=True, formats=("table", "json")):
        p.add_argument("--shape", required=True, help="shape JSON file")
        if filtration:
            p.add_argument(
                "--filtration",
                required=True,
                help='inline word like "3,2,1" or a JSON file with {"word": [...]}',
            )
        p.add_argument("--format", choices=formats, default="table")
        p.add_argument("--out", help="write output to this file instead of stdout")

    p_tab = sub.add_parser("tableaux", help="list tableaux with their statistics")
    common(p_tab)
    p_tab.set_defaults(func=cmd_tableaux)

    p_betti = sub.add_parser("betti", help="cell count and Poincare polynomial")
    common(p_betti)
    p_betti.set_defaults(func=cmd_betti)

    p_oracle = sub.add_parser(
        "oracle", help="compare against finite-field point counts"
    )
    common(p_oracle)
    p_oracle.add_argument(
        "--primes", default="2,3", help="comma separated primes (default 2,3)"
    )
    p_oracle.add_argument(
        "--force", action="store_true", help="ignore the enumeration size guard"
    )
    p_oracle.set_defaults(func=cmd_oracle)

    p_gkm = sub.add_parser("gkm", help="fixed-point graph and membership checks")
    common(p_gkm, formats=("table", "json", "dot"))
    p_gkm.add_argument(
        "--check",
        help="JSON file with one polynomial per node; reports membership",
    )
    p_gkm.set_defaults(func=cmd_gkm)

    p_kato = sub.add_parser(
        "kato", help="graded standard-module dimension of a shape"
    )
    common(p_kato, filtration=False)
    p_kato.add_argument(
        "--force",
        action="store_true",
        help="ignore the box-count guard on the graded sum",
    )
    p_kato.set_defaults(func=cmd_kato)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on first use, not at import: building costs about a
    # millisecond, as much as a whole small kato run
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc.message}", file=sys.stderr)
        return exc.code
    except (MemoryError, OverflowError):
        # a huge cycle length n allocates per-vertex tables of size n;
        # from n = 2^63 on, such a table cannot even be indexed
        print("error: out of memory", file=sys.stderr)
        return EXIT_GUARD


if __name__ == "__main__":
    sys.exit(main())
