"""Command-line front end.

Subcommands mirror the library modules: tableau listings, graded cell
counts, the finite-field verification run, moment-graph exports with
membership checking, and graded standard-module dimensions.  All output
is exact; everything is deterministic for identical inputs.

Exit codes: 0 success (and, for oracle runs, full agreement), 1
malformed input or unwritable output, 2 structurally valid but
incompatible inputs, 3 resource guard tripped (override with --force)
or out of memory, 4 oracle mismatch.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from . import betti, ffmod, gkm, tableaux
from .cyclic_core import Shape, is_compatible, validate_word

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
        try:
            raw = [int(tok) for tok in arg.replace(",", " ").split()]
        except ValueError as exc:
            raise CliError(
                EXIT_MALFORMED, f"cannot parse filtration {arg!r}: {exc}"
            ) from exc
    try:
        return validate_word(raw, n)
    except ValueError as exc:
        raise CliError(EXIT_MALFORMED, f"bad filtration: {exc}") from exc


def _parse_primes(arg: str) -> tuple[int, ...]:
    try:
        primes = tuple(int(tok) for tok in arg.replace(",", " ").split())
    except ValueError as exc:
        raise CliError(EXIT_MALFORMED, f"cannot parse primes {arg!r}") from exc
    if not primes:
        raise CliError(EXIT_MALFORMED, "no primes given")
    for p in primes:
        if p not in ffmod.SUPPORTED_PRIMES:
            raise CliError(
                EXIT_MALFORMED,
                f"prime {p} unsupported, choose from {ffmod.SUPPORTED_PRIMES}",
            )
    return primes


def _require_compatible(shape: Shape, word) -> None:
    if not is_compatible(shape, word):
        raise CliError(
            EXIT_INCOMPATIBLE,
            f"filtration {','.join(map(str, word))} is incompatible with "
            f"dimension vector {shape.dim_vector()}",
        )


def _check_threads_env() -> None:
    # the oracle runs its primes one after another; QFV_THREADS is still
    # validated so that scripts setting it keep their exit codes
    env = os.environ.get("QFV_THREADS")
    if env is None:
        return
    try:
        cap = int(env)
    except ValueError as exc:
        raise CliError(EXIT_MALFORMED, "QFV_THREADS must be an integer") from exc
    if cap < 1:
        raise CliError(EXIT_MALFORMED, "QFV_THREADS must be at least 1")


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
    shape = _load_shape(args.shape)
    word = _parse_filtration(args.filtration, shape.n)
    _require_compatible(shape, word)
    ts = tableaux.enumerate_tableaux(shape, word)
    if args.format == "json":
        payload = {
            "count": len(ts),
            "tableaux": [
                {
                    "filling": [list(row) for row in t.filling],
                    "d_tau": [t.d_tau(k) for k in range(1, t.size + 1)],
                    "dim": t.cell_dim(),
                }
                for t in ts
            ],
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
        return EXIT_OK
    lines = [f"count: {len(ts)}"]
    for idx, t in enumerate(ts, start=1):
        filling = json.dumps(
            [list(row) for row in t.filling], separators=(",", ":")
        )
        stats = " ".join(str(t.d_tau(k)) for k in range(1, t.size + 1))
        lines.append(f"tableau {idx}: {filling}")
        lines.append(f"  d_tau: {stats}")
        lines.append(f"  dim: {t.cell_dim()}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_betti(args) -> int:
    shape = _load_shape(args.shape)
    word = _parse_filtration(args.filtration, shape.n)
    _require_compatible(shape, word)
    count = betti.f_count(shape, word)
    poly = betti.f_graded(shape, word)
    if args.format == "json":
        payload = {"count": count, "poincare": poly.to_json()}
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
        return EXIT_OK
    _emit(f"count: {count}\npoincare: {poly.qstring()}\n", args.out)
    return EXIT_OK


def _oracle_one(shape: Shape, word, p: int, poly, expected_cells):
    module = ffmod.build_module(shape, p)
    count = ffmod.count_flags(module, word)
    found_cells = ffmod.classify_flags(module, word)
    per_cell = []
    ok = count == poly.evaluate(p)
    for filling, dim in expected_cells:
        found = found_cells.pop(filling, 0)
        expected = p**dim
        if found != expected:
            ok = False
        per_cell.append(
            {
                "tableau": [list(row) for row in filling],
                "expected": expected,
                "found": found,
            }
        )
    for filling in sorted(found_cells):
        # a realized class the enumeration did not predict
        ok = False
        per_cell.append(
            {
                "tableau": [list(row) for row in filling],
                "expected": 0,
                "found": found_cells[filling],
            }
        )
    return {
        "p": p,
        "count": count,
        "poincare_at_p": poly.evaluate(p),
        "match": ok,
        "per_cell": per_cell,
    }


def cmd_oracle(args) -> int:
    shape = _load_shape(args.shape)
    word = _parse_filtration(args.filtration, shape.n)
    _require_compatible(shape, word)
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
    _check_threads_env()
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
    shape = _load_shape(args.shape)
    word = _parse_filtration(args.filtration, shape.n)
    _require_compatible(shape, word)
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
            f"graded sum and the orbit dimension; rerun with --force",
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
        "--force", action="store_true", help="ignore the box-count guard"
    )
    p_kato.set_defaults(func=cmd_kato)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc.message}", file=sys.stderr)
        return exc.code
    except MemoryError:
        # a huge cycle length n allocates per-vertex tables of size n
        print("error: out of memory", file=sys.stderr)
        return EXIT_GUARD


if __name__ == "__main__":
    sys.exit(main())
