"""Workload definitions: the fixed call lists, their input files, and the
independent combinatorics that the gkm correctness gate relies on.

Nothing here imports `qfv`.  The shape grid, the canonical row order, the
fillings of a (shape, word) instance and the swap edges between them are
recomputed from their definitions, so the gate compares the program with a
second implementation and with values pinned from the seed commit
(`pins.json`), never with itself.

A call list is a list of dicts:
  oracle, kato, gkm:  {"key": ..., "argv": [...], ...}  run through `qfv.cli.main`
  sweep:              {"key": ..., "shape": {...}}       run through the library
Further fields hold expected values for the gate; `for_worker` drops them,
so the sample process never holds them.  The seed only shuffles the order
of the list.
"""
from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
PINS_FILE = HERE / "pins.json"

WORKLOADS = ("oracle", "sweep", "kato", "gkm")

# grids: (cycle lengths, max boxes, max rows)
SMALL_GRID = ((1, 2, 3), 4, 4)  # oracle and gkm: 392 (shape, word) instances
SWEEP_GRID = ((1, 2, 3), 7, 4)  # acceptance grid: 765 shapes, 14,956 words
KATO_BOXES, KATO_ROWS = 8, 3  # 205 shapes of exactly 8 boxes
KATO_LIMIT_SHAPE = (3, ((3, 6), (2, 6)))  # 12 boxes, at the CLI's kato guard

# the reference instance of tests/conftest.py: 1,728 nodes, 12,960 edges
REFERENCE = (
    3,
    ((3, 3), (3, 3), (2, 2), (2, 4), (3, 2)),
    (3, 2, 2, 2, 1, 3, 3, 3, 2, 1, 2, 1, 1, 2),
)


def canonical(n: int, rows) -> tuple[tuple[int, int], ...]:
    """Rows (socle, length) in the program's canonical order: top vertex
    ascending, then length descending, ties stable."""
    rows = [((s - 1) % n + 1, ln) for s, ln in rows]
    return tuple(sorted(rows, key=lambda r: ((r[0] - r[1]) % n + 1, -r[1])))


def grid_shapes(n: int, max_boxes: int, max_rows: int):
    """Every multiset of rows within the bounds, in the order of the test
    suite's `all_shapes`."""
    row_types = [(s, ln) for s in range(1, n + 1) for ln in range(1, max_boxes + 1)]
    out = []
    for k in range(1, max_rows + 1):
        for combo in itertools.combinations_with_replacement(row_types, k):
            if sum(ln for _, ln in combo) <= max_boxes:
                out.append(canonical(n, combo))
    return out


def labels(n: int, row) -> tuple[int, ...]:
    socle, length = row
    return tuple((socle - length + p - 1) % n + 1 for p in range(1, length + 1))


def fillings(n: int, rows, word=None):
    """(word, filling) for every placement sequence, in the program's node
    order: entries r, r-1, ..., 1, each into the rightmost free box of a
    row, rows tried top to bottom.  With `word`, only matching sequences."""
    labs = [labels(n, row) for row in rows]
    r = sum(ln for _, ln in rows)
    filled = [0] * len(rows)
    filling = [[0] * ln for _, ln in rows]
    placed: list[int] = []
    out = []

    def rec(k: int):
        if k > r:
            out.append((tuple(placed), tuple(map(tuple, filling))))
            return
        for i, (_, length) in enumerate(rows):
            if filled[i] == length:
                continue
            pos = length - filled[i]
            label = labs[i][pos - 1]
            if word is not None and label != word[k - 1]:
                continue
            filling[i][pos - 1] = r + 1 - k
            filled[i] += 1
            placed.append(label)
            rec(k + 1)
            placed.pop()
            filled[i] -= 1
            filling[i][pos - 1] = 0

    rec(1)
    return out


def grid_instances(ns, max_boxes, max_rows):
    """(n, rows, word) for every word that has at least one filling."""
    out = []
    for n in ns:
        for rows in grid_shapes(n, max_boxes, max_rows):
            for word in sorted({w for w, _ in fillings(n, rows)}):
                out.append((n, rows, word))
    return out


def _increasing(seq) -> bool:
    return all(a < b for a, b in zip(seq, seq[1:]))


def swap_edges(n: int, rows, nodes) -> dict[tuple[int, int], tuple[int, int]]:
    """Edges {(a, b): (p, q)} of the fixed-point graph: exchanges of
    label-aligned equal-length windows between rows p < q that keep both
    rows increasing.  An edge keeps the rows of its first discovery."""
    labs = [labels(n, row) for row in rows]
    index = {f: i for i, f in enumerate(nodes)}
    edges: dict[tuple[int, int], tuple[int, int]] = {}
    for a, filling in enumerate(nodes):
        for pi, qi in itertools.combinations(range(len(rows)), 2):
            lp, lq = rows[pi][1], rows[qi][1]
            for w in range(1, min(lp, lq) + 1):
                for i in range(lp - w + 1):
                    for j in range(lq - w + 1):
                        if labs[pi][i] != labs[qi][j]:
                            continue
                        new_p = list(filling[pi])
                        new_q = list(filling[qi])
                        new_p[i : i + w], new_q[j : j + w] = new_q[j : j + w], new_p[i : i + w]
                        if not (_increasing(new_p) and _increasing(new_q)):
                            continue
                        swapped = list(filling)
                        swapped[pi], swapped[qi] = tuple(new_p), tuple(new_q)
                        b = index[tuple(swapped)]
                        edges.setdefault((min(a, b), max(a, b)), (pi + 1, qi + 1))
    return edges


def check_tuple(nodes, kind: str) -> list[str]:
    """One polynomial per node, of one of three kinds.

    member: sum_r x_r * (entry sum of row r).  A swap on rows (p, q)
        changes it by D*(x_p - x_q), so every edge divides.
    rows:   row r weighted by r.  An edge fails exactly when its swap
        changes the entry sum of row p (D != 0).
    index:  node i gets i*x1.  No edge form x_p - x_q divides a nonzero
        multiple of x1, so every edge fails and the failing-edge list is
        the program's whole edge set.
    """
    if kind == "index":
        return [f"{i}*x1" for i in range(len(nodes))]
    weight = (lambda r: 1) if kind == "member" else (lambda r: r)
    return [
        " + ".join(f"{weight(r) * sum(row)}*x{r}" for r, row in enumerate(filling, start=1))
        for filling in nodes
    ]


def expected_failures(nodes, edges, kind: str) -> list[list[int]]:
    """Failing edges [a, b, p, q], sorted, for a `check_tuple` of `kind`."""
    if kind == "member":
        return []
    return sorted(
        [a, b, p, q]
        for (a, b), (p, q) in edges.items()
        if kind == "index" or sum(nodes[a][p - 1]) != sum(nodes[b][p - 1])
    )


def key_of(n: int, rows, word=None) -> str:
    shape = ",".join(f"{s}.{ln}" for s, ln in rows)
    if word is None:
        return f"{n}|{shape}"
    return f"{n}|{shape}|{','.join(map(str, word))}"


def shape_json(n: int, rows) -> dict:
    return {"n": n, "rows": [{"socle": s, "len": ln} for s, ln in rows]}


def kato_shapes():
    out = [
        (n, rows)
        for n in (1, 2, 3)
        for rows in grid_shapes(n, KATO_BOXES, KATO_ROWS)
        if sum(ln for _, ln in rows) == KATO_BOXES
    ]
    n, rows = KATO_LIMIT_SHAPE
    out.append((n, canonical(n, rows)))
    return out


class _Files:
    """Writes the inputs the program receives: shape, word and polynomial
    files under one work directory."""

    def __init__(self, workdir: Path):
        self.dir = workdir
        self.dir.mkdir(parents=True, exist_ok=True)
        self.count = 0

    def write(self, prefix: str, data) -> str:
        self.count += 1
        path = self.dir / f"{prefix}{self.count}.json"
        path.write_text(json.dumps(data))
        return str(path)


def _cli_instances(files: _Files, instances):
    """Shape and word files for (n, rows, word) instances; one shape file
    per distinct shape."""
    shape_files: dict = {}
    out = []
    for n, rows, word in instances:
        if (n, rows) not in shape_files:
            shape_files[n, rows] = files.write("shape", shape_json(n, rows))
        out.append((n, rows, word, shape_files[n, rows], files.write("word", {"word": list(word)})))
    return out


def _oracle_calls(files: _Files, pins):
    calls = []
    for n, rows, word, sfile, wfile in _cli_instances(files, grid_instances(*SMALL_GRID)):
        calls.append({
            "key": key_of(n, rows, word),
            "argv": ["oracle", "--shape", sfile, "--filtration", wfile,
                     "--primes", "2,3", "--format", "json"],
        })
    return calls


def _sweep_calls(files: _Files, pins):
    ns, max_boxes, max_rows = SWEEP_GRID
    return [
        {"key": key_of(n, rows), "shape": shape_json(n, rows)}
        for n in ns
        for rows in grid_shapes(n, max_boxes, max_rows)
    ]


def _kato_calls(files: _Files, pins):
    return [
        {"key": key_of(n, rows),
         "argv": ["kato", "--shape", files.write("shape", shape_json(n, rows)),
                  "--format", "json"]}
        for n, rows in kato_shapes()
    ]


def _gkm_calls(files: _Files, pins):
    """One --check call per small-grid instance, with the member tuple on
    even positions of the unshuffled list and the index tuple on odd ones;
    on the reference instance a --format dot call and a --check call with
    the rows tuple.  A call carries its expected failing edges and, where
    the output lists every edge, the expected edge set."""
    calls = []
    instances = _cli_instances(files, grid_instances(*SMALL_GRID))
    n, rows, word = REFERENCE
    rows = canonical(n, rows)
    instances += _cli_instances(files, [(n, rows, word)])
    for pos, (n, rows, word, sfile, wfile) in enumerate(instances):
        key = key_of(n, rows, word)
        nodes = [f for _, f in fillings(n, rows, word)]
        edges = swap_edges(n, rows, nodes)
        pin = pins["gkm"][key]
        if (len(nodes), len(edges)) != (pin["nodes"], pin["edges"]):
            raise ValueError(
                f"benchmark enumeration disagrees with the pinned counts at {key}"
            )
        edge_list = sorted([a, b, p, q] for (a, b), (p, q) in edges.items())
        argv = ["gkm", "--shape", sfile, "--filtration", wfile]
        is_reference = pos == len(instances) - 1
        kind = "rows" if is_reference else ("member", "index")[pos % 2]
        calls.append({
            "key": key,
            "argv": argv + ["--check", files.write("poly", check_tuple(nodes, kind))],
            "tuple": kind,
            "failing": expected_failures(nodes, edges, kind),
            "edges": edge_list,
        })
        if is_reference:
            calls.append({"key": key, "argv": argv + ["--format", "dot"], "edges": edge_list})
    return calls


_BUILDERS = {
    "oracle": _oracle_calls,
    "sweep": _sweep_calls,
    "kato": _kato_calls,
    "gkm": _gkm_calls,
}


WORKER_FIELDS = ("key", "argv", "shape")


def for_worker(calls: list[dict]) -> list[dict]:
    """The calls as the sample process gets them: without expectations."""
    return [{k: c[k] for k in WORKER_FIELDS if k in c} for c in calls]


def load_pins() -> dict:
    return json.loads(PINS_FILE.read_text())


def generate(workload: str, seed: int, workdir: Path, pins=None) -> list[dict]:
    """The workload's fixed call list, input files written under `workdir`,
    in the call order the seed picks."""
    calls = _BUILDERS[workload](_Files(workdir), pins if pins is not None else load_pins())
    random.Random(seed).shuffle(calls)
    return calls
