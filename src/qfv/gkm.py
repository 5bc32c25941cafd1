"""Fixed-point graph of the torus action and the edge-divisibility test.

Nodes are the tableaux of one (shape, filtration) instance.  Two nodes
are joined when exchanging a pair of label-aligned contiguous box
segments between two rows turns one filling into the other; the edge
remembers the two rows, whose torus coordinates give its linear form.
A tuple of polynomials, one per node, is a member of the structure ring
when every edge difference is divisible by that form.
"""
from __future__ import annotations

import json
from itertools import combinations
from typing import NamedTuple, Sequence

import sympy

from .cyclic_core import Shape, validate_word
from .tableaux import RowMultiTableau, enumerate_tableaux


class Edge(NamedTuple):
    a: int
    b: int
    rows: tuple[int, int]
    entries: tuple[int, int]


class GkmGraph:
    """Nodes, undirected deduplicated edges, and the torus rank t."""

    __slots__ = ("t", "nodes", "edges")

    def __init__(self, t: int, nodes: Sequence[RowMultiTableau], edges: Sequence[Edge]):
        self.t = t
        self.nodes = tuple(nodes)
        self.edges = tuple(edges)


def _strictly_increasing(seq: Sequence[int]) -> bool:
    return all(a < b for a, b in zip(seq, seq[1:]))


def _swaps(filling: tuple[tuple[int, ...], ...], labels: list[tuple[int, ...]]):
    """Yield (swapped filling, (p, q), entries) for each aligned exchange.

    The plain-tuple core of `admissible_swaps`, which states the rule;
    `labels` holds each row's column labels.
    """
    for p, q in combinations(range(len(filling)), 2):
        rp, rq = filling[p], filling[q]
        for w in range(1, min(len(rp), len(rq)) + 1):
            for i in range(len(rp) - w + 1):
                for j in range(len(rq) - w + 1):
                    if labels[p][i] != labels[q][j]:
                        continue
                    new_p = rp[:i] + rq[j : j + w] + rp[i + w :]
                    new_q = rq[:j] + rp[i : i + w] + rq[j + w :]
                    if _strictly_increasing(new_p) and _strictly_increasing(new_q):
                        swapped = list(filling)
                        swapped[p], swapped[q] = new_p, new_q
                        # rows increase, so a window's last entry is its largest
                        top = (rp[i + w - 1], rq[j + w - 1])
                        yield tuple(swapped), (p + 1, q + 1), top


def admissible_swaps(
    t: RowMultiTableau,
) -> list[tuple[RowMultiTableau, tuple[int, int], tuple[int, int]]]:
    """All aligned segment exchanges out of `t`.

    A candidate picks two rows and equal-length contiguous windows whose
    column labels agree position by position; since labels step by one
    along a row, agreement at the first position is agreement
    everywhere.  The exchanged filling must still be strictly increasing
    in both touched rows.  No dimension-gap condition is imposed: on
    shapes whose rows all have length one the resulting edge count
    equals the cell-dimension sum exactly, which is what the graph
    invariants require, while a unit-gap filter breaks it there.
    Returned entry pair: the largest entry of each window, in row order.
    """
    shape = t.shape
    labels = [row.labels(shape.n) for row in shape.rows]
    return [
        (RowMultiTableau(shape, f), rows, entries)
        for f, rows, entries in _swaps(t.filling, labels)
    ]


def build_gkm_graph(shape: Shape, f: Sequence[int]) -> GkmGraph:
    """Enumerate the nodes and connect them by admissible swaps."""
    word = validate_word(f, shape.n)
    nodes = enumerate_tableaux(shape, word)
    index = {node.filling: idx for idx, node in enumerate(nodes)}
    labels = [row.labels(shape.n) for row in shape.rows]
    edges: list[Edge] = []
    for a, node in enumerate(nodes):
        for filling, rows_pq, entries_km in _swaps(node.filling, labels):
            b = index.get(filling)
            if b is None:
                raise ValueError("swap produced a filling outside the enumeration")
            # a swap is its own inverse, so both ends find each pair; the
            # end with the smaller index finds it first and keeps its data
            if a < b:
                edges.append(Edge(a, b, rows_pq, entries_km))
    return GkmGraph(len(shape.rows), nodes, edges)


def torus_symbols(t: int):
    """x1..xt as sympy symbols."""
    return sympy.symbols(f"x1:{t + 1}")


def membership_check(g: GkmGraph, polys: Sequence) -> tuple[bool, list[Edge]]:
    """Divisibility of every edge difference by the edge's linear form.

    Accepts sympy expressions, strings, or numbers, one per node in node
    order.  For an edge on rows (p, q) the requirement is that the
    difference vanish under substituting x_p by x_q.  Returns the overall
    verdict plus the failing edges.
    """
    if len(polys) != len(g.nodes):
        raise ValueError(
            f"need {len(g.nodes)} polynomials, got {len(polys)}"
        )
    xs = torus_symbols(g.t)
    allowed = set(xs)
    exprs = []
    for p in polys:
        try:
            e = sympy.sympify(p)
        except (sympy.SympifyError, TypeError) as exc:
            raise ValueError(f"cannot parse polynomial {p!r}: {exc}") from exc
        stray = e.free_symbols - allowed
        if stray:
            raise ValueError(f"symbols outside x1..x{g.t}: {sorted(map(str, stray))}")
        exprs.append(e)
    failures = []
    for edge in g.edges:
        diff = sympy.expand(exprs[edge.a] - exprs[edge.b])
        if diff == 0:
            continue
        pv, qv = edge.rows
        if sympy.expand(diff.subs(xs[pv - 1], xs[qv - 1])) != 0:
            failures.append(edge)
    return (not failures), failures


def export_dot(g: GkmGraph) -> str:
    lines = ["digraph gkm {"]
    for idx, node in enumerate(g.nodes):
        label = json.dumps(
            [list(row) for row in node.filling], separators=(",", ":")
        )
        lines.append(f'  n{idx} [label="{label}"];')
    for e in g.edges:
        lines.append(
            f'  n{e.a} -> n{e.b} [label="x{e.rows[0]}-x{e.rows[1]}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_json(g: GkmGraph) -> dict:
    return {
        "t": g.t,
        "nodes": [[list(row) for row in node.filling] for node in g.nodes],
        "edges": [
            {
                "a": e.a,
                "b": e.b,
                "rows": list(e.rows),
                "entries": list(e.entries),
            }
            for e in g.edges
        ],
    }
