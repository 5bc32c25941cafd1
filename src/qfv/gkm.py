"""Fixed-point graph of the torus action and the edge-divisibility test.

Nodes are the tableaux of one (shape, filtration) instance.  Two nodes
are joined when exchanging a pair of label-aligned contiguous box
segments between two rows turns one filling into the other, which is
the rule `admissible_swaps` states by definition; `build_gkm_graph`
finds the same edges from each node's geometric free directions, the
tangent directions of its cell.  The edge remembers the two rows, whose
torus coordinates give its linear form.
A tuple of polynomials, one per node, is a member of the structure ring
when every edge difference is divisible by that form.
"""
from __future__ import annotations

import ast
import json
import math
from fractions import Fraction
from itertools import combinations
from operator import add, lt
from typing import Iterable, NamedTuple, Sequence

from .cyclic_core import Shape
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


def admissible_swaps(
    t: RowMultiTableau,
) -> list[tuple[RowMultiTableau, tuple[int, int], tuple[int, int]]]:
    """All aligned segment exchanges out of `t`, by definition.

    A candidate picks two rows and equal-length contiguous windows whose
    column labels agree position by position; since labels step by one
    along a row, agreement at the first position is agreement
    everywhere.  The windows are exchanged, and the candidate is kept
    when both touched rows still increase strictly.  No dimension-gap
    condition is imposed: on shapes whose rows all have length one the
    resulting edge count equals the cell-dimension sum exactly, which is
    what the graph invariants require, while a unit-gap filter breaks it
    there.  Returned entry pair: the largest entry of each window, in
    row order; the order is row pair, width w, start in row p, start in
    row q.  This is the slow statement of the rule that
    `build_gkm_graph` is checked against.
    """
    shape = t.shape
    filling = t.filling
    labels = [row.labels(shape.n) for row in shape.rows]
    out = []
    for p, q in combinations(range(len(filling)), 2):
        rp, rq = filling[p], filling[q]
        for w in range(1, min(len(rp), len(rq)) + 1):
            for i in range(len(rp) - w + 1):
                for j in range(len(rq) - w + 1):
                    if labels[p][i] != labels[q][j]:
                        continue
                    new_p = rp[:i] + rq[j : j + w] + rp[i + w :]
                    new_q = rq[:j] + rp[i : i + w] + rq[j + w :]
                    if all(map(lt, new_p, new_p[1:])) and all(map(lt, new_q, new_q[1:])):
                        swapped = list(filling)
                        swapped[p], swapped[q] = new_p, new_q
                        swap = RowMultiTableau(shape, swapped)
                        out.append((swap, (p + 1, q + 1), (rp[i + w - 1], rq[j + w - 1])))
    return out


def build_gkm_graph(shape: Shape, f: Sequence[int]) -> GkmGraph:
    """Enumerate the nodes and join them along their free directions.

    The edges at a node are its geometric free directions (k, s), the
    pairs that `cell_dim(statistic="geometric")` counts, each taken with
    every width w: the exchange of the w-box windows that end at k and
    at s.  Both rows increase strictly, so an exchanged row increases
    strictly exactly when each window's ends fit their new neighbours:
    windows at i in row p and j in row q need rp[i-1] < rq[j] and
    rq[j-1] < rp[i] on the left, and rq[j+w-1] < rp[i+w] and
    rp[i+w-1] < rq[j+w] on the right.  A free direction already makes
    the right ends fit (s < k < right neighbour of k, and k < right
    neighbour of s), so only the two left-end tests remain for each w,
    which is O(1) per candidate.  Every swap of the graph arises this
    way at exactly one of its two ends, which is not always the
    lower-index one; so each edge is filed under its lower-index end,
    with the key (row pair, w, start in row p, start in row q) that
    orders the exchanges of `admissible_swaps`, and the sorted keys
    become the edges.  `Edge.entries` holds each window's last entry at
    the lower-index end, row p first: that is (k, s), as there the row-p
    window holds the larger one.
    """
    nodes = enumerate_tableaux(shape, f)
    index = {node.filling: idx for idx, node in enumerate(nodes)}
    # every node induces the word, so the nodes share their label
    # classes: the pairs s < k of one label are listed once
    classes = nodes[0]._label_classes() if nodes else []
    pairs = [(same[j], s) for same in classes for j in range(1, len(same)) for s in same[:j]]
    keys: list = []
    for owner, node in enumerate(nodes):
        filling = node.filling
        row, pos, right = node._row, node._pos, node._right
        rank = node._rank("geometric")
        for k, s in pairs:
            if not (right[s] > k and rank[s] > rank[k]):
                continue
            # (k, s) is a free direction: rows rk and rs hold k and s, and
            # the windows end just before positions ek and es
            rk, rs = row[k] - 1, row[s] - 1
            ek, es = pos[k], pos[s]
            row_k, row_s = filling[rk], filling[rs]
            for w in range(1, min(ek, es) + 1):
                i, j = ek - w, es - w
                if (i and row_k[i - 1] > row_s[j]) or (j and row_s[j - 1] > row_k[i]):
                    continue
                swapped = list(filling)
                swapped[rk] = row_k[:i] + row_s[j:es] + row_k[ek:]
                swapped[rs] = row_s[:j] + row_k[i:ek] + row_s[es:]
                other = index.get(tuple(swapped))
                if other is None:
                    raise ValueError("swap produced a filling outside the enumeration")
                a, b = (owner, other) if owner < other else (other, owner)
                if rk < rs:
                    keys.append((a, rk, rs, w, i, j, b))
                else:
                    keys.append((a, rs, rk, w, j, i, b))
    keys.sort()
    for idx, (a, p, q, w, i, j, b) in enumerate(keys):
        top = nodes[a].filling
        keys[idx] = Edge(a, b, (p + 1, q + 1), (top[p][i + w - 1], top[q][j + w - 1]))
    return GkmGraph(len(shape.rows), nodes, keys)


# A polynomial in x1..xt is a dict {exponent tuple: nonzero coefficient};
# coefficients are int or Fraction, so all arithmetic is exact and two
# polynomials are equal exactly when their dicts are.


def _literal(value) -> int | Fraction:
    """An int as itself, a finite float as the fraction of its shortest
    decimal form (0.1 is 1/10); anything else is not a coefficient."""
    if type(value) is int:
        return value
    if type(value) is float and math.isfinite(value):
        return Fraction(repr(value))
    raise ValueError(f"literal {value!r} is not allowed")


def _constant_value(poly: dict):
    """The value of a constant polynomial, None for a non-constant one."""
    if not poly:
        return 0
    if len(poly) == 1:
        ((mono, c),) = poly.items()
        if not any(mono):
            return c
    return None


def _add_into(out: dict, b: dict, negate: bool) -> dict:
    """`out` plus (or minus) `b`, added into `out`, a fresh dict that the
    caller gives up, so a long sum is not copied once per term."""
    for mono, c in b.items():
        c = out.get(mono, 0) - c if negate else out.get(mono, 0) + c
        if c:
            out[mono] = c
        else:
            del out[mono]
    return out


# Size caps, checked before any product is formed, so that powers such as
# 9^9^9 or (x1+x2+x3)^300 are refused at once instead of running for
# hours.  One product may pair at most _MAX_TERM_PAIRS terms; the largest
# coefficients of its two factors may have at most _MAX_COEFF_BITS bits
# together, and that sum times the number of pairs may be at most
# _MAX_PAIR_BITS (one or two of the bounds alone would still let a product
# run for minutes).  A `**` exponent has at most _MAX_EXPONENT_BITS bits,
# which bounds the squaring steps; past that, only the bases 0, 1 and -1
# and monomials would pass the other caps.  2**100000 and x1**1000000
# stay well within all four.
_MAX_TERM_PAIRS = 10**5
_MAX_COEFF_BITS = 2**20
_MAX_PAIR_BITS = 2**27
_MAX_EXPONENT_BITS = 64


def _coeff_bits(poly: dict) -> int:
    """Bit length of the largest numerator or denominator in `poly`."""
    bits = 0
    for c in poly.values():
        if type(c) is int:
            bits = max(bits, c.bit_length())
        else:
            bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    return bits


def _mul(a: dict, b: dict) -> dict:
    pairs = len(a) * len(b)
    if pairs > _MAX_TERM_PAIRS:
        raise ValueError(f"product of {len(a)} by {len(b)} terms is too large")
    bits = _coeff_bits(a) + _coeff_bits(b)
    if bits > _MAX_COEFF_BITS or pairs * bits > _MAX_PAIR_BITS:
        raise ValueError("product coefficients are too large")
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            mono = tuple(map(add, ma, mb))
            out[mono] = out.get(mono, 0) + ca * cb
    return {mono: c for mono, c in out.items() if c}


def _binop(op: type, a: dict, b: dict, zero: tuple) -> dict:
    """`a op b` for the type of an `ast.operator`; `a` may be reused."""
    if op is ast.Add:
        return _add_into(a, b, False)
    if op is ast.Sub:
        return _add_into(a, b, True)
    if op is ast.Mult:
        return _mul(a, b)
    c = _constant_value(b)
    if op is ast.Div:
        if c is None:
            raise ValueError("division by a non-constant")
        if c == 0:
            raise ValueError("division by zero")
        inv = 1 / Fraction(c)
        return {mono: v * inv for mono, v in a.items()}
    # ast.Pow: repeated squaring
    if c is None or c < 0 or c != int(c):
        raise ValueError("exponent is not a non-negative integer constant")
    e, result = int(c), {zero: 1}
    if e.bit_length() > _MAX_EXPONENT_BITS:
        raise ValueError(f"exponent has more than {_MAX_EXPONENT_BITS} bits")
    while e:
        if e & 1:
            result = _mul(result, a)
        e >>= 1
        if e:
            a = _mul(a, a)
    return result


_BINOPS = frozenset((ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow))
_UNARYOPS = frozenset((ast.UAdd, ast.USub))


class _StraySymbols(ValueError):
    """A name other than x1..xt; reported without the parse-error prefix."""


def _parse_poly(p, t: int) -> dict:
    """Read `p` as a polynomial in x1..xt; nothing is evaluated.

    An int or float is a constant; a string is parsed, with `^` meaning
    `**` as in sympy; any other object is parsed from `str(p)`.  The tree
    from `ast.parse` is folded bottom-up on an explicit stack, so long
    sums do not recurse; every value on the stack is a fresh dict, so a
    sum or a negation reuses its left operand.  Raises ValueError for any
    other syntax and for a product past the size caps.
    """
    if type(p) in (int, float):
        tree = ast.Expression(ast.Constant(p))
    else:
        text = p if isinstance(p, str) else str(p)
        try:
            tree = ast.parse(text.strip().replace("^", "**"), mode="eval")
        except (SyntaxError, ValueError, RecursionError) as exc:
            raise ValueError(str(exc)) from None
    var = {f"x{k}": k - 1 for k in range(1, t + 1)}
    zero = (0,) * t
    stack = [(tree.body, False)]
    values: list[dict] = []
    while stack:
        node, children_done = stack.pop()
        kind = type(node)
        if kind is ast.BinOp and type(node.op) in _BINOPS:
            if not children_done:
                stack += [(node, True), (node.right, False), (node.left, False)]
            else:
                b = values.pop()
                values.append(_binop(type(node.op), values.pop(), b, zero))
        elif kind is ast.Constant:
            c = _literal(node.value)
            values.append({zero: c} if c else {})
        elif kind is ast.Name:
            if node.id not in var:
                stray = {m.id for m in ast.walk(tree) if isinstance(m, ast.Name)}
                raise _StraySymbols(f"symbols outside x1..x{t}: {sorted(stray - set(var))}")
            mono = [0] * t
            mono[var[node.id]] = 1
            values.append({tuple(mono): 1})
        elif kind is ast.UnaryOp and type(node.op) in _UNARYOPS:
            if not children_done:
                stack += [(node, True), (node.operand, False)]
            elif type(node.op) is ast.USub:
                poly = values[-1]
                for mono, c in poly.items():
                    poly[mono] = -c
        else:
            raise ValueError(f"{type(getattr(node, 'op', node)).__name__} is not allowed")
    return values.pop()


def membership_check(g: GkmGraph, polys: Iterable) -> tuple[bool, list[Edge]]:
    """Divisibility of every edge difference by the edge's linear form.

    Takes one polynomial per node, in node order: a string, an int, a
    float, or any other object (a sympy expression, say) read through
    `str`.  A string may use x1..xt, integer and decimal literals, `+`,
    `-`, `*`, `/` by a nonzero constant and `**` (or `^`) by a
    non-negative integer constant of at most 64 bits; anything else,
    other names included, raises ValueError, and so does a product past
    the size caps (as in 9^9^9).  Strings are parsed, never evaluated,
    and the arithmetic is exact over the rationals (a decimal such as
    0.1 is 1/10).  For an edge on rows (p, q) the requirement is that the
    difference vanish under substituting x_p by x_q.  `polys` may be
    any iterable; a string that recurs is parsed once per call.  Returns
    the overall verdict plus the failing edges, in edge order.
    """
    polys = list(polys)
    if len(polys) != len(g.nodes):
        raise ValueError(
            f"need {len(g.nodes)} polynomials, got {len(polys)}"
        )
    parsed = []
    by_text: dict[str, dict] = {}
    for p in polys:
        text = p if type(p) is str else None
        if text in by_text:
            parsed.append(by_text[text])
            continue
        try:
            poly = _parse_poly(p, g.t)
        except _StraySymbols:
            raise
        except ValueError as exc:
            raise ValueError(f"cannot parse polynomial {p!r}: {exc}") from None
        if text is not None:
            by_text[text] = poly
        parsed.append(poly)
    failures = []
    for edge in g.edges:
        a, b = parsed[edge.a], parsed[edge.b]
        if a == b:
            continue
        # the difference a - b with x_p replaced by x_q, which must vanish
        p, q = edge.rows[0] - 1, edge.rows[1] - 1
        collapsed: dict = {}
        for poly, sign in ((a, 1), (b, -1)):
            for mono, c in poly.items():
                m = list(mono)
                m[q] += m[p]
                m[p] = 0
                m = tuple(m)
                collapsed[m] = collapsed.get(m, 0) + sign * c
        if any(collapsed.values()):
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
