"""Fixed-point graph construction, segment-exchange edges, membership
checking against edge linear forms, and DOT export."""
import random
from itertools import combinations

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import REFERENCE_WORD, all_shapes
from qfv import (
    Row,
    Shape,
    admissible_swaps,
    build_gkm_graph,
    export_dot,
    graph_to_json,
    membership_check,
    multiset_words,
)
from qfv import gkm
from qfv.gkm import Edge, _parse_poly
from qfv.tableaux import RowMultiTableau, enumerate_tableaux


def p1_graph():
    return build_gkm_graph(Shape(1, [Row(1, 1), Row(1, 1)]), (1, 1))


def fl3_graph():
    return build_gkm_graph(Shape(1, [Row(1, 1)] * 3), (1, 1, 1))


def test_two_point_graph_has_one_edge():
    g = p1_graph()
    assert g.t == 2
    assert len(g.nodes) == 2
    assert len(g.edges) == 1
    edge = g.edges[0]
    assert edge.rows == (1, 2)
    assert edge.entries == (2, 1)


def test_single_row_graph_has_no_edges():
    g = build_gkm_graph(Shape(1, [Row(1, 3)]), (1, 1, 1))
    assert len(g.nodes) == 1
    assert len(g.edges) == 0
    assert admissible_swaps(g.nodes[0]) == []


def test_swap_returns_the_other_filling():
    shape = Shape(1, [Row(1, 1), Row(1, 1)])
    t = RowMultiTableau(shape, ((2,), (1,)))
    swaps = admissible_swaps(t)
    assert len(swaps) == 1
    swapped, rows, entries = swaps[0]
    assert swapped.filling == ((1,), (2,))
    assert rows == (1, 2)
    assert entries == (2, 1)


def test_words_may_be_one_shot_iterators():
    # the word is checked once, by enumerate_tableaux, which keeps the
    # tuple it checked; a generator word must not arrive there consumed
    shape = Shape(2, [Row(1, 2), Row(2, 2)])
    word = (2, 1, 1, 2)
    g = build_gkm_graph(shape, (v for v in word))
    ref = build_gkm_graph(shape, word)
    assert g.nodes == ref.nodes and g.edges == ref.edges
    assert len(g.nodes) > 1 and g.edges
    assert enumerate_tableaux(shape, iter(word)) == list(ref.nodes)
    with pytest.raises(ValueError, match=r"vertex 3 outside 1\.\.2"):
        build_gkm_graph(shape, iter((2, 3, 1, 1)))


def test_full_flag_on_three_letters():
    g = fl3_graph()
    assert len(g.nodes) == 6
    assert len(g.edges) == 9
    dims = sorted(t.cell_dim() for t in g.nodes)
    assert dims == [0, 1, 1, 2, 2, 3]
    assert len(g.edges) == sum(dims)


def test_full_flag_includes_the_long_exchange():
    # the bottom and top cells differ by three dimensions but are still
    # joined: no dimension-gap filter is applied
    g = fl3_graph()
    pairs = {
        frozenset((g.nodes[e.a].filling, g.nodes[e.b].filling))
        for e in g.edges
    }
    assert frozenset({((3,), (2,), (1,)), ((1,), (2,), (3,))}) in pairs


def test_edges_reference_valid_distinct_nodes():
    g = fl3_graph()
    seen = set()
    for e in g.edges:
        assert 0 <= e.a < len(g.nodes)
        assert 0 <= e.b < len(g.nodes)
        assert e.a != e.b
        key = frozenset((e.a, e.b))
        assert key not in seen
        seen.add(key)
        assert 1 <= e.rows[0] < e.rows[1] <= g.t


def test_admissible_swaps_are_an_involution_on_the_grid():
    # on every compatible word of the <=4-box grid, each swap is undone
    # by a swap of its result, on the same rows, with the window entries
    # in the other order, and every edge is found once from each end
    instances = 0
    for n in (1, 2, 3):
        for shape in all_shapes(n, 4, 4):
            for word in multiset_words(shape.dim_vector()):
                g = build_gkm_graph(shape, word)
                if not g.nodes:
                    continue
                instances += 1
                swaps = {
                    t.filling: [(s.filling, rows, top) for s, rows, top in admissible_swaps(t)]
                    for t in g.nodes
                }
                for filling, found in swaps.items():
                    for swapped, rows, (k, m) in found:
                        assert (filling, rows, (m, k)) in swaps[swapped]
                assert sum(map(len, swaps.values())) == 2 * len(g.edges)
    assert instances == 392


def test_unit_row_edge_count_matches_dimension_sum():
    shape = Shape(2, [Row(1, 1), Row(1, 1), Row(2, 1)])
    for word in ((1, 1, 2), (1, 2, 1), (2, 1, 1)):
        ts = enumerate_tableaux(shape, word)
        if not ts:
            continue
        g = build_gkm_graph(shape, word)
        assert len(g.edges) == sum(t.cell_dim() for t in ts)


def _exchange(a, b, labels):
    """(rows, entries) of the edge from filling a to filling b, or None.

    Decided from the two fillings alone: they differ in exactly two rows,
    in each row the differing positions form one window, the windows have
    equal length and equal first labels, and their contents are exchanged.
    """
    rows = [p for p, (ra, rb) in enumerate(zip(a, b)) if ra != rb]
    if len(rows) != 2:
        return None
    windows = []
    for p in rows:
        pos = [i for i, (x, y) in enumerate(zip(a[p], b[p])) if x != y]
        if pos != list(range(pos[0], pos[-1] + 1)):
            return None
        windows.append(slice(pos[0], pos[-1] + 1))
    (p, q), (sp, sq) = rows, windows
    if sp.stop - sp.start != sq.stop - sq.start:
        return None
    if labels[p][sp.start] != labels[q][sq.start]:
        return None
    if b[p][sp] != a[q][sq] or b[q][sq] != a[p][sp]:
        return None
    return (p + 1, q + 1), (max(a[p][sp]), max(a[q][sq]))


def test_edges_match_pairwise_exchange_check():
    # slow independent route: every pair of nodes is compared directly,
    # on every word of the <=5-box grid, compatible or not; each edge is
    # kept at its lower-index end, where the upper window holds the
    # larger entry, which `build_gkm_graph` relies on to search one end
    words = 0
    for n in (1, 2, 3):
        for shape in all_shapes(n, 5, 4):
            labels = [row.labels(n) for row in shape.rows]
            for word in multiset_words(shape.dim_vector()):
                words += 1
                g = build_gkm_graph(shape, word)
                fillings = [t.filling for t in g.nodes]
                expected = set()
                for a, b in combinations(range(len(fillings)), 2):
                    found = _exchange(fillings[a], fillings[b], labels)
                    if found is not None:
                        expected.add((a, b) + found)
                assert set(map(tuple, g.edges)) == expected
                for e in g.edges:
                    assert e.a < e.b
                    assert e.entries[0] > e.entries[1]
    assert words == 2925


def _lower_end_edges(g):
    """The edges as the exchange rule defines them: node by node, the
    exchanges of `admissible_swaps` whose row-p window holds the larger
    entry, with the other end found by its filling."""
    index = {t.filling: idx for idx, t in enumerate(g.nodes)}
    return [
        Edge(a, index[swapped.filling], rows, entries)
        for a, t in enumerate(g.nodes)
        for swapped, rows, entries in admissible_swaps(t)
        if entries[0] > entries[1]
    ]


def test_edge_order_matches_lower_end_swaps(reference_shape):
    # every `qfv gkm` format prints the edges in order, so the order is
    # pinned as a list, not only as a set
    words = 0
    for n in (1, 2, 3):
        for shape in all_shapes(n, 5, 4):
            for word in multiset_words(shape.dim_vector()):
                words += 1
                g = build_gkm_graph(shape, word)
                assert list(g.edges) == _lower_end_edges(g)
    assert words == 2925
    g = build_gkm_graph(reference_shape, REFERENCE_WORD)
    assert len(g.edges) == 12960
    assert list(g.edges) == _lower_end_edges(g)


def test_membership_constant_tuple():
    g = fl3_graph()
    ok, failures = membership_check(g, [7] * 6)
    assert ok
    assert failures == []


def test_membership_linear_tuple_on_two_points():
    g = p1_graph()
    x = sympy.symbols("x1:3")
    ok, failures = membership_check(g, (x[0], x[1]))
    assert ok and failures == []
    ok, failures = membership_check(g, (x[0], 0))
    assert not ok
    assert [(f.rows, f.entries) for f in failures] == [((1, 2), (2, 1))]


def test_membership_accepts_strings():
    g = p1_graph()
    ok, _ = membership_check(g, ("x1", "x2"))
    assert ok
    ok, _ = membership_check(g, ("x1*x2", "x2*x1"))
    assert ok


def test_membership_is_exact_on_decimals_and_fractions():
    # 0.1 + 0.2 is 0.3 exactly, as decimals are read as fractions
    g = p1_graph()
    assert membership_check(g, ("0.1*x1 + 0.2*x1", "0.3*x2")) == (True, [])
    assert membership_check(g, ("x1/3 + x1/3 + x1/3", "x2")) == (True, [])
    assert membership_check(g, (0.5, "1/2")) == (True, [])
    ok, _ = membership_check(g, ("0.1*x1 + 0.2*x1", "0.30000001*x2"))
    assert not ok


def test_membership_input_errors():
    g = p1_graph()
    with pytest.raises(ValueError):
        membership_check(g, ("x1",))
    with pytest.raises(ValueError):
        membership_check(g, ("x1+(", "x2"))
    with pytest.raises(ValueError):
        membership_check(g, ("y1", "x2"))


def test_membership_accepts_a_generator():
    g = fl3_graph()
    texts = [f"{i}*x1" for i in range(6)]
    expected = (False, list(g.edges))
    assert membership_check(g, texts) == expected
    assert membership_check(g, (s for s in texts)) == expected
    with pytest.raises(ValueError, match="need 6 polynomials, got 5"):
        membership_check(g, (s for s in texts[:5]))


def test_parser_sums_cancel_in_one_pass():
    assert _parse_poly("x1 - x1", 2) == {}
    assert _parse_poly("x1 + x2 - x1 - x2", 2) == {}
    assert _parse_poly("+x1 + +x1", 2) == _parse_poly("2*x1", 2) == {(1, 0): 2}
    assert _parse_poly("x1**0 + x1**0", 2) == _parse_poly("2", 2) == {(0, 0): 2}
    assert _parse_poly("-(x1 - x2) + x1", 2) == {(0, 1): 1}


def test_membership_repeated_strings_match_distinct_copies():
    # a string that recurs is parsed once per call; spaces make copies
    # that are distinct strings for the same polynomial
    g = fl3_graph()
    for texts in (
        ["x1*x2 - x3"] * 6,
        ["x1", "x2*x3 - x1", "x1", "x2*x3 - x1", "x1", "-x2"],
        ["(x1 + x2)^2", "x3", "(x1 + x2)^2", "(x1 + x2)^2", "x3", "x1 - x1"],
    ):
        copies = [text + " " * i for i, text in enumerate(texts)]
        assert membership_check(g, texts) == membership_check(g, copies)
    ok, failures = membership_check(g, ["x1", "x2*x3 - x1", "x1", "x2*x3 - x1", "x1", "-x2"])
    assert not ok and failures


def test_membership_reports_a_repeated_malformed_string():
    g = fl3_graph()
    texts = ["x1"] * 6
    texts[2] = texts[5] = "x1 +* x2"
    with pytest.raises(ValueError, match=r"cannot parse polynomial 'x1 \+\* x2'"):
        membership_check(g, texts)


def test_membership_collapses_each_polynomial_once_per_row_pair(
    reference_shape, monkeypatch
):
    # rows-weighted tuple: row r weighted by r, 1,394 distinct strings
    # over the 1,728 nodes; nodes sharing a string share its collapses
    g = build_gkm_graph(reference_shape, REFERENCE_WORD)
    texts = [
        " + ".join(f"{r * sum(row)}*x{r}" for r, row in enumerate(node.filling, start=1))
        for node in g.nodes
    ]
    assert (len(set(texts)), len(texts)) == (1394, 1728)
    calls = []
    collapse = gkm._collapse

    def spy(poly, p, q):
        calls.append((tuple(sorted(poly.items())), p, q))
        return collapse(poly, p, q)

    monkeypatch.setattr(gkm, "_collapse", spy)
    ok, failures = membership_check(g, texts)
    assert not ok and len(failures) == 12744
    assert len(calls) == len(set(calls)) == 11836


def test_export_dot_layout():
    dot = export_dot(p1_graph())
    assert dot.startswith("digraph gkm {")
    assert dot.rstrip().endswith("}")
    assert 'n0 [label="[[2],[1]]"];' in dot
    assert 'n0 -> n1 [label="x1-x2"];' in dot


def test_export_dot_empty_shape_single_node():
    g = build_gkm_graph(Shape(1, []), ())
    dot = export_dot(g)
    assert dot.count("label=") == 1
    assert "->" not in dot


def test_graph_to_json():
    data = graph_to_json(p1_graph())
    assert data == {
        "t": 2,
        "nodes": [[[2], [1]], [[1], [2]]],
        "edges": [{"a": 0, "b": 1, "rows": [1, 2], "entries": [2, 1]}],
    }


def _reference_failures(g, texts):
    """Failing edges by sympy alone: expand((A - B) with x_p -> x_q) == 0.

    The slow independent route for `membership_check`: sympy parses the
    same strings (decimals read as exact rationals) and does the algebra.
    """
    x = sympy.symbols(f"x1:{g.t + 1}")
    exprs = [sympy.sympify(s, rational=True) for s in texts]
    return [
        e
        for e in g.edges
        if sympy.expand((exprs[e.a] - exprs[e.b]).subs(x[e.rows[0] - 1], x[e.rows[1] - 1])) != 0
    ]


def _random_tuple(rng, g):
    """One polynomial string per node: a member or a perturbed member.

    Members are c*M^k + d with M = sum_r x_r * (entry sum of row r), which a
    swap on rows (p, q) changes by a multiple of x_p - x_q.  The scalar is
    written as a fraction (bare or in parentheses) or as a decimal, and the
    power with `^` or `**`.  A perturbation subtracts a random monomial,
    possibly divided by 3, from some nodes.
    """
    k = rng.randint(0, 3)
    num, den = rng.randint(-4, 4), rng.choice((1, 2, 4, 5))
    scalar = rng.choice((f"{num}/{den}", repr(num / den), f"({num}/{den})"))
    power = rng.choice(("^", "**"))
    d = rng.randint(-3, 3)
    perturb = rng.random() < 0.5
    texts = []
    for node in g.nodes:
        m = " + ".join(f"{sum(row)}*x{r}" for r, row in enumerate(node.filling, 1)) or "0"
        text = f"{scalar}*({m}){power}{k} + {d}"
        if perturb and rng.random() < 0.5:
            r = rng.randint(1, g.t)
            text += f" - {rng.randint(1, 3)}*x{r}{power}{rng.randint(1, 2)}/{rng.choice((1, 3))}"
        texts.append(text)
    return texts


def test_membership_matches_sympy_reference_on_grid():
    # slow independent route on the 392 instances of the <=4-box grid
    rng = random.Random(20261018)
    verdicts = set()
    instances = 0
    for n in (1, 2, 3):
        for shape in all_shapes(n, 4, 4):
            for word in multiset_words(shape.dim_vector()):
                g = build_gkm_graph(shape, word)
                if not g.nodes:
                    continue
                instances += 1
                texts = _random_tuple(rng, g)
                expected = _reference_failures(g, texts)
                ok, failures = membership_check(g, texts)
                assert (ok, failures) == (not expected, expected), texts
                verdicts.add(ok)
    assert instances == 392
    assert verdicts == {True, False}


_FUZZ_TOKENS = ["x1", "x2", "x3", *"0123456789", *"+-*/^().", " ", "y", "x0", "x4", "sin"]
# operands and operators alternate, so more of these strings parse
_FUZZ_OPERANDS = st.sampled_from(
    ["x1", "x2", "x3", "y", "x4", "0", "2", "0.5", "(x1-x2)", "sin(x1)", "(1", "x2)"]
)
_FUZZ_OPERATORS = st.sampled_from(["+", "-", "*", "/", "^", "**", " ", "."])
_FUZZ_TEXT = st.one_of(
    st.lists(st.sampled_from(_FUZZ_TOKENS)).map("".join),
    st.tuples(_FUZZ_OPERANDS, st.lists(st.tuples(_FUZZ_OPERATORS, _FUZZ_OPERANDS))).map(
        lambda t: t[0] + "".join(op + arg for op, arg in t[1])
    ),
)


@settings(derandomize=True, max_examples=400, database=None, deadline=None)
@given(_FUZZ_TEXT)
def test_membership_parser_fuzz(text):
    # any string over the polynomial alphabet either gives a verdict or
    # is rejected with ValueError; nothing else escapes
    g = fl3_graph()
    try:
        ok, failures = membership_check(g, [text] + ["x1"] * 5)
    except ValueError:
        return
    assert ok == (not failures)
