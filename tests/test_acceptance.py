"""The seven acceptance sweeps, in order, one [PASS]/[FAIL] line each.

Run with `pytest -s` to see the per-criterion lines on success; pytest
shows them in captured stdout whenever a criterion fails.  Criterion 3
checks brute-force F_p point counts against the geometric cell statistic
and the oracle's shortest-row pivot: totals, every cell, and stray
fillings.  The pinned default statistic, which criterion 1 freezes, does
not satisfy that identity; criterion 3 prints its disagreements as [DIAG]
lines without asserting them, as criterion 6 does for the edge identity on
the instances where a cell has a repeated tangent weight.
"""
import json
import time
from bisect import bisect_left
from math import factorial

import pytest
import sympy

from conftest import (
    REFERENCE_D_TAU,
    REFERENCE_DIM,
    all_shapes,
)
from qfv import (
    Row,
    Shape,
    ambient_poincare,
    build_gkm_graph,
    build_module,
    classify_flags,
    count_flags,
    f_count,
    f_graded,
    kato_gdim,
    membership_check,
    multiset_words,
    q_factorial,
)
from qfv.betti import PoincarePoly
from qfv.tableaux import enumerate_by_filtration, enumerate_tableaux


def _shape_label(shape):
    rows = ",".join(f"E{r.socle}[{r.length}]" for r in shape.rows)
    return f"n={shape.n} [{rows}]"


def test_criterion_1_reference_cell_dimension_table(reference_tableau):
    started = time.perf_counter()
    values = tuple(reference_tableau.d_tau(k) for k in range(1, 15))
    dim = reference_tableau.cell_dim()
    elapsed = time.perf_counter() - started
    ok = values == REFERENCE_D_TAU and dim == REFERENCE_DIM and elapsed < 1.0
    print(
        f"[{'PASS' if ok else 'FAIL'}] criterion 1: reference free-coordinate "
        f"table {list(values)} with cell dimension {dim} in {elapsed:.3f}s"
    )
    assert values == REFERENCE_D_TAU
    assert dim == REFERENCE_DIM
    assert elapsed < 1.0


def test_criterion_2_recursion_matches_enumeration(grid_stats):
    started = time.perf_counter()
    words = 0
    for shape, stats in grid_stats:
        for word, dims in stats.items():
            assert f_count(shape, word) == sum(dims.values()), (
                f"count mismatch at {_shape_label(shape)} word {word}"
            )
            assert f_graded(shape, word) == PoincarePoly(dims), (
                f"graded mismatch at {_shape_label(shape)} word {word}"
            )
            words += 1
    elapsed = time.perf_counter() - started
    print(
        f"[PASS] criterion 2: recursion equals enumeration on all {words} "
        f"(shape, filtration) instances of the exhaustive grid in {elapsed:.1f}s"
    )
    assert words > 14000
    assert elapsed < 300.0


def _oracle_instances():
    shapes = [
        Shape(1, [Row(1, 1)]),
        Shape(1, [Row(1, 2)]),
        Shape(1, [Row(1, 1), Row(1, 1)]),
        Shape(1, [Row(1, 3)]),
        Shape(1, [Row(1, 2), Row(1, 1)]),
        Shape(1, [Row(1, 1)] * 3),
        Shape(1, [Row(1, 4)]),
        Shape(1, [Row(1, 3), Row(1, 1)]),
        Shape(1, [Row(1, 2), Row(1, 2)]),
        Shape(1, [Row(1, 2), Row(1, 1), Row(1, 1)]),
        Shape(1, [Row(1, 1)] * 4),
        Shape(2, [Row(1, 1), Row(2, 1)]),
        Shape(2, [Row(1, 2), Row(2, 1)]),
        Shape(2, [Row(2, 2), Row(1, 1)]),
        Shape(2, [Row(1, 2), Row(2, 2)]),
        Shape(2, [Row(1, 1), Row(1, 1), Row(2, 1)]),
        Shape(3, [Row(1, 1), Row(2, 1), Row(3, 1)]),
        Shape(3, [Row(1, 2), Row(3, 1)]),
        Shape(3, [Row(2, 3), Row(2, 1)]),
    ]
    out = []
    for shape in shapes:
        for word in sorted(enumerate_by_filtration(shape)):
            out.append((shape, word))
    return out


def test_criterion_3_finite_field_point_counts():
    started = time.perf_counter()
    instances = _oracle_instances()
    assert len(instances) >= 20
    mismatches = []
    pinned_off = []
    for shape, word in instances:
        poly = f_graded(shape, word, statistic="geometric")
        pinned = f_graded(shape, word)
        cells = enumerate_tableaux(shape, word)
        for p in (2, 3):
            m = build_module(shape, p)
            flags = count_flags(m, word)
            predicted = poly.evaluate(p)
            lines = []
            if flags != predicted:
                lines.append(f"total flags {flags} vs recursion {predicted}")
            by_cell = classify_flags(m, word, pivot="shortest")
            for t in cells:
                want = p ** t.cell_dim(statistic="geometric")
                got = by_cell.get(t.filling, 0)
                if got != want:
                    lines.append(
                        f"cell {json.dumps([list(r) for r in t.filling])} "
                        f"expected {want} found {got}"
                    )
            stray = set(by_cell) - {t.filling for t in cells}
            if stray:
                lines.append(f"unclassified fillings {sorted(stray)}")
            label = f"{_shape_label(shape)} word {word} p={p}"
            if lines:
                mismatches.append((label, lines))
            if flags != pinned.evaluate(p):
                pinned_off.append((label, flags, pinned.evaluate(p)))
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    if pinned_off:
        print(
            f"[DIAG] criterion 3: the pinned default statistic predicts the "
            f"wrong number of flags on {len(pinned_off)} of "
            f"{2 * len(instances)} (instance, prime) checks; it overstates "
            "cells whose free direction points at a row that is shorter at "
            "that step.  Criterion 1 pins it, so it stays the default:"
        )
        for label, flags, predicted in pinned_off:
            print(f"    {label}: {flags} flags vs pinned {predicted}")
    if not mismatches:
        print(
            f"[PASS] criterion 3: point counts match the geometric graded "
            f"cell counts, and every shortest-row pivot class holds "
            f"p^(geometric dimension) points, on all {len(instances)} "
            f"instances at p in {{2, 3}} in {elapsed:.1f}s"
        )
        return
    print(
        f"[FAIL] criterion 3: {len(mismatches)} of {2 * len(instances)} "
        f"(instance, prime) checks disagree with the geometric statistic "
        f"({elapsed:.1f}s):"
    )
    for label, lines in mismatches:
        print(f"  {label}")
        for line in lines:
            print(f"    {line}")
    print(
        "  analysis: the enumerated counts are the ground truth (they come "
        "from direct submodule-chain enumeration, independent of the "
        "recursion).  A total that differs from the geometric polynomial "
        "at q = p means the statistic or its recursion is wrong; a cell "
        "that differs from p^dim, or a stray filling, means the "
        "shortest-row pivot no longer cuts the variety into affine cells "
        "matching the tableaux."
    )
    pytest.fail(
        f"{len(mismatches)} oracle checks disagree with the geometric "
        "statistic; see captured stdout for the instance list and analysis"
    )


def test_criterion_4_classical_flag_degenerations():
    for d in range(1, 6):
        shape = Shape(1, [Row(1, 1)] * d)
        assert f_graded(shape, (1,) * d) == q_factorial(d), f"d={d}"
    partitions = all_shapes(1, 6, 6)
    for shape in partitions:
        r = shape.size
        expected = factorial(r)
        for row in shape.rows:
            expected //= factorial(row.length)
        assert f_count(shape, (1,) * r) == expected, _shape_label(shape)
    print(
        "[PASS] criterion 4: unit-row Poincare polynomials equal the "
        f"q-factorial up to d=5 and tableau counts equal multinomials on "
        f"all {len(partitions)} one-vertex shapes with at most 6 boxes"
    )


def test_criterion_5_betti_bounded_by_ambient(grid_stats):
    ambients = {}
    checked = 0
    for shape, stats in grid_stats:
        dv = shape.dim_vector()
        if dv not in ambients:
            ambients[dv] = ambient_poincare(dv)
        ambient = ambients[dv]
        for word in stats:
            poly = f_graded(shape, word)
            for k, c in poly.items():
                assert c <= ambient.coeff(k), (
                    f"degree {k} excess at {_shape_label(shape)} word {word}"
                )
            checked += 1
    print(
        f"[PASS] criterion 5: graded cell counts stay within the ambient "
        f"product of q-factorials degreewise on all {checked} grid instances"
    )


def _tangent_weights(t, labels):
    """The weights x_{row s} - x_{row k}, as (row s, row k), of the
    geometric free directions (k, s) of `t`, read off the filling by
    their definition: s < k lie in different rows with equal column
    labels (`labels` holds each row's), s is the last entry below k in
    its row, and that row is longer than k's row at the step placing k
    (position of s past the position of k), or as long and lower."""
    weights = []
    for rk, row_k in enumerate(t.filling):
        for pk, k in enumerate(row_k):
            label = labels[rk][pk]
            for rs, row_s in enumerate(t.filling):
                ps = bisect_left(row_s, k) - 1  # s = row_s[ps]
                if (
                    ps >= 0
                    and rs != rk
                    and labels[rs][ps] == label
                    and (ps > pk or (ps == pk and rs > rk))
                ):
                    weights.append((rs + 1, rk + 1))
    return weights


def test_criterion_6_moment_graph_structure(grid_stats):
    # GKM description: where no cell has a repeated tangent weight, the
    # edges are the cells' geometric free directions, so their count is
    # the geometric dimension sum.  The directions are counted here from
    # their definition, not through the graph build.
    started = time.perf_counter()
    checked = unit_checked = gkm_checked = 0
    diagnostics = []
    for shape, stats in grid_stats:
        unit_rows = all(r.length == 1 for r in shape.rows)
        labels = [row.labels(shape.n) for row in shape.rows]
        for word, dims in stats.items():
            graph = build_gkm_graph(shape, word)
            nodes = sum(dims.values())
            assert len(graph.nodes) == nodes == f_count(shape, word), (
                f"node count at {_shape_label(shape)} word {word}"
            )
            expected_edges = sum(d * c for d, c in dims.items())
            checked += 1
            if unit_rows:
                unit_checked += 1
                assert len(graph.edges) == expected_edges, (
                    f"edge identity broken on the unit-row shape "
                    f"{_shape_label(shape)} word {word}: "
                    f"{len(graph.edges)} vs {expected_edges}"
                )
            directions, repeated = 0, None
            for t in graph.nodes:
                weights = _tangent_weights(t, labels)
                directions += len(weights)
                if repeated is None and len(set(weights)) < len(weights):
                    repeated = t, next(w for w in weights if weights.count(w) > 1)
            geometric = sum(t.cell_dim("geometric") for t in graph.nodes)
            assert directions == geometric, (
                f"geometric cell_dim at {_shape_label(shape)} word {word}"
            )
            if repeated is None:
                gkm_checked += 1
                assert len(graph.edges) == geometric, (
                    f"GKM edge identity broken at {_shape_label(shape)} "
                    f"word {word}: {len(graph.edges)} edges vs geometric "
                    f"dimension sum {geometric}"
                )
            else:
                diagnostics.append(
                    (shape, word, repeated, len(graph.edges), geometric)
                )

    two_points = build_gkm_graph(Shape(1, [Row(1, 1), Row(1, 1)]), (1, 1))
    x = sympy.symbols("x1:3")
    ok, _ = membership_check(two_points, (x[0], x[1]))
    assert ok
    ok, failures = membership_check(two_points, (x[0], 0))
    assert not ok and len(failures) == 1
    full = build_gkm_graph(Shape(1, [Row(1, 1)] * 3), (1, 1, 1))
    ok, _ = membership_check(full, [5] * len(full.nodes))
    assert ok

    elapsed = time.perf_counter() - started
    for shape, word, (t, (rs, rk)), got, want in diagnostics:
        filling = json.dumps([list(row) for row in t.filling], separators=(",", ":"))
        print(
            f"[DIAG] criterion 6: {_shape_label(shape)} word {word}: cell "
            f"{filling} has the tangent weight x{rs} - x{rk} twice; "
            f"{got} edges vs geometric dimension sum {want}"
        )
    matching = sum(got == want for *_, got, want in diagnostics)
    print(
        f"[PASS] criterion 6: node counts and membership checks exact on "
        f"all {checked} grid instances; edge count equal to the geometric "
        f"dimension sum on all {gkm_checked} instances without a repeated "
        f"tangent weight, and to the pinned sum on all {unit_checked} "
        f"unit-row instances; {len(diagnostics)} instances with a repeated "
        f"weight reported above as [DIAG] lines, not asserted ({matching} "
        f"of them match anyway) ({elapsed:.1f}s)"
    )


def test_criterion_7_graded_module_dimensions():
    started = time.perf_counter()
    one_row = kato_gdim(Shape(1, [Row(1, 2)]))
    assert one_row.coeffs == {2: 1}
    assert one_row.orbit_dim == 2
    two_rows = kato_gdim(Shape(1, [Row(1, 1), Row(1, 1)]))
    assert two_rows.coeffs == {1: 1, 2: 1}
    assert two_rows.orbit_dim == 0

    checked = 0
    for n in (1, 2, 3):
        for shape in all_shapes(n, 5, 5):
            k = kato_gdim(shape)
            assert all(c >= 0 for c in k.coeffs.values()), _shape_label(shape)
            total = sum(
                f_count(shape, word)
                for word in multiset_words(shape.dim_vector())
            )
            assert k.total() == total, _shape_label(shape)
            checked += 1
    elapsed = time.perf_counter() - started
    print(
        f"[PASS] criterion 7: normalized graded dimensions are t^2 and "
        f"t + t^2 on the two-box cases, and coefficient sums match summed "
        f"tableau counts on all {checked} shapes with at most 5 boxes "
        f"({elapsed:.1f}s)"
    )
    assert elapsed < 60.0
