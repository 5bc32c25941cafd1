"""Graded counting: q-polynomials, the peel-a-box recursions, bundle and
orbit dimensions, and the assembled graded module dimension."""
import gc
import json
import tracemalloc
from collections import Counter

import pytest

from conftest import (
    REFERENCE_F_COUNT,
    REFERENCE_ROWS,
    REFERENCE_WORD,
    all_shapes,
)
from qfv import (
    Box,
    KatoGdim,
    Row,
    Shape,
    ambient_poincare,
    bundle_dim,
    end_boxes,
    f_count,
    f_graded,
    kato_gdim,
    multiset_words,
    orbit_dim,
    q_factorial,
    q_int,
    remove_box,
)
from qfv import betti, ffmod, linalg
from qfv.betti import PoincarePoly
from qfv.cli import main
from qfv.tableaux import enumerate_by_filtration


def reference_shape():
    return Shape(3, REFERENCE_ROWS)


# ---------------------------------------------------------------- polynomials


def test_q_int_and_q_factorial():
    assert q_int(1).qstring() == "1"
    assert q_int(2).qstring() == "1 + q"
    assert q_factorial(3).qstring() == "1 + 2q + 2q^2 + q^3"
    assert q_factorial(4).evaluate(1) == 24
    assert q_factorial(0).qstring() == "1"


def test_poincare_poly_api():
    p = PoincarePoly({0: 1, 1: 2})
    assert p.coeff(1) == 2
    assert p.coeff(5) == 0
    assert p.degree == 1
    assert p.total() == 3
    assert p.evaluate(3) == 7
    assert p.shifted(2).qstring() == "q^2 + 2q^3"
    assert p.to_json() == {"0": 1, "1": 2}
    assert PoincarePoly.from_json(p.to_json()) == p


def test_poincare_poly_zero_and_validation():
    zero = PoincarePoly({})
    assert zero.qstring() == "0"
    assert zero.degree == -1
    assert not zero
    assert PoincarePoly({0: 1})
    with pytest.raises(ValueError):
        PoincarePoly({-1: 1})
    with pytest.raises(ValueError):
        PoincarePoly({0: -2})


@pytest.mark.parametrize(
    "coeffs",
    [{0.5: 1}, {1: 2.7}, {1: 2.0}, {True: 1}, {0: True}, {0.5: 0}, {"1": 1}],
    ids=["float_degree", "float_coeff", "integral_float", "bool_degree",
         "bool_coeff", "zero_term", "str_degree"],
)
def test_poincare_poly_and_kato_gdim_refuse_non_integer_terms(coeffs):
    # degrees and coefficients are ints, never truncated: {0.5: 1} used to
    # equal {0: 1}, and {1: 2.7} to hold the coefficient 2
    with pytest.raises(ValueError, match="must be integers"):
        PoincarePoly(coeffs)
    with pytest.raises(ValueError, match="must be integers"):
        KatoGdim(coeffs, 0)


def test_poincare_poly_from_json_reads_keys_not_coefficients():
    assert PoincarePoly.from_json({"0": 1, "2": 3}) == PoincarePoly({0: 1, 2: 3})
    with pytest.raises(ValueError, match="must be integers"):
        PoincarePoly.from_json({"1": 2.5})


def test_ambient_poincare_is_product_of_factorials():
    assert ambient_poincare((2,)) == q_factorial(2)
    assert ambient_poincare((1, 1)) == q_factorial(1)
    two = ambient_poincare((2, 2))
    assert two.qstring() == "1 + 2q + q^2"
    assert ambient_poincare(()).qstring() == "1"


# ------------------------------------------------------------ shape surgery


def test_end_boxes_lists_socle_boxes_per_vertex():
    shape = reference_shape()
    assert end_boxes(shape, 3) == [Box(1, 3), Box(2, 3), Box(5, 2)]
    assert end_boxes(shape, 2) == [Box(3, 2), Box(4, 4)]
    assert end_boxes(shape, 1) == []


def test_remove_box_shortens_in_place_without_resorting():
    shape = reference_shape()
    child = remove_box(shape, Box(1, 3))
    assert [(r.socle, r.length) for r in child.rows] == [
        (2, 2),
        (3, 3),
        (2, 2),
        (2, 4),
        (3, 2),
    ]


def test_remove_box_drops_emptied_rows():
    shape = Shape(1, [Row(1, 2), Row(1, 1)])
    child = remove_box(shape, Box(2, 1))
    assert child.rows == (Row(1, 2),)


def test_remove_box_rejects_non_end_boxes():
    shape = Shape(1, [Row(1, 2)])
    with pytest.raises(ValueError):
        remove_box(shape, Box(1, 1))
    with pytest.raises(ValueError):
        remove_box(shape, Box(2, 1))


# ------------------------------------------------------------- the recursion


def test_count_base_cases():
    assert f_count(Shape(1, []), ()) == 1
    assert f_graded(Shape(1, []), ()).qstring() == "1"
    assert f_count(Shape(3, [Row(2, 3)]), (2, 1, 3)) == 1
    assert f_count(Shape(1, [Row(1, 1), Row(1, 1)]), (1, 1)) == 2
    assert f_graded(Shape(1, [Row(1, 1), Row(1, 1)]), (1, 1)).qstring() == "1 + q"


def test_incompatible_word_counts_zero():
    shape = Shape(1, [Row(1, 2)])
    assert f_count(shape, (1, 1, 1)) == 0
    assert not f_graded(shape, (1, 1, 1))


def test_partial_word_counts_end_boxes():
    shape = Shape(1, [Row(1, 2), Row(1, 1)])
    assert f_graded(shape, (1,)).qstring() == "1 + q"


def test_count_depends_on_row_order():
    canon = Shape(1, [Row(1, 1), Row(1, 2)])
    assert canon.rows == (Row(1, 2), Row(1, 1))
    assert f_graded(canon, (1, 1, 1)).qstring() == "1 + q + q^2"
    kept = Shape(1, [Row(1, 1), Row(1, 2)], keep_order=True)
    assert f_graded(kept, (1, 1, 1)).qstring() == "1 + 2q"
    assert f_count(canon, (1, 1, 1)) == f_count(kept, (1, 1, 1)) == 3


def test_reference_instance_totals():
    shape = reference_shape()
    assert f_count(shape, REFERENCE_WORD) == REFERENCE_F_COUNT
    poly = f_graded(shape, REFERENCE_WORD)
    assert poly.total() == REFERENCE_F_COUNT
    assert poly.degree == 14
    assert poly.coeff(9) == 272


def test_graded_total_equals_plain_count():
    for shape, word in (
        (Shape(2, [Row(1, 2), Row(2, 2)]), (1, 2, 2, 1)),
        (Shape(3, [Row(1, 1), Row(2, 1), Row(3, 1)]), (2, 3, 1)),
        (Shape(1, [Row(1, 3), Row(1, 2)]), (1, 1, 1, 1, 1)),
    ):
        assert f_graded(shape, word).total() == f_count(shape, word)


def test_geometric_recursion_on_j2_plus_j1():
    # 2q + 1 is the number of F_q-points of two lines meeting in a point;
    # the geometric shift depends on lengths, not on the row order
    canon = Shape(1, [Row(1, 1), Row(1, 2)])
    kept = Shape(1, [Row(1, 1), Row(1, 2)], keep_order=True)
    for shape in (canon, kept):
        assert f_graded(shape, (1, 1, 1), "geometric").qstring() == "1 + 2q"


def test_reference_geometric_polynomial_at_small_primes():
    # brute-force flag counts of the reference instance over F_2 and F_3
    shape = reference_shape()
    poly = f_graded(shape, REFERENCE_WORD, statistic="geometric")
    assert poly.total() == REFERENCE_F_COUNT
    assert poly.evaluate(2) == 202419
    assert poly.evaluate(3) == 5883904
    assert f_graded(shape, REFERENCE_WORD).evaluate(2) == 857304


def test_geometric_recursion_matches_enumeration_on_small_grid():
    checked = 0
    for n in (1, 2, 3):
        for shape in all_shapes(n, 5, 4):
            for word, ts in enumerate_by_filtration(shape).items():
                hist = Counter(t.cell_dim("geometric") for t in ts)
                assert f_graded(shape, word, "geometric") == PoincarePoly(hist), (
                    shape,
                    word,
                )
                checked += 1
    assert checked == 1373


def test_unknown_statistic_is_rejected_by_the_recursion():
    with pytest.raises(ValueError):
        f_graded(Shape(1, [Row(1, 1)]), (1,), statistic="lengthwise")


# ------------------------------------------------------- the shared memo


def _grid_instances(max_boxes):
    """(shape, word) for every shape of the grid with at most `max_boxes`
    boxes and every word with its letter counts, flags or not."""
    return [
        (shape, word)
        for n in (1, 2, 3)
        for shape in all_shapes(n, max_boxes, 4)
        for word in multiset_words(shape.dim_vector())
    ]


def _clear_memo():
    """Empty the memo of `f_count` and `f_graded` and its intern tables."""
    for table in (betti._GRADED_MEMO, betti._GRADED_PARTS, betti._GRADED_VALUES):
        table.clear()


def _counts(shape, word):
    return (
        f_count(shape, word),
        f_graded(shape, word),
        f_graded(shape, word, "geometric"),
    )


def test_memo_gives_the_same_counts_in_any_order_and_from_scratch():
    instances = _grid_instances(5)
    _clear_memo()
    forward = [_counts(shape, word) for shape, word in instances]
    _clear_memo()
    backward = [_counts(shape, word) for shape, word in reversed(instances)]
    scratch = []
    for shape, word in instances:
        _clear_memo()
        scratch.append(_counts(shape, word))
    assert forward == backward[::-1] == scratch
    assert len(instances) == 2925


def test_f_graded_equals_the_checked_polynomial_on_the_grid():
    # f_graded keeps the memo's value as its terms, past the constructor's
    # checks; the checked constructor must build the same polynomial
    _clear_memo()
    instances = _grid_instances(6)
    assert len(instances) == 12786
    for shape, word in instances:
        for statistic in ("pinned", "geometric"):
            poly = f_graded(shape, word, statistic)
            checked = PoincarePoly(dict(poly.items()))
            assert poly == checked and hash(poly) == hash(checked)
            assert poly.items() == checked.items()


def test_memo_stores_each_rows_tuple_suffix_and_value_once():
    _clear_memo()
    for shape, word in _grid_instances(5):
        _counts(shape, word)
    memo = betti._GRADED_MEMO
    first: dict = {}
    for n, rows, rest, geometric in memo:
        assert first.setdefault(rows, rows) is rows
        assert first.setdefault(rest, rest) is rest
        # rows stay Rows: a rows tuple that equals a value (a Row is a
        # tuple) must not be swapped for it, nor a value for it
        assert all(type(row) is Row for row in rows)
    values: dict = {}
    for value in memo.values():
        assert values.setdefault(value, value) is value
        assert all(type(term) is tuple for term in value)


def test_memo_holds_under_250_bytes_per_state():
    # each state shares its rows, word suffix and value with the states
    # that have equal ones; with a copy of each in each state this sweep
    # would retain about 440 bytes per state
    instances = [
        (shape, word)
        for n in (1, 2, 3)
        for shape in all_shapes(n, 6, 4)
        for word in enumerate_by_filtration(shape)
    ]
    _clear_memo()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for shape, word in instances:
            _counts(shape, word)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    states = len(betti._GRADED_MEMO)
    assert states == 12196
    assert retained / states < 250


def test_kato_gdim_leaves_nothing_in_module_tables():
    def table_sizes():
        return {
            name: len(value)
            for name, value in vars(betti).items()
            if isinstance(value, (dict, list, set))
        }

    before = table_sizes()
    for rows in ([Row(1, 2), Row(1, 1)], [Row(2, 3), Row(1, 2), Row(2, 1)]):
        kato_gdim(Shape(2, rows))
    assert table_sizes() == before


# ------------------------------------------------- bundle, orbit, assembly


def test_bundle_dim_values():
    assert bundle_dim((1,), 2) == 0
    assert bundle_dim((1, 1), 1) == 2
    assert bundle_dim((1, 2), 2) == 1
    assert bundle_dim((1, 1, 1), 1) == 6
    assert bundle_dim((1, 2, 1), 2) == 3


def test_orbit_dim_values():
    assert orbit_dim(Shape(1, [Row(1, 2)])) == 2
    assert orbit_dim(Shape(1, [Row(1, 1), Row(1, 1)])) == 0
    assert orbit_dim(Shape(1, [Row(1, 2), Row(1, 1)])) == 4
    assert orbit_dim(Shape(1, [])) == 0


def test_orbit_dim_matches_linear_algebra_on_grid():
    # slow independent route: dim End by exact rational elimination of the
    # intertwiner system, on every shape with n <= 4, <= 4 rows and <= 8
    # boxes (<= 7 at n = 4)
    shapes = [s for n in (1, 2, 3) for s in all_shapes(n, 8, 4)]
    shapes += all_shapes(4, 7, 4)
    assert len(shapes) == 2475
    for shape in shapes:
        group = sum(d * d for d in shape.dim_vector())
        assert orbit_dim(shape) == group - ffmod.dim_end(shape), shape


# (n, rows, gdim, orbit_dim) as computed by the linear-algebra route
KATO_CASES = [
    (1, [(1, 2), (1, 1)], "t^4 + t^5 + t^6", 4),
    (2, [(1, 3), (2, 2), (1, 1)], "2t^10 + 7t^11 + 15t^12 + 19t^13 + 13t^14 + 4t^15", 11),
    (4, [(2, 3), (4, 1), (1, 2)], "16t^8 + 24t^9 + 14t^10 + 5t^11 + t^12", 8),
]


def test_kato_needs_no_linear_algebra(monkeypatch, tmp_path, capsys):
    # the recursion route stays independent of the module route
    def boom(*args):
        raise AssertionError("linear algebra on the kato path")

    monkeypatch.setattr(ffmod, "dim_end", boom)
    monkeypatch.setattr(ffmod, "rank_rational", boom)
    monkeypatch.setattr(linalg, "rank_rational", boom)
    for n, rows, gdim, odim in KATO_CASES:
        shape = Shape(n, [Row(*r) for r in rows])
        k = kato_gdim(shape)
        assert (k.tstring(), k.orbit_dim) == (gdim, odim)
        path = tmp_path / "shape.json"
        path.write_text(json.dumps(shape.to_json()))
        assert main(["kato", "--shape", str(path)]) == 0
        assert capsys.readouterr().out == f"gdim: {gdim}\norbit_dim: {odim}\n"
    k = kato_gdim(reference_shape())
    assert (k.total(), k.coeffs[45], k.coeffs[70], k.orbit_dim) == (
        25225200, 221, 8, 47
    )


def test_multiset_words_enumerates_lexicographically():
    assert list(multiset_words((2, 1))) == [(1, 1, 2), (1, 2, 1), (2, 1, 1)]
    assert list(multiset_words((2,))) == [(1, 1)]
    assert list(multiset_words(())) == [()]
    assert len(list(multiset_words((2, 2)))) == 6


def test_kato_gdim_two_box_cases():
    one_row = kato_gdim(Shape(1, [Row(1, 2)]))
    assert one_row.coeffs == {2: 1}
    assert one_row.orbit_dim == 2
    assert one_row.tstring() == "t^2"
    two_rows = kato_gdim(Shape(1, [Row(1, 1), Row(1, 1)]))
    assert two_rows.coeffs == {1: 1, 2: 1}
    assert two_rows.orbit_dim == 0
    assert two_rows.tstring() == "t + t^2"


def test_kato_gdim_three_boxes_and_empty():
    k = kato_gdim(Shape(1, [Row(1, 2), Row(1, 1)]))
    assert k.coeffs == {4: 1, 5: 1, 6: 1}
    assert k.orbit_dim == 4
    assert kato_gdim(Shape(1, [])).coeffs == {0: 1}


def test_kato_gdim_serialization_and_total():
    k = kato_gdim(Shape(1, [Row(1, 2)]))
    assert k.to_json() == {"coeffs": {"2": 1}, "orbit_dim": 2}
    assert k.total() == 1
    assert isinstance(k, KatoGdim)


def test_kato_gdim_matches_enumerated_cell_dimensions(grid_stats):
    # independent of the fold: cell dimensions from tableau enumeration,
    # one bundle dimension per word, summed as t^(bundle_dim(word) - d)
    for shape, stats in grid_stats:
        expected = Counter()
        for word, hist in stats.items():
            e = bundle_dim(word, shape.n)
            for d, c in hist.items():
                expected[e - d] += c
        assert kato_gdim(shape).coeffs == dict(expected), shape
    assert len(grid_stats) == 765


def test_kato_gdim_memory_does_not_grow_with_the_cycle():
    # labels 1..5 on both cycles, so no row wraps and the two modules are
    # the same; the fold's states are the rows alone, with nothing of
    # size n in them (states keyed with an n-tuple of letters used
    # peaked at about 51 MB here)
    rows = [Row(3, 3), Row(4, 3), Row(4, 3), Row(5, 3)]
    small = kato_gdim(Shape(50, rows))
    tracemalloc.start()
    try:
        big = kato_gdim(Shape(30_000, rows))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert big == small
    assert (small.total(), small.orbit_dim) == (369600, 25)
    assert peak < 4_000_000
