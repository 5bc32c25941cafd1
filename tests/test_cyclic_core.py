"""Vertex arithmetic, rows, shapes, dimension vectors, filtration words."""
import re

import pytest

from conftest import (
    REFERENCE_DIM_VECTOR,
    REFERENCE_ROWS,
    REFERENCE_WORD,
)
from qfv import (
    Box,
    Row,
    Shape,
    column_label,
    filtration_dims,
    is_compatible,
    normalize_vertex,
    validate_word,
)


def test_normalize_vertex_wraps_into_one_to_n():
    assert normalize_vertex(0, 3) == 3
    assert normalize_vertex(4, 3) == 1
    assert normalize_vertex(-1, 3) == 2
    assert normalize_vertex(3, 3) == 3
    assert normalize_vertex(1, 1) == 1
    assert normalize_vertex(-5, 1) == 1


def test_column_labels_step_by_one_toward_socle():
    row = Row(2, 4)
    assert [column_label(row, pos, 3) for pos in (1, 2, 3, 4)] == [2, 3, 1, 2]
    assert column_label(Row(3, 3), 2, 3) == 2
    assert column_label(Row(1, 1), 1, 1) == 1
    # a row longer than the cycle repeats labels with period n
    assert column_label(Row(1, 5), 1, 2) == column_label(Row(1, 5), 3, 2)


def test_column_label_rejects_out_of_range_positions():
    with pytest.raises(ValueError):
        column_label(Row(1, 2), 0, 3)
    with pytest.raises(ValueError):
        column_label(Row(1, 2), 3, 3)


def test_row_top_and_labels_agree():
    assert Row(3, 3).top(3) == 1
    assert Row(2, 4).top(3) == 2
    assert Row(1, 2).top(2) == 2
    for row in (Row(1, 4), Row(2, 3), Row(3, 1)):
        labels = row.labels(3)
        assert labels[0] == row.top(3)
        assert labels[-1] == row.socle
        assert len(labels) == row.length


def test_rows_hash_and_compare_by_their_fields():
    assert Row(1, 2) == Row(1, 2)
    assert hash(Row(1, 2)) == hash(Row(1, 2))
    assert Row(1, 2) != Row(2, 1) and Row(1, 2) != Row(1, 3)
    assert len({Row(1, 2), Row(1, 2), Row(2, 1), Row(1, 3)}) == 3
    assert repr(Row(1, 2)) == "Row(socle=1, length=2)"


def test_shape_sorts_rows_by_top_then_length_descending():
    shape = Shape(2, [Row(1, 1), Row(1, 3), Row(2, 1)])
    assert shape.rows == (Row(1, 3), Row(1, 1), Row(2, 1))


def test_shape_sort_is_stable_and_optional():
    dup = Shape(1, [Row(1, 2), Row(1, 2)])
    assert dup.rows == (Row(1, 2), Row(1, 2))
    kept = Shape(1, [Row(1, 1), Row(1, 2)], keep_order=True)
    assert kept.rows == (Row(1, 1), Row(1, 2))


def test_reference_shape_is_already_canonical():
    shape = Shape(3, REFERENCE_ROWS)
    assert shape.rows == REFERENCE_ROWS
    assert shape.size == 14


def test_dimension_vectors():
    assert Shape(3, REFERENCE_ROWS).dim_vector() == REFERENCE_DIM_VECTOR
    assert Shape(2, []).dim_vector() == (0, 0)
    # one row winding the whole cycle touches every vertex once
    assert Shape(3, [Row(1, 3)]).dim_vector() == (1, 1, 1)
    assert Shape(1, [Row(1, 2), Row(1, 1)]).dim_vector() == (3,)


def test_boxes_are_row_major_and_labeled():
    shape = Shape(3, [Row(2, 2), Row(3, 1)])
    assert list(shape.boxes()) == [Box(1, 1), Box(1, 2), Box(2, 1)]
    assert shape.label(Box(1, 1)) == 1
    assert shape.label(Box(1, 2)) == 2
    assert shape.label(Box(2, 1)) == 3
    with pytest.raises(ValueError):
        shape.label(Box(3, 1))
    with pytest.raises(ValueError):
        shape.label(Box(1, 3))


def test_shape_json_roundtrip():
    shape = Shape(3, REFERENCE_ROWS)
    data = shape.to_json()
    assert data["n"] == 3
    assert data["rows"][0] == {"socle": 3, "len": 3}
    again = Shape.from_json(data)
    assert again == shape
    assert hash(again) == hash(shape)


def test_shape_from_json_keep_order():
    data = {"n": 1, "rows": [{"socle": 1, "len": 1}, {"socle": 1, "len": 2}]}
    assert Shape.from_json(data).rows == (Row(1, 2), Row(1, 1))
    assert Shape.from_json(data, keep_order=True).rows == (
        Row(1, 1),
        Row(1, 2),
    )


@pytest.mark.parametrize(
    "n, rows, message",
    [
        (2, [Row(1.5, 2)], "socle must be an integer, got 1.5"),
        (1, [Row(1, 2.5)], "row length must be an integer, got 2.5"),
        (2.0, [Row(1, 1)], "cycle length must be an integer, got 2.0"),
        (1, [Row(True, 1)], "socle must be an integer, got True"),
        (1, [Row(1, True)], "row length must be an integer, got True"),
        (True, [], "cycle length must be an integer, got True"),
        (3, [Row(1, 1), Row("2", 1)], "socle must be an integer, got '2'"),
    ],
    ids=["float_socle", "float_length", "float_n", "bool_socle", "bool_length",
         "bool_n", "str_socle"],
)
def test_shape_refuses_non_integer_fields(n, rows, message):
    # the constructor applies from_json's rule, so a bad field fails here
    # and not later in dim_vector
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Shape(n, rows)
    data = {"n": n, "rows": [{"socle": r.socle, "len": r.length} for r in rows]}
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Shape.from_json(data)


def test_validate_word_accepts_vertex_sequences():
    assert validate_word([1, 2, 1], 2) == (1, 2, 1)
    assert validate_word((), 1) == ()


def test_validate_word_rejects_bad_letters():
    with pytest.raises(ValueError):
        validate_word([0], 2)
    with pytest.raises(ValueError):
        validate_word([3], 2)
    with pytest.raises(ValueError):
        validate_word(["1"], 2)
    with pytest.raises(ValueError):
        validate_word([True], 2)


def test_filtration_dims_counts_prefix_letters():
    assert filtration_dims((1, 1), 2, 1) == (2,)
    assert filtration_dims((3, 2), 1, 3) == (0, 0, 1)
    assert filtration_dims((3, 2, 2), 3, 3) == (0, 2, 1)
    assert filtration_dims(REFERENCE_WORD, 0, 3) == (0, 0, 0)
    assert filtration_dims(REFERENCE_WORD, 14, 3) == REFERENCE_DIM_VECTOR


def test_is_compatible_matches_dimension_vector():
    shape = Shape(3, REFERENCE_ROWS)
    assert is_compatible(shape, REFERENCE_WORD)
    assert not is_compatible(shape, REFERENCE_WORD[:-1])
    swapped = (1,) + REFERENCE_WORD[1:]
    assert not is_compatible(shape, swapped)
    assert is_compatible(Shape(2, []), ())
