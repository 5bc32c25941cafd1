"""Tableau validation, the free-coordinate statistic and placement
enumeration."""
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    GRID_MAX_BOXES,
    GRID_MAX_ROWS,
    GRID_NS,
    REFERENCE_D_TAU,
    REFERENCE_DIM,
    REFERENCE_FILLING,
    REFERENCE_WORD,
    all_shapes,
)
from qfv import (
    Box,
    Row,
    Shape,
    enumerate_by_filtration,
    enumerate_tableaux,
)
from qfv.tableaux import RowMultiTableau


def p1_shape():
    return Shape(1, [Row(1, 1), Row(1, 1)])


def test_reference_tableau_statistics(reference_tableau):
    t = reference_tableau
    assert tuple(t.d_tau(k) for k in range(1, 15)) == REFERENCE_D_TAU
    assert t.cell_dim() == REFERENCE_DIM
    assert t.dim_filtration() == REFERENCE_WORD


def test_entry_lookup(reference_tableau):
    t = reference_tableau
    assert t.box_of_entry(14) == Box(1, 3)
    assert t.box_of_entry(1) == Box(4, 1)
    # step k places entry r + 1 - k
    assert t.step_box(1) == t.box_of_entry(14)
    assert t.step_box(14) == t.box_of_entry(1)


def test_smaller_entry_in_lower_row_is_a_free_coordinate():
    t = RowMultiTableau(p1_shape(), ((2,), (1,)))
    assert t.d_tau(1) == 0
    assert t.d_tau(2) == 1
    assert t.cell_dim() == 1
    other = RowMultiTableau(p1_shape(), ((1,), (2,)))
    assert other.cell_dim() == 0


def test_intervening_entry_blocks_an_earlier_one():
    # entries 1 and 2 share the lower row; 2 sits between 1 and 3, so only
    # 2 counts toward entry 3 (without blocking the count would be 2)
    shape = Shape(1, [Row(1, 1), Row(1, 2)], keep_order=True)
    t = RowMultiTableau(shape, ((3,), (1, 2)))
    assert t.d_tau(3) == 1


def test_geometric_statistic_on_j2_plus_j1():
    # the Springer fibre of J2+J1 is two lines meeting in a point, so its
    # cells have dimensions 0, 1, 1; the pinned statistic gives 0, 1, 2
    shape = Shape(1, [Row(1, 2), Row(1, 1)])
    ts = enumerate_tableaux(shape, (1, 1, 1))
    geometric = {t.filling: t.cell_dim("geometric") for t in ts}
    assert geometric == {((2, 3), (1,)): 1, ((1, 3), (2,)): 0, ((1, 2), (3,)): 1}
    assert sorted(t.cell_dim() for t in ts) == [0, 1, 2]
    t = RowMultiTableau(shape, ((1, 2), (3,)))
    # 2 ends the longer row when 3 is placed: free although it is above
    assert t.d_tau(3, "geometric") == 1
    assert t.d_tau(3) == 0
    t = RowMultiTableau(shape, ((2, 3), (1,)))
    # 1 ends a shorter row when 3 is placed; at 2 the rows tie, 1 is lower
    assert t.d_tau(3, "geometric") == 0
    assert t.d_tau(2, "geometric") == 1
    assert t.cell_dim("geometric") == 1


def test_reference_tableau_geometric_dimension(reference_tableau):
    # its cell holds 2^6 and 3^6 flags under the shortest-row pivot (see
    # test_ffmod); the pinned statistic says 9
    assert reference_tableau.cell_dim("geometric") == 6
    assert reference_tableau.cell_dim() == REFERENCE_DIM


def test_unknown_statistic_is_rejected(reference_tableau):
    with pytest.raises(ValueError):
        reference_tableau.d_tau(5, "lengthwise")
    with pytest.raises(ValueError):
        reference_tableau.cell_dim("lengthwise")


def test_entry_numbers_reject_bools():
    # True == 1, but the constructor and from_json reject bools as
    # entries, so the lookups reject them as entry numbers too
    t = RowMultiTableau(Shape(1, [Row(1, 2), Row(1, 1)]), ((1, 3), (2,)))
    for b in (True, False):
        with pytest.raises(ValueError, match=f"no entry {b} in a filling of size 3"):
            t.box_of_entry(b)
        with pytest.raises(ValueError, match=rf"step {b} out of range 1\.\.3"):
            t.step_box(b)
        with pytest.raises(ValueError, match=f"no entry {b} in a filling of size 3"):
            t.d_tau(b)
        with pytest.raises(ValueError, match=f"no entry {b} in a filling of size 3"):
            t.d_tau(b, "geometric")


class _CountingList(list):
    """A list that counts the reads made by index."""

    def __init__(self, items):
        super().__init__(items)
        self.reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


@pytest.mark.parametrize("statistic", ["pinned", "geometric"])
def test_d_tau_reads_only_the_entries_below_k(statistic):
    # d_tau(k) scans the entries below k once, so the r calls read the
    # label table at most r(r+1)/2 times in all (45,150 here), where a
    # d_tau that filtered a pass over all pairs per call would read it
    # millions of times; cell_dim reads each entry's label once
    r = 300
    t = RowMultiTableau(Shape(1, [Row(1, r)]), [range(1, r + 1)])
    t._label = labels = _CountingList(t._label)
    assert [t.d_tau(k, statistic) for k in range(1, r + 1)] == [0] * r
    assert labels.reads <= r * (r + 1) // 2
    labels.reads = 0
    assert t.cell_dim(statistic) == 0
    assert labels.reads <= r


def test_tableau_validation_errors():
    shape = Shape(1, [Row(1, 2), Row(1, 1)])
    with pytest.raises(ValueError):
        RowMultiTableau(shape, ((1, 2),))
    with pytest.raises(ValueError):
        RowMultiTableau(shape, ((2, 1), (3,)))
    with pytest.raises(ValueError):
        RowMultiTableau(shape, ((1, 4), (2,)))
    with pytest.raises(ValueError):
        RowMultiTableau(shape, ((1, 2), (1,)))


def test_two_point_instance_enumerates_both_fillings():
    ts = enumerate_tableaux(p1_shape(), (1, 1))
    fillings = {t.filling for t in ts}
    assert fillings == {((2,), (1,)), ((1,), (2,))}
    dims = {t.filling: t.cell_dim() for t in ts}
    assert dims == {((2,), (1,)): 1, ((1,), (2,)): 0}


def test_incompatible_word_enumerates_nothing():
    assert enumerate_tableaux(p1_shape(), (1,)) == []


def test_empty_shape_has_one_empty_tableau():
    ts = enumerate_tableaux(Shape(1, []), ())
    assert len(ts) == 1
    assert ts[0].filling == ()
    assert ts[0].cell_dim() == 0


def test_single_row_has_unique_tableau():
    shape = Shape(3, [Row(2, 3)])
    word = (2, 1, 3)
    ts = enumerate_tableaux(shape, word)
    assert len(ts) == 1
    t = ts[0]
    assert t.filling == ((1, 2, 3),)
    assert t.dim_filtration() == word
    assert all(t.d_tau(k) == 0 for k in (1, 2, 3))


def test_enumerate_by_filtration_partitions_all_placements():
    shape = Shape(1, [Row(1, 2), Row(1, 1)])
    grouped = enumerate_by_filtration(shape)
    assert set(grouped) == {(1, 1, 1)}
    assert len(grouped[(1, 1, 1)]) == 3
    for word, ts in grouped.items():
        for t in ts:
            assert t.dim_filtration() == word


def test_enumerate_by_filtration_splits_words_on_the_cycle():
    shape = Shape(2, [Row(1, 1), Row(2, 1)])
    grouped = enumerate_by_filtration(shape)
    assert set(grouped) == {(1, 2), (2, 1)}
    assert all(len(ts) == 1 for ts in grouped.values())


def test_tableau_json_roundtrip(reference_tableau):
    data = reference_tableau.to_json()
    assert data["filling"] == [list(r) for r in REFERENCE_FILLING]
    again = RowMultiTableau.from_json(data)
    assert again == reference_tableau
    assert again.cell_dim() == REFERENCE_DIM


def test_tableau_from_json_respects_file_row_order():
    data = {
        "n": 1,
        "rows": [{"socle": 1, "len": 1}, {"socle": 1, "len": 2}],
        "filling": [[3], [1, 2]],
    }
    t = RowMultiTableau.from_json(data)
    assert t.shape.rows == (Row(1, 1), Row(1, 2))
    assert t.filling == ((3,), (1, 2))


@pytest.mark.parametrize(
    "filling",
    [5, None, "12", {"a": 1}, [5], [[1], None], [[1], "2"], [(1,), [2]]],
    ids=[
        "int", "null", "string", "object", "int_row", "null_row", "string_row", "tuple_row"
    ],
)
def test_tableau_from_json_rejects_non_list_fillings(filling):
    # a filling read from JSON is a list of lists; anything else is a
    # ValueError with one message, never a TypeError from the constructor
    data = {"n": 1, "rows": [{"socle": 1, "len": 1}, {"socle": 1, "len": 1}]}
    data["filling"] = filling
    with pytest.raises(ValueError, match="filling must be a list of lists"):
        RowMultiTableau.from_json(data)


def _reference_d_tau(shape, filling, k, geometric):
    """Free directions of entry k read straight off the definition in
    `RowMultiTableau.d_tau`, from the filling and the shape alone."""
    box = {
        e: Box(i, pos)
        for i, entries in enumerate(filling, start=1)
        for pos, e in enumerate(entries, start=1)
    }
    row_k, pos_k = box[k]
    count = 0
    for s in range(1, k):
        row_s, pos_s = box[s]
        if row_s == row_k:
            continue
        if geometric:
            if (pos_s, row_s) < (pos_k, row_k):
                continue
        elif row_s < row_k:
            continue
        if shape.label(box[s]) != shape.label(box[k]):
            continue
        entries = filling[row_s - 1]
        if pos_s < len(entries) and entries[pos_s] < k:
            continue  # s's row holds an entry between s and k
        count += 1
    return count


def _all_fillings(shape):
    """Every filling with strictly increasing rows: each row takes a
    subset of the entries left, listed in increasing order."""

    def rec(i, left):
        if i == len(shape.rows):
            yield ()
            return
        for chosen in itertools.combinations(left, shape.rows[i].length):
            rest = tuple(e for e in left if e not in chosen)
            for tail in rec(i + 1, rest):
                yield (chosen,) + tail

    return rec(0, tuple(range(1, shape.size + 1)))


def test_statistics_match_the_definition_on_the_small_grid():
    # both the public constructor and the unchecked build of enumeration
    # must give the statistics of the definition
    checked = 0
    for n in (1, 2, 3):
        for shape in all_shapes(n, 6, 4):
            fillings = list(_all_fillings(shape))
            enumerated = {
                t.filling: t for ts in enumerate_by_filtration(shape).values() for t in ts
            }
            assert sorted(enumerated) == sorted(fillings)
            for filling in fillings:
                built = (RowMultiTableau(shape, filling), enumerated[filling])
                for statistic in ("pinned", "geometric"):
                    ref = [
                        _reference_d_tau(shape, filling, k, statistic == "geometric")
                        for k in range(1, shape.size + 1)
                    ]
                    for t in built:
                        got = [t.d_tau(k, statistic) for k in range(1, shape.size + 1)]
                        assert got == ref, (shape, filling, statistic)
                        assert t.cell_dim(statistic) == sum(ref)
                checked += 1
    assert checked > 10_000


def _placements(shape):
    """(word, filling) for every placement sequence, in enumeration order:
    entries r, r-1, ..., 1, each into the rightmost free box of a row,
    rows tried top to bottom.  A plain recursion, independent of the
    search in `qfv.tableaux`."""
    labels = [
        [shape.label(Box(i, pos)) for pos in range(1, row.length + 1)]
        for i, row in enumerate(shape.rows, start=1)
    ]
    filling = [[0] * row.length for row in shape.rows]
    free = [row.length for row in shape.rows]
    word = []

    def rec(e):
        if e == 0:
            yield tuple(word), tuple(map(tuple, filling))
            return
        for i, pos in enumerate(free):
            if pos:
                filling[i][pos - 1] = e
                free[i] -= 1
                word.append(labels[i][pos - 1])
                yield from rec(e - 1)
                word.pop()
                free[i] += 1

    return rec(shape.size)


def _tables(t):
    return t._row, t._pos, t._label, t._right


def test_enumerated_tableaux_equal_checked_ones_on_the_grid():
    # enumeration builds its tableaux unchecked from the tables of the
    # search; each must equal the public constructor's, and the order of
    # the fillings (the gkm node order) must be the placement order
    produced = 0
    for n in GRID_NS:
        for shape in all_shapes(n, GRID_MAX_BOXES, GRID_MAX_ROWS):
            expected: dict = {}
            for word, filling in _placements(shape):
                expected.setdefault(word, []).append(filling)
            grouped = enumerate_by_filtration(shape)
            assert list(grouped) == list(expected)
            for word, fillings in expected.items():
                by_word = enumerate_tableaux(shape, word)
                assert [t.filling for t in grouped[word]] == fillings
                assert [t.filling for t in by_word] == fillings
                for filling, *ts in zip(fillings, grouped[word], by_word):
                    checked = RowMultiTableau(shape, filling)
                    for t in ts:
                        assert _tables(t) == _tables(checked)
                        assert t.filling == checked.filling
                        assert t.size == checked.size == shape.size
                        assert t.dim_filtration() == checked.dim_filtration() == word
                produced += len(fillings)
    assert produced == 97_990


_FAULTS = (
    None,
    "row_count",
    "row_length",
    "increase",
    "duplicate",
    "zero",
    "over",
    "bool",
    "float",
)


@st.composite
def _filling_with_fault(draw):
    """A shape, a filling of it with at most one fault, and the message
    the constructor must give for that fault (None when valid)."""
    n = draw(st.integers(1, 3))
    rows = draw(
        st.lists(
            st.builds(Row, st.integers(1, n), st.integers(1, 3)), min_size=1, max_size=4
        )
    )
    shape = Shape(n, rows)
    r = shape.size
    order = draw(st.permutations(range(1, r + 1)))
    filling, at = [], 0
    for row in shape.rows:
        filling.append(sorted(order[at : at + row.length]))
        at += row.length
    options = [f for f in _FAULTS if f != "increase" or any(len(e) > 1 for e in filling)]
    # (row, position, value) replacements that leave the row increasing
    dups = [
        (i, pos, x)
        for i, entries in enumerate(filling)
        for pos in range(len(entries))
        for j, other in enumerate(filling)
        if j != i
        for x in other
        if (pos == 0 or entries[pos - 1] < x)
        and (pos == len(entries) - 1 or x < entries[pos + 1])
    ]
    if not dups:
        options.remove("duplicate")
    fault = draw(st.sampled_from(options))
    i = draw(st.integers(0, len(filling) - 1))
    entries = filling[i]
    pos = draw(st.integers(0, len(entries) - 1))
    message = f"entries must be exactly 1..{r}"
    if fault is None:
        message = None
    elif fault == "row_count":
        if draw(st.booleans()):
            filling.append([])
        else:
            filling.pop()
        message = f"filling has {len(filling)} rows, shape has {len(shape.rows)}"
    elif fault == "row_length":
        if len(entries) > 1 and draw(st.booleans()):
            entries.pop()
        else:
            entries.append(r + 1)
        length = shape.rows[i].length
        message = f"row {i + 1} holds {len(entries)} entries for {length} boxes"
    elif fault == "increase":
        i = draw(st.sampled_from([j for j, e in enumerate(filling) if len(e) > 1]))
        entries = filling[i]
        pos = draw(st.integers(0, len(entries) - 2))
        entries[pos], entries[pos + 1] = entries[pos + 1], entries[pos]
        message = f"row {i + 1} is not strictly increasing"
    elif fault == "duplicate":
        i, pos, x = draw(st.sampled_from(dups))
        filling[i][pos] = x
        message = f"entry {x} appears twice"
    elif fault == "zero":
        entries[0] = 0
    elif fault == "over":
        entries[-1] = r + 1
    elif fault == "bool":
        entries[pos] = draw(st.booleans())
    elif fault == "float":
        entries[pos] = entries[pos] + draw(st.sampled_from([0.0, 0.5]))
    return shape, filling, message


@settings(derandomize=True, max_examples=400, database=None, deadline=None)
@given(_filling_with_fault())
def test_constructor_checks_in_one_pass(case):
    shape, filling, message = case
    if message is not None:
        with pytest.raises(ValueError) as err:
            RowMultiTableau(shape, filling)
        assert str(err.value) == message
        return
    t = RowMultiTableau(shape, filling)
    assert t.filling == tuple(map(tuple, filling))
    again = RowMultiTableau.from_json(t.to_json())
    assert again == t and hash(again) == hash(t)
    r = shape.size
    assert [again.d_tau(k) for k in range(1, r + 1)] == [
        _reference_d_tau(shape, t.filling, k, False) for k in range(1, r + 1)
    ]
    assert [again.box_of_entry(e) for e in range(1, r + 1)] == [
        Box(i, pos)
        for e in range(1, r + 1)
        for i, entries in enumerate(t.filling, start=1)
        for pos, x in enumerate(entries, start=1)
        if x == e
    ]
