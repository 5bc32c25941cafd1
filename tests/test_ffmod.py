"""Concrete modules over small prime fields: construction, socles,
quotients, brute-force flag enumeration, and cell classification.

The flag counts pinned here come from direct enumeration only; they are
deliberately NOT taken from the counting recursions, so the two routes
stay independent checks of one another.  Both `count_flags` (memoized on
isomorphism classes of quotients) and `classify_flags` (memoized on exact
quotients) are checked on the small grid against `walk_cells`, an
unmemoized walk over every flag built here from `ffmod` primitives.
"""
from itertools import permutations

import pytest

from conftest import REFERENCE_FILLING, REFERENCE_ROWS, REFERENCE_WORD, all_shapes
from qfv import (
    Box,
    GradedSubspace,
    NilModule,
    Row,
    SUPPORTED_PRIMES,
    Shape,
    build_module,
    cell_of_flag,
    classify_flags,
    count_flags,
    dim_end,
    iso_class,
    quotient,
    socle,
    split_flag,
)
from qfv.betti import f_graded
from qfv.ffmod import (
    _line_reps,
    _line_subspace,
    _line_with_pivot,
    _shortest_row_order,
)
from qfv.linalg import kernel_mod
from qfv.tableaux import RowMultiTableau, enumerate_tableaux


def p1_shape():
    return Shape(1, [Row(1, 1), Row(1, 1)])


def shape_21():
    return Shape(1, [Row(1, 2), Row(1, 1)])


# -------------------------------------------------------------- construction


def test_build_module_single_row_is_a_shift_matrix():
    m = build_module(Shape(1, [Row(1, 2)]), 2)
    assert m.dims == (2,)
    assert m.mats == (((0, 0), (1, 0)),)
    assert m.tags == ((Box(1, 1), Box(1, 2)),)


def test_build_module_semisimple_has_zero_maps():
    m = build_module(Shape(2, [Row(1, 1), Row(2, 1)]), 3)
    assert m.dims == (1, 1)
    assert m.mats == (((0,),), ((0,),))


def test_build_module_reference_matrix_sizes(reference_shape):
    m = build_module(reference_shape, 2)
    assert m.dims == (4, 6, 4)
    for v in range(3):
        mat = m.mats[v]
        assert len(mat) == m.dims[(v + 1) % 3]
        assert all(len(row) == m.dims[v] for row in mat)


def test_build_module_rejects_unsupported_primes():
    with pytest.raises(ValueError):
        build_module(p1_shape(), 4)
    assert set(SUPPORTED_PRIMES) == {2, 3, 5, 7}


def test_nilmodule_rejects_non_nilpotent_loops():
    with pytest.raises(ValueError):
        NilModule(1, 2, (1,), (((1,),),))


# ------------------------------------------------------- socle and quotient


def test_socle_dimensions():
    ref = build_module(Shape(3, REFERENCE_ROWS), 2)
    assert socle(ref).dims == (0, 2, 3)
    assert socle(build_module(Shape(3, [Row(3, 3)]), 2)).dims == (0, 0, 1)
    semi = build_module(Shape(2, [Row(1, 1), Row(2, 1)]), 2)
    assert socle(semi).dims == (1, 1)


def test_socle_is_annihilated_by_arrows():
    m = build_module(shape_21(), 3)
    s = socle(m)
    assert s.dims == (2,)
    for vec in s.basis[0]:
        image = [
            sum(m.mats[0][i][j] * vec[j] for j in range(m.dims[0])) % 3
            for i in range(m.dims[0])
        ]
        assert set(image) == {0}


def test_quotient_by_socle_shortens_rows():
    j3 = build_module(Shape(1, [Row(1, 3)]), 3)
    mod, proj = quotient(j3, socle(j3))
    assert iso_class(mod).rows == (Row(1, 2),)
    # projection and lift are mutually inverse on the quotient side
    pushed = proj.push_vec(0, (1, 1, 0))
    assert proj.push_vec(0, proj.lift_vec(0, pushed)) == pushed


def test_quotient_by_zero_subspace_is_identity():
    m = build_module(p1_shape(), 2)
    zero = GradedSubspace.from_vectors(2, [[]])
    mod, _ = quotient(m, zero)
    assert mod.dims == m.dims
    assert mod.mats == m.mats


def test_quotient_rejects_unstable_subspaces():
    m = build_module(Shape(1, [Row(1, 2)]), 2)
    top = GradedSubspace.from_vectors(2, [[(1, 0)]])
    with pytest.raises(ValueError, match="stable"):
        quotient(m, top)


def test_iso_class_recovers_every_built_shape():
    for shape in (
        Shape(3, REFERENCE_ROWS),
        Shape(2, [Row(1, 2), Row(2, 2), Row(1, 1)]),
        Shape(1, [Row(1, 3), Row(1, 1)]),
        Shape(2, []),
    ):
        m = build_module(shape, 3)
        assert iso_class(m) == shape


# --------------------------------------------------------- flag enumeration


def test_count_flags_two_points():
    m = build_module(p1_shape(), 2)
    assert count_flags(m, (1, 1)) == 3
    assert count_flags(build_module(p1_shape(), 3), (1, 1)) == 4


def test_count_flags_single_row_has_one_flag():
    for p in (2, 3):
        m = build_module(Shape(3, [Row(2, 3)]), p)
        assert count_flags(m, (2, 1, 3)) == 1


def test_count_flags_empty_module():
    m = build_module(Shape(1, []), 2)
    assert count_flags(m, ()) == 1
    assert count_flags(m, (1,)) == 0


def test_count_flags_full_flag_unit_rows():
    m = build_module(Shape(1, [Row(1, 1)] * 3), 2)
    assert count_flags(m, (1, 1, 1)) == 21


def test_count_flags_mixed_lengths():
    # these disagree with the graded recursion; the counts below are the
    # enumerated truth (see the acceptance suite for the comparison)
    assert count_flags(build_module(shape_21(), 2), (1, 1, 1)) == 5
    assert count_flags(build_module(shape_21(), 3), (1, 1, 1)) == 7
    two_two = Shape(1, [Row(1, 2), Row(1, 2)])
    assert count_flags(build_module(two_two, 2), (1, 1, 1, 1)) == 15
    assert count_flags(build_module(two_two, 3), (1, 1, 1, 1)) == 28
    three_one = Shape(1, [Row(1, 3), Row(1, 1)])
    assert count_flags(build_module(three_one, 2), (1, 1, 1, 1)) == 7
    assert count_flags(build_module(three_one, 3), (1, 1, 1, 1)) == 10


def test_classify_flags_partitions_the_count():
    m = build_module(shape_21(), 2)
    by_cell = classify_flags(m, (1, 1, 1))
    assert by_cell == {
        ((1, 2), (3,)): 1,
        ((1, 3), (2,)): 2,
        ((2, 3), (1,)): 2,
    }
    assert sum(by_cell.values()) == count_flags(m, (1, 1, 1))


def test_classify_flags_two_points_matches_cell_sizes():
    m = build_module(p1_shape(), 2)
    assert classify_flags(m, (1, 1)) == {((2,), (1,)): 2, ((1,), (2,)): 1}


def small_grid():
    """(shape, word) for every shape with <= 4 boxes and <= 4 rows, n <= 3,
    and every word with the shape's letter counts, flags or not."""
    for n in (1, 2, 3):
        for shape in all_shapes(n, 4, 4):
            letters = [
                v for v, d in enumerate(shape.dim_vector(), start=1) for _ in range(d)
            ]
            for word in sorted(set(permutations(letters))):
                yield shape, word


def test_quotients_pass_the_public_constructor():
    # quotient skips the nilpotency check (a quotient of a nilpotent module
    # is nilpotent); every quotient the enumeration reaches must pass it
    def walk(m, word):
        if not word:
            return 0
        v = word[0] - 1
        basis, _ = kernel_mod(m.mats[v], m.dims[v], m.p)
        reached = 0
        for vec in _line_reps(basis, m.p):
            qm, _ = quotient(m, _line_subspace(m, v, vec))
            again = NilModule(qm.n, qm.p, qm.dims, qm.mats, qm.tags, qm.shape)
            assert (again.dims, again.mats, again.tags) == (qm.dims, qm.mats, qm.tags)
            reached += 1 + walk(qm, word[1:])
        return reached

    assert sum(walk(build_module(s, 2), w) for s, w in small_grid()) > 10_000


def walk_cells(m, word, pivot):
    """Point count per cell by visiting every flag, one line at a time:
    the slow route that the memoized `classify_flags` must reproduce."""
    counts = {}
    entry_at = {}

    def rec(cur, rest):
        if not rest:
            if cur.total_dim == 0:
                filling = tuple(
                    tuple(entry_at[Box(i, pos)] for pos in range(1, row.length + 1))
                    for i, row in enumerate(m.shape.rows, start=1)
                )
                counts[filling] = counts.get(filling, 0) + 1
            return
        v = rest[0] - 1
        basis, _ = kernel_mod(cur.mats[v], cur.dims[v], cur.p)
        if pivot == "shortest":
            order = _shortest_row_order(cur, v)
        else:
            order = range(cur.dims[v])
        for vec in _line_reps(basis, cur.p):
            j = next(j for j in order if vec[j])
            box = cur.tags[v][j]
            entry_at[box] = len(rest)
            rec(quotient(cur, _line_with_pivot(cur, v, vec, j))[0], rest[1:])
            del entry_at[box]

    rec(m, tuple(word))
    return counts


@pytest.mark.parametrize("pivot", ["first", "shortest"])
@pytest.mark.parametrize("p", [2, 3])
def test_memoized_classification_matches_flag_walk(p, pivot):
    # three routes: the exact-quotient memo, the iso-class memo, no memo
    for shape, word in small_grid():
        m = build_module(shape, p)
        walked = walk_cells(m, word, pivot)
        assert classify_flags(m, word, pivot=pivot) == walked
        assert count_flags(m, word) == sum(walked.values())


def test_memoized_count_on_reference_instance(reference_shape):
    poly = f_graded(reference_shape, REFERENCE_WORD, statistic="geometric")
    for p, flags in ((2, 202_419), (3, 5_883_904)):
        got = count_flags(build_module(reference_shape, p), REFERENCE_WORD)
        assert got == flags == poly.evaluate(p)


def test_shortest_pivot_cells_of_the_whole_reference_variety(reference_shape):
    ts = enumerate_tableaux(reference_shape, REFERENCE_WORD)
    assert len(ts) == 1728
    for p, flags in ((2, 202_419), (3, 5_883_904)):
        m = build_module(reference_shape, p)
        by_cell = classify_flags(m, REFERENCE_WORD, pivot="shortest")
        assert by_cell == {
            t.filling: p ** t.cell_dim(statistic="geometric") for t in ts
        }
        assert sum(by_cell.values()) == flags


def shape_221():
    return Shape(1, [Row(1, 2), Row(1, 2), Row(1, 1)])


def test_first_pivot_classes_are_not_cells_beyond_four_boxes():
    word = (1,) * 5
    for p, points in ((2, 6), (3, 15)):
        by_cell = classify_flags(build_module(shape_221(), p), word)
        # neither 6 nor 15 is a power of p
        assert by_cell[((1, 4), (2, 5), (3,))] == points


def test_shortest_pivot_classes_are_geometric_cells():
    word = (1,) * 5
    ts = enumerate_tableaux(shape_221(), word)
    for p in (2, 3):
        m = build_module(shape_221(), p)
        by_cell = classify_flags(m, word, pivot="shortest")
        assert by_cell == {t.filling: p ** t.cell_dim("geometric") for t in ts}
        assert sum(by_cell.values()) == count_flags(m, word)


def test_classify_flags_restricted_to_one_cell():
    word = (1,) * 5
    m = build_module(shape_221(), 2)
    for pivot in ("first", "shortest"):
        full = classify_flags(m, word, pivot=pivot)
        for t in enumerate_tableaux(shape_221(), word):
            got = classify_flags(m, word, pivot=pivot, cell=t.filling)
            assert got == ({t.filling: full[t.filling]} if t.filling in full else {})


def test_reference_cell_point_counts(reference_shape, reference_tableau):
    # 2^6 and 3^6 back the geometric dimension 6; the first-coordinate
    # pivot gives 2^7, and neither matches the pinned dimension 9
    assert reference_tableau.cell_dim("geometric") == 6
    for p in (2, 3):
        m = build_module(reference_shape, p)
        got = classify_flags(
            m, REFERENCE_WORD, pivot="shortest", cell=REFERENCE_FILLING
        )
        assert got == {REFERENCE_FILLING: p**6}
    m = build_module(reference_shape, 2)
    got = classify_flags(m, REFERENCE_WORD, cell=REFERENCE_FILLING)
    assert got == {REFERENCE_FILLING: 2**7}


def test_classify_flags_rejects_unknown_pivot():
    with pytest.raises(ValueError):
        classify_flags(build_module(p1_shape(), 2), (1, 1), pivot="last")


# ---------------------------------------------------- fixed points and cells


def test_split_flag_is_a_fixed_point_of_its_cell(reference_shape):
    cases = [
        (p1_shape(), (1, 1)),
        (shape_21(), (1, 1, 1)),
        (Shape(2, [Row(1, 1), Row(2, 2)]), (1, 2, 1)),
    ]
    for shape, word in cases:
        m = build_module(shape, 2)
        for t in enumerate_tableaux(shape, word):
            assert cell_of_flag(m, split_flag(m, t)) == t


def test_split_flag_reference_roundtrip(reference_shape):
    m = build_module(reference_shape, 2)
    ts = enumerate_tableaux(reference_shape, REFERENCE_WORD)
    t = next(x for x in ts if x.cell_dim() == 9)
    fl = split_flag(m, t)
    assert len(fl.chain) == 14
    assert [s.dim for s in fl.chain] == list(range(1, 15))
    assert cell_of_flag(m, fl) == t


def test_split_flag_stages_grow_by_single_boxes():
    m = build_module(shape_21(), 3)
    t = RowMultiTableau(shape_21(), ((1, 3), (2,)))
    fl = split_flag(m, t)
    assert [s.dim for s in fl.chain] == [1, 2, 3]


# -------------------------------------------------------------- end algebra


def test_dim_end_single_rows():
    assert dim_end(Shape(1, [Row(1, 3)])) == 3
    # around a longer cycle only every n-th power of the loop survives
    assert dim_end(Shape(2, [Row(1, 2)])) == 1
    assert dim_end(Shape(2, [Row(1, 4)])) == 2


def test_dim_end_sums_pairwise_homs():
    assert dim_end(shape_21()) == 5
    assert dim_end(Shape(1, [Row(1, 1), Row(1, 1)])) == 4
    assert dim_end(Shape(2, [Row(1, 1), Row(2, 1)])) == 2
    assert dim_end(Shape(2, [])) == 0
