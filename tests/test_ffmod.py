"""Concrete modules over small prime fields: construction, socles,
quotients, brute-force flag enumeration, and cell classification.

The flag counts pinned here come from direct enumeration only; they are
deliberately NOT taken from the counting recursions, so the two routes
stay independent checks of one another.  Both `count_flags` and
`classify_flags` (each merging the flags that reach one exact quotient)
are checked on the small grid against `walk_cells`, a walk over every
flag one at a time that steps through the public `quotient` by line
subspaces built here, never through the private `_drop_line` that both
routes step with.
"""
import random
import re
from collections import Counter

import pytest

from conftest import (
    REFERENCE_FILLING,
    REFERENCE_ROWS,
    REFERENCE_WORD,
    all_shapes,
    small_grid,
)
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
from qfv import ffmod
from qfv.betti import f_graded
from qfv.ffmod import _drop_line, _line_reps, _shortest_row_order, _standard_module
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


@pytest.mark.parametrize("p", SUPPORTED_PRIMES)
def test_build_module_matches_the_public_constructor(p):
    # build_module skips the constructor's checks; the standard module
    # must pass them and come out the same
    for n in (1, 2, 3):
        for shape in all_shapes(n, 4, 4):
            m = build_module(shape, p)
            dims, mats, tags = _standard_module(shape)
            ref = NilModule(n, p, dims, mats, tags=tags, shape=shape)
            assert (m.n, m.p, m.dims, m.mats, m.tags, m.shape) == (
                ref.n, ref.p, ref.dims, ref.mats, ref.tags, ref.shape
            )


def test_nilmodule_rejects_non_nilpotent_loops():
    with pytest.raises(ValueError):
        NilModule(1, 2, (1,), (((1,),),))


@pytest.mark.parametrize(
    "n, dims, mats, message",
    [
        # once truncated to dims (1,), or a TypeError from deep in linalg
        (1, (1.7,), (((0,),),), "vertex dimension must be an integer, got 1.7"),
        (1, (True,), (((0,),),), "vertex dimension must be an integer, got True"),
        (1, (1,), (((0.5,),),), "matrix entry must be an integer, got 0.5"),
        (1.0, (1,), (((0,),),), "cycle length must be an integer, got 1.0"),
    ],
    ids=["float_dimension", "bool_dimension", "float_entry", "float_cycle_length"],
)
def test_nilmodule_rejects_non_integer_input(n, dims, mats, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        NilModule(n, 2, dims, mats)


@pytest.mark.parametrize("n", [0, -1])
def test_nilmodule_rejects_cycle_length_below_one(n):
    # the same rule and message as Shape: a module needs a vertex, and a
    # negative n must not be read as a count of vertex dimensions
    with pytest.raises(ValueError, match=f"^cycle length must be at least 1, got {n}$"):
        NilModule(n, 2, (), ())


def _mat_mul(a, b, p):
    return [
        [sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] for row in a
    ]


def _nilpotent_by_composites(n, p, dims, mats):
    """The definition: at every vertex the composite of the n arrows
    around the cycle, raised to the total dimension, is zero."""
    total = sum(dims)
    for v in range(n):
        comp = [[int(i == j) for j in range(dims[v])] for i in range(dims[v])]
        for step in range(n):
            comp = _mat_mul(mats[(v + step) % n], comp, p)
        power = [[int(i == j) for j in range(dims[v])] for i in range(dims[v])]
        for _ in range(total):
            power = _mat_mul(comp, power, p)
        if any(map(any, power)):
            return False
    return True


def test_nilmodule_nilpotency_matches_the_cycle_composites():
    rng = random.Random(20)
    rejected = 0
    for _ in range(6000):
        n, p = rng.randint(1, 3), rng.choice((2, 3))
        dims = [rng.randint(0, 3) for _ in range(n)]
        density = rng.choice((0.1, 0.3, 0.6, 1.0))
        mats = [
            [
                [rng.randrange(1, p) if rng.random() < density else 0 for _ in range(dims[v])]
                for _ in range(dims[(v + 1) % n])
            ]
            for v in range(n)
        ]
        if _nilpotent_by_composites(n, p, dims, mats):
            NilModule(n, p, dims, mats)
        else:
            rejected += 1
            with pytest.raises(ValueError, match="^cycle composite is not nilpotent$"):
                NilModule(n, p, dims, mats)
    assert rejected == 1535  # of the 6,000 seeded cases


def test_nilmodule_on_a_long_cycle():
    # the check walks radical powers, so a long cycle costs a few passes
    # over its vertices, not one pass per vertex
    n = 10**5
    zero = NilModule(n, 2, (0,) * n, [()] * n)
    assert zero.total_dim == 0
    m = build_module(Shape(n, [Row(1, 2)]), 3)
    ref = NilModule(n, 3, m.dims, m.mats, tags=m.tags, shape=m.shape)
    assert (ref.dims, ref.mats) == (m.dims, m.mats)


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


def _inverse_mod(g, p):
    """The inverse of the square matrix g over F_p, None when singular."""
    d = len(g)
    aug = [list(row) + [int(i == j) for j in range(d)] for i, row in enumerate(g)]
    for c in range(d):
        r = next((r for r in range(c, d) if aug[r][c] % p), None)
        if r is None:
            return None
        aug[c], aug[r] = aug[r], aug[c]
        inv = pow(aug[c][c], p - 2, p)
        aug[c] = [x * inv % p for x in aug[c]]
        for r in range(d):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [(x - f * y) % p for x, y in zip(aug[r], aug[c])]
    return [row[d:] for row in aug]


def test_iso_class_is_invariant_under_a_change_of_basis():
    # every other test reads iso_class on the box basis; here each vertex
    # gets a random basis g_v, and the arrow A_v becomes g_(v+1) A_v g_v^-1
    rng = random.Random(19)
    cases = 0
    for n in (1, 2, 3):
        for shape in all_shapes(n, 5, 3):
            for p in (2, 3):
                m = build_module(shape, p)
                gs, invs = [], []
                for d in m.dims:
                    inv = None
                    while inv is None:
                        g = [[rng.randrange(p) for _ in range(d)] for _ in range(d)]
                        inv = _inverse_mod(g, p)
                    gs.append(g)
                    invs.append(inv)
                mats = [
                    _mat_mul(_mat_mul(gs[(v + 1) % n], m.mats[v], p), invs[v], p)
                    for v in range(n)
                ]
                assert iso_class(NilModule(n, p, m.dims, mats)) == shape
                cases += 1
    assert cases == 392


def test_radical_powers_visit_only_nonzero_vertices(monkeypatch):
    # a 3-box row on a 10^4-cycle: the nilpotency check and iso_class
    # row-reduce at the few occupied vertices, not at every vertex
    n = 10**4
    m = build_module(Shape(n, [Row(1, 3)]), 3)
    calls = []
    rref_mod = ffmod.rref_mod

    def spy(vectors, p):
        calls.append(len(vectors))
        return rref_mod(vectors, p)

    monkeypatch.setattr(ffmod, "rref_mod", spy)
    ref = NilModule(n, 3, m.dims, m.mats, tags=m.tags, shape=m.shape)
    assert iso_class(ref) == m.shape
    assert 0 < len(calls) < 100


# --------------------------------------------------------- flag enumeration


def test_count_flags_two_points():
    m = build_module(p1_shape(), 2)
    assert count_flags(m, (1, 1)) == 3
    assert count_flags(build_module(p1_shape(), 3), (1, 1)) == 4


def test_count_flags_single_row_has_one_flag():
    for p in (2, 3):
        m = build_module(Shape(3, [Row(2, 3)]), p)
        assert count_flags(m, (2, 1, 3)) == 1
    # 1,000 steps: neither flag walk recurses once per letter
    m = build_module(Shape(1000, [Row(1000, 1000)]), 2)
    word = tuple(range(1000, 0, -1))
    assert count_flags(m, word) == 1
    assert classify_flags(m, word, pivot="shortest") == {(tuple(range(1, 1001)),): 1}


def test_count_flags_empty_module():
    m = build_module(Shape(1, []), 2)
    assert count_flags(m, ()) == 1
    assert count_flags(m, (1,)) == 0


def test_count_flags_full_flag_unit_rows():
    m = build_module(Shape(1, [Row(1, 1)] * 3), 2)
    assert count_flags(m, (1, 1, 1)) == 21


def test_count_flags_never_calls_iso_class(monkeypatch):
    # flags are merged on exact quotients alone, so no step pays for
    # rank arithmetic
    seen = []
    real = ffmod.iso_class

    def spy(m):
        seen.append(m)
        return real(m)

    monkeypatch.setattr(ffmod, "iso_class", spy)
    shape = Shape(1, [Row(1, 2), Row(1, 1), Row(1, 1)])
    for p, flags in ((2, 51), (3, 136)):
        assert count_flags(build_module(shape, p), (1, 1, 1, 1)) == flags
    m = build_module(Shape(3, REFERENCE_ROWS), 2)
    assert count_flags(m, REFERENCE_WORD) == 202419
    assert seen == []


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


def line_with_pivot(m, v, vec, j):
    """The line through `vec` at vertex v as a graded subspace, scaled to 1
    at coordinate j, so that `quotient` by it drops that coordinate."""
    inv = pow(vec[j], m.p - 2, m.p)
    basis = [[] for _ in range(m.n)]
    pivots = [[] for _ in range(m.n)]
    basis[v] = [[(x * inv) % m.p for x in vec]]
    pivots[v] = [j]
    return GradedSubspace(m.p, basis, pivots)


def test_quotients_pass_the_public_constructor():
    # _drop_line skips the stability check and the nilpotency check (a
    # quotient of a nilpotent module is nilpotent); at every nonzero pivot
    # of every line the enumeration reaches, it must give what `quotient`
    # gives and pass the public constructor
    def walk(m, word):
        if not word:
            return 0
        v = word[0] - 1
        basis, _ = kernel_mod(m.mats[v], m.dims[v], m.p)
        steps = 0
        for vec in _line_reps(basis, m.p):
            pivots = [j for j, x in enumerate(vec) if x]
            for j in pivots:
                qm = _drop_line(m, v, vec, j)
                ref, _ = quotient(m, line_with_pivot(m, v, vec, j))
                assert (qm.dims, qm.mats, qm.tags) == (ref.dims, ref.mats, ref.tags)
                again = NilModule(qm.n, qm.p, qm.dims, qm.mats, qm.tags, qm.shape)
                assert (again.dims, again.mats, again.tags) == (qm.dims, qm.mats, qm.tags)
                steps += 1
            # walk on below the first pivot, as `count_flags` does
            steps += walk(_drop_line(m, v, vec, pivots[0]), word[1:])
        return steps

    assert sum(walk(build_module(s, 2), w) for s, w in small_grid()) == 13_647


def walk_cells(m, word, pivot):
    """Point count per cell by visiting every flag, one line at a time:
    the slow route that `classify_flags` must reproduce."""
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
            rec(quotient(cur, line_with_pivot(cur, v, vec, j))[0], rest[1:])
            del entry_at[box]

    rec(m, tuple(word))
    return counts


@pytest.mark.parametrize("pivot", ["first", "shortest"])
@pytest.mark.parametrize("p", [2, 3])
def test_memoized_classification_matches_flag_walk(p, pivot):
    # two routes, each merging flags on exact quotients, against none
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


def test_reference_cell_point_counts(reference_shape, reference_tableau):
    # 2^6 and 3^6 back the geometric dimension 6; the first-coordinate
    # pivot gives 2^7, and neither matches the pinned dimension 9
    assert reference_tableau.cell_dim("geometric") == 6
    for p in (2, 3):
        m = build_module(reference_shape, p)
        by_cell = classify_flags(m, REFERENCE_WORD, pivot="shortest")
        assert by_cell[REFERENCE_FILLING] == p**6
    m = build_module(reference_shape, 2)
    assert classify_flags(m, REFERENCE_WORD)[REFERENCE_FILLING] == 2**7


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
    assert [s.dim for s in fl] == list(range(1, 15))
    assert cell_of_flag(m, fl) == t


def test_split_flag_stages_grow_by_single_boxes():
    m = build_module(shape_21(), 3)
    t = RowMultiTableau(shape_21(), ((1, 3), (2,)))
    fl = split_flag(m, t)
    assert [s.dim for s in fl] == [1, 2, 3]


def every_flag(m, word):
    """Every flag along the word, one line per step: each step walks the
    socle lines of the current quotient through the public `quotient`,
    and lifts the line back to ambient coordinates through the earlier
    projections in reverse order."""
    def rec(cur, rest, projections, lines):
        if not rest:
            if cur.total_dim == 0:
                yield lines
            return
        v = rest[0] - 1
        for vec in _line_reps(socle(cur).basis[v], cur.p):
            line = [[vec] if w == v else [] for w in range(cur.n)]
            qm, pr = quotient(cur, GradedSubspace.from_vectors(cur.p, line))
            for earlier in reversed(projections):
                vec = earlier.lift_vec(v, vec)
            yield from rec(qm, rest[1:], projections + [pr], lines + [(v, vec)])

    for lines in rec(m, tuple(word), [], []):
        chain = []
        for k in range(1, len(lines) + 1):
            vectors = [[] for _ in range(m.n)]
            for v, vec in lines[:k]:
                vectors[v].append(vec)
            chain.append(GradedSubspace.from_vectors(m.p, vectors))
        yield chain


def test_cell_of_flag_on_every_flag_of_the_small_grid():
    # every flag, not only the torus-fixed split ones: read one flag at a
    # time, the cells come out with the point counts of `classify_flags`
    flags = 0
    for shape, word in small_grid():
        m = build_module(shape, 2)
        cells = Counter(cell_of_flag(m, fl).filling for fl in every_flag(m, word))
        assert dict(cells) == classify_flags(m, word), (shape, word)
        flags += sum(cells.values())
    assert flags == 4_008


E1, E2, E3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
# two simples, at vertices 1 and 2 of the 2-cycle
TWO_SIMPLES = Shape(2, [Row(1, 1), Row(2, 1)])


@pytest.mark.parametrize(
    "shape, stages, message",
    [
        # each stage lists its vectors per vertex
        (Shape(1, [Row(1, 1)] * 3), [[[E1]], [[E1, E2]]], "flag has 2 stages for dimension 3"),
        # the dimension is checked before the extension
        (
            Shape(1, [Row(1, 1)] * 3),
            [[[E1]], [[E2]], [[E1, E2, E3]]],
            "stage 2 has dimension 1",
        ),
        (
            Shape(1, [Row(1, 1)] * 3),
            [[[E1]], [[E2, E3]], [[E1, E2, E3]]],
            "stage 2 does not extend the previous stage by a line",
        ),
        (Shape(1, [Row(1, 2)]), [[[(1, 0)]], [[(1, 0), (0, 1)]]], "stage 1 is not arrow-stable"),
        # box (1,1) maps to box (1,2), which is not in stage 1
        (
            Shape(1, [Row(1, 2), Row(1, 1)]),
            [[[E3]], [[E3, E1]], [[E1, E2, E3]]],
            "stage 2 is not arrow-stable",
        ),
        (
            TWO_SIMPLES,
            [[[(1,)], [], []], [[(1,)], [(1,)], []]],
            "stage 1 has 3 vertices, not 2",
        ),
        (
            TWO_SIMPLES,
            [[[(1, 1)], []], [[(1, 1)], [(1,)]]],
            "stage 1 has a vector of length 2 at vertex 1, of dimension 1",
        ),
        # the line through (1, 2) over F_3 is not a line over F_2
        (
            Shape(1, [Row(1, 1), Row(1, 1)]),
            [
                GradedSubspace.from_vectors(3, [[(1, 2)]]),
                GradedSubspace.from_vectors(3, [[(1, 0), (0, 1)]]),
            ],
            "stage 1 is over F_3, not F_2",
        ),
    ],
    ids=[
        "stage_count",
        "stage_dimension",
        "not_a_line",
        "unstable_first",
        "unstable_later",
        "vertex_count",
        "vector_length",
        "wrong_field",
    ],
)
def test_cell_of_flag_rejects_malformed_flags(shape, stages, message):
    m = build_module(shape, 2)
    fl = [
        stage if isinstance(stage, GradedSubspace) else GradedSubspace.from_vectors(2, stage)
        for stage in stages
    ]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        cell_of_flag(m, fl)


def test_cell_of_flag_needs_a_module_built_from_a_shape():
    m = NilModule(1, 2, (1,), (((0,),),))
    fl = [GradedSubspace.from_vectors(2, [[(1,)]])]
    with pytest.raises(ValueError, match="built from a shape"):
        cell_of_flag(m, fl)


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
