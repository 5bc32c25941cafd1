"""Shared constants and fixtures: one pinned reference instance plus the
exhaustive small-shape grid used by the acceptance sweeps."""
import itertools
from collections import Counter

import pytest

from qfv import Row, Shape
from qfv.tableaux import RowMultiTableau, enumerate_by_filtration

REFERENCE_N = 3
REFERENCE_ROWS = (Row(3, 3), Row(3, 3), Row(2, 2), Row(2, 4), Row(3, 2))
REFERENCE_WORD = (3, 2, 2, 2, 1, 3, 3, 3, 2, 1, 2, 1, 1, 2)
REFERENCE_FILLING = (
    (5, 11, 14),
    (2, 6, 8),
    (3, 13),
    (1, 9, 10, 12),
    (4, 7),
)
REFERENCE_D_TAU = (0, 0, 0, 0, 2, 2, 0, 1, 1, 0, 0, 0, 1, 2)
REFERENCE_DIM = 9
REFERENCE_DIM_VECTOR = (4, 6, 4)
REFERENCE_F_COUNT = 1728

GRID_NS = (1, 2, 3)
GRID_MAX_BOXES = 7
GRID_MAX_ROWS = 4


@pytest.fixture
def reference_shape():
    return Shape(REFERENCE_N, REFERENCE_ROWS)


@pytest.fixture
def reference_tableau(reference_shape):
    return RowMultiTableau(reference_shape, REFERENCE_FILLING)


def all_shapes(n, max_boxes, max_rows):
    """Every multiset of rows over the n-cycle within the given bounds."""
    row_types = [
        Row(s, ln) for s in range(1, n + 1) for ln in range(1, max_boxes + 1)
    ]
    shapes = []
    for k in range(1, max_rows + 1):
        for combo in itertools.combinations_with_replacement(row_types, k):
            if sum(r.length for r in combo) <= max_boxes:
                shapes.append(Shape(n, combo))
    return shapes


def small_grid():
    """(shape, word) for every shape with <= 4 boxes and <= 4 rows, n <= 3,
    and every word with the shape's letter counts, flags or not."""
    for n in (1, 2, 3):
        for shape in all_shapes(n, 4, 4):
            letters = [
                v for v, d in enumerate(shape.dim_vector(), start=1) for _ in range(d)
            ]
            for word in sorted(set(itertools.permutations(letters))):
                yield shape, word


@pytest.fixture(scope="session")
def grid_stats():
    """Per (shape, word): multiset of cell dimensions, from direct enumeration.

    One pass over every shape with <= GRID_MAX_BOXES boxes and
    <= GRID_MAX_ROWS rows for each n in GRID_NS.  The enumeration route is
    the independent oracle the recursion sweeps compare against, so nothing
    here may call the counting recursions.
    """
    out = []
    for n in GRID_NS:
        for shape in all_shapes(n, GRID_MAX_BOXES, GRID_MAX_ROWS):
            stats = {
                word: Counter(t.cell_dim() for t in ts)
                for word, ts in enumerate_by_filtration(shape).items()
            }
            out.append((shape, stats))
    return out
