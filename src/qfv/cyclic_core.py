"""Arithmetic of the oriented n-cycle.

Vertices are residues represented by 1..n, with arrows i -> i+1 (mod n).
A nilpotent uniserial summand is drawn as a row of boxes whose column
labels increase by one, left to right, ending at the socle vertex.  A
shape is an ordered list of such rows; a dimension filtration is a word
of vertices, one per box, read off a complete chain of submodules.
"""
from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Sequence


def normalize_vertex(v: int, n: int) -> int:
    """Canonical representative in 1..n of an integer vertex mod n."""
    if n < 1:
        raise ValueError(f"cycle length must be at least 1, got {n}")
    return (v - 1) % n + 1


class Row(NamedTuple):
    """A row of `length` boxes ending at vertex `socle`.

    A named tuple, so hashing and comparing rows (the recursion memo keys
    are tuples of rows) runs at C speed."""

    socle: int
    length: int

    def top(self, n: int) -> int:
        """Vertex of the leftmost box."""
        return normalize_vertex(self.socle - self.length + 1, n)

    def labels(self, n: int) -> tuple[int, ...]:
        """Column labels left to right; the last one is the socle vertex."""
        return tuple(
            normalize_vertex(self.socle - self.length + p, n)
            for p in range(1, self.length + 1)
        )


def column_label(row: Row, pos: int, n: int) -> int:
    """Label of the box at 1-based position `pos` of `row`."""
    if not 1 <= pos <= row.length:
        raise ValueError(
            f"position {pos} out of range for a row of length {row.length}"
        )
    return normalize_vertex(row.socle - row.length + pos, n)


class Box(NamedTuple):
    """1-based (row index, position within row) address into a shape."""

    row: int
    pos: int


def _canonical_key(n: int):
    # group by top vertex ascending, longer rows first within a group
    return lambda row: (row.top(n), -row.length)


class Shape:
    """An ordered tuple of rows over a fixed cycle length n.

    Construction normalizes socle vertices into 1..n and, unless
    keep_order=True, stably sorts rows into canonical order: by top
    vertex ascending, then by length descending.  Downstream cell
    dimensions are only meaningful in canonical order; the override
    exists because box removal must preserve row identity instead.
    `n` and each row's socle and length must be integers (not booleans,
    floats or strings), the rule `validate_word` applies to letters.
    """

    __slots__ = ("n", "rows", "_size")

    def __init__(self, n: int, rows: Iterable[Row], keep_order: bool = False):
        if _require_int(n, "cycle length") < 1:
            raise ValueError(f"cycle length must be at least 1, got {n}")
        normalized = []
        for row in rows:
            _require_int(row.socle, "socle")
            if _require_int(row.length, "row length") < 1:
                raise ValueError(f"row length must be positive, got {row.length}")
            normalized.append(Row(normalize_vertex(row.socle, n), row.length))
        if not keep_order:
            normalized.sort(key=_canonical_key(n))
        self.n = n
        self.rows = tuple(normalized)
        self._size = sum(row.length for row in normalized)

    @property
    def size(self) -> int:
        """Total number of boxes."""
        return self._size

    def boxes(self) -> Iterator[Box]:
        """All boxes in row-major order (top row first, left to right)."""
        for i, row in enumerate(self.rows, start=1):
            for pos in range(1, row.length + 1):
                yield Box(i, pos)

    def label(self, box: Box) -> int:
        """Column label of a box."""
        if not 1 <= box.row <= len(self.rows):
            raise ValueError(f"row index {box.row} out of range")
        return column_label(self.rows[box.row - 1], box.pos, self.n)

    def dim_vector(self) -> tuple[int, ...]:
        """Number of boxes per column label, indexed by vertex 1..n."""
        dims = [0] * self.n
        for row in self.rows:
            for v in row.labels(self.n):
                dims[v - 1] += 1
        return tuple(dims)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "rows": [{"socle": r.socle, "len": r.length} for r in self.rows],
        }

    @classmethod
    def from_json(cls, data: dict, keep_order: bool = False) -> "Shape":
        """Inverse of `to_json`; the constructor checks the fields."""
        try:
            n = data["n"]
            rows = [Row(r["socle"], r["len"]) for r in data["rows"]]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed shape object: {exc}") from exc
        return cls(n, rows, keep_order=keep_order)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Shape)
            and self.n == other.n
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __repr__(self) -> str:
        inner = ", ".join(f"({r.socle},{r.length})" for r in self.rows)
        return f"Shape(n={self.n}, rows=[{inner}])"


def _require_int(value, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def validate_word(word: Sequence[int], n: int) -> tuple[int, ...]:
    """Check a filtration word: every letter an integer vertex in 1..n."""
    out = []
    for v in word:
        if not isinstance(v, int) or isinstance(v, bool):
            raise ValueError(f"filtration letters must be integers, got {v!r}")
        if not 1 <= v <= n:
            raise ValueError(f"vertex {v} outside 1..{n}")
        out.append(v)
    return tuple(out)


STATISTICS = ("pinned", "geometric")


def validate_statistic(statistic: str) -> str:
    """Check a cell-statistic name; `RowMultiTableau.d_tau` defines both."""
    if statistic not in STATISTICS:
        raise ValueError(
            f"statistic must be one of {STATISTICS}, got {statistic!r}"
        )
    return statistic


def filtration_dims(word: Sequence[int], k: int, n: int) -> tuple[int, ...]:
    """Dimension vector after the first k steps of the filtration word."""
    word = validate_word(word, n)
    if not 0 <= k <= len(word):
        raise ValueError(f"step {k} out of range 0..{len(word)}")
    return _letter_counts(word[:k], n)


def _letter_counts(word: tuple[int, ...], n: int) -> tuple[int, ...]:
    dims = [0] * n
    for v in word:
        dims[v - 1] += 1
    return tuple(dims)


def is_compatible(shape: Shape, word: Sequence[int]) -> bool:
    """True when the word's letter counts match the shape's dimension vector."""
    return _compatible(shape, validate_word(word, shape.n))


def _compatible(shape: Shape, word: tuple[int, ...]) -> bool:
    """`is_compatible` for a word that `validate_word` has returned."""
    return len(word) == shape.size and _letter_counts(
        word, shape.n
    ) == shape.dim_vector()
