"""Row multi-tableaux: the combinatorial cells of a complete flag variety.

A filling assigns the entries 1..r bijectively to the boxes of a shape so
that every row increases strictly left to right.  Entries are placed in
decreasing order r, r-1, ..., 1; the entry placed at step k sits in the
rightmost then-unfilled box of its row, and the column label of that box
is the k-th letter of the induced dimension filtration.  Each filling
parametrizes one affine cell; its dimension is a sum of per-step counts
of unblocked rows, under one of two statistics (see
`RowMultiTableau.d_tau`).
"""
from __future__ import annotations

from typing import Iterable, Sequence

from .cyclic_core import (
    Box,
    Row,
    Shape,
    _compatible,
    validate_statistic,
    validate_word,
)


class RowMultiTableau:
    """A validated filling of a shape.

    The constructor checks the filling and, in the same pass, fills flat
    per-entry tables indexed by entry (slot 0 unused): the box's row and
    position, its column label in 1..n, and its right neighbour in the
    row (r + 1 at a row end).  The statistics read only these tables.
    Entries must be ints: bools and floats are rejected, not converted.
    """

    __slots__ = ("shape", "filling", "_row", "_pos", "_label", "_right")

    def __init__(self, shape: Shape, filling: Iterable[Iterable[int]]):
        filling = tuple(map(tuple, filling))
        rows = shape.rows
        if len(filling) != len(rows):
            raise ValueError(
                f"filling has {len(filling)} rows, shape has {len(rows)}"
            )
        n = shape.n
        r = shape.size
        row_of = [0] * (r + 1)
        pos_of = [0] * (r + 1)
        label_of = [0] * (r + 1)
        right_of = [0] * (r + 1)
        # integers outside 1..r, kept only to report a duplicate among
        # them, in scan order, before the range error at the end
        stray: set[int] | None = None
        for i, (row, entries) in enumerate(zip(rows, filling), start=1):
            if len(entries) != row.length:
                raise ValueError(
                    f"row {i} holds {len(entries)} entries for {row.length} boxes"
                )
            base = row.socle - row.length - 1
            prev = 0
            for pos, e in enumerate(entries, start=1):
                if type(e) is not int:
                    raise ValueError(f"entries must be exactly 1..{r}")
                if pos > 1 and prev >= e:
                    raise ValueError(f"row {i} is not strictly increasing")
                if 0 < e <= r:
                    if row_of[e]:
                        raise ValueError(f"entry {e} appears twice")
                    row_of[e] = i
                    pos_of[e] = pos
                    label_of[e] = (base + pos) % n + 1
                    if 0 < prev <= r:
                        right_of[prev] = e
                elif stray is None:
                    stray = {e}
                elif e in stray:
                    raise ValueError(f"entry {e} appears twice")
                else:
                    stray.add(e)
                prev = e
            if 0 < prev <= r:
                right_of[prev] = r + 1
        if stray:
            raise ValueError(f"entries must be exactly 1..{r}")
        self.shape = shape
        self.filling = filling
        self._row = row_of
        self._pos = pos_of
        self._label = label_of
        self._right = right_of

    @classmethod
    def _from_tables(cls, shape, filling, row_of, pos_of, label_of, right_of):
        """Trusted builder for fillings valid by construction, with their
        per-entry tables already filled: no check is made."""
        t = object.__new__(cls)
        t.shape = shape
        t.filling = filling
        t._row = row_of
        t._pos = pos_of
        t._label = label_of
        t._right = right_of
        return t

    @property
    def size(self) -> int:
        return len(self._row) - 1

    def box_of_entry(self, e: int) -> Box:
        if not (type(e) is int and 1 <= e <= self.size):
            raise ValueError(f"no entry {e} in a filling of size {self.size}")
        return Box(self._row[e], self._pos[e])

    def step_box(self, k: int) -> Box:
        """Box filled at step k, i.e. the box holding entry r+1-k."""
        r = self.size
        if not (type(k) is int and 1 <= k <= r):
            raise ValueError(f"step {k} out of range 1..{r}")
        return Box(self._row[r + 1 - k], self._pos[r + 1 - k])

    def _rank(self, statistic: str, stop: int | None = None) -> list[int]:
        """The per-entry rank table of a checked statistic, for the
        entries below `stop`: an unblocked s counts for k exactly when
        rank[s] > rank[k].  Pinned ranks by row index; geometric by
        position, then row index."""
        if statistic == "pinned":
            return self._row
        m = len(self.filling) + 1
        return [pos * m + row for pos, row in zip(self._pos[:stop], self._row)]

    def d_tau(self, k: int, statistic: str = "pinned") -> int:
        """Number of free directions contributed by entry k.

        Counts smaller entries s in another row whose box has the same
        column label, provided s's row holds no entry strictly between s
        and k; such an s ends its row at the step that places k.  Entry k
        is the one placed at step r+1-k of the filling order.  The
        statistic decides which of these rows count:

        - "pinned" (the default, frozen by the reference table): s's row
          lies strictly below k's row;
        - "geometric": with l_k the number of entries <= k in k's row and
          l_s the number of entries < k in s's row (the two row lengths
          at that step), l_s > l_k, or l_s == l_k and s's row lies below.

        As l_k and l_s are the positions of k and s, both compare a rank:
        the row index (pinned), or the position then the row index
        (geometric).  One scan of the entries below k, O(k).

        Only the geometric statistic satisfies the point-count identity
        #X(F_q) = sum over cells of q^dim.  The pinned one overstates
        cells with a free direction pointing at a shorter row: for J2+J1
        at n = 1 it gives 1 + q + q^2 where the variety has 2q + 1 points.
        """
        statistic = validate_statistic(statistic)
        self.box_of_entry(k)
        rank = self._rank(statistic, k + 1)
        label, right = self._label, self._right
        label_k, rank_k = label[k], rank[k]
        count = 0
        # rows increase, so an s < k in k's row has its right neighbour
        # <= k, and an s in another row is blocked when that neighbour is
        # < k: right[s] > k keeps exactly the unblocked s of other rows
        for s in range(1, k):
            if label[s] == label_k and right[s] > k and rank[s] > rank_k:
                count += 1
        return count

    def cell_dim(self, statistic: str = "pinned") -> int:
        """Dimension of the cell: the sum of `d_tau` over all entries,
        under the pinned (default) or the geometric statistic.

        One pass over k = 1..r keeps, per column label, the entries seen
        so far; only those can count for k, under the rank test of
        `d_tau`.  The cost is the sum of the squared label class sizes
        rather than r^2."""
        rank = self._rank(validate_statistic(statistic))
        label, right = self._label, self._right
        seen: dict[int, list[int]] = {}
        total = 0
        for k in range(1, len(label)):
            same = seen.setdefault(label[k], [])
            rank_k = rank[k]
            for s in same:
                if right[s] > k and rank[s] > rank_k:
                    total += 1
            same.append(k)
        return total

    def dim_filtration(self) -> tuple[int, ...]:
        """The induced word: letter k is the column label of the step-k box,
        the box holding entry r+1-k."""
        return tuple(self._label[:0:-1])

    def to_json(self) -> dict:
        data = self.shape.to_json()
        data["filling"] = [list(row) for row in self.filling]
        return data

    @classmethod
    def from_json(cls, data: dict) -> "RowMultiTableau":
        # row order in the file is authoritative: the filling is aligned
        # with it, so the shape must not be re-sorted here
        shape = Shape.from_json(data, keep_order=True)
        try:
            filling = data["filling"]
        except KeyError as exc:
            raise ValueError("missing filling") from exc
        if not isinstance(filling, list) or not all(
            isinstance(row, list) for row in filling
        ):
            raise ValueError(f"filling must be a list of lists, got {filling!r}")
        return cls(shape, filling)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RowMultiTableau)
            and self.shape == other.shape
            and self.filling == other.filling
        )

    def __hash__(self) -> int:
        return hash((self.shape, self.filling))

    def __repr__(self) -> str:
        return f"RowMultiTableau({self.filling})"


def _placement_dfs(shape: Shape, force_word=None):
    """Yield (word, filling, tables) for every completable placement
    sequence.

    Entries are placed r, r-1, ..., 1; at each step any row with an
    unfilled box may receive the entry in its rightmost unfilled box.
    When force_word is given, only rows whose next box carries the
    required label are tried.  Rows are tried top to bottom, which makes
    the output order lexicographic in placement choices.  The search
    keeps its own stack, so long rows do not hit the recursion limit.

    `tables` holds copies of the per-entry tables of `RowMultiTableau`
    (row, position, column label, right neighbour), written as each
    entry is placed: its right neighbour, being larger, is already in.
    """
    rows = shape.rows
    nrows = len(rows)
    labels = [row.labels(shape.n) for row in rows]
    lengths = [row.length for row in rows]
    r = shape.size
    free = lengths[:]  # each row's rightmost unfilled box, 0 when full
    filling = [[0] * length for length in lengths]
    row_of = [0] * (r + 1)
    pos_of = [0] * (r + 1)
    label_of = [0] * (r + 1)
    right_of = [0] * (r + 1)
    chosen: list[int] = []  # the row that received each placed entry
    k = 0  # entries placed; the next one is r - k
    i = 0  # next row to try for the entry of the current step
    while True:
        if k == r:
            # the word reads the labels of entries r, r-1, ..., 1
            yield tuple(label_of[:0:-1]), tuple(map(tuple, filling)), (
                row_of[:], pos_of[:], label_of[:], right_of[:]
            )
            i = nrows  # nothing left to place: backtrack
        want = force_word[k] if force_word is not None and k < r else None
        while i < nrows:
            pos = free[i]
            if pos and (want is None or labels[i][pos - 1] == want):
                break
            i += 1
        if i < nrows:
            e = r - k
            entries = filling[i]
            entries[pos - 1] = e
            row_of[e] = i + 1
            pos_of[e] = pos
            label_of[e] = labels[i][pos - 1]
            right_of[e] = entries[pos] if pos < lengths[i] else r + 1
            free[i] = pos - 1
            chosen.append(i)
            k += 1
            i = 0
        elif k:
            # no row left for this step: take back the last entry and try
            # the next row for it; its table slots are rewritten when the
            # entry is placed again
            i = chosen.pop()
            free[i] += 1
            k -= 1
            i += 1
        else:
            return


def enumerate_tableaux(
    shape: Shape, word: Sequence[int]
) -> list[RowMultiTableau]:
    """All fillings of `shape` inducing the filtration `word`.

    Incompatible words give an empty list.  Rows fill right to left as
    entries descend, so every filling is valid by construction; each
    tableau is built unchecked from the per-entry tables the placement
    search writes as it goes.
    """
    word = validate_word(word, shape.n)
    if not _compatible(shape, word):
        return []
    build = RowMultiTableau._from_tables
    return [
        build(shape, filling, *tables)
        for _, filling, tables in _placement_dfs(shape, force_word=word)
    ]


def enumerate_by_filtration(
    shape: Shape,
) -> dict[tuple[int, ...], list[RowMultiTableau]]:
    """Group every filling of `shape` by its induced filtration word.

    One traversal of all placement sequences; considerably cheaper than
    calling enumerate_tableaux once per candidate word when sweeping a
    whole shape.  As there, each tableau is built unchecked from the
    tables of the search.
    """
    build = RowMultiTableau._from_tables
    out: dict[tuple[int, ...], list[RowMultiTableau]] = {}
    for word, filling, tables in _placement_dfs(shape):
        out.setdefault(word, []).append(build(shape, filling, *tables))
    return out

