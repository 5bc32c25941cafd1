"""Row multi-tableaux: the combinatorial cells of a complete flag variety.

A filling assigns the entries 1..r bijectively to the boxes of a shape so
that every row increases strictly left to right.  Entries are placed in
decreasing order r, r-1, ..., 1; the entry placed at step k sits in the
rightmost then-unfilled box of its row, and the column label of that box
is the k-th letter of the induced dimension filtration.  Each filling
parametrizes one affine cell; its dimension is a sum of per-step counts
of unblocked rows, under one of two statistics (see
`RowMultiTableau.d_tau`).

Enumeration builds each tableau from the per-entry tables of the
placement search.  The column labels and their classes depend only on
the induced word, so every tableau of one word shares a single label
table and a single list of label classes; a filling is read off the
row table only when asked for.
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
    row (r + 1 at a row end).  The statistics read only these tables,
    and `cell_dim` the label classes, built from the label table on
    first use.  Entries must be ints: bools and floats are rejected, not
    converted.  Enumeration builds its tableaux unchecked instead, with
    the label table and classes of their word, and leaves the filling
    to be read off the row table when it is first asked for.
    """

    __slots__ = ("shape", "_filling", "_row", "_pos", "_label", "_right", "_classes")

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
        self._filling = filling
        self._row = row_of
        self._pos = pos_of
        self._label = label_of
        self._right = right_of
        self._classes = None

    @classmethod
    def _from_tables(cls, shape, row_of, pos_of, label_of, right_of, classes):
        """Trusted builder for fillings valid by construction, from their
        per-entry tables and the label classes of `label_of`: no check is
        made, and the filling is read off `row_of` on first use."""
        t = object.__new__(cls)
        t.shape = shape
        t._filling = None
        t._row = row_of
        t._pos = pos_of
        t._label = label_of
        t._right = right_of
        t._classes = classes
        return t

    @property
    def filling(self) -> tuple[tuple[int, ...], ...]:
        """The entries of each row, left to right.  Rows increase, so
        taking the entries in ascending order fills each row in order."""
        filling = self._filling
        if filling is None:
            rows: list[list[int]] = [[] for _ in self.shape.rows]
            row_of = self._row
            for e in range(1, len(row_of)):
                rows[row_of[e] - 1].append(e)
            filling = self._filling = tuple(map(tuple, rows))
        return filling

    def _label_classes(self) -> list[list[int]]:
        """The entries of each column label held by two or more entries,
        ascending; built from the label table on first use."""
        classes = self._classes
        if classes is None:
            classes = self._classes = _group_by_label(self._label)
        return classes

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
        m = len(self.shape.rows) + 1
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

        Only entries of one column label can count for each other, so the
        pairs s < k are taken within each label class, under the rank
        test of `d_tau`.  The cost is the sum of the squared label class
        sizes rather than r^2."""
        rank = self._rank(validate_statistic(statistic))
        right = self._right
        total = 0
        for same in self._label_classes():
            below: list[int] = []
            for k in same:
                rank_k = rank[k]
                for s in below:
                    if right[s] > k and rank[s] > rank_k:
                        total += 1
                below.append(k)
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


def _group_by_label(label: Sequence[int]) -> list[list[int]]:
    """The entries 1..r of each column label in the table `label`, in
    ascending order, for the labels held by two or more entries; the
    classes come in the order of their smallest entries."""
    by_label: dict[int, list[int]] = {}
    for e in range(1, len(label)):
        by_label.setdefault(label[e], []).append(e)
    return [same for same in by_label.values() if len(same) > 1]


def _placement_dfs(shape: Shape, force_word=None):
    """Yield (word, row, pos, right) for every completable placement
    sequence.

    Entries are placed r, r-1, ..., 1; at each step any row with an
    unfilled box may receive the entry in its rightmost unfilled box.
    When force_word is given, only rows whose next box carries the
    required label are tried.  Rows are tried top to bottom, which makes
    the output order lexicographic in placement choices.  The search
    keeps its own stack, so long rows do not hit the recursion limit.

    `row`, `pos` and `right` are copies of the per-entry tables of
    `RowMultiTableau` (row, position, right neighbour), written as each
    entry is placed.  The right neighbour of an entry is the last one
    placed in its row, which `last` keeps per row (r + 1 for an empty
    row); taking an entry back restores `last` from the entry's own
    right neighbour.  The column labels are not kept: they depend only
    on the word, and the caller builds them once per word.
    """
    rows = shape.rows
    nrows = len(rows)
    labels = [row.labels(shape.n) for row in rows]
    r = shape.size
    free = [row.length for row in rows]  # rightmost unfilled box, 0 when full
    last = [r + 1] * nrows  # the entry last placed in each row
    row_of = [0] * (r + 1)
    pos_of = [0] * (r + 1)
    right_of = [0] * (r + 1)
    word = [0] * r  # the label placed at each step
    chosen: list[int] = []  # the row that received each placed entry
    k = 0  # entries placed; the next one is r - k
    i = 0  # next row to try for the entry of the current step
    while True:
        if k == r:
            yield tuple(word), row_of[:], pos_of[:], right_of[:]
            i = nrows  # nothing left to place: backtrack
        want = force_word[k] if force_word is not None and k < r else None
        while i < nrows:
            pos = free[i]
            if pos and (want is None or labels[i][pos - 1] == want):
                break
            i += 1
        if i < nrows:
            e = r - k
            row_of[e] = i + 1
            pos_of[e] = pos
            right_of[e] = last[i]
            last[i] = e
            word[k] = labels[i][pos - 1]
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
            last[i] = right_of[r - k]
            i += 1
        else:
            return


def _grouped(
    shape: Shape, force_word=None
) -> dict[tuple[int, ...], list[RowMultiTableau]]:
    """The tableaux of the placement search, grouped by word, each built
    unchecked from the search's tables.  The label table of a word,
    `[0, *reversed(word)]`, and its label classes are built once, when
    the word first appears, and shared by all its tableaux."""
    build = RowMultiTableau._from_tables
    groups: dict = {}  # word -> (label table, label classes, tableaux)
    for word, row_of, pos_of, right_of in _placement_dfs(shape, force_word):
        group = groups.get(word)
        if group is None:
            label = [0, *reversed(word)]
            group = groups[word] = (label, _group_by_label(label), [])
        label, classes, ts = group
        ts.append(build(shape, row_of, pos_of, label, right_of, classes))
    return {word: ts for word, (_, _, ts) in groups.items()}


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
    return _grouped(shape, force_word=word).get(word, [])


def enumerate_by_filtration(
    shape: Shape,
) -> dict[tuple[int, ...], list[RowMultiTableau]]:
    """Group every filling of `shape` by its induced filtration word.

    One traversal of all placement sequences; considerably cheaper than
    calling enumerate_tableaux once per candidate word when sweeping a
    whole shape.  As there, each tableau is built unchecked from the
    tables of the search.
    """
    return _grouped(shape)
