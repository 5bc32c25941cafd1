"""Counting recursions and graded dimension bookkeeping.

Everything here is exact integer combinatorics on shapes and filtration
words: the end-box recursion for the number of cells, its graded
refinement (Poincare polynomials in q, one coefficient per even
cohomological degree), the ambient flag-variety product of q-factorials,
and the assembly of graded standard-module dimensions over all
filtration words of a fixed dimension vector.
"""
from __future__ import annotations

from typing import Iterator, Mapping, Sequence

from .cyclic_core import (
    Box,
    Row,
    Shape,
    normalize_vertex,
    validate_statistic,
    validate_word,
)


def _poly_string(items: Sequence[tuple[int, int]], var: str) -> str:
    if not items:
        return "0"
    terms = []
    for k, c in sorted(items):
        if k == 0:
            terms.append(str(c))
            continue
        power = var if k == 1 else f"{var}^{k}"
        terms.append(power if c == 1 else f"{c}{power}")
    return " + ".join(terms)


def _check_int_term(k, c) -> None:
    """A degree and a coefficient must be exactly ints: bools and floats
    are refused, as `validate_word` refuses them as letters, instead of
    being truncated."""
    if type(k) is not int or type(c) is not int:
        raise ValueError(f"degree {k!r} and coefficient {c!r} must be integers")


class PoincarePoly:
    """Finitely supported coefficients in nonnegative powers of q."""

    __slots__ = ("_items",)

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        items = []
        for k, c in (coeffs or {}).items():
            _check_int_term(k, c)
            if c == 0:
                continue
            if k < 0:
                raise ValueError(f"negative degree {k}")
            if c < 0:
                raise ValueError(f"negative coefficient {c} at degree {k}")
            items.append((k, c))
        self._items = tuple(sorted(items))

    @classmethod
    def _from_items(cls, items: tuple[tuple[int, int], ...]) -> "PoincarePoly":
        """A polynomial from already checked terms: a tuple of (degree,
        coefficient) int pairs, sorted by degree, degrees nonnegative and
        coefficients positive, kept as is.  `f_graded` builds through here,
        so its value stays the one object the memo holds."""
        poly = cls.__new__(cls)
        poly._items = items
        return poly

    def coeff(self, k: int) -> int:
        for kk, c in self._items:
            if kk == k:
                return c
        return 0

    def items(self) -> tuple[tuple[int, int], ...]:
        return self._items

    @property
    def coeffs(self) -> dict[int, int]:
        return dict(self._items)

    @property
    def degree(self) -> int:
        # degree of the zero polynomial is -1 by convention
        return self._items[-1][0] if self._items else -1

    def evaluate(self, q: int) -> int:
        return sum(c * q**k for k, c in self._items)

    def total(self) -> int:
        """Sum of all coefficients, the value at q = 1."""
        return sum(c for _, c in self._items)

    def shifted(self, s: int) -> "PoincarePoly":
        if s < 0:
            raise ValueError(f"shift must be nonnegative, got {s}")
        return PoincarePoly({k + s: c for k, c in self._items})

    def __add__(self, other: "PoincarePoly") -> "PoincarePoly":
        out = dict(self._items)
        for k, c in other._items:
            out[k] = out.get(k, 0) + c
        return PoincarePoly(out)

    def __mul__(self, other: "PoincarePoly") -> "PoincarePoly":
        out: dict[int, int] = {}
        for k1, c1 in self._items:
            for k2, c2 in other._items:
                out[k1 + k2] = out.get(k1 + k2, 0) + c1 * c2
        return PoincarePoly(out)

    def __bool__(self) -> bool:
        return bool(self._items)

    def __eq__(self, other) -> bool:
        return isinstance(other, PoincarePoly) and self._items == other._items

    def __hash__(self) -> int:
        return hash(self._items)

    def qstring(self) -> str:
        return _poly_string(self._items, "q")

    def to_json(self) -> dict[str, int]:
        return {str(k): c for k, c in self._items}

    @classmethod
    def from_json(cls, data: Mapping[str, int]) -> "PoincarePoly":
        return cls({int(k): c for k, c in data.items()})

    def __repr__(self) -> str:
        return f"PoincarePoly({self.qstring()!r})"


def q_int(m: int) -> PoincarePoly:
    """1 + q + ... + q^(m-1)."""
    if m < 0:
        raise ValueError(f"q-integer of negative {m}")
    return PoincarePoly({k: 1 for k in range(m)})


def q_factorial(m: int) -> PoincarePoly:
    out = PoincarePoly({0: 1})
    for j in range(2, m + 1):
        out = out * q_int(j)
    return out


def ambient_poincare(dims: Sequence[int]) -> PoincarePoly:
    """Product of q-factorials, one per vertex dimension.

    Poincare polynomial of the product of classical complete flag
    varieties containing every instance with this dimension vector; a
    per-degree upper bound for the graded cell counts.
    """
    out = PoincarePoly({0: 1})
    for d in dims:
        out = out * q_factorial(d)
    return out


def end_boxes(shape: Shape, i: int) -> list[Box]:
    """Rightmost boxes of the rows currently ending at vertex i, top to bottom."""
    v = normalize_vertex(i, shape.n)
    return [
        Box(idx, row.length)
        for idx, row in enumerate(shape.rows, start=1)
        if row.socle == v
    ]


def remove_box(shape: Shape, b: Box) -> Shape:
    """Drop the end box `b`; the row shortens and now ends one vertex earlier.

    Row order is kept as is: identity of the remaining rows must survive
    the recursion, so no re-canonicalization happens here.
    """
    if not 1 <= b.row <= len(shape.rows):
        raise ValueError(f"row index {b.row} out of range")
    if b.pos != shape.rows[b.row - 1].length:
        raise ValueError(f"box {b} is not the end box of its row")
    return Shape(shape.n, _shrink(shape.rows, b.row - 1, shape.n), keep_order=True)


def _shrink(rows: tuple[Row, ...], idx: int, n: int) -> tuple[Row, ...]:
    row = rows[idx]
    if row.length == 1:
        return rows[:idx] + rows[idx + 1 :]
    shorter = Row(normalize_vertex(row.socle - 1, n), row.length - 1)
    return rows[:idx] + (shorter,) + rows[idx + 1 :]


# Every count here is memoized on the ordered row tuple: the result
# genuinely depends on the order of rows, not just their multiset, e.g.
# for n=1 and word (1,1,1) the pinned statistic gives 1 + q + q^2 for the
# rows ((1,2),(1,1)) but 1 + 2q for ((1,1),(1,2)), because its shift
# counts the candidates below.  The geometric shift compares lengths
# first and uses the order only to break ties between equal lengths, so
# both orders give 1 + 2q there.


def _end_box_steps(rows: tuple[Row, ...], v: int, n: int, geometric: bool):
    """The end-box rule at vertex v: for each row ending there, top to
    bottom, its degree shift and the rows left without its end box."""
    ends = [idx for idx, row in enumerate(rows) if row.socle == v]
    s = len(ends)
    for m, idx in enumerate(ends, start=1):
        if geometric:
            # the other candidates that are longer, or as long and lower
            key = (rows[idx].length, idx)
            shift = sum(1 for j in ends if (rows[j].length, j) > key)
        else:
            # the m-th candidate from the top contributes with degree
            # shift s - m: lower candidates contribute in lower degrees
            shift = s - m
        yield shift, _shrink(rows, idx, n)


def _fold(root, expand, memo: dict, values: dict) -> tuple[tuple[int, int], ...]:
    """Memoized post-order fold.  A state's value (sorted (degree, coefficient)
    pairs) is 1 where `expand` gives None, else the sum of its next states'
    values, each shifted by its step's degree.  Equal values are stored as
    one object, the first one kept in `values`.  Open states are generators
    on an explicit stack, so long rows never reach the recursion limit."""

    def visit(state):
        steps = expand(state)
        acc = {0: 1} if steps is None else {}
        for d, nxt in steps or ():
            value = memo.get(nxt)
            if value is None:
                value = yield nxt
            for k, c in value:
                acc[k + d] = acc.get(k + d, 0) + c
        value = tuple(sorted(acc.items()))
        value = memo[state] = values.setdefault(value, value)
        return value

    value = memo.get(root)
    stack = [] if value is not None else [visit(root)]
    while stack:
        try:
            stack.append(visit(stack[-1].send(value)))
            value = None
        except StopIteration as done:
            stack.pop()
            value = done.value
    return value


# States (n, rows, rest of word, geometric) of `f_graded`, kept across
# calls: instances that share a suffix of their word share its states.
# Each distinct rows tuple and word suffix is stored once, in
# `_GRADED_PARTS` (a suffix of ints never equals a tuple of rows but when
# both are empty), and each distinct value once, in `_GRADED_VALUES`.  On
# the benchmark's sweep calls, 20,750 states hold 788 rows tuples, 2,677
# suffixes and 382 values, and take 130 bytes each (tracemalloc), against
# 448 with a copy of each part in each state.  Values keep a table of
# their own because a Row is a tuple: the rows (Row(1, 2),) equal the
# value ((1, 2),).
_GRADED_MEMO: dict = {}
_GRADED_PARTS: dict = {}
_GRADED_VALUES: dict = {}


def _graded_steps(state):
    n, rows, word, geometric = state
    if not word:
        return None
    parts = _GRADED_PARTS
    rest = word[1:]
    rest = parts.setdefault(rest, rest)
    return [
        (shift, (n, parts.setdefault(left, left), rest, geometric))
        for shift, left in _end_box_steps(rows, word[0], n, geometric)
    ]


def _graded_fold(shape: Shape, word: tuple[int, ...], geometric: bool):
    parts = _GRADED_PARTS
    rows, word = parts.setdefault(shape.rows, shape.rows), parts.setdefault(word, word)
    root = (shape.n, rows, word, geometric)
    return _fold(root, _graded_steps, _GRADED_MEMO, _GRADED_VALUES)


def f_count(shape: Shape, f: Sequence[int]) -> int:
    """Number of cells by the end-box recursion: the graded count at q = 1,
    the sum of the pinned fold's coefficients (any statistic sums to it)."""
    word = validate_word(f, shape.n)
    return sum(c for _, c in _graded_fold(shape, word, False))


def f_graded(
    shape: Shape, f: Sequence[int], statistic: str = "pinned"
) -> PoincarePoly:
    """Graded cell count by the shifted end-box recursion.

    Each step removes the end box of one row ending at the step's vertex
    and shifts the degree by that candidate's free directions, matching
    `RowMultiTableau.d_tau` under the same statistic:

    - "pinned" (default): the number of candidate rows below it;
    - "geometric": the number of other candidate rows that are longer,
      or of equal length and lower.  Its value at q = p is the number of
      F_p-points of the flag variety.
    """
    word = validate_word(f, shape.n)
    geometric = validate_statistic(statistic) == "geometric"
    return PoincarePoly._from_items(_graded_fold(shape, word, geometric))


def bundle_dim(f: Sequence[int], n: int) -> int:
    """Dimension of the induced vector bundle over the ambient flag variety.

    Flag part: sum over vertices of d(d-1)/2.  Fiber part: at step k the
    arrow out of the step's vertex must send the new subspace into the
    previous stage at the next vertex, contributing that stage's
    dimension there.
    """
    used = [0] * n
    e = 0
    for v in validate_word(f, n):
        # fiber at vertex v+1 (0-based v % n); earlier v's add up to d(d-1)/2
        e += used[v % n] + used[v - 1]
        used[v - 1] += 1
    return e


def _dim_end(shape: Shape) -> int:
    """Endomorphism-algebra dimension of the standard module, in closed form.

    The sum over ordered pairs of rows (U, V) of dim Hom(U, V).  A map
    U -> V is fixed by a length-m quotient of U that is also a submodule
    of V, so dim Hom(U, V) counts the m in 1..min(len U, len V) with
    top(U) = socle(V) - m + 1 (mod n): the m = c0, c0 + n, c0 + 2n, ...
    for the least such c0 >= 1.
    """
    n = shape.n
    total = 0
    for u in shape.rows:
        top = u.top(n)
        for v in shape.rows:
            c0 = (v.socle - top) % n + 1
            most = min(u.length, v.length)
            if c0 <= most:
                total += (most - c0) // n + 1
    return total


def orbit_dim(shape: Shape) -> int:
    """Dimension of the isomorphism-class orbit inside its matrix space.

    Group dimension minus endomorphism-algebra dimension; the latter is
    counted from the rows in closed form, O(1) per ordered pair of rows.
    `ffmod.dim_end` computes it independently, by linear algebra.
    """
    return sum(d * d for d in filter(None, shape.dim_vector())) - _dim_end(shape)


def multiset_words(dims: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """All distinct words with dims[v-1] occurrences of each vertex v.

    Deterministic lexicographic order, smallest vertex first.
    """
    word = [v for v, d in enumerate(dims, start=1) for _ in range(d)]
    while True:
        yield tuple(word)
        # step to the next permutation in place
        i = len(word) - 2
        while i >= 0 and word[i] >= word[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(word) - 1
        while word[j] <= word[i]:
            j -= 1
        word[i], word[j] = word[j], word[i]
        word[i + 1 :] = word[:i:-1]


class KatoGdim:
    """Graded dimension of a standard module, summed over its words.

    `coeffs[k]` counts the pairs (filtration word, cell) whose bundle
    dimension minus cell dimension is k, in integer powers of t (see
    `kato_gdim`); nothing is divided out.  `orbit_dim` is stored beside
    them, the orbit dimension of the shape: for J2 + J1 at n = 1 the
    coefficients are t^4 + t^5 + t^6 and `orbit_dim` is 4.  Degrees and
    coefficients must be ints.
    """

    __slots__ = ("coeffs", "orbit_dim")

    def __init__(self, coeffs: Mapping[int, int], orbit_dim: int):
        for k, c in coeffs.items():
            _check_int_term(k, c)
        self.coeffs = {k: c for k, c in coeffs.items() if c != 0}
        self.orbit_dim = orbit_dim

    def total(self) -> int:
        return sum(self.coeffs.values())

    def tstring(self) -> str:
        return _poly_string(sorted(self.coeffs.items()), "t")

    def to_json(self) -> dict:
        return {
            "coeffs": {str(k): c for k, c in sorted(self.coeffs.items())},
            "orbit_dim": self.orbit_dim,
        }

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, KatoGdim)
            and self.coeffs == other.coeffs
            and self.orbit_dim == other.orbit_dim
        )

    def __repr__(self) -> str:
        return f"KatoGdim({self.tstring()!r}, orbit_dim={self.orbit_dim})"


def _boxes_at(rows: tuple[Row, ...], w: int, n: int) -> int:
    """Number of boxes with column label w among the rows: a row of length
    l ending at s covers the labels s, s-1, ..., s-l+1 (mod n)."""
    total = 0
    for row in rows:
        gap = (row.socle - w) % n  # steps back from the socle to label w
        if gap < row.length:
            total += (row.length - 1 - gap) // n + 1
    return total


def kato_gdim(shape: Shape) -> KatoGdim:
    """Sum the graded counts over every filtration word of the shape.

    A word with bundle dimension e turns its degree-j graded count into
    a contribution at t-exponent e - j.  Both split over the steps: with
    `used` counting the letters placed so far, a step at vertex v adds
    used[v+1] + used[v] to e (the `bundle_dim` increment) and its pinned
    shift to j, so one fold covers every word.  The used[v] terms add up
    to the flag part, sum d(d-1)/2 over the dimension vector, the same
    for every word, so it is added once at the end.  The letters placed
    are the boxes removed, so used[v+1] is the original dimension at v+1
    minus the boxes left there: the fold's states are the rows alone.
    The orbit dimension comes from `orbit_dim`'s closed form, so nothing
    here touches linear algebra.
    """
    n = shape.n
    dims = shape.dim_vector()

    def steps(rows):
        if not rows:
            return None
        out = []
        for v in {row.socle for row in rows}:
            w = v % n + 1
            fiber = dims[w - 1] - _boxes_at(rows, w, n)
            for shift, left in _end_box_steps(rows, v, n, False):
                out.append((fiber - shift, left))
        return out

    flag = sum(d * (d - 1) // 2 for d in filter(None, dims))
    coeffs = {k + flag: c for k, c in _fold(shape.rows, steps, {}, {})}
    return KatoGdim(coeffs, orbit_dim(shape))
