"""Concrete nilpotent modules over small prime fields.

This is the brute-force side of the project: build the standard module
of a shape with one basis vector per box, enumerate complete flags of
submodules line by line (each step picks a line inside the socle at the
step's vertex and passes to the quotient), count them, and classify each
flag into a cell by reading off pivot coordinates.  Neither walks flag
by flag: `count_flags` memoizes its count on the isomorphism class of
each quotient, found by rank arithmetic (`iso_class`), and
`classify_flags` memoizes its per-cell counts on each exact quotient.
None of it consults the counting recursions, which is the point: the
two routes must be comparable, not entangled.
"""
from __future__ import annotations

from itertools import product
from typing import Iterator, Mapping, Sequence

from .cyclic_core import Box, Row, Shape, normalize_vertex, validate_word
from .linalg import (
    kernel_mod,
    matvec_mod,
    rank_rational,
    reduce_vector_mod,
    rref_mod,
)
from .tableaux import RowMultiTableau

SUPPORTED_PRIMES = (2, 3, 5, 7)
PIVOTS = ("first", "shortest")


def _check_prime(p: int) -> int:
    if p not in SUPPORTED_PRIMES:
        raise ValueError(f"prime must be one of {SUPPORTED_PRIMES}, got {p}")
    return p


class NilModule:
    """Arrow matrices over F_p with a box-tagged basis.

    mats[v] is the matrix of the arrow from vertex v+1 to vertex v+2
    (0-based storage), of size dims[(v+1) % n] x dims[v].  tags[v] names
    the originating box of each basis coordinate at vertex v+1; tags
    survive quotients, which is what makes cell classification possible
    without re-deriving shapes.
    """

    __slots__ = ("n", "p", "dims", "mats", "tags", "shape")

    def __init__(self, n, p, dims, mats, tags=None, shape=None):
        self.n = n
        self.p = _check_prime(p)
        self.dims = tuple(int(d) for d in dims)
        if len(self.dims) != n:
            raise ValueError(f"expected {n} vertex dimensions, got {len(self.dims)}")
        cleaned = []
        for v in range(n):
            w = (v + 1) % n
            mat = [[x % p for x in row] for row in mats[v]]
            if len(mat) != self.dims[w] or any(
                len(row) != self.dims[v] for row in mat
            ):
                raise ValueError(f"arrow matrix {v + 1} has wrong size")
            cleaned.append(mat)
        self.mats = tuple(tuple(tuple(row) for row in mat) for mat in cleaned)
        self.tags = (
            tuple(tuple(t) for t in tags) if tags is not None else None
        )
        self.shape = shape
        self._check_nilpotent()

    @classmethod
    def _from_trusted(cls, n, p, dims, mats, tags, shape) -> "NilModule":
        """A module from already checked data: tuples of the right sizes,
        entries reduced mod p, nilpotent.  `quotient` builds through here,
        since a quotient of a nilpotent module is nilpotent."""
        m = cls.__new__(cls)
        m.n, m.p, m.dims, m.mats, m.tags, m.shape = n, p, dims, mats, tags, shape
        return m

    def _check_nilpotent(self):
        total = sum(self.dims)
        for v in range(self.n):
            # composite around the cycle starting at vertex v+1
            size = self.dims[v]
            comp = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
            for step in range(self.n):
                mat = self.mats[(v + step) % self.n]
                comp = [
                    [
                        sum(mat[i][k] * comp[k][j] for k in range(len(comp))) % self.p
                        for j in range(size)
                    ]
                    for i in range(len(mat))
                ]
            power = comp
            for _ in range(max(total - 1, 0)):
                if not any(any(row) for row in power):
                    break
                power = [
                    [
                        sum(comp[i][k] * power[k][j] for k in range(size)) % self.p
                        for j in range(size)
                    ]
                    for i in range(size)
                ]
            if any(any(row) for row in power):
                raise ValueError("cycle composite is not nilpotent")

    @property
    def total_dim(self) -> int:
        return sum(self.dims)


def _standard_module(shape: Shape):
    """Dims, 0/1 arrow matrices and box tags of the standard module: boxes
    in row-major order, each box's vector mapping to its right neighbor."""
    n = shape.n
    tags: list[list[Box]] = [[] for _ in range(n)]
    coord: dict[Box, tuple[int, int]] = {}
    for box in shape.boxes():
        v = shape.label(box) - 1
        coord[box] = (v, len(tags[v]))
        tags[v].append(box)
    dims = tuple(len(t) for t in tags)
    mats = [
        [[0] * dims[v] for _ in range(dims[(v + 1) % n])] for v in range(n)
    ]
    for i, row in enumerate(shape.rows, start=1):
        for pos in range(1, row.length):
            v, a = coord[Box(i, pos)]
            w, b = coord[Box(i, pos + 1)]
            assert w == (v + 1) % n
            mats[v][b][a] = 1
    return dims, mats, tags


def build_module(shape: Shape, p: int) -> NilModule:
    """Standard module of a shape over F_p; the constructor checks p."""
    dims, mats, tags = _standard_module(shape)
    return NilModule(shape.n, p, dims, mats, tags=tags, shape=shape)


class GradedSubspace:
    """Per-vertex reduced echelon bases with their pivot columns."""

    __slots__ = ("p", "basis", "pivots")

    def __init__(self, p, basis, pivots):
        self.p = p
        self.basis = tuple(tuple(tuple(v) for v in b) for b in basis)
        self.pivots = tuple(tuple(pv) for pv in pivots)

    @classmethod
    def from_vectors(
        cls, p: int, vectors: Sequence[Sequence[Sequence[int]]]
    ) -> "GradedSubspace":
        basis, pivots = [], []
        for vecs in vectors:
            b, pv = rref_mod(list(vecs), p) if vecs else ([], [])
            basis.append(b)
            pivots.append(pv)
        return cls(p, basis, pivots)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.basis)

    @property
    def dim(self) -> int:
        return sum(len(b) for b in self.basis)


def socle(m: NilModule) -> GradedSubspace:
    """Per-vertex kernels of the outgoing arrows."""
    basis, pivots = [], []
    for v in range(m.n):
        b, pv = kernel_mod(m.mats[v], m.dims[v], m.p)
        basis.append(b)
        pivots.append(pv)
    return GradedSubspace(m.p, basis, pivots)


class Projection:
    """Coordinate data of one quotient: which ambient coordinates survive
    and how to reduce a vector before reading them off."""

    __slots__ = ("p", "keep", "basis", "pivots")

    def __init__(self, p, keep, basis, pivots):
        self.p = p
        self.keep = tuple(tuple(k) for k in keep)
        self.basis = basis
        self.pivots = pivots

    def push_vec(self, v: int, vec: Sequence[int]) -> list[int]:
        reduced = reduce_vector_mod(vec, self.basis[v], self.pivots[v], self.p)
        return [reduced[j] for j in self.keep[v]]

    def lift_vec(self, v: int, small: Sequence[int]) -> list[int]:
        amb = len(self.keep[v]) + len(self.pivots[v])
        out = [0] * amb
        for j, val in zip(self.keep[v], small):
            out[j] = val % self.p
        return out


def quotient(m: NilModule, u: GradedSubspace):
    """Quotient module plus the projection onto surviving coordinates.

    Surviving coordinates are the non-pivot ambient coordinates of u,
    so box tags carry over unchanged.  Raises if u is not arrow-stable.
    """
    p = m.p
    for v in range(m.n):
        w = (v + 1) % m.n
        for bvec in u.basis[v]:
            img = matvec_mod(m.mats[v], bvec, p)
            if any(reduce_vector_mod(img, u.basis[w], u.pivots[w], p)):
                raise ValueError("subspace is not arrow-stable")
    keep = []
    for v in range(m.n):
        pivot_set = set(u.pivots[v])
        keep.append([j for j in range(m.dims[v]) if j not in pivot_set])
    proj = Projection(p, keep, u.basis, u.pivots)
    new_dims = tuple(len(k) for k in keep)
    new_mats = []
    for v in range(m.n):
        w = (v + 1) % m.n
        cols = []
        for j in keep[v]:
            img = [row[j] for row in m.mats[v]]
            cols.append(proj.push_vec(w, img))
        new_mats.append(
            tuple(tuple(col[r] for col in cols) for r in range(new_dims[w]))
        )
    new_tags = None
    if m.tags is not None:
        new_tags = tuple(
            tuple(m.tags[v][j] for j in keep[v]) for v in range(m.n)
        )
    qm = NilModule._from_trusted(
        m.n, p, new_dims, tuple(new_mats), new_tags, m.shape
    )
    return qm, proj


def _line_reps(basis: Sequence[Sequence[int]], p: int) -> Iterator[list[int]]:
    """One representative per line of the span of an echelonized basis.

    The representative picks a leading basis vector plus a combination of
    the later ones, so its first nonzero coordinate is the leading
    vector's pivot; (p^s - 1)/(p - 1) lines in total.
    """
    s = len(basis)
    for j in range(s):
        for tail in product(range(p), repeat=s - j - 1):
            vec = list(basis[j])
            for c, b in zip(tail, basis[j + 1 :]):
                if c:
                    vec = [(a + c * x) % p for a, x in zip(vec, b)]
            yield vec


def _line_subspace(m: NilModule, v: int, vec: Sequence[int]) -> GradedSubspace:
    vectors: list[list[Sequence[int]]] = [[] for _ in range(m.n)]
    vectors[v] = [vec]
    return GradedSubspace.from_vectors(m.p, vectors)


def count_flags(m: NilModule, f: Sequence[int], p: int | None = None) -> int:
    """Number of complete flags of submodules along the word: lines in
    the socle at the step's vertex, then recurse on the quotient.

    The number of flags below a step depends only on the isomorphism
    class of the quotient and the rest of the word, so the recursion is
    memoized on (`iso_class(quotient).rows`, rest of word) in a dict that
    lives for this call only.  `iso_class` works by rank arithmetic and
    never consults the counting recursions.  `classify_flags` reaches the
    same flags through a memo on exact quotients instead, and never calls
    `iso_class`; its counts sum to this one.
    """
    if p is not None and p != m.p:
        raise ValueError(f"module lives over F_{m.p}, not F_{p}")
    word = validate_word(f, m.n)
    return _count_rec(m, word, {})


def _count_rec(m: NilModule, word: tuple[int, ...], memo: dict) -> int:
    if not word:
        return 1 if m.total_dim == 0 else 0
    key = (iso_class(m).rows, word)
    if key not in memo:
        v = word[0] - 1
        basis, _ = kernel_mod(m.mats[v], m.dims[v], m.p)
        memo[key] = sum(
            _count_rec(quotient(m, _line_subspace(m, v, vec))[0], word[1:], memo)
            for vec in _line_reps(basis, m.p)
        )
    return memo[key]


def _line_with_pivot(
    m: NilModule, v: int, vec: Sequence[int], pivot: int
) -> GradedSubspace:
    """The line through `vec` at vertex v, scaled to 1 at coordinate
    `pivot`, so that the quotient by it drops that coordinate."""
    inv = pow(vec[pivot], m.p - 2, m.p)
    basis: list[list[list[int]]] = [[] for _ in range(m.n)]
    pivots: list[list[int]] = [[] for _ in range(m.n)]
    basis[v] = [[(x * inv) % m.p for x in vec]]
    pivots[v] = [pivot]
    return GradedSubspace(m.p, basis, pivots)


def _shortest_row_order(m: NilModule, v: int) -> list[int]:
    """Coordinates at vertex v, fewest surviving coordinates in the box's
    row first, ties to the upper row."""
    left: dict[int, int] = {}
    for tags in m.tags:
        for box in tags:
            left[box.row] = left.get(box.row, 0) + 1
    return sorted(
        range(m.dims[v]),
        key=lambda j: (left[m.tags[v][j].row], m.tags[v][j].row),
    )


def classify_flags(
    m: NilModule,
    f: Sequence[int],
    pivot: str = "first",
    cell: Sequence[Sequence[int]] | None = None,
) -> dict[tuple[tuple[int, ...], ...], int]:
    """Point count per cell: every flag keyed by the filling its pivot
    boxes spell out.

    Each step takes a line in the socle at the step's vertex; the box of
    its pivot coordinate receives the step's entry, and the quotient by
    the line drops that coordinate.  The pivot rule:

    - "first" (default): the first nonzero coordinate in row-major box
      order.  Its classes are not affine cells once shapes have more than
      4 boxes: for n = 1, rows (2,2,1) and the word 1^5, the class of the
      filling ((1,4),(2,5),(3,)) holds 6 points over F_2 and 15 over F_3.
    - "shortest": the nonzero coordinate whose box's row has the fewest
      surviving coordinates, ties to the upper row.  Each class then holds
      p^d points, d the cell's dimension under the geometric statistic.

    With `cell` (a filling) only the flags of that cell are counted, so
    the result has at most that one key.

    The flags below a step are counted per partial filling, the (box,
    entry) pairs the remaining steps assign, and memoized in a dict that
    lives for this call only.  The key is the exact quotient (`dims`,
    `mats`, `tags`) plus the rest of the word.  It is sound because both
    pivot rules read nothing but `dims`, `mats` and `tags`, and a step's
    entry is the length of the rest of the word; with `cell`, the wanted
    box per entry is fixed for the call.  So a memo hit stands for every
    flag below that quotient without visiting them.  Only linear algebra
    mod p is used, never `count_flags`, `iso_class` or the counting
    recursions.

    Keys are raw filling tuples aligned with the module's shape rows, on
    purpose: a class that fails the tableau invariants still gets
    reported instead of raising.
    """
    word = validate_word(f, m.n)
    if m.shape is None or m.tags is None:
        raise ValueError("classification needs a module built from a shape")
    if pivot not in PIVOTS:
        raise ValueError(f"pivot must be one of {PIVOTS}, got {pivot!r}")
    want: dict[int, Box] | None = None
    if cell is not None:
        want = {
            e: Box(i, pos)
            for i, entries in enumerate(cell, start=1)
            for pos, e in enumerate(entries, start=1)
        }
    partials = _classify_rec(m, word, pivot == "shortest", want, {})
    counts: dict[tuple[tuple[int, ...], ...], int] = {}
    for partial, count in partials.items():
        entry_at = dict(partial)
        filling = tuple(
            tuple(entry_at[Box(i, pos)] for pos in range(1, row.length + 1))
            for i, row in enumerate(m.shape.rows, start=1)
        )
        counts[filling] = count
    return counts


def _classify_rec(
    cur: NilModule,
    rest: tuple[int, ...],
    shortest: bool,
    want: dict[int, Box] | None,
    memo: dict,
) -> dict[tuple[tuple[Box, int], ...], int]:
    """Flags below one step, counted per partial filling: the (box, entry)
    pairs the remaining steps assign, in step order."""
    if not rest:
        return {(): 1} if cur.total_dim == 0 else {}
    key = (cur.dims, cur.mats, cur.tags, rest)
    if key in memo:
        return memo[key]
    out: dict[tuple[tuple[Box, int], ...], int] = {}
    v = rest[0] - 1
    entry = len(rest)
    basis, _ = kernel_mod(cur.mats[v], cur.dims[v], cur.p)
    order = _shortest_row_order(cur, v) if shortest else range(cur.dims[v])
    for vec in _line_reps(basis, cur.p):
        j = next(j for j in order if vec[j])
        box = cur.tags[v][j]
        if want is not None and want.get(entry) != box:
            continue
        qm, _ = quotient(cur, _line_with_pivot(cur, v, vec, j))
        for partial, count in _classify_rec(qm, rest[1:], shortest, want, memo).items():
            full = ((box, entry),) + partial
            out[full] = out.get(full, 0) + count
    memo[key] = out
    return out


class FlagPoint:
    """A chain of graded subspaces in ambient coordinates, smallest first."""

    __slots__ = ("chain",)

    def __init__(self, chain: Sequence[GradedSubspace]):
        self.chain = tuple(chain)

    def __len__(self) -> int:
        return len(self.chain)


def split_flag(m: NilModule, t: RowMultiTableau) -> FlagPoint:
    """The flag spanned by box basis vectors in entry order: stage k is
    spanned by the boxes holding the k largest entries."""
    if m.shape != t.shape:
        raise ValueError("tableau shape does not match the module")
    coord: dict[Box, tuple[int, int]] = {}
    for v in range(m.n):
        for idx, box in enumerate(m.tags[v]):
            coord[box] = (v, idx)
    r = t.size
    chain = []
    for k in range(1, r + 1):
        vectors: list[list[list[int]]] = [[] for _ in range(m.n)]
        for e in range(r + 1 - k, r + 1):
            v, idx = coord[t.box_of_entry(e)]
            unit = [0] * m.dims[v]
            unit[idx] = 1
            vectors[v].append(unit)
        chain.append(GradedSubspace.from_vectors(m.p, vectors))
    return FlagPoint(chain)


def cell_of_flag(m: NilModule, fl: FlagPoint) -> RowMultiTableau:
    """Classify one flag: peel one line per step, read its pivot box.

    The pivot is the first nonzero coordinate of the new line in the
    box-tagged basis order; the box receives the step's entry and is
    quotiented away before the next step.
    """
    if m.shape is None or m.tags is None:
        raise ValueError("classification needs a module built from a shape")
    r = m.total_dim
    if len(fl.chain) != r:
        raise ValueError(f"flag has {len(fl.chain)} stages for dimension {r}")
    entry_at: dict[Box, int] = {}
    cur = m
    projections: list[tuple[int, Projection]] = []
    for k, stage in enumerate(fl.chain, start=1):
        if stage.dim != k:
            raise ValueError(f"stage {k} has dimension {stage.dim}")
        vectors: list[list[list[int]]] = [[] for _ in range(m.n)]
        for v in range(m.n):
            for bvec in stage.basis[v]:
                w = list(bvec)
                for _, pr in projections:
                    w = pr.push_vec(v, w)
                if any(w):
                    vectors[v].append(w)
        pushed = GradedSubspace.from_vectors(cur.p, vectors)
        if pushed.dim != 1:
            raise ValueError(f"stage {k} does not extend the previous stage by a line")
        v = next(i for i, d in enumerate(pushed.dims) if d)
        vec = list(pushed.basis[v][0])
        if any(matvec_mod(cur.mats[v], vec, cur.p)):
            raise ValueError(f"stage {k} is not arrow-stable")
        pivot = next(j for j, x in enumerate(vec) if x)
        entry_at[cur.tags[v][pivot]] = r + 1 - k
        cur, pr = quotient(cur, _line_subspace(cur, v, vec))
        projections.append((v, pr))
    filling = tuple(
        tuple(entry_at[Box(i, pos)] for pos in range(1, row.length + 1))
        for i, row in enumerate(m.shape.rows, start=1)
    )
    return RowMultiTableau(m.shape, filling)


def dim_end(shape: Shape) -> int:
    """Dimension of the endomorphism algebra of the standard module.

    Solves the intertwiner system (next-vertex unknown times arrow equals
    arrow times this-vertex unknown, for every arrow) exactly over the
    rationals; the arrow matrices are 0/1, so the answer is
    characteristic-free.
    """
    dims, mats, _ = _standard_module(shape)
    n = shape.n
    nvars = sum(d * d for d in dims)
    offsets = []
    acc = 0
    for d in dims:
        offsets.append(acc)
        acc += d * d
    rows = []
    for v in range(n):
        w = (v + 1) % n
        dv, dw = dims[v], dims[w]
        mat = mats[v]
        for a in range(dw):
            for b in range(dv):
                row = [0] * nvars
                # (g_w . mat)[a][b]
                for c in range(dw):
                    if mat[c][b]:
                        row[offsets[w] + a * dw + c] += 1
                # -(mat . g_v)[a][b]
                for c in range(dv):
                    if mat[a][c]:
                        row[offsets[v] + c * dv + b] -= 1
                if any(row):
                    rows.append(row)
    return nvars - rank_rational(rows)


def iso_class(m: NilModule) -> Shape:
    """Recover the multiset of rows of a concrete module.

    The multiplicity of a row of length l ending at a vertex is the drop
    in dimension of (socle intersect l-th radical power) at that vertex,
    all intersections computed by rank arithmetic.
    """
    p = m.p
    soc = socle(m).basis

    def meet_dim(w: int, rad_b) -> int:
        if not rad_b or not soc[w]:
            return 0
        join = len(rref_mod(list(soc[w]) + rad_b, p)[0])
        return len(soc[w]) + len(rad_b) - join

    # rad[w]: echelon basis of the l-th radical power at vertex w, the
    # image of the composite of the l arrows arriving there; rad^0 is
    # everything, so its meet with the socle is the socle
    rad = [
        [[1 if i == j else 0 for j in range(d)] for i in range(d)]
        for d in m.dims
    ]
    meet = [len(b) for b in soc]
    rows = []
    for l in range(1, m.total_dim + 1):
        if not any(meet):
            break  # meets only shrink as l grows
        rad = [
            rref_mod([matvec_mod(m.mats[w - 1], b, p) for b in rad[w - 1]], p)[0]
            for w in range(m.n)
        ]
        nxt = [meet_dim(w, rad[w]) for w in range(m.n)]
        for w in range(m.n):
            rows.extend([Row(w + 1, l)] * (meet[w] - nxt[w]))
        meet = nxt
    return Shape(m.n, rows)
