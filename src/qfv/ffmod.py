"""Concrete nilpotent modules over small prime fields.

This is the brute-force side of the project: build the standard module
of a shape with one basis vector per box, enumerate complete flags of
submodules line by line (each step picks a line inside the socle at the
step's vertex and a pivot coordinate where it is nonzero, and passes to
the quotient by dropping that coordinate), count them, and classify each
flag into a cell by reading off the pivot boxes.  Neither walks flag
by flag: both go step by step over the distinct exact quotients that
the steps so far reach, `count_flags` keeping a count of flags at each,
`classify_flags` a count per cell.  Neither recurses, so long words are
fine.
`cell_of_flag` reads the cell of one given flag from the echelon forms
of its stages in ambient coordinates, with no quotient modules.
None of it consults the counting recursions, which is the point: the
two routes must be comparable, not entangled.
"""
from __future__ import annotations

from itertools import compress, product
from typing import Iterator, Sequence

from .cyclic_core import Box, Row, Shape, _require_int, validate_word
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
    without re-deriving shapes.  The cycle length, dimensions and matrix
    entries must be ints: bools and floats are rejected, not converted.
    The cycle length must be at least 1, as for `Shape`.
    """

    __slots__ = ("n", "p", "dims", "mats", "tags", "shape")

    def __init__(self, n, p, dims, mats, tags=None, shape=None):
        if _require_int(n, "cycle length") < 1:
            raise ValueError(f"cycle length must be at least 1, got {n}")
        self.n = n
        self.p = _check_prime(p)
        self.dims = tuple(_require_int(d, "vertex dimension") for d in dims)
        if len(self.dims) != n:
            raise ValueError(f"expected {n} vertex dimensions, got {len(self.dims)}")
        cleaned = []
        for v in range(n):
            w = (v + 1) % n
            mat = [[_require_int(x, "matrix entry") % p for x in row] for row in mats[v]]
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
        entries reduced mod p, nilpotent.  The standard module builds
        through here, being 0/1 and nilpotent by construction, and so do
        quotients, since a quotient of a nilpotent module is nilpotent."""
        m = cls.__new__(cls)
        m.n, m.p, m.dims, m.mats, m.tags, m.shape = n, p, dims, mats, tags, shape
        return m

    def _check_nilpotent(self):
        # rad^l shrinks until it is 0; a step that keeps its dimension
        # maps rad^(l-1) onto itself, so no power of the arrows kills it
        radicals = _radical_powers(self)
        dim = self.total_dim
        while dim:
            nxt = sum(map(len, next(radicals).values()))
            if nxt == dim:
                raise ValueError("cycle composite is not nilpotent")
            dim = nxt

    @property
    def total_dim(self) -> int:
        return sum(self.dims)


def _standard_module(shape: Shape):
    """Dims, 0/1 arrow matrices and box tags of the standard module, as
    tuples: boxes in row-major order, each box's vector mapping to its
    right neighbor.  Only occupied vertices get per-box work; the others
    share one empty tuple, so a long cycle costs no Python loop over its
    vertices."""
    n = shape.n
    at: dict[int, list[Box]] = {}  # the boxes at each occupied vertex
    arrows = []  # (v, a, b): box a at vertex v maps to box b at vertex v+1
    for i, row in enumerate(shape.rows, start=1):
        for pos, label in enumerate(row.labels(n), start=1):
            boxes = at.setdefault(label - 1, [])
            if pos > 1:
                arrows.append((*prev, len(boxes)))
            prev = (label - 1, len(boxes))
            boxes.append(Box(i, pos))
    dims, mats, tags = [0] * n, [()] * n, [()] * n
    for v, boxes in at.items():
        dims[v], tags[v] = len(boxes), tuple(boxes)
    into = {w: [[0] * dims[w - 1] for _ in range(dims[w])] for w in at}
    for v, a, b in arrows:
        into[(v + 1) % n][b][a] = 1
    for w, mat in into.items():
        mats[w - 1] = tuple(map(tuple, mat))
    return tuple(dims), tuple(mats), tuple(tags)


def build_module(shape: Shape, p: int) -> NilModule:
    """Standard module of a shape over F_p; only p is checked."""
    dims, mats, tags = _standard_module(shape)
    return NilModule._from_trusted(
        shape.n, _check_prime(p), dims, mats, tags, shape
    )


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


def _drop_line(m: NilModule, v: int, vec: Sequence[int], j: int) -> NilModule:
    """`quotient(m, line)[0]` for the line through `vec` at vertex v with
    pivot j (vec[j] != 0), unchecked: the line must lie in the socle.  The
    arrow into v is row-reduced by the line scaled to 1 at j and loses row
    j, the arrow out of v loses column j (one matrix when n = 1), and
    coordinate j leaves `dims` and `tags`."""
    p = m.p
    inv = pow(vec[j], p - 2, p)
    line = [(x * inv) % p for x in vec]
    mats = list(m.mats)
    into = mats[v - 1]  # the arrow into v; index -1 wraps round the cycle
    pivot_row = into[j]
    mats[v - 1] = tuple(
        tuple((a - c * b) % p for a, b in zip(row, pivot_row)) if c else row
        for r, (row, c) in enumerate(zip(into, line))
        if r != j
    )
    mats[v] = tuple(row[:j] + row[j + 1 :] for row in mats[v])
    dims = m.dims[:v] + (m.dims[v] - 1,) + m.dims[v + 1 :]
    tags = m.tags
    if tags is not None:
        tags = tags[:v] + (tags[v][:j] + tags[v][j + 1 :],) + tags[v + 1 :]
    return NilModule._from_trusted(m.n, p, dims, tuple(mats), tags, m.shape)


def count_flags(m: NilModule, f: Sequence[int]) -> int:
    """Number of complete flags of submodules along the word: lines in
    the socle at the step's vertex, then the quotient that drops the
    line's first nonzero coordinate.

    The count goes step by step over the distinct exact quotients
    (`dims`, `mats`) that the steps so far reach, each kept with the
    number of flag prefixes that reach it, so no quotient is expanded
    twice at one step and nothing recurses.  `classify_flags` reaches
    the same flags through its own walk; its counts sum to this one.
    """
    word = validate_word(f, m.n)
    # each distinct quotient reached so far: [the quotient, its flags]
    level = [[m, 1]]
    for letter in word:
        v = letter - 1
        nxt: dict = {}
        for cur, count in level:
            basis, _ = kernel_mod(cur.mats[v], cur.dims[v], cur.p)
            for vec in _line_reps(basis, cur.p):
                qm = _drop_line(cur, v, vec, next(j for j, x in enumerate(vec) if x))
                nxt.setdefault((qm.dims, qm.mats), [qm, 0])[1] += count
        level = nxt.values()
    return sum(count for cur, count in level if cur.total_dim == 0)


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


def _filling(shape: Shape, entry_at: dict[Box, int]) -> tuple[tuple[int, ...], ...]:
    """The raw filling of the shape's rows that puts entry_at[box] in each
    box."""
    return tuple(
        tuple(entry_at[Box(i, pos)] for pos in range(1, row.length + 1))
        for i, row in enumerate(shape.rows, start=1)
    )


def classify_flags(
    m: NilModule, f: Sequence[int], pivot: str = "first"
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

    The walk goes step by step over the distinct exact quotients
    (`dims`, `mats`, `tags`) that the steps so far reach, each kept with
    its flags so far counted per tuple of the pivot boxes they picked, in
    step order (step i, counting from 0, gets entry r - i, so the boxes
    alone name the class).  Both pivot rules read nothing but `dims`,
    `mats` and `tags`, so the steps after a quotient do not depend on how
    it was reached: each quotient is expanded once per step for all the
    flags that reach it, and nothing recurses.  Only linear algebra mod p
    is used, never `count_flags`, `iso_class` or the counting recursions.

    Keys are raw filling tuples aligned with the module's shape rows, on
    purpose: a class that fails the tableau invariants still gets
    reported instead of raising.
    """
    word = validate_word(f, m.n)
    if m.shape is None or m.tags is None:
        raise ValueError("classification needs a module built from a shape")
    if pivot not in PIVOTS:
        raise ValueError(f"pivot must be one of {PIVOTS}, got {pivot!r}")
    shortest = pivot == "shortest"
    # each distinct quotient reached so far: [the quotient, {boxes: flags}]
    level = [[m, {(): 1}]]
    for letter in word:
        v = letter - 1
        nxt: dict = {}
        for cur, prefixes in level:
            basis, _ = kernel_mod(cur.mats[v], cur.dims[v], cur.p)
            order = _shortest_row_order(cur, v) if shortest else range(cur.dims[v])
            for vec in _line_reps(basis, cur.p):
                j = next(j for j in order if vec[j])
                box = cur.tags[v][j]
                qm = _drop_line(cur, v, vec, j)
                out = nxt.setdefault((qm.dims, qm.mats, qm.tags), [qm, {}])[1]
                for boxes, count in prefixes.items():
                    full = boxes + (box,)
                    out[full] = out.get(full, 0) + count
        level = nxt.values()
    r = len(word)
    return {
        _filling(m.shape, dict(zip(boxes, range(r, 0, -1)))): count
        for cur, prefixes in level
        if cur.total_dim == 0
        for boxes, count in prefixes.items()
    }


def split_flag(m: NilModule, t: RowMultiTableau) -> tuple[GradedSubspace, ...]:
    """The flag spanned by box basis vectors in entry order, as its
    stages in ambient coordinates, smallest first: stage k is spanned by
    the boxes holding the k largest entries."""
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
    return tuple(chain)


def cell_of_flag(m: NilModule, fl: Sequence[GradedSubspace]) -> RowMultiTableau:
    """Classify one flag, given as its stages smallest first: the box of
    each stage's new pivot receives the stage's entry, r + 1 - k at
    stage k.

    Everything stays in ambient coordinates.  Stage k is row-reduced
    together with the echelon basis of stage k-1 at every vertex, and
    exactly one pivot (v, j) is new.  The earlier pivots are the
    coordinates that the quotient by stage k-1 drops, so j is the first
    nonzero coordinate of the new line in that quotient's box-tagged
    basis, and the line must map into stage k-1 under the arrow out of v.
    A stage over another field than the module's, with other than n
    vertices, or with a vector whose length is not its vertex's
    dimension, raises ValueError like any other malformed flag.
    """
    if m.shape is None or m.tags is None:
        raise ValueError("classification needs a module built from a shape")
    r = m.total_dim
    if len(fl) != r:
        raise ValueError(f"flag has {len(fl)} stages for dimension {r}")
    p = m.p
    entry_at: dict[Box, int] = {}
    prev = [([], [])] * m.n  # echelon basis and pivots of stage k-1 per vertex
    for k, stage in enumerate(fl, start=1):
        if stage.p != p:
            raise ValueError(f"stage {k} is over F_{stage.p}, not F_{p}")
        if len(stage.basis) != m.n:
            raise ValueError(f"stage {k} has {len(stage.basis)} vertices, not {m.n}")
        for v, b in enumerate(stage.basis):
            for vec in b:
                if len(vec) != m.dims[v]:
                    raise ValueError(
                        f"stage {k} has a vector of length {len(vec)} at "
                        f"vertex {v + 1}, of dimension {m.dims[v]}"
                    )
        if stage.dim != k:
            raise ValueError(f"stage {k} has dimension {stage.dim}")
        ech = [rref_mod([*b, *s], p) for (b, _), s in zip(prev, stage.basis)]
        if sum(len(b) for b, _ in ech) != k:
            raise ValueError(f"stage {k} does not extend the previous stage by a line")
        v = next(v for v in range(m.n) if len(ech[v][1]) > len(prev[v][1]))
        basis, pivots = ech[v]
        i, j = next((i, j) for i, j in enumerate(pivots) if j not in prev[v][1])
        image = matvec_mod(m.mats[v], basis[i], p)
        if any(reduce_vector_mod(image, *prev[(v + 1) % m.n], p)):
            raise ValueError(f"stage {k} is not arrow-stable")
        entry_at[m.tags[v][j]] = r + 1 - k
        prev = ech
    return RowMultiTableau(m.shape, _filling(m.shape, entry_at))


def dim_end(shape: Shape) -> int:
    """Dimension of the endomorphism algebra of the standard module.

    Solves the intertwiner system (next-vertex unknown times arrow equals
    arrow times this-vertex unknown, for every arrow) exactly over the
    rationals; the arrow matrices are 0/1, so the answer is
    characteristic-free.  `betti.orbit_dim` counts dim End in closed
    form instead; this is the slow independent route that the tests
    check it against.
    """
    dims, mats, _ = _standard_module(shape)
    n = shape.n
    # only occupied vertices carry unknowns or equations
    offsets: dict[int, int] = {}
    nvars = 0
    for v in compress(range(n), dims):
        offsets[v] = nvars
        nvars += dims[v] * dims[v]
    rows = []
    for v in offsets:
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


def _radical_powers(m: NilModule) -> Iterator[dict[int, list[list[int]]]]:
    """{vertex: echelon basis} of rad^1, rad^2, ... of m, without end,
    at the vertices where the power is nonzero.

    rad^l at vertex w is the image of the composite of the l arrows
    arriving there: the arrow into w applied to rad^(l-1) at w-1, with
    rad^0 everything.  So step l visits only the vertices where
    rad^(l-1) is nonzero, and a module costs O(boxes * steps), not
    O(n * steps).
    """
    p, n = m.p, m.n
    rad = {
        v: [[1 if i == j else 0 for j in range(d)] for i in range(d)]
        for v, d in enumerate(m.dims)
        if d
    }
    while True:
        nxt = {}
        for v, b in rad.items():
            image = rref_mod([matvec_mod(m.mats[v], x, p) for x in b], p)[0]
            if image:
                nxt[(v + 1) % n] = image
        rad = nxt
        yield rad


def iso_class(m: NilModule) -> Shape:
    """Recover the multiset of rows of a concrete module.

    The multiplicity of a row of length l ending at a vertex w is the
    drop in dimension of (socle intersect l-th radical power) at w from
    l-1 to l.  The arrow out of w maps rad^l at w onto rad^(l+1) at w+1
    with kernel socle intersect rad^l, so that dimension is
    r_l(w) - r_(l+1)(w+1), with r_l the dimensions of rad^l: the rows
    come from radical dimensions alone.
    """
    n = m.n

    def meets(r: dict, r_next: dict) -> dict:
        return {w: d - r_next.get((w + 1) % n, 0) for w, d in r.items()}

    dims = ({w: len(b) for w, b in rad.items()} for rad in _radical_powers(m))
    r = {w: d for w, d in enumerate(m.dims) if d}  # rad^0, everything
    r_next = next(dims)
    meet = meets(r, r_next)
    rows = []
    l = 0
    while r:  # a nonzero submodule meets the socle, so meets vanish with r
        l += 1
        r, r_next = r_next, next(dims)
        nxt = meets(r, r_next)
        for w, d in meet.items():
            rows.extend([Row(w + 1, l)] * (d - nxt.get(w, 0)))
        meet = nxt
    return Shape(n, rows)
