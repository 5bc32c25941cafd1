"""Exact echelon-form linear algebra on plain integer lists.

Prime-field routines take p prime and keep every entry reduced into
0..p-1; rational rank uses Fraction.  Vectors are lists, matrices are
lists of row lists.  Nothing here is aware of quivers; it is shared
infrastructure for the concrete-module oracle.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Sequence


def _inv_mod(a: int, p: int) -> int:
    # p prime, a nonzero mod p
    return pow(a, p - 2, p)


def rref_mod(rows: Sequence[Sequence[int]], p: int):
    """Reduced row echelon form over F_p.

    Returns (rows, pivot_cols) with zero rows dropped; input unchanged.
    """
    mat = [[x % p for x in row] for row in rows]
    ncols = len(mat[0]) if mat else 0
    pivots: list[int] = []
    rank = 0
    for col in range(ncols):
        sel = None
        for i in range(rank, len(mat)):
            if mat[i][col]:
                sel = i
                break
        if sel is None:
            continue
        mat[rank], mat[sel] = mat[sel], mat[rank]
        inv = _inv_mod(mat[rank][col], p)
        mat[rank] = [(x * inv) % p for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                f = mat[i][col]
                mat[i] = [
                    (a - f * b) % p for a, b in zip(mat[i], mat[rank])
                ]
        pivots.append(col)
        rank += 1
    return mat[:rank], pivots


def reduce_vector_mod(
    vec: Sequence[int], basis: Sequence[Sequence[int]],
    pivots: Sequence[int], p: int,
) -> list[int]:
    """Residue of `vec` after eliminating the pivot coordinates of `basis`.

    `basis` must be in reduced echelon form with the given pivot columns.
    The result has zeros at all pivot positions; it is zero exactly when
    vec lies in the span.
    """
    out = [x % p for x in vec]
    for row, col in zip(basis, pivots):
        f = out[col]
        if f:
            out = [(a - f * b) % p for a, b in zip(out, row)]
    return out


def kernel_mod(mat: Sequence[Sequence[int]], ncols: int, p: int):
    """Echelonized basis of the right kernel of `mat` acting on F_p^ncols."""
    if not mat:
        basis = [[1 if j == i else 0 for j in range(ncols)] for i in range(ncols)]
        return basis, list(range(ncols))
    rref, pivots = rref_mod(mat, p)
    free_cols = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free_cols:
        v = [0] * ncols
        v[fc] = 1
        for row, pc in zip(rref, pivots):
            v[pc] = (-row[fc]) % p
        basis.append(v)
    # canonicalize: the vectors above are independent but not echelonized
    return rref_mod(basis, p)


def matvec_mod(mat: Sequence[Sequence[int]], vec: Sequence[int], p: int) -> list[int]:
    return [sum(a * b for a, b in zip(row, vec)) % p for row in mat]


def rank_rational(rows: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix, computed exactly over the rationals."""
    mat = [[Fraction(x) for x in row] for row in rows]
    ncols = len(mat[0]) if mat else 0
    rank = 0
    for col in range(ncols):
        sel = None
        for i in range(rank, len(mat)):
            if mat[i][col]:
                sel = i
                break
        if sel is None:
            continue
        mat[rank], mat[sel] = mat[sel], mat[rank]
        lead = mat[rank][col]
        mat[rank] = [x / lead for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return rank
