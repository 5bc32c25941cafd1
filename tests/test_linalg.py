"""Exact linear algebra over prime fields and the rationals."""
from fractions import Fraction

from qfv.linalg import (
    kernel_mod,
    matvec_mod,
    rank_rational,
    reduce_vector_mod,
    rref_mod,
)


def test_rref_mod_reduces_to_identity_when_invertible():
    rows, pivots = rref_mod([(2, 4), (1, 3)], 5)
    assert rows == [[1, 0], [0, 1]]
    assert pivots == [0, 1]


def test_rref_mod_drops_dependent_rows():
    rows, pivots = rref_mod([(1, 1), (1, 1)], 2)
    assert rows == [[1, 1]]
    assert pivots == [0]
    rows, pivots = rref_mod([(0, 0), (0, 0)], 3)
    assert rows == []
    assert pivots == []


def test_rref_mod_clears_above_pivots():
    rows, pivots = rref_mod([(1, 2, 0), (0, 1, 1)], 3)
    assert pivots == [0, 1]
    assert rows[0][1] == 0


def test_reduce_vector_mod():
    basis, pivots = rref_mod([(1, 0, 1), (0, 1, 1)], 2)
    assert reduce_vector_mod((1, 1, 0), basis, pivots, 2) == [0, 0, 0]
    assert reduce_vector_mod((0, 0, 1), basis, pivots, 2) != [0, 0, 0]


def test_kernel_mod():
    basis, pivots = kernel_mod([(1, 1)], 2, 2)
    assert basis == [[1, 1]]
    basis, pivots = kernel_mod([(1, 0), (0, 1)], 2, 5)
    assert basis == []
    # no constraints: the kernel is everything, echelonized
    basis, pivots = kernel_mod([], 2, 3)
    assert basis == [[1, 0], [0, 1]]
    assert pivots == [0, 1]


def test_kernel_vectors_annihilate_the_matrix():
    mat = [(1, 2, 0), (0, 1, 1)]
    basis, _ = kernel_mod(mat, 3, 3)
    assert basis
    for v in basis:
        assert matvec_mod(mat, v, 3) == [0, 0]


def test_matvec_mod():
    assert matvec_mod([(1, 2), (3, 4)], (1, 1), 5) == [3, 2]
    assert matvec_mod([], (1, 1), 5) == []


def test_rank_rational_is_exact():
    half = Fraction(1, 2)
    third = Fraction(1, 3)
    assert rank_rational([(half, third), (1, Fraction(2, 3))]) == 1
    assert rank_rational([(half, third), (1, 1)]) == 2
    assert rank_rational([]) == 0
