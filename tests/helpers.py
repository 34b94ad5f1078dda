"""Small shared utilities for the test modules."""

from __future__ import annotations

from orthoform import Matrix, PrimeField, QuadraticField, RationalField, RationalQuaternions

# (ring, s) per case of the tests that run one step on every kind of ring;
# s = -1 over an identity involution in odd characteristic is alternating, so
# the ranks those tests draw there are even.
SPLIT_RINGS = {
    "gf2+": (PrimeField(2), 1),
    "gf101+": (PrimeField(101), 1),
    "gf101-": (PrimeField(101), -1),
    "gf9+": (QuadraticField(3, "frobenius"), 1),
    "gf9-": (QuadraticField(3, "frobenius"), -1),
    "gf9id+": (QuadraticField(3, "identity"), 1),
    "gf9id-": (QuadraticField(3, "identity"), -1),
    "q+": (RationalField(), 1),
    "q-": (RationalField(), -1),
    "h+": (RationalQuaternions(), 1),
    "h-": (RationalQuaternions(), -1),
}


def snapshot(matrix: Matrix) -> Matrix:
    """Deep copy of a matrix, safe to keep across an in-place decomposition."""
    return Matrix(matrix.ring, [row[:] for row in matrix.rows], validate=False)
