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


def ring_loop_axpy(ring, dst: list, src: list, lam, lo: int, hi: int) -> None:
    """dst[c] += lam * src[c] for c in [lo, hi) through the ring's own add and
    mul, lam on the left: the reference for ``matrix.row_axpy``."""
    for c in range(lo, hi):
        if src[c] != ring.zero:
            dst[c] = ring.add(dst[c], ring.mul(lam, src[c]))


def ring_loop_eliminate(ring, rows: list, src: int, col: int, targets, lo: int, hi: int, inverse=None) -> list:
    """``matrix.eliminate`` with every multiplier -f * pivinv from the ring's
    own mul and neg and every row pass on ``ring_loop_axpy``."""
    pairs = []
    pivinv = None
    for k in targets:
        f = rows[k][col]
        if f != ring.zero:
            if pivinv is None:
                pivinv = (inverse or ring.inv)(rows[src][col])
            lam = ring.neg(ring.mul(f, pivinv))
            ring_loop_axpy(ring, rows[k], rows[src], lam, lo, hi)
            pairs.append((k, lam))
    return pairs
