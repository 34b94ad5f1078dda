"""Exact dense matrices over a ring descriptor.

Provides the classical and Strassen products, the sigma-transpose, one-sided
eliminations that return their transform as an invertible witness matrix, and
inversion.  Everything is exact; the only numerics here is an integer numpy
fast path for prime fields, which computes the same classical product
bit-for-bit.

Every elimination, here and in ``form``, clears rows through ``eliminate``
(one pivot's row pass on ``row_axpy``) and updates columns through
``col_axpy``; ``right_column_reduce`` is the sigma-mirror of ``left_row_reduce``.

All routines optionally accept a counters object (duck-typed, with
``additions`` / ``multiplications`` / ``inversions`` / ``equality_tests`` /
``sigma_applications`` attributes) and add the ring-operation counts of the
classical cost model to it.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .rings import PrimeField, QuadraticField, Ring


class ShapeError(ValueError):
    pass


class RingMismatchError(ValueError):
    pass


class SingularMatrixError(ArithmeticError):
    pass


def row_axpy(ring: Ring, dst: list, src: list, lam, lo: int, hi: int) -> None:
    """In place: dst[c] += lam * src[c] for c in [lo, hi).  lam multiplies from the left."""
    if isinstance(ring, PrimeField):
        p = ring.p
        dst[lo:hi] = [(d + lam * s) % p for d, s in zip(dst[lo:hi], src[lo:hi])]
    elif isinstance(ring, QuadraticField):
        p = ring.p
        c = ring.nonresidue
        la, lb = lam
        dst[lo:hi] = [
            ((da + la * sa + c * lb * sb) % p, (db + la * sb + lb * sa) % p)
            for (da, db), (sa, sb) in zip(dst[lo:hi], src[lo:hi])
        ]
    else:
        add, mul, zero = ring.add, ring.mul, ring.zero
        for idx in range(lo, hi):
            s = src[idx]
            if s != zero:
                dst[idx] = add(dst[idx], mul(lam, s))


def col_axpy(ring: Ring, rows: list, dst: int, src: int, lam, lo: int, hi: int) -> None:
    """In place: rows[r][dst] += rows[r][src] * lam for r in [lo, hi).  lam multiplies from the right."""
    add, mul, zero = ring.add, ring.mul, ring.zero
    for row in rows[lo:hi]:
        v = row[src]
        if v != zero:
            row[dst] = add(row[dst], mul(v, lam))


def eliminate(ring: Ring, rows: list, src: int, col: int, targets, pivinv, lo: int, hi: int) -> list:
    """Row k += lam * row src over [lo, hi) for each target k with rows[k][col] nonzero.

    lam = -rows[k][col] * pivinv, pivinv being the inverse of rows[src][col].
    Returns the (k, lam) pairs in target order, for callers to replay and count.
    """
    zero = ring.zero
    pairs = []
    for k in targets:
        f = rows[k][col]
        if f != zero:
            lam = ring.neg(ring.mul(f, pivinv))
            row_axpy(ring, rows[k], rows[src], lam, lo, hi)
            pairs.append((k, lam))
    return pairs


class Matrix:
    """Row-major dense matrix; entries are the ring's raw scalar values."""

    __slots__ = ("ring", "nrows", "ncols", "rows")

    def __init__(self, ring: Ring, rows: list[list], validate: bool = True):
        self.ring = ring
        self.rows = rows
        self.nrows = len(rows)
        self.ncols = len(rows[0]) if rows else 0
        if validate:
            for row in rows:
                if len(row) != self.ncols:
                    raise ShapeError("ragged rows")
                row[:] = [ring.validate_scalar(v) for v in row]

    @classmethod
    def zeros(cls, ring: Ring, nrows: int, ncols: int) -> "Matrix":
        z = ring.zero
        return cls(ring, [[z] * ncols for _ in range(nrows)], validate=False)

    @classmethod
    def identity(cls, ring: Ring, n: int) -> "Matrix":
        m = cls.zeros(ring, n, n)
        one = ring.one
        for i in range(n):
            m.rows[i][i] = one
        return m

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def copy(self) -> "Matrix":
        return Matrix(self.ring, [row[:] for row in self.rows], validate=False)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Matrix)
            and self.ring == other.ring
            and self.rows == other.rows
        )

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(self.ring.format(v) for v in row) for row in self.rows
        )
        return f"Matrix({self.ring!r}, {self.nrows}x{self.ncols}: {body})"

    def submatrix(self, r0: int, r1: int, c0: int, c1: int) -> "Matrix":
        return Matrix(self.ring, [row[c0:c1] for row in self.rows[r0:r1]], validate=False)

    def is_zero(self) -> bool:
        z = self.ring.zero
        return all(v == z for row in self.rows for v in row)

    def sigma_transpose(self, counters=None) -> "Matrix":
        """Entrywise involution followed by transpose."""
        sigma = self.ring.sigma
        out = [
            [sigma(self.rows[i][j]) for i in range(self.nrows)]
            for j in range(self.ncols)
        ]
        if counters is not None:
            counters.sigma_applications += self.nrows * self.ncols
        return Matrix(self.ring, out, validate=False)


def _check_pair(left: Matrix, right: Matrix) -> None:
    if left.ring != right.ring:
        raise RingMismatchError(f"{left.ring!r} vs {right.ring!r}")
    if left.ncols != right.nrows:
        raise ShapeError(f"cannot multiply {left.shape} by {right.shape}")


def matmul_classical(left: Matrix, right: Matrix, counters=None) -> Matrix:
    """Exact classical product; counts n*m*k multiplications and n*m*(k-1) additions."""
    _check_pair(left, right)
    ring = left.ring
    n, k, m = left.nrows, left.ncols, right.ncols
    if counters is not None and k > 0:
        counters.multiplications += n * m * k
        counters.additions += n * m * (k - 1)
    if n == 0 or m == 0 or k == 0:
        return Matrix.zeros(ring, n, m)
    if isinstance(ring, PrimeField) and k * (ring.p - 1) ** 2 < 2**62:
        a = np.array(left.rows, dtype=np.int64)
        b = np.array(right.rows, dtype=np.int64)
        return Matrix(ring, ((a @ b) % ring.p).tolist(), validate=False)
    if isinstance(ring, QuadraticField) and k * (ring.p - 1) ** 2 * (1 + ring.nonresidue) < 2**62:
        p, nr = ring.p, ring.nonresidue
        a0 = np.array([[v[0] for v in row] for row in left.rows], dtype=np.int64)
        a1 = np.array([[v[1] for v in row] for row in left.rows], dtype=np.int64)
        b0 = np.array([[v[0] for v in row] for row in right.rows], dtype=np.int64)
        b1 = np.array([[v[1] for v in row] for row in right.rows], dtype=np.int64)
        c0 = ((a0 @ b0 + nr * (a1 @ b1)) % p).tolist()
        c1 = ((a0 @ b1 + a1 @ b0) % p).tolist()
        rows = [list(zip(r0, r1)) for r0, r1 in zip(c0, c1)]
        return Matrix(ring, rows, validate=False)
    add, mul, zero = ring.add, ring.mul, ring.zero
    cols = list(zip(*right.rows))
    out = []
    for lrow in left.rows:
        orow = []
        for col in cols:
            acc = zero
            for x, y in zip(lrow, col):
                if x != zero and y != zero:
                    acc = add(acc, mul(x, y))
            orow.append(acc)
        out.append(orow)
    return Matrix(ring, out, validate=False)


def _madd(a: Matrix, b: Matrix, counters=None) -> Matrix:
    add = a.ring.add
    if counters is not None:
        counters.additions += a.nrows * a.ncols
    return Matrix(
        a.ring,
        [[add(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a.rows, b.rows)],
        validate=False,
    )


def _msub(a: Matrix, b: Matrix, counters=None) -> Matrix:
    sub = a.ring.sub
    if counters is not None:
        counters.additions += a.nrows * a.ncols
    return Matrix(
        a.ring,
        [[sub(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a.rows, b.rows)],
        validate=False,
    )


def _pad(m: Matrix, nrows: int, ncols: int) -> Matrix:
    if m.nrows == nrows and m.ncols == ncols:
        return m
    z = m.ring.zero
    rows = [row + [z] * (ncols - m.ncols) for row in m.rows]
    rows += [[z] * ncols for _ in range(nrows - m.nrows)]
    return Matrix(m.ring, rows, validate=False)


def matmul_strassen(left: Matrix, right: Matrix, cutoff: int = 64, counters=None) -> Matrix:
    """Strassen's product, valid over any ring.

    The seven recursive products keep every left factor built from blocks of
    ``left`` and every right factor from blocks of ``right``, so no
    commutativity is assumed.  Odd dimensions are padded to even at each
    level.  At or below ``cutoff`` (and for degenerate shapes) the classical
    product takes over; results are identical to ``matmul_classical``.
    """
    if cutoff < 2:
        raise ValueError(f"strassen cutoff must be >= 2, got {cutoff}")
    _check_pair(left, right)
    return _strassen(left, right, cutoff, counters)


def _strassen(left: Matrix, right: Matrix, cutoff: int, counters) -> Matrix:
    n, k, m = left.nrows, left.ncols, right.ncols
    if min(n, k, m) < 2 or max(n, k, m) <= cutoff:
        return matmul_classical(left, right, counters)
    n2, k2, m2 = n + (n & 1), k + (k & 1), m + (m & 1)
    lp = _pad(left, n2, k2)
    rp = _pad(right, k2, m2)
    hn, hk, hm = n2 // 2, k2 // 2, m2 // 2
    a11 = lp.submatrix(0, hn, 0, hk)
    a12 = lp.submatrix(0, hn, hk, k2)
    a21 = lp.submatrix(hn, n2, 0, hk)
    a22 = lp.submatrix(hn, n2, hk, k2)
    b11 = rp.submatrix(0, hk, 0, hm)
    b12 = rp.submatrix(0, hk, hm, m2)
    b21 = rp.submatrix(hk, k2, 0, hm)
    b22 = rp.submatrix(hk, k2, hm, m2)

    p1 = _strassen(_madd(a11, a22, counters), _madd(b11, b22, counters), cutoff, counters)
    p2 = _strassen(_madd(a21, a22, counters), b11, cutoff, counters)
    p3 = _strassen(a11, _msub(b12, b22, counters), cutoff, counters)
    p4 = _strassen(a22, _msub(b21, b11, counters), cutoff, counters)
    p5 = _strassen(_madd(a11, a12, counters), b22, cutoff, counters)
    p6 = _strassen(_msub(a21, a11, counters), _madd(b11, b12, counters), cutoff, counters)
    p7 = _strassen(_msub(a12, a22, counters), _madd(b21, b22, counters), cutoff, counters)

    c11 = _madd(_msub(_madd(p1, p4, counters), p5, counters), p7, counters)
    c12 = _madd(p3, p5, counters)
    c21 = _madd(p2, p4, counters)
    c22 = _madd(_madd(_msub(p1, p2, counters), p3, counters), p6, counters)

    rows = []
    for i in range(hn):
        rows.append(c11.rows[i] + c12.rows[i])
    for i in range(hn):
        rows.append(c21.rows[i] + c22.rows[i])
    out = Matrix(left.ring, rows, validate=False)
    if n2 != n or m2 != m:
        out = out.submatrix(0, n, 0, m)
    return out


def matmul(left: Matrix, right: Matrix, cutoff: Optional[int] = None, counters=None) -> Matrix:
    """Dispatch: classical when cutoff is falsy, Strassen otherwise."""
    if not cutoff:
        return matmul_classical(left, right, counters)
    return matmul_strassen(left, right, cutoff, counters)


def left_row_reduce(m: Matrix, counters=None) -> tuple[Matrix, int]:
    """Find invertible A with A*m = [top; 0], the top ``rank`` rows independent.

    Pivots are chosen scanning columns left to right and, within a column,
    the smallest-index unused row.  Row operations add a left multiple of the
    pivot row, so the reduction is valid over noncommutative rings.

    Returns:
        (A, rank) where A is nrows x nrows and invertible.
    """
    ring = m.ring
    n, cols = m.nrows, m.ncols
    work = [row[:] for row in m.rows]
    acc = Matrix.identity(ring, n)
    zero = ring.zero
    r = 0
    for c in range(cols):
        if r == n:
            break
        pivot = None
        for k in range(r, n):
            if counters is not None:
                counters.equality_tests += 1
            if work[k][c] != zero:
                pivot = k
                break
        if pivot is None:
            continue
        if pivot != r:
            work[r], work[pivot] = work[pivot], work[r]
            acc.rows[r], acc.rows[pivot] = acc.rows[pivot], acc.rows[r]
        pivinv = ring.inv(work[r][c])
        pairs = eliminate(ring, work, r, c, range(r + 1, n), pivinv, c, cols)
        for k, lam in pairs:
            row_axpy(ring, acc.rows[k], acc.rows[r], lam, 0, n)
        if counters is not None:
            counters.inversions += 1
            counters.equality_tests += n - r - 1
            counters.multiplications += len(pairs) * (1 + (cols - c) + n)
            counters.additions += len(pairs) * ((cols - c) + n)
        r += 1
    return acc, r


def right_column_reduce(m: Matrix, counters=None) -> tuple[Matrix, int]:
    """Find invertible A with m*A = [C | 0], C of full column rank.

    The sigma-mirror of ``left_row_reduce``: sigma is an anti-automorphism,
    so it picks the same pivots and right multipliers at the same counted cost.
    """
    acc, r = left_row_reduce(m.sigma_transpose(), counters)
    return acc.sigma_transpose(), r


def invert(m: Matrix, counters=None) -> Matrix:
    """Two-sided inverse by Gauss-Jordan elimination.

    Raises:
        SingularMatrixError: if no inverse exists.
        ShapeError: if m is not square.
    """
    if m.nrows != m.ncols:
        raise ShapeError(f"cannot invert {m.shape}")
    ring = m.ring
    n = m.nrows
    work = [row[:] for row in m.rows]
    acc = Matrix.identity(ring, n)
    zero, one = ring.zero, ring.one
    for c in range(n):
        pivot = None
        for k in range(c, n):
            if counters is not None:
                counters.equality_tests += 1
            if work[k][c] != zero:
                pivot = k
                break
        if pivot is None:
            raise SingularMatrixError(f"matrix of shape {m.shape} is singular")
        if pivot != c:
            work[c], work[pivot] = work[pivot], work[c]
            acc.rows[c], acc.rows[pivot] = acc.rows[pivot], acc.rows[c]
        piv = work[c][c]
        if piv != one:
            pivinv = ring.inv(piv)
            if counters is not None:
                counters.inversions += 1
                counters.multiplications += 2 * n
            work[c] = [ring.mul(pivinv, v) for v in work[c]]
            acc.rows[c] = [ring.mul(pivinv, v) for v in acc.rows[c]]
        targets = [k for k in range(n) if k != c]
        pairs = eliminate(ring, work, c, c, targets, one, c, n)
        for k, lam in pairs:
            row_axpy(ring, acc.rows[k], acc.rows[c], lam, 0, n)
        if counters is not None:
            counters.multiplications += len(pairs) * ((n - c) + n)
            counters.additions += len(pairs) * ((n - c) + n)
    return acc
