"""The numpy kernel over GF(p) and GF(p^2).

``matrix`` imports this module only once its guard has chosen the kernel:
``_int64_ok`` and at least ``_KERNEL_MIN_ENTRIES`` entries for eliminations,
and for products ``_int64_ok`` and either that many output entries or numpy
already loaded.  Runs over Q, the quaternions, large moduli and small forms
never load numpy; their products run on Python integers in ``matrix``.
Entries are packed as int64 planes of shape (planes, n, m): the residues over
GF(p), the a and the b of a + b*x over GF(p^2).  Products are summed in int64
and reduced mod p afterwards; the caller's guard keeps every sum below 2**62.
``verify.brute_force_congruence`` runs its enumeration here as well.

The products of a replayed log and of the certificate (``PlaneRows``:
``congruates``, ``left_multiply`` and the product branch of
``add_multiples``) go through ``_exact_product`` instead.  It runs a product
in float64 BLAS whenever ``_sum_bound`` of its inner size is below 2**53, so
that every sum is an integer float64 holds exactly (the technique of
FFLAS-FFPACK), and in int64 otherwise.  numpy's int64 product does not use
BLAS and is about 20x slower at d=96.  The float product is cut into tiles of
the output small enough that OpenBLAS runs each on the calling thread
(``_BLAS_SOLO``).  ``matmul``, ``eliminate`` and the decomposers stay in
int64.

The certificate asks the ``PlaneRows`` store that replayed a log for the
transform t it holds.  ``congruates`` forms t * B * sigma(t)^t on the planes:
two exact products reduced mod p, sigma(t)^t a transpose of the planes (the
b plane negated under the Frobenius involution).  The product is unpacked
once and compared with D as Python values by ``Matrix.__eq__``, as on lists.
``rows_at`` (shared with the stores on Python rows) unpacks only the rows of t
it picks, through ``transform`` of an index.
"""

from __future__ import annotations

from math import isqrt
from typing import Optional

import numpy as np

from .matrix import Matrix, RingMismatchError, ShapeError, _RowStore, _sum_bound
from .rings import PrimeField, QuadraticField, Ring


def _pack(ring: Ring, rows) -> np.ndarray:
    """Nonempty rows (a list of rows or an array) as int64 planes of shape (planes, n, m)."""
    a = np.array(rows, dtype=np.int64)
    return a[None] if isinstance(ring, PrimeField) else a.transpose(2, 0, 1)


def _pack_scalar(ring: Ring, x) -> np.ndarray:
    """One scalar as planes of shape (planes, 1), broadcasting against a row."""
    return np.array(x if isinstance(ring, QuadraticField) else (x,), dtype=np.int64)[:, None]


def _unpack(planes: np.ndarray) -> list:
    if len(planes) == 1:
        return planes[0].tolist()
    return [list(zip(r0, r1)) for r0, r1 in zip(planes[0].tolist(), planes[1].tolist())]


def _plane_product(ring: Ring, x: np.ndarray, y: np.ndarray, op=np.multiply) -> np.ndarray:
    """The ring product of two plane arrays under ``op`` (entrywise or matmul), not reduced."""
    if len(x) == 1:
        return op(x, y)
    c = ring.nonresidue
    return np.stack((op(x[0], y[0]) + c * op(x[1], y[1]), op(x[0], y[1]) + op(x[1], y[0])))


# OpenBLAS runs a dgemm of at most this many multiply-adds on the calling
# thread alone (SMP_THRESHOLD_MIN * GEMM_MULTITHREAD_THRESHOLD in its
# interface/gemm.c).  A larger one is split across its helper threads, which
# exist when numpy loaded in a process free to use more than one CPU; a
# helper that took part spins on after the call, and on a 2-CPU host the
# Python that runs next is then about twofold slower.
_BLAS_SOLO = 1 << 18


def _exact_product(ring: Ring, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The ring product of plane arrays x (planes, n, k) and y (planes, k, m)
    as int64 planes reduced mod p, exactly.  When ``_sum_bound(ring, k)`` is
    below 2**53 it runs in float64 BLAS, which is exact while every sum stays
    below 2**53 (the technique of FFLAS-FFPACK), in tiles of the output small
    enough that no call does more than ``_BLAS_SOLO`` multiply-adds.  Only n
    and m are tiled, never k, so each entry is still one float sum.  Otherwise
    it is the int64 product, under the caller's ``_int64_ok``."""
    p, (n, k), m = ring.p, x.shape[1:], y.shape[2]
    if _sum_bound(ring, k) >= 2**53:
        return _plane_product(ring, x, y, np.matmul) % p
    x, y = x.astype(np.float64), y.astype(np.float64)
    out = np.empty((len(x), n, m), dtype=np.int64)
    room = _BLAS_SOLO // max(k, 1)  # output entries per call
    tm = max(1, min(m, isqrt(room)))
    tn = max(1, min(n, room // tm))
    for i in range(0, n, tn):
        for j in range(0, m, tm):
            out[:, i : i + tn, j : j + tm] = _plane_product(ring, x[:, i : i + tn], y[:, :, j : j + tm], np.matmul) % p
    return out


def matmul(ring: Ring, left: list, right: list) -> list:
    """Rows of the product of two nonempty row lists, reduced mod p."""
    prod = _plane_product(ring, _pack(ring, left), _pack(ring, right), np.matmul)
    return _unpack(prod % ring.p)


def _sigma_transpose(ring: Ring, planes: np.ndarray) -> np.ndarray:
    """sigma(m)^t on planes: the transpose, with the b plane negated mod p
    under the Frobenius involution of GF(p^2)."""
    out = planes.transpose(0, 2, 1)
    if ring.involution == "frobenius":
        out = np.stack((out[0], -out[1] % ring.p))
    return out


class PlaneRows(_RowStore):
    """Rows [work | identity] (or [work] alone) as an int64 plane array.

    Each pivot is one rank-1 update of the target rows, reduced mod p.  A row
    swap also swaps the two identity columns (``perm`` records where each
    column went).  When pivots are taken in row order, as ``row_reduce``
    and ``invert`` do, the identity part of pivot row ``src`` is then zero
    right of column ``src``, so ``eliminate`` skips those columns;
    ``transform`` puts the columns back in place.
    """

    def __init__(self, m: Matrix, identity: bool):
        ring, n = m.ring, m.nrows
        self.ring = ring
        self.n = n
        self.p = ring.p
        self.cols = m.ncols
        self.identity = identity
        planes = 1 if isinstance(ring, PrimeField) else 2
        self.w = np.zeros((planes, n, m.ncols + (n if identity else 0)), dtype=np.int64)
        if m.ncols:
            self.w[:, :, : m.ncols] = _pack(ring, m.rows)
        if identity:
            self.w[0, :, m.ncols :] = np.eye(n, dtype=np.int64)
        self.perm = list(range(n))

    def nonzero_from(self, col: int, start: int) -> Optional[int]:
        hit = self.w[:, start:, col].any(axis=0)
        k = int(hit.argmax())
        return start + k if hit[k] else None

    def entry(self, r: int, c: int):
        v = self.w[:, r, c].tolist()
        return v[0] if len(v) == 1 else tuple(v)

    def swap(self, i: int, j: int) -> None:
        w, c = self.w, self.cols
        w[:, [i, j]] = w[:, [j, i]]
        if self.identity:
            w[:, :, [c + i, c + j]] = w[:, :, [c + j, c + i]]
            self.perm[i], self.perm[j] = self.perm[j], self.perm[i]

    def scale(self, r: int, lam) -> None:
        self.w[:, r] = _plane_product(self.ring, _pack_scalar(self.ring, lam), self.w[:, r]) % self.p

    def eliminate(self, src: int, col: int, first: int) -> int:
        """Clear column ``col`` of rows [first, n) other than src against the
        pivot at (src, col), which is inverted only when a row needs it."""
        ring, w, p = self.ring, self.w, self.p
        hit = w[:, first:, col].any(axis=0)
        if first <= src:
            hit[src - first] = False
        pairs = int(np.count_nonzero(hit))
        if pairs:
            lam = -_plane_product(ring, w[:, first:, col], _pack_scalar(ring, ring.inv(self.entry(src, col)))) % p
            if first <= src:
                lam[:, src - first] = 0
            hi = self.cols + src + 1 if self.identity else self.cols
            block = w[:, first:, col:hi]
            block += _plane_product(ring, lam[:, :, None], w[:, src, None, col:hi])
            block %= p
        return pairs

    def add_multiples(self, sources, targets, lams: list) -> None:
        ring, w = self.ring, self.w
        lam = _pack(ring, lams).transpose(0, 2, 1)  # (planes, targets, sources)
        if lam.shape[2] == 1:  # one source: a broadcast outer product
            prod = _plane_product(ring, lam, w[:, sources])
        else:
            prod = _exact_product(ring, lam, w[:, sources])
        w[:, targets] = (w[:, targets] + prod) % self.p

    def left_multiply(self, offset: int, block: Matrix) -> None:
        q = block.nrows
        span = self.w[:, offset : offset + q]
        self.w[:, offset : offset + q] = _exact_product(self.ring, _pack(self.ring, block.rows), span)

    def reduced(self, c0: int = 0) -> list:
        """Columns [c0, cols) of the work half as ring values: A*m once the
        pivot loop is done."""
        return _unpack(self.w[:, :, c0 : self.cols])

    def _planes(self, index=slice(None)) -> np.ndarray:
        """The transform's rows at ``index`` as planes: the identity half, each
        column put back in place."""
        half = self.w[:, index, self.cols :]
        out = np.empty_like(half)
        out[:, :, self.perm] = half
        return out

    def transform(self, index=slice(None)) -> list:
        return _unpack(self._planes(index))

    def congruates(self, source: Matrix, target: Matrix) -> bool:
        """``matrix.congruates`` of the transform t on its planes: t * source
        and then that times sigma(t)^t, each one ``_exact_product`` reduced
        mod p (float64 while d terms stay below 2**53, else int64), unpacked
        once and compared with the target as Python values, the way the list
        path compares them.  Valid for a store that ``TransformLog._replay``
        built under ``_int64_ok(ring, d)``, which bounds both products' sums."""
        ring, n = self.ring, self.n
        if source.ring != ring:
            raise RingMismatchError(f"{ring!r} vs {source.ring!r}")
        if source.shape != (n, n):
            raise ShapeError(f"cannot take a {source.shape} form by a {n} x {n} transform")
        t = self._planes()
        prod = _exact_product(ring, t, _pack(ring, source.rows))
        prod = _exact_product(ring, prod, _sigma_transpose(ring, t))
        return Matrix(ring, _unpack(prod), validate=False, ncols=n) == target


_GL_DET_CHUNK = 1 << 20


def _det_mod(mats: np.ndarray, p: int, d: int) -> np.ndarray:
    if d == 1:
        return mats[:, 0, 0] % p
    if d == 2:
        return (mats[:, 0, 0] * mats[:, 1, 1] - mats[:, 0, 1] * mats[:, 1, 0]) % p
    a, b, c = mats[:, 0, 0], mats[:, 0, 1], mats[:, 0, 2]
    d0, e, f = mats[:, 1, 0], mats[:, 1, 1], mats[:, 1, 2]
    g, h, i = mats[:, 2, 0], mats[:, 2, 1], mats[:, 2, 2]
    return (a * (e * i - f * h) - b * (d0 * i - f * g) + c * (d0 * h - e * g)) % p


def congruent_by_enumeration(b1: Matrix, b2: Matrix) -> bool:
    """True when A * b1 * A^t = b2 for some invertible A over GF(p), found by
    enumerating every d x d matrix in chunks (d <= 3 and small p)."""
    p, d = b1.ring.p, b1.nrows
    m1 = np.array(b1.rows, dtype=np.int64)
    m2 = np.array(b2.rows, dtype=np.int64)
    total = p ** (d * d)
    powers = p ** np.arange(d * d, dtype=np.int64)
    for start in range(0, total, _GL_DET_CHUNK):
        stop = min(start + _GL_DET_CHUNK, total)
        codes = np.arange(start, stop, dtype=np.int64)
        digits = (codes[:, None] // powers[None, :]) % p
        mats = digits.reshape(-1, d, d)
        mask = _det_mod(mats, p, d) != 0
        if not mask.any():
            continue
        cands = mats[mask]
        prod = (cands @ m1) % p
        prod = (prod @ cands.transpose(0, 2, 1)) % p
        if (prod == m2).all(axis=(1, 2)).any():
            return True
    return False
