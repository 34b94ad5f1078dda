"""Exact dense matrices over a ring descriptor.

Provides the classical and Strassen products, the sigma-transpose, the
congruence check ``congruates``, one-sided eliminations that return their
transform as an invertible witness matrix, and inversion.  Everything is
exact.

One pivot loop, ``_row_echelon``, runs every one-sided elimination:
``row_reduce``, ``rank``, ``split_congruence`` and ``invert``, which scales
each pivot row by the pivot's inverse and also clears above each pivot
(Gauss-Jordan), so A*m ends the identity.  The loop works on one stacked
``[work | identity]`` row store (``rank`` on the ``[work]`` half alone), and
``TransformLog.materialize`` replays a log on one.  ``_augmented`` picks one
of three stores; all three choose the same pivots and return the same
transforms and counts.  A store's ``eliminate(src, col, first)`` clears
column col of the rows from ``first`` on against the pivot at (src, col) and
returns the number of rows it cleared; it reads the pivot itself and inverts
it only at the first row to clear, so an inversion is counted only where one
is used.  Each store also hands back its reduced half (``reduced``), which
after the pivot loop is A*m for the transform A: ``row_reduce`` returns
A*m beside A, and ``split_congruence`` (the split step of ``blocks``) the top
rows of a congruence with one product, so their callers read those products
off the elimination instead of issuing them.

- The generic loop (``_ListRows``) clears rows through ``eliminate``, one
  pivot's row pass on ``row_axpy`` per target, the pass the decomposers'
  ``clear_row_column`` and ``transvect`` also run on the form.  It is valid
  over every ring and runs the GF(p) and GF(p^2) jobs the kernel does not
  take.  ``row_axpy`` works each entry on Python integers: reduced mod p
  over GF(p) and GF(p^2), and summed over one denominator into one Fraction
  per part over Q and the quaternions (``_add_over``), one gcd each where the
  ring's own ``add(d, mul(lam, s))`` takes several per Fraction operation.
  Over the quaternions ``eliminate`` also clears the pivot row and the
  pivot's inverse of denominators once per pivot, not once per target.
- The integer rows (``_RationalRows`` over Q, ``_QuaternionRows`` over the
  quaternions) hold each row as a positive integer denominator and integer
  part vectors in lowest terms, and do each pivot as a fraction-free row
  update in the style of Bareiss: one gcd per updated row instead of one per
  Fraction operation.  They run every job over Q and the quaternions.  They
  share ``swap`` and ``congruates`` with the generic loop (``_PyRows``).
- The int64 numpy kernel (``kernel.PlaneRows``) does each pivot as one rank-1
  update reduced mod p.  It runs over GF(p) and GF(p^2) (two planes, a and b
  of a + b*x) when the job has at least ``_KERNEL_MIN_ENTRIES`` entries and
  passes the overflow guard ``_int64_ok``: ``_sum_bound``, terms * (1 + c) *
  (p - 1)**2 + p with c the non-residue of GF(p^2) and 0 over GF(p), below
  2**62.  ``kernel`` (and with it numpy) is imported only once a guard has
  chosen it.

``congruates`` checks t * B * sigma(t)^t = D with two ``matmul`` products
and a comparison of the rows, for every post-pass identity.  The certificate
asks the row store that replayed the log instead: each store answers
``congruates(B, D)`` for the transform it holds, and ``rows_at(index)``,
written once for every store (``_RowStore``), for the rows of it that a rank
reads, converting only those through the store's ``transform(index)``.  The
stores on Python rows check ``congruates`` on their transform;
``kernel.PlaneRows`` forms the two products on its int64 planes, under the
guard that chose the kernel for the replay, and unpacks the product once to
compare it with D as Python values by ``Matrix.__eq__``, as on lists.  Each
of those products, and each product of the replay, runs in float64 BLAS when
the same ``_sum_bound`` is below 2**53, where every sum is exact in float64,
and in int64 otherwise (``kernel._exact_product``).

The classical product takes one of three paths:

- ``kernel.matmul`` over GF(p) and GF(p^2) when the inner size passes
  ``_int64_ok`` and either the product has at least ``_KERNEL_MIN_ENTRIES``
  entries or numpy is already loaded: once numpy is loaded the kernel is
  the faster product from about 4x4 up, but loading it costs as much as
  hundreds of 16x16 products on Python integers.
- ``_field_product`` for the other products over GF(p) and GF(p^2): one
  dot product on Python integers per entry (two over GF(p^2)), reduced mod
  p, exact for every modulus.
- Over Q and the quaternions it is the integer rows' ``product``, the one
  exact-ring path: each row of the left factor and each column of the right
  one is scaled by the lcm of its denominators, the dot products are summed
  on Python integers (the Hamilton formula on four part vectors over the
  quaternions), and entry (i, j) is divided by the two scales, which are
  central.  That gives the ring loop's canonical Fractions without a gcd per
  multiply and add.  The entry loop (``_entries``) is written once per ring
  and shared with the corner of ``split_congruence``.

Strassen's recursion pads each factor to even dimensions, cuts it into
quarters (``_quarters``) and forms its sums and differences with
``_combine``, which counts one addition per entry, padded zeros included.

All routines optionally accept a counters object (duck-typed, with
``additions`` / ``multiplications`` / ``inversions`` / ``equality_tests`` /
``sigma_applications`` attributes) and add the ring-operation counts of the
classical cost model to it.
"""

from __future__ import annotations

import operator
import sys
from fractions import Fraction
from itertools import chain
from math import gcd, inf, lcm
from typing import Optional

from .rings import PrimeField, QuadraticField, RationalField, RationalQuaternions, Ring


class ShapeError(ValueError):
    pass


class RingMismatchError(ValueError):
    pass


class SingularMatrixError(ArithmeticError):
    pass


def row_axpy(ring: Ring, dst: list, src: list, lam, lo: int, hi: int) -> None:
    """In place: dst[c] += lam * src[c] for c in [lo, hi).  lam multiplies from the left.

    Each entry is worked on Python integers.  Over GF(p) and GF(p^2) it is
    one integer expression reduced mod p.  Over Q, lam * src[c] is the
    integer fraction (n*x)/(m*y) of lam = n/m and src[c] = x/y, and
    ``_add_over`` adds it to dst[c] as one Fraction; over the quaternions
    ``_quaternion_axpy`` does the same per part, with the integer Hamilton
    product of lam and src[c] cleared of denominators.  That is one gcd per
    part where the ring's own ``add(dst[c], mul(lam, src[c]))`` takes
    several per Fraction operation, and the Fractions are canonical, so the
    values are that loop's."""
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
    elif isinstance(ring, RationalField):
        n, m = lam.numerator, lam.denominator
        for idx in range(lo, hi):
            s = src[idx]
            if s:
                dst[idx] = _add_over(dst[idx], n * s.numerator, m * s.denominator)
    else:
        _quaternion_axpy(dst, _quaternion_parts(src, lo, hi), _clear(lam), lo)


def _add_over(v: Fraction, num: int, den: int) -> Fraction:
    """v + num/den for den > 0, as one Fraction: one gcd."""
    b = v.denominator
    return Fraction(v.numerator * den + num * b, b * den)


def _quaternion_parts(row: list, lo: int, hi: int) -> list:
    """Entries [lo, hi) of a quaternion row as ``_clear`` pairs (e, [w, x, y,
    z]), e the lcm of the entry's four denominators and w, x, y, z the
    integer parts of e * entry; None for a zero entry."""
    return [(e, ints) if any(ints) else None for e, ints in map(_clear, row[lo:hi])]


def _quaternion_axpy(dst: list, parts: list, lam: tuple, lo: int) -> None:
    """In place: dst[lo + t] += lam * the entry ``parts[t]`` (``_quaternion_parts``
    of the source row), for lam given as its ``_clear`` pair (g, a): the
    integer Hamilton product a * s, lam first, is lam times the entry over
    g * e, and ``_add_over`` adds it to each part of dst's entry."""
    g, a = lam
    for idx, entry in enumerate(parts, lo):
        if entry is not None:
            e, s = entry
            den = g * e
            w, x, y, z = dst[idx]
            hw, hx, hy, hz = _hamilton(a, s)
            dst[idx] = (_add_over(w, hw, den), _add_over(x, hx, den), _add_over(y, hy, den), _add_over(z, hz, den))


def eliminate(ring: Ring, rows: list, src: int, col: int, targets, lo: int, hi: int, inverse=None) -> list:
    """Row k += lam * row src over [lo, hi) for each target k with rows[k][col] nonzero.

    lam = -rows[k][col] * pivinv, pivinv being the inverse of rows[src][col],
    which ``inverse`` (``ring.inv`` by default) takes at the first such target,
    so a pivot with nothing to clear is never inverted.  Returns the (k, lam)
    pairs in target order, for callers to replay and count.  Over the
    quaternions ``_quaternion_eliminate`` does this on integer parts; the
    other rings take ``row_axpy`` per target.
    """
    inverse = inverse or ring.inv
    if isinstance(ring, RationalQuaternions):
        return _quaternion_eliminate(rows, src, col, targets, lo, hi, inverse)
    zero = ring.zero
    pairs = []
    pivinv = None
    for k in targets:
        f = rows[k][col]
        if f != zero:
            if pivinv is None:
                pivinv = inverse(rows[src][col])
            lam = ring.neg(ring.mul(f, pivinv))
            row_axpy(ring, rows[k], rows[src], lam, lo, hi)
            pairs.append((k, lam))
    return pairs


def _quaternion_eliminate(rows: list, src: int, col: int, targets, lo: int, hi: int, inverse) -> list:
    """``eliminate`` over the quaternions.  At the first target the pivot's
    inverse and row src are cleared of denominators, once for every target,
    so each target's multiplier is one integer Hamilton product over one
    denominator, -f * pivinv with f first, and its row pass one
    ``_quaternion_axpy``."""
    pairs = []
    parts = None
    for k in targets:
        e, f = _clear(rows[k][col])
        if any(f):
            if parts is None:
                g, pivinv = _clear(inverse(rows[src][col]))
                parts = _quaternion_parts(rows[src], lo, hi)
            den = e * g
            lam = tuple([Fraction(-v, den) for v in _hamilton(f, pivinv)])
            _quaternion_axpy(rows[k], parts, _clear(lam), lo)
            pairs.append((k, lam))
    return pairs


# Jobs with fewer entries than this stay on the generic loop, where one
# pivot's Python row pass costs less than the kernel's numpy calls (measured
# crossover on square inputs: about 12x12 over GF(101), 16x16 over GF(9),
# 20x20 to 24x24 over GF(2); materializing a log crosses over a little later).
# Products with fewer output entries take ``_field_product`` unless numpy is
# already loaded.
_KERNEL_MIN_ENTRIES = 576


def _sum_bound(ring: Ring, terms: int):
    """The bound on a sum of ``terms`` products of residues plus one residue
    in the planes of ``ring``: terms * (1 + c) * (p - 1)**2 + p, with c the
    non-residue of GF(p^2) and 0 over GF(p).  Infinite over Q and the
    quaternions, which have no planes."""
    if isinstance(ring, PrimeField):
        c = 0
    elif isinstance(ring, QuadraticField):
        c = ring.nonresidue
    else:
        return inf
    return terms * (1 + c) * (ring.p - 1) ** 2 + ring.p


def _int64_ok(ring: Ring, terms: int) -> bool:
    """True when ``ring`` is GF(p) or GF(p^2) and its ``_sum_bound`` for
    ``terms`` stays below 2**62, so that int64 planes hold every sum."""
    return _sum_bound(ring, terms) < 2**62


def _count_product(counters, n: int, k: int, m: int) -> None:
    if counters is not None and k > 0:
        counters.multiplications += n * m * k
        counters.additions += n * m * (k - 1)


class Matrix:
    """Row-major dense matrix; entries are the ring's raw scalar values."""

    __slots__ = ("ring", "nrows", "ncols", "rows")

    def __init__(self, ring: Ring, rows: list[list], validate: bool = True, ncols: int = 0):
        """``ncols`` is the width of a matrix with no rows; otherwise the rows set it."""
        self.ring = ring
        self.rows = rows
        self.nrows = len(rows)
        self.ncols = len(rows[0]) if rows else ncols
        if validate:
            for row in rows:
                if len(row) != self.ncols:
                    raise ShapeError("ragged rows")
                row[:] = [ring.validate_scalar(v) for v in row]

    @classmethod
    def zeros(cls, ring: Ring, nrows: int, ncols: int) -> "Matrix":
        z = ring.zero
        return cls(ring, [[z] * ncols for _ in range(nrows)], validate=False, ncols=ncols)

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
        return Matrix(self.ring, [row[:] for row in self.rows], validate=False, ncols=self.ncols)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Matrix)
            and self.ring == other.ring
            and self.shape == other.shape
            and self.rows == other.rows
        )

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(self.ring.format(v) for v in row) for row in self.rows
        )
        return f"Matrix({self.ring!r}, {self.nrows}x{self.ncols}: {body})"

    def submatrix(self, r0: int, r1: int, c0: int, c1: int) -> "Matrix":
        rows = [row[c0:c1] for row in self.rows[r0:r1]]
        return Matrix(self.ring, rows, validate=False, ncols=len(range(self.ncols)[c0:c1]))

    def is_zero(self) -> bool:
        z = self.ring.zero
        return all(v == z for row in self.rows for v in row)

    def sigma_transpose(self, counters=None) -> "Matrix":
        """Entrywise involution followed by transpose; counts one sigma per entry."""
        if not self.rows:
            out = [[] for _ in range(self.ncols)]
        elif self.ring.involution == "identity":
            out = [list(col) for col in zip(*self.rows)]
        else:
            out = [list(map(self.ring.sigma, col)) for col in zip(*self.rows)]
        if counters is not None:
            counters.sigma_applications += self.nrows * self.ncols
        return Matrix(self.ring, out, validate=False, ncols=self.nrows)


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
    _count_product(counters, n, k, m)
    if n == 0 or m == 0 or k == 0:
        return Matrix.zeros(ring, n, m)
    if _int64_ok(ring, k) and (n * m >= _KERNEL_MIN_ENTRIES or "numpy" in sys.modules):
        from . import kernel

        return Matrix(ring, kernel.matmul(ring, left.rows, right.rows), validate=False)
    if type(ring) in _INT_ROWS:
        return Matrix(ring, _INT_ROWS[type(ring)].product(left.rows, right.rows), validate=False)
    return Matrix(ring, _field_product(ring, left.rows, right.rows), validate=False)


def _field_product(ring: Ring, left: list, right: list) -> list:
    """The product over GF(p) or GF(p^2) on Python integers: each entry is one
    integer dot product reduced mod p.  Over GF(p^2) row i of ``left`` is laid
    out as [a..., b...] and column j of ``right`` as [a'..., c*b'...] and
    [b'..., a'...] (c the non-residue), so entry (i, j) is two dot products,
    a*a' + c*b*b' and a*b' + b*a'."""
    p = ring.p
    if isinstance(ring, QuadraticField):
        c = ring.nonresidue
        left = [[a for a, _ in row] + [b for _, b in row] for row in left]
        cols = [(a + tuple(c * x for x in b), b + a) for a, b in (tuple(zip(*col)) for col in zip(*right))]
        return [[(_dot(row, re) % p, _dot(row, im) % p) for re, im in cols] for row in left]
    cols = list(zip(*right))
    return [[_dot(row, col) % p for col in cols] for row in left]


def _clear(vec) -> tuple[int, list]:
    """(a, a * vec) for a vector of Fractions, a the lcm of its denominators."""
    a = lcm(*[x.denominator for x in vec])
    return a, [x.numerator * (a // x.denominator) for x in vec]


def _clear_parts(vec) -> tuple[int, tuple]:
    """(a, (w, x, y, z)) for a vector of quaternions: a the lcm of the
    denominators of all four parts, and each part of a * vec as integers."""
    a, flat = _clear([v for q in vec for v in q])
    return a, (flat[0::4], flat[1::4], flat[2::4], flat[3::4])


def _dot(u: list, v: list) -> int:
    return sum(map(operator.mul, u, v))


_hamilton = RationalQuaternions().mul  # the Hamilton product, left factor first; on integer parts too


def _hamilton_dot(left: tuple, right: tuple) -> tuple:
    """The integer parts of sum_t left[t] * right[t] for two quaternion vectors
    given as (w, x, y, z) part vectors: the Hamilton product of
    ``RationalQuaternions.mul``, left factor first."""
    w1, x1, y1, z1 = left
    w2, x2, y2, z2 = right
    return (
        _dot(w1, w2) - _dot(x1, x2) - _dot(y1, y2) - _dot(z1, z2),
        _dot(w1, x2) + _dot(x1, w2) + _dot(y1, z2) - _dot(z1, y2),
        _dot(w1, y2) - _dot(x1, z2) + _dot(y1, w2) + _dot(z1, x2),
        _dot(w1, z2) + _dot(x1, y2) - _dot(y1, x2) + _dot(z1, w2),
    )


def _combine(op, a: Matrix, b: Matrix, counters) -> Matrix:
    """The entrywise op(a, b) of two matrices of one shape, op being the ring's
    add or sub; counts one addition per entry."""
    if counters is not None:
        counters.additions += a.nrows * a.ncols
    return Matrix(a.ring, [list(map(op, ra, rb)) for ra, rb in zip(a.rows, b.rows)], validate=False)


def _quarters(m: Matrix) -> list:
    """The four quarters (top left, top right, bottom left, bottom right) of
    m padded with zero rows and columns to even dimensions."""
    z, hc = m.ring.zero, (m.ncols + 1) // 2
    rows = [row + [z] * (m.ncols & 1) for row in m.rows] + [[z] * (2 * hc)] * (m.nrows & 1)
    hr = len(rows) // 2
    return [
        Matrix(m.ring, [row[c : c + hc] for row in rows[r : r + hr]], validate=False) for r in (0, hr) for c in (0, hc)
    ]


def matmul_strassen(left: Matrix, right: Matrix, cutoff: int = 64, counters=None) -> Matrix:
    """Strassen's product, valid over any ring.

    The seven recursive products keep every left factor built from blocks of
    ``left`` and every right factor from blocks of ``right``, so no
    commutativity is assumed.  Odd dimensions are padded to even at each
    level, and the padded zeros are counted in the additions.  At or below
    ``cutoff`` (and for degenerate shapes) the classical product takes over;
    results are identical to ``matmul_classical``.
    """
    if cutoff < 2:
        raise ValueError(f"strassen cutoff must be >= 2, got {cutoff}")
    _check_pair(left, right)
    return _strassen(left, right, cutoff, counters)


def _strassen(left: Matrix, right: Matrix, cutoff: int, counters) -> Matrix:
    n, k, m = left.nrows, left.ncols, right.ncols
    if _classical(n, k, m, cutoff):
        return matmul_classical(left, right, counters)
    add, sub = left.ring.add, left.ring.sub

    def mix(op, a: Matrix, b: Matrix) -> Matrix:
        return _combine(op, a, b, counters)

    a11, a12, a21, a22 = _quarters(left)
    b11, b12, b21, b22 = _quarters(right)
    p1 = _strassen(mix(add, a11, a22), mix(add, b11, b22), cutoff, counters)
    p2 = _strassen(mix(add, a21, a22), b11, cutoff, counters)
    p3 = _strassen(a11, mix(sub, b12, b22), cutoff, counters)
    p4 = _strassen(a22, mix(sub, b21, b11), cutoff, counters)
    p5 = _strassen(mix(add, a11, a12), b22, cutoff, counters)
    p6 = _strassen(mix(sub, a21, a11), mix(add, b11, b12), cutoff, counters)
    p7 = _strassen(mix(sub, a12, a22), mix(add, b21, b22), cutoff, counters)

    c11 = mix(add, mix(sub, mix(add, p1, p4), p5), p7)
    c12 = mix(add, p3, p5)
    c21 = mix(add, p2, p4)
    c22 = mix(add, mix(add, mix(sub, p1, p2), p3), p6)
    rows = [x + y for west, east in ((c11, c12), (c21, c22)) for x, y in zip(west.rows, east.rows)]
    return Matrix(left.ring, [row[:m] for row in rows[:n]], validate=False)


def _classical(n: int, k: int, m: int, cutoff: Optional[int]) -> bool:
    """Whether ``matmul`` with ``cutoff`` forms an n x k by k x m product classically."""
    return not cutoff or min(n, k, m) < 2 or max(n, k, m) <= cutoff


def matmul(left: Matrix, right: Matrix, cutoff: Optional[int] = None, counters=None) -> Matrix:
    """Dispatch: classical when cutoff is falsy, Strassen otherwise."""
    if not cutoff:
        return matmul_classical(left, right, counters)
    return matmul_strassen(left, right, cutoff, counters)


def congruates(t: Matrix, source: Matrix, target: Matrix) -> bool:
    """True iff t * source * sigma(t)^t == target: t takes the form source to target."""
    return matmul(matmul(t, source), t.sigma_transpose()) == target


def _pick(rows: list, index) -> list:
    return rows[index] if isinstance(index, slice) else [rows[i] for i in index]


class _RowStore:
    """What every row store shares: the certificate reads the rows of the
    transform a store holds (``transform`` of an index, n wide for a store
    of n rows) as a ``Matrix``, each converted once."""

    _t = None  # the whole transform, once a store on Python rows has converted it

    def add_run(self, run: list) -> None:
        """Apply a run of row ops in order, one at a time: an item (src,
        targets, coeffs) adds coeffs[a] times row src to row targets[a], and
        an item (r, None, value) scales row r by value."""
        for src, targets, coeffs in run:
            if targets is None:
                self.scale(src, coeffs)
            else:
                self.add_multiples([src], targets, [coeffs])

    def rows_at(self, index) -> Matrix:
        """The transform's rows at ``index``, in that order: picked from the
        transform ``congruates`` converted, else converted alone."""
        rows = self.transform(index) if self._t is None else _pick(self._t.rows, index)
        return Matrix(self.ring, rows, validate=False, ncols=self.n)


class _PyRows(_RowStore):
    """What the two stores on Python rows share: a swap exchanges two row
    entries, and ``congruates`` converts the whole transform once and keeps
    it for ``rows_at``."""

    def swap(self, i: int, j: int) -> None:
        self.rows[i], self.rows[j] = self.rows[j], self.rows[i]

    def congruates(self, source: Matrix, target: Matrix) -> bool:
        """``congruates`` of the transform, for a store whose replay is done."""
        self._t = self.rows_at(slice(None))
        return congruates(self._t, source, target)


class _ListRows(_PyRows):
    """Rows [work | identity] as Python lists: the generic loop, valid over every ring."""

    def __init__(self, m: Matrix, identity: bool):
        ring, n = m.ring, m.nrows
        self.ring = ring
        self.n = n
        self.cols = m.ncols
        self.rows = [row[:] for row in m.rows]
        if identity:
            one, zero = ring.one, ring.zero
            for i, row in enumerate(self.rows):
                row += [zero] * n
                row[m.ncols + i] = one

    def nonzero_from(self, col: int, start: int) -> Optional[int]:
        zero = self.ring.zero
        for k in range(start, len(self.rows)):
            if self.rows[k][col] != zero:
                return k
        return None

    def entry(self, r: int, c: int):
        return self.rows[r][c]

    def scale(self, r: int, lam) -> None:
        mul = self.ring.mul
        self.rows[r] = [mul(lam, v) for v in self.rows[r]]

    def eliminate(self, src: int, col: int, first: int) -> int:
        rows = self.rows
        targets = [k for k in range(first, len(rows)) if k != src]
        return len(eliminate(self.ring, rows, src, col, targets, col, len(rows[src])))

    def add_multiples(self, sources, targets, lams: list) -> None:
        """Row targets[a] += lams[b][a] * row sources[b]; disjoint lists or slices of rows."""
        dsts, width = _pick(self.rows, targets), len(self.rows[0])
        for src, row_lams in zip(_pick(self.rows, sources), lams):
            for dst, lam in zip(dsts, row_lams):
                row_axpy(self.ring, dst, src, lam, 0, width)

    def left_multiply(self, offset: int, block: Matrix) -> None:
        q = block.nrows
        span = Matrix(self.ring, self.rows[offset : offset + q], validate=False)
        self.rows[offset : offset + q] = matmul_classical(block, span).rows

    def reduced(self, c0: int = 0) -> list:
        """Columns [c0, cols) of the work half: A*m once the pivot loop is done."""
        return [row[c0 : self.cols] for row in self.rows]

    def transform(self, index=slice(None)) -> list:
        return [row[self.cols :] for row in _pick(self.rows, index)]


def _lowest(den: int, parts: tuple) -> tuple:
    """(den, parts) divided by the gcd of den and every part."""
    g = gcd(den, *chain.from_iterable(parts))
    if g == 1:
        return den, parts
    return den // g, tuple([v // g for v in part] for part in parts)


class _IntRows(_PyRows):
    """Rows [work | identity] over Q or the quaternions, on Python integers.

    Row k is a pair (den, parts): a positive integer den and the part vectors
    of den * row k as integers, one vector over Q and the w, x, y and z
    vectors over the quaternions, kept in lowest terms by one gcd after each
    update.  A scalar is the tuple of its integer parts.  A pivot step is
    fraction free in the style of Bareiss (1968): for the pivot entry
    g*u / den_s (g the gcd of its parts, m = g*|u|^2) and the entry f / den_k
    of target row k, row k becomes (m*N_k - (f*conj(u))*N_s) / (m*den_k), so
    den_s cancels, and f*conj(u) multiplies N_s from the left as the generic
    loop's multiplier does.  ``entry``, ``reduced`` and ``transform`` return
    the generic loop's canonical Fractions.

    ``product`` is the classical product over the ring on integers: each row
    of the left factor and each column of the right one is cleared of
    denominators (``_clear_row``), and ``_entries`` sums each entry's dot
    product on integers and divides it by the two scales, which are central.
    ``corner`` hands ``_entries`` the store's own integer rows.  The
    subclasses supply the ring's part layout and products.
    """

    def __init__(self, m: Matrix, identity: bool):
        n = m.nrows
        self.ring = m.ring
        self.n = n
        self.cols = m.ncols
        self.rows = list(map(self._clear_row, m.rows))
        if identity:
            for i, (den, parts) in enumerate(self.rows):
                for part in parts:
                    part += [0] * n
                parts[0][m.ncols + i] = den

    @classmethod
    def product(cls, left: list, right: list) -> list:
        """The rows of left * right for two nonempty lists of rows of ring
        values: the ring loop's canonical values, without a gcd per multiply
        and add."""
        return cls._entries(list(map(cls._clear_row, left)), list(map(cls._clear_row, zip(*right))))

    def nonzero_from(self, col: int, start: int) -> Optional[int]:
        for k in range(start, len(self.rows)):
            if any(part[col] for part in self.rows[k][1]):
                return k
        return None

    def entry(self, r: int, c: int):
        den, parts = self.rows[r]
        return self._join([Fraction(part[c], den) for part in parts])

    def scale(self, r: int, lam) -> None:
        a, q = self._clear_row([lam])
        den, parts = self.rows[r]
        self.rows[r] = _lowest(a * den, self._axpy(0, parts, tuple(part[0] for part in q), parts))

    def eliminate(self, src: int, col: int, first: int) -> int:
        """The generic loop's pivot step; the pivot's gcd, unit part and norm
        are read off row src at the first target to clear."""
        rows = self.rows
        pivot = rows[src][1]
        pairs = 0
        for k in range(first, len(rows)):
            den, parts = rows[k]
            f = tuple(-part[col] for part in parts)  # minus the target's entry
            if k != src and any(f):
                if not pairs:
                    piv = tuple(part[col] for part in pivot)
                    g = gcd(*piv)
                    u = tuple(v // g for v in piv)
                    m = g * sum(v * v for v in u)
                    conj = (u[0], *(-v for v in u[1:]))
                rows[k] = _lowest(m * den, self._axpy(m, parts, self._mul(f, conj), pivot))
                pairs += 1
        return pairs

    def add_multiples(self, sources, targets, lams: list) -> None:
        """Row targets[a] += lams[b][a] * row sources[b]; disjoint lists or slices
        of rows.  Each source's multipliers are cleared once, to scale l."""
        rows = self.rows
        srcs = [
            (sden * l, spart, list(zip(*q)))
            for (sden, spart), (l, q) in zip(_pick(rows, sources), map(self._clear_row, lams))
        ]
        for a, t in enumerate(range(len(rows))[targets] if isinstance(targets, slice) else targets):
            den, parts = rows[t]
            for e, spart, qs in srcs:
                q = qs[a]
                if any(q):
                    # parts/den + (q/l) * spart/sden over the lcm of den and e = l*sden
                    g = gcd(den, e)
                    parts = self._axpy(e // g, parts, tuple(den // g * v for v in q), spart)
                    den = den // g * e
            rows[t] = _lowest(den, parts)

    def left_multiply(self, offset: int, block: Matrix) -> None:
        """Rows [offset, offset+q) become block times them, on integers: row
        j of the block, cleared to scale a, times the rows brought to their
        common denominator den, over a * den."""
        span = self.rows[offset : offset + block.nrows]
        den = lcm(*[d for d, _ in span])
        right = [[[den // d * v for v in part] for part in parts] for d, parts in span]
        cols = list(zip(*[zip(*part) for part in zip(*right)]))  # per column, its part vectors
        self.rows[offset : offset + block.nrows] = [
            _lowest(a * den, self._row_dots(u, cols))
            for a, u in map(self._clear_row, block.rows)
        ]

    def _values(self, columns: slice, rows: list) -> list:
        """Those columns of ``rows`` as ring values."""
        return [
            [self._join([Fraction(v, den) for v in vals]) for vals in zip(*[part[columns] for part in parts])]
            for den, parts in rows
        ]

    def reduced(self, c0: int = 0) -> list:
        return self._values(slice(c0, self.cols), self.rows)

    def transform(self, index=slice(None)) -> list:
        return self._values(slice(self.cols, None), _pick(self.rows, index))

    def corner(self, h: int) -> list:
        """(A*m1) * sigma(A)^t for the square transform A and the first h
        columns m1 of m: ``_entries`` of the first h columns of each row and
        sigma of each row's identity half.  Over Q there is one part, so
        negating the x, y and z parts is sigma of both rings."""
        left = [(den, [part[:h] for part in parts]) for den, parts in self.rows]
        right = [
            (den, [parts[0][self.cols :], *([-v for v in part[self.cols :]] for part in parts[1:])])
            for den, parts in self.rows
        ]
        return self._entries(left, right)


class _RationalRows(_IntRows):
    """``_IntRows`` over Q: one part vector per row."""

    @staticmethod
    def _clear_row(row) -> tuple:
        den, ints = _clear(row)
        return den, (ints,)

    @staticmethod
    def _join(parts: list) -> Fraction:
        return parts[0]

    @staticmethod
    def _mul(x: tuple, y: tuple) -> tuple:
        return (x[0] * y[0],)

    @staticmethod
    def _axpy(m: int, x: tuple, q: tuple, y: tuple) -> tuple:
        """m*x + q*y on part vectors."""
        (q,) = q
        return ([m * a + q * b for a, b in zip(x[0], y[0])],)

    @staticmethod
    def _row_dots(u: tuple, cols: list) -> tuple:
        """The part vectors of the integer row u times each integer column."""
        return ([_dot(u[0], w[0]) for w in cols],)

    @staticmethod
    def _entries(left: list, right: list) -> list:
        """Entry (i, j) for the (scale, parts) rows ``left`` and columns
        ``right``: the integer dot product over the two scales."""
        right = [(c, w) for c, (w,) in right]
        return [[Fraction(_dot(u, w), a * c) for c, w in right] for a, (u,) in left]


class _QuaternionRows(_IntRows):
    """``_IntRows`` over the quaternions: w, x, y and z part vectors per row."""

    _clear_row = staticmethod(_clear_parts)

    @staticmethod
    def _join(parts: list) -> tuple:
        return tuple(parts)

    _mul = staticmethod(_hamilton)

    @staticmethod
    def _axpy(m: int, x: tuple, q: tuple, y: tuple) -> tuple:
        """m*x + q*y on part vectors, q multiplying each entry of y from the left."""
        a, b, c, d = q
        yw, yx, yy, yz = y
        return (
            [m * v + a * w - b * i - c * j - d * k for v, w, i, j, k in zip(x[0], yw, yx, yy, yz)],
            [m * v + a * i + b * w + c * k - d * j for v, w, i, j, k in zip(x[1], yw, yx, yy, yz)],
            [m * v + a * j - b * k + c * w + d * i for v, w, i, j, k in zip(x[2], yw, yx, yy, yz)],
            [m * v + a * k + b * j - c * i + d * w for v, w, i, j, k in zip(x[3], yw, yx, yy, yz)],
        )

    @staticmethod
    def _row_dots(u: tuple, cols: list) -> tuple:
        """As ``_RationalRows._row_dots``, with ``_hamilton_dot`` on the part vectors."""
        return tuple(map(list, zip(*[_hamilton_dot(u, w) for w in cols])))

    @staticmethod
    def _entries(left: list, right: list) -> list:
        """As ``_RationalRows._entries``, with ``_hamilton_dot`` on the part vectors."""
        out = []
        for a, u in left:
            row = []
            for c, w in right:
                den = a * c
                x0, x1, x2, x3 = _hamilton_dot(u, w)
                row.append((Fraction(x0, den), Fraction(x1, den), Fraction(x2, den), Fraction(x3, den)))
            out.append(row)
        return out


# the integer row store, and with it the classical product, of each exact ring
_INT_ROWS = {RationalField: _RationalRows, RationalQuaternions: _QuaternionRows}


def _augmented(m: Matrix, entries: int, terms: int = 1, identity: bool = True):
    """[m | I] (or a copy of m alone, without ``identity``) as rows to eliminate
    on, for a job of ``entries`` entries whose products sum at most ``terms``
    terms.  Takes the int64 kernel when the ring passes ``_int64_ok`` and the
    job has at least ``_KERNEL_MIN_ENTRIES`` entries, the integer rows over Q
    and the quaternions, and the generic loop otherwise.
    """
    ring = m.ring
    if entries >= _KERNEL_MIN_ENTRIES and _int64_ok(ring, terms):
        from . import kernel

        return kernel.PlaneRows(m, identity)
    return _INT_ROWS.get(type(ring), _ListRows)(m, identity)


def row_reduce(m: Matrix, counters=None) -> tuple[Matrix, int, Matrix]:
    """(A, rank, A*m) for an invertible nrows x nrows A with A*m = [top; 0],
    the top ``rank`` rows independent.  A*m is the reduced half of the row
    store that finds A, so no product is issued.

    Pivots are chosen scanning columns left to right and, within a column,
    the smallest-index unused row.  Row operations add a left multiple of the
    pivot row, so the reduction is valid over noncommutative rings.
    """
    rows, r, _ = _row_echelon(m, True, counters)
    reduced = Matrix(m.ring, rows.reduced(), validate=False, ncols=m.ncols)
    return Matrix(m.ring, rows.transform(), validate=False), r, reduced


def rank(m: Matrix, counters=None) -> int:
    """The rank of m: the pivot loop of ``row_reduce`` on m alone, so no
    transform is built and no identity half is carried."""
    return _row_echelon(m, False, counters)[1]


def _row_echelon(m: Matrix, identity: bool, counters, pivots: Optional[int] = None, jordan: bool = False) -> tuple:
    """(row store, rank, moved) after the pivot loop of ``row_reduce`` on
    [m | I], or on m alone without ``identity``: the one pivot loop of this
    module.  With ``pivots`` the loop pivots in the leading ``pivots``
    columns only; the row operations still run over every column, so the
    store's reduced half is A*m for the A of ``row_reduce`` on those columns.
    With ``jordan`` the pivot row is first scaled by the pivot's inverse,
    counted when the pivot is not 1, and the pivot then clears the rows above
    it as well, as ``invert`` needs.  Otherwise the store inverts a pivot only
    when it clears a row, and each such inversion is counted.  ``moved`` is
    False when the loop made no swap and cleared no nonzero entry; without
    ``jordan`` that holds exactly when A is the identity: each swap takes a
    later row and each clear works below its pivot, so A is a unit lower
    triangular matrix times a permutation."""
    n, cols = m.nrows, m.ncols
    rows = _augmented(m, n * cols, identity=identity)
    width = n if identity else 0
    r = 0
    moved = False
    for c in range(cols if pivots is None else pivots):
        if r == n:
            break
        pivot = rows.nonzero_from(c, r)
        if counters is not None:
            counters.equality_tests += n - r if pivot is None else pivot - r + 1
        if pivot is None:
            continue
        if pivot != r:
            rows.swap(r, pivot)
        if jordan:
            piv = rows.entry(r, c)
            if piv != m.ring.one:
                rows.scale(r, m.ring.inv(piv))
                if counters is not None:
                    counters.inversions += 1
                    counters.multiplications += (cols - c) + width
        pairs = rows.eliminate(r, c, 0 if jordan else r + 1)
        moved = moved or pivot != r or pairs > 0
        if counters is not None:
            counters.inversions += 1 if pairs and not jordan else 0
            counters.equality_tests += n - 1 if jordan else n - r - 1
            counters.multiplications += pairs * (1 + (cols - c) + width)
            counters.additions += pairs * ((cols - c) + width)
        r += 1
    return rows, r, moved


def split_congruence(top: Matrix, cutoff: int = 0, counters=None) -> tuple:
    """Row-reduce the top rows [M1 M2] of a form's window, M1 its leading
    h x h block, pivoting in M1 only: A and the rank are those of
    ``row_reduce(M1)``, and the congruence by diag(A, I) makes the top
    rows [(A*M1)*sigma(A)^t, A*M2].

    A*M1 and A*M2 are the reduced half of the row store, so the one product
    is the h x h corner, through ``matmul`` with ``cutoff``.  Over Q and the
    quaternions a classical corner is formed from the store's integer rows
    (``_IntRows.corner``), counted as the same product, so A*M1 is never
    built as Fractions and cleared again.

    Returns:
        (A, rank, rows): A and ``rows`` are None when A is the identity,
        which leaves the window unchanged; that case builds neither.
    """
    ring, h = top.ring, top.nrows
    rows, k, moved = _row_echelon(top, True, counters, h)
    if not moved:
        return None, k, None
    a = Matrix(ring, rows.transform(), validate=False)
    if isinstance(rows, _IntRows) and _classical(h, h, h, cutoff):
        _count_product(counters, h, h, h)
        if counters is not None:
            counters.sigma_applications += h * h
        return a, k, [left + right for left, right in zip(rows.corner(h), rows.reduced(h))]
    am = rows.reduced()
    left = Matrix(ring, [row[:h] for row in am], validate=False)
    corner = matmul(left, a.sigma_transpose(counters), cutoff, counters)
    return a, k, [new + row[h:] for new, row in zip(corner.rows, am)]


def invert(m: Matrix, counters=None) -> Matrix:
    """Two-sided inverse by Gauss-Jordan elimination: the pivot loop of
    ``row_reduce``, each pivot row scaled by the pivot's inverse and then
    clearing above the pivot as well as below, so A*m ends the identity.

    Raises:
        SingularMatrixError: if no inverse exists.
        ShapeError: if m is not square.
    """
    if m.nrows != m.ncols:
        raise ShapeError(f"cannot invert {m.shape}")
    rows, r, _ = _row_echelon(m, True, counters, jordan=True)
    if r < m.nrows:
        raise SingularMatrixError(f"matrix of shape {m.shape} is singular")
    return Matrix(m.ring, rows.transform(), validate=False)
