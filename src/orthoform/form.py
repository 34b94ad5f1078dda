"""Forms b(u,v) = u B sigma(v)^t with B = s*B^{sigma t}, plus congruence plumbing.

A form is held as a mutable square matrix together with its sign s and the
ring (which carries the involution sigma).  Congruence operations
B -> A B A^{sigma t} for elementary A are exposed as mutation methods; each
appends its elementary operations to the form's transformation log and ticks
the operation counters, so both decomposition algorithms are costed with one
instrument.  Where the column half of a congruence is known to write only
zeros, as in ``clear_row_column``, it is written as an assignment and not
computed.

Operation windows: every primitive takes an optional column/row window
[lo, hi), and rejects a window outside the form, row indices outside the
window, or a multiplier that is not a scalar of the ring before it logs,
writes or counts anything.  The logged operation is always the global
elementary matrix, so a windowed call is a valid congruence only when the
touched rows and columns are zero outside the window.  Callers (the
decomposition loops) maintain that invariant; standalone use should keep the
default full window.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Iterator, Optional, Union

from .matrix import Matrix, ShapeError, _augmented, eliminate, matmul, row_axpy
from .rings import QuadraticField, RationalQuaternions, Ring


@dataclass
class OpCounters:
    """Ring-operation tallies: the cost-model units of both algorithms."""

    additions: int = 0
    multiplications: int = 0
    inversions: int = 0
    equality_tests: int = 0
    sigma_applications: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "additions": self.additions,
            "multiplications": self.multiplications,
            "inversions": self.inversions,
            "equality_tests": self.equality_tests,
            "sigma_applications": self.sigma_applications,
        }


@dataclass(frozen=True)
class Scale:
    index: int
    value: object


@dataclass(frozen=True)
class Swap:
    i: int
    j: int


@dataclass(frozen=True)
class Eliminate:
    """One pivot: row targets[a] += coeffs[a] * row source, the targets distinct and not the source."""

    source: int
    targets: tuple
    coeffs: tuple

    def __post_init__(self):
        if not 0 < len(set(self.targets) - {self.source}) == len(self.targets) == len(self.coeffs):
            raise ValueError("an elimination needs distinct targets, not its source, one coefficient each")


@dataclass(frozen=True)
class BlockLeft:
    """Left-multiplication by the identity with `block` pasted at rows/cols [offset, offset+q)."""

    block: Matrix
    offset: int


@dataclass(frozen=True)
class BlockTransvect:
    """Rows [target, target+n) += coeff * rows [source, source+k) for an n x k coeff; the ranges are disjoint."""

    target: int
    source: int
    coeff: Matrix

    def __post_init__(self):
        if self.target < self.source + self.coeff.ncols and self.source < self.target + self.coeff.nrows:
            raise ValueError("block transvection target and source rows overlap")

    def embedded(self) -> BlockLeft:
        """The same operation as a BlockLeft over the smallest window holding both ranges."""
        n, k = self.coeff.shape
        lo = min(self.target, self.source)
        block = Matrix.identity(self.coeff.ring, max(self.target + n, self.source + k) - lo)
        for a, row in enumerate(self.coeff.rows):
            block.rows[self.target - lo + a][self.source - lo : self.source - lo + k] = row
        return BlockLeft(block, lo)


LogOp = Union[Scale, Swap, Eliminate, BlockLeft, BlockTransvect]


def transpositions(order: list[int]) -> list[tuple[int, int]]:
    """Swaps (t, p), t < p, that applied in turn to the items range(n) bring
    item order[t] to position t: one per position not yet holding its item,
    n minus the number of cycles in all, the fewest that realize the order.
    Positions below t are final and never read again, so only p is updated."""
    at = list(range(len(order)))
    pos_of = list(range(len(order)))
    swaps = []
    for t, want in enumerate(order):
        p = pos_of[want]
        if p != t:
            swaps.append((t, p))
            at[p] = at[t]
            pos_of[at[p]] = p
    return swaps


class TransformLog:
    """Ordered elementary congruence operations; materializes to the transform A."""

    __slots__ = ("dim", "ops")

    def __init__(self, dim: int, ops: Optional[list[LogOp]] = None):
        self.dim = dim
        self.ops = ops if ops is not None else []

    def append(self, op: LogOp) -> None:
        self.ops.append(op)

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self) -> Iterator[LogOp]:
        return iter(self.ops)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TransformLog)
            and self.dim == other.dim
            and self.ops == other.ops
        )

    def materialize(self, ring: Ring) -> Matrix:
        """Product of the elementary matrices in application order (first op innermost).

        Raises:
            ValueError: as ``_replay``.
        """
        return Matrix(ring, self._replay(ring).transform(), validate=False, ncols=self.dim)

    def _replay(self, ring: Ring):
        """The row store that holds the product of the elementary matrices
        after replaying the log on [ | I]: over GF(p) and GF(p^2) with d^2 >=
        ``_KERNEL_MIN_ENTRIES`` and ``_int64_ok(ring, d)`` the int64 kernel's
        ``PlaneRows``, else a store on Python rows.  The certificate asks it
        ``congruates`` and ``rows_at``.

        Raises:
            ValueError: an op that does not fit, naming its index: a row not
                an int in [0, dim), a Scale value, coefficient or block entry
                not a reduced scalar of the ring (over GF(p), an int in [0, p)),
                a block not a square Matrix over the ring inside [0, dim), an
                op the row store cannot apply, or an op of unknown kind.
        """
        d = self.dim
        acc = _augmented(Matrix.zeros(ring, d, 0), d * d, terms=d)  # [ | I]: the identity
        rows = frozenset(range(d))
        for idx, op in enumerate(self.ops):
            try:
                fits = _apply(acc, op, ring, rows)
            except (ArithmeticError, AttributeError, IndexError, TypeError, ValueError):
                fits = False
            if not fits:
                kind = type(op).__name__
                raise ValueError(f"log op {idx} ({kind}) does not fit a {d}-dimensional log over {ring!r}")
        return acc

    def slp_lines(self, ring: Ring) -> list[str]:
        """Line-oriented rendering, one elementary matrix per line, 0-based indices."""
        lines = []
        for op in self.ops:
            if isinstance(op, BlockTransvect):
                op = op.embedded()
            if isinstance(op, Scale):
                lines.append(f"scale {op.index} {ring.format(op.value)}")
            elif isinstance(op, Swap):
                lines.append(f"swap {op.i} {op.j}")
            elif isinstance(op, Eliminate):
                lines.extend(f"transvect {k} {op.source} {ring.format(v)}" for k, v in zip(op.targets, op.coeffs))
            else:
                entries = " ".join(ring.format(v) for row in op.block.rows for v in row)
                lines.append(f"blockleft {op.offset} {op.block.nrows} {entries}")
        return lines


def _apply(acc, op: LogOp, ring: Ring, rows: frozenset) -> bool:
    """Apply one log op to the row store `acc`; False if its fields do not fit
    a log over `ring` whose row indices are `rows`."""
    if isinstance(op, Scale) and _ints_in(rows, (op.index,)):
        acc.scale(op.index, ring.validate_scalar(op.value))
    elif isinstance(op, Swap) and _ints_in(rows, (op.i, op.j)):
        acc.swap(op.i, op.j)
    elif isinstance(op, Eliminate) and _ints_in(rows, (op.source, *op.targets)) and _typed(ring, [op.coeffs]):
        acc.add_multiples([op.source], list(op.targets), [op.coeffs])
    elif isinstance(op, BlockTransvect) and _inside(op.coeff, ring, rows, op.target, op.source):
        n, k = op.coeff.shape
        acc.add_multiples(slice(op.source, op.source + k), slice(op.target, op.target + n), list(zip(*op.coeff.rows)))
    elif (
        isinstance(op, BlockLeft)
        and _inside(op.block, ring, rows, op.offset, op.offset)
        and op.block.nrows == op.block.ncols
    ):
        acc.left_multiply(op.offset, op.block)
    else:
        return False
    return True


def _ints_in(rows: frozenset, values: tuple) -> bool:
    """Every entry of `values` is an int in `rows`.  The set test admits only
    values equal to such ints; a float, Fraction or numpy scalar among them
    then turns the sum into its own type.  One sum costs honest logs less than
    a type() call per Eliminate target."""
    return rows.issuperset(values) and type(sum(values)) is int


def _typed(ring: Ring, rows) -> bool:
    """Each entry of the sequences `rows` is a scalar of `ring` (an int in
    [0, p) over GF(p), a pair of those over GF(p^2), an int or Fraction over
    Q, a 4-tuple of those over the quaternions), which the stores would not
    check: the int64 kernel reads a str or float as its number, and wraps on
    an int far outside [0, p).  One check per op: over GF(p) and GF(p^2) a sum
    as in ``_ints_in``, then the least and greatest value."""
    if isinstance(ring, (QuadraticField, RationalQuaternions)):
        if set(map(len, chain.from_iterable(rows))) - {len(ring.zero)}:
            return False
        rows = chain.from_iterable(rows)  # the parts of each entry
    values = list(chain.from_iterable(rows))
    p = ring.characteristic
    if p:
        return type(sum(values)) is int and 0 <= min(values, default=0) and max(values, default=0) < p
    return not set(map(type, values)) - {int, Fraction}


def _inside(block: Matrix, ring: Ring, rows: frozenset, row: int, col: int) -> bool:
    """`block` is a Matrix over `ring`, of its scalars' type, whose rows start at `row` and columns at `col`, inside `rows`."""
    return (
        isinstance(block, Matrix)
        and block.ring == ring
        and _ints_in(rows, (row, col))
        and row + block.nrows <= len(rows)
        and col + block.ncols <= len(rows)
        and _typed(ring, block.rows)
    )


def _first_asymmetry(matrix: Matrix, s: int) -> Optional[tuple[int, int]]:
    """Row-major first (i, j) with matrix[i][j] != s * sigma(matrix[j][i]), or None.

    Only j >= i is scanned: applying s * sigma to both sides shows that (i, j)
    violates the law exactly when (j, i) does, so the first violation in
    row-major order lies on or above the diagonal.
    """
    ring = matrix.ring
    for i in range(matrix.nrows):
        for j in range(i, matrix.ncols):
            if matrix.rows[i][j] != ring.apply_sign(s, ring.sigma(matrix.rows[j][i])):
                return (i, j)
    return None


def is_hermitian(matrix: Matrix, s: int) -> bool:
    """True iff matrix = s * sigma_transpose(matrix) entrywise."""
    return _first_asymmetry(matrix, s) is None


class FormValidationError(ValueError):
    def __init__(self, i: int, j: int):
        self.position = (i, j)
        super().__init__(f"symmetry law violated at entry ({i}, {j})")


class HermitianForm:
    """A form matrix B = s*B^{sigma t} under congruence mutation."""

    __slots__ = ("ring", "s", "dim", "m", "log", "counters")

    def __init__(
        self,
        ring: Ring,
        matrix: Matrix,
        s: int,
        validate: bool = True,
    ):
        if s not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {s!r}")
        if matrix.nrows != matrix.ncols:
            raise ShapeError(f"form matrix must be square, got {matrix.shape}")
        if matrix.ring != ring:
            raise ValueError("matrix ring does not match form ring")
        self.ring = ring
        self.s = s
        self.dim = matrix.nrows
        self.m = matrix
        self.log = TransformLog(self.dim)
        self.counters = OpCounters()
        if validate:
            bad = _first_asymmetry(matrix, s)
            if bad is not None:
                raise FormValidationError(*bad)

    @classmethod
    def from_rows(cls, ring: Ring, rows: list[list], s: int) -> "HermitianForm":
        return cls(ring, Matrix(ring, [row[:] for row in rows]), s)

    def _window(self, lo: int, hi: Optional[int], *rows) -> tuple[int, int]:
        """The window [lo, hi), hi defaulting to dim.  Raises ValueError
        unless its bounds are ints, it lies inside the form and each of
        `rows`, the row indices a move touches, is an int inside it; every
        move calls this before it logs, writes or counts anything."""
        if hi is None:
            hi = self.dim
        if not (type(lo) is type(hi) is int and 0 <= lo <= hi <= self.dim):
            raise ValueError(f"window [{lo}, {hi}) is not an int range inside dim {self.dim}")
        for r in rows:
            if type(r) is not int or not lo <= r < hi:
                raise ValueError(f"row {r!r} is not an int in the window [{lo}, {hi})")
        return lo, hi

    def scale_row_column(self, i: int, lam, lo: int = 0, hi: Optional[int] = None) -> None:
        """Row i <- lam * row i and column i <- column i * sigma(lam).

        Raises:
            ValueError: before anything is logged, written or counted, if the
                window does not hold i, or lam is zero or not a scalar of the
                ring (``validate_scalar``).
        """
        ring = self.ring
        lo, hi = self._window(lo, hi, i)
        lam = ring.validate_scalar(lam)
        if lam == ring.zero:
            raise ValueError("cannot scale a row-column by zero")
        self.log.append(Scale(i, lam))
        rows = self.m.rows
        rows[i][lo:hi] = [ring.mul(lam, v) for v in rows[i][lo:hi]]
        sl = ring.sigma(lam)
        for r in range(lo, hi):
            rows[r][i] = ring.mul(rows[r][i], sl)
        width = hi - lo
        self.counters.multiplications += 2 * width
        self.counters.sigma_applications += width

    def swap_row_columns(self, i: int, j: int, lo: int = 0, hi: Optional[int] = None) -> None:
        """Exchange row-column i with row-column j; no ring operations."""
        lo, hi = self._window(lo, hi, i, j)
        if i == j:
            return
        self.log.append(Swap(i, j))
        rows = self.m.rows
        rows[i][lo:hi], rows[j][lo:hi] = rows[j][lo:hi], rows[i][lo:hi]
        for r in range(lo, hi):
            rows[r][i], rows[r][j] = rows[r][j], rows[r][i]

    def transvect(self, target: int, source: int, lam, lo: int = 0, hi: Optional[int] = None) -> None:
        """Congruence by I + lam*E[target, source].

        Row target += lam * row source, then column target += column source *
        sigma(lam), in that order; the second step uses the updated entries,
        which is exactly the two-sided product; target must differ from source.

        Raises:
            ValueError: before anything is logged, written or counted, if the
                window does not hold both rows, or lam is not a scalar of the
                ring (``validate_scalar``).
        """
        ring = self.ring
        lo, hi = self._window(lo, hi, target, source)
        lam = ring.validate_scalar(lam)
        if lam == ring.zero:
            return
        self.log.append(Eliminate(source, (target,), (lam,)))
        rows = self.m.rows
        row_axpy(ring, rows[target], rows[source], lam, lo, hi)
        add, mul, zero, sl = ring.add, ring.mul, ring.zero, ring.sigma(lam)
        for row in rows[lo:hi]:
            if row[source] != zero:
                row[target] = add(row[target], mul(row[source], sl))
        width = hi - lo
        self.counters.multiplications += 2 * width
        self.counters.additions += 2 * width
        self.counters.sigma_applications += 1

    def _pivot_inverse(self, pivot):
        """Inverse of a nonzero pivot; +-1 is read off without an inversion."""
        ring = self.ring
        if pivot == ring.one or pivot == ring.neg(ring.one):
            return pivot
        self.counters.inversions += 1
        return ring.inv(pivot)

    def clear_row_column(self, i: int, j: int, lo: int = 0, hi: Optional[int] = None) -> None:
        """Zero out row-column i against its diagonal pivot (i = j), or the
        isotropic pair of row-columns i and j against the pivot pair (i, j)
        and (j, i) (i != j), leaving the pivot entries as they are.

        A row pass adds lam_k times a source row to each row k of the window
        other than i and j that is nonzero in the cleared column, lam_k =
        -B[k][col] * B[src][col]^{-1}, and is logged as one Eliminate.  With
        i = j one pass clears column i from row i.  With i != j, B[i][i] must
        be zero: row j clears column i, then row i clears column j, and
        B[i][i] = 0 keeps column i clear through the second pass.

        Either way the rows k end zero in the pivot columns, so the column
        half of the congruence adds nothing to them and they are final; it
        only zeroes the pivot rows outside the pivots, which is written as an
        assignment.  A pair therefore costs two row passes and no column pass.

        Raises:
            ValueError: before anything is logged, written or counted, if the
                window does not hold i and j, a pivot entry is zero, or i != j
                and B[i][i] is nonzero.
        """
        ring = self.ring
        rows = self.m.rows
        lo, hi = self._window(lo, hi, i, j)
        zero = ring.zero
        if rows[i][j] == zero or rows[j][i] == zero:
            raise ValueError(f"pivot entry ({i}, {j}) or ({j}, {i}) is zero")
        if i != j and rows[i][i] != zero:
            raise ValueError(f"a pair pivot needs B[{i}][{i}] = 0")
        c = self.counters
        width = hi - lo
        targets = [k for k in range(lo, hi) if k != i and k != j]
        for src, col in [(i, i)] if i == j else [(j, i), (i, j)]:
            pairs = eliminate(ring, rows, src, col, targets, lo, hi, self._pivot_inverse)
            if pairs:
                self.log.append(Eliminate(src, *zip(*pairs)))
            c.equality_tests += len(targets)
            c.multiplications += len(pairs) * (1 + width)
            c.additions += len(pairs) * width
        for r in {i, j}:
            for k in targets:
                rows[r][k] = zero

    def install_rows(self, op: LogOp, lo: int, rows: list, active_lo: int, active_hi: int) -> None:
        """Log `op`, a congruence that changes rows and columns [lo, lo+q) of
        the active window, and write its new rows [lo, lo+q) over the active
        columns, corner included.  The form stays s-Hermitian, so the other
        active rows of those columns are s times sigma of them.  A window
        outside the form, or rows that do not span it, raise ValueError
        before anything is logged or written."""
        q = len(rows)
        active_lo, active_hi = self._window(active_lo, active_hi)
        if not (active_lo <= lo and lo + q <= active_hi) or any(len(row) != active_hi - active_lo for row in rows):
            raise ValueError("rows do not fit the active window")
        self.log.append(op)
        target = self.m.rows
        for row, new_row in zip(target[lo : lo + q], rows):
            row[active_lo:active_hi] = new_row
        for r0, r1 in ((active_lo, lo), (lo + q, active_hi)):
            mirror = self.m.submatrix(lo, lo + q, r0, r1).sigma_transpose(self.counters)
            for row, new_row in zip(target[r0:r1], mirror.rows):
                row[lo : lo + q] = new_row if self.s == 1 else map(self.ring.neg, new_row)

    def block_congruence(self, lo: int, block: Matrix, active_lo: int, active_hi: int, cutoff: int = 0) -> None:
        """Congruence by the identity with `block` pasted at [lo, lo+q).

        Rows [lo, lo+q) are left-multiplied by the block over the active
        column range, then columns [lo, lo+q) are right-multiplied by its
        sigma-transpose over the active row range.  Of that column pass only
        the q x q corner is a product; ``install_rows`` mirrors the rest, and
        raises ValueError, as the products may, if the block does not fit.
        """
        if block.nrows != block.ncols:
            raise ShapeError(f"block must be square, got {block.shape}")
        q = block.nrows
        counters = self.counters
        new = matmul(block, self.m.submatrix(lo, lo + q, active_lo, active_hi), cutoff, counters)
        c = lo - active_lo
        corner = matmul(new.submatrix(0, q, c, c + q), block.sigma_transpose(counters), cutoff, counters)
        rows = [row[:c] + left + row[c + q :] for row, left in zip(new.rows, corner.rows)]
        self.install_rows(BlockLeft(block.copy(), lo), lo, rows, active_lo, active_hi)

    def block_transvect(self, op: BlockTransvect, lo: int, hi: int, cutoff: int = 0) -> None:
        """Congruence by `op` over an active window [lo, hi) holding its rows:
        rows [t, t+n) += coeff * rows [u, u+k) is one product, and of the
        column pass only the n x n corner is, the new rows' columns [u, u+k)
        times sigma(coeff)^t; ``install_rows`` mirrors the rest."""
        t, u, coeff = op.target, op.source, op.coeff
        n, k = coeff.shape
        lo, hi = self._window(lo, hi, t, u)
        if max(t + n, u + k) > hi:
            raise ValueError("block transvection does not fit the active window")
        counters, add = self.counters, self.ring.add
        delta = matmul(coeff, self.m.submatrix(u, u + k, lo, hi), cutoff, counters)
        rows = [list(map(add, row[lo:hi], drow)) for row, drow in zip(self.m.rows[t : t + n], delta.rows)]
        sources = Matrix(self.ring, [row[u - lo : u - lo + k] for row in rows], validate=False, ncols=k)
        corner = matmul(sources, coeff.sigma_transpose(counters), cutoff, counters)
        c = t - lo
        for row, drow in zip(rows, corner.rows):
            row[c : c + n] = map(add, row[c : c + n], drow)
        counters.additions += n * (hi - lo + n)
        self.install_rows(op, t, rows, lo, hi)


def detect_s_sigma(matrix: Matrix) -> Optional[int]:
    """The sign s of a form, read off its first nonzero entry.

    Scans row-major for the first nonzero beta = B[i][j] and returns None when
    the matrix is zero (any sign fits).  A form has B[j][i] = s * sigma(beta),
    so s = B[j][i]^{-1} * sigma(beta).  Whether the whole matrix obeys that
    law is the job of HermitianForm's validation, not of this function.

    Raises:
        ValueError: if B[j][i] is zero or the quotient is not +-1 (not a form).
    """
    ring = matrix.ring
    zero = ring.zero
    first = next(((i, j) for i, row in enumerate(matrix.rows) for j, v in enumerate(row) if v != zero), None)
    if first is None:
        return None
    i, j = first
    mirror = matrix.rows[j][i]
    if mirror == zero:
        raise ValueError(f"entry ({j}, {i}) is zero while ({i}, {j}) is not; not a form")
    s_value = ring.mul(ring.inv(mirror), ring.sigma(matrix.rows[i][j]))
    if s_value == ring.one:
        return 1
    if s_value == ring.neg(ring.one):
        return -1
    raise ValueError(f"detected sign {ring.format(s_value)} is not +-1; not a form")


def random_form(ring: Ring, s: int, dim: int, rng, rank: Optional[int] = None) -> HermitianForm:
    """Random B = s*B^{sigma t}: random strict upper triangle, mirrored lower
    triangle, sigma-fixed diagonal.  With `rank` given, a standard form of
    that rank is built first and then scrambled by random congruences.
    """
    if s not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if dim < 0:
        raise ValueError("dim must be nonnegative")
    if rank is None:
        rows = [[ring.zero] * dim for _ in range(dim)]
        for i in range(dim):
            rows[i][i] = ring.random_sigma_fixed(s, rng)
            for j in range(i + 1, dim):
                v = ring.random(rng)
                rows[i][j] = v
                rows[j][i] = ring.apply_sign(s, ring.sigma(v))
        return HermitianForm(ring, Matrix(ring, rows, validate=False), s, validate=False)
    if not (0 <= rank <= dim):
        raise ValueError(f"rank must be in [0, {dim}]")
    rows = [[ring.zero] * dim for _ in range(dim)]
    if s == -1 and ring.involution == "identity" and ring.characteristic != 2:
        if rank % 2 != 0:
            raise ValueError("alternating forms have even rank")
        for t in range(rank // 2):
            rows[2 * t][2 * t + 1] = ring.one
            rows[2 * t + 1][2 * t] = ring.neg(ring.one)
    else:
        if s == 1 or ring.characteristic == 2:
            unit = ring.one
        elif isinstance(ring, QuadraticField):
            unit = ring.validate_scalar((0, 1))
        elif isinstance(ring, RationalQuaternions):
            unit = ring.validate_scalar((0, 1, 0, 0))
        else:
            raise ValueError("no nonzero diagonal unit with s = -1 over this ring")
        for t in range(rank):
            rows[t][t] = unit
    form = HermitianForm(ring, Matrix(ring, rows, validate=False), s, validate=False)
    for _ in range(3 * dim):
        kind = rng.randrange(3)
        if kind == 0 and dim >= 2:
            a, b = rng.sample(range(dim), 2)
            form.swap_row_columns(a, b)
        elif kind == 1:
            lam = ring.random(rng)
            while lam == ring.zero:
                lam = ring.random(rng)
            form.scale_row_column(rng.randrange(dim), lam)
        elif dim >= 2:
            a, b = rng.sample(range(dim), 2)
            form.transvect(a, b, ring.random(rng))
    return HermitianForm(ring, form.m, s, validate=False)
