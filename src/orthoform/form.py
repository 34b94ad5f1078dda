"""Forms b(u,v) = u B sigma(v)^t with B = s*B^{sigma t}, plus congruence plumbing.

A form is held as a mutable square matrix together with its sign s and the
ring (which carries the involution sigma).  Congruence operations
B -> A B A^{sigma t} for elementary A are exposed as mutation methods; each
appends one entry to the form's transformation log and ticks the operation
counters, so both decomposition algorithms are costed with one instrument.

Operation windows: every primitive takes an optional column/row window
[lo, hi).  The logged operation is always the global elementary matrix, so a
windowed call is a valid congruence only when the touched rows and columns
are zero outside the window.  Callers (the decomposition loops) maintain that
invariant; standalone use should keep the default full window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Union

from .matrix import Matrix, ShapeError, _augmented, col_sweep, eliminate, matmul, row_axpy
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

    def copy(self) -> "OpCounters":
        return OpCounters(**self.as_dict())


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

    def subrange(self, start: int, stop: int) -> "TransformLog":
        return TransformLog(self.dim, self.ops[start:stop])

    def materialize(self, ring: Ring) -> Matrix:
        """Product of the elementary matrices in application order (first op innermost)."""
        d = self.dim
        acc = _augmented(Matrix.zeros(ring, d, 0), d * d, terms=d)  # [ | I]: the identity
        for op in self.ops:
            if isinstance(op, Scale):
                acc.scale(op.index, op.value)
            elif isinstance(op, Swap):
                acc.swap(op.i, op.j)
            elif isinstance(op, Eliminate):
                acc.add_multiples([op.source], list(op.targets), [op.coeffs])
            elif isinstance(op, BlockTransvect):
                n, k = op.coeff.shape
                acc.add_multiples(slice(op.source, op.source + k), slice(op.target, op.target + n), list(zip(*op.coeff.rows)))
            elif isinstance(op, BlockLeft):
                acc.left_multiply(op.offset, op.block)
            else:
                raise TypeError(f"unknown log op {op!r}")
        return Matrix(ring, acc.transform(), validate=False)

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
        log: Optional[TransformLog] = None,
        counters: Optional[OpCounters] = None,
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
        self.log = log if log is not None else TransformLog(self.dim)
        self.counters = counters if counters is not None else OpCounters()
        if validate:
            bad = _first_asymmetry(matrix, s)
            if bad is not None:
                raise FormValidationError(*bad)

    @classmethod
    def from_rows(cls, ring: Ring, rows: list[list], s: int) -> "HermitianForm":
        return cls(ring, Matrix(ring, [row[:] for row in rows]), s)

    def copy(self) -> "HermitianForm":
        return HermitianForm(
            self.ring,
            self.m.copy(),
            self.s,
            validate=False,
            log=TransformLog(self.dim, list(self.log.ops)),
            counters=self.counters.copy(),
        )

    def evaluate(self, u: list, v: list):
        """b(u, v) = u * B * sigma(v)^t, exact."""
        if len(u) != self.dim or len(v) != self.dim:
            raise ShapeError(f"vectors must have length {self.dim}")
        ring = self.ring
        acc = ring.zero
        for c in range(self.dim):
            col = ring.zero
            for r in range(self.dim):
                if u[r] != ring.zero:
                    col = ring.add(col, ring.mul(u[r], self.m.rows[r][c]))
            if col != ring.zero:
                acc = ring.add(acc, ring.mul(col, ring.sigma(v[c])))
        return acc

    def _window(self, lo: int, hi: Optional[int]) -> tuple[int, int]:
        if hi is None:
            hi = self.dim
        if not (0 <= lo <= hi <= self.dim):
            raise ValueError(f"window [{lo}, {hi}) out of range for dim {self.dim}")
        return lo, hi

    def scale_row_column(self, i: int, lam, lo: int = 0, hi: Optional[int] = None) -> None:
        """Row i <- lam * row i and column i <- column i * sigma(lam)."""
        ring = self.ring
        if lam == ring.zero:
            raise ValueError("cannot scale a row-column by zero")
        lo, hi = self._window(lo, hi)
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
        if i == j:
            return
        lo, hi = self._window(lo, hi)
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
        """
        ring = self.ring
        if lam == ring.zero:
            return
        lo, hi = self._window(lo, hi)
        self.log.append(Eliminate(source, (target,), (lam,)))
        rows = self.m.rows
        row_axpy(ring, rows[target], rows[source], lam, lo, hi)
        col_sweep(ring, rows, source, [(target, ring.sigma(lam))], lo, hi)
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
        """Zero out row-column j using the pivot entry at (i, j).

        For each k in the window other than i and j with B[k][j] nonzero, the
        transvection I + lam_k*E[k, i] with lam_k = -B[k][j]*B[i][j]^{-1} is
        applied, and logged as one Eliminate.  When i = j the combined column
        half of those transvections lands entirely in row i and is an exact
        zeroing, so it is written as an assignment; the diagonal entry B[i][i]
        stays.  When i != j the full column pass runs, column k += column i *
        sigma(lam_k) for every cleared k, as one ``col_sweep`` (one sweep of
        the rows over GF(p) and GF(p^2)).  The pivot pair (i,j)/(j,i) stays, and
        if B[i][i] is nonzero the cleared entries spill into row-column i,
        which the caller is expected to clear next.
        """
        ring = self.ring
        rows = self.m.rows
        lo, hi = self._window(lo, hi)
        pivot = rows[i][j]
        if pivot == ring.zero:
            raise ValueError(f"pivot entry ({i}, {j}) is zero")
        pivinv = self._pivot_inverse(pivot)
        c = self.counters
        width = hi - lo
        targets = [k for k in range(lo, hi) if k != i and k != j]
        pairs = eliminate(ring, rows, i, j, targets, pivinv, lo, hi)
        if pairs:
            self.log.append(Eliminate(i, *zip(*pairs)))
        c.equality_tests += len(targets)
        c.multiplications += len(pairs) * (1 + width)
        c.additions += len(pairs) * width
        if i == j:
            for k in targets:
                rows[i][k] = ring.zero
            return
        col_sweep(ring, rows, i, [(k, ring.sigma(lam)) for k, lam in pairs], lo, hi)
        c.sigma_applications += len(pairs)
        c.multiplications += len(pairs) * width
        c.additions += len(pairs) * width

    def block_congruence(
        self,
        lo: int,
        block: Matrix,
        active_lo: int,
        active_hi: int,
        cutoff: int = 0,
    ) -> None:
        """Congruence by the identity with `block` pasted at [lo, lo+q).

        Rows [lo, lo+q) are left-multiplied by the block over the active
        column range, then columns [lo, lo+q) are right-multiplied by its
        sigma-transpose over the active row range.
        """
        if block.nrows != block.ncols:
            raise ShapeError(f"block must be square, got {block.shape}")
        q = block.nrows
        if not (active_lo <= lo and lo + q <= active_hi <= self.dim):
            raise ValueError("block does not fit the active window")
        self.log.append(BlockLeft(block.copy(), lo))
        rows = self.m.rows
        span = self.m.submatrix(lo, lo + q, active_lo, active_hi)
        out = matmul(block, span, cutoff, self.counters)
        for idx, r in enumerate(range(lo, lo + q)):
            rows[r][active_lo:active_hi] = out.rows[idx]
        colblock = self.m.submatrix(active_lo, active_hi, lo, lo + q)
        out = matmul(colblock, block.sigma_transpose(self.counters), cutoff, self.counters)
        for idx, r in enumerate(range(active_lo, active_hi)):
            rows[r][lo : lo + q] = out.rows[idx]


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
