"""Divide-and-conquer orthogonal decomposition built on block congruences.

Every reduction is one split step: row-reduce the top rows of a window,
pivoting in its leading block, and apply that as a congruence, leaving the
block [[core, 0], [0, 0]].  The split costs that elimination and one product
the size of the block: the elimination's reduced half is already A times the
top rows, and a block congruence multiplies only the corner of its columns,
the rest being the s-sigma mirror of its new rows.  The split of the whole
matrix sends the radical to the tail; on the nonsingular window the split of
the leading half gives a core handled recursively and a complement, carrying
a full-row-rank off-diagonal block X, that becomes hyperbolic pairs
(column-reduce X, which also yields X*A, normalize the cross block to an
identity, sweep the rest of the coupling away with block transvections).
Besides the splits the heavy lifting is matrix products, exact for every
Strassen threshold.  The recursion stops at nonsingular windows of at most
``LEAF_ROWS`` rows, which the pivot sweep of ``gs`` (``gs.sweep``)
decomposes: there a sweep costs less than further splits, as Strassen's
scheme hands small products to the classical one.  The split of the whole
matrix still runs on every form, so the radical is found by this module's
own elimination.

A window [lo, hi) is always zero outside itself, which makes windowed block
congruences global congruences.  Each displayed intermediate shape is
re-checked after the step that should have produced it; a failure raises
InvariantViolation rather than letting a bad transform propagate.
"""

from __future__ import annotations

from .form import BlockTransvect, HermitianForm, transpositions
from .gs import Decomposition, standardize_at, sweep
from .matrix import Matrix, column_reduce, invert, matmul, split_congruence


# Nonsingular windows of at most this many rows end the recursion with the
# pivot sweep of ``gs``, which costs less there than further splits (measured
# on GF(101) and Q forms and the benchmark's small forms, against 8 and 32).
LEAF_ROWS = 16


class InvariantViolation(RuntimeError):
    """An intermediate matrix failed the shape its construction guarantees."""


def _require_zero(form: HermitianForm, r0: int, r1: int, c0: int, c1: int, context: str) -> None:
    rows, z = form.m.rows, form.ring.zero
    if not all(rows[r][c] == z for r in range(r0, r1) for c in range(c0, c1)):
        raise InvariantViolation(f"{context}: rows [{r0},{r1}) x cols [{c0},{c1}) not zero")


def _require_identity(form: HermitianForm, r0: int, c0: int, n: int, context: str) -> None:
    if form.m.submatrix(r0, r0 + n, c0, c0 + n) != Matrix.identity(form.ring, n):
        raise InvariantViolation(f"{context}: block at ({r0},{c0}) size {n} is not the identity")


def _sign_scaled(m: Matrix, sign: int) -> Matrix:
    if sign == 1:
        return m.copy()
    neg = m.ring.neg
    return Matrix(m.ring, [[neg(v) for v in row] for row in m.rows], validate=False)


def _split(form: HermitianForm, lo: int, h: int, hi: int, cutoff: int) -> int:
    """Congruate the leading h x h block of the window [lo, hi) to [[core, 0], [0, 0]].

    Row-reduces the top h rows of the window, pivoting in that block, to find
    an invertible A with A*block of full row rank on top, applies A as a
    congruence over the window and returns the rank k of the block; the core
    is its nonsingular leading k x k part.  The elimination's reduced half is
    already A times the top rows, so the congruence's one product is the
    h x h corner (``split_congruence``).
    """
    a, k, top = split_congruence(form.m.submatrix(lo, lo + h, lo, hi), cutoff, form.counters)
    if top is not None:
        form.block_congruence(lo, a, lo, hi, cutoff, rows=top)
    _require_zero(form, lo + k, lo + h, lo, lo + h, "split")
    _require_zero(form, lo, lo + h, lo + k, lo + h, "split")
    return k


def detect_radical(form: HermitianForm, cutoff: int = 0) -> int:
    """Congruate the radical to the tail; returns its dimension.

    The split of the whole matrix: afterwards it is [[core, 0], [0, 0]] with
    the core nonsingular in the leading window.
    """
    return form.dim - _split(form, 0, form.dim, form.dim, cutoff)


class _BlockRun:
    def __init__(self, form: HermitianForm, cutoff: int):
        self.form = form
        self.ring = form.ring
        self.s = form.s
        self.cutoff = cutoff
        self.blocks: list = []
        self.max_depth = 0
        self.iso_pairs = 0

    def aniso(self, lo: int, hi: int, depth: int = 1) -> None:
        """Decompose the nonsingular window [lo, hi), a node at recursion `depth`.

        A window of at most ``LEAF_ROWS`` rows is a leaf: the pivot sweep of
        ``gs`` decomposes it.  A larger one splits its leading half."""
        self.max_depth = max(self.max_depth, depth)
        form = self.form
        m = hi - lo
        if m <= LEAF_ROWS:
            blocks, end, iso_steps = sweep(form, lo, hi)
            if end != hi:
                raise InvariantViolation(f"leaf window [{lo},{hi}) has a radical: the input was singular")
            self.blocks.extend(blocks)
            self.iso_pairs += iso_steps
            return
        h = (m + 1) // 2
        k = _split(form, lo, h, hi, self.cutoff)
        coupling = form.m.submatrix(lo, lo + k, lo + h, hi)
        if not coupling.is_zero():
            core_inv = invert(form.m.submatrix(lo, lo + k, lo, lo + k), form.counters)
            y = _sign_scaled(
                matmul(coupling.sigma_transpose(form.counters), core_inv, self.cutoff, form.counters),
                -self.s,
            )
            self._block_transvect(lo + h, lo, y, lo, hi)
        _require_zero(form, lo + h, hi, lo, lo + k, "coupling sweep")
        _require_zero(form, lo, lo + k, lo + h, hi, "coupling sweep")
        self.aniso(lo, lo + k, depth + 1)
        f = h - k
        if f == 0:
            self.aniso(lo + h, hi, depth + 1)
        else:
            self.iso(lo + k, hi, f, depth + 1)

    def _block_transvect(self, t_lo: int, s_lo: int, coeff: Matrix, lo: int, hi: int) -> None:
        """Rows [t_lo, ...) += coeff * rows [s_lo, ...), then the mirrored columns."""
        form = self.form
        rows = form.m.rows
        add = self.ring.add
        t_hi, s_hi = t_lo + coeff.nrows, s_lo + coeff.ncols
        form.log.append(BlockTransvect(t_lo, s_lo, coeff))
        delta = matmul(coeff, form.m.submatrix(s_lo, s_hi, lo, hi), self.cutoff, form.counters)
        for row, drow in zip(rows[t_lo:t_hi], delta.rows):
            row[lo:hi] = map(add, row[lo:hi], drow)
        src_cols = form.m.submatrix(lo, hi, s_lo, s_hi)
        delta = matmul(src_cols, coeff.sigma_transpose(form.counters), self.cutoff, form.counters)
        for row, drow in zip(rows[lo:hi], delta.rows):
            row[t_lo:t_hi] = map(add, row[t_lo:t_hi], drow)
        form.counters.additions += 2 * coeff.nrows * (hi - lo)

    def iso(self, lo: int, hi: int, f: int, depth: int = 1) -> None:
        """Pair off [lo, lo+2f) hyperbolically, a node at recursion `depth`; here
        B[lo:lo+f, lo:lo+f] = 0 and the block X right of it has full row rank f."""
        self.max_depth = max(self.max_depth, depth)
        form = self.form
        ring = self.ring
        rows = form.m.rows
        m = hi - lo
        if f < 1 or m < 2 * f:
            raise InvariantViolation(f"hyperbolic window [{lo},{hi}) cannot hold {f} pairs")
        x = form.m.submatrix(lo, lo + f, lo + f, hi)
        a, xrank, xa = column_reduce(x, form.counters)
        if xrank != f:
            raise InvariantViolation("coupling block X lost full row rank")
        if not xa.submatrix(0, f, f, m - f).is_zero():
            raise InvariantViolation("column reduction left residue right of the lead block")
        lead_inv = invert(xa.submatrix(0, f, 0, f), form.counters)
        form.block_congruence(lo, lead_inv, lo, hi, self.cutoff)
        form.block_congruence(lo + f, a.sigma_transpose(form.counters), lo, hi, self.cutoff)
        _require_zero(form, lo, lo + f, lo, lo + f, "hyperbolic normalization")
        _require_identity(form, lo, lo + f, f, "hyperbolic normalization")
        _require_zero(form, lo, lo + f, lo + 2 * f, hi, "hyperbolic normalization")
        tail = form.m.submatrix(lo + f, lo + 2 * f, lo + 2 * f, hi)
        if not tail.is_zero():
            coeff = _sign_scaled(tail.sigma_transpose(form.counters), -self.s)
            form.log.append(BlockTransvect(lo + 2 * f, lo, coeff))
            zero = ring.zero
            for r in range(lo + f, lo + 2 * f):
                for c in range(lo + 2 * f, hi):
                    rows[r][c] = zero
                    rows[c][r] = zero
        _require_zero(form, lo + f, lo + 2 * f, lo + 2 * f, hi, "tail decoupling")
        _require_zero(form, lo + 2 * f, hi, lo + f, lo + 2 * f, "tail decoupling")
        corner = Matrix.identity(ring, 2 * f)
        for i in range(f):
            above = rows[lo + f + i][lo + f + i + 1 : lo + 2 * f]
            corner.rows[f + i][i + 1 : f] = [ring.neg(v) for v in above]
        if not corner.submatrix(f, 2 * f, 0, f).is_zero():
            form.block_congruence(lo, corner, lo, lo + 2 * f, self.cutoff)
        for i in range(f):
            for j in range(f):
                if i != j and rows[lo + f + i][lo + f + j] != ring.zero:
                    raise InvariantViolation("pair diagonalization left off-diagonal residue")
        for i in range(f):
            v = rows[lo + f + i][lo + f + i]
            if v != ring.apply_sign(self.s, ring.sigma(v)):
                raise InvariantViolation("pair diagonal violates the symmetry law")
        # Interleave: row lo+i and its partner lo+f+i become adjacent at lo+2i.
        for t, p in transpositions([t // 2 + (t % 2) * f for t in range(2 * f)]):
            form.swap_row_columns(lo + t, lo + p, lo=lo, hi=lo + 2 * f)
        self.iso_pairs += f
        for i in range(f):
            self.blocks.extend(standardize_at(form, lo + 2 * i))
        if hi > lo + 2 * f:
            self.aniso(lo + 2 * f, hi, depth + 1)


def check_strassen_cutoff(cutoff: int) -> None:
    """Raises ValueError unless cutoff is 0 (classical) or at least 2."""
    if cutoff < 0 or cutoff == 1:
        raise ValueError(f"strassen cutoff must be 0 (classical) or >= 2, got {cutoff}")


def decompose_blocks(form: HermitianForm, strassen_cutoff: int = 0) -> Decomposition:
    """Decompose by block congruences; mutates `form` into the direct sum.

    strassen_cutoff = 0 (the default) keeps every product classical; any value
    >= 2 switches products above that size to Strassen's scheme.  The
    decomposition itself is identical either way; only the counters differ.
    Classical is the default because over GF(p) and GF(p^2) the classical
    product runs in numpy, while Strassen's additions run in Python.
    """
    check_strassen_cutoff(strassen_cutoff)
    d = form.dim
    radical = detect_radical(form, strassen_cutoff)
    run = _BlockRun(form, strassen_cutoff)
    core = d - radical
    if core:
        run.aniso(0, core)
    return Decomposition.of(form, run.blocks, radical, run.iso_pairs, run.max_depth)
