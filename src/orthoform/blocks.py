"""Divide-and-conquer orthogonal decomposition built on block congruences.

Every reduction is one split step: row-reduce the top rows of a window,
pivoting in its leading block, and apply that as a congruence, leaving the
block [[core, 0], [0, 0]].  The split costs that elimination and one product
the size of the block: the elimination's reduced half is already A times the
top rows, and the form installs those rows and mirrors the rest of their
columns with s-sigma.  The split of the whole matrix sends the radical to the
tail; on the nonsingular window the split of the leading half gives a core
handled recursively and a complement, carrying a full-row-rank off-diagonal
block X, that becomes hyperbolic pairs in three block moves: the congruence
that row-reduces the s-sigma mirror of X stored below it, leaving X as
[C | 0]; the congruence by C^-1; and one block transvection clearing the pair
corner and the coupling to the tail.  The form is s-Hermitian, so the mirror
of every off-diagonal block a step clears is read off the rows below that
block, and this module sigma-transposes nothing.  Besides the splits the
heavy lifting is matrix products, exact for every Strassen threshold.  The
recursion stops at nonsingular windows of at most ``LEAF_ROWS`` rows, which
the pivot sweep of ``gs`` (``gs.sweep``) decomposes: there a sweep costs less
than further splits, as Strassen's scheme hands small products to the
classical one.  The split of the whole matrix still runs on every form, so
the radical is found by this module's own elimination.

Each step changes the form through one ``HermitianForm`` method, which logs
its op and writes the rows it changes; this module does neither by hand.

A window [lo, hi) is always zero outside itself, which makes windowed block
congruences global congruences.  Each displayed intermediate shape is
re-checked after the step that should have produced it; a failure raises
InvariantViolation rather than letting a bad transform propagate.
"""

from __future__ import annotations

from .form import BlockLeft, BlockTransvect, HermitianForm, transpositions
from .gs import Decomposition, standardize_at, sweep
from .matrix import Matrix, invert, matmul, row_reduce, split_congruence


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


def _negated(m: Matrix) -> Matrix:
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
        form.install_rows(BlockLeft(a, lo), lo, top, lo, hi)
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
        mirror = form.m.submatrix(lo + h, hi, lo, lo + k)  # s-sigma of the coupling right of the core
        if not mirror.is_zero():
            core_inv = invert(form.m.submatrix(lo, lo + k, lo, lo + k), form.counters)
            y = matmul(mirror, core_inv, self.cutoff, form.counters)
            form.block_transvect(BlockTransvect(lo + h, lo, _negated(y)), lo, hi, self.cutoff)
        _require_zero(form, lo + h, hi, lo, lo + k, "coupling sweep")
        self.aniso(lo, lo + k, depth + 1)
        f = h - k
        if f == 0:
            self.aniso(lo + h, hi, depth + 1)
        else:
            self.iso(lo + k, hi, f, depth + 1)

    def iso(self, lo: int, hi: int, f: int, depth: int = 1) -> None:
        """Pair off [lo, lo+2f) hyperbolically, a node at recursion `depth`; here
        B[lo:lo+f, lo:lo+f] = 0 and the block X right of it has full row rank f.

        The rows below X hold its mirror s*sigma(X)^t.  Row-reducing them gives
        A with A*s*sigma(X)^t = [R; 0], and the congruence by A on rows
        [lo+f, hi) turns X into [C | 0], with C invertible.  The congruence by
        C^-1 on rows [lo, lo+f) makes them [0 | I | 0], and one block
        transvection from them clears the pair block's strict upper triangle
        and the coupling of rows [lo+f, lo+2f) to the tail."""
        self.max_depth = max(self.max_depth, depth)
        form = self.form
        ring = self.ring
        if f < 1 or hi - lo < 2 * f:
            raise InvariantViolation(f"hyperbolic window [{lo},{hi}) cannot hold {f} pairs")
        a, xrank, _ = row_reduce(form.m.submatrix(lo + f, hi, lo, lo + f), form.counters)
        if xrank != f:
            raise InvariantViolation("coupling block X lost full row rank")
        form.block_congruence(lo + f, a, lo, hi, self.cutoff)
        _require_zero(form, lo, lo + f, lo + 2 * f, hi, "coupling reduction")
        lead_inv = invert(form.m.submatrix(lo, lo + f, lo + f, lo + 2 * f), form.counters)
        form.block_congruence(lo, lead_inv, lo, hi, self.cutoff)
        _require_zero(form, lo, lo + f, lo, lo + f, "hyperbolic normalization")
        if form.m.submatrix(lo, lo + f, lo + f, lo + 2 * f) != Matrix.identity(ring, f):
            raise InvariantViolation(f"hyperbolic normalization: block at ({lo},{lo + f}) size {f} is not the identity")
        # rows [lo+f, lo+2f) += N * rows [lo, lo+f), N the pair block's negated
        # strict upper triangle, and, when the tail (the s-sigma of the
        # coupling right of the pairs) is nonzero, rows [lo+2f, hi) += -tail *
        # rows [lo, lo+f) in the same transvection; rows [lo, lo+f) are
        # [0 | I | 0], so the tail rows change only in columns [lo+f, lo+2f)
        pair = form.m.submatrix(lo + f, lo + 2 * f, lo + f, lo + 2 * f).rows
        rows = [[ring.zero] * (i + 1) + list(map(ring.neg, row[i + 1 :])) for i, row in enumerate(pair)]
        tail = form.m.submatrix(lo + 2 * f, hi, lo + f, lo + 2 * f)
        if not tail.is_zero():
            rows += _negated(tail).rows
        coeff = Matrix(ring, rows, validate=False)
        if not coeff.is_zero():
            form.block_transvect(BlockTransvect(lo + f, lo, coeff), lo, lo + f + coeff.nrows, self.cutoff)
        _require_zero(form, lo + 2 * f, hi, lo + f, lo + 2 * f, "tail decoupling")
        for i, row in enumerate(form.m.submatrix(lo + f, lo + 2 * f, lo + f, lo + 2 * f).rows):
            if any(v != ring.zero for j, v in enumerate(row) if j != i):
                raise InvariantViolation("pair diagonalization left off-diagonal residue")
            if row[i] != ring.apply_sign(self.s, ring.sigma(row[i])):
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
