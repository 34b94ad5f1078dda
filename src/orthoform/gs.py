"""One-position-at-a-time orthogonal decomposition.

Walks the form left to right keeping a live window [pos, hi).  An anisotropic
position is cleared against its diagonal entry; an isotropic position pairs
with the first partner its row meets, the pair is cleared and standardized;
a row-column orthogonal to the whole window is swapped to the tail, shrinking
the window.  The result is a list of 1x1 blocks and [[0,1],[s,0]] blocks with
the radical zeros at the end.

``sweep`` runs this on any window that is zero outside itself:
``decompose_gs`` is the sweep of the whole form, and ``blocks`` ends its
recursion with the sweep of each small nonsingular window.
"""

from __future__ import annotations

from dataclasses import dataclass

from .form import HermitianForm, OpCounters, TransformLog
from .matrix import Matrix
from .rings import Ring


@dataclass(frozen=True)
class ScalarBlock:
    value: object

    @property
    def size(self) -> int:
        return 1


@dataclass(frozen=True)
class JBlock:
    """The 2x2 block [[0, 1], [s, 0]]; s is carried by the decomposition."""

    @property
    def size(self) -> int:
        return 2


@dataclass
class Decomposition:
    ring: Ring
    s: int
    dim: int
    blocks: list
    log: TransformLog
    counters: OpCounters
    radical_dim: int
    isotropic_steps: int = 0
    recursion_depth: int = 0

    @classmethod
    def of(
        cls, form: HermitianForm, blocks: list, radical_dim: int, isotropic_steps: int, recursion_depth: int = 0
    ) -> "Decomposition":
        """The decomposition of `form` into `blocks` followed by the radical's
        `radical_dim` zero blocks, carrying the form's log and counters."""
        blocks.extend(ScalarBlock(form.ring.zero) for _ in range(radical_dim))
        return cls(
            form.ring, form.s, form.dim, blocks, form.log, form.counters, radical_dim, isotropic_steps, recursion_depth
        )

    def direct_sum_matrix(self) -> Matrix:
        m = direct_sum(self.ring, self.s, self.blocks)
        if m.nrows != self.dim:
            raise ValueError(f"blocks cover {m.nrows} positions, form has {self.dim}")
        return m


def direct_sum(ring: Ring, s: int, blocks: list) -> Matrix:
    """The block-diagonal matrix of `blocks`, [value] per ScalarBlock and
    [[0, 1], [s, 0]] per JBlock; TypeError on a block of any other type."""
    for idx, block in enumerate(blocks):
        if not isinstance(block, (ScalarBlock, JBlock)):
            raise TypeError(f"block {idx} has unknown type {type(block).__name__}")
    d = sum(b.size for b in blocks)
    m = Matrix.zeros(ring, d, d)
    pos = 0
    for block in blocks:
        if isinstance(block, ScalarBlock):
            m.rows[pos][pos] = block.value
        else:
            m.rows[pos][pos + 1], m.rows[pos + 1][pos] = ring.one, ring.from_int(s)
        pos += block.size
    return m


def standardize_at(form: HermitianForm, pos: int) -> list:
    """Finish the 2x2 corner [[0, 1], [s, alpha]] sitting at [pos, pos+2).

    With alpha nonzero the corner splits into two anisotropic 1x1 blocks via
    one transvection.  With alpha zero, s = 1, and characteristic not 2 the
    corner is diagonalized by [[1, 1], [1, -1]].  Otherwise it is already the
    standard [[0, 1], [s, 0]] block.  Returns the blocks emitted, reading the
    actual entries after the operations.
    """
    ring = form.ring
    rows = form.m.rows
    alpha = rows[pos + 1][pos + 1]
    form.counters.equality_tests += 1
    if alpha != ring.zero:
        ainv = form._pivot_inverse(alpha)
        form.transvect(pos, pos + 1, ring.neg(ainv), lo=pos, hi=pos + 2)
        return [ScalarBlock(rows[pos][pos]), ScalarBlock(rows[pos + 1][pos + 1])]
    if form.s == 1 and ring.characteristic != 2:
        two = ring.from_int(2)
        split = Matrix(ring, [[ring.one, ring.one], [ring.one, ring.neg(ring.one)]], validate=False)
        form.block_congruence(pos, split, pos, pos + 2)
        if rows[pos][pos] != two:
            raise ArithmeticError("corner split produced an unexpected diagonal")
        return [ScalarBlock(rows[pos][pos]), ScalarBlock(rows[pos + 1][pos + 1])]
    return [JBlock()]


def standardize(ring: Ring, s: int, alpha) -> tuple[TransformLog, list]:
    """Standalone corner finisher: builds [[0, 1], [s, alpha]] and runs
    standardize_at on it, returning the log fragment and emitted blocks.

    Raises:
        ValueError: if alpha is not a scalar of the ring (``validate_scalar``)
            or not s*sigma(alpha).
    """
    alpha = ring.validate_scalar(alpha)
    if alpha != ring.apply_sign(s, ring.sigma(alpha)):
        raise ValueError("corner entry must satisfy alpha = s*sigma(alpha)")
    rows = [[ring.zero, ring.one], [ring.from_int(s), alpha]]
    form = HermitianForm(ring, Matrix(ring, rows, validate=False), s, validate=False)
    blocks = standardize_at(form, 0)
    return form.log, blocks


def sweep(form: HermitianForm, lo: int, hi: int) -> tuple[list, int, int]:
    """The pivot sweep of the window [lo, hi), which is zero outside itself.

    Returns (blocks, end, isotropic_steps): the blocks cover [lo, end) and the
    radical has been swapped to [end, hi), so the window was nonsingular
    exactly when end == hi.  Every operation acts inside the window, so the
    sweep is a congruence of the whole form.

    Per window position this spends one diagonal test plus one test per
    scanned or cleared entry, one inversion per anisotropic pivot, and at
    most two inversions per isotropic pair.  An isotropic pair is cleared by
    two row passes and no column pass (``clear_row_column``), so it costs
    what its two positions cost as anisotropic pivots, and the sweep stays
    within the e^3/3 + O(e^2) addition and multiplication envelope,
    e = hi - lo.
    """
    ring = form.ring
    rows = form.m.rows
    c = form.counters
    blocks: list = []
    pos = lo
    iso_steps = 0
    while pos < hi:
        c.equality_tests += 1
        beta = rows[pos][pos]
        if beta != ring.zero:
            form.clear_row_column(pos, pos, lo=pos, hi=hi)
            blocks.append(ScalarBlock(beta))
            pos += 1
            continue
        partner = None
        for j in range(pos + 1, hi):
            c.equality_tests += 1
            if rows[pos][j] != ring.zero:
                partner = j
                break
        if partner is None:
            if pos != hi - 1:
                form.swap_row_columns(pos, hi - 1, lo=pos, hi=hi)
            hi -= 1
            continue
        iso_steps += 1
        if partner != pos + 1:
            form.swap_row_columns(partner, pos + 1, lo=pos, hi=hi)
        gamma = rows[pos][pos + 1]
        if gamma != ring.one:
            c.sigma_applications += 1
            form.scale_row_column(pos + 1, ring.sigma(form._pivot_inverse(gamma)), lo=pos, hi=hi)
        form.clear_row_column(pos, pos + 1, lo=pos, hi=hi)
        blocks.extend(standardize_at(form, pos))
        pos += 2
    return blocks, hi, iso_steps


def decompose_gs(form: HermitianForm) -> Decomposition:
    """Decompose by row-column elimination; mutates `form` into the direct sum.

    The sweep of the whole form (``sweep``).
    """
    blocks, end, iso_steps = sweep(form, 0, form.dim)
    return Decomposition.of(form, blocks, form.dim - end, iso_steps)
