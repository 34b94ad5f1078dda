"""Independent checks of decompositions.

check_decomposition re-derives everything from the input matrix and the log:
the materialized transform T must be invertible, must actually congruate the
input B to the direct sum D of the claimed blocks, the blocks must be
standard, and the number of zero blocks must match d minus the rank of the
input.

When the congruence clause holds and s = +-1 it certifies the other two,
from one scan for the positions Z of the z zero blocks.  D restricted to the
other positions N is nonsingular and its rows at Z are zero, so a vanishing
combination of the rows of T, times B * sigma(T)^t, has no part in the rows
T_N: T is invertible exactly when rank(T_Z) = z.  A nonsingular D thus needs
no elimination and a singular one the rank of a z x d matrix.  An invertible
T keeps the rank, and D has rank 1 per nonzero scalar and 2 per J block, so
the corank is z; after a singular T the input's rank is computed.  When the
congruence fails, or s is not +-1, rank(T) and the input's rank are both
computed by elimination.

The check asks the row store that replays the log (``TransformLog._replay``)
rather than a matrix built from it: ``congruates(B, D)`` for the congruence
clause, and ``rows_at`` for the rows of T a rank reads.  A store on Python
rows checks ``matrix.congruates`` on its transform; the int64 kernel's
``PlaneRows`` forms the product on its planes and compares it with D as
Python values.  Only a rank turns rows of T into Python rows there: the rows
T_Z for a singular D, or all of T after the congruence fails.

A log op that does not fit the form fails the first two clauses, a
decomposition of the other sign s fails the congruence clause, and a scalar
block whose value is not a scalar of the ring is not standard.  Nothing here
reuses intermediate state from the decomposition run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .gs import Decomposition, JBlock, ScalarBlock
from .matrix import Matrix, rank
from .rings import PrimeField, _legendre


@dataclass
class CheckReport:
    transform_invertible: bool
    congruence_matches: bool
    blocks_standard: bool
    radical_matches: bool
    details: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return (
            self.transform_invertible
            and self.congruence_matches
            and self.blocks_standard
            and self.radical_matches
        )

    def as_dict(self) -> dict[str, bool]:
        return {
            "transform_invertible": self.transform_invertible,
            "congruence_matches": self.congruence_matches,
            "blocks_standard": self.blocks_standard,
            "radical_matches": self.radical_matches,
        }


def check_decomposition(original: Matrix, s: int, dec: Decomposition) -> CheckReport:
    """Re-verify a decomposition against the untouched input matrix.

    A decomposition over another ring or of another dimension than the input,
    or with a log op that does not fit the input, fails the invertibility and
    congruence clauses; its blocks are judged over their own ring.  One made
    with a sign other than `s` fails the congruence clause.
    """
    ring = dec.ring
    d = original.nrows
    report = CheckReport(True, True, True, True)
    if d == 0:
        if dec.blocks or dec.radical_dim:
            report.blocks_standard = False
            report.details.append("0-dimensional form with nonempty blocks")
        return report
    store = None  # the row store holding the replayed transform T
    if ring != original.ring or dec.dim != d or dec.log.dim != d:
        report.transform_invertible = False
        report.congruence_matches = False
        report.details.append(
            f"decomposition over {ring!r} of dimension {dec.dim} with a {dec.log.dim}-dimensional "
            f"log does not fit a {d}-dimensional form over {original.ring!r}"
        )
    else:
        try:
            store = dec.log._replay(ring)
        except ValueError as exc:
            report.transform_invertible = False
            report.congruence_matches = False
            report.details.append(f"log does not materialize: {exc}")
    if dec.s != s:
        report.congruence_matches = False
        report.details.append(f"decomposition of sign {dec.s} does not fit a form of sign {s}")
    sizes = sum(getattr(b, "size", 0) for b in dec.blocks)
    if sizes != d:
        report.blocks_standard = False
        report.details.append(f"blocks cover {sizes} of {d} positions")
        report.congruence_matches = False
    if store is not None and report.congruence_matches:
        try:
            direct_sum = dec.direct_sum_matrix()
        except TypeError as exc:
            report.congruence_matches = False
            report.details.append(f"no direct sum to compare against: {exc}")
        else:
            if not store.congruates(original, direct_sum):
                report.congruence_matches = False
                report.details.append("transformed matrix is not the claimed direct sum")
    zero_at = _zero_positions(dec)
    certified = _certified(report, s)
    if store is not None and not _invertible(store, d, certified, zero_at):
        report.transform_invertible = False
        # every detail written so far leaves the store None, so this one leads
        report.details.insert(0, "materialized transform is singular")
    if sizes != d:
        return report
    for idx, block in enumerate(dec.blocks):
        if isinstance(block, ScalarBlock):
            value = block.value
            try:
                ring.validate_scalar(value)
            except ValueError as exc:
                report.blocks_standard = False
                report.details.append(f"block {idx} value: {exc}")
            else:
                if value != ring.apply_sign(s, ring.sigma(value)):
                    report.blocks_standard = False
                    report.details.append(f"block {idx} value violates the symmetry law")
        elif not isinstance(block, JBlock):
            report.blocks_standard = False
            report.details.append(f"block {idx} has unknown type {type(block).__name__}")
    zero_blocks = len(zero_at)
    # an invertible transform keeps the rank, and D has rank d minus its zero blocks
    corank = zero_blocks if certified and report.transform_invertible else d - rank(original)
    if not (dec.radical_dim == zero_blocks == corank):
        report.radical_matches = False
        report.details.append(
            f"radical_dim {dec.radical_dim}, zero blocks {zero_blocks}, "
            f"dim minus rank {corank} disagree"
        )
    return report


def _zero_positions(dec: Decomposition) -> list:
    """The positions of the zero scalar blocks; a block without a size covers none."""
    zero = dec.ring.zero
    positions, pos = [], 0
    for b in dec.blocks:
        if isinstance(b, ScalarBlock) and b.value == zero:
            positions.append(pos)
        pos += getattr(b, "size", 0)
    return positions


def _certified(report: CheckReport, s: int) -> bool:
    """Whether the congruence clause certifies the other two: it holds and s = +-1.

    Then T * original * sigma(T)^t = D for the materialized T and the direct
    sum D of known blocks covering d positions, and D restricted to the
    positions N of its nonzero blocks is nonsingular: a nonzero scalar is a
    unit, and a J block [[0, 1], [s, 0]] is invertible.  With s = 0 a J block
    has rank 1, and both clauses are decided by elimination.
    """
    return report.congruence_matches and s in (1, -1)


def _invertible(store, d: int, certified: bool, zero_at: list) -> bool:
    """Whether the d x d transform t that ``store`` holds is invertible: by
    rank(t), or, when `_certified`, by the rank of its rows t_Z at the z
    positions ``zero_at`` of the zero blocks.

    Then t is invertible exactly when rank(t_Z) = z.  Let x * t_N + y * t_Z =
    0, with t_N the rows of t at the other positions N.  Times original *
    sigma(t)^t this reads x * D_N + y * D_Z = 0 for the rows D_N and D_Z of
    D.  The rows D_Z are zero, and D_N restricted to the columns N is the
    nonsingular D_NN, so x = 0 and then y * t_Z = 0.  So a nonsingular D
    needs no elimination, and a singular one the rank of a z x d matrix.
    """
    if certified and not zero_at:
        return True
    index = zero_at if certified else range(d)
    return rank(store.rows_at(index)) == len(index)


@dataclass(frozen=True)
class InvariantSummary:
    rank: int
    radical_dim: int
    j_blocks: int
    square_classes: Optional[tuple[int, int]]


def invariants_of(dec: Decomposition) -> InvariantSummary:
    """Congruence invariants readable from a decomposition.

    Over a prime field with the identity involution the square-class data is
    reported in discriminant form: (number of nonzero 1x1 blocks, parity of
    the count of non-residue values).  The parity, unlike the literal
    multiset of square classes, is the same for every decomposition of a
    given form, which is what makes the summary comparable across algorithms.
    """
    ring = dec.ring
    zero_blocks = len(_zero_positions(dec))
    j_blocks = sum(1 for b in dec.blocks if isinstance(b, JBlock))
    square_classes = None
    if isinstance(ring, PrimeField) and ring.involution == "identity":
        nonzero = 0
        nonresidues = 0
        for b in dec.blocks:
            if isinstance(b, ScalarBlock) and b.value != ring.zero:
                nonzero += 1
                if ring.p != 2 and _legendre(b.value, ring.p) == -1:
                    nonresidues += 1
        square_classes = (nonzero, nonresidues % 2)
    return InvariantSummary(
        rank=dec.dim - zero_blocks,
        radical_dim=dec.radical_dim,
        j_blocks=j_blocks,
        square_classes=square_classes,
    )


def brute_force_congruence(b1: Matrix, b2: Matrix, s: int) -> bool:
    """Exhaustive congruence test over small prime fields.

    Enumerates all invertible d x d matrices over GF(p) (d <= 3, p <= 7,
    identity involution) in chunks and checks A * b1 * A^t = b2.  A rank
    mismatch short-circuits to False.
    """
    ring = b1.ring
    if not isinstance(ring, PrimeField) or ring.involution != "identity":
        raise ValueError("brute force congruence runs over prime fields only")
    if ring.p > 7:
        raise ValueError("brute force congruence is limited to p <= 7")
    if b1.ring != b2.ring or b1.shape != b2.shape or b1.nrows != b1.ncols:
        raise ValueError("matrices must be square, same size, same ring")
    d = b1.nrows
    if d > 3:
        raise ValueError("brute force congruence is limited to d <= 3")
    if d == 0:
        return True
    if rank(b1) != rank(b2):
        return False
    from .kernel import congruent_by_enumeration

    return congruent_by_enumeration(b1, b2)
