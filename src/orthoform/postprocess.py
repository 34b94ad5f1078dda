"""Post-passes on finished decompositions.

These operate on the block list and transformation log only: every rewrite
appends the congruence operations that realize it, so the defining identity
(materialized transform) * B_input * (its sigma-transpose) = direct sum
stays true after each pass.  Each reorder of the blocks is logged as one
permutation of row-columns with the fewest swaps (`form.transpositions`), at
most d - 1 of them, and each merge or rewrite as one BlockLeft per pair.
Every small transform is checked on every call by one ``congruates`` from
the ``direct_sum`` of the blocks it rewrites to that of the blocks it makes;
the canonical sort rescales with ``normalize_scalar_block`` and rewrites a
pair of non-residues with ``pair_rescale``.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Optional

from .form import BlockLeft, Scale, Swap, transpositions
from .gs import Decomposition, JBlock, ScalarBlock, direct_sum
from .matrix import Matrix, congruates
from .rings import (
    PrimeField,
    QuadraticField,
    RationalField,
    RationalQuaternions,
    Ring,
    solve_norm_equation,
    sqrt_in_prime_field,
)


def _inverse_root(a: Fraction) -> Optional[Fraction]:
    """1 / sqrt(a) for a positive rational square a, else None."""
    if a <= 0:
        return None
    rn, rd = math.isqrt(a.numerator), math.isqrt(a.denominator)
    return Fraction(rd, rn) if rn * rn == a.numerator and rd * rd == a.denominator else None


def normalize_scalar_block(ring: Ring, alpha) -> Optional[object]:
    """A unit gamma with gamma * alpha * sigma(gamma) = 1, or None.

    Availability by ring: GF(p) needs alpha to be a square; GF(p^2) with the
    Frobenius always succeeds (the norm is onto); the rationals need a
    positive square of a rational; quaternions need a real positive square of
    a rational (the implemented slice of the general norm equation).
    """
    alpha = ring.validate_scalar(alpha)
    if alpha == ring.zero:
        return None
    gamma = None
    if isinstance(ring, PrimeField):
        gamma = sqrt_in_prime_field(ring, ring.inv(alpha))
    elif isinstance(ring, QuadraticField):
        if ring.involution == "frobenius" and alpha == ring.sigma(alpha):
            gamma = solve_norm_equation(ring, ring.inv(alpha))
    elif isinstance(ring, RationalField):
        gamma = _inverse_root(alpha)
    elif isinstance(ring, RationalQuaternions):
        w, x, y, z = alpha
        root = _inverse_root(w) if x == y == z == 0 else None
        if root is not None:
            gamma = (root, Fraction(0), Fraction(0), Fraction(0))
    if gamma is None:
        return None
    gamma = ring.validate_scalar(gamma)
    if ring.mul(ring.mul(gamma, alpha), ring.sigma(gamma)) != ring.one:
        raise ArithmeticError("normalization witness failed its defining identity")
    return gamma


def pair_rescale(ring: Ring, gamma, delta) -> tuple[Matrix, object]:
    """The 2x2 transform [[gamma, delta], [sigma(delta), -sigma(gamma)]].

    Congruating diag(1, 1) by it gives diag(alpha, alpha) with
    alpha = gamma*sigma(gamma) + delta*sigma(delta); the identity is checked
    on every call.  Commutative rings only.

    Raises:
        ValueError: noncommutative ring, or a degenerate pair (alpha = 0).
    """
    if not ring.is_commutative:
        raise ValueError("pair rescaling is defined over commutative rings only")
    gamma = ring.validate_scalar(gamma)
    delta = ring.validate_scalar(delta)
    alpha = ring.add(
        ring.mul(gamma, ring.sigma(gamma)), ring.mul(delta, ring.sigma(delta))
    )
    if alpha == ring.zero:
        raise ValueError("degenerate pair: gamma*sigma(gamma) + delta*sigma(delta) = 0")
    a = Matrix(
        ring,
        [[gamma, delta], [ring.sigma(delta), ring.neg(ring.sigma(gamma))]],
        validate=False,
    )
    if not congruates(a, Matrix.identity(ring, 2), direct_sum(ring, 1, [ScalarBlock(alpha)] * 2)):
        raise ArithmeticError("pair rescale transform failed its defining identity")
    return a, alpha


def char2_triple(ring: Ring, alpha) -> Matrix:
    """Over characteristic 2: the 3x3 transform taking J + [alpha] to
    diag(alpha, alpha, alpha); verified on every call.

    Raises:
        ValueError: characteristic is not 2 or alpha is 0.
    """
    if ring.characteristic != 2:
        raise ValueError("this transform lives in characteristic 2")
    alpha = ring.validate_scalar(alpha)
    if alpha == ring.zero:
        raise ValueError("alpha must be nonzero")
    one, zero = ring.one, ring.zero
    t = Matrix(ring, [[zero, alpha, one], [one, alpha, one], [one, zero, one]], validate=False)
    source = direct_sum(ring, 1, [JBlock(), ScalarBlock(alpha)])
    if not congruates(t, source, direct_sum(ring, 1, [ScalarBlock(alpha)] * 3)):
        raise ArithmeticError("triple transform failed its defining identity")
    return t


def _block_starts(blocks: list) -> list[int]:
    return list(itertools.accumulate((b.size for b in blocks), initial=0))


def _reorder(dec: Decomposition, order: list[int]) -> None:
    """Put block order[t] at index t, logging the fewest row-column swaps."""
    starts = _block_starts(dec.blocks)
    positions = [p for b in order for p in range(starts[b], starts[b] + dec.blocks[b].size)]
    for t, p in transpositions(positions):
        dec.log.append(Swap(t, p))
    dec.blocks[:] = [dec.blocks[b] for b in order]


def _pair_up(dec: Decomposition, partner: dict[int, int]) -> list[int]:
    """Reorder so that block partner[i] follows block i, the other blocks
    keeping their order; returns the new indices of the blocks i, ascending."""
    taken = set(partner.values())
    order = []
    for i in range(len(dec.blocks)):
        if i not in taken:
            order.append(i)
            if i in partner:
                order.append(partner[i])
    _reorder(dec, order)
    return [t for t, i in enumerate(order) if i in partner]


def maximize_j_blocks(dec: Decomposition) -> Decomposition:
    """Fuse every pair of 1x1 blocks with opposite nonzero values into a
    [[0,1],[1,0]] block.

    Each block, left to right, pairs with the first later unpaired block of
    the opposite value; one permutation brings the partners together and one
    merge per pair follows.  Applies over commutative rings with the identity
    involution, s = 1, and characteristic other than 2; in any other setting,
    and when no pair qualifies, the decomposition is returned unchanged.
    """
    ring = dec.ring
    if not (
        ring.is_commutative
        and ring.involution == "identity"
        and dec.s == 1
        and ring.characteristic != 2
    ):
        return dec
    partner: dict[int, int] = {}
    taken: set[int] = set()
    for i, bi in enumerate(dec.blocks):
        if i in taken or not isinstance(bi, ScalarBlock) or bi.value == ring.zero:
            continue
        wanted = ScalarBlock(ring.neg(bi.value))
        j = next((j for j in range(i + 1, len(dec.blocks)) if j not in taken and dec.blocks[j] == wanted), None)
        if j is not None:
            partner[i] = j
            taken.add(j)
    heads = _pair_up(dec, partner)
    starts = _block_starts(dec.blocks)
    for t in heads:
        alpha = dec.blocks[t].value
        half = ring.inv(ring.mul(ring.from_int(2), alpha))
        merge = Matrix(ring, [[ring.one, ring.one], [half, ring.neg(half)]], validate=False)
        source = direct_sum(ring, dec.s, [ScalarBlock(alpha), ScalarBlock(ring.neg(alpha))])
        if not congruates(merge, source, direct_sum(ring, dec.s, [JBlock()])):
            raise ArithmeticError("pair merge transform failed its defining identity")
        dec.log.append(BlockLeft(merge, starts[t]))
    for t in reversed(heads):
        dec.blocks[t : t + 2] = [JBlock()]
    return dec


def _two_square_split(ring: PrimeField, target: int) -> tuple[int, int]:
    """gamma, delta with gamma^2 + delta^2 = target mod p (p odd): the least
    gamma with target - gamma^2 a square, and the larger root of that square."""
    for g in range(ring.p):
        r = sqrt_in_prime_field(ring, target - g * g)
        if r is not None:
            return g, -r % ring.p
    raise ArithmeticError(f"{target} is not a sum of two squares mod {ring.p}")


def sort_blocks_canonical(dec: Decomposition) -> Decomposition:
    """Canonicalize over a prime field with the identity involution, p odd.

    Nonzero 1x1 blocks are rescaled to 1 or to the least non-residue n; pairs
    of n-blocks, the first with the second and so on, are brought together by
    one permutation and rewritten to pairs of 1-blocks (their direct sum is
    congruent to the identity); finally one stable permutation orders the
    blocks [[0,1],[s,0]]-blocks, 1-blocks, the at-most-one n-block, zeros.

    Raises:
        ValueError: ring is not GF(p) with p odd and the identity involution.
    """
    ring = dec.ring
    if not isinstance(ring, PrimeField) or ring.p == 2 or ring.involution != "identity":
        raise ValueError("canonical sorting is defined over odd prime fields")
    n = ring.smallest_nonresidue()
    starts = _block_starts(dec.blocks)
    for i, block in enumerate(dec.blocks):
        if not isinstance(block, ScalarBlock) or block.value == ring.zero:
            continue
        gamma, value = normalize_scalar_block(ring, block.value), ring.one
        if gamma is None:
            gamma, value = normalize_scalar_block(ring, ring.mul(block.value, ring.inv(n))), n
        if gamma != ring.one:
            dec.log.append(Scale(starts[i], gamma))
        dec.blocks[i] = ScalarBlock(value)
    heavy = [i for i, b in enumerate(dec.blocks) if isinstance(b, ScalarBlock) and b.value == n]
    heads = _pair_up(dec, dict(zip(heavy[::2], heavy[1::2])))
    starts = _block_starts(dec.blocks)
    if heads:
        a, _ = pair_rescale(ring, *_two_square_split(ring, n))
        scale = ring.inv(n)
        q = Matrix(ring, [[ring.mul(scale, v) for v in row] for row in a.rows], validate=False)
        if not congruates(q, direct_sum(ring, 1, [ScalarBlock(n)] * 2), Matrix.identity(ring, 2)):
            raise ArithmeticError("non-residue pair rewrite failed its defining identity")
    for t in heads:
        dec.log.append(BlockLeft(q, starts[t]))
        dec.blocks[t] = dec.blocks[t + 1] = ScalarBlock(ring.one)

    def key(block) -> int:
        if isinstance(block, JBlock):
            return 0
        if block.value == ring.one:
            return 1
        if block.value == n:
            return 2
        if block.value == ring.zero:
            return 3
        raise AssertionError("unnormalized block survived normalization")

    _reorder(dec, sorted(range(len(dec.blocks)), key=lambda i: key(dec.blocks[i])))
    return dec
