"""The sequential decomposition: frozen small cases, random sweeps, counters."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from orthoform import (
    HermitianForm,
    JBlock,
    Matrix,
    PrimeField,
    QuadraticField,
    RationalField,
    RationalQuaternions,
    ScalarBlock,
    check_decomposition,
    decompose_gs,
    random_form,
    standardize,
    standardize_at,
)
from orthoform.form import BlockLeft, Eliminate, Scale, Swap
from orthoform.gs import sweep
from helpers import SPLIT_RINGS, snapshot
from test_acceptance import LEADING_BAND

GF7 = PrimeField(7)
GF2 = PrimeField(2)
GF9 = QuadraticField(3, "frobenius")
QQ = RationalField()
HH = RationalQuaternions()


def values(dec):
    return ["J" if isinstance(b, JBlock) else b.value for b in dec.blocks]


def test_already_diagonal_passes_through():
    form = HermitianForm.from_rows(GF7, [[3, 0], [0, 5]], 1)
    dec = decompose_gs(form)
    assert values(dec) == [3, 5]
    assert dec.radical_dim == 0
    assert len(dec.log) == 0


def test_frozen_isotropic_leading_pair():
    # hyperbolic 2x2 in front, anisotropic 5 behind; the pair standardizes
    # into [2] and [-2] = [5] over GF(7)
    form = HermitianForm.from_rows(GF7, [[0, 1, 0], [1, 0, 0], [0, 0, 5]], 1)
    dec = decompose_gs(form)
    assert values(dec) == [2, 5, 5]
    assert dec.isotropic_steps == 1
    rep = check_decomposition(Matrix(GF7, [[0, 1, 0], [1, 0, 0], [0, 0, 5]]), 1, dec)
    assert rep.passed, rep.details


def test_zero_matrix_is_pure_radical():
    d = 5
    form = HermitianForm.from_rows(GF7, [[0] * d for _ in range(d)], 1)
    dec = decompose_gs(form)
    assert values(dec) == [0] * d
    assert dec.radical_dim == d
    assert dec.counters.inversions == 0
    swaps = [op for op in dec.log if isinstance(op, Swap)]
    assert len(swaps) == d - 1  # final singleton window needs no swap


def test_alternating_form_gives_j_blocks():
    form = HermitianForm.from_rows(QQ, [[0, 2], [-2, 0]], -1)
    dec = decompose_gs(form)
    assert values(dec) == ["J"]
    rep = check_decomposition(Matrix(QQ, [[0, 2], [-2, 0]]), -1, dec)
    assert rep.passed, rep.details


def test_char2_isotropic_pair_stays_a_j_block():
    # alpha = 0 and no 2^{-1} available: the pair cannot split over GF(2)
    form = HermitianForm.from_rows(GF2, [[0, 1], [1, 0]], 1)
    dec = decompose_gs(form)
    assert values(dec) == ["J"]


def test_radical_vectors_move_to_the_tail():
    form = HermitianForm.from_rows(GF7, [[0, 0, 0], [0, 3, 0], [0, 0, 0]], 1)
    dec = decompose_gs(form)
    assert values(dec) == [3, 0, 0]
    assert dec.radical_dim == 2
    rep = check_decomposition(Matrix(GF7, [[0, 0, 0], [0, 3, 0], [0, 0, 0]]), 1, dec)
    assert rep.passed


def test_standardize_builds_and_splits():
    log, blocks = standardize(GF7, 1, 3)
    assert [b.value for b in blocks] == [2, 3]  # [-s*alpha^{-1}] = [-5] = [2], then [alpha]
    log2, blocks2 = standardize(GF7, 1, 0)
    assert [b.value for b in blocks2] == [2, 5]
    log3, blocks3 = standardize(GF2, 1, 0)
    assert isinstance(blocks3[0], JBlock)
    with pytest.raises(ValueError):
        standardize(GF9, 1, (1, 1))  # alpha must satisfy the symmetry law


@pytest.mark.parametrize("alpha", [10, -3, "x"], ids=repr)
def test_standardize_rejects_a_corner_outside_the_ring(alpha):
    # as normalize_scalar_block, pair_rescale and char2_triple do, it
    # validates alpha before building the corner, rather than emitting
    # ScalarBlock(10) or failing with a TypeError
    with pytest.raises(ValueError):
        standardize(GF7, 1, alpha)


def test_standardize_at_respects_the_window():
    # surrounding entries outside [1, 3) must not move
    form = HermitianForm.from_rows(GF7, [[4, 0, 0, 0], [0, 0, 1, 0], [0, 1, 3, 0], [0, 0, 0, 6]], 1)
    blocks = standardize_at(form, 1)
    assert [b.value for b in blocks] == [2, 3]
    assert form.m.rows[0][0] == 4 and form.m.rows[3][3] == 6
    assert form.m.rows[1][1] == 2 and form.m.rows[2][2] == 3
    assert form.m.rows[1][2] == 0 and form.m.rows[2][1] == 0


SWEEP = [
    (GF7, 1),
    (GF7, -1),
    (GF2, 1),
    (GF9, 1),
    (QQ, 1),
    (QQ, -1),
    (HH, 1),
]


@pytest.mark.parametrize("ring,s", SWEEP, ids=lambda v: str(v))
def test_sweep_verifies_and_orders_blocks(ring, s):
    rng = random.Random(42)
    for _ in range(25):
        d = rng.randrange(0, 8)
        form = random_form(ring, s, d, rng)
        original = snapshot(form.m)
        dec = decompose_gs(form)
        rep = check_decomposition(original, s, dec)
        assert rep.passed, (repr(ring), s, d, rep.details)
        # zero blocks trail, and sizes tile the dimension
        vals = values(dec)
        if 0 in [v for v in vals if v != "J"]:
            first = vals.index(0)
            assert all(v == 0 for v in vals[first:])
        assert sum(b.size for b in dec.blocks) == d


def test_rank_deficient_sweep():
    rng = random.Random(43)
    for ring, s in [(GF7, 1), (QQ, -1)]:
        for _ in range(20):
            d = rng.randrange(2, 8)
            r = rng.randrange(0, d + 1)
            if s == -1:
                r -= r % 2
            form = random_form(ring, s, d, rng, rank=r)
            original = snapshot(form.m)
            dec = decompose_gs(form)
            assert dec.radical_dim == d - r
            assert check_decomposition(original, s, dec).passed


def test_counter_budget_on_dense_forms():
    # upper bounds from the cost analysis: inversions <= d + 2 per isotropic
    # step, equality tests <= d(d-1)/2 + d, involution applications only in
    # the isotropic branch (at most ~3d per step) over a prime field
    rng = random.Random(44)
    for _ in range(10):
        d = 24
        form = random_form(PrimeField(101), 1, d, rng)
        dec = decompose_gs(form)
        assert dec.counters.inversions <= d + 2 * dec.isotropic_steps
        assert dec.counters.equality_tests <= d * (d - 1) // 2 + d
        assert dec.counters.sigma_applications <= 3 * d * dec.isotropic_steps


def test_each_pivot_logs_one_elimination():
    # a row-column clear logs its whole row pass as one Eliminate: at most one
    # per anisotropic pivot and three per isotropic pair (two clears and the
    # corner's transvection), however many rows each one clears
    rng = random.Random(58)
    for ring, s in [(PrimeField(101), 1), (PrimeField(101), -1), (GF9, 1), (QQ, 1), (HH, 1)]:
        d = 16
        dec = decompose_gs(random_form(ring, s, d, rng))
        elims = [op for op in dec.log if isinstance(op, Eliminate)]
        assert len(elims) <= d + dec.isotropic_steps
        assert sum(len(op.targets) for op in elims) > 2 * d


@pytest.mark.parametrize("diagonal", [[1] * 12, list(range(2, 10))], ids=["identity", "diag-2-to-9"])
def test_all_anisotropic_equality_count_is_exact(diagonal):
    # every step takes the diagonal branch: one diagonal test per step and
    # one test per unordered pair during the clears, no more.  A pivot with
    # nothing to clear is never inverted, whatever its value
    d = len(diagonal)
    form = HermitianForm.from_rows(
        PrimeField(101), [[(v if i == j else 0) for j in range(d)] for i, v in enumerate(diagonal)], 1
    )
    dec = decompose_gs(form)
    assert len(dec.log) == 0
    assert dec.counters.equality_tests == d * (d - 1) // 2 + d
    assert dec.counters.inversions == 0
    assert dec.counters.sigma_applications == 0


def test_evaluate_agrees_before_and_after():
    # the decomposition is a change of basis: b(A^t e_i, A^t e_j) must equal
    # the block matrix entry; spot-check via the materialized transform
    from orthoform import matmul

    rng = random.Random(45)
    form = random_form(GF9, 1, 5, rng)
    original = snapshot(form.m)
    dec = decompose_gs(form)
    a = dec.log.materialize(GF9)
    product = matmul(matmul(a, original), a.sigma_transpose())
    assert product == dec.direct_sum_matrix()


@pytest.mark.parametrize(
    "ring, s, d",
    [(PrimeField(1009), -1, 96), (GF9, 1, 64)],
    ids=["gf1009-alternating", "gf9-hermitian"],
)
def test_isotropic_pairs_keep_the_papers_leading_term(ring, s, d):
    # criterion 3's band of d^3/3 on forms whose sweep takes isotropic steps:
    # 48 pairs cover the alternating form, 17 pairs 34 of the Hermitian
    # form's 64 positions.  A pair costs two row passes, as two anisotropic
    # pivots do; a column pass per pair would read about 2.0 and 1.5 here.
    dec = decompose_gs(random_form(ring, s, d, random.Random(3)))
    assert dec.isotropic_steps >= 17
    lo, hi = LEADING_BAND
    cube = d**3 / 3
    assert lo <= dec.counters.additions / cube <= hi
    assert lo <= dec.counters.multiplications / cube <= hi


def _shifted(op, lo):
    """A sweep's log op moved down the diagonal by lo."""
    if isinstance(op, Swap):
        return Swap(op.i + lo, op.j + lo)
    if isinstance(op, Scale):
        return replace(op, index=op.index + lo)
    if isinstance(op, Eliminate):
        return replace(op, source=op.source + lo, targets=tuple(t + lo for t in op.targets))
    assert isinstance(op, BlockLeft)
    return replace(op, offset=op.offset + lo)


@pytest.mark.parametrize("case", sorted(SPLIT_RINGS))
def test_sweep_of_a_window_is_the_sweep_of_the_window_alone(case):
    # a form embedded at [lo, hi) of a larger zero form: the sweep of that
    # window emits the same blocks and the same log, moved down by lo, as
    # decompose_gs of the form alone, and touches nothing outside the window
    ring, s = SPLIT_RINGS[case]
    rng = random.Random(71)
    d, lo = 13, 3
    for e, rank in [(8, None), (8, 4), (7, None), (5, 2), (1, None), (0, None)]:
        small = random_form(ring, s, e, rng, rank=rank)
        rows = [[ring.zero] * d for _ in range(d)]
        for row, new in zip(rows[lo : lo + e], small.m.rows):
            row[lo : lo + e] = new
        form = HermitianForm(ring, Matrix(ring, rows), s)
        blocks, end, steps = sweep(form, lo, lo + e)
        alone = decompose_gs(small)
        assert blocks + [ScalarBlock(ring.zero)] * (lo + e - end) == alone.blocks
        assert lo + e - end == alone.radical_dim
        assert steps == alone.isotropic_steps
        assert list(form.log) == [_shifted(op, lo) for op in alone.log]
        assert form.m.submatrix(lo, lo + e, lo, lo + e) == small.m
        outside = [
            form.m.rows[r][c]
            for r in range(d)
            for c in range(d)
            if not (lo <= r < lo + e and lo <= c < lo + e)
        ]
        assert all(v == ring.zero for v in outside)
