"""The independent checker must catch every class of tampering it claims to."""

from __future__ import annotations

import random

import pytest

from orthoform import (
    BlockLeft,
    HermitianForm,
    Matrix,
    OpCounters,
    PrimeField,
    QuadraticField,
    ScalarBlock,
    Swap,
    brute_force_congruence,
    check_decomposition,
    counter_report,
    decompose_gs,
    invariants_of,
    random_form,
)
from helpers import snapshot

GF3 = PrimeField(3)
GF7 = PrimeField(7)
GF9 = QuadraticField(3, "frobenius")


def fresh_decomposition(ring=GF7, s=1, d=4, seed=70):
    rng = random.Random(seed)
    form = random_form(ring, s, d, rng)
    original = snapshot(form.m)
    return original, decompose_gs(form)


def test_honest_decomposition_passes_all_clauses():
    original, dec = fresh_decomposition()
    report = check_decomposition(original, 1, dec)
    assert report.passed
    assert report.as_dict() == {
        "transform_invertible": True,
        "congruence_matches": True,
        "blocks_standard": True,
        "radical_matches": True,
    }
    assert report.details == []


def test_tampered_block_value_fails_congruence():
    original, dec = fresh_decomposition()
    old = dec.blocks[0]
    dec.blocks[0] = ScalarBlock(GF7.add(old.value, 1))
    report = check_decomposition(original, 1, dec)
    assert not report.congruence_matches
    assert not report.passed


def test_tampered_log_fails_congruence_but_not_invertibility():
    original, dec = fresh_decomposition(seed=71)
    dec.log.append(Swap(0, 1))
    report = check_decomposition(original, 1, dec)
    assert report.transform_invertible
    assert not report.congruence_matches


@pytest.mark.parametrize("d", [4, 30])
def test_singular_log_fails_invertibility(d):
    # a zero block left-multiplied into the log makes the transform singular
    original, dec = fresh_decomposition(d=d, seed=75)
    dec.log.append(BlockLeft(Matrix.zeros(GF7, 1, 1), 0))
    report = check_decomposition(original, 1, dec)
    assert not report.transform_invertible
    assert not report.congruence_matches


def test_non_fixed_scalar_fails_the_standard_blocks_clause():
    # over GF(9) a diagonal entry must satisfy beta = sigma(beta); (0,1) does not
    original, dec = fresh_decomposition(GF9, 1, 3, seed=72)
    dec.blocks[0] = ScalarBlock((0, 1))
    report = check_decomposition(original, 1, dec)
    assert not report.blocks_standard


def test_wrong_block_sizes_fail():
    original, dec = fresh_decomposition(seed=73)
    dec.blocks.append(ScalarBlock(GF7.one))
    report = check_decomposition(original, 1, dec)
    assert not report.blocks_standard
    assert not report.passed


def test_radical_lie_is_caught_independently():
    rng = random.Random(74)
    form = random_form(GF7, 1, 5, rng, rank=3)
    original = snapshot(form.m)
    dec = decompose_gs(form)
    assert dec.radical_dim == 2
    dec.radical_dim = 1
    report = check_decomposition(original, 1, dec)
    assert not report.radical_matches
    assert report.congruence_matches  # the matrix itself was untouched


def test_dim_zero_is_vacuously_fine():
    original, dec = fresh_decomposition(d=0)
    assert check_decomposition(original, 1, dec).passed


def test_invariants_square_class_parity():
    form = HermitianForm.from_rows(GF7, [[3, 0], [0, 5]], 1)
    inv = invariants_of(decompose_gs(form))
    assert inv.rank == 2 and inv.radical_dim == 0 and inv.j_blocks == 0
    assert inv.square_classes == (2, 0)  # two non-residues cancel mod squares
    form = HermitianForm.from_rows(GF7, [[3, 0], [0, 1]], 1)
    assert invariants_of(decompose_gs(form)).square_classes == (2, 1)
    form = HermitianForm.from_rows(GF9, [[GF9.one]], 1)
    assert invariants_of(decompose_gs(form)).square_classes is None


def test_brute_force_on_known_pairs():
    # 2 = 3^2 mod 7, so diag(1,1) and diag(2,2) are congruent
    assert brute_force_congruence(Matrix.identity(GF7, 2), Matrix(GF7, [[2, 0], [0, 2]]), 1)
    assert brute_force_congruence(Matrix(GF7, [[1]]), Matrix(GF7, [[2]]), 1)
    # residue vs non-residue is the basic obstruction
    assert not brute_force_congruence(Matrix(GF7, [[1]]), Matrix(GF7, [[3]]), 1)
    # rank mismatch short-circuits
    assert not brute_force_congruence(Matrix(GF7, [[0]]), Matrix(GF7, [[1]]), 1)
    # hyperbolic plane over GF(3) has discriminant -1 = 2
    assert brute_force_congruence(
        Matrix(GF3, [[0, 1], [1, 0]]), Matrix(GF3, [[1, 0], [0, 2]]), 1
    )
    assert not brute_force_congruence(
        Matrix(GF3, [[0, 1], [1, 0]]), Matrix.identity(GF3, 2), 1
    )
    # d = 3 over GF(3), both directions of the classification
    assert brute_force_congruence(
        Matrix(GF3, [[0, 1, 0], [1, 0, 0], [0, 0, 1]]),
        Matrix(GF3, [[1, 0, 0], [0, 1, 0], [0, 0, 2]]),
        1,
    )
    assert not brute_force_congruence(
        Matrix(GF3, [[0, 1, 0], [1, 0, 0], [0, 0, 1]]), Matrix.identity(GF3, 3), 1
    )


def test_brute_force_alternating():
    assert brute_force_congruence(
        Matrix(GF3, [[0, 1], [2, 0]]), Matrix(GF3, [[0, 2], [1, 0]]), -1
    )


def test_brute_force_guards():
    with pytest.raises(ValueError):
        brute_force_congruence(Matrix.identity(PrimeField(11), 1), Matrix.identity(PrimeField(11), 1), 1)
    with pytest.raises(ValueError):
        brute_force_congruence(Matrix.identity(GF3, 4), Matrix.identity(GF3, 4), 1)
    with pytest.raises(ValueError):
        brute_force_congruence(Matrix.identity(GF9, 2), Matrix.identity(GF9, 2), 1)
    with pytest.raises(ValueError):
        brute_force_congruence(Matrix.identity(GF3, 2), Matrix.identity(GF3, 1), 1)


def test_counter_report_ratios_and_flags():
    counters = OpCounters(
        additions=1000, multiplications=1100, inversions=9, equality_tests=45, sigma_applications=0
    )
    report = counter_report(counters, 10, 1)
    e = 9
    assert report.ratios["additions"] == pytest.approx(1000 / (e**3 / 3))
    assert report.ratios["inversions"] == pytest.approx(1.0)
    assert report.ratios["equality_tests"] == pytest.approx(1.0)
    assert report.ratios["sigma_applications"] == 0.0
    # 4.1x the cubic model is far outside the default band
    assert any("additions" in flag for flag in report.flags)


def test_counter_report_handles_degenerate_denominators():
    report = counter_report(OpCounters(), 1, 1)
    assert report.ratios["additions"] is None
    assert report.ratios["inversions"] is None
    assert report.ratios["equality_tests"] is None
    assert report.ratios["sigma_applications"] is None
    assert report.flags == []


def test_counter_report_custom_bands():
    counters = OpCounters(additions=10, multiplications=10, inversions=2, equality_tests=3, sigma_applications=0)
    report = counter_report(counters, 3, 0, bands={"inversions": (0.0, 0.5)})
    assert report.flags and "inversions" in report.flags[0]
