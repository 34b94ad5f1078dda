"""Optional passes applied after a decomposition: rescale, merge, sort."""

from __future__ import annotations

import hashlib
import math
import random
import sys
from fractions import Fraction

import pytest

from orthoform import (
    BlockLeft,
    HermitianForm,
    JBlock,
    Matrix,
    PrimeField,
    QuadraticField,
    RationalField,
    RationalQuaternions,
    Swap,
    char2_triple,
    check_decomposition,
    decompose_blocks,
    decompose_gs,
    maximize_j_blocks,
    normalize_scalar_block,
    pair_rescale,
    random_form,
    sort_blocks_canonical,
)
from orthoform import postprocess
from orthoform.postprocess import _two_square_split
from helpers import snapshot

GF7 = PrimeField(7)
GF3 = PrimeField(3)
GF2 = PrimeField(2)
GF9 = QuadraticField(3, "frobenius")
QQ = RationalField()
HH = RationalQuaternions()


def test_normalize_scalar_gf7_table():
    # residues get a rescaler, non-residues and zero do not
    results = {a: normalize_scalar_block(GF7, a) for a in range(7)}
    assert results[0] is None
    for a in (1, 2, 4):
        g = results[a]
        assert g is not None and GF7.mul(GF7.mul(g, a), g) == 1
    for a in (3, 5, 6):
        assert results[a] is None


def test_normalize_scalar_gf9_always_succeeds():
    # the norm map of GF(9)/GF(3) is onto, so every sigma-fixed nonzero
    # diagonal value rescales to 1
    for a in range(3):
        for b in range(3):
            v = (a, b)
            if v == GF9.zero or GF9.sigma(v) != v:
                continue
            g = normalize_scalar_block(GF9, v)
            assert g is not None
            assert GF9.mul(GF9.mul(g, v), GF9.sigma(g)) == GF9.one


def test_normalize_scalar_rationals_and_quaternions():
    assert normalize_scalar_block(QQ, Fraction(4, 9)) == Fraction(3, 2)
    assert normalize_scalar_block(QQ, Fraction(2)) is None
    assert normalize_scalar_block(QQ, Fraction(-4)) is None
    nine_quarters = (Fraction(9, 4), Fraction(0), Fraction(0), Fraction(0))
    g = normalize_scalar_block(HH, nine_quarters)
    assert g is not None
    assert HH.mul(HH.mul(g, nine_quarters), HH.sigma(g)) == HH.one
    assert normalize_scalar_block(HH, HH.from_int(2)) is None
    assert normalize_scalar_block(HH, (Fraction(0), Fraction(1), Fraction(0), Fraction(0))) is None


def test_pair_rescale_produces_equal_diagonal():
    from orthoform import matmul

    a, alpha = pair_rescale(GF7, 3, 5)
    assert alpha == (3 * 3 + 5 * 5) % 7
    target = Matrix(GF7, [[alpha, 0], [0, alpha]])
    assert matmul(a, a.sigma_transpose()) == target
    with pytest.raises(ValueError):
        pair_rescale(HH, HH.one, HH.one)
    # gamma^2 + delta^2 = 0 has solutions mod 5; the pair (1, 2) degenerates
    with pytest.raises(ValueError):
        pair_rescale(PrimeField(5), 1, 2)


def test_char2_triple_merges_plane_plus_point_into_a_diagonal():
    # over GF(2) this is the [1] + J = I_3 rewrite, the reason J counts are
    # not invariant there
    from orthoform import matmul

    t = char2_triple(GF2, 1)
    source = Matrix(GF2, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    product = matmul(matmul(t, source), t.sigma_transpose())
    assert product == Matrix.identity(GF2, 3)
    with pytest.raises(ValueError):
        char2_triple(GF7, 1)
    with pytest.raises(ValueError):
        char2_triple(GF2, 0)


def test_maximize_j_blocks_on_opposite_pair():
    form = HermitianForm.from_rows(GF7, [[2, 0, 0], [0, 5, 0], [0, 0, 3]], 1)
    original = snapshot(form.m)
    dec = maximize_j_blocks(decompose_gs(form))
    kinds = ["J" if isinstance(b, JBlock) else b.value for b in dec.blocks]
    assert kinds == ["J", 3]
    rep = check_decomposition(original, 1, dec)
    assert rep.passed, rep.details


def test_maximize_j_blocks_is_a_noop_outside_its_scope():
    # s = -1, non-identity involution, char 2: all precondition failures
    form = HermitianForm.from_rows(QQ, [[0, 1], [-1, 0]], -1)
    dec = decompose_gs(form)
    before = list(dec.blocks)
    assert maximize_j_blocks(dec).blocks == before
    form = HermitianForm.from_rows(GF9, [[GF9.one]], 1)
    dec = decompose_gs(form)
    assert len(maximize_j_blocks(dec).blocks) == 1
    form = HermitianForm.from_rows(GF2, [[1]], 1)
    dec = decompose_gs(form)
    assert len(maximize_j_blocks(dec).blocks) == 1


def test_maximize_j_blocks_random_sweep_preserves_congruence():
    rng = random.Random(60)
    for _ in range(40):
        d = rng.randrange(1, 7)
        form = random_form(GF7, 1, d, rng)
        original = snapshot(form.m)
        dec = maximize_j_blocks(decompose_gs(form))
        assert check_decomposition(original, 1, dec).passed


def test_sort_blocks_canonical_shape_and_congruence():
    rng = random.Random(61)
    for ring in (GF3, GF7):
        n = ring.smallest_nonresidue()
        order = {"J": 0, 1: 1, n: 2, 0: 3}
        for _ in range(40):
            d = rng.randrange(1, 7)
            form = random_form(ring, 1, d, rng)
            original = snapshot(form.m)
            dec = sort_blocks_canonical(decompose_gs(form))
            assert check_decomposition(original, 1, dec).passed
            vals = ["J" if isinstance(b, JBlock) else b.value for b in dec.blocks]
            assert sum(1 for v in vals if v == n) <= 1
            keys = [order[v] for v in vals]
            assert keys == sorted(keys)


def test_sort_rewrites_nonresidue_pairs():
    # diag(3, 5) over GF(7): both non-residues, the pair is congruent to I_2
    form = HermitianForm.from_rows(GF7, [[3, 0], [0, 5]], 1)
    original = snapshot(form.m)
    dec = sort_blocks_canonical(decompose_gs(form))
    assert [b.value for b in dec.blocks] == [1, 1]
    assert check_decomposition(original, 1, dec).passed


def test_sort_applies_after_the_block_algorithm_too():
    rng = random.Random(62)
    for _ in range(20):
        d = rng.randrange(1, 7)
        form = random_form(GF3, 1, d, rng)
        original = snapshot(form.m)
        dec = sort_blocks_canonical(decompose_blocks(form))
        assert check_decomposition(original, 1, dec).passed


def test_sort_rejects_unsupported_rings():
    for ring in (GF2, GF9):
        one = ring.one
        form = HermitianForm.from_rows(ring, [[one]], 1)
        with pytest.raises(ValueError):
            sort_blocks_canonical(decompose_gs(form))
    form = HermitianForm.from_rows(QQ, [[1]], 1)
    with pytest.raises(ValueError):
        sort_blocks_canonical(decompose_gs(form))


def test_canonical_forms_separate_known_congruence_classes():
    # rank 2 over GF(3): diag(1,1) and diag(1,2) are the two classes;
    # their canonical lists must differ, and scrambled copies must land on
    # the same list as their representative
    def canon(rows):
        form = HermitianForm.from_rows(GF3, rows, 1)
        dec = sort_blocks_canonical(decompose_gs(form))
        return tuple("J" if isinstance(b, JBlock) else b.value for b in dec.blocks)

    assert canon([[1, 0], [0, 1]]) != canon([[1, 0], [0, 2]])
    # [[0,1],[1,0]] has discriminant -1 = 2: same class as diag(1,2)
    assert canon([[0, 1], [1, 0]]) == canon([[1, 0], [0, 2]])
    assert canon([[2, 0], [0, 2]]) == canon([[1, 0], [0, 1]])


GF101 = PrimeField(101)
GF1009 = PrimeField(1009)

# Inputs of the post-pass pins: (ring, dim, rank, seed) for a random form, or
# the values of a diagonal form over Q, whose opposite pairs a random
# rational form would almost never produce.
POST_PIN_INPUTS = {
    "gf7-dense": (GF7, 14, None, 70),
    "gf7-deficient": (GF7, 14, 9, 71),
    "gf101-dense": (GF101, 16, None, 72),
    "gf101-deficient": (GF101, 16, 11, 73),
    "gf101-wide": (GF101, 40, 33, 77),
    "gf1009-dense": (GF1009, 16, None, 74),
    "gf1009-deficient": (GF1009, 16, 11, 75),
    "q-dense": (QQ, 8, None, 76),
    "q-diagonal": [3, -1, 2, 0, 1, -3, Fraction(1, 2), -2, 1, Fraction(-1, 2), -1, 5],
}

POST_PASSES = {
    "maxj": (maximize_j_blocks,),
    "sort": (sort_blocks_canonical,),
    "maxj+sort": (maximize_j_blocks, sort_blocks_canonical),
}

POST_PIN_CASES = [
    ("maxj", "gf7-dense"), ("maxj", "gf7-deficient"), ("maxj", "gf101-dense"),
    ("maxj", "gf101-deficient"), ("maxj", "q-dense"), ("maxj", "q-diagonal"),
    ("sort", "gf7-dense"), ("sort", "gf7-deficient"), ("sort", "gf101-dense"),
    ("sort", "gf101-deficient"), ("sort", "gf1009-dense"), ("sort", "gf1009-deficient"),
    ("maxj+sort", "gf7-dense"), ("maxj+sort", "gf7-deficient"),
    ("maxj+sort", "gf101-dense"), ("maxj+sort", "gf1009-deficient"),
    ("maxj", "gf101-wide"), ("sort", "gf101-wide"), ("maxj+sort", "gf101-wide"),
]


def _post_pin_form(name):
    spec = POST_PIN_INPUTS[name]
    if isinstance(spec, list):
        d = len(spec)
        rows = [[Fraction(v) if i == j else Fraction(0) for j in range(d)] for i, v in enumerate(spec)]
        return HermitianForm.from_rows(QQ, rows, 1)
    ring, d, rank, seed = spec
    return random_form(ring, 1, d, random.Random(seed), rank=rank)


def _post_pin_digests(passes, name):
    """Per decomposer, the first 16 hex digits of the sha256 of the blocks and
    of the materialized transform after the post-passes."""
    out = {}
    for algo, decompose in (("gs", decompose_gs), ("blocks", decompose_blocks)):
        form = _post_pin_form(name)
        original = snapshot(form.m)
        dec = decompose(form)
        for post in POST_PASSES[passes]:
            dec = post(dec)
        assert check_decomposition(original, 1, dec).passed
        out[algo] = tuple(
            hashlib.sha256(repr(value).encode()).hexdigest()[:16]
            for value in (repr(dec.blocks), dec.log.materialize(dec.ring).rows)
        )
    return out


# Per (passes, input) and per decomposer, the digests of _post_pin_digests.
# A pass may log other swaps, but the blocks and the transform it reaches
# stay fixed.
POST_PIN_DIGESTS = {
    ('maxj', 'gf7-dense'): (
        ('05ee8e668848b6bb', '57d95d81a224b70b'),
        ('8dcae66221f5706d', '78c2200fc1dfafd3'),
    ),
    ('maxj', 'gf7-deficient'): (
        ('0c8745135fbaf070', 'beb7ebfce9eb5859'),
        ('9b1d5f7170cd1d6e', '8162ad4eb5eb2ed3'),
    ),
    ('maxj', 'gf101-dense'): (
        ('537a300fd63a264f', '0b0ef9429089df0f'),
        ('537a300fd63a264f', '0b0ef9429089df0f'),
    ),
    ('maxj', 'gf101-deficient'): (
        ('49016b5cba59bf4f', 'c21d5702060c987b'),
        ('7b3444a70d9924a5', 'f4dbca40b3774787'),
    ),
    ('maxj', 'q-dense'): (
        ('b6ecfe4f45dfc0e5', '0164e36e7b761695'),
        ('b6ecfe4f45dfc0e5', '0164e36e7b761695'),
    ),
    ('maxj', 'q-diagonal'): (
        ('af2f4a7dd2af7a8b', 'e8feab79611c3d15'),
        ('ebaebf38dd68f459', '1f15f00c4058c11f'),
    ),
    ('sort', 'gf7-dense'): (
        ('65ddbd003aa6045e', '5d3a1b406a867c86'),
        ('65ddbd003aa6045e', 'a621327fe6ab7dd0'),
    ),
    ('sort', 'gf7-deficient'): (
        ('a015482cb1a2a461', '4f2e82fa8537c1c6'),
        ('a015482cb1a2a461', '0e3f889951207e5f'),
    ),
    ('sort', 'gf101-dense'): (
        ('ff87128d067dc158', 'b36ad79730ba2620'),
        ('ff87128d067dc158', 'b36ad79730ba2620'),
    ),
    ('sort', 'gf101-deficient'): (
        ('02faaf96b1efff43', '1e35d77f0bb44d75'),
        ('02faaf96b1efff43', 'f7d1924a4a856b51'),
    ),
    ('sort', 'gf1009-dense'): (
        ('94c1537ce980a58f', 'b987e72dbbc0372d'),
        ('94c1537ce980a58f', 'b987e72dbbc0372d'),
    ),
    ('sort', 'gf1009-deficient'): (
        ('02faaf96b1efff43', '4e842602841594f8'),
        ('02faaf96b1efff43', 'ebe16d62bfe5da7a'),
    ),
    ('maxj+sort', 'gf7-dense'): (
        ('d4f2b38d687aec01', '6f8ffbe69a7d7be0'),
        ('d4f2b38d687aec01', 'f5510be02da1c477'),
    ),
    ('maxj+sort', 'gf7-deficient'): (
        ('c9a36ca4857ece20', '9edb6bf3e12c61a5'),
        ('c9a36ca4857ece20', '54b57d5d9d92c121'),
    ),
    ('maxj+sort', 'gf101-dense'): (
        ('0db8b7f5c153af8c', '5d2fc24f49b6303d'),
        ('0db8b7f5c153af8c', '5d2fc24f49b6303d'),
    ),
    ('maxj+sort', 'gf1009-deficient'): (
        ('02faaf96b1efff43', '4e842602841594f8'),
        ('02faaf96b1efff43', 'ebe16d62bfe5da7a'),
    ),
    ('maxj', 'gf101-wide'): (
        ('14e6ea52001e8509', '2f466280bc59f8fb'),
        ('045ff6392a54f616', 'e13a0fa0df217b66'),
    ),
    ('sort', 'gf101-wide'): (
        ('85e79ebfd760c0e8', 'fea824e3e853a4b9'),
        ('85e79ebfd760c0e8', '2ed813fdb76707d3'),
    ),
    ('maxj+sort', 'gf101-wide'): (
        ('bccbc98f6c59333f', '317cd1f55f4eacb2'),
        ('1e0fa0486965b6de', '17ff2a99c377ff9b'),
    ),
}


@pytest.mark.parametrize("case", POST_PIN_CASES, ids="/".join)
def test_post_pass_results_are_pinned(case):
    gs, blocks = POST_PIN_DIGESTS[case]
    assert _post_pin_digests(*case) == {"gs": gs, "blocks": blocks}


def test_maximize_j_blocks_logs_one_permutation_and_one_merge_per_pair():
    # d = 128: the swaps of one permutation of 128 positions, at most 127,
    # then one BlockLeft per merged pair; adjacent block swaps took 971 ops
    dec = decompose_blocks(random_form(GF101, 1, 128, random.Random(5)))
    before = len(dec.log)
    dec = maximize_j_blocks(dec)
    ops = dec.log.ops[before:]
    swaps = [op for op in ops if isinstance(op, Swap)]
    merges = [op for op in ops if isinstance(op, BlockLeft)]
    pairs = sum(isinstance(b, JBlock) for b in dec.blocks)
    assert pairs > 0 and len(swaps) <= 127 and len(merges) == pairs
    assert len(ops) == len(swaps) + len(merges)
    assert all(isinstance(op, Swap) for op in ops[: len(swaps)])


def _odd_primes_below(n):
    return [p for p in range(3, n) if all(p % q for q in range(2, math.isqrt(p) + 1))]


def test_two_square_split_matches_the_table_of_all_squares():
    # the reference keeps, for each square, its last root in range(p): the
    # larger one, which the split returns as delta
    for p in _odd_primes_below(200):
        squares = {(g * g) % p: g for g in range(p)}
        for target in range(1, p):
            want = next(
                (g, squares[(target - g * g) % p]) for g in range(p) if (target - g * g) % p in squares
            )
            assert _two_square_split(PrimeField(p), target) == want


def test_sort_pairs_nonresidues_over_a_huge_prime():
    # 5 is the least non-residue mod 10^9 + 7; the split no longer tabulates
    # all p squares, so the pair rewrite is immediate
    ring = PrimeField(1000000007)
    assert ring.smallest_nonresidue() == 5
    form = HermitianForm.from_rows(ring, [[5, 0], [0, 5]], 1)
    original = snapshot(form.m)
    dec = sort_blocks_canonical(decompose_gs(form))
    assert [b.value for b in dec.blocks] == [1, 1]
    assert check_decomposition(original, 1, dec).passed


def _diagonal_decomposition(ring, values):
    rows = [[v if i == j else 0 for j in range(len(values))] for i, v in enumerate(values)]
    return decompose_gs(HermitianForm.from_rows(ring, rows, 1))


_OWN_MESSAGES = {
    "pair_rescale": (lambda: pair_rescale(GF7, 3, 5), "pair rescale transform failed its defining identity"),
    "char2_triple": (lambda: char2_triple(GF2, 1), "triple transform failed its defining identity"),
    "maximize_j_blocks": (
        lambda: maximize_j_blocks(_diagonal_decomposition(GF7, [1, 6])),
        "pair merge transform failed its defining identity",
    ),
    "sort_blocks_canonical": (
        lambda: sort_blocks_canonical(_diagonal_decomposition(GF7, [3, 3])),
        "non-residue pair rewrite failed its defining identity",
    ),
}


@pytest.mark.parametrize("caller", list(_OWN_MESSAGES))
def test_a_failed_identity_raises_the_rewrites_own_message(caller, monkeypatch):
    # the shared congruence check reports failure to `caller` alone, so the
    # sort's call of pair_rescale still passes and the sort's own check fails
    run, message = _OWN_MESSAGES[caller]
    run()  # the real check passes
    real = postprocess.congruates

    def failing_for_caller(t, source, target):
        return real(t, source, target) and sys._getframe(1).f_code.co_name != caller

    monkeypatch.setattr(postprocess, "congruates", failing_for_caller)
    with pytest.raises(ArithmeticError, match=f"^{message}$"):
        run()
