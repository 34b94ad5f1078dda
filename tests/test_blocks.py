"""The recursive block decomposition and its agreement with the sequential one."""

from __future__ import annotations

import hashlib
import math
import random

import pytest

from orthoform import (
    BlockLeft,
    HermitianForm,
    InvariantViolation,
    JBlock,
    Matrix,
    PrimeField,
    QuadraticField,
    RationalField,
    RationalQuaternions,
    block_anisotropic,
    block_isotropic,
    check_decomposition,
    decompose_blocks,
    decompose_gs,
    detect_radical,
    invariants_of,
    left_row_reduce,
    matmul_classical,
    random_form,
)
from orthoform import blocks as blocks_module, matrix
from helpers import snapshot

GF7 = PrimeField(7)
GF2 = PrimeField(2)
GF9 = QuadraticField(3, "frobenius")
QQ = RationalField()
HH = RationalQuaternions()


def values(dec):
    return ["J" if isinstance(b, JBlock) else b.value for b in dec.blocks]


def test_diagonal_input_splits_without_work():
    form = HermitianForm.from_rows(GF7, [[3, 0, 0], [0, 1, 0], [0, 0, 5]], 1)
    dec = decompose_blocks(form)
    assert values(dec) == [3, 1, 5]
    assert dec.radical_dim == 0


def test_frozen_double_hyperbolic():
    rows = [
        [0, 0, 1, 0],
        [0, 0, 0, 1],
        [1, 0, 0, 0],
        [0, 1, 0, 0],
    ]
    form = HermitianForm.from_rows(GF7, rows, 1)
    dec = decompose_blocks(form)
    assert values(dec) == [2, 5, 2, 5]
    assert dec.isotropic_steps == 2
    rep = check_decomposition(Matrix(GF7, rows), 1, dec)
    assert rep.passed, rep.details


def test_alternating_goes_to_j_blocks():
    rows = [[0, 3], [-3, 0]]
    form = HermitianForm.from_rows(QQ, rows, -1)
    dec = decompose_blocks(form)
    assert values(dec) == ["J"]
    assert check_decomposition(Matrix(QQ, rows), -1, dec).passed


def test_radical_is_split_off_first():
    rows = [[0, 0, 0], [0, 3, 0], [0, 0, 0]]
    form = HermitianForm.from_rows(GF7, rows, 1)
    dec = decompose_blocks(form)
    assert values(dec) == [3, 0, 0]
    assert dec.radical_dim == 2
    assert check_decomposition(Matrix(GF7, rows), 1, dec).passed


def test_dim_zero_and_one():
    dec = decompose_blocks(HermitianForm.from_rows(GF7, [], 1))
    assert dec.blocks == [] and dec.radical_dim == 0
    dec = decompose_blocks(HermitianForm.from_rows(GF7, [[4]], 1))
    assert values(dec) == [4]


def test_detect_radical_matches_independent_rank():
    rng = random.Random(50)
    for ring, s in [(GF7, 1), (GF9, 1), (QQ, -1), (HH, 1)]:
        for _ in range(15):
            d = rng.randrange(1, 8)
            r = rng.randrange(0, d + 1)
            if s == -1:
                r -= r % 2
            form = random_form(ring, s, d, rng, rank=r)
            before = snapshot(form.m)
            rad = detect_radical(form)
            assert rad == d - left_row_reduce(before)[1] == d - r


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
def test_sweep_verifies(ring, s):
    rng = random.Random(51)
    for _ in range(20):
        d = rng.randrange(0, 9)
        form = random_form(ring, s, d, rng)
        original = snapshot(form.m)
        dec = decompose_blocks(form)
        rep = check_decomposition(original, s, dec)
        assert rep.passed, (repr(ring), s, d, rep.details)


@pytest.mark.parametrize("ring,s", [(GF7, 1), (GF7, -1), (GF9, 1), (QQ, 1), (HH, 1)])
def test_both_algorithms_agree_on_invariants(ring, s):
    rng = random.Random(52)
    for _ in range(15):
        d = rng.randrange(0, 9)
        form = random_form(ring, s, d, rng)
        twin = HermitianForm(ring, snapshot(form.m), s, validate=False)
        a = decompose_gs(form)
        b = decompose_blocks(twin)
        ia, ib = invariants_of(a), invariants_of(b)
        assert ia.rank == ib.rank
        assert ia.radical_dim == ib.radical_dim
        assert ia.square_classes == ib.square_classes
        if ring.characteristic != 2:
            assert ia.j_blocks == ib.j_blocks


def test_gf2_j_count_can_legitimately_differ():
    # over GF(2) the unit [1] + hyperbolic plane is congruent to the identity
    # (orthonormal basis (1,1,0),(1,0,1),(1,1,1)), so two correct refinements
    # of one non-alternating form may have different J counts; both must
    # still verify
    rows = [[1, 0, 0], [0, 0, 1], [0, 1, 0]]
    f1 = HermitianForm.from_rows(GF2, rows, 1)
    f2 = HermitianForm.from_rows(GF2, [row[:] for row in rows], 1)
    a = decompose_gs(f1)
    b = decompose_blocks(f2)
    assert check_decomposition(Matrix(GF2, rows), 1, a).passed
    assert check_decomposition(Matrix(GF2, rows), 1, b).passed
    assert invariants_of(a).rank == invariants_of(b).rank == 3


def test_strassen_cutoff_does_not_change_the_result():
    rng = random.Random(53)
    for ring, s in [(GF7, 1), (GF9, 1)]:
        for d in (6, 12, 17):
            form = random_form(ring, s, d, rng)
            mats = [snapshot(form.m) for _ in range(3)]
            runs = []
            for cutoff, mat in zip((0, 8, 64), mats):
                f = HermitianForm(ring, mat, s, validate=False)
                runs.append(decompose_blocks(f, strassen_cutoff=cutoff))
            base = runs[0]
            for other in runs[1:]:
                assert other.blocks == base.blocks
                assert other.log == base.log
                assert other.radical_dim == base.radical_dim
            # counters are excluded on purpose: Strassen performs a different
            # number of ring operations by design


# (ring, s, dim, rank or None, seed) and, per Strassen cutoff, the first 16
# hex digits of the sha256 of decompose_blocks' blocks, SLP lines and counters:
# the counters are Strassen's own, so these pin the cost of the recursion.
STRASSEN_CASES = {
    "gf101+": (PrimeField(101), 1, 24, None, 621),
    "gf101-": (PrimeField(101), -1, 22, 16, 622),
    "gf9+": (GF9, 1, 18, None, 623),
    "gf2+": (GF2, 1, 20, 13, 624),
    "q-": (QQ, -1, 14, None, 625),
    "h+": (HH, 1, 11, 8, 626),
}

STRASSEN_DIGESTS = {
    "gf101+": {4: "86fa5c392c79b270", 8: "41df0e7e2ff387c1"},
    "gf101-": {4: "e1425530a1188f49", 8: "af7221a7fe6890b6"},
    "gf9+": {4: "3dbb01836bdebe5e", 8: "44a912de821cba46"},
    "gf2+": {4: "9d269e5ee7cc5084", 8: "df12f96367dfaad3"},
    "q-": {4: "bf95b96509eef114", 8: "a4c34cc8a68ca19e"},
    "h+": {4: "6179f83fe0cfe789", 8: "1bbfd51e7867e8f9"},
}


@pytest.mark.parametrize("case", sorted(STRASSEN_CASES))
def test_strassen_blocks_and_counters_are_pinned(case):
    ring, s, d, rank, seed = STRASSEN_CASES[case]
    for cutoff, digest in STRASSEN_DIGESTS[case].items():
        form = random_form(ring, s, d, random.Random(seed), rank=rank)
        dec = decompose_blocks(form, strassen_cutoff=cutoff)
        parts = (repr(dec.blocks), dec.log.slp_lines(ring), dec.counters.as_dict())
        assert hashlib.sha256(repr(parts).encode()).hexdigest()[:16] == digest, cutoff


def test_recursion_depth_is_logarithmic():
    rng = random.Random(54)
    for d in (1, 2, 3, 7, 16, 33):
        form = random_form(PrimeField(101), 1, d, rng)
        dec = decompose_blocks(form)
        bound = 2 * math.ceil(math.log2(d)) + 2 if d > 1 else 2
        assert dec.recursion_depth <= bound, (d, dec.recursion_depth)


def test_wrapper_guards():
    # anisotropic entry point refuses a singular window
    form = HermitianForm.from_rows(GF7, [[0, 0], [0, 3]], 1)
    with pytest.raises(ValueError, match="singular"):
        block_anisotropic(form)
    # isotropic entry point needs the leading f x f zero corner
    form = HermitianForm.from_rows(GF7, [[1, 0], [0, 3]], 1)
    with pytest.raises(ValueError):
        block_isotropic(form, 1)
    # and full row rank of the coupling strip
    form = HermitianForm.from_rows(GF7, [[0, 0, 0], [0, 0, 0], [0, 0, 1]], 1)
    with pytest.raises(ValueError):
        block_isotropic(form, 2)
    # windows and pair counts that do not fit the form
    zero = HermitianForm.from_rows(GF7, [[0, 0], [0, 0]], 1)
    for f, lo, hi in [(3, 0, None), (2, 1, 2), (0, 0, None)]:
        with pytest.raises(ValueError, match="cannot hold"):
            block_isotropic(zero, f, lo, hi)
    form = HermitianForm.from_rows(GF7, [[1, 0], [0, 3]], 1)
    for lo, hi in [(0, 5), (-1, 2)]:
        with pytest.raises(ValueError, match="out of range"):
            block_anisotropic(form, lo, hi)
        with pytest.raises(ValueError, match="out of range"):
            block_isotropic(form, 1, lo, hi)
    with pytest.raises(ValueError):
        decompose_blocks(HermitianForm.from_rows(GF7, [[1]], 1), strassen_cutoff=1)
    with pytest.raises(ValueError):
        decompose_blocks(HermitianForm.from_rows(GF7, [[1]], 1), strassen_cutoff=-2)


def test_entry_points_compose_like_the_driver():
    # split the radical by hand, then run the anisotropic kernel on the core
    rng = random.Random(55)
    form = random_form(GF7, 1, 6, rng, rank=4)
    original = snapshot(form.m)
    rad = detect_radical(form)
    assert rad == 2
    blocks = block_anisotropic(form, 0, 6 - rad)
    assert sum(b.size for b in blocks) == 4


def test_invariant_violation_type():
    assert issubclass(InvariantViolation, RuntimeError)


GF101 = PrimeField(101)

# (ring, s, dim, rank or None, seed).  The digests pin the blocks, the SLP
# rendering of the log and every operation counter of both decomposers, so a
# refactor of the elimination kernels must reproduce them byte for byte.
GOLDEN_CASES = {
    "gf101+full": (GF101, 1, 14, None, 601),
    "gf101+deficient": (GF101, 1, 14, 9, 602),
    "gf101-full": (GF101, -1, 14, None, 603),
    "gf101-deficient": (GF101, -1, 14, 8, 604),
    "gf9+full": (GF9, 1, 10, None, 605),
    "gf9+deficient": (GF9, 1, 10, 6, 606),
    "gf9-full": (GF9, -1, 10, None, 607),
    "gf2-full": (GF2, 1, 12, None, 608),
    "gf2-deficient": (GF2, 1, 12, 7, 609),
    "q+full": (QQ, 1, 8, None, 610),
    "q+deficient": (QQ, 1, 8, 5, 611),
    "q-full": (QQ, -1, 8, None, 612),
    "q-deficient": (QQ, -1, 8, 4, 613),
    "h+full": (HH, 1, 6, None, 614),
    "h+deficient": (HH, 1, 6, 4, 615),
    "h-deficient": (HH, -1, 6, 3, 616),
    # the isotropic step's nonzero-tail decoupling, then also its pair corner
    "gf101-tail": (GF101, -1, 6, None, 0),
    "gf3-corner": (PrimeField(3), -1, 13, 12, 2),
}

GOLDEN_DIGESTS = {
    "gf101+deficient": "69e43f2a8afc9f051ea0058539bd1e10e9d89ea234d47598975adb8a07077935",
    "gf101+full": "46d43244fff3746e623a6fb54016eae15d30bcf16b1990ae76b6c9e96419cf66",
    "gf101-deficient": "da15294a51da25c5b622c3a46a8fc1de16c2cd01d00451f7b293fea5f08b05fa",
    "gf101-full": "da50a297e0fb77b83096b94636615381bd888b75b404e486013f5f1e6a31e3cc",
    "gf101-tail": "7eb4a2f292305f1a03870a310c4268d1fbb3b03944a76314c83392dd66a54429",
    "gf2-deficient": "126f3adbfd7bf213d419371d322d98326e91d02dd199fce0e9c5efcfdc6de8c6",
    "gf2-full": "68d374d8cda3924edfb92b2f52b43c63dfeb1422330bac9ab6ebf8c4f73acd37",
    "gf3-corner": "652ea5c0eda8c7d7cf71baf1ddc6bc67c371a333ce1b916319a9cc8a7afbbf32",
    "gf9+deficient": "ae1ddaf2f6f0e7063a6095a5df3498abf013408246039c586ebf60b363f62f48",
    "gf9+full": "8a2bb591febc260443b474dafab13136a6a52b7ad444eaca171105b3adedec6b",
    "gf9-full": "f8ed3dff4108fb7aa803636af2cbf38737e69c2bdbfca2ec577d616ba8114978",
    "h+deficient": "869b4a4cf369b2dc1b425cfec80a7c7f90e1e9f89dd20da0c76a5d669bf9a0fc",
    "h+full": "67319773da5bf469ba072ca79577ac369a5e375e58dcb2b838270ac77991cbc7",
    "h-deficient": "3727e581885899ff5db281a031831a7e5eabe3aba3fea83803247cdcb3850ce0",
    "q+deficient": "c1f478cf1ba755bfc2caf486b53cf12d2828d19aadce9bfd9cb7cc0640edca48",
    "q+full": "15d259997bb86fd7a7ecb86b66c4dad265d69654110d1968ab07be819aa519cf",
    "q-deficient": "bd8cfc04723e7232aab07fd23fd3ee6d8a3bb0e2e87e9a6870b187b06b77b27b",
    "q-full": "52a43fd981da85dca8553cb5a055024141f22ca243fba72f4bca492e02d22d32",
}


def _golden_digest(ring, s, d, rank, seed):
    form = random_form(ring, s, d, random.Random(seed), rank=rank)
    twin = HermitianForm(ring, snapshot(form.m), s, validate=False)
    parts = []
    for dec in (decompose_gs(form), decompose_blocks(twin)):
        parts.append((repr(dec.blocks), dec.log.slp_lines(ring), dec.counters.as_dict()))
    return hashlib.sha256(repr(parts).encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_golden_logs_and_counters(case):
    assert _golden_digest(*GOLDEN_CASES[case]) == GOLDEN_DIGESTS[case]


GOLDEN_FIELDS = ("blocks", "transform", "slp", "counters")

# Per decomposer and per field of GOLDEN_FIELDS, the first 16 hex digits of
# the sha256 of each golden form's output: a change to one field (say the SLP
# rendering) shows which field moved and leaves the other pins standing.
GOLDEN_FIELD_DIGESTS = {
    ("gf101+deficient", "gs"): (
        "9014928b774e5c47", "a2c9e8b90dec9d45", "c0a135eac70cd183", "9404bc29593b4612",
    ),
    ("gf101+deficient", "blocks"): (
        "79b340f41496794f", "45e897f38420714d", "5b01cfed4062473b", "ff9abc2d096aa4b9",
    ),
    ("gf101+full", "gs"): (
        "26849095620d1f58", "23fcbdba3751c115", "687f438fb5c37625", "f8c95829b6d71242",
    ),
    ("gf101+full", "blocks"): (
        "26849095620d1f58", "23fcbdba3751c115", "48f8b4d9ac77fef6", "7a2ff3b551788790",
    ),
    ("gf101-deficient", "gs"): (
        "e4125d09d60b5f7f", "60b41f7fde97277a", "15b6248d94485c02", "48b5b401886e71a7",
    ),
    ("gf101-deficient", "blocks"): (
        "e4125d09d60b5f7f", "f22d85a67e2d2b95", "45bf431d42241ca1", "ef273548b95773ee",
    ),
    ("gf101-full", "gs"): (
        "8f23abf5eb1a6e35", "a930547916936dab", "3e143815f5ad2631", "5dfbd827674a2fff",
    ),
    ("gf101-full", "blocks"): (
        "8f23abf5eb1a6e35", "cf5a4887ec9e947a", "6763f3dddf7493c6", "c007a72fd87c6189",
    ),
    ("gf101-tail", "gs"): (
        "3054029728d7a823", "f576c35e582d1c9b", "47acae8b82d49a6d", "90bcf36caf427a5f",
    ),
    ("gf101-tail", "blocks"): (
        "3054029728d7a823", "07fa73c85149ecf7", "10471ea123a9437c", "11ff294aa10e38fb",
    ),
    ("gf2-deficient", "gs"): (
        "2bfbff0d76722ec4", "93ee6a4547e5c611", "53930b6ade3cc97e", "60be334b346100ed",
    ),
    ("gf2-deficient", "blocks"): (
        "2bfbff0d76722ec4", "eb8b939796ff6087", "b4c85433250f087e", "a00ca02f5f0ddad9",
    ),
    ("gf2-full", "gs"): (
        "53e1cf0776d6c71d", "2c3b97e200887bf3", "746682c2fcc7b9e7", "580e3d3270b852fe",
    ),
    ("gf2-full", "blocks"): (
        "53e1cf0776d6c71d", "0b9123899f3ce921", "50a8b6f512319262", "1733b9241423e6fb",
    ),
    ("gf3-corner", "gs"): (
        "71756ca2e634179d", "d543163b1e9f7125", "4a301c2155b46189", "807cf2327fa6f9d9",
    ),
    ("gf3-corner", "blocks"): (
        "71756ca2e634179d", "079f9fb5c3521858", "b1bc33bf39e1872f", "5d29330d1bc13a92",
    ),
    ("gf9+deficient", "gs"): (
        "afc9dbe15078faf5", "49312ede0b453e0b", "cc2acd2522ed6cc4", "21960ea3d9b32b0b",
    ),
    ("gf9+deficient", "blocks"): (
        "d8e7f63f99dcd4e3", "5778f15b4c2b1983", "dd79e2ca087db1b3", "0c28358eb1ea8a4d",
    ),
    ("gf9+full", "gs"): (
        "31bda5f8ac055f41", "2967e386e6ff96ed", "5400fcb655bd7388", "d15c43fe7f061f49",
    ),
    ("gf9+full", "blocks"): (
        "ed5a6873f6f6357e", "09f389e39f71431f", "9106d2fc53a951a2", "d5f65b55e0c6a8a5",
    ),
    ("gf9-full", "gs"): (
        "a1325ed6c6f3a97d", "cd2373a50e19c690", "61bea0e7374d44cf", "64d8ea249970180c",
    ),
    ("gf9-full", "blocks"): (
        "a8eb4a9ae736b826", "6bebb24cb1e3ceae", "c7c5595a2820d654", "bbe550455a0ec7e9",
    ),
    ("h+deficient", "gs"): (
        "fa4efd8a12b15b1d", "cada9683740cdee2", "b7c1d68d30efc286", "c66b769feb348bb1",
    ),
    ("h+deficient", "blocks"): (
        "fa4efd8a12b15b1d", "3fa3c2276a3de59f", "f79ce1c67e5fb50e", "e176f54ff9ebc2cd",
    ),
    ("h+full", "gs"): (
        "c3f0e3e4ff5a3854", "9ecb421e917ec920", "46b52d1ee9f3cd2b", "a0d4b75da842899a",
    ),
    ("h+full", "blocks"): (
        "7680cca503e5b986", "ae6c11929c716b9f", "bcd569003cb5f5ec", "faaf14c85a868db2",
    ),
    ("h-deficient", "gs"): (
        "453306cf1d4ee0b7", "6327a008b740f72f", "b959b32bbcbfb70b", "9c9f85546c8d0dec",
    ),
    ("h-deficient", "blocks"): (
        "453306cf1d4ee0b7", "563e230907b7aa18", "5c828ec56f0c1bb9", "ce99b2534ed261b6",
    ),
    ("q+deficient", "gs"): (
        "5b0ba4f713f80b49", "aaad8374d89361a0", "8a456083b68175c1", "f70ae99a468849a9",
    ),
    ("q+deficient", "blocks"): (
        "5b0ba4f713f80b49", "39a776fe9e2d3389", "5f223b46fceb3c92", "f52d09a1e5280265",
    ),
    ("q+full", "gs"): (
        "307ef5333463e12d", "ee0f49b55b1b0921", "4b85b13347b2b92a", "308d150651ae0639",
    ),
    ("q+full", "blocks"): (
        "307ef5333463e12d", "ee0f49b55b1b0921", "7e5dff241165b74b", "5562eb541cc2b047",
    ),
    ("q-deficient", "gs"): (
        "45e47a46df6d9c0c", "58209b98561dda61", "10e9ea94da0c5358", "9a67e6a9a363dffd",
    ),
    ("q-deficient", "blocks"): (
        "45e47a46df6d9c0c", "8e5a83d1fac6a652", "3f272b02d4fe6edc", "d12e45d1b6956593",
    ),
    ("q-full", "gs"): (
        "eaf76d04d224374a", "63cae35c87027c08", "06b4719c12ebb283", "26978520b7c7e190",
    ),
    ("q-full", "blocks"): (
        "eaf76d04d224374a", "446dab9d7875f71c", "6593f32aa8b0d18c", "97716fb721e82735",
    ),
}


def _golden_field_digests(ring, s, d, rank, seed):
    form = random_form(ring, s, d, random.Random(seed), rank=rank)
    twin = HermitianForm(ring, snapshot(form.m), s, validate=False)
    out = {}
    for name, dec in (("gs", decompose_gs(form)), ("blocks", decompose_blocks(twin))):
        fields = (
            repr(dec.blocks),
            dec.log.materialize(ring).rows,
            dec.log.slp_lines(ring),
            dec.counters.as_dict(),
        )
        out[name] = {
            field: hashlib.sha256(repr(value).encode()).hexdigest()[:16]
            for field, value in zip(GOLDEN_FIELDS, fields)
        }
    return out


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_golden_fields_per_decomposer(case):
    pinned = {
        name: dict(zip(GOLDEN_FIELDS, GOLDEN_FIELD_DIGESTS[case, name]))
        for name in ("gs", "blocks")
    }
    assert _golden_field_digests(*GOLDEN_CASES[case]) == pinned


# (recursion_depth, isotropic_steps) of decompose_blocks on each golden form
GOLDEN_SHAPES = {
    "gf101+deficient": (5, 0),
    "gf101+full": (5, 0),
    "gf101-deficient": (4, 4),
    "gf101-full": (6, 7),
    "gf101-tail": (4, 3),
    "gf2-deficient": (4, 0),
    "gf2-full": (5, 0),
    "gf3-corner": (5, 6),
    "gf9+deficient": (4, 0),
    "gf9+full": (5, 1),
    "gf9-full": (5, 0),
    "h+deficient": (3, 0),
    "h+full": (4, 0),
    "h-deficient": (3, 0),
    "q+deficient": (4, 0),
    "q+full": (4, 0),
    "q-deficient": (2, 2),
    "q-full": (4, 4),
}


def test_golden_recursion_shapes():
    for case, (ring, s, d, rank, seed) in sorted(GOLDEN_CASES.items()):
        dec = decompose_blocks(random_form(ring, s, d, random.Random(seed), rank=rank))
        assert (dec.recursion_depth, dec.isotropic_steps) == GOLDEN_SHAPES[case], case


GF1009 = PrimeField(1009)

# (ring, s) at d=48: the blocks, counters and materialized transforms of both
# decomposers, recorded from the generic elimination loop.
TRANSFORM_CASES = {
    "gf1009+": (GF1009, 1, 801),
    "gf1009-": (GF1009, -1, 802),
    "gf9+": (GF9, 1, 803),
    "gf9-": (GF9, -1, 804),
}

TRANSFORM_DIGESTS = {
    "gf1009+": "4d7899e848c4eee638dd0959398f0a2c35e408dfe4f52e73525b02f3ca18a06a",
    "gf1009-": "852702808b2ddae720cf00f4328a79e96dadeba07be105bd4ca1567752d310dd",
    "gf9+": "d67dd2020b7176721d6215669b834615ba6d9bafd8a1be684fa8fd801a8d11fb",
    "gf9-": "2c0bf1f087b85964c97049b583fe81f45c42ec75db4f6247b7717e089bd05caa",
}


@pytest.mark.parametrize("case", sorted(TRANSFORM_CASES))
def test_kernel_sized_transforms_are_pinned(case):
    ring, s, seed = TRANSFORM_CASES[case]
    form = random_form(ring, s, 48, random.Random(seed))
    twin = HermitianForm(ring, snapshot(form.m), s, validate=False)
    parts = []
    for dec in (decompose_gs(form), decompose_blocks(twin)):
        parts.append((repr(dec.blocks), dec.counters.as_dict(), dec.log.materialize(ring).rows))
    assert hashlib.sha256(repr(parts).encode()).hexdigest() == TRANSFORM_DIGESTS[case]


GF9_IDENTITY = QuadraticField(3, "identity")

# (ring, s) for the fused split; s = -1 over an identity involution in odd
# characteristic is alternating, so every leading-block rank below is even.
SPLIT_RINGS = {
    "gf2+": (GF2, 1),
    "gf101+": (GF101, 1),
    "gf101-": (GF101, -1),
    "gf9+": (GF9, 1),
    "gf9-": (GF9, -1),
    "gf9id+": (GF9_IDENTITY, 1),
    "gf9id-": (GF9_IDENTITY, -1),
    "q+": (QQ, 1),
    "q-": (QQ, -1),
    "h+": (HH, 1),
    "h-": (HH, -1),
}


def _split_forms(ring, s, rng):
    """(form, lo, h, hi, k, cutoffs): a random form whose leading h x h block of
    the window [lo, hi) is replaced by a random form of rank k.  The windows
    lie inside the form (lo > 0, h < hi - lo) or cover it; the slabs of the
    large ones reach the int64 kernel over GF(p) and GF(p^2), where Strassen's
    recursion down to 2 x 2 would only repeat the small windows' cases."""
    windows = [(10, 2, 4, 9, (0, 2, 4)), (6, 0, 6, 6, (0, 2, 4))]
    if not isinstance(ring, (RationalField, RationalQuaternions)):
        windows += [(40, 1, 16, 38, (0, 8)), (24, 0, 24, 24, (0, 8))]
    for d, lo, h, hi, cutoffs in windows:
        for k in (0, 2 * (h // 4), h):
            form = random_form(ring, s, d, rng)
            block = random_form(ring, s, h, rng, rank=k).m.rows
            for row, new in zip(form.m.rows[lo : lo + h], block):
                row[lo : lo + h] = new
            yield form, lo, h, hi, k, cutoffs


def _congruence(t: Matrix, b: Matrix) -> Matrix:
    """T * B * sigma(T)^t by two classical products."""
    return matmul_classical(matmul_classical(t, b), t.sigma_transpose())


def _pasted(block: Matrix, lo: int, d: int) -> Matrix:
    """The d x d identity with `block` pasted at rows and columns [lo, lo+q)."""
    t = Matrix.identity(block.ring, d)
    for row, new in zip(t.rows[lo : lo + block.nrows], block.rows):
        row[lo : lo + block.ncols] = new
    return t


def _split_both_ways(ring, s):
    """Per form and cutoff: the fused split's and the reference's (rows, log).
    The reference is left_row_reduce of the leading block, then the
    congruence of the window by the identity with that transform pasted in,
    as two full products."""
    out = []
    for form, lo, h, hi, k, cutoffs in _split_forms(ring, s, random.Random(631)):
        a, rank = left_row_reduce(form.m.submatrix(lo, lo + h, lo, lo + h))
        assert rank == k
        reference = snapshot(form.m)
        window = _congruence(_pasted(a, 0, hi - lo), form.m.submatrix(lo, hi, lo, hi))
        for row, new in zip(reference.rows[lo:hi], window.rows):
            row[lo:hi] = new
        log = [BlockLeft(a, lo)] if a != Matrix.identity(ring, h) else []
        for cutoff in cutoffs:
            fused = HermitianForm(ring, snapshot(form.m), s, validate=False)
            assert blocks_module._split(fused, lo, h, hi, cutoff) == k
            out.append((repr(fused.m.rows), repr(list(fused.log)), repr(reference.rows), repr(log)))
    return out


@pytest.mark.parametrize("case", sorted(SPLIT_RINGS))
def test_fused_split_matches_row_reduce_then_congruence(case, monkeypatch):
    ring, s = SPLIT_RINGS[case]
    runs = _split_both_ways(ring, s)
    with monkeypatch.context() as patch:  # every elimination on the generic loop
        patch.setattr(matrix, "_augmented", lambda m, entries, terms=1, identity=True: matrix._ListRows(m, identity))
        runs += _split_both_ways(ring, s)
    for fused_rows, fused_log, reference_rows, reference_log in runs:
        assert fused_rows == reference_rows
        assert fused_log == reference_log
    assert sum(log != "[]" for _, log, _, _ in runs) > len(runs) // 2


@pytest.mark.parametrize("case", sorted(SPLIT_RINGS))
def test_block_congruence_matches_two_full_products(case):
    # the column pass multiplies only the corner and mirrors the active rows
    # above and below it; the form is zero outside the active window
    ring, s = SPLIT_RINGS[case]
    rng = random.Random(633)
    d, lo, q, active_lo, active_hi = 11, 3, 4, 1, 9
    for cutoff in (0, 2):
        rows = [[ring.zero] * d for _ in range(d)]
        window = random_form(ring, s, active_hi - active_lo, rng).m.rows
        for row, new in zip(rows[active_lo:active_hi], window):
            row[active_lo:active_hi] = new
        form = HermitianForm(ring, Matrix(ring, rows), s)
        block = Matrix(ring, [[ring.random(rng) for _ in range(q)] for _ in range(q)])
        expected = _congruence(_pasted(block, lo, d), form.m)
        form.block_congruence(lo, block, active_lo, active_hi, cutoff)
        assert repr(form.m.rows) == repr(expected.rows)
        assert list(form.log) == [BlockLeft(block, lo)]


def test_fused_split_reaches_every_row_store(monkeypatch):
    seen = set()
    augmented = matrix._augmented

    def spy(m, entries, terms=1, identity=True):
        rows = augmented(m, entries, terms, identity)
        seen.add(type(rows).__name__)
        return rows

    monkeypatch.setattr(matrix, "_augmented", spy)
    for ring, s in SPLIT_RINGS.values():
        for form, lo, h, hi, _, _ in _split_forms(ring, s, random.Random(632)):
            blocks_module._split(form, lo, h, hi, 0)
    assert seen == {"PlaneRows", "_ListRows", "_RationalRows", "_QuaternionRows"}


@pytest.mark.parametrize("d", [64, 128])
def test_classical_multiplication_count_of_blocks(d):
    # a split issues one h x h product besides its elimination; the count
    # reads 1.832 d^3 at both sizes
    form = random_form(GF1009, 1, d, random.Random(90))
    assert decompose_blocks(form).counters.multiplications <= 1.84 * d**3
