"""The recursive block decomposition and its agreement with the sequential one."""

from __future__ import annotations

import hashlib
import math
import random

import pytest

from orthoform import (
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
    random_form,
)
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
    "gf101+": {4: "6caf612c644705fa", 8: "5d72e3d97795ffca"},
    "gf101-": {4: "7fd914be98342bdb", 8: "e64e82feec21e229"},
    "gf9+": {4: "fd049fc65c987b30", 8: "ced9c71a9685de1f"},
    "gf2+": {4: "e778ab45a2d80053", 8: "7f5707f1aa027b2d"},
    "q-": {4: "dd3487ba8d5aefd0", 8: "22b207a9092591a9"},
    "h+": {4: "5ec096433ec53f09", 8: "9b1014e34714c77b"},
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
    "gf101+deficient": "3044f35b739624bd6dd0c61887129384c4f1b8c1e613255db1f583e30b74a416",
    "gf101+full": "8d0af1b416c3b3daba4e9cc8d377343b9a955accacbbeeaa10957b52f75c0682",
    "gf101-deficient": "f4870a9c8a3711513d8ce7003b0a4da9ce67a62b7fabed72f0190a1bed99dae4",
    "gf101-full": "32f46337e40e663f7418047239a6276a20eb9d9093161fe7a7ccdffcb7b569f0",
    "gf101-tail": "8fe1ebb27f380ebc6f5afe34f3c56ff83e9bd76e8f336868019d0a72457d6ebb",
    "gf2-deficient": "b6dcb01e48e036af3c949d0ec3fb4ea6846999cf47584a6b73fdfdf2983ea40f",
    "gf2-full": "afe1c35e7387c3eaf08a8a0210c04e2956602cc9d822f7039721ae619ab7cff1",
    "gf3-corner": "97689da63db13e2cd191f06438655c273842bcc390d8cab5c5068b3a97aa0f08",
    "gf9+deficient": "26c691e2cbd8708914af367d9238eba6b8a7a03e660c19bf8134e396f11c85cb",
    "gf9+full": "8fc757d31b4234880a124f4d3506f704cea33dda3c21704f9590814a388fae27",
    "gf9-full": "9518c0508d589f8b111d5ab011b40abee13369d6659c486c76279a16397215b0",
    "h+deficient": "4d117771d980852c604f6fc222b1bae99afb3de28881207444f1f65f7b59db60",
    "h+full": "19477ce21ce3ab703b96cdf7e131b44886f9668ea78b31637222f26db945d06a",
    "h-deficient": "25faa1d38e761331915882aec76adf940868ce37f37b89794601f7d63d2d9373",
    "q+deficient": "0a52d09731972bac2d3f48619e31a1e7c38bd47c35756f4629ed4d594ef53f9d",
    "q+full": "d1b0a3b6e77cf6ab8260ca972d8b2943fe22438f2235e9a8458462c253b1525a",
    "q-deficient": "329d3d2cdbfe60719f686771154a36e8a77b2656556762110699ab6999467b2d",
    "q-full": "24e9096bc34869f9a6adc8950bb655827925f53a0d11c52bab056df7f21ac4d3",
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
        "79b340f41496794f", "45e897f38420714d", "5b01cfed4062473b", "52cf36f3baf1d6f4",
    ),
    ("gf101+full", "gs"): (
        "26849095620d1f58", "23fcbdba3751c115", "687f438fb5c37625", "f8c95829b6d71242",
    ),
    ("gf101+full", "blocks"): (
        "26849095620d1f58", "23fcbdba3751c115", "48f8b4d9ac77fef6", "c7be00adc99864f6",
    ),
    ("gf101-deficient", "gs"): (
        "e4125d09d60b5f7f", "60b41f7fde97277a", "15b6248d94485c02", "48b5b401886e71a7",
    ),
    ("gf101-deficient", "blocks"): (
        "e4125d09d60b5f7f", "f22d85a67e2d2b95", "45bf431d42241ca1", "c4b4ed024a267be4",
    ),
    ("gf101-full", "gs"): (
        "8f23abf5eb1a6e35", "a930547916936dab", "3e143815f5ad2631", "5dfbd827674a2fff",
    ),
    ("gf101-full", "blocks"): (
        "8f23abf5eb1a6e35", "cf5a4887ec9e947a", "6763f3dddf7493c6", "ef841c69084fdc98",
    ),
    ("gf101-tail", "gs"): (
        "3054029728d7a823", "f576c35e582d1c9b", "47acae8b82d49a6d", "90bcf36caf427a5f",
    ),
    ("gf101-tail", "blocks"): (
        "3054029728d7a823", "07fa73c85149ecf7", "10471ea123a9437c", "0263bd52ac650f21",
    ),
    ("gf2-deficient", "gs"): (
        "2bfbff0d76722ec4", "93ee6a4547e5c611", "53930b6ade3cc97e", "60be334b346100ed",
    ),
    ("gf2-deficient", "blocks"): (
        "2bfbff0d76722ec4", "eb8b939796ff6087", "b4c85433250f087e", "f118b4312e5847eb",
    ),
    ("gf2-full", "gs"): (
        "53e1cf0776d6c71d", "2c3b97e200887bf3", "746682c2fcc7b9e7", "580e3d3270b852fe",
    ),
    ("gf2-full", "blocks"): (
        "53e1cf0776d6c71d", "0b9123899f3ce921", "50a8b6f512319262", "806d32d22bd2d1e7",
    ),
    ("gf3-corner", "gs"): (
        "71756ca2e634179d", "d543163b1e9f7125", "4a301c2155b46189", "807cf2327fa6f9d9",
    ),
    ("gf3-corner", "blocks"): (
        "71756ca2e634179d", "079f9fb5c3521858", "b1bc33bf39e1872f", "ec4b65bce8124b1d",
    ),
    ("gf9+deficient", "gs"): (
        "afc9dbe15078faf5", "49312ede0b453e0b", "cc2acd2522ed6cc4", "21960ea3d9b32b0b",
    ),
    ("gf9+deficient", "blocks"): (
        "d8e7f63f99dcd4e3", "5778f15b4c2b1983", "dd79e2ca087db1b3", "9b2ba8c4106e34b9",
    ),
    ("gf9+full", "gs"): (
        "31bda5f8ac055f41", "2967e386e6ff96ed", "5400fcb655bd7388", "d15c43fe7f061f49",
    ),
    ("gf9+full", "blocks"): (
        "ed5a6873f6f6357e", "09f389e39f71431f", "9106d2fc53a951a2", "95a9371e250b3442",
    ),
    ("gf9-full", "gs"): (
        "a1325ed6c6f3a97d", "cd2373a50e19c690", "61bea0e7374d44cf", "64d8ea249970180c",
    ),
    ("gf9-full", "blocks"): (
        "a8eb4a9ae736b826", "6bebb24cb1e3ceae", "c7c5595a2820d654", "5e0203707e5a97f3",
    ),
    ("h+deficient", "gs"): (
        "fa4efd8a12b15b1d", "cada9683740cdee2", "b7c1d68d30efc286", "c66b769feb348bb1",
    ),
    ("h+deficient", "blocks"): (
        "fa4efd8a12b15b1d", "3fa3c2276a3de59f", "f79ce1c67e5fb50e", "4475dd435e7bd56f",
    ),
    ("h+full", "gs"): (
        "c3f0e3e4ff5a3854", "9ecb421e917ec920", "46b52d1ee9f3cd2b", "a0d4b75da842899a",
    ),
    ("h+full", "blocks"): (
        "7680cca503e5b986", "ae6c11929c716b9f", "bcd569003cb5f5ec", "b231f230df001d7c",
    ),
    ("h-deficient", "gs"): (
        "453306cf1d4ee0b7", "6327a008b740f72f", "b959b32bbcbfb70b", "9c9f85546c8d0dec",
    ),
    ("h-deficient", "blocks"): (
        "453306cf1d4ee0b7", "563e230907b7aa18", "5c828ec56f0c1bb9", "0352802a2cabd1f1",
    ),
    ("q+deficient", "gs"): (
        "5b0ba4f713f80b49", "aaad8374d89361a0", "8a456083b68175c1", "f70ae99a468849a9",
    ),
    ("q+deficient", "blocks"): (
        "5b0ba4f713f80b49", "39a776fe9e2d3389", "5f223b46fceb3c92", "795cba9f124d8975",
    ),
    ("q+full", "gs"): (
        "307ef5333463e12d", "ee0f49b55b1b0921", "4b85b13347b2b92a", "308d150651ae0639",
    ),
    ("q+full", "blocks"): (
        "307ef5333463e12d", "ee0f49b55b1b0921", "7e5dff241165b74b", "9b8457b7d4f03a78",
    ),
    ("q-deficient", "gs"): (
        "45e47a46df6d9c0c", "58209b98561dda61", "10e9ea94da0c5358", "9a67e6a9a363dffd",
    ),
    ("q-deficient", "blocks"): (
        "45e47a46df6d9c0c", "8e5a83d1fac6a652", "3f272b02d4fe6edc", "299fae1b6cf2efb5",
    ),
    ("q-full", "gs"): (
        "eaf76d04d224374a", "63cae35c87027c08", "06b4719c12ebb283", "26978520b7c7e190",
    ),
    ("q-full", "blocks"): (
        "eaf76d04d224374a", "446dab9d7875f71c", "6593f32aa8b0d18c", "46a4695588198cd4",
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
    "gf1009+": "90658a70f7b27496400f94952d832068f7e9b8f6604689c6923100b5f17ba417",
    "gf1009-": "0f55a2ec1245068c1f42877a5cb330be122f5a6a4b933010dc084dbf156b3a6a",
    "gf9+": "0d683c65e771b27195641ddd4c0cd7758fc88bd5e684281c01f79ef0411a6676",
    "gf9-": "399a4a9baeebf7aa1f32d6daf50c1c09db25e8402ac4f7384dbf7a7c96edf1ec",
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
