"""The recursive block decomposition and its agreement with the sequential one."""

from __future__ import annotations

import ast
import hashlib
import math
import random
import sys
from pathlib import Path

import pytest

from orthoform import (
    BlockLeft,
    BlockTransvect,
    HermitianForm,
    InvariantViolation,
    JBlock,
    Matrix,
    PrimeField,
    QuadraticField,
    RationalField,
    RationalQuaternions,
    TransformLog,
    check_decomposition,
    decompose_blocks,
    decompose_gs,
    detect_radical,
    invariants_of,
    matmul_classical,
    random_form,
    row_reduce,
)
from orthoform import blocks as blocks_module, matrix
from helpers import SPLIT_RINGS, snapshot

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
            assert rad == d - matrix.rank(before) == d - r


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
    "gf101+": {4: "7494007aee9839bf", 8: "1e1b9f31507b8920"},
    "gf101-": {4: "7393bc21cc27d074", 8: "bb7f6b8fd084da3f"},
    "gf9+": {4: "a6d166153f148c7a", 8: "e0fe513b1aace0b9"},
    "gf2+": {4: "48631d146549b09a", 8: "9b05a5ab67df8bc2"},
    "q-": {4: "ebd022db7a82b39f", 8: "b1f424903a6fbc5b"},
    "h+": {4: "3e80e8d6ff8d0ae5", 8: "5859486f1bc7cc7f"},
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


def test_multiplication_count_slope_with_strassen():
    # ring-operation counts are deterministic, so unlike criterion 9's wall
    # times this bound on the growth of the block algorithm cannot flake under
    # host load.  The count reads 1.707, 1.598 and 1.503 * d^3 here, a slope
    # of 2.908; a recursion whose cubic work were all Strassen products would
    # approach log2(7) = 2.81.
    ring = PrimeField(1009)
    dims = (64, 128, 256)
    counts = [
        decompose_blocks(random_form(ring, 1, d, random.Random(90)), strassen_cutoff=32).counters.multiplications
        for d in dims
    ]
    # the least-squares slope of log count against log d, for d doubling twice
    slope = math.log2(counts[2] / counts[0]) / 2
    assert slope <= 2.91, (counts, slope)


def test_wrapper_guards():
    # decompose_blocks, the one entry to the recursion, takes a Strassen
    # cutoff of 0 or at least 2
    with pytest.raises(ValueError):
        decompose_blocks(HermitianForm.from_rows(GF7, [[1]], 1), strassen_cutoff=1)
    with pytest.raises(ValueError):
        decompose_blocks(HermitianForm.from_rows(GF7, [[1]], 1), strassen_cutoff=-2)


def test_invariant_violation_type():
    assert issubclass(InvariantViolation, RuntimeError)


def test_singular_leaf_window_raises():
    # the recursion hands aniso only nonsingular windows; a leaf whose sweep
    # finds a radical means that promise broke
    form = HermitianForm.from_rows(GF7, [[5, 0, 0, 0], [0, 0, 0, 0], [0, 0, 3, 1], [0, 0, 1, 2]], 1)
    with pytest.raises(InvariantViolation, match="radical"):
        blocks_module._BlockRun(form, 0).aniso(0, 4)


def test_zero_leading_half_of_an_odd_window_raises():
    # a 17-row window whose leading 9 x 9 block is zero is singular: its split
    # finds rank 0, and iso refuses 9 hyperbolic pairs in 17 rows
    d = 17
    rows = [[0] * d for _ in range(d)]
    for i in range(8):
        rows[i][9 + i] = rows[9 + i][i] = 1
    form = HermitianForm.from_rows(GF7, rows, 1)
    with pytest.raises(InvariantViolation):
        blocks_module._BlockRun(form, 0).aniso(0, d)


GF101 = PrimeField(101)

# (ring, s, dim, rank or None, seed).  The digests pin the blocks, the
# materialized transform, the SLP rendering of the log and every operation
# counter of both decomposers, so a refactor of the elimination kernels must
# reproduce them byte for byte.  GOLDEN_DIGESTS and GOLDEN_SHAPES are taken
# with the leaf size at 1, so they pin the recursion down to 1 x 1 windows; at
# the module's leaf size every golden form is one split and one leaf, which
# GOLDEN_FIELD_DIGESTS pins.
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

GOLDEN_FIELDS = ("blocks", "transform", "slp", "counters")


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


def _pinned(table, case):
    return {name: dict(zip(GOLDEN_FIELDS, table[case, name])) for name in ("gs", "blocks")}


# As GOLDEN_FIELD_DIGESTS, with the leaf size at 1.
GOLDEN_DIGESTS = {
    ("gf101+deficient", "gs"): (
        "9014928b774e5c47", "a2c9e8b90dec9d45", "c0a135eac70cd183", "9404bc29593b4612",
    ),
    ("gf101+deficient", "blocks"): (
        "79b340f41496794f", "45e897f38420714d", "5b01cfed4062473b", "592a85c422911db0",
    ),
    ("gf101+full", "gs"): (
        "26849095620d1f58", "23fcbdba3751c115", "687f438fb5c37625", "5add6920e11c93f5",
    ),
    ("gf101+full", "blocks"): (
        "26849095620d1f58", "23fcbdba3751c115", "48f8b4d9ac77fef6", "13f1f4eeea4a84e0",
    ),
    ("gf101-deficient", "gs"): (
        "e4125d09d60b5f7f", "60b41f7fde97277a", "15b6248d94485c02", "cf04e0e1115192b7",
    ),
    ("gf101-deficient", "blocks"): (
        "e4125d09d60b5f7f", "f22d85a67e2d2b95", "7a54022cb4ed4ae6", "34b39b62b94cd7ad",
    ),
    ("gf101-full", "gs"): (
        "8f23abf5eb1a6e35", "a930547916936dab", "3e143815f5ad2631", "7ff4b582b41e5b62",
    ),
    ("gf101-full", "blocks"): (
        "8f23abf5eb1a6e35", "cf5a4887ec9e947a", "a7d5850848439816", "d4b1286c685457ed",
    ),
    ("gf101-tail", "gs"): (
        "3054029728d7a823", "f576c35e582d1c9b", "47acae8b82d49a6d", "c6bc5893c2134e09",
    ),
    ("gf101-tail", "blocks"): (
        "3054029728d7a823", "07fa73c85149ecf7", "286a632a8e223a77", "913a71dca39d1180",
    ),
    ("gf2-deficient", "gs"): (
        "2bfbff0d76722ec4", "93ee6a4547e5c611", "53930b6ade3cc97e", "1ddd0da4eb08fcb8",
    ),
    ("gf2-deficient", "blocks"): (
        "2bfbff0d76722ec4", "eb8b939796ff6087", "b4c85433250f087e", "28aa283d4bf34b6a",
    ),
    ("gf2-full", "gs"): (
        "53e1cf0776d6c71d", "2c3b97e200887bf3", "746682c2fcc7b9e7", "48f94a70b267b6f6",
    ),
    ("gf2-full", "blocks"): (
        "53e1cf0776d6c71d", "0b9123899f3ce921", "50a8b6f512319262", "93539fac1d334370",
    ),
    ("gf3-corner", "gs"): (
        "71756ca2e634179d", "d543163b1e9f7125", "4a301c2155b46189", "3ac57b60f5c35718",
    ),
    ("gf3-corner", "blocks"): (
        "71756ca2e634179d", "079f9fb5c3521858", "caee97843261d224", "56f2a8c7afe686cc",
    ),
    ("gf9+deficient", "gs"): (
        "afc9dbe15078faf5", "49312ede0b453e0b", "cc2acd2522ed6cc4", "f1af44db88ce02e8",
    ),
    ("gf9+deficient", "blocks"): (
        "d8e7f63f99dcd4e3", "5778f15b4c2b1983", "dd79e2ca087db1b3", "7f7327451c9960e7",
    ),
    ("gf9+full", "gs"): (
        "31bda5f8ac055f41", "2967e386e6ff96ed", "5400fcb655bd7388", "0dac27b0f6ac8ec0",
    ),
    ("gf9+full", "blocks"): (
        "ed5a6873f6f6357e", "09f389e39f71431f", "b1aff78ac73794bc", "d868b57c57993ca7",
    ),
    ("gf9-full", "gs"): (
        "a1325ed6c6f3a97d", "cd2373a50e19c690", "61bea0e7374d44cf", "87d27ca8321d9033",
    ),
    ("gf9-full", "blocks"): (
        "a8eb4a9ae736b826", "6bebb24cb1e3ceae", "c7c5595a2820d654", "9ed4ec8de062c191",
    ),
    ("h+deficient", "gs"): (
        "fa4efd8a12b15b1d", "cada9683740cdee2", "b7c1d68d30efc286", "8618ab181dc639a8",
    ),
    ("h+deficient", "blocks"): (
        "fa4efd8a12b15b1d", "3fa3c2276a3de59f", "f79ce1c67e5fb50e", "33625ed170d4c4b8",
    ),
    ("h+full", "gs"): (
        "c3f0e3e4ff5a3854", "9ecb421e917ec920", "46b52d1ee9f3cd2b", "8c88972b9cc0c4d4",
    ),
    ("h+full", "blocks"): (
        "7680cca503e5b986", "ae6c11929c716b9f", "bcd569003cb5f5ec", "a3346a279902fa89",
    ),
    ("h-deficient", "gs"): (
        "453306cf1d4ee0b7", "6327a008b740f72f", "b959b32bbcbfb70b", "3e9f82cc6d044ba1",
    ),
    ("h-deficient", "blocks"): (
        "453306cf1d4ee0b7", "563e230907b7aa18", "5c828ec56f0c1bb9", "a7d0f7ecb5fa3b2f",
    ),
    ("q+deficient", "gs"): (
        "5b0ba4f713f80b49", "aaad8374d89361a0", "8a456083b68175c1", "f70ae99a468849a9",
    ),
    ("q+deficient", "blocks"): (
        "5b0ba4f713f80b49", "39a776fe9e2d3389", "5f223b46fceb3c92", "d389cd193e4d432f",
    ),
    ("q+full", "gs"): (
        "307ef5333463e12d", "ee0f49b55b1b0921", "4b85b13347b2b92a", "520e5e10917191ab",
    ),
    ("q+full", "blocks"): (
        "307ef5333463e12d", "ee0f49b55b1b0921", "7e5dff241165b74b", "cf5ff89512ffa2c4",
    ),
    ("q-deficient", "gs"): (
        "45e47a46df6d9c0c", "58209b98561dda61", "10e9ea94da0c5358", "23bc0b216bd71299",
    ),
    ("q-deficient", "blocks"): (
        "45e47a46df6d9c0c", "8e5a83d1fac6a652", "03f1566f69c04b46", "9a783cde747218c8",
    ),
    ("q-full", "gs"): (
        "eaf76d04d224374a", "63cae35c87027c08", "06b4719c12ebb283", "74f146ac92b3b4e3",
    ),
    ("q-full", "blocks"): (
        "eaf76d04d224374a", "446dab9d7875f71c", "f0fdeb189fd76070", "a6616317e021588a",
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_golden_logs_and_counters(case, monkeypatch):
    monkeypatch.setattr(blocks_module, "LEAF_ROWS", 1)
    assert _golden_field_digests(*GOLDEN_CASES[case]) == _pinned(GOLDEN_DIGESTS, case)


def _iso_transvections(monkeypatch) -> list:
    """Records the BlockTransvect op of each ``block_transvect`` that ``iso`` applies."""
    ops = []
    method = HermitianForm.block_transvect

    def spy(self, op, *args):
        if sys._getframe(1).f_code.co_name == "iso":
            ops.append(op)
        method(self, op, *args)

    monkeypatch.setattr(HermitianForm, "block_transvect", spy)
    return ops


@pytest.mark.parametrize("case,branch", [("gf101-tail", "tail"), ("gf3-corner", "corner")])
def test_recursion_pins_reach_the_isotropic_branches(case, branch, monkeypatch):
    # iso's one transvection adds coeff * rows [lo, lo+f) to rows [lo+f, ...):
    # it decouples the tail when coeff has rows below its leading f, and
    # clears the pair corner when that leading f x f block is nonzero
    monkeypatch.setattr(blocks_module, "LEAF_ROWS", 1)
    ops = _iso_transvections(monkeypatch)
    ring, s, d, rank, seed = GOLDEN_CASES[case]
    decompose_blocks(random_form(ring, s, d, random.Random(seed), rank=rank))
    reached = set()
    for op in ops:
        f = op.target - op.source
        if op.coeff.nrows > f:
            reached.add("tail")
        if not op.coeff.submatrix(0, f, 0, f).is_zero():
            reached.add("corner")
    assert branch in reached


def test_blocks_edits_the_form_only_through_its_methods(monkeypatch):
    # every op of a decompose_blocks log is appended in form.py, by the
    # HermitianForm method that also writes the rows it changes, and blocks.py
    # assigns into no subscript, so it writes no entry of the form by hand
    monkeypatch.setattr(blocks_module, "LEAF_ROWS", 1)
    appended_in = set()
    append = TransformLog.append

    def spy(self, op):
        appended_in.add(Path(sys._getframe(1).f_code.co_filename).name)
        append(self, op)

    monkeypatch.setattr(TransformLog, "append", spy)
    for ring, s, d, rank, seed in GOLDEN_CASES.values():
        decompose_blocks(random_form(ring, s, d, random.Random(seed), rank=rank))
    assert appended_in == {"form.py"}
    tree = ast.parse(Path(blocks_module.__file__).read_text(encoding="utf-8"))
    writes = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.Assign, ast.AugAssign))
        and any(isinstance(t, ast.Subscript) for t in getattr(node, "targets", [getattr(node, "target", None)]))
    ]
    assert writes == []


def test_blocks_sigma_transposes_nothing_and_installs_rows_only_in_the_split():
    # every block a step clears has its mirror read off the form, and every
    # step but the split computes its rows through a HermitianForm move
    tree = ast.parse(Path(blocks_module.__file__).read_text(encoding="utf-8"))
    callers = {}
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                    callers.setdefault(node.func.attr, set()).add(fn.name)
    assert "sigma_transpose" not in callers
    assert callers["install_rows"] == {"_split"}



# Per decomposer and per field of GOLDEN_FIELDS, the first 16 hex digits of
# the sha256 of each golden form's output at the module's leaf size: a change
# to one field (say the SLP rendering) shows which field moved and leaves the
# other pins standing.
GOLDEN_FIELD_DIGESTS = {
    ("gf101+deficient", "gs"): (
        "9014928b774e5c47", "a2c9e8b90dec9d45", "c0a135eac70cd183", "9404bc29593b4612",
    ),
    ("gf101+deficient", "blocks"): (
        "79b340f41496794f", "45e897f38420714d", "5b01cfed4062473b", "ed37785988c0c0be",
    ),
    ("gf101+full", "gs"): (
        "26849095620d1f58", "23fcbdba3751c115", "687f438fb5c37625", "5add6920e11c93f5",
    ),
    ("gf101+full", "blocks"): (
        "26849095620d1f58", "23fcbdba3751c115", "48f8b4d9ac77fef6", "155031b78f3e5e11",
    ),
    ("gf101-deficient", "gs"): (
        "e4125d09d60b5f7f", "60b41f7fde97277a", "15b6248d94485c02", "cf04e0e1115192b7",
    ),
    ("gf101-deficient", "blocks"): (
        "e4125d09d60b5f7f", "773fa06e1569c87a", "c8a307ead032f87c", "3b6606f16d96c5f1",
    ),
    ("gf101-full", "gs"): (
        "8f23abf5eb1a6e35", "a930547916936dab", "3e143815f5ad2631", "7ff4b582b41e5b62",
    ),
    ("gf101-full", "blocks"): (
        "8f23abf5eb1a6e35", "8ea3f6042f62ac4d", "52fec56722b2f872", "619f2ed9ac680d8c",
    ),
    ("gf101-tail", "gs"): (
        "3054029728d7a823", "f576c35e582d1c9b", "47acae8b82d49a6d", "c6bc5893c2134e09",
    ),
    ("gf101-tail", "blocks"): (
        "3054029728d7a823", "57d63a227b269871", "9e7321910f3e1311", "aca9a8d090077ffe",
    ),
    ("gf2-deficient", "gs"): (
        "2bfbff0d76722ec4", "93ee6a4547e5c611", "53930b6ade3cc97e", "1ddd0da4eb08fcb8",
    ),
    ("gf2-deficient", "blocks"): (
        "2bfbff0d76722ec4", "eb8b939796ff6087", "9021a0862aaadbaa", "fa7be801be315334",
    ),
    ("gf2-full", "gs"): (
        "53e1cf0776d6c71d", "2c3b97e200887bf3", "746682c2fcc7b9e7", "48f94a70b267b6f6",
    ),
    ("gf2-full", "blocks"): (
        "53e1cf0776d6c71d", "9c1bc4ed0c52cb2a", "5bce4cdf56bda315", "70e59511eb7a7765",
    ),
    ("gf3-corner", "gs"): (
        "71756ca2e634179d", "d543163b1e9f7125", "4a301c2155b46189", "3ac57b60f5c35718",
    ),
    ("gf3-corner", "blocks"): (
        "71756ca2e634179d", "a20d1f0b8c3a12f5", "2acde23eab273c21", "b0b0dcfee78844be",
    ),
    ("gf9+deficient", "gs"): (
        "afc9dbe15078faf5", "49312ede0b453e0b", "cc2acd2522ed6cc4", "f1af44db88ce02e8",
    ),
    ("gf9+deficient", "blocks"): (
        "d8e7f63f99dcd4e3", "5778f15b4c2b1983", "20b7f1155b2b8ae9", "a381397fdc788941",
    ),
    ("gf9+full", "gs"): (
        "31bda5f8ac055f41", "2967e386e6ff96ed", "5400fcb655bd7388", "0dac27b0f6ac8ec0",
    ),
    ("gf9+full", "blocks"): (
        "ed5a6873f6f6357e", "164e8d166dcd5f45", "87c7fbbe12cb6b19", "c60aa6fd43b580a1",
    ),
    ("gf9-full", "gs"): (
        "a1325ed6c6f3a97d", "cd2373a50e19c690", "61bea0e7374d44cf", "87d27ca8321d9033",
    ),
    ("gf9-full", "blocks"): (
        "a8eb4a9ae736b826", "6bebb24cb1e3ceae", "f61a04095b4f0f5f", "29aa3c3efa4f4442",
    ),
    ("h+deficient", "gs"): (
        "fa4efd8a12b15b1d", "cada9683740cdee2", "b7c1d68d30efc286", "8618ab181dc639a8",
    ),
    ("h+deficient", "blocks"): (
        "fa4efd8a12b15b1d", "3fa3c2276a3de59f", "f79ce1c67e5fb50e", "50fca3da15f34e8f",
    ),
    ("h+full", "gs"): (
        "c3f0e3e4ff5a3854", "9ecb421e917ec920", "46b52d1ee9f3cd2b", "8c88972b9cc0c4d4",
    ),
    ("h+full", "blocks"): (
        "7680cca503e5b986", "ae6c11929c716b9f", "5c126304510f4510", "fdc585460f557391",
    ),
    ("h-deficient", "gs"): (
        "453306cf1d4ee0b7", "6327a008b740f72f", "b959b32bbcbfb70b", "3e9f82cc6d044ba1",
    ),
    ("h-deficient", "blocks"): (
        "453306cf1d4ee0b7", "563e230907b7aa18", "5c828ec56f0c1bb9", "35d36c7def98a49a",
    ),
    ("q+deficient", "gs"): (
        "5b0ba4f713f80b49", "aaad8374d89361a0", "8a456083b68175c1", "f70ae99a468849a9",
    ),
    ("q+deficient", "blocks"): (
        "5b0ba4f713f80b49", "39a776fe9e2d3389", "5f223b46fceb3c92", "1218b3636c232963",
    ),
    ("q+full", "gs"): (
        "307ef5333463e12d", "ee0f49b55b1b0921", "4b85b13347b2b92a", "520e5e10917191ab",
    ),
    ("q+full", "blocks"): (
        "307ef5333463e12d", "ee0f49b55b1b0921", "7e5dff241165b74b", "8e8db8cdf9081310",
    ),
    ("q-deficient", "gs"): (
        "45e47a46df6d9c0c", "58209b98561dda61", "10e9ea94da0c5358", "23bc0b216bd71299",
    ),
    ("q-deficient", "blocks"): (
        "45e47a46df6d9c0c", "68e66bd9ce1e00a0", "8d5c119b9b766d61", "ea31b19d22bf74fd",
    ),
    ("q-full", "gs"): (
        "eaf76d04d224374a", "63cae35c87027c08", "06b4719c12ebb283", "74f146ac92b3b4e3",
    ),
    ("q-full", "blocks"): (
        "eaf76d04d224374a", "51d3897ebb94638f", "23576d90d993dabd", "71cc0ab5a7686978",
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_golden_fields_per_decomposer(case):
    assert _golden_field_digests(*GOLDEN_CASES[case]) == _pinned(GOLDEN_FIELD_DIGESTS, case)


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


def test_golden_recursion_shapes(monkeypatch):
    monkeypatch.setattr(blocks_module, "LEAF_ROWS", 1)
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
    "gf1009+": "73be185e967cf08b1b94fb0f164327d3bf6ba29fb76b68388cadd56940a80f94",
    "gf1009-": "c971f3c9bd3a7ff0777dacd8222ba31f810259023666e0c468f4058a33c9d2de",
    "gf9+": "76918577ac5f3261087cac0ced1fb9bbb8975eca501777f4d62c2ed4ab135aa2",
    "gf9-": "1849b8f5f71ed20ff51a3546e40b7eea663cf6cab4b3a1e7f688a7dcbd95ef9a",
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


def test_blocks_inverts_only_the_pivots_that_clear_a_row():
    # the splits of the recursion's already diagonal windows clear nothing, so
    # they invert nothing
    dec = decompose_blocks(random_form(GF1009, 1, 64, random.Random(90)))
    assert dec.counters.inversions == 63


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
    The reference is row_reduce of the leading block, then the
    congruence of the window by the identity with that transform pasted in,
    as two full products."""
    out = []
    for form, lo, h, hi, k, cutoffs in _split_forms(ring, s, random.Random(631)):
        a, r, _ = row_reduce(form.m.submatrix(lo, lo + h, lo, lo + h))
        assert r == k
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
    # block_congruence and block_transvect multiply only the corner of their
    # column pass and mirror the active rows above and below it; the form is
    # zero outside the active window.  The transvections put the target after
    # and before the source, and are checked against their embedded BlockLeft.
    ring, s = SPLIT_RINGS[case]
    rng = random.Random(633)
    d, active_lo, active_hi = 11, 1, 9

    def coeff(n, k):
        return Matrix(ring, [[ring.random(rng) for _ in range(k)] for _ in range(n)])

    for cutoff in (0, 2):
        for op in (BlockLeft(coeff(4, 4), 3), BlockTransvect(6, 2, coeff(3, 3)), BlockTransvect(1, 4, coeff(2, 4))):
            rows = [[ring.zero] * d for _ in range(d)]
            window = random_form(ring, s, active_hi - active_lo, rng).m.rows
            for row, new in zip(rows[active_lo:active_hi], window):
                row[active_lo:active_hi] = new
            form = HermitianForm(ring, Matrix(ring, rows), s)
            left = op if isinstance(op, BlockLeft) else op.embedded()
            expected = _congruence(_pasted(left.block, left.offset, d), form.m)
            if isinstance(op, BlockLeft):
                form.block_congruence(op.offset, op.block, active_lo, active_hi, cutoff)
            else:
                form.block_transvect(op, active_lo, active_hi, cutoff)
            assert repr(form.m.rows) == repr(expected.rows)
            assert list(form.log) == [op]


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


def test_small_windows_are_leaves(monkeypatch):
    # below the whole-matrix split no window of at most LEAF_ROWS rows is
    # split again: the pivot sweep takes it in one pass, so the log of an
    # alternating d=64 form shrinks from 96 ops (leaves of 1 row) to 36
    windows = []
    split = blocks_module._split

    def spy(form, lo, h, hi, cutoff):
        windows.append(hi - lo)
        return split(form, lo, h, hi, cutoff)

    monkeypatch.setattr(blocks_module, "_split", spy)
    d = 64
    form = random_form(GF1009, -1, d, random.Random(90))
    original = snapshot(form.m)
    dec = decompose_blocks(form)
    assert len(dec.log) <= 40
    assert windows[0] == d and len(windows) > 1
    assert min(windows[1:]) > blocks_module.LEAF_ROWS
    assert check_decomposition(original, -1, dec).passed
