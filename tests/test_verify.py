"""The independent checker must catch every class of tampering it claims to."""

from __future__ import annotations

import random

import pytest

from orthoform import (
    BlockLeft,
    BlockTransvect,
    Decomposition,
    Eliminate,
    HermitianForm,
    JBlock,
    Matrix,
    OpCounters,
    PrimeField,
    QuadraticField,
    RationalField,
    RationalQuaternions,
    Scale,
    ScalarBlock,
    Swap,
    TransformLog,
    brute_force_congruence,
    check_decomposition,
    decompose_blocks,
    decompose_gs,
    invariants_of,
    random_form,
)
from orthoform import kernel, matrix, verify
from helpers import snapshot

GF3 = PrimeField(3)
GF7 = PrimeField(7)
GF9 = QuadraticField(3, "frobenius")
QQ = RationalField()
HH = RationalQuaternions()


def fresh_decomposition(ring=GF7, s=1, d=4, seed=70, rank=None):
    rng = random.Random(seed)
    form = random_form(ring, s, d, rng, rank=rank)
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
    # rank(T) runs after the failed congruence, but its detail still leads
    assert report.details == [
        "materialized transform is singular",
        "transformed matrix is not the claimed direct sum",
    ]


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


def test_mismatched_decomposition_fails_the_first_two_clauses():
    # a 5-dimensional log on a 4-dimensional GF(7) form, and a decomposition over Q
    original, dec = fresh_decomposition()
    dec.log = TransformLog(5, dec.log.ops)
    for wrong in (dec, fresh_decomposition(QQ)[1]):
        report = check_decomposition(original, 1, wrong)
        assert not report.transform_invertible
        assert not report.congruence_matches
        assert report.details[0].endswith("does not fit a 4-dimensional form over GF(7)")


class _Unknown:
    """A two-position block of a type the checker does not know."""

    size = 2


class _UnknownPoint:
    """A one-position block of a type the checker does not know."""

    size = 1


def test_unknown_one_position_block_fails_two_clauses():
    # in the last position a block mistaken for a J block would run off the matrix
    original, dec = fresh_decomposition()
    assert isinstance(dec.blocks[-1], ScalarBlock)
    dec.blocks[-1] = _UnknownPoint()
    with pytest.raises(TypeError, match="block 3 has unknown type _UnknownPoint"):
        dec.direct_sum_matrix()
    report = check_decomposition(original, 1, dec)
    assert report.as_dict() == {
        "transform_invertible": True,
        "congruence_matches": False,
        "blocks_standard": False,
        "radical_matches": True,
    }
    assert report.details == [
        "no direct sum to compare against: block 3 has unknown type _UnknownPoint",
        "block 3 has unknown type _UnknownPoint",
    ]


def _form_with_blocks(ring, s, rng, rank=4, dim=6):
    """A form of the given dimension and rank (None: dense): scalar blocks
    for s = 1, J blocks for s = -1 (over GF(9) and the quaternions an
    alternating form on GF(3) or Q entries)."""
    if s == 1:
        return random_form(ring, 1, dim, rng, rank=rank)
    base, embed = {GF9: (GF3, lambda v: (v, 0)), HH: (QQ, lambda v: (v, 0, 0, 0))}.get(ring, (ring, None))
    form = random_form(base, -1, dim, rng, rank=rank)
    if embed is None:
        return form
    return HermitianForm.from_rows(ring, [[embed(v) for v in row] for row in form.m.rows], -1)


def _tamper(kind, dec, ring):
    zeros = verify._zero_positions(dec)
    if kind in ("value", "value+radical"):
        idx = next(i for i, b in enumerate(dec.blocks) if isinstance(b, ScalarBlock))
        dec.blocks[idx] = ScalarBlock(ring.add(dec.blocks[idx].value, ring.one))
    if kind in ("radical", "value+radical"):
        dec.radical_dim += 1
    if kind == "swap":
        dec.log.append(Swap(0, dec.dim - 1))  # a nonzero block with a radical one, if there is one
    if kind == "singular":
        dec.log.append(BlockLeft(Matrix.zeros(ring, 1, 1), 0))
    if kind == "extra":
        dec.blocks.append(ScalarBlock(ring.one))
    if kind == "unknown":
        dec.blocks[dec.blocks.index(JBlock())] = _Unknown()
    # the last three keep the congruence: they only touch rows at zero blocks
    if kind == "scale-zero":  # the transform becomes singular
        dec.log.append(Scale(zeros[0], ring.zero))
    if kind == "swap-zeros":
        dec.log.append(Swap(zeros[0], zeros[1]))
    if kind == "eliminate-zeros":
        dec.log.append(Eliminate(zeros[0], (zeros[1],), (ring.from_int(2),)))


_KINDS = [None, "value", "swap", "singular", "radical", "extra", "value+radical"]
_ZERO_BLOCK_KINDS = ["scale-zero", "swap-zeros", "eliminate-zeros"]


@pytest.mark.parametrize("s", [1, -1])
@pytest.mark.parametrize("ring", [GF7, GF9, QQ, HH], ids=repr)
def test_certificate_rank_matches_the_exact_rank(ring, s, monkeypatch):
    # with clauses 1-2 holding and every block known, rank(original) is read
    # off the certificate; the report must equal one that always eliminates
    real_rank = verify.rank
    calls = []
    monkeypatch.setattr(verify, "rank", lambda m, counters=None: calls.append(m) or real_rank(m, counters))
    for kind in _KINDS + (["unknown"] if s == -1 else []):
        form = _form_with_blocks(ring, s, random.Random(76))
        original = snapshot(form.m)
        dec = decompose_gs(form)
        _tamper(kind, dec, ring)
        calls.clear()
        report = check_decomposition(original, s, dec)
        # while the congruence holds, invertibility needs only the rank of the
        # 2 x 6 rows at the zero blocks and the corank none; after a size
        # mismatch the rank clause is skipped and rank(T) runs alone
        assert len(calls) == (1 if kind in (None, "radical", "extra") else 2), kind
        assert report.passed == (kind is None)
        with monkeypatch.context() as exact:
            exact.setattr(verify, "_certified", lambda report, s: False)
            reference = check_decomposition(original, s, dec)
        assert report.as_dict() == reference.as_dict(), kind
        assert report.details == reference.details, kind


@pytest.mark.parametrize("rank", [4, None], ids=["deficient", "dense"])
@pytest.mark.parametrize("decompose", [decompose_gs, decompose_blocks], ids=["gs", "blocks"])
@pytest.mark.parametrize("s", [1, -1])
@pytest.mark.parametrize("ring", [GF7, GF9, QQ, HH], ids=repr)
def test_certified_invertibility_matches_the_rank_of_the_transform(ring, s, decompose, rank, monkeypatch):
    # with the congruence holding, invertibility is read off the certificate;
    # the report must equal one that always computes rank(T) and rank(original)
    kinds = _KINDS + (["unknown"] if s == -1 else []) + (_ZERO_BLOCK_KINDS if rank else [])
    for kind in kinds:
        form = _form_with_blocks(ring, s, random.Random(77), rank)
        original = snapshot(form.m)
        dec = decompose(form)
        if kind in ("value", "value+radical") and ScalarBlock not in map(type, dec.blocks):
            continue  # a dense alternating form has J blocks only
        _tamper(kind, dec, ring)
        report = check_decomposition(original, s, dec)
        with monkeypatch.context() as exact:
            exact.setattr(verify, "_certified", lambda report, s: False)
            reference = check_decomposition(original, s, dec)
        assert report.as_dict() == reference.as_dict(), kind
        assert report.details == reference.details, kind
        if kind in (None, "swap-zeros", "eliminate-zeros"):
            assert report.passed, kind


GF101 = PrimeField(101)


@pytest.mark.parametrize("rank", [26, None], ids=["deficient", "dense"])
@pytest.mark.parametrize("decompose", [decompose_gs, decompose_blocks], ids=["gs", "blocks"])
@pytest.mark.parametrize("s", [1, -1])
@pytest.mark.parametrize("ring", [GF101, GF9], ids=repr)
def test_the_plane_check_reports_as_the_list_check(ring, s, decompose, rank, monkeypatch):
    # at d=30 the log is replayed on the int64 kernel, whose store checks the
    # congruence on its planes; with the kernel's threshold above d^2 both
    # run on lists, and every report must read the same
    kinds = _KINDS + (["unknown"] if s == -1 else []) + (_ZERO_BLOCK_KINDS if rank else [])
    for kind in kinds:
        form = _form_with_blocks(ring, s, random.Random(78), rank, dim=30)
        original = snapshot(form.m)
        dec = decompose(form)
        if kind in ("value", "value+radical") and ScalarBlock not in map(type, dec.blocks):
            continue  # a dense alternating form has J blocks only
        _tamper(kind, dec, ring)
        assert isinstance(dec.log._replay(ring), kernel.PlaneRows)
        report = check_decomposition(original, s, dec)
        with monkeypatch.context() as lists:
            lists.setattr(matrix, "_KERNEL_MIN_ENTRIES", 30 * 30 + 1)
            assert not isinstance(dec.log._replay(ring), kernel.PlaneRows)
            reference = check_decomposition(original, s, dec)
        assert report.as_dict() == reference.as_dict(), kind
        assert report.details == reference.details, kind
        if kind in (None, "swap-zeros", "eliminate-zeros"):
            assert report.passed, kind


@pytest.mark.parametrize("rank", [None, 26], ids=["nonsingular", "singular"])
def test_a_plane_check_packs_the_forms_once_and_unpacks_no_more_of_t_than_it_ranks(rank, monkeypatch):
    # the transform stays in the planes it was replayed on: the check packs
    # B once and D never, unpacks the product T * B * sigma(T)^t once to
    # compare it with D, and unpacks of T only its rows at the zero blocks,
    # for their rank
    import numpy as np

    from orthoform import kernel

    original, dec = fresh_decomposition(ring=GF101, d=30, rank=rank)
    zero_blocks = 30 - (rank or 30)
    assert dec.radical_dim == zero_blocks
    direct_sum = dec.direct_sum_matrix()
    packed, unpacked = [], []
    pack, unpack = kernel._pack, kernel._unpack
    monkeypatch.setattr(kernel, "_pack", lambda ring, rows: packed.append(rows) or pack(ring, rows))
    monkeypatch.setattr(kernel, "_unpack", lambda planes: unpacked.append(planes.shape) or unpack(planes))
    assert check_decomposition(original, 1, dec).passed
    assert unpacked == [(1, 30, 30)] + ([(1, zero_blocks, 30)] if zero_blocks else [])
    assert sum(rows is original.rows for rows in packed) == 1
    assert sum(np.array_equal(rows, direct_sum.rows) for rows in packed) == 0


@pytest.mark.parametrize("p, planes", [(2**31 - 1, False), (10**8 + 7, True)])
def test_the_overflow_guard_picks_the_replay_and_both_certify(p, planes):
    # at d=30 the guard _int64_ok fails for GF(2^31 - 1), whose check stays on
    # lists, and holds for GF(10^8 + 7), whose check runs on planes
    original, dec = fresh_decomposition(ring=PrimeField(p), d=30)
    assert matrix._int64_ok(dec.ring, 30) == planes
    assert isinstance(dec.log._replay(dec.ring), kernel.PlaneRows) == planes
    assert check_decomposition(original, 1, dec).passed


def _spy_on_matmul(monkeypatch) -> list:
    """Record (dtype, n, k, m) of each np.matmul call, in order."""
    import numpy as np

    calls = []
    real = np.matmul

    def matmul(x, y, *args, **kwargs):
        calls.append((x.dtype, x.shape[-2], x.shape[-1], y.shape[-1]))
        return real(x, y, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", matmul)
    return calls


# 24 terms of (p - 1)**2 plus p stay below 2**53 and 30 terms do not, for
# p = 18,000,041; over GF(9,020,023^2), whose non-residue c is 3, the same
# holds only with the factor 1 + c: 30 * (p - 1)**2 alone is below 2**53
_FLOAT_EDGE = [PrimeField(18_000_041), QuadraticField(9_020_023, "frobenius")]


@pytest.mark.parametrize("d", [24, 30])
@pytest.mark.parametrize("ring", _FLOAT_EDGE, ids=repr)
def test_the_float_guard_picks_the_certificate_products_and_both_certify(ring, d, monkeypatch):
    # the replay runs on planes at both sizes; the congruence's two products
    # (inner size d) run in float64 while their sums stay below 2**53 and in
    # int64 past it, and both reports read as the list check's
    import numpy as np

    assert (matrix._sum_bound(ring, d) < 2**53) == (d == 24)
    if isinstance(ring, QuadraticField):  # without its factor 1 + c, d=30 would pass
        assert 30 * (ring.p - 1) ** 2 + ring.p < 2**53
    assert matrix._int64_ok(ring, d)
    original, dec = fresh_decomposition(ring=ring, d=d)
    assert isinstance(dec.log._replay(ring), kernel.PlaneRows)
    with monkeypatch.context() as spied:
        calls = _spy_on_matmul(spied)
        assert check_decomposition(original, 1, dec).passed
    assert {dtype for dtype, _, k, _ in calls if k == d} == {np.dtype(np.float64 if d == 24 else np.int64)}
    assert _check_on_planes_as_on_lists(original, dec, d, monkeypatch).passed


GF1009 = PrimeField(1009)


@pytest.mark.parametrize("decompose", [decompose_gs, decompose_blocks], ids=["gs", "blocks"])
@pytest.mark.parametrize(
    "ring, s, d",
    [
        pytest.param(ring, s, d, id=f"{ring!r}{s:+d}-d{d}")
        for ring, s, d in [(GF1009, 1, 96), (GF1009, -1, 96), (GF1009, 1, 200), (GF1009, -1, 200), (GF9, 1, 64)]
    ],
)
def test_no_float_product_of_the_check_exceeds_the_blas_solo_size(ring, s, d, decompose, monkeypatch):
    # OpenBLAS splits a dgemm of more than 2**18 multiply-adds across its
    # threads; every float64 product of the check is tiled below that
    import numpy as np

    form = random_form(ring, s, d, random.Random(79))
    original = snapshot(form.m)
    dec = decompose(form)
    calls = _spy_on_matmul(monkeypatch)
    assert check_decomposition(original, s, dec).passed
    sizes = [n * k * m for dtype, n, k, m in calls if dtype == np.float64]
    assert sizes and max(sizes) <= 2**18


def _gs_log_of_d96(rank=None):
    """(original, decomposition) of gs on a GF(1009) form of d=96, s=+1."""
    form = random_form(GF1009, 1, 96, random.Random(79), rank=rank)
    original = snapshot(form.m)
    return original, decompose_gs(form)


def _spy_on_the_run_replay(monkeypatch) -> tuple:
    """The add_multiples calls and the lengths of the add_run calls a plane replay makes."""
    multiples, runs = [], []
    real_multiples, real_run = kernel.PlaneRows.add_multiples, kernel.PlaneRows.add_run
    monkeypatch.setattr(
        kernel.PlaneRows, "add_multiples", lambda self, *args: multiples.append(args) or real_multiples(self, *args)
    )
    monkeypatch.setattr(
        kernel.PlaneRows, "add_run", lambda self, run: runs.append(len(run)) or real_run(self, run)
    )
    return multiples, runs


def test_a_gs_log_replays_as_one_run(monkeypatch):
    # the 95 Eliminate ops of the log are one run, applied as one delayed
    # update: no op reaches add_multiples
    original, dec = _gs_log_of_d96()
    assert len(dec.log) == 95 and {type(op) for op in dec.log} == {Eliminate}
    multiples, runs = _spy_on_the_run_replay(monkeypatch)
    assert check_decomposition(original, 1, dec).passed
    assert multiples == [] and runs == [95]


@pytest.mark.parametrize("corrupt", ["coefficient p", "target d"])
def test_a_bad_op_inside_a_long_run_keeps_its_error(corrupt):
    # the run is applied after its last op is checked, but a bad op still
    # stops the replay at its own index
    original, dec = _gs_log_of_d96()
    op = dec.log.ops[40]
    if corrupt == "coefficient p":
        dec.log.ops[40] = Eliminate(op.source, op.targets, (GF1009.p,) + op.coeffs[1:])
    else:
        dec.log.ops[40] = Eliminate(op.source, op.targets[:-1] + (96,), op.coeffs)
    error = "log op 40 (Eliminate) does not fit a 96-dimensional log over GF(1009)"
    with pytest.raises(ValueError) as raised:
        dec.log._replay(GF1009)
    assert str(raised.value) == error
    report = check_decomposition(original, 1, dec)
    assert report.as_dict() == {
        "transform_invertible": False,
        "congruence_matches": False,
        "blocks_standard": True,
        "radical_matches": True,
    }
    assert report.details == [f"log does not materialize: {error}"]


def test_a_scale_by_zero_that_ends_a_long_run_fails_only_invertibility(monkeypatch):
    # as the scale-zero tamper after a run of eliminate-zeros tampers: every
    # op touches only rows at zero blocks, so the congruence still holds and
    # only the transform turns singular
    original, dec = _gs_log_of_d96(rank=90)
    zeros = verify._zero_positions(dec)
    for k in range(kernel._RUN_LEAF):
        dec.log.append(Eliminate(zeros[k % 2], (zeros[1 - k % 2], zeros[2]), (GF1009.from_int(k), 2)))
    dec.log.append(Scale(zeros[0], GF1009.zero))
    _, runs = _spy_on_the_run_replay(monkeypatch)
    report = check_decomposition(original, 1, dec)
    assert runs[-1] > kernel._RUN_LEAF
    assert report.as_dict() == {
        "transform_invertible": False,
        "congruence_matches": True,
        "blocks_standard": True,
        "radical_matches": True,
    }
    assert report.details == ["materialized transform is singular"]


def _spy_on_the_checker(monkeypatch):
    """Record each congruence check a row store answers (True when it held)
    and each ranked matrix, in order."""
    events = []
    for store in (matrix._PyRows, kernel.PlaneRows):

        def congruates(self, source, target, real=store.congruates):
            held = real(self, source, target)
            events.append(("congruates", held))
            return held

        monkeypatch.setattr(store, "congruates", congruates)
    monkeypatch.setattr(verify, "rank", lambda m: events.append(("rank", m)) or matrix.rank(m))
    return events


def test_rank_runs_on_the_transform_only_after_the_congruence_fails(monkeypatch):
    events = _spy_on_the_checker(monkeypatch)
    original, dec = fresh_decomposition(d=6, rank=6)
    assert check_decomposition(original, 1, dec).passed
    assert events == [("congruates", True)]  # a nonsingular D needs no elimination

    events.clear()
    original, dec = fresh_decomposition(d=6, rank=4)
    assert dec.radical_dim == 2
    assert check_decomposition(original, 1, dec).passed
    assert [e if e[0] == "congruates" else e[1].shape for e in events] == [("congruates", True), (2, 6)]

    transform = dec.log.materialize(GF7)
    dec.blocks[0] = ScalarBlock(GF7.add(dec.blocks[0].value, 1))
    events.clear()
    assert not check_decomposition(original, 1, dec).congruence_matches
    assert events == [("congruates", False), ("rank", transform), ("rank", original)]


def test_a_zeroed_row_at_a_zero_block_keeps_the_congruence_but_not_invertibility(monkeypatch):
    # row z of T at a zero block of D meets only zeros, so scaling it by 0
    # leaves T * B * sigma(T)^t = D; the radical clause then computes rank(B)
    events = _spy_on_the_checker(monkeypatch)
    original, dec = fresh_decomposition(d=6, rank=4)
    dec.log.append(Scale(verify._zero_positions(dec)[0], GF7.zero))
    report = check_decomposition(original, 1, dec)
    assert report.as_dict() == {
        "transform_invertible": False,
        "congruence_matches": True,
        "blocks_standard": True,
        "radical_matches": True,
    }
    assert report.details == ["materialized transform is singular"]
    assert [e if e[0] == "congruates" else e[1].shape for e in events] == [
        ("congruates", True),
        (2, 6),
        (6, 6),
    ]
    assert events[-1] == ("rank", original)


def test_rows_at_converts_only_the_rows_it_picks_and_a_check_converts_t_once(monkeypatch):
    # over Q the replay store holds T as integer rows; rows_at turns only the
    # z picked rows into Fractions, and a singular check turns each row of T
    # into Fractions once, for the congruence, then picks the z rows of that
    original, dec = fresh_decomposition(ring=QQ, d=8, rank=5)
    zero_at = verify._zero_positions(dec)
    assert len(zero_at) == 3
    transform = dec.log.materialize(QQ)
    store = dec.log._replay(QQ)
    assert type(store) is matrix._RationalRows
    joins = []
    join = matrix._RationalRows._join
    monkeypatch.setattr(matrix._RationalRows, "_join", staticmethod(lambda parts: joins.append(1) or join(parts)))
    assert store.rows_at(zero_at).rows == [transform.rows[i] for i in zero_at]
    assert len(joins) == 3 * 8
    joins.clear()
    assert check_decomposition(original, 1, dec).passed
    assert len(joins) == 8 * 8


def test_dim_zero_is_vacuously_fine():
    original, dec = fresh_decomposition(d=0)
    assert check_decomposition(original, 1, dec).passed


def test_dim_zero_with_blocks_fails_only_the_standard_blocks_clause():
    original, dec = fresh_decomposition(d=0)
    dec.blocks.append(ScalarBlock(GF7.one))
    report = check_decomposition(original, 1, dec)
    assert report.as_dict() == {
        "transform_invertible": True,
        "congruence_matches": True,
        "blocks_standard": False,
        "radical_matches": True,
    }
    assert report.details == ["0-dimensional form with nonempty blocks"]


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


class _UnknownOp:
    """A log op of a kind the transform log does not know."""


class _Sizeless:
    """A block without a size."""


def _misfits():
    # ops that do not fit the 4-dimensional GF(7) log they are appended to
    return {
        "swap-past-the-end": Swap(0, 9),
        "eliminate-past-the-end": Eliminate(0, (9,), (1,)),
        "scale-past-the-end": Scale(7, 1),
        "block-past-the-end": BlockLeft(Matrix.identity(GF7, 3), 3),
        "block-not-square": BlockLeft(Matrix(GF7, [[1, 0]]), 0),
        "block-over-gf5": BlockLeft(Matrix.identity(PrimeField(5), 1), 0),
        "unknown-kind": _UnknownOp(),
        "negative-row": Swap(-1, 0),
        "transvection-past-the-end": BlockTransvect(3, 0, Matrix.identity(GF7, 2)),
    }


@pytest.mark.parametrize("case", list(_misfits()))
def test_a_log_op_that_does_not_fit_fails_the_first_two_clauses(case):
    # the transform log names the op; the checker fails clauses 1-2 instead of raising
    op = _misfits()[case]
    original, dec = fresh_decomposition()
    index = len(dec.log)
    dec.log.append(op)
    message = f"log op {index} ({type(op).__name__}) does not fit a 4-dimensional log over GF(7)"
    with pytest.raises(ValueError) as caught:
        dec.log.materialize(GF7)
    assert str(caught.value) == message
    report = check_decomposition(original, 1, dec)
    assert report.as_dict() == {
        "transform_invertible": False,
        "congruence_matches": False,
        "blocks_standard": True,
        "radical_matches": True,
    }
    assert report.details == [f"log does not materialize: {message}"]


def test_a_block_without_a_size_covers_no_position():
    original, dec = fresh_decomposition()
    dec.blocks.append(_Sizeless())
    report = check_decomposition(original, 1, dec)
    assert report.as_dict() == {
        "transform_invertible": True,
        "congruence_matches": False,
        "blocks_standard": False,
        "radical_matches": True,
    }
    assert report.details == [
        "no direct sum to compare against: block 4 has unknown type _Sizeless",
        "block 4 has unknown type _Sizeless",
    ]


def test_the_certified_corank_needs_a_unit_sign():
    # [[0, 1], [0, 0]] is not a form, but the empty log congruates it to the
    # J block of s = 0, which has rank 1: the zero-block count (0) is not the
    # corank (1), so the radical clause must compute the rank and fail
    original = Matrix(GF7, [[0, 1], [0, 0]])
    dec = Decomposition(
        ring=GF7, s=0, dim=2, blocks=[JBlock()], log=TransformLog(2), counters=OpCounters(), radical_dim=0
    )
    report = check_decomposition(original, 0, dec)
    assert report.as_dict() == {
        "transform_invertible": True,
        "congruence_matches": True,
        "blocks_standard": True,
        "radical_matches": False,
    }
    assert report.details == ["radical_dim 0, zero blocks 0, dim minus rank 1 disagree"]


# (ring, dim, the row store that materializes its log) for the wrongly typed ops
_STORES = {
    "gf101-list": (PrimeField(101), 5, "_ListRows"),
    "q-integer": (QQ, 6, "_RationalRows"),
    "h-integer": (HH, 4, "_QuaternionRows"),
    "gf101-kernel": (PrimeField(101), 30, "PlaneRows"),
    "gf9-kernel": (GF9, 30, "PlaneRows"),
}


def _mistyped(ring):
    # ops whose fields have the wrong type; Scale(0, "1") would read as 1 on
    # the kernel, and so would a coefficient or block entry that is the ring's
    # one as a str or a float.  Over GF(p) and GF(p^2) also an unreduced
    # coefficient, the ring's one plus p * 2^k: the int64 kernel wraps on it
    # (from about k = 56 over GF(101)) where the generic loop reduces it
    def one_as(kind):
        one = ring.one
        return tuple(map(kind, one)) if isinstance(one, tuple) else kind(one)

    def block(kind):
        return Matrix(ring, [[one_as(kind)]], validate=False)

    def unreduced(k):
        big = ring.one[0] if isinstance(ring.one, tuple) else ring.one
        big += ring.characteristic * 2**k
        return (big, *ring.one[1:]) if isinstance(ring.one, tuple) else big

    unreduced_cases = {f"eliminate-unreduced-2^{k}": Eliminate(0, (1,), (unreduced(k),)) for k in (40, 58)}
    return {
        **(unreduced_cases if ring.characteristic else {}),
        "swap-float-row": Swap(0.5, 1),
        "scale-none": Scale(0, None),
        "scale-string": Scale(0, "1"),
        "eliminate-float-target": Eliminate(0, (1.0,), (1,)),
        "blockleft-string": BlockLeft("x", 0),
        "eliminate-string-coeff": Eliminate(0, (1,), (one_as(str),)),
        "eliminate-float-coeff": Eliminate(0, (1,), (one_as(float),)),
        "blockleft-string-entry": BlockLeft(block(str), 0),
        "blockleft-float-entry": BlockLeft(block(float), 0),
        "blocktransvect-string-entry": BlockTransvect(1, 0, block(str)),
        "blocktransvect-float-entry": BlockTransvect(1, 0, block(float)),
    }


@pytest.mark.parametrize(
    "store,op_case", [(store, case) for store, (ring, _, _) in _STORES.items() for case in _mistyped(ring)]
)
def test_a_mistyped_log_op_fails_the_first_two_clauses(store, op_case):
    ring, d, store_name = _STORES[store]
    job = matrix._augmented(Matrix.zeros(ring, d, 0), d * d, terms=d)
    assert type(job).__name__ == store_name
    op = _mistyped(ring)[op_case]
    original, dec = fresh_decomposition(ring, 1, d, seed=71)
    index = len(dec.log)
    dec.log.append(op)
    message = f"log op {index} ({type(op).__name__}) does not fit a {d}-dimensional log over {ring!r}"
    with pytest.raises(ValueError) as caught:
        dec.log.materialize(ring)
    assert str(caught.value) == message
    report = check_decomposition(original, 1, dec)
    assert not report.transform_invertible
    assert not report.congruence_matches
    assert report.details[0] == f"log does not materialize: {message}"


def _replace_a_scalar_block(dec, make) -> int:
    """Replace block 1 over GF(p), and over GF(p^2) the first scalar block a +
    b*x with a = 1 (so that True can stand for a), by ``make`` of its value."""
    if isinstance(dec.ring, QuadraticField):
        at = next(i for i, b in enumerate(dec.blocks) if isinstance(b, ScalarBlock) and b.value[0] == 1)
    else:
        at = 1
    assert isinstance(dec.blocks[at], ScalarBlock)
    dec.blocks[at] = ScalarBlock(make(dec.blocks[at].value))
    return at


def _check_on_planes_as_on_lists(original, dec, d, monkeypatch):
    """The report of the check, which must equal the report on lists."""
    report = check_decomposition(original, 1, dec)
    with monkeypatch.context() as lists:
        lists.setattr(matrix, "_KERNEL_MIN_ENTRIES", d * d + 1)
        reference = check_decomposition(original, 1, dec)
    assert report.as_dict() == reference.as_dict()
    assert report.details == reference.details
    return report


# Over GF(9) each value is made from the block's residue (a, b): shapes and
# types that an int64 plane holds as (a, b) or as another residue
_OUTSIDE_THE_RING = [pytest.param(GF7, lambda v, x=x: x, id=repr(x)) for x in ["x", None, 9, -1, (1, 2), 2**70]] + [
    pytest.param(GF9, list, id="gf9-[a, b]"),
    pytest.param(GF9, lambda v: (v[0] + 3, v[1]), id="gf9-(a + 3, b)"),
    pytest.param(GF9, lambda v: (*v, 0), id="gf9-(a, b, 0)"),
    pytest.param(GF9, lambda v: (v[0] + 2**70, v[1]), id="gf9-(a + 2**70, b)"),
]


@pytest.mark.parametrize("d", [4, 30])
@pytest.mark.parametrize("ring, make", _OUTSIDE_THE_RING)
def test_a_scalar_block_outside_the_ring_is_not_standard(ring, make, d, monkeypatch):
    # each GF(7) value equals s * sigma(value) under the identity involution,
    # so only the ring's own scalar check tells it apart.  At d=30 the replay
    # store checks the congruence on int64 planes, and the report must read
    # as the list check's
    original, dec = fresh_decomposition(ring=ring, d=d)
    assert isinstance(dec.log._replay(ring), kernel.PlaneRows) == (d == 30)
    at = _replace_a_scalar_block(dec, make)
    report = _check_on_planes_as_on_lists(original, dec, d, monkeypatch)
    assert not report.blocks_standard
    assert not report.congruence_matches
    with pytest.raises(ValueError) as caught:
        ring.validate_scalar(dec.blocks[at].value)
    assert f"block {at} value: {caught.value}" in report.details


@pytest.mark.parametrize(
    "ring, make, d",
    [pytest.param(GF7, float, d, id=str(d)) for d in (4, 30)]
    + [
        pytest.param(GF9, make, d, id=f"gf9-{name}-{d}")
        for name, make in [("(float(a), b)", lambda v: (float(v[0]), v[1])), ("(True, b)", lambda v: (True, v[1]))]
        for d in (4, 30)
    ],
)
def test_a_block_value_equal_to_its_residue_keeps_the_congruence(ring, make, d, monkeypatch):
    # float(v) == v, and True == 1, so D still equals the product as Python
    # values, on the int64 planes at d=30 as on lists; the value is still not
    # standard
    original, dec = fresh_decomposition(ring=ring, d=d)
    _replace_a_scalar_block(dec, make)
    report = _check_on_planes_as_on_lists(original, dec, d, monkeypatch)
    assert report.congruence_matches
    assert not report.blocks_standard


def test_a_decomposition_of_the_other_sign_fails_the_congruence_clause(monkeypatch):
    # an alternating form decomposed with s = -1 and checked with s = +1: its
    # J blocks are [[0, 1], [-1, 0]], not the [[0, 1], [1, 0]] of s = +1
    form = random_form(GF7, -1, 4, random.Random(3))
    original = snapshot(form.m)
    dec = decompose_gs(form)
    assert check_decomposition(original, -1, dec).passed
    ranked = []
    monkeypatch.setattr(verify, "rank", lambda m: ranked.append(m) or matrix.rank(m))
    report = check_decomposition(original, 1, dec)
    assert report.as_dict() == {
        "transform_invertible": True,
        "congruence_matches": False,
        "blocks_standard": True,
        "radical_matches": True,
    }
    assert report.details == ["decomposition of sign -1 does not fit a form of sign 1"]
    assert original in ranked  # the radical clause computed the rank
