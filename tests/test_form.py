"""Form container, congruence primitives, transform log, detection.

Every congruence primitive is checked against the matching elementary
matrix: applying the primitive to B must equal E * B * E^{sigma t} computed
with plain products.  That identity is the ground truth everything else in
the package leans on.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from orthoform import (
    BlockTransvect,
    Eliminate,
    FormValidationError,
    HermitianForm,
    Matrix,
    OpCounters,
    PrimeField,
    QuadraticField,
    RationalField,
    RationalQuaternions,
    Scale,
    Swap,
    TransformLog,
    detect_s_sigma,
    is_hermitian,
    matmul_classical,
    random_form,
)
from orthoform import form as form_module
from orthoform.form import transpositions
from orthoform.matrix import col_axpy
from helpers import snapshot

GF7 = PrimeField(7)
GF2 = PrimeField(2)
GF9 = QuadraticField(3, "frobenius")
QQ = RationalField()
HH = RationalQuaternions()

WITNESS_RINGS = [(GF7, 1), (GF7, -1), (GF2, 1), (GF9, 1), (QQ, -1), (HH, 1)]


def congruate(matrix: Matrix, elem: Matrix) -> Matrix:
    return matmul_classical(matmul_classical(elem, matrix), elem.sigma_transpose())


def elem_scale(ring, d, i, lam):
    e = Matrix.identity(ring, d)
    e.rows[i][i] = lam
    return e


def elem_swap(ring, d, i, j):
    e = Matrix.identity(ring, d)
    e.rows[i][i] = e.rows[j][j] = ring.zero
    e.rows[i][j] = e.rows[j][i] = ring.one
    return e


def elem_transvect(ring, d, target, source, lam):
    e = Matrix.identity(ring, d)
    e.rows[target][source] = lam
    return e


@pytest.mark.parametrize("ring,s", WITNESS_RINGS, ids=lambda v: str(v))
def test_scale_matches_elementary_congruence(ring, s):
    rng = random.Random(31)
    for _ in range(25):
        d = rng.randrange(1, 6)
        form = random_form(ring, s, d, rng)
        before = snapshot(form.m)
        i = rng.randrange(d)
        lam = ring.random(rng)
        if lam == ring.zero:
            continue
        form.scale_row_column(i, lam)
        assert form.m == congruate(before, elem_scale(ring, d, i, lam))


@pytest.mark.parametrize("ring,s", WITNESS_RINGS, ids=lambda v: str(v))
def test_swap_matches_elementary_congruence(ring, s):
    rng = random.Random(32)
    for _ in range(25):
        d = rng.randrange(2, 6)
        form = random_form(ring, s, d, rng)
        before = snapshot(form.m)
        i, j = rng.sample(range(d), 2)
        form.swap_row_columns(i, j)
        assert form.m == congruate(before, elem_swap(ring, d, i, j))


@pytest.mark.parametrize("ring,s", WITNESS_RINGS, ids=lambda v: str(v))
def test_transvect_matches_elementary_congruence(ring, s):
    rng = random.Random(33)
    for _ in range(25):
        d = rng.randrange(2, 6)
        form = random_form(ring, s, d, rng)
        before = snapshot(form.m)
        target, source = rng.sample(range(d), 2)
        lam = ring.random(rng)
        form.transvect(target, source, lam)
        assert form.m == congruate(before, elem_transvect(ring, d, target, source, lam))


def test_frozen_clear_on_the_2x2_witness():
    # [[1,2],[2,1]] over GF(7): clearing against the (0,0) pivot leaves
    # diag(1, 1 - 2*2) = diag(1, 4)
    form = HermitianForm.from_rows(GF7, [[1, 2], [2, 1]], 1)
    form.clear_row_column(0, 0)
    assert form.m.rows == [[1, 0], [0, 4]]


def test_clear_row_column_diagonal_pivot():
    rng = random.Random(34)
    for ring, s in WITNESS_RINGS:
        for _ in range(20):
            d = rng.randrange(1, 6)
            form = random_form(ring, s, d, rng)
            i = rng.randrange(d)
            if form.m.rows[i][i] == ring.zero:
                continue
            before = snapshot(form.m)
            form.clear_row_column(i, i)
            for k in range(d):
                if k != i:
                    assert form.m.rows[i][k] == ring.zero
                    assert form.m.rows[k][i] == ring.zero
            # the congruence class is preserved: rebuild from the log suffix
            # is covered elsewhere; here assert the unmoved corner survives
            assert form.m.rows[i][i] == before.rows[i][i]


def test_clear_row_column_off_diagonal_pivot():
    # pivot at (0,1) of an alternating form clears the rest of row-column 1
    form = HermitianForm.from_rows(QQ, [[0, 2, 3], [-2, 0, 5], [-3, -5, 0]], -1)
    form.clear_row_column(0, 1)
    assert form.m.rows[2][1] == 0 and form.m.rows[1][2] == 0
    assert form.m.rows[0][1] == 2 and form.m.rows[1][0] == -2
    assert form.m.rows[0][2] == 3  # row-column 0 is the caller's next clear


def test_windowed_transvect_equals_full_congruence_when_support_allows():
    rng = random.Random(35)
    lo, hi, d = 1, 4, 6
    for _ in range(20):
        form = random_form(GF7, 1, d, rng)
        # zero out everything outside the window except untouched diagonal
        # corners, so the windowed op is exactly the full congruence
        for i in range(d):
            for j in range(d):
                inside = lo <= i < hi and lo <= j < hi
                if not inside and i != j:
                    form.m.rows[i][j] = 0
        before = snapshot(form.m)
        target, source = rng.sample(range(lo, hi), 2)
        lam = GF7.random(rng)
        form.transvect(target, source, lam, lo, hi)
        assert form.m == congruate(before, elem_transvect(GF7, d, target, source, lam))
        assert form.m.rows[5][5] == before.rows[5][5]


SWEEP_RINGS = [
    PrimeField(2),
    PrimeField(3),
    PrimeField(101),
    PrimeField(2**61 - 1),
    GF9,
    QuadraticField(3, "identity"),
    QuadraticField(2**31 + 11),
]


def _pairwise_col_sweep(ring, rows, src, pairs, lo, hi):
    """The column pass as one col_axpy per (target, coefficient) pair."""
    for k, lam in pairs:
        col_axpy(ring, rows, k, src, lam, lo, hi)


def _zero_pair(form, r, c):
    form.m.rows[r][c] = form.m.rows[c][r] = form.ring.zero


@pytest.mark.parametrize("ring", SWEEP_RINGS, ids=lambda r: f"{r!r}:{r.involution}")
def test_column_sweep_matches_the_generic_loop(ring, monkeypatch):
    # clear_row_column(i, j), i != j, and windowed transvect, against the same
    # calls with the column pass run pair by pair: the rows, log and counters
    # must agree exactly
    rng = random.Random(42)
    for trial in range(36):
        s = (1, -1)[trial % 2]
        d = rng.randrange(4, 9)
        form = random_form(ring, s, d, rng)
        if trial % 3 == 0:
            lo, hi = 0, d
        elif trial % 3 == 1:  # an inner window
            lo = rng.randrange(1, d - 2)
            hi = rng.randrange(lo + 2, d)
        else:
            lo = rng.randrange(0, d - 1)
            hi = rng.randrange(lo + 2, d + 1)
        i, j = rng.sample(range(lo, hi), 2)
        for r in range(lo, hi):
            if r != i and rng.random() < 0.4:  # only some rows meet column i
                _zero_pair(form, r, i)
            if trial % 4 == 0 and r not in (i, j, lo, hi - 1):  # targets only at the window edges
                _zero_pair(form, r, j)
        if form.m.rows[i][j] == ring.zero:
            form.m.rows[i][j] = ring.one
            form.m.rows[j][i] = ring.apply_sign(s, ring.one)
        assert is_hermitian(form.m, s)
        twin = form.copy()
        form.clear_row_column(i, j, lo, hi)
        target, source = rng.sample(range(lo, hi), 2)
        lam = ring.random(rng)
        form.transvect(target, source, lam, lo, hi)
        with monkeypatch.context() as patch:
            patch.setattr(form_module, "col_sweep", _pairwise_col_sweep)
            twin.clear_row_column(i, j, lo, hi)
            twin.transvect(target, source, lam, lo, hi)
        assert repr(form.m.rows) == repr(twin.m.rows)
        assert form.log == twin.log
        assert form.counters == twin.counters


def test_primitive_counter_exactness():
    form = random_form(GF9, 1, 5, random.Random(36))
    form.counters = OpCounters()
    form.scale_row_column(2, (1, 1), 1, 4)  # window of width 3
    assert form.counters.multiplications == 6
    assert form.counters.sigma_applications == 3
    assert form.counters.additions == 0
    form.counters = OpCounters()
    form.transvect(1, 3, (2, 0), 0, 5)
    assert form.counters.multiplications == 10
    assert form.counters.additions == 10
    assert form.counters.sigma_applications == 1
    form.counters = OpCounters()
    form.swap_row_columns(0, 4)
    assert form.counters.as_dict() == OpCounters().as_dict()


def test_primitive_argument_validation():
    form = random_form(GF7, 1, 3, random.Random(37))
    with pytest.raises(ValueError):
        form.scale_row_column(0, 0)
    with pytest.raises(ValueError):
        form.transvect(1, 1, 2)
    log_before = len(form.log)
    form.swap_row_columns(2, 2)  # no-op, not logged
    form.transvect(0, 1, 0)  # zero coefficient, silent no-op
    assert len(form.log) == log_before


def test_materialize_splits_multiplicatively():
    rng = random.Random(38)
    for ring, s in [(GF7, 1), (GF9, 1), (HH, 1)]:
        form = random_form(ring, s, 5, rng)
        original = snapshot(form.m)
        for _ in range(8):
            i, j = rng.sample(range(5), 2)
            form.transvect(i, j, ring.random(rng))
            form.swap_row_columns(i, j)
        n = len(form.log)
        whole = form.log.materialize(ring)
        for cut in (0, 1, n // 2, n):
            lower = form.log.subrange(0, cut).materialize(ring)
            upper = form.log.subrange(cut, n).materialize(ring)
            assert matmul_classical(upper, lower) == whole
        # and the log really transforms the original to the current state
        assert congruate(original, whole) == form.m


def test_slp_lines_exact_strings():
    log = HermitianForm.from_rows(GF7, [[1]], 1).log
    log.dim = 3
    log.append(Scale(0, 4))
    log.append(Swap(0, 2))
    log.append(Eliminate(1, (2, 0), (6, 3)))
    assert log.slp_lines(GF7) == [
        "scale 0 4", "swap 0 2", "transvect 2 1 6", "transvect 0 1 3"
    ]


def test_log_ops_reject_rows_that_move_under_them():
    for targets, coeffs in [((2, 2), (3, 4)), ((2, 1), (3, 4)), ((2,), (3, 4)), ((), ())]:
        with pytest.raises(ValueError):
            Eliminate(1, targets, coeffs)
    coeff = Matrix.zeros(GF7, 2, 3)  # rows [target, target+2) += coeff * rows [source, source+3)
    for target, source in [(0, 1), (1, 0), (2, 0), (3, 1), (2, 2)]:
        with pytest.raises(ValueError):
            BlockTransvect(target, source, coeff)
    BlockTransvect(0, 2, coeff)
    BlockTransvect(3, 0, coeff)


def test_block_transvect_is_its_embedded_block_left():
    rng = random.Random(39)
    d = 8
    for ring in (GF7, GF9, QQ, HH):
        for target, source, n, k in [(4, 1, 2, 3), (0, 3, 2, 2), (1, 5, 3, 1), (6, 0, 2, 6)]:
            coeff = Matrix(ring, [[ring.random(rng) for _ in range(k)] for _ in range(n)])
            op = BlockTransvect(target, source, coeff)
            embed = op.embedded()
            lo, hi = min(target, source), max(target + n, source + k)
            assert (embed.offset, embed.block.nrows) == (lo, hi - lo)
            expect = Matrix.identity(ring, d)
            for a in range(n):
                for b in range(k):
                    expect.rows[target + a][source + b] = coeff.rows[a][b]
            one, pasted = TransformLog(d, [op]), TransformLog(d, [embed])
            assert one.materialize(ring) == pasted.materialize(ring) == expect
            assert one.slp_lines(ring) == pasted.slp_lines(ring)


def test_evaluate_is_the_literal_pairing():
    form = HermitianForm.from_rows(GF9, [[(1, 0), (0, 1)], [(0, 2), (2, 0)]], 1)
    u = [(1, 1), (2, 0)]
    v = [(0, 1), (1, 0)]
    ring = GF9
    expected = ring.zero
    for i in range(2):
        for j in range(2):
            expected = ring.add(
                expected,
                ring.mul(ring.mul(u[i], form.m.rows[i][j]), ring.sigma(v[j])),
            )
    assert form.evaluate(u, v) == expected


def test_form_validation_names_first_offending_entry():
    with pytest.raises(FormValidationError) as info:
        HermitianForm.from_rows(GF7, [[1, 2, 0], [2, 0, 3], [0, 4, 1]], 1)
    assert info.value.position == (1, 2)
    with pytest.raises(ValueError):
        HermitianForm.from_rows(GF7, [[1]], 2)
    # alternating diagonal must vanish over the rationals
    with pytest.raises(FormValidationError):
        HermitianForm.from_rows(QQ, [[1]], -1)


def test_is_hermitian_both_signs():
    assert is_hermitian(Matrix(GF7, [[0, 3], [4, 0]]), -1)
    assert not is_hermitian(Matrix(GF7, [[0, 3], [4, 0]]), 1)
    assert is_hermitian(Matrix(GF9, [[(1, 0), (1, 2)], [(1, 1), (2, 0)]]), 1)


def test_detect_symmetric_and_alternating():
    assert detect_s_sigma(Matrix(GF7, [[0, 0, 0], [0, 2, 1], [0, 1, 0]])) == 1
    assert detect_s_sigma(Matrix(QQ, [[0, 5], [-5, 0]])) == -1
    assert detect_s_sigma(Matrix.zeros(GF7, 3, 3)) is None


def test_detect_hermitian_over_gf9_reports_frobenius():
    # the mirror of 1+x is its Frobenius image 1+2x, so the form is Hermitian
    m = Matrix(GF9, [[(0, 0), (1, 1)], [(1, 2), (2, 0)]])
    assert m.rows[1][0] == GF9.sigma(m.rows[0][1])
    assert detect_s_sigma(m) == 1
    HermitianForm(GF9, m, 1)
    with pytest.raises(FormValidationError):
        HermitianForm(GF9, m, -1)


def test_detect_quaternion_samples_are_a_conjugated_involution():
    # an off-diagonal i mirrored by -i = conj(i) is Hermitian, although the
    # matrix is skew-symmetric entry by entry
    i = HH.validate_scalar((0, 1, 0, 0))
    m = Matrix(HH, [[HH.zero, i], [HH.neg(i), HH.zero]])
    assert HH.sigma(i) == HH.neg(i)
    assert detect_s_sigma(m) == 1
    HermitianForm(HH, m, 1)
    with pytest.raises(FormValidationError):
        HermitianForm(HH, m, -1)


def test_detect_rejects_non_forms():
    with pytest.raises(ValueError):
        detect_s_sigma(Matrix(GF7, [[0, 1], [0, 0]]))
    with pytest.raises(ValueError):
        detect_s_sigma(Matrix(GF7, [[0, 1], [2, 0]]))


# The seven ring specs the command line accepts, GF(9) under both involutions.
LAW_RINGS = [
    PrimeField(2),
    PrimeField(3),
    PrimeField(101),
    GF9,
    QuadraticField(3, "identity"),
    QQ,
    HH,
]


def _reference_asymmetry(m: Matrix, s: int):
    """Row-major first (i, j) breaking B[i][j] = s * sigma(B[j][i]), scanning every entry."""
    ring = m.ring
    for i in range(m.nrows):
        for j in range(m.ncols):
            if m.rows[i][j] != ring.apply_sign(s, ring.sigma(m.rows[j][i])):
                return (i, j)
    return None


@st.composite
def law_cases(draw):
    """A square matrix over one of LAW_RINGS: a form of either sign (dense or
    of a given rank), a sparse random matrix, or a form with one entry changed."""
    ring = draw(st.sampled_from(LAW_RINGS))
    d = draw(st.integers(0, 5))
    rng = random.Random(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(("form", "sparse", "damaged")))
    if kind == "sparse":
        rows = [[ring.random(rng) if rng.random() < 0.3 else ring.zero for _ in range(d)] for _ in range(d)]
        return Matrix(ring, rows, validate=False)
    s = draw(st.sampled_from((1, -1)))
    rank = draw(st.none() | st.integers(0, d))
    try:
        m = random_form(ring, s, d, rng, rank=rank).m
    except ValueError:  # no form of that rank and sign over this ring
        m = random_form(ring, s, d, rng).m
    if kind == "damaged" and d:
        i, j = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
        m.rows[i][j] = ring.add(m.rows[i][j], ring.one)
    return m


@settings(max_examples=300, deadline=None)
@given(law_cases())
def test_the_symmetry_law_decides_the_sign(m):
    # validation scans half the matrix and detection reads one entry pair;
    # both must agree with the law checked over every entry
    ring = m.ring
    zero = all(v == ring.zero for row in m.rows for v in row)
    try:
        detected = detect_s_sigma(m)
    except ValueError:  # a form of neither sign
        detected = "not a form"
    assert (detected is None) == zero
    for t in (1, -1):
        bad = _reference_asymmetry(m, t)
        assert is_hermitian(m, t) == (bad is None)
        if bad is None:
            assert detected == (None if zero else 1 if ring.characteristic == 2 else t)
            HermitianForm(ring, m, t)
        else:
            with pytest.raises(FormValidationError) as info:
                HermitianForm(ring, m, t)
            assert info.value.position == bad


def test_random_form_obeys_the_declared_shape():
    rng = random.Random(39)
    for ring, s in WITNESS_RINGS:
        for _ in range(10):
            d = rng.randrange(0, 6)
            form = random_form(ring, s, d, rng)
            assert is_hermitian(form.m, s)


def test_random_form_with_target_rank():
    from orthoform import left_row_reduce

    rng = random.Random(40)
    for ring, s in [(GF7, 1), (QQ, -1), (GF9, 1)]:
        for d, r in [(4, 2), (5, 0), (6, 6), (3, 3)]:
            if s == -1 and r % 2:
                continue
            form = random_form(ring, s, d, rng, rank=r)
            assert left_row_reduce(form.m)[1] == r
    with pytest.raises(ValueError):
        random_form(QQ, -1, 4, rng, rank=3)
    with pytest.raises(ValueError):
        random_form(GF7, 1, 3, rng, rank=4)


def test_random_form_rejects_a_negative_dim():
    for rank in (None, 0):
        with pytest.raises(ValueError, match="dim must be nonnegative"):
            random_form(GF7, 1, -1, random.Random(41), rank=rank)


@given(st.integers(0, 24).flatmap(lambda n: st.permutations(range(n))))
def test_transpositions_realize_the_order_with_the_fewest_swaps(order):
    items = list(range(len(order)))
    swaps = transpositions(order)
    for t, p in swaps:
        assert t < p
        items[t], items[p] = items[p], items[t]
    assert items == list(order)
    cycles, seen = 0, set()
    for start in range(len(order)):
        if start not in seen:
            cycles += 1
            while start not in seen:
                seen.add(start)
                start = order[start]
    assert len(swaps) == len(order) - cycles
