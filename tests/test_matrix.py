"""Matrix layer: products, Strassen, eliminations, inversion."""

from __future__ import annotations

import ast
import functools
import hashlib
import inspect
import random
import sys
import textwrap
from fractions import Fraction
from math import isqrt

import pytest

from orthoform import (
    BlockLeft,
    BlockTransvect,
    Eliminate,
    Matrix,
    OpCounters,
    PrimeField,
    QuadraticField,
    RationalField,
    RationalQuaternions,
    Scale,
    ShapeError,
    SingularMatrixError,
    Swap,
    TransformLog,
    invert,
    matmul,
    matmul_classical,
    matmul_strassen,
    row_reduce,
)
from orthoform import matrix
from helpers import ring_loop_axpy, ring_loop_eliminate

GF7 = PrimeField(7)
GF9 = QuadraticField(3, "frobenius")
HH = RationalQuaternions()


def random_matrix(ring, n, m, rng):
    return Matrix(ring, [[ring.random(rng) for _ in range(m)] for _ in range(n)], validate=False)


def test_frozen_product_gf7():
    a = Matrix(GF7, [[1, 2], [3, 4]])
    b = Matrix(GF7, [[5, 6], [0, 1]])
    # [[5, 8], [15, 22]] reduced mod 7
    assert matmul_classical(a, b).rows == [[5, 1], [1, 1]]


def test_matrix_validation_and_shape():
    with pytest.raises(ValueError):
        Matrix(GF7, [[1, 9]])
    with pytest.raises(ValueError):
        Matrix(GF7, [[1, 2], [3]])
    m = Matrix(GF7, [[1, 2, 3]])
    assert m.shape == (1, 3)
    with pytest.raises(ShapeError):
        matmul_classical(m, m)


def test_classical_product_counts_exactly():
    rng = random.Random(0)
    n, k, m = 3, 4, 5
    a, b = random_matrix(GF7, n, k, rng), random_matrix(GF7, k, m, rng)
    counters = OpCounters()
    matmul_classical(a, b, counters)
    assert counters.multiplications == n * m * k
    assert counters.additions == n * m * (k - 1)
    assert counters.inversions == 0


def test_numpy_and_generic_routes_agree():
    # the product over GF(1009), on the kernel or the integer product, against
    # the ring loop entry by entry
    rng = random.Random(1)
    big = PrimeField(1009)
    a, b = random_matrix(big, 17, 13, rng), random_matrix(big, 13, 9, rng)
    fast = matmul_classical(a, b)
    slow_rows = []
    for i in range(17):
        row = []
        for j in range(9):
            acc = big.zero
            for t in range(13):
                acc = big.add(acc, big.mul(a.rows[i][t], b.rows[t][j]))
            row.append(acc)
        slow_rows.append(row)
    assert fast.rows == slow_rows


def test_quadratic_field_numpy_route_matches_definition():
    rng = random.Random(2)
    a, b = random_matrix(GF9, 8, 6, rng), random_matrix(GF9, 6, 7, rng)
    fast = matmul_classical(a, b)
    for i in range(8):
        for j in range(7):
            acc = GF9.zero
            for t in range(6):
                acc = GF9.add(acc, GF9.mul(a.rows[i][t], b.rows[t][j]))
            assert fast.rows[i][j] == acc


@pytest.mark.parametrize("ring", [GF7, GF9, HH], ids=["gf7", "gf9", "quat"])
def test_strassen_equals_classical(ring):
    rng = random.Random(3)
    for n, k, m in [(1, 1, 1), (2, 3, 2), (5, 5, 5), (8, 8, 8), (9, 7, 11)]:
        a, b = random_matrix(ring, n, k, rng), random_matrix(ring, k, m, rng)
        assert matmul_strassen(a, b, cutoff=2) == matmul_classical(a, b)
        assert matmul_strassen(a, b, cutoff=4) == matmul_classical(a, b)


def test_strassen_on_rectangular_odd_sizes():
    rng = random.Random(4)
    ring = PrimeField(101)
    a, b = random_matrix(ring, 63, 65, rng), random_matrix(ring, 65, 63, rng)
    assert matmul_strassen(a, b, cutoff=16) == matmul_classical(a, b)


def test_strassen_is_noncommutative_safe():
    # quaternions detect any accidental operand swap in the seven products
    rng = random.Random(5)
    a, b = random_matrix(HH, 6, 6, rng), random_matrix(HH, 6, 6, rng)
    assert matmul_strassen(a, b, cutoff=2) == matmul_classical(a, b)
    assert matmul_classical(a, b) != matmul_classical(b, a)


def test_strassen_cutoff_validation_and_dispatch():
    a = Matrix(GF7, [[1]])
    with pytest.raises(ValueError):
        matmul_strassen(a, a, cutoff=1)
    assert matmul(a, a, cutoff=0) == matmul(a, a, cutoff=None) == matmul(a, a, cutoff=8)


# Digests of Strassen's products and of the ring-operation counts they spend,
# per ring, over odd, rectangular and 1-wide shapes at several cutoffs.  The
# counts are the measure of the recursion's cost, so a rewrite must reproduce
# them as well as the products.
STRASSEN_SHAPES = [
    (1, 5, 3), (5, 1, 4), (4, 6, 1), (2, 2, 2), (3, 3, 3), (5, 7, 3),
    (7, 7, 7), (9, 4, 11), (12, 5, 17), (16, 16, 16), (17, 11, 6), (19, 19, 19),
]

STRASSEN_DIGESTS = {
    "GF(101)": "e71b734539ecd0cdf09cfcd9e8f8503d6167a590a6874ac78efc31a828cff0a1",
    "GF(3^2)": "69d1d8a4cee8824906b76b1d4681fe4fee048bcd91593eb861a3774112d0d0b8",
    "Rational": "5bfff01d4eb266c0244906f74eec3e14d015a81c2ffc875af3702096ba8c66af",
    "Quaternion": "07a6244b2f4f8c57f8ecea6ec32d9e23ca908d2f9ad6978e2e51b5898215396d",
    "GF(2)": "4e19babe73d020af3f4fe3ea368d3d69793336825b9236ba5aeecf2a23818357",
}


@pytest.mark.parametrize(
    "ring", [PrimeField(101), GF9, RationalField(), HH, PrimeField(2)], ids=repr
)
def test_strassen_products_and_counts_are_pinned(ring):
    rng = random.Random(702)
    out = []
    for n, k, m in STRASSEN_SHAPES:
        a, b = random_matrix(ring, n, k, rng), random_matrix(ring, k, m, rng)
        for cutoff in (2, 3, 4, 8, 16):
            counters = OpCounters()
            out.append((matmul_strassen(a, b, cutoff, counters).rows, counters.as_dict()))
    assert hashlib.sha256(repr(out).encode()).hexdigest() == STRASSEN_DIGESTS[repr(ring)]


def _exact_entry(ring, rng):
    # zeros, negatives and denominators past 2^64 alongside the ring's own samples
    def part():
        return Fraction(rng.randint(-(2**70), 2**70), rng.choice([1, 3, 2**64 + 13, 2**71 - 1]))

    kind = rng.randrange(4)
    if kind == 0:
        return ring.zero
    if kind == 1:
        return ring.random(rng)
    return part() if isinstance(ring, RationalField) else tuple(part() for _ in range(4))


def _assert_product_matches_the_ring_loop(a, b):
    ring, (n, k), m = a.ring, a.shape, b.ncols
    loop = [
        [functools.reduce(ring.add, (ring.mul(a.rows[i][t], b.rows[t][j]) for t in range(k)), ring.zero) for j in range(m)]
        for i in range(n)
    ]
    counters = OpCounters()
    product = matmul_classical(a, b, counters)
    assert product.shape == (n, m)
    assert product.rows == loop
    assert counters.multiplications == n * m * k
    assert counters.additions == n * m * max(k - 1, 0)
    assert matmul_strassen(a, b, cutoff=2) == product


def _product_cases(ring, entry, rng):
    """Factor pairs with an empty or unit n, k or m, a zero row and a zero column."""
    shapes = [(0, 0, 0), (0, 3, 2), (2, 0, 3), (3, 2, 0), (1, 1, 1), (1, 5, 1), (4, 1, 3), (5, 6, 4), (7, 7, 7)]
    for n, k, m in shapes:
        a = Matrix(ring, [[entry(ring, rng) for _ in range(k)] for _ in range(n)], validate=False, ncols=k)
        b = Matrix(ring, [[entry(ring, rng) for _ in range(m)] for _ in range(k)], validate=False, ncols=m)
        if n > 1 and k:
            a.rows[1] = [ring.zero] * k  # a zero row of the left factor
        if m > 1:
            for row in b.rows:
                row[0] = ring.zero  # a zero column of the right factor
        yield a, b


@pytest.mark.parametrize("ring", [RationalField(), HH], ids=repr)
def test_integer_product_matches_the_ring_loop(ring):
    for a, b in _product_cases(ring, _exact_entry, random.Random(706)):
        _assert_product_matches_the_ring_loop(a, b)
    if ring is HH:
        i, j = (Fraction(0), Fraction(1), Fraction(0), Fraction(0)), (Fraction(0), Fraction(0), Fraction(1), Fraction(0))
        a, b = Matrix(HH, [[i]]), Matrix(HH, [[j]])
        assert matmul_classical(a, b).rows == [[HH.mul(i, j)]]
        assert matmul_classical(a, b) != matmul_classical(b, a)  # i*j = k = -(j*i)


def _hide_numpy(monkeypatch):
    """Make the process look as if numpy were not loaded, and fail any call
    of the kernel's product; the kernel module itself stays imported."""
    from orthoform import kernel

    def no_kernel(*args):
        raise AssertionError("the kernel ran")

    monkeypatch.delitem(sys.modules, "numpy", raising=False)
    monkeypatch.setattr(kernel, "matmul", no_kernel)


@pytest.mark.parametrize(
    "ring",
    [
        PrimeField(2),
        PrimeField(3),
        PrimeField(101),
        PrimeField(1009),
        PrimeField(2**31 - 1),
        PrimeField(10**9 + 7),
        PrimeField(2**61 - 1),
        GF9,
        QuadraticField(2**31 + 11),
    ],
    ids=repr,
)
def test_field_product_matches_the_ring_loop(ring, monkeypatch):
    _hide_numpy(monkeypatch)
    for a, b in _product_cases(ring, lambda ring, rng: ring.random(rng), random.Random(707)):
        _assert_product_matches_the_ring_loop(a, b)
    # every entry p - 1 (a = b = p - 1 over GF(p^2)): the largest dot products
    top = ring.from_int(-1) if isinstance(ring, PrimeField) else (ring.p - 1, ring.p - 1)
    _assert_product_matches_the_ring_loop(
        Matrix(ring, [[top] * 9 for _ in range(3)]), Matrix(ring, [[top] * 4 for _ in range(9)])
    )


def test_product_takes_the_kernel_once_numpy_is_loaded(monkeypatch):
    from orthoform import kernel

    calls = []

    def spy(ring, left, right):
        calls.append((len(left), len(right[0])))
        return kernel_matmul(ring, left, right)

    kernel_matmul = kernel.matmul
    monkeypatch.setattr(kernel, "matmul", spy)
    rng = random.Random(708)
    ring = PrimeField(101)

    def product(n, m, ring=ring):
        a, b = random_matrix(ring, n, 3, rng), random_matrix(ring, 3, m, rng)
        calls.clear()
        out = matmul_classical(a, b)
        assert out.rows == matrix._field_product(ring, a.rows, b.rows)
        return calls[:]

    # numpy loaded: the kernel takes every product that passes the guard
    assert "numpy" in sys.modules
    assert product(2, 2) == [(2, 2)]
    assert product(2, 2, ring=PrimeField(2**61 - 1)) == []
    # numpy not loaded: the kernel takes only products of at least 576 entries
    monkeypatch.delitem(sys.modules, "numpy")
    assert product(2, 2) == []
    assert product(23, 25) == []
    assert product(24, 24) == [(24, 24)]


# One ring per row store an elimination runs on (``matrix._augmented``): the
# generic loop, the integer rows over Q and over the quaternions, and the
# int64 kernel over GF(p) and GF(p^2), taken at every size once its threshold
# is lowered.
REDUCE_STORES = [
    (GF7, "_ListRows"),
    (GF9, "_ListRows"),
    (RationalField(), "_RationalRows"),
    (HH, "_QuaternionRows"),
    (PrimeField(101), "PlaneRows"),
    (GF9, "PlaneRows"),
]


def _on_each_store(monkeypatch):
    """Each ring of ``REDUCE_STORES``, with ``_augmented`` picking its store."""
    for ring, store in REDUCE_STORES:
        with monkeypatch.context() as patch:
            if store == "PlaneRows":
                patch.setattr(matrix, "_KERNEL_MIN_ENTRIES", 0)
            assert type(matrix._augmented(Matrix.zeros(ring, 1, 1), 1)).__name__ == store
            yield ring


def test_row_reduce_contract(monkeypatch):
    rng = random.Random(6)
    for ring in _on_each_store(monkeypatch):
        for _ in range(25):
            n, m = rng.randrange(1, 6), rng.randrange(1, 6)
            mtx = random_matrix(ring, n, m, rng)
            a, rank, reduced = row_reduce(mtx)
            assert 0 <= rank <= min(n, m)
            invert(a)  # must not raise
            assert reduced == matmul(a, mtx)
            for i in range(rank, n):
                assert all(v == ring.zero for v in reduced.rows[i])
            # the top rows really are independent: reducing them again keeps rank
            if rank:
                top = Matrix(ring, reduced.rows[:rank], validate=False)
                assert row_reduce(top)[1] == rank


def test_row_reduce_of_the_negation(monkeypatch):
    # row_reduce(-m) picks the pivots and multipliers of row_reduce(m): each
    # multiplier -f * pivot^-1 is unchanged when f and the pivot both change
    # sign.  So A and the rank agree and the reduced half is -(A*m), which
    # lets blocks.iso row-reduce s*sigma(X)^t for either sign s
    rng = random.Random(7)
    for ring in _on_each_store(monkeypatch):
        cases = [random_matrix(ring, rng.randrange(1, 6), rng.randrange(1, 6), rng) for _ in range(20)]
        cases += [_low_rank_matrix(ring, n, m, r, rng) for n, m, r in [(5, 4, 2), (4, 5, 1), (5, 5, 3)]]
        for mtx in cases:
            neg = Matrix(ring, [[ring.neg(v) for v in row] for row in mtx.rows], validate=False)
            a, rank, reduced = row_reduce(mtx)
            assert row_reduce(neg) == (a, rank, Matrix(ring, [[ring.neg(v) for v in row] for row in reduced.rows]))
        assert any(row_reduce(mtx)[1] < min(mtx.shape) for mtx in cases)


def test_invert_round_trip_and_singular():
    rng = random.Random(9)
    for ring in (GF7, GF9, HH):
        found = 0
        while found < 15:
            n = rng.randrange(1, 5)
            m = random_matrix(ring, n, n, rng)
            try:
                mi = invert(m)
            except SingularMatrixError:
                continue
            found += 1
            assert matmul_classical(m, mi) == Matrix.identity(ring, n)
            assert matmul_classical(mi, m) == Matrix.identity(ring, n)
    with pytest.raises(SingularMatrixError):
        invert(Matrix(GF7, [[1, 2], [2, 4]]))
    with pytest.raises(ShapeError):
        invert(Matrix(GF7, [[1, 2]]))


def test_sigma_transpose():
    m = Matrix(GF9, [[(1, 2), (0, 1)], [(2, 0), (1, 1)]])
    t = m.sigma_transpose()
    assert t.rows == [[(1, 1), (2, 0)], [(0, 2), (1, 2)]]
    counters = OpCounters()
    m.sigma_transpose(counters)
    assert counters.sigma_applications == 4
    # the identity involution only moves entries, but is counted per entry
    t = Matrix(GF7, [[1, 2, 3], [4, 5, 6]]).sigma_transpose(counters)
    assert t.rows == [[1, 4], [2, 5], [3, 6]]
    assert counters.sigma_applications == 10
    for ring in (GF7, GF9):
        assert Matrix.zeros(ring, 0, 3).sigma_transpose().shape == (3, 0)
        assert Matrix.zeros(ring, 3, 0).sigma_transpose().shape == (0, 3)


@pytest.mark.parametrize("ring", [GF7, GF9, HH], ids=repr)
def test_matrix_with_no_rows_keeps_its_width(ring):
    empty = Matrix.zeros(ring, 0, 3)
    assert empty.shape == (0, 3)
    assert empty.copy().shape == (0, 3)
    assert empty != Matrix.zeros(ring, 0, 2)
    assert Matrix.zeros(ring, 2, 3).submatrix(1, 1, 0, 2).shape == (0, 2)
    product = matmul(Matrix.zeros(ring, 0, 2), Matrix.zeros(ring, 2, 3))
    assert product.shape == (0, 3)
    assert matmul(Matrix.zeros(ring, 3, 0), Matrix.zeros(ring, 0, 2)) == Matrix.zeros(ring, 3, 2)


def test_submatrix_and_is_zero():
    m = Matrix(GF7, [[0, 0, 1], [0, 0, 0], [2, 0, 0]])
    assert not m.is_zero()
    assert m.submatrix(1, 2, 0, 3).is_zero()
    assert m.submatrix(0, 2, 0, 2).is_zero()
    assert m.submatrix(0, 1, 2, 3).rows == [[1]]


def _low_rank_matrix(ring, n, m, r, rng):
    return matmul(random_matrix(ring, n, r, rng), random_matrix(ring, r, m, rng))


# Digests of the transforms, ranks and counters that row_reduce and invert
# return on fixed random inputs (full rank, rank deficient, both aspect
# ratios), so a rewrite of their inner loops must reproduce them exactly.
ELIMINATION_DIGESTS = {
    "GF(7)": "37a7d12d5de386620faa69873243edd62d3a6e728258d076fbf6dc4d014d446e",
    "GF(2)": "9e66b5f5f089deb1910138b93de7f130075f1d47bd18e888677412bdc39a3b54",
    "GF(3^2)": "54bf91cc5a61cbe736a4138285c213c126e5e5ba2d8e2dffc8b70d0504f7907d",
    "Rational": "d0d2a3550ab33e584bcef66d2d6847a7a541a249e29348a8f860701d88bdd07e",
    "Quaternion": "3564f5f9635c370c2a51a0c21602d6f0f0bb687a012b972520e3e064fbbc3d9a",
}


def _elimination_digest(ring):
    rng = random.Random(700)
    out = []
    for n, m, r in [(5, 7, None), (7, 5, None), (6, 6, None), (5, 7, 3), (7, 5, 2), (6, 6, 4)]:
        if r is None:
            mtx = random_matrix(ring, n, m, rng)
        else:
            mtx = _low_rank_matrix(ring, n, m, r, rng)
        counters = OpCounters()
        a, rank, _ = row_reduce(mtx, counters)
        out.append((a.rows, rank, counters.as_dict()))
        if n == m:
            counters = OpCounters()
            try:
                out.append((invert(mtx, counters).rows, counters.as_dict()))
            except SingularMatrixError:
                out.append(("singular", counters.as_dict()))
    return hashlib.sha256(repr(out).encode()).hexdigest()


@pytest.mark.parametrize("ring", [GF7, PrimeField(2), GF9, RationalField(), HH], ids=repr)
def test_elimination_results_are_pinned(ring):
    assert _elimination_digest(ring) == ELIMINATION_DIGESTS[repr(ring)]


# Digests recorded from the generic elimination loop on inputs large enough
# for the int64 kernel, so the kernel must reproduce transforms, ranks and
# every counter of the loop it replaces.
KERNEL_DIGESTS = {
    "GF(2)": "ea1da665d2deedd8eb80fa7bce0b083750c3f7c144a134aa8e72d61813f4797f",
    "GF(101)": "4be4cf7c955a8eb617bfbec3f31ccda064ad09f3a28e5c1e53ad6407dec0c646",
    "GF(1009)": "e3280a4fba14320e6aa38b760c465bff6b30d0088ce9256993015102e7fe9647",
    "GF(3^2)": "c62862e6d8564b907a2fae194dc815015a6ff07e59068d0a9cd2f97190fbd924",
}


def _kernel_inputs(ring, rng):
    while True:
        square = random_matrix(ring, 40, 40, rng)
        if row_reduce(square)[1] == 40:
            break
    return [
        square,
        random_matrix(ring, 48, 32, rng),
        random_matrix(ring, 32, 48, rng),
        _low_rank_matrix(ring, 48, 48, 20, rng),
    ]


@pytest.mark.parametrize(
    "ring", [PrimeField(2), PrimeField(101), PrimeField(1009), GF9], ids=repr
)
def test_kernel_sized_eliminations_are_pinned(ring):
    out = []
    for mtx in _kernel_inputs(ring, random.Random(701)):
        counters = OpCounters()
        a, rank, _ = row_reduce(mtx, counters)
        out.append((a.rows, rank, counters.as_dict()))
        if mtx.nrows == mtx.ncols:
            counters = OpCounters()
            try:
                out.append((invert(mtx, counters).rows, counters.as_dict()))
            except SingularMatrixError:
                out.append(("singular", counters.as_dict()))
    assert hashlib.sha256(repr(out).encode()).hexdigest() == KERNEL_DIGESTS[repr(ring)]


@pytest.mark.parametrize(
    "ring, d, store",
    [(PrimeField(101), 8, "_ListRows"), (PrimeField(101), 24, "PlaneRows"), (RationalField(), 8, "_RationalRows")],
    ids=["list", "planes", "int"],
)
def test_a_pivot_with_nothing_to_clear_is_not_inverted(ring, d, store):
    # every row store inverts its pivot only at the first row it clears, and
    # the identity has no row to clear
    eye = Matrix.identity(ring, d)
    assert type(matrix._augmented(eye, d * d, identity=False)).__name__ == store
    counters = OpCounters()
    assert matrix.rank(eye, counters) == d
    assert counters.inversions == 0


@pytest.mark.parametrize(
    "ring, d, inversions",
    [(PrimeField(101), 40, 40), (PrimeField(101), 8, 8), (RationalField(), 8, 8), (PrimeField(2), 12, 0)],
    ids=["gf101-planes", "gf101-list", "q-int", "gf2-list"],
)
def test_invert_inverts_each_pivot_once(ring, d, inversions):
    # the pivot row is scaled by the pivot's inverse before it clears, and
    # clearing against a pivot of 1 inverts nothing more; over GF(2) every
    # pivot is 1
    rng = random.Random(703)
    m = random_matrix(ring, d, d, rng)
    while matrix.rank(m) < d:
        m = random_matrix(ring, d, d, rng)
    counters = OpCounters()
    assert matmul(invert(m, counters), m) == Matrix.identity(ring, d)
    assert counters.inversions == inversions


# The methods that the pivot loop (``_row_echelon``), ``row_reduce``,
# ``split_congruence``, the log replay (``TransformLog._replay``, ``_apply``
# and the op-by-op loop of ``add_run``) and the certificate
# (``check_decomposition`` and its ``_invertible``) call on a row store.  The
# integer corner of ``split_congruence`` (``corner``) is asked of the integer
# rows alone, behind an isinstance test.
ROW_STORE_METHODS = (
    "nonzero_from",
    "entry",
    "swap",
    "scale",
    "eliminate",
    "reduced",
    "transform",
    "add_multiples",
    "add_run",
    "left_multiply",
    "congruates",
    "rows_at",
)


def test_the_row_store_contract_lists_what_its_callers_call():
    from orthoform import form, verify

    callers = [
        (matrix._row_echelon, "rows"),
        (matrix.row_reduce, "rows"),
        (matrix.split_congruence, "rows"),
        (form.TransformLog._replay, "acc"),
        (form._apply, "acc"),
        (matrix._RowStore.add_run, "self"),
        (verify.check_decomposition, "store"),
        (verify._invertible, "store"),
    ]
    called = {
        node.func.attr
        for fn, store in callers
        for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(fn))))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == store
    }
    assert called == set(ROW_STORE_METHODS) | {"corner"}


@pytest.mark.parametrize("store", ["_ListRows", "_RationalRows", "_QuaternionRows", "PlaneRows"])
def test_every_row_store_keeps_the_contract(store):
    # a store that lacks a method fails here, even one that only a singular
    # check over an exact ring would reach
    from orthoform import kernel

    cls = getattr(kernel if store == "PlaneRows" else matrix, store)
    assert [name for name in ROW_STORE_METHODS if not callable(getattr(cls, name, None))] == []


def test_kernel_sized_singular_matrix_raises():
    ring = PrimeField(101)
    with pytest.raises(SingularMatrixError):
        invert(_low_rank_matrix(ring, 40, 40, 39, random.Random(702)))


GF25 = QuadraticField(5, "frobenius")


def _both_paths(monkeypatch, run):
    """run() on the generic loop, then on the int64 kernel at every size."""
    monkeypatch.setattr(matrix, "_KERNEL_MIN_ENTRIES", 10**9)
    generic = run()
    monkeypatch.setattr(matrix, "_KERNEL_MIN_ENTRIES", 0)
    return generic, run()


@pytest.mark.parametrize(
    "ring", [PrimeField(2), PrimeField(3), PrimeField(101), GF9, GF25], ids=repr
)
def test_kernel_matches_the_generic_loop(ring, monkeypatch):
    rng = random.Random(703)
    cases = []
    for _ in range(30):
        n, m = rng.randrange(1, 13), rng.randrange(1, 13)
        if rng.random() < 0.5:
            cases.append(random_matrix(ring, n, m, rng))
        else:
            cases.append(_low_rank_matrix(ring, n, m, rng.randrange(1, min(n, m) + 1), rng))

    def run():
        out = []
        for mtx in cases:
            counters = OpCounters()
            a, r, _ = row_reduce(mtx, counters)
            out.append((a.rows, r, counters.as_dict()))
            counters = OpCounters()
            out.append((matrix.rank(mtx, counters), counters.as_dict()))
            assert out[-1][0] == out[-2][1]
            if mtx.nrows == mtx.ncols:
                counters = OpCounters()
                try:
                    out.append((invert(mtx, counters).rows, counters.as_dict()))
                except SingularMatrixError:
                    out.append(("singular", counters.as_dict()))
        return out

    generic, kernel = _both_paths(monkeypatch, run)
    assert kernel == generic


def _near_float_bound(make, k):
    """The ring ``make(p)`` of a prime p whose sums of k terms come within 1%
    of 2**53 from below.  The non-residue of GF(p^2) is at least 2."""
    from sympy import prevprime

    p = isqrt(2**53 // (k * (1 if make is PrimeField else 3))) + 1
    while True:
        p = prevprime(p)
        if 0.99 * 2**53 < matrix._sum_bound(make(p), k) < 2**53:
            return make(p)


@pytest.mark.parametrize("n, k, m", [(1, 1, 1), (97, 96, 53), (200, 200, 200)])
@pytest.mark.parametrize("make", [PrimeField, QuadraticField], ids=["gfp", "gfp2"])
def test_the_tiled_float_product_equals_the_int64_product(make, n, k, m):
    # residues near p - 1 for a p whose k-term sums come within 1% of 2**53,
    # the most the float product takes: each sum must still be exact
    import numpy as np

    from orthoform import kernel

    ring = _near_float_bound(make, k)
    rng = np.random.default_rng(712)
    planes = 1 if make is PrimeField else 2
    x = rng.integers(ring.p - 1000, ring.p, size=(planes, n, k), dtype=np.int64)
    y = rng.integers(ring.p - 1000, ring.p, size=(planes, k, m), dtype=np.int64)
    assert matrix._int64_ok(ring, k)
    int64 = kernel._plane_product(ring, x, y, np.matmul) % ring.p
    assert np.array_equal(kernel._exact_product(ring, x, y), int64)


@pytest.mark.parametrize("ring", [PrimeField(101), GF9], ids=repr)
def test_kernel_materialize_matches_the_generic_loop(ring, monkeypatch):
    # multi-target eliminations, block transvections above and below their
    # source rows, pasted blocks, scales and swaps
    rng = random.Random(704)
    d = 9
    log = TransformLog(d)
    for _ in range(120):
        kind = rng.randrange(6)
        if kind < 2:
            src = rng.randrange(d)
            targets = rng.sample([k for k in range(d) if k != src], rng.randrange(1, 5))
            log.append(Eliminate(src, tuple(targets), tuple(ring.random(rng) for _ in targets)))
        elif kind == 2:
            n, k = rng.randrange(1, 5), rng.randrange(1, 5)
            target_first = rng.random() < 0.5
            first, second = (n, k) if target_first else (k, n)
            a = rng.randrange(d - n - k + 1)
            b = rng.randrange(a + first, d - second + 1)
            target, source = (a, b) if target_first else (b, a)
            log.append(BlockTransvect(target, source, random_matrix(ring, n, k, rng)))
        elif kind == 3:
            log.append(Scale(rng.randrange(d), ring.random(rng)))
        elif kind == 4:
            log.append(Swap(rng.randrange(d), rng.randrange(d)))
        else:
            q = rng.randrange(1, 4)
            log.append(BlockLeft(random_matrix(ring, q, q, rng), rng.randrange(d - q + 1)))

    generic, kernel = _both_paths(monkeypatch, lambda: log.materialize(ring).rows)
    assert kernel == generic


def _run_ops(ring, d, k, rng):
    """k Scale and Eliminate ops: sources drawn from five rows, so they repeat
    and later ops target earlier sources; every fifth op a Scale, by zero
    every tenth, and each op after a Scale an Eliminate from the scaled row."""
    pool = rng.sample(range(d), 5)
    ops = []
    for j in range(k):
        if j % 5 == 4:
            ops.append(Scale(rng.choice(pool), ring.zero if j % 10 == 4 else ring.random(rng)))
            continue
        src = ops[-1].index if ops and isinstance(ops[-1], Scale) else rng.choice(pool)
        targets = rng.sample([t for t in range(d) if t != src], rng.randrange(1, d))
        ops.append(Eliminate(src, tuple(targets), tuple(ring.random(rng) for _ in targets)))
    return ops


@pytest.mark.parametrize(
    "ring, d", [(PrimeField(1009), 24), (GF9, 24), (PrimeField(18_000_041), 40)], ids=lambda v: repr(v)
)
def test_the_run_replay_matches_the_op_by_op_replay(ring, d, monkeypatch):
    # runs one op short of the leaf, of the leaf, and longer than d (replayed
    # in chunks of d), broken by a Swap and a BlockLeft; over GF(18,000,041)
    # a chunk of 40 ops takes the int64 product and a leaf the float one
    from orthoform import kernel

    leaf = kernel._RUN_LEAF
    if ring.p == 18_000_041:
        assert matrix._sum_bound(ring, leaf) < 2**53 <= matrix._sum_bound(ring, d)
    rng = random.Random(705)
    log = TransformLog(d)
    log.ops += _run_ops(ring, d, leaf - 1, rng)
    log.append(Swap(*rng.sample(range(d), 2)))
    log.ops += _run_ops(ring, d, leaf, rng)
    log.append(BlockLeft(random_matrix(ring, 3, 3, rng), rng.randrange(d - 2)))
    log.ops += _run_ops(ring, d, 2 * d + 7, rng)
    runs = log._replay(ring)
    assert isinstance(runs, kernel.PlaneRows)
    monkeypatch.setattr(kernel, "_RUN_LEAF", 10**9)  # every run op by op
    assert runs.transform() == log._replay(ring).transform()


@pytest.mark.parametrize("p", [2147483647, 1000000000000000003])
def test_overflow_guard_edges(p):
    # 2^31 - 1 is the largest prime whose rank-1 update fits the int64 guard;
    # the 19-digit prime must fall back to the generic loop and the integer
    # product, exactly
    from orthoform.matrix import _int64_ok

    ring = PrimeField(p)
    assert _int64_ok(ring, 1) == (p < 2**31)
    rng = random.Random(705)
    mtx = _low_rank_matrix(ring, 32, 32, 20, rng)
    a, rank, _ = row_reduce(mtx)
    assert rank == 20
    reduced = matmul_classical(a, mtx)
    assert all(v == 0 for row in reduced.rows[rank:] for v in row)
    while True:
        square = random_matrix(ring, 32, 32, rng)
        if row_reduce(square)[1] == 32:
            break
    assert matmul_classical(invert(square), square) == Matrix.identity(ring, 32)


def _on_both_row_stores(monkeypatch, run):
    """run() with every elimination and materialization on the generic loop,
    then on the store ``_augmented`` picks (the integer rows over Q and the
    quaternions)."""
    from orthoform import form

    def generic(m, entries, terms=1, identity=True):
        return matrix._ListRows(m, identity)

    with monkeypatch.context() as patch:
        patch.setattr(matrix, "_augmented", generic)
        patch.setattr(form, "_augmented", generic)
        reference = run()
    return reference, run()


def _exact_matrix(ring, n, m, rng):
    return Matrix(ring, [[_exact_entry(ring, rng) for _ in range(m)] for _ in range(n)], validate=False, ncols=m)


def _units(ring, rows):
    """A matrix of Q entries over Q, or of pure imaginary units over the
    quaternions ('i', 'j', 'k', '-i', ..., '0'), whose pivots do not commute."""
    if isinstance(ring, RationalField):
        return Matrix(ring, rows)
    unit = {"i": 1, "j": 2, "k": 3}
    out = []
    for row in rows:
        qrow = []
        for v in row:
            q = [0, 0, 0, 0]
            if v != "0":
                q[unit[v[-1]]] = -1 if v[0] == "-" else 1
            qrow.append(tuple(q))
        out.append(qrow)
    return Matrix(ring, out)


@pytest.mark.parametrize("ring", [RationalField(), HH], ids=repr)
def test_integer_rows_match_the_generic_loop(ring, monkeypatch):
    rng = random.Random(707)
    cases = [_exact_matrix(ring, n, m, rng) for n, m in [(0, 0), (0, 3), (3, 0), (1, 1), (3, 5), (5, 3), (4, 4), (5, 5)]]
    for n, m, r in [(4, 6, 2), (6, 4, 3), (5, 5, 3), (4, 4, 3)]:  # rank deficient
        cases.append(matmul(_exact_matrix(ring, n, r, rng), _exact_matrix(ring, r, m, rng)))
    for mtx in cases[4:8]:  # zero rows, one of them the first
        zeroed = Matrix(ring, [row[:] for row in mtx.rows], validate=False)
        zeroed.rows[0] = [ring.zero] * mtx.ncols
        zeroed.rows[2] = [ring.zero] * mtx.ncols
        cases.append(zeroed)
    if isinstance(ring, RationalField):
        cases.append(_units(ring, [[-3, 1, 2], [5, -7, 1], [Fraction(-1, 2), 4, -9]]))  # negative pivots
        cases.append(_units(ring, [[-2, 4], [-1, 2]]))  # singular
    else:
        cases.append(_units(ring, [["i", "j", "k"], ["j", "i", "-k"], ["k", "-j", "i"]]))
        cases.append(_units(ring, [["j", "0", "i"], ["i", "k", "0"], ["-k", "j", "j"]]))
        cases.append(_units(ring, [["i", "j"], ["j", "-i"]]))  # singular: row 1 is k * row 0
    assert isinstance(matrix._augmented(cases[-1], 1), matrix._IntRows)

    def run():
        out = []
        for mtx in cases:
            counters = OpCounters()
            a, r, _ = row_reduce(mtx, counters)
            out.append((a.rows, r, counters.as_dict()))
            counters = OpCounters()
            out.append((matrix.rank(mtx, counters), counters.as_dict()))
            if mtx.nrows == mtx.ncols:
                counters = OpCounters()
                try:
                    out.append((invert(mtx, counters).rows, counters.as_dict()))
                except SingularMatrixError:
                    out.append(("singular", counters.as_dict()))
        return out

    generic, integer = _on_both_row_stores(monkeypatch, run)
    assert repr(integer) == repr(generic)
    assert sum(entry[0] == "singular" for entry in integer) >= 2
    ranks = [entry[1] for entry in integer if len(entry) == 3]
    assert {0, 2, 3, 4, 5} <= set(ranks)


def test_integer_rows_materialize_matches_the_generic_loop(monkeypatch):
    # multi-target eliminations, block transvections above and below their
    # source rows, pasted blocks, scales and swaps, over Q and the quaternions
    logs = []
    for ring in (RationalField(), HH):
        rng = random.Random(708)
        d = 9
        log = TransformLog(d)
        for _ in range(60):
            kind = rng.randrange(6)
            if kind < 2:
                src = rng.randrange(d)
                targets = rng.sample([k for k in range(d) if k != src], rng.randrange(1, 5))
                log.append(Eliminate(src, tuple(targets), tuple(_exact_entry(ring, rng) for _ in targets)))
            elif kind == 2:
                n, k = rng.randrange(1, 5), rng.randrange(1, 5)
                target_first = rng.random() < 0.5
                first, second = (n, k) if target_first else (k, n)
                a = rng.randrange(d - n - k + 1)
                b = rng.randrange(a + first, d - second + 1)
                target, source = (a, b) if target_first else (b, a)
                log.append(BlockTransvect(target, source, _exact_matrix(ring, n, k, rng)))
            elif kind == 3:
                log.append(Scale(rng.randrange(d), _exact_entry(ring, rng)))
            elif kind == 4:
                log.append(Swap(rng.randrange(d), rng.randrange(d)))
            else:
                q = rng.randrange(1, 4)
                log.append(BlockLeft(_exact_matrix(ring, q, q, rng), rng.randrange(d - q + 1)))
        assert {type(op) for op in log} == {Eliminate, BlockTransvect, Scale, Swap, BlockLeft}
        logs.append((ring, log))

    generic, integer = _on_both_row_stores(monkeypatch, lambda: [log.materialize(ring).rows for ring, log in logs])
    assert repr(integer) == repr(generic)


def _quaternion(w, x, y, z):
    return tuple(Fraction(v) for v in (w, x, y, z))


BIG = 2**64 + 13  # a denominator past 2^64


def _axpy_cases(ring):
    """(src, dst, lams) rows with zero source entries, negative and
    integer-valued entries, lam with large denominators, a sum that cancels
    to zero, and over the quaternions a lam and a source entry that do not
    commute (i * j = k, j * i = -k)."""
    if isinstance(ring, RationalField):
        f = Fraction
        src = [f(0), f(-7, 3), f(5), f(2**70 + 1, BIG), f(0), f(-4), f(1, 6), f(9, 10)]
        dst = [f(1, 2), f(7, 3), f(0), f(-3), f(11, 2**71 - 1), f(8), f(-1, 6), f(0)]
        lams = [f(1), f(-1), f(-6), f(3, BIG), f(-(2**70), 2**71 - 1)]
    else:
        i, j, q = _quaternion(0, 1, 0, 0), _quaternion(0, 0, 1, 0), _quaternion
        src = [
            ring.zero, j, q(Fraction(-1, 2), 3, Fraction(2**70 + 1, BIG), 0), q(5, 0, 0, -2),
            ring.zero, q(0, Fraction(1, 3), Fraction(-1, 6), Fraction(1, 2)), q(-1, -1, -1, -1), i,
        ]
        dst = [
            q(1, 2, 3, 4), _quaternion(0, 0, 0, -1), ring.zero, q(Fraction(7, BIG), 0, -1, 0),
            q(0, 0, Fraction(1, 2), 0), q(-3, 0, 0, 0), ring.zero, q(0, 0, 0, Fraction(-1, 9)),
        ]
        lams = [i, q(-1, 0, 0, 0), q(2, -3, 4, -5), q(Fraction(1, BIG), -2, 0, Fraction(3, 7))]
        assert ring.mul(lams[0], src[1]) != ring.mul(src[1], lams[0])
        assert ring.add(dst[1], ring.mul(lams[0], src[1])) == ring.zero  # i * j cancels -k
    return src, dst, lams


@pytest.mark.parametrize("ring", [RationalField(), HH], ids=repr)
def test_row_axpy_matches_the_ring_loop(ring):
    """row_axpy over Q and the quaternions works on integers; entry for entry
    it must equal the ring's own add(d, mul(lam, s)) loop, lam on the left,
    with every entry outside the window untouched."""
    src, dst, lams = _axpy_cases(ring)
    rng = random.Random(709)
    rows = [(src, dst, lams)]
    for _ in range(6):
        rows.append(([_exact_entry(ring, rng) for _ in src], [_exact_entry(ring, rng) for _ in src], [_exact_entry(ring, rng)]))
    n = len(src)
    for src, dst, lams in rows:
        for lam in lams:
            for lo, hi in [(0, n), (1, n), (0, n - 2), (2, 5), (3, 3), (n - 1, n)]:
                expected, got = dst[:], dst[:]
                ring_loop_axpy(ring, expected, src, lam, lo, hi)
                matrix.row_axpy(ring, got, src, lam, lo, hi)
                assert repr(got) == repr(expected), (lam, lo, hi)
                assert got[:lo] == dst[:lo] and got[hi:] == dst[hi:]


@pytest.mark.parametrize("ring", [RationalField(), HH], ids=repr)
def test_eliminate_matches_the_ring_loop(ring):
    """A pivot's row pass, with its multipliers, equals the ring loop's, and
    the pivot is inverted once, at the first target it clears."""
    rng = random.Random(710)
    cases = [_exact_matrix(ring, 5, 7, rng).rows for _ in range(4)]
    if isinstance(ring, RationalField):
        cases.append(_units(ring, [[-3, 1, 2], [5, -7, 1], [Fraction(-1, 2), 4, -9]]).rows)
    else:
        cases.append(_units(ring, [["i", "j", "k"], ["j", "i", "-k"], ["k", "-j", "i"]]).rows)
    cleared = 0
    for rows in cases:
        n, m = len(rows), len(rows[0])
        for src in range(n):
            for col in sorted({0, 2, m - 1}):
                if rows[src][col] == ring.zero:
                    continue
                targets = [k for k in range(n) if k != src]
                for lo, hi in [(0, m), (col, m), (min(col, 1), m - 1)]:
                    calls = []

                    def inverse(x):
                        calls.append(x)
                        return ring.inv(x)

                    expected, got = [row[:] for row in rows], [row[:] for row in rows]
                    pairs = ring_loop_eliminate(ring, expected, src, col, targets, lo, hi)
                    assert repr(matrix.eliminate(ring, got, src, col, targets, lo, hi, inverse)) == repr(pairs)
                    assert repr(got) == repr(expected)
                    assert calls == ([rows[src][col]] if pairs else [])
                    cleared += len(pairs)
    assert cleared > 50
