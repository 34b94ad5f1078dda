"""Tests of the benchmark's own checkers and span arithmetic, at small d.

    python3 -m pytest perfbench -q
"""

import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import orthoform as of  # noqa: E402
from orthoform.cli import format_form_file  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
from run import library_blocks  # noqa: E402

RINGS = [
    ("gfp", 7, None, 1),
    ("gfp", 7, None, -1),
    ("gfp2", 3, "frobenius", 1),
    ("gfp", 2, None, 1),
    ("rational", None, None, 1),
    ("quaternion", None, None, 1),
]


def _case(kind, param, sigma, s, dim, rank=None, algo="gs", seed=0):
    ring = of.ring_from_spec(kind, param, sigma)
    m = of.random_form(ring, s, dim, random.Random(seed), rank=rank).m
    alg, s2, rows = checks.parse_form_text(format_form_file(ring, s, m))
    fn = of.decompose_gs if algo == "gs" else of.decompose_blocks
    dec = fn(of.HermitianForm(ring, m.copy(), s, validate=False))
    return alg, s2, rows, dec.log.slp_lines(ring), library_blocks(alg, dec), dec.radical_dim


@pytest.mark.parametrize("kind,param,sigma,s", RINGS)
@pytest.mark.parametrize("algo", ["gs", "blocks"])
@pytest.mark.parametrize("rank", [None, 2])
def test_real_decompositions_pass(kind, param, sigma, s, algo, rank):
    alg, s, rows, slp, blocks, radical = _case(kind, param, sigma, s, 6, rank, algo)
    checks.check_result(alg, s, rows, checks.form_rank(alg, rows), slp, blocks, radical)


@pytest.mark.parametrize("kind,param,sigma,s", RINGS)
def test_tampered_transform_fails(kind, param, sigma, s):
    alg, s, rows, slp, blocks, radical = _case(kind, param, sigma, s, 5)
    rank = checks.form_rank(alg, rows)
    with pytest.raises(checks.CheckFailed, match="direct sum"):
        checks.check_result(alg, s, rows, rank, slp + ["swap 0 1", "transvect 0 1 1"], blocks, radical)


def test_tampered_block_fails():
    alg, s, rows, slp, blocks, radical = _case("rational", None, None, 1, 5)
    blocks[0] = [[blocks[0][0][0] + 1]]
    with pytest.raises(checks.CheckFailed, match="direct sum"):
        checks.check_result(alg, s, rows, checks.form_rank(alg, rows), slp, blocks, radical)


def test_wrong_radical_fails():
    alg, s, rows, slp, blocks, radical = _case("gfp", 7, None, 1, 6, rank=3)
    with pytest.raises(checks.CheckFailed, match="radical"):
        checks.check_result(alg, s, rows, checks.form_rank(alg, rows), slp, blocks, radical + 1)


@pytest.mark.parametrize("alg", [checks.PrimeAlgebra(5), checks.RationalAlgebra(),
                                 checks.QuaternionAlgebra()])
def test_singular_transform_fails(alg):
    # B = 0, so every A satisfies the congruence; only invertibility can fail
    zero = alg.from_int(0)
    rows = [[zero] * 3 for _ in range(3)]
    blocks = [[[zero]]] * 3
    checks.check_result(alg, 1, rows, 0, ["swap 0 2"], blocks, 3)
    with pytest.raises(checks.CheckFailed, match="singular"):
        checks.check_result(alg, 1, rows, 0, ["scale 1 0"], blocks, 3)


def test_ranks():
    q = checks.RationalAlgebra()
    assert checks.form_rank(q, [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]) == 1
    assert checks.form_rank(checks.PrimeAlgebra(5), [[1, 2], [2, 4]]) == 1
    assert checks.form_rank(checks.PrimeAlgebra(5), [[1, 2], [2, 1]]) == 2
    h = checks.QuaternionAlgebra()
    one, i, j, k = (h.parse(t) for t in ("1", "1*i", "1*j", "1*k"))
    neg_k = h.parse("-1*k")
    assert checks.form_rank(h, [[one, i], [j, neg_k]]) == 1  # row 2 = j * row 1
    assert checks.form_rank(h, [[one, i], [j, k]]) == 2
    g = checks.QuadraticAlgebra(3, True)
    x = g.parse("0+1*x")
    assert checks.form_rank(g, [[g.from_int(1), x], [x, g.from_int(2)]]) == 1  # x*x = 2


def test_scalar_parsing():
    h = checks.QuaternionAlgebra()
    assert h.parse("1/2-3/4*i+0*j+5*k") == (Fraction(1, 2), Fraction(-3, 4), 0, 5)
    assert checks.QuadraticAlgebra(3, True).parse("2+1*x") == (2, 1)
    assert checks.PrimeAlgebra(7).parse("-1") == 6
    with pytest.raises(checks.CheckFailed):
        checks.PrimeAlgebra(7).parse("1/2")
    with pytest.raises(checks.CheckFailed):
        h.parse("1*q")


def test_unknown_slp_line_fails():
    alg = checks.PrimeAlgebra(5)
    with pytest.raises(checks.CheckFailed, match="unknown SLP line"):
        checks.replay_slp(alg, 2, ["eliminate 0 1 2"])


def test_self_time_and_clauses():
    # check_decomposition [0, 10] holds materialize [1, 3] (which holds one
    # row_axpy [1, 2]), invert [4, 6] and left_row_reduce [7, 8]
    spans = [
        ["verify.check_decomposition", 0.0, 10.0, -1, None],
        ["form.materialize", 1.0, 3.0, 0, None],
        ["matrix.row_axpy", 1.0, 2.0, 1, None],
        ["matrix.invert", 4.0, 6.0, 0, None],
        ["matrix.left_row_reduce", 7.0, 8.0, 0, None],
    ]
    v = tracing.layer_metrics(spans)
    assert v["form.materialize.s"] == 1.0
    assert v["matrix.row_axpy.calls"] == 1 and v["matrix.row_axpy.s"] == 1.0
    assert (v["verify.materialize.s"], v["verify.invertible.s"], v["verify.rank.s"]) == (2.0, 2.0, 1.0)
    assert v["verify.congruence.s"] == 5.0
    assert v["trace.spans"] == 5
