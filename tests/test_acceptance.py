"""End-to-end acceptance gate.

Each test covers one numbered acceptance criterion and prints a single
[PASS] or [FAIL] line for it (visible with -s, or in captured output on
failure).  Tolerances and budgets are pinned as module constants; the
random seeds are fixed so every run sees the same instances.
"""
from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

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
    brute_force_congruence,
    char2_triple,
    check_decomposition,
    decompose_blocks,
    decompose_gs,
    invariants_of,
    matmul,
    maximize_j_blocks,
    pair_rescale,
    random_form,
    sort_blocks_canonical,
    standardize,
)

from helpers import snapshot

# criterion 3 and 9 tolerance bands
LEADING_BAND = (0.85, 1.25)
BLOCKS_EXPONENT_BAND = (2.3, 3.1)
GS_EXPONENT_BAND = (2.7, 3.2)

# wall-clock budgets, seconds
SWEEP_BUDGET = 300.0
LEADING_BUDGET = 120.0
EXHAUSTIVE_BUDGET = 600.0
SCALING_BUDGET = 600.0

# criterion 9 times each point as the best of this many runs
SCALING_RUNS = 5

FINITE_DIMS = tuple(range(1, 17)) + (31, 32, 64)
FORMS_PER_CONFIG = 500

# (name, ring factory, s, dimension cycle)
SWEEP_CONFIGS = (
    ("gf101+", lambda: PrimeField(101), 1, FINITE_DIMS),
    ("gf101-", lambda: PrimeField(101), -1, FINITE_DIMS),
    ("gf9", lambda: QuadraticField(3), 1, FINITE_DIMS),
    ("rational+", RationalField, 1, tuple(range(1, 13))),
    ("rational-", RationalField, -1, tuple(range(1, 13))),
    ("quaternion", RationalQuaternions, 1, tuple(range(1, 9))),
)


def _sweep_seed(config_index: int, instance: int) -> int:
    return 100_000 * (config_index + 1) + instance


def _verdict(label: str, failures: list) -> None:
    ok = not failures
    print(("[PASS] " if ok else "[FAIL] ") + label)
    assert ok, f"{label}: first failures {failures[:5]}"


def _fresh(form_matrix: Matrix, ring, s: int) -> HermitianForm:
    return HermitianForm(ring, snapshot(form_matrix), s, validate=False)


@dataclass
class SweepOutcome:
    instances: int = 0
    clause_failures: list = field(default_factory=list)
    invariant_mismatches: list = field(default_factory=list)
    elapsed: float = 0.0


@pytest.fixture(scope="module")
def sweep() -> SweepOutcome:
    """Runs the shared correctness sweep once; criteria 1 and 2 read it."""
    out = SweepOutcome()
    start = time.perf_counter()
    for k, (name, make_ring, s, dims) in enumerate(SWEEP_CONFIGS):
        ring = make_ring()
        for i in range(FORMS_PER_CONFIG):
            rng = random.Random(_sweep_seed(k, i))
            d = dims[i % len(dims)]
            pristine = random_form(ring, s, d, rng).m
            results = {}
            for algo, fn in (("gs", decompose_gs), ("blocks", decompose_blocks)):
                dec = fn(_fresh(pristine, ring, s))
                report = check_decomposition(pristine, s, dec)
                if not report.passed:
                    out.clause_failures.append((name, i, d, algo, report.details))
                results[algo] = invariants_of(dec)
            if results["gs"] != results["blocks"]:
                out.invariant_mismatches.append((name, i, d, results))
            out.instances += 1
    out.elapsed = time.perf_counter() - start
    return out


def test_criterion_1_correctness_sweep(sweep):
    failures = list(sweep.clause_failures)
    if sweep.instances != FORMS_PER_CONFIG * len(SWEEP_CONFIGS):
        failures.append(("instance count", sweep.instances))
    if sweep.elapsed >= SWEEP_BUDGET:
        failures.append(("budget", sweep.elapsed))
    _verdict(
        f"1 correctness sweep: {sweep.instances} forms x 2 algorithms, "
        f"all checks exact, {sweep.elapsed:.1f}s < {SWEEP_BUDGET:.0f}s",
        failures,
    )


def test_criterion_2_invariant_agreement(sweep):
    _verdict(
        f"2 invariant agreement on all {sweep.instances} sweep instances",
        list(sweep.invariant_mismatches),
    )


def test_criterion_3_leading_term_counts():
    ring = PrimeField(1009)
    d = 200
    lo, hi = LEADING_BAND
    failures = []
    start = time.perf_counter()
    for trial in range(10):
        rng = random.Random(3000 + trial)
        while True:
            dec = decompose_gs(random_form(ring, 1, d, rng))
            if dec.radical_dim == 0:
                break
        cube = d**3 / 3
        c = dec.counters
        checks = {
            "additions": lo <= c.additions / cube <= hi,
            "multiplications": lo <= c.multiplications / cube <= hi,
            "inversions": c.inversions <= d + dec.isotropic_steps,
            "equality_tests": c.equality_tests <= math.comb(d, 2) + d,
            "sigma": c.sigma_applications <= math.comb(d, 2),
        }
        for key, ok in checks.items():
            if not ok:
                failures.append((trial, key, c))
    elapsed = time.perf_counter() - start
    if elapsed >= LEADING_BUDGET:
        failures.append(("budget", elapsed))
    _verdict(
        f"3 leading-term counts: 10 trials at d={d}, add/mul within "
        f"[{lo}, {hi}] of d^3/3, side counters capped, {elapsed:.1f}s",
        failures,
    )


def test_criterion_4_standardize_golden_values():
    gf7 = PrimeField(7)
    failures = []

    def run(ring, s, alpha, expected):
        log, blocks = standardize(ring, s, alpha)
        if blocks != expected:
            failures.append((repr(ring), s, alpha, blocks))
            return
        # the emitted log must carry [[0,1],[s,alpha]] onto the blocks
        corner = Matrix(
            ring,
            [[ring.zero, ring.one], [ring.from_int(s), ring.validate_scalar(alpha)]],
            validate=False,
        )
        a = log.materialize(ring)
        moved = matmul(matmul(a, corner), a.sigma_transpose())
        want = Matrix.zeros(ring, 2, 2)
        pos = 0
        for block in expected:
            if isinstance(block, ScalarBlock):
                want.rows[pos][pos] = block.value
                pos += 1
            else:
                want.rows[pos][pos + 1] = ring.one
                want.rows[pos + 1][pos] = ring.from_int(s)
                pos += 2
        if moved != want:
            failures.append((repr(ring), s, alpha, "log does not reproduce blocks"))

    run(gf7, 1, 3, [ScalarBlock(2), ScalarBlock(3)])
    run(gf7, 1, 0, [ScalarBlock(2), ScalarBlock(5)])  # 5 = -2 mod 7
    run(gf7, -1, 0, [JBlock()])
    run(RationalField(), -1, Fraction(0), [JBlock()])
    _verdict(
        "4 standardize golden values: alpha=3 over GF(7) gives [2],[3]; "
        "alpha=0, s=+1 gives [2],[-2]; alpha=0, s=-1 keeps the J block",
        failures,
    )


def test_criterion_5_alternating_canonical_form():
    failures = []
    for ring in (RationalField(), PrimeField(101)):
        for i in range(150):
            rng = random.Random(5000 + i)
            d = rng.randint(1, 12)
            k = rng.randint(0, d // 2)
            pristine = random_form(ring, -1, d, rng, rank=2 * k).m
            expected = [JBlock()] * k + [ScalarBlock(ring.zero)] * (d - 2 * k)
            for algo, fn in (("gs", decompose_gs), ("blocks", decompose_blocks)):
                dec = fn(_fresh(pristine, ring, -1))
                if dec.blocks != expected or dec.radical_dim != d - 2 * k:
                    failures.append((repr(ring), i, d, k, algo, dec.blocks))
    _verdict(
        "5 alternating forms: rank-2k skew inputs over Q and GF(101) "
        "give exactly k J blocks plus d-2k zeros, both algorithms",
        failures,
    )


def test_criterion_6_exhaustive_congruence_gf3():
    gf3 = PrimeField(3)
    failures = []
    start = time.perf_counter()

    matrices = []
    keys = []
    for a, b, c, e, f, g in itertools.product(range(3), repeat=6):
        matrices.append(Matrix(gf3, [[a, b, c], [b, e, f], [c, f, g]], validate=False))
    for idx, m in enumerate(matrices):
        dec = decompose_gs(_fresh(m, gf3, 1))
        sort_blocks_canonical(dec)
        report = check_decomposition(m, 1, dec)
        if not report.passed:
            failures.append(("canonicalization", idx, report.details))
        keys.append(
            tuple(
                ("j",) if isinstance(blk, JBlock) else ("s", blk.value)
                for blk in dec.blocks
            )
        )

    # same canonical list means congruent: each matrix is congruent to its
    # canonical direct sum by the verified transform above, and equal lists
    # share that direct sum.  Distinct lists are separated by brute force on
    # one representative per class, which extends to all pairs because
    # congruence is transitive.
    representatives: dict[tuple, int] = {}
    for idx, key in enumerate(keys):
        representatives.setdefault(key, idx)
    if len(representatives) != 7:
        failures.append(("class count", sorted(representatives)))
    reps = list(representatives.items())
    for (k1, i1), (k2, i2) in itertools.combinations(reps, 2):
        if brute_force_congruence(matrices[i1], matrices[i2], 1):
            failures.append(("distinct classes congruent", k1, k2))

    # direct spot check of the oracle against canonical-list equality
    rng = random.Random(600)
    for _ in range(40):
        i1, i2 = rng.randrange(729), rng.randrange(729)
        oracle = brute_force_congruence(matrices[i1], matrices[i2], 1)
        if oracle != (keys[i1] == keys[i2]):
            failures.append(("oracle disagrees", i1, i2, oracle))

    elapsed = time.perf_counter() - start
    if elapsed >= EXHAUSTIVE_BUDGET:
        failures.append(("budget", elapsed))
    _verdict(
        f"6 exhaustive GF(3) 3x3: canonical lists match exactly the "
        f"brute-force congruence classes (7 classes), {elapsed:.1f}s",
        failures,
    )


def _random_matrix(ring, rows: int, cols: int, rng) -> Matrix:
    return Matrix(
        ring,
        [[ring.random(rng) for _ in range(cols)] for _ in range(rows)],
        validate=False,
    )


def test_criterion_7_strassen_equivalence():
    failures = []
    rings = (
        ("gf101", PrimeField(101), 12),
        ("gf9", QuadraticField(3), 12),
        ("rational", RationalField(), 12),
        ("quaternion", RationalQuaternions(), 8),
    )
    for offset, (name, ring, max_dim) in enumerate(rings):
        rng = random.Random(7000 + offset)
        for i in range(200):
            if i == 0:
                n, m, k = 63, 65, 63
                cutoff = 8
            else:
                n = rng.randint(1, max_dim)
                m = rng.randint(1, max_dim)
                k = rng.randint(1, max_dim)
                cutoff = (2, 8, 16)[i % 3]
            a = _random_matrix(ring, n, m, rng)
            b = _random_matrix(ring, m, k, rng)
            if matmul(a, b) != matmul(a, b, cutoff=cutoff):
                failures.append((name, i, (n, m, k), cutoff))

    # recursive multiplication must not change what the block algorithm emits
    byte_configs = (
        (PrimeField(101), 1, 32),
        (PrimeField(101), -1, 32),
        (QuadraticField(3), 1, 32),
        (RationalField(), 1, 12),
        (RationalField(), -1, 12),
        (RationalQuaternions(), 1, 8),
    )
    for offset, (ring, s, d) in enumerate(byte_configs):
        for i in range(8):
            rng = random.Random(7700 + 10 * offset + i)
            pristine = random_form(ring, s, d, rng).m
            decs = [
                decompose_blocks(_fresh(pristine, ring, s), strassen_cutoff=c)
                for c in (0, 8, 64)
            ]
            base = decs[0]
            for c, dec in zip((8, 64), decs[1:]):
                same = (
                    dec.blocks == base.blocks
                    and dec.log == base.log
                    and dec.radical_dim == base.radical_dim
                    and dec.direct_sum_matrix() == base.direct_sum_matrix()
                )
                if not same:
                    failures.append((repr(ring), s, d, i, c))
    _verdict(
        "7 recursive multiplication: 200 instances per ring agree with the "
        "classical product (63x65 and quaternion cases included), and "
        "cutoffs 0/8/64 leave the block decomposition identical",
        failures,
    )


def _congruate_plain(ring, a: Matrix, m: Matrix) -> list[list]:
    """a * m * sigma(a)^t by bare loops, independent of the matmul routines."""
    n, inner = a.nrows, a.ncols
    left = [
        [
            sum_(ring, [ring.mul(a.rows[i][t], m.rows[t][j]) for t in range(inner)])
            for j in range(inner)
        ]
        for i in range(n)
    ]
    return [
        [
            sum_(ring, [ring.mul(left[i][t], ring.sigma(a.rows[j][t])) for t in range(inner)])
            for j in range(n)
        ]
        for i in range(n)
    ]


def sum_(ring, values):
    total = ring.zero
    for v in values:
        total = ring.add(total, v)
    return total


def test_criterion_8_rescaling_identities_and_post_passes():
    failures = []

    # pair rescaling over the three small rings, checked by bare-loop products
    for ring in (PrimeField(7), QuadraticField(3), PrimeField(2)):
        rng = random.Random(800)
        done = 0
        while done < 100:
            gamma, delta = ring.random(rng), ring.random(rng)
            norm = ring.add(
                ring.mul(gamma, ring.sigma(gamma)), ring.mul(delta, ring.sigma(delta))
            )
            if norm == ring.zero:
                continue
            a, alpha = pair_rescale(ring, gamma, delta)
            identity = Matrix(ring, [[ring.one, ring.zero], [ring.zero, ring.one]], validate=False)
            got = _congruate_plain(ring, a, identity)
            want = [[alpha, ring.zero], [ring.zero, alpha]]
            if alpha != norm or got != want:
                failures.append(("pair_rescale", repr(ring), gamma, delta))
            done += 1

    # the characteristic-2 triple over GF(2); guarded away elsewhere
    gf2 = PrimeField(2)
    j_plus_one = Matrix(gf2, [[0, 1, 0], [1, 0, 0], [0, 0, 1]], validate=False)
    for _ in range(100):
        t = char2_triple(gf2, 1)
        got = _congruate_plain(gf2, t, j_plus_one)
        if got != [[1, 0, 0], [0, 1, 0], [0, 0, 1]]:
            failures.append(("char2_triple", got))
    for ring in (PrimeField(7), QuadraticField(3)):
        with pytest.raises(ValueError):
            char2_triple(ring, ring.one)

    # both post passes must preserve the congruence clause on every prime
    # field instance of the sweep (same seeds, regenerated here)
    for k, (name, make_ring, s, dims) in enumerate(SWEEP_CONFIGS[:2]):
        ring = make_ring()
        for i in range(FORMS_PER_CONFIG):
            rng = random.Random(_sweep_seed(k, i))
            d = dims[i % len(dims)]
            pristine = random_form(ring, s, d, rng).m
            dec = decompose_gs(_fresh(pristine, ring, s))
            maximize_j_blocks(dec)
            report = check_decomposition(pristine, s, dec)
            if not (report.transform_invertible and report.congruence_matches):
                failures.append((name, i, "maximize_j_blocks", report.details))
                continue
            sort_blocks_canonical(dec)
            report = check_decomposition(pristine, s, dec)
            if not (report.transform_invertible and report.congruence_matches):
                failures.append((name, i, "sort_blocks_canonical", report.details))
    _verdict(
        "8 rescaling identities hold under direct multiplication (100 "
        "witnesses per ring) and post passes preserve congruence on all "
        "prime-field sweep instances",
        failures,
    )


def test_criterion_9_scaling_exponents():
    ring = PrimeField(1009)
    rng = random.Random(90)
    dims = (128, 256, 512)
    failures = []
    start = time.perf_counter()
    pristine = [random_form(ring, 1, d, rng).m for d in dims]
    algos = (("gs", decompose_gs), ("blocks", decompose_blocks))
    best = {(algo, d): math.inf for algo, _ in algos for d in dims}
    # round-robin: each run times every point once, so the best of
    # SCALING_RUNS of each point samples the same phases of the host's speed
    for _ in range(SCALING_RUNS):
        for d, m in zip(dims, pristine):
            for algo, fn in algos:
                form = _fresh(m, ring, 1)
                t0 = time.perf_counter()
                fn(form)
                best[algo, d] = min(best[algo, d], time.perf_counter() - t0)
    timings = {algo: [best[algo, d] for d in dims] for algo, _ in algos}

    def slope(times: list[float]) -> float:
        xs = [math.log(d) for d in dims]
        ys = [math.log(t) for t in times]
        mx = sum(xs) / len(xs)
        my = sum(ys) / len(ys)
        return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum(
            (x - mx) ** 2 for x in xs
        )

    blocks_exp = slope(timings["blocks"])
    gs_exp = slope(timings["gs"])
    if not BLOCKS_EXPONENT_BAND[0] <= blocks_exp <= BLOCKS_EXPONENT_BAND[1]:
        failures.append(("blocks", blocks_exp, timings["blocks"]))
    if not GS_EXPONENT_BAND[0] <= gs_exp <= GS_EXPONENT_BAND[1]:
        failures.append(("gs", gs_exp, timings["gs"]))
    elapsed = time.perf_counter() - start
    if elapsed >= SCALING_BUDGET:
        failures.append(("budget", elapsed))
    _verdict(
        f"9 scaling shape at d in {dims}: blocks exponent {blocks_exp:.2f} in "
        f"{BLOCKS_EXPONENT_BAND}, gs exponent {gs_exp:.2f} in "
        f"{GS_EXPONENT_BAND}, {elapsed:.1f}s",
        failures,
    )
