"""Output checkers that share no arithmetic with orthoform.

Every result is checked from text: the form file the program read, the SLP
transform text it wrote, and the blocks it reported.  Scalars are parsed
here, the transform A is rebuilt here by replaying the SLP lines, and

* A * B * sigma(A)^t must equal the claimed direct sum,
* A must be invertible, and
* d - radical_dim must equal the rank of B,

all computed over a base field by embedding each ring into matrices over it:
GF(p) and Q embed as themselves, GF(p^2) = GF(p)[x]/(x^2 - c) as 2x2
matrices over GF(p), and the quaternions as 4x4 rational matrices (the left
regular representation).  Ranks over GF(p) come from numpy elimination mod p;
ranks over Q from sympy over QQ, except that full rank is first tried modulo
a large prime, which proves it when it holds.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

import numpy as np
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

# A prime below 2^31, so products of two residues fit in int64.
PROOF_PRIME = 2**31 - 1

_TERM_RE = re.compile(r"[+-]?[^+-]+")


class CheckFailed(Exception):
    """An output does not satisfy one of the checks above."""


def _terms(text: str, symbols: tuple) -> dict:
    """`1/2-3*i+k` -> {"": 1/2, "i": -3, "k": 1}; absent symbols read as 0."""
    out = {}
    for piece in _TERM_RE.findall(text):
        sign = -1 if piece[0] == "-" else 1
        body = piece.lstrip("+-")
        if "*" in body:
            coef, sym = body.split("*", 1)
        elif body in symbols:
            coef, sym = "1", body
        else:
            coef, sym = body, ""
        if sym not in symbols or sym in out:
            raise CheckFailed(f"cannot parse scalar {text!r}")
        out[sym] = sign * Fraction(coef)
    if "".join(_TERM_RE.findall(text)) != text:
        raise CheckFailed(f"cannot parse scalar {text!r}")
    return {sym: out.get(sym, Fraction(0)) for sym in symbols}


def _as_int(value: Fraction, text: str) -> int:
    if value.denominator != 1:
        raise CheckFailed(f"non-integer residue {text!r}")
    return int(value)


class _ModP:
    """GF(p) as numpy int64 arrays."""

    def __init__(self, p: int):
        if p >= 2**31:
            raise CheckFailed(f"no int64 checker for modulus {p}")
        self.p = p

    def array(self, rows) -> np.ndarray:
        return np.array(rows, dtype=np.int64).reshape(len(rows), -1) % self.p

    def matmul(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        if x.shape[1] * (self.p - 1) ** 2 >= 2**63:
            raise CheckFailed(f"a product of inner size {x.shape[1]} mod {self.p} overflows int64")
        return (x @ y) % self.p

    def reduce(self, x: np.ndarray) -> np.ndarray:
        return x % self.p

    def rank(self, x: np.ndarray) -> int:
        return _rank_mod(x, self.p)


class _Rational:
    """Q as numpy object arrays of Fraction; products go through integers."""

    def array(self, rows) -> np.ndarray:
        out = np.empty((len(rows), len(rows[0]) if rows else 0), dtype=object)
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                out[i, j] = Fraction(v)
        return out

    def matmul(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        # scale rows of x and columns of y to integers, multiply, scale back
        rs = [math.lcm(*(v.denominator for v in row)) for row in x] if x.size else []
        cs = [math.lcm(*(v.denominator for v in col)) for col in y.T] if y.size else []
        xi = np.array([[int(v * r) for v in row] for row, r in zip(x, rs)], dtype=object)
        yi = np.array([[int(v * c) for v in col] for col, c in zip(y.T, cs)], dtype=object).T
        prod = xi.reshape(x.shape) @ yi.reshape(y.shape)
        out = np.empty(prod.shape, dtype=object)
        for i in range(prod.shape[0]):
            for j in range(prod.shape[1]):
                out[i, j] = Fraction(prod[i, j], rs[i] * cs[j])
        return out

    def reduce(self, x: np.ndarray) -> np.ndarray:
        return x

    def rank(self, x: np.ndarray) -> int:
        n, m = x.shape
        if n == 0 or m == 0:
            return 0
        ints = []
        for row in x:
            scale = math.lcm(*(v.denominator for v in row))
            ints.append([int(v * scale) for v in row])
        # full rank modulo a prime proves full rank over Q
        if _rank_mod(np.array(ints, dtype=object), PROOF_PRIME) == min(n, m):
            return min(n, m)
        return DomainMatrix([[QQ(v) for v in row] for row in ints], (n, m), QQ).rank()


def _rank_mod(x: np.ndarray, p: int) -> int:
    """Rank mod p < 2^31 (products of two residues fit in int64)."""
    work = np.array(x % p, dtype=np.int64)
    n, m = work.shape
    rank = 0
    for c in range(m):
        if rank == n:
            break
        nz = np.nonzero(work[rank:, c])[0]
        if nz.size == 0:
            continue
        piv = rank + int(nz[0])
        if piv != rank:
            work[[rank, piv]] = work[[piv, rank]]
        inv = pow(int(work[rank, c]), -1, p)
        work[rank] = (work[rank] * inv) % p
        below = work[rank + 1 :, c].copy()
        work[rank + 1 :] = (work[rank + 1 :] - np.outer(below, work[rank]) % p) % p
        rank += 1
    return rank


class Algebra:
    """A ring as the benchmark sees it: scalar parsing, the involution, and
    an embedding into deg x deg matrices over a base field."""

    deg = 1

    def __init__(self, base):
        self.base = base

    def parse(self, text: str):
        raise NotImplementedError

    def from_int(self, n: int):
        raise NotImplementedError

    def sigma(self, x):
        return x

    def embed(self, x) -> list:
        return [[x]]

    def unembed(self, m: np.ndarray, r: int, c: int):
        return m[r, c]

    def is_zero(self, x) -> bool:
        return x == self.from_int(0)


class PrimeAlgebra(Algebra):
    def __init__(self, p: int):
        super().__init__(_ModP(p))
        self.p = p

    def parse(self, text: str) -> int:
        return _as_int(_terms(text, ("",))[""], text) % self.p

    def from_int(self, n: int) -> int:
        return n % self.p

    def unembed(self, m, r, c):
        return int(m[r, c])


class QuadraticAlgebra(Algebra):
    """GF(p)[x]/(x^2 - c), c the least non-residue; a + b*x -> [[a, c*b], [b, a]]."""

    deg = 2

    def __init__(self, p: int, frobenius: bool):
        super().__init__(_ModP(p))
        self.p = p
        self.frobenius = frobenius
        self.c = next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) == p - 1)

    def parse(self, text: str):
        t = _terms(text, ("", "x"))
        return (_as_int(t[""], text) % self.p, _as_int(t["x"], text) % self.p)

    def from_int(self, n: int):
        return (n % self.p, 0)

    def sigma(self, x):
        return (x[0], -x[1] % self.p) if self.frobenius else x

    def embed(self, x):
        a, b = x
        return [[a, self.c * b % self.p], [b, a]]

    def unembed(self, m, r, c):
        return (int(m[r, c]), int(m[r + 1, c]))


class RationalAlgebra(Algebra):
    def __init__(self):
        super().__init__(_Rational())

    def parse(self, text: str) -> Fraction:
        return _terms(text, ("",))[""]

    def from_int(self, n: int) -> Fraction:
        return Fraction(n)


class QuaternionAlgebra(Algebra):
    """w + x*i + y*j + z*k with conjugation; q -> its left-multiplication matrix."""

    deg = 4

    def __init__(self):
        super().__init__(_Rational())

    def parse(self, text: str):
        t = _terms(text, ("", "i", "j", "k"))
        return (t[""], t["i"], t["j"], t["k"])

    def from_int(self, n: int):
        return (Fraction(n), Fraction(0), Fraction(0), Fraction(0))

    def sigma(self, x):
        return (x[0], -x[1], -x[2], -x[3])

    def embed(self, x):
        w, a, b, c = x
        return [[w, -a, -b, -c], [a, w, -c, b], [b, c, w, -a], [c, -b, a, w]]

    def unembed(self, m, r, c):
        return tuple(m[r + k, c] for k in range(4))


def algebra_for(kind: str, param, sigma) -> Algebra:
    """The algebra for a form file's `ring` and `sigma` lines."""
    if kind == "gfp":
        return PrimeAlgebra(param)
    if kind == "gfp2":
        return QuadraticAlgebra(param, sigma in (None, "frobenius"))
    if kind == "rational":
        return RationalAlgebra()
    if kind == "quaternion":
        return QuaternionAlgebra()
    raise CheckFailed(f"no checker for ring kind {kind!r}")


def parse_form_text(text: str):
    """(algebra, s, rows) from a form file, read with this module's parser."""
    kind = param = sigma = None
    s = None
    rows = []
    dim = None
    for raw in text.splitlines():
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        if dim is None:
            head = tokens[0]
            if head == "ring":
                kind = tokens[1]
                param = int(tokens[2]) if len(tokens) > 2 else None
            elif head == "sigma":
                sigma = tokens[1]
            elif head == "s":
                s = 1 if tokens[1] in ("+1", "1") else -1
            elif head == "dim":
                dim = int(tokens[1])
                alg = algebra_for(kind, param, sigma)
            continue
        rows.append([alg.parse(tok) for tok in tokens])
    if dim is None or len(rows) != dim or any(len(r) != dim for r in rows) or s is None:
        raise CheckFailed("malformed form file")
    return alg, s, rows


def embed_matrix(alg: Algebra, rows: list) -> np.ndarray:
    n = len(rows)
    k = alg.deg
    big = [[None] * (k * n) for _ in range(k * n)]
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            blk = alg.embed(x)
            for a in range(k):
                for b in range(k):
                    big[k * i + a][k * j + b] = blk[a][b]
    return alg.base.array(big)


def unembed_matrix(alg: Algebra, m: np.ndarray, n: int) -> list:
    k = alg.deg
    return [[alg.unembed(m, k * i, k * j) for j in range(n)] for i in range(n)]


def replay_slp(alg: Algebra, n: int, lines: list) -> np.ndarray:
    """The embedded transform A: the product of the SLP's elementary left
    multiplications, first line innermost, starting from the identity."""
    k = alg.deg
    base = alg.base
    acc = embed_matrix(alg, [[alg.from_int(int(i == j)) for j in range(n)] for i in range(n)])

    def rows_of(i: int, count: int = 1) -> slice:
        if not (0 <= i and i + count <= n):
            raise CheckFailed(f"SLP index {i} out of range for dim {n}")
        return slice(k * i, k * (i + count))

    for line in lines:
        tok = line.split()
        op = tok[0] if tok else ""
        if op == "scale" and len(tok) == 3:
            r = rows_of(int(tok[1]))
            acc[r] = base.reduce(base.matmul(base.array(alg.embed(alg.parse(tok[2]))), acc[r]))
        elif op == "swap" and len(tok) == 3:
            a, b = rows_of(int(tok[1])), rows_of(int(tok[2]))
            acc[a], acc[b] = acc[b].copy(), acc[a].copy()
        elif op == "transvect" and len(tok) == 4:
            t, s = rows_of(int(tok[1])), rows_of(int(tok[2]))
            if t == s:
                raise CheckFailed(f"transvection onto itself: {line!r}")
            lam = base.array(alg.embed(alg.parse(tok[3])))
            acc[t] = base.reduce(acc[t] + base.matmul(lam, acc[s]))
        elif op == "blockleft" and len(tok) >= 3:
            off, q = int(tok[1]), int(tok[2])
            if len(tok) != 3 + q * q:
                raise CheckFailed(f"blockleft with {len(tok) - 3} entries for q={q}")
            vals = [alg.parse(v) for v in tok[3:]]
            block = embed_matrix(alg, [vals[a * q : (a + 1) * q] for a in range(q)])
            r = rows_of(off, q)
            acc[r] = base.matmul(block, acc[r])
        else:
            raise CheckFailed(f"unknown SLP line {line[:40]!r}")
    return acc


def direct_sum(alg: Algebra, blocks: list, n: int) -> list:
    """The n x n matrix holding `blocks` (each a square list of scalars) on the diagonal."""
    zero = alg.from_int(0)
    rows = [[zero] * n for _ in range(n)]
    pos = 0
    for blk in blocks:
        q = len(blk)
        if pos + q > n:
            raise CheckFailed("blocks cover more than the dimension")
        for a in range(q):
            for b in range(q):
                rows[pos + a][pos + b] = blk[a][b]
        pos += q
    if pos != n:
        raise CheckFailed(f"blocks cover {pos} of {n} positions")
    return rows


def form_rank(alg: Algebra, rows: list) -> int:
    """Rank of the form matrix, independent of the program."""
    if not rows:
        return 0
    r = alg.base.rank(embed_matrix(alg, rows))
    if r % alg.deg:
        raise CheckFailed(f"embedded rank {r} is not a multiple of {alg.deg}")
    return r // alg.deg


def check_result(alg: Algebra, s: int, rows: list, rank: int, slp_lines: list,
                 blocks: list, radical_dim: int) -> None:
    """Raise CheckFailed unless the SLP replays to an invertible A with
    A * B * sigma(A)^t equal to the direct sum of `blocks`, and the radical
    (the trailing zero 1x1 blocks) has size dim - rank(B)."""
    n = len(rows)
    if n - radical_dim != rank:
        raise CheckFailed(f"radical_dim {radical_dim} but dim - rank(B) = {n - rank}")
    tail = blocks[len(blocks) - radical_dim :] if radical_dim else []
    if len(tail) != radical_dim or any(len(b) != 1 or not alg.is_zero(b[0][0]) for b in tail):
        raise CheckFailed("the radical is not a tail of zero 1x1 blocks")
    if n == 0:
        if blocks or slp_lines:
            raise CheckFailed("a 0-dimensional form with blocks or transform lines")
        return
    base = alg.base
    a = replay_slp(alg, n, slp_lines)
    a_elems = unembed_matrix(alg, a, n)
    a_star = embed_matrix(alg, [[alg.sigma(a_elems[j][i]) for j in range(n)] for i in range(n)])
    product = base.matmul(base.matmul(a, embed_matrix(alg, rows)), a_star)
    expect = embed_matrix(alg, direct_sum(alg, blocks, n))
    if not np.array_equal(product, expect):
        raise CheckFailed("A * B * sigma(A)^t is not the claimed direct sum")
    if base.rank(a) != alg.deg * n:
        raise CheckFailed("the transform A is singular")
