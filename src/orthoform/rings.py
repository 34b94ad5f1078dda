"""Scalar arithmetic for the division rings the decomposers run over.

A ring descriptor carries the metadata (kind, modulus, involution) and all
operations; scalar values themselves are plain Python data chosen per ring:

* ``PrimeField(p)``      -- ``int`` residues in ``[0, p)``
* ``QuadraticField(p)``  -- ``(a, b)`` int pairs meaning ``a + b*x`` with
  ``x**2 = c``, ``c`` the smallest non-residue mod ``p``
* ``RationalField()``    -- ``fractions.Fraction`` (canonical reduced form)
* ``RationalQuaternions()`` -- 4-tuples of ``Fraction`` for ``w + x*i + y*j + z*k``
  with ``i**2 = j**2 = -1``, ``i*j = k = -j*i``

Every descriptor implements the same contract: ``add``, ``sub``, ``mul``,
``neg``, ``inv``, ``sigma`` (the ring's involution), ``parse``/``format``
(round-trip safe literals), ``random``, and ``validate_scalar``.  The base
class supplies ``sub`` as ``add(x, neg(y))`` for every ring, and the identity
``sigma`` and ``str`` as ``format`` where a ring has no other.  Scalar values
are canonical, so plain ``==`` is scalar equality.  Inverting zero raises
``ZeroDivisionError``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Optional


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981  # Miller-Rabin on these bases is exact below it


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; raises ValueError at or above _MR_LIMIT."""
    if n >= _MR_LIMIT:
        raise ValueError(f"modulus {n} is too large: primality is decided only below {_MR_LIMIT}")
    if n < 2 or any(n % b == 0 for b in _MR_BASES):
        return n in _MR_BASES
    r = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> r
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x != 1 and all(pow(x, 1 << i, n) != n - 1 for i in range(r)):
            return False
    return True


def _legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for odd prime p: 1, -1, or 0."""
    a %= p
    if a == 0:
        return 0
    ls = pow(a, (p - 1) // 2, p)
    return -1 if ls == p - 1 else 1


_TERM_RE = re.compile(r"[+-]?[^+-]+")


def _split_terms(text: str, symbols: tuple[str, ...]) -> dict[str, str]:
    """Split a literal like ``1/2-3*i+0*j`` into {symbol: coefficient-string}.

    Symbols absent from the literal map to "0"; a bare symbol counts as
    coefficient 1 (with its sign).  Raises ValueError on anything else.
    """
    if not text or text != text.strip() or " " in text or "\t" in text:
        raise ValueError(f"malformed scalar literal {text!r}")
    pieces = _TERM_RE.findall(text)
    if "".join(pieces) != text:
        raise ValueError(f"malformed scalar literal {text!r}")
    out: dict[str, str] = {}
    for piece in pieces:
        sign = ""
        body = piece
        if body and body[0] in "+-":
            sign = "-" if body[0] == "-" else ""
            body = body[1:]
        if "*" in body:
            coef, _, sym = body.partition("*")
        elif body in symbols and body != "":
            coef, sym = "1", body
        else:
            coef, sym = body, ""
        if sym not in symbols:
            raise ValueError(f"unknown symbol {sym!r} in literal {text!r}")
        if sym in out:
            raise ValueError(f"repeated {sym or 'constant'} term in literal {text!r}")
        if not coef:
            raise ValueError(f"empty coefficient in literal {text!r}")
        out[sym] = sign + coef
    return out


_INT_RE = re.compile(r"[+-]?\d+\Z")
_FRACTION_RE = re.compile(r"[+-]?\d+(?:/\d+)?\Z")


def _parse_int(text: str) -> int:
    if not _INT_RE.match(text):
        raise ValueError(f"not an integer literal: {text!r}")
    return int(text)


def _parse_fraction(text: str) -> Fraction:
    if not _FRACTION_RE.match(text):
        raise ValueError(f"not a rational literal: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


class Ring:
    """Behavioral contract shared by all ring descriptors."""

    kind: str = "?"
    involution: str = "identity"
    is_commutative: bool = True
    characteristic: int = 0

    # -- identity data ------------------------------------------------------

    def _key(self) -> tuple:
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Ring) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    # -- arithmetic ---------------------------------------------------------

    def add(self, x, y):
        raise NotImplementedError

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def mul(self, x, y):
        raise NotImplementedError

    def neg(self, x):
        raise NotImplementedError

    def inv(self, x):
        raise NotImplementedError

    def sigma(self, x):
        """Apply the ring's involution (unital anti-isomorphism of order <= 2):
        the identity, unless the ring has another."""
        return x

    def from_int(self, n: int):
        raise NotImplementedError

    @property
    def zero(self):
        return self.from_int(0)

    @property
    def one(self):
        return self.from_int(1)

    def apply_sign(self, s: int, x):
        """Multiply by s in {+1, -1} without a counted ring multiplication."""
        return x if s == 1 else self.neg(x)

    # -- literals and sampling ----------------------------------------------

    def parse(self, text: str):
        raise NotImplementedError

    def format(self, x) -> str:
        return str(x)

    def validate_scalar(self, x):
        """Return x in canonical representation, or raise ValueError."""
        raise NotImplementedError

    def random(self, rng):
        raise NotImplementedError

    def random_sigma_fixed(self, s: int, rng):
        """Sample beta with beta == s * sigma(beta), suitable for a diagonal entry."""
        if self.involution == "identity":
            if s == 1 or self.characteristic == 2:
                return self.random(rng)
            return self.zero
        x = self.random(rng)
        return self.add(x, self.apply_sign(s, self.sigma(x)))


class PrimeField(Ring):
    """GF(p) with the identity involution; scalars are int residues."""

    kind = "gfp"

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p
        self.characteristic = p

    def _key(self) -> tuple:
        return ("gfp", self.p)

    def __repr__(self) -> str:
        return f"GF({self.p})"

    def add(self, x: int, y: int) -> int:
        return (x + y) % self.p

    def mul(self, x: int, y: int) -> int:
        return (x * y) % self.p

    def neg(self, x: int) -> int:
        return -x % self.p

    def inv(self, x: int) -> int:
        if x % self.p == 0:
            raise ZeroDivisionError(f"inverting 0 in {self!r}")
        return pow(x, -1, self.p)

    def from_int(self, n: int) -> int:
        return n % self.p

    def parse(self, text: str) -> int:
        return _parse_int(text) % self.p

    def validate_scalar(self, x) -> int:
        if isinstance(x, bool) or not isinstance(x, int):
            raise ValueError(f"{x!r} is not a {self!r} scalar")
        if not 0 <= x < self.p:
            raise ValueError(f"{x!r} is not reduced mod {self.p}")
        return x

    def random(self, rng) -> int:
        return rng.randrange(self.p)

    def smallest_nonresidue(self) -> Optional[int]:
        if self.p == 2:
            return None
        for n in range(2, self.p):
            if _legendre(n, self.p) == -1:
                return n
        return None


class QuadraticField(Ring):
    """GF(p^2) modeled as GF(p)[x]/(x^2 - c), c the smallest non-residue mod p.

    Scalars are ``(a, b)`` int pairs for ``a + b*x``.  The Frobenius
    involution is ``a + b*x -> a - b*x`` (since ``x**p = -x``); the identity
    involution is also accepted for plain symmetric forms over GF(p^2).
    """

    kind = "gfp2"

    def __init__(self, p: int, involution: str = "frobenius"):
        if not _is_prime(p) or p == 2:
            raise ValueError(f"GF(p^2) needs an odd prime, got {p}")
        if involution not in ("frobenius", "identity"):
            raise ValueError(f"unsupported involution {involution!r} for GF(p^2)")
        self.p = p
        self.characteristic = p
        self.involution = involution
        base = PrimeField(p)
        c = base.smallest_nonresidue()
        assert c is not None
        self.nonresidue = c

    def _key(self) -> tuple:
        return ("gfp2", self.p, self.involution)

    def __repr__(self) -> str:
        return f"GF({self.p}^2)"

    def add(self, x, y):
        p = self.p
        return ((x[0] + y[0]) % p, (x[1] + y[1]) % p)

    def mul(self, x, y):
        p = self.p
        a, b = x
        u, v = y
        return ((a * u + self.nonresidue * b * v) % p, (a * v + b * u) % p)

    def neg(self, x):
        p = self.p
        return (-x[0] % p, -x[1] % p)

    def inv(self, x):
        p = self.p
        a, b = x
        n = (a * a - self.nonresidue * b * b) % p
        if n == 0:
            raise ZeroDivisionError(f"inverting 0 in {self!r}")
        ninv = pow(n, -1, p)
        return ((a * ninv) % p, (-b * ninv) % p)

    def sigma(self, x):
        if self.involution == "identity":
            return x
        return (x[0], -x[1] % self.p)

    def from_int(self, n: int):
        return (n % self.p, 0)

    def parse(self, text: str):
        terms = _split_terms(text, ("", "x"))
        a = _parse_int(terms.get("", "0")) % self.p
        b = _parse_int(terms.get("x", "0")) % self.p
        return (a, b)

    def format(self, x) -> str:
        return f"{x[0]}+{x[1]}*x"

    def validate_scalar(self, x):
        if (
            not isinstance(x, tuple)
            or len(x) != 2
            or not all(isinstance(v, int) and not isinstance(v, bool) for v in x)
        ):
            raise ValueError(f"{x!r} is not a {self!r} scalar")
        if not all(0 <= v < self.p for v in x):
            raise ValueError(f"{x!r} is not reduced mod {self.p}")
        return x

    def random(self, rng):
        return (rng.randrange(self.p), rng.randrange(self.p))


class RationalField(Ring):
    """Exact rationals with the identity involution; scalars are Fraction."""

    kind = "rational"

    def _key(self) -> tuple:
        return ("rational",)

    def __repr__(self) -> str:
        return "Rational"

    def add(self, x: Fraction, y: Fraction) -> Fraction:
        return x + y

    def mul(self, x: Fraction, y: Fraction) -> Fraction:
        return x * y

    def neg(self, x: Fraction) -> Fraction:
        return -x

    def inv(self, x: Fraction) -> Fraction:
        if x == 0:
            raise ZeroDivisionError("inverting 0 in Rational")
        return 1 / x

    def from_int(self, n: int) -> Fraction:
        return Fraction(n)

    def parse(self, text: str) -> Fraction:
        return _parse_fraction(text)

    def validate_scalar(self, x) -> Fraction:
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int) and not isinstance(x, bool):
            return Fraction(x)
        raise ValueError(f"{x!r} is not a Rational scalar")

    def random(self, rng) -> Fraction:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 4))


class RationalQuaternions(Ring):
    """The rational quaternions (-1,-1 / Q) with quaternion conjugation.

    Scalars are ``(w, x, y, z)`` Fraction 4-tuples with the Hamilton product;
    conjugation negates the i, j, k parts.  A noncommutative division ring:
    every nonzero element has the inverse ``conj(q) / norm(q)``.
    """

    kind = "quaternion"
    involution = "conjugation"
    is_commutative = False

    def _key(self) -> tuple:
        return ("quaternion",)

    def __repr__(self) -> str:
        return "Quaternion"

    def add(self, x, y):
        return (x[0] + y[0], x[1] + y[1], x[2] + y[2], x[3] + y[3])

    def mul(self, x, y):
        w1, x1, y1, z1 = x
        w2, x2, y2, z2 = y
        return (
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        )

    def neg(self, x):
        return (-x[0], -x[1], -x[2], -x[3])

    def inv(self, x):
        n = x[0] * x[0] + x[1] * x[1] + x[2] * x[2] + x[3] * x[3]
        if n == 0:
            raise ZeroDivisionError("inverting 0 in Quaternion")
        return (x[0] / n, -x[1] / n, -x[2] / n, -x[3] / n)

    def sigma(self, x):
        return (x[0], -x[1], -x[2], -x[3])

    def from_int(self, n: int):
        z = Fraction(0)
        return (Fraction(n), z, z, z)

    def parse(self, text: str):
        terms = _split_terms(text, ("", "i", "j", "k"))
        return tuple(_parse_fraction(terms.get(sym, "0")) for sym in ("", "i", "j", "k"))

    def format(self, x) -> str:
        out = [str(x[0])]
        for coef, sym in zip(x[1:], ("i", "j", "k")):
            out.append("-" if coef < 0 else "+")
            out.append(f"{abs(coef)}*{sym}")
        return "".join(out)

    def validate_scalar(self, x):
        if not isinstance(x, tuple) or len(x) != 4:
            raise ValueError(f"{x!r} is not a Quaternion scalar")
        parts = []
        for v in x:
            if isinstance(v, Fraction):
                parts.append(v)
            elif isinstance(v, int) and not isinstance(v, bool):
                parts.append(Fraction(v))
            else:
                raise ValueError(f"{x!r} is not a Quaternion scalar")
        return tuple(parts)

    def random(self, rng):
        return tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(4))


def sqrt_in_prime_field(ring: PrimeField, a: int) -> Optional[int]:
    """Deterministic square root in GF(p), or None for a non-residue.

    Uses Tonelli-Shanks (with the p % 4 == 3 shortcut) and returns the
    smaller of the two roots so results are reproducible.  p == 2 is its own
    trivial case: every element is its own square root.
    """
    if not isinstance(ring, PrimeField):
        raise ValueError(f"sqrt_in_prime_field needs a prime field, got {ring!r}")
    p = ring.p
    a %= p
    if p == 2 or a == 0:
        return a
    if _legendre(a, p) != 1:
        return None
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
        return min(r, p - r)
    # Tonelli-Shanks: write p - 1 = q * 2^s with q odd.
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    m, c, t, r = s, pow(ring.smallest_nonresidue(), q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2 = t
        i = 0
        while t2 != 1:
            t2 = (t2 * t2) % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, (b * b) % p
        t, r = (t * c) % p, (r * b) % p
    return min(r, p - r)


def solve_norm_equation(ring: QuadraticField, target) -> tuple[int, int]:
    """Find gamma in GF(p^2) with gamma * sigma(gamma) == target.

    The norm of ``a + b*x`` is ``a**2 - c*b**2`` in GF(p), and the norm map
    onto GF(p)* is surjective, so a solution exists for every nonzero target
    in the prime subfield.  Scans b upward and takes the deterministic square
    root, so the answer is reproducible.
    """
    if not isinstance(ring, QuadraticField) or ring.involution != "frobenius":
        raise ValueError(f"solve_norm_equation needs GF(p^2) with Frobenius, got {ring!r}")
    t = ring.validate_scalar(target)
    if t[1] != 0:
        raise ValueError(f"norm target {t!r} is not in the prime subfield")
    if t[0] == 0:
        raise ValueError("norm target must be nonzero")
    p = ring.p
    base = PrimeField(p)
    for b in range(p):
        a2 = (t[0] + ring.nonresidue * b * b) % p
        a = sqrt_in_prime_field(base, a2)
        if a is not None:
            return (a, b)
    raise AssertionError(f"norm equation unsolvable for {t!r} over {ring!r}")  # unreachable


def ring_from_spec(kind: str, param: Optional[int] = None, involution: Optional[str] = None) -> Ring:
    """Build a descriptor from the (kind, parameter, involution) triple used in files.

    Kinds: ``gfp`` (needs p), ``gfp2`` (needs p), ``rational``, ``quaternion``.
    The involution defaults to the ring's natural one and is validated against
    the kind: identity only on commutative rings, frobenius only on gfp2,
    conjugation only on quaternions.
    """
    if kind == "gfp":
        if param is None:
            raise ValueError("gfp needs a modulus")
        ring: Ring = PrimeField(param)
        if involution not in (None, "identity"):
            raise ValueError(f"involution {involution!r} is not defined on {ring!r}")
        return ring
    if kind == "gfp2":
        if param is None:
            raise ValueError("gfp2 needs a modulus")
        return QuadraticField(param, involution or "frobenius")
    if kind == "rational":
        if param is not None:
            raise ValueError("rational takes no modulus")
        ring = RationalField()
        if involution not in (None, "identity"):
            raise ValueError(f"involution {involution!r} is not defined on {ring!r}")
        return ring
    if kind == "quaternion":
        if param is not None:
            raise ValueError("quaternion takes no modulus")
        ring = RationalQuaternions()
        if involution not in (None, "conj", "conjugation"):
            raise ValueError(f"involution {involution!r} is not defined on {ring!r}")
        return ring
    raise ValueError(f"unknown ring kind {kind!r}")
