"""Finite field arithmetic GF(p^e) for small prime powers.

Field elements are integers 0..q-1.  For e > 1 an element packs the
coefficients of a polynomial over GF(p) in base p: the value
``c0 + c1*p + ... + c_{e-1}*p^{e-1}`` stands for the residue class of
``c0 + c1*t + ... + c_{e-1}*t^{e-1}`` modulo the field's irreducible
modulus.  Extension degrees are capped at 4, enough for every desk-scale
plane order, and small enough that irreducibility is checked by exhaustive
factor search.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PreconditionError

MAX_EXTENSION_DEGREE = 4


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def factor_prime_power(q: int):
    """Return (p, e) with q = p^e and p prime, or None."""
    if q < 2:
        return None
    p = 2
    while p * p <= q:
        if q % p == 0:
            e = 0
            m = q
            while m % p == 0:
                m //= p
                e += 1
            return (p, e) if m == 1 else None
        p += 1
    return (q, 1)


@dataclass(frozen=True)
class FieldSpec:
    """Description of GF(p^e).

    ``modulus`` is the ascending coefficient tuple (constant term first) of
    a monic irreducible degree-e polynomial over GF(p); present iff e > 1.
    """

    p: int
    e: int
    modulus: tuple[int, ...] | None = None

    @property
    def order(self) -> int:
        return self.p ** self.e


def field_make(p: int, e: int) -> FieldSpec:
    """Build the canonical GF(p^e) description.

    For e > 1 the modulus is the smallest monic irreducible of degree e,
    ordering candidates by their packed integer value (i.e. comparing
    coefficient vectors from the highest degree down).
    """
    if not is_prime(p):
        raise PreconditionError(f"{p} is not prime")
    if not 1 <= e <= MAX_EXTENSION_DEGREE:
        raise PreconditionError(
            f"extension degree must be in 1..{MAX_EXTENSION_DEGREE}, got {e}"
        )
    if e == 1:
        return FieldSpec(p, 1, None)
    for packed in range(p ** e):
        coeffs = _unpack(packed, e, p) + (1,)
        if _is_irreducible(coeffs, p):
            return FieldSpec(p, e, coeffs)
    raise RuntimeError(f"no irreducible polynomial of degree {e} over GF({p})")


def _unpack(value: int, length: int, p: int) -> tuple[int, ...]:
    out = []
    for _ in range(length):
        out.append(value % p)
        value //= p
    return tuple(out)


def _pack(coeffs, p: int) -> int:
    value = 0
    for c in reversed(coeffs):
        value = value * p + c
    return value


def _poly_mod(num, den, p):
    """Remainder of num / den over GF(p); den must be monic."""
    num = list(num)
    dd = len(den) - 1
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i] % p
        if c:
            for j in range(dd + 1):
                num[i - dd + j] = (num[i - dd + j] - c * den[j]) % p
    return [c % p for c in num[:dd]]


def _is_irreducible(coeffs, p) -> bool:
    """Exhaustive check: no monic factor of degree 1..deg/2 divides."""
    deg = len(coeffs) - 1
    for d in range(1, deg // 2 + 1):
        for packed in range(p ** d):
            div = _unpack(packed, d, p) + (1,)
            if not any(_poly_mod(coeffs, div, p)):
                return False
    return True


class GF:
    """Arithmetic in GF(p^e) on packed-integer elements."""

    def __init__(self, spec: FieldSpec):
        if spec.e > 1:
            if spec.modulus is None or len(spec.modulus) != spec.e + 1:
                raise PreconditionError("extension field needs a degree-e modulus")
            if spec.modulus[-1] != 1:
                raise PreconditionError("modulus must be monic")
            if not _is_irreducible(spec.modulus, spec.p):
                raise PreconditionError("modulus is reducible")
        self.spec = spec
        self.p = spec.p
        self.e = spec.e
        self.q = spec.order

    def elements(self):
        return range(self.q)

    def add(self, x: int, y: int) -> int:
        if self.e == 1:
            return (x + y) % self.p
        p = self.p
        xs = _unpack(x, self.e, p)
        ys = _unpack(y, self.e, p)
        return _pack([(a + b) % p for a, b in zip(xs, ys)], p)

    def neg(self, x: int) -> int:
        if self.e == 1:
            return (-x) % self.p
        p = self.p
        return _pack([(-a) % p for a in _unpack(x, self.e, p)], p)

    def mul(self, x: int, y: int) -> int:
        if self.e == 1:
            return (x * y) % self.p
        p = self.p
        xs = _unpack(x, self.e, p)
        ys = _unpack(y, self.e, p)
        prod = [0] * (2 * self.e - 1)
        for i, a in enumerate(xs):
            if a:
                for j, b in enumerate(ys):
                    prod[i + j] = (prod[i + j] + a * b) % p
        return _pack(_poly_mod(prod, self.spec.modulus, p), p)

    def pow(self, x: int, exp: int) -> int:
        result = 1
        base = x
        while exp:
            if exp & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            exp >>= 1
        return result

    def inv(self, x: int) -> int:
        if x == 0:
            raise ZeroDivisionError("0 has no inverse")
        return self.pow(x, self.q - 2)

    def dot3(self, u, v) -> int:
        """Dot product of coordinate triples."""
        acc = self.mul(u[0], v[0])
        acc = self.add(acc, self.mul(u[1], v[1]))
        return self.add(acc, self.mul(u[2], v[2]))
