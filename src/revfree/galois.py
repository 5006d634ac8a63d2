"""Finite field arithmetic GF(p^e) for small prime powers.

Field elements are integers 0..q-1, each packing the coefficients of a
polynomial over GF(p) in base p: ``c0 + c1*p + ... + c_{e-1}*p^{e-1}`` stands
for ``c0 + c1*t + ... + c_{e-1}*t^{e-1}`` modulo the smallest monic
irreducible of degree e (t itself for GF(p)).  :class:`GF` is the one field
type: it checks p and e, picks that modulus and builds its lookup tables.
Orders are capped at ``MAX_FIELD_ORDER``, the one limit on fields and on the
planes PG(2, q) built over them, so irreducibility is checked by exhaustive
factor search.
"""

from __future__ import annotations

from .errors import CapacityError, PreconditionError

# the largest order measured when the guard was set; PG(2,101) builds and
# verifies in 0.19 + 2.9 s at 96 MB max RSS on 2 shared vCPUs, so verify
# dominates, and a higher guard needs its memory measured first
MAX_FIELD_ORDER = 101


def is_prime(n: int) -> bool:
    return factor_prime_power(n) == (n, 1)


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


def check_field_order(p: int, e: int = 1) -> None:
    """Refuse ints p > 1, e >= 1 with p^e over ``MAX_FIELD_ORDER``; 2^e passes
    the limit once e reaches its bit length, so no huge p^e is formed."""
    if p > 1 and (e >= MAX_FIELD_ORDER.bit_length() or p ** e > MAX_FIELD_ORDER):
        order = p if e == 1 else f"{p}^{e}"
        raise CapacityError(f"field order {order} is over the limit {MAX_FIELD_ORDER}")


def field_make(p: int, e: int) -> GF:
    """Build GF(p^e); see :class:`GF` for the checks and the modulus."""
    return GF(p, e)


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
    """GF(p^e), refused with ``PreconditionError`` unless e is a positive
    exact int, p^e at most ``MAX_FIELD_ORDER`` (``CapacityError``) and p a
    prime, checked in that order before p^e is formed.  ``modulus`` is None
    for e = 1 (GF(p) is reduced modulo t) and otherwise the smallest monic
    irreducible of degree e, as an ascending coefficient tuple (constant term
    first), candidates ordered by their packed value, i.e. by coefficient
    vectors compared from the highest degree down.  Every monic irreducible
    gives the same field up to isomorphism.  Arithmetic is by lookup in
    q x q addition and multiplication tables built once here.
    """

    def __init__(self, p: int, e: int):
        if type(e) is not int or e < 1:
            raise PreconditionError(f"extension degree must be a positive int, got {e!r}")
        if type(p) is int:  # first: trial division of a huge p would keep running
            check_field_order(p, e)
        if type(p) is not int or not is_prime(p):
            raise PreconditionError(f"{p!r} is not prime")
        q = p ** e
        self.p, self.e, self.q = p, e, q
        self.modulus = None
        if e > 1:
            monic = (_unpack(x, e, p) + (1,) for x in range(q))
            self.modulus = next(m for m in monic if _is_irreducible(m, p))
        modulus = self.modulus or (0, 1)
        polys = [_unpack(x, e, p) for x in range(q)]
        self._add = [[_pack([(a + b) % p for a, b in zip(xs, ys)], p) for ys in polys]
                     for xs in polys]
        self._mul = []
        for xs in polys:
            row = []
            for ys in polys:
                prod = [0] * (2 * e - 1)
                for i, a in enumerate(xs):
                    for j, b in enumerate(ys):
                        prod[i + j] += a * b
                row.append(_pack(_poly_mod(prod, modulus, p), p))
            self._mul.append(row)

    def add(self, x: int, y: int) -> int:
        return self._add[x][y]

    def neg(self, x: int) -> int:
        return self._add[x].index(0)

    def mul(self, x: int, y: int) -> int:
        return self._mul[x][y]

    def inv(self, x: int) -> int:
        if x == 0:
            raise ZeroDivisionError("0 has no inverse")
        return self._mul[x].index(1)
