import pytest

from revfree import (
    GF,
    CapacityError,
    PreconditionError,
    factor_prime_power,
    field_make,
    is_prime,
)
from revfree import galois
from revfree.galois import MAX_FIELD_ORDER, _pack, _poly_mod, _unpack

ACCEPTANCE_ORDERS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]


def test_is_prime():
    primes = [2, 3, 5, 7, 11, 13, 97]
    assert all(is_prime(p) for p in primes)
    assert not any(is_prime(c) for c in [0, 1, 4, 6, 9, 15, 91])


def test_factor_prime_power():
    assert factor_prime_power(8) == (2, 3)
    assert factor_prime_power(9) == (3, 2)
    assert factor_prime_power(7) == (7, 1)
    assert factor_prime_power(81) == (3, 4)
    assert factor_prime_power(12) is None
    assert factor_prime_power(1) is None


def test_prime_field_arithmetic():
    f2 = field_make(2, 1)
    assert f2.add(1, 1) == 0
    f3 = field_make(3, 1)
    assert f3.mul(2, 2) == 1


def test_gf4_modulus_and_generator():
    f4 = field_make(2, 2)
    assert f4.modulus == (1, 1, 1)  # t^2 + t + 1
    x = 2  # the polynomial t
    assert f4.mul(x, x) == f4.add(x, 1)  # t^2 = t + 1


def test_prime_field_has_no_modulus():
    assert field_make(5, 1).modulus is None


def smallest_irreducible(p, e):
    """The smallest monic degree-e polynomial over GF(p), by packed value,
    that is no product of two monic polynomials of lower degree."""
    products = set()
    for d in range(1, e):
        for f in range(p ** d):
            for g in range(p ** (e - d)):
                fs, gs = _unpack(f, d, p) + (1,), _unpack(g, e - d, p) + (1,)
                prod = [0] * (e + 1)
                for i, a in enumerate(fs):
                    for j, b in enumerate(gs):
                        prod[i + j] = (prod[i + j] + a * b) % p
                products.add(tuple(prod))
    return next(m for m in (_unpack(x, e, p) + (1,) for x in range(p ** e)) if m not in products)


@pytest.mark.parametrize("p,e", [f for f in map(factor_prime_power, range(2, MAX_FIELD_ORDER + 1))
                                 if f and f[1] > 1])
def test_modulus_is_the_smallest_irreducible(p, e):
    field = GF(p, e)
    assert field.modulus == smallest_irreducible(p, e)
    # every nonzero element has an inverse: no zero divisors, so a field
    assert all(1 in field._mul[x] for x in range(1, field.q))


def test_field_make_rejects_composite():
    with pytest.raises(PreconditionError):
        field_make(6, 1)


def test_field_make_rejects_large_degree():
    # 2^7 = 128 is the first power of two over the order limit
    with pytest.raises(CapacityError, match=r"field order 2\^7 is over the limit 101"):
        field_make(2, 7)
    with pytest.raises(CapacityError, match=r"field order 2\^1000000000 is over"):
        field_make(2, 10 ** 9)


@pytest.mark.parametrize(
    "p, e, message",
    [
        (4, 1, "4 is not prime"),
        (1, 1, "1 is not prime"),
        (2.0, 1, "2.0 is not prime"),
        (True, 1, "True is not prime"),
        (2, 5, None),
        (2, True, "extension degree must be a positive int, got True"),
        (2, 0, "extension degree must be a positive int, got 0"),
        (2, 7, "field order 2^7 is over the limit 101"),
        (103, 1, "field order 103 is over the limit 101"),
        (4, 4, "field order 4^4 is over the limit 101"),
    ],
    ids=["composite", "one", "float", "bool", "degree-5", "degree-bool", "degree-0",
         "order-2^7", "order-103", "order-over-limit-before-primality"],
)
def test_field_spec_refuses_what_is_not_a_field(p, e, message):
    if message is None:  # a field: GF picks its own modulus
        assert GF(p, e).q == p ** e
        return
    with pytest.raises(PreconditionError) as info:
        GF(p, e)
    assert str(info.value) == message


@pytest.mark.parametrize("p, e", [(1021, 5), (2.0, 1), (2, True), (2, 2.0), (6, 2)])
def test_field_make_refuses_before_searching(monkeypatch, p, e):
    def no_search(coeffs, p):
        raise AssertionError("modulus search started for a refused field")

    monkeypatch.setattr(galois, "_is_irreducible", no_search)
    with pytest.raises(PreconditionError):
        field_make(p, e)


@pytest.mark.parametrize("p,e", ACCEPTANCE_ORDERS)
def test_field_laws_exhaustive(p, e):
    field = field_make(p, e)
    els = list(range(field.q))
    q = len(els)
    assert q == p ** e
    for a in els:
        assert field.add(a, 0) == a
        assert field.mul(a, 1) == a
        assert field.add(a, field.neg(a)) == 0
        if a != 0:
            assert field.mul(a, field.inv(a)) == 1
        for b in els:
            assert field.add(a, b) == field.add(b, a)
            assert field.mul(a, b) == field.mul(b, a)
            for c in els:
                assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
                assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
                assert field.mul(a, field.add(b, c)) == field.add(
                    field.mul(a, b), field.mul(a, c)
                )


SMALL_FIELDS = [factor_prime_power(q) for q in range(2, 28) if factor_prime_power(q)]


def schoolbook(x, y, field, combine):
    """Packed result of combining x and y as polynomials over GF(p), reduced
    by the field's modulus (t for a prime field)."""
    p, e = field.p, field.e
    xs, ys = _unpack(x, e, p), _unpack(y, e, p)
    if combine == "add":
        coeffs = [a + b for a, b in zip(xs, ys)]
    else:
        coeffs = [0] * (2 * e - 1)
        for i in range(e):
            for j in range(e):
                coeffs[i + j] += xs[i] * ys[j]
    return _pack(_poly_mod(coeffs, field.modulus or (0, 1), p), p)


@pytest.mark.parametrize("p,e", SMALL_FIELDS)
def test_tables_match_polynomial_arithmetic(p, e):
    field = field_make(p, e)
    q = p ** e
    assert len(field._add) == len(field._mul) == q
    for x in range(q):
        assert field._add[x] == [schoolbook(x, y, field, "add") for y in range(q)]
        assert field._mul[x] == [schoolbook(x, y, field, "mul") for y in range(q)]


def test_inverse_of_zero_is_refused():
    with pytest.raises(ZeroDivisionError):
        field_make(2, 2).inv(0)


def test_field_order_guard():
    assert MAX_FIELD_ORDER == 101
    for p, e in ((101, 1), (3, 4), (2, 6)):
        assert field_make(p, e).q == p ** e
    for p, e in ((103, 1), (1031, 1), (7, 4), (2, 10)):
        with pytest.raises(CapacityError, match=f"over the limit {MAX_FIELD_ORDER}"):
            field_make(p, e)


@pytest.mark.parametrize("make", [lambda p: GF(p, 1), lambda p: field_make(p, 1)],
                         ids=["GF", "field_make"])
def test_huge_prime_is_refused_before_factoring(monkeypatch, make):
    def no_factoring(q):
        raise AssertionError(f"factored {q}, over the order limit")

    # 2^61 - 1 is prime: trial division would run for hours
    monkeypatch.setattr(galois, "factor_prime_power", no_factoring)
    with pytest.raises(CapacityError) as info:
        make(2 ** 61 - 1)
    assert str(info.value) == "field order 2305843009213693951 is over the limit 101"


def test_inverse_of_a_power_is_the_power_of_the_inverse():
    assert field_make(5, 1).inv(2) == 3
    field = field_make(3, 2)
    for x in range(1, field.q):
        power = inverse_power = 1
        for _ in range(9):
            power = field.mul(power, x)
            inverse_power = field.mul(inverse_power, field.inv(x))
            assert field.inv(power) == inverse_power
