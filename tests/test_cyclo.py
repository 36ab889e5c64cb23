import random

import pytest
from hypothesis import given, settings, strategies as st

from nichols_fusion.cyclo import CycField, cyclotomic_field, cyclotomic_poly


def field(p):
    return cyclotomic_field(p)


def rational(K, num, den):
    """num/den as a field element, normalized by the field's own _make."""
    return K._make([num] + [0] * (K.deg - 1), den)


def random_elt(K, coeffs):
    acc = K.zero
    for i, (num, den) in enumerate(coeffs[: K.deg]):
        acc = acc + rational(K, num, den) * K.zeta_pow(i)
    return acc


coeff_strategy = st.lists(
    st.tuples(st.integers(-9, 9), st.integers(1, 5)), min_size=1, max_size=8
)


def test_cyclotomic_polynomials():
    assert cyclotomic_poly(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)
    assert cyclotomic_poly(1) == (-1, 1)


def test_zeta_pow_defining_relations():
    for p in (2, 3, 5, 7):
        K = field(p)
        assert K.zeta_pow(0) == K.one
        assert K.zeta_pow(2 * p) == -K.one
        assert K.zeta_pow(4 * p) == K.one
        # q = zeta^2 is a primitive 2p-th root: q^p = -1
        assert K.q_pow(p) == -K.one


def test_zeta_pow_is_homomorphism():
    for p in (2, 3, 5):
        K = field(p)
        for a in range(-5, 12):
            for b in range(-3, 9):
                assert K.zeta_pow(a) * K.zeta_pow(b) == K.zeta_pow(a + b)


def test_p2_q_is_i():
    K = field(2)
    q = K.q_pow(1)
    assert q * q == -K.one
    assert abs(q.evalf() - 1j) < 1e-12


def test_q_int_basics():
    for p in (2, 3, 4, 5, 6, 7):
        K = field(p)
        assert K.q_int(0).is_zero()
        assert K.q_int(1) == K.one
        assert K.q_int(p).is_zero()  # q^2 is a primitive p-th root of unity
        # reflection law for negative arguments
        for r in range(-2 * p, 2 * p):
            assert K.q_int(r) == -(K.q_pow(2 * r) * K.q_int(-r))


def test_q_int_negative_example():
    # [-1] = -q^{-2}
    for p in (2, 3, 5):
        K = field(p)
        assert K.q_int(-1) == -K.q_pow(-2)


def test_q_binom_edge_cases():
    for p in (2, 3, 5):
        K = field(p)
        for n in range(2 * p):
            assert K.q_binom(n, 0) == K.one
            assert K.q_binom(n, n) == K.one
            assert K.q_binom(n, -1).is_zero()
            assert K.q_binom(n, n + 1).is_zero()


def test_q_binom_vanishes_at_root_of_unity():
    K = field(2)
    assert K.q_binom(2, 1) == K.q_int(2)
    assert K.q_binom(2, 1).is_zero()


def test_q_binom_times_factorials_below_p():
    for p in range(2, 8):
        K = field(p)
        for n in range(p):
            for k in range(n + 1):
                assert K.q_binom(n, k) * K.q_fact(k) * K.q_fact(n - k) == K.q_fact(n)


def test_xi_and_inverse():
    for p in range(2, 8):
        K = field(p)
        x = K.xi()
        assert x * x.inv() == K.one
    assert abs(abs(field(3).xi().evalf()) - 1.7320508) < 1e-6


def test_xi_pow_equals_power():
    for p in range(2, 8):
        K = CycField(p)
        for r in reversed(range(2 * p)):  # fill the memo out of order
            assert K.xi_pow(r) == K.xi() ** r
        assert K.xi() == K.one - K.q_pow(2)
    with pytest.raises(ValueError):
        K.xi_pow(-1)


def test_multiply_by_one_returns_an_equal_value():
    K = field(5)
    x = rational(K, 2, 3) * K.zeta_pow(1) + K.one
    assert x.den == 3
    for one in (K.one, K.from_int(1)):
        for y in (x, K.zero, K.one):
            for got in (y * one, one * y):
                assert got == y and hash(got) == hash(y)
                assert (got.num, got.den) == (y.num, y.den)


def test_inv_of_one_and_zero():
    K = field(3)
    assert K.one.inv() == K.one
    with pytest.raises(ZeroDivisionError):
        K.zero.inv()
    K.xi().inv()
    assert K._inv  # warm memo: zero is still refused, and never memoized
    with pytest.raises(ZeroDivisionError):
        K.zero.inv()
    assert (K.zero.num, K.zero.den) not in K._inv


def test_inverse_memo_warm_equals_cold():
    K = CycField(7)  # a private field, so the first inverse misses the memo
    x = K.xi() + K.zeta_pow(3)
    cold = x.inv()
    assert K._inv == {(x.num, x.den): cold}
    warm = x.inv()
    assert warm is cold and x * warm == K.one
    assert len(K._inv) == 1
    L = CycField(7)
    assert (L.xi() + L.zeta_pow(3)).inv() == cold


def test_inverse_memo_is_per_field():
    # phi(20) = phi(24) = 8: one coefficient tuple names 1 + zeta in both
    # fields, with a different inverse in each
    K5, K6 = CycField(5), CycField(6)
    x5, x6 = K5.one + K5.zeta_pow(1), K6.one + K6.zeta_pow(1)
    assert K5.deg == K6.deg == 8 and (x5.num, x5.den) == (x6.num, x6.den)
    i5 = x5.inv()
    i6 = x6.inv()
    assert x5 * i5 == K5.one and x6 * i6 == K6.one
    assert i5 != i6
    assert x5.inv() == i5 and x6.inv() == i6


def test_values_of_two_fields_are_not_equal():
    # phi(20) = phi(24) = 8, so 1 and 1 + zeta have one (num, den) in both fields
    K5, K6 = cyclotomic_field(5), cyclotomic_field(6)
    for x5, x6 in ((K5.one, K6.one), (K5.one + K5.zeta_pow(1), K6.one + K6.zeta_pow(1))):
        assert (x5.num, x5.den) == (x6.num, x6.den)
        assert x5 != x6 and not x5 == x6
        assert len({x5, x6}) == 2
    # two instances of one field hold equal values, with equal hashes
    L = CycField(5)
    assert L.one == K5.one and hash(L.one) == hash(K5.one)


@settings(max_examples=60, deadline=None)
@given(coeff_strategy, coeff_strategy, coeff_strategy, st.sampled_from([2, 3, 5]))
def test_ring_axioms(ca, cb, cc, p):
    K = field(p)
    a, b, c = (random_elt(K, x) for x in (ca, cb, cc))
    assert (a + b) * c == a * c + b * c
    assert a * (b * c) == (a * b) * c
    assert a * b == b * a
    assert a + (b + c) == (a + b) + c
    assert a - a == K.zero


@settings(max_examples=40, deadline=None)
@given(coeff_strategy, st.sampled_from([2, 3, 5]))
def test_inverse_and_embedding(ca, p):
    K = field(p)
    a = random_elt(K, ca)
    if not a.is_zero():
        assert a * a.inv() == K.one
    b = a * K.xi() + K.zeta_pow(3)
    assert abs(b.evalf() - (a.evalf() * K.xi().evalf() + K.zeta_pow(3).evalf())) < 1e-9


def test_float_embedding_of_scalars():
    import cmath

    for p in (2, 3, 5, 7):
        K = field(p)
        z = cmath.exp(1j * cmath.pi / (2 * p))
        for k in range(4 * p):
            assert abs(K.zeta_pow(k).evalf() - z**k) < 1e-9


def test_inverse_and_product_against_sympy():
    # an independent reference: polynomial arithmetic over QQ mod Phi_{4p}
    sympy = pytest.importorskip("sympy")
    z = sympy.Symbol("z")
    rng = random.Random(20111109)

    def as_poly(x):
        return sympy.Poly(
            [sympy.Rational(c, x.den) for c in reversed(x.num)], z, domain=sympy.QQ
        )

    for p in range(2, 13):
        K = CycField(p)  # a private field: the first pass fills its inverse memo
        phi = sympy.Poly(sympy.cyclotomic_poly(4 * p, z), z, domain=sympy.QQ)
        operands = [
            random_elt(K, [(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(K.deg)])
            for _ in range(4)
        ]
        for r in range(1, p):
            operands += [K.q_int(r), K.q_fact(r), (K.q_pow(r) - K.q_pow(-r)) ** 3]
        for memo in ("cold", "warm"):
            for x, y in zip(operands, operands[1:] + operands[:1]):
                if x.is_zero():
                    continue
                assert as_poly(x.inv()) == sympy.invert(as_poly(x), phi), (p, memo, x)
                assert as_poly(x * y) == sympy.rem(as_poly(x) * as_poly(y), phi), (p, x, y)
