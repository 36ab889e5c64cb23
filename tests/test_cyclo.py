import itertools
import random
import sys
import threading
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from nichols_fusion.cyclo import CycField, CycNum, cyclotomic_field, cyclotomic_poly


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


def test_zeta_table_against_sympy():
    # an independent reference: sympy's remainder of z^k by Phi_{4p}
    sympy = pytest.importorskip("sympy")
    z = sympy.Symbol("z")
    for p in range(2, 13):
        K = field(p)
        phi = sympy.cyclotomic_poly(4 * p, z)
        for k in range(4 * p):
            rem = sympy.Poly(sympy.rem(z**k, phi, z), z).all_coeffs()[::-1]
            want = tuple(int(c) for c in rem) + (0,) * (K.deg - len(rem))
            assert (K.zeta_pow(k).num, K.zeta_pow(k).den) == (want, 1), (p, k)
        assert all(K.red_rows[j] == K.zeta_pow(K.deg + j).num for j in range(K.deg - 1))
        assert len(K.red_rows) == K.deg - 1
        assert (K.zero.uid, K.one.uid) == (0, 1) and K.zeta_pow(0) is K.one


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
        # the p-entry table, read at r mod p, against the direct sum
        for r in range(3 * p):
            assert K.q_int(r) == sum((K.q_pow(2 * i) for i in range(r)), K.zero), r
        # reflection law for negative arguments
        for r in range(1 - 3 * p, 3 * p):
            assert K.q_int(r) == -(K.q_pow(2 * r) * K.q_int(-r))
        assert len(K._qint) == len(K._qfact) == p


@pytest.mark.parametrize("p", range(2, 8))
def test_q_fact_vanishes_from_p_on(p):
    K = field(p)
    for r in range(p, 2 * p + 1):
        assert K.q_fact(r).is_zero(), r
    with pytest.raises(ValueError):
        K.q_fact(-1)
    assert len(K._qfact) == p


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
        assert x == K.one - K.q_pow(2) and x * x.inv() == K.one
    assert abs(abs(field(3).xi().evalf()) - 1.7320508) < 1e-6


def test_multiply_by_one_returns_an_equal_value():
    K = CycField(5)  # a private field, to count its product memo
    x = rational(K, 2, 3) * K.zeta_pow(1) + K.one
    assert x.den == 3
    entries = len(K._mul)
    for one in (K.one, K.from_int(1)):
        for y in (x, K.zero, K.one):
            for got in (y * one, one * y):
                assert got == y and hash(got) == hash(y)
                assert (got.num, got.den) == (y.num, y.den)
    assert x * K.one is x and K.one * x is x
    assert x * K.zero is K.zero and K.zero * x is K.zero
    assert x - x is K.zero and x * (x - x) is K.zero  # one zero, also over den 3
    assert len(K._mul) == entries  # ids 0 and 1 take no memo entry


def test_every_zero_is_the_field_zero():
    K = CycField(5)  # a private field, to count its product memo
    x = K.q_pow(1)
    entries = len(K._mul)
    assert -K.zero is K.zero
    assert (-K.zero) * x is K.zero and x * (-K.zero) is K.zero
    stray = CycNum(K, (0,) * K.deg, 1)
    assert x * stray is K.zero and stray * x is K.zero
    assert -stray is K.zero
    assert len(K._mul) == entries  # a multiply by zero takes no memo entry


def fraction_product(x, y):
    """x * y by a Fraction convolution reduced modulo Phi_{4p}, with no memo."""
    phi = cyclotomic_poly(x.field.order)
    deg = len(phi) - 1
    conv = [Fraction(0)] * (2 * deg - 1)
    for i, a in enumerate(x.num):
        for j, b in enumerate(y.num):
            conv[i + j] += Fraction(a, x.den) * Fraction(b, y.den)
    for k in range(2 * deg - 2, deg - 1, -1):  # x^k = x^(k-deg) (x^deg - Phi)
        c, conv[k] = conv[k], 0
        for j in range(deg):
            conv[k - deg + j] -= c * phi[j]
    return conv[:deg]


def as_fractions(x):
    return [Fraction(c, x.den) for c in x.num]


def test_product_memo_equals_fraction_convolution_cold_and_warm():
    # phi(20) = phi(24) = 8: the same coefficient tuples name different values
    # in the two fields, so a product that crossed fields would fail here
    rng = random.Random(20061)
    K5, K6 = CycField(5), CycField(6)
    coeffs = [
        [(rng.randint(-4, 4), rng.choice((1, 1, 2, 3))) for _ in range(rng.randint(1, 8))]
        for _ in range(10)
    ]
    for memo in ("cold", "warm"):
        for K in (K5, K6):
            operands = [random_elt(K, c) for c in coeffs] + [K.xi(), K.q_int(3), K.zero, K.one]
            entries = len(K._mul)
            for x, y in itertools.product(operands, repeat=2):
                got = x * y
                assert got.field is K
                assert as_fractions(got) == fraction_product(x, y), (K.p, memo, x, y)
            if memo == "warm":
                assert len(K._mul) == entries  # every product was a memo hit
    assert (K5.xi() * K5.xi()).num != (K6.xi() * K6.xi()).num


def test_interning_from_four_threads_gives_one_value_per_id():
    K = CycField(6)
    rng = random.Random(7)
    coeffs = [[(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(3)] for _ in range(12)]
    seen = [[] for _ in range(4)]

    def work(out, seed):
        local = random.Random(seed)
        # each thread builds its own instances of one shared set of values
        values = [random_elt(K, c) for c in coeffs]
        for _ in range(300):
            x, y = local.choice(values), local.choice(values)
            z = x * y
            values.append(z)
            out += (x, y, z)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seen[i], i)) for i in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    values_of = {}
    for x in itertools.chain(*seen, K._values.values()):
        assert x.uid >= 0
        values_of.setdefault(x.uid, set()).add((x.num, x.den))
    assert all(len(v) == 1 for v in values_of.values())
    for out in seen:
        assert len(out) == 900
        for x, y, z in zip(out[::3], out[1::3], out[2::3]):
            assert as_fractions(z) == fraction_product(x, y)


def test_intern_refuses_an_id_that_does_not_fit_the_memo_key():
    K = CycField(3)
    K._ids = itertools.count(2**32 - 3)
    x, y = K.from_int(2) + K.zeta_pow(1), K.from_int(3) + K.zeta_pow(1)
    assert (x * y).uid == 2**32 - 1  # x, y and their product take the last three ids
    with pytest.raises(OverflowError):
        x * (y + K.one)


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
        pairs = list(zip(operands, operands[1:] + operands[:1]))
        # the sums below take the unequal-denominator branches of + and -
        assert any(x.den != y.den for x, y in pairs), p
        for memo in ("cold", "warm"):
            entries = len(K._mul), len(K._inv)
            for x, y in pairs:
                assert as_poly(x + y) == as_poly(x) + as_poly(y), (p, memo, x, y)
                assert as_poly(x - y) == as_poly(x) - as_poly(y), (p, memo, x, y)
                # _make normalises a negative denominator
                assert as_poly(K._make(list(x.num), -x.den)) == -as_poly(x), (p, memo, x)
                if x.is_zero():
                    continue
                assert as_poly(x.inv()) == sympy.invert(as_poly(x), phi), (p, memo, x)
                assert as_poly(x * y) == sympy.rem(as_poly(x) * as_poly(y), phi), (p, memo, x, y)
            if memo == "warm":  # the second pass read both memos only
                assert (len(K._mul), len(K._inv)) == entries


def _normalized(vec, den):
    """(num, den) of vec/den reduced by the gcd of all its entries, den > 0."""
    if den < 0:
        vec, den = [-a for a in vec], -den
    g = gcd(den, *vec)
    return tuple(a // g for a in vec), den // g


@pytest.mark.parametrize("p", range(2, 8))
def test_den1_sums_equal_the_general_path(p):
    K = field(p)
    rng = random.Random(p)
    vecs = [[rng.randint(-3, 3) for _ in range(K.deg)] for _ in range(40)]
    vecs += [[0] * K.deg, [1] + [0] * (K.deg - 1), [2, -4] + [6] * (K.deg - 2)]
    # _make takes a vector over denominator 1 as it is
    for v in vecs:
        x = K._make(list(v), 1)
        assert (x.num, x.den) == _normalized(v, 1)
        assert (x is K.zero) == (not any(v))
    elts = [K._make(list(v), 1) for v in vecs]
    for x in elts:
        for y in (rng.choice(elts), x, -x):
            s, d = x + y, x - y
            assert (s.num, s.den) == _normalized([a + b for a, b in zip(x.num, y.num)], 1)
            assert (d.num, d.den) == _normalized([a - b for a, b in zip(x.num, y.num)], 1)
            assert (s is K.zero) == (not any(s.num))
            assert (d is K.zero) == (not any(d.num))
        assert x - x is K.zero and x + (-x) is K.zero
        m = x * 6
        assert (m.num, m.den) == _normalized([6 * a for a in x.num], 1)
        # a non-unit denominator on either side keeps the gcd scan
        for den in (2, 3, -6):
            h = K._make(list(rng.choice(vecs)), den)
            assert (h.num, h.den) == _normalized(h.num, h.den) and h.den > 0
            for u, v in ((x, h), (h, x), (h, h)):
                du, dv = u.den, v.den
                got_s, got_d = u + v, u - v
                want_s = _normalized([a * dv + b * du for a, b in zip(u.num, v.num)], du * dv)
                want_d = _normalized([a * dv - b * du for a, b in zip(u.num, v.num)], du * dv)
                assert (got_s.num, got_s.den) == want_s
                assert (got_d.num, got_d.den) == want_d
            assert h - h is K.zero
