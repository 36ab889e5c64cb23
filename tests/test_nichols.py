import pytest

from nichols_fusion.cyclo import cyclotomic_field
from nichols_fusion import nichols as ni
from nichols_fusion.linalg import add_term


def test_unit_and_product_formula():
    K = cyclotomic_field(3)
    f0, f1 = ni.f_elt(K, 0), ni.f_elt(K, 1)
    for r in range(3):
        assert ni.product(K, f0, ni.f_elt(K, r)) == ni.f_elt(K, r)
    # F(1) F(1) = [2] F(2)
    assert ni.product(K, f1, f1) == {2: K.q_int(2)}


def test_product_truncates_at_p():
    K = cyclotomic_field(3)
    # F(1) F(2) = [3 over 1] F(3) = 0: the q-binomial vanishes and the degree leaves the basis
    assert ni.product(K, ni.f_elt(K, 1), ni.f_elt(K, 2)) == {}
    assert K.q_binom(3, 1).is_zero()


def test_coproduct_deconcatenation():
    K = cyclotomic_field(4)
    assert ni.coproduct(K, ni.f_elt(K, 0)) == {(0, 0): K.one}
    assert ni.coproduct(K, ni.f_elt(K, 1)) == {(0, 1): K.one, (1, 0): K.one}
    assert ni.coproduct(K, ni.f_elt(K, 2)) == {
        (0, 2): K.one,
        (1, 1): K.one,
        (2, 0): K.one,
    }


def test_antipode_values():
    K = cyclotomic_field(5)
    assert ni.antipode(K, ni.f_elt(K, 0)) == {0: K.one}
    assert ni.antipode(K, ni.f_elt(K, 1)) == {1: -K.one}
    # A^2(F(r)) = q^{2r(r-1)} F(r)
    for r in range(5):
        twice = ni.antipode(K, ni.antipode(K, ni.f_elt(K, r)))
        assert twice == {r: K.q_pow(2 * r * (r - 1))}


@pytest.mark.parametrize("p", [2, 3, 4, 5, 6])
def test_bialgebra_axiom(p):
    K = cyclotomic_field(p)
    for r in range(p):
        for s in range(p):
            lhs = ni.coproduct(K, ni.product(K, ni.f_elt(K, r), ni.f_elt(K, s)))
            rhs = ni.tensor_square_product(
                K, ni.coproduct(K, ni.f_elt(K, r)), ni.coproduct(K, ni.f_elt(K, s))
            )
            assert lhs == rhs


@pytest.mark.parametrize("p", [2, 3, 4, 5, 6])
def test_antipode_axiom(p):
    K = cyclotomic_field(p)
    for r in range(p):
        acc_l, acc_r = {}, {}
        for (i, j), c in ni.coproduct(K, ni.f_elt(K, r)).items():
            for d, cc in ni.product(K, ni.antipode(K, {i: c}), {j: K.one}).items():
                add_term(acc_l, d, cc)
            for d, cc in ni.product(K, {i: c}, ni.antipode(K, {j: K.one})).items():
                add_term(acc_r, d, cc)
        want = {0: K.one} if r == 0 else {}
        assert acc_l == want and acc_r == want


def test_divided_powers_generate():
    for p in (2, 3, 5):
        K = cyclotomic_field(p)
        power = ni.f_elt(K, 0)
        for r in range(1, p):
            power = ni.product(K, power, ni.f_elt(K, 1))
            assert power == {r: K.q_fact(r)}  # F^r = [r]! F(r)
        assert ni.product(K, power, ni.f_elt(K, 1)) == {}  # F^p = 0


def test_shuffle_oracle_small():
    K = cyclotomic_field(3)
    assert ni.shuffle_product_oracle(K, 1, 0) == K.one
    assert ni.shuffle_product_oracle(K, 1, 1) == K.one + K.q_pow(2)


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_shuffle_oracle_matches_binomials(p):
    K = cyclotomic_field(p)
    for r in range(7):
        for s in range(7 - r):
            assert ni.shuffle_product_oracle(K, r, s) == K.q_binom(r + s, r)


@pytest.mark.parametrize("p", [2, 3, 4, 5, 6, 7])
def test_half_twist_oracle(p):
    K = cyclotomic_field(p)
    assert ni.half_twist_oracle(K, 0) == K.one
    assert ni.half_twist_oracle(K, 1) == -K.one
    for r in range(p):
        assert ni.half_twist_oracle(K, r) == ni.antipode_coeff(K, r)


def _antipode_coeff_parity(K, r):
    # reference: (-1)^r q^{r(r-1)} with the sign as a parity branch
    return K.q_pow(r * (r - 1)) if r % 2 == 0 else -K.q_pow(r * (r - 1))


def _antipode_inv_coeff_parity(K, r):
    # reference: A(F(r)) is a nonzero scalar times F(r), so A^{-1} inverts the scalar
    return K.q_pow(-r * (r - 1)) if r % 2 == 0 else -K.q_pow(-r * (r - 1))


@pytest.mark.parametrize("p", range(2, 8))
def test_antipode_signs_are_powers_of_q(p):
    # (-1)^r = q^{pr}: the folded coefficients equal their parity-branch forms;
    # the inverse is the factor zeta^{2r(p - r + 1)} that braid_B_inv folds in
    K = cyclotomic_field(p)
    for r in range(p):
        assert ni.antipode_coeff(K, r) == _antipode_coeff_parity(K, r)
        inv = _antipode_inv_coeff_parity(K, r)
        assert inv == K.zeta_pow(2 * r * (p - r + 1))
        assert inv * ni.antipode_coeff(K, r) == K.one
