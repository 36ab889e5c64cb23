import pytest

from nichols_fusion.cyclo import cyclotomic_field
from nichols_fusion import ydspace as yds
from nichols_fusion import loop as lp
from nichols_fusion import classify as cl
from nichols_fusion import nichols as ni
from nichols_fusion.ydspace import one_vertex


def sigma2(K, v):
    # reference: the full sigma_2(z) = A(z_{(-1)}) |> z_{(0)}, whose one-vertex
    # eigenvalues loop.sigma2_scalar_one_vertex gives in closed form
    def image(bv):
        return yds.act_by_coaction(K, bv, lambda g, _: ni.antipode_coeff(K, g))

    return yds.linear_extend(image, v)


def lambda_ab(K, a, b):
    # reference: the loop eigenvalue in coinvariant-charge labels, for (a)_p != p-1
    if (a + 1) % K.p == 0:
        raise ZeroDivisionError("denominator vanishes at (a)_p = p-1")
    num = K.q_pow((a + 1) * (b + 1)) - K.q_pow(-(a + 1) * (b + 1))
    den = K.q_pow(a + 1) - K.q_pow(-(a + 1))
    return num * den.inv()


def test_ev_one_vertex_deltas():
    K = cyclotomic_field(3)
    for a in range(6):
        for b in range(6):
            for s in range(3):
                for t in range(3):
                    val = lp.ev_one_vertex(K, one_vertex(a, s), one_vertex(b, t))
                    if s + t != 2 or (a + b) % 12 != 4:
                        assert val.is_zero()


def test_ev_example_p2():
    # <V^2_1, V^0_0> = (-1) q^{-1+1*(2-1)} = -1
    K = cyclotomic_field(2)
    assert lp.ev_one_vertex(K, one_vertex(2, 1), one_vertex(0, 0)) == -K.one


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_coev_matches_closed_form(p):
    # coev(X^a) = sum_s V^a_s (x) (-1)^{a+s} q^{(s+1)(s-a-2)} V^{2p-a-2}_{p-1-s}
    K = cyclotomic_field(p)
    for a in range(-p, 3 * p):
        coev = lp.coev_one_vertex(K, a)
        want = {}
        for s in range(a % p + 1):
            coef = K.q_pow((s + 1) * (s - a - 2))
            key = (one_vertex(a, s), one_vertex(2 * p - a - 2, p - 1 - s))
            want[key] = -coef if (a + s) % 2 else coef
        assert coev == want
        assert all(key[1].charges[0] == 2 * p - a - 2 for key in coev)


def test_sigma2_examples():
    K = cyclotomic_field(3)
    for a in range(6):
        v0 = {one_vertex(a, 0): K.one}
        assert sigma2(K, v0) == v0
        got = sigma2(K, {one_vertex(a, 1): K.one})
        want = K.one - K.xi() * K.q_int(-a)
        assert got == {one_vertex(a, 1): want}
        assert lp.sigma2_scalar_one_vertex(K, a, 1) == want


def _sigma2_scalar_loop(K, a, t):
    # reference: the sigma_2 eigenvalue as its own product loop, without yds._c1
    total = K.zero
    for r in range(t + 1):
        coef = ni.antipode_coeff(K, r) * K.q_binom(t, r) * K.xi() ** r
        for i in range(t - r, t):
            coef = coef * K.q_int(i - a)
        total = total + coef
    return total


def _dual_act_U_loop(K, a, r, s):
    # reference: the dual action coefficient as its own product loop, without yds._c1
    coef = K.q_pow(r * (r - 1) - r * a - 2 * r * s) * K.q_binom(s, r) * (-K.xi()) ** r
    for t in range(s - r, s):
        coef = coef * K.q_int(t + a)
    return coef


@pytest.mark.parametrize("p", range(2, 8))
def test_one_vertex_scalars_equal_their_product_loops(p):
    K = cyclotomic_field(p)
    for a in range(-2 * p, 4 * p):
        for s in range(p):
            assert lp.sigma2_scalar_one_vertex(K, a, s) == _sigma2_scalar_loop(K, a, s)
            for r in range(p):
                assert lp.dual_act_U(K, a, r, s) == _dual_act_U_loop(K, a, r, s), (a, r, s)


def test_sigma2_identity_on_coinvariants_two_vertex():
    K = cyclotomic_field(3)
    v = {yds.two_vertex(1, 2, 0, 1): K.one}
    assert sigma2(K, v) == v


@pytest.mark.parametrize("p", [2, 3])
def test_sigma2_intertwining(p):
    K = cyclotomic_field(p)
    for a in range(2 * p):
        for s in range(p):
            z = {one_vertex(a, s): K.one}
            for n in range(p):
                lhs = sigma2(K, yds.act_Fr(K, n, z))
                sc = K.q_pow(-2 * n * (a - 2 * s))  # both crossings of F(n) past z
                a2 = ni.antipode_coeff(K, n) ** 2
                rhs = yds.scale(yds.act_Fr(K, n, sigma2(K, z)), sc * a2)
                assert yds.vec_eq(lhs, rhs)


def test_lambda_unit_and_sign_free_cases():
    for p in (2, 3, 4):
        K = cyclotomic_field(p)
        for rp in range(1, p + 1):
            for nup in range(4):
                assert lp.lambda_closed(K, rp, nup, 1, 0) == K.one


@pytest.mark.parametrize("p", [2, 3, 4])
def test_lambda_sum_vs_ratio_and_ab_form(p):
    K = cyclotomic_field(p)
    for rp in range(1, p):
        for nup in range(4):
            for r in range(1, p + 1):
                for nu in range(4):
                    assert lp.lambda_closed(K, rp, nup, r, nu) == lp.lambda_ratio(
                        K, rp, nup, r, nu
                    )
    # coinvariant-charge form, where defined
    for a in range(2 * p):
        if (a + 1) % p == 0:
            continue
        for b in range(2 * p):
            rp, nup = a % p + 1, cl.raw_nu(a, a % p + 1, p)
            r, nu = b % p + 1, cl.raw_nu(b, b % p + 1, p)
            assert lambda_ab(K, a, b) == lp.lambda_closed(K, rp, nup, r, nu)


def test_lambda_identities():
    for p in (2, 3, 4):
        K = cyclotomic_field(p)
        for rp in range(1, p):
            for nup in range(4):
                for r in range(1, p + 1):
                    for nu in range(4):
                        assert lp.lambda_closed(K, rp, nup, r, nu) == lp.lambda_closed(
                            K, p - rp, nup + 1, r, nu
                        )
                        assert lp.lambda_closed(K, rp, nup, r, nu) == lp.lambda_closed(
                            K, rp, nup + 2, r, nu
                        )
        for nup in range(4):
            for r in range(1, p + 1):
                for nu in range(4):
                    assert lp.lambda_closed(K, p, nup, r, nu) == lp.lambda_steinberg(
                        K, nup, r, nu
                    )


def test_lambda_mu_errors():
    K = cyclotomic_field(3)
    with pytest.raises(ValueError):
        lp.lambda_closed(K, 0, 0, 1, 0)
    with pytest.raises(ValueError):
        lp.mu_closed(K, 3, 0, 1, 0)  # mu undefined at r' = p
    with pytest.raises(ZeroDivisionError):
        lp.lambda_ratio(K, 3, 0, 1, 0)
    with pytest.raises(ZeroDivisionError):
        lambda_ab(K, 2, 0)


@pytest.mark.parametrize("p", [2, 3])
def test_chi_scalar_on_simples(p):
    K = cyclotomic_field(p)
    for rp in range(1, p + 1):
        for nup in range(4):
            for r in range(1, p + 1):
                for nu in range(4):
                    assert lp.verify_chi_on_simple(K, rp, nup, r, nu)


def test_chi_unit_loop_is_identity():
    for p in (2, 3):
        K = cyclotomic_field(p)
        for rp in range(1, p + 1):
            assert lp.lambda_closed(K, rp, 0, 1, 0) == K.one
            assert lp.verify_chi_on_simple(K, rp, 0, 1, 0)


def _p_module_vectors(K):
    p = K.p
    for (a, b, t), d in sorted(cl.classification_grid(p).items()):
        if d.kind == "L":
            vs, us, _ = cl.p_module_basis(K, a, t, b)
            yield from vs + us


def _assert_commutes(K, y_basis, b):
    # chi of Z = X^b commutes with the action and the coaction on the span
    def chi(v):
        return lp.chi_apply(K, v, b)

    for w in y_basis:
        assert yds.vec_eq(chi(yds.act_F(K, w)), yds.act_F(K, chi(w))), (w, b)
        assert yds.commutes_with_coaction(K, chi, w), (w, b)


def test_chi_commutes_with_structure():
    # at p = 2..4, on the basis of every simple X(r')_{nu'} and of every P
    # module, for Z over the simples X(r)_nu, nu = 0, 1
    for p in (2, 3, 4):
        K = cyclotomic_field(p)
        ys = [
            {one_vertex(rp - 1 - nup * p, s): K.one}
            for rp in range(1, p + 1)
            for nup in range(4)
            for s in range(rp)
        ]
        ys += list(_p_module_vectors(K))
        for r in range(1, p + 1):
            for nu in (0, 1):
                _assert_commutes(K, ys, r - 1 - nu * p)


@pytest.mark.parametrize("p", [2, 3, 4])
def test_first_form_matches_second(p):
    # the partial trace in chi_apply against the oracle that composes the full
    # braidings, on every one-vertex and every P-module basis vector, with
    # Z = X^b for b = r - 1 - nu*p over r = 1..p, nu = 0..3 (all four braiding
    # sectors), and b = p
    K = cyclotomic_field(p)
    ys = [{one_vertex(a, s): K.one} for a in range(4 * p) for s in range(p)]
    ys += list(_p_module_vectors(K))
    nonzero = 0
    for y in ys:
        for b in range(-3 * p, p + 1):
            img = lp.chi_apply(K, y, b)
            assert yds.vec_eq(img, lp.chi_apply_first_form(K, y, b)), (y, b)
            nonzero += bool(img)
    assert nonzero > len(ys)


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_chi_on_p_modules(p):
    K = cyclotomic_field(p)
    grid = cl.classification_grid(p)
    for (a, b, t), d in sorted(grid.items()):
        if d.kind != "L":
            continue
        vs, us, pdesc = cl.p_module_basis(K, a, t, b)
        for r in range(1, p + 1):
            for nu in (0, 1):
                assert lp.verify_chi_on_P(K, vs, us, pdesc, r, nu)


def test_verify_chi_on_P_example_p2():
    K = cyclotomic_field(2)
    assert lp.verify_chi_on_P(K, *cl.p_module_basis(K, 1, 0, 1), 2, 0)


@pytest.mark.parametrize("p", [2, 3])
def test_multiplicativity(p):
    for rw in range(1, p + 1):
        for nuw in (0, 1):
            for rz in range(1, p + 1):
                for nuz in (0, 1):
                    for ry in range(1, p + 1):
                        for nuy in (0, 1):
                            assert lp.verify_multiplicativity(
                                p, (rw, nuw), (rz, nuz), (ry, nuy)
                            )


def test_multiplicativity_p2_example():
    # lambda(Y; X(2)_0)^2 = value of P(1)_0 = 2X(1)_0 + 2X(1)_1 on Y
    K = cyclotomic_field(2)
    for ry in (1, 2):
        for nuy in (0, 1):
            lam = lp.lambda_closed(K, ry, nuy, 2, 0)
            rhs = 2 * lp.lambda_closed(K, ry, nuy, 1, 0) + 2 * lp.lambda_closed(
                K, ry, nuy, 1, 1
            )
            assert lam * lam == rhs


def test_dual_descriptor():
    d = cl.ModuleDescriptor("X", 2, 1)
    dd = lp.dual_descriptor(5, d)
    assert (dd.kind, dd.r, dd.nu % 4) == ("X", 2, 3)
    dp = lp.dual_descriptor(5, cl.ModuleDescriptor("P", 2, 1, (0, 2, 0)))
    assert (dp.kind, dp.r, dp.nu % 4) == ("P", 2, 1)  # -2-1 = -3 = 1 mod 4
    assert dp.labels == (-2, 0, -2)
    dv = lp.dual_descriptor(5, cl.ModuleDescriptor("V", 2, 0))
    assert (dv.kind, dv.r, dv.nu % 4) == ("V", 3, 3)
    with pytest.raises(ValueError):
        lp.dual_descriptor(5, cl.ModuleDescriptor("L", 2, 0))
