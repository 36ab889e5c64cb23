import itertools

import pytest

from nichols_fusion.cyclo import CycField, cyclotomic_field
from nichols_fusion import nichols as ni
from nichols_fusion import ydspace as yds
from nichols_fusion.linalg import add_term, scale
from nichols_fusion.ydspace import BasisVector, one_vertex, two_vertex, _c2


def test_charges():
    assert one_vertex(3, 1).charge == 1
    assert two_vertex(2, 5, 1, 0).charge == 5


def test_act_F_one_vertex_examples():
    K = cyclotomic_field(3)
    # F kills V^0_0 (the one-dimensional X(1))
    assert yds.act_F(K, {one_vertex(0, 0): K.one}) == {}
    # F |> V^1_0 = xi [-1][1] V^1_1, nonzero
    out = yds.act_F(K, {one_vertex(1, 0): K.one})
    assert out == {one_vertex(1, 1): K.xi() * K.q_int(-1)}
    assert not K.q_int(-1).is_zero()


def test_act_F_two_vertex_vanishing_at_p2():
    K = cyclotomic_field(2)
    # both emitted coefficients vanish: [2] = 0 and the s=2 target is out of range
    assert yds.act_F(K, {two_vertex(0, 0, 0, 1): K.one}) == {}


def test_act_Fr_range_checks():
    K = cyclotomic_field(3)
    with pytest.raises(ValueError):
        yds.act_Fr_basis(K, 3, one_vertex(0, 0))
    assert yds.act_Fr(K, 0, {one_vertex(2, 1): K.one}) == {one_vertex(2, 1): K.one}


def test_act_Fr_closed_form_example_p5():
    # F(1) |> V^{0,0}_{0,2}: coefficient xi[4] on V_{1,2} and xi[3][2] on V_{0,3}
    # (the latter from c^{0,0}_2(1,1) = xi q^0 [t+1 over 1][t-b] = xi[3][2]; the
    # single-F action gives the same via xi q^{2s-a}[t-b][t+1])
    K = cyclotomic_field(5)
    out = yds.act_Fr(K, 1, {two_vertex(0, 0, 0, 2): K.one})
    assert out[two_vertex(0, 0, 1, 2)] == K.xi() * K.q_int(4)
    assert out[two_vertex(0, 0, 0, 3)] == K.xi() * K.q_int(3) * K.q_int(2)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_charge_shift_sign_law(p):
    # c^{a+p,b}(r,u) = (-1)^u c^{a,b}(r,u)
    K = cyclotomic_field(p)
    for a in range(p):
        for b in range(p):
            for s in range(p):
                for t in range(p):
                    for r in range(p):
                        for u in range(r + 1):
                            plus = _c2(K, a + p, b, s, t, r, u)
                            base = _c2(K, a, b, s, t, r, u)
                            assert plus == (-base if u % 2 else base)


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_c2_is_zero_at_a_negative_cross_count(p):
    # the duality suite's c_symmetry takes K.zero for its right side at these
    # keys instead of calling _c2, so a known zero is not computed: check every
    # key it skips
    K = CycField(p)  # a private field, so the zeros stay out of the shared memo
    skipped = 0
    pairs = itertools.product(range(2 * p), range(2 * p), range(p), range(p))
    for (a, b, s, t), r in itertools.product(pairs, range(p)):
        for u in range(r + 1):
            s2, t2 = p - 1 - s - r + u, p - 1 - t - u
            if s2 < 0 or t2 < 0:
                skipped += 1
                assert _c2(K, -a - 2, -b - 2, s2, t2, r, u).is_zero(), (a, b, s, t, r, u)
    assert skipped


def _c2_direct(K, a, b, s, t, r, u):
    """c^{a,b}_{s,t}(r,u) as its own six-index product, without _c1 or a memo."""
    coef = K.xi() ** r * K.q_pow(u * (2 * s - a))
    coef = coef * K.q_binom(s + r - u, r - u) * K.q_binom(t + u, u)
    for i in range(u, r):
        coef = coef * K.q_int(s + i + 2 * t - a - b)
    for j in range(u):
        coef = coef * K.q_int(t + j - b)
    return coef


@pytest.mark.parametrize("p", range(2, 7))
def test_c2_equals_the_six_index_product(p):
    # _c2 is q^{u(2s-a)} c1(a+b-2t-u, s, r-u) c1(b, t, u); the reference is the
    # product formula it replaced, over charges beyond one period and over the
    # negative cross counts that the duality suite's c_symmetry skips
    K = CycField(p)
    charges = itertools.product(range(-2 * p, 4 * p), range(-p, 2 * p))
    for (a, b), s, t, r in itertools.product(charges, range(p), range(p), range(p)):
        for u in range(r + 1):
            assert _c2(K, a, b, s, t, r, u) == _c2_direct(K, a, b, s, t, r, u), (a, b, s, t, r, u)
    for a, b, s, t, r in itertools.product(range(2 * p), range(2 * p), range(p), range(p), range(p)):
        for u in range(r + 1):
            s2, t2 = p - 1 - s - r + u, p - 1 - t - u
            if s2 < 0 or t2 < 0:
                args = (-a - 2, -b - 2, s2, t2, r, u)
                assert _c2(K, *args) == _c2_direct(K, *args), args


@pytest.mark.parametrize("p", range(2, 7))
def test_c2_memo_holds_at_most_p_cubed_entries(p):
    # _c2 stores nothing of its own; its c1 factors are keyed by (a mod p, s, r)
    K = CycField(p)  # a private field, so the count is this range's alone
    for a, b, s, t, r in itertools.product(range(2 * p), range(p), range(p), range(p), range(p)):
        for u in range(r + 1):
            yds._c2(K, a, b, s, t, r, u)
    assert len(K._c2) <= p ** 3


@pytest.mark.parametrize("p", [2, 3])
def test_one_vertex_action_matrix_depends_on_a_mod_p(p):
    K = cyclotomic_field(p)
    for a in range(p):
        for s in range(p):
            for r in range(p):
                lhs = yds.act_Fr_basis(K, r, one_vertex(a, s))
                rhs = yds.act_Fr_basis(K, r, one_vertex(a + p, s))
                assert {bv.crosses: c for bv, c in lhs.items()} == {
                    bv.crosses: c for bv, c in rhs.items()
                }


def _c1_direct(K, a, s, r):
    coef = K.q_binom(r + s, r) * K.xi() ** r
    for i in range(s, s + r):
        coef = coef * K.q_int(i - a)
    return coef


@pytest.mark.parametrize("p", range(2, 8))
def test_c1_memo_equals_direct_product(p):
    # _c1 keys its memo (K._c2) by a mod p; every a in [-2p, 4p) must still get
    # its own value, and the memo holds one entry per (a mod p, s, r)
    K = CycField(p)  # a private field, so the first pass starts from an empty memo
    keys = [(a, s, r) for a in range(-2 * p, 4 * p) for s in range(p) for r in range(p)]
    for _ in ("cold", "warm"):
        for a, s, r in keys:
            assert yds._c1(K, a, s, r) == _c1_direct(K, a, s, r), (a, s, r)
        assert len(K._c2) == p ** 3


def test_c1_memo_is_per_field():
    # phi(20) = phi(24) = 8, and the key (0, 1, 1) is the same in both fields
    K5, K6 = CycField(5), CycField(6)
    v5 = yds._c1(K5, 0, 1, 1)
    v6 = yds._c1(K6, 0, 1, 1)
    assert v5.field is K5 and v6.field is K6
    assert v5 == _c1_direct(K5, 0, 1, 1) and v6 == _c1_direct(K6, 0, 1, 1)
    assert v5.num != v6.num


def _act_Fr_iterated(K, r, bv):
    """F(r) |> bv as [r]!^-1 F^r |> bv, by r single-F actions: no closed form, no memo."""
    out = {bv: K.q_fact(r).inv()}
    for _ in range(r):
        out = yds.act_F(K, out)
    return out


@pytest.mark.parametrize("p", range(2, 7))
def test_one_vertex_action_memo_equals_iterated_action(p):
    # charges in [-3p, 4p) include the r - 1 - nu*p of the ribbon and fusion suites
    K = CycField(p)  # a private field, so the first pass starts from an empty memo
    keys = [
        (r, one_vertex(a, s)) for a in range(-3 * p, 4 * p) for s in range(p) for r in range(1, p)
    ]
    want = {key: _act_Fr_iterated(K, *key) for key in keys}
    for _ in ("cold", "warm"):
        for key in keys:
            assert yds.act_Fr_basis(K, *key) == want[key], key
        assert K._act.keys() == set(keys)


def test_action_memo_holds_only_one_vertex_images():
    K = CycField(3)
    for r in range(3):
        for a, b, s, t in itertools.product(range(3), repeat=4):
            yds.act_Fr_basis(K, r, two_vertex(a, b, s, t))
    for s in range(3):
        yds.act_Fr_basis(K, 0, one_vertex(1, s))
    assert K._act == {}
    yds.act_Fr_basis(K, 2, one_vertex(1, 0))
    assert list(K._act) == [(2, one_vertex(1, 0))]
    # a repeated call hands back the stored image itself
    assert yds.act_Fr_basis(K, 2, one_vertex(1, 0)) is K._act[(2, one_vertex(1, 0))]


@pytest.mark.usefixtures("fresh_fields")
@pytest.mark.parametrize("p", [3, 4])
def test_suites_leave_the_shared_action_images_unchanged(p):
    from nichols_fusion import suites

    for name in ("braiding", "ribbon", "duality", "fusion", "loop"):
        suites.SUITES[name](p)
    K = cyclotomic_field(p)
    assert K._act
    for (r, bv), image in K._act.items():
        assert r >= 1 and bv.nvertex == 1
        assert image == _act_Fr_iterated(K, r, bv), (r, bv)


def test_action_memo_is_per_field():
    # phi(20) = phi(24) = 8, and every key below is the same in both fields
    K5, K6 = CycField(5), CycField(6)
    for r, a, s in itertools.product(range(1, 5), range(-5, 5), range(5)):
        bv = one_vertex(a, s)
        w5, w6 = yds.act_Fr_basis(K5, r, bv), yds.act_Fr_basis(K6, r, bv)
        assert w5 is not w6
        assert all(c.field is K5 for c in w5.values())
        assert all(c.field is K6 for c in w6.values())
        assert w5 == _act_Fr_iterated(K5, r, bv) and w6 == _act_Fr_iterated(K6, r, bv)
    assert K5._act is not K6._act


def test_coact_examples():
    K = cyclotomic_field(4)
    assert yds.coact(K, {one_vertex(2, 0): K.one}) == {0: {one_vertex(2, 0): K.one}}
    comps = yds.coact(K, {one_vertex(1, 2): K.one})
    assert comps == {
        0: {one_vertex(1, 2): K.one},
        1: {one_vertex(1, 1): K.one},
        2: {one_vertex(1, 0): K.one},
    }
    # two-vertex: only the first cross group deconcatenates
    comps = yds.coact(K, {two_vertex(0, 1, 1, 2): K.one})
    assert comps == {
        0: {two_vertex(0, 1, 1, 2): K.one},
        1: {two_vertex(0, 1, 0, 2): K.one},
    }


def test_coaction_coassociative_and_counital():
    for p in (2, 3):
        K = cyclotomic_field(p)
        for a in range(p):
            for b in range(p):
                for s in range(p):
                    for t in range(p):
                        v = {two_vertex(a, b, s, t): K.one}
                        comps = yds.coact(K, v)
                        # counit: the degree-0 component is v itself
                        assert comps[0] == v
                        # (Delta x id) delta = (id x delta) delta
                        lhs, rhs = {}, {}
                        for r, comp in comps.items():
                            for (i, j), c in ni.coproduct(K, ni.f_elt(K, r)).items():
                                for bv, cc in comp.items():
                                    add_term(lhs, (i, j, bv), c * cc)
                            for i, comp2 in yds.coact(K, comp).items():
                                for bv, cc in comp2.items():
                                    add_term(rhs, (r, i, bv), cc)
                        assert lhs == rhs


def test_module_axiom_over_closed_forms():
    # F(r) |> (F(s) |> v) = [r+s over r] F(r+s) |> v for r+s <= p-1
    for p in (2, 3, 5):
        K = cyclotomic_field(p)
        for a in range(p):
            for b in range(p):
                for st in range(p):
                    v = {two_vertex(a, b, 0, st): K.one}
                    for r in range(p):
                        for s in range(p - r):
                            lhs = yds.act_Fr(K, r, yds.act_Fr(K, s, v))
                            rhs = scale(yds.act_Fr(K, r + s, v), K.q_binom(r + s, r))
                            assert lhs == rhs


def yd_axiom_check(K, r, v):
    # reference: both sides of the Yetter-Drinfeld axiom for one F(r), each
    # side in its own loop, every image rebuilt for this r alone
    tensor = yds._is_tensor(v)
    act_fn = yds.tensor_act_Fr if tensor else yds.act_Fr
    coact_fn = yds.tensor_coact if tensor else yds.coact
    lhs = {}
    for n1 in range(r + 1):
        n2 = r - n1
        w = act_fn(K, n1, v)
        for g, comp in coact_fn(K, w).items():
            if g + n2 >= K.p:
                continue  # [g+n2 over g] = 0 there
            for key, c in comp.items():
                chw = key.charge if isinstance(key, BasisVector) else key[0].charge + key[1].charge
                # psi(F(n2), v) psi(w_component, F(n2)); v sits 2(n1 - g) lower
                coef = c * K.q_pow(-2 * n2 * (chw + n1 - g)) * K.q_binom(g + n2, g)
                add_term(lhs, (g + n2, key), coef)
    rhs = {}
    for g, comp in coact_fn(K, v).items():
        for n1 in range(r + 1):
            n2 = r - n1
            if n1 + g >= K.p:
                continue
            coef0 = K.q_pow(2 * n2 * g) * K.q_binom(n1 + g, n1)
            acted = act_fn(K, n2, comp)
            for key, c in acted.items():
                add_term(rhs, (n1 + g, key), coef0 * c)
    return lhs == rhs


def _yd_vectors(K):
    """Every one-vertex vector with a in [-p, 3p), every two-vertex vector, the
    one-vertex tensor products for p <= 3, and multi-term vectors with
    non-unit coefficients (mixed charges and mixed cross counts)."""
    p = K.p
    out = [{one_vertex(a, s): K.one} for a in range(-p, 3 * p) for s in range(p)]
    out += [{two_vertex(*key): K.one} for key in itertools.product(range(p), repeat=4)]
    if p <= 3:
        out += [
            {(one_vertex(a, s), one_vertex(b, t)): K.one}
            for a, b in itertools.product(range(2 * p), repeat=2)
            for s, t in itertools.product(range(a % p + 1), range(b % p + 1))
        ]
    two, xi = K.from_int(2), K.xi()
    out += [
        {one_vertex(1, 0): two, one_vertex(1, p - 1): xi, one_vertex(p + 2, 1 % p): -K.one},
        {two_vertex(0, 1, 1 % p, 0): xi, two_vertex(2, 1, 0, p - 1): two},
        {(one_vertex(1, 1 % p), one_vertex(0, 0)): two, (one_vertex(3, 0), one_vertex(1, 0)): xi},
    ]
    return out


@pytest.mark.parametrize("p", [2, 3, 4])
def test_yd_axiom_checks_equal_the_per_r_reference(p, monkeypatch):
    K = cyclotomic_field(p)
    for v in _yd_vectors(K):
        got = list(yds.yd_axiom_checks(K, v))
        assert got == [(r, yd_axiom_check(K, r, v)) for r in range(p)], v
        assert got == [(r, True) for r in range(p)], v
    if p < 3:
        return
    # F(2) images negated: both forms fail from r = 2 on, and agree on every r
    act = yds.act_Fr_basis

    def broken(K, r, bv):
        image = act(K, r, bv)
        return {key: -c for key, c in image.items()} if r == 2 else image

    monkeypatch.setattr(yds, "act_Fr_basis", broken)
    for v in _yd_vectors(K):
        got = list(yds.yd_axiom_checks(K, v))
        assert got == [(r, yd_axiom_check(K, r, v)) for r in range(p)], v
    for v in ({two_vertex(0, 0, 1, 1): K.one}, {one_vertex(p - 1, 0): K.one}):
        assert list(yds.yd_axiom_checks(K, v)) == [(0, True), (1, True)] + [
            (r, False) for r in range(2, p)
        ], v


@pytest.mark.parametrize("p", [2, 3])
def test_yd_axiom_including_shifted_charges(p):
    K = cyclotomic_field(p)
    want = [(r, True) for r in range(p)]
    for a in range(-1, 2 * p):
        for s in range(p):
            assert list(yds.yd_axiom_checks(K, {one_vertex(a, s): K.one})) == want
    for a in range(2 * p):
        for b in range(p):
            v = {two_vertex(a, b, 1 % p, p - 1): K.one}
            assert list(yds.yd_axiom_checks(K, v)) == want


def test_yd_axiom_on_tensor_products():
    K = cyclotomic_field(2)
    for a in range(4):
        for b in range(4):
            x = {(one_vertex(a, 0), one_vertex(b, b % 2)): K.one}
            assert list(yds.yd_axiom_checks(K, x)) == [(0, True), (1, True)]


def test_tensor_act_leibniz_example():
    # F |> (V^a_0 x V^b_0) = (F|>V^a_0) x V^b_0 + q^{-a} V^a_0 x (F|>V^b_0)
    K = cyclotomic_field(3)
    for a in range(3):
        for b in range(3):
            x = {(one_vertex(a, 0), one_vertex(b, 0)): K.one}
            got = yds.tensor_act_Fr(K, 1, x)
            want = {}
            for bv, c in yds.act_F(K, {one_vertex(a, 0): K.one}).items():
                add_term(want, (bv, one_vertex(b, 0)), c)
            for bv, c in yds.act_F(K, {one_vertex(b, 0): K.one}).items():
                add_term(want, (one_vertex(a, 0), bv), K.q_pow(-a) * c)
            assert got == want


def test_braiding_on_coinvariants():
    K = cyclotomic_field(3)
    for a in range(6):
        for b in range(6):
            x = {(one_vertex(a, 0), one_vertex(b, 0)): K.one}
            got = yds.braid_B(K, x)
            assert got == {(one_vertex(b, 0), one_vertex(a, 0)): K.zeta_pow(a * b)}
            assert yds.braid_B2(K, x) == {next(iter(x)): K.q_pow(a * b)}


@pytest.mark.parametrize("p", [2, 3])
def test_braiding_inverses_exhaustive(p):
    K = cyclotomic_field(p)
    for a in range(2 * p):
        for b in range(2 * p):
            for s in range(p):
                for t in range(p):
                    x = {(one_vertex(a, s), one_vertex(b, t)): K.one}
                    assert yds.braid_B_inv(K, yds.braid_B(K, x)) == x
                    assert yds.braid_B(K, yds.braid_B_inv(K, x)) == x


@pytest.mark.parametrize("p", [2, 3])
def test_b2_composite_equals_onepass(p):
    K = cyclotomic_field(p)
    for a in range(2 * p):
        for b in range(p):
            for s in range(p):
                for t in range(p):
                    x = {(one_vertex(a, s), one_vertex(b, t)): K.one}
                    assert yds.braid_B2(K, x) == yds.braid_B2_onepass(K, x)
                    x2 = {(two_vertex(a, b, s, t), one_vertex(a, s)): K.one}
                    assert yds.braid_B2(K, x2) == yds.braid_B2_onepass(K, x2)


def test_ribbon_examples():
    K = cyclotomic_field(4)
    # one vertex: the twist is the scalar ribbon_scalar(a); ribbon itself
    # is the two-vertex map and rejects the sector
    assert yds.ribbon_scalar(K, 0) == K.one
    for a in range(8):
        assert yds.ribbon_scalar(K, a) == K.zeta_pow(a * (a + 2))
        with pytest.raises(ValueError):
            yds.ribbon(K, {one_vertex(a, 0): K.one})
    # two-vertex with s=0: only the prefactor survives
    for a in range(4):
        for b in range(4):
            for t in range(4):
                got = yds.ribbon(K, {two_vertex(a, b, 0, t): K.one})
                x = a + b - 2 * t
                assert got == {two_vertex(a, b, 0, t): K.zeta_pow(x * (x + 2))}


def _flip(x):
    # y (x) z -> z (x) y on a TensorVec, with no braiding scalar
    return {(bz, by): c for (by, bz), c in x.items()}


def test_commutes_with_coaction_is_not_vacuous():
    from nichols_fusion.fusion import fusion_map

    K = cyclotomic_field(3)
    for a in range(6):
        v = {two_vertex(a, 2, 1, 1): K.one}
        assert yds.commutes_with_coaction(K, lambda w: yds.ribbon(K, w), v)
        # the coaction on a TensorVec is inferred from its keys: tensor_coact
        x = {(one_vertex(a, 1), one_vertex(2, 1)): K.one}
        assert yds.commutes_with_coaction(K, lambda w: fusion_map(K, w), x)
        # fusing the flipped pair drops the braiding scalar: the coaction
        # degrees still agree, the coefficients do not (except where the
        # two legs are equal)
        assert yds.commutes_with_coaction(K, lambda w: fusion_map(K, _flip(w)), x) == (a == 2)
    # F raises the cross count, so F(v) has a coaction degree that delta(v) lacks
    for bv in (one_vertex(1, 0), two_vertex(1, 2, 1, 0)):
        assert not yds.commutes_with_coaction(K, lambda w: yds.act_F(K, w), {bv: K.one})


@pytest.mark.parametrize(
    "apply",
    [
        lambda K, bv: yds.act_F_basis(K, bv),
        lambda K, bv: yds.act_Fr_basis(K, 1, bv),
        lambda K, bv: yds.ribbon(K, {bv: K.one}),
    ],
    ids=["act_F_basis", "act_Fr_basis", "ribbon"],
)
def test_three_vertex_sector_is_unsupported(apply):
    K = cyclotomic_field(2)
    with pytest.raises(ValueError):
        apply(K, BasisVector((0, 0, 0), (0, 0, 0)))


def _oracle_inputs(K):
    """One-vertex pairs, two-vertex keys on either side, and multi-term
    vectors with non-unit coefficients (so each term's lifted coefficient
    differs)."""
    p = K.p
    third = K._make([1, 2] + [0] * (K.deg - 2), 3)
    coefs = [K.one, third, K.q_int(2) + K.zeta_pow(1), K.from_int(-2)]
    xs = []
    for a, b, s, t in itertools.product(range(2 * p), range(p), range(p), range(p)):
        xs.append({(one_vertex(a, s), one_vertex(b, t)): K.one})
        if (a + s + t) % 3 == 0:
            xs.append({(two_vertex(a, b, s, t), one_vertex(b, s)): third})
            xs.append({(one_vertex(a, t), two_vertex(b, a, t, s)): K.one})
    keys = [
        (one_vertex(1, p - 1), one_vertex(2, 1)),
        (one_vertex(p + 1, 1), two_vertex(1, 2, 1, p - 1)),
        (two_vertex(3, 1, p - 1, 1), one_vertex(0, p - 1)),
        (two_vertex(2, p, 1, 1), two_vertex(1, 1, 0, 1)),
    ]
    xs.append(dict(zip(keys, coefs)))
    xs.append({k: c for k, c in zip(keys[::-1], coefs) if c != K.one})
    return xs


def _raises(*_args, **_kw):
    raise AssertionError("the one-pass oracle must not read this")


@pytest.mark.usefixtures("fresh_fields")
@pytest.mark.parametrize("p", [2, 3, 4])
def test_b2_onepass_reads_no_braiding_or_closed_form(monkeypatch, p):
    from nichols_fusion import fusion as fu

    K = cyclotomic_field(p)
    xs = _oracle_inputs(K)
    refs = [yds.braid_B2(K, x) for x in xs]
    assert any(len(x) > 1 for x in xs) and all(refs[-2:])
    monkeypatch.setattr(yds, "braid_B", _raises)
    monkeypatch.setattr(yds, "braid_B_inv", _raises)
    monkeypatch.setattr(fu, "monodromy_closed_form", _raises)
    for x, ref in zip(xs, refs):
        assert yds.braid_B2_onepass(K, x) == ref, x
    # the oracle does read the antipode: negating it changes every nonzero output
    antipode = ni.antipode_coeff
    monkeypatch.setattr(ni, "antipode_coeff", lambda K, r: -antipode(K, r))
    for x, ref in zip(xs, refs):
        assert (yds.braid_B2_onepass(K, x) == ref) == (not ref), x


@pytest.mark.parametrize("p", [2, 3, 5])
def test_act_Fr_range_guard_on_a_warm_field(p):
    K = CycField(p)
    bvs = [one_vertex(a, s) for a in range(-p, 3 * p) for s in range(p)]
    for bv in bvs:
        for r in range(1, p):
            yds.act_Fr_basis(K, r, bv)
    warm = len(K._act)
    assert warm == len(bvs) * (p - 1)
    for bv in bvs:
        for r in (-1, p, p + 1):
            with pytest.raises(ValueError):
                yds.act_Fr_basis(K, r, bv)
    assert len(K._act) == warm


def test_put_drops_an_in_range_zero():
    K = cyclotomic_field(3)
    out = {}
    yds._put(K, out, one_vertex(1, 2), K.zero)
    assert out == {}
    yds._put(K, out, one_vertex(1, 2), K.one)
    yds._put(K, out, one_vertex(1, 2), -K.one)
    assert out == {}


@pytest.mark.parametrize("p", [2, 3, 4])
def test_module_maps_store_no_zero(p):
    # == is the equality of sparse vectors only while none stores a zero
    from nichols_fusion import classify as cl
    from nichols_fusion import fusion as fu
    from nichols_fusion import loop as lp

    K = cyclotomic_field(p)
    ones = [one_vertex(a, s) for a in range(2 * p) for s in range(p)]
    twos = [two_vertex(*key) for key in itertools.product(range(p), repeat=4)]
    pairs = list(itertools.product(ones, ones))
    images = []
    for bv in ones + twos:
        v = {bv: K.one}
        images.append(yds.act_F_basis(K, bv))
        images += [yds.act_Fr_basis(K, r, bv) for r in range(p)]
        images += yds.coact(K, v).values()
    images += [yds.ribbon(K, {bv: K.one}) for bv in twos]
    for y, z in pairs:
        x = {(y, z): K.one}
        images += [yds.braid_B(K, x), yds.braid_B_inv(K, x), fu.fusion_map_basis(K, y, z)]
        images += [yds.tensor_act_Fr(K, n, x) for n in range(p)]
        images += yds.tensor_coact(K, x).values()
    for y, z in pairs[:: 2 * p - 1]:  # the oracle is slow; the stride still takes every y and z
        images.append(yds.braid_B2_onepass(K, {(y, z): K.one}))
    for (a, b, s, t) in itertools.product(range(2 * p), range(2 * p), range(p), range(p)):
        images.append(fu.monodromy_closed_form(K, a, b, s, t))
    for (a, b, t), d in cl.classification_grid(p).items():
        if d.kind == "L":
            images.append(cl.top_extension_vector(K, a, b, t, d.r))
    for bv in ones + twos:
        images += [lp.chi_apply(K, {bv: K.one}, b) for b in range(2 * p)]
    for bv in ones:
        images += [lp.chi_apply_first_form(K, {bv: K.one}, b) for b in range(2 * p)]
    for r, s in itertools.product(range(p), repeat=2):
        f_r = ni.f_elt(K, r)
        images += [ni.product(K, f_r, ni.f_elt(K, s)), ni.coproduct(K, f_r), ni.antipode(K, f_r)]
    assert not [vec for vec in images if any(c.is_zero() for c in vec.values())]
