from itertools import product

import pytest

from nichols_fusion.cyclo import cyclotomic_field
from nichols_fusion.linalg import VerificationError, add_term
from nichols_fusion import fusion as fu
from nichols_fusion import ydspace as yds
from nichols_fusion.ydspace import one_vertex, two_vertex


def test_fusion_map_examples():
    K = cyclotomic_field(3)
    for a in range(3):
        for b in range(3):
            assert fu.fusion_map_basis(K, one_vertex(a, 0), one_vertex(b, 0)) == {
                two_vertex(a, b, 0, 0): K.one
            }
            got = fu.fusion_map_basis(K, one_vertex(a, 0), one_vertex(b, 1))
            assert got == {
                two_vertex(a, b, 0, 1): K.one,
                two_vertex(a, b, 1, 0): K.q_pow(-a),
            }


def test_fusion_map_drops_out_of_range_with_zero_coefficient():
    K = cyclotomic_field(2)
    # s+i = 2 is out of range; the accompanying binomial [2 over 1] vanishes
    got = fu.fusion_map_basis(K, one_vertex(0, 1), one_vertex(0, 1))
    assert set(got) == {two_vertex(0, 0, 1, 1)}


def test_fusion_map_rejects_two_vertex_input():
    K = cyclotomic_field(2)
    with pytest.raises(ValueError):
        fu.fusion_map_basis(K, two_vertex(0, 0, 0, 0), one_vertex(0, 0))


def test_fuse_unit():
    for p in (2, 3, 4):
        for r in range(1, p + 1):
            for nu in range(4):
                res = fu.fuse_simples(p, 1, 0, r, nu)
                assert [(d.kind, d.r, d.nu) for d in res] == [("X", r, nu)]


def test_fuse_examples():
    res = fu.fuse_simples(2, 2, 0, 2, 0)
    assert [(d.kind, d.r, d.nu) for d in res] == [("P", 1, 0)]
    assert sum(d.dimension(2) for d in res) == 4
    res = fu.fuse_simples(3, 2, 0, 2, 0)
    assert [(d.kind, d.r, d.nu) for d in res] == [("X", 1, 0), ("X", 3, 0)]
    res = fu.fuse_simples(3, 2, 0, 3, 0)
    assert [(d.kind, d.r, d.nu) for d in res] == [("P", 2, 0)]


def test_fuse_rejects_bad_range():
    with pytest.raises(ValueError):
        fu.fuse_closed(3, 0, 0, 1, 0)
    with pytest.raises(ValueError):
        fu.fuse_closed(3, 1, 0, 4, 0)


@pytest.mark.parametrize("p", [2, 3, 4])
def test_fuse_full_grid(p):
    for r1 in range(1, p + 1):
        for nu1 in range(4):
            for r2 in range(1, p + 1):
                for nu2 in range(4):
                    res = fu.fuse_simples(p, r1, nu1, r2, nu2)
                    assert sum(d.dimension(p) for d in res) == r1 * r2
                    swapped = fu.fuse_simples(p, r2, nu2, r1, nu1)
                    assert res == swapped
                    for d in res:
                        assert d.nu == (nu1 + nu2) % 4


def test_dimension_conservation_up_to_p6():
    for p in (5, 6):
        for r1 in range(1, p + 1):
            for nu1 in range(4):
                for r2 in range(1, p + 1):
                    for nu2 in range(4):
                        res = fu.fuse_simples(p, r1, nu1, r2, nu2)
                        assert sum(d.dimension(p) for d in res) == r1 * r2


def test_five_case_table_matches_classifier():
    from nichols_fusion import classify as cl

    for p in (2, 3, 4, 5, 6):
        for a in range(p):
            for b in range(p):
                for u in range(min(a, b) + 1):
                    d = cl.classify_coinvariant(p, a, b, u)
                    if a + b <= p - 1 or (a + b >= p and u >= a + b - p + 2):
                        want = "X" if (a + b - 2 * u) % p + 1 < p else "S"
                    elif a + b - 2 * u - p >= 0:
                        want = "L"
                    elif a + b - 2 * u - p == -1:
                        want = "S"
                    else:
                        want = "B"
                    assert d.kind == want, (p, a, b, u, d)


def test_steinberg_square_p3():
    res = fu.fuse_simples(3, 3, 0, 3, 0)
    assert [(d.kind, d.r, d.nu) for d in res] == [("P", 1, 0), ("X", 3, 0)]
    assert sum(d.dimension(3) for d in res) == 9


@pytest.mark.parametrize("p", [2, 3])
def test_monodromy_closed_form(p):
    K = cyclotomic_field(p)
    for a in range(2 * p):
        for b in range(2 * p):
            for s in range(p):
                for t in range(p):
                    closed = fu.monodromy_closed_form(K, a, b, s, t)
                    assert fu.fused_monodromy(K, a, b, s, t) == closed


def monodromy_closed_form_reference(K, a, b, s, t):
    # reference: the closed form term by term, each term with its full
    # q-power q^{ab + 2j(j-1) - 2bj - a(n+t)} and the out-of-range rule of _put
    out = {}
    for n in range(s + t + 1):
        key = two_vertex(a, b, s + t - n, n)
        for j in range(min(n, t) + 1):
            coef = (
                K.q_pow(a * b + 2 * j * (j - 1) - 2 * b * j - a * (n + t))
                * K.q_binom(s + t - j, s)
                * yds._c1(K, b, j, n - j)
            )
            yds._put(K, out, key, coef)
    return out


@pytest.mark.parametrize("p", [2, 3, 4, 5, 6, 7])
def test_monodromy_closed_form_equals_its_term_by_term_reference(p):
    # the charge-free sums S_n, with no dict, with a fresh dict on each call,
    # and read from one dict shared by every (a, b, s, t), as the braiding
    # check shares it
    K = cyclotomic_field(p)
    shared = {}
    for a, b, s, t in product(range(2 * p), range(2 * p), range(p), range(p)):
        want = monodromy_closed_form_reference(K, a, b, s, t)
        assert fu.monodromy_closed_form(K, a, b, s, t) == want, (a, b, s, t)
        assert fu.monodromy_closed_form(K, a, b, s, t, {}) == want, (a, b, s, t)
        assert fu.monodromy_closed_form(K, a, b, s, t, shared) == want, (a, b, s, t)
    assert len(shared) == p**3


def monodromy_display_full(K, a, b, s, t):
    # reference: the published triple sum read literally (outer sum over
    # i >= n kept), the evidence that this reading of the display disagrees
    # with fused_monodromy; not part of any verification suite
    out = {}
    for n in range(s + t + 1):
        for i in range(n, s + t + 1):
            for j in range(min(i, t) + 1):
                e = a * b + 2 * j * (j - 1) + (i - n - 1) * (i - n) - 2 * b * j + a * (n - 2 * i - t)
                coef = (
                    K.q_pow(e)
                    * K.xi() ** (i - j)
                    * K.q_binom(i, j)
                    * K.q_binom(s + t - j, s)
                    * K.q_binom(s + t - n, i - n)
                )
                for l in range(i - j):
                    coef = coef * K.q_int(l + j - b)
                if coef.is_zero():
                    continue
                key = two_vertex(a, b, s + t - n, n)
                if any(c >= K.p for c in key.crosses):
                    continue
                add_term(out, key, coef)
    return out


def test_monodromy_display_full_does_not_match():
    # the literal triple-sum reading of the published display disagrees; the
    # verified identity is its i = n slice (see monodromy_closed_form)
    K = cyclotomic_field(2)
    mismatch = 0
    for a in range(4):
        for b in range(4):
            for s in range(2):
                for t in range(2):
                    if fu.fused_monodromy(K, a, b, s, t) != monodromy_display_full(K, a, b, s, t):
                        mismatch += 1
    assert mismatch > 0


def test_fusion_table_keys_in_row_order():
    p = 3
    table = fu.fusion_table(p, range(4))
    assert list(table) == list(product(range(1, p + 1), range(4), range(1, p + 1), range(4)))
    # each value is the pair's sorted summand tuple
    for key, res in table.items():
        assert isinstance(res, tuple) and res == fu.fuse_closed(p, *key)
        assert all(isinstance(d, fu.ModuleDescriptor) for d in res)


def test_fusion_table_error_is_confined_to_its_pair(monkeypatch):
    p, bad = 3, (2, 1, 3, 0)
    clean = fu.fusion_table(p, range(4))
    closed = fu.fuse_closed

    def broken(p, *key):
        out = closed(p, *key)
        if key == bad:
            out = tuple(fu.ModuleDescriptor(d.kind, d.r, (d.nu + 1) % 4) for d in out)
        return out

    monkeypatch.setattr(fu, "fuse_closed", broken)
    table = fu.fusion_table(p, range(4))
    assert isinstance(table[bad], VerificationError)
    assert "fusion paths disagree" in str(table[bad])
    assert {k: v for k, v in table.items() if k != bad} == {
        k: v for k, v in clean.items() if k != bad
    }
