from itertools import product

import pytest

from nichols_fusion import fusionring as fr
from nichols_fusion import loop as lp


def test_unit():
    for p in (2, 3, 7):
        for r in range(1, p + 1):
            for nu in (0, 1):
                x = fr.x_gen(p, r, nu)
                assert fr.ring_multiply(p, fr.x_gen(p, 1, 0), x) == x


def test_examples():
    assert fr.ring_multiply(2, fr.x_gen(2, 2, 0), fr.x_gen(2, 2, 0)) == {
        (1, 0): 2,
        (1, 1): 2,
    }
    assert fr.ring_multiply(3, fr.x_gen(3, 2, 0), fr.x_gen(3, 2, 0)) == {
        (1, 0): 1,
        (3, 0): 1,
    }


def test_simple_current():
    for p in (2, 3, 5):
        sq = fr.ring_multiply(p, fr.x_gen(p, 1, 1), fr.x_gen(p, 1, 1))
        assert sq == {(1, 0): 1}
        for r in range(1, p + 1):
            for nu in (0, 1):
                assert fr.ring_multiply(p, fr.x_gen(p, 1, 1), fr.x_gen(p, r, nu)) == {
                    (r, (nu + 1) % 2): 1
                }


def test_p_expand():
    assert fr.p_expand(3, 3, 0) == {(3, 0): 1}
    assert fr.p_expand(3, 1, 1) == {(1, 1): 2, (2, 0): 2}


def test_out_of_range():
    with pytest.raises(ValueError):
        fr.x_gen(3, 4, 0)


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_verify_ring(p):
    checks = {key: list(pairs) for key, pairs in fr.verify_ring(p).items()}
    assert all(ok for pairs in checks.values() for _, ok in pairs)
    triples = 8 * p**3
    assert {key: len(pairs) for key, pairs in checks.items()} == {
        "unit": 1, "simple_current": 1, "commutative": triples,
        "associative": triples, "z2_action": 1, "positive": 1,
    }


def test_structure_constants_nonnegative_dimension_graded():
    for p in (2, 3, 4):
        for g1 in fr.basis(p):
            for g2 in fr.basis(p):
                prod = fr.ring_multiply(p, {g1: 1}, {g2: 1})
                assert all(m > 0 for m in prod.values())
                # quantum-dimension consistency at the integer level: with
                # dim X(r) = r and P counted via its expansion, total is r1*r2
                total = sum(r * m for (r, _), m in prod.items())
                # the expansion double-counts: 2r + 2(p-r) = 2p for each P[r<p]
                assert total >= g1[0] * g2[0]


def _two_sums(p, r1, nu1, r2, nu2):
    """Reference form: the two step-2 sums of the fusion theorem in the ring,

        X(r1)_{n1} X(r2)_{n2} = sum_{s=|r1-r2|+1, step 2}^{p-1-|r1+r2-p|} X(s)_{n1+n2}
                              + sum_{s=2p-r1-r2+1, step 2}^{p} P(s)_{n1+n2},

    with P(s) expanded by p_expand (P(p) = X(p))."""
    nu = (nu1 + nu2) % 2
    out = {}
    for s in range(abs(r1 - r2) + 1, p - abs(r1 + r2 - p), 2):
        out[(s, nu)] = out.get((s, nu), 0) + 1
    for s in range(2 * p - r1 - r2 + 1, p + 1, 2):
        for key, m in fr.p_expand(p, s, nu).items():
            out[key] = out.get(key, 0) + m
    return out


@pytest.mark.parametrize("p", range(2, 13))
def test_basis_product_equals_the_two_sums(p):
    # the ring reads fuse_closed's summands; the sums are written out only here
    for g1, g2 in product(fr.basis(p), repeat=2):
        assert fr._basis_product(p, *g1, *g2) == _two_sums(p, *g1, *g2), (g1, g2)


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_against_module_fusion(p):
    checks = list(fr.verify_against_fusion(p))
    assert len(checks) == (4 * p) ** 2
    assert all(ok for _, ok in checks)


@pytest.mark.parametrize("p", [2, 3])
def test_against_lambda(p):
    checks = list(lp.verify_against_lambda(p))
    assert len(checks) == 2 * p * (2 * p) ** 2
    assert all(ok for _, ok in checks)
