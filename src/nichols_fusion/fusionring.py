"""The abstract 2p-dimensional fusion ring on generators X(r)_nu, nu in Z_2.

Integer structure constants, read from the fusion theorem: the basis product
X(r1)_{n1} X(r2)_{n2} is the summand tuple of fusion.fuse_closed as a ring
element, with each summand's nu taken mod 2 and each derived symbol
P(s)_n = 2 X(s)_n + 2 X(p-s)_{n+1} (s < p; P(p)_n = X(p)_n) expanded eagerly
by p_expand, so products stay in the X basis.  Elements are dicts
{(r, nu): int} with nu in {0, 1}.  verify_against_fusion checks the ring
against fusion.fuse_brute, the decomposition of the fused image, which
restates none of the sums.
"""

from __future__ import annotations

from itertools import product

from . import fusion as fu
from .cyclo import cyclotomic_field
from .linalg import VerificationError


def x_gen(p: int, r: int, nu: int) -> dict:
    if not 1 <= r <= p:
        raise ValueError(f"r={r} out of range for p={p}")
    return {(r, nu % 2): 1}


def p_expand(p: int, s: int, nu: int) -> dict:
    if s == p:
        return {(p, nu % 2): 1}
    return {(s, nu % 2): 2, (p - s, (nu + 1) % 2): 2}


def ring_element(p: int, summands) -> dict:
    """A tuple of fusion summands as a ring element: nu mod 2, P expanded."""
    out: dict = {}
    for d in summands:
        terms = p_expand(p, d.r, d.nu) if d.kind == "P" else {(d.r, d.nu % 2): 1}
        for key, m in terms.items():
            out[key] = out.get(key, 0) + m
    return out


def _basis_product(p: int, r1: int, nu1: int, r2: int, nu2: int) -> dict:
    return ring_element(p, fu.fuse_closed(p, r1, nu1, r2, nu2))


def _bilinear(basis_product, x: dict, y: dict) -> dict:
    """x y from basis_product(g1, g2).  Every structure constant counts
    fuse_closed summands and every element the program multiplies has
    positive multiplicities, so no coefficient sums to zero."""
    out: dict = {}
    for g1, m1 in x.items():
        for g2, m2 in y.items():
            for key, m in basis_product(g1, g2).items():
                out[key] = out.get(key, 0) + m1 * m2 * m
    return out


def ring_multiply(p: int, x: dict, y: dict) -> dict:
    return _bilinear(lambda g1, g2: _basis_product(p, *g1, *g2), x, y)


def basis(p: int):
    return [(r, nu) for nu in (0, 1) for r in range(1, p + 1)]


def verify_ring(p: int) -> dict:
    """The ring axioms, per property a list of (label, ok) instances: the
    unit, the simple-current square, the Z_2 action and positivity are one
    instance each; commutativity and associativity are one instance per
    ordered basis triple.  Every property reads the (2p)^2 basis products
    from one table."""
    gens = basis(p)
    table = {(g1, g2): _basis_product(p, *g1, *g2) for g1, g2 in product(gens, repeat=2)}
    unit, current = (1, 0), (1, 1)

    def mul(x, y):
        return _bilinear(lambda g1, g2: table[g1, g2], x, y)

    # (g1 g2) g3, the left side of both commutativity and associativity
    left = {(g1, g2, g3): mul(table[g1, g2], {g3: 1}) for g1, g2, g3 in product(gens, repeat=3)}
    return {
        "unit": [("X(1)_0 g = g", all(table[unit, g] == {g: 1} for g in gens))],
        "simple_current": [("X(1)_1^2 = X(1)_0", table[current, current] == {unit: 1})],
        # at g1 = X(1)_0 this compares g2 g3 with g3 g2 for every pair
        "commutative": [((g1, g2, g3), pr == mul({g3: 1}, table[g1, g2]))
                        for (g1, g2, g3), pr in left.items()],
        "associative": [((g1, g2, g3), pr == mul({g1: 1}, table[g2, g3]))
                        for (g1, g2, g3), pr in left.items()],
        # the Z_2 structure: multiplying by the simple current X(1)_1 shifts nu
        # by one on every basis element (the P expansion itself mixes parities,
        # so nu is not a grading of the expanded ring; the Z_2 symmetry is this)
        "z2_action": [(
            "X(1)_1 X(r)_nu = X(r)_{nu+1}",
            all(table[current, (r, nu)] == {(r, (nu + 1) % 2): 1} for r, nu in gens),
        )],
        "positive": [("g1 g2 >= 0", all(m >= 0 for pr in table.values() for m in pr.values()))],
    }


def verify_against_fusion(p: int):
    """The ring product of every ordered pair of simples X(r)_nu, nu in
    [0, 4), against the summands that fusion.fuse_brute finds in the fused
    image, as a ring element: one (label, ok) per pair, in fusion_table's
    order; a pair whose decomposition raises fails."""
    K = cyclotomic_field(p)
    for key in product(range(1, p + 1), range(4), repeat=2):
        try:
            img = ring_element(p, fu.fuse_brute(K, *key))
        except VerificationError:
            yield key, False
            continue
        yield key, img == _basis_product(p, *key)
