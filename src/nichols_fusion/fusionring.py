"""The abstract 2p-dimensional fusion ring on generators X(r)_nu, nu in Z_2.

Integer structure constants; the basis product is

    X(r1)_{n1} X(r2)_{n2} = sum_{s=|r1-r2|+1, step 2}^{p-1-|r1+r2-p|} X(s)_{n1+n2}
                          + sum_{s=2p-r1-r2+1, step 2}^{p} P(s)_{n1+n2}

with the derived symbol P(s)_n = 2 X(s)_n + 2 X(p-s)_{n+1} for s < p and
P(p)_n = X(p)_n, expanded eagerly so products stay in the X basis.  Elements
are dicts {(r, nu): int} with nu in {0, 1}.
"""

from __future__ import annotations

from itertools import product

from .fusion import fusion_table


def x_gen(p: int, r: int, nu: int) -> dict:
    if not 1 <= r <= p:
        raise ValueError(f"r={r} out of range for p={p}")
    return {(r, nu % 2): 1}


def p_expand(p: int, s: int, nu: int) -> dict:
    if s == p:
        return {(p, nu % 2): 1}
    return {(s, nu % 2): 2, (p - s, (nu + 1) % 2): 2}


def _basis_product(p: int, r1: int, nu1: int, r2: int, nu2: int) -> dict:
    nu = (nu1 + nu2) % 2
    out: dict = {}
    for s in range(abs(r1 - r2) + 1, p - abs(r1 + r2 - p), 2):
        out[(s, nu)] = out.get((s, nu), 0) + 1
    for s in range(2 * p - r1 - r2 + 1, p + 1, 2):
        for key, m in p_expand(p, s, nu).items():
            out[key] = out.get(key, 0) + m
    return out


def ring_multiply(p: int, x: dict, y: dict) -> dict:
    out: dict = {}
    for (r1, nu1), m1 in x.items():
        for (r2, nu2), m2 in y.items():
            for key, m in _basis_product(p, r1, nu1, r2, nu2).items():
                c = out.get(key, 0) + m1 * m2 * m
                if c:
                    out[key] = c
                else:
                    out.pop(key, None)
    return out


def basis(p: int):
    return [(r, nu) for nu in (0, 1) for r in range(1, p + 1)]


def verify_ring(p: int) -> dict:
    """The ring axioms, per property an iterable of (label, ok) instances:
    the unit, the simple-current square, the Z_2 action and positivity are
    one instance each; commutativity and associativity are one instance per
    ordered basis triple."""
    gens = basis(p)
    unit, current = x_gen(p, 1, 0), x_gen(p, 1, 1)

    def mul(x, y):
        return ring_multiply(p, x, y)

    def triples(other):
        # (g1 g2) g3 against the other side, for every ordered triple
        for g1, g2 in product(gens, repeat=2):
            pr = mul({g1: 1}, {g2: 1})
            for g3 in gens:
                yield (g1, g2, g3), mul(pr, {g3: 1}) == other(g1, g2, g3, pr)

    return {
        "unit": [("X(1)_0 g = g", all(mul(unit, {g: 1}) == {g: 1} for g in gens))],
        "simple_current": [("X(1)_1^2 = X(1)_0", mul(current, current) == {(1, 0): 1})],
        # at g1 = X(1)_0 this compares g2 g3 with g3 g2 for every pair
        "commutative": triples(lambda g1, g2, g3, pr: mul({g3: 1}, pr)),
        "associative": triples(lambda g1, g2, g3, pr: mul({g1: 1}, mul({g2: 1}, {g3: 1}))),
        # the Z_2 structure: multiplying by the simple current X(1)_1 shifts nu
        # by one on every basis element (the P expansion itself mixes parities,
        # so nu is not a grading of the expanded ring; the Z_2 symmetry is this)
        "z2_action": [(
            "X(1)_1 X(r)_nu = X(r)_{nu+1}",
            all(mul(current, {(r, nu): 1}) == {(r, (nu + 1) % 2): 1} for r, nu in gens),
        )],
        "positive": [(
            "g1 g2 >= 0",
            all(
                m >= 0
                for g1, g2 in product(gens, repeat=2)
                for m in mul({g1: 1}, {g2: 1}).values()
            ),
        )],
    }


def verify_against_fusion(p: int):
    """Module-level fusion (dimension data forgotten, nu taken mod 2) must
    reproduce the ring product: one (label, ok) per ordered pair of simples;
    a pair whose two fusion paths disagree fails."""
    for key, res in fusion_table(p, range(4)).items():
        if not isinstance(res, tuple):
            yield key, False
            continue
        img: dict = {}
        for d in res:
            terms = p_expand(p, d.r, d.nu) if d.kind == "P" else {(d.r, d.nu % 2): 1}
            for k, m in terms.items():
                img[k] = img.get(k, 0) + m
        r1, nu1, r2, nu2 = key
        yield key, img == ring_multiply(p, x_gen(p, r1, nu1), x_gen(p, r2, nu2))
