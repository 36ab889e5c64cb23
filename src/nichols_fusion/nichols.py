"""The rank-1 Nichols algebra B_p as a braided Hopf algebra.

B_p is spanned by divided powers F(0), ..., F(p-1) of a single primitive
element F = F(1), with F(r) = F^r / [r]! and F^p = 0.  The closed forms are

    F(r) F(s)   = [r+s over r] F(r+s)          (vanishes for r+s >= p)
    Delta F(r)  = sum_{s=0}^{r} F(s) (x) F(r-s)
    A(F(r))     = (-1)^r q^{r(r-1)} F(r) = q^{r(r-1) + pr} F(r)   (q^p = -1)

with the self-braiding Psi(F(r) (x) F(s)) = q^{2rs} F(s) (x) F(r).

Elements are sparse dicts {degree: CycNum}; elements of B_p (x) B_p are dicts
{(degree, degree): CycNum}.  The shuffle and half-twist oracles re-derive the
product and antipode coefficients from first principles at the braid-group
level, by brute enumeration; they are cross-checks, not the production path.
"""

from __future__ import annotations

from itertools import combinations

from .cyclo import CycField, CycNum
from .linalg import VerificationError, linear_extend


def f_elt(K: CycField, r: int) -> dict:
    """The basis element F(r), 0 <= r <= p-1."""
    if not 0 <= r <= K.p - 1:
        raise ValueError(f"F({r}) is outside the basis for p={K.p}")
    return {r: K.one}


def product(K: CycField, x: dict, y: dict) -> dict:
    """F(r) F(s) = [r+s over r] F(r+s), extended bilinearly."""

    def times_y(r):
        # [r+s over r] vanishes at r+s >= p, where F(r+s) leaves the basis
        return {r + s: K.q_binom(r + s, r) * cy for s, cy in y.items() if r + s < K.p}

    return linear_extend(times_y, x)


def coproduct(K: CycField, x: dict) -> dict:
    """Deconcatenation: Delta F(r) = sum F(s) (x) F(r-s), as {(s, r-s): coeff}."""
    return linear_extend(lambda r: {(s, r - s): K.one for s in range(r + 1)}, x)


def antipode_coeff(K: CycField, r: int) -> CycNum:
    """(-1)^r q^{r(r-1)} = q^{r(r-1) + pr}."""
    return K.q_pow(r * (r - 1) + K.p * r)


def antipode(K: CycField, x: dict) -> dict:
    return {r: antipode_coeff(K, r) * c for r, c in x.items()}


def tensor_square_product(K: CycField, xy: dict, zw: dict) -> dict:
    """Braided product on B_p (x) B_p: (a (x) b)(c (x) d) = Psi(b,c) ac (x) bd.

    Psi between the middle factors contributes q^{2 * deg(b) * deg(c)}.  Needed
    only for the bialgebra axiom Delta(xy) = Delta(x) Delta(y).
    """

    def times_zw(key):
        a, b = key
        return {
            (a + c, b + d): K.q_pow(2 * b * c) * K.q_binom(a + c, a) * K.q_binom(b + d, b) * czw
            for (c, d), czw in zw.items()
            if a + c < K.p and b + d < K.p
        }

    return linear_extend(times_zw, xy)


def shuffle_product_oracle(K: CycField, r: int, s: int) -> CycNum:
    """Evaluate the quantum shuffle of F^{(x)r} with F^{(x)s} by brute force.

    On the one-dimensional braided space with Psi(F (x) F) = q^2 F (x) F, each
    (r, s)-shuffle contributes q^{2 * inversions}.  The result must equal the
    Gaussian binomial [r+s over r].  Exponential enumeration; keep r+s small.
    """
    if r < 0 or s < 0:
        raise ValueError("need r, s >= 0")
    total = K.zero
    n = r + s
    for positions in combinations(range(n), r):
        inversions = sum(pos - k for k, pos in enumerate(positions))
        total = total + K.q_pow(2 * inversions)
    return total


def half_twist_oracle(K: CycField, r: int) -> CycNum:
    """Evaluate the half-twist braid word Psi_1 (Psi_2 Psi_1) ... on F^{(x)r}.

    The word is the Matsumoto lift of the longest element of S_r; we apply the
    generators one by one to a word of r identical letters, tracking the scalar
    picked up at each crossing.  The overall sign comes from contour reversal.
    Must reproduce the antipode coefficient (-1)^r q^{r(r-1)}.
    """
    word = list(range(r))
    scalar = K.one
    for block in range(1, r):
        for i in range(block, 0, -1):
            word[i - 1], word[i] = word[i], word[i - 1]
            scalar = scalar * K.q_pow(2)
    if word != list(reversed(range(r))):
        raise VerificationError(f"the half-twist word on {r} letters is not the reversal")
    return scalar if r % 2 == 0 else -scalar
