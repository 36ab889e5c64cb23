"""Multivertex Yetter-Drinfeld modules over the rank-1 Nichols algebra.

A basis vector carries n vertex charges (a_1, ..., a_n) and n cross counts
(s_1, ..., s_n), 0 <= s_i <= p-1, n <= 2; it is the screened vertex operator
with s_1 crosses, then vertex a_1, then s_2 crosses, then vertex a_2, and so
on.  The B_p action is the cumulative left adjoint action, the coaction is
deconcatenation up to the first vertex, and all braidings are diagonal with
scalar zeta^(charge * charge) where charge = sum(a_i) - 2 sum(s_i) (an F
counts as charge -2 per cross).

Closed forms implemented here, with xi = 1 - q^2 and [n] the q-integers:

  one vertex    F(r) |> V^a_s = [r+s over r] xi^r prod_{i=s}^{s+r-1} [i-a] V^a_{s+r}

  two vertices  F(r) |> V^{a,b}_{s,t} = sum_u c^{a,b}_{s,t}(r,u) V^{a,b}_{s+r-u, t+u}
                c^{a,b}_{s,t}(r,u) = xi^r q^{u(2s-a)} [s+r-u over r-u] [t+u over u]
                                     prod_{i=u}^{r-1} [s+i+2t-a-b] prod_{j=0}^{u-1} [t+j-b]

Charges are stored as plain integers.  Reduction mod p (module-comodule data),
mod 2p (action signs) and mod 4p (braiding) happens at the point of use.

Sparse containers (the vocabulary add_term, linear_extend, scale, vec_sub and
vec_eq lives in linalg and is re-exported here; every module map is a basis
map passed to linear_extend):
  YDVec     = dict[BasisVector, CycNum]
  TensorVec = dict[(BasisVector, BasisVector), CycNum]   for Y (x) Z
  elements of B_p (x) M are dict[(int, BasisVector), CycNum]
"""

from __future__ import annotations

from typing import NamedTuple

from .cyclo import CycField, CycNum
from .linalg import add_term, linear_extend, scale, vec_sub, vec_eq
from . import nichols


class VerificationError(AssertionError):
    """A computed map breaks an identity the theory asserts.

    Raised explicitly, so ``python -O`` does not strip the check; verify
    suites count it as a failing instance.
    """


class BasisVector(NamedTuple):
    charges: tuple[int, ...]
    crosses: tuple[int, ...]

    @property
    def nvertex(self) -> int:
        return len(self.charges)

    @property
    def charge(self) -> int:
        return sum(self.charges) - 2 * sum(self.crosses)


def one_vertex(a: int, s: int) -> BasisVector:
    return BasisVector((a,), (s,))


def two_vertex(a: int, b: int, s: int, t: int) -> BasisVector:
    """V^{a,b}_{s,t}: s crosses, vertex a, t crosses, vertex b."""
    return BasisVector((a, b), (s, t))


def _put(K, out, bv, coef):
    """Insert a term, dropping out-of-range cross counts.

    The closed forms only ever emit s_i >= p together with a vanishing
    q-binomial; a nonzero coefficient there is a transcription defect and
    raises VerificationError.
    """
    if any(s >= K.p for s in bv.crosses):
        if not coef.is_zero():
            raise VerificationError(f"nonzero coefficient on out-of-range {bv}")
        return
    if not coef.is_zero():
        add_term(out, bv, coef)


def _c1(K: CycField, a: int, s: int, r: int) -> CycNum:
    """Coefficient of F(r) |> V^a_s (the one-vertex closed form); memoized on
    the field.

    Depends on a only through the q-integers [i - a], and [n] depends only on
    n mod p (q^{2p} = zeta^{4p} = 1), so the cache is keyed by (a mod p, s, r).
    """
    key = (a % K.p, s, r)
    v = K._c1.get(key)
    if v is None:
        v = K.q_binom(r + s, r) * K.xi_pow(r)
        for i in range(s, s + r):
            v = v * K.q_int(i - a)
        K._c1[key] = v
    return v


def _c2(K: CycField, a: int, b: int, s: int, t: int, r: int, u: int) -> CycNum:
    """Two-vertex action coefficient c^{a,b}_{s,t}(r,u); memoized on the field.

    Depends on a mod 2p and on b mod p, which keys the cache.
    """
    key = (a % (2 * K.p), b % K.p, s, t, r, u)
    v = K._c2.get(key)
    if v is None:
        v = K.xi_pow(r) * K.q_pow(u * (2 * s - a))
        v = v * K.q_binom(s + r - u, r - u) * K.q_binom(t + u, u)
        for i in range(u, r):
            v = v * K.q_int(s + i + 2 * t - a - b)
        for j in range(u):
            v = v * K.q_int(t + j - b)
        K._c2[key] = v
    return v


def act_F_basis(K: CycField, bv: BasisVector) -> dict:
    """Left adjoint action of F = F(1) on a basis vector (n <= 2)."""
    a = bv.charges
    s = bv.crosses
    xi = K.xi()
    out = {}
    n = len(a)
    if n == 1:
        coef = xi * K.q_int(s[0] - a[0]) * K.q_int(s[0] + 1)
        _put(K, out, BasisVector(a, (s[0] + 1,)), coef)
    elif n == 2:
        c1 = xi * K.q_int(s[0] + 2 * s[1] - a[0] - a[1]) * K.q_int(s[0] + 1)
        _put(K, out, BasisVector(a, (s[0] + 1, s[1])), c1)
        c2 = xi * K.q_pow(2 * s[0] - a[0]) * K.q_int(s[1] - a[1]) * K.q_int(s[1] + 1)
        _put(K, out, BasisVector(a, (s[0], s[1] + 1)), c2)
    else:
        raise ValueError("only 1- and 2-vertex sectors are supported")
    return out


def act_F(K: CycField, v: dict) -> dict:
    return linear_extend(lambda bv: act_F_basis(K, bv), v)


def act_Fr_basis(K: CycField, r: int, bv: BasisVector) -> dict:
    if not 0 <= r <= K.p - 1:
        raise ValueError(f"F({r}) is outside the basis for p={K.p}")
    if r == 0:
        return {bv: K.one}
    n = bv.nvertex
    out = {}
    if n == 1:
        a, s = bv.charges[0], bv.crosses[0]
        _put(K, out, BasisVector(bv.charges, (s + r,)), _c1(K, a, s, r))
    elif n == 2:
        (a, b), (s, t) = bv.charges, bv.crosses
        for u in range(r + 1):
            _put(
                K,
                out,
                BasisVector(bv.charges, (s + r - u, t + u)),
                _c2(K, a, b, s, t, r, u),
            )
    else:
        raise ValueError("only 1- and 2-vertex sectors are supported")
    return out


def act_Fr(K: CycField, r: int, v: dict) -> dict:
    return linear_extend(lambda bv: act_Fr_basis(K, r, bv), v)


def coact_basis(bv: BasisVector) -> list[tuple[int, BasisVector]]:
    """Deconcatenation up to the first vertex: all coefficients are 1."""
    s1 = bv.crosses[0]
    rest = bv.crosses[1:]
    return [
        (r, BasisVector(bv.charges, (s1 - r,) + rest)) for r in range(s1 + 1)
    ]


def coact(K: CycField, v: dict) -> list[tuple[int, dict]]:
    """delta(v) = sum_r F(r) (x) component_r, as a list of (r, YDVec)."""
    comps = {}
    for bv, c in v.items():
        for r, bw in coact_basis(bv):
            add_term(comps.setdefault(r, {}), bw, c)
    return sorted((r, comp) for r, comp in comps.items() if comp)


def is_coinvariant(v: dict) -> bool:
    """Left coinvariant: delta v = 1 (x) v, i.e. no crosses before the first vertex."""
    return all(bv.crosses[0] == 0 for bv in v)


def act_by_coaction(K: CycField, bv: BasisVector, weight) -> dict:
    """sum_g weight(g, y_g) F(g) |> y_g over delta(bv) = sum_g F(g) (x) y_g.

    F(g) |> y_g is not computed where the weight is zero.
    """
    terms = {key: weight(*key) for key in coact_basis(bv)}
    terms = {key: w for key, w in terms.items() if not w.is_zero()}
    return linear_extend(lambda key: act_Fr_basis(K, *key), terms)


# ---------------------------------------------------------------------------
# tensor products of Yetter-Drinfeld modules (diagonal action and coaction)


def tensor_act_Fr(K: CycField, n: int, x: dict) -> dict:
    """F(n) |> (y (x) z) = sum (F(n1) |> y) (x) (F(n2) |> z) with the braiding
    scalar from pushing F(n2) past y."""

    def image(key):
        by, bz = key
        out = {}
        for n1 in range(n + 1):
            wy = act_Fr_basis(K, n1, by)
            if not wy:
                continue  # F(n2) |> z is not needed then
            coef = K.q_pow((n1 - n) * by.charge)
            wz = act_Fr_basis(K, n - n1, bz)
            # F(n1) raises y's total cross count by n1, so no two n1 share a key
            out.update(
                ((b1, b2), coef * c1 * c2) for b1, c1 in wy.items() for b2, c2 in wz.items()
            )
        return out

    return linear_extend(image, x)


def tensor_coact(K: CycField, x: dict) -> list[tuple[int, dict]]:
    """delta(y (x) z) = sum (y_{-1} z_{-1}) (x) (y_0 (x) z_0), braiding z's leg
    past y_0; F(g) F(k) = [g+k over g] F(g+k)."""
    comps = {}
    for (by, bz), c in x.items():
        for g, wy in coact_basis(by):
            chy = wy.charge
            for k, wz in coact_basis(bz):
                if g + k >= K.p:
                    continue  # [g+k over g] = 0 there
                coef = c * K.q_pow(-k * chy) * K.q_binom(g + k, g)
                if not coef.is_zero():
                    add_term(comps.setdefault(g + k, {}), (wy, wz), coef)
    return sorted((r, comp) for r, comp in comps.items() if comp)


def commutes_with_coaction(K: CycField, f, x: dict, coact_fn=coact) -> bool:
    """delta(f(x)) == (id (x) f)(delta x), compared degree by degree.

    coact_fn is the coaction on the source of f (tensor_coact for a map out of
    a tensor product); empty components are dropped on both sides.
    """
    lhs = dict(coact(K, f(x)))
    rhs = {r: fc for r, comp in coact_fn(K, x) if (fc := f(comp))}
    return lhs.keys() == rhs.keys() and all(vec_eq(lhs[r], rhs[r]) for r in lhs)


# ---------------------------------------------------------------------------
# category braiding of Yetter-Drinfeld modules


def braid_B(K: CycField, x: dict) -> dict:
    """B(y (x) z) = sum psi(y_0, z) (y_{-1} |> z) (x) y_0, a map Y(x)Z -> Z(x)Y."""

    def image(key):
        by, bz = key
        chz = bz.charge
        return {  # one y_0 per g, so no two terms share a key
            (bw, wy): K.zeta_pow(wy.charge * chz) * d
            for g, wy in coact_basis(by)
            for bw, d in act_Fr_basis(K, g, bz).items()
        }

    return linear_extend(image, x)


def braid_B_inv(K: CycField, x: dict) -> dict:
    """Inverse braiding Z(x)Y -> Y(x)Z, from the diagram with A^{-1}:

    B^{-1}(z (x) y) = psi(z, y)^{-1} sum_g psi(F(g), y_g) y_g (x) (A^{-1}(F(g)) |> z)

    with delta y = F(g) (x) y_g.  That this undoes B is a Gaussian-binomial
    identity (the alternating q-Pascal sum telescopes to zero in every degree
    above 0); it is asserted exhaustively in the tests.
    """

    def image(key):
        bz, by = key
        c0 = K.zeta_pow(-bz.charge * by.charge)
        return {  # one y_g per g, so no two terms share a key
            (wy, bw): c0 * K.q_pow(g * wy.charge) * nichols.antipode_inv_coeff(K, g) * d
            for g, wy in coact_basis(by)
            for bw, d in act_Fr_basis(K, g, bz).items()
        }

    return linear_extend(image, x)


def braid_B2(K: CycField, x: dict) -> dict:
    return braid_B(K, braid_B(K, x))


def braid_B2_onepass(K: CycField, x: dict) -> dict:
    """The double braiding evaluated from its single composite diagram
    (coaction twice on y, coproduct, coaction on z, antipode, three diagonal
    crossings, multiply, act).  Cross-check oracle for braid_B2."""
    out = {}
    for (by, bz), c in x.items():
        chy, chz = by.charge, bz.charge
        for m, y0 in coact_basis(by):
            s1 = c * K.zeta_pow((chy + 2 * m) * chz)  # psi(y_0, z)
            for k, y00 in coact_basis(y0):
                ak = nichols.antipode_coeff(K, k)
                wylift = act_Fr_basis(K, k, y00)
                if not wylift:
                    continue
                for g, z0 in coact_basis(bz):
                    for m1 in range(m + 1):
                        m2 = m - m1
                        if m1 + g >= K.p:
                            continue
                        coef = (
                            s1
                            * ak
                            * K.q_pow(2 * m2 * g)  # psi(F(m2), F(g))
                            * K.zeta_pow((chz + 2 * g - 2 * m2) * (chy + 2 * m))
                            * K.q_binom(m1 + g, m1)
                        )
                        if coef.is_zero():
                            continue
                        wz = act_Fr_basis(K, m2, z0)
                        if not wz:
                            continue
                        for bw, cw in wylift.items():
                            for bu, cu in act_Fr_basis(K, m1 + g, bw).items():
                                for bz2, cz in wz.items():
                                    add_term(out, (bu, bz2), coef * cw * cu * cz)
    return out


# ---------------------------------------------------------------------------
# ribbon map


def ribbon(K: CycField, v: dict) -> dict:
    """theta on 1- and 2-vertex sectors.

    One vertex: theta V^a_s = q^{((a+1)^2 - 1)/2} V^a_s.
    Two vertices: the prefactor q^{((a+b-2t+1)^2 - 1)/2} times the cross-moving
    sum over i with coefficient q^{-ia} xi^i [t+i over i] prod_{j<i} [t+j-b],
    which is the action coefficient c^{a,b}_{0,t}(i,i) (_c2).
    """
    out = {}
    for bv, c in v.items():
        if bv.nvertex == 1:
            a = bv.charges[0]
            add_term(out, bv, c * K.zeta_pow(a * (a + 2)))
        elif bv.nvertex == 2:
            (a, b), (s, t) = bv.charges, bv.crosses
            x = a + b - 2 * t
            pre = c * K.zeta_pow(x * (x + 2))
            for i in range(s + 1):
                coef = pre * _c2(K, a, b, 0, t, i, i)
                _put(K, out, BasisVector(bv.charges, (s - i, t + i)), coef)
        else:
            raise ValueError("ribbon is implemented on 1- and 2-vertex sectors only")
    return out


# ---------------------------------------------------------------------------
# the Yetter-Drinfeld axiom


def yd_axiom_check(K: CycField, r: int, v: dict) -> bool:
    """Both sides of the Yetter-Drinfeld compatibility axiom for F(r),
    compared exactly.

    Works on plain module vectors and on tensor products (dispatch on the key
    shape).  Both sides land in B_p (x) M, encoded as {(degree, key): coeff}.
    """
    tensor = any(not isinstance(k, BasisVector) for k in v)
    act_fn = tensor_act_Fr if tensor else act_Fr
    coact_fn = tensor_coact if tensor else coact
    lhs = {}
    for n1 in range(r + 1):
        n2 = r - n1
        w = act_fn(K, n1, v)
        for g, comp in coact_fn(K, w):
            for key, c in comp.items():
                chw = key.charge if isinstance(key, BasisVector) else key[0].charge + key[1].charge
                # psi(F(n2), v) and psi(w_component, F(n2)); v sits 2(n1 - g) lower
                coef = c * K.q_pow(-n2 * (chw + 2 * (n1 - g))) * K.q_pow(-n2 * chw)
                if g + n2 < K.p:
                    coef = coef * K.q_binom(g + n2, g)
                    add_term(lhs, (g + n2, key), coef)
    rhs = {}
    for g, comp in coact_fn(K, v):
        for n1 in range(r + 1):
            n2 = r - n1
            if n1 + g >= K.p:
                continue
            coef0 = K.q_pow(2 * n2 * g) * K.q_binom(n1 + g, n1)
            acted = act_fn(K, n2, comp)
            for key, c in acted.items():
                add_term(rhs, (n1 + g, key), coef0 * c)
    return vec_eq(lhs, rhs)
