"""Multivertex Yetter-Drinfeld modules over the rank-1 Nichols algebra.

A basis vector carries n vertex charges (a_1, ..., a_n) and n cross counts
(s_1, ..., s_n), 0 <= s_i <= p-1, n <= 2; it is the screened vertex operator
with s_1 crosses, then vertex a_1, then s_2 crosses, then vertex a_2, and so
on.  The B_p action is the cumulative left adjoint action, the coaction is
deconcatenation up to the first vertex, and all braidings are diagonal with
scalar zeta^(charge * charge) where charge = sum(a_i) - 2 sum(s_i) (an F
counts as charge -2 per cross).

Closed forms implemented here, with xi = 1 - q^2 and [n] the q-integers:

  one vertex    F(r) |> V^a_s = c1(a, s, r) V^a_{s+r}
                c1(a, s, r) = [r+s over r] xi^r prod_{i=s}^{s+r-1} [i-a]

  two vertices  F(r) |> V^{a,b}_{s,t} = sum_u c^{a,b}_{s,t}(r,u) V^{a,b}_{s+r-u, t+u}
                c^{a,b}_{s,t}(r,u) = q^{u(2s-a)} c1(a+b-2t-u, s, r-u) c1(b, t, u),
                as F(r) acts through Delta F(r) = sum_u F(r-u) (x) F(u)

Charges are stored as plain integers.  Reduction mod p (module-comodule data),
mod 2p (action signs) and mod 4p (braiding) happens at the point of use.

Sparse containers (the vocabulary add_term, linear_extend, scale and vec_sub
lives in linalg, as does VerificationError; every module map is a basis map
passed to linear_extend):
  YDVec     = dict[BasisVector, CycNum]
  TensorVec = dict[(BasisVector, BasisVector), CycNum]   for Y (x) Z
  elements of B_p (x) M are dict[(int, BasisVector), CycNum]
  the coaction of v is dict[degree, YDVec or TensorVec], {r: v_r} for
  delta v = sum_r F(r) (x) v_r, holding no empty component
No container stores a zero coefficient (add_term drops one), so == is their
equality.
"""

from __future__ import annotations

from typing import NamedTuple

from .cyclo import CycField, CycNum
from .linalg import VerificationError, add_term, linear_extend
from . import nichols


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
    """Insert a term by add_term, dropping out-of-range cross counts.

    The closed forms only ever emit s_i >= p together with a vanishing
    q-binomial; a nonzero coefficient there is a transcription defect and
    raises VerificationError.
    """
    if max(bv.crosses) >= K.p:
        if not coef.is_zero():
            raise VerificationError(f"nonzero coefficient on out-of-range {bv}")
        return
    add_term(out, bv, coef)


def _c1(K: CycField, a: int, s: int, r: int) -> CycNum:
    """Coefficient of F(r) |> V^a_s (the one-vertex closed form); memoized on
    the field in K._c2, the one memo of the action coefficients.

    a enters only through the q-integers [i-a], and [n] depends only on n mod p
    (q^{2p} = 1), so the memo is keyed by (a mod p, s, r).
    """
    key = (a % K.p, s, r)
    v = K._c2.get(key)
    if v is None:
        v = K.xi() ** r * K.q_binom(r + s, r)
        for i in range(s, s + r):
            v = v * K.q_int(i - a)
        K._c2[key] = v
    return v


def _c2(K: CycField, a: int, b: int, s: int, t: int, r: int, u: int) -> CycNum:
    """Two-vertex action coefficient c^{a,b}_{s,t}(r,u), 0 <= u <= r, from two _c1
    factors; c1(b, t, u) comes first, as it is zero whenever t+u >= p and a
    product with zero skips the product memo."""
    return _c1(K, b, t, u) * K.q_pow(u * (2 * s - a)) * _c1(K, a + b - 2 * t - u, s, r - u)


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
    """F(r) |> bv by the closed forms, for 0 <= r <= p-1.

    One-vertex images (r >= 1) are memoized on the field in K._act, keyed by
    (r, bv), and the same dict is returned on every call: callers read it and
    never mutate it.  Two-vertex images are rebuilt on each call: there are
    far more of them (7,060 images of every sector after verify --p 5 --suite
    all, against 460 one-vertex ones), and caching them all raised that
    command's peak RSS by 12 %.
    """
    if not 0 <= r <= K.p - 1:
        raise ValueError(f"F({r}) is outside the basis for p={K.p}")
    if r == 0:
        return {bv: K.one}
    n = bv.nvertex
    if n == 1:
        out = K._act.get((r, bv))
        if out is None:
            out = {}
            a, s = bv.charges[0], bv.crosses[0]
            _put(K, out, BasisVector(bv.charges, (s + r,)), _c1(K, a, s, r))
            K._act[(r, bv)] = out
        return out
    out = {}
    if n == 2:
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


def coact(K: CycField, v: dict) -> dict:
    """delta(v) = sum_r F(r) (x) v_r, as {r: v_r}."""
    comps = {}
    for bv, c in v.items():
        for r, bw in coact_basis(bv):
            add_term(comps.setdefault(r, {}), bw, c)
    return {r: comp for r, comp in comps.items() if comp}


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


def tensor_coact(K: CycField, x: dict) -> dict:
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
                add_term(comps.setdefault(g + k, {}), (wy, wz), coef)
    return {r: comp for r, comp in comps.items() if comp}


def _is_tensor(v: dict) -> bool:
    """Whether v is a TensorVec (keys are pairs) rather than a YDVec."""
    return any(not isinstance(k, BasisVector) for k in v)


def commutes_with_coaction(K: CycField, f, x: dict) -> bool:
    """delta(f(x)) == (id (x) f)(delta x), compared degree by degree.

    The coaction on the source of f is read off x: tensor_coact for a
    TensorVec, coact otherwise.  Empty components are dropped on both sides.
    """
    coact_fn = tensor_coact if _is_tensor(x) else coact
    rhs = {r: fc for r, comp in coact_fn(K, x).items() if (fc := f(comp))}
    return coact(K, f(x)) == rhs


# ---------------------------------------------------------------------------
# category braiding of Yetter-Drinfeld modules


def braid_B(K: CycField, x: dict, images: dict | None = None) -> dict:
    """B(y (x) z) = sum psi(y_0, z) (y_{-1} |> z) (x) y_0, a map Y(x)Z -> Z(x)Y.

    images is linear_extend's dict of basis images, of braid_B only.
    """

    def image(key):
        by, bz = key
        chz = bz.charge
        return {  # one y_0 per g, so no two terms share a key
            (bw, wy): K.zeta_pow(wy.charge * chz) * d
            for g, wy in coact_basis(by)
            for bw, d in act_Fr_basis(K, g, bz).items()
        }

    return linear_extend(image, x, images)


def braid_B_inv(K: CycField, x: dict, images: dict | None = None) -> dict:
    """Inverse braiding Z(x)Y -> Y(x)Z, from the diagram with A^{-1}:

    B^{-1}(z (x) y) = psi(z, y)^{-1} sum_g psi(F(g), y_g) y_g (x) (A^{-1}(F(g)) |> z)

    with delta y = F(g) (x) y_g.  The three factors of a term, psi(z, y)^{-1},
    psi(F(g), y_g) and the inverse antipode coefficient (-1)^g q^{-g(g-1)},
    are zeta^{-ch(z) ch(y)} zeta^{2g ch(y_g)} zeta^{2g(p - g + 1)} (q^p = -1):
    one power of zeta, which multiplies the coefficient of F(g) |> z.  That
    this undoes B is a Gaussian-binomial identity (the alternating q-Pascal
    sum telescopes to zero in every degree above 0); it is asserted
    exhaustively in the tests.

    images is linear_extend's dict of basis images, of braid_B_inv only: its
    keys are pairs of basis vectors, as braid_B's are, so the two maps never
    share one dict.
    """
    p = K.p

    def image(key):
        bz, by = key
        chzy = bz.charge * by.charge
        return {  # one y_g per g, so no two terms share a key
            (wy, bw): K.zeta_pow(2 * g * (wy.charge + p - g + 1) - chzy) * d
            for g, wy in coact_basis(by)
            for bw, d in act_Fr_basis(K, g, bz).items()
        }

    return linear_extend(image, x, images)


def braid_B2(K: CycField, x: dict, images: dict | None = None) -> dict:
    """B(B(x)); both passes read and fill the one dict of braid_B images."""
    return braid_B(K, braid_B(K, x, images), images)


def braid_B2_onepass(K: CycField, x: dict) -> dict:
    """The double braiding evaluated from its single composite diagram
    (coaction twice on y, coproduct, coaction on z, antipode, three diagonal
    crossings, multiply, act).  Cross-check oracle for braid_B2.

    It reads only nichols.antipode_coeff, K.q_binom, coact_basis and
    act_Fr_basis, never braid_B, braid_B_inv or a closed form of B^2.  The
    scalars are folded where they are loop invariant: the coefficient of
    y (x) z times A(F(k)) times the coefficient of each term of F(k) |> y_00
    once per (m, k, term), and the three crossings psi(y_0, z),
    psi(F(m2), F(g)) and psi(F(m2) |> z_0, y_0) into one power of zeta,
    which keeps the product memo small.  Folding only regroups the products
    of each term; the diagram and its sum are unchanged.
    """
    out = {}
    for (by, bz), c in x.items():
        chy, chz = by.charge, bz.charge
        zco = coact_basis(bz)
        for m, y0 in coact_basis(by):
            chy0 = chy + 2 * m
            for k, y00 in coact_basis(y0):
                ca = c * nichols.antipode_coeff(K, k)
                lift = [(bw, ca * cw) for bw, cw in act_Fr_basis(K, k, y00).items()]
                if not lift:
                    continue
                for g, z0 in zco:
                    # [m1+g over m1] = 0 from m1 + g = p on
                    for m1 in range(min(m, K.p - 1 - g) + 1):
                        m2 = m - m1
                        wz = act_Fr_basis(K, m2, z0)
                        if not wz:
                            continue
                        # psi(y_0, z) psi(F(m2), F(g)) psi(F(m2) |> z_0, y_0)
                        e = chy0 * chz + 4 * m2 * g + (chz + 2 * g - 2 * m2) * chy0
                        cg = K.zeta_pow(e) * K.q_binom(m1 + g, m1)
                        for bw, cy in lift:
                            coef = cy * cg
                            for bu, cu in act_Fr_basis(K, m1 + g, bw).items():
                                cyu = coef * cu
                                for bz2, cz in wz.items():
                                    add_term(out, (bu, bz2), cyu * cz)
    return out


# ---------------------------------------------------------------------------
# ribbon map


def ribbon_scalar(K: CycField, x: int) -> CycNum:
    """The one-vertex twist q^{((x+1)^2 - 1)/2} = zeta^{x(x+2)} on V^x_s; the
    two-vertex ribbon map carries it as its prefactor."""
    return K.zeta_pow(x * (x + 2))


def ribbon(K: CycField, v: dict) -> dict:
    """theta on the two-vertex sector: the prefactor ribbon_scalar(a+b-2t)
    times the cross-moving sum over i with coefficient
    q^{-ia} xi^i [t+i over i] prod_{j<i} [t+j-b], which is the action
    coefficient c^{a,b}_{0,t}(i,i) (_c2).  Any other sector raises ValueError;
    the one-vertex twist is ribbon_scalar.
    """
    out = {}
    for bv, c in v.items():
        if bv.nvertex != 2:
            raise ValueError(f"ribbon is the two-vertex map; {bv} is not two-vertex")
        (a, b), (s, t) = bv.charges, bv.crosses
        pre = c * ribbon_scalar(K, a + b - 2 * t)
        for i in range(s + 1):
            coef = pre * _c2(K, a, b, 0, t, i, i)
            _put(K, out, BasisVector(bv.charges, (s - i, t + i)), coef)
    return out


# ---------------------------------------------------------------------------
# the Yetter-Drinfeld axiom


def yd_axiom_checks(K: CycField, v: dict):
    """(r, ok) for r = 0..p-1: both sides of the Yetter-Drinfeld axiom for
    F(r) on v, compared exactly in B_p (x) M as {(degree, key): coeff}.

    For n + m = r the left side reads delta(F(n) |> v) = sum_g F(g) (x) w_g,
    the right side F(n) |> v_g over delta(v) = sum_g F(g) (x) v_g; both land
    in degree g + m with the factor [g+m over g].  v may be a module vector
    or a tensor (dispatch on the key shape).  Each image is built once, at
    r = n, and lives only as long as the generator, so a VerificationError
    from _put surfaces at the first instance that needs the image.
    """
    tensor = _is_tensor(v)
    act_fn = tensor_act_Fr if tensor else act_Fr
    coact_fn = tensor_coact if tensor else coact
    comps = coact_fn(K, v)
    left, right = [], []  # indexed by n
    for r in range(K.p):
        left.append(coact_fn(K, act_fn(K, r, v)))
        right.append({g: act_fn(K, r, comp) for g, comp in comps.items()})
        lhs, rhs = {}, {}
        for n in range(r + 1):
            m = r - n
            for side, images in ((lhs, left[n]), (rhs, right[n])):
                for g, comp in images.items():
                    if g + m >= K.p:
                        continue  # [g+m over g] = 0 there
                    qb = K.q_binom(g + m, g)
                    for key, c in comp.items():
                        if side is rhs:
                            e = 2 * n * g  # psi(F(n), F(g))
                        else:  # psi(F(m), v) psi(w_g, F(m)); v sits 2(n - g) lower
                            ch = key[0].charge + key[1].charge if tensor else key.charge
                            e = -2 * m * (ch + n - g)
                        add_term(side, (g + m, key), c * K.q_pow(e) * qb)
        yield r, lhs == rhs
