"""Duality data, the squared relative antipode, and loop operators.

Duality is realized concretely: the dual basis of a one-vertex simple module
is identified with vectors of another one-vertex sector,

    U^a_s = (-1)^{a+s} q^{(s+1)(s+a-2)} V^{a-2+2p}_{p-1-s},

so evaluation and coevaluation stay inside the implemented sectors:

    <V^a_s, V^b_t>  = (-1)^s q^{-s^2+s(a-1)}  if s+t = p-1 and a+b = 2p-2 (mod 4p)
    coev(X^a)       = sum_s V^a_s (x) (-1)^{a+s} q^{(s+1)(s-a-2)} V^{2p-a-2}_{p-1-s}

coev is the TensorVec {(V^a_s, U^{-a}_s): c} read off the dual identification,
and ev pairs a TensorVec {(dual side, module side): c}; the loop weights, the
first-form oracle and the duality suite all go through these two.

The loop operator chi_Z runs Z along a loop around Y:  coevaluate Z,
double-braid Y past Z, apply the ribbon map and the squared relative antipode
sigma_2 to Z, braid Z past its dual with the plain diagonal braiding, and
evaluate.  On a simple Y the result is a scalar lambda; on a P module it is
lambda plus a nilpotent mu part mapping the top floor onto the bottom one.
Both claims are checked as one identity, chi = lambda * id + mu * N, on every
basis vector, with lambda and mu the closed forms (mu = 0 on a simple).

chi_apply evaluates this diagram as a partial trace over Z.  The evaluation
pairs the Z leg with u_s only where it came back to its starting cross count
s, so of B^2(y (x) z_s) only the z-diagonal block is needed: the second
braiding must hand back to y exactly the F(g) that the first one pushed onto
z.  Everything that then happens to z_s is one scalar per (b, g, ch(y_g)),
memoized on the field.  chi_apply_first_form composes the full maps of the
first diagram instead and is kept as the independent oracle.
"""

from __future__ import annotations

from .cyclo import CycField, CycNum, cyclotomic_field
from . import ydspace as yds
from . import nichols
from .classify import ModuleDescriptor


# ---------------------------------------------------------------------------
# evaluation / coevaluation


def ev_one_vertex(K: CycField, u: yds.BasisVector, v: yds.BasisVector) -> CycNum:
    """<V^a_s, V^b_t>, the pairing of a dual-side vector with a module vector."""
    (a,), (s,) = u
    (b,), (t,) = v
    if s + t != K.p - 1 or (a + b - (2 * K.p - 2)) % (4 * K.p) != 0:
        return K.zero
    coef = K.q_pow(-s * s + s * (a - 1))
    return -coef if s % 2 else coef


def ev(K: CycField, x: dict) -> CycNum:
    """The evaluation extended bilinearly to a TensorVec {(dual side, module side): c}."""
    return sum((c * ev_one_vertex(K, u, v) for (u, v), c in x.items()), K.zero)


def dual_identification_one_vertex(K: CycField, a: int, s: int):
    """U^a_s as (scalar, V-basis vector)."""
    coef = K.q_pow((s + 1) * (s + a - 2))
    if (a + s) % 2:
        coef = -coef
    return coef, yds.one_vertex(a - 2 + 2 * K.p, K.p - 1 - s)


def coev_one_vertex(K: CycField, a: int) -> dict:
    """coev of X^a as the TensorVec sum_s V^a_s (x) U^{-a}_s, each U^{-a}_s
    realized on the V basis by dual_identification_one_vertex."""
    duals = (dual_identification_one_vertex(K, -a, s) for s in range(a % K.p + 1))
    return {(yds.one_vertex(a, s), u): c for s, (c, u) in enumerate(duals)}


def dual_act_U(K: CycField, a: int, r: int, s: int) -> CycNum:
    """Coefficient of U^a_{s-r} in F(r) U^a_s (the induced action on the dual):
    q^{r(r-1) - ra - 2rs} (-1)^r times the one-vertex coefficient c1(-a, s-r, r)."""
    coef = K.q_pow(r * (r - 1) - r * a - 2 * r * s) * yds._c1(K, -a, s - r, r)
    return -coef if r % 2 else coef


def dual_coact_U(K: CycField, a: int, s: int):
    """delta U^a_s = sum_r (coef) F(r) (x) U^a_{s+r}, as a list of (r, coef)."""
    out = []
    for r in range(K.p - s):
        coef = K.q_pow(-r * a - 2 * s * r - r * (r - 1))
        out.append((r, -coef if r % 2 else coef))
    return out


def dual_identification_two_vertex(K: CycField, a: int, b: int, s: int, t: int):
    """U^{a,b}_{s,t} as (scalar, V-basis vector)."""
    coef = K.q_pow((t + s + 2) * (2 * a + b + t + s - 3))
    if (t + s) % 2:
        coef = -coef
    return coef, yds.two_vertex(a - 2, b - 2, K.p - 1 - s, K.p - 1 - t)


def dual_act_U2(K: CycField, a: int, b: int, s: int, t: int, r: int):
    """F(r) U^{a,b}_{s,t} = sum_u coef(u) U^{a,b}_{s-r+u, t-u}; list of (u, coef)."""
    from .ydspace import _c2

    out = []
    for u in range(r + 1):
        coef = K.q_pow(r * (r - 1) - r * (b + 2 * s + 2 * t)) * _c2(
            K, -a, -b, s - r + u, t - u, r, u
        )
        if s - r + u < 0 or t - u < 0:
            continue
        out.append((u, -coef if r % 2 else coef))
    return out


def dual_descriptor(p: int, desc: ModuleDescriptor) -> ModuleDescriptor:
    """Left dual: X(r)_nu -> X(r)_{-nu}; V[r]_nu -> V[p-r]_{-nu-1};
    P[r]_nu -> P[r]_{-2-nu} with relabeled coinvariant data."""
    if desc.kind in ("X", "S"):
        return ModuleDescriptor(desc.kind, desc.r, -desc.nu)
    if desc.kind == "V":
        return ModuleDescriptor("V", p - desc.r, -desc.nu - 1)
    if desc.kind == "P":
        labels = ()
        if len(desc.labels) == 3:
            a, t, b = desc.labels
            labels = (-a - 2, p - desc.r - t - 1, -b - 2)
        return ModuleDescriptor("P", desc.r, -2 - desc.nu, labels)
    raise ValueError(f"no duality data for {desc}")


# ---------------------------------------------------------------------------
# squared relative antipode


def sigma2_scalar_one_vertex(K: CycField, a: int, t: int) -> CycNum:
    """sigma_2 is diagonal on one-vertex vectors; the V^a_t eigenvalue
    sum_r A(r) c1(a, t-r, r), with A(r) the antipode coefficient."""
    total = K.zero
    for r in range(t + 1):
        total = total + nichols.antipode_coeff(K, r) * yds._c1(K, a, t - r, r)
    return total


# ---------------------------------------------------------------------------
# loop operators


def ribbon_scalar_one_vertex(K: CycField, a: int) -> CycNum:
    return K.zeta_pow(a * (a + 2))


def _loop_weights(K: CycField, b: int) -> tuple:
    """(s, ch(z_s), W_s) for each coevaluation term z_s (x) u_s of X^b, where

        W_s = theta_b * sigma_2(b, s) * zeta^{ch(z_s) ch(u_s)} * coev_s * <u_s, z_s>

    is everything the loop diagram does to z_s after the double braiding;
    memoized on the field (K._loop_W, keyed by b).
    """
    w = K._loop_W.get(b)
    if w is None:
        theta = ribbon_scalar_one_vertex(K, b)
        w = []
        for (z, u), c in coev_one_vertex(K, b).items():
            s = z.crosses[0]
            coef = theta * sigma2_scalar_one_vertex(K, b, s) * K.zeta_pow(z.charge * u.charge)
            w.append((s, z.charge, coef * ev(K, {(u, z): c})))
        w = K._loop_W[b] = tuple(w)
    return w


def _loop_trace(K: CycField, b: int, g: int, c: int) -> CycNum:
    """T_b(g, c) = sum_{s+g<p} W_s q^{c ch(z_s)} c1(b, s, g): the z-diagonal
    block of B^2 against X^b, for a y leg of charge c that gave F(g) to z;
    memoized on the field (K._loop_T).

    c enters only through q^{c ch(z_s)}, and q^{2p} = 1, so the cache is keyed
    by (b, g, c mod 2p).
    """
    key = (b, g, c % (2 * K.p))
    v = K._loop_T.get(key)
    if v is None:
        v = K.zero
        for s, ch, w in _loop_weights(K, b):
            if s + g < K.p:
                v = v + w * K.q_pow(c * ch) * yds._c1(K, b, s, g)
        K._loop_T[key] = v
    return v


def chi_apply(K: CycField, y: dict, b: int) -> dict:
    """chi of the loop module Z = X^b applied to an ambient vector y.

    Second form of the loop diagram: coev, B^2, ribbon, sigma_2, diagonal
    braiding against the dual, evaluate; taken as a partial trace over Z.
    The first B sends y (x) z_s to sum_g zeta^{ch(y_g) ch(z_s)} c1(b, s, g)
    z_{s+g} (x) y_g, with delta y = F(g) (x) y_g.  The second B lets z_{s+g}
    hand F(k) back to y_g and leaves z_{s+g-k}; ev pairs that with u_s only
    if s+g-k = s, so only k = g survives, and

        chi(y) = sum_{g} T_b(g, ch(y_g)) F(g) |> y_g

    with T_b from _loop_trace.  Works for y in any implemented sector (one- or
    two-vertex), so P modules can be run through it directly.
    """

    def image(bv):
        return yds.act_by_coaction(K, bv, lambda g, wy: _loop_trace(K, b, g, wy.charge))

    return yds.linear_extend(image, y)


def chi_apply_first_form(K: CycField, y: dict, b: int) -> dict:
    """The same loop evaluated from the first diagram (category braiding B
    between Z and its dual instead of sigma_2), composing the full B^2 and B
    before evaluating.  The independent oracle for chi_apply; cross-check only.
    """
    theta = ribbon_scalar_one_vertex(K, b)
    legs = {  # (B^2 (x) id)(y (x) coev(X^b)), as {(y', z', u): c}
        (by, bz, u): c * cu
        for (z, u), cu in coev_one_vertex(K, b).items()
        for (by, bz), c in yds.braid_B2(K, {(key, z): cy for key, cy in y.items()}).items()
    }

    def close(key):
        by, bz, u = key
        return {by: theta * ev(K, yds.braid_B(K, {(bz, u): K.one}))}

    return yds.linear_extend(close, legs)


def lambda_closed(K: CycField, rp: int, nup: int, r: int, nu: int) -> CycNum:
    """The loop eigenvalue lambda(r',nu'; r,nu), division-free sum form
    (valid for all 1 <= r' <= p, including the Steinberg r' = p)."""
    if not (1 <= rp <= K.p and 1 <= r <= K.p):
        raise ValueError("need 1 <= r', r <= p")
    total = K.zero
    for i in range(1, r + 1):
        total = total + K.q_pow(rp * (r + 1 - 2 * i))
    sign = nup * (r + 1) + nu * rp + K.p * nu * nup
    return -total if sign % 2 else total


def lambda_ratio(K: CycField, rp: int, nup: int, r: int, nu: int) -> CycNum:
    """Ratio form of lambda; needs q^{r'} - q^{-r'} invertible (r' < p)."""
    if rp % K.p == 0:
        raise ZeroDivisionError("ratio form degenerates at r' = p")
    num = K.q_pow(rp * r) - K.q_pow(-rp * r)
    den = K.q_pow(rp) - K.q_pow(-rp)
    val = num * den.inv()
    sign = nup * (r + 1) + nu * rp + K.p * nu * nup
    return -val if sign % 2 else val


def lambda_steinberg(K: CycField, nup: int, r: int, nu: int) -> CycNum:
    """lambda(p, nu'; r, nu) = (-1)^{(nu'+1)(r-1-nu p)} r."""
    val = K.from_int(r)
    return -val if ((nup + 1) * (r - 1 - nu * K.p)) % 2 else val


def mu_closed(K: CycField, rp: int, nup: int, r: int, nu: int) -> CycNum:
    """Nilpotent coefficient of the loop on a P[r'] module, 1 <= r' <= p-1."""
    if not 1 <= rp <= K.p - 1:
        raise ValueError("mu is defined for 1 <= r' <= p-1")
    qp = K.q_pow(rp)
    qm = K.q_pow(-rp)
    qr = K.q_pow(rp * r)
    qrm = K.q_pow(-rp * r)
    body = (qr - qrm) * (qp + qm) - K.from_int(r) * (qr + qrm) * (qp - qm)
    val = (K.q_pow(1) - K.q_pow(-1)) * ((qp - qm) ** 3).inv() * body
    sign = 1 + nup * r + nu * rp + K.p * nup * nu
    return -val if sign % 2 else val


def _chi_is(K: CycField, b: int, lam: CycNum, terms) -> bool:
    """chi of Z = X^b equals lam * id + N on a basis: chi(w) - lam * w == N(w)
    for every (w, N(w)) in terms.  A VerificationError from chi_apply fails
    the instance instead of ending the check."""
    try:
        return all(
            yds.vec_eq(yds.vec_sub(chi_apply(K, w, b), yds.scale(w, lam)), nw)
            for w, nw in terms
        )
    except yds.VerificationError:
        return False


def verify_chi_on_simple(K: CycField, rp: int, nup: int, r: int, nu: int) -> bool:
    """Z = X(r)_nu run around Y = X(r')_{nu'} is the scalar lambda_closed on
    every basis vector V^a_s, s < r'."""
    a = rp - 1 - nup * K.p
    basis = [{yds.one_vertex(a, s): K.one} for s in range(rp)]
    lam = lambda_closed(K, rp, nup, r, nu)
    return _chi_is(K, r - 1 - nu * K.p, lam, ((w, {}) for w in basis))


def verify_chi_on_P(K: CycField, vs, us, pdesc: ModuleDescriptor, r: int, nu: int) -> bool:
    """chi of Z = X(r)_nu on the P module with basis v(1..p), u(1..p) (from
    classify.p_module_basis) is lambda * id + mu * N, with lambda, mu the
    closed forms and N u(i) = v(r'+i) for r'+i <= p, zero otherwise."""
    p, rp = K.p, pdesc.r
    lam = lambda_closed(K, rp, pdesc.nu, r, nu)
    mu = mu_closed(K, rp, pdesc.nu, r, nu)
    nil = [{}] * p + [yds.scale(vs[rp + i], mu) if rp + i < p else {} for i in range(p)]
    return _chi_is(K, r - 1 - nu * p, lam, zip(vs + us, nil))


def verify_multiplicativity(p: int, w, z, y) -> bool:
    """Eigenvalue-level chi_W o chi_Z = chi_{W (x) Z} on a simple Y.

    w, z, y are (r, nu) pairs; the right side expands W (x) Z through the
    abstract ring (nu mod 2, matching the mod-2 dependence of lambda).
    """
    from .fusionring import ring_multiply, x_gen

    K = cyclotomic_field(p)
    (rw, nuw), (rz, nuz), (ry, nuy) = w, z, y
    lhs = lambda_closed(K, ry, nuy, rw, nuw) * lambda_closed(K, ry, nuy, rz, nuz)
    rhs = K.zero
    prod = ring_multiply(p, x_gen(p, rw, nuw), x_gen(p, rz, nuz))
    for (s, nu), mult in prod.items():
        rhs = rhs + K.from_int(mult) * lambda_closed(K, ry, nuy, s, nu)
    return lhs == rhs
