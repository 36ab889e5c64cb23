"""Classification of the modules generated from left coinvariants.

A left coinvariant V^{a,b}_{0,t} generates, under the B_p action, one of four
structures, decided by r = (a+b-2t)_p + 1 and the residue (a)_p:

  S : the simple Steinberg module of dimension p           (r = p)
  X : a simple module of dimension r, not in the image of F,
      which extends to the p-dimensional V[r]
  L : the left-bottom half (dimension p) of the 2p-dimensional P[r]
      (a new coinvariant appears after r steps of F)
  B : a simple bottom submodule of dimension r sitting inside an L

The braiding sector nu is read off from a + b - 2t = r - 1 - nu*p; shifting
any charge by p flips signs in the braiding but not the module-comodule
structure, so nu lives in Z_4 for the braided category and in Z_2 for the
entwined one.  We keep the raw integer nu (it can be -1, matching the table
in the source classification at p = 5) and reduce on comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cyclo import CycField
from . import ydspace as yds
from .ydspace import BasisVector
from .linalg import Echelon, VerificationError, scale


@dataclass(frozen=True)
class ModuleDescriptor:
    kind: str  # one of X, S, V, L, B, P
    r: int
    nu: int  # raw braiding index; canonical representative is nu % 4
    labels: tuple = ()

    def dimension(self, p: int) -> int:
        if self.kind in ("X", "S", "B"):
            return self.r
        if self.kind in ("V", "L"):
            return p
        if self.kind == "P":
            return p if self.r == p else 2 * p
        raise ValueError(self.kind)

    def __repr__(self):
        lab = "" if not self.labels else f"@{self.labels}"
        return f"{self.kind}({self.r})_{self.nu}{lab}"


def raw_nu(a_eff: int, r: int, p: int) -> int:
    """nu with a_eff = r - 1 - nu*p; raises if a_eff and r are incompatible."""
    if (r - 1 - a_eff) % p != 0:
        raise ValueError(f"a_eff={a_eff} is not congruent to r-1={r-1} mod {p}")
    return (r - 1 - a_eff) // p


def simple_charge(p: int, r: int, nu: int) -> int:
    """The charge a = r - 1 - nu*p realizing X(r)_nu; raw_nu inverts it."""
    return r - 1 - nu * p


def classify_one_vertex(p: int, a: int) -> ModuleDescriptor:
    r = a % p + 1
    nu = raw_nu(a, r, p)
    return ModuleDescriptor("S" if r == p else "X", r, nu, (a,))


def classify_coinvariant(p: int, a: int, b: int, t: int) -> ModuleDescriptor:
    """Kind, dimension parameter and braiding index for V^{a,b}_{0,t}."""
    if not 0 <= t <= p - 1:
        raise ValueError(f"t={t} out of range for p={p}")
    r = (a + b - 2 * t) % p + 1
    nu = raw_nu(a + b - 2 * t, r, p)
    ap = a % p
    labels = (a, t, b)
    if r == p:
        return ModuleDescriptor("S", p, nu, labels)
    if (t <= ap and ap - r + 1 <= t <= p - 1 - r) or (
        t >= ap + 1 and p - r <= t <= p - r + ap
    ):
        return ModuleDescriptor("X", r, nu, labels)
    # negation of the S and X conditions: one of the four P conditions holds,
    # split by whether the coinvariant sits at the bottom (t+r >= p) or at the
    # left wing (t+r <= p-1) of the indecomposable
    if t + r >= p:
        if not (t >= p - r + ap + 1 or p - r <= t <= ap):
            raise VerificationError(f"({a}, {b}, {t}) meets no B condition")
        return ModuleDescriptor("B", r, nu, labels)
    if not (t <= ap - r or ap + 1 <= t <= p - r - 1):
        raise VerificationError(f"({a}, {b}, {t}) meets no L condition")
    return ModuleDescriptor("L", r, nu, labels)


def _f_image_contains(K: CycField, coinv: BasisVector) -> bool:
    # F raises the cross grade by one, so solve F x = coinv on the grade below;
    # the caller passes two-vertex coinvariants only
    p = K.p
    grade = sum(coinv.crosses)
    if grade == 0:
        return False
    ech = Echelon(K)
    for s in range(max(grade - p, 0), min(grade, p)):  # both cross counts below p
        img = yds.act_F_basis(K, BasisVector(coinv.charges, (s, grade - 1 - s)))
        if img:
            ech.add(img)
    return ech.contains({coinv: K.one})


def generate_submodule(K: CycField, coinv: BasisVector):
    """F-orbit basis from a two-vertex left coinvariant V^{a,b}_{0,t}, plus the
    brute-force descriptor; any other sector raises ValueError.

    The descriptor is recomputed from the orbit alone (orbit length, the first
    new coinvariant inside it, membership of the seed in the image of F) and
    must agree with classify_coinvariant; the tests assert that.
    """
    if coinv.nvertex != 2 or coinv.crosses[0] != 0:
        raise ValueError(f"{coinv} is not a two-vertex left coinvariant")
    p = K.p
    basis = []
    v = {coinv: K.one}
    first_new_coinv = None
    while v:
        basis.append(v)
        if len(basis) > 1 and first_new_coinv is None and yds.is_coinvariant(v):
            first_new_coinv = len(basis) - 1
        if len(basis) > 2 * p:
            raise VerificationError("orbit failed to terminate")
        v = yds.act_F(K, v)
    dim = len(basis)
    a, b = coinv.charges
    t = coinv.crosses[1]
    a_eff = a + b - 2 * t
    labels = (a, t, b)
    if first_new_coinv is not None:
        kind, r = "L", first_new_coinv
        if dim != p:
            raise VerificationError(f"L orbit of {coinv} has length {dim}, not {p}")
    elif dim == p and (a_eff % p + 1) == p:
        kind, r = "S", p
    else:
        kind, r = ("B" if _f_image_contains(K, coinv) else "X"), dim
    return basis, ModuleDescriptor(kind, r, raw_nu(a_eff, r, p), labels)


def top_extension_vector(K: CycField, a: int, b: int, t: int, r: int) -> dict:
    """The vector starting the upper floor over the coinvariant V^{a,b}_{0,t}:
    sum_s [r-1]! c^{a,b}_t(r-1, s) V^{a,b}_{r-s, t+s}."""
    fact = K.q_fact(r - 1)
    out = {}
    for s in range(r):
        coef = fact * yds._c2(K, a, b, 0, t, r - 1, s)
        yds._put(K, out, yds.two_vertex(a, b, r - s, t + s), coef)
    return out


def extend_to_P(K: CycField, desc: ModuleDescriptor):
    """Extend an L[r] to the 2p-dimensional P[r]: (basis, P descriptor).

    The top vector is normalized as u(1) = q^{a+b-2t} * (the explicit upper
    floor vector); any nonzero constant gives an isomorphic module, and this
    choice is the one under which the closed form for the nilpotent loop
    coefficient mu holds on the nose.
    """
    if desc.kind != "L":
        raise ValueError(f"extend_to_P needs an L, got {desc}")
    p = K.p
    a, t, b = desc.labels
    r = desc.r
    lower, check = generate_submodule(K, yds.two_vertex(a, b, 0, t))
    if (check.kind, check.r) != ("L", r):
        raise VerificationError(f"the orbit of {desc} generates {check}")
    ech = Echelon(K)
    for v in lower:
        ech.add(v)
    upper = []
    v = scale(top_extension_vector(K, a, b, t, r), K.q_pow(a + b - 2 * t))
    while v:
        upper.append(v)
        if not ech.add(v):
            raise VerificationError(f"upper floor vector of {desc} already in the L")
        v = yds.act_F(K, v)
    if len(lower) + len(upper) != 2 * p:
        raise VerificationError(f"{desc} extends to dimension {len(lower) + len(upper)}")
    # delta u(1) must hit the left wing: its F(1)-component is proportional
    # to v(r) = F^{r-1} |> coinvariant
    comps = yds.coact(K, upper[0])
    vr = lower[r - 1]
    c1 = comps.get(1)
    piv = next(iter(vr))
    if c1 is None or c1 != scale(vr, c1.get(piv, K.zero) * vr[piv].inv()):
        raise VerificationError(f"the coaction of u(1) misses the left wing of {desc}")
    for v in upper:
        if not all(ech.contains(comp) for comp in yds.coact(K, v).values()):
            raise VerificationError(f"the coaction leaves the extension of {desc}")
    return lower + upper, ModuleDescriptor("P", r, desc.nu, desc.labels)


def p_module_basis(K: CycField, a: int, t: int, b: int):
    """The (v(1..p), u(1..p)) basis of P^{a,b}_{0,t}, v(i), u(i) = F^{i-1}-orbits."""
    desc = classify_coinvariant(K.p, a, b, t)
    basis, pdesc = extend_to_P(K, desc)
    return basis[: K.p], basis[K.p :], pdesc


def classification_grid(p: int):
    """Descriptor for every coinvariant (a, b, t) in [0,p)^3."""
    return {
        (a, b, t): classify_coinvariant(p, a, b, t)
        for a in range(p)
        for b in range(p)
        for t in range(p)
    }


def decompose_space(p: int, n: int):
    """Decompose the one- or two-vertex space into indecomposables.

    Returns (counts, dimension) where counts maps (kind, r) to multiplicity,
    kinds after extension: S stays S(p), X(r) extends to V[r], L[r] extends to
    P[r]; B's are submodules of L's already counted and are checked against
    their L partners instead of being counted.
    """
    counts: dict[tuple[str, int], int] = {}
    if n == 1:
        for a in range(p):
            d = classify_one_vertex(p, a)
            key = ("S", p) if d.kind == "S" else ("V", d.r)
            counts[key] = counts.get(key, 0) + 1
    elif n == 2:
        grid = classification_grid(p)
        b_count: dict[int, int] = {}
        for (a, b, t), d in grid.items():
            if d.kind == "S":
                counts[("S", p)] = counts.get(("S", p), 0) + 1
            elif d.kind == "X":
                counts[("V", d.r)] = counts.get(("V", d.r), 0) + 1
            elif d.kind == "L":
                counts[("P", d.r)] = counts.get(("P", d.r), 0) + 1
                # the bottom partner B(p-r) must sit at t+r in the same column
                partner = grid[(a, b, t + d.r)]
                if (partner.kind, partner.r) != ("B", p - d.r):
                    raise VerificationError(f"{d} at {(a, b, t)} has partner {partner}")
            else:
                b_count[d.r] = b_count.get(d.r, 0) + 1
        for r in range(1, p):
            if b_count.get(r, 0) != counts.get(("P", p - r), 0):
                raise VerificationError(f"B[{r}] count differs from the P[{p - r}] count")
    else:
        raise ValueError("only the 1- and 2-vertex spaces decompose here")
    dim = sum(m * ModuleDescriptor(k, r, 0).dimension(p) for (k, r), m in counts.items())
    if dim != p ** (2 * n):
        raise VerificationError(f"{('one', 'two')[n - 1]}-vertex summands have dimension {dim}")
    return counts, dim


def decomposition_ok(p: int, n: int, counts: dict, dim: int) -> bool:
    """Whether decompose_space(p, n) found the multiplicities the theory
    predicts, on its own space alone."""
    if n == 1:  # S(p) and each V[r] once
        want = {("S", p): 1, **{("V", r): 1 for r in range(1, p)}}
    else:
        want = {("S", p): p * p, **{("V", r): 2 * r * (p - r) for r in range(1, p)},
                **{("P", r): (p - r) ** 2 for r in range(1, p)}}
    return dim == p ** (2 * n) and all(counts.get(k, 0) == m for k, m in want.items())


def decompose_checks(p: int) -> dict:
    """The aggregate identities re-derived from the actual multisets."""
    counts1, dim1 = decompose_space(p, 1)
    counts2, dim2 = decompose_space(p, 2)
    v_total = sum(m for (k, _), m in counts2.items() if k == "V")
    p_total = sum(m for (k, r), m in counts2.items() if k == "P")
    return {
        "one_vertex_dim": dim1,
        "two_vertex_dim": dim2,
        "one_vertex_ok": decomposition_ok(p, 1, counts1, dim1),
        "two_vertex_ok": decomposition_ok(p, 2, counts2, dim2),
        "v_total": v_total,
        "v_total_ok": 3 * v_total == p * (p * p - 1),
        "p_total": p_total,
        "p_total_ok": 6 * p_total == p * (p - 1) * (2 * p - 1),
    }
