"""Fusion product of simple Yetter-Drinfeld modules into the two-vertex space.

The fusion map sends V^a_s (x) V^b_t to sum_{i=0}^{t} q^{-ai} [s+i over s]
V^{a,b}_{s+i, t-i} (the i-th term detaches i crosses from the right factor and
shuffles them into the left group; the sum is bounded by the coaction of the
right factor).  It is injective and intertwines the tensor-product action and
coaction with the two-vertex ones.

fuse_simples computes X(r1)_{nu1} (x) X(r2)_{nu2} along two independent paths:

  closed form   the two step-2 sums (X-range and P-range) of the fusion
                theorem, with P[p] = X(p);

  brute force   realize the factors at representative charges a = r1-1-nu1*p,
                b = r2-1-nu2*p, fuse the full basis, row-reduce the image,
                locate the left coinvariants V^{a,b}_{0,u} inside it, classify
                each one, check the L -> P extension top vector is present,
                and verify the dimensions exhaust r1*r2.

fuse_simples returns the summands as a ModuleDescriptor tuple sorted by
(kind, r, nu); fusion_table runs it once per ordered pair of simples, and the
fusion command and the fusion suite read their pairs from it.

The closed form labels a projective summand by its top subquotient, i.e.
P[s]_nu has socle series X(s)_nu on top of X(p-s)_{nu-1} + X(p-s)_{nu+1} on
top of X(s)_nu; the leftmost-coinvariant labels used by the classifier name
the same module P[p-s]_{nu-1}, so the brute-force path converts L[r]_m into
the summand P[p-r]_{m+1} before comparing.  Both paths must agree exactly.
"""

from __future__ import annotations

from itertools import product

from .cyclo import CycField, cyclotomic_field
from . import ydspace as yds
from .classify import ModuleDescriptor, classify_coinvariant, simple_charge, top_extension_vector
from .linalg import Echelon, VerificationError, linear_extend
from .parallel import parallel_map


def fusion_map_basis(K: CycField, bv1: yds.BasisVector, bv2: yds.BasisVector) -> dict:
    if bv1.nvertex != 1 or bv2.nvertex != 1:
        raise ValueError("fusion_map is defined on one-vertex sectors")
    (a,), (s,) = bv1
    (b,), (t,) = bv2
    out = {}
    for i in range(t + 1):
        coef = K.q_pow(-a * i) * K.q_binom(s + i, s)
        yds._put(K, out, yds.two_vertex(a, b, s + i, t - i), coef)
    return out


def fusion_map(K: CycField, x: dict, images: dict | None = None) -> dict:
    """Linear extension of the basis fusion map to a TensorVec, landing in the
    (a,b) sector; images is linear_extend's dict of fusion_map_basis images."""
    return linear_extend(lambda key: fusion_map_basis(K, *key), x, images)


def _monodromy_sums(K: CycField, a: int, b: int, s: int, t: int) -> tuple:
    """The pairs (n, S_n) with S_n nonzero, n = 0..s+t, in the order of n,
    where S_n = sum_{j <= min(n,t)} q^{2j(j-1) - 2bj} [s+t-j over s] c1(b, j, n-j).

    Each term goes through _put at the key V^{a,b}_{s+t-n, n}, so a nonzero
    term at an out-of-range cross count raises VerificationError naming
    that key; a is read for that name only.
    """
    acc = {}
    for n in range(s + t + 1):
        key = yds.two_vertex(a, b, s + t - n, n)
        for j in range(min(n, t) + 1):
            coef = (
                K.q_pow(2 * j * (j - 1) - 2 * b * j)
                * K.q_binom(s + t - j, s)
                * yds._c1(K, b, j, n - j)
            )
            yds._put(K, acc, key, coef)
    return tuple((key.crosses[1], c) for key, c in acc.items())


def monodromy_closed_form(K: CycField, a: int, b: int, s: int, t: int,
                          sums: dict | None = None) -> dict:
    """Closed form for fusion_map(B^2(V^a_s (x) V^b_t)), with two-vertex output:

      sum_{n=0}^{s+t} sum_{j=0}^{min(n,t)}
        q^{ab + 2j(j-1) - 2bj - a(n+t)} xi^{n-j} [n over j] [s+t-j over s]
        prod_{l=0}^{n-j-1} [l+j-b]  V^{a,b}_{s+t-n, n}.

    The factor xi^{n-j} [n over j] prod_{l<n-j} [l+j-b] is the one-vertex
    action coefficient c1(b, j, n-j) of F(n-j) |> V^b_j, read from its memo
    (ydspace._c1).

    The q-power splits as q^{ab - a(n+t)} q^{2j(j-1) - 2bj}, and the first
    factor does not depend on j, so the coefficient of V^{a,b}_{s+t-n, n} is
    q^{ab - a(n+t)} S_n with the charge-free sum

      S_n = sum_{j=0}^{min(n,t)} q^{2j(j-1) - 2bj} [s+t-j over s] c1(b, j, n-j)

    (_monodromy_sums).  S_n does not depend on a, and depends on b only mod p:
    q^{-2bj} has q^2 of order p, and c1 reads b mod p.  sums, if given, is a
    dict keyed (b mod p, s, t) of the pairs (n, S_n) that the caller owns,
    filled on a miss and read on a hit.  The out-of-range rule of _put holds
    term by term, and a term's zero-ness does not depend on a, since the
    q-power is a unit: so a row that raises raises at the first instance
    that needs it, with that instance's (a, b) in the message, and a row
    enters the dict only once it was summed without raising.

    This is the n = i slice of the published triple-sum display; the terms the
    display seems to carry at i > n do not occur in the actual composite (the
    identity above was extracted symbolically over Z[q^{+-1}, q^{+-a}, q^{+-b}]
    and is checked exhaustively against braid_B2 in the tests).
    """
    key = (b % K.p, s, t)
    row = None if sums is None else sums.get(key)
    if row is None:
        row = _monodromy_sums(K, a, b, s, t)
        if sums is not None:
            sums[key] = row
    # q^{ab - a(n+t)} is a unit and S_n is nonzero, so no zero is stored
    return {yds.two_vertex(a, b, s + t - n, n): K.q_pow(a * (b - n - t)) * c for n, c in row}


def fused_monodromy(K: CycField, a: int, b: int, s: int, t: int,
                    braid_images: dict | None = None, fusion_images: dict | None = None) -> dict:
    """fusion_map composed with the double braiding, computed compositionally;
    the two dicts are braid_B2's and fusion_map's images."""
    x = {(yds.one_vertex(a, s), yds.one_vertex(b, t)): K.one}
    return fusion_map(K, yds.braid_B2(K, x, braid_images), fusion_images)


def _sorted(descs) -> tuple:
    return tuple(sorted(descs, key=lambda d: (d.kind, d.r, d.nu)))


def fuse_closed(p: int, r1: int, nu1: int, r2: int, nu2: int):
    """The fusion theorem sums; summand nu is nu1 + nu2 reduced mod 4."""
    if not (1 <= r1 <= p and 1 <= r2 <= p):
        raise ValueError("need 1 <= r <= p")
    nu = (nu1 + nu2) % 4
    out = []
    for s in range(abs(r1 - r2) + 1, p - abs(r1 + r2 - p), 2):
        out.append(ModuleDescriptor("X", s, nu))
    for s in range(2 * p - r1 - r2 + 1, p + 1, 2):
        if s == p:
            out.append(ModuleDescriptor("X", p, nu))
        else:
            out.append(ModuleDescriptor("P", s, nu))
    return _sorted(out)


def fuse_brute(K: CycField, r1: int, nu1: int, r2: int, nu2: int):
    """Decompose the fused image directly; see the module docstring."""
    p = K.p
    a, b = simple_charge(p, r1, nu1), simple_charge(p, r2, nu2)
    ech = Echelon(K)
    for s in range(r1):
        for t in range(r2):
            if not ech.add(fusion_map_basis(K, yds.one_vertex(a, s), yds.one_vertex(b, t))):
                raise VerificationError("fusion map failed to be injective")
    if ech.rank != r1 * r2:
        raise VerificationError(f"fused image has rank {ech.rank}, not {r1 * r2}")

    found = [
        u
        for u in range(p)
        if ech.contains({yds.two_vertex(a, b, 0, u): K.one})
    ]
    if found != list(range(min(a % p, b % p) + 1)):
        raise VerificationError(f"left coinvariants u = {found} in the image at a={a}, b={b}")

    summands = []
    total = 0
    ls = set()
    for u in found:
        d = classify_coinvariant(p, a, b, u)
        if d.kind in ("S", "X"):
            summands.append(ModuleDescriptor("X", d.r, d.nu % 4))
            total += d.r
        elif d.kind == "L":
            # the L extends inside the image: its top vector is present
            if not ech.contains(top_extension_vector(K, a, b, u, d.r)):
                raise VerificationError(f"L[{d.r}] at u={u} does not extend inside the image")
            summands.append(ModuleDescriptor("P", p - d.r, (d.nu + 1) % 4))
            total += 2 * p
            ls.add((u, d.r))
        elif (u - (p - d.r), p - d.r) not in ls:
            # a bottom B(r) is the partner of the L[p-r] found p-r steps up
            raise VerificationError(f"B[{d.r}] at u={u} has no L partner in {sorted(ls)}")
    if total != r1 * r2:
        raise VerificationError(f"summands have dimension {total}, not {r1 * r2}")
    return _sorted(summands)


def fuse_simples(p: int, r1: int, nu1: int, r2: int, nu2: int) -> tuple:
    """The summands of X(r1)_{nu1} (x) X(r2)_{nu2}; both paths, which must agree."""
    closed = fuse_closed(p, r1, nu1, r2, nu2)
    brute = fuse_brute(cyclotomic_field(p), r1, nu1, r2, nu2)
    if closed != brute:
        raise VerificationError(
            f"fusion paths disagree at p={p}, "
            f"({r1},{nu1})x({r2},{nu2}): closed={closed}, brute={brute}"
        )
    return closed


def _fusion_row(task) -> list:
    """The (key, summands or VerificationError) pairs of row (r1, nu1)."""
    p, r1, nu1, nus = task
    row = []
    for r2, nu2 in product(range(1, p + 1), nus):
        key = (r1, nu1, r2, nu2)
        try:
            row.append((key, fuse_simples(p, *key)))
        except VerificationError as exc:
            row.append((key, exc))
    return row


def fusion_table(p: int, nus) -> dict:
    """fuse_simples on every ordered pair of simples, keyed (r1, nu1, r2, nu2)
    with r in [1, p] and nu in nus, in that nesting order (the fusion
    command's row order).  Each value is the pair's summand tuple, or the
    VerificationError of a pair whose two paths disagree.

    Each row (r1, nu1) is one parallel_map task.  The rows a worker runs
    share its field memos, which are dropped when it exits; inside a worker
    (the check fusion.theorem_both_paths under suites.run_suite) the rows
    run in-process.
    """
    rows = parallel_map(_fusion_row, [(p, r1, nu1, nus)
                                      for r1, nu1 in product(range(1, p + 1), nus)])
    return dict(pair for row in rows for pair in row)
