"""Verification suites: every closed-form claim, checked mechanically at one p.

Each check is a module-level function p -> list of CheckResult, most of
them a generator of (label, good) instances made into one result by _one;
the ring axioms give six results from one table, and the tensor-product
check gives none above p = 3.  CHECKS lists them per suite, in output
order.  A check passes only if every instance in its (exhaustive) range
holds exactly.  These are the same checks the test suite runs over the
acceptance p-ranges; the CLI exposes them per p.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .cyclo import cyclotomic_field
from . import nichols as ni
from . import ydspace as yds
from .linalg import VerificationError, add_term, linear_extend, scale
from . import classify as cl
from . import fusion as fu
from . import loop as lp
from . import fusionring as fr
from .parallel import parallel_map


@dataclass
class CheckResult:
    name: str
    ok: bool
    count: int
    detail: str = ""


def _check(name, pairs) -> CheckResult:
    """The result of one check over its (label, good) instances, counting
    every failing one.

    A VerificationError raised by the instance generator counts as one more
    failing instance and ends this check only; its message goes into the
    detail.
    """
    count = failing = 0
    first = stop = None
    try:
        for label, good in pairs:
            count += 1
            if not good:
                failing += 1
                if first is None:
                    first = label
    except VerificationError as exc:
        count += 1
        failing += 1
        stop = f"instance {count} raised: {exc}"
        if first is None:
            first = f"instance {count}"
    detail = ""
    if failing:
        detail = f"first failure: {first} ({failing} failing)"
        if stop:
            detail += f"; {stop}"
    return CheckResult(name, not failing, count, detail)


def _one(name):
    """Decorate a function p -> (label, good) instances (a generator) into
    the check function p -> [CheckResult] of the one check called name."""

    def decorate(pairs):
        def check(p):
            return [_check(name, pairs(p))]

        return check

    return decorate


# The index sets the checks iterate, each in the nesting order its labels use.


def _one_vertex_pairs(p: int, nb: int):
    """(a, b, s, t) labelling V^a_s (x) V^b_t: a in [0, 2p), b in [0, nb),
    s, t in [0, p)."""
    return product(range(2 * p), range(nb), range(p), range(p))


def _sectors(p: int, nb: int):
    """The (a, b) of _one_vertex_pairs(p, nb), whose (s, t) run over
    product(range(p), repeat=2) inside each sector.

    The checks that map V^a_s (x) V^b_t by braid_B, braid_B_inv or
    fusion_map hold one dict of basis images per map and sector (see
    linalg.linear_extend): every image lands in the sector's own two- or
    one-vertex keys, and a new dict for each sector keeps only one sector's
    images alive.
    """
    return product(range(2 * p), range(nb))


def _two_vertex_basis(p: int):
    """(a, b, s, t) labelling V^{a,b}_{s,t}, all in [0, p)."""
    return product(range(p), repeat=4)


def _simples(p: int, nus=range(4)) -> list:
    """Labels (r, nu) of the simples X(r)_nu: r in [1, p], nu in nus."""
    return list(product(range(1, p + 1), nus))


def _charges(p: int) -> list:
    """The charge a = r - 1 - nu*p realizing each X(r)_nu, nu in [0, 4)."""
    return [cl.simple_charge(p, r, nu) for nu in range(4) for r in range(1, p + 1)]


def _f_basis(K, p: int) -> list:
    """The PBW basis F(r), r in [0, p), of the Nichols algebra."""
    return [ni.f_elt(K, r) for r in range(p)]


# -- hopf ---------------------------------------------------------------------


@_one("hopf.bialgebra")
def _hopf_bialgebra(p: int):
    K = cyclotomic_field(p)
    basis = _f_basis(K, p)
    for r, s in product(range(p), repeat=2):
        lhs = ni.coproduct(K, ni.product(K, basis[r], basis[s]))
        rhs = ni.tensor_square_product(
            K, ni.coproduct(K, basis[r]), ni.coproduct(K, basis[s])
        )
        yield (r, s), lhs == rhs


@_one("hopf.antipode")
def _hopf_antipode(p: int):
    K = cyclotomic_field(p)
    basis = _f_basis(K, p)

    def left(ij):  # m (A (x) id) on F(i) (x) F(j)
        return ni.product(K, ni.antipode(K, basis[ij[0]]), basis[ij[1]])

    def right(ij):  # m (id (x) A)
        return ni.product(K, basis[ij[0]], ni.antipode(K, basis[ij[1]]))

    for r in range(p):
        cp = ni.coproduct(K, basis[r])
        want = {0: K.one} if r == 0 else {}
        yield r, linear_extend(left, cp) == want and linear_extend(right, cp) == want


@_one("hopf.coassociativity")
def _hopf_coassociativity(p: int):
    K = cyclotomic_field(p)
    basis = _f_basis(K, p)

    def delta_left(ij):  # (Delta (x) id) on F(i) (x) F(j)
        return {(*k, ij[1]): c for k, c in ni.coproduct(K, basis[ij[0]]).items()}

    def delta_right(ij):  # (id (x) Delta)
        return {(ij[0], *k): c for k, c in ni.coproduct(K, basis[ij[1]]).items()}

    def counit_left(ij):  # (epsilon (x) id)
        return {ij[1]: K.one} if ij[0] == 0 else {}

    for r in range(p):
        cp = ni.coproduct(K, basis[r])
        lhs, rhs = linear_extend(delta_left, cp), linear_extend(delta_right, cp)
        yield r, lhs == rhs and linear_extend(counit_left, cp) == {r: K.one}


@_one("hopf.divided_powers")
def _hopf_divided_powers(p: int):
    K = cyclotomic_field(p)
    fp = {1: K.one}
    power = {0: K.one}
    good = True
    for r in range(1, p):
        power = ni.product(K, power, fp)
        good = good and power == {r: K.q_fact(r)}
    power = ni.product(K, power, fp)
    yield "F^p=0", good and power == {}


@_one("hopf.shuffle_oracle")
def _hopf_shuffle_oracle(p: int):
    K = cyclotomic_field(p)
    cap = min(6, 2 * p)
    for r in range(cap + 1):
        for s in range(cap + 1 - r):
            yield (r, s), ni.shuffle_product_oracle(K, r, s) == K.q_binom(r + s, r)


@_one("hopf.half_twist_oracle")
def _hopf_half_twist_oracle(p: int):
    K = cyclotomic_field(p)
    for r in range(p):
        yield r, ni.half_twist_oracle(K, r) == ni.antipode_coeff(K, r)


# -- yd -----------------------------------------------------------------------


@_one("yd.one_vertex")
def _yd_one_vertex(p: int):
    K = cyclotomic_field(p)
    for a, s in product(range(2 * p), range(p)):
        for r, ok in yds.yd_axiom_checks(K, {yds.one_vertex(a, s): K.one}):
            yield (a, s, r), ok


@_one("yd.two_vertex")
def _yd_two_vertex(p: int):
    K = cyclotomic_field(p)
    for a, b, s, t in _two_vertex_basis(p):
        for r, ok in yds.yd_axiom_checks(K, {yds.two_vertex(a, b, s, t): K.one}):
            yield (a, b, s, t, r), ok


def _yd_tensor_products(p: int):
    # a check at p <= 3 only
    if p > 3:
        return []
    K = cyclotomic_field(p)

    def pairs():
        for a, b in product(range(2 * p), repeat=2):
            for s, t in product(range(a % p + 1), range(b % p + 1)):
                x = {(yds.one_vertex(a, s), yds.one_vertex(b, t)): K.one}
                for r, ok in yds.yd_axiom_checks(K, x):
                    yield (a, b, s, t, r), ok

    return [_check("yd.tensor_products", pairs())]


@_one("yd.closed_form_action")
def _yd_closed_form_action(p: int):
    K = cyclotomic_field(p)
    for a, b, s, t in _two_vertex_basis(p):
        bv = yds.two_vertex(a, b, s, t)
        it = {bv: K.one}  # F^r |> bv = [r]! F(r) |> bv, and [r]! != 0 for r < p
        for r in range(p):
            it = yds.act_F(K, it) if r else it
            want = scale(yds.act_Fr_basis(K, r, bv), K.q_fact(r))
            yield (a, b, s, t, r), want == it


# -- braiding -----------------------------------------------------------------


@_one("braiding.B_inverse")
def _braiding_B_inverse(p: int):
    K = cyclotomic_field(p)
    for a, b in _sectors(p, 2 * p):
        braid, inverse = {}, {}
        for s, t in product(range(p), repeat=2):
            x = {(yds.one_vertex(a, s), yds.one_vertex(b, t)): K.one}
            ok = yds.braid_B_inv(K, yds.braid_B(K, x, braid), inverse) == x
            ok = ok and yds.braid_B(K, yds.braid_B_inv(K, x, inverse), braid) == x
            yield (a, b, s, t), ok


@_one("braiding.B2_composite")
def _braiding_B2_composite(p: int):
    K = cyclotomic_field(p)
    for a, b in _sectors(p, p):
        braid = {}  # the oracle braid_B2_onepass reads no cache
        for s, t in product(range(p), repeat=2):
            x = {(yds.one_vertex(a, s), yds.one_vertex(b, t)): K.one}
            yield (a, b, s, t), yds.braid_B2(K, x, braid) == yds.braid_B2_onepass(K, x)


@_one("braiding.monodromy_closed_form")
def _braiding_monodromy_closed_form(p: int):
    K = cyclotomic_field(p)
    sums = {}  # the closed form's charge-free sums serve every sector
    for a, b in _sectors(p, 2 * p):
        braid, fused = {}, {}
        for s, t in product(range(p), repeat=2):
            yield (a, b, s, t), (
                fu.fused_monodromy(K, a, b, s, t, braid, fused)
                == fu.monodromy_closed_form(K, a, b, s, t, sums)
            )


@_one("braiding.coinvariant_scalar")
def _braiding_coinvariant_scalar(p: int):
    K = cyclotomic_field(p)
    for a, b in product(range(2 * p), repeat=2):
        x = {(yds.one_vertex(a, 0), yds.one_vertex(b, 0)): K.one}
        yield (a, b), yds.braid_B2(K, x) == {next(iter(x)): K.q_pow(a * b)}


# -- ribbon -------------------------------------------------------------------


@_one("ribbon.axiom_through_fusion")
def _ribbon_axiom_through_fusion(p: int):
    K = cyclotomic_field(p)
    for a, b in product(_charges(p), repeat=2):
        th = yds.ribbon_scalar(K, a) * yds.ribbon_scalar(K, b)
        braid, fused = {}, {}  # this sector's images, as in _sectors
        for s, t in product(range(a % p + 1), range(b % p + 1)):
            y, z = yds.one_vertex(a, s), yds.one_vertex(b, t)
            lhs = fu.fusion_map(K, yds.braid_B2(K, {(y, z): th}, braid), fused)
            rhs = yds.ribbon(K, fu.fusion_map(K, {(y, z): K.one}, fused))
            yield (a, b, s, t), lhs == rhs


@_one("ribbon.commutes_with_structure")
def _ribbon_commutes_with_structure(p: int):
    K = cyclotomic_field(p)
    for a, b, s, t in _two_vertex_basis(p):
        v = {yds.two_vertex(a, b, s, t): K.one}
        ok = yds.ribbon(K, yds.act_F(K, v)) == yds.act_F(K, yds.ribbon(K, v))
        yield (a, b, s, t), ok and yds.commutes_with_coaction(K, lambda w: yds.ribbon(K, w), v)


# -- duality ------------------------------------------------------------------


@_one("duality.zigzag")
def _duality_zigzag(p: int):
    K = cyclotomic_field(p)
    for a in _charges(p):
        r = a % p + 1
        coev = lp.coev_one_vertex(K, a)
        for t in range(r):
            v = yds.one_vertex(a, t)  # (id (x) ev)(coev (x) v) = v
            zig = linear_extend(lambda zu: {zu[0]: lp.ev(K, {(zu[1], v): K.one})}, coev)
            yield ("zig1", a, t), zig == {v: K.one}
        for s in range(r):
            _, u = lp.dual_identification_one_vertex(K, -a, s)  # (ev (x) id)(u (x) coev) = u
            zag = linear_extend(lambda zu: {zu[1]: lp.ev(K, {(u, zu[0]): K.one})}, coev)
            yield ("zig2", a, s), zag == {u: K.one}


@_one("duality.dual_basis_one_vertex")
def _duality_dual_basis_one_vertex(p: int):
    K = cyclotomic_field(p)
    for a, s in product(range(-p, 2 * p), range(p)):
        ci, bvi = lp.dual_identification_one_vertex(K, a, s)
        for r in range(p):
            lhs = lp.dual_act_U(K, a, r, s)
            if s - r < 0:
                yield (a, s, r), lhs.is_zero()
                continue
            cj, bvj = lp.dual_identification_one_vertex(K, a, s - r)
            got = yds.act_Fr_basis(K, r, bvi).get(bvj, K.zero)
            yield (a, s, r), lhs * cj == ci * got
        comps = dict(yds.coact_basis(bvi))
        for r, coef in lp.dual_coact_U(K, a, s):
            cj, bvj = lp.dual_identification_one_vertex(K, a, s + r)
            yield ("coact", a, s, r), comps.get(r) == bvj and coef * cj == ci


@_one("duality.ev_is_morphism")
def _duality_ev_is_morphism(p: int):
    K = cyclotomic_field(p)
    for a, s, t, n in product(range(2 * p), range(p), range(p), range(p)):
        u, v = yds.one_vertex(2 * p - a - 2, s), yds.one_vertex(a, t)
        val = lp.ev(K, yds.tensor_act_Fr(K, n, {(u, v): K.one}))
        want = lp.ev_one_vertex(K, u, v) if n == 0 else K.zero
        lhsv = lp.ev(K, {(bu, v): c for bu, c in yds.act_Fr_basis(K, n, u).items()})
        rhsv = lp.ev(K, {(u, bv): c for bv, c in yds.act_Fr_basis(K, n, v).items()})
        rhsv = K.q_pow(-n * u.charge) * ni.antipode_coeff(K, n) * rhsv
        yield (a, s, t, n), val == want and lhsv == rhsv


@_one("duality.c_coefficient_symmetry")
def _duality_c_coefficient_symmetry(p: int):
    K = cyclotomic_field(p)
    for (a, b, s, t), r in product(_one_vertex_pairs(p, 2 * p), range(p)):
        for u in range(r + 1):
            lhs = yds._c2(K, a, b, s, t, r, u)
            s2, t2 = p - 1 - s - r + u, p - 1 - t - u
            # a negative cross count makes a q-binomial of _c2 zero
            # (tests/test_ydspace.py checks it), so a known zero is not computed
            if s2 < 0 or t2 < 0:
                rhs = K.zero
            else:
                rhs = K.q_pow(2 * r * (r + 2 * t + 2 * s - a - b)) * yds._c2(
                    K, -a - 2, -b - 2, s2, t2, r, u
                )
            yield (a, b, s, t, r, u), lhs == rhs


@_one("duality.dual_basis_two_vertex")
def _duality_dual_basis_two_vertex(p: int):
    K = cyclotomic_field(p)
    for a, b, s, t in _two_vertex_basis(p):
        ci, bvi = lp.dual_identification_two_vertex(K, a, b, s, t)
        for r in range(p):
            lhs = {}
            for u, coef in lp.dual_act_U2(K, a, b, s, t, r):
                cj, bvj = lp.dual_identification_two_vertex(K, a, b, s - r + u, t - u)
                add_term(lhs, bvj, coef * cj)
            rhs = scale(yds.act_Fr_basis(K, r, bvi), ci)
            yield (a, b, s, t, r), lhs == rhs


@_one("duality.dual_descriptors")
def _duality_dual_descriptors(p: int):
    for r, nu in _simples(p):
        dd = lp.dual_descriptor(p, cl.ModuleDescriptor("S" if r == p else "X", r, nu))
        yield ("X", r, nu), dd.r == r and (dd.nu + nu) % 4 == 0
    for r, nu in _simples(p - 1):
        dd = lp.dual_descriptor(p, cl.ModuleDescriptor("P", r, nu))
        yield ("P", r, nu), dd.r == r and (dd.nu + 2 + nu) % 4 == 0
        dv = lp.dual_descriptor(p, cl.ModuleDescriptor("V", r, nu))
        yield ("V", r, nu), dv.r == p - r and (dv.nu + nu + 1) % 4 == 0


# -- classify -----------------------------------------------------------------


@_one("classify.orbit_agreement")
def _classify_orbit_agreement(p: int):
    K = cyclotomic_field(p)
    for a, b, t in product(range(p), repeat=3):
        _, bd = cl.generate_submodule(K, yds.two_vertex(a, b, 0, t))
        cd = cl.classify_coinvariant(p, a, b, t)
        yield (a, b, t), (bd.kind, bd.r, bd.nu) == (cd.kind, cd.r, cd.nu)


def _classify_decomposition_counts(p: int):
    try:
        ch = cl.decompose_checks(p)
        ok = ch["one_vertex_ok"] and ch["two_vertex_ok"] and ch["v_total_ok"] and ch["p_total_ok"]
        detail = ""
    except VerificationError as exc:
        ok, detail = False, f"raised: {exc}"
    return [CheckResult("classify.decomposition_counts", ok, p**3 + p, detail)]


# -- fusion -------------------------------------------------------------------


@_one("fusion.theorem_both_paths")
def _fusion_theorem_both_paths(p: int):
    # both orders of each pair come from one table; an error entry fails
    table = fu.fusion_table(p, range(4))
    for (r1, nu1, r2, nu2), res in table.items():
        res2 = table[r2, nu2, r1, nu1]
        yield (r1, nu1, r2, nu2), (
            isinstance(res, tuple)
            and isinstance(res2, tuple)
            and sum(d.dimension(p) for d in res) == r1 * r2
            and res == res2
        )


@_one("fusion.five_case_table")
def _fusion_five_case_table(p: int):
    for a, b in product(range(p), repeat=2):
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
            yield (a, b, u), d.kind == want


@_one("fusion.map_is_morphism")
def _fusion_map_is_morphism(p: int):
    K = cyclotomic_field(p)
    for a, b in _sectors(p, p):
        images = {}  # fusion_map's; the act_Fr side builds its images anew
        for s, t in product(range(p), repeat=2):
            x = {(yds.one_vertex(a, s), yds.one_vertex(b, t)): K.one}
            fused = fu.fusion_map(K, x, images)
            ok = all(
                fu.fusion_map(K, yds.tensor_act_Fr(K, r, x), images) == yds.act_Fr(K, r, fused)
                for r in range(p)
            )
            yield (a, b, s, t), ok and yds.commutes_with_coaction(
                K, lambda w: fu.fusion_map(K, w, images), x
            )


# -- loop ---------------------------------------------------------------------


@_one("loop.chi_scalar_on_simples")
def _loop_chi_scalar_on_simples(p: int):
    K = cyclotomic_field(p)
    for (rp, nup), (r, nu) in product(_simples(p, (0, 1)), repeat=2):
        yield (rp, nup, r, nu), lp.verify_chi_on_simple(K, rp, nup, r, nu)


@_one("loop.steinberg_eigenvalue")
def _loop_steinberg_eigenvalue(p: int):
    K = cyclotomic_field(p)
    for nup, (r, nu) in product(range(4), _simples(p)):
        lam = lp.lambda_closed(K, p, nup, r, nu)
        yield (nup, r, nu), lam == lp.lambda_steinberg(K, nup, r, nu)


@_one("loop.lambda_sum_equals_ratio")
def _loop_lambda_sum_equals_ratio(p: int):
    K = cyclotomic_field(p)
    for (rp, nup), (r, nu) in product(_simples(p - 1, (0, 1)), _simples(p, (0, 1))):
        lam = lp.lambda_closed(K, rp, nup, r, nu)
        yield (rp, nup, r, nu), lam == lp.lambda_ratio(K, rp, nup, r, nu)


@_one("loop.subquotient_and_mod2")
def _loop_subquotient_and_mod2(p: int):
    K = cyclotomic_field(p)
    # rp < p, where mu is defined
    for (rp, nup), (r, nu) in product(_simples(p - 1), _simples(p)):
        lam = lp.lambda_closed(K, rp, nup, r, nu)
        ok = lam == lp.lambda_closed(K, p - rp, nup + 1, r, nu)
        ok = ok and lam == lp.lambda_closed(K, rp, nup + 2, r, nu + 2)
        ok = ok and lp.mu_closed(K, rp, nup, r, nu) == lp.mu_closed(K, rp, nup + 2, r, nu + 2)
        yield (rp, nup, r, nu), ok


@_one("loop.first_form_crosscheck")
def _loop_first_form_crosscheck(p: int):
    K = cyclotomic_field(p)
    y = {yds.one_vertex(p - 1, 0): K.one}
    for b in (0, 1):
        yield b, lp.chi_apply(K, y, b) == lp.chi_apply_first_form(K, y, b)


@_one("loop.chi_on_P_modules")
def _loop_chi_on_P_modules(p: int):
    K = cyclotomic_field(p)
    grid = cl.classification_grid(p)
    for (a, b, t), d in sorted(grid.items()):
        if d.kind != "L":
            continue
        vs, us, pdesc = cl.p_module_basis(K, a, t, b)
        for r, nu in _simples(p, (0, 1)):
            yield (a, t, b, r, nu), lp.verify_chi_on_P(K, vs, us, pdesc, r, nu)


@_one("loop.multiplicativity")
def _loop_multiplicativity(p: int):
    return lp.verify_against_lambda(p)


# -- ring ---------------------------------------------------------------------


def _ring_axioms(p: int):
    # the six axioms read one basis-product table, so they are one check task
    return [_check(f"ring.{key}", instances) for key, instances in fr.verify_ring(p).items()]


@_one("ring.matches_module_fusion")
def _ring_matches_module_fusion(p: int):
    return fr.verify_against_fusion(p)


@_one("ring.lambda_characters")
def _ring_lambda_characters(p: int):
    return lp.verify_against_lambda(p)


# Every check of every suite, in output order; one check is one parallel task.
CHECKS = {
    "hopf": (_hopf_bialgebra, _hopf_antipode, _hopf_coassociativity,
             _hopf_divided_powers, _hopf_shuffle_oracle, _hopf_half_twist_oracle),
    "yd": (_yd_one_vertex, _yd_two_vertex, _yd_tensor_products, _yd_closed_form_action),
    "braiding": (_braiding_B_inverse, _braiding_B2_composite,
                 _braiding_monodromy_closed_form, _braiding_coinvariant_scalar),
    "ribbon": (_ribbon_axiom_through_fusion, _ribbon_commutes_with_structure),
    "duality": (_duality_zigzag, _duality_dual_basis_one_vertex, _duality_ev_is_morphism,
                _duality_c_coefficient_symmetry, _duality_dual_basis_two_vertex,
                _duality_dual_descriptors),
    "classify": (_classify_orbit_agreement, _classify_decomposition_counts),
    "fusion": (_fusion_theorem_both_paths, _fusion_five_case_table, _fusion_map_is_morphism),
    "loop": (_loop_chi_scalar_on_simples, _loop_steinberg_eigenvalue,
             _loop_lambda_sum_equals_ratio, _loop_subquotient_and_mod2,
             _loop_first_form_crosscheck, _loop_chi_on_P_modules, _loop_multiplicativity),
    "ring": (_ring_axioms, _ring_matches_module_fusion, _ring_lambda_characters),
}


def _in_process(name: str, p: int) -> list:
    return [c for check in CHECKS[name] for c in check(p)]


# One suite's CheckResults, every check run in this process.


def suite_hopf(p: int):
    return _in_process("hopf", p)


def suite_yd(p: int):
    return _in_process("yd", p)


def suite_braiding(p: int):
    return _in_process("braiding", p)


def suite_ribbon(p: int):
    return _in_process("ribbon", p)


def suite_duality(p: int):
    return _in_process("duality", p)


def suite_classify(p: int):
    return _in_process("classify", p)


def suite_fusion(p: int):
    return _in_process("fusion", p)


def suite_loop(p: int):
    return _in_process("loop", p)


def suite_ring(p: int):
    return _in_process("ring", p)


SUITES = {
    "hopf": suite_hopf,
    "yd": suite_yd,
    "braiding": suite_braiding,
    "ribbon": suite_ribbon,
    "duality": suite_duality,
    "classify": suite_classify,
    "fusion": suite_fusion,
    "loop": suite_loop,
    "ring": suite_ring,
}


def _check_task(task):
    p, name, i = task
    return CHECKS[name][i](p)


def run_suite(p: int, name: str):
    """The CheckResults of one suite, or of every suite in SUITES order for
    name "all": the same results, in the same order, as SUITES[name](p).

    Each check is one parallel_map task, (p, suite, index), read from CHECKS
    inside the worker, so listing the tasks does no check work here.  The
    checks a worker runs share its field memos, which are dropped when the
    worker exits; a nested map (the fusion table of
    fusion.theorem_both_paths) runs in-process in that worker.
    """
    names = tuple(SUITES) if name == "all" else (name,)
    tasks = [(p, key, i) for key in names for i in range(len(CHECKS[key]))]
    return [c for checks in parallel_map(_check_task, tasks) for c in checks]
