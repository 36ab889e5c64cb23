"""Verification suites: every closed-form claim, checked mechanically at one p.

Each suite returns a list of CheckResult; a check passes only if every
instance in its (exhaustive) range holds exactly.  These are the same checks
the test suite runs over the acceptance p-ranges; the CLI exposes them per p.
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


def _check(results, name, pairs):
    """Record one check over its (label, good) instances, counting every
    failing one.

    A VerificationError raised by the instance generator counts as one more
    failing instance and ends the check; its message goes into the detail.
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
    results.append(CheckResult(name, not failing, count, detail))


# The index sets the checks iterate, each in the nesting order its labels use.


def _one_vertex_pairs(p: int, nb: int):
    """(a, b, s, t) labelling V^a_s (x) V^b_t: a in [0, 2p), b in [0, nb),
    s, t in [0, p)."""
    return product(range(2 * p), range(nb), range(p), range(p))


def _two_vertex_basis(p: int):
    """(a, b, s, t) labelling V^{a,b}_{s,t}, all in [0, p)."""
    return product(range(p), repeat=4)


def _simples(p: int, nus=range(4)) -> list:
    """Labels (r, nu) of the simples X(r)_nu: r in [1, p], nu in nus."""
    return list(product(range(1, p + 1), nus))


def _charges(p: int) -> list:
    """The charge a = r - 1 - nu*p realizing each X(r)_nu, nu in [0, 4)."""
    return [cl.simple_charge(p, r, nu) for nu in range(4) for r in range(1, p + 1)]


def suite_hopf(p: int):
    K = cyclotomic_field(p)
    out = []
    basis = [ni.f_elt(K, r) for r in range(p)]

    def bialgebra():
        for r, s in product(range(p), repeat=2):
            lhs = ni.coproduct(K, ni.product(K, basis[r], basis[s]))
            rhs = ni.tensor_square_product(
                K, ni.coproduct(K, basis[r]), ni.coproduct(K, basis[s])
            )
            yield (r, s), lhs == rhs

    _check(out, "hopf.bialgebra", bialgebra())

    def antipode_axiom():
        def left(ij):  # m (A (x) id) on F(i) (x) F(j)
            return ni.product(K, ni.antipode(K, basis[ij[0]]), basis[ij[1]])

        def right(ij):  # m (id (x) A)
            return ni.product(K, basis[ij[0]], ni.antipode(K, basis[ij[1]]))

        for r in range(p):
            cp = ni.coproduct(K, basis[r])
            want = {0: K.one} if r == 0 else {}
            yield r, linear_extend(left, cp) == want and linear_extend(right, cp) == want

    _check(out, "hopf.antipode", antipode_axiom())

    def coassoc():
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

    _check(out, "hopf.coassociativity", coassoc())

    def divided_powers():
        fp = {1: K.one}
        power = {0: K.one}
        good = True
        for r in range(1, p):
            power = ni.product(K, power, fp)
            good = good and power == {r: K.q_fact(r)}
        power = ni.product(K, power, fp)
        yield "F^p=0", good and power == {}

    _check(out, "hopf.divided_powers", divided_powers())

    def shuffle():
        cap = min(6, 2 * p)
        for r in range(cap + 1):
            for s in range(cap + 1 - r):
                yield (r, s), ni.shuffle_product_oracle(K, r, s) == K.q_binom(r + s, r)

    _check(out, "hopf.shuffle_oracle", shuffle())

    def half_twist():
        for r in range(p):
            yield r, ni.half_twist_oracle(K, r) == ni.antipode_coeff(K, r)

    _check(out, "hopf.half_twist_oracle", half_twist())
    return out


def suite_yd(p: int):
    K = cyclotomic_field(p)
    out = []

    def one_vertex():
        for a, s in product(range(2 * p), range(p)):
            for r, ok in yds.yd_axiom_checks(K, {yds.one_vertex(a, s): K.one}):
                yield (a, s, r), ok

    _check(out, "yd.one_vertex", one_vertex())

    def two_vertex():
        for a, b, s, t in _two_vertex_basis(p):
            for r, ok in yds.yd_axiom_checks(K, {yds.two_vertex(a, b, s, t): K.one}):
                yield (a, b, s, t, r), ok

    _check(out, "yd.two_vertex", two_vertex())

    if p <= 3:

        def tensor():
            for a, b in product(range(2 * p), repeat=2):
                for s, t in product(range(a % p + 1), range(b % p + 1)):
                    x = {(yds.one_vertex(a, s), yds.one_vertex(b, t)): K.one}
                    for r, ok in yds.yd_axiom_checks(K, x):
                        yield (a, b, s, t, r), ok

        _check(out, "yd.tensor_products", tensor())

    def closed_vs_iterated():
        for a, b, s, t in _two_vertex_basis(p):
            bv = yds.two_vertex(a, b, s, t)
            it = {bv: K.one}  # F^r |> bv = [r]! F(r) |> bv, and [r]! != 0 for r < p
            for r in range(p):
                it = yds.act_F(K, it) if r else it
                want = scale(yds.act_Fr_basis(K, r, bv), K.q_fact(r))
                yield (a, b, s, t, r), want == it

    _check(out, "yd.closed_form_action", closed_vs_iterated())
    return out


def suite_braiding(p: int):
    K = cyclotomic_field(p)
    out = []

    def inverses():
        for a, b, s, t in _one_vertex_pairs(p, 2 * p):
            x = {(yds.one_vertex(a, s), yds.one_vertex(b, t)): K.one}
            ok = yds.braid_B_inv(K, yds.braid_B(K, x)) == x
            ok = ok and yds.braid_B(K, yds.braid_B_inv(K, x)) == x
            yield (a, b, s, t), ok

    _check(out, "braiding.B_inverse", inverses())

    def b2_onepass():
        for a, b, s, t in _one_vertex_pairs(p, p):
            x = {(yds.one_vertex(a, s), yds.one_vertex(b, t)): K.one}
            yield (a, b, s, t), yds.braid_B2(K, x) == yds.braid_B2_onepass(K, x)

    _check(out, "braiding.B2_composite", b2_onepass())

    def b2_closed():
        for a, b, s, t in _one_vertex_pairs(p, 2 * p):
            yield (a, b, s, t), (
                fu.fused_monodromy(K, a, b, s, t) == fu.monodromy_closed_form(K, a, b, s, t)
            )

    _check(out, "braiding.monodromy_closed_form", b2_closed())

    def b2_coinv():
        for a, b in product(range(2 * p), repeat=2):
            x = {(yds.one_vertex(a, 0), yds.one_vertex(b, 0)): K.one}
            yield (a, b), yds.braid_B2(K, x) == {next(iter(x)): K.q_pow(a * b)}

    _check(out, "braiding.coinvariant_scalar", b2_coinv())
    return out


def suite_ribbon(p: int):
    K = cyclotomic_field(p)
    out = []

    def axiom():
        for a, b in product(_charges(p), repeat=2):
            th = yds.ribbon_scalar(K, a) * yds.ribbon_scalar(K, b)
            for s, t in product(range(a % p + 1), range(b % p + 1)):
                y, z = yds.one_vertex(a, s), yds.one_vertex(b, t)
                lhs = fu.fusion_map(K, yds.braid_B2(K, {(y, z): th}))
                rhs = yds.ribbon(K, fu.fusion_map_basis(K, y, z))
                yield (a, b, s, t), lhs == rhs

    _check(out, "ribbon.axiom_through_fusion", axiom())

    def commutes():
        for a, b, s, t in _two_vertex_basis(p):
            v = {yds.two_vertex(a, b, s, t): K.one}
            ok = yds.ribbon(K, yds.act_F(K, v)) == yds.act_F(K, yds.ribbon(K, v))
            yield (a, b, s, t), ok and yds.commutes_with_coaction(K, lambda w: yds.ribbon(K, w), v)

    _check(out, "ribbon.commutes_with_structure", commutes())
    return out


def suite_duality(p: int):
    K = cyclotomic_field(p)
    out = []

    def zigzag():
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

    _check(out, "duality.zigzag", zigzag())

    def identification_1v():
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

    _check(out, "duality.dual_basis_one_vertex", identification_1v())

    def ev_morphism():
        for a, s, t, n in product(range(2 * p), range(p), range(p), range(p)):
            u, v = yds.one_vertex(2 * p - a - 2, s), yds.one_vertex(a, t)
            val = lp.ev(K, yds.tensor_act_Fr(K, n, {(u, v): K.one}))
            want = lp.ev_one_vertex(K, u, v) if n == 0 else K.zero
            lhsv = lp.ev(K, {(bu, v): c for bu, c in yds.act_Fr_basis(K, n, u).items()})
            rhsv = lp.ev(K, {(u, bv): c for bv, c in yds.act_Fr_basis(K, n, v).items()})
            rhsv = K.q_pow(-n * u.charge) * ni.antipode_coeff(K, n) * rhsv
            yield (a, s, t, n), val == want and lhsv == rhsv

    _check(out, "duality.ev_is_morphism", ev_morphism())

    def c_symmetry():
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

    _check(out, "duality.c_coefficient_symmetry", c_symmetry())

    def identification_2v():
        for a, b, s, t in _two_vertex_basis(p):
            ci, bvi = lp.dual_identification_two_vertex(K, a, b, s, t)
            for r in range(p):
                lhs = {}
                for u, coef in lp.dual_act_U2(K, a, b, s, t, r):
                    cj, bvj = lp.dual_identification_two_vertex(K, a, b, s - r + u, t - u)
                    add_term(lhs, bvj, coef * cj)
                rhs = scale(yds.act_Fr_basis(K, r, bvi), ci)
                yield (a, b, s, t, r), lhs == rhs

    _check(out, "duality.dual_basis_two_vertex", identification_2v())

    def descriptors():
        for r, nu in _simples(p):
            dd = lp.dual_descriptor(p, cl.ModuleDescriptor("S" if r == p else "X", r, nu))
            yield ("X", r, nu), dd.r == r and (dd.nu + nu) % 4 == 0
        for r, nu in _simples(p - 1):
            dd = lp.dual_descriptor(p, cl.ModuleDescriptor("P", r, nu))
            yield ("P", r, nu), dd.r == r and (dd.nu + 2 + nu) % 4 == 0
            dv = lp.dual_descriptor(p, cl.ModuleDescriptor("V", r, nu))
            yield ("V", r, nu), dv.r == p - r and (dv.nu + nu + 1) % 4 == 0

    _check(out, "duality.dual_descriptors", descriptors())
    return out


def suite_fusion(p: int):
    K = cyclotomic_field(p)
    out = []

    def grid():
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

    _check(out, "fusion.theorem_both_paths", grid())

    def five_cases():
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

    _check(out, "fusion.five_case_table", five_cases())

    def intertwiner():
        for a, b, s, t in _one_vertex_pairs(p, p):
            x = {(yds.one_vertex(a, s), yds.one_vertex(b, t)): K.one}
            fused = fu.fusion_map_basis(K, yds.one_vertex(a, s), yds.one_vertex(b, t))
            ok = all(
                fu.fusion_map(K, yds.tensor_act_Fr(K, r, x)) == yds.act_Fr(K, r, fused)
                for r in range(p)
            )
            yield (a, b, s, t), ok and yds.commutes_with_coaction(
                K, lambda w: fu.fusion_map(K, w), x
            )

    _check(out, "fusion.map_is_morphism", intertwiner())
    return out


def suite_loop(p: int):
    K = cyclotomic_field(p)
    out = []

    def simples():
        for (rp, nup), (r, nu) in product(_simples(p, (0, 1)), repeat=2):
            yield (rp, nup, r, nu), lp.verify_chi_on_simple(K, rp, nup, r, nu)

    _check(out, "loop.chi_scalar_on_simples", simples())

    def steinberg():
        for nup, (r, nu) in product(range(4), _simples(p)):
            lam = lp.lambda_closed(K, p, nup, r, nu)
            yield (nup, r, nu), lam == lp.lambda_steinberg(K, nup, r, nu)

    _check(out, "loop.steinberg_eigenvalue", steinberg())

    def ratio_form():
        for (rp, nup), (r, nu) in product(_simples(p - 1, (0, 1)), _simples(p, (0, 1))):
            lam = lp.lambda_closed(K, rp, nup, r, nu)
            yield (rp, nup, r, nu), lam == lp.lambda_ratio(K, rp, nup, r, nu)

    _check(out, "loop.lambda_sum_equals_ratio", ratio_form())

    def identities():
        # rp < p, where mu is defined
        for (rp, nup), (r, nu) in product(_simples(p - 1), _simples(p)):
            lam = lp.lambda_closed(K, rp, nup, r, nu)
            ok = lam == lp.lambda_closed(K, p - rp, nup + 1, r, nu)
            ok = ok and lam == lp.lambda_closed(K, rp, nup + 2, r, nu + 2)
            ok = ok and lp.mu_closed(K, rp, nup, r, nu) == lp.mu_closed(K, rp, nup + 2, r, nu + 2)
            yield (rp, nup, r, nu), ok

    _check(out, "loop.subquotient_and_mod2", identities())

    def first_form():
        y = {yds.one_vertex(p - 1, 0): K.one}
        for b in (0, 1):
            yield b, lp.chi_apply(K, y, b) == lp.chi_apply_first_form(K, y, b)

    _check(out, "loop.first_form_crosscheck", first_form())

    def on_p_modules():
        grid = cl.classification_grid(p)
        for (a, b, t), d in sorted(grid.items()):
            if d.kind != "L":
                continue
            vs, us, pdesc = cl.p_module_basis(K, a, t, b)
            for r, nu in _simples(p, (0, 1)):
                yield (a, t, b, r, nu), lp.verify_chi_on_P(K, vs, us, pdesc, r, nu)

    _check(out, "loop.chi_on_P_modules", on_p_modules())
    _check(out, "loop.multiplicativity", lp.verify_against_lambda(p))
    return out


def suite_ring(p: int):
    out = []
    for key, instances in fr.verify_ring(p).items():
        _check(out, f"ring.{key}", instances)
    _check(out, "ring.matches_module_fusion", fr.verify_against_fusion(p))
    _check(out, "ring.lambda_characters", lp.verify_against_lambda(p))
    return out


def suite_classify(p: int):
    K = cyclotomic_field(p)
    out = []

    def agreement():
        for a, b, t in product(range(p), repeat=3):
            _, bd = cl.generate_submodule(K, yds.two_vertex(a, b, 0, t))
            cd = cl.classify_coinvariant(p, a, b, t)
            yield (a, b, t), (bd.kind, bd.r, bd.nu) == (cd.kind, cd.r, cd.nu)

    _check(out, "classify.orbit_agreement", agreement())

    try:
        ch = cl.decompose_checks(p)
        ok = ch["one_vertex_ok"] and ch["two_vertex_ok"] and ch["v_total_ok"] and ch["p_total_ok"]
        detail = ""
    except VerificationError as exc:
        ok, detail = False, f"raised: {exc}"
    out.append(CheckResult("classify.decomposition_counts", ok, p**3 + p, detail))
    return out


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


def _suite_task(task):
    p, name = task
    return SUITES[name](p)


def run_suite(p: int, name: str):
    """The CheckResults of one suite, or of every suite in SUITES order for
    name "all".

    "all" runs each suite as one parallel_map task, read from SUITES inside
    the worker.  The suites a worker runs share its field memos, which are
    dropped when the worker exits; the results are the same, in the same
    order, as from one process.  One named suite runs in this process (the
    fusion suite still spreads its table rows; see fusion.fusion_table).
    """
    if name == "all":
        return [c for checks in parallel_map(_suite_task, [(p, key) for key in SUITES])
                for c in checks]
    return SUITES[name](p)
