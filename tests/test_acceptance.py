"""Acceptance suite: every criterion at its stated range, exact equality.

Each test prints one PASS/FAIL line (with elapsed time) for its criterion;
run with `pytest -s tests/test_acceptance.py` to see them as they complete.
"""

import time

import pytest

from nichols_fusion.cyclo import cyclotomic_field
from nichols_fusion import nichols as ni
from nichols_fusion import ydspace as yds
from nichols_fusion import classify as cl
from nichols_fusion import fusion as fu
from nichols_fusion import loop as lp
from nichols_fusion import fusionring as fr
from nichols_fusion.suites import (
    suite_hopf,
    suite_yd,
    suite_braiding,
    suite_ribbon,
    suite_duality,
    suite_fusion,
    suite_loop,
)
from nichols_fusion.ydspace import one_vertex, two_vertex


def criterion(number, label):
    def wrap(fn):
        def run(*args, **kwargs):
            t0 = time.time()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number:2d} FAIL {label} ({time.time()-t0:.1f}s)")
                raise
            print(f"ACCEPTANCE {number:2d} PASS {label} ({time.time()-t0:.1f}s)")

        run.__name__ = fn.__name__
        return run

    return wrap


@criterion(1, "Hopf axioms and braid-group oracles, p=2..6")
def test_criterion_1_hopf():
    for p in range(2, 7):
        for check in suite_hopf(p):
            assert check.ok, check
        K = cyclotomic_field(p)
        for r in range(7):
            for s in range(7 - r):
                assert ni.shuffle_product_oracle(K, r, s) == K.q_binom(r + s, r)


@criterion(2, "Yetter-Drinfeld axiom, p=2..5 (tensor products p=2..3)")
def test_criterion_2_yd():
    for p in range(2, 6):
        for check in suite_yd(p):
            assert check.ok, check


@criterion(3, "decomposition multiplicities and totals, p=2..6")
def test_criterion_3_decomposition():
    for p in range(2, 7):
        counts1, dim1 = cl.decompose_space(p, 1)
        assert dim1 == p * p
        assert counts1 == {("S", p): 1, **{("V", r): 1 for r in range(1, p)}}
        counts2, dim2 = cl.decompose_space(p, 2)
        assert dim2 == p**4
        assert counts2[("S", p)] == p * p
        for r in range(1, p):
            assert counts2[("V", r)] == 2 * r * (p - r)
            assert counts2[("P", r)] == (p - r) ** 2
        ch = cl.decompose_checks(p)
        assert 3 * ch["v_total"] == p * (p * p - 1)
        assert 6 * ch["p_total"] == p * (p - 1) * (2 * p - 1)


# the 75 displayed cells (a in {0,1,4}) of the p=5 classification table:
# (a, b, t) -> (kind, r, raw nu)
FIGURE_CELLS = {}
_ROWS = {
    (0, 0): [("X", 1, 0), ("X", 4, 1), ("L", 2, 1), ("S", 5, 2), ("B", 3, 2)],
    (0, 1): [("X", 2, 0), ("S", 5, 1), ("X", 3, 1), ("L", 1, 1), ("B", 4, 2)],
    (0, 2): [("X", 3, 0), ("L", 1, 0), ("B", 4, 1), ("X", 2, 1), ("S", 5, 2)],
    (0, 3): [("X", 4, 0), ("L", 2, 0), ("S", 5, 1), ("B", 3, 1), ("X", 1, 1)],
    (0, 4): [("S", 5, 0), ("L", 3, 0), ("L", 1, 0), ("B", 4, 1), ("B", 2, 1)],
    (1, 0): [("X", 2, 0), ("S", 5, 1), ("X", 3, 1), ("L", 1, 1), ("B", 4, 2)],
    (1, 1): [("X", 3, 0), ("X", 1, 0), ("X", 4, 1), ("X", 2, 1), ("S", 5, 2)],
    (1, 2): [("X", 4, 0), ("X", 2, 0), ("S", 5, 1), ("X", 3, 1), ("X", 1, 1)],
    (1, 3): [("S", 5, 0), ("X", 3, 0), ("L", 1, 0), ("B", 4, 1), ("X", 2, 1)],
    (1, 4): [("L", 1, -1), ("B", 4, 0), ("L", 2, 0), ("S", 5, 1), ("B", 3, 1)],
    (4, 0): [("S", 5, 0), ("L", 3, 0), ("L", 1, 0), ("B", 4, 1), ("B", 2, 1)],
    (4, 1): [("L", 1, -1), ("B", 4, 0), ("L", 2, 0), ("S", 5, 1), ("B", 3, 1)],
    (4, 2): [("L", 2, -1), ("S", 5, 0), ("B", 3, 0), ("L", 1, 0), ("B", 4, 1)],
    (4, 3): [("L", 3, -1), ("L", 1, -1), ("B", 4, 0), ("B", 2, 0), ("S", 5, 1)],
    (4, 4): [("L", 4, -1), ("L", 2, -1), ("S", 5, 0), ("B", 3, 0), ("B", 1, 0)],
}
for (a, b), col in _ROWS.items():
    for t, cell in enumerate(col):
        FIGURE_CELLS[(a, b, t)] = cell


@criterion(4, "reference classification table at p=5, all 75 displayed cells")
def test_criterion_4_figure_table():
    grid = cl.classification_grid(5)
    assert len(FIGURE_CELLS) == 75
    for (a, b, t), (kind, r, nu) in FIGURE_CELLS.items():
        d = grid[(a, b, t)]
        assert (d.kind, d.r, d.nu) == (kind, r, nu), ((a, b, t), d, (kind, r, nu))


@criterion(5, "fusion theorem, closed form == brute force, p=2..5, full Z4 grids")
def test_criterion_5_fusion():
    for p in range(2, 6):
        for r1 in range(1, p + 1):
            for nu1 in range(4):
                for r2 in range(1, p + 1):
                    for nu2 in range(4):
                        res = fu.fuse_simples(p, r1, nu1, r2, nu2)
                        assert sum(d.dimension(p) for d in res) == r1 * r2
                        for d in res:
                            assert d.nu == (nu1 + nu2) % 4


@criterion(6, "monodromy closed form (i = n slice of the display), p=2..4")
def test_criterion_6_monodromy():
    for p in range(2, 5):
        K = cyclotomic_field(p)
        for a in range(2 * p):
            for b in range(2 * p):
                for s in range(p):
                    for t in range(p):
                        closed = fu.monodromy_closed_form(K, a, b, s, t)
                        assert fu.fused_monodromy(K, a, b, s, t) == closed
    print(
        "\n  interpretation: fusion_map(B^2(...)) equals the i = n slice of the"
        " published display; the literal triple sum does not match"
    )


@criterion(7, "ribbon axiom through the fusion embedding, p=2..4")
def test_criterion_7_ribbon():
    for p in range(2, 5):
        for check in suite_ribbon(p):
            assert check.ok, check


@criterion(8, "duality: zigzag, dual-basis identifications, c-symmetry, duals")
def test_criterion_8_duality():
    for p in range(2, 5):
        for check in suite_duality(p):
            assert check.ok, check


@criterion(9, "loop operator: lambda on simples and Steinberg, mu on P, p=2..5")
def test_criterion_9_loop():
    for p in range(2, 6):
        for check in suite_loop(p):
            assert check.ok, check
        K = cyclotomic_field(p)
        # actual matrices across the full Z4 sector range, confirming that the
        # running depends on both braiding indices only mod 2
        for rp in range(1, p + 1):
            for nup in range(4):
                for r in range(1, p + 1):
                    for nu in range(4):
                        assert lp.verify_chi_on_simple(K, rp, nup, r, nu)
                        lam = lp.lambda_closed(K, rp, nup, r, nu)
                        assert lam == lp.lambda_closed(K, rp, nup % 2, r, nu % 2)
                        if rp == p:
                            assert lam == lp.lambda_steinberg(K, nup, r, nu)
        # chi on P modules for Z in all four braiding sectors
        grid = cl.classification_grid(p)
        for (a, b, t), d in sorted(grid.items()):
            if d.kind != "L":
                continue
            vs, us, pdesc = cl.p_module_basis(K, a, t, b)
            for r in range(1, p + 1):
                for nu in range(4):
                    assert lp.verify_chi_on_P(K, vs, us, pdesc, r, nu)


@criterion(10, "multiplicativity chi_W o chi_Z = chi_{W x Z}, p=2..5")
def test_criterion_10_multiplicativity():
    for p in range(2, 6):
        for rw in range(1, p + 1):
            for nuw in range(4):
                for rz in range(1, p + 1):
                    for nuz in range(4):
                        for ry in range(1, p + 1):
                            for nuy in range(4):
                                assert lp.verify_multiplicativity(
                                    p, (rw, nuw), (rz, nuz), (ry, nuy)
                                )


@criterion(11, "fusion ring: axioms p<=10, module fusion p=2..5, characters p=2..4")
def test_criterion_11_ring():
    for p in range(2, 11):
        assert all(ok for pairs in fr.verify_ring(p).values() for _, ok in pairs), p
    for p in range(2, 6):
        assert all(ok for _, ok in fr.verify_against_fusion(p))
    for p in range(2, 5):
        assert all(ok for _, ok in lp.verify_against_lambda(p))


@criterion(12, "CLI determinism: verify --p 3 --suite all twice, byte-identical")
def test_criterion_12_cli_determinism():
    import io
    import contextlib
    import tempfile
    from nichols_fusion.cli import main

    outs = []
    codes = []
    cache = tempfile.mkdtemp(prefix="nichols-fusion-cache-")
    for _ in range(2):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            codes.append(
                main(["verify", "--p", "3", "--suite", "all", "--cache-dir", str(cache)])
            )
        outs.append(buf.getvalue())
    assert codes == [0, 0]
    assert outs[0] == outs[1]
    assert outs[0].encode() == outs[1].encode()


@pytest.fixture(scope="session", autouse=True)
def _summary():
    yield
    print("\nacceptance checks complete")
