import pytest

from nichols_fusion.cyclo import cyclotomic_field
from nichols_fusion import classify as cl
from nichols_fusion import ydspace as yds
from nichols_fusion.linalg import Echelon
from nichols_fusion.ydspace import one_vertex, two_vertex


def test_braiding_sector():
    assert cl.raw_nu(1, 2, 5) == 0
    assert cl.raw_nu(-6, 5, 5) == 2
    with pytest.raises(ValueError):
        cl.raw_nu(1, 3, 5)


def test_classify_examples_p5():
    d = cl.classify_coinvariant(5, 0, 0, 0)
    assert (d.kind, d.r, d.nu) == ("X", 1, 0)
    d = cl.classify_coinvariant(5, 0, 0, 2)
    assert (d.kind, d.r, d.nu) == ("L", 2, 1)
    d = cl.classify_coinvariant(5, 0, 4, 0)
    assert (d.kind, d.r, d.nu) == ("S", 5, 0)
    with pytest.raises(ValueError):
        cl.classify_coinvariant(5, 0, 0, 5)


def test_condition_families_partition():
    # exactly one of {S, Xi or Xii, the four P conditions (with r <= p-1)}
    # holds for every coinvariant
    for p in (2, 3, 4, 5, 6):
        for a in range(p):
            for b in range(p):
                for t in range(p):
                    r = (a + b - 2 * t) % p + 1
                    s_cond = r == p
                    xi = (t <= a and a - r + 1 <= t <= p - 1 - r) or (
                        t >= a + 1 and p - r <= t <= p - r + a
                    )
                    pc = r <= p - 1 and (
                        t >= p - r + a + 1
                        or p - r <= t <= a
                        or t <= a - r
                        or a + 1 <= t <= p - r - 1
                    )
                    assert int(s_cond) + int(xi) + int(pc) == 1, (p, a, b, t)


@pytest.mark.parametrize("p", [2, 3, 4, 5, 6])
def test_generate_submodule_agrees_with_conditions(p):
    K = cyclotomic_field(p)
    for a in range(p):
        for b in range(p):
            for t in range(p):
                basis, bd = cl.generate_submodule(K, two_vertex(a, b, 0, t))
                cd = cl.classify_coinvariant(p, a, b, t)
                assert (bd.kind, bd.r, bd.nu) == (cd.kind, cd.r, cd.nu)
                assert len(basis) == (p if bd.kind in ("S", "L") else bd.r)


def test_generate_submodule_one_vertex_examples():
    K = cyclotomic_field(5)
    basis, d = cl.generate_submodule(K, one_vertex(0, 0))
    assert d.kind == "X" and d.r == 1 and len(basis) == 1
    basis, d = cl.generate_submodule(K, one_vertex(4, 0))
    assert d.kind == "S" and d.r == 5 and len(basis) == 5
    with pytest.raises(ValueError):
        cl.generate_submodule(K, one_vertex(0, 1))


def test_generate_submodule_L_example_p5():
    K = cyclotomic_field(5)
    basis, d = cl.generate_submodule(K, two_vertex(0, 0, 0, 2))
    assert (d.kind, d.r) == ("L", 2) and len(basis) == 5
    # after 2 steps a new coinvariant proportional to V^{0,0}_{0,4}
    assert set(basis[2]) == {two_vertex(0, 0, 0, 4)}


def extend_to_V(K, desc):
    """Extend X(r) (r < p) to the p-dimensional V[r] by coaction closure.

    Returns (basis, descriptor); the added upper-floor vectors are the F-orbit
    of the explicit top vector, and their coaction is checked to land in the
    span (that is what makes the extension a module comodule).
    """
    if desc.kind != "X" or desc.r >= K.p:
        raise ValueError(f"extend_to_V needs an X(r) with r < p, got {desc}")
    p = K.p
    if len(desc.labels) == 1:
        a = desc.labels[0]
        seed = yds.one_vertex(a, 0)
        top = {yds.one_vertex(a, desc.r): K.one}
    else:
        a, t, b = desc.labels
        seed = yds.two_vertex(a, b, 0, t)
        top = cl.top_extension_vector(K, a, b, t, desc.r)
    basis, _ = cl.generate_submodule(K, seed)
    ech = Echelon(K)
    for v in basis:
        ech.add(v)
    upper = []
    v = top
    while v:
        upper.append(v)
        if not ech.add(v):
            raise yds.VerificationError(f"upper floor vector of {desc} already in the submodule")
        v = yds.act_F(K, v)
    if len(basis) + len(upper) != p:
        raise yds.VerificationError(f"{desc} extends to dimension {len(basis) + len(upper)}")
    # coaction closure: every coaction component of the extension stays inside
    for v in upper:
        if not all(ech.contains(comp) for _, comp in yds.coact(K, v)):
            raise yds.VerificationError(f"the coaction leaves the extension of {desc}")
    return basis + upper, cl.ModuleDescriptor("V", desc.r, desc.nu, desc.labels)


def test_extend_to_V():
    K = cyclotomic_field(5)
    basis, d = extend_to_V(K, cl.classify_coinvariant(5, 1, 1, 1))
    assert d.kind == "V" and d.r == 1 and len(basis) == 5
    basis, d = extend_to_V(K, cl.classify_one_vertex(5, 2))
    assert d.kind == "V" and d.r == 3 and len(basis) == 5
    with pytest.raises(ValueError):
        extend_to_V(K, cl.classify_coinvariant(5, 0, 4, 0))  # an S


def test_extend_to_P():
    K = cyclotomic_field(5)
    ld = cl.classify_coinvariant(5, 0, 0, 2)
    basis, d = cl.extend_to_P(K, ld)
    assert d.kind == "P" and d.r == 2 and d.nu == 1 and len(basis) == 10
    # P[p] is the Steinberg itself
    sp = cl.extend_to_P(K, cl.classify_coinvariant(5, 0, 4, 0))
    assert sp.kind == "X" and sp.r == 5
    with pytest.raises(ValueError):
        cl.extend_to_P(K, cl.classify_coinvariant(5, 0, 0, 0))  # an X(1)


@pytest.mark.parametrize("p", [2, 3, 4, 5, 6])
def test_decompose_space(p):
    counts1, dim1 = cl.decompose_space(p, 1)
    assert dim1 == p * p
    assert counts1[("S", p)] == 1
    for r in range(1, p):
        assert counts1[("V", r)] == 1
    counts2, dim2 = cl.decompose_space(p, 2)
    assert dim2 == p**4
    assert counts2[("S", p)] == p * p
    for r in range(1, p):
        assert counts2[("V", r)] == 2 * r * (p - r)
        assert counts2[("P", r)] == (p - r) ** 2
    ch = cl.decompose_checks(p)
    assert ch["v_total_ok"] and ch["p_total_ok"]


def test_decompose_p2_example():
    counts, dim = cl.decompose_space(2, 1)
    assert counts == {("S", 2): 1, ("V", 1): 1} and dim == 4
    counts, dim = cl.decompose_space(5, 2)
    assert counts[("S", 5)] == 25
    assert [counts[("V", r)] for r in range(1, 5)] == [8, 12, 12, 8]
    assert [counts[("P", r)] for r in range(1, 5)] == [16, 9, 4, 1]
    assert dim == 625
