"""The basis images that five checks cache per (a, b) sector, and the
closed form's sums that the monodromy check caches for the whole check."""

from collections import Counter

import pytest

from nichols_fusion import fusion as fu
from nichols_fusion import linalg
from nichols_fusion import suites
from nichols_fusion import ydspace as yds
from nichols_fusion.cyclo import cyclotomic_field

CACHED_CHECKS = [
    suites._braiding_B_inverse,
    suites._braiding_B2_composite,
    suites._braiding_monodromy_closed_form,
    suites._ribbon_axiom_through_fusion,
    suites._fusion_map_is_morphism,
]
CHECK_IDS = ["B_inverse", "B2_composite", "monodromy_closed_form", "ribbon_axiom_through_fusion",
             "fusion_map_is_morphism"]
BRAIDS = ("braid_B", "braid_B_inv")  # the maps whose basis images are closures


class Spy:
    """Logs, in order, each instance label a check yields and each braid_B,
    braid_B_inv or fusion_map_basis image built before it, cached or not;
    keeps every images dict passed to linear_extend and every sums dict
    passed to the closed form, with the basis map that fills it."""

    def __init__(self, monkeypatch):
        self.events, self.images, self.sums = [], [], []
        extend, check, basis, closed = (
            linalg.linear_extend, suites._check, fu.fusion_map_basis, fu.monodromy_closed_form)

        def linear_extend(basis_map, vec, images=None):
            name = basis_map.__qualname__.split(".")[0]
            if name in BRAIDS:
                def counted(key):
                    self.events.append(("build", name, key))
                    return basis_map(key)
            else:
                counted = basis_map
            if images is None:
                return extend(counted, vec)
            if all(images is not d for _, d in self.images):
                self.images.append((basis_map, images))
            return extend(counted, vec, images)

        def fusion_map_basis(K, bv1, bv2):
            self.events.append(("build", "fusion_map_basis", (bv1, bv2)))
            return basis(K, bv1, bv2)

        def monodromy_closed_form(K, a, b, s, t, sums=None):
            if sums is None:
                return closed(K, a, b, s, t)
            if all(sums is not d for d in self.sums):
                self.sums.append(sums)
            return closed(K, a, b, s, t, sums)

        def logged(name, pairs):
            def marked():
                for label, good in pairs:
                    self.events.append(("label", label))
                    yield label, good

            return check(name, marked())

        for mod in (yds, fu):
            monkeypatch.setattr(mod, "linear_extend", linear_extend)
        monkeypatch.setattr(fu, "fusion_map_basis", fusion_map_basis)
        monkeypatch.setattr(fu, "monodromy_closed_form", monodromy_closed_form)
        monkeypatch.setattr(suites, "_check", logged)

    def builds_by_sector(self):
        """{(a, b, map name): Counter of the keys built in that sector}; a
        build belongs to the instance whose label comes next."""
        sectors, pending = {}, []
        for event in self.events:
            if event[0] == "build":
                pending.append(event[1:])
                continue
            a, b = event[1][:2]
            for name, key in pending:
                sectors.setdefault((a, b, name), Counter())[key] += 1
            pending = []
        assert not pending
        return sectors


@pytest.mark.usefixtures("fresh_fields")
@pytest.mark.parametrize("check", CACHED_CHECKS, ids=CHECK_IDS)
def test_each_sector_builds_each_image_once(monkeypatch, check):
    spy = Spy(monkeypatch)
    [result] = check(3)
    assert result.ok, result
    sectors = spy.builds_by_sector()
    assert sectors
    twice = {key: [k for k, n in keys.items() if n > 1] for key, keys in sectors.items()}
    assert not {key: ks for key, ks in twice.items() if ks}


@pytest.mark.usefixtures("fresh_fields")
@pytest.mark.parametrize("check", CACHED_CHECKS, ids=CHECK_IDS)
def test_cached_images_equal_a_fresh_build_after_the_check(monkeypatch, check):
    spy = Spy(monkeypatch)
    [result] = check(3)
    assert result.ok, result
    monkeypatch.undo()
    K = cyclotomic_field(3)
    assert spy.images
    for basis_map, images in spy.images:
        assert images
        for key, image in images.items():
            assert image == basis_map(key), key
    for sums in spy.sums:
        assert len(sums) == K.p**3
        for (b, s, t), row in sums.items():
            assert row == fu._monodromy_sums(K, 0, b, s, t), (b, s, t)
    assert len(spy.sums) == (check is suites._braiding_monodromy_closed_form)


def test_images_dict_is_filled_only_by_a_build_that_returns():
    K = cyclotomic_field(3)
    x = {(yds.one_vertex(0, 1), yds.one_vertex(1, 2)): K.one}
    images = {}
    want = yds.braid_B(K, x)
    assert yds.braid_B(K, x, images) == want
    assert list(images) == list(x)

    def boom(key):
        raise linalg.VerificationError("planted")

    with pytest.raises(linalg.VerificationError):
        linalg.linear_extend(boom, {"k": K.one}, images)
    assert list(images) == list(x)
    assert linalg.linear_extend(boom, x, images) == want  # a hit builds nothing
