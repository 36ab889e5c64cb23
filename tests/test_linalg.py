from nichols_fusion.cyclo import cyclotomic_field
from nichols_fusion.linalg import Echelon, linear_extend


def test_stored_row_is_not_the_callers_vector():
    K = cyclotomic_field(5)
    ech = Echelon(K)
    unit = {0: K.one, 2: K.zeta_pow(3), 5: K.q_int(2)}
    scaled = {1: K.q_int(3), 4: K.one}
    for vec in (unit, scaled):
        assert ech.add(vec)
    snapshot = {piv: dict(row) for piv, row in ech.rows.items()}
    unit[0] = K.from_int(7)
    unit[3] = K.one
    del unit[2]
    scaled[1] = K.zero
    assert ech.rows == snapshot
    assert ech.rows[0][0] == ech.rows[1][1] == K.one


def test_coordinates_match_a_non_unit_pivot_basis():
    K = cyclotomic_field(5)
    vecs = {
        "a": {0: K.one, 1: K.zeta_pow(1), 3: K.q_int(2)},
        "b": {1: K.one, 2: K.from_int(-3)},
        "c": {0: K.one, 2: K.zeta_pow(5), 4: K.one},
    }
    scales = {"a": K.q_int(3), "b": K.from_int(2) + K.zeta_pow(1), "c": K.xi()}
    unit, other = Echelon(K), Echelon(K)
    for tag, vec in vecs.items():
        assert unit.add(vec, tag)
        assert other.add({k: scales[tag] * c for k, c in vec.items()}, tag)
    assert unit.rank == other.rank == 3

    weights = {"a": K.q_pow(3), "b": K.from_int(-1), "c": K.q_int(4)}
    target = {}
    for tag, vec in vecs.items():
        for k, c in vec.items():
            target[k] = target.get(k, K.zero) + weights[tag] * c
    got = unit.coordinates(target)
    assert got == weights
    got_other = other.coordinates(target)
    assert {t: c * scales[t] for t, c in got_other.items()} == weights

    outside = dict(target)
    outside[6] = K.one
    assert unit.coordinates(outside) is None and other.coordinates(outside) is None
    assert unit.contains(target) and not other.contains(outside)


def test_linear_extend_drops_cancelling_terms_and_empty_images():
    K = cyclotomic_field(3)
    images = {
        "x": {0: K.one, 1: K.q_pow(1)},
        "y": {1: K.q_pow(1), 2: K.from_int(2)},
        "z": {},
    }
    vec = {"x": K.from_int(3), "y": K.from_int(-3), "z": K.q_int(2)}
    got = linear_extend(images.__getitem__, vec)
    assert got == {0: K.from_int(3), 2: K.from_int(-6)}
    assert linear_extend(images.__getitem__, {"z": K.one}) == {}
    assert linear_extend(images.__getitem__, {}) == {}
