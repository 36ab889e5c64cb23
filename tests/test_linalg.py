from hypothesis import given, settings, strategies as st

from nichols_fusion.cyclo import cyclotomic_field
from nichols_fusion.linalg import Echelon, linear_extend, vec_sub


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


def _value_pool(K):
    """Nonzero values with unit and non-unit denominators, each built fresh
    so identity never stands in for equality."""
    deg = K.deg
    return [
        lambda: K._make([1] + [0] * (deg - 1), 1),
        lambda: K._make([0, 2, -1] + [0] * (deg - 3), 1),
        lambda: K._make([1, 2] + [0] * (deg - 2), 3),
        lambda: K._make([1, 2] + [0] * (deg - 2), 6),
        lambda: K._make([-3] + [0] * (deg - 2) + [5], 2),
    ]


POOL5 = _value_pool(cyclotomic_field(5))


@st.composite
def _vec_pairs(draw):
    keys = st.integers(0, 3)
    vals = st.integers(0, len(POOL5) - 1)
    a = draw(st.dictionaries(keys, vals, max_size=4))
    # start b from a half the time, so that equal pairs are common
    b = dict(a) if draw(st.booleans()) else {}
    b.update(draw(st.dictionaries(keys, vals, max_size=2)))
    for k in draw(st.lists(keys, max_size=2)):
        b.pop(k, None)
    return {k: POOL5[i]() for k, i in a.items()}, {k: POOL5[i]() for k, i in b.items()}


@settings(max_examples=400, deadline=None)
@given(_vec_pairs())
def test_vector_equality_is_not_vec_sub(pair):
    # vectors hold no zero, so dict == is their equality
    a, b = pair
    assert (a == b) == (not vec_sub(a, b))


def test_vector_equality_hand_cases():
    K = cyclotomic_field(5)
    third = K._make([1, 1] + [0] * (K.deg - 2), 3)
    a = {0: K.one, 1: third, 2: K.zeta_pow(3)}
    assert a == dict(a)
    assert a == {k: K._make(list(c.num), c.den) for k, c in a.items()}
    # one coefficient differs
    assert a != {**a, 1: third + K.one}
    assert a != {**a, 1: K._make(list(third.num), 6)}
    # an extra key on either side
    assert a != {**a, 3: K.one}
    assert {**a, 3: K.one} != a
    assert {} != {0: K.one} and {0: K.one} != {}
