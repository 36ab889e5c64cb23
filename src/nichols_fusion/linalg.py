"""Sparse vectors, and exact row echelon over the cyclotomic field.

Every linear object in the package is a sparse dict {key: CycNum} holding only
nonzero coefficients: elements of B_p, YDVec and TensorVec in ydspace, and the
rows of an Echelon.  The vocabulary for them lives here, at the bottom of the
import graph: add_term, linear_extend, scale(vec, coef) and vec_sub.
VerificationError lives here too, so every module can raise it without
importing upward.  Every other module imports these names from here.

add_term is the one place that drops a zero, and every map builds its result
through it (or scales by a nonzero coefficient), so no vector stores a zero
and two vectors are equal exactly when they are equal dicts: ``a == b``.

Echelon pivots are chosen at the smallest key of each row, which keeps
elimination cheap for the triangular families produced by the fusion map.
"""

from __future__ import annotations

from .cyclo import CycNum


class VerificationError(AssertionError):
    """A computed map breaks an identity the theory asserts.

    Raised explicitly, so ``python -O`` does not strip the check; verify
    suites count it as a failing instance.
    """


def add_term(vec: dict, key, coef: CycNum) -> None:
    acc = vec.get(key)
    coef = coef if acc is None else acc + coef
    if coef.is_zero():
        vec.pop(key, None)
    else:
        vec[key] = coef


def linear_extend(basis_map, vec: dict, images: dict | None = None) -> dict:
    """sum_k c_k * basis_map(k): the linear extension of a map on basis keys.

    images, if given, is a dict of basis images that the caller owns, for
    one map only.  On a miss basis_map(k) is built and stored under k, so a
    key enters the dict only once its image was built without raising; a hit
    reads the stored image.  Stored images are read and never mutated, here
    or by any caller, so each equals a fresh build of its key.  The caller
    decides how long the dict lives.  Without it, every image is built anew.
    """
    out = {}
    for key, c in vec.items():
        if images is None:
            image = basis_map(key)
        else:
            image = images.get(key)
            if image is None:
                image = images[key] = basis_map(key)
        for bw, d in image.items():
            add_term(out, bw, c * d)
    return out


def scale(vec: dict, coef: CycNum) -> dict:
    if coef.is_zero():
        return {}
    return {k: coef * c for k, c in vec.items()}


def vec_sub(vec: dict, other: dict) -> dict:
    out = dict(vec)
    for k, c in other.items():
        add_term(out, k, -c)
    return out


class Echelon:
    """Incremental echelon basis with optional coordinate tracking.

    The package calls add and contains only; the tag mode (tag, combos,
    coordinates) stays while the benchmark's tracer wraps coordinates.
    """

    def __init__(self, field):
        self.field = field
        self.rows = {}  # pivot key -> row dict (pivot coefficient 1)
        self.combos = {}  # pivot key -> {tag: CycNum} expressing the row in added vectors
        self.rank = 0

    def _reduce(self, vec, combo=None):
        vec = dict(vec)
        while vec:
            piv = min(vec)
            row = self.rows.get(piv)
            if row is None:
                return vec, piv, combo
            c = vec[piv]
            for k, rc in row.items():
                add_term(vec, k, -(c * rc))
            if combo is not None:
                for tag, rc in self.combos[piv].items():
                    add_term(combo, tag, c * rc)
        return vec, None, combo

    def add(self, vec, tag=None) -> bool:
        """Insert a vector; returns True if it enlarged the span."""
        combo = {} if tag is not None else None
        red, piv, combo = self._reduce(vec, combo)
        if piv is None:
            return False
        if red[piv] == self.field.one:
            # red is _reduce's own copy, so a unit-pivot row is stored as is
            inv = self.field.one
            self.rows[piv] = red
        else:
            inv = red[piv].inv()
            self.rows[piv] = {k: inv * c for k, c in red.items()}
        if tag is not None:
            selfcombo = {t: -(inv * c) for t, c in combo.items()}
            add_term(selfcombo, tag, inv)
            self.combos[piv] = selfcombo
        self.rank += 1
        return True

    def contains(self, vec) -> bool:
        red, piv, _ = self._reduce(vec)
        return piv is None

    def coordinates(self, vec):
        """Express vec in the tags of the added vectors, or None if outside."""
        combo = {}
        red, piv, combo = self._reduce(vec, combo)
        if piv is not None:
            return None
        return {t: c for t, c in combo.items() if not c.is_zero()}
