"""Sparse exact row echelon over the cyclotomic field.

Vectors are sparse dicts {key: CycNum} with sortable keys.  Pivots are chosen
at the smallest key of each row, which keeps elimination cheap for the
triangular families produced by the fusion map.
"""

from __future__ import annotations

from .ydspace import add_term


class Echelon:
    """Incremental echelon basis with optional coordinate tracking."""

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
        inv = red[piv].inv()
        if red[piv] == self.field.one:
            # red is _reduce's own copy, so a unit-pivot row is stored as is
            self.rows[piv] = red
        else:
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
