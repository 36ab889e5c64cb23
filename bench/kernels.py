"""Time CycNum multiply and inverse at fixed field degrees, checking every result.

Usage (from the repository root, with PYTHONPATH=src):

    python3 bench/kernels.py SAMPLES.json SEED RESULT.json DEGREE...

SAMPLES.json holds operands sampled from a traced run (see trace_child.py):
``{"mul": [[p, num_a, den_a, num_b, den_b], ...], "inv": [[p, num, den], ...]}``.
For each degree the real operands of that degree are used; a degree the
workload never reached is filled with seeded random operands in the field
``DEFAULT_P[degree]``.  Every timed product is compared with a schoolbook
product over Fractions reduced modulo a cyclotomic polynomial computed here
from the Moebius formula, and every inverse x is checked by x * x^-1 == 1
both in the field and in that reference, so a kernel that got faster by
being wrong fails instead of reporting a speed-up.  The kernels are pure, so
the checked results are recomputed after timing on the same operands.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import time
from fractions import Fraction
from functools import lru_cache

from nichols_fusion.cyclo import CycNum, cyclotomic_field

DEFAULT_P = {8: 5, 16: 12, 20: 11}
PAIRS = 48
INVERSES = 24
REPEATS = 7
MIN_REPEAT_S = 0.02


def _mobius(n: int) -> int:
    result, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    return -result if n > 1 else result


def _poly_mul(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_rem(n: list, m: list) -> list:
    """Remainder of n modulo the monic polynomial m (coefficients constant first)."""
    n = list(n)
    dm = len(m) - 1
    for k in range(len(n) - 1, dm - 1, -1):
        c = n[k]
        if c:
            for j in range(dm + 1):
                n[k - dm + j] -= c * m[j]
    return n[:dm] + [0] * (dm - len(n))


@lru_cache(maxsize=None)
def reference_cyclotomic(n: int) -> list:
    """Phi_n = prod_{d | n} (x^d - 1)^mu(n/d), by exact polynomial arithmetic."""
    num, den = [1], [1]
    for d in range(1, n + 1):
        if n % d == 0 and _mobius(n // d):
            factor = [-1] + [0] * (d - 1) + [1]
            if _mobius(n // d) > 0:
                num = _poly_mul(num, factor)
            else:
                den = _poly_mul(den, factor)
    # exact division num / den, both monic
    q = [0] * (len(num) - len(den) + 1)
    rem = list(num)
    for k in range(len(q) - 1, -1, -1):
        c = rem[k + len(den) - 1]
        q[k] = c
        for j, dj in enumerate(den):
            rem[k + j] -= c * dj
    if any(rem):
        raise ArithmeticError(f"Phi_{n} division was not exact")
    return q


def as_fractions(x: CycNum) -> list:
    return [Fraction(c, x.den) for c in x.num]


def reference_product(x: CycNum, y: CycNum, phi: list) -> list:
    return _poly_rem(_poly_mul(as_fractions(x), as_fractions(y)), phi)


def _random_operand(K, rng: random.Random) -> CycNum:
    """A short sum of roots of unity with small integer coefficients, the shape
    of the structure constants the program multiplies and inverts."""
    while True:
        x = K.zero
        for _ in range(rng.randint(1, 4)):
            x = x + K.zeta_pow(rng.randrange(K.order)) * rng.choice((-2, -1, 1, 2))
        if not x.is_zero():
            return x


def _operands(rows: list, degree: int, count: int, rng: random.Random, pairs: bool):
    """Real operands of this degree, topped up with seeded random ones."""
    chosen = []
    field = cyclotomic_field(DEFAULT_P[degree])
    for row in rows:
        K = cyclotomic_field(row[0])
        if K.deg == degree:
            field = K
            a = CycNum(K, tuple(row[1]), row[2])
            chosen.append((a, CycNum(K, tuple(row[3]), row[4])) if pairs else a)
    rng.shuffle(chosen)
    chosen = chosen[:count]
    real = len(chosen)
    while len(chosen) < count:
        a = _random_operand(field, rng)
        chosen.append((a, _random_operand(field, rng)) if pairs else a)
    return chosen, real


def time_per_op_us(op, items: list) -> float:
    """Median over REPEATS of the mean microseconds per op over all items."""
    loops = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(loops):
            for item in items:
                op(item)
        if time.perf_counter() - t0 >= MIN_REPEAT_S:
            break
        loops *= 2
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(loops):
            for item in items:
                op(item)
        times.append((time.perf_counter() - t0) / (loops * len(items)) * 1e6)
    return statistics.median(times)


def main() -> int:
    samples_path, seed, result_path, *degrees = sys.argv[1:]
    samples = json.loads(open(samples_path).read())
    rng = random.Random(int(seed))
    result = {"mul_us": {}, "inv_us": {}, "checks": 0, "failed": 0, "source": {}}
    for degree in map(int, degrees):
        pairs, real_pairs = _operands(samples["mul"], degree, PAIRS, rng, pairs=True)
        units, real_units = _operands(samples["inv"], degree, INVERSES, rng, pairs=False)
        result["source"][str(degree)] = f"{real_pairs}/{PAIRS} mul, {real_units}/{INVERSES} inv real"
        result["mul_us"][str(degree)] = time_per_op_us(lambda xy: xy[0] * xy[1], pairs)
        result["inv_us"][str(degree)] = time_per_op_us(lambda x: x.inv(), units)
        for x, y in pairs:
            K = x.field
            result["checks"] += 1
            if as_fractions(x * y) != reference_product(x, y, reference_cyclotomic(K.order)):
                result["failed"] += 1
        for x in units:
            K = x.field
            xi = x.inv()
            one = [Fraction(1)] + [Fraction(0)] * (K.deg - 1)
            result["checks"] += 1
            if x * xi != K.one or reference_product(x, xi, reference_cyclotomic(K.order)) != one:
                result["failed"] += 1
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
