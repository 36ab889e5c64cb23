"""Exact arithmetic in the cyclotomic field Q(zeta), zeta a primitive 4p-th root of unity.

Every scalar in the system is a CycNum.  We work with zeta rather than with
q = zeta^2 = exp(i*pi/p) because half-integer powers of q occur (in the
vertex-vertex braiding and in the ribbon map); all of them are integer powers
of zeta.  q^p = zeta^{2p} = -1, so a signed power of q is one table entry:
(-1)^k q^e = q^{e + pk}, interned like every entry of the table.  Elements
are polynomials in zeta with rational coefficients, held in canonical form
reduced modulo the 4p-th cyclotomic polynomial Phi_{4p}.  Reducing modulo
Phi_{4p} (not zeta^{4p} - 1) keeps the quotient a field, so an element is
zero iff its coefficient vector is zero.  Inverses come from the Galois norm:
x^-1 = prod_{k != 1} sigma_k(x) / N(x), with sigma_k the automorphism
zeta -> zeta^k for each unit k mod 4p, and N(x) rational.

Each CycField memoizes what is computed over and over, one table per derived
quantity; the CycField docstring lists the tables and what fills them.

Products are memoized by hash-consing (Ershov 1958; Filliatre & Conchon,
"Type-safe modular hash-consing", 2006).  The operands of a multiply and its
product are interned: _values maps each value to one canonical CycNum, whose
uid is the value's id in that field.  _mul maps the unordered id pair of two
operands to their canonical product, so a repeated product of interned
operands costs one dict lookup.  Ids 0 and 1 are reserved for zero and one;
a multiply by zero returns K.zero and a multiply by one returns the other
operand, without a convolution or a memo entry.  Every zero the field hands
out, from _make, negation, a sum or a multiply, is the one K.zero.  Sums and
differences are not interned: most of them are never multiplied.  _make
returns a vector over denominator 1 as it is, without the gcd scan, which
a denominator of 1 never needs; that serves every sum or difference of two
den-1 operands and every integer multiple of one.

Coefficients are stored as an integer vector over a single positive
denominator, normalized by their gcd.  Almost every structure constant in the
system is an algebraic integer, so the denominator is usually 1 and all the
hot arithmetic is plain integer arithmetic.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import count
from math import gcd
import cmath


def _poly_divmod_int(n, d):
    """Quotient and remainder of integer polynomials; division must be exact stepwise."""
    n = list(n)
    dd = len(d) - 1
    lead = d[-1]
    q = [0] * max(len(n) - dd, 1)
    for k in range(len(n) - 1, dd - 1, -1):
        c, rem = divmod(n[k], lead)
        if rem:
            raise ValueError("non-exact polynomial division")
        if c:
            q[k - dd] = c
            for j in range(dd + 1):
                n[k - dd + j] -= c * d[j]
    return q, n[:dd]


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients (constant first) of the n-th cyclotomic polynomial.

    >>> cyclotomic_poly(8)
    (1, 0, 0, 0, 1)
    """
    if n < 1:
        raise ValueError("n must be positive")
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly, rem = _poly_divmod_int(poly, list(cyclotomic_poly(d)))
            # internal invariant, no mathematical claim under test: Phi_d
            # divides x^n - 1 for every d | n
            if any(rem):
                raise ArithmeticError(f"Phi_{d} does not divide x^{n} - 1")
    return tuple(poly)


class CycNum:
    """An element of Q(zeta_{4p}) in canonical reduced form.

    Immutable; supports +, -, *, ** and exact equality, which compares the
    field's p too (p = 5 and p = 6 share a degree).  Use .inv() for the
    multiplicative inverse and .evalf() for a floating-point embedding (the
    embedding is a sanity cross-check only, exact arithmetic is authoritative).
    """

    __slots__ = ("field", "num", "den", "uid")

    def __init__(self, field, num, den):
        self.field = field
        self.num = num  # tuple[int], length = deg Phi_{4p}
        self.den = den  # int > 0, gcd(num..., den) == 1
        self.uid = -1  # the value's id in field._values, once interned

    def is_zero(self) -> bool:
        return not any(self.num)

    def __bool__(self):
        return any(self.num)

    def __add__(self, other):
        f = self.field
        if self.den == other.den:
            return f._make([a + b for a, b in zip(self.num, other.num)], self.den)
        da, db = self.den, other.den
        return f._make([a * db + b * da for a, b in zip(self.num, other.num)], da * db)

    def __sub__(self, other):
        f = self.field
        if self.den == other.den:
            return f._make([a - b for a, b in zip(self.num, other.num)], self.den)
        da, db = self.den, other.den
        return f._make([a * db - b * da for a, b in zip(self.num, other.num)], da * db)

    def __neg__(self):
        if not any(self.num):
            return self.field.zero
        return CycNum(self.field, tuple(-a for a in self.num), self.den)

    def __mul__(self, other):
        f = self.field
        if isinstance(other, int):
            return f._make([a * other for a in self.num], self.den)
        a = self.uid
        if a < 0:
            a = f._intern(self).uid
        b = other.uid
        if b < 0:
            b = f._intern(other).uid
        # ids 0 and 1 are zero and one: x * 0 is K.zero and x * 1 is x, unmemoized
        if a < 2:
            return other if a else f.zero
        if b < 2:
            return self if b else f.zero
        # the product commutes, so one entry serves both orders
        key = a << 32 | b if a < b else b << 32 | a
        v = f._mul.get(key)
        if v is not None:
            return v
        conv = [0] * (2 * f.deg - 1)
        for i, ai in enumerate(self.num):
            if ai:
                bn = other.num
                for j in range(f.deg):
                    if bn[j]:
                        conv[i + j] += ai * bn[j]
        # fold degrees >= deg back using the precomputed rows for x^k mod Phi
        for k in range(2 * f.deg - 2, f.deg - 1, -1):
            ck = conv[k]
            if ck:
                row = f.red_rows[k - f.deg]
                for t in range(f.deg):
                    if row[t]:
                        conv[t] += ck * row[t]
        v = f._mul[key] = f._intern(f._make(conv[: f.deg], self.den * other.den))
        return v

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            return self.inv() ** (-e)
        acc = self.field.one
        base = self
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

    def inv(self) -> "CycNum":
        """Multiplicative inverse via the Galois norm.

        With sigma_k(x) = sum_i c_i zeta^{ik} for the units k != 1 mod 4p,
        N(x) = x * prod_k sigma_k(x) is rational and x^-1 = prod_k sigma_k(x) / N(x).
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in the cyclotomic field")
        f = self.field
        key = (self.num, self.den)
        v = f._inv.get(key)
        if v is None:
            conj = f.one
            for k in f.galois_units:
                conj = conj * self._conjugate(k)
            norm = self * conj
            if any(norm.num[1:]):
                raise ArithmeticError(f"Galois norm of {self!r} is not rational")
            v = f._make([c * norm.den for c in conj.num], conj.den * norm.num[0])
            f._inv[key] = v
        return v

    def _conjugate(self, k: int) -> "CycNum":
        """sigma_k(self), the image under zeta -> zeta^k."""
        f = self.field
        acc = [0] * f.deg
        for i, c in enumerate(self.num):
            if c:
                z = f._zeta[i * k % f.order].num
                for t in range(f.deg):
                    if z[t]:
                        acc[t] += c * z[t]
        return f._make(acc, self.den)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, CycNum):
            return NotImplemented
        return self.num == other.num and self.den == other.den and self.field.p == other.field.p

    def __hash__(self):
        return hash((self.num, self.den))

    def evalf(self) -> complex:
        z = cmath.exp(1j * cmath.pi / (2 * self.field.p))
        return sum(c * z**i for i, c in enumerate(self.num) if c) / self.den

    def coeffs(self):
        """Exact coefficients over zeta as (numerators, denominator)."""
        return list(self.num), self.den

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.num):
            if c:
                terms.append(f"{c}" if i == 0 else f"{c}*z^{i}")
        body = " + ".join(terms) if terms else "0"
        if self.den != 1:
            body = f"({body})/{self.den}"
        return f"CycNum({body})"


class CycField:
    """Q(zeta_{4p}) together with the memoized q-combinatorics at q = zeta^2.

    The memo tables, one per derived quantity:
      _qint, _qfact   the q-integers [r] and q-factorials [r]!, r < p, as
                      tuples built here ([r + p] = [r], and [r]! = 0 for r >= p);
      _qbinom         the q-binomials, filled by q_binom;
      _xi_pow         the powers of xi = 1 - q^2, filled by xi_pow;
      _c2             the one-vertex action coefficients, keyed by (a mod p,
                      s, r), filled by ydspace._c1 (ydspace._c2 multiplies two
                      of them; the name stays, as bench/trace_child.py reads it);
      _act            the one-vertex images F(r) |> V^a_s for r >= 1, keyed by
                      (r, basis vector), filled by ydspace.act_Fr_basis;
                      two-vertex images are not cached;
      _loop_T         one loop partial-trace table per loop charge b, filled
                      by loop._loop_table;
      _inv            every inverse so far, keyed by the operand's (num, den),
                      filled by CycNum.inv;
      _values, _mul   the hash-consing tables filled by CycNum.__mul__: value
                      key -> canonical CycNum (the key being num when
                      den == 1 and (num, den) otherwise), and unordered pair of
                      value ids, packed as lo << 32 | hi -> canonical product.
                      Ids 0 and 1 are zero and one.
    They live as long as the field and grow with the number of distinct keys.
    All values are immutable (the _act images are dicts, shared read-only) and
    operations are pure; instances are safe to share across threads: the memo
    caches are idempotent dict writes, and value ids come from an
    itertools.count, whose next() is atomic, so two threads never draw one
    id (len(_values) could hand the same id to two new values).
    """

    def __init__(self, p: int):
        if p < 2:
            raise ValueError("p must be at least 2")
        self.p = p
        self.order = 4 * p
        self.phi = cyclotomic_poly(self.order)
        self.deg = len(self.phi) - 1
        # rows for x^(deg+j) mod Phi, j = 0 .. deg-2, as plain int tuples
        rows = []
        cur = [-c for c in self.phi[:-1]]  # x^deg mod Phi (Phi is monic)
        rows.append(tuple(cur))
        for _ in range(self.deg - 2):
            nxt = [0] + cur[:-1]
            top = cur[-1]
            if top:
                first = rows[0]
                for t in range(self.deg):
                    nxt[t] += top * first[t]
            cur = nxt
            rows.append(tuple(cur))
        self.red_rows = rows
        self.zero = CycNum(self, (0,) * self.deg, 1)
        self.one = self._basis_monomial(0)
        self._values = {}
        self._ids = count()
        self._mul = {}
        self._intern(self.zero)  # id 0
        self._intern(self.one)  # id 1
        self._zeta = self._zeta_table()
        # the units k != 1 mod 4p, one Galois automorphism zeta -> zeta^k each
        self.galois_units = tuple(k for k in range(2, self.order) if gcd(k, self.order) == 1)
        # q^2 is a primitive p-th root of unity, so [r] depends on r mod p only
        qint = [self.zero]
        for i in range(p - 1):
            qint.append(qint[-1] + self.q_pow(2 * i))
        self._qint = tuple(qint)
        qfact = [self.one]
        for r in range(1, p):
            qfact.append(qfact[-1] * qint[r])
        self._qfact = tuple(qfact)
        self._qbinom = {}
        self._xi_pow = {0: self.one, 1: self.one - self.q_pow(2)}
        self._c2 = {}
        self._act = {}
        self._loop_T = {}
        self._inv = {}

    def _make(self, vec, den) -> CycNum:
        if den == 1:  # nothing to divide out
            return CycNum(self, tuple(vec), 1) if any(vec) else self.zero
        if den < 0:
            den = -den
            vec = [-a for a in vec]
        g = den
        for a in vec:
            if a:
                g = gcd(g, a)
                if g == 1:
                    break
        if g > 1:
            vec = [a // g for a in vec]
            den //= g
        if not any(vec):
            return self.zero
        return CycNum(self, tuple(vec), den)

    def _intern(self, x: CycNum) -> CycNum:
        """The canonical instance of x's value; sets x.uid to its id.

        A thread that loses the race to intern a new value burns its id, so
        two ids may name one value, but one id never names two values, which
        is all the product memo needs.  Ids must fit the 32-bit halves of a
        _mul key, so the 2**32-th id raises instead of colliding.
        """
        key = x.num if x.den == 1 else (x.num, x.den)
        c = self._values.get(key)
        if c is None:
            uid = next(self._ids)
            if uid >> 32:
                raise OverflowError("more than 2**32 distinct values in one field")
            x.uid = uid
            c = self._values.setdefault(key, x)
        x.uid = c.uid
        return c

    def _basis_monomial(self, k):
        vec = [0] * self.deg
        vec[k] = 1
        return CycNum(self, tuple(vec), 1)

    def _zeta_table(self):
        # canonical forms of zeta^0 .. zeta^{4p-1}
        table = [self.one]
        z = self._basis_monomial(1)  # deg = phi(4p) >= 4, so zeta is a basis monomial
        for _ in range(self.order - 1):
            table.append(table[-1] * z)
        return table

    def from_int(self, n: int) -> CycNum:
        return self._make([n] + [0] * (self.deg - 1), 1)

    def zeta_pow(self, k: int) -> CycNum:
        """zeta^k in canonical form; a group homomorphism Z -> field units."""
        return self._zeta[k % self.order]

    def q_pow(self, k: int) -> CycNum:
        """q^k = zeta^(2k)."""
        return self._zeta[(2 * k) % self.order]

    def q_int(self, r: int) -> CycNum:
        """The q-integer [r] = (q^{2r} - 1)/(q^2 - 1), for any integer r.

        [r] = 1 + q^2 + ... + q^{2(r-1)} for 0 <= r < p, and [r + p] = [r]
        because q^2 is a primitive p-th root of unity.
        """
        return self._qint[r % self.p]

    def q_fact(self, r: int) -> CycNum:
        """[r]! = [1][2]...[r], for r >= 0; zero from r = p on, where [p] = 0."""
        if r < 0:
            raise ValueError("q_fact needs r >= 0")
        return self._qfact[r] if r < self.p else self.zero

    def q_binom(self, n: int, k: int) -> CycNum:
        """Gaussian binomial [n over k] at q^2, by the q-Pascal recursion.

        C(n, k) = C(n-1, k-1) + q^{2k} C(n-1, k); well defined at the root of
        unity even where the ratio of factorials degenerates to 0/0.
        """
        if k < 0 or k > n:
            return self.zero
        if k == 0 or k == n:
            return self.one
        v = self._qbinom.get((n, k))
        if v is None:
            v = self.q_binom(n - 1, k - 1) + self.q_pow(2 * k) * self.q_binom(n - 1, k)
            self._qbinom[(n, k)] = v
        return v

    def xi(self) -> CycNum:
        """xi = 1 - q^2, the normalization of the adjoint action of F."""
        return self.xi_pow(1)

    def xi_pow(self, r: int) -> CycNum:
        """xi^r for r >= 0."""
        v = self._xi_pow.get(r)
        if v is None:
            if r < 0:
                raise ValueError("xi_pow needs r >= 0")
            v = self.xi_pow(r - 1) * self._xi_pow[1]
            self._xi_pow[r] = v
        return v

    def __repr__(self):
        return f"CycField(p={self.p})"


@lru_cache(maxsize=None)
def cyclotomic_field(p: int) -> CycField:
    return CycField(p)
