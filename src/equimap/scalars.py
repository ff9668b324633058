"""Exact arithmetic in cyclotomic fields Q(zeta_n).

Values are represented on the power basis 1, zeta, ..., zeta^(phi(n)-1) reduced
modulo the n-th cyclotomic polynomial, with Fraction coefficients at the API
surface and a flat integer layout (see _kernel) underneath. Mixed conductors
are rejected; callers lift explicitly with cyc_embed.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd

from . import _kernel as K
from .errors import ConductorMismatch, NotADivisor


def _poly_divmod_int(p, q):
    """Exact division of integer polynomials (ascending coefficients)."""
    p = list(p)
    dq = len(q) - 1
    lead = q[-1]
    quot = [0] * (len(p) - dq)
    for k in range(len(p) - 1, dq - 1, -1):
        if p[k] == 0:
            continue
        assert p[k] % lead == 0
        c = p[k] // lead
        quot[k - dq] = c
        for j in range(dq + 1):
            p[k - dq + j] -= c * q[j]
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return quot, p


@lru_cache(maxsize=None)
def cyclotomic_poly(n):
    """Phi_n as a tuple of integer coefficients, constant term first.

    Computed by dividing x^n - 1 by Phi_d for every proper divisor d of n;
    the division is exact over Z because each Phi_d is monic.
    """
    if n == 1:
        return (-1, 1)
    num = [0] * (n + 1)
    num[0], num[n] = -1, 1
    for d in range(1, n):
        if n % d == 0:
            num, rem = _poly_divmod_int(num, list(cyclotomic_poly(d)))
            assert rem == [0]
    return tuple(num)


class _Context:
    """Per-conductor reduction data shared by all values over Q(zeta_n)."""

    def __init__(self, n):
        self.n = n
        self.poly = cyclotomic_poly(n)
        self.phi = len(self.poly) - 1
        phi = self.phi
        # rows of x^(phi+k) mod Phi_n for k = 0..phi-2; integral since monic
        base = [-c for c in self.poly[:phi]]
        rows = []
        row = base
        for _ in range(phi - 1):
            rows.append(tuple(row))
            nxt = [0] + row[:-1]
            top = row[-1]
            if top:
                for j in range(phi):
                    nxt[j] += top * base[j]
            row = nxt
        self.red = tuple(rows)
        self.zero = (0,) * phi + (1,)
        self.one = (1,) + (0,) * (phi - 1) + (1,)
        self._powers = [
            tuple(1 if j == k else 0 for j in range(phi)) for k in range(phi)
        ]

    def power_vector(self, k):
        """Integer coefficient row of zeta_n^k mod Phi_n, any k >= 0."""
        pw = self._powers
        while len(pw) <= k:
            prev = pw[-1]
            nxt = [0] + list(prev[:-1])
            top = prev[-1]
            if top:
                red0 = self.red[0] if self.red else None
                if red0 is None:
                    # phi = 1: x = reduction of Phi root directly
                    nxt = [nxt[0] + top * (-self.poly[0])]
                else:
                    for j in range(self.phi):
                        nxt[j] += top * red0[j]
            pw.append(tuple(nxt))
        return pw[k]

    def inv(self, raw):
        """Inverse of a nonzero raw scalar via extended Euclid mod Phi_n."""
        phi = self.phi

        def trim(p):
            while len(p) > 1 and p[-1] == 0:
                p.pop()
            return p

        def is_zero_poly(p):
            return len(p) == 1 and p[0] == 0

        def p_divmod(p, q):
            p = list(p)
            dq = len(q) - 1
            quot = [Fraction(0)] * max(1, len(p) - dq)
            for k in range(len(p) - 1, dq - 1, -1):
                if p[k] == 0:
                    continue
                c = p[k] / q[-1]
                quot[k - dq] = c
                for j in range(dq + 1):
                    p[k - dq + j] -= c * q[j]
            return trim(quot), trim(p)

        def p_mul(p, q):
            out = [Fraction(0)] * (len(p) + len(q) - 1)
            for i, pc in enumerate(p):
                if pc:
                    for j, qc in enumerate(q):
                        out[i + j] += pc * qc
            return trim(out)

        def p_sub(p, q):
            out = list(p) + [Fraction(0)] * max(0, len(q) - len(p))
            for i, qc in enumerate(q):
                out[i] -= qc
            return trim(out)

        a = trim([Fraction(raw[i], raw[phi]) for i in range(phi)])
        m = [Fraction(c) for c in self.poly]
        if is_zero_poly(a):
            raise ZeroDivisionError("inverse of zero")
        # xgcd tracking only the a-cofactor: s*a = g (mod Phi_n)
        r0, r1 = m, a
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while not is_zero_poly(r1):
            q, r = p_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, p_sub(s0, p_mul(q, s1))
        # r0 = gcd; Phi_n irreducible over Q forces a constant gcd
        assert len(r0) == 1 and r0[0] != 0
        g = r0[0]
        inv_coeffs = [c / g for c in s0]
        # reduce mod Phi_n (degree can reach phi-1 already) and convert to raw
        out = [Fraction(0)] * phi
        for k, c in enumerate(inv_coeffs):
            if c:
                row = self.power_vector(k)
                for j in range(phi):
                    if row[j]:
                        out[j] += c * row[j]
        den = 1
        for c in out:
            den = den * c.denominator // gcd(den, c.denominator)
        nums = [int(c * den) for c in out]
        return K.c_norm(nums, den)


_contexts = {}


def get_context(n):
    ctx = _contexts.get(n)
    if ctx is None:
        ctx = _Context(n)
        _contexts[n] = ctx
    return ctx


class CycNum:
    """Immutable element of Q(zeta_n) on the reduced power basis."""

    __slots__ = ("n", "raw")

    def __init__(self, n, coeffs):
        ctx = get_context(n)
        phi = ctx.phi
        if len(coeffs) != phi:
            raise ValueError(f"need {phi} coefficients for conductor {n}")
        den = 1
        fracs = [Fraction(c) for c in coeffs]
        for c in fracs:
            den = den * c.denominator // gcd(den, c.denominator)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "raw", K.c_norm([int(c * den) for c in fracs], den))

    @classmethod
    def _wrap(cls, n, raw):
        obj = object.__new__(cls)
        object.__setattr__(obj, "n", n)
        object.__setattr__(obj, "raw", raw)
        return obj

    @classmethod
    def from_rational(cls, q, n=1):
        ctx = get_context(n)
        q = Fraction(q)
        nums = [q.numerator] + [0] * (ctx.phi - 1)
        return cls._wrap(n, K.c_norm(nums, q.denominator))

    def __setattr__(self, *a):
        raise AttributeError("CycNum is immutable")

    @property
    def conductor(self):
        return self.n

    @property
    def coeffs(self):
        phi = len(self.raw) - 1
        den = self.raw[phi]
        return tuple(Fraction(self.raw[i], den) for i in range(phi))

    def _coerce(self, other):
        if isinstance(other, CycNum):
            if other.n != self.n:
                raise ConductorMismatch(
                    f"conductor {other.n} vs {self.n}; lift with cyc_embed first"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return CycNum.from_rational(other, self.n)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycNum._wrap(self.n, K.c_add(self.raw, o.raw))

    __radd__ = __add__

    def __neg__(self):
        return CycNum._wrap(self.n, K.c_neg(self.raw))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycNum._wrap(self.n, K.c_sub(self.raw, o.raw))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycNum._wrap(self.n, K.c_sub(o.raw, self.raw))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        ctx = get_context(self.n)
        return CycNum._wrap(self.n, K.c_mul(self.raw, o.raw, ctx.red, ctx.phi))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("division by zero cyclotomic number")
        ctx = get_context(self.n)
        return CycNum._wrap(
            self.n, K.c_mul(self.raw, ctx.inv(o.raw), ctx.red, ctx.phi)
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return CycNum._wrap(self.n, get_context(self.n).inv(self.raw))

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        out = one(self.n)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def is_zero(self):
        return K.c_is_zero(self.raw)

    def is_one(self):
        return self.raw == get_context(self.n).one

    def is_rational(self):
        return not any(self.raw[1 : len(self.raw) - 1])

    def to_fraction(self):
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        phi = len(self.raw) - 1
        return Fraction(self.raw[0], self.raw[phi])

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycNum.from_rational(other, self.n)
        if not isinstance(other, CycNum):
            return NotImplemented
        return self.n == other.n and self.raw == other.raw

    def __hash__(self):
        return hash((self.n, self.raw))

    def __repr__(self):
        return f"CycNum({self.n}, [{', '.join(str(c) for c in self.coeffs)}])"


def zeta(n, k=1):
    """zeta_n^k as a CycNum over conductor n."""
    ctx = get_context(n)
    row = ctx.power_vector(k % n)
    return CycNum._wrap(n, K.c_norm(list(row), 1))


def one(n=1):
    return CycNum._wrap(n, get_context(n).one)


def zero(n=1):
    return CycNum._wrap(n, get_context(n).zero)


def cyc_embed(a, m):
    """Lift a into Q(zeta_m); requires conductor(a) | m."""
    n = a.n
    if m % n != 0:
        raise NotADivisor(f"conductor {n} does not divide {m}")
    if m == n:
        return a
    step = m // n
    ctx_m = get_context(m)
    phi_m = ctx_m.phi
    phi_n = len(a.raw) - 1
    nums = [0] * phi_m
    for i in range(phi_n):
        ai = a.raw[i]
        if ai:
            row = ctx_m.power_vector(step * i)
            for j in range(phi_m):
                if row[j]:
                    nums[j] += ai * row[j]
    return CycNum._wrap(m, K.c_norm(nums, a.raw[phi_n]))


def cyc_inv_conj(a):
    """The automorphism zeta_n -> zeta_n^(n-1); an involution fixing Q."""
    n = a.n
    ctx = get_context(n)
    phi = ctx.phi
    nums = [0] * phi
    for i in range(phi):
        ai = a.raw[i]
        if ai:
            row = ctx.power_vector((n - i) % n)
            for j in range(phi):
                if row[j]:
                    nums[j] += ai * row[j]
    return CycNum._wrap(n, K.c_norm(nums, a.raw[phi]))


# --- JSON encoding -----------------------------------------------------------


def frac_to_str(q):
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def frac_from_str(s):
    s = s.strip()
    if "/" in s:
        p, q = s.split("/")
        return Fraction(int(p), int(q))
    return Fraction(int(s))


def cyc_to_json(a):
    return {"conductor": a.n, "coeffs": [frac_to_str(c) for c in a.coeffs]}


def cyc_from_json(d):
    return CycNum(d["conductor"], [frac_from_str(s) for s in d["coeffs"]])
