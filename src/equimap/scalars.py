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


def _div_monic(p, q):
    """Quotient of integer polynomial p by a monic q that divides it
    (ascending coefficients)."""
    p = list(p)
    dq = len(q) - 1
    quot = [0] * (len(p) - dq)
    for k in range(len(p) - 1, dq - 1, -1):
        c = p[k]
        if c:
            quot[k - dq] = c
            for j in range(dq + 1):
                p[k - dq + j] -= c * q[j]
    return quot


@lru_cache(maxsize=None)
def cyclotomic_poly(n):
    """Phi_n as a tuple of integer coefficients, constant term first.

    Computed by dividing x^n - 1 by Phi_d for every proper divisor d of n;
    the division is exact over Z because each Phi_d is monic.
    """
    num = [0] * (n + 1)
    num[0], num[n] = -1, 1
    for d in range(1, n):
        if n % d == 0:
            num = _div_monic(num, cyclotomic_poly(d))
    return tuple(num)


class _Context:
    """Per-conductor reduction data shared by all values over Q(zeta_n)."""

    def __init__(self, n):
        self.n = n
        self.poly = cyclotomic_poly(n)
        self.phi = phi = len(self.poly) - 1
        self._powers = [
            tuple(1 if j == k else 0 for j in range(phi)) for k in range(phi)
        ]
        # rows of x^(phi+k) mod Phi_n for k = 0..phi-2; integral since monic
        self.red = tuple(self.power_vector(phi + k) for k in range(phi - 1))
        self.zero = (0,) * phi + (1,)
        self.one = (1,) + (0,) * (phi - 1) + (1,)
        self.conj_exps = tuple(k for k in range(2, n) if gcd(k, n) == 1)

    def power_vector(self, k):
        """Integer coefficient row of zeta_n^k mod Phi_n, any k >= 0."""
        pw = self._powers
        while len(pw) <= k:
            # x times the last row; its x^phi term becomes x^phi - Phi_n,
            # of degree < phi because Phi_n is monic
            prev = pw[-1]
            top = prev[-1]
            pw.append(tuple(c - top * p for c, p in zip((0, *prev[:-1]), self.poly)))
        return pw[k]

    def inv(self, raw):
        """Inverse of a nonzero raw scalar through the norm.

        The product c of the conjugates sigma_k(a), k a unit mod n other
        than 1, makes c*a = N(a) rational, so a^-1 = c / N(a).
        """
        if K.c_is_zero(raw):
            raise ZeroDivisionError("inverse of zero")
        red, phi = self.red, self.phi
        conj = self.one
        for k in self.conj_exps:
            conj = K.c_mul(conj, _map_basis(raw, self, k), red, phi)
        norm = K.c_mul(conj, raw, red, phi)
        return K.c_norm([norm[phi] * c for c in conj[:phi]], norm[0] * conj[phi])


def _map_basis(raw, ctx, k):
    """Send zeta^i to zeta_m^(k*i), m = ctx.n, on a raw scalar of any
    conductor dividing m: the Galois map sigma_k when the conductors agree
    and gcd(k, m) = 1, the embedding Q(zeta_n) -> Q(zeta_m) when k = m/n."""
    phi = len(raw) - 1
    nums = [0] * ctx.phi
    for i in range(phi):
        ai = raw[i]
        if ai:
            row = ctx.power_vector(k * i % ctx.n)
            for j in range(ctx.phi):
                if row[j]:
                    nums[j] += ai * row[j]
    return K.c_norm(nums, raw[phi])


_contexts = {}


def get_context(n):
    ctx = _contexts.get(n)
    if ctx is None:
        if type(n) is not int or n < 1:
            raise ValueError(f"conductor must be a positive integer, got {n!r}")
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
    return CycNum._wrap(m, _map_basis(a.raw, get_context(m), m // n))


def cyc_inv_conj(a):
    """The automorphism zeta_n -> zeta_n^(n-1); an involution fixing Q."""
    return CycNum._wrap(a.n, _map_basis(a.raw, get_context(a.n), a.n - 1))


# --- JSON encoding -----------------------------------------------------------


def frac_to_str(q):
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def frac_from_str(s):
    if type(s) is not str:
        raise ValueError(f"a rational is written as a string, got {s!r}")
    s = s.strip()
    if "/" in s:
        p, q = s.split("/")
        if int(q) == 0:
            raise ValueError(f"zero denominator in {s!r}")
        return Fraction(int(p), int(q))
    return Fraction(int(s))


def cyc_to_json(a):
    return {"conductor": a.n, "coeffs": [frac_to_str(c) for c in a.coeffs]}


def cyc_from_json(d):
    return CycNum(d["conductor"], [frac_from_str(s) for s in d["coeffs"]])
