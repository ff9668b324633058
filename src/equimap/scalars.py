"""Exact arithmetic in cyclotomic fields Q(zeta_n).

Values are represented on the power basis 1, zeta, ..., zeta^(phi(n)-1) reduced
modulo the n-th cyclotomic polynomial, as the flat integer tuples of _kernel
("raw scalars"). `CycNum` wraps one raw scalar with its conductor and is the
type at the surface: literals, JSON and tests. Forms and matrices keep raw
scalars, and the helpers here that take or give raw scalars (`as_raw`,
`embed_raw`, `raw_to_json`, `raw_from_json`) serve them with no CycNum in
between; `raw_of` is the one coercion of checked input (an int, a Fraction
or a CycNum) to a conductor and a raw scalar. Mixed conductors are rejected; callers lift explicitly with cyc_embed
or embed_raw. Each field also has one prime p = 1 mod n and a ring map
Z[zeta_n] -> F_p (`_Context.modular`), where `forms.gcd_degree` reads the
degree of a gcd.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import mul

from . import _kernel as K
from .errors import CheckFailed, ConductorMismatch, NotADivisor

# Miller-Rabin to the prime bases up to 41 is exact below the least strong
# pseudoprime to all of them (Sorenson and Webster, "Strong pseudoprimes to
# twelve prime bases", Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_EXACT_BELOW = 3317044064679887385961981


def _is_prime(p):
    """Deterministic Miller-Rabin. A witness proves p composite at any size;
    passing every base proves p prime only below MR_EXACT_BELOW, and above
    it the question is refused (ValueError) rather than guessed."""
    if p < 2:
        return False
    for a in _MR_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    if p >= MR_EXACT_BELOW:
        raise ValueError("primality of %d is not decided at or above %d"
                         % (p, MR_EXACT_BELOW))
    return True


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
        self._roots = None
        self._modular = None

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

    def roots_of_unity(self):
        """Map from the raw form of each root of unity s * zeta_n^k, s = +-1,
        to (s, k); these are all the roots of unity in Q(zeta_n)."""
        if self._roots is None:
            # the powers first: for even n every root is one, with s = 1
            pw = [self.power_vector(k) for k in range(self.n)]
            roots = {v + (1,): (1, k) for k, v in enumerate(pw)}
            for k, v in enumerate(pw):
                roots.setdefault(tuple(-c for c in v) + (1,), (-1, k))
            self._roots = roots
        return self._roots

    def modular(self):
        """(p, omega, powers): the least prime p = 1 mod n above 2^31, an
        omega of order n in F_p, and omega^i mod p for i < phi.

        zeta -> omega is then a ring map Z[zeta_n] -> F_p: p does not divide
        n, so x^n - 1 = prod_(d | n) Phi_d(x) has n distinct roots mod p, and
        omega, a root of x^n - 1 but of no x^d - 1 for a proper divisor d, is
        a root of Phi_n. omega = a^((p-1)/n) for the least a >= 2 whose omega
        passes omega^(n/q) != 1 for each prime q | n; omega^n = 1 is checked.
        """
        if self._modular is None:
            n = self.n
            p = 2 ** 31 - 2 ** 31 % n + 1
            while p <= 2 ** 31 or not _is_prime(p):
                p += n
            qs = [q for q in range(2, n + 1) if n % q == 0 and _is_prime(q)]
            a = 2
            while True:
                w = pow(a, (p - 1) // n, p)
                if all(pow(w, n // q, p) != 1 for q in qs):
                    break
                a += 1
            if pow(w, n, p) != 1:
                raise CheckFailed(f"{w} does not have order {n} mod {p}")
            self._modular = (p, w, tuple(pow(w, i, p) for i in range(self.phi)))
        return self._modular

    def mod_p(self, raws):
        """The images in F_p of raw scalars under zeta -> omega (`modular`):
        sum nums[i] * omega^i * den^-1 mod p, as a list of ints; None when p
        divides a denominator, where the map is not defined."""
        p, _, w = self.modular()
        out = []
        for raw in raws:
            den = raw[-1] % p
            if not den:
                return None
            # map stops at the phi numerators, before the denominator
            out.append(sum(map(mul, raw, w)) * pow(den, -1, p) % p)
        return out

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


# The largest conductor an input may ask for. The field is built before the
# input can be checked against anything else, and its cost grows fast with
# the conductor: Q(zeta_9998) takes seconds to set up, a group closure over
# it much longer, and Q(zeta_1000000) does not finish in 30 s.
CONDUCTOR_CAP = 512

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
        nums = [c.numerator * (den // c.denominator) for c in fracs]
        object.__setattr__(self, "raw", K.c_norm(nums, den))

    @classmethod
    def _wrap(cls, n, raw):
        obj = object.__new__(cls)
        object.__setattr__(obj, "n", n)
        object.__setattr__(obj, "raw", raw)
        return obj

    @classmethod
    def from_rational(cls, q, n=1):
        return cls._wrap(n, as_raw(q, n))

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
        """The raw scalar of a CycNum, int or Fraction over this conductor;
        None for any other operand."""
        if isinstance(other, (CycNum, int, Fraction)):
            return as_raw(other, self.n)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycNum._wrap(self.n, K.c_add(self.raw, o))

    __radd__ = __add__

    def __neg__(self):
        return CycNum._wrap(self.n, K.c_neg(self.raw))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycNum._wrap(self.n, K.c_sub(self.raw, o))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycNum._wrap(self.n, K.c_sub(o, self.raw))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        ctx = get_context(self.n)
        return CycNum._wrap(self.n, K.c_mul(self.raw, o, ctx.red, ctx.phi))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if K.c_is_zero(o):
            raise ZeroDivisionError("division by zero cyclotomic number")
        ctx = get_context(self.n)
        return CycNum._wrap(self.n, K.c_mul(self.raw, ctx.inv(o), ctx.red, ctx.phi))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycNum._wrap(self.n, o) / self

    def __pow__(self, k):
        if k < 0:
            return (1 / self) ** (-k)
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

    def is_rational(self):
        return not any(self.raw[1 : len(self.raw) - 1])

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycNum.from_rational(other, self.n)
        if not isinstance(other, CycNum):
            return NotImplemented
        return self.n == other.n and self.raw == other.raw

    def __hash__(self):
        return hash((self.n, self.raw))


def zeta(n, k=1):
    """zeta_n^k as a CycNum over conductor n."""
    ctx = get_context(n)
    row = ctx.power_vector(k % n)
    return CycNum._wrap(n, K.c_norm(list(row), 1))


def one(n=1):
    return CycNum._wrap(n, get_context(n).one)


def zero(n=1):
    return CycNum._wrap(n, get_context(n).zero)


def as_raw(x, n):
    """The raw scalar over conductor n of x: an int, a Fraction or a CycNum
    of conductor n; a CycNum of another conductor raises ConductorMismatch."""
    if isinstance(x, CycNum):
        if x.n != n:
            raise ConductorMismatch(f"conductor {x.n} vs {n}; lift with cyc_embed first")
        return x.raw
    q = Fraction(x)
    return K.c_norm([q.numerator] + [0] * (get_context(n).phi - 1), q.denominator)


def raw_of(x):
    """(conductor, raw scalar) of an int, a Fraction or a CycNum, with no
    CycNum made: an int x is the canonical pair (x, 1) over conductor 1, a
    Fraction its (numerator, denominator), which Fraction keeps canonical,
    and a CycNum keeps its own conductor. Anything else goes through
    Fraction, so a bool is read as 0 or 1 and a string as a rational."""
    if type(x) is int:
        return 1, (x, 1)
    if isinstance(x, CycNum):
        return x.n, x.raw
    q = x if isinstance(x, Fraction) else Fraction(x)
    return 1, (q.numerator, q.denominator)


def embed_raw(raw, n, m):
    """Lift the raw scalar `raw` of conductor n into Q(zeta_m); requires n | m."""
    if m % n != 0:
        raise NotADivisor(f"conductor {n} does not divide {m}")
    if m == n:
        return raw
    return _map_basis(raw, get_context(m), m // n)


def cyc_embed(a, m):
    """Lift a into Q(zeta_m); requires conductor(a) | m."""
    return a if m == a.n else CycNum._wrap(m, embed_raw(a.raw, a.n, m))


# --- JSON encoding -----------------------------------------------------------


def frac_to_str(q):
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _ratio_from_str(s):
    """(p, q) with q > 0 for a rational written "p/q" or "p"."""
    if type(s) is not str:
        raise ValueError(f"a rational is written as a string, got {s!r}")
    s = s.strip()
    if "/" in s:
        p, q = s.split("/")
        if int(q) == 0:
            raise ValueError(f"zero denominator in {s!r}")
        p, q = int(p), int(q)
        return (p, q) if q > 0 else (-p, -q)
    return int(s), 1


def frac_from_str(s):
    return Fraction(*_ratio_from_str(s))


def raw_to_json(n, raw):
    """The JSON of the raw scalar `raw` over conductor n."""
    den = raw[-1]
    return {"conductor": n, "coeffs": [frac_to_str(Fraction(v, den)) for v in raw[:-1]]}


def cyc_to_json(a):
    return raw_to_json(a.n, a.raw)


def raw_from_json(d):
    """(conductor, raw scalar) of a JSON scalar, with the conductor under the
    cap and one coefficient per power basis element."""
    n = d["conductor"]
    if type(n) is int and n > CONDUCTOR_CAP:
        raise ValueError(f"conductor {n} is past the cap {CONDUCTOR_CAP}")
    # read to integers and brought to one denominator without Fraction
    # arithmetic; c_norm makes the result canonical, as CycNum(n, ...) does
    ratios = [_ratio_from_str(s) for s in d["coeffs"]]
    phi = get_context(n).phi
    if len(ratios) != phi:
        raise ValueError(f"need {phi} coefficients for conductor {n}")
    den = 1
    for _, q in ratios:
        den = den * q // gcd(den, q)
    return n, K.c_norm([p * (den // q) for p, q in ratios], den)


def cyc_from_json(d):
    return CycNum._wrap(*raw_from_json(d))


def shared_conductor(pairs, what):
    """(n, raws) for a nonempty sequence of (conductor, raw scalar) pairs that
    share the conductor n; ConductorMismatch names `what` otherwise."""
    n = pairs[0][0]
    if any(m != n for m, _ in pairs):
        raise ConductorMismatch(f"{what} must share one conductor")
    return n, tuple(raw for _, raw in pairs)
