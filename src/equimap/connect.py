"""Paths connecting polynomial self-maps of affine space to the identity.

A map fixing the origin with identity differential decomposes into graded
pieces theta_i = x_i + sum_{d>=2} F_{i,d}. Scaling conjugation by the
dilation (t x_1, ..., t x_n) turns the grading into a path: each piece
F_{i,d} picks up t^(d-1), giving a family that is the identity at t = 0 and
theta at t = 1. Everything here is exact: coefficients are cyclotomic
numbers and the parameter t stays formal.
"""

from fractions import Fraction
from itertools import product
from math import lcm

from .errors import (
    ConditionsFail,
    NotFound,
    SingularJacobian,
    ZeroDenominator,
)
from .groups import Mat
from .scalars import CycNum, cyc_embed, cyc_from_json, cyc_to_json, one, zero

TRUNCATION_ORDER = 16


def _to_cyc(v):
    if isinstance(v, CycNum):
        return v
    return CycNum.from_rational(Fraction(v), 1)


def _lift(v, n):
    return v if v.n == n else cyc_embed(v, n)


# flat polynomials: dict exps-tuple -> CycNum, zero coefficients dropped,
# every coefficient at the same conductor


def _padd(a, b):
    out = dict(a)
    for e, c in b.items():
        s = out.get(e)
        s = c if s is None else s + c
        if s.is_zero():
            out.pop(e, None)
        else:
            out[e] = s
    return out


def _pscale(p, c):
    if c.is_zero():
        return {}
    return {e: c * v for e, v in p.items()}


def _pmul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            c = ca * cb
            s = out.get(e)
            s = c if s is None else s + c
            if s.is_zero():
                out.pop(e, None)
            else:
                out[e] = s
    return out


def _ppow(p, k, nv, nf):
    out = {(0,) * nv: one(nf)}
    for _ in range(k):
        out = _pmul(out, p)
    return out


def _ptruncate(p, order):
    return {e: c for e, c in p.items() if sum(e) <= order}


def _peval(p, point, nf):
    acc = zero(nf)
    for e, c in p.items():
        term = c
        for k, ek in enumerate(e):
            if ek:
                term = term * point[k] ** ek
        acc = acc + term
    return acc


def _pdiff(p, k):
    out = {}
    for e, c in p.items():
        if e[k]:
            de = e[:k] + (e[k] - 1,) + e[k + 1:]
            out[de] = c * e[k]
    return out


def _sorted_monomials(p):
    return sorted(p.items(), key=lambda it: (sum(it[0]), it[0]))


class PolyMap:
    """Polynomial self-map of A^n, components stored by graded pieces."""

    __slots__ = ("n", "conductor", "pieces")

    def __init__(self, n, components):
        components = list(components)
        if len(components) != n:
            raise ValueError("need exactly %d components" % n)
        coerced = []
        nf = 1
        for comp in components:
            flat = {}
            for e, c in comp.items():
                e = tuple(int(x) for x in e)
                if len(e) != n or any(x < 0 for x in e):
                    raise ValueError("bad exponent tuple %r" % (e,))
                c = _to_cyc(c)
                if not c.is_zero():
                    flat[e] = c
                    nf = lcm(nf, c.n)
            coerced.append(flat)
        pieces = []
        for flat in coerced:
            by_d = {}
            for e, c in flat.items():
                by_d.setdefault(sum(e), {})[e] = _lift(c, nf)
            pieces.append({d: by_d[d] for d in sorted(by_d)})
        self.n = n
        self.conductor = nf
        self.pieces = tuple(pieces)

    @classmethod
    def identity(cls, n, conductor=1):
        return cls(n, [{_unit(n, i): one(conductor)} for i in range(n)])

    def component(self, i):
        flat = {}
        for piece in self.pieces[i].values():
            flat.update(piece)
        return flat

    def components(self):
        return [self.component(i) for i in range(self.n)]

    def degree(self):
        return max((max(p, default=0) for p in self.pieces), default=0)

    def is_identity(self):
        return all(
            self.pieces[i] == {1: {_unit(self.n, i): one(self.conductor)}}
            for i in range(self.n)
        )

    def _lifted(self, nf):
        if nf == self.conductor:
            return self.components()
        return [
            {e: _lift(c, nf) for e, c in self.component(i).items()}
            for i in range(self.n)
        ]

    def evaluate(self, point):
        point = [_to_cyc(v) for v in point]
        if len(point) != self.n:
            raise ValueError("point has wrong length")
        nf = lcm(self.conductor, *(v.n for v in point)) if point else self.conductor
        point = [_lift(v, nf) for v in point]
        return tuple(_peval(p, point, nf) for p in self._lifted(nf))

    def jacobian_at(self, point):
        point = [_to_cyc(v) for v in point]
        if len(point) != self.n:
            raise ValueError("point has wrong length")
        nf = lcm(self.conductor, *(v.n for v in point))
        point = [_lift(v, nf) for v in point]
        comps = self._lifted(nf)
        return [
            [_peval(_pdiff(comps[i], k), point, nf) for k in range(self.n)]
            for i in range(self.n)
        ]

    def compose(self, other):
        """self after other, by exact substitution."""
        if other.n != self.n:
            raise ValueError("composition needs matching dimensions")
        nf = lcm(self.conductor, other.conductor)
        outer = self._lifted(nf)
        inner = other._lifted(nf)
        maxexp = [0] * self.n
        for comp in outer:
            for e in comp:
                for k in range(self.n):
                    maxexp[k] = max(maxexp[k], e[k])
        powers = []
        for k in range(self.n):
            pw = [{(0,) * self.n: one(nf)}]
            for _ in range(maxexp[k]):
                pw.append(_pmul(pw[-1], inner[k]))
            powers.append(pw)
        comps = []
        for comp in outer:
            acc = {}
            for e, c in comp.items():
                term = {(0,) * self.n: c}
                for k, ek in enumerate(e):
                    if ek:
                        term = _pmul(term, powers[k][ek])
                acc = _padd(acc, term)
            comps.append(acc)
        return PolyMap(self.n, comps)

    def __eq__(self, other):
        if not isinstance(other, PolyMap):
            return NotImplemented
        if self.n != other.n:
            return False
        nf = lcm(self.conductor, other.conductor)
        return self._lifted(nf) == other._lifted(nf)

    __hash__ = None

    def __repr__(self):
        return "PolyMap(n=%d, degree=%d)" % (self.n, self.degree())

    def to_json(self):
        return {
            "n": self.n,
            "components": [
                {
                    "monomials": [
                        {"exps": list(e), "coeff": cyc_to_json(c)}
                        for e, c in _sorted_monomials(self.component(i))
                    ]
                }
                for i in range(self.n)
            ],
        }

    @classmethod
    def from_json(cls, d):
        comps = [
            {
                tuple(m["exps"]): cyc_from_json(m["coeff"])
                for m in comp["monomials"]
            }
            for comp in d["components"]
        ]
        return cls(d["n"], comps)


def _unit(n, i):
    return tuple(1 if k == i else 0 for k in range(n))


class AffineMap:
    """v -> M v + b with exact cyclotomic entries."""

    __slots__ = ("n", "conductor", "matrix", "shift")

    def __init__(self, matrix, shift):
        n = len(matrix)
        entries = [[_to_cyc(v) for v in row] for row in matrix]
        vec = [_to_cyc(v) for v in shift]
        if any(len(row) != n for row in entries) or len(vec) != n:
            raise ValueError("square matrix and matching shift required")
        nf = 1
        for row in entries:
            for v in row:
                nf = lcm(nf, v.n)
        for v in vec:
            nf = lcm(nf, v.n)
        self.n = n
        self.conductor = nf
        self.matrix = tuple(tuple(_lift(v, nf) for v in row) for row in entries)
        self.shift = tuple(_lift(v, nf) for v in vec)

    def apply(self, point):
        point = [_to_cyc(v) for v in point]
        nf = lcm(self.conductor, *(v.n for v in point))
        point = [_lift(v, nf) for v in point]
        out = []
        for i in range(self.n):
            acc = _lift(self.shift[i], nf)
            for k in range(self.n):
                acc = acc + _lift(self.matrix[i][k], nf) * point[k]
            out.append(acc)
        return tuple(out)

    def to_polymap(self):
        comps = []
        for i in range(self.n):
            flat = {(0,) * self.n: self.shift[i]}
            for k in range(self.n):
                flat[_unit(self.n, k)] = self.matrix[i][k]
            comps.append(flat)
        return PolyMap(self.n, comps)

    def inverse(self):
        inv = _inverse(self.matrix, self.conductor)
        neg = tuple(-v for v in self.shift)
        shift = [
            sum((inv[i][k] * neg[k] for k in range(self.n)), zero(self.conductor))
            for i in range(self.n)
        ]
        return AffineMap(inv, shift)

    def __eq__(self, other):
        if not isinstance(other, AffineMap):
            return NotImplemented
        return self.to_polymap() == other.to_polymap()

    __hash__ = None


def _inverse(m, nf):
    """Inverse of a square matrix of scalars, lifted to conductor nf."""
    try:
        return Mat([[_lift(v, nf) for v in row] for row in m]).inverse().rows
    except ZeroDivisionError:
        raise SingularJacobian("singular matrix") from None


def check_origin_conditions(theta):
    """Constant terms vanish and the linear part is the identity matrix."""
    fixes = all(0 not in theta.pieces[i] for i in range(theta.n))
    ident = True
    uno = one(theta.conductor)
    for i in range(theta.n):
        lin = theta.pieces[i].get(1, {})
        want = {_unit(theta.n, i): uno}
        if lin != want:
            ident = False
            break
    return {
        "defined_at_origin": True,
        "fixes_origin": fixes,
        "identity_differential": ident,
        "pass": fixes and ident,
    }


def regular_point(sigma, bound=5):
    """Integer point of small height where the Jacobian is invertible."""
    for norm in range(bound + 1):
        for pt in product(range(-norm, norm + 1), repeat=sigma.n):
            if max((abs(v) for v in pt), default=0) != norm:
                continue
            try:
                _inverse(sigma.jacobian_at(pt), sigma.conductor)
            except SingularJacobian:
                continue
            return pt
    raise NotFound("no regular integer point of height <= %d" % bound)


def factor_through_origin(sigma, s):
    """sigma = alpha o theta o tau with theta origin-fixing, d_o theta = id.

    tau translates s to the origin, alpha is the affine jet of sigma at s,
    and theta picks up everything of higher order.
    """
    s = [_to_cyc(v) for v in s]
    jac = sigma.jacobian_at(s)
    nf = lcm(sigma.conductor, *(v.n for v in jac[0]))
    _inverse(jac, nf)  # fail fast while the error names the right object
    sig_s = sigma.evaluate(s)
    n = sigma.n
    eye = [[1 if i == k else 0 for k in range(n)] for i in range(n)]
    tau = AffineMap(eye, [-v for v in s])
    tau_inv = AffineMap(eye, s)
    alpha = AffineMap(jac, sig_s)
    theta = (
        alpha.inverse().to_polymap().compose(sigma).compose(tau_inv.to_polymap())
    )
    assert check_origin_conditions(theta)["pass"]
    assert alpha.to_polymap().compose(theta).compose(tau.to_polymap()) == sigma
    return alpha, theta, tau


class PathFamily:
    """rho(t)_i = x_i + sum_{d>=2} t^(d-1) F_{i,d}, with t formal."""

    __slots__ = ("base", "tpieces")

    def __init__(self, base):
        self.base = base
        comps = []
        for i in range(base.n):
            flat = {}
            for d, piece in base.pieces[i].items():
                for e, c in piece.items():
                    flat[(d - 1, e)] = c
            comps.append(flat)
        self.tpieces = tuple(comps)

    @property
    def n(self):
        return self.base.n

    def to_json(self):
        return {
            "n": self.base.n,
            "t": "formal",
            "components": [
                {
                    "monomials": [
                        {"t": te, "exps": list(e), "coeff": cyc_to_json(c)}
                        for (te, e), c in sorted(
                            comp.items(), key=lambda it: (it[0][0], it[0][1])
                        )
                    ]
                }
                for comp in self.tpieces
            ],
        }


def path_family(theta):
    """The dilation path for an origin-fixing map with identity differential."""
    rep = check_origin_conditions(theta)
    if not rep["pass"]:
        raise ConditionsFail(
            "fixes_origin=%(fixes_origin)s identity_differential="
            "%(identity_differential)s" % rep
        )
    fam = PathFamily(theta)
    assert evaluate_path(fam, 0).is_identity()
    assert evaluate_path(fam, 1) == theta
    return fam


def verify_conjugation_identity(theta, max_degree=None):
    """Expand the dilation conjugate of theta in Laurent t and compare.

    Substituting (t x_1, ..., t x_n), every monomial of x-degree d picks up
    t^d, and the outer t^(-1) shifts that to t^(d-1); the report confirms
    literal equality with the path family and that no negative powers of t
    survive. For maps obtained by series truncation pass max_degree to
    compare only up to that x-degree.
    """
    rep = check_origin_conditions(theta)
    if not rep["pass"]:
        raise ConditionsFail(
            "fixes_origin=%(fixes_origin)s identity_differential="
            "%(identity_differential)s" % rep
        )
    fam = path_family(theta)
    ok = True
    negatives = False
    for i in range(theta.n):
        lhs = {}
        for e, c in theta.component(i).items():
            lhs[(sum(e) - 1, e)] = c
        rhs = dict(fam.tpieces[i])
        if max_degree is not None:
            lhs = {k: v for k, v in lhs.items() if sum(k[1]) <= max_degree}
            rhs = {k: v for k, v in rhs.items() if sum(k[1]) <= max_degree}
        if any(te < 0 for te, _ in lhs):
            negatives = True
        if lhs != rhs:
            ok = False
    return {
        "pass": ok and not negatives,
        "negative_powers_cancel": not negatives,
        "matches_family": ok,
        "components": theta.n,
        "max_degree": max_degree,
    }


def evaluate_path(fam, t0, theta_inverse=None):
    """Substitute a scalar for t; optionally certify the inverse at t0.

    When an inverse of the base map is supplied and t0 is nonzero, the
    dilation conjugate of that inverse must invert the evaluated map on
    both sides.
    """
    t0 = _to_cyc(t0)
    n = fam.n
    nf = lcm(fam.base.conductor, t0.n)
    t0 = _lift(t0, nf)
    comps = []
    for i in range(n):
        flat = {}
        for (te, e), c in fam.tpieces[i].items():
            c = _lift(c, nf)
            v = c * t0 ** te if te else c
            if not v.is_zero():
                flat[e] = flat[e] + v if e in flat else v
        comps.append(flat)
    out = PolyMap(n, comps)
    if theta_inverse is not None and not t0.is_zero():
        inv = _dilation_conjugate(theta_inverse, t0)
        ident = PolyMap.identity(n)
        if not (out.compose(inv) == ident and inv.compose(out) == ident):
            raise ValueError("supplied inverse does not invert the map at t0")
    return out


def _dilation_conjugate(pm, t0):
    """(t0^-1 . ) o pm o (t0 . ): x-degree-d terms scale by t0^(d-1)."""
    nf = lcm(pm.conductor, t0.n)
    t0 = _lift(t0, nf)
    comps = []
    for i in range(pm.n):
        flat = {}
        for e, c in pm.component(i).items():
            flat[e] = _lift(c, nf) * t0 ** (sum(e) - 1)
        comps.append(flat)
    return PolyMap(pm.n, comps)


def truncate_rational(num, den, order=TRUNCATION_ORDER):
    """Series expansion of component ratios num_i/den_i up to x-degree order.

    Each denominator must be nonzero at the origin; its inverse is the
    geometric series in (1 - den_i/den_i(o)), which gains a degree per term,
    so the truncation is exact modulo degree order + 1.
    """
    if num.n != den.n:
        raise ValueError("numerator and denominator dimensions differ")
    nf = lcm(num.conductor, den.conductor)
    nums = num._lifted(nf)
    dens = den._lifted(nf)
    n = num.n
    origin = (0,) * n
    comps = []
    for i in range(n):
        c0 = dens[i].get(origin)
        if c0 is None or c0.is_zero():
            raise ZeroDenominator("component %d denominator vanishes at o" % i)
        scaled = _pscale(dens[i], c0.inverse())
        u = {e: -c for e, c in scaled.items() if e != origin}
        inv = {origin: one(nf)}
        term = {origin: one(nf)}
        for _ in range(order):
            term = _ptruncate(_pmul(term, u), order)
            if not term:
                break
            inv = _padd(inv, term)
        ratio = _ptruncate(_pmul(nums[i], inv), order)
        comps.append(_pscale(ratio, c0.inverse()))
    return PolyMap(n, comps)
