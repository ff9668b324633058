"""Paths connecting polynomial self-maps of affine space to the identity.

A map fixing the origin with identity differential decomposes into graded
pieces theta_i = x_i + sum_{d>=2} F_{i,d}. Scaling conjugation by the
dilation (t x_1, ..., t x_n) turns the grading into a path: each piece
F_{i,d} picks up t^(d-1), giving a family that is the identity at t = 0 and
theta at t = 1. Everything here is exact: coefficients are cyclotomic
numbers and the parameter t stays formal.

A `PolyMap` keeps its components as flat polynomials of raw kernel scalars
(the `_kernel` tuples of `CycNum.raw`), every coefficient lifted once to one
conductor; an `AffineMap` keeps a `Mat` and a raw shift, and a `PathFamily`
raw coefficients. Maps made here are built on raw scalars directly, and JSON
is written from them; the checked constructors, which take numbers or
`CycNum`, are for input, and read each value to a raw scalar through
`scalars.raw_of`, so an int or a Fraction never becomes a `CycNum`.
`CycNum` is the type at the surface only: `PolyMap.pieces` and
`component()`, `AffineMap.matrix` and `shift` and `PathFamily.tpieces` are
views built when asked for.

A map sigma factors through the origin at a point s by one translation:
T = sigma(x + s) is a Taylor shift, done one variable at a time with one
power table of s_k (von zur Gathen and Gerhard, "Fast algorithms for Taylor
shifts", ISSAC 1997, treat one variable). T's constant terms are sigma(s),
its linear coefficients the Jacobian J at s, and theta = J^-1 (T - T(0)).
The proof that sigma = alpha o theta o tau does not reuse that route: it
recomposes the three by `PolyMap.compose`, multivariate Horner (Pena and
Sauer, "On the multivariate Horner scheme", SIAM J. Numer. Anal. 37, 2000):
the outer monomials are grouped by the exponent of x_k, and
acc <- acc * inner_k + H_{k+1}(group j) runs from the top exponent down. A
factor equal to the canonical one costs no product. Evaluation builds one
power table per variable.
"""

from itertools import product
from math import comb, lcm
from operator import add

from . import _kernel as K
from .errors import (
    CheckFailed,
    ConditionsFail,
    NotFound,
    SingularJacobian,
)
from .groups import Mat
from .scalars import (
    CycNum,
    cyc_from_json,
    embed_raw,
    get_context,
    raw_of,
    raw_to_json,
)


def _raws(values, nf=1):
    """(m, raws): the ints, Fractions or CycNums `values` as raw scalars
    over m, the lcm of nf and their conductors."""
    pairs = [raw_of(v) for v in values]
    nf = lcm(nf, *(k for k, _ in pairs))
    return nf, [embed_raw(c, k, nf) for k, c in pairs]


# flat polynomials: dict exps-tuple -> raw scalar, zero coefficients dropped,
# every coefficient over the same context ctx


def _radd(acc, p):
    """acc += p in place."""
    for e, c in p.items():
        s = acc.get(e)
        if s is None:
            acc[e] = c
        else:
            s = K.c_add(s, c)
            if K.c_is_zero(s):
                del acc[e]
            else:
                acc[e] = s


def _rmul(a, b, ctx):
    """a * b; a coefficient equal to ctx.one is not multiplied."""
    red, phi, uno = ctx.red, ctx.phi, ctx.one
    out = {}
    for ea, ca in a.items():
        a_one = ca == uno
        for eb, cb in b.items():
            e = tuple(map(add, ea, eb))
            if a_one:
                c = cb
            elif cb == uno:
                c = ca
            else:
                c = K.c_mul(ca, cb, red, phi)
            s = out.get(e)
            if s is None:
                out[e] = c
            else:
                s = K.c_add(s, c)
                if K.c_is_zero(s):
                    del out[e]
                else:
                    out[e] = s
    return out


def _rscale(p, c, ctx):
    """c * p for a nonzero scalar c."""
    red, phi = ctx.red, ctx.phi
    return {e: K.c_mul(c, v, red, phi) for e, v in p.items()}


def _reval(p, pw, ctx):
    """p at the point whose variable k has the power table pw[k]."""
    red, phi = ctx.red, ctx.phi
    acc = ctx.zero
    for e, c in p.items():
        for k, ek in enumerate(e):
            if ek:
                c = K.c_mul(c, pw[k][ek], red, phi)
        acc = K.c_add(acc, c)
    return acc


def _rdiff(p, k):
    """d p / d x_k."""
    out = {}
    for e, c in p.items():
        ek = e[k]
        if ek:
            phi = len(c) - 1
            out[e[:k] + (ek - 1,) + e[k + 1:]] = K.c_norm(
                [v * ek for v in c[:phi]], c[phi]
            )
    return out


def _horner(terms, k, inner, ctx):
    """sum of c * prod_{j >= k} inner[j]^e[j] over the (e, c) in terms.

    The terms are grouped by e[k]; acc <- acc * inner[k] + H_{k+1}(group j)
    runs for j from the top exponent down to 0. Past the last variable one
    term is left, its coefficient a constant.
    """
    if k == len(inner):
        ((_, c),) = terms
        return {(0,) * k: c}
    groups = {}
    for t in terms:
        groups.setdefault(t[0][k], []).append(t)
    top = max(groups)
    acc = _horner(groups[top], k + 1, inner, ctx)
    for j in range(top - 1, -1, -1):
        acc = _rmul(acc, inner[k], ctx)
        group = groups.get(j)
        if group:
            _radd(acc, _horner(group, k + 1, inner, ctx))
    return acc


def _sorted_monomials(p):
    return sorted(p.items(), key=lambda it: (sum(it[0]), it[0]))


class PolyMap:
    """Polynomial self-map of A^n.

    The components are kept as flat dicts of raw scalars over `conductor`;
    `pieces`, the components graded by degree with `CycNum` coefficients,
    is built on first access.
    """

    __slots__ = ("n", "conductor", "_comps", "_pieces")

    def __init__(self, n, components):
        if type(n) is not int or n < 1:
            raise ValueError("dimension must be a positive integer, got %r" % (n,))
        components = list(components)
        if len(components) != n:
            raise ValueError("need exactly %d components" % n)
        coerced = []
        nf = 1
        for comp in components:
            flat = {}
            for e, c in comp.items():
                e = tuple(e)
                if len(e) != n or any(type(x) is not int or x < 0 for x in e):
                    raise ValueError("bad exponent tuple %r" % (e,))
                k, c = raw_of(c)
                if not K.c_is_zero(c):
                    flat[e] = k, c
                    nf = lcm(nf, k)
            coerced.append(flat)
        self._set(n, nf, [{e: embed_raw(c, k, nf) for e, (k, c) in flat.items()}
                          for flat in coerced])

    @classmethod
    def _wrap(cls, n, nf, raws):
        """Trusted constructor: raws are n flat dicts of nonzero raw scalars
        over conductor nf, keyed by exponent tuples of length n. The map
        keeps the dicts; nothing may change them afterwards."""
        obj = object.__new__(cls)
        obj._set(n, nf, raws)
        return obj

    def _set(self, n, nf, raws):
        self.n = n
        # a map without coefficients has conductor 1, as __init__ gives it
        self.conductor = nf if any(raws) else 1
        self._comps = tuple(raws)
        self._pieces = None

    @property
    def pieces(self):
        """Per component, {degree: {exps: CycNum}} in increasing degree."""
        if self._pieces is None:
            nf = self.conductor
            pieces = []
            for flat in self._comps:
                by_d = {}
                for e, c in flat.items():
                    by_d.setdefault(sum(e), {})[e] = CycNum._wrap(nf, c)
                pieces.append({d: by_d[d] for d in sorted(by_d)})
            self._pieces = tuple(pieces)
        return self._pieces

    def component(self, i):
        nf = self.conductor
        return {e: CycNum._wrap(nf, c) for e, c in self._comps[i].items()}

    def is_identity(self):
        uno = get_context(self.conductor).one
        return all(
            flat == {_unit(self.n, i): uno} for i, flat in enumerate(self._comps)
        )

    def _raw(self, nf):
        """The components as flat dicts of raw scalars over conductor nf:
        the stored dicts themselves when nf is the map's conductor, so the
        caller must not change them."""
        if nf == self.conductor:
            return self._comps
        m = self.conductor
        return tuple({e: embed_raw(c, m, nf) for e, c in flat.items()}
                     for flat in self._comps)

    def _at(self, point):
        """(conductor, context, raw components, power tables) at point."""
        nf, point = _raws(point, self.conductor)
        if len(point) != self.n:
            raise ValueError("point has wrong length")
        ctx = get_context(nf)
        comps = self._raw(nf)
        top = [max((e[k] for comp in comps for e in comp), default=0)
               for k in range(self.n)]
        pw = [K.powers(v, t, ctx.red, ctx.phi) for v, t in zip(point, top)]
        return nf, ctx, comps, pw

    def jacobian_at(self, point):
        """The Jacobian matrix at point, as a Mat."""
        nf, ctx, comps, pw = self._at(point)
        return Mat._wrap(nf, self.n, [_reval(_rdiff(p, k), pw, ctx)
                                      for p in comps for k in range(self.n)])

    def compose(self, other):
        """self after other, by exact substitution (multivariate Horner)."""
        if other.n != self.n:
            raise ValueError("composition needs matching dimensions")
        nf = lcm(self.conductor, other.conductor)
        ctx = get_context(nf)
        inner = other._raw(nf)
        comps = [
            _horner(list(comp.items()), 0, inner, ctx) if comp else {}
            for comp in self._raw(nf)
        ]
        return PolyMap._wrap(self.n, nf, comps)

    def __eq__(self, other):
        if not isinstance(other, PolyMap):
            return NotImplemented
        if self.n != other.n:
            return False
        nf = lcm(self.conductor, other.conductor)
        return self._raw(nf) == other._raw(nf)

    __hash__ = None

    def __repr__(self):
        degree = max((sum(e) for flat in self._comps for e in flat), default=0)
        return "PolyMap(n=%d, degree=%d)" % (self.n, degree)

    def to_json(self):
        nf = self.conductor
        return {
            "n": self.n,
            "components": [
                {
                    "monomials": [
                        {"exps": list(e), "coeff": raw_to_json(nf, c)}
                        for e, c in _sorted_monomials(flat)
                    ]
                }
                for flat in self._comps
            ],
        }

    @classmethod
    def from_json(cls, d):
        comps = []
        for comp in d["components"]:
            flat = {}
            for m in comp["monomials"]:
                e = tuple(m["exps"])
                if e in flat:
                    raise ValueError("monomial %r appears twice" % (list(e),))
                flat[e] = cyc_from_json(m["coeff"])
            comps.append(flat)
        return cls(d["n"], comps)


def _unit(n, i):
    return tuple(1 if k == i else 0 for k in range(n))


class AffineMap:
    """v -> M v + b over one conductor: M as the Mat `linear` and b as the
    raw scalars `offset`; `matrix` and `shift` view them as CycNum."""

    __slots__ = ("n", "conductor", "linear", "offset")

    def __init__(self, matrix, shift):
        n = len(matrix)
        nf, vals = _raws([*(v for row in matrix for v in row), *shift])
        if any(len(row) != n for row in matrix) or len(vals) != n * n + n:
            raise ValueError("square matrix and matching shift required")
        self._set(Mat._wrap(nf, n, vals[:n * n]), vals[n * n:])

    @classmethod
    def _wrap(cls, linear, offset):
        """The map with the Mat `linear` and the raw shift `offset` over its
        conductor, trusted as is: for results computed here."""
        obj = object.__new__(cls)
        obj._set(linear, offset)
        return obj

    def _set(self, linear, offset):
        self.n, self.conductor = linear.size, linear.n
        self.linear, self.offset = linear, tuple(offset)

    @property
    def matrix(self):
        return self.linear.rows

    @property
    def shift(self):
        return tuple(CycNum._wrap(self.conductor, b) for b in self.offset)

    def to_polymap(self):
        n = self.n
        keys = [(0,) * n] + [_unit(n, k) for k in range(n)]
        comps = []
        for i, b in enumerate(self.offset):
            vals = (b,) + self.linear.raw[i * n:(i + 1) * n]
            comps.append({e: c for e, c in zip(keys, vals) if not K.c_is_zero(c)})
        return PolyMap._wrap(n, self.conductor, comps)


def _inverse(m):
    """The inverse of the Mat m; SingularJacobian when it has none."""
    try:
        return m.inverse()
    except ZeroDivisionError:
        raise SingularJacobian("singular matrix") from None


def check_origin_conditions(theta):
    """Constant terms vanish and the linear part is the identity matrix,
    read off the raw components: the constant and the n linear monomials of
    each are looked up, and nothing is graded."""
    n = theta.n
    origin = (0,) * n
    units = [_unit(n, k) for k in range(n)]
    uno = get_context(theta.conductor).one
    fixes = all(origin not in flat for flat in theta._comps)
    ident = all(flat.get(units[i]) == uno
                and not any(units[k] in flat for k in range(n) if k != i)
                for i, flat in enumerate(theta._comps))
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
                _inverse(sigma.jacobian_at(pt))
            except SingularJacobian:
                continue
            return pt
    raise NotFound("no regular integer point of height <= %d" % bound)


def _rtranslate(comps, shift, ctx):
    """The components of p(x + s), p given by its raw components and s by
    raw scalars, all over ctx.

    A Taylor shift, one variable at a time: for s_k != 0 each c * x^e
    becomes sum_i C(e_k, i) * s_k^(e_k - i) * c * x^(e with e_k = i), the
    factors C(m, i) * s_k^(m - i) taken from one power table of s_k.
    """
    red, phi = ctx.red, ctx.phi
    for k, sk in enumerate(shift):
        if K.c_is_zero(sk):
            continue
        top = max((e[k] for comp in comps for e in comp), default=0)
        pw = K.powers(sk, top, red, phi)
        binom = [
            [K.c_norm([comb(m, i) * v for v in pw[m - i][:phi]], pw[m - i][phi])
             for i in range(m)]
            for m in range(top + 1)
        ]
        shifted = []
        for comp in comps:
            out = {}
            for e, c in comp.items():
                m = e[k]
                head, tail = e[:k], e[k + 1:]
                row = binom[m]
                for i in range(m + 1):
                    f = head + (i,) + tail
                    v = c if i == m else K.c_mul(c, row[i], red, phi)
                    acc = out.get(f)
                    if acc is None:
                        out[f] = v
                    else:
                        acc = K.c_add(acc, v)
                        if K.c_is_zero(acc):
                            del out[f]
                        else:
                            out[f] = acc
            shifted.append(out)
        comps = shifted
    return comps


def factor_through_origin(sigma, s):
    """sigma = alpha o theta o tau with theta origin-fixing, d_o theta = id.

    tau translates s to the origin, alpha is the affine jet of sigma at s,
    and theta picks up everything of higher order. With T = sigma(x + s),
    alpha is read off T's constant and linear terms and theta is
    J^-1 (T - T(0)); the reassembly is checked by Horner composition.
    """
    n = sigma.n
    ns, s = _raws(s)
    if len(s) != n:
        raise ValueError("point has wrong length")
    nf = lcm(sigma.conductor, ns)
    ctx = get_context(nf)
    shifted = _rtranslate(sigma._raw(nf), [embed_raw(v, ns, nf) for v in s], ctx)
    origin = (0,) * n
    units = [_unit(n, k) for k in range(n)]
    jac = Mat._wrap(nf, n, [comp.get(u, ctx.zero) for comp in shifted for u in units])
    alpha = AffineMap._wrap(jac, [comp.get(origin, ctx.zero) for comp in shifted])
    # tau is over the point's conductor
    tau = AffineMap._wrap(Mat.identity(n, ns), [K.c_neg(v) for v in s])
    # the one inversion of the Jacobian; a singular one raises SingularJacobian
    inv = _inverse(jac)
    nonconst = [{e: c for e, c in comp.items() if e != origin} for comp in shifted]
    comps = []
    for i in range(0, n * n, n):
        acc = {}
        for a, comp in zip(inv.raw[i:i + n], nonconst):
            if not K.c_is_zero(a):
                _radd(acc, _rscale(comp, a, ctx))
        comps.append(acc)
    theta = PolyMap._wrap(n, nf, comps)
    if not check_origin_conditions(theta)["pass"]:
        raise CheckFailed("theta does not fix the origin with identity differential")
    if alpha.to_polymap().compose(theta).compose(tau.to_polymap()) != sigma:
        raise CheckFailed("alpha o theta o tau does not reassemble sigma")
    return alpha, theta, tau


class PathFamily:
    """rho(t)_i = x_i + sum_{d>=2} t^(d-1) F_{i,d}, with t formal: per
    component, the raw coefficient of each t^(d-1) x^e keyed by (d-1, e),
    over the base map's conductor; `tpieces` views them as CycNum."""

    __slots__ = ("base", "_tcomps")

    def __init__(self, base):
        self.base = base
        self._tcomps = tuple({(sum(e) - 1, e): c for e, c in flat.items()}
                             for flat in base._comps)

    @property
    def tpieces(self):
        nf = self.base.conductor
        return tuple({k: CycNum._wrap(nf, c) for k, c in comp.items()}
                     for comp in self._tcomps)

    @property
    def n(self):
        return self.base.n

    def to_json(self):
        nf = self.base.conductor
        return {
            "n": self.base.n,
            "t": "formal",
            "components": [
                {
                    "monomials": [
                        {"t": te, "exps": list(e), "coeff": raw_to_json(nf, c)}
                        for (te, e), c in sorted(
                            comp.items(), key=lambda it: (it[0][0], it[0][1])
                        )
                    ]
                }
                for comp in self._tcomps
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
    if not evaluate_path(fam, 0).is_identity():
        raise CheckFailed("the path is not the identity at t = 0")
    if evaluate_path(fam, 1) != theta:
        raise CheckFailed("the path is not theta at t = 1")
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
    for flat, rhs in zip(theta._comps, fam._tcomps):
        lhs = {(sum(e) - 1, e): c for e, c in flat.items()}
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


def evaluate_path(fam, t0):
    """The map of the family at the scalar t0."""
    nt, t0 = raw_of(t0)
    nf = lcm(fam.base.conductor, nt)
    ctx = get_context(nf)
    top = max((te for comp in fam._tcomps for te, _ in comp), default=0)
    red, phi = ctx.red, ctx.phi
    tpw = K.powers(embed_raw(t0, nt, nf), top, red, phi)
    comps = []
    for comp in fam._tcomps:
        flat = {}
        for (te, e), c in comp.items():
            c = embed_raw(c, fam.base.conductor, nf)
            if te:
                c = K.c_mul(c, tpw[te], red, phi)
            if not K.c_is_zero(c):
                flat[e] = c
        comps.append(flat)
    return PolyMap._wrap(fam.n, nf, comps)
