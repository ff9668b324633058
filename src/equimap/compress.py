"""Self-compression certificates for binary polyhedral groups.

Closed-form coefficient series decide which degrees admit nontrivial
equivariant pairs; a deterministic search over the equivariant basis
produces an explicit pair (phi1, phi2); and the certificate records three
independent checks: exact equivariance over the whole group, a nonzero
Jacobian, and descent nontriviality read off the gcd degree.
"""

import itertools
from fractions import Fraction
from math import lcm

from . import _kernel as K
from .errors import (
    CheckFailed,
    ConductorMismatch,
    DegreeMismatch,
    InfeasibleDegree,
    Mismatch,
    NotInvariant,
    SearchExhausted,
    UnknownKind,
    ZeroDenominator,
    ZeroForm,
)
from .scalars import CycNum, cyc_embed, cyc_from_json, cyc_to_json, get_context, one
from .groups import (
    LinearCharacter,
    Mat,
    MatrixGroup,
    build_group,
    canonical_kind,
    chi_stabilizer_characters,
    diagonal_coset_decomposition,
    mat_to_json,
)
from .forms import (
    Form,
    _euclid_raws,
    _x2_valuation,
    canonical_span,
    diagonal_weights,
    equivariant_basis,
    form_gcd,
    form_from_json,
    form_to_json,
    in_span,
    isotypic_dim_and_basis,
    isotypic_dimension,
    jacobian_determinant,
    monomial_exponents,
    multiplicity_chi,
    substitute,
)

_PRIMITIVE_A = {
    "binary-tetrahedral": 3,
    "binary-octahedral": 4,
    "binary-icosahedral": 6,
}

SERIES_KINDS = ("S_G", "P_chi", "P_1", "P_theta")

ALPHA_NORM_BOUND = 8


class SeriesTable:
    """Integer coefficients of one closed-form series, indices 0..upto."""

    __slots__ = ("kind", "group_kind", "parameter", "coeffs")

    def __init__(self, kind, group_kind, parameter, coeffs):
        self.kind = kind
        self.group_kind = group_kind
        self.parameter = parameter
        self.coeffs = tuple(int(c) for c in coeffs)
        assert all(c >= 0 for c in self.coeffs)

    def __getitem__(self, d):
        return self.coeffs[d]

    def __len__(self):
        return len(self.coeffs)

    def first_nonzero(self):
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return None

    def to_json(self):
        return {
            "kind": self.kind,
            "group_kind": self.group_kind,
            "parameter": self.parameter,
            "coeffs": list(self.coeffs),
        }

    @classmethod
    def from_json(cls, d):
        return cls(d["kind"], d["group_kind"], d.get("parameter"), d["coeffs"])


def _expand(numerator, strides, upto):
    # numerator: {exponent: multiplicity}; each stride p contributes a
    # factor 1/(1-t^p), expanded as a running prefix sum.
    c = [0] * (upto + 1)
    for e, v in numerator.items():
        if e <= upto:
            c[e] += v
    for p in strides:
        for i in range(p, upto + 1):
            c[i] += c[i - p]
    return c


def series(group_kind, parameter, kind, upto):
    """Exact coefficients of the named series up to degree `upto`."""
    if upto < 1:
        raise ValueError("upto must be >= 1")
    if kind not in SERIES_KINDS:
        raise UnknownKind("series kind must be one of %s" % (SERIES_KINDS,))
    gk = canonical_kind(group_kind)
    if gk in _PRIMITIVE_A:
        a = _PRIMITIVE_A[gk]
        den = (2 * a, 4 * a - 4)
        if kind == "S_G":
            c1 = _expand({2 * a - 1: 1, 6 * a - 7: 1}, den, upto)
            c2 = _expand({4 * a - 5: 1}, (4 * a - 4,), upto)
            coeffs = [x + y for x, y in zip(c1, c2)]
        elif kind == "P_chi":
            coeffs = _expand({1: 1, 2 * a - 1: 1, 4 * a - 5: 1, 6 * a - 7: 1}, den, upto)
        elif kind == "P_1":
            coeffs = _expand({0: 1, 6 * a - 6: 1}, den, upto)
        else:
            raise UnknownKind("no theta series for primitive kinds")
        return SeriesTable(kind, gk, None, coeffs)
    if gk not in ("binary-dihedral", "cyclic"):
        raise UnknownKind("unknown group kind %r" % (group_kind,))
    ell = parameter
    if ell is None or ell < 2:
        raise ValueError("dihedral and cyclic series need ell >= 2")
    if kind == "S_G":
        coeffs = [1 if (d + 1) % (2 * ell) == 0 else 0 for d in range(upto + 1)]
        return SeriesTable(kind, gk, ell, coeffs)
    if gk == "cyclic":
        raise UnknownKind("chi is reducible for cyclic groups; no character split")
    den = (4, 2 * ell)
    if kind == "P_chi":
        num = {}
        for e in (1, 3, 2 * ell - 1, 2 * ell + 1):
            num[e] = num.get(e, 0) + 1
        coeffs = _expand(num, den, upto)
    elif kind == "P_1":
        coeffs = _expand({0: 1, 2 * ell + 2: 1}, den, upto)
    else:
        coeffs = _expand({2: 1, 2 * ell: 1}, den, upto)
    return SeriesTable(kind, gk, ell, coeffs)


def series_consistency(g, upto):
    """Closed-form series vs character computations, degree by degree.

    Checks, for 1 <= d <= upto: the trace-formula multiplicity equals the
    P_chi coefficient; isotypic dimensions equal the P_1/P_theta
    coefficients; the compression count s_d equals multiplicity minus the
    trivial (and theta, in the dihedral case) dimensions one degree down;
    and s_d <= multiplicity - max over the stabilizer characters.
    """
    if g.kind not in _PRIMITIVE_A and g.kind != "binary-dihedral":
        raise ValueError("series_consistency needs a noncyclic catalog group")
    if upto < 1:
        raise ValueError("upto must be >= 1")
    dihedral = g.kind == "binary-dihedral"
    s = series(g.kind, g.ell, "S_G", upto).coeffs
    p_chi = series(g.kind, g.ell, "P_chi", upto).coeffs
    p_one = series(g.kind, g.ell, "P_1", upto).coeffs
    p_theta = series(g.kind, g.ell, "P_theta", upto).coeffs if dihedral else None
    chars = chi_stabilizer_characters(g)
    mult = [0] + [multiplicity_chi(g, d) for d in range(1, upto + 1)]
    dims = [[isotypic_dimension(g, gamma, d) for d in range(upto)] for gamma in chars]
    three_theta = dihedral and g.ell == 2
    for d in range(1, upto + 1):
        if mult[d] != p_chi[d]:
            raise Mismatch(d, "multiplicity disagrees with closed-form P_chi")
        if dims[0][d - 1] != p_one[d - 1]:
            raise Mismatch(d, "trivial isotypic dimension disagrees with P_1")
        if dihedral:
            if dims[1][d - 1] != p_theta[d - 1]:
                raise Mismatch(d, "theta isotypic dimension disagrees with P_theta")
            want = mult[d] - dims[0][d - 1] - dims[1][d - 1]
        else:
            want = mult[d] - dims[0][d - 1]
        if s[d] != want:
            raise Mismatch(d, "s_d differs from the character-side count")
        if s[d] > mult[d] - max(dims[k][d - 1] for k in range(len(chars))):
            raise Mismatch(d, "s_d exceeds the max-character bound")
        if three_theta:
            if not (dims[1][d - 1] == dims[2][d - 1] == dims[3][d - 1]):
                raise Mismatch(d, "the three nontrivial dimensions differ")
    return {
        "kind": g.kind,
        "ell": g.ell,
        "upto": upto,
        "degrees_checked": upto,
        "series_match": True,
        "equality_holds": True,
        "inequality_holds": True,
        "theta_dims_equal": True if three_theta else None,
    }


class CompressionCertificate:
    """An explicit equivariant pair together with its verification record."""

    __slots__ = ("group", "d", "phi1", "phi2", "alpha", "gcd_degree",
                 "descent_degree", "checks")

    def __init__(self, group, d, phi1, phi2, alpha, gcd_degree, checks):
        self.group = group
        self.d = d
        self.phi1 = phi1
        self.phi2 = phi2
        self.alpha = tuple(int(a) for a in alpha)
        self.gcd_degree = int(gcd_degree)
        self.descent_degree = d - self.gcd_degree
        self.checks = dict(checks)

    def to_json(self):
        return {
            "group": self.group.to_json(),
            "d": self.d,
            "phi": [form_to_json(self.phi1), form_to_json(self.phi2)],
            "alpha": list(self.alpha),
            "gcd_degree": self.gcd_degree,
            "descent_degree": self.descent_degree,
            "checks": dict(self.checks),
        }

    @classmethod
    def from_json(cls, d):
        if len(d["phi"]) != 2:
            raise ValueError("a certificate has exactly two coordinate forms")
        if type(d["d"]) is not int or d["d"] < 1:
            raise ValueError("certificate degree must be a positive integer")
        return cls(
            MatrixGroup.from_json(d["group"]),
            d["d"],
            form_from_json(d["phi"][0]),
            form_from_json(d["phi"][1]),
            d["alpha"],
            d["gcd_degree"],
            d["checks"],
        )


def _alpha_shells(m, bound):
    # increasing max-norm, lexicographic within each shell
    for norm in range(1, bound + 1):
        for v in itertools.product(range(-norm, norm + 1), repeat=m):
            if max(abs(x) for x in v) == norm:
                yield v


def _combine(basis, alpha, coord, ctx, n, d):
    acc = [ctx.zero] * (d + 1)
    for a, pair in zip(alpha, basis):
        if a:
            K.vec_axpy(acc, _int_raw(a, ctx), pair[coord].raws(), ctx.red, ctx.phi)
    return Form(2, d, [CycNum._wrap(n, r) for r in acc])


def _int_raw(a, ctx):
    return (a,) + (0,) * (ctx.phi - 1) + (1,)


_BD_CERT_CACHE = {}


def construct_self_compression(g, d, alpha_norm_bound=ALPHA_NORM_BOUND):
    """Search for a degree-d certificate, deterministically.

    Cyclic groups reuse the certificate of the enclosing binary dihedral
    group of the same parameter: its pair restricts to a self-compression
    of the cyclic subgroup, and is re-verified against it here.
    """
    if d < 1:
        raise ValueError("degree must be >= 1")
    if g.kind == "cyclic":
        key = (g.ell, d)
        bd = _BD_CERT_CACHE.get(key)
        if bd is None:
            bd = construct_self_compression(
                build_group("binary-dihedral", g.ell), d, alpha_norm_bound
            )
            _BD_CERT_CACHE[key] = bd
        eq = verify_equivariance(g, bd.phi1, bd.phi2, "linear")
        checks = dict(bd.checks)
        checks["equivariant"] = eq["pass"]
        return CompressionCertificate(
            g, d, bd.phi1, bd.phi2, bd.alpha, bd.gcd_degree, checks
        )
    if g.kind not in _PRIMITIVE_A and g.kind != "binary-dihedral":
        raise ValueError("self-compressions are constructed for catalog groups")
    if series(g.kind, g.ell, "S_G", d).coeffs[d] == 0:
        raise InfeasibleDegree("no degree-%d self-compression for %s" % (d, g.kind))
    basis = equivariant_basis(g, d)
    m = len(basis)
    n = g.conductor
    ctx = get_context(n)
    for alpha in _alpha_shells(m, alpha_norm_bound):
        phi1 = _combine(basis, alpha, 0, ctx, n, d)
        phi2 = _combine(basis, alpha, 1, ctx, n, d)
        rows = [phi1.raws(), phi2.raws()]
        if len(K.rref(rows, ctx.red, ctx.phi, ctx.inv)) < 2:
            continue
        a = form_gcd(phi1, phi2)
        if a.degree > d - 2:
            continue
        eq = verify_equivariance(g, phi1, phi2, "linear")
        jac = not jacobian_determinant(phi1, phi2).is_zero()
        checks = {
            "equivariant": eq["pass"],
            "jacobian_nonzero": jac,
            "descent_nontrivial": True,
        }
        return CompressionCertificate(g, d, phi1, phi2, alpha, a.degree, checks)
    raise SearchExhausted(
        "no coefficient vector of max-norm <= %d worked at degree %d"
        % (alpha_norm_bound, d)
    )


def _lin2(a, b, f1r, f2r, ctx):
    # a*f1 + b*f2 on raw coefficient vectors
    az, bz = K.c_is_zero(a), K.c_is_zero(b)
    out = []
    for x, y in zip(f1r, f2r):
        t = ctx.zero
        if not az and not K.c_is_zero(x):
            t = K.c_mul(a, x, ctx.red, ctx.phi)
        if not bz and not K.c_is_zero(y):
            t = K.c_add(t, K.c_mul(b, y, ctx.red, ctx.phi))
        out.append(t)
    return out


def _match(lhs1, lhs2, rhs1, rhs2, mode, ctx):
    # raw-vector comparison; projective mode finds one scalar per matrix
    if mode == "linear":
        return lhs1 == rhs1 and lhs2 == rhs2, None
    s = None
    for lhs, rhs in ((lhs1, rhs1), (lhs2, rhs2)):
        for lc, rc in zip(lhs, rhs):
            if not K.c_is_zero(rc):
                s = K.c_mul(lc, ctx.inv(rc), ctx.red, ctx.phi)
                break
        if s is not None:
            break
    if s is None:
        ok = all(K.c_is_zero(x) for x in lhs1) and all(K.c_is_zero(x) for x in lhs2)
        return ok, None
    if K.c_is_zero(s):
        return False, s
    for lhs, rhs in ((lhs1, rhs1), (lhs2, rhs2)):
        for lc, rc in zip(lhs, rhs):
            if K.c_is_zero(rc):
                if not K.c_is_zero(lc):
                    return False, s
            elif lc != K.c_mul(s, rc, ctx.red, ctx.phi):
                return False, s
    return True, s


def _subst_raws(m, f, ctx):
    return [c.raw for c in substitute(m, f).coeffs]


def verify_equivariance(target, phi1, phi2, mode="linear"):
    """Check phi o g against the g-combination of (phi1, phi2).

    `target` is either a closed MatrixGroup (every element is checked,
    factored through the diagonal-coset decomposition) or a plain sequence
    of matrices, e.g. generators whose arbitrary scalar lifts do not close
    into a finite matrix group; projective equivariance on generators
    suffices for the group they generate.
    """
    if mode not in ("linear", "projective"):
        raise ValueError("mode must be linear or projective")
    if phi1.degree != phi2.degree:
        raise DegreeMismatch("coordinate forms must share their degree")
    if phi1.nvars != 2 or phi2.nvars != 2:
        raise ValueError("equivariance checks need bivariate forms")
    if phi1.n != phi2.n:
        raise ConductorMismatch("coordinate forms must share a conductor")
    d = phi1.degree
    group = target if isinstance(target, MatrixGroup) else None
    mats = None if group is not None else list(target)
    if any(m.size != 2 for m in (mats if group is None else group.generators)):
        raise ValueError("equivariance checks need 2x2 matrices")
    if group is not None:
        n = lcm(group.conductor, phi1.n)
    else:
        n = phi1.n
        for m in mats:
            n = lcm(n, m.n)
    ctx = get_context(n)
    f1 = phi1 if phi1.n == n else phi1.embed(n)
    f2 = phi2 if phi2.n == n else phi2.embed(n)
    f1r, f2r = f1.raws(), f2.raws()
    report = {"mode": mode, "pass": True, "checked": 0, "failing": None,
              "scalars": None}

    def run(mat_low, lhs1, lhs2, where):
        me = mat_low if mat_low.n == n else mat_low.embed(n)
        (a, b), (c, e) = me.rows
        rhs1 = _lin2(a.raw, b.raw, f1r, f2r, ctx)
        rhs2 = _lin2(c.raw, e.raw, f1r, f2r, ctx)
        ok, s = _match(lhs1, lhs2, rhs1, rhs2, mode, ctx)
        report["checked"] += 1
        if not ok:
            report["pass"] = False
            report["failing"] = {"index": where, "matrix": mat_to_json(mat_low)}
        return ok, s

    if group is not None:
        diag_idx, rep_idx = diagonal_coset_decomposition(group)
        weights = diagonal_weights(group, d, n)
        for ri in rep_idx:
            r = group.elements[ri]
            re = r if r.n == n else r.embed(n)
            img1 = _subst_raws(re, f1, ctx)
            img2 = _subst_raws(re, f2, ctx)
            for ci, w in zip(diag_idx, weights):
                # phi o (r c) = (phi o r) o c; diagonal c rescales coefficients
                lhs1 = [K.c_mul(x, w[j], ctx.red, ctx.phi)
                        if not K.c_is_zero(x) else x for j, x in enumerate(img1)]
                lhs2 = [K.c_mul(x, w[j], ctx.red, ctx.phi)
                        if not K.c_is_zero(x) else x for j, x in enumerate(img2)]
                g_low = r @ group.elements[ci]
                ok, _ = run(g_low, lhs1, lhs2, group.element_index(g_low))
                if not ok:
                    return report
        return report
    scalars = []
    for i, m0 in enumerate(mats):
        me = m0 if m0.n == n else m0.embed(n)
        lhs1 = _subst_raws(me, f1, ctx)
        lhs2 = _subst_raws(me, f2, ctx)
        ok, s = run(m0, lhs1, lhs2, i)
        scalars.append(cyc_to_json(CycNum._wrap(n, s)) if s is not None else None)
        if not ok:
            break
    if mode == "projective":
        report["scalars"] = scalars
    return report


def verify_descent(cert):
    """gcd-degree nontriviality, cross-checked against isotypic containment.

    The descent is trivial exactly when the gcd has degree d-1, and
    equivalently when the pair lies inside span(A(gamma)_{d-1} * A_1) for
    some stabilizer character gamma; both tests run and must agree.
    """
    phi1, phi2, d = cert.phi1, cert.phi2, cert.d
    if phi1.is_zero() or phi2.is_zero():
        raise ZeroForm("descent needs nonzero coordinate forms")
    a = form_gcd(phi1, phi2)
    nontrivial = a.degree <= d - 2
    g = cert.group
    # cyclic certificates are judged inside the enclosing binary dihedral
    # group, whose character chi is irreducible
    h = build_group("binary-dihedral", g.ell) if g.kind == "cyclic" else g
    n = lcm(phi1.n, h.conductor)
    p1 = phi1 if phi1.n == n else phi1.embed(n)
    p2 = phi2 if phi2.n == n else phi2.embed(n)
    x1 = Form.monomial(2, (1, 0), n)
    x2 = Form.monomial(2, (0, 1), n)
    containment = {}
    contained = False
    for k, gamma in enumerate(chi_stabilizer_characters(h)):
        _, bas = isotypic_dim_and_basis(h, gamma, d - 1)
        prods = []
        for b in bas:
            be = b if b.n == n else b.embed(n)
            prods.append(be * x1)
            prods.append(be * x2)
        if not prods:
            containment["gamma%d" % k] = False
            continue
        span = canonical_span(prods)
        inside = in_span(p1, span) and in_span(p2, span)
        containment["gamma%d" % k] = inside
        contained = contained or inside
    return {
        "gcd_degree": a.degree,
        "descent_degree": d - a.degree,
        "nontrivial": nontrivial,
        "containment": containment,
        "criteria_agree": (not nontrivial) == contained,
    }


def _as_cyc(v, n=1):
    if isinstance(v, CycNum):
        return v
    return CycNum.from_rational(Fraction(v), n)


class Moebius:
    """z -> (a z + b)/(c z + e) with ae - bc != 0; equality is projective."""

    __slots__ = ("a", "b", "c", "e", "n")

    def __init__(self, a, b, c, e):
        vals = [_as_cyc(v) for v in (a, b, c, e)]
        n = 1
        for v in vals:
            n = lcm(n, v.n)
        vals = [v if v.n == n else cyc_embed(v, n) for v in vals]
        self.a, self.b, self.c, self.e = vals
        self.n = n
        if (self.a * self.e - self.b * self.c).is_zero():
            raise ZeroDenominator("Moebius map needs ae - bc != 0")

    def _tuple(self):
        return (self.a, self.b, self.c, self.e)

    def __eq__(self, other):
        if not isinstance(other, Moebius):
            return NotImplemented
        n = lcm(self.n, other.n)
        u = [v if v.n == n else cyc_embed(v, n) for v in self._tuple()]
        v = [w if w.n == n else cyc_embed(w, n) for w in other._tuple()]
        for i in range(4):
            for j in range(i + 1, 4):
                if u[i] * v[j] != u[j] * v[i]:
                    return False
        return True

    __hash__ = None

    def __repr__(self):
        return "Moebius(%r, %r, %r, %r)" % self._tuple()

    def apply(self, z):
        zc = _as_cyc(z)
        n = lcm(self.n, zc.n)
        zc = zc if zc.n == n else cyc_embed(zc, n)
        a, b, c, e = (v if v.n == n else cyc_embed(v, n) for v in self._tuple())
        return (a * zc + b) / (c * zc + e)

    def to_matrix(self):
        return Mat([[self.a, self.b], [self.c, self.e]])

    @classmethod
    def from_matrix(cls, m):
        (a, b), (c, e) = m.rows
        return cls(a, b, c, e)

    def to_json(self):
        return {
            "a": cyc_to_json(self.a),
            "b": cyc_to_json(self.b),
            "c": cyc_to_json(self.c),
            "e": cyc_to_json(self.e),
        }

    @classmethod
    def from_json(cls, d):
        return cls(*(cyc_from_json(d[k]) for k in ("a", "b", "c", "e")))


def _trim(raws):
    out = list(raws)
    while len(out) > 1 and K.c_is_zero(out[-1]):
        out.pop()
    return out


def _exact_quotient(p, q, ctx):
    # p / q for a monic q that divides p; a nonzero remainder is a bug
    quot, rem = K.poly_divmod_monic(p, q, ctx.red, ctx.phi)
    if not all(K.c_is_zero(x) for x in rem):
        raise CheckFailed("a gcd factor left a nonzero remainder")
    return quot


def verify_functional_equation(f, gens):
    """Check f((az+b)/(cz+e)) = (a f + b)/(c f + e) on each generator.

    `f` is a pair (numerator, denominator) of ascending univariate
    coefficient lists; the common factor is cancelled first, the identity
    is cleared of denominators by homogenization, and the cross-multiplied
    polynomial identity is compared exactly.
    """
    num, den = f
    num = [_as_cyc(c) for c in num]
    den = [_as_cyc(c) for c in den]
    if not den or all(c.is_zero() for c in den):
        raise ZeroDenominator("denominator polynomial is zero")
    moebs = [m if isinstance(m, Moebius) else Moebius.from_matrix(m) for m in gens]
    n = 1
    for c in num + den:
        n = lcm(n, c.n)
    for m in moebs:
        n = lcm(n, m.n)
    ctx = get_context(n)

    def lift(cs):
        return _trim([(c if c.n == n else cyc_embed(c, n)).raw for c in cs])

    nr, dr = lift(num), lift(den)
    if len(nr) == 1 and K.c_is_zero(nr[0]):
        dr = [ctx.one]  # f = 0; normalize to 0/1
    else:
        g = _euclid_raws(list(nr), list(dr), ctx)
        if len(g) > 1:
            nr = _exact_quotient(nr, g, ctx)
            dr = _exact_quotient(dr, g, ctx)
    deg = max(len(nr), len(dr)) - 1
    nr = nr + [ctx.zero] * (deg + 1 - len(nr))
    dr = dr + [ctx.zero] * (deg + 1 - len(dr))
    # homogenize: coefficient of x^i y^(deg-i) sits at position deg-i
    zn = Form(2, deg, [CycNum._wrap(n, nr[deg - j]) for j in range(deg + 1)])
    zd = Form(2, deg, [CycNum._wrap(n, dr[deg - j]) for j in range(deg + 1)])
    failing = None
    ok = True
    for i, moe in enumerate(moebs):
        mat = moe.to_matrix()
        mat = mat if mat.n == n else mat.embed(n)
        # (x:y) -> (ax+by : cx+ey), then back to the z = x/y chart
        ln = [c.raw for c in reversed(substitute(mat, zn).coeffs)]
        ld = [c.raw for c in reversed(substitute(mat, zd).coeffs)]
        a, b, c, e = ((v if v.n == n else cyc_embed(v, n)).raw
                      for v in moe._tuple())
        rhs_num = _lin2(a, b, nr, dr, ctx)
        rhs_den = _lin2(c, e, nr, dr, ctx)
        lhs = K.poly_mul(ln, rhs_den, ctx.red, ctx.phi)
        rhs = K.poly_mul(ld, rhs_num, ctx.red, ctx.phi)
        if lhs != rhs:
            ok = False
            failing = i
            break
    return {
        "pass": ok,
        "degree": deg,
        "nontrivial": deg >= 2,
        "failing_generator": failing,
    }


def descent_rational(cert):
    """The certificate's induced self-map of the line, in the z = x1/x2 chart.

    Returns (numerator, denominator) as ascending CycNum coefficient lists
    of the reduced fraction (phi1/a)(z, 1) / (phi2/a)(z, 1).
    """
    phi1, phi2 = cert.phi1, cert.phi2
    if phi1.is_zero() or phi2.is_zero():
        raise ZeroForm("descent needs nonzero coordinate forms")
    a = form_gcd(phi1, phi2)
    ctx = get_context(phi1.n)
    va = _x2_valuation(a)
    ua = [a.coeffs[j].raw for j in range(a.degree, va - 1, -1)]
    out = []
    for p in (phi1, phi2):
        vp = _x2_valuation(p)
        up = [p.coeffs[j].raw for j in range(p.degree, vp - 1, -1)]
        q = _exact_quotient(up, ua, ctx)
        out.append([CycNum._wrap(phi1.n, x) for x in q])
    return out[0], out[1]


def _orbit_invariant(g, d):
    # (prod over g of x1 o g)^s: right translation permutes the factors,
    # so the product is exactly invariant
    base = Form(g.size, 0, [one(g.conductor)])
    for m in g.elements:
        base = base * Form(g.size, 1, list(m.rows[0]))
    f = base
    for _ in range(d // g.order - 1):
        f = f * base
    for gen in g.generators:
        if substitute(gen, f) != f:
            raise CheckFailed("the orbit product is not invariant")
    return f


def _diagonal_invariant(g, d):
    # all-diagonal groups are abelian: the average of a monomial's weight
    # character is |G| when trivial and 0 otherwise
    n = g.conductor
    ctx = get_context(n)
    pows = []
    for m in g.elements:
        rows = []
        for i in range(g.size):
            p = [ctx.one]
            di = m.rows[i][i].raw
            for _ in range(d):
                p.append(K.c_mul(p[-1], di, ctx.red, ctx.phi))
            rows.append(p)
        pows.append(rows)
    for e in monomial_exponents(g.size, d):
        tot = ctx.zero
        for rows in pows:
            term = ctx.one
            for i, k in enumerate(e):
                if k:
                    term = K.c_mul(term, rows[i][k], ctx.red, ctx.phi)
            tot = K.c_add(tot, term)
        if not K.c_is_zero(tot):
            return Form.monomial(g.size, e, n)
    return None


def _projector_invariant(g, d):
    n = g.conductor
    ctx = get_context(n)
    exps = monomial_exponents(g.size, d)
    dim = len(exps)
    cols = [[ctx.zero] * dim for _ in range(dim)]
    for m in g.elements:
        for j, e in enumerate(exps):
            img = substitute(m, Form.monomial(g.size, e, n))
            K.vec_axpy(cols[j], ctx.one, img.raws(), ctx.red, ctx.phi)
    # the fixed space is the column space of the summed substitution action
    rows = [list(col) for col in cols]
    pivots = K.rref(rows, ctx.red, ctx.phi, ctx.inv)
    if not pivots:
        return None
    return Form(g.size, d, [CycNum._wrap(n, r) for r in rows[0]])


def invariant_form(g, d, method="auto"):
    """A nonzero invariant form of degree d, or None when none exists.

    The answer is canonical per route: catalog groups take the first
    reduced basis vector of the trivial isotypic piece, diagonal groups the
    first invariant monomial, and the orbit-product route (used when |G|
    divides a large d) the normalized product of the x1-orbit.
    """
    if d < 0:
        raise ValueError("degree must be >= 0")
    if method not in ("auto", "reynolds", "orbit"):
        raise ValueError("method must be auto, reynolds, or orbit")
    if d == 0:
        return Form.monomial(g.size, (0,) * g.size, g.conductor)
    if method == "orbit" or (method == "auto" and d % g.order == 0 and d > 40):
        if d % g.order != 0:
            raise ValueError("orbit construction needs |G| dividing d")
        return _orbit_invariant(g, d)
    if g.size == 2 and (g.kind in _PRIMITIVE_A
                        or g.kind in ("binary-dihedral", "cyclic")):
        triv = LinearCharacter(g, tuple([one(g.conductor)] * g.order))
        _, bas = isotypic_dim_and_basis(g, triv, d)
        return bas[0] if bas else None
    if all(m.is_diagonal() for m in g.elements):
        return _diagonal_invariant(g, d)
    return _projector_invariant(g, d)


def linear_self_compression(g, f):
    """The self-map v -> f(v) v for an invariant form f.

    Returns the n coordinate forms of degree d+1 together with the
    verification record: generator equivariance, nontriviality for d >= 1,
    and the degree of the restriction to an explicit line through the
    origin off the zero set of f.
    """
    if f.nvars != g.size:
        raise ValueError("form must live on the group's space")
    d = f.degree
    n = lcm(g.conductor, f.n)
    fe = f if f.n == n else f.embed(n)
    gens = [m if m.n == n else m.embed(n) for m in g.generators]
    for m in gens:
        if substitute(m, fe) != fe:
            raise NotInvariant("the form is not invariant under the generators")
    nv = g.size
    xs = [Form.monomial(nv, tuple(1 if j == i else 0 for j in range(nv)), n)
          for i in range(nv)]
    maps = tuple(fe * x for x in xs)
    equivariant = True
    for m in gens:
        for i in range(nv):
            lhs = substitute(m, maps[i])
            rhs = Form.zero(nv, d + 1, n)
            for j in range(nv):
                rhs = rhs + m.rows[i][j] * maps[j]
            if lhs != rhs:
                equivariant = False
                break
        if not equivariant:
            break
    point = None
    for p in itertools.product(range(max(d, 1) + 1), repeat=nv):
        if not any(p):
            continue
        pc = [CycNum.from_rational(Fraction(x), n) for x in p]
        if not fe.evaluate(pc).is_zero():
            point = p
            break
    assert point is not None  # a nonzero form cannot vanish on the whole grid
    pc = [CycNum.from_rational(Fraction(x), n) for x in point]
    top = [mp.evaluate(pc) for mp in maps]
    line_degree = d + 1 if any(not t.is_zero() for t in top) else 0
    return {
        "maps": maps,
        "degree": d + 1,
        "equivariant": equivariant,
        "nontrivial": d >= 1,
        "line_point": list(point),
        "line_degree": line_degree,
    }
