"""Self-compression certificates for binary polyhedral groups.

Closed-form coefficient series decide which degrees admit nontrivial
equivariant pairs; a deterministic search over the equivariant basis
produces an explicit pair (phi1, phi2); and the certificate records three
independent checks: exact equivariance over the whole group, a nonzero
Jacobian, and descent nontriviality read off the gcd degree.
"""

import functools
import itertools
import operator
from math import gcd, lcm

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
from .scalars import CycNum, cyc_from_json, embed_raw, get_context, raw_of, raw_to_json
from .groups import (
    Mat,
    MatrixGroup,
    build_group,
    canonical_kind,
    chi_stabilizer_characters,
    coset_products,
    diagonal_coset_decomposition,
    mat_to_json,
    to_table,
)
from .forms import (
    Form,
    _euclid_raws,
    _int_raw,
    _trace_class_average,
    canonical_span,
    diagonal_weights,
    equivariant_basis,
    first_invariant,
    form_from_json,
    form_to_json,
    gcd_degree,
    in_span,
    isotypic_dimension,
    isotypic_dims_and_bases,
    multiplicity_chi,
    substitute,
    substitute_all,
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
        if any(c < 0 for c in self.coeffs):
            raise CheckFailed(f"{kind} series has a negative coefficient")

    def __getitem__(self, d):
        return self.coeffs[d]

    def to_json(self):
        return {
            "kind": self.kind,
            "group_kind": self.group_kind,
            "parameter": self.parameter,
            "coeffs": list(self.coeffs),
        }


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

    Checks, for 1 <= d <= upto, what `compression_dimensions` reads off
    the closed forms: the trace-formula multiplicity is the P_chi
    coefficient, and the isotypic dimensions one degree down, one per
    stabilizer character, are P_1 and P_theta (three equal ones for Q8).
    The compression count s_d is the multiplicity minus the trivial (and
    first theta, in the dihedral case) dimensions, and s_d <= multiplicity
    - max over the stabilizer characters.
    """
    if g.kind not in _PRIMITIVE_A and g.kind != "binary-dihedral":
        raise ValueError("series_consistency needs a noncyclic catalog group")
    if upto < 1:
        raise ValueError("upto must be >= 1")
    s = series(g.kind, g.ell, "S_G", upto).coeffs
    chars = chi_stabilizer_characters(g)
    for d in range(1, upto + 1):
        mult, dims = compression_dimensions(g.kind, g.ell, d)
        if multiplicity_chi(g, d) != mult:
            raise Mismatch(d, "multiplicity disagrees with closed-form P_chi")
        if [isotypic_dimension(g, gamma, d - 1) for gamma in chars] != dims:
            raise Mismatch(d, "isotypic dimensions disagree with P_1 and P_theta")
        if s[d] != mult - sum(dims[:2]):
            raise Mismatch(d, "s_d differs from the character-side count")
        if s[d] > mult - max(dims):
            raise Mismatch(d, "s_d exceeds the max-character bound")
    three_theta = g.kind == "binary-dihedral" and g.ell == 2
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


def compression_dimensions(kind, ell, d):
    """(mult, dims) for a degree d >= 1: mult the dimension of the
    equivariant maps A_1 -> A_d, and dims the dimension of A(gamma)_(d-1)
    for each linear character gamma with gamma*chi = chi, read off the
    closed-form P_chi, P_1 and P_theta series (`series_consistency` holds
    them against the group). Those characters are the trivial one for 2T,
    2O and 2I, and for BD(ell) the trivial one and one theta (three for
    ell = 2), each of dimension P_theta.

    A degree-d self-compression exists exactly when mult > max(dims); the
    proof is in `errors.InfeasibleDegree`. For BD(ell) this is every odd
    d >= 2 ell - 1: mult = P_1 + P_theta + s_d at d - 1, so the criterion is
    min(P_1, P_theta) + s_d > 0; at even d all three are 0, at odd
    d < 2 ell - 1 the exponent d - 1 is under 2 ell - 2, where P_1 lives on
    4i and P_theta on 2 + 4i alone; s_d = 1 at d = 2 ell - 1; and from d - 1 >=
    2 ell on both series are positive at every even exponent.

    A cyclic group C(ell) takes its certificates from its binary dihedral
    cover, and reads the cover's series. That refuses only the even d and the
    odd d < 2 ell - 1, where C(ell) has no self-compression either: with
    generator diag(z, 1/z), z of order 2 ell, a component x^a y^b of an
    equivariant map has a - b = 1 (first) or -1 (second) mod 2 ell, with
    |a - b| <= d; so the map is 0 at even d, and at odd d < 2 ell - 1 it is
    (c x^(k+1) y^k, c' x^k y^(k+1)), k = (d - 1)/2, of gcd degree d - 1.
    """
    kind = canonical_kind(kind)
    if kind == "cyclic":
        kind = "binary-dihedral"
    mult = series(kind, ell, "P_chi", d)[d]
    dims = [series(kind, ell, "P_1", d)[d - 1]]
    if kind == "binary-dihedral":
        dims += [series(kind, ell, "P_theta", d)[d - 1]] * (3 if ell == 2 else 1)
    return mult, dims


def compression_exists(kind, ell, d):
    """Whether a degree-d self-compression exists (`compression_dimensions`)."""
    mult, dims = compression_dimensions(kind, ell, d)
    return mult > max(dims)


class CompressionCertificate:
    """An explicit equivariant pair together with its verification record."""

    __slots__ = ("group", "d", "phi1", "phi2", "alpha", "gcd_degree",
                 "descent_degree", "checks")

    def __init__(self, group, d, phi1, phi2, alpha, gcd_degree, checks):
        self.group = group
        self.d = d
        self.phi1 = phi1
        self.phi2 = phi2
        self.alpha = tuple(alpha)
        self.gcd_degree = gcd_degree
        self.descent_degree = d - gcd_degree
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
        # the schema is closed: a key that nothing would check is refused
        _closed(d, CERTIFICATE_KEYS, "certificate")
        _closed(d["checks"], CHECK_CLAIMS, "checks")
        _closed(d["group"], GROUP_KEYS, "group")
        if type(d["alpha"]) is not list or any(type(a) is not int for a in d["alpha"]):
            raise ValueError("alpha must be a list of integers")
        for key in ("gcd_degree", "descent_degree"):
            if key in d and type(d[key]) is not int:
                raise ValueError("%s must be an integer" % key)
        if len(d["phi"]) != 2:
            raise ValueError("a certificate has exactly two coordinate forms")
        if type(d["d"]) is not int or d["d"] < 1:
            raise ValueError("certificate degree must be a positive integer")
        phi = [form_from_json(f) for f in d["phi"]]
        if any(f.degree != d["d"] for f in phi):
            raise ValueError("certificate degree is not the degree of its forms")
        group = MatrixGroup.from_json(d["group"])
        # one alpha coordinate per equivariant map of the group searched,
        # which for a cyclic group is its binary dihedral cover
        maps = _trace_class_average(_dihedral_cover(group) if group.kind == "cyclic"
                                    else group, d["d"], True)
        if len(d["alpha"]) != maps:
            raise ValueError("alpha has %d entries for %d equivariant maps"
                             % (len(d["alpha"]), maps))
        return cls(
            group,
            d["d"],
            phi[0],
            phi[1],
            d["alpha"],
            d["gcd_degree"],
            d["checks"],
        )


CHECK_CLAIMS = ("equivariant", "descent_nontrivial", "jacobian_nonzero")
CERTIFICATE_KEYS = ("group", "d", "phi", "alpha", "gcd_degree", "descent_degree", "checks")
GROUP_KEYS = ("kind", "ell", "conductor", "generators")


def _closed(obj, keys, where):
    if not isinstance(obj, dict):
        raise ValueError("%s is not a JSON object" % where)
    extra = sorted(set(obj) - set(keys))
    if extra:
        raise ValueError("unknown %s key %r" % (where, extra[0]))


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
            K.vec_axpy(acc, _int_raw(a, ctx), pair[coord].raw, ctx.red, ctx.phi)
    return Form._wrap(2, d, n, acc)


def _dihedral_cover(g):
    """The binary dihedral group of the cyclic group g's parameter, which
    contains g; built once and kept on g."""
    h = g._cache.get("dihedral_cover")
    if h is None:
        h = g._cache["dihedral_cover"] = build_group("binary-dihedral", g.ell)
    return h


def _independent(phi1, phi2):
    """Whether two forms of one degree and conductor are linearly
    independent: the rank of their two coefficient rows.

    For binary forms this is J(phi1, phi2) != 0. If J = 0 and phi2 != 0,
    the gradients are parallel, grad phi1 = r grad phi2, and Euler's
    identity d phi = x . grad phi gives r = phi1/phi2; so
    grad(phi1/phi2) = 0 and phi1/phi2 is a constant.
    """
    ctx = get_context(phi1.n)
    return len(K.rref([list(phi1.raw), list(phi2.raw)], ctx.red, ctx.phi, ctx.inv)) == 2


def construct_self_compression(g, d, alpha_norm_bound=ALPHA_NORM_BOUND):
    """Search for a degree-d certificate, deterministically.

    Cyclic groups take the certificate of the enclosing binary dihedral
    group of the same parameter: its pair restricts to a self-compression
    of the cyclic subgroup, and is re-verified against it here.
    """
    if d < 1:
        raise ValueError("degree must be >= 1")
    if g.kind not in _PRIMITIVE_A and g.kind not in ("binary-dihedral", "cyclic"):
        raise ValueError("self-compressions are constructed for catalog groups")
    mult, dims = compression_dimensions(g.kind, g.ell, d)
    if mult <= max(dims):
        name = g.kind if g.ell is None else "%s:ell=%d" % (g.kind, g.ell)
        raise InfeasibleDegree("no degree-%d self-compression for %s: mult %d <= max of "
                               "dim A(gamma)_%d = %s" % (d, name, mult, d - 1, dims))
    if g.kind == "cyclic":
        bd = construct_self_compression(_dihedral_cover(g), d, alpha_norm_bound)
        eq = verify_equivariance(g, bd.phi1, bd.phi2, "linear")
        checks = {**bd.checks, "equivariant": eq["pass"]}
        return CompressionCertificate(g, d, bd.phi1, bd.phi2, bd.alpha, bd.gcd_degree,
                                      checks)
    basis = equivariant_basis(g, d)
    m = len(basis)
    n = g.conductor
    ctx = get_context(n)
    for alpha in _alpha_shells(m, alpha_norm_bound):
        phi1 = _combine(basis, alpha, 0, ctx, n, d)
        phi2 = _combine(basis, alpha, 1, ctx, n, d)
        if not _independent(phi1, phi2):
            continue
        k = gcd_degree(phi1, phi2)
        if k > d - 2:
            continue
        eq = verify_equivariance(g, phi1, phi2, "linear")
        checks = {
            "equivariant": eq["pass"],
            "jacobian_nonzero": True,  # by _independent
            "descent_nontrivial": True,
        }
        return CompressionCertificate(g, d, phi1, phi2, alpha, k, checks)
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


def _subst_raws(m, forms):
    return [list(img.raw) for img in substitute_all(m, forms)]


def verify_equivariance(target, phi1, phi2, mode="linear"):
    """Check phi o g against the g-combination of (phi1, phi2).

    `target` is either a closed MatrixGroup, which a report covers in full,
    or a plain sequence of matrices, e.g. generators whose arbitrary scalar
    lifts do not close into a finite matrix group; projective equivariance
    on generators suffices for the group they generate.

    On a group in linear mode, each generator is substituted once, and when
    all of them hold the report is a pass with `checked` = |G|. That is a
    proof: the g with phi o g = g phi are closed under products, as
    phi o (g h) = (phi o g) o h = g (phi o h) = g h phi, so they form a
    subgroup, and a subgroup that holds the generators is the whole group.
    A pair that fails at a generator, and every pair in projective mode, is
    walked element by element, a left coset r C of the diagonal subgroup C
    at a time: phi o (r c) = (phi o r) o c, and the diagonal c only rescales
    the coefficients of phi o r. The walk stops at the first failing
    element in the order of coset_products, which `failing` names.
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
    f1r, f2r = f1.raw, f2.raw
    report = {"mode": mode, "pass": True, "checked": 0, "failing": None,
              "scalars": None}

    def embed(m):
        return m if m.n == n else m.embed(n)

    def rhs(me):
        # m phi = (m00 phi1 + m01 phi2, m10 phi1 + m11 phi2), raw
        a, b, c, e = me.raw
        return [_lin2(a, b, f1r, f2r, ctx), _lin2(c, e, f1r, f2r, ctx)]

    def run(mat_low, lhs1, lhs2, where):
        ok, s = _match(lhs1, lhs2, *rhs(embed(mat_low)), mode, ctx)
        report["checked"] += 1
        if not ok:
            report["pass"] = False
            report["failing"] = {"index": where, "matrix": mat_to_json(mat_low)}
        return ok, s

    if group is not None:
        if mode == "linear" and all(_subst_raws(me, [f1, f2]) == rhs(me)
                                    for me in map(embed, group.generators)):
            report["checked"] = group.order
            return report
        _, rep_idx = diagonal_coset_decomposition(group)
        weights = diagonal_weights(group, d, n)
        for ri, products in zip(rep_idx, coset_products(group)):
            img1, img2 = _subst_raws(embed(group.elements[ri]), [f1, f2])
            for gi, w in zip(products, weights):
                lhs1 = [K.c_mul(x, w[j], ctx.red, ctx.phi)
                        if not K.c_is_zero(x) else x for j, x in enumerate(img1)]
                lhs2 = [K.c_mul(x, w[j], ctx.red, ctx.phi)
                        if not K.c_is_zero(x) else x for j, x in enumerate(img2)]
                ok, _ = run(group.elements[gi], lhs1, lhs2, gi)
                if not ok:
                    return report
        return report
    scalars = []
    for i, m0 in enumerate(mats):
        lhs1, lhs2 = _subst_raws(embed(m0), [f1, f2])
        ok, s = run(m0, lhs1, lhs2, i)
        scalars.append(raw_to_json(n, s) if s is not None else None)
        if not ok:
            break
    if mode == "projective":
        report["scalars"] = scalars
    return report


def verify_descent(cert):
    """gcd-degree nontriviality, cross-checked against isotypic containment.

    The descent is trivial exactly when the gcd has degree d-1, and
    equivalently when the pair lies inside span(A(gamma)_{d-1} * A_1) for
    some stabilizer character gamma; both tests run and must agree. The
    trivial character's piece A_{d-1} is read from the group's store of
    invariant rows when it already holds degree d-1, as it does after
    construct_self_compression at degree d; otherwise it is built as an
    isotypic piece, and no generator is looked for.
    """
    phi1, phi2, d = cert.phi1, cert.phi2, cert.d
    if phi1.is_zero() or phi2.is_zero():
        raise ZeroForm("descent needs nonzero coordinate forms")
    e = gcd_degree(phi1, phi2)
    nontrivial = e <= d - 2
    g = cert.group
    # cyclic certificates are judged inside the enclosing binary dihedral
    # group, whose character chi is irreducible
    h = _dihedral_cover(g) if g.kind == "cyclic" else g
    n = lcm(phi1.n, h.conductor)
    p1 = phi1 if phi1.n == n else phi1.embed(n)
    p2 = phi2 if phi2.n == n else phi2.embed(n)
    x1 = Form.monomial(2, (1, 0), n)
    x2 = Form.monomial(2, (0, 1), n)
    containment = {}
    contained = False
    chars = chi_stabilizer_characters(h)
    for k, (_, bas) in enumerate(isotypic_dims_and_bases(h, chars, d - 1)):
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
        "gcd_degree": e,
        "descent_degree": d - e,
        "nontrivial": nontrivial,
        "containment": containment,
        "criteria_agree": (not nontrivial) == contained,
    }


def recomputed_claims(cert, equivariance, descent):
    """The value each claim of a certificate must have, recomputed: the gcd
    and descent degrees, and each entry of `checks`, from the reports of
    verify_equivariance and verify_descent, and the nonzero Jacobian from
    the rank of the pair (`_independent`)."""
    return {
        "gcd_degree": descent["gcd_degree"],
        "descent_degree": descent["descent_degree"],
        "checks.equivariant": equivariance["pass"],
        "checks.descent_nontrivial": descent["nontrivial"],
        "checks.jacobian_nonzero": _independent(cert.phi1, cert.phi2),
    }


class Moebius:
    """z -> (a z + b)/(c z + e) with ae - bc != 0."""

    __slots__ = ("a", "b", "c", "e", "n")

    def __init__(self, a, b, c, e):
        vals = [raw_of(v) for v in (a, b, c, e)]
        n = lcm(1, *(k for k, _ in vals))
        self.a, self.b, self.c, self.e = (CycNum._wrap(n, embed_raw(r, k, n))
                                          for k, r in vals)
        self.n = n
        if (self.a * self.e - self.b * self.c).is_zero():
            raise ZeroDenominator("Moebius map needs ae - bc != 0")

    def to_matrix(self):
        return Mat([[self.a, self.b], [self.c, self.e]])

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
    num = [raw_of(c) for c in num]
    den = [raw_of(c) for c in den]
    if not num:
        raise ValueError("numerator polynomial has no coefficients")
    if not den or all(K.c_is_zero(c) for _, c in den):
        raise ZeroDenominator("denominator polynomial is zero")
    mats = [m.to_matrix() if isinstance(m, Moebius) else m for m in gens]
    if any(K.c_is_zero(m.det()) for m in mats):
        raise ZeroDenominator("Moebius map needs ae - bc != 0")
    n = lcm(1, *(k for k, _ in num + den), *(m.n for m in mats))
    ctx = get_context(n)

    def lift(cs):
        return _trim([embed_raw(c, k, n) for k, c in cs])

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
    zn = Form._wrap(2, deg, n, nr[::-1])
    zd = Form._wrap(2, deg, n, dr[::-1])
    failing = None
    ok = True
    for i, mat in enumerate(mats):
        mat = mat if mat.n == n else mat.embed(n)
        # (x:y) -> (ax+by : cx+ey), then back to the z = x/y chart
        ln, ld = (img[::-1] for img in _subst_raws(mat, [zn, zd]))
        a, b, c, e = mat.raw
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


def _power(x, k, mul):
    # x^k for k >= 1 under the product `mul`, by binary powering
    if k == 1:
        return x
    h = _power(mul(x, x), k // 2, mul)
    return mul(h, x) if k % 2 else h


def _orbit_invariant(g, d):
    # the coset factorisation in invariant_form's docstring; right translation
    # permutes the factors x1 o h, so the product is exactly invariant
    n, size = g.conductor, g.size
    ctx = get_context(n)
    rows = [m.raw[:size] for m in g.elements]
    sub = [c for c, row in enumerate(rows) if all(map(K.c_is_zero, row[1:]))]
    mul = to_table(g).mul
    reps = sorted({min(mul[c][r] for c in sub) for r in range(g.order)})
    k = d // g.order

    def c_mul(a, b):
        return K.c_mul(a, b, ctx.red, ctx.phi)

    kappa = functools.reduce(c_mul, (rows[c][0] for c in sub))
    base = functools.reduce(operator.mul, (Form._wrap(size, 1, n, rows[r]) for r in reps))
    f = _power(base, len(sub) * k, operator.mul).scale(_power(kappa, len(reps) * k, c_mul))
    for gen in g.generators:
        if substitute(gen, f) != f:
            raise CheckFailed("the orbit product is not invariant")
    return f


def invariant_form(g, d, method="auto"):
    """A nonzero invariant form of degree d, or None when none exists.

    The answer is canonical per route: the first reduced basis vector of
    the invariants (`first_invariant`), or, where |G| divides a large d, the
    orbit product P^(d/|G|), unnormalized, for P the product of x1 o h over
    h in G. The c with first row (c00, 0, ..., 0) form a subgroup S and
    x1 o (c r) = c00 (x1 o r), so P = kappa^[G:S] R^|S|, with kappa the
    product of the c00 over S and R that of x1 o r over the right cosets S r.
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
    return first_invariant(g, d)


def linear_self_compression(g, f):
    """The self-map v -> f(v) v for an invariant form f.

    Returns the n coordinate forms of degree d+1 together with the
    verification record: equivariance, nontriviality for d >= 1, and the
    degree of the restriction to an explicit line through the origin off
    the zero set of f. Equivariance follows from the invariance that is
    checked on the generators (NotInvariant otherwise): f(gv) gv = g (f(v) v)
    when f o g = f, and the g with f o g = f form a subgroup.
    """
    if f.nvars != g.size:
        raise ValueError("form must live on the group's space")
    d = f.degree
    n = lcm(g.conductor, f.n)
    fe = f if f.n == n else f.embed(n)
    gens = [m if m.n == n else m.embed(n) for m in g.generators]
    nv = g.size
    xs = [Form.monomial(nv, tuple(1 if j == i else 0 for j in range(nv)), n)
          for i in range(nv)]
    maps = tuple(fe * x for x in xs)
    if any(substitute(m, fe) != fe for m in gens):
        raise NotInvariant("the form is not invariant under the generators")
    point = None
    for p in itertools.product(range(max(d, 1) + 1), repeat=nv):
        # p = g * (p/g) with g > 1: p/g came first, and f(p) = g^d f(p/g) = 0
        if gcd(*p) != 1:
            continue
        if not K.c_is_zero(fe.evaluate(p)):
            point = p
            break
    if point is None:  # a nonzero form cannot vanish on the whole grid
        raise CheckFailed("the form vanishes on the whole grid")
    line_degree = d + 1 if any(not K.c_is_zero(mp.evaluate(point)) for mp in maps) else 0
    return {
        "maps": maps,
        "degree": d + 1,
        "equivariant": True,
        "nontrivial": d >= 1,
        "line_point": list(point),
        "line_degree": line_degree,
    }
