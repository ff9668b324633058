"""Graded polynomial algebra k[x1..xn] as a module over a finite matrix group.

Degree pieces are dense coefficient vectors in degree-lex monomial order.
The module action on functions is g.f := f o g^(-1); all equivariance and
isotypic computations in here are stated under that one convention.

Group averages are factored through the diagonal subgroup C: writing each
element as r*c with r a left coset representative, the inner sum over C acts
by row/column scalings, so only [G:C] dense substitution matrices are ever
formed. For the order-120 group that is a 10x saving and is what keeps
degree-40 work affordable.
"""

from fractions import Fraction
from functools import lru_cache

from . import _kernel as K
from .errors import BothZero, CheckFailed, ConductorMismatch, ReducibleChi
from .scalars import CycNum, cyc_embed, cyc_from_json, cyc_to_json, get_context, one, zero
from .groups import Mat, diagonal_coset_decomposition


@lru_cache(maxsize=None)
def monomial_exponents(nvars, degree):
    """All exponent tuples of total degree `degree`, descending lex."""
    if nvars == 1:
        return ((degree,),)
    out = []
    for e in range(degree, -1, -1):
        for rest in monomial_exponents(nvars - 1, degree - e):
            out.append((e,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def _monomial_index(nvars, degree):
    return {e: i for i, e in enumerate(monomial_exponents(nvars, degree))}


class Form:
    """Homogeneous polynomial, dense degree-lex coefficients."""

    __slots__ = ("nvars", "degree", "n", "coeffs")

    def __init__(self, nvars, degree, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != len(monomial_exponents(nvars, degree)):
            raise ValueError("coefficient vector has the wrong length")
        cond = coeffs[0].n
        for c in coeffs:
            if c.n != cond:
                raise ConductorMismatch("form coefficients must share a conductor")
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "n", cond)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, *a):
        raise AttributeError("Form is immutable")

    @classmethod
    def zero(cls, nvars, degree, conductor):
        z = zero(conductor)
        return cls(nvars, degree, [z] * len(monomial_exponents(nvars, degree)))

    @classmethod
    def monomial(cls, nvars, exps, conductor, coeff=1):
        d = sum(exps)
        z = zero(conductor)
        coeffs = [z] * len(monomial_exponents(nvars, d))
        c = coeff if isinstance(coeff, CycNum) else CycNum.from_rational(
            Fraction(coeff), conductor
        )
        coeffs[_monomial_index(nvars, d)[tuple(exps)]] = c
        return cls(nvars, d, coeffs)

    def coeff(self, exps):
        return self.coeffs[_monomial_index(self.nvars, self.degree)[tuple(exps)]]

    def is_zero(self):
        return all(c.is_zero() for c in self.coeffs)

    def raws(self):
        return [c.raw for c in self.coeffs]

    def _check(self, other):
        if self.nvars != other.nvars or self.degree != other.degree:
            raise ValueError("forms must share nvars and degree")
        if self.n != other.n:
            raise ConductorMismatch("forms must share a conductor")

    def __add__(self, other):
        self._check(other)
        return Form(
            self.nvars, self.degree, [a + b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __sub__(self, other):
        self._check(other)
        return Form(
            self.nvars, self.degree, [a - b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __neg__(self):
        return Form(self.nvars, self.degree, [-c for c in self.coeffs])

    def scale(self, s):
        return Form(self.nvars, self.degree, [c * s for c in self.coeffs])

    def __rmul__(self, s):
        return self.scale(s)

    def __mul__(self, other):
        if not isinstance(other, Form):
            return self.scale(other)
        if self.nvars != other.nvars:
            raise ValueError("forms must share nvars")
        if self.n != other.n:
            raise ConductorMismatch("forms must share a conductor")
        if self.nvars == 2:
            ctx = get_context(self.n)
            out = K.poly_mul(self.raws(), other.raws(), ctx.red, ctx.phi)
            return Form(
                2,
                self.degree + other.degree,
                [CycNum._wrap(self.n, r) for r in out],
            )
        d = self.degree + other.degree
        acc = {}
        mons_a = monomial_exponents(self.nvars, self.degree)
        mons_b = monomial_exponents(other.nvars, other.degree)
        for ea, ca in zip(mons_a, self.coeffs):
            if ca.is_zero():
                continue
            for eb, cb in zip(mons_b, other.coeffs):
                if cb.is_zero():
                    continue
                key = tuple(x + y for x, y in zip(ea, eb))
                acc[key] = acc.get(key, zero(self.n)) + ca * cb
        z = zero(self.n)
        idx = _monomial_index(self.nvars, d)
        coeffs = [z] * len(idx)
        for key, val in acc.items():
            coeffs[idx[key]] = val
        return Form(self.nvars, d, coeffs)

    def partial(self, i):
        """d/dx_i; degree drops by one (zero form of degree 0 for constants)."""
        if self.degree == 0:
            return Form.zero(self.nvars, 0, self.n)
        d = self.degree
        z = zero(self.n)
        idx = _monomial_index(self.nvars, d - 1)
        coeffs = [z] * len(idx)
        for exps, c in zip(monomial_exponents(self.nvars, d), self.coeffs):
            if exps[i] == 0 or c.is_zero():
                continue
            tgt = list(exps)
            tgt[i] -= 1
            coeffs[idx[tuple(tgt)]] = coeffs[idx[tuple(tgt)]] + exps[i] * c
        return Form(self.nvars, d - 1, coeffs)

    def evaluate(self, point):
        if len(point) != self.nvars:
            raise ValueError("point dimension mismatch")
        pows = []
        for p in point:
            row = [one(self.n)]
            for _ in range(self.degree):
                row.append(row[-1] * p)
            pows.append(row)
        total = zero(self.n)
        for exps, c in zip(monomial_exponents(self.nvars, self.degree), self.coeffs):
            if c.is_zero():
                continue
            term = c
            for i, e in enumerate(exps):
                if e:
                    term = term * pows[i][e]
            total = total + term
        return total

    def embed(self, m):
        return Form(self.nvars, self.degree, [cyc_embed(c, m) for c in self.coeffs])

    def __eq__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        return (
            self.nvars == other.nvars
            and self.degree == other.degree
            and self.n == other.n
            and all(a.raw == b.raw for a, b in zip(self.coeffs, other.coeffs))
        )

    def __hash__(self):
        return hash((self.nvars, self.degree, self.n, tuple(c.raw for c in self.coeffs)))

    def __str__(self):
        terms = []
        for exps, c in zip(monomial_exponents(self.nvars, self.degree), self.coeffs):
            if c.is_zero():
                continue
            mono = "*".join(
                f"x{i + 1}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(exps)
                if e > 0
            )
            if c.is_rational():
                q = c.to_fraction()
                if mono and q == 1:
                    terms.append(mono)
                elif mono and q == -1:
                    terms.append(f"-{mono}")
                else:
                    terms.append(f"{q}*{mono}" if mono else str(q))
            else:
                cs = ",".join(str(x) for x in c.coeffs)
                terms.append(f"({cs})*{mono}" if mono else f"({cs})")
        if not terms:
            return "0"
        out = terms[0]
        for t in terms[1:]:
            out += " - " + t[1:] if t.startswith("-") else " + " + t
        return out

    def __repr__(self):
        return f"Form({self})"


def form_to_json(f):
    return {
        "nvars": f.nvars,
        "degree": f.degree,
        "coeffs": [cyc_to_json(c) for c in f.coeffs],
    }


def form_from_json(d):
    return Form(d["nvars"], d["degree"], [cyc_from_json(c) for c in d["coeffs"]])


def _subst_cols(m, d):
    """Columns of the substitution matrix f -> f o m on degree-d forms."""
    ctx = get_context(m.n)
    (a, b), (c, e) = m.rows
    return K.subst_cols(a.raw, b.raw, c.raw, e.raw, d, ctx.red, ctx.phi)


def substitute(m, f):
    """f(M.(x1,...,xn)): plug the rows of M into f as linear forms."""
    if m.n != f.n:
        raise ConductorMismatch("matrix and form conductors differ")
    if m.size != f.nvars:
        raise ValueError("matrix size must match the number of variables")
    if f.degree == 0:
        return f
    ctx = get_context(f.n)
    if f.nvars == 2:
        cols = _subst_cols(m, f.degree)
        acc = [ctx.zero] * (f.degree + 1)
        for j, c in enumerate(f.coeffs):
            K.vec_axpy(acc, c.raw, cols[j], ctx.red, ctx.phi)
        return Form(2, f.degree, [CycNum._wrap(f.n, r) for r in acc])
    exps = monomial_exponents(f.nvars, f.degree)
    if m.is_diagonal():
        dpow = []
        for i in range(m.size):
            row = [ctx.one]
            di = m.rows[i][i].raw
            for _ in range(f.degree):
                row.append(K.c_mul(row[-1], di, ctx.red, ctx.phi))
            dpow.append(row)
        out = []
        for e, c in zip(exps, f.coeffs):
            if c.is_zero():
                out.append(c)
                continue
            s = c.raw
            for i, k in enumerate(e):
                if k:
                    s = K.c_mul(s, dpow[i][k], ctx.red, ctx.phi)
            out.append(CycNum._wrap(f.n, s))
        return Form(f.nvars, f.degree, out)
    lin = [Form(f.nvars, 1, list(m.rows[i])) for i in range(m.size)]
    pw = []
    for i in range(f.nvars):
        row = [None, lin[i]]
        for _ in range(f.degree - 1):
            row.append(row[-1] * lin[i])
        pw.append(row)
    total = Form.zero(f.nvars, f.degree, f.n)
    for e, c in zip(exps, f.coeffs):
        if c.is_zero():
            continue
        img = None
        for i, k in enumerate(e):
            if k:
                img = pw[i][k] if img is None else img * pw[i][k]
        total = total + c * img
    return total


def action_matrix(g, d):
    """Matrix of the action f -> f o g^(-1) on the degree-d monomial basis."""
    cols = _subst_cols(g.inverse(), d)
    return Mat([[CycNum._wrap(g.n, cols[j][i]) for j in range(d + 1)] for i in range(d + 1)])


def _hd_rows(g, d):
    """h_k(tr) per element for k <= d: traces of substitution on each A_k.

    h_0 = 1, h_1 = tr, h_k = tr*h_(k-1) - h_(k-2); valid because every
    element is diagonalizable with unit determinant, so the trace of the
    induced degree-k substitution is the complete homogeneous sum of its
    two eigenvalue powers.
    """
    rows = g._cache.get("hd_rows")
    if rows is None:
        ctx = get_context(g.conductor)
        tr = [t.raw for t in g.traces()]
        rows = [[ctx.one] * g.order, tr]
        g._cache["hd_rows"] = rows
    ctx = get_context(g.conductor)
    tr = rows[1]
    while len(rows) <= d:
        prev, prev2 = rows[-1], rows[-2]
        rows.append(
            [
                K.c_sub(K.c_mul(tr[i], prev[i], ctx.red, ctx.phi), prev2[i])
                for i in range(g.order)
            ]
        )
    return rows


def _as_int(x):
    q = x.to_fraction()
    if q.denominator != 1:
        raise ValueError(f"expected an integer, got {q}")
    return int(q)


def _chi_is_irreducible(g):
    flag = g._cache.get("chi_irred")
    if flag is None:
        s = sum((t * t for t in g.traces()), zero(g.conductor))
        flag = s.is_rational() and s.to_fraction() == g.order
        g._cache["chi_irred"] = flag
    return flag


def _character_average(g, values, d):
    """(1/|G|) sum over g of values[g] * h_d(g): a multiplicity, so a
    nonnegative integer."""
    ctx = get_context(g.conductor)
    acc = ctx.zero
    for v, h in zip(values, _hd_rows(g, d)[d]):
        acc = K.c_add(acc, K.c_mul(v, h, ctx.red, ctx.phi))
    m = _as_int(CycNum._wrap(g.conductor, acc) / g.order)
    if m < 0:
        raise CheckFailed(f"character average {m} at degree {d} is negative")
    return m


def multiplicity_chi(g, d):
    """Multiplicity of the 2-dimensional trace module inside degree d."""
    if not _chi_is_irreducible(g):
        raise ReducibleChi(
            "trace character is reducible (cyclic group); use the enclosing "
            "binary dihedral group instead"
        )
    return _character_average(g, [t.raw for t in g.traces()], d)


def isotypic_dimension(g, gamma, d):
    """dim of the gamma-isotypic piece in degree d, by character averaging."""
    values = [gamma.value_at_inverse(i).raw for i in range(g.order)]
    return _character_average(g, values, d)


def diagonal_weights(g, d, n):
    """Per diagonal element diag(lam, mu) of g, in the order of
    diagonal_coset_decomposition, the row lam^(d-p) mu^p (p = 0..d) of raw
    scalars lifted to conductor n: its action on the degree-d monomials."""
    ctx = get_context(n)
    out = []
    for ci in diagonal_coset_decomposition(g)[0]:
        c = g.elements[ci]
        c = c if c.n == n else c.embed(n)
        lp, mp = [ctx.one], [ctx.one]
        for _ in range(d):
            lp.append(K.c_mul(lp[-1], c.rows[0][0].raw, ctx.red, ctx.phi))
            mp.append(K.c_mul(mp[-1], c.rows[1][1].raw, ctx.red, ctx.phi))
        out.append([K.c_mul(lp[d - p], mp[p], ctx.red, ctx.phi) for p in range(d + 1)])
    return out


def isotypic_projector(g, gamma, d):
    """The averaging projector onto the gamma-isotypic piece of degree d."""
    ctx = get_context(g.conductor)
    diag, reps = diagonal_coset_decomposition(g)
    size = d + 1
    # diagonal factor: E[p] = sum over diagonal c of gamma(c) * (c acting on
    # the p-th monomial), using S(r c) = S(c) S(r)
    e_diag = [ctx.zero] * size
    for ci, w in zip(diag, diagonal_weights(g, d, g.conductor)):
        gval = gamma.values[ci].raw
        for p in range(size):
            e_diag[p] = K.c_add(e_diag[p], K.c_mul(gval, w[p], ctx.red, ctx.phi))
    # dense factor: M = sum over reps of gamma(r) * S(r)
    rows = [[ctx.zero] * size for _ in range(size)]
    for ri in reps:
        cols = _subst_cols(g.elements[ri], d)
        gval = gamma.values[ri].raw
        for j in range(size):
            colj = cols[j]
            for i in range(size):
                if not K.c_is_zero(colj[i]):
                    rows[i][j] = K.c_add(
                        rows[i][j], K.c_mul(gval, colj[i], ctx.red, ctx.phi)
                    )
    inv_order = (1, *([0] * (ctx.phi - 1)), g.order)
    out = []
    for i in range(size):
        si = K.c_mul(e_diag[i], inv_order, ctx.red, ctx.phi)
        out.append([CycNum._wrap(g.conductor, x)
                    for x in K.row_scale(rows[i], si, ctx.red, ctx.phi)])
    return Mat(out)


def isotypic_dim_and_basis(g, gamma, d):
    """(dimension, canonical form basis) of the gamma-isotypic piece."""
    p = isotypic_projector(g, gamma, d)
    ctx = get_context(g.conductor)
    size = d + 1
    # image = column space; rref over the transposed rows
    rows_t = [[p.rows[i][j].raw for i in range(size)] for j in range(size)]
    pivots = K.rref(rows_t, ctx.red, ctx.phi, ctx.inv)
    rank = len(pivots)
    basis = [
        Form(2, d, [CycNum._wrap(g.conductor, x) for x in rows_t[r]])
        for r in range(rank)
    ]
    dim = isotypic_dimension(g, gamma, d)
    if dim != rank:
        raise CheckFailed(f"projector rank {rank} != character dimension {dim}")
    return dim, basis


class LinMapBasis:
    """Basis of the equivariant linear maps A_1 -> A_d, as (f1, f2) pairs."""

    def __init__(self, d, maps):
        self.d = d
        self.maps = tuple(tuple(p) for p in maps)

    def __len__(self):
        return len(self.maps)

    def __iter__(self):
        return iter(self.maps)

    def __getitem__(self, i):
        return self.maps[i]

    def to_json(self):
        return {
            "d": self.d,
            "maps": [[form_to_json(a), form_to_json(b)] for a, b in self.maps],
        }

    @classmethod
    def from_json(cls, d):
        return cls(
            d["d"],
            [(form_from_json(a), form_from_json(b)) for a, b in d["maps"]],
        )


def _reynolds_images(g, d):
    """Reynolds average applied to each elementary map; vectorized [f1|f2]."""
    ctx = get_context(g.conductor)
    diag, reps = diagonal_coset_decomposition(g)
    size = d + 1
    # weights W[p][q] = sum over diagonal c of (c on monomial p) * (c^-1)[q][q]
    w = [[ctx.zero] * 2 for _ in range(size)]
    for ci, a in zip(diag, diagonal_weights(g, d, g.conductor)):
        cinv = g.elements[g.inverse_index(ci)]
        for q in range(2):
            b = cinv.rows[q][q].raw
            for p in range(size):
                w[p][q] = K.c_add(w[p][q], K.c_mul(a[p], b, ctx.red, ctx.phi))
    # per representative: columns of S_d(r) and the matrix of r^-1
    rep_cols = []
    rep_inv = []
    for ri in reps:
        rep_cols.append(_subst_cols(g.elements[ri], d))
        rinv = g.elements[g.inverse_index(ri)]
        rep_inv.append([[x.raw for x in row] for row in rinv.rows])
    inv_order = (1, *([0] * (ctx.phi - 1)), g.order)
    images = []
    for j in range(2):
        for k in range(size):
            vec = [ctx.zero] * (2 * size)
            for cols, rinv in zip(rep_cols, rep_inv):
                colk = cols[k]
                for q in range(2):
                    rq = rinv[q][j]
                    if K.c_is_zero(rq):
                        continue
                    base = q * size
                    for p in range(size):
                        if not K.c_is_zero(colk[p]):
                            vec[base + p] = K.c_add(
                                vec[base + p],
                                K.c_mul(colk[p], rq, ctx.red, ctx.phi),
                            )
            # apply the diagonal weights and the missing 1/|G|
            out = [ctx.zero] * (2 * size)
            for q in range(2):
                for p in range(size):
                    x = vec[q * size + p]
                    if not K.c_is_zero(x):
                        x = K.c_mul(x, w[p][q], ctx.red, ctx.phi)
                        x = K.c_mul(x, inv_order, ctx.red, ctx.phi)
                        out[q * size + p] = x
            images.append(out)
    return images


def equivariant_basis(g, d):
    """Canonical basis of the equivariant maps A_1 -> A_d (Reynolds image)."""
    if d < 1:
        raise ValueError("degree must be at least 1")
    ctx = get_context(g.conductor)
    size = d + 1
    rows = _reynolds_images(g, d)
    pivots = K.rref(rows, ctx.red, ctx.phi, ctx.inv)
    maps = []
    for r in range(len(pivots)):
        f1 = Form(2, d, [CycNum._wrap(g.conductor, x) for x in rows[r][:size]])
        f2 = Form(2, d, [CycNum._wrap(g.conductor, x) for x in rows[r][size:]])
        maps.append((f1, f2))
    return LinMapBasis(d, maps)


def reynolds_operator_matrix(g, d):
    """The averaging operator on maps A_1 -> A_d as a 2(d+1) square matrix."""
    size = d + 1
    images = _reynolds_images(g, d)
    return Mat(
        [
            [CycNum._wrap(g.conductor, images[col][row]) for col in range(2 * size)]
            for row in range(2 * size)
        ]
    )


def _x2_valuation(f):
    for j, c in enumerate(f.coeffs):
        if not c.is_zero():
            return j
    return None


def _monicize(p, ctx):
    if p[-1] == ctx.one:
        return p
    return K.row_scale(p, ctx.inv(p[-1]), ctx.red, ctx.phi)


def _euclid_raws(a, b, ctx):
    """Monic univariate gcd over the field; a, b ascending raw coefficients."""
    while len(b) > 1 or not K.c_is_zero(b[0]):
        b = _monicize(b, ctx)
        _, r = K.poly_divmod_monic(a, b, ctx.red, ctx.phi)
        a, b = b, r
    return _monicize(a, ctx)


def form_gcd(f, g):
    """Monic gcd of two bivariate forms.

    Common x2 powers are split off first (they vanish under dehomogenizing
    at x2 = 1), then the univariate Euclidean algorithm runs over the
    cyclotomic field and the result is rehomogenized.
    """
    if f.nvars != 2 or g.nvars != 2:
        raise ValueError("form_gcd works on bivariate forms")
    if f.n != g.n:
        raise ConductorMismatch("forms must share a conductor")
    vf, vg = _x2_valuation(f), _x2_valuation(g)
    if vf is None and vg is None:
        raise BothZero("gcd of two zero forms")
    ctx = get_context(f.n)
    if vf is None or vg is None:
        h = g if vf is None else f
        v = vg if vf is None else vf
        uni = [h.coeffs[j].raw for j in range(h.degree, v - 1, -1)]
        uni = _monicize(uni, ctx)
        return _rehomogenize(uni, v, f.n)
    v = min(vf, vg)
    # dehomogenized polynomials, ascending in x1
    a = [f.coeffs[j].raw for j in range(f.degree, vf - 1, -1)]
    b = [g.coeffs[j].raw for j in range(g.degree, vg - 1, -1)]
    a = _euclid_raws(a, b, ctx)
    return _rehomogenize(a, v, f.n)


def _rehomogenize(uni, x2_power, n):
    deg = len(uni) - 1 + x2_power
    z = zero(n)
    coeffs = [z] * (deg + 1)
    for i, raw in enumerate(uni):
        coeffs[deg - i] = CycNum._wrap(n, raw)
    return Form(2, deg, coeffs)


def jacobian_determinant(f1, f2):
    """det of the Jacobian of (f1, f2) as a form of degree d1 + d2 - 2."""
    return f1.partial(0) * f2.partial(1) - f1.partial(1) * f2.partial(0)


def canonical_span(forms):
    """rref row basis of the span; returns (rows of raws, pivots, meta)."""
    fs = list(forms)
    assert fs, "need at least one form"
    n, d, nv = fs[0].n, fs[0].degree, fs[0].nvars
    ctx = get_context(n)
    rows = [f.raws() for f in fs]
    pivots = K.rref(rows, ctx.red, ctx.phi, ctx.inv)
    return rows[: len(pivots)], pivots, (nv, d, n)


def in_span(f, span):
    """Membership of f in a canonical_span result, by row reduction."""
    rows, pivots, (nv, d, n) = span
    if f.nvars != nv or f.degree != d or f.n != n:
        return False
    ctx = get_context(n)
    vec = list(f.raws())
    for row, pc in zip(rows, pivots):
        c = vec[pc]
        if not K.c_is_zero(c):
            K.vec_axpy(vec, K.c_neg(c), row, ctx.red, ctx.phi)
    return all(K.c_is_zero(x) for x in vec)
