"""Graded polynomial algebra k[x1..xn] as a module over a finite matrix group.

Degree pieces are dense coefficient vectors in degree-lex monomial order,
of the kernel's raw scalars: a `Form` holds its conductor and one raw tuple
per coefficient, group elements and characters are raw as well, and every
routine here reads and builds raw tuples, with no CycNum in between. The
module action on functions is g.f := f o g^(-1); all equivariance and
isotypic computations in here are stated under that one convention.

Forms are substituted by one routine, `substitute_all`, which hands binary
forms to `_kernel.subst_forms`; no substitution matrix is ever formed. An
isotypic piece, in any number of variables, is the image of the averaging
projector, which is the joint eigenspace of the generators: the diagonal
subgroup says which monomials survive, and each non-diagonal generator
adds its equations from one substitution of those monomials, so the
order-120 group takes one substitution where its 12 cosets took 12.
Dimensions are Molien's averages, taken in integers from element orders,
in SL2. A degree of invariants is built by one route: the products of the
generators found so far, the trivial isotypic piece where they fall short.
The degree of a gcd of two binary forms, all that the descent test reads,
comes from one prime p = 1 mod n (`gcd_degree`); the Euclidean algorithm
over Q(zeta_n) runs only where the forms share a factor mod p.
"""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from operator import add, mul

from . import _kernel as K
from .errors import BothZero, CheckFailed, ConductorMismatch, ReducibleChi
from .scalars import (
    CycNum,
    as_raw,
    embed_raw,
    get_context,
    raw_from_json,
    raw_to_json,
    shared_conductor,
)
from .groups import CATALOG_ORDERS, diagonal_coset_decomposition, to_table


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
    """Homogeneous polynomial over Q(zeta_n): the raw kernel scalars of its
    coefficients, dense in degree-lex order, one tuple per coefficient in
    `raw`.

    The constructor takes CycNum coefficients and checks them; results
    computed here are built on raw coefficients by `_wrap`. `coeffs` views
    the coefficients as CycNum, for literals and tests; no computation
    reads it.
    """

    __slots__ = ("nvars", "degree", "n", "raw")

    def __init__(self, nvars, degree, coeffs):
        self._set(*_checked(nvars, degree, [(c.n, c.raw) for c in coeffs]))

    @classmethod
    def _wrap(cls, nvars, degree, n, raw):
        """The form over conductor n with the raw coefficients `raw`, trusted
        as is: for results computed here."""
        obj = object.__new__(cls)
        obj._set(nvars, degree, n, tuple(raw))
        return obj

    def _set(self, nvars, degree, n, raw):
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "raw", raw)

    def __setattr__(self, *a):
        raise AttributeError("Form is immutable")

    @property
    def coeffs(self):
        return tuple(CycNum._wrap(self.n, c) for c in self.raw)

    @classmethod
    def zero(cls, nvars, degree, conductor):
        size = len(monomial_exponents(nvars, degree))
        return cls._wrap(nvars, degree, conductor, (get_context(conductor).zero,) * size)

    @classmethod
    def monomial(cls, nvars, exps, conductor, coeff=1):
        """coeff * x^exps, coeff an int, a Fraction or a CycNum over `conductor`."""
        d = sum(exps)
        raw = [get_context(conductor).zero] * len(monomial_exponents(nvars, d))
        raw[_monomial_index(nvars, d)[tuple(exps)]] = as_raw(coeff, conductor)
        return cls._wrap(nvars, d, conductor, raw)

    def is_zero(self):
        return all(map(K.c_is_zero, self.raw))

    def _check(self, other):
        if self.nvars != other.nvars or self.degree != other.degree:
            raise ValueError("forms must share nvars and degree")
        if self.n != other.n:
            raise ConductorMismatch("forms must share a conductor")

    def __add__(self, other):
        self._check(other)
        return Form._wrap(self.nvars, self.degree, self.n, map(K.c_add, self.raw, other.raw))

    def __sub__(self, other):
        self._check(other)
        return Form._wrap(self.nvars, self.degree, self.n, map(K.c_sub, self.raw, other.raw))

    def scale(self, s):
        """s times the form, for a raw scalar s over its conductor."""
        ctx = get_context(self.n)
        return Form._wrap(self.nvars, self.degree, self.n,
                          [K.c_mul(c, s, ctx.red, ctx.phi) for c in self.raw])

    def __rmul__(self, s):
        return self.scale(as_raw(s, self.n))

    def __mul__(self, other):
        if not isinstance(other, Form):
            return self.scale(as_raw(other, self.n))
        if self.nvars != other.nvars:
            raise ValueError("forms must share nvars")
        if self.n != other.n:
            raise ConductorMismatch("forms must share a conductor")
        ctx = get_context(self.n)
        d = self.degree + other.degree
        if self.nvars == 2:
            return Form._wrap(2, d, self.n, K.poly_mul(self.raw, other.raw, ctx.red, ctx.phi))
        idx = _monomial_index(self.nvars, d)
        raw = [ctx.zero] * len(idx)
        for key, val in _sparse_mul(self._terms(), other._terms(), ctx).items():
            raw[idx[key]] = val
        return Form._wrap(self.nvars, d, self.n, raw)

    def _terms(self):
        return {e: c for e, c in zip(monomial_exponents(self.nvars, self.degree), self.raw)
                if not K.c_is_zero(c)}

    def partial(self, i):
        """d/dx_i; degree drops by one (zero form of degree 0 for constants)."""
        if self.degree == 0:
            return Form.zero(self.nvars, 0, self.n)
        d = self.degree
        ctx = get_context(self.n)
        idx = _monomial_index(self.nvars, d - 1)
        # each monomial of degree d-1 comes from exactly one of degree d
        raw = [ctx.zero] * len(idx)
        for exps, c in zip(monomial_exponents(self.nvars, d), self.raw):
            k = exps[i]
            if k:
                tgt = idx[exps[:i] + (k - 1,) + exps[i + 1:]]
                raw[tgt] = K.c_mul(c, _int_raw(k, ctx), ctx.red, ctx.phi)
        return Form._wrap(self.nvars, d - 1, self.n, raw)

    def evaluate(self, point):
        """The value at `point`, as a raw scalar; the coordinates are ints,
        Fractions or CycNum over the form's conductor."""
        if len(point) != self.nvars:
            raise ValueError("point dimension mismatch")
        ctx = get_context(self.n)
        red, phi = ctx.red, ctx.phi
        # one power table per variable
        pows = [K.powers(as_raw(p, self.n), self.degree, red, phi) for p in point]
        total = ctx.zero
        for exps, term in zip(monomial_exponents(self.nvars, self.degree), self.raw):
            if K.c_is_zero(term):
                continue
            for i, e in enumerate(exps):
                if e:
                    term = K.c_mul(term, pows[i][e], red, phi)
            total = K.c_add(total, term)
        return total

    def embed(self, m):
        return Form._wrap(self.nvars, self.degree, m,
                          [embed_raw(c, self.n, m) for c in self.raw])

    def __eq__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        return (self.nvars == other.nvars and self.degree == other.degree
                and self.n == other.n and self.raw == other.raw)


def _checked(nvars, degree, pairs):
    """(nvars, degree, n, raw) of a form given by (conductor, raw scalar)
    pairs, checked for their number and one shared conductor n."""
    if len(pairs) != len(monomial_exponents(nvars, degree)):
        raise ValueError("coefficient vector has the wrong length")
    return (nvars, degree, *shared_conductor(pairs, "form coefficients"))


def form_to_json(f):
    return {
        "nvars": f.nvars,
        "degree": f.degree,
        "coeffs": [raw_to_json(f.n, c) for c in f.raw],
    }


def form_from_json(d):
    if not (type(d["nvars"]) is int and d["nvars"] >= 1
            and type(d["degree"]) is int and d["degree"] >= 0):
        raise ValueError("a form needs an integer nvars >= 1 and degree >= 0")
    return Form._wrap(*_checked(d["nvars"], d["degree"],
                                [raw_from_json(c) for c in d["coeffs"]]))


def substitute_all(m, forms):
    """f(M.(x1,...,xn)) for each form f in `forms`, each checked against m
    for its conductor and its number of variables.

    Binary forms go through one `K.subst_forms` call, which splits m into a
    lower shear, a diagonal and an upper shear and shares the powers of
    their entries across the forms. In any other number of variables the
    powers of the rows of m, kept sparse, are built once and shared: a
    monomial goes to the product of the powers its exponents name."""
    for f in forms:
        if m.n != f.n:
            raise ConductorMismatch("matrix and form conductors differ")
        if m.size != f.nvars:
            raise ValueError("matrix size must match the number of variables")
    if not forms:
        return []
    ctx = get_context(m.n)
    if m.size == 2:
        images = K.subst_forms([f.raw for f in forms], *m.raw, ctx.red, ctx.phi, ctx.inv)
    else:
        images = _subst_rows(m, forms, ctx)
    return [Form._wrap(f.nvars, f.degree, f.n, img) for f, img in zip(forms, images)]


def _subst_rows(m, forms, ctx):
    size, top = m.size, max(f.degree for f in forms)
    const = (0,) * size
    pows = []
    for i in range(size):
        row = Form._wrap(size, 1, m.n, m.raw[i * size:(i + 1) * size])._terms()
        pows.append([{const: ctx.one}])
        while len(pows[-1]) <= top:
            pows[-1].append(_sparse_mul(pows[-1][-1], row, ctx))
    for f in forms:
        idx = _monomial_index(size, f.degree)
        acc = [ctx.zero] * len(idx)
        for e, c in f._terms().items():
            img = {const: c}
            for pw, k in zip(pows, e):
                img = _sparse_mul(img, pw[k], ctx) if k else img
            for key, x in img.items():
                acc[idx[key]] = K.c_add(acc[idx[key]], x)
        yield acc


def _sparse_mul(a, b, ctx):
    """The product of two polynomials held as {exponents: raw coefficient}."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(map(add, ea, eb))
            x = K.c_mul(ca, cb, ctx.red, ctx.phi)
            out[key] = K.c_add(out[key], x) if key in out else x
    return out


def substitute(m, f):
    """f(M.(x1,...,xn)): plug the rows of M into f as linear forms."""
    return substitute_all(m, [f])[0]


def _hd_classes(g, d):
    """(hs, counts, at): hs[k][t] is h_k at the t-th distinct trace of g for
    k <= d, counts[t] the number of elements with that trace and at[i] the
    distinct trace of element i.

    h_0 = 1, h_1 = tr, h_k = tr*h_(k-1) - h_(k-2); valid because every
    element is diagonalizable with unit determinant, so the trace of the
    induced degree-k substitution is the complete homogeneous sum of its
    two eigenvalue powers. It depends on the element through its trace
    alone, so the recurrence runs once per distinct trace. A group with a
    generator that is not 2x2 of det 1 is rejected (ValueError).
    """
    ctx = get_context(g.conductor)
    cached = g._cache.get("hd_classes")
    if cached is None:
        if not _in_sl2(g):
            raise ValueError("the h_d recurrence needs 2x2 generators of det 1")
        traces = g.traces()
        counts = Counter(traces)
        index = {t: k for k, t in enumerate(counts)}
        cached = ([[ctx.one] * len(counts), list(counts)], list(counts.values()),
                  [index[t] for t in traces])
        g._cache["hd_classes"] = cached
    hs, counts, at = cached
    tr = hs[1]
    while len(hs) <= d:
        prev, prev2 = hs[-1], hs[-2]
        hs.append([K.c_sub(K.c_mul(t, p1, ctx.red, ctx.phi), p2)
                   for t, p1, p2 in zip(tr, prev, prev2)])
    return hs, counts, at


def _in_sl2(g):
    """Whether g is a group of 2x2 matrices of det 1, where counts hold."""
    one = get_context(g.conductor).one
    return g.size == 2 and all(m.det() == one for m in g.generators)


def _as_int(x):
    """The integer that the raw scalar x is; ValueError when it is none."""
    if any(x[1:-1]):
        raise ValueError(f"{x} is not rational")
    if x[-1] != 1:
        raise ValueError(f"expected an integer, got {Fraction(x[0], x[-1])}")
    return x[0]


def _int_raw(k, ctx):
    return (k,) + (0,) * (ctx.phi - 1) + (1,)


def _chi_is_irreducible(g):
    """<chi, chi> = (1/|G|) sum over g of tr(g)^2 = 1 + dim A_2^G, as
    tr^2 = h_2 + 1 and tr(g^-1) = tr(g) in SL2: chi is irreducible exactly
    when there is no invariant of degree 2."""
    return _trace_class_average(g, 2, False) == 0


def _multiplicity(g, total, d):
    """total / |G| for a sum of character values over g: a multiplicity, so
    a nonnegative integer. |G| scales the raw denominator, with no inverse."""
    m = _as_int(K.c_norm(total[:-1], total[-1] * g.order))
    if m < 0:
        raise CheckFailed(f"character average {m} at degree {d} is negative")
    return m


def _character_average(g, values, d):
    """(1/|G|) sum over g of values[g] * h_d(g)."""
    ctx = get_context(g.conductor)
    hs, _, at = _hd_classes(g, d)
    acc = ctx.zero
    for v, t in zip(values, at):
        acc = K.c_add(acc, K.c_mul(v, hs[d][t], ctx.red, ctx.phi))
    return _multiplicity(g, acc, d)


def _trace_orders(g):
    """Per distinct trace of g, in the order of `_hd_classes`, the order of
    the elements with that trace, read from the h_k recurrence and kept on
    the group.

    An element of order o > 2 has eigenvalues zeta, zeta^-1 with zeta of
    order o, and h_k = (zeta^(k+1) - zeta^-(k+1)) / (zeta - zeta^-1), so
    h_k is first 0 at the least k with zeta^(k+1) = e = +-1, and then
    h_(k+1) = e: o is k + 1 when e = 1 and 2(k + 1) when e = -1. Traces 2
    and -2 are those of 1 and -1, the only diagonalizable elements with a
    double eigenvalue.
    """
    orders = g._cache.get("trace_orders")
    if orders is None:
        ctx = get_context(g.conductor)
        hs = _hd_classes(g, 1)[0]
        two, one, minus_one = _int_raw(2, ctx), ctx.one, K.c_neg(ctx.one)
        orders = []
        for t, tr in enumerate(hs[1]):
            if tr in (two, K.c_neg(two)):
                orders.append(1 if tr == two else 2)
                continue
            for k in range(1, g.order + 1):
                _hd_classes(g, k + 1)
                if K.c_is_zero(hs[k][t]):
                    break
            else:
                raise CheckFailed(f"trace class {t} has no order up to {g.order}")
            if hs[k + 1][t] not in (one, minus_one):
                raise CheckFailed(f"h_{k + 1} of trace class {t} is not +-1")
            orders.append(k + 1 if hs[k + 1][t] == one else 2 * (k + 1))
        g._cache["trace_orders"] = orders
    return orders


def _mobius(n):
    """The Moebius function of n >= 1, by trial division."""
    out, p = 1, 2
    while n > 1:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return out


def _invariant_count(g, d):
    """dim A_d^G = (1/|G|) sum over orders o of (N_o / phi(o)) R_o(d), in
    integers, for N_o elements of order o.

    g -> g^k permutes the elements of order o for each k prime to o, and
    takes an eigenvalue zeta to zeta^k, so their 2 N_o eigenvalues are
    whole Galois orbits: each primitive o-th root occurs m_o = 2 N_o / phi(o)
    times. Summed over them, h_d = sum over j of zeta^(d-2j) gives
    R_o(d) = sum over j of c_o(d - 2j), with c_o(m) = sum over e dividing
    gcd(o, m) of mu(o/e) e Ramanujan's sum, so
    R_o(d) = R_o(d - 2) + 2 c_o(d) from R_o(0) = phi(o) and R_o(1) = 2 c_o(1).
    Each R_o is kept on the group and grown as needed; a count that is not a
    nonnegative integer raises CheckFailed.
    """
    if d < 0:
        return 0
    sums = g._cache.get("order_sums")
    if sums is None:
        counts = Counter()
        for o, c in zip(_trace_orders(g), _hd_classes(g, 1)[1]):
            counts[o] += c
        sums = []
        for o, n_o in sorted(counts.items()):
            c_o = [sum(_mobius(o // e) * e for e in range(1, o + 1)
                       if o % e == 0 and m % e == 0) for m in range(o)]
            if 2 * n_o % c_o[0]:
                raise CheckFailed(f"{n_o} elements of order {o} fill no whole Galois orbit")
            sums.append((2 * n_o // c_o[0], c_o, [c_o[0], 2 * c_o[1 % o]]))
        g._cache["order_sums"] = sums
    total = 0
    for m_o, c_o, r_o in sums:
        while len(r_o) <= d:
            r_o.append(r_o[-2] + 2 * c_o[len(r_o) % len(c_o)])
        total += m_o * r_o[d]
    count, rest = divmod(total, 2 * g.order)
    if rest or count < 0:
        raise CheckFailed(f"invariant count {total}/{2 * g.order} at degree {d} "
                          "is not a nonnegative integer")
    return count


def _trace_class_average(g, d, times_trace):
    """(1/|G|) sum over g of h_d(g), each term times tr(g) when
    `times_trace`: the dimension of the degree-d invariants
    (`_invariant_count`), or of the equivariant maps A_1 -> A_d, which is
    dim A_(d+1)^G + dim A_(d-1)^G since tr h_d = h_(d+1) + h_(d-1)
    (Clebsch-Gordan). A group outside SL2 raises ValueError."""
    if times_trace:
        return _invariant_count(g, d + 1) + _invariant_count(g, d - 1)
    return _invariant_count(g, d)


def multiplicity_chi(g, d):
    """Multiplicity of the 2-dimensional trace module inside degree d."""
    if not _chi_is_irreducible(g):
        raise ReducibleChi(
            "trace character is reducible (cyclic group); use the enclosing "
            "binary dihedral group instead"
        )
    return _trace_class_average(g, d, True)


def isotypic_dimension(g, gamma, d):
    """dim of the gamma-isotypic piece in degree d, by character averaging."""
    values = [gamma[i] for i in to_table(g).inv]
    return _character_average(g, values, d)


def diagonal_exponents(g, n):
    """Per diagonal element diag(lam_1, ..., lam_size) of g, in the order of
    diagonal_coset_decomposition, the pairs (s_i, k_i) with
    lam_i = s_i zeta_n^k_i, s_i = +-1: an element of finite order has roots
    of unity on its diagonal, and `roots_of_unity` gives each root one pair."""
    roots = get_context(n).roots_of_unity()
    out = []
    for ci in diagonal_coset_decomposition(g)[0]:
        c = g.elements[ci]
        c = c if c.n == n else c.embed(n)
        out.append(tuple(roots[x] for x in c.raw[::c.size + 1]))
    return out


def diagonal_weights(g, d, n):
    """For 2x2 matrices, per diagonal element diag(lam, mu) of g, in the
    order of diagonal_coset_decomposition, the row lam^(d-p) mu^p (p = 0..d) of raw
    scalars lifted to conductor n: its action on the degree-d monomials.
    Each weight is a lookup from `diagonal_exponents`, with no product."""
    ctx = get_context(n)
    out = []
    for (sl, kl), (sm, km) in diagonal_exponents(g, n):
        row = []
        for p in range(d + 1):
            w = ctx.power_vector((kl * (d - p) + km * p) % n) + (1,)
            row.append(w if sl ** (d - p) * sm ** p == 1 else K.c_neg(w))
        out.append(row)
    return out


def isotypic_dims_and_bases(g, gammas, d):
    """(dimension, canonical form basis) of the gamma-isotypic piece of
    degree d for each character gamma in `gammas`, for a group of 2x2
    matrices of det 1.

    The piece of the trivial character is the space of invariants. When the
    group's store of invariant rows (`invariant_basis`) already holds
    degree d, it is read from there, as the RREF of a space is unique, and
    no generator is looked for. Its rank, held by `invariant_basis` against
    the trace-class average, is held here against the character average as
    well."""
    dims = [isotypic_dimension(g, gamma, d) for gamma in gammas]
    stored = g._cache.get("invariant_rows", {}).get(d)
    one = get_context(g.conductor).one
    trivial = [stored is not None and all(v == one for v in gamma) for gamma in gammas]
    for dim, t in zip(dims, trivial):
        if t and len(stored) != dim:
            raise CheckFailed(f"stored invariant rank {len(stored)} != character dimension {dim}")
    rest = iter(_isotypic_rows(g, [gm for gm, t in zip(gammas, trivial) if not t],
                               [dim for dim, t in zip(dims, trivial) if not t], d))
    return [(dim, [Form._wrap(2, d, g.conductor, row) for row in (stored if t else next(rest))])
            for dim, t in zip(dims, trivial)]


def _isotypic_rows(g, gammas, dims, d):
    """Per character gamma in `gammas`, the RREF rows of raw coefficients of
    the gamma-isotypic piece of degree d in g.size variables; a piece of
    dimension 0 in `dims` is not built, and the rank of one must equal its
    dimension, unless that is None (no count known).

    The piece is the image of the averaging projector
    P = (1/|G|) sum over g of gamma(g) S(g), S(g) the substitution f -> f o g,
    and that image is the joint eigenspace {f : f o h = gamma(h)^-1 f for
    every h}: S(h) P = gamma(h)^-1 P, and P fixes each such f. Since
    (f o h) o k = f o (hk), the generators suffice. A diagonal element
    scales each monomial, so on the diagonal subgroup the condition keeps
    the monomials of `_survivors`, and holds for every diagonal generator on
    their span. There the piece is the nullspace of S(h) - gamma(h)^-1 over
    the non-diagonal generators h, each of which substitutes the monomials
    that survive for any of the characters in one `substitute_all` call
    (Derksen and Kemper, Computational Invariant Theory, 3.1).
    """
    ctx = get_context(g.conductor)
    out = [[] for _ in gammas]
    live = [k for k, dim in enumerate(dims) if dim != 0]
    if not live:
        return out
    inv = to_table(g).inv
    exps = monomial_exponents(g.size, d)
    survivors = {k: list(_survivors(g, gammas[k], d)) for k in live}
    monomials = sorted(set().union(*survivors.values()))
    at = {p: i for i, p in enumerate(monomials)}
    units = [Form.monomial(g.size, exps[p], g.conductor) for p in monomials]
    # (index, images of the surviving monomials) per non-diagonal generator;
    # with no surviving monomial every rank is 0
    steps = [(g._right[j][0], [f.raw for f in substitute_all(m, units)])
             for j, m in enumerate(g.generators if monomials else ())
             if not m.is_diagonal()]
    for k in live:
        # the unknowns a_p of f = sum of a_p times monomial p from the last
        # surviving p down, and per generator h and monomial q the equation
        # for the coefficient of q in f o h - gamma(h)^-1 f; rows of 0 left out
        cols = survivors[k][::-1]
        where = {p: j for j, p in enumerate(cols)}
        eqs = []
        for hi, images in steps:
            shift = K.c_neg(gammas[k][inv[hi]])
            for q, row in enumerate(map(list, zip(*(images[at[p]] for p in cols)))):
                if q in where:
                    row[where[q]] = K.c_add(row[where[q]], shift)
                if not all(map(K.c_is_zero, row)):
                    eqs.append(row)
        pivots = K.rref(eqs, ctx.red, ctx.phi, ctx.inv)
        # with the pivots taken from the last p down, each pivot a_p is
        # solved for in free a_p' with p' < p only: the basis vector of a
        # free p is 1 at p, 0 at every other free p' and 0 at every pivot
        # before p, so in increasing p these vectors are the RREF of the piece
        rows = []
        for j in reversed(range(len(cols))):
            if j in pivots:
                continue
            row = [ctx.zero] * len(exps)
            row[cols[j]] = ctx.one
            for eq, pc in zip(eqs, pivots):
                if not K.c_is_zero(eq[j]):
                    row[cols[pc]] = K.c_neg(eq[j])
            rows.append(row)
        if dims[k] is not None and len(rows) != dims[k]:
            raise CheckFailed(f"isotypic rank {len(rows)} != character dimension {dims[k]}")
        out[k] = rows
    return out


def _survivors(g, gamma, d):
    """The indices in `monomial_exponents(g.size, d)` of the monomials that
    every diagonal element c of g scales by gamma(c)^-1, in increasing
    order, found lazily. As zeta_2n^2 = zeta_n and zeta_2n^n = -1, the root
    s zeta_n^k of `diagonal_exponents` is zeta_2n^(2k + n[s = -1]), so each
    c asks one integer congruence modulo 2n of the exponents."""
    n = g.conductor
    roots = get_context(n).roots_of_unity()
    inv = to_table(g).inv

    def exponent(s, k):
        return 2 * k + (n if s < 0 else 0)

    tests = [([exponent(*x) for x in pairs], exponent(*roots[gamma[inv[ci]]]))
             for ci, pairs in zip(diagonal_coset_decomposition(g)[0],
                                  diagonal_exponents(g, n))]
    for i, e in enumerate(monomial_exponents(g.size, d)):
        if all(sum(map(mul, e, es)) % (2 * n) == t for es, t in tests):
            yield i


def first_invariant(g, d):
    """The first form of the reduced basis of the invariants of degree d, or
    None, for a finite matrix group of any size. A group in SL2 reads its
    store (`_invariant_rows`), with its count; any other group its trivial
    isotypic piece, with none. With no non-diagonal generator that piece is
    spanned by the monomials that survive, so the first of them is the
    answer, and no later monomial is looked at."""
    triv = (get_context(g.conductor).one,) * g.order
    if _in_sl2(g):
        rows = _invariant_rows(g, d)
    elif all(m.is_diagonal() for m in g.generators):
        p = next(_survivors(g, triv, d), None)
        exps = monomial_exponents(g.size, d)
        return None if p is None else Form.monomial(g.size, exps[p], g.conductor)
    else:
        (rows,) = _isotypic_rows(g, [triv], [None], d)
    return Form._wrap(g.size, d, g.conductor, rows[0]) if rows else None


def invariant_basis(g, e):
    """Canonical (RREF) basis of the invariant forms of degree e, for a group
    of 2x2 matrices of det 1.

    A cyclic or custom group reads the trivial isotypic piece
    (`_isotypic_rows`). A noncyclic catalog group builds a degree from the
    generators found so far (`_degree_rows`), walking the degrees below e
    in order only until it knows its three: Klein's p, q, s, with
    A^G = C[p, q] + s C[p, q] (Klein 1884; Sturmfels, Algorithms in
    Invariant Theory, 2.3). The rows are proved at each degree by a rank
    equal to the exact dimension, Molien's count from the element orders
    (`_invariant_count`); every candidate is formed first, so a rank past
    the count raises CheckFailed.
    """
    return [Form._wrap(2, e, g.conductor, row) for row in _invariant_rows(g, e)]


def _invariant_rows(g, e):
    """invariant_basis(g, e) as rows of raw coefficients, kept by degree in
    g._cache["invariant_rows"]. A noncyclic catalog group keeps its
    generators in g._cache["invariant_generators"], as (degree, powers)
    with powers[i] the raw coefficients of the i-th power."""
    ctx = get_context(g.conductor)
    rows = g._cache.get("invariant_rows")
    if rows is None:
        rows = g._cache["invariant_rows"] = {0: [[ctx.one]]}
    if e in rows:
        return rows[e]
    if g.kind in ("binary-dihedral", *CATALOG_ORDERS):
        gens = g._cache.setdefault("invariant_generators", [])
        # until the three generators are known the store holds the degrees
        # 0 .. len(rows) - 1, and the next one is walked
        while len(gens) < 3 and len(rows) < e:
            k = len(rows)
            rows[k] = _degree_rows(g, k, gens)
        rows[e] = _degree_rows(g, e, gens)
    else:
        dim = _trace_class_average(g, e, False)
        (rows[e],) = _isotypic_rows(g, [(ctx.one,) * g.order], [dim], e)
    return rows[e]


def _degree_rows(g, e, gens):
    """The RREF rows of the invariants of degree e from the generators
    found so far, `gens`; the forms outside the candidate span join `gens`,
    up to three.

    The candidates are the products p^i q^j s^k, k <= 1, of the generators
    and, while fewer than three are known, the Hessians of the generators of
    degree (e+4)/2 and the Jacobians J(f, h) of generator pairs with
    deg f + deg h - 2 = e. Each is invariant: a product of invariants is,
    and with det 1, Hess(f o g) = Hess(f) o g and
    J(f o g, h o g) = J(f, h) o g. Where they fall short of the count, the
    trivial isotypic piece fills the gap. Every candidate is formed before
    the rank is compared with the count, also where the count is 0.
    """
    dim = _trace_class_average(g, e, False)
    n = g.conductor
    ctx = get_context(n)
    red, phi = ctx.red, ctx.phi
    span = _products(gens, e, ctx)
    del span[len(K.rref(span, red, phi, ctx.inv)):]
    new = []
    if len(gens) < 3:
        fs = [(k, Form._wrap(2, k, n, pows[1])) for k, pows in gens]
        for i, (k, f) in enumerate(fs):
            if 2 * k - 4 == e:
                # the Hessian is the Jacobian of the two partials
                new.append(jacobian_determinant(f.partial(0), f.partial(1)).raw)
            new += [jacobian_determinant(f, h).raw for l, h in fs[i + 1:] if k + l - 2 == e]
        # what the products miss is new: those rows become generators
        new = [row for row in new if _extend(span, row, ctx)]
    if len(span) < dim:
        (basis,) = _isotypic_rows(g, [(ctx.one,) * g.order], [dim], e)
        new += [row for row in basis if _extend(span, row, ctx)]
    if len(span) != dim:
        raise CheckFailed(f"product rank {len(span)} > invariant dimension {dim} at degree {e}")
    gens += [(e, [[ctx.one], row]) for row in new[:3 - len(gens)]]
    return span


def _products(gens, e, ctx):
    """Every product of degree e of the generators (degree, powers) in
    `gens`, the exponent of a third one at most 1: p^i q^j s^k, k <= 1. The
    powers are grown as needed; rref reduces its rows in place, so a power
    enters as a copy."""
    if not gens:
        return [[ctx.one]] if e == 0 else []
    *rest, (k, pows) = gens

    def power(i):
        while len(pows) <= i:
            pows.append(K.poly_mul(pows[-1], pows[1], ctx.red, ctx.phi))
        return pows[i]

    if not rest:
        return [] if e % k else [list(power(e // k))]
    top = e // k if len(gens) < 3 else min(e // k, 1)
    return [K.poly_mul(f, power(i), ctx.red, ctx.phi) if i else f
            for i in range(top + 1) for f in _products(rest, e - i * k, ctx)]


def _extend(span, row, ctx):
    """Add `row` to the RREF rows `span`, kept in RREF, when it lies outside
    their span; returns whether it did."""
    trial = span + [list(row)]
    if len(K.rref(trial, ctx.red, ctx.phi, ctx.inv)) == len(span):
        return False
    span[:] = trial
    return True


def equivariant_basis(g, d):
    """Canonical basis of the equivariant maps A_1 -> A_d, as a tuple of
    (f1, f2) pairs, by Clebsch-Gordan.

    For G in SL2, A_d (x) A_1 = A_(d+1) + A_(d-1), and A_1 is self-dual, so
    the maps are J(h) = (dh/dx2, -dh/dx1) for h invariant of degree d+1 and
    (x1 f, x2 f) for f invariant of degree d-1. Each is equivariant because
    g has det 1; a rank equal to the exact dimension, the trace-character
    average, shows that they span every equivariant map, and the RREF of a
    space is unique.
    """
    if d < 1:
        raise ValueError("degree must be at least 1")
    n = g.conductor
    ctx = get_context(n)
    red, phi = ctx.red, ctx.phi
    size = d + 1
    zeros = [ctx.zero]
    rows = []
    for h in _invariant_rows(g, d + 1):
        # dh/dx2 takes x1^(d+1-j) x2^j to j x1^(d+1-j) x2^(j-1), and dh/dx1
        # to (d+1-j) x1^(d-j) x2^j
        rows.append([K.c_mul(h[j], _int_raw(j, ctx), red, phi) for j in range(1, d + 2)]
                    + [K.c_mul(h[j], _int_raw(j - d - 1, ctx), red, phi) for j in range(d + 1)])
    for f in _invariant_rows(g, d - 1):
        rows.append(f + zeros + zeros + f)
    pivots = K.rref(rows, red, phi, ctx.inv)
    dim = _trace_class_average(g, d, True)
    if len(pivots) != dim:
        raise CheckFailed(f"equivariant rank {len(pivots)} != character dimension {dim}")
    return tuple((Form._wrap(2, d, n, row[:size]), Form._wrap(2, d, n, row[size:]))
                 for row in rows[:dim])


def _x2_valuation(f):
    for j, c in enumerate(f.raw):
        if not K.c_is_zero(c):
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


def _binary_pair(f, g):
    if f.nvars != 2 or g.nvars != 2:
        raise ValueError("a gcd is taken of bivariate forms")
    if f.n != g.n:
        raise ConductorMismatch("forms must share a conductor")


def form_gcd(f, g):
    """Monic gcd of two bivariate forms.

    Common x2 powers are split off first (they vanish under dehomogenizing
    at x2 = 1), then the univariate Euclidean algorithm runs over the
    cyclotomic field and the result is rehomogenized.
    """
    _binary_pair(f, g)
    vf, vg = _x2_valuation(f), _x2_valuation(g)
    if vf is None and vg is None:
        raise BothZero("gcd of two zero forms")
    ctx = get_context(f.n)
    if vf is None or vg is None:
        h = g if vf is None else f
        v = vg if vf is None else vf
        uni = h.raw[v:][::-1]
        uni = _monicize(uni, ctx)
        return _rehomogenize(uni, v, f.n)
    v = min(vf, vg)
    # dehomogenized polynomials, ascending in x1
    a = f.raw[vf:][::-1]
    b = g.raw[vg:][::-1]
    a = _euclid_raws(a, b, ctx)
    return _rehomogenize(a, v, f.n)


def gcd_degree(f, g):
    """deg gcd(f, g) of two bivariate forms over Q(zeta_n), read at one
    prime; the exact `form_gcd` runs only where the forms share a factor
    mod p.

    Why degree 0 mod p proves f and g coprime:
    - For nonzero binary forms f, g over a field with c = gcd(f, g), the map
      (u, v) -> uf + vg on forms of degrees (deg g - 1, deg f - 1) has the
      kernel (h g/c, -h f/c), h any form of degree deg c - 1: its dimension
      is deg c.
    - For omega of order n in F_p, zeta -> omega is a ring map
      Z[zeta_n] -> F_p, because Phi_n(omega) = 0 (`_Context.modular`). It
      extends to every coefficient whose denominator p does not divide.
    - The matrix of the map has the coefficients of f and g as entries, and
      a ring map can only lower its rank: a minor that vanishes over
      Q(zeta_n) vanishes mod p. So deg gcd over Q(zeta_n) <= deg gcd over
      F_p, when p divides no denominator and both forms stay nonzero mod p.
    - The forms are homogeneous, so their degrees are fixed by their shape:
      no leading coefficient has to survive the reduction.
    So a degree of 0 mod p proves coprimality. Where it is k > 0, or where p
    divides a denominator or takes a form to 0, `form_gcd` answers, and an
    exact degree above k fails the check.
    """
    _binary_pair(f, g)
    ctx = get_context(f.n)
    k = _modular_gcd_degree(f, g, ctx)
    if k == 0:
        return 0
    e = form_gcd(f, g).degree
    if k is not None and e > k:
        raise CheckFailed(f"exact gcd degree {e} exceeds the bound {k} "
                          f"mod {ctx.modular()[0]}")
    return e


def _modular_gcd_degree(f, g, ctx):
    """deg gcd(f, g) mod the prime of `ctx.modular()`; None when the prime
    divides a denominator or takes a form to 0."""
    p = ctx.modular()[0]
    vs, polys = [], []
    for h in (f, g):
        red = ctx.mod_p(h.raw)
        if red is None or not any(red):
            return None
        # split off x2^v, then dehomogenize: ascending in x1, with a nonzero
        # leading coefficient
        v = next(j for j, c in enumerate(red) if c)
        vs.append(v)
        polys.append(red[v:][::-1])
    a, b = polys
    while b:
        # a mod b, in place: a and b are lists of this call alone
        inv = pow(b[-1], -1, p)
        db = len(b) - 1
        for top in range(len(a) - 1, db - 1, -1):
            c = a[top] * inv % p
            if c:
                lo = top - db
                a[lo:top + 1] = [(x - c * y) % p for x, y in zip(a[lo:top + 1], b)]
        del a[db:]
        while a and not a[-1]:
            a.pop()
        a, b = b, a
    return min(vs) + len(a) - 1


def _rehomogenize(uni, x2_power, n):
    deg = len(uni) - 1 + x2_power
    raw = [get_context(n).zero] * x2_power + list(uni[::-1])
    return Form._wrap(2, deg, n, raw)


def jacobian_determinant(f1, f2):
    """det of the Jacobian of (f1, f2) as a form of degree d1 + d2 - 2."""
    return f1.partial(0) * f2.partial(1) - f1.partial(1) * f2.partial(0)


def canonical_span(forms):
    """rref row basis of the span; returns (rows of raws, pivots, meta)."""
    fs = list(forms)
    if not fs:
        raise ValueError("need at least one form")
    n, d, nv = fs[0].n, fs[0].degree, fs[0].nvars
    ctx = get_context(n)
    rows = [list(f.raw) for f in fs]
    pivots = K.rref(rows, ctx.red, ctx.phi, ctx.inv)
    return rows[: len(pivots)], pivots, (nv, d, n)


def in_span(f, span):
    """Membership of f in a canonical_span result, by row reduction."""
    rows, pivots, (nv, d, n) = span
    if f.nvars != nv or f.degree != d or f.n != n:
        return False
    ctx = get_context(n)
    vec = list(f.raw)
    for row, pc in zip(rows, pivots):
        c = vec[pc]
        if not K.c_is_zero(c):
            K.vec_axpy(vec, K.c_neg(c), row, ctx.red, ctx.phi)
    return all(K.c_is_zero(x) for x in vec)
