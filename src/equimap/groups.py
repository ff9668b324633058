"""Finite matrix groups over cyclotomic fields.

Catalog: the binary polyhedral subgroups of SL2 (cyclic of even order, binary
dihedral, binary tetrahedral / octahedral / icosahedral) plus the diagonal
groups T_n(m_1,...,m_r). Groups are fully enumerated by closure, exported as
abstract multiplication tables, and carry the linear-character machinery used
by the isotypic decomposition.
"""

import functools
from fractions import Fraction
from math import lcm

from . import _kernel as K
from .errors import (
    CheckFailed,
    ClosureExplosion,
    NonAbelianQuotient,
    NotADivisor,
    NotDividing,
    RankExceedsDimension,
    UnknownKind,
)
from .scalars import (
    CONDUCTOR_CAP,
    CycNum,
    cyc_embed,
    embed_raw,
    get_context,
    one,
    raw_from_json,
    raw_to_json,
    shared_conductor,
    zero,
    zeta,
)

CLOSURE_CAP = 10_000


class Mat:
    """Square matrix over Q(zeta_n): the conductor, the size and the raw
    kernel scalars of the entries in one flat row-major tuple, `raw`.

    The constructor takes rows of CycNum entries and checks them; results
    computed here are built on raw entries by `_wrap`. `rows` views the
    entries as CycNum, for literals and tests; no computation reads it.
    """

    __slots__ = ("n", "size", "raw")

    def __init__(self, rows):
        self._set(*_square([[(x.n, x.raw) for x in r] for r in rows]))

    @classmethod
    def _wrap(cls, n, size, raw):
        """The size x size matrix over conductor n with the flat row-major
        raw entries `raw`, trusted as is: for results computed here."""
        obj = object.__new__(cls)
        obj._set(n, size, tuple(raw))
        return obj

    def _set(self, n, size, raw):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "raw", raw)

    def __setattr__(self, *a):
        raise AttributeError("Mat is immutable")

    @property
    def rows(self):
        size = self.size
        return tuple(tuple(CycNum._wrap(self.n, x) for x in self.raw[i:i + size])
                     for i in range(0, size * size, size))

    @classmethod
    def identity(cls, size, conductor):
        ctx = get_context(conductor)
        return cls._wrap(conductor, size, [ctx.one if i == j else ctx.zero
                                           for i in range(size) for j in range(size)])

    @classmethod
    def diagonal(cls, entries):
        z = zero(entries[0].n)
        size = len(entries)
        return cls([[entries[i] if i == j else z for j in range(size)] for i in range(size)])

    def trace(self):
        return functools.reduce(K.c_add, self.raw[::self.size + 1])

    def det(self):
        """The determinant as a raw scalar, by cofactor expansion along the
        first row; sizes here stay tiny."""
        ctx = get_context(self.n)
        return _det(self.raw, self.size, ctx.red, ctx.phi)

    def inverse(self):
        ctx = get_context(self.n)
        size, raw = self.size, self.raw
        if size == 2:
            # the adjugate over the determinant; a unit determinant, as in
            # every SL2 group, needs no division
            red, phi = ctx.red, ctx.phi
            a, b, c, d = raw
            det = self.det()
            if K.c_is_zero(det):
                raise ZeroDivisionError("singular matrix")
            adj = (d, K.c_neg(b), K.c_neg(c), a)
            if det != ctx.one:
                r = ctx.inv(det)
                adj = [K.c_mul(x, r, red, phi) for x in adj]
            return Mat._wrap(self.n, 2, adj)
        # Gauss-Jordan on [M | I]
        aug = [list(raw[i * size:(i + 1) * size])
               + [ctx.one if i == j else ctx.zero for j in range(size)]
               for i in range(size)]
        if K.rref(aug, ctx.red, ctx.phi, ctx.inv) != list(range(size)):
            raise ZeroDivisionError("singular matrix")
        return Mat._wrap(self.n, size, [x for row in aug for x in row[size:]])

    def __neg__(self):
        return Mat._wrap(self.n, self.size, map(K.c_neg, self.raw))

    def is_diagonal(self):
        size = self.size
        return all(K.c_is_zero(x) for k, x in enumerate(self.raw)
                   if k % (size + 1))

    def embed(self, m):
        return Mat._wrap(m, self.size, [embed_raw(x, self.n, m) for x in self.raw])

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return self.n == other.n and self.size == other.size and self.raw == other.raw

    def __hash__(self):
        return hash((self.n, self.raw))

    def __repr__(self):
        return f"Mat({[[str(x.coeffs) for x in r] for r in self.rows]})"


def _square(rows):
    """(conductor, size, flat raw entries) of rows of (conductor, raw scalar)
    pairs, checked to be square, nonempty and over one conductor."""
    size = len(rows)
    if not size or any(len(r) != size for r in rows):
        raise ValueError("matrix must be square and nonempty")
    n, raw = shared_conductor([x for r in rows for x in r], "matrix entries")
    return n, size, raw


def _det(raw, size, red, phi):
    if size == 1:
        return raw[0]
    total = None
    for j in range(size):
        minor = [raw[i * size + k] for i in range(1, size) for k in range(size) if k != j]
        term = K.c_mul(raw[j], _det(minor, size - 1, red, phi), red, phi)
        total = term if total is None else (K.c_add if j % 2 == 0 else K.c_sub)(total, term)
    return total


def mat_to_json(m):
    size = m.size
    return [[raw_to_json(m.n, x) for x in m.raw[i:i + size]]
            for i in range(0, size * size, size)]


def mat_from_json(rows):
    return Mat._wrap(*_square([[raw_from_json(x) for x in r] for r in rows]))


class GroupTable:
    """Abstract finite group as an index multiplication table."""

    def __init__(self, mul, names=None):
        self.order = len(mul)
        self.mul = tuple(tuple(r) for r in mul)
        n = self.order
        if any(len(r) != n or not all(type(x) is int and 0 <= x < n for x in r)
               for r in self.mul):
            raise ValueError(f"table must be {n} x {n} with entries in range({n})")
        if names is not None:
            names = tuple(names)
            if len(names) != n:
                raise ValueError(f"{len(names)} names for a table of order {n}")
        # identity: the unique e with e*x = x for all x
        row_of_id = tuple(range(n))
        ident = next((e for e, r in enumerate(self.mul) if r == row_of_id), None)
        if ident is None:
            raise ValueError("no identity element")
        self.id = ident
        if any(ident not in r for r in self.mul):
            raise ValueError("missing inverse")
        self.inv = tuple(r.index(ident) for r in self.mul)
        self.names = names
        self._cache = {}

    def validate(self):
        """Group axioms: a Latin square, then associativity by Light's test,
        then identity and inverses. The elements a with (x*a)*y = x*(a*y)
        for all x, y are closed under the product, so checking a generating
        set, picked greedily, covers the whole table in |S| * n^2 lookups."""
        n = self.order
        full = set(range(n))
        for x in range(n):
            if set(self.mul[x]) != full or {r[x] for r in self.mul} != full:
                raise ValueError(f"row or column {x} is not a permutation")
        gens, reached = [], set()
        for a in range(n):
            if a in reached:
                continue
            gens.append(a)
            reached = set(closure(self, gens))
            row_a = self.mul[a]
            for x in range(n):
                xa, xr = self.mul[self.mul[x][a]], self.mul[x]
                for y in range(n):
                    if xa[y] != xr[row_a[y]]:
                        raise ValueError(f"associativity fails at {(x, a, y)}")
        for x in range(n):
            if self.mul[self.id][x] != x:
                raise ValueError(f"identity fails at {x}")
            if self.mul[x][self.inv[x]] != self.id:
                raise ValueError(f"inverse fails at {x}")
        return True

    def is_abelian(self):
        n = self.order
        return all(
            self.mul[a][b] == self.mul[b][a] for a in range(n) for b in range(a)
        )

    def element_order(self, x):
        k, y = 1, x
        while y != self.id:
            y = self.mul[y][x]
            k += 1
        return k

    def to_json(self):
        d = {"order": self.order, "mul": [list(r) for r in self.mul]}
        if self.names is not None:
            d["names"] = list(self.names)
        return d

    @classmethod
    def from_json(cls, d):
        t = cls(d["mul"], d.get("names"))
        order = d.get("order", t.order)
        if type(order) is not int or order != t.order:
            raise ValueError(f"declared order {order!r} is not the table's {t.order}")
        return t


def cyclic_table(n):
    return GroupTable([[(i + j) % n for j in range(n)] for i in range(n)])


def abelian_table(factors):
    """Direct product of cyclic groups Z/m1 x ... x Z/mr."""
    tables = [cyclic_table(m) for m in factors]
    out = tables[0]
    for t in tables[1:]:
        out = direct_product(out, t)
    return out


def symmetric_table(n):
    """S_n as a table; composition acts left-to-right on tuples."""
    from itertools import permutations

    perms = list(permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    names = ["".join(str(v) for v in p) for p in perms]
    mul = [
        [index[tuple(p[q[k]] for k in range(n))] for q in perms]
        for p in perms
    ]
    return GroupTable(mul, names)


def direct_product(a, b):
    """Componentwise product table; index pairs flattened as i*|b| + j."""
    nb = b.order
    mul = [
        [
            a.mul[ia][ja] * nb + b.mul[ib][jb]
            for ja in range(a.order)
            for jb in range(nb)
        ]
        for ia in range(a.order)
        for ib in range(nb)
    ]
    return GroupTable(mul)


class MatrixGroup:
    """Finite matrix group, fully enumerated, elements[0] = identity."""

    def __init__(self, generators, kind="custom", ell=None, expected_order=None):
        gens = list(generators)
        if not gens:
            raise ValueError("a matrix group needs at least one generator")
        cond = gens[0].n
        size = gens[0].size
        for g in gens:
            if g.n != cond or g.size != size:
                raise ValueError("generators must share size and conductor")
        if any(K.c_is_zero(g.det()) for g in gens):
            # with every generator invertible, the finite closure is a group
            raise ValueError("generators must be invertible")
        ident = Mat.identity(size, cond)
        ctx = get_context(cond)
        red, phi = ctx.red, ctx.phi
        # the closure runs on tuples of scalar ids, one id per distinct
        # canonical raw scalar, and is keyed by them; the product or sum of
        # two ids is computed the first time that pair is met in this build
        vals, ids = [], {}

        def intern(x):
            i = ids.get(x)
            if i is None:
                i = ids[x] = len(vals)
                vals.append(x)
            return i

        def memo(op):
            done = {}

            def f(x, y):
                z = done.get((x, y))
                if z is None:
                    z = done[x, y] = intern(op(vals[x], vals[y]))
                return z
            return f

        mul, add = memo(lambda x, y: K.c_mul(x, y, red, phi)), memo(K.c_add)
        flats = [tuple(map(intern, ident.raw))]
        zero_id = intern(ctx.zero)
        # the sparse steps: per generator b, interned once, and entry (i, j)
        # of a·b, the terms a[i, k]·b[k, j] with b[k, j] nonzero, as (flat
        # index of a[i, k], id of b[k, j]), split into the first and the
        # rest. A monomial generator (diagonal, anti-diagonal, signed
        # permutation) gives one term per entry, so no sum; every column of
        # an invertible b has a nonzero entry
        steps = []
        for g in gens:
            b = tuple(map(intern, g.raw))
            terms = [[(i + k, b[k * size + j]) for k in range(size) if b[k * size + j] != zero_id]
                     for i in range(0, size * size, size) for j in range(size)]
            steps.append([(*t[0], t[1:]) for t in terms])
        index = {flats[0]: 0}
        # right[k][i] = index of elements[i]·gens[k]; parent[j] = (i, k) with
        # elements[j] = elements[i]·gens[k], the step that first reached j
        right = [[] for _ in gens]
        parent = [None]
        frontier = [0]
        while frontier:
            nxt = []
            for i in frontier:
                a = flats[i]
                for k, step in enumerate(steps):
                    p = []
                    for first, y, rest in step:
                        s = mul(a[first], y)
                        for x, z in rest:
                            s = add(s, mul(a[x], z))
                        p.append(s)
                    p = tuple(p)
                    j = index.get(p)
                    if j is None:
                        j = index[p] = len(flats)
                        flats.append(p)
                        parent.append((i, k))
                        nxt.append(j)
                        if len(flats) > CLOSURE_CAP:
                            raise ClosureExplosion(
                                f"closure exceeded {CLOSURE_CAP} elements"
                            )
                    right[k].append(j)
            frontier = nxt
        if expected_order is not None and len(flats) != expected_order:
            raise ClosureExplosion(
                f"{kind} closed to {len(flats)} elements, expected {expected_order}"
            )
        self.kind = kind
        self.ell = ell
        self.conductor = cond
        self.size = size
        self.generators = gens
        self.elements = [ident] + [Mat._wrap(cond, size, [vals[x] for x in f])
                                   for f in flats[1:]]
        self._right = right
        self._parent = parent
        self._cache = {}

    @property
    def order(self):
        return len(self.elements)

    def traces(self):
        """The trace of each element, as a raw scalar."""
        tr = self._cache.get("traces")
        if tr is None:
            tr = [m.trace() for m in self.elements]
            self._cache["traces"] = tr
        return tr

    def to_json(self, with_elements=False):
        d = {
            "kind": self.kind,
            "ell": self.ell,
            "conductor": self.conductor,
            "generators": [mat_to_json(g) for g in self.generators],
        }
        if with_elements:
            d["elements"] = [mat_to_json(m) for m in self.elements]
        return d

    @classmethod
    def from_json(cls, d):
        if not isinstance(d, dict):
            raise ValueError("a group is a JSON object")
        kind = d.get("kind", "custom")
        if type(kind) is not str:
            raise ValueError(f"group kind {kind!r} is not a string")
        if kind not in ("cyclic", "binary-dihedral", *CATALOG_ORDERS):
            grp = cls([mat_from_json(g) for g in d["generators"]], kind="custom")
        else:
            grp = build_group(kind, d.get("ell"))
            # a catalog kind is rebuilt, so the file's own generators must agree
            gens = d.get("generators")
            if gens is not None and [mat_from_json(g) for g in gens] != grp.generators:
                raise ValueError(f"generators do not match the {kind} catalog group")
        if d.get("conductor", grp.conductor) != grp.conductor:
            raise ValueError(
                f"conductor {d['conductor']!r} is not the group's {grp.conductor}"
            )
        return grp


CATALOG_ORDERS = {
    "binary-tetrahedral": 24,
    "binary-octahedral": 48,
    "binary-icosahedral": 120,
}

KIND_ALIASES = {
    "tetrahedral": "binary-tetrahedral",
    "octahedral": "binary-octahedral",
    "icosahedral": "binary-icosahedral",
    "2t": "binary-tetrahedral",
    "2o": "binary-octahedral",
    "2i": "binary-icosahedral",
    "dihedral": "binary-dihedral",
}


def canonical_kind(kind):
    k = kind.strip().lower()
    return KIND_ALIASES.get(k, k)


def _tetrahedral_generators():
    i4 = zeta(24, 6)  # zeta_4 inside conductor 24
    o, z = one(24), zero(24)
    half = CycNum.from_rational(Fraction(1, 2), 24)
    p = Mat.diagonal([i4, -i4])
    q = Mat([[z, o], [-o, z]])
    w = Mat(
        [
            [half * (-1 + i4), half * (1 + i4)],
            [half * (-1 + i4), half * (-1 - i4)],
        ]
    )
    return [p, q, w]


def build_group(kind, ell=None):
    """Catalog constructor; fully enumerates by closure and checks the order."""
    kind = canonical_kind(kind)
    if kind in CATALOG_ORDERS and ell is not None:
        raise ValueError(f"{kind} takes no ell, got {ell!r}")
    if kind in ("cyclic", "binary-dihedral"):
        if type(ell) is not int or ell < 2:
            raise ValueError(f"{kind} kind needs an integer ell >= 2")
        # forms over either group live in Q(zeta_lcm(4, 2 ell)); bound that
        # field before any field or closure is built
        cond = lcm(4, 2 * ell)
        if cond > CONDUCTOR_CAP:
            raise ValueError(
                f"{kind} ell={ell} needs conductor {cond}, past the cap {CONDUCTOR_CAP}"
            )
    if kind == "cyclic":
        n = 2 * ell
        g = Mat.diagonal([zeta(n), zeta(n, n - 1)])
        return MatrixGroup([g], kind="cyclic", ell=ell, expected_order=2 * ell)
    if kind == "binary-dihedral":
        a = Mat.diagonal(
            [cyc_embed(zeta(2 * ell), cond), cyc_embed(zeta(2 * ell, 2 * ell - 1), cond)]
        )
        o, z = one(cond), zero(cond)
        j = Mat([[z, o], [-o, z]])
        return MatrixGroup([a, j], kind="binary-dihedral", ell=ell, expected_order=4 * ell)
    if kind == "binary-tetrahedral":
        return MatrixGroup(
            _tetrahedral_generators(), kind=kind, expected_order=24
        )
    if kind == "binary-octahedral":
        gens = _tetrahedral_generators() + [Mat.diagonal([zeta(24, 3), zeta(24, 21)])]
        return MatrixGroup(gens, kind=kind, expected_order=48)
    if kind == "binary-icosahedral":
        z5 = zeta(20, 4)  # zeta_5 inside conductor 20
        sigma = -Mat.diagonal([z5**3, z5**2])
        sqrt5 = z5 - z5**2 - z5**3 + z5**4
        a = -(z5 - z5**4) / sqrt5
        b = (z5**2 - z5**3) / sqrt5
        tau = Mat([[a, b], [b, -a]])
        return MatrixGroup([sigma, tau], kind=kind, expected_order=120)
    raise UnknownKind(f"unknown group kind {kind!r}")


def tn_group(n, invariant_factors):
    """Diagonal group T_n(m_1,...,m_r): diag(t_1,...,t_r,1,...,1), t_i^{m_i}=1."""
    ms = list(invariant_factors)
    if not ms:
        raise ValueError("need at least one invariant factor")
    if len(ms) > n:
        raise RankExceedsDimension(f"{len(ms)} factors in dimension {n}")
    if any(m < 2 for m in ms):
        raise ValueError("invariant factors must be >= 2")
    for a, b in zip(ms, ms[1:]):
        if b % a != 0:
            raise NotDividing(f"{a} does not divide {b}")
    cond = lcm(*ms)
    gens = []
    for i, m in enumerate(ms):
        entries = [one(cond)] * n
        entries[i] = cyc_embed(zeta(m), cond)
        gens.append(Mat.diagonal(entries))
    expected = 1
    for m in ms:
        expected *= m
    grp = MatrixGroup(gens, kind="tn", expected_order=expected)
    grp.ell = tuple(ms)
    return grp


def to_table(g):
    """Multiplication table under the element enumeration order.

    Built from the closure's generator steps in integer lookups alone: column
    0 is the identity, and if elements[j] = elements[i]·gens[k] then
    e_x e_j = (e_x e_i) gens[k], so column j is right[k] applied to column i.
    """
    table = g._cache.get("table")
    if table is None:
        cols = [range(g.order)]
        for i, k in g._parent[1:]:
            r = g._right[k]
            cols.append([r[x] for x in cols[i]])
        table = GroupTable(list(zip(*cols)))
        g._cache["table"] = table
    return table


def closure(t, seed, base=((), ())):
    """The subgroup generated by `seed` inside table t, as a sorted tuple;
    with `base` = (H, hgens), H a subgroup of t generated by hgens, the
    subgroup generated by H and seed, extended from H (`table_close`)."""
    if not seed and not base[0]:
        return (t.id,)
    return K.table_close(t.mul, t.order, tuple(seed), base)


def quotient_table(t, normal_indices):
    """Quotient of a GroupTable by a normal subgroup; returns (table, coset_of)."""
    nset = set(normal_indices)
    # normality check
    for x in range(t.order):
        xi = t.inv[x]
        for s in nset:
            if t.mul[t.mul[x][s]][xi] not in nset:
                raise ValueError("subgroup is not normal")
    coset_of = [None] * t.order
    reps = []
    for x in range(t.order):
        if coset_of[x] is None:
            cid = len(reps)
            reps.append(x)
            for s in nset:
                coset_of[t.mul[x][s]] = cid
    q = len(reps)
    mul = [[coset_of[t.mul[reps[a]][reps[b]]] for b in range(q)] for a in range(q)]
    return GroupTable(mul), coset_of


def _abelian_character_exponents(q):
    """All characters of an abelian table as exponent vectors mod E = exponent.

    Incremental cyclic extension: each new element x of order r over the
    current subgroup H splits every character into r extensions with values
    determined by v^r = value(x^r).
    """
    if not q.is_abelian():
        raise NonAbelianQuotient("character construction needs an abelian quotient")
    E = 1
    for x in range(q.order):
        E = lcm(E, q.element_order(x))
    in_h = {q.id}
    h_list = [q.id]
    chars = [{q.id: 0}]
    for x in range(q.order):
        if x in in_h:
            continue
        # order of x over H
        r, xk = 1, x
        while xk not in in_h:
            xk = q.mul[xk][x]
            r += 1
        new_chars = []
        for phi in chars:
            t = phi[xk]  # value exponent at x^r; r | t since (x^r)^(E/r) = id
            if t % r:
                raise CheckFailed(f"exponent {t} at x^{r} is not divisible by {r}")
            base = t // r
            for k_ in range(r):
                v = (base + k_ * (E // r)) % E
                ext = dict(phi)
                xv, xj = 0, q.id
                for j in range(1, r):
                    xj = q.mul[xj][x]
                    xv = (xv + v) % E
                    for h in h_list:
                        ext[q.mul[xj][h]] = (xv + phi[h]) % E
                new_chars.append(ext)
        chars = new_chars
        new_h = []
        xj = q.id
        for j in range(1, r):
            xj = q.mul[xj][x]
            for h in h_list:
                e = q.mul[xj][h]
                in_h.add(e)
                new_h.append(e)
        h_list.extend(new_h)
    vectors = sorted(tuple(phi[i] for i in range(q.order)) for phi in chars)
    return vectors, E


def characters_from_quotient(g, normal_indices):
    """(n, characters): every character of g/(normal subgroup), lifted back
    to g as the tuple of its raw values at g.elements over the conductor
    n = lcm(conductor of g, exponent of the quotient). The k-th power of
    zeta_E is the raw row of zeta_n^(k n/E)."""
    t = to_table(g)
    q, coset_of = quotient_table(t, normal_indices)
    vectors, E = _abelian_character_exponents(q)
    cond = lcm(g.conductor, E)
    ctx = get_context(cond)
    value_of_exp = [ctx.power_vector(e * (cond // E)) + (1,) for e in range(E)]
    return cond, [tuple(value_of_exp[vec[coset_of[i]]] for i in range(g.order))
                  for vec in vectors]


def chi_stabilizer_characters(g):
    """Characters gamma with gamma*chi = chi, chi the trace character, as
    tuples of raw values over the conductor of g.

    gamma*chi = chi holds iff gamma(g) = 1 wherever tr(g) != 0, so these are
    exactly the characters of the quotient by N = <elements of nonzero trace>.
    """
    key = "chi_stab"
    if key not in g._cache:
        seed = [i for i, tr in enumerate(g.traces()) if not K.c_is_zero(tr)]
        n, chars = characters_from_quotient(g, closure(to_table(g), seed))
        if n != g.conductor:
            raise ValueError(f"the characters stabilizing chi need conductor {n}, "
                             f"not the group's {g.conductor}")
        g._cache[key] = chars
    return g._cache[key]


def linear_characters(g):
    """(n, characters): all one-dimensional characters (characters of the
    abelianization), as in `characters_from_quotient`."""
    key = "linear_chars"
    if key not in g._cache:
        t = to_table(g)
        comms = set()
        for a in range(t.order):
            ai = t.inv[a]
            for b in range(t.order):
                comms.add(t.mul[t.mul[a][b]][t.mul[ai][t.inv[b]]])
        derived = closure(t, sorted(comms))
        g._cache[key] = characters_from_quotient(g, derived)
    return g._cache[key]


def diagonal_coset_decomposition(g):
    """(indices of the diagonal subgroup C, left coset representative indices).

    Diagonal elements always form a subgroup. C gives the diagonal weights
    of `forms.diagonal_exponents`, which select the monomials of an
    isotypic piece; the left cosets r C order the element walk of
    `compress.verify_equivariance` after a failing generator, each read
    from `coset_products`.
    """
    key = "diag_cosets"
    if key not in g._cache:
        diag = [i for i, m in enumerate(g.elements) if m.is_diagonal()]
        mul = to_table(g).mul
        reps, products = [], []
        seen = [False] * g.order
        for i in range(g.order):
            if not seen[i]:
                reps.append(i)
                # row i of the table holds the products elements[i]·elements[c]
                coset = tuple(mul[i][c] for c in diag)
                for j in coset:
                    seen[j] = True
                products.append(coset)
        g._cache[key] = (tuple(diag), tuple(reps))
        g._cache["coset_products"] = tuple(products)
    return g._cache[key]


def coset_products(g):
    """Per representative r of diagonal_coset_decomposition, the indices of
    r·c for its diagonal elements c, both in that function's order."""
    diagonal_coset_decomposition(g)
    return g._cache["coset_products"]
