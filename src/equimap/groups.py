"""Finite matrix groups over cyclotomic fields.

Catalog: the binary polyhedral subgroups of SL2 (cyclic of even order, binary
dihedral, binary tetrahedral / octahedral / icosahedral) plus the diagonal
groups T_n(m_1,...,m_r). Groups are fully enumerated by closure, exported as
abstract multiplication tables, and carry the linear-character machinery used
by the isotypic decomposition.
"""

import random
from fractions import Fraction
from math import lcm

from . import _kernel as K
from .errors import (
    ClosureExplosion,
    NonAbelianQuotient,
    NotADivisor,
    NotDividing,
    RankExceedsDimension,
    UnknownKind,
)
from .scalars import CycNum, cyc_embed, cyc_from_json, cyc_to_json, get_context, one, zero, zeta

CLOSURE_CAP = 10_000


class Mat:
    """Square matrix of CycNum entries over one shared conductor."""

    __slots__ = ("n", "size", "rows", "_hash")

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        size = len(rows)
        if not size or any(len(r) != size for r in rows):
            raise ValueError("matrix must be square and nonempty")
        cond = rows[0][0].n
        for r in rows:
            for x in r:
                if x.n != cond:
                    raise ValueError("entries must share one conductor")
        object.__setattr__(self, "n", cond)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *a):
        raise AttributeError("Mat is immutable")

    @classmethod
    def identity(cls, size, conductor):
        o, z = one(conductor), zero(conductor)
        return cls([[o if i == j else z for j in range(size)] for i in range(size)])

    @classmethod
    def diagonal(cls, entries):
        cond = entries[0].n
        z = zero(cond)
        size = len(entries)
        return cls(
            [[entries[i] if i == j else z for j in range(size)] for i in range(size)]
        )

    def __matmul__(self, other):
        assert self.size == other.size and self.n == other.n
        size = self.size
        return Mat(
            [
                [
                    sum(
                        (self.rows[i][k] * other.rows[k][j] for k in range(size)),
                        zero(self.n),
                    )
                    for j in range(size)
                ]
                for i in range(size)
            ]
        )

    def apply(self, vec):
        return [
            sum((self.rows[i][k] * vec[k] for k in range(self.size)), zero(self.n))
            for i in range(self.size)
        ]

    def trace(self):
        return sum((self.rows[i][i] for i in range(self.size)), zero(self.n))

    def det(self):
        if self.size == 1:
            return self.rows[0][0]
        if self.size == 2:
            a, b = self.rows[0]
            c, d = self.rows[1]
            return a * d - b * c
        # cofactor expansion; sizes here stay tiny
        total = zero(self.n)
        for j in range(self.size):
            minor = Mat(
                [
                    [self.rows[i][k] for k in range(self.size) if k != j]
                    for i in range(1, self.size)
                ]
            )
            term = self.rows[0][j] * minor.det()
            total = total + (term if j % 2 == 0 else -term)
        return total

    def inverse(self):
        if self.size == 2:
            a, b = self.rows[0]
            c, d = self.rows[1]
            det = a * d - b * c
            if det.is_zero():
                raise ZeroDivisionError("singular matrix")
            r = det.inverse()
            return Mat([[d * r, -b * r], [-c * r, a * r]])
        # Gauss-Jordan on [M | I]
        ctx = get_context(self.n)
        aug = [
            [self.rows[i][j].raw for j in range(self.size)]
            + [ctx.one if i == j else ctx.zero for j in range(self.size)]
            for i in range(self.size)
        ]
        pivots = K.rref(aug, ctx.red, ctx.phi, ctx.inv)
        if pivots != list(range(self.size)):
            raise ZeroDivisionError("singular matrix")
        return Mat(
            [
                [CycNum._wrap(self.n, aug[i][self.size + j]) for j in range(self.size)]
                for i in range(self.size)
            ]
        )

    def __neg__(self):
        return Mat([[-x for x in r] for r in self.rows])

    def __add__(self, other):
        assert self.size == other.size and self.n == other.n
        return Mat(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ]
        )

    def __rmul__(self, s):
        return Mat([[s * x for x in r] for r in self.rows])

    def is_diagonal(self):
        return all(
            self.rows[i][j].is_zero()
            for i in range(self.size)
            for j in range(self.size)
            if i != j
        )

    def embed(self, m):
        return Mat([[cyc_embed(x, m) for x in r] for r in self.rows])

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return (
            self.n == other.n
            and self.size == other.size
            and all(
                self.rows[i][j].raw == other.rows[i][j].raw
                for i in range(self.size)
                for j in range(self.size)
            )
        )

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.n, tuple(x.raw for r in self.rows for x in r)))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        return f"Mat({[[str(x.coeffs) for x in r] for r in self.rows]})"


def mat_to_json(m):
    return [[cyc_to_json(x) for x in r] for r in m.rows]


def mat_from_json(rows):
    return Mat([[cyc_from_json(x) for x in r] for r in rows])


class GroupTable:
    """Abstract finite group as an index multiplication table."""

    def __init__(self, mul, names=None):
        self.order = len(mul)
        self.mul = tuple(tuple(r) for r in mul)
        n = self.order
        if any(len(r) != n or not all(type(x) is int and 0 <= x < n for x in r)
               for r in self.mul):
            raise ValueError(f"table must be {n} x {n} with entries in range({n})")
        # identity: the unique e with e*x = x for all x
        ident = None
        for e in range(self.order):
            if all(self.mul[e][x] == x for x in range(self.order)):
                ident = e
                break
        if ident is None:
            raise ValueError("no identity element")
        self.id = ident
        inv = [None] * self.order
        for x in range(self.order):
            for y in range(self.order):
                if self.mul[x][y] == ident:
                    inv[x] = y
                    break
            if inv[x] is None:
                raise ValueError("missing inverse")
        self.inv = tuple(inv)
        self.names = tuple(names) if names is not None else None

    def validate(self, rng=None):
        """Group axioms: a Latin square, then associativity, exhaustive up to
        order 64 and sampled above (from `rng`, seeded by default)."""
        n = self.order
        full = set(range(n))
        for x in range(n):
            if set(self.mul[x]) != full or {r[x] for r in self.mul} != full:
                raise ValueError(f"row or column {x} is not a permutation")
        rng = rng or random.Random(0)
        triples = (
            ((a, b, c) for a in range(n) for b in range(n) for c in range(n))
            if n <= 64
            else (
                (rng.randrange(n), rng.randrange(n), rng.randrange(n))
                for _ in range(2000)
            )
        )
        for a, b, c in triples:
            if self.mul[self.mul[a][b]][c] != self.mul[a][self.mul[b][c]]:
                raise ValueError(f"associativity fails at {(a, b, c)}")
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

    def center(self):
        n = self.order
        return tuple(
            z
            for z in range(n)
            if all(self.mul[z][x] == self.mul[x][z] for x in range(n))
        )

    def to_json(self):
        d = {"order": self.order, "mul": [list(r) for r in self.mul]}
        if self.names is not None:
            d["names"] = list(self.names)
        return d

    @classmethod
    def from_json(cls, d):
        return cls(d["mul"], d.get("names"))


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


class LinearCharacter:
    """One-dimensional character given by its value at every element index."""

    def __init__(self, group, values):
        self.group = group
        self.values = tuple(values)

    def __call__(self, i):
        return self.values[i]

    def value_at_inverse(self, i):
        return self.values[self.group.inverse_index(i)]

    def is_trivial(self):
        return all(v.is_one() for v in self.values)

    def __eq__(self, other):
        if not isinstance(other, LinearCharacter):
            return NotImplemented
        return self.group is other.group and all(
            a == b for a, b in zip(self.values, other.values)
        )

    def __hash__(self):
        return hash(tuple(v.raw for v in self.values))

    def __repr__(self):
        kind = "trivial" if self.is_trivial() else "nontrivial"
        return f"LinearCharacter({kind}, order {self.order()})"

    def order(self):
        k = 1
        cur = list(self.values)
        while not all(v.is_one() for v in cur):
            cur = [a * b for a, b in zip(cur, self.values)]
            k += 1
        return k


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
        ident = Mat.identity(size, cond)
        elements = [ident]
        index = {ident: 0}
        frontier = [ident]
        while frontier:
            nxt = []
            for m in frontier:
                for g in gens:
                    p = m @ g
                    if p not in index:
                        index[p] = len(elements)
                        elements.append(p)
                        nxt.append(p)
                        if len(elements) > CLOSURE_CAP:
                            raise ClosureExplosion(
                                f"closure exceeded {CLOSURE_CAP} elements"
                            )
            frontier = nxt
        if expected_order is not None and len(elements) != expected_order:
            raise ClosureExplosion(
                f"{kind} closed to {len(elements)} elements, expected {expected_order}"
            )
        self.kind = kind
        self.ell = ell
        self.conductor = cond
        self.size = size
        self.generators = gens
        self.elements = elements
        self.index = index
        self._cache = {}

    @property
    def order(self):
        return len(self.elements)

    def element_index(self, m):
        return self.index[m]

    def inverse_index(self, i):
        invs = self._cache.get("inv_indices")
        if invs is None:
            invs = [self.index[m.inverse()] for m in self.elements]
            self._cache["inv_indices"] = invs
        return invs[i]

    def traces(self):
        tr = self._cache.get("traces")
        if tr is None:
            tr = [m.trace() for m in self.elements]
            self._cache["traces"] = tr
        return tr

    def contains_minus_identity(self):
        return -Mat.identity(self.size, self.conductor) in self.index

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
        if kind in ("cyclic", "binary-dihedral"):
            grp = build_group(kind, d.get("ell"))
        elif kind in CATALOG_ORDERS:
            grp = build_group(kind)
        else:
            return cls([mat_from_json(g) for g in d["generators"]], kind="custom")
        # a catalog kind is rebuilt, so the file's own generators must agree
        gens = d.get("generators")
        if gens is not None and [mat_from_json(g) for g in gens] != grp.generators:
            raise ValueError(f"generators do not match the {kind} catalog group")
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
    if kind == "cyclic":
        if ell is None or ell < 2:
            raise ValueError("cyclic kind needs ell >= 2")
        n = 2 * ell
        g = Mat.diagonal([zeta(n), zeta(n, n - 1)])
        return MatrixGroup([g], kind="cyclic", ell=ell, expected_order=2 * ell)
    if kind == "binary-dihedral":
        if ell is None or ell < 2:
            raise ValueError("binary-dihedral kind needs ell >= 2")
        cond = lcm(4, 2 * ell)
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
    """Multiplication table under the element enumeration order."""
    table = g._cache.get("table")
    if table is None:
        idx = g.index
        els = g.elements
        mul = [[idx[a @ b] for b in els] for a in els]
        table = GroupTable(mul)
        g._cache["table"] = table
    return table


def closure(t, seed):
    """The subgroup generated by `seed` inside table t, as a sorted tuple."""
    if not seed:
        return (t.id,)
    return K.table_close(t.mul, t.order, tuple(seed))


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
            assert t % r == 0
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
    """Lift all characters of g/(normal subgroup) back to g."""
    t = to_table(g)
    q, coset_of = quotient_table(t, normal_indices)
    vectors, E = _abelian_character_exponents(q)
    cond = g.conductor if g.conductor % E == 0 else lcm(g.conductor, E)
    root = zeta(cond, cond // E)
    value_of_exp = [root**e for e in range(E)]
    out = []
    for vec in vectors:
        values = [value_of_exp[vec[coset_of[i]]] for i in range(g.order)]
        out.append(LinearCharacter(g, values))
    return out


def chi_stabilizer_characters(g):
    """Characters gamma with gamma*chi = chi, chi the trace character.

    gamma*chi = chi holds iff gamma(g) = 1 wherever tr(g) != 0, so these are
    exactly the characters of the quotient by N = <elements of nonzero trace>.
    """
    key = "chi_stab"
    if key not in g._cache:
        seed = [i for i, tr in enumerate(g.traces()) if not tr.is_zero()]
        n_idx = closure(to_table(g), seed)
        g._cache[key] = characters_from_quotient(g, n_idx)
    return g._cache[key]


def linear_characters(g):
    """All one-dimensional characters (characters of the abelianization)."""
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

    Diagonal elements always form a subgroup; group sums then factor as
    sum over reps r of (inner diagonal sums), which is what makes degree-40
    certificates affordable for the order-120 group.
    """
    key = "diag_cosets"
    if key not in g._cache:
        diag = [i for i, m in enumerate(g.elements) if m.is_diagonal()]
        dset = set(diag)
        reps = []
        seen = [False] * g.order
        for i in range(g.order):
            if not seen[i]:
                reps.append(i)
                mi = g.elements[i]
                for c in diag:
                    seen[g.index[mi @ g.elements[c]]] = True
        g._cache[key] = (tuple(diag), tuple(reps))
    return g._cache[key]
