import random
from fractions import Fraction
from functools import lru_cache

import pytest

from equimap import _kernel as K
from equimap.errors import (
    ClosureExplosion,
    NonAbelianQuotient,
    NotDividing,
    RankExceedsDimension,
    UnknownKind,
)
from equimap.groups import (
    CLOSURE_CAP,
    GroupTable,
    Mat,
    MatrixGroup,
    abelian_table,
    build_group,
    characters_from_quotient,
    chi_stabilizer_characters,
    closure,
    cyclic_table,
    diagonal_subgroup,
    direct_product,
    linear_characters,
    mat_from_json,
    mat_to_json,
    quotient_table,
    symmetric_table,
    tn_group,
    to_table,
)
from equimap.scalars import CONDUCTOR_CAP, CycNum, get_context, one, zero, zeta


@lru_cache(maxsize=None)
def grp(kind, ell=None):
    return build_group(kind, ell)


def rat(q, n):
    return CycNum.from_rational(Fraction(q), n)


def int_mat(rows, n=4):
    return Mat([[rat(x, n) for x in r] for r in rows])


def cyc(n, raw):
    """The CycNum of a raw scalar over conductor n, for comparisons."""
    return CycNum._wrap(n, raw)


def cyc_chars(n, chars):
    """Characters of raw values over conductor n, with CycNum values."""
    return [tuple(cyc(n, v) for v in c) for c in chars]


def stab_chars(g):
    return cyc_chars(g.conductor, chi_stabilizer_characters(g))


def lin_chars(g):
    return cyc_chars(*linear_characters(g))


def mat_apply(m, vec):
    """The matrix m times the column vec."""
    rows = m.rows
    return [sum((rows[i][k] * vec[k] for k in range(m.size)), zero(m.n))
            for i in range(m.size)]


def flat_product(a, b, size, mul, add):
    """The product of two size x size matrices given as flat row-major tuples
    of scalars, as the same kind of tuple; `mul` and `add` are the scalar
    product and sum. The dense reference: every term of every entry, zeros
    included, shares nothing with the closure's sparse product."""
    cols = [b[j::size] for j in range(size)]
    out = []
    for i in range(0, size * size, size):
        row = a[i:i + size]
        for col in cols:
            s = mul(row[0], col[0])
            for k in range(1, size):
                s = add(s, mul(row[k], col[k]))
            out.append(s)
    return tuple(out)


def matmul(*ms):
    """The product of the matrices `ms`, left to right, on raw kernel
    scalars through the dense reference product."""
    out = ms[0]
    for m in ms[1:]:
        if out.size != m.size or out.n != m.n:
            raise ValueError("matrices must share size and conductor")
        ctx = get_context(out.n)
        flat = flat_product(out.raw, m.raw, out.size,
                            lambda x, y: K.c_mul(x, y, ctx.red, ctx.phi), K.c_add)
        out = Mat._wrap(out.n, out.size, flat)
    return out


def element_index(g):
    """The index of each element of g, keyed by the matrix."""
    return {m: i for i, m in enumerate(g.elements)}


def center(t):
    """The elements of the table t that commute with every element."""
    return tuple(z for z in range(t.order)
                 if all(t.mul[z][x] == t.mul[x][z] for x in range(t.order)))


class TestMat:
    def test_matmul_oracle(self):
        a = int_mat([[1, 2], [3, 4]])
        b = int_mat([[5, 6], [7, 8]])
        assert matmul(a, b) == int_mat([[19, 22], [43, 50]])

    def test_identity_neutral(self):
        i = Mat.identity(2, 4)
        a = int_mat([[1, 2], [3, 4]])
        assert matmul(i, a) == a and matmul(a, i) == a

    def test_inverse_2x2(self):
        a = int_mat([[2, 1], [5, 3]])
        assert matmul(a, a.inverse()) == Mat.identity(2, 4)
        assert matmul(a.inverse(), a) == Mat.identity(2, 4)

    def test_inverse_3x3_and_det(self):
        rng = random.Random(20260817)
        for _ in range(5):
            rows = [[rat(rng.randint(-3, 3), 12) for _ in range(3)] for _ in range(3)]
            m = Mat(rows)
            if K.c_is_zero(m.det()):
                continue
            assert matmul(m, m.inverse()) == Mat.identity(3, 12)

    def test_det_multiplicative(self):
        rng = random.Random(7)
        for _ in range(10):
            a = int_mat([[rng.randint(-4, 4) for _ in range(2)] for _ in range(2)])
            b = int_mat([[rng.randint(-4, 4) for _ in range(2)] for _ in range(2)])
            assert cyc(4, matmul(a, b).det()) == cyc(4, a.det()) * cyc(4, b.det())

    def test_singular_inverse_raises(self):
        with pytest.raises(ZeroDivisionError):
            int_mat([[1, 2], [2, 4]]).inverse()
        z = zeta(12)
        with pytest.raises(ZeroDivisionError):
            Mat([[z, z * z], [one(12), z]]).inverse()

    def test_inverse_2x2_matches_cycnum_adjugate(self):
        # the adjugate over the determinant in CycNum arithmetic, as a
        # reference for the raw-scalar inverse, on unit and non-unit
        # determinants
        rng = random.Random(20261018)
        mats = [m for g in (grp("binary-icosahedral"), grp("binary-dihedral", 5))
                for m in g.elements[:40]]
        for n in (5, 12):
            for _ in range(20):
                mats.append(Mat([[sum((rat(rng.randint(-3, 3), n) * zeta(n, k)
                                       for k in range(3)), zero(n))
                                  for _ in range(2)] for _ in range(2)]))
        for m in mats:
            (a, b), (c, d) = m.rows
            det = a * d - b * c
            if det.is_zero():
                continue
            r = 1 / det
            want = Mat([[d * r, -b * r], [-c * r, a * r]])
            got = m.inverse()
            assert got == want
            assert all(x.raw == y.raw for rg, rw in zip(got.rows, want.rows)
                       for x, y in zip(rg, rw))

    def test_shape_mismatch_raises(self):
        a = int_mat([[1, 2], [3, 4]])
        for b in (Mat.identity(3, 4), int_mat([[1, 0], [0, 1]], 8)):
            with pytest.raises(ValueError):
                matmul(a, b)

    def test_hash_consistent(self):
        a = int_mat([[0, 1], [-1, 0]])
        b = int_mat([[0, 1], [-1, 0]])
        assert a == b and hash(a) == hash(b)
        assert a != int_mat([[0, 1], [1, 0]])

    def test_apply(self):
        a = int_mat([[1, 2], [3, 4]])
        v = mat_apply(a, [rat(1, 4), rat(1, 4)])
        assert v == [3, 7]


def reference_matmul(a, b):
    """The CycNum-valued product that `Mat @` computed before it worked on raw
    kernel scalars: the slow path the fast one is checked against."""
    size, ar, br = a.size, a.rows, b.rows
    return Mat([
        [sum((ar[i][k] * br[k][j] for k in range(size)), zero(a.n))
         for j in range(size)]
        for i in range(size)
    ])


MATMUL_GROUPS = (
    [("cyclic", ell) for ell in range(2, 9)]
    + [("binary-dihedral", ell) for ell in range(2, 9)]
    + [("binary-tetrahedral", None), ("binary-octahedral", None),
       ("binary-icosahedral", None)]
)


class TestMatmulAgainstReference:
    @pytest.mark.parametrize("kind,ell", MATMUL_GROUPS)
    def test_seeded_group_products(self, kind, ell):
        g = grp(kind, ell)
        rng = random.Random(f"matmul:{kind}:{ell}")
        for _ in range(30):
            a, b = rng.choice(g.elements), rng.choice(g.elements)
            p = matmul(a, b)
            assert p == reference_matmul(a, b)
            assert p in element_index(g) and hash(p) == hash(Mat(p.rows))

    def test_pair_lifted_to_twice_the_conductor(self):
        g = grp("binary-icosahedral")
        rng = random.Random(0x3a7)
        a, b = rng.choice(g.elements), rng.choice(g.elements)
        la, lb = a.embed(2 * g.conductor), b.embed(2 * g.conductor)
        p = matmul(la, lb)
        assert p.n == 2 * g.conductor
        assert p == reference_matmul(la, lb) == matmul(a, b).embed(2 * g.conductor)

    @pytest.mark.parametrize("n", [1, 5, 12])
    def test_seeded_dense_products(self, n):
        rng = random.Random(0x3a8 + n)
        phi = len(one(n).raw) - 1
        for size in (1, 2, 3):
            for _ in range(10):
                a, b = (Mat([[CycNum(n, [Fraction(rng.randint(-5, 5), rng.choice([1, 1, 2, 3]))
                                         for _ in range(phi)])
                              for _ in range(size)] for _ in range(size)])
                        for _ in range(2))
                assert matmul(a, b) == reference_matmul(a, b)

    def test_closure_and_diagonal_use_no_cycnum_arithmetic(self, monkeypatch):
        inside = []
        real_init = MatrixGroup.__init__

        def init(self, *args, **kwargs):
            inside.append(True)
            try:
                real_init(self, *args, **kwargs)
            finally:
                inside.pop()

        def guarded(name):
            real = getattr(CycNum, name)

            def op(self, other):
                if inside:
                    raise AssertionError(f"CycNum.{name} in a matrix product")
                return real(self, other)
            return op

        monkeypatch.setattr(MatrixGroup, "__init__", init)
        for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
            monkeypatch.setattr(CycNum, name, guarded(name))
        g = build_group("binary-icosahedral")
        assert g.order == 120
        inside.append(True)
        diag = diagonal_subgroup(g)
        inside.pop()
        assert len(diag) == 10


    @pytest.mark.parametrize("kind,ell", [("binary-icosahedral", None),
                                          ("binary-dihedral", 5)])
    def test_inverses_and_diagonal_use_no_matrix_product(self, monkeypatch,
                                                         kind, ell):
        # a fresh group reads its inverses off the table
        def refuse(name):
            def op(*args):
                raise AssertionError(f"Mat.{name} on a fresh group")
            return op

        monkeypatch.setattr(Mat, "inverse", refuse("inverse"))
        g = build_group(kind, ell)
        # past the closure, no routine multiplies two matrices, nor even
        # two scalars
        monkeypatch.setattr(K, "c_mul", refuse("product"))
        t = to_table(g)
        for i in range(g.order):
            assert t.mul[i][t.inv[i]] == t.id
        assert g.order % len(diagonal_subgroup(g)) == 0


EXPECTED_ORDERS = [
    ("cyclic", 2, 4),
    ("cyclic", 3, 6),
    ("cyclic", 5, 10),
    ("binary-dihedral", 2, 8),
    ("binary-dihedral", 3, 12),
    ("binary-dihedral", 5, 20),
    ("binary-tetrahedral", None, 24),
    ("binary-octahedral", None, 48),
    ("binary-icosahedral", None, 120),
]


class TestCatalog:
    def test_quaternion_element_set(self):
        # closure from the two generators must give exactly the eight units
        g = grp("binary-dihedral", 2)
        assert g.conductor == 4
        i4 = zeta(4)
        o, z = one(4), zero(4)
        expected = set()
        for m in [
            Mat.identity(2, 4),
            Mat.diagonal([i4, -i4]),
            Mat([[z, o], [-o, z]]),
            Mat([[z, i4], [i4, z]]),
        ]:
            expected.add(m)
            expected.add(-m)
        assert set(g.elements) == expected

    @pytest.mark.parametrize("kind,ell,order", EXPECTED_ORDERS)
    def test_orders(self, kind, ell, order):
        g = grp(kind, ell)
        assert g.order == order
        assert g.elements[0] == Mat.identity(2, g.conductor)

    @pytest.mark.parametrize("kind,ell,order", EXPECTED_ORDERS)
    def test_det_one_and_minus_identity(self, kind, ell, order):
        g = grp(kind, ell)
        o = one(g.conductor)
        assert all(m.det() == o.raw for m in g.elements)
        assert -Mat.identity(2, g.conductor) in g.elements

    def test_cyclic3_generator(self):
        g = grp("cyclic", 3)
        assert g.generators[0] == Mat.diagonal([zeta(6), zeta(6, 5)])
        assert g.conductor == 6

    def test_closure_idempotent(self):
        for kind, ell in [("binary-dihedral", 2), ("binary-tetrahedral", None)]:
            g = grp(kind, ell)
            reclosed = MatrixGroup(g.elements)
            assert set(reclosed.elements) == set(g.elements)

    def test_unique_involution(self):
        # binary dihedral groups have -I as their only order-2 element
        for ell in (2, 3, 4):
            t = to_table(grp("binary-dihedral", ell))
            assert sum(1 for x in range(t.order) if t.element_order(x) == 2) == 1

    def test_aliases(self):
        assert build_group("tetrahedral").order == 24
        assert build_group("2i").order == 120

    def test_bad_kind(self):
        with pytest.raises(UnknownKind):
            build_group("heptagonal")

    def test_ell_required(self):
        with pytest.raises(ValueError):
            build_group("cyclic", 1)
        with pytest.raises(ValueError):
            build_group("binary-dihedral")

    @pytest.mark.parametrize("kind", ["tetrahedral", "2O", "binary-icosahedral"])
    @pytest.mark.parametrize("ell", [3, 0, "x", 2.5, True, False])
    def test_polyhedral_kind_takes_no_ell(self, kind, ell):
        with pytest.raises(ValueError, match="takes no ell"):
            build_group(kind, ell)

    def test_closure_cap(self):
        with pytest.raises(ClosureExplosion):
            MatrixGroup([Mat.diagonal([rat(2, 4), rat(1, 4)])])

    @pytest.mark.parametrize("kind,ell", [
        ("cyclic", CONDUCTOR_CAP // 2 + 1),
        ("cyclic", CONDUCTOR_CAP // 2 - 1),  # odd: its forms need 4 | conductor
        ("cyclic", CLOSURE_CAP // 2 - 1),  # under the closure cap
        ("binary-dihedral", CONDUCTOR_CAP // 4 + 1),
        ("binary-dihedral", CLOSURE_CAP // 4),
        ("binary-dihedral", 10**6),
    ])
    def test_ell_beyond_conductor_cap(self, kind, ell):
        with pytest.raises(ValueError, match="conductor"):
            build_group(kind, ell)

    def test_largest_cyclic_under_conductor_cap(self):
        g = build_group("cyclic", CONDUCTOR_CAP // 2)
        assert g.order == CONDUCTOR_CAP and g.conductor == CONDUCTOR_CAP

    @pytest.mark.parametrize("kind,ell,half", [
        ("binary-dihedral", 2, 4),
        ("binary-dihedral", 3, 6),
        ("binary-tetrahedral", None, 12),
    ])
    def test_rotation_image_order(self, kind, ell, half):
        g = grp(kind, ell)
        t = to_table(g)
        minus = g.elements.index(-Mat.identity(2, g.conductor))
        q, _ = quotient_table(t, (t.id, minus))
        assert q.order == half
        q.validate()


class TestTn:
    def test_order4_diagonal(self):
        g = tn_group(2, (2, 2))
        assert g.order == 4
        assert all(m.is_diagonal() for m in g.elements)
        vals = {(m.rows[0][0], m.rows[1][1]) for m in g.elements}
        u = one(g.conductor)
        assert vals == {(s * u, t * u) for s in (1, -1) for t in (1, -1)}

    def test_single_factor_cyclic(self):
        assert tn_group(1, (5,)).order == 5

    def test_padded_dimension(self):
        g = tn_group(3, (2, 4))
        assert g.order == 8
        assert g.conductor == 4
        for m in g.elements:
            assert m.size == 3
            assert m.rows[2][2] == 1
            assert m.rows[0][0] ** 2 == one(4)

    def test_rank_exceeds_dimension(self):
        with pytest.raises(RankExceedsDimension):
            tn_group(1, (2, 2))

    def test_not_dividing(self):
        with pytest.raises(NotDividing):
            tn_group(2, (2, 3))

    def test_small_factor(self):
        with pytest.raises(ValueError):
            tn_group(2, (1, 2))


def order_multiset(t):
    return sorted(t.element_order(x) for x in range(t.order))


class TestTables:
    def test_cyclic2_is_z4(self):
        t = to_table(grp("cyclic", 2))
        t.validate()
        assert t.order == 4 and t.is_abelian()
        assert order_multiset(t) == [1, 2, 4, 4]

    def test_q8_table(self):
        t = to_table(grp("binary-dihedral", 2))
        t.validate()
        assert order_multiset(t) == [1, 2, 4, 4, 4, 4, 4, 4]
        assert len(center(t)) == 2

    def test_tetrahedral_center(self):
        t = to_table(grp("binary-tetrahedral"))
        assert t.order == 24
        assert len(center(t)) == 2

    def test_q8_times_z3_center(self):
        t = direct_product(to_table(grp("binary-dihedral", 2)), cyclic_table(3))
        assert t.order == 24
        assert len(center(t)) == 6

    def test_klein(self):
        t = direct_product(cyclic_table(2), cyclic_table(2))
        assert t.is_abelian() and order_multiset(t) == [1, 2, 2, 2]
        assert abelian_table((2, 2)).mul == t.mul

    def test_symmetric_3(self):
        t = symmetric_table(3)
        t.validate()
        assert t.order == 6 and not t.is_abelian()
        assert len(center(t)) == 1
        assert order_multiset(t) == [1, 2, 2, 2, 3, 3]

    def test_symmetric_4(self):
        t = symmetric_table(4)
        t.validate()
        assert t.order == 24
        assert order_multiset(t).count(4) == 6

    def test_validate_large_tables(self, perturbed_2i_tables):
        assert symmetric_table(5).validate()
        assert to_table(grp("binary-icosahedral")).validate()
        for mul in perturbed_2i_tables:
            with pytest.raises(ValueError, match="associativity"):
                GroupTable(mul).validate()

    def test_validate_rejects_non_latin(self):
        t = GroupTable([[0, 1, 2], [1, 0, 1], [2, 2, 0]])
        with pytest.raises(ValueError):
            t.validate()

    def test_product_associative_up_to_iso(self):
        a, b, c = cyclic_table(4), cyclic_table(2), symmetric_table(3)
        left = direct_product(direct_product(a, b), c)
        right = direct_product(a, direct_product(b, c))
        assert order_multiset(left) == order_multiset(right)

    def test_table_json_roundtrip(self):
        t = symmetric_table(3)
        t2 = GroupTable.from_json(t.to_json())
        assert t2.mul == t.mul and t2.names == t.names

    def test_table_json_declared_order(self):
        doc = symmetric_table(3).to_json()
        assert GroupTable.from_json({"mul": doc["mul"]}).order == 6
        for order in (7, 5, "6", 6.0, None, True):
            with pytest.raises(ValueError, match="order"):
                GroupTable.from_json(dict(doc, order=order))

    def test_subgroup_closure(self):
        t = to_table(grp("binary-dihedral", 3))
        assert closure(t, []) == (t.id,)
        assert closure(t, range(t.order)) == tuple(range(t.order))

    @pytest.mark.parametrize("mul", [
        [[0, 1], [1]],
        [[0, 1], [1, 2]],
        [[0, 1], [1, -1]],
        [[0, 1], [1, True]],
    ])
    def test_malformed_table_rejected(self, mul):
        with pytest.raises(ValueError):
            GroupTable(mul)

    def test_quotient_rejects_non_normal(self):
        t = symmetric_table(3)
        two = next(x for x in range(t.order) if t.element_order(x) == 2)
        with pytest.raises(ValueError):
            quotient_table(t, (t.id, two))


def product_table(g):
    """The slow path: every product of two elements, looked up by index."""
    index = element_index(g)
    return [[index[matmul(a, b)] for b in g.elements] for a in g.elements]


def conjugated_tetrahedral():
    """2T conjugated by a seeded random integer matrix: a custom group whose
    generators are dense and whose enumeration order is its own."""
    rng = random.Random(7)
    while True:
        p = int_mat([[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)], 24)
        if not K.c_is_zero(p.det()):
            break
    q = p.inverse()
    return MatrixGroup([matmul(q, m, p) for m in build_group("tetrahedral").generators])


FAST_TABLE_GROUPS = {
    **{f"C{ell}": (lambda ell=ell: build_group("cyclic", ell)) for ell in range(2, 9)},
    **{f"BD{ell}": (lambda ell=ell: build_group("binary-dihedral", ell))
       for ell in range(2, 9)},
    "2T": lambda: build_group("tetrahedral"),
    "2O": lambda: build_group("octahedral"),
    "2I": lambda: build_group("icosahedral"),
    "T2(2,4)": lambda: tn_group(2, [2, 4]),
    "T3(3,3,6)": lambda: tn_group(3, [3, 3, 6]),
    "2T-conjugated": conjugated_tetrahedral,
}


class TestFastTable:
    @pytest.mark.parametrize("name", list(FAST_TABLE_GROUPS))
    def test_matches_product_table(self, name):
        g = FAST_TABLE_GROUPS[name]()
        t = to_table(g)
        assert [list(r) for r in t.mul] == product_table(g)
        assert t.validate()

    def test_no_matrix_product(self, monkeypatch):
        g = build_group("icosahedral")

        def refuse(*args):
            raise AssertionError("to_table multiplied two scalars")

        monkeypatch.setattr(K, "c_mul", refuse)
        t = to_table(g)
        assert t.order == 120 and t.id == 0


def reference_closure(gens, kind="custom", expected_order=None):
    """The Mat-keyed breadth-first closure that MatrixGroup ran before it
    closed on raw entry tuples: (elements, right, parent) in its order."""
    ident = Mat.identity(gens[0].size, gens[0].n)
    elements, index = [ident], {ident: 0}
    right, parent = [[] for _ in gens], [None]
    frontier = [0]
    while frontier:
        nxt = []
        for i in frontier:
            for k, g in enumerate(gens):
                p = matmul(elements[i], g)
                j = index.get(p)
                if j is None:
                    j = index[p] = len(elements)
                    elements.append(p)
                    parent.append((i, k))
                    nxt.append(j)
                    if len(elements) > CLOSURE_CAP:
                        raise ClosureExplosion(f"closure exceeded {CLOSURE_CAP} elements")
                right[k].append(j)
        frontier = nxt
    if expected_order is not None and len(elements) != expected_order:
        raise ClosureExplosion(
            f"{kind} closed to {len(elements)} elements, expected {expected_order}")
    return elements, right, parent


# det 1, so conjugating by it keeps a group inside SL2 over its own field
CONJUGATOR = ((2, 1), (1, 1))
SHEAR = ((1, 1), (0, 1))


def sheared(g):
    """The custom group s^-1 g s for the shear s: dense generators, and only
    +-I left on the diagonal."""
    s = int_mat(SHEAR, g.conductor)
    t = s.inverse()
    return MatrixGroup([matmul(t, m, s) for m in g.generators])


def conjugated_catalog(kind, ell, seed):
    """A custom group: the catalog generators and one seeded element of the
    catalog group, each conjugated by CONJUGATOR."""
    g = build_group(kind, ell)
    p = int_mat(CONJUGATOR, g.conductor)
    q = p.inverse()
    extra = random.Random(seed).choice(g.elements)
    return MatrixGroup([matmul(q, m, p) for m in g.generators + [extra]])


# a pair with every entry nonzero whose products cancel to 0: a reflection
# and a rotation of order 6 of the hexagonal lattice, generating order 12
CANCELLING_PAIR = (((2, 3), (-1, -2)), ((2, 3), (-1, -1)))
# the 3x3 signed permutations: a 3-cycle, a quarter turn and a sign change
SIGNED_PERMUTATIONS = (((0, 0, 1), (1, 0, 0), (0, 1, 0)),
                       ((0, -1, 0), (1, 0, 0), (0, 0, 1)),
                       ((-1, 0, 0), (0, 1, 0), (0, 0, 1)))
# det 1; conjugating by it makes a 3x3 sum cancel part-way through
UNIMODULAR_3 = ((1, 1, 0), (0, 1, 1), (0, 0, 1))


def conjugated_signed_permutations():
    p = int_mat(UNIMODULAR_3, 3)
    q = p.inverse()
    return MatrixGroup([matmul(q, int_mat(m, 3), p) for m in SIGNED_PERMUTATIONS])


def mixed_icosahedral():
    """2I conjugated by CONJUGATOR, its two dense generators beside -I,
    which every conjugation leaves diagonal."""
    g = build_group("icosahedral")
    p = int_mat(CONJUGATOR, g.conductor)
    q = p.inverse()
    sigma, tau = (matmul(q, m, p) for m in g.generators)
    return MatrixGroup([sigma, -Mat.identity(2, g.conductor), tau])


CLOSURE_GROUPS = {
    **{f"{kind}-{ell}": (lambda kind=kind, ell=ell: build_group(kind, ell))
       for kind, ell in MATMUL_GROUPS},
    "T2(2,2)": lambda: tn_group(2, [2, 2]),
    "T3(3,3,6)": lambda: tn_group(3, [3, 3, 6]),
    "sheared-T2(2,2)": lambda: sheared(tn_group(2, [2, 2])),
    "sheared-BD3": lambda: sheared(build_group("binary-dihedral", 3)),
    "cancelling-pair": lambda: MatrixGroup([int_mat(m, 3) for m in CANCELLING_PAIR]),
    "signed-permutations": lambda: MatrixGroup([int_mat(m) for m in SIGNED_PERMUTATIONS]),
    "conjugated-signed-permutations": conjugated_signed_permutations,
    "mixed-2I": mixed_icosahedral,
    **{f"conjugated-{kind}-{ell}": (lambda kind=kind, ell=ell:
                                    conjugated_catalog(kind, ell, f"{kind}{ell}"))
       for kind, ell in [("cyclic", 4), ("binary-dihedral", 3),
                         ("binary-tetrahedral", None), ("binary-octahedral", None),
                         ("binary-icosahedral", None)]},
}


class TestClosureAgainstReference:
    @pytest.mark.parametrize("name", list(CLOSURE_GROUPS))
    def test_same_group_tables_inverses_and_diagonal(self, name):
        g = CLOSURE_GROUPS[name]()
        elements, right, parent = reference_closure(g.generators)
        assert g.elements == elements
        assert [m.raw for m in g.elements] == [m.raw for m in elements]
        assert g._right == right and g._parent == parent
        index = {m: i for i, m in enumerate(elements)}
        assert [list(r) for r in to_table(g).mul] == [
            [index[matmul(a, b)] for b in elements] for a in elements]
        assert list(to_table(g).inv) == [
            index[m.inverse()] for m in elements]
        # the diagonal elements, in element order, closed under the
        # reference product
        diag = diagonal_subgroup(g)
        assert diag == tuple(i for i, m in enumerate(elements) if m.is_diagonal())
        assert {index[matmul(elements[a], elements[b])] for a in diag for b in diag} == set(diag)

    def test_each_distinct_product_once(self, monkeypatch):
        # every product in the closure is an element's entry times a
        # generator's entry, and each distinct pair of values is multiplied
        # once per build; the determinant check adds two per generator
        gens = build_group("icosahedral").generators
        calls = []
        mul = K.c_mul
        monkeypatch.setattr(K, "c_mul", lambda *a: calls.append(1) or mul(*a))
        g = MatrixGroup(gens)
        entries = {x.raw for m in g.elements for r in m.rows for x in r}
        gen_entries = {x.raw for m in gens for r in m.rows for x in r}
        assert g.order == 120 and (len(entries), len(gen_entries)) == (31, 6)
        assert len(calls) <= len(entries) * len(gen_entries) + 2 * len(gens)

    def test_cancelling_and_signed_orders(self):
        g = CLOSURE_GROUPS["cancelling-pair"]()
        # no generator entry is 0, yet some product entries sum to 0
        assert not any(K.c_is_zero(x) for m in g.generators for x in m.raw)
        assert g.order == 12 and any(K.c_is_zero(x) for m in g.elements for x in m.raw)
        assert CLOSURE_GROUPS["signed-permutations"]().order == 48
        assert CLOSURE_GROUPS["conjugated-signed-permutations"]().order == 48
        assert CLOSURE_GROUPS["mixed-2I"]().order == 120

    @pytest.mark.parametrize("gens", [
        lambda: build_group("binary-dihedral", 5).generators,
        lambda: build_group("cyclic", 6).generators,
        lambda: tn_group(3, [3, 3, 6]).generators,
        lambda: [int_mat(m) for m in SIGNED_PERMUTATIONS]], ids=["BD5", "C6", "T3(3,3,6)", "B3"])
    def test_monomial_generators_take_no_sum(self, monkeypatch, gens):
        # each entry of a product by a monomial generator is one term, so
        # the closure adds only in the determinant check
        gens = gens()
        calls = []
        add = K.c_add
        monkeypatch.setattr(K, "c_add", lambda *a: calls.append(1) or add(*a))
        for m in gens:
            m.det()
        det_sums = len(calls)
        MatrixGroup(gens)
        assert len(calls) == 2 * det_sums

    @pytest.mark.parametrize("rows", [((1, 0), (0, 0)), ((1, 1), (1, 1)),
                                      ((1, 0, 0), (0, 1, 0), (0, 0, 0))],
                             ids=["projection", "rank-1", "3x3"])
    def test_singular_generator_rejected(self, rows):
        # a singular generator closes to a monoid that is not a group
        ident = int_mat([[int(i == j) for j in range(len(rows))]
                         for i in range(len(rows))])
        with pytest.raises(ValueError, match="invertible"):
            MatrixGroup([ident, int_mat(rows)])

    def test_unipotent_generator_explodes(self):
        gens = [int_mat([[1, 1], [0, 1]])]
        message = f"closure exceeded {CLOSURE_CAP} elements"
        with pytest.raises(ClosureExplosion, match=message):
            reference_closure(gens)
        with pytest.raises(ClosureExplosion, match=message):
            MatrixGroup(gens)

    def test_expected_order_mismatch(self):
        gens = build_group("binary-dihedral", 3).generators
        message = "custom closed to 12 elements, expected 13"
        with pytest.raises(ClosureExplosion, match=message):
            reference_closure(gens, expected_order=13)
        with pytest.raises(ClosureExplosion, match=message):
            MatrixGroup(gens, expected_order=13)


def is_trivial(c):
    return all(v == 1 for v in c)


def char_order(c):
    """The order of a character, given by its tuple of values."""
    k, cur = 1, c
    while not is_trivial(cur):
        cur = tuple(a * b for a, b in zip(cur, c))
        k += 1
    return k


class TestCharacters:
    @pytest.mark.parametrize("kind", [
        "binary-tetrahedral", "binary-octahedral", "binary-icosahedral",
    ])
    def test_primitive_kinds_trivial_only(self, kind):
        chars = stab_chars(grp(kind))
        assert len(chars) == 1 and is_trivial(chars[0])

    @pytest.mark.parametrize("ell", [3, 4, 5])
    def test_dihedral_pair(self, ell):
        chars = stab_chars(grp("binary-dihedral", ell))
        assert len(chars) == 2
        assert is_trivial(chars[0])
        assert char_order(chars[1]) == 2

    def test_quaternion_four(self):
        g = grp("binary-dihedral", 2)
        chars = stab_chars(g)
        assert len(chars) == 4
        assert is_trivial(chars[0])
        assert all(char_order(c) == 2 for c in chars[1:])
        # closed under products: the Klein group of characters
        vals = {tuple(v.raw for v in c) for c in chars}
        for c1 in chars:
            for c2 in chars:
                prod = tuple((a * b).raw for a, b in zip(c1, c2))
                assert prod in vals

    @pytest.mark.parametrize("kind,ell", [
        ("binary-dihedral", 2),
        ("binary-dihedral", 3),
        ("binary-dihedral", 4),
        ("binary-tetrahedral", None),
        ("binary-octahedral", None),
        ("binary-icosahedral", None),
    ])
    def test_stabilizer_identity(self, kind, ell):
        # the defining property: gamma(g) tr(g) = tr(g) everywhere
        g = grp(kind, ell)
        traces = [cyc(g.conductor, t) for t in g.traces()]
        for c in stab_chars(g):
            for i, tr in enumerate(traces):
                assert c[i] * tr == tr

    @pytest.mark.parametrize("kind,ell", [
        ("binary-dihedral", 2),
        ("binary-dihedral", 3),
        ("binary-tetrahedral", None),
    ])
    def test_multiplicative(self, kind, ell):
        g = grp(kind, ell)
        t = to_table(g)
        for c in stab_chars(g):
            assert c[t.id] == 1
            for a in range(t.order):
                for b in range(t.order):
                    assert c[t.mul[a][b]] == c[a] * c[b]

    def test_value_at_inverse(self):
        # the value at the inverse, which the isotypic dimension reads, is
        # the inverse of the value
        g = grp("binary-dihedral", 3)
        t = to_table(g)
        for c in stab_chars(g) + lin_chars(g):
            for i in range(g.order):
                assert c[t.inv[i]] * c[i] == 1

    @pytest.mark.parametrize("kind,ell,count", [
        ("cyclic", 3, 6),
        ("binary-dihedral", 2, 4),
        ("binary-dihedral", 3, 4),
        ("binary-dihedral", 4, 4),
        ("binary-tetrahedral", None, 3),
        ("binary-octahedral", None, 2),
        ("binary-icosahedral", None, 1),
    ])
    def test_linear_character_counts(self, kind, ell, count):
        chars = lin_chars(grp(kind, ell))
        assert len(chars) == count
        assert len(set(chars)) == count
        assert is_trivial(chars[0])

    def test_cyclic_characters_complete(self):
        # element k of cyclic(3) is g^k, so each character is k -> zeta_6^(jk)
        # for a distinct j; together they exhaust j = 0..5
        g = grp("cyclic", 3)
        powers = [zeta(6) ** k for k in range(6)]
        seen = set()
        for c in lin_chars(g):
            j = powers.index(c[1])
            for k in range(6):
                assert c[k] == powers[(j * k) % 6]
            seen.add(j)
        assert seen == set(range(6))

    def test_nonabelian_quotient_guard(self):
        g = grp("binary-dihedral", 3)
        with pytest.raises(NonAbelianQuotient):
            characters_from_quotient(g, (to_table(g).id,))


class TestDiagonalSubgroup:
    @pytest.mark.parametrize("kind,ell,diag_order", [
        ("binary-dihedral", 2, 4),
        ("binary-tetrahedral", None, 4),
        ("binary-octahedral", None, 8),
        ("binary-icosahedral", None, 10),
    ])
    def test_diagonal_subgroup_order(self, kind, ell, diag_order):
        g = grp(kind, ell)
        diag = diagonal_subgroup(g)
        assert len(diag) == diag_order
        assert g.order % len(diag) == 0


class TestJson:
    def test_mat_roundtrip(self):
        m = grp("binary-icosahedral").generators[1]
        assert mat_from_json(mat_to_json(m)) == m

    def test_catalog_group_roundtrip(self):
        g = grp("binary-dihedral", 3)
        g2 = MatrixGroup.from_json(g.to_json())
        assert g2.kind == g.kind and g2.ell == 3 and g2.order == g.order

    def test_custom_group_roundtrip(self):
        g = grp("binary-dihedral", 2)
        blob = g.to_json()
        blob["kind"] = "custom"
        g2 = MatrixGroup.from_json(blob)
        assert set(g2.elements) == set(g.elements)
