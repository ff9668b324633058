"""The arithmetic kernel against independent references.

Scalar products and the Galois maps zeta -> zeta^k are checked against
Fraction polynomial arithmetic reduced mod Phi_n, with Phi_n computed here
from x^n - 1; substitution columns
against expanding u^(d-j) v^j one linear factor at a time; table closure
against a naive fixed point; matrix inverses against M * M^-1 = I. Inputs
come from seeded generators, so runs are reproducible.
"""

import random
from fractions import Fraction
from functools import lru_cache
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equimap import _kernel as K
from equimap.groups import Mat, cyclic_table, direct_product, symmetric_table
from equimap.scalars import CycNum, _map_basis, get_context

CONDUCTORS = [1, 3, 4, 5, 7, 12]


def raw(rng, ctx, span=9):
    nums = [rng.randint(-span, span) for _ in range(ctx.phi)]
    return K.c_norm(nums, rng.randint(1, 12))


def nonzero_raw(rng, ctx):
    while True:
        a = raw(rng, ctx)
        if not K.c_is_zero(a):
            return a


# --- Fraction polynomial reference, ascending coefficient lists ----------------


def _divmod_monic(p, q):
    rem = list(p)
    quot = [Fraction(0)] * max(len(p) - len(q) + 1, 1)
    for k in range(len(rem) - len(q), -1, -1):
        c = rem[k + len(q) - 1]
        quot[k] = c
        for j, t in enumerate(q):
            rem[k + j] -= c * t
    return quot, rem[:len(q) - 1]


@lru_cache(maxsize=None)
def cyclotomic(n):
    """Phi_n = (x^n - 1) / prod over proper divisors d of n of Phi_d."""
    p = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]
    for d in range(1, n):
        if n % d == 0:
            p, rem = _divmod_monic(p, cyclotomic(d))
            assert not any(rem)
    return tuple(p)


def value(a):
    """A kernel scalar as its Fraction coordinates."""
    return [Fraction(v, a[-1]) for v in a[:-1]]


def ref_reduce(prod, n):
    """Coordinates of a Fraction polynomial mod Phi_n."""
    phi_n = cyclotomic(n)
    if len(prod) < len(phi_n):
        return prod + [Fraction(0)] * (len(phi_n) - 1 - len(prod))
    return _divmod_monic(prod, phi_n)[1]


def ref_mul(a, b, n):
    pa, pb = value(a), value(b)
    prod = [Fraction(0)] * (len(pa) + len(pb) - 1)
    for i, x in enumerate(pa):
        for j, y in enumerate(pb):
            prod[i + j] += x * y
    return ref_reduce(prod, n)


def ref_galois(a, k, n):
    """a(x^k) mod Phi_n."""
    pa = value(a)
    img = [Fraction(0)] * (k * (len(pa) - 1) + 1)
    for i, x in enumerate(pa):
        img[k * i] += x
    return ref_reduce(img, n)


def units(n):
    return [k for k in range(1, max(n, 2)) if gcd(k, n) == 1]


def is_canonical(a):
    den = a[-1]
    if den <= 0:
        return False
    if not any(a[:-1]):
        return a[-1] == 1
    g = den
    for v in a[:-1]:
        g = gcd(g, v)
    return g == 1


class TestReference:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 8, 12])
    def test_cyclotomic_degrees(self, n):
        assert len(cyclotomic(n)) - 1 == get_context(n).phi


class TestScalarOps:
    @pytest.mark.parametrize("n", CONDUCTORS)
    def test_mul_add_sub_against_fractions(self, n):
        ctx = get_context(n)
        rng = random.Random(0x1202 + n)
        for _ in range(120):
            a, b = raw(rng, ctx), raw(rng, ctx)
            prod = K.c_mul(a, b, ctx.red, ctx.phi)
            total = K.c_add(a, b)
            diff = K.c_sub(a, b)
            for got in (prod, total, diff):
                assert len(got) == ctx.phi + 1 and is_canonical(got)
            assert value(prod) == ref_mul(a, b, n)
            assert value(total) == [x + y for x, y in zip(value(a), value(b))]
            assert value(diff) == [x - y for x, y in zip(value(a), value(b))]

    @pytest.mark.parametrize("n", CONDUCTORS + [2, 8, 15, 16, 20, 24, 28])
    def test_mul_by_inverse_is_one(self, n):
        ctx = get_context(n)
        rng = random.Random(0x1203 + n)
        for _ in range(40):
            a = nonzero_raw(rng, ctx)
            assert K.c_mul(a, ctx.inv(a), ctx.red, ctx.phi) == ctx.one

    def test_big_numerators_survive(self):
        ctx = get_context(5)
        big = (10**40, -(3**70), 7**30, 1, 10**25 + 1)
        sq = K.c_mul(big, big, ctx.red, ctx.phi)
        assert value(sq) == ref_mul(big, big, 5)
        assert max(abs(v) for v in sq) > 10**75


@st.composite
def field_pairs(draw):
    n = draw(st.sampled_from([1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 16, 20]))
    phi = get_context(n).phi
    vec = st.lists(st.integers(-12, 12), min_size=phi, max_size=phi)
    den = st.integers(1, 9)
    a = K.c_norm(draw(vec), draw(den))
    b = K.c_norm(draw(vec), draw(den))
    return n, a, b


class TestGalois:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(field_pairs())
    def test_sigma_is_ring_automorphism(self, case):
        n, a, b = case
        ctx = get_context(n)
        for k in units(n):
            sa, sb = _map_basis(a, ctx, k), _map_basis(b, ctx, k)
            assert value(sa) == ref_galois(a, k, n)
            prod = _map_basis(K.c_mul(a, b, ctx.red, ctx.phi), ctx, k)
            assert value(prod) == ref_mul(sa, sb, n)
            assert _map_basis(K.c_add(a, b), ctx, k) == K.c_add(sa, sb)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(field_pairs())
    def test_composition_and_norm(self, case):
        n, a, _ = case
        ctx = get_context(n)
        norm = ctx.one
        for j in units(n):
            sj = _map_basis(a, ctx, j)
            norm = K.c_mul(norm, sj, ctx.red, ctx.phi)
            for k in units(n):
                assert _map_basis(sj, ctx, k) == _map_basis(a, ctx, j * k % n)
        assert not any(norm[1:ctx.phi])


class TestNorm:
    def test_fixed_cases(self):
        assert K.c_norm([0, 0], 7) == (0, 0, 1)
        assert K.c_norm([0], -5) == (0, 1)
        assert K.c_norm([2, -4], -6) == (-1, 2, 3)
        assert K.c_norm([3], 3) == (1, 1)
        assert K.c_norm([6, 9, 12, 0], 15) == (2, 3, 4, 0, 5)

    def test_random_canonical_and_equal(self):
        rng = random.Random(0x1201)
        for _ in range(300):
            phi = rng.choice([1, 2, 4, 6])
            nums = [rng.choice([0, rng.randint(-40, 40)]) for _ in range(phi)]
            den = rng.choice([-24, -7, -1, 1, 2, 9, 30])
            got = K.c_norm(list(nums), den)
            assert is_canonical(got)
            assert value(got) == [Fraction(v, den) for v in nums]
            if not any(nums):
                assert got == (0,) * phi + (1,)


class TestSubstCols:
    @pytest.mark.parametrize("n", [1, 4, 5, 12])
    def test_columns_against_expansion(self, n):
        ctx = get_context(n)
        rng = random.Random(0x1209 + n)
        zero = CycNum._wrap(n, ctx.zero)
        for _ in range(10):
            entries = [raw(rng, ctx, span=3) for _ in range(4)]
            m00, m01, m10, m11 = (CycNum._wrap(n, e) for e in entries)
            d = rng.randint(0, 5)
            cols = K.subst_cols(*entries, d, ctx.red, ctx.phi)
            assert len(cols) == d + 1
            for j, col in enumerate(cols):
                # coefficients of x^(d-i) y^i in u^(d-j) v^j
                form = [CycNum._wrap(n, ctx.one)]
                for a, b in [(m00, m01)] * (d - j) + [(m10, m11)] * j:
                    nxt = [zero] * (len(form) + 1)
                    for i, c in enumerate(form):
                        nxt[i] = nxt[i] + a * c
                        nxt[i + 1] = nxt[i + 1] + b * c
                    form = nxt
                assert col == [c.raw for c in form]


def naive_closure(t, seed):
    elems = set(seed)
    while True:
        grown = elems | {t.mul[a][b] for a in elems for b in elems}
        if grown == elems:
            return tuple(sorted(elems))
        elems = grown


class TestTableClose:
    @pytest.mark.parametrize("table", [
        cyclic_table(12),
        symmetric_table(4),
        direct_product(symmetric_table(3), cyclic_table(4)),
    ])
    def test_random_seeds(self, table):
        rng = random.Random(0x120A + table.order)
        for _ in range(30):
            seed = tuple(rng.randrange(table.order) for _ in range(rng.randint(0, 3)))
            assert K.table_close(table.mul, table.order, seed) == naive_closure(table, seed)


class TestMatInverse:
    @pytest.mark.parametrize("n", [1, 4, 5])
    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_product_is_identity(self, n, size):
        ctx = get_context(n)
        rng = random.Random(0x120B + 10 * n + size)
        ident = Mat.identity(size, n)
        checked = 0
        for _ in range(12):
            m = Mat([[CycNum._wrap(n, raw(rng, ctx, span=4)) for _ in range(size)]
                     for _ in range(size)])
            if m.det().is_zero():
                continue
            inv = m.inverse()
            assert m @ inv == ident and inv @ m == ident
            checked += 1
        assert checked

    @pytest.mark.parametrize("rows", [
        [[0]],
        [[1, 2], [2, 4]],
        [[1, 2, 3], [4, 5, 6], [5, 7, 9]],
    ])
    def test_singular_raises(self, rows):
        m = Mat([[CycNum.from_rational(v, 4) for v in r] for r in rows])
        with pytest.raises(ZeroDivisionError):
            m.inverse()
