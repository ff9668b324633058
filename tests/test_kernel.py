"""The arithmetic kernel against independent references.

Scalar products and the Galois maps zeta -> zeta^k are checked against
Fraction polynomial arithmetic reduced mod Phi_n, with Phi_n computed here
from x^n - 1; substitution columns against expanding u^(d-j) v^j one linear
factor at a time and, on catalog group elements and the shears and singular
matrices that reach every branch, against the O(d^3) product of powers that
the column recurrence replaced; substituted forms against the same product
and against the homogeneous Horner route that the LDU factorisation
replaced, also on the unit monomials of isotypic pieces, whose zero
coefficients take no product; power tables that stop at their period
against the plain loop of k products; the Taylor shift by 1 against
binomial sums of Fractions; the phi = 1 path of the atoms against
Fraction; table closure against a naive fixed point and against the
O(|K|^2) closure that Dimino's algorithm replaced, and a closure extended
from a closed subgroup against the closure from scratch; matrix inverses
against M * M^-1 = I. Inputs come from seeded generators, so runs are
reproducible.
"""

import random
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equimap import _kernel as K
from equimap.forms import _isotypic_rows, isotypic_dimension
from equimap.groups import (
    GroupTable, Mat, abelian_table, build_group, closure, cyclic_table, direct_product,
    symmetric_table, to_table,
)
from equimap.scalars import CycNum, _map_basis, cyc_embed, get_context, one, zero, zeta
from test_groups import matmul

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


# --- the scalar atoms' fast paths against the Fraction reference --------------

PROPERTY_CONDUCTORS = [1, 2, 3, 4, 5, 8, 12, 20, 28]
KINDS = ["one", "zero", "integer", "rational", "integral", "general"]


def canon(nums, den):
    """The canonical tuple of nums/den, built without the kernel."""
    if den < 0:
        nums, den = [-v for v in nums], -den
    g = gcd(den, *nums)
    return tuple(v // g for v in nums) + (den // g,)


def scalar_of_kind(kind, phi, ints, den):
    """A canonical scalar of one of KINDS from the draws `ints` (phi integers)
    and `den` (a positive integer): the unit, zero, an integer, k/m, phi
    integer numerators over 1, or phi numerators over `den`."""
    pad = [0] * (phi - 1)
    if kind == "one":
        return canon([1] + pad, 1)
    if kind == "zero":
        return canon([0] * phi, 1)
    if kind == "integer":
        return canon([ints[0] or 1] + pad, 1)
    if kind == "rational":
        return canon([ints[0] or 1] + pad, den + 1)
    return canon(ints, 1 if kind == "integral" else den)


def check_atoms(n, a, b):
    """c_mul, c_add, c_sub and c_is_zero on (a, b) against Fractions."""
    ctx = get_context(n)
    va, vb = value(a), value(b)
    prod = K.c_mul(a, b, ctx.red, ctx.phi)
    assert prod == K.c_mul(b, a, ctx.red, ctx.phi)
    assert value(prod) == ref_mul(a, b, n)
    total, diff = K.c_add(a, b), K.c_sub(a, b)
    assert value(total) == [x + y for x, y in zip(va, vb)]
    assert value(diff) == [x - y for x, y in zip(va, vb)]
    for got in (prod, total, diff):
        assert len(got) == ctx.phi + 1 and is_canonical(got)
        assert K.c_norm(list(got[:-1]), got[-1]) == got
    for x in (a, b, prod, total, diff):
        assert K.c_is_zero(x) == (not any(value(x)))


@st.composite
def atom_cases(draw):
    n = draw(st.sampled_from(PROPERTY_CONDUCTORS))
    phi = get_context(n).phi
    ops = []
    for _ in range(2):
        kind = draw(st.sampled_from(KINDS))
        ints = draw(st.lists(st.integers(-30, 30), min_size=phi, max_size=phi))
        ops.append(scalar_of_kind(kind, phi, ints, draw(st.integers(1, 12))))
    return n, ops[0], ops[1]


class TestAtomFastPaths:
    """Every branch of the atoms: phi = 1 (conductors 1 and 2), a rational
    operand on either side, both denominators 1, mixed denominators."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(atom_cases())
    def test_against_fractions(self, case):
        check_atoms(*case)

    @pytest.mark.parametrize("n", PROPERTY_CONDUCTORS)
    def test_every_pair_of_kinds(self, n):
        phi = get_context(n).phi
        rng = random.Random(0x1204 + n)
        for ka in KINDS:
            for kb in KINDS:
                for _ in range(4):
                    a, b = (scalar_of_kind(k, phi,
                                           [rng.randint(-30, 30) for _ in range(phi)],
                                           rng.randint(1, 12))
                            for k in (ka, kb))
                    check_atoms(n, a, b)

    def test_operand_returned_by_the_unit(self):
        ctx = get_context(12)
        a = canon([3, -1, 0, 2], 5)
        assert K.c_mul(ctx.one, a, ctx.red, ctx.phi) is a
        assert K.c_mul(a, ctx.one, ctx.red, ctx.phi) is a
        assert K.c_mul(a, ctx.zero, ctx.red, ctx.phi) == ctx.zero


def fraction_raw(q):
    return (q.numerator, q.denominator)


def check_phi1(n, p, q):
    """c_add, c_sub, c_mul and c_neg at phi = 1 on the Fractions p and q:
    equal to the Fraction results and canonical, with zero as (0, 1)."""
    ctx = get_context(n)
    a, b = fraction_raw(p), fraction_raw(q)
    for got, want in ((K.c_add(a, b), p + q), (K.c_sub(a, b), p - q),
                      (K.c_mul(a, b, ctx.red, ctx.phi), p * q), (K.c_neg(a), -p)):
        assert got == fraction_raw(want) and is_canonical(got)


@st.composite
def phi1_cases(draw):
    """Two Fractions over denominators drawn to meet: equal ones, coprime
    ones, ones sharing a factor, and 1; the second is sometimes -p, so the
    sum is zero."""
    dens = st.sampled_from([1, 2, 3, 4, 6, 9, 12, 35, 36, 10 ** 12, 2 ** 40 * 3])
    p = Fraction(draw(st.integers(-10 ** 15, 10 ** 15)), draw(dens))
    kind = draw(st.sampled_from(["free", "same-den", "neg"]))
    if kind == "neg":
        return draw(st.sampled_from([1, 2])), p, -p
    den = p.denominator if kind == "same-den" else draw(dens)
    return draw(st.sampled_from([1, 2])), p, Fraction(draw(st.integers(-10 ** 15, 10 ** 15)),
                                                      den)


class TestPhiOnePath:
    """The phi = 1 path of the atoms (conductors 1 and 2), where a raw scalar
    is a fraction (num, den): against Fraction, canonical, and never through
    c_norm."""

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(phi1_cases())
    def test_against_fractions(self, case):
        check_phi1(*case)

    @pytest.mark.parametrize("n", [1, 2])
    def test_fixed_cases(self, n):
        F = Fraction
        cases = [
            (F(1, 6), F(1, 6)),      # equal denominators that cancel: 1/3
            (F(5, 6), F(1, 6)),      # ... down to an integer
            (F(1, 4), F(3, 4)),
            (F(2, 3), F(3, 5)),      # coprime denominators
            (F(1, 6), F(1, 10)),     # gcd 2 of the denominators, cancels
            (F(1, 6), F(5, 6 * 7)),  # gcd 6, leaves 2/7
            (F(3, 4), F(-3, 4)),     # sums to zero
            (F(-7, 12), F(7, 12)),
            (F(-1, 3), F(-2, 3)),    # negative operands
            (F(-5, 9), F(4, 15)),
            (F(0), F(-5, 8)),
            (F(-4), F(3, 8)),        # an integer and a fraction
            (F(6), F(1, 4)),
            (F(0), F(0)),
        ]
        for p, q in cases:
            check_phi1(n, p, q)
            check_phi1(n, q, p)
        ctx = get_context(n)
        assert K.c_add((1, 6), (1, 6)) == (1, 3)
        assert K.c_add((3, 4), (-3, 4)) == K.c_sub((2, 5), (2, 5)) == ctx.zero
        assert K.c_mul((0, 1), (-5, 8), ctx.red, ctx.phi) == ctx.zero
        assert K.c_mul((-2, 3), (9, 4), ctx.red, ctx.phi) == (-3, 2)

    def test_never_calls_c_norm(self, monkeypatch):
        def boom(nums, den):
            raise AssertionError("c_norm called at phi = 1")

        monkeypatch.setattr(K, "c_norm", boom)
        rng = random.Random(0x1205)
        for n in (1, 2):
            ctx = get_context(n)
            for _ in range(300):
                p, q = (Fraction(rng.randint(-50, 50), rng.choice([1, 2, 3, 6, 7, 12, 30]))
                        for _ in range(2))
                check_phi1(n, p, q)
                a, b = fraction_raw(p), fraction_raw(q)
                assert K.c_add(K.c_mul(a, b, ctx.red, ctx.phi), K.c_neg(a)) == \
                    fraction_raw(p * q - p)


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


def lin_mul(p, a, b, red, phi):
    """p times the linear form a*x + b*y, both in the dense basis."""
    zero = (0,) * phi + (1,)
    out = K.row_scale(p, a, red, phi) + [zero]
    K.vec_axpy(out, b, [zero] + p, red, phi)
    return out


def subst_cols(m00, m01, m10, m11, d, red, phi, inv):
    """Columns of the degree-d substitution matrix for x -> u = m00*x + m01*y,
    y -> v = m10*x + m11*y, the reference for `subst_forms` and for the
    projector route of the isotypic pieces. Column j lists the coefficients
    of u^(d-j) * v^j in the dense basis x^d, x^(d-1)y, ..., y^d.

    Column 0 is u^d by the binomial theorem; column j+1 is column j times v,
    divided exactly by u, O(d^2) scalar products in all. `inv` maps a
    nonzero scalar to its inverse, and u must be nonzero. With m00 = 0 the
    roles of x and y swap (u = m01*y).
    """
    swap = K.c_is_zero(m00)
    if swap:
        m00, m01, m10, m11 = m01, m00, m11, m10
    one = (1,) + (0,) * (phi - 1) + (1,)
    p00, p01 = [one], [one]
    for _ in range(d):
        p00.append(K.c_mul(p00[-1], m00, red, phi))
        p01.append(K.c_mul(p01[-1], m01, red, phi))
    col = []
    binom = 1
    for i in range(d + 1):
        col.append(K.c_mul((binom,) + (0,) * (phi - 1) + (1,),
                           K.c_mul(p00[d - i], p01[i], red, phi), red, phi))
        binom = binom * (d - i) // (i + 1)
    # q = c*v/u is c*(a*x + b*y) with a = m10/m00, b = m11/m00, cut to
    # degree d, then q[i] += t*q[i-1] for t = -m01/m00 (synthetic division)
    s = inv(m00)
    a = K.c_mul(s, m10, red, phi)
    b = K.c_mul(s, m11, red, phi)
    t = K.c_neg(K.c_mul(s, m01, red, phi))
    cols = [col]
    for _ in range(d):
        col = lin_mul(col, a, b, red, phi)[:d + 1]
        if not K.c_is_zero(t):
            for i in range(1, d + 1):
                if not K.c_is_zero(col[i - 1]):
                    col[i] = K.c_add(col[i], K.c_mul(t, col[i - 1], red, phi))
        cols.append(col)
    return [col[::-1] for col in cols] if swap else cols


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
            cols = subst_cols(*entries, d, ctx.red, ctx.phi, ctx.inv)
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


def ref_subst_cols(m00, m01, m10, m11, d, red, phi):
    """Substitution columns as products of powers: every u^k and v^k, then
    one poly_mul per column, O(d^3) scalar products in all."""
    one = (1,) + (0,) * (phi - 1) + (1,)
    u = [m00, m01]
    v = [m10, m11]
    upow = [[one]]
    for k in range(d):
        upow.append(K.poly_mul(upow[-1], u, red, phi))
    vpow = [[one]]
    for k in range(d):
        vpow.append(K.poly_mul(vpow[-1], v, red, phi))
    return [K.poly_mul(upow[d - j], vpow[j], red, phi) for j in range(d + 1)]


CATALOG = ([("cyclic", ell) for ell in range(2, 9)]
           + [("binary-dihedral", ell) for ell in range(2, 9)]
           + [(kind, None) for kind in
              ("binary-tetrahedral", "binary-octahedral", "binary-icosahedral")])


def ref_subst_forms(forms, m00, m01, m10, m11, red, phi):
    """Substituted forms by homogeneous Horner, acc <- acc*u + coeffs[j]*v^j,
    in lockstep so that one v^j serves step j of every form: O(d^2) scalar
    products per form, the route that the LDU factorisation replaced."""
    one = (1,) + (0,) * (phi - 1) + (1,)
    accs = [[coeffs[0]] for coeffs in forms]
    vpow = [one]
    for j in range(1, max(len(coeffs) for coeffs in forms)):
        vpow = lin_mul(vpow, m10, m11, red, phi)
        for k, coeffs in enumerate(forms):
            if j < len(coeffs):
                acc = lin_mul(accs[k], m00, m01, red, phi)
                K.vec_axpy(acc, coeffs[j], vpow, red, phi)
                accs[k] = acc
    return accs


def probe_matrices(kind, ell, rng):
    """(conductor, entries) of 2x2 matrices over the group's field that reach
    every branch of `subst_forms`: two seeded elements of the group; one with
    m00 = 0 (rows swapped where the group has none); one with m01 = 0 other
    than the identity; an upper shear (m10 = 0, m01 != 0) and a lower one
    built from its entries; the singular matrices with m00 = m10 = 0 and
    with m00 != 0, q = det/m00 = 0; and a seeded element lifted to twice the
    conductor."""
    g = build_group(kind, ell)
    n = g.conductor
    ident = Mat.identity(2, n)
    picks = [rng.choice(g.elements) for _ in range(2)]
    picks.append(next((m for m in g.elements if m.rows[0][0].is_zero()),
                      Mat([picks[0].rows[1], picks[0].rows[0]])))
    picks.append(next(m for m in g.elements if m.rows[0][1].is_zero() and m != ident))
    out = [(n, [x.raw for row in m.rows for x in row]) for m in picks]
    # small entries from the group: a, e != 0 on the diagonal of picks[3],
    # b the m01 of picks[0] or else a
    a, _, _, e = out[3][1]
    b = out[0][1][1] if not K.c_is_zero(out[0][1][1]) else a
    ctx = get_context(n)
    ea, eb = (K.c_mul(e, x, ctx.red, ctx.phi) for x in (a, b))
    out += [(n, [a, b, ctx.zero, e]), (n, [a, ctx.zero, b, e]),
            (n, [ctx.zero, a, ctx.zero, e]), (n, [a, b, ea, eb])]
    lifted = rng.choice(g.elements)
    out.append((2 * n, [cyc_embed(x, 2 * n).raw for row in lifted.rows for x in row]))
    return out


def seeded_coeffs(rng, ctx, d):
    """d+1 seeded coefficients: one zero, one over a denominator above 1."""
    coeffs = [raw(rng, ctx) for _ in range(d + 1)]
    coeffs[rng.randrange(d + 1)] = K.c_norm([rng.randint(1, 9)] * ctx.phi, rng.randint(2, 12))
    coeffs[rng.randrange(d + 1)] = ctx.zero
    return coeffs


class TestSubstitutionAgainstPowers:
    @pytest.mark.parametrize("kind,ell", CATALOG)
    def test_recurrence_and_horner(self, kind, ell):
        rng = random.Random(f"{kind}{ell}")
        probes = probe_matrices(kind, ell, rng)
        for i in range(4):
            assert any(K.c_is_zero(e[i]) for _, e in probes)
        for n, entries in probes:
            ctx = get_context(n)
            for d in (0, 1, 2, 3, 11, 39):
                ref = ref_subst_cols(*entries, d, ctx.red, ctx.phi)
                assert subst_cols(*entries, d, ctx.red, ctx.phi, ctx.inv) == ref
                coeffs = seeded_coeffs(rng, ctx, d)
                want = [ctx.zero] * (d + 1)
                for c, col in zip(coeffs, ref):
                    K.vec_axpy(want, c, col, ctx.red, ctx.phi)
                assert ref_subst_forms([coeffs], *entries, ctx.red, ctx.phi) == [want]
                assert K.subst_forms([coeffs], *entries, ctx.red, ctx.phi, ctx.inv) == [want]

    @pytest.mark.parametrize("kind,ell", [
        ("cyclic", 3), ("binary-dihedral", 5), ("binary-tetrahedral", None),
        ("binary-octahedral", None), ("binary-icosahedral", None)])
    def test_degree_121_against_horner(self, kind, ell):
        rng = random.Random(f"121{kind}{ell}")
        for n, entries in probe_matrices(kind, ell, rng):
            ctx = get_context(n)
            coeffs = seeded_coeffs(rng, ctx, 121)
            assert (K.subst_forms([coeffs], *entries, ctx.red, ctx.phi, ctx.inv)
                    == ref_subst_forms([coeffs], *entries, ctx.red, ctx.phi))

    @pytest.mark.parametrize("kind,ell", CATALOG)
    def test_forms_in_lockstep(self, kind, ell):
        # several forms of mixed degrees under one matrix, against Horner and
        # against one substitution per form
        rng = random.Random(f"lockstep{kind}{ell}")
        for n, entries in probe_matrices(kind, ell, rng):
            ctx = get_context(n)
            for degrees in ((0,), (3, 3), (7, 8, 8), (12, 0, 5), (1, 39, 2, 39)):
                forms = [seeded_coeffs(rng, ctx, d) for d in degrees]
                got = K.subst_forms(forms, *entries, ctx.red, ctx.phi, ctx.inv)
                assert got == ref_subst_forms(forms, *entries, ctx.red, ctx.phi)
                assert got == [K.subst_forms([c], *entries, ctx.red, ctx.phi, ctx.inv)[0]
                               for c in forms]

    @pytest.mark.parametrize("kind,ell", CATALOG)
    def test_one_inverse_at_most(self, kind, ell):
        """A call takes at most one inverse, none for a diagonal or an
        anti-diagonal matrix, and never the inverse of zero."""
        rng = random.Random(f"inverses{kind}{ell}")
        for n, entries in probe_matrices(kind, ell, rng):
            ctx = get_context(n)
            calls = []

            def inv(x):
                calls.append(x)
                return ctx.inv(x)

            forms = [seeded_coeffs(rng, ctx, d) for d in (4, 5)]
            K.subst_forms(forms, *entries, ctx.red, ctx.phi, inv)
            m00, m01, m10, m11 = (K.c_is_zero(x) for x in entries)
            assert len(calls) <= (0 if (m01 and m10) or (m00 and m11) else 1)


    def test_zero_coefficients_take_no_product(self, monkeypatch):
        # the trivial pieces of BD(2) substitute unit monomials: a zero
        # coefficient is skipped in every scaling, so the products inside
        # subst_forms fall from 1,176 (one per coefficient and factor) and
        # the images are Horner's
        g = build_group("binary-dihedral", 2)
        ctx = get_context(g.conductor)
        triv = (ctx.one,) * g.order
        calls, inside = [], []
        mul, subst = K.c_mul, K.subst_forms

        def counted_mul(*args):
            if inside:
                calls.append(1)
            return mul(*args)

        def checked_subst(forms, *entries):
            inside.append(True)
            got = subst(forms, *entries)
            inside.pop()
            assert got == ref_subst_forms(forms, *entries[:4], ctx.red, ctx.phi)
            return got

        monkeypatch.setattr(K, "c_mul", counted_mul)
        monkeypatch.setattr(K, "subst_forms", checked_subst)
        for d in (4, 20, 38):
            _isotypic_rows(g, [triv], [isotypic_dimension(g, triv, d)], d)
        assert 0 < len(calls) < 1176


def ref_powers(x, k, red, phi):
    """[1, x, ..., x^k] by k products, the loop that the periodic one
    replaced."""
    out = [(1,) + (0,) * (phi - 1) + (1,)]
    for _ in range(k):
        out.append(K.c_mul(out[-1], x, red, phi))
    return out


def power_cases(n):
    """(raw value, its multiplicative order or None) over conductor n:
    seeded +-zeta^j, 1, -1, 0 and the non-root 1 + zeta (2 at n = 1)."""
    rng = random.Random(f"powers{n}")
    vals = [zeta(n, j) for j in rng.sample(range(n), min(n, 3))]
    vals += [-v for v in vals] + [one(n), -one(n), zero(n), 1 + zeta(n)]
    return [(v.raw, next((p for p in range(1, 2 * n + 1) if v ** p == 1), None))
            for v in vals]


class TestPowersPeriod:
    @pytest.mark.parametrize("n", [1, 4, 8, 20, 24])
    def test_against_the_plain_loop(self, n):
        ctx = get_context(n)
        for x, order in power_cases(n):
            p = order or n
            for k in (0, 1, p - 1, p, p + 1, 3 * p + 2, 120):
                got = K.powers(x, k, ctx.red, ctx.phi)
                assert got == ref_powers(x, k, ctx.red, ctx.phi)
                assert all(type(y) is tuple for y in got)

    @pytest.mark.parametrize("x,k,products", [
        (zeta(20), 120, 20), (zeta(20), 7, 7), (-one(1), 120, 2), (one(8), 5, 1),
        (one(24), 0, 0), (1 + zeta(20), 45, 45)],
        ids=["zeta20-past", "zeta20-short", "minus-one", "one", "k0", "non-root"])
    def test_products_stop_at_the_period(self, monkeypatch, x, k, products):
        # a root of unity of order p takes min(k, p) products; a non-root k
        ctx = get_context(x.n)
        calls = []
        mul = K.c_mul
        monkeypatch.setattr(K, "c_mul", lambda *a: calls.append(1) or mul(*a))
        got = K.powers(x.raw, k, ctx.red, ctx.phi)
        monkeypatch.undo()
        assert got == ref_powers(x.raw, k, ctx.red, ctx.phi)
        assert len(calls) == products


@st.composite
def shift_cases(draw):
    n = draw(st.sampled_from([1, 3, 4, 5, 12]))
    phi = get_context(n).phi
    kind = st.sampled_from(KINDS)
    vals = []
    for _ in range(draw(st.integers(1, 14))):
        ints = draw(st.lists(st.integers(-40, 40), min_size=phi, max_size=phi))
        vals.append(scalar_of_kind(draw(kind), phi, ints, draw(st.integers(1, 12))))
    return n, vals


class TestShiftByOne:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(shift_cases())
    def test_against_binomial_sums(self, case):
        n, vals = case
        phi = get_context(n).phi
        got = K.shift_by_one(vals, phi)
        assert len(got) == len(vals)
        for k, x in enumerate(got):
            assert is_canonical(x)
            want = [sum((comb(j, k) * value(vals[j])[i] for j in range(k, len(vals))),
                        Fraction(0)) for i in range(phi)]
            assert value(x) == want


def naive_closure(t, seed):
    elems = set(seed)
    while True:
        grown = elems | {t.mul[a][b] for a in elems for b in elems}
        if grown == elems:
            return tuple(sorted(elems))
        elems = grown


def reference_close(mul, seed):
    """The O(|K|^2) closure that Dimino's algorithm replaced: each queued
    element times every element reached so far, on both sides."""
    elems = set(seed)
    queue = list(elems)
    while queue:
        a = queue.pop()
        row = mul[a]
        for b in tuple(elems):
            for c in (row[b], mul[b][a]):
                if c not in elems:
                    elems.add(c)
                    queue.append(c)
    return tuple(sorted(elems))


CLOSE_CATALOG = [(kind, ell) for kind, ell in CATALOG if kind != "binary-icosahedral"]


@lru_cache(maxsize=None)
def base_tables():
    return {"(Z/2)^5": abelian_table([2] * 5), "S5": symmetric_table(5),
            "S3xS4": direct_product(symmetric_table(3), symmetric_table(4)),
            "2O": to_table(build_group("octahedral"))}


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

    @pytest.mark.parametrize("kind,ell", CLOSE_CATALOG)
    def test_against_reference(self, kind, ell):
        """Every catalog table up to order 48: seeded seeds of length 0-4,
        seeds that start with the identity or repeat elements, the whole
        group in both orders."""
        t = to_table(build_group(kind, ell))
        n = t.order
        assert n <= 48
        rng = random.Random(f"close{kind}{ell}")
        seeds = [tuple(rng.randrange(n) for _ in range(k))
                 for k in range(5) for _ in range(10)]
        for _ in range(5):
            x, y = rng.randrange(n), rng.randrange(n)
            seeds += [(t.id, x), (t.id, x, y), (x, x, y, x, y), (x, t.id, x)]
        seeds += [tuple(range(n)), tuple(range(n - 1, -1, -1))]
        for seed in seeds:
            assert K.table_close(t.mul, n, seed) == reference_close(t.mul, seed), seed

    @pytest.mark.parametrize("name", ["(Z/2)^5", "S5", "S3xS4", "2O"])
    def test_extension_from_a_closed_base(self, name):
        """<H, seed> closed from H and its generators equals the closure of
        the generators and seed from scratch, on seeded H and seeds."""
        t = base_tables()[name]
        n = t.order
        rng = random.Random(f"base{name}")
        for _ in range(60):
            hgens = tuple(rng.randrange(n) for _ in range(rng.randint(0, 3)))
            h = closure(t, hgens)
            seed = tuple(rng.randrange(n) for _ in range(rng.randint(0, 2)))
            want = K.table_close(t.mul, n, hgens + seed) if hgens + seed else (t.id,)
            assert K.table_close(t.mul, n, seed, (h, hgens)) == want
            assert closure(t, seed, (h, hgens)) == want

    def test_order_one(self):
        t = GroupTable([[0]])
        for seed in ((), (0,), (0, 0)):
            assert K.table_close(t.mul, 1, seed) == reference_close(t.mul, seed)
        assert closure(t, ()) == closure(t, (0, 0)) == (0,)

    def test_ends_on_non_associative_tables(self, perturbed_2i_tables):
        """On Latin squares that are not groups the closure still returns a
        sorted tuple without duplicates."""
        rng = random.Random(0x120C)
        for mul in perturbed_2i_tables:
            t = GroupTable(mul)
            seeds = [tuple(rng.randrange(120) for _ in range(k)) for k in (1, 2, 3, 4)]
            for seed in seeds + [tuple(range(120))]:
                out = closure(t, seed)
                assert out == tuple(sorted(set(out)))
                assert set(seed) <= set(out) <= set(range(120))


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
            if K.c_is_zero(m.det()):
                continue
            inv = m.inverse()
            assert matmul(m, inv) == ident and matmul(inv, m) == ident
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
