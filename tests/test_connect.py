import json
import math
import random
from fractions import Fraction

import pytest

import equimap.connect as C
from equimap.connect import (
    AffineMap,
    PathFamily,
    PolyMap,
    check_origin_conditions,
    evaluate_path,
    factor_through_origin,
    path_family,
    regular_point,
    verify_conjugation_identity,
)
from equimap.errors import (
    ConditionsFail,
    NotFound,
    SingularJacobian,
    ZeroDenominator,
)
from equimap import _kernel as K
from equimap.scalars import CycNum, cyc_embed, get_context, one, raw_of, zero, zeta


def cyc(v):
    """An int, Fraction or CycNum as a CycNum, through `raw_of`."""
    return CycNum._wrap(*raw_of(v))


def identity_map(n):
    """The identity map of A^n."""
    return PolyMap(n, [{tuple(int(k == i) for k in range(n)): 1} for i in range(n)])


def map_degree(p):
    """The largest total degree of a monomial of p."""
    return max((sum(e) for flat in p._comps for e in flat), default=0)


def pm(n, *comps):
    return PolyMap(n, comps)


# The CycNum-valued flat-polynomial arithmetic and the powers-of-inner
# composition that PolyMap used before it worked on raw kernel scalars by
# multivariate Horner: the slow path the fast one is checked against.


def _padd(a, b):
    out = dict(a)
    for e, c in b.items():
        s = out.get(e)
        s = c if s is None else s + c
        if s.is_zero():
            out.pop(e, None)
        else:
            out[e] = s
    return out


def _pmul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            c = ca * cb
            s = out.get(e)
            s = c if s is None else s + c
            if s.is_zero():
                out.pop(e, None)
            else:
                out[e] = s
    return out


def _peval(p, point, nf):
    acc = zero(nf)
    for e, c in p.items():
        term = c
        for k, ek in enumerate(e):
            if ek:
                term = term * point[k] ** ek
        acc = acc + term
    return acc


def _pdiff(p, k):
    out = {}
    for e, c in p.items():
        if e[k]:
            de = e[:k] + (e[k] - 1,) + e[k + 1:]
            out[de] = c * e[k]
    return out


def _lifted(p, nf):
    return [{e: cyc_embed(c, nf) for e, c in p.component(i).items()}
            for i in range(p.n)]


def _lifted_point(point, nf):
    return [cyc_embed(v, nf) for v in point]


def reference_compose(outer, inner):
    n = outer.n
    nf = math.lcm(outer.conductor, inner.conductor)
    outs = _lifted(outer, nf)
    ins = _lifted(inner, nf)
    maxexp = [0] * n
    for comp in outs:
        for e in comp:
            for k in range(n):
                maxexp[k] = max(maxexp[k], e[k])
    powers = []
    for k in range(n):
        pw = [{(0,) * n: one(nf)}]
        for _ in range(maxexp[k]):
            pw.append(_pmul(pw[-1], ins[k]))
        powers.append(pw)
    comps = []
    for comp in outs:
        acc = {}
        for e, c in comp.items():
            term = {(0,) * n: c}
            for k, ek in enumerate(e):
                if ek:
                    term = _pmul(term, powers[k][ek])
            acc = _padd(acc, term)
        comps.append(acc)
    return PolyMap(n, comps)


def evaluate(p, point):
    """p at the point, on raw scalars with one power table per variable, as
    `jacobian_at` evaluates: the evaluation that the factorization and
    composition tests use."""
    nf, ctx, comps, pw = p._at(point)
    return tuple(CycNum._wrap(nf, C._reval(q, pw, ctx)) for q in comps)


def affine_apply(a, point):
    """The affine map a at the point, in CycNum arithmetic."""
    point = [cyc(v) for v in point]
    nf = math.lcm(a.conductor, *(v.n for v in point))
    point = [cyc_embed(v, nf) for v in point]
    return tuple(sum((cyc_embed(a.matrix[i][k], nf) * point[k] for k in range(a.n)),
                     cyc_embed(a.shift[i], nf))
                 for i in range(a.n))


def reference_evaluate(p, point):
    nf = math.lcm(p.conductor, *(v.n for v in point))
    point = _lifted_point(point, nf)
    return tuple(_peval(c, point, nf) for c in _lifted(p, nf))


def reference_jacobian(p, point):
    nf = math.lcm(p.conductor, *(v.n for v in point))
    point = _lifted_point(point, nf)
    comps = _lifted(p, nf)
    return [[_peval(_pdiff(c, k), point, nf) for k in range(p.n)] for c in comps]


# Helpers that no command needs, so they live with the tests: the affine
# inverse, which the factorization by two compositions below needs; the
# dilation conjugate, which certifies a supplied inverse of a path map at
# t0; and the series truncation of component ratios, which makes the
# truncated maps that verify_conjugation_identity compares up to a degree.


def affine_inverse(a):
    inv = C._inverse(a.linear).rows
    neg = [-v for v in a.shift]
    shift = [sum((inv[i][k] * neg[k] for k in range(a.n)), zero(a.conductor))
             for i in range(a.n)]
    return AffineMap(inv, shift)


def dilation_conjugate(p, t0):
    """(t0^-1 . ) o p o (t0 . ): x-degree-d terms scale by t0^(d-1)."""
    nf = math.lcm(p.conductor, t0.n)
    ctx = get_context(nf)
    t = cyc_embed(t0, nf).raw
    # tpw[d - 1] = t0^(d-1) for every x-degree d, t0^-1 last for d = 0
    tpw = K.powers(t, max(map_degree(p) - 1, 0), ctx.red, ctx.phi) + [ctx.inv(t)]
    comps = [{e: K.c_mul(c, tpw[sum(e) - 1], ctx.red, ctx.phi) for e, c in flat.items()}
             for flat in p._raw(nf)]
    return PolyMap._wrap(p.n, nf, comps)


def evaluate_path_inverted(fam, t0, theta_inverse):
    """evaluate_path, and at t0 != 0 the dilation conjugate of theta_inverse
    must invert the evaluated map on both sides."""
    out = evaluate_path(fam, t0)
    t0 = cyc(t0)
    if not t0.is_zero():
        inv = dilation_conjugate(theta_inverse, t0)
        ident = identity_map(fam.n)
        if not (out.compose(inv) == ident and inv.compose(out) == ident):
            raise ValueError("supplied inverse does not invert the map at t0")
    return out


def truncate_rational(num, den, order=16):
    """Series expansion of component ratios num_i/den_i up to x-degree order.

    Each denominator must be nonzero at the origin; its inverse is the
    geometric series in (1 - den_i/den_i(o)), which gains a degree per term,
    so the truncation is exact modulo degree order + 1.
    """
    nf = math.lcm(num.conductor, den.conductor)
    ctx = get_context(nf)
    nums = num._raw(nf)
    dens = den._raw(nf)
    origin = (0,) * num.n

    def cut(p):
        return {e: c for e, c in p.items() if sum(e) <= order}

    comps = []
    for i in range(num.n):
        c0 = dens[i].get(origin)
        if c0 is None:
            raise ZeroDenominator("component %d denominator vanishes at o" % i)
        c0inv = ctx.inv(c0)
        u = {e: K.c_neg(c) for e, c in C._rscale(dens[i], c0inv, ctx).items()
             if e != origin}
        inv = {origin: ctx.one}
        term = {origin: ctx.one}
        for _ in range(order):
            term = cut(C._rmul(term, u, ctx))
            if not term:
                break
            C._radd(inv, term)
        comps.append(C._rscale(cut(C._rmul(nums[i], inv, ctx)), c0inv, ctx))
    return PolyMap._wrap(num.n, nf, comps)


def reference_factor(sigma, s):
    """The factorization by two general compositions, alpha^-1 o sigma and
    then o (x + s), with alpha from jacobian_at and evaluate at s."""
    s = [cyc(v) for v in s]
    n = sigma.n
    eye = [[1 if i == k else 0 for k in range(n)] for i in range(n)]
    tau = AffineMap(eye, [-v for v in s])
    alpha = AffineMap(sigma.jacobian_at(s).rows, evaluate(sigma, s))
    tau_inv = AffineMap(eye, s)
    theta = affine_inverse(alpha).to_polymap().compose(sigma).compose(tau_inv.to_polymap())
    return alpha, theta, tau


def random_scalar(rng, n):
    """A nonzero element of Q(zeta_n): often 1, sometimes a unit-looking
    non-unit such as 1 + zeta or 1/2, else small random coordinates."""
    phi = get_context(n).phi
    kind = rng.randrange(5)
    if kind == 0:
        return one(n)
    if kind == 1:
        return CycNum.from_rational(Fraction(1, rng.choice([2, 3])), n)
    if kind == 2 and phi > 1:
        return one(n) + zeta(n)
    while True:
        c = CycNum(n, [Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2]))
                       for _ in range(phi)])
        if not c.is_zero():
            return c


def random_map(rng, n, nf, kind, maxdeg=3, empty=None):
    """A seeded map over conductor nf: a translation x + s, a general affine
    map, or a nonlinear one; component `empty` has no monomials."""
    comps = []
    for i in range(n):
        if i == empty:
            comps.append({})
            continue
        unit = tuple(1 if k == i else 0 for k in range(n))
        flat = {(0,) * n: random_scalar(rng, nf)}
        if kind == "translation":
            flat[unit] = one(nf)
        else:
            for k in range(n):
                flat[tuple(1 if j == k else 0 for j in range(n))] = \
                    random_scalar(rng, nf)
        if kind == "nonlinear":
            for _ in range(rng.randrange(1, 4)):
                e = [0] * n
                for _ in range(rng.randrange(2, maxdeg + 1)):
                    e[rng.randrange(n)] += 1
                flat[tuple(e)] = random_scalar(rng, nf)
        comps.append(flat)
    return PolyMap(n, comps)


def random_point(rng, n, nf):
    return [random_scalar(rng, nf) if rng.randrange(3) else
            CycNum.from_rational(rng.randint(-2, 2), nf) for _ in range(n)]


def same_map(a, b):
    return (a.conductor == b.conductor and a.pieces == b.pieces
            and json.dumps(a.to_json()) == json.dumps(b.to_json()))


def random_theta(rng, n, maxdeg):
    """Identity plus sparse higher-order pieces with small integer coeffs."""
    comps = []
    for i in range(n):
        flat = {tuple(1 if k == i else 0 for k in range(n)): 1}
        for _ in range(rng.randrange(1, 4)):
            d = rng.randrange(2, maxdeg + 1)
            e = [0] * n
            for _ in range(d):
                e[rng.randrange(n)] += 1
            c = rng.choice([-3, -2, -1, 1, 2, 3])
            e = tuple(e)
            flat[e] = flat.get(e, 0) + c
        comps.append(flat)
    return PolyMap(n, comps)


class TestPolyMap:
    def test_zero_coefficients_dropped(self):
        p = pm(1, {(2,): 0, (1,): 1})
        assert p.component(0) == {(1,): one(1)}

    def test_grading(self):
        p = pm(2, {(1, 0): 1, (0, 2): 3, (2, 0): -1}, {(0, 1): 1})
        assert sorted(p.pieces[0]) == [1, 2]
        assert p.pieces[0][2] == {(0, 2): CycNum(1, [3]), (2, 0): CycNum(1, [-1])}

    def test_identity(self):
        ident = identity_map(3)
        assert ident.is_identity()
        assert evaluate(ident, (5, -2, 7)) == (5, -2, 7)

    def test_degree(self):
        assert map_degree(pm(2, {(1, 0): 1, (3, 2): 1}, {(0, 1): 1})) == 5

    def test_eq_across_conductors(self):
        a = pm(1, {(1,): 1})
        b = pm(1, {(1,): zeta(4) ** 4})
        assert a == b

    def test_evaluate(self):
        p = pm(2, {(2, 1): 1}, {(0, 0): 3})
        assert evaluate(p, (2, 5)) == (20, 3)
        assert evaluate(p, (Fraction(1, 2), 4)) == (Fraction(1), Fraction(3))

    def test_compose_matches_pointwise(self):
        rng = random.Random(0x11c)
        a = random_theta(rng, 2, 3)
        b = random_theta(rng, 2, 3)
        c = a.compose(b)
        for _ in range(5):
            pt = (rng.randrange(-3, 4), rng.randrange(-3, 4))
            assert evaluate(c, pt) == evaluate(a, evaluate(b, pt))

    def test_compose_identity(self):
        p = pm(2, {(1, 0): 1, (1, 1): 2}, {(0, 1): 1})
        ident = identity_map(2)
        assert p.compose(ident) == p
        assert ident.compose(p) == p

    def test_json_roundtrip(self):
        p = pm(2, {(1, 0): 1, (0, 2): zeta(4)}, {(0, 1): Fraction(2, 3)})
        q = PolyMap.from_json(p.to_json())
        assert q == p

    def test_json_deterministic(self):
        p = pm(2, {(0, 2): 1, (1, 0): 1, (2, 0): 1}, {(0, 1): 1})
        s1 = json.dumps(p.to_json(), sort_keys=True)
        s2 = json.dumps(PolyMap.from_json(p.to_json()).to_json(), sort_keys=True)
        assert s1 == s2

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            PolyMap(2, [{(1, 0): 1}])
        with pytest.raises(ValueError):
            PolyMap(1, [{(1, 0): 1}])
        with pytest.raises(ValueError):
            PolyMap(1, [{(-1,): 1}])

    def test_jacobian(self):
        p = pm(2, {(2, 0): 1, (0, 1): 1}, {(1, 1): 1})
        jac = p.jacobian_at((3, 2)).rows
        assert jac[0] == (6, 1)
        assert jac[1] == (2, 3)


class TestAgainstReference:
    """Horner composition and raw evaluation against the CycNum slow path."""

    CONDUCTORS = [(1, 1), (5, 5), (12, 12), (1, 5), (5, 12), (12, 1), (4, 12)]

    @pytest.mark.parametrize("kind", ["translation", "affine", "nonlinear"])
    @pytest.mark.parametrize("nfs", CONDUCTORS, ids=lambda c: "%d-%d" % c)
    def test_compose(self, kind, nfs):
        rng = random.Random("compose:%s:%d:%d" % ((kind,) + nfs))
        for n in (1, 2, 3):
            for empty in (None, rng.randrange(n)):
                outer = random_map(rng, n, nfs[0], "nonlinear", empty=empty)
                inner = random_map(rng, n, nfs[1], kind)
                assert same_map(outer.compose(inner), reference_compose(outer, inner))
                assert same_map(inner.compose(outer), reference_compose(inner, outer))

    def test_compose_with_empty_inner(self):
        rng = random.Random(0x3e)
        outer = random_map(rng, 2, 5, "nonlinear")
        inner = random_map(rng, 2, 12, "nonlinear", empty=0)
        assert same_map(outer.compose(inner), reference_compose(outer, inner))

    def test_compose_to_zero_map(self):
        # a map with no coefficient left has conductor 1, as in the parent
        outer = pm(1, {(1,): zeta(5)})
        inner = pm(1, {})
        got = outer.compose(inner)
        assert same_map(got, reference_compose(outer, inner)) and got.conductor == 1

    @pytest.mark.parametrize("nfs", CONDUCTORS, ids=lambda c: "%d-%d" % c)
    def test_evaluate_and_jacobian(self, nfs):
        rng = random.Random("evaluate:%d:%d" % nfs)
        for n in (1, 2, 3):
            for empty in (None, rng.randrange(n)):
                p = random_map(rng, n, nfs[0], "nonlinear", maxdeg=4, empty=empty)
                pt = random_point(rng, n, nfs[1])
                got = evaluate(p, pt)
                want = reference_evaluate(p, pt)
                assert [(v.n, v.raw) for v in got] == [(v.n, v.raw) for v in want]
                got = p.jacobian_at(pt).rows
                want = reference_jacobian(p, pt)
                assert [[(v.n, v.raw) for v in row] for row in got] == \
                    [[(v.n, v.raw) for v in row] for row in want]

    @pytest.mark.parametrize("nfs", CONDUCTORS, ids=lambda c: "%d-%d" % c)
    def test_dilation_conjugate(self, nfs):
        rng = random.Random("dilation:%d:%d" % nfs)
        for n in (1, 2, 3):
            p = random_map(rng, n, nfs[0], "nonlinear", maxdeg=4)
            t0 = random_scalar(rng, nfs[1])
            nf = math.lcm(p.conductor, t0.n)
            t = cyc_embed(t0, nf)
            want = PolyMap(n, [{e: c * t ** (sum(e) - 1) for e, c in comp.items()}
                               for comp in _lifted(p, nf)])
            assert same_map(dilation_conjugate(p, t0), want)

    def test_no_cycnum_arithmetic(self, monkeypatch):
        rng = random.Random(0x90)
        outer = random_map(rng, 2, 12, "nonlinear")
        inner = random_map(rng, 2, 5, "affine")
        theta = pm(2, {(1, 0): 1, (0, 2): zeta(4)}, {(0, 1): 1})
        inv = pm(2, {(1, 0): 1, (0, 2): -zeta(4)}, {(0, 1): 1})
        fam = path_family(theta)
        pt = random_point(rng, 2, 3)

        def refuse(self, other):
            raise AssertionError("CycNum arithmetic in a raw-scalar path")

        for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__pow__"):
            monkeypatch.setattr(CycNum, name, refuse)
        outer.compose(inner)
        evaluate(outer, pt)
        outer.jacobian_at(pt)
        evaluate_path_inverted(fam, zeta(3), inv)


def eager_pieces(p):
    """The graded pieces as the constructor built them before they were
    made lazy: from the raw components, at once."""
    pieces = []
    for flat in p._raw(p.conductor):
        by_d = {}
        for e, c in flat.items():
            by_d.setdefault(sum(e), {})[e] = CycNum._wrap(p.conductor, c)
        pieces.append({d: by_d[d] for d in sorted(by_d)})
    return tuple(pieces)


def stored(p):
    return [dict(flat) for flat in p._comps]


class TestRawStorage:
    """PolyMap keeps raw components and grades them on demand."""

    def test_lazy_pieces_equal_eager(self):
        rng = random.Random(0x1a2)
        theta = pm(2, {(1, 0): 1, (0, 2): zeta(4)}, {(0, 1): 1})
        for nf in (1, 5, 12):
            for n in (1, 2, 3):
                for empty in (None, rng.randrange(n)):
                    p = random_map(rng, n, nf, "nonlinear", maxdeg=5, empty=empty)
                    q = random_map(rng, n, 1, "affine")
                    for m in (p, p.compose(q), AffineMap(
                            [[random_scalar(rng, nf) for _ in range(n)] for _ in range(n)],
                            [0] * n).to_polymap()):
                        assert m._pieces is None
                        want = eager_pieces(m)
                        assert m.pieces == want
                        assert [list(pc) for pc in m.pieces] == [list(pc) for pc in want]
                        assert m.pieces is m.pieces
        fam = path_family(theta)
        for t0 in (0, 1, zeta(3)):
            m = evaluate_path(fam, t0)
            assert m.pieces == eager_pieces(m)

    def test_raw_at_own_conductor_is_the_stored_dicts(self):
        p = pm(2, {(1, 0): zeta(5), (2, 0): 1}, {(0, 1): 1})
        assert all(a is b for a, b in zip(p._raw(p.conductor), p._comps))
        lifted = p._raw(10)
        assert all(a is not b for a, b in zip(lifted, p._comps))

    def test_operations_leave_stored_dicts_unchanged(self):
        rng = random.Random(0x5707)
        for nfs in ((1, 1), (5, 1), (12, 4), (1, 3)):
            for n in (1, 2, 3):
                outer = random_map(rng, n, nfs[0], "nonlinear", maxdeg=4)
                inner = random_map(rng, n, nfs[1], "translation")
                den = random_map(rng, n, nfs[1], "nonlinear")
                before = [stored(m) for m in (outer, inner, den)]
                outer.compose(inner)
                inner.compose(outer)
                outer.compose(outer)
                assert (outer == inner) is False
                assert outer == outer
                truncate_rational(outer, den, order=5)
                truncate_rational(den, den, order=5)
                assert [stored(m) for m in (outer, inner, den)] == before
        theta = random_theta(rng, 3, 4)
        before = stored(theta)
        fam = path_family(theta)
        for t0 in (0, 1, 2, zeta(5)):
            evaluate_path(fam, t0)
        verify_conjugation_identity(theta)
        assert stored(theta) == before

    def test_to_polymap_matches_checked_constructor(self):
        rng = random.Random(0x70b)
        for nf in (1, 3, 5, 12):
            for n in (1, 2, 3):
                entries = [[random_scalar(rng, nf) if rng.randrange(3) else 0
                            for _ in range(n)] for _ in range(n)]
                shift = [random_scalar(rng, nf) if rng.randrange(2) else 0
                         for _ in range(n)]
                a = AffineMap(entries, shift)
                comps = []
                for i in range(n):
                    flat = {(0,) * n: a.shift[i]}
                    for k in range(n):
                        flat[tuple(1 if j == k else 0 for j in range(n))] = a.matrix[i][k]
                    comps.append(flat)
                assert same_map(a.to_polymap(), PolyMap(n, comps))
        zero_map = AffineMap([[zero(5)]], [zero(5)]).to_polymap()
        assert same_map(zero_map, PolyMap(1, [{}])) and zero_map.conductor == 1

    def test_int_coercion(self):
        for v in (-7, 0, 1, 12, 10 ** 40, True, False, Fraction(3, 4), Fraction(-6, 4),
                  Fraction(0, 5), "-5/10"):
            got = raw_of(v)
            want = CycNum.from_rational(Fraction(v), 1)
            assert got == (want.n, want.raw)
        for v in (zeta(5, 2), CycNum(12, [Fraction(1, 2), 0, 3, 0])):
            assert raw_of(v) == (v.n, v.raw)
        assert same_map(pm(2, {(1, 0): 3, (0, 1): -2}, {(0, 1): True}),
                        pm(2, {(1, 0): Fraction(3), (0, 1): Fraction(-2)},
                           {(0, 1): Fraction(1)}))


def translation(n, s):
    """The map x + s."""
    return PolyMap(n, [{tuple(1 if j == i else 0 for j in range(n)): 1,
                        (0,) * n: s[i]} for i in range(n)])


def shift_point(rng, n):
    """A point with rational entries with denominators, zeta_3 and zeta_5
    entries, and zeros."""
    kinds = [lambda: Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
             lambda: rng.randint(-3, 3) + rng.randint(-2, 2) * zeta(3),
             lambda: Fraction(1, rng.randint(1, 3)) * zeta(5, rng.randrange(1, 5)),
             lambda: 0]
    return [rng.choice(kinds)() for _ in range(n)]


class TestTranslation:
    """The Taylor shift of the factorization against Horner composition
    with x + s, and the factorization against the route by two general
    compositions."""

    @pytest.mark.parametrize("nf", [1, 3, 5, 15])
    def test_translate_matches_compose(self, nf):
        rng = random.Random("translate:%d" % nf)
        for n in (1, 2, 3):
            for maxdeg in (2, 4, 6):
                for empty in (None, rng.randrange(n)):
                    p = random_map(rng, n, nf, "nonlinear", maxdeg=maxdeg, empty=empty)
                    s = [cyc(v) for v in shift_point(rng, n)]
                    want = p.compose(translation(n, s))
                    m = math.lcm(p.conductor, *(v.n for v in s))
                    got = C._rtranslate(p._raw(m), [cyc_embed(v, m).raw for v in s],
                                        get_context(m))
                    assert list(got) == list(want._raw(m))

    def test_translate_by_zero_and_empty(self):
        p = pm(2, {}, {(0, 3): 2, (1, 1): -1})
        ctx = get_context(1)
        assert list(C._rtranslate(p._raw(1), [ctx.zero] * 2, ctx)) == list(p._raw(1))
        s = [Fraction(1, 2), 0]
        assert list(C._rtranslate(p._raw(1), [raw_of(v)[1] for v in s], ctx)) == \
            list(p.compose(translation(2, s))._raw(1))
        assert list(C._rtranslate((), [], ctx)) == []

    @pytest.mark.parametrize("nf", [1, 3, 5])
    def test_factor_matches_two_compositions(self, nf):
        rng = random.Random("factor:%d" % nf)
        done = 0
        while done < 12:
            n = rng.randrange(1, 4)
            sigma = random_map(rng, n, nf, "nonlinear", maxdeg=rng.choice([2, 4, 6]))
            s = shift_point(rng, n)
            try:
                want = reference_factor(sigma, s)
            except SingularJacobian:
                with pytest.raises(SingularJacobian):
                    factor_through_origin(sigma, s)
                continue
            got = factor_through_origin(sigma, s)
            for a, b in ((got[0], want[0]), (got[2], want[2])):
                assert (a.conductor, a.matrix, a.shift) == (b.conductor, b.matrix, b.shift)
            assert same_map(got[1], want[1])
            done += 1

    def test_reassembly_composes_twice(self, monkeypatch):
        calls = []
        real = PolyMap.compose

        def counted(self, other):
            calls.append(other)
            return real(self, other)

        monkeypatch.setattr(PolyMap, "compose", counted)
        sigma = pm(2, {(2, 0): 1, (0, 1): 1}, {(0, 1): 1, (1, 0): 3})
        factor_through_origin(sigma, (1, 2))
        assert len(calls) == 2


class TestAffineMap:
    def test_apply_and_polymap_agree(self):
        a = AffineMap([[1, 2], [0, 1]], [5, -1])
        pt = (3, 4)
        assert affine_apply(a, pt) == evaluate(a.to_polymap(), pt)

    def test_inverse(self):
        a = AffineMap([[1, 2], [3, 7]], [5, -1])
        b = affine_inverse(a)
        assert b.to_polymap().compose(a.to_polymap()) == identity_map(2)
        assert a.to_polymap().compose(b.to_polymap()) == identity_map(2)

    def test_singular(self):
        with pytest.raises(SingularJacobian):
            affine_inverse(AffineMap([[1, 2], [2, 4]], [0, 0]))


class TestOriginConditions:
    def test_pass(self):
        rep = check_origin_conditions(pm(2, {(1, 0): 1, (0, 2): 1}, {(0, 1): 1}))
        assert rep["pass"] and rep["defined_at_origin"]

    def test_constant_term_fails(self):
        rep = check_origin_conditions(pm(2, {(1, 0): 1, (0, 0): 1}, {(0, 1): 1}))
        assert not rep["fixes_origin"] and not rep["pass"]

    def test_dilation_fails(self):
        rep = check_origin_conditions(pm(2, {(1, 0): 2}, {(0, 1): 1}))
        assert rep["fixes_origin"] and not rep["identity_differential"]

    def test_offdiagonal_linear_fails(self):
        rep = check_origin_conditions(pm(2, {(1, 0): 1, (0, 1): 1}, {(0, 1): 1}))
        assert not rep["identity_differential"]

    def test_matches_graded_pieces(self):
        # the raw lookups against the degree-0 and degree-1 graded pieces
        def from_pieces(theta):
            uno = one(theta.conductor)
            fixes = all(0 not in theta.pieces[i] for i in range(theta.n))
            ident = all(theta.pieces[i].get(1, {}) == {C._unit(theta.n, i): uno}
                        for i in range(theta.n))
            return {"defined_at_origin": True, "fixes_origin": fixes,
                    "identity_differential": ident, "pass": fixes and ident}

        rng = random.Random(0x0c0)
        seen = set()
        for _ in range(200):
            n = rng.randrange(1, 4)
            theta = random_theta(rng, n, 3)
            comps = [{e: CycNum._wrap(1, c) for e, c in flat.items()}
                     for flat in theta._comps]
            for _ in range(rng.randrange(3)):
                flat = rng.choice(comps)
                e = tuple(rng.randrange(2) if rng.random() < 0.5 else 0 for _ in range(n))
                if sum(e) <= 1:
                    flat[e] = rng.choice([0, 1, -1, 2, zeta(4), zeta(3) + 1])
            theta = PolyMap(n, comps)
            rep = check_origin_conditions(theta)
            assert rep == from_pieces(theta)
            seen.add((rep["fixes_origin"], rep["identity_differential"]))
        assert len(seen) == 4


class TestFactorThroughOrigin:
    def test_already_normal(self):
        sig = pm(2, {(1, 0): 1, (2, 0): 1}, {(0, 1): 1})
        alpha, theta, tau = factor_through_origin(sig, (0, 0))
        assert theta == sig

    def test_swap(self):
        alpha, theta, tau = factor_through_origin(
            pm(2, {(0, 1): 1}, {(1, 0): 1}), (0, 0)
        )
        assert theta.is_identity()

    def test_translation_absorbed(self):
        sig = pm(2, {(1, 0): 1, (0, 0): 1, (2, 0): 1}, {(0, 1): 1})
        alpha, theta, tau = factor_through_origin(sig, (0, 0))
        assert theta == pm(2, {(1, 0): 1, (2, 0): 1}, {(0, 1): 1})

    def test_nonzero_base_point(self):
        sig = pm(2, {(2, 0): 1, (0, 1): 1}, {(0, 1): 1, (1, 0): 3})
        alpha, theta, tau = factor_through_origin(sig, (1, 2))
        assert check_origin_conditions(theta)["pass"]
        re = alpha.to_polymap().compose(theta).compose(tau.to_polymap())
        assert re == sig

    def test_singular_jacobian(self):
        with pytest.raises(SingularJacobian):
            factor_through_origin(pm(2, {(2, 0): 1}, {(0, 1): 1}), (0, 0))

    def test_randomized_reassembly(self):
        rng = random.Random(0x5e55)
        done = 0
        while done < 10:
            n = rng.randrange(1, 4)
            theta = random_theta(rng, n, 4)
            shift = PolyMap(
                n,
                [
                    {e: c for e, c in comp.items()}
                    for comp in (theta.component(i) for i in range(n))
                ],
            )
            # salt with a constant so sigma does not already fix the origin
            comps = [dict(shift.component(i)) for i in range(n)]
            comps[0][(0,) * n] = rng.randrange(1, 5)
            sig = PolyMap(n, comps)
            try:
                s = regular_point(sig, bound=2)
            except NotFound:
                continue
            alpha, theta2, tau = factor_through_origin(sig, s)
            re = alpha.to_polymap().compose(theta2).compose(tau.to_polymap())
            assert re == sig
            assert check_origin_conditions(theta2)["pass"]
            done += 1

    def test_one_inversion_per_factorization(self, monkeypatch):
        calls = []
        real = C._inverse

        def counted(m):
            calls.append(m.n)
            return real(m)

        monkeypatch.setattr(C, "_inverse", counted)
        sigmas = [
            (pm(2, {(2, 0): 1, (0, 1): 1}, {(0, 1): 1, (1, 0): 3}), (1, 2)),
            (pm(2, {(1, 0): 1, (0, 0): 1, (2, 0): 1}, {(0, 1): 1}), (0, 0)),
            (pm(3, {(0, 1, 0): 1}, {(0, 0, 1): 2, (3, 0, 0): 1}, {(1, 0, 0): 1}),
             (1, -1, 2)),
        ]
        for k, (sig, s) in enumerate(sigmas, 1):
            factor_through_origin(sig, s)
            assert len(calls) == k
        with pytest.raises(SingularJacobian):
            factor_through_origin(pm(2, {(2, 0): 1}, {(0, 1): 1}), (0, 0))
        assert len(calls) == len(sigmas) + 1


    def test_no_cycnum_on_the_path(self, monkeypatch):
        """Integer and Fraction input reaches raw scalars through raw_of:
        building the maps, factoring them, the path family and its checks
        make no CycNum."""
        made = []
        wrap = CycNum._wrap.__func__
        init = CycNum.__init__
        monkeypatch.setattr(CycNum, "_wrap",
                            classmethod(lambda cls, n, raw: made.append(n) or wrap(cls, n, raw)))
        monkeypatch.setattr(CycNum, "__init__",
                            lambda self, n, coeffs: made.append(n) or init(self, n, coeffs))
        cases = [
            (pm(2, {(2, 0): 1, (0, 1): 1, (0, 0): -3}, {(0, 1): 2, (1, 0): 3, (1, 2): -1}),
             (1, 2)),
            (pm(2, {(1, 0): 1, (3, 1): Fraction(2, 3)}, {(0, 1): 1, (0, 0): 5}),
             (Fraction(1, 2), Fraction(-2, 3))),
            (pm(3, {(0, 1, 0): 1, (2, 0, 0): -2}, {(0, 0, 1): 2, (3, 0, 0): 1},
                {(1, 0, 0): 1, (0, 1, 1): 4}), (1, -1, Fraction(3, 4))),
        ]
        for sig, s in cases:
            alpha, theta, tau = factor_through_origin(sig, s)
            fam = path_family(theta)
            assert verify_conjugation_identity(theta)["pass"]
            assert evaluate_path(fam, Fraction(1, 3)).conductor == 1
            assert theta.to_json() and fam.to_json()
        assert made == []
        # the guard counts: the CycNum view of a shift is one wrap per entry
        tau.shift
        assert made == [1, 1, 1]

    def test_tau_keeps_the_points_conductor(self):
        sig = pm(2, {(1, 0): 1, (2, 0): zeta(3)}, {(0, 1): 1})
        alpha, theta, tau = factor_through_origin(sig, (Fraction(1, 2), 0))
        assert (sig.conductor, alpha.conductor, tau.conductor) == (3, 3, 1)
        alpha, theta, tau = factor_through_origin(sig, (zeta(5), 0))
        assert (alpha.conductor, tau.conductor) == (15, 5)


class TestRegularPoint:
    def test_origin_preferred(self):
        assert regular_point(identity_map(2)) == (0, 0)

    def test_skips_singular_locus(self):
        s = regular_point(pm(2, {(2, 0): 1}, {(0, 1): 1}))
        assert s[0] != 0

    def test_exhaustion(self):
        with pytest.raises(NotFound):
            regular_point(pm(2, {(1, 0): 1}, {(1, 0): 1}), bound=2)


class TestPathFamily:
    def test_single_quadratic(self):
        fam = path_family(pm(1, {(1,): 1, (2,): 1}))
        mono = fam.to_json()["components"][0]["monomials"]
        assert [(m["t"], m["exps"]) for m in mono] == [(0, [1]), (1, [2])]

    def test_mixed_degrees(self):
        fam = path_family(pm(2, {(1, 0): 1, (0, 2): 1}, {(0, 1): 1, (3, 0): 1}))
        assert fam.tpieces[0] == {
            (0, (1, 0)): one(1),
            (1, (0, 2)): one(1),
        }
        assert (2, (3, 0)) in fam.tpieces[1]

    def test_identity_family(self):
        fam = path_family(identity_map(2))
        assert evaluate_path(fam, 7).is_identity()

    def test_rejects_bad_theta(self):
        with pytest.raises(ConditionsFail):
            path_family(pm(1, {(1,): 1, (0,): 1}))
        with pytest.raises(ConditionsFail):
            path_family(pm(1, {(1,): 2}))

    def test_endpoints(self):
        theta = pm(2, {(1, 0): 1, (1, 1): -2}, {(0, 1): 1, (2, 0): 5})
        fam = path_family(theta)
        assert evaluate_path(fam, 0).is_identity()
        assert evaluate_path(fam, 1) == theta


class TestConjugationIdentity:
    def test_quadratic_by_hand(self):
        rep = verify_conjugation_identity(pm(1, {(1,): 1, (2,): 1}))
        assert rep["pass"] and rep["negative_powers_cancel"]

    def test_two_component_example(self):
        rep = verify_conjugation_identity(
            pm(2, {(1, 0): 1, (0, 2): 1}, {(0, 1): 1, (3, 0): 1})
        )
        assert rep["pass"]

    def test_cross_term(self):
        rep = verify_conjugation_identity(pm(2, {(1, 0): 1, (1, 1): 1}, {(0, 1): 1}))
        assert rep["pass"]

    def test_requires_conditions(self):
        with pytest.raises(ConditionsFail):
            verify_conjugation_identity(pm(1, {(1,): 1, (0,): 2}))

    def test_randomized(self):
        rng = random.Random(0xc0441)
        for _ in range(25):
            n = rng.randrange(1, 4)
            theta = random_theta(rng, n, 5)
            rep = verify_conjugation_identity(theta)
            assert rep["pass"], theta.to_json()
            fam = path_family(theta)
            assert evaluate_path(fam, 0).is_identity()
            assert evaluate_path(fam, 1) == theta


class TestEvaluatePath:
    def test_derived_example(self):
        theta = pm(2, {(1, 0): 1, (0, 2): 1}, {(0, 1): 1})
        inv = pm(2, {(1, 0): 1, (0, 2): -1}, {(0, 1): 1})
        fam = path_family(theta)
        r2 = evaluate_path_inverted(fam, 2, inv)
        assert r2 == pm(2, {(1, 0): 1, (0, 2): 2}, {(0, 1): 1})

    def test_sampled_inverse_points(self):
        theta = pm(2, {(1, 0): 1, (0, 2): 1}, {(0, 1): 1})
        inv = pm(2, {(1, 0): 1, (0, 2): -1}, {(0, 1): 1})
        fam = path_family(theta)
        for t0 in (1, 2, -1, zeta(4)):
            evaluate_path_inverted(fam, t0, inv)

    def test_triangular_inverse(self):
        theta = pm(2, {(1, 0): 1, (0, 3): 2}, {(0, 1): 1})
        inv = pm(2, {(1, 0): 1, (0, 3): -2}, {(0, 1): 1})
        fam = path_family(theta)
        for t0 in (1, 2, -1, zeta(4)):
            evaluate_path_inverted(fam, t0, inv)

    def test_bad_inverse_rejected(self):
        theta = pm(2, {(1, 0): 1, (0, 2): 1}, {(0, 1): 1})
        wrong = pm(2, {(1, 0): 1, (0, 2): 1}, {(0, 1): 1})
        fam = path_family(theta)
        with pytest.raises(ValueError):
            evaluate_path_inverted(fam, 2, wrong)

    def test_zero_skips_inverse_check(self):
        theta = pm(2, {(1, 0): 1, (0, 2): 1}, {(0, 1): 1})
        wrong = pm(2, {(1, 0): 1, (0, 2): 1}, {(0, 1): 1})
        fam = path_family(theta)
        assert evaluate_path_inverted(fam, 0, wrong).is_identity()


class TestTruncateRational:
    def test_geometric_series(self):
        num = PolyMap(1, [{(1,): 1}])
        den = PolyMap(1, [{(0,): 1, (1,): -1}])
        tr = truncate_rational(num, den, order=6)
        assert tr.component(0) == {(k,): one(1) for k in range(1, 7)}

    def test_polynomial_over_one(self):
        p = pm(2, {(1, 0): 1, (2, 1): 3}, {(0, 1): 1})
        unit = PolyMap(2, [{(0, 0): 1}, {(0, 0): 1}])
        assert truncate_rational(p, unit, order=8) == p

    def test_vanishing_denominator(self):
        num = PolyMap(1, [{(1,): 1}])
        den = PolyMap(1, [{(1,): 1}])
        with pytest.raises(ZeroDenominator):
            truncate_rational(num, den)

    def test_truncated_family_verifies(self):
        num = PolyMap(1, [{(1,): 1}])
        den = PolyMap(1, [{(0,): 1, (1,): -1}])
        theta = truncate_rational(num, den, order=7)
        rep = verify_conjugation_identity(theta, max_degree=7)
        assert rep["pass"] and rep["max_degree"] == 7

    def test_rescaled_denominator(self):
        # x/(2-x) = x/2 * 1/(1 - x/2)
        num = PolyMap(1, [{(1,): 1}])
        den = PolyMap(1, [{(0,): 2, (1,): -1}])
        tr = truncate_rational(num, den, order=4)
        want = {(k,): CycNum.from_rational(Fraction(1, 2 ** k)) for k in range(1, 5)}
        assert tr.component(0) == want
