"""Forms and matrices keep raw kernel scalars; each operation against the
CycNum route it replaced, on seeded values over conductors 1, 3, 4, 5, 8
and 12, and a guard that the proof paths build no CycNum at all."""

import random
from fractions import Fraction

import pytest

from equimap.compress import (
    construct_self_compression,
    invariant_form,
    verify_descent,
    verify_equivariance,
)
from equimap.errors import ConductorMismatch
from equimap.forms import Form, form_from_json, form_to_json, monomial_exponents, substitute_all
from equimap.groups import Mat, build_group, mat_from_json, mat_to_json
from equimap.scalars import CycNum, cyc_embed, cyc_to_json, one, zero, zeta

CONDUCTORS = (1, 3, 4, 5, 8, 12)


def cyc(n, raw):
    return CycNum._wrap(n, raw)


def rand_cyc(rng, n, zero_share=0.2):
    """A seeded element of Q(zeta_n): small integer parts at two powers of
    zeta and a rational part with a denominator, or zero."""
    if rng.random() < zero_share:
        return zero(n)
    x = CycNum.from_rational(Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3])), n)
    for _ in range(2):
        x = x + rng.randint(-3, 3) * zeta(n, rng.randrange(n))
    return x


def rand_form(rng, nvars, d, n):
    return Form(nvars, d, [rand_cyc(rng, n) for _ in monomial_exponents(nvars, d)])


def rand_mat(rng, size, n):
    return Mat([[rand_cyc(rng, n, 0.3) for _ in range(size)] for _ in range(size)])


# --- the CycNum route ------------------------------------------------------


def ref_product(f, g):
    acc = {}
    for ea, ca in zip(monomial_exponents(f.nvars, f.degree), f.coeffs):
        for eb, cb in zip(monomial_exponents(g.nvars, g.degree), g.coeffs):
            e = tuple(x + y for x, y in zip(ea, eb))
            acc[e] = acc.get(e, zero(f.n)) + ca * cb
    mons = monomial_exponents(f.nvars, f.degree + g.degree)
    return [acc.get(e, zero(f.n)) for e in mons]


def ref_partial(f, i):
    if f.degree == 0:
        return [zero(f.n)]
    out = {}
    for e, c in zip(monomial_exponents(f.nvars, f.degree), f.coeffs):
        if e[i]:
            out[e[:i] + (e[i] - 1,) + e[i + 1:]] = e[i] * c
    return [out.get(e, zero(f.n)) for e in monomial_exponents(f.nvars, f.degree - 1)]


def ref_evaluate(f, point):
    total = zero(f.n)
    for e, c in zip(monomial_exponents(f.nvars, f.degree), f.coeffs):
        for p, k in zip(point, e):
            c = c * p ** k
        total = total + c
    return total


def ref_substitute(m, f):
    """f(M x) by expanding each row of M as a linear form, in CycNum."""
    rows = m.rows
    lin = [Form(f.nvars, 1, list(r)) for r in rows]
    total = [zero(f.n)] * len(monomial_exponents(f.nvars, f.degree))
    for e, c in zip(monomial_exponents(f.nvars, f.degree), f.coeffs):
        if c.is_zero():
            continue
        img = Form(f.nvars, 0, [c])
        for i, k in enumerate(e):
            for _ in range(k):
                img = Form(f.nvars, img.degree + 1, ref_product(img, lin[i]))
        total = [a + b for a, b in zip(total, img.coeffs)]
    return total


def ref_det(rows):
    if len(rows) == 1:
        return rows[0][0]
    total = zero(rows[0][0].n)
    for j in range(len(rows)):
        minor = [[r[k] for k in range(len(rows)) if k != j] for r in rows[1:]]
        term = rows[0][j] * ref_det(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


def ref_inverse(rows):
    """The adjugate over the determinant, in CycNum."""
    size = len(rows)
    det = ref_det(rows)
    if size == 1:
        return [[1 / det]]
    out = [[None] * size for _ in range(size)]
    for i in range(size):
        for j in range(size):
            minor = [[r[k] for k in range(size) if k != j] for a, r in enumerate(rows) if a != i]
            cof = ref_det(minor)
            out[j][i] = (cof if (i + j) % 2 == 0 else -cof) / det
    return out


class TestFormAgainstCycNum:
    @pytest.mark.parametrize("n", CONDUCTORS)
    def test_arithmetic_partial_and_evaluate(self, n):
        rng = random.Random(f"form-{n}")
        for nvars, d in ((1, 3), (2, 0), (2, 1), (2, 5), (3, 2)):
            f, g = rand_form(rng, nvars, d, n), rand_form(rng, nvars, d, n)
            h = rand_form(rng, nvars, rng.randint(0, 3), n)
            s = rand_cyc(rng, n)
            assert (f + g).coeffs == tuple(a + b for a, b in zip(f.coeffs, g.coeffs))
            assert (f - g).coeffs == tuple(a - b for a, b in zip(f.coeffs, g.coeffs))
            assert (s * f).coeffs == tuple(c * s for c in f.coeffs)
            assert (f * 3).coeffs == tuple(3 * c for c in f.coeffs)
            assert list((f * h).coeffs) == ref_product(f, h)
            for i in range(nvars):
                assert list(f.partial(i).coeffs) == ref_partial(f, i)
            point = [rand_cyc(rng, n) for _ in range(nvars)]
            assert cyc(n, f.evaluate(point)) == ref_evaluate(f, point)

    @pytest.mark.parametrize("n", CONDUCTORS)
    def test_equality_follows_the_coefficients(self, n):
        rng = random.Random(f"eq-{n}")
        for _ in range(10):
            f, g = rand_form(rng, 2, 3, n), rand_form(rng, 2, 3, n)
            assert (f == g) == (f.coeffs == g.coeffs)
            assert f == Form(2, 3, list(f.coeffs))
            assert f != Form.monomial(2, (3, 0), n) + f

    @pytest.mark.parametrize("n", CONDUCTORS)
    def test_substitute_all(self, n):
        rng = random.Random(f"subst-{n}")
        for size, degrees in ((2, (1, 4, 7)), (3, (1, 2))):
            for _ in range(3):
                m = rand_mat(rng, size, n)
                forms = [rand_form(rng, size, d, n) for d in degrees]
                got = substitute_all(m, forms)
                assert [list(h.coeffs) for h in got] == [ref_substitute(m, f) for f in forms]
        # three and four variables share the powers of the rows of m across
        # forms of mixed degrees, 0 among them; a diagonal m scales monomials
        for size, degrees in ((3, (2, 0, 4, 1)), (4, (3, 0, 1, 2))):
            for diagonal in (False, True):
                m = (Mat.diagonal([rand_cyc(rng, n) for _ in range(size)]) if diagonal
                     else rand_mat(rng, size, n))
                forms = [rand_form(rng, size, d, n) for d in degrees]
                got = substitute_all(m, forms)
                assert [list(h.coeffs) for h in got] == [ref_substitute(m, f) for f in forms]

    @pytest.mark.parametrize("kind,ell,d,dense", [("binary-dihedral", 5, 45, True),
                                                  ("binary-icosahedral", None, 120, False)])
    def test_substitute_all_past_the_period(self, kind, ell, d, dense):
        # the generators' power tables repeat past the order of their
        # roots of unity (10 for BD(5) and for the 2I sigma); BD(5) takes a
        # dense form, 2I one with the end, middle and seeded coefficients
        # set, as the reference expands each term in O(d^2)
        g = build_group(kind, ell)
        n = g.conductor
        rng = random.Random(f"period-{kind}")
        if dense:
            f = rand_form(rng, 2, d, n)
        else:
            coeffs = [zero(n)] * (d + 1)
            for j in {0, 1, d // 2, d - 1, d, *rng.sample(range(d + 1), 2)}:
                coeffs[j] = rand_cyc(rng, n, 0)
            f = Form(2, d, coeffs)
        for m in g.generators:
            assert list(substitute_all(m, [f])[0].coeffs) == ref_substitute(m, f)

    @pytest.mark.parametrize("size", (1, 2, 3, 4))
    def test_substitute_all_checks_every_form(self, size):
        # a form of another conductor or another number of variables is
        # refused wherever it stands in the list, also at degree 0
        rng = random.Random(f"subst-checks-{size}")
        m = rand_mat(rng, size, 4)
        good = [rand_form(rng, size, d, 4) for d in (2, 0, 1)]
        bad = [(rand_form(rng, size, d, 12), ConductorMismatch) for d in (0, 1)]
        bad += [(rand_form(rng, size + 1, d, 4), ValueError) for d in (0, 1)]
        for f, err in bad:
            for i in range(len(good) + 1):
                with pytest.raises(ValueError) as info:
                    substitute_all(m, good[:i] + [f] + good[i:])
                assert info.type is err

    @pytest.mark.parametrize("n", CONDUCTORS)
    def test_json_round_trip(self, n):
        rng = random.Random(f"json-{n}")
        for nvars, d in ((2, 4), (3, 2)):
            f = rand_form(rng, nvars, d, n)
            js = form_to_json(f)
            assert js["coeffs"] == [cyc_to_json(c) for c in f.coeffs]
            assert form_from_json(js) == f

    def test_checked_constructor(self):
        with pytest.raises(ValueError):
            Form(2, 2, [one(4), one(4)])
        with pytest.raises(ValueError):
            Form(2, 1, [one(4), one(5)])


class TestMatAgainstCycNum:
    @pytest.mark.parametrize("n", CONDUCTORS)
    def test_det_inverse_trace(self, n):
        rng = random.Random(f"mat-{n}")
        for size in (1, 2, 3):
            for _ in range(6):
                m = rand_mat(rng, size, n)
                rows = m.rows
                det = ref_det(rows)
                assert cyc(n, m.det()) == det
                assert cyc(n, m.trace()) == sum((rows[i][i] for i in range(size)), zero(n))
                if det.is_zero():
                    with pytest.raises(ZeroDivisionError):
                        m.inverse()
                    continue
                want = ref_inverse(rows)
                assert m.inverse().rows == tuple(tuple(r) for r in want)
                assert m.inverse() == Mat(want)

    @pytest.mark.parametrize("n", CONDUCTORS)
    def test_equality_negation_embedding_and_json(self, n):
        rng = random.Random(f"mat-eq-{n}")
        for _ in range(6):
            a, b = rand_mat(rng, 2, n), rand_mat(rng, 2, n)
            assert (a == b) == (a.rows == b.rows)
            assert (-a).rows == tuple(tuple(-x for x in r) for r in a.rows)
            assert a.embed(3 * n).rows == tuple(tuple(cyc_embed(x, 3 * n) for x in r)
                                                for r in a.rows)
            js = mat_to_json(a)
            assert js == [[cyc_to_json(x) for x in r] for r in a.rows]
            assert mat_from_json(js) == a
            assert a.is_diagonal() == all(
                a.rows[i][j].is_zero() for i in range(2) for j in range(2) if i != j)

    def test_checked_constructor(self):
        with pytest.raises(ValueError):
            Mat([[one(4), one(4)]])
        with pytest.raises(ValueError):
            Mat([[one(4), one(4)], [one(4), one(5)]])
        with pytest.raises(ValueError):
            mat_from_json([[cyc_to_json(one(4))], [cyc_to_json(one(4))]])


def test_no_cycnum_on_the_proof_paths(monkeypatch):
    # construct, both verifiers and the orbit invariant, on prebuilt groups,
    # run on raw scalars from end to end: no CycNum is made or wrapped
    i2, bd5, i2b = build_group("icosahedral"), build_group("dihedral", 5), build_group("icosahedral")
    made = []
    wrap = CycNum._wrap.__func__
    init = CycNum.__init__
    monkeypatch.setattr(CycNum, "_wrap",
                        classmethod(lambda cls, n, raw: made.append(n) or wrap(cls, n, raw)))
    monkeypatch.setattr(CycNum, "__init__",
                        lambda self, n, coeffs: made.append(n) or init(self, n, coeffs))
    for g, d in ((i2, 11), (i2, 39), (bd5, 39)):
        cert = construct_self_compression(g, d)
        assert verify_equivariance(g, cert.phi1, cert.phi2)["pass"]
        assert verify_descent(cert)["nontrivial"]
    assert invariant_form(i2b, 120).degree == 120
    assert made == []
    # the guard counts: the CycNum view of one coefficient is one wrap
    cert.phi1.coeffs
    assert len(made) == cert.phi1.degree + 1
