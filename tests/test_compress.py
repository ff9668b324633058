import itertools
import json
import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from equimap import _kernel as K
from equimap import compress
from equimap.compress import (
    CompressionCertificate,
    Moebius,
    compression_dimensions,
    compression_exists,
    construct_self_compression,
    invariant_form,
    linear_self_compression,
    series,
    series_consistency,
    verify_descent,
    verify_equivariance,
    verify_functional_equation,
)
from equimap.errors import (
    DegreeMismatch,
    InfeasibleDegree,
    NotInvariant,
    SearchExhausted,
    UnknownKind,
    ZeroDenominator,
    ZeroForm,
)
from equimap.forms import (
    Form,
    canonical_span,
    equivariant_basis,
    form_gcd,
    form_to_json,
    invariant_basis,
    isotypic_dimension,
    isotypic_dims_and_bases,
    jacobian_determinant,
    multiplicity_chi,
    _x2_valuation,
    monomial_exponents,
    substitute,
    substitute_all,
)
from equimap.groups import (
    Mat,
    MatrixGroup,
    build_group,
    chi_stabilizer_characters,
    coset_products,
    diagonal_coset_decomposition,
    mat_from_json,
    mat_to_json,
    tn_group,
    to_table,
)
from equimap.scalars import (
    CycNum,
    cyc_embed,
    cyc_from_json,
    cyc_to_json,
    get_context,
    one,
    zero,
    zeta,
)
from test_groups import matmul


def descent_rational(cert):
    """The certificate's induced self-map of the line, in the z = x1/x2 chart,
    as a reference for the descent that `verify-map` judges by degrees.

    Returns (numerator, denominator) as ascending CycNum coefficient lists
    of the reduced fraction (phi1/a)(z, 1) / (phi2/a)(z, 1), a = gcd.
    """
    phi1, phi2 = cert.phi1, cert.phi2
    if phi1.is_zero() or phi2.is_zero():
        raise ZeroForm("descent needs nonzero coordinate forms")
    a = form_gcd(phi1, phi2)
    ctx = get_context(phi1.n)
    va = _x2_valuation(a)
    ua = [a.raw[j] for j in range(a.degree, va - 1, -1)]
    out = []
    for p in (phi1, phi2):
        vp = _x2_valuation(p)
        up = [p.raw[j] for j in range(p.degree, vp - 1, -1)]
        q = compress._exact_quotient(up, ua, ctx)
        out.append([CycNum._wrap(phi1.n, x) for x in q])
    return out[0], out[1]


def cyc(n, raw):
    """The CycNum of a raw scalar over conductor n, for comparisons."""
    return CycNum._wrap(n, raw)


def spans_equal(fs, gs):
    ra, pa, ma = canonical_span(fs)
    rb, pb, mb = canonical_span(gs)
    return ma == mb and pa == pb and ra == rb


def icosa_degree11_pair(n=5):
    p = (Form.monomial(2, (11, 0), n)
         + 66 * Form.monomial(2, (6, 5), n)
         - 11 * Form.monomial(2, (1, 10), n))
    q = (-11 * Form.monomial(2, (10, 1), n)
         - 66 * Form.monomial(2, (5, 6), n)
         + Form.monomial(2, (0, 11), n))
    return p, q


def first_nonzero(s):
    """The lowest degree where the series s is nonzero, or None."""
    return next((i for i, c in enumerate(s.coeffs) if c), None)


class TestSeries:
    def test_tetra_sg_spot_values(self):
        s = series("tetrahedral", None, "S_G", 12)
        assert s.coeffs == (0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 2, 0)

    def test_first_nonzero_primitive(self):
        for kind, want in (("tetrahedral", 5), ("octahedral", 7), ("icosahedral", 11)):
            assert first_nonzero(series(kind, None, "S_G", 24)) == want

    def test_first_nonzero_dihedral_and_cyclic(self):
        for ell in range(2, 9):
            for gk in ("dihedral", "cyclic"):
                s = series(gk, ell, "S_G", 2 * ell + 2)
                assert first_nonzero(s) == 2 * ell - 1

    def test_dihedral_sg_is_indicator(self):
        s = series("dihedral", 3, "S_G", 40)
        for d in range(41):
            assert s[d] == (1 if (d + 1) % 6 == 0 else 0)

    def test_q8_p1_coefficient_of_t4(self):
        assert series("dihedral", 2, "P_1", 6)[4] == 2

    def test_ell2_pchi_numerator_accumulates(self):
        # the degree-3 numerator term appears twice when ell = 2
        assert series("dihedral", 2, "P_chi", 3).coeffs == (0, 1, 0, 2)

    def test_entries_nonnegative(self):
        rng = random.Random(0x5e41e5)
        kinds = [("tetrahedral", None), ("octahedral", None), ("icosahedral", None),
                 ("dihedral", 4), ("cyclic", 5)]
        for _ in range(20):
            gk, ell = rng.choice(kinds)
            kind = rng.choice(["S_G", "P_chi", "P_1", "P_theta"])
            try:
                s = series(gk, ell, kind, rng.randrange(1, 50))
            except UnknownKind:
                continue
            assert min(s.coeffs) >= 0

    def test_theta_rejected_for_primitive(self):
        with pytest.raises(UnknownKind):
            series("tetrahedral", None, "P_theta", 10)

    def test_character_series_rejected_for_cyclic(self):
        for kind in ("P_chi", "P_1", "P_theta"):
            with pytest.raises(UnknownKind):
                series("cyclic", 3, kind, 10)

    def test_bad_inputs(self):
        with pytest.raises(UnknownKind):
            series("simple", None, "S_G", 10)
        with pytest.raises(UnknownKind):
            series("tetrahedral", None, "molien", 10)
        with pytest.raises(ValueError):
            series("tetrahedral", None, "S_G", 0)
        with pytest.raises(ValueError):
            series("dihedral", 1, "S_G", 10)

    def test_json_roundtrip(self):
        s = series("icosahedral", None, "P_1", 31)
        assert json.loads(json.dumps(s.to_json())) == {
            "kind": "P_1", "group_kind": "binary-icosahedral", "parameter": None,
            "coeffs": list(s.coeffs)}


class TestSeriesConsistency:
    def test_tetrahedral(self):
        rep = series_consistency(build_group("tetrahedral"), 20)
        assert rep["equality_holds"] and rep["series_match"]

    def test_octahedral(self):
        assert series_consistency(build_group("octahedral"), 16)["equality_holds"]

    def test_icosahedral(self):
        assert series_consistency(build_group("icosahedral"), 16)["equality_holds"]

    def test_binary_dihedral_3(self):
        g = build_group("dihedral", 3)
        rep = series_consistency(g, 20)
        assert rep["equality_holds"] and rep["inequality_holds"]
        # the degree-5 count decomposes through the character side
        chars = chi_stabilizer_characters(g)
        lhs = series("dihedral", 3, "S_G", 5)[5]
        rhs = (multiplicity_chi(g, 5)
               - isotypic_dimension(g, chars[0], 4)
               - isotypic_dimension(g, chars[1], 4))
        assert lhs == rhs == 1

    def test_q8_three_theta(self):
        rep = series_consistency(build_group("dihedral", 2), 12)
        assert rep["theta_dims_equal"] is True

    def test_larger_ells(self):
        for ell in (4, 6, 8):
            assert series_consistency(build_group("dihedral", ell), 18)["equality_holds"]

    def test_cyclic_rejected(self):
        with pytest.raises(ValueError):
            series_consistency(build_group("cyclic", 3), 10)


class TestConstruct:
    def test_q8_degree3(self):
        g = build_group("dihedral", 2)
        cert = construct_self_compression(g, 3)
        assert cert.alpha == (0, -1)
        assert cert.gcd_degree == 0 and cert.descent_degree == 3
        assert cert.checks == {"equivariant": True, "jacobian_nonzero": True,
                               "descent_nontrivial": True}
        want1 = Form.monomial(2, (0, 3), 4)
        want2 = Form.monomial(2, (3, 0), 4, -1)
        assert spans_equal([cert.phi1, cert.phi2], [want1, want2])

    def test_q8_infeasible_degrees(self):
        g = build_group("dihedral", 2)
        for d in (1, 2, 4, 6):
            with pytest.raises(InfeasibleDegree):
                construct_self_compression(g, d)

    @pytest.mark.parametrize("kind,ell,d", [("dihedral", 2, 5), ("dihedral", 3, 7),
                                            ("dihedral", 5, 11), ("cyclic", 3, 7)])
    def test_degrees_with_s_d_zero_construct(self, kind, ell, d):
        # s_d = 0 here, yet the maps of trivial descent fill no more than
        # proper subspaces, so a self-compression exists and is found
        assert series(kind, ell, "S_G", d)[d] == 0
        assert compression_exists(kind, ell, d)
        g = build_group(kind, ell)
        cert = construct_self_compression(g, d)
        eq = verify_equivariance(cert.group, cert.phi1, cert.phi2, "linear")
        descent = verify_descent(cert)
        assert eq["pass"] and eq["checked"] == g.order
        assert descent["nontrivial"] and descent["criteria_agree"]
        assert cert.gcd_degree <= d - 2 and all(cert.checks.values())

    def test_refusal_matches_the_group_side(self):
        # the closed-form criterion against the character side: mult and
        # the dimensions of the pieces of the characters that fix chi
        for kind, ell in [("tetrahedral", None), ("octahedral", None),
                          ("icosahedral", None)] + [("dihedral", l) for l in range(2, 9)]:
            g = build_group(kind, ell)
            chars = chi_stabilizer_characters(g)
            for d in range(1, 41):
                mult, dims = compression_dimensions(kind, ell, d)
                assert mult == multiplicity_chi(g, d)
                assert dims == [isotypic_dimension(g, c, d - 1) for c in chars]
                # BD(ell): every odd d >= 2 ell - 1, as the docstring proves
                if ell is not None:
                    assert compression_exists(kind, ell, d) == (d % 2 == 1 and d >= 2 * ell - 1)

    def test_cyclic2_descent_is_inverse_cube(self):
        g = build_group("cyclic", 2)
        cert = construct_self_compression(g, 3)
        assert cert.group.kind == "cyclic"
        assert cert.checks["equivariant"] is True
        num, den = descent_rational(cert)
        # projectively z -> z^(-3): constant over cube
        assert len(num) == 1 and not num[0].is_zero()
        assert len(den) == 4 and not den[3].is_zero()
        assert all(den[i].is_zero() for i in range(3))
        rep = verify_functional_equation((num, den), [Moebius(-1, 0, 0, 1)])
        assert rep["pass"] and rep["degree"] == 3 and rep["nontrivial"]

    @pytest.mark.parametrize("ell", [2, 3, 4])
    def test_cyclic_certificate_is_the_dihedral_one(self, ell):
        # a cyclic certificate restricts the pair of BD(ell) at the same
        # degree and search bound
        g, bd = build_group("cyclic", ell), build_group("binary-dihedral", ell)
        for d, bound in ((2 * ell - 1, compress.ALPHA_NORM_BOUND), (4 * ell - 1, 2)):
            cert = construct_self_compression(g, d, bound)
            want = construct_self_compression(bd, d, bound)
            assert (cert.phi1, cert.phi2) == (want.phi1, want.phi2)
            assert cert.alpha == want.alpha and cert.gcd_degree == want.gcd_degree
            assert cert.group is g and cert.checks["equivariant"] is True

    def test_cyclic_search_keeps_its_bound(self):
        # the cover kept on g holds no search result: after a default
        # search, a search with bound 0 tries no vector and finds nothing
        g = build_group("cyclic", 2)
        construct_self_compression(g, 3)
        with pytest.raises(SearchExhausted):
            construct_self_compression(g, 3, 0)
        assert construct_self_compression(g, 3, 1).alpha == (0, -1)

    def test_cyclic_certificate_builds_one_cover(self, monkeypatch):
        # construct and verify_descent share the binary dihedral cover kept
        # on the cyclic group
        calls = []

        def counting(kind, ell=None):
            calls.append((kind, ell))
            return build_group(kind, ell)

        g = build_group("cyclic", 3)
        monkeypatch.setattr(compress, "build_group", counting)
        cert = construct_self_compression(g, 5)
        assert verify_descent(cert)["nontrivial"]
        assert calls == [("binary-dihedral", 3)]

    def test_icosahedral_degree11(self):
        cert = construct_self_compression(build_group("icosahedral"), 11)
        assert cert.gcd_degree == 0 and cert.descent_degree == 11
        assert all(cert.checks.values())

    def test_octahedral_degree7(self):
        cert = construct_self_compression(build_group("octahedral"), 7)
        assert all(cert.checks.values())
        assert cert.descent_degree >= 2

    def test_dihedral5_degree9(self):
        cert = construct_self_compression(build_group("dihedral", 5), 9)
        assert all(cert.checks.values())
        assert cert.gcd_degree <= 7

    def test_descent_invariant_ties_fields(self):
        cert = construct_self_compression(build_group("tetrahedral"), 5)
        assert cert.checks["descent_nontrivial"] == (cert.gcd_degree <= cert.d - 2)
        assert cert.descent_degree == cert.d - cert.gcd_degree >= 2

    def test_json_deterministic_and_roundtrips(self):
        a = construct_self_compression(build_group("dihedral", 3), 5)
        b = construct_self_compression(build_group("dihedral", 3), 5)
        sa = json.dumps(a.to_json(), sort_keys=True)
        sb = json.dumps(b.to_json(), sort_keys=True)
        assert sa == sb
        c = CompressionCertificate.from_json(json.loads(sa))
        assert c.phi1 == a.phi1 and c.phi2 == a.phi2
        assert c.alpha == a.alpha and c.d == a.d
        assert c.group.kind == "binary-dihedral" and c.group.ell == 3


class TestVerifyEquivariance:
    def test_identity_pair_passes(self):
        for g in (build_group("dihedral", 2), build_group("tetrahedral")):
            f1 = Form.monomial(2, (1, 0), g.conductor)
            f2 = Form.monomial(2, (0, 1), g.conductor)
            rep = verify_equivariance(g, f1, f2, "linear")
            assert rep["pass"] and rep["checked"] == g.order

    def test_cubes_fail_linear_at_diagonal(self):
        g = build_group("dihedral", 2)
        rep = verify_equivariance(g, Form.monomial(2, (3, 0), 4),
                                  Form.monomial(2, (0, 3), 4), "linear")
        assert not rep["pass"]
        bad = mat_from_json(rep["failing"]["matrix"])
        i4 = zeta(4)
        assert bad == Mat([[i4, zero(4)], [zero(4), -i4]])

    def test_cubes_pass_projective(self):
        g = build_group("dihedral", 2)
        rep = verify_equivariance(g, Form.monomial(2, (3, 0), 4),
                                  Form.monomial(2, (0, 3), 4), "projective")
        assert rep["pass"] and rep["checked"] == 8

    def test_icosahedral_degree11_pair(self):
        p, q = icosa_degree11_pair()
        w5 = zeta(5)
        t = w5 + w5 ** 4
        g1 = Mat([[w5, zero(5)], [zero(5), one(5)]])
        g2 = Mat([[t, one(5)], [one(5), -t]])
        rep = verify_equivariance([g1, g2], p, q, "projective")
        assert rep["pass"] and rep["checked"] == 2
        # the diagonal generator matches on the nose: (w5 P : Q)
        assert cyc_from_json(rep["scalars"][0]) == one(5)
        assert substitute(g1, p) == w5 * p and substitute(g1, q) == q
        lin = verify_equivariance([g1, g2], p, q, "linear")
        assert not lin["pass"]

    def test_group_and_generator_list_agree(self):
        g = build_group("dihedral", 2)
        cert = construct_self_compression(g, 3)
        full = verify_equivariance(g, cert.phi1, cert.phi2, "linear")
        gens = verify_equivariance(list(g.generators), cert.phi1, cert.phi2, "linear")
        assert full["pass"] and gens["pass"]
        assert gens["checked"] == len(g.generators)

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatch):
            verify_equivariance(build_group("dihedral", 2),
                                Form.monomial(2, (1, 0), 4),
                                Form.monomial(2, (0, 2), 4))

    def test_stops_at_first_failure(self):
        g = build_group("dihedral", 2)
        rep = verify_equivariance(g, Form.monomial(2, (2, 1), 4),
                                  Form.monomial(2, (1, 2), 4), "linear")
        assert not rep["pass"]
        assert rep["checked"] <= g.order
        assert rep["failing"]["index"] is not None


def reference_equivariance(g, phi1, phi2):
    """The element-by-element linear check: phi o m against (m00 phi1 +
    m01 phi2, m10 phi1 + m11 phi2) for every element m, coset by coset in
    the order of coset_products, up to the first failing element."""
    n = lcm(g.conductor, phi1.n)
    f1, f2 = phi1.embed(n), phi2.embed(n)
    report = {"mode": "linear", "pass": True, "checked": 0, "failing": None,
              "scalars": None}
    for gi in itertools.chain.from_iterable(coset_products(g)):
        m = g.elements[gi]
        (a, b), (c, e) = m.embed(n).rows
        report["checked"] += 1
        if (substitute(m.embed(n), f1) != a * f1 + b * f2
                or substitute(m.embed(n), f2) != c * f1 + e * f2):
            report["pass"] = False
            report["failing"] = {"index": gi, "matrix": mat_to_json(m)}
            break
    return report


SHEAR = ((1, 1), (0, 1))


def shear_conjugate(g, phi1, phi2):
    """(s^-1 g s, s^-1 phi(s x)) for the shear s: a custom group that keeps
    no diagonal element but +-I, and the pair that is equivariant for it
    when (phi1, phi2) is for g."""
    n = g.conductor
    s = Mat([[CycNum.from_rational(x, n) for x in row] for row in SHEAR])
    t = s.inverse()
    h = MatrixGroup([matmul(t, m, s) for m in g.generators])
    p1, p2 = substitute(s, phi1.embed(n)), substitute(s, phi2.embed(n))
    (a, b), (c, e) = t.rows
    return h, a * p1 + b * p2, c * p1 + e * p2


def t22_pair(d, rng):
    """An odd-degree pair equivariant for T_2(2,2) = diag(+-1, +-1): phi1
    odd in x1 and even in x2, phi2 the other way round."""
    f = [Form.zero(2, d, 2), Form.zero(2, d, 2)]
    for j in range(d + 1):
        f[j % 2] = f[j % 2] + rng.randint(-3, 3) * Form.monomial(2, (d - j, j), 2)
    return f


def edited(phi1, phi2, rng):
    """The pair with one seeded coefficient moved by a root of unity times
    a small integer."""
    n, d = phi1.n, phi1.degree
    f = [list(phi1.coeffs), list(phi2.coeffs)]
    i, j = rng.randrange(2), rng.randrange(d + 1)
    f[i][j] = f[i][j] + rng.choice([1, -1, 2, 3]) * zeta(n, rng.randrange(n))
    return Form(2, d, f[0]), Form(2, d, f[1])


EQUIVARIANCE_CASES = ([("binary-tetrahedral", None), ("binary-octahedral", None),
                       ("binary-icosahedral", None)]
                      + [(k, ell) for k in ("binary-dihedral", "cyclic")
                         for ell in range(2, 9)]
                      + [("T2(2,2)", None), ("sheared-BD(3)", None)])


def equivariance_case(kind, ell):
    """(group, honest pairs): a catalog group at its first two feasible
    degrees, T_2(2,2), or BD(3) conjugated by the shear."""
    if kind == "T2(2,2)":
        rng = random.Random("t22")
        return tn_group(2, [2, 2]), [t22_pair(d, rng) for d in (3, 5, 7)]
    if kind == "sheared-BD(3)":
        bd3 = build_group("binary-dihedral", 3)
        pairs = []
        for d in (5, 11):
            cert = construct_self_compression(bd3, d)
            h, p1, p2 = shear_conjugate(bd3, cert.phi1, cert.phi2)
            pairs.append((p1, p2))
        return h, pairs
    g = build_group(kind, ell)
    pairs = []
    for d in range(2, 24):
        try:
            cert = construct_self_compression(g, d)
        except InfeasibleDegree:
            continue
        pairs.append((cert.phi1, cert.phi2))
        if len(pairs) == 2:
            break
    return g, pairs


def first_generator_average(g, psi1, psi2):
    """sum over h in H of h^-1 psi(h x), H generated by g's first generator:
    a pair equivariant for H, as psi(h g x) = g h'^-1 psi(h' x) with h' = h g."""
    n = g.conductor
    gen = g.generators[0]
    powers = [Mat.identity(2, n)]
    while matmul(powers[-1], gen) != powers[0]:
        powers.append(matmul(powers[-1], gen))
    acc = [Form.zero(2, psi1.degree, n), Form.zero(2, psi1.degree, n)]
    for h in powers:
        a1, a2 = substitute(h, psi1), substitute(h, psi2)
        for i, (p, q) in enumerate(h.inverse().rows):
            acc[i] = acc[i] + p * a1 + q * a2
    return acc


class TestCosetEquivariance:
    """verify_equivariance proves a pass on the generators and walks a
    failing pair element by element; its reports must be those of the
    element-by-element reference, honest or edited."""

    @pytest.mark.parametrize("kind,ell", EQUIVARIANCE_CASES)
    def test_reports_match_the_reference(self, kind, ell):
        g, pairs = equivariance_case(kind, ell)
        rng = random.Random(f"{kind}{ell}")
        assert pairs
        failing = 0
        for phi1, phi2 in pairs:
            ref = reference_equivariance(g, phi1, phi2)
            assert ref["pass"] and ref["checked"] == g.order
            assert verify_equivariance(g, phi1, phi2) == ref
            for _ in range(6):
                p1, p2 = edited(phi1, phi2, rng)
                ref = reference_equivariance(g, p1, p2)
                failing += not ref["pass"]
                assert verify_equivariance(g, p1, p2) == ref
        assert failing > 0

    @pytest.mark.parametrize("kind,ell", [
        c for c in EQUIVARIANCE_CASES if c[0] not in ("cyclic", "T2(2,2)")])
    def test_pair_failing_past_the_first_generator(self, kind, ell):
        # an honest pair plus a monomial edit averaged over the first
        # generator's cyclic group passes that generator and fails a later
        # one; the walk must still name the reference's first failing
        # element. (A cyclic group has one generator; on T_2(2,2) at odd
        # degree, the first generator and -I give the second.)
        g, pairs = equivariance_case(kind, ell)
        rng = random.Random(f"later{kind}{ell}")
        found = 0
        for phi1, phi2 in pairs:
            n, d = phi1.n, phi1.degree
            assert n == g.conductor
            edits = [(i, j) for i in range(2) for j in range(d + 1)]
            rng.shuffle(edits)
            here = 0
            for i, j in edits:
                psi = [Form.zero(2, d, n), Form.zero(2, d, n)]
                psi[i] = Form.monomial(2, (d - j, j), n, rng.choice([1, -2, 3]))
                a1, a2 = first_generator_average(g, *psi)
                p1, p2 = phi1 + a1, phi2 + a2
                on_gens = verify_equivariance(list(g.generators), p1, p2)
                if on_gens["pass"] or on_gens["failing"]["index"] == 0:
                    continue
                ref = reference_equivariance(g, p1, p2)
                assert not ref["pass"]
                assert verify_equivariance(g, p1, p2) == ref
                here += 1
                if here == 2:
                    break
            found += here
        assert found >= 2

    def test_sheared_group_has_scalar_diagonal(self):
        # C = {+-I}: lambda equals mu on C, so every term of a coefficient
        # falls in one character
        h = equivariance_case("sheared-BD(3)", None)[0]
        diag = [h.elements[i] for i in diagonal_coset_decomposition(h)[0]]
        assert sorted(m.rows[0][0] == one(h.conductor) for m in diag) == [False, True]
        assert all(m.rows[0][0] == m.rows[1][1] for m in diag)

    def test_t22_diagonal_subgroup_is_not_cyclic(self):
        g = tn_group(2, [2, 2])
        assert len(diagonal_coset_decomposition(g)[0]) == g.order == 4
        assert all(matmul(m, m) == Mat.identity(2, g.conductor) for m in g.elements)

    def test_honest_certificate_walks_no_element(self, monkeypatch):
        g = build_group("icosahedral")
        cert = construct_self_compression(g, 11)
        substs, lins = [], []
        subst_raws, lin2 = compress._subst_raws, compress._lin2
        monkeypatch.setattr(compress, "_subst_raws",
                            lambda *a: substs.append(1) or subst_raws(*a))
        monkeypatch.setattr(compress, "_lin2", lambda *a: lins.append(1) or lin2(*a))
        # an honest pair substitutes each generator once and walks nothing
        rep = verify_equivariance(g, cert.phi1, cert.phi2)
        assert rep["pass"] and rep["checked"] == 120
        assert len(substs) == len(g.generators) and len(lins) == 2 * len(g.generators)
        # a failing pair is walked element by element up to its first
        # failing element: one substitution per coset it enters, two
        # right-hand sides per element
        substs.clear(), lins.clear()
        p1, p2 = edited(cert.phi1, cert.phi2, random.Random(3))
        rep = verify_equivariance(g, p1, p2)
        assert not rep["pass"]
        coset = len(diagonal_coset_decomposition(g)[0])
        tried = len(substs) - ((rep["checked"] - 1) // coset + 1)
        assert 1 <= tried <= len(g.generators)
        assert len(lins) == 2 * (tried + rep["checked"])


CATALOG_CASES = [c for c in EQUIVARIANCE_CASES if c[0] not in ("T2(2,2)", "sheared-BD(3)")]


def descent_group(cert):
    """The group whose isotypic pieces verify_descent reads."""
    g = cert.group
    return compress._dihedral_cover(g) if g.kind == "cyclic" else g


class TestVerifyDescent:
    @pytest.mark.parametrize("kind,ell", CATALOG_CASES)
    def test_lifted_piece_matches_a_fresh_group(self, kind, ell):
        # after construct, the trivial piece comes from the group's store of
        # invariant rows; a certificate read from JSON builds it as an
        # isotypic piece, and looks for no generators;
        # beside each certificate, (x1 f, x2 f) has trivial descent, for f
        # the first invariant of the highest degree e <= d + 1 that has one
        g = build_group(kind, ell)
        degrees = [d for d in range(2, 24) if series(kind, ell, "S_G", d)[d]][:2]
        for d in degrees:
            cert = construct_self_compression(g, d)
            h = descent_group(cert)
            assert d - 1 in h._cache["invariant_rows"]
            e = max(e for e in range(1, d + 2) if invariant_basis(h, e))
            f = invariant_basis(h, e)[0]
            x1, x2 = (Form.monomial(2, u, h.conductor) for u in ((1, 0), (0, 1)))
            # its alpha is a placeholder of the length a file must carry
            alpha = (0,) * multiplicity_chi(h, e + 1)
            trivial = CompressionCertificate(g, e + 1, x1 * f, x2 * f, alpha, e, {})
            for c in (cert, trivial):
                lifted = verify_descent(c)
                assert lifted["containment"]["gamma0"] == (c is trivial)
                fresh = CompressionCertificate.from_json(json.loads(json.dumps(c.to_json())))
                assert verify_descent(fresh) == lifted
                cache = descent_group(fresh)._cache
                assert "invariant_generators" not in cache and "invariant_rows" not in cache

    def test_lifted_piece_makes_no_substitution(self, monkeypatch):
        g = build_group("tetrahedral")
        cert = construct_self_compression(g, 7)
        fresh = CompressionCertificate.from_json(cert.to_json())
        calls = []
        subst_forms = K.subst_forms
        monkeypatch.setattr(K, "subst_forms",
                            lambda *a: calls.append(1) or subst_forms(*a))
        verify_descent(cert)
        assert len(calls) == 0
        # the trivial piece of degree 6 from the two non-diagonal generators
        verify_descent(fresh)
        assert len(calls) == 2

    def test_q8_certificate(self):
        cert = construct_self_compression(build_group("dihedral", 2), 3)
        rep = verify_descent(cert)
        assert rep["nontrivial"] and rep["descent_degree"] == 3
        assert rep["containment"] == {"gamma0": False, "gamma1": False,
                                      "gamma2": False, "gamma3": False}
        assert rep["criteria_agree"]

    def test_trivial_pair(self):
        # x1 x2 * (x1, x2): the descent is the identity
        g = build_group("cyclic", 2)
        phi1 = Form.monomial(2, (2, 1), 4)
        phi2 = Form.monomial(2, (1, 2), 4)
        cert = CompressionCertificate(g, 3, phi1, phi2, (), 2, {})
        rep = verify_descent(cert)
        assert rep["gcd_degree"] == 2 and not rep["nontrivial"]
        assert sum(rep["containment"].values()) == 1
        assert rep["criteria_agree"]

    def test_icosahedral_degree11_pair(self):
        p, q = icosa_degree11_pair()
        cert = CompressionCertificate(build_group("icosahedral"), 11,
                                      p.embed(20), q.embed(20), (), 0, {})
        rep = verify_descent(cert)
        assert rep["gcd_degree"] == 0 and rep["descent_degree"] == 11
        assert rep["nontrivial"]

    def test_zero_form_rejected(self):
        g = build_group("cyclic", 2)
        cert = CompressionCertificate(g, 3, Form.zero(2, 3, 4),
                                      Form.monomial(2, (3, 0), 4), (), 0, {})
        with pytest.raises(ZeroForm):
            verify_descent(cert)

    def test_gcd_and_containment_agree_on_samples(self):
        rng = random.Random(0xa16eb)
        combos = [("dihedral", 2, 7), ("dihedral", 4, 7),
                  ("tetrahedral", None, 11), ("cyclic", 3, 11)]
        for kind, ell, d in combos:
            g = build_group(kind, ell)
            h = build_group("binary-dihedral", ell) if kind == "cyclic" else g
            basis = equivariant_basis(h, d)
            n = h.conductor
            for _ in range(20):
                alpha = [rng.randint(-4, 4) for _ in basis]
                phi1 = Form.zero(2, d, n)
                phi2 = Form.zero(2, d, n)
                for a, (b1, b2) in zip(alpha, basis):
                    if a:
                        c = CycNum.from_rational(Fraction(a), n)
                        phi1 = phi1 + c * b1
                        phi2 = phi2 + c * b2
                if phi1.is_zero() or phi2.is_zero():
                    continue
                cert = CompressionCertificate(g, d, phi1, phi2, alpha,
                                              form_gcd(phi1, phi2).degree, {})
                assert verify_descent(cert)["criteria_agree"]


class TestJacobianClaim:
    """The nonzero-Jacobian claim is read from the rank of the pair; it must
    be the direct Jacobian's verdict."""

    @staticmethod
    def direct(f1, f2):
        return not jacobian_determinant(f1, f2).is_zero()

    def test_seeded_pairs(self):
        rng = random.Random(0x7ac0)
        for n in (1, 4, 5, 12, 20):
            for d in range(7):
                for _ in range(6):
                    f = [Form(2, d, [rng.choice([0, 0, 1, -2, 3]) * zeta(n, rng.randrange(n))
                                     for _ in range(d + 1)]) for _ in range(2)]
                    assert compress._independent(*f) == self.direct(*f)

    def test_proportional_and_zero_pairs(self):
        rng = random.Random(0x7ac1)
        cases = 0
        for n in (1, 5, 8):
            for d in range(7):
                f = Form(2, d, [rng.randint(-3, 3) + zeta(n, rng.randrange(n))
                                for _ in range(d + 1)])
                zero_form = Form.zero(2, d, n)
                c = rng.choice([1, -2, 3]) * zeta(n, rng.randrange(n))
                for pair in ((f, c * f), (c * f, f), (f, zero_form), (zero_form, f),
                             (zero_form, zero_form)):
                    assert not compress._independent(*pair)
                    assert not self.direct(*pair)
                    cases += 1
                # a common factor is not proportionality
                if d >= 1:
                    x1, x2 = Form.monomial(2, (1, 0), n), Form.monomial(2, (0, 1), n)
                    assert compress._independent(f * x1, f * x2) == self.direct(f * x1, f * x2)
        assert cases == 3 * 7 * 5

    def test_certificates_claim_it(self):
        for kind, ell, d in (("tetrahedral", None, 5), ("dihedral", 3, 5), ("cyclic", 4, 7)):
            cert = construct_self_compression(build_group(kind, ell), d)
            assert cert.checks["jacobian_nonzero"] is True
            assert self.direct(cert.phi1, cert.phi2)


def moebius_of(m):
    """The Moebius map of a 2 x 2 matrix."""
    return Moebius(*(x for row in m.rows for x in row))


def same_moebius(u, v):
    """Projective equality of two Moebius maps: their coefficient vectors
    have equal 2 x 2 minors."""
    n = lcm(u.n, v.n)
    a = [cyc_embed(x, n) for x in (u.a, u.b, u.c, u.e)]
    b = [cyc_embed(x, n) for x in (v.a, v.b, v.c, v.e)]
    return all(a[i] * b[j] == a[j] * b[i] for i in range(4) for j in range(i + 1, 4))


class TestMoebius:
    def test_zero_determinant_rejected(self):
        with pytest.raises(ZeroDenominator):
            Moebius(1, 2, 2, 4)

    def test_projective_equality(self):
        assert same_moebius(Moebius(1, 0, 0, 1), Moebius(2, 0, 0, 2))
        assert not same_moebius(Moebius(1, 1, 0, 1), Moebius(1, 0, 0, 1))
        w = zeta(5)
        assert same_moebius(Moebius(w, 0, 0, 1), Moebius(w * w, 0, 0, w))

    def test_matrix_roundtrip(self):
        w = zeta(8)
        m = Moebius(w, 1, 0, w ** 3)
        again = moebius_of(m.to_matrix())
        assert same_moebius(again, m)

    def test_json_roundtrip(self):
        m = Moebius(zeta(5), 2, Fraction(1, 3), 1)
        doc = {k: cyc_to_json(getattr(m, k)) for k in "abce"}
        assert same_moebius(Moebius.from_json(json.loads(json.dumps(doc))), m)


class TestFunctionalEquation:
    def test_cube_against_order_two(self):
        rep = verify_functional_equation(([0, 0, 0, 1], [1]),
                                         [Moebius(1, 0, 0, 1), Moebius(-1, 0, 0, 1)])
        assert rep["pass"] and rep["degree"] == 3 and rep["nontrivial"]

    def test_shift_fails(self):
        rep = verify_functional_equation(([1, 1], [1]), [Moebius(-1, 0, 0, 1)])
        assert not rep["pass"] and rep["failing_generator"] == 0

    def test_icosahedral_formulas(self):
        w5 = zeta(5)
        t = w5 + w5 ** 4
        pz = [0, -11, 0, 0, 0, 0, 66, 0, 0, 0, 0, 1]
        qz = [1, 0, 0, 0, 0, -66, 0, 0, 0, 0, -11]
        rep = verify_functional_equation(
            (pz, qz), [Moebius(w5, 0, 0, 1), Moebius(t, 1, 1, -t)]
        )
        assert rep["pass"] and rep["degree"] == 11 and rep["nontrivial"]

    def test_common_factor_cancelled(self):
        # z^2 (z+1) / z^2 reduces to degree 1
        rep = verify_functional_equation(([0, 0, 1, 1], [0, 0, 1]),
                                         [Moebius(1, 0, 0, 1)])
        assert rep["pass"] and rep["degree"] == 1 and not rep["nontrivial"]

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDenominator):
            verify_functional_equation(([1], [0, 0]), [Moebius(1, 0, 0, 1)])

    def test_zero_function(self):
        rep = verify_functional_equation(([0], [0, 1]),
                                         [Moebius(-1, 0, 0, 1)])
        assert rep["pass"] and rep["degree"] == 0

    def test_matrices_accepted(self):
        i4 = zeta(4)
        m = Mat([[i4, zero(4)], [zero(4), -i4]])
        rep = verify_functional_equation(([0, 0, 0, 1], [1]), [m])
        assert rep["pass"] and rep["degree"] == 3


def projector_invariant_reference(g, d):
    """The first reduced basis vector of the invariants of degree d, or
    None, from the averaging projector: the images of every monomial under
    every element summed into a dim x dim matrix, whose column space is the
    fixed space, then row reduced."""
    n = g.conductor
    ctx = get_context(n)
    units = [Form.monomial(g.size, e, n) for e in monomial_exponents(g.size, d)]
    cols = [[ctx.zero] * len(units) for _ in units]
    for m in g.elements:
        for col, img in zip(cols, substitute_all(m, units)):
            K.vec_axpy(col, ctx.one, img.raw, ctx.red, ctx.phi)
    pivots = K.rref(cols, ctx.red, ctx.phi, ctx.inv)
    return Form._wrap(g.size, d, n, cols[0]) if pivots else None


def diagonal_invariant_reference(g, d):
    """The first invariant monomial of degree d of an all-diagonal group, or
    None: the group is abelian, so the average of a monomial's weight
    character is |G| when trivial and 0 otherwise, summed element by
    element."""
    n = g.conductor
    ctx = get_context(n)
    pows = [[K.powers(x, d, ctx.red, ctx.phi) for x in m.raw[::g.size + 1]]
            for m in g.elements]
    for e in monomial_exponents(g.size, d):
        tot = ctx.zero
        for rows in pows:
            term = ctx.one
            for i, k in enumerate(e):
                if k:
                    term = K.c_mul(term, rows[i][k], ctx.red, ctx.phi)
            tot = K.c_add(tot, term)
        if not K.c_is_zero(tot):
            return Form.monomial(g.size, e, n)
    return None


class TestInvariantForm:
    def test_trivial_group(self):
        g = MatrixGroup((Mat.identity(1, 1),), kind="custom")
        assert invariant_form(g, 1) == Form.monomial(1, (1,), 1)

    def test_plus_minus_one(self):
        g = tn_group(1, (2,))
        assert invariant_form(g, 2) == Form.monomial(1, (2,), g.conductor)
        assert invariant_form(g, 1) is None
        assert invariant_form(g, 3) is None

    def test_icosahedral_gap(self):
        g = build_group("icosahedral")
        for d in range(1, 12):
            assert invariant_form(g, d) is None
        f = invariant_form(g, 12)
        assert f is not None and f.degree == 12
        for m in g.generators:
            assert substitute(m, f) == f

    def test_q8_first_invariant(self):
        g = build_group("dihedral", 2)
        for d in (1, 2, 3):
            assert invariant_form(g, d) is None
        f = invariant_form(g, 4)
        assert f == Form.monomial(2, (4, 0), 4) + Form.monomial(2, (0, 4), 4)

    def test_rank_matches_molien_series(self):
        for kind, ell in (("tetrahedral", None), ("dihedral", 3)):
            g = build_group(kind, ell)
            p1 = series(kind, ell, "P_1", 16)
            for d in range(1, 17):
                assert (invariant_form(g, d) is None) == (p1[d] == 0)

    def test_degree_zero(self):
        g = build_group("dihedral", 2)
        f = invariant_form(g, 0)
        assert f.degree == 0 and not f.is_zero()

    def test_orbit_route(self):
        g = build_group("cyclic", 2)
        f = invariant_form(g, 8, method="orbit")
        assert f.degree == 8 and not f.is_zero()
        for m in g.generators:
            assert substitute(m, f) == f
        with pytest.raises(ValueError):
            invariant_form(g, 6, method="orbit")

    def test_divisible_degree_always_succeeds(self):
        for g in (build_group("cyclic", 3), tn_group(2, (2, 2))):
            d = g.order
            f = invariant_form(g, d, method="orbit")
            assert f is not None and f.degree == d

    def test_diagonal_groups(self):
        g = tn_group(2, (2, 2))
        assert invariant_form(g, 1) is None
        assert invariant_form(g, 2) == Form.monomial(2, (2, 0), g.conductor)

    def test_nondiagonal_custom_group(self):
        o = one(1)
        z = zero(1)
        swap = Mat([[z, o], [o, z]])
        g = MatrixGroup((swap,), kind="custom")
        f = invariant_form(g, 1)
        assert f == Form.monomial(2, (1, 0), 1) + Form.monomial(2, (0, 1), 1)
        assert substitute(swap, f) == f

    def test_custom_group_matches_trivial_isotypic_piece(self):
        # a 2x2 group outside the catalog reads its trivial isotypic piece;
        # its answer against the first basis vector of that piece and
        # against the action summed element by element. BD(3) conjugated by
        # a shear has a diagonal subgroup of order 2 only.
        bd3 = build_group("binary-dihedral", 3)
        n = bd3.conductor
        shear = Mat([[one(n), one(n)], [zero(n), one(n)]])
        g = MatrixGroup([matmul(shear, m, shear.inverse()) for m in bd3.generators])
        assert g.kind == "custom" and g.order == 12
        assert sum(m.is_diagonal() for m in g.elements) == 2
        triv = (get_context(n).one,) * g.order
        rng = random.Random(0x2b2)
        for d in [1, 2, 3, 4] + rng.sample(range(5, 25), 4):
            ((_, basis),) = isotypic_dims_and_bases(g, [triv], d)
            want = basis[0] if basis else None
            assert projector_invariant_reference(g, d) == want
            assert invariant_form(g, d) == want


def orbit_product_reference(g, d):
    """The orbit route multiplied element by element: the |G| linear forms
    x1 o h in enumeration order, then that product raised to d/|G| by
    repeated multiplication."""
    base = Form(g.size, 0, [one(g.conductor)])
    for m in g.elements:
        base = base * Form(g.size, 1, list(m.rows[0]))
    f = base
    for _ in range(d // g.order - 1):
        f = f * base
    return f


def lower_sheared_bd3():
    """BD(3) conjugated by the lower shear s = [[1, 0], [1, 1]]: s^-1 diag(a, b) s
    = [[a, 0], [b - a, b]], so the elements whose first row is (c00, 0) are
    the six images of the diagonal subgroup, and only +-I stay diagonal."""
    bd3 = build_group("binary-dihedral", 3)
    n = bd3.conductor
    s = Mat([[one(n), zero(n)], [one(n), one(n)]])
    return MatrixGroup([matmul(s.inverse(), m, s) for m in bd3.generators])


def tetrahedral_rotations():
    """The rotations of a tetrahedron as 3x3 signed permutation matrices:
    the cyclic shift of the coordinates and diag(1, -1, -1) generate it,
    and of its four diagonal elements only I and diag(1, -1, -1) keep
    x1 o h a multiple of x1."""
    o, z = one(1), zero(1)
    shift = Mat([[z, o, z], [z, z, o], [o, z, z]])
    flip = Mat.diagonal([o, -o, -o])
    return MatrixGroup([shift, flip])


CATALOG = ([("tetrahedral", None), ("octahedral", None), ("icosahedral", None)]
           + [("dihedral", ell) for ell in range(2, 9)]
           + [("cyclic", ell) for ell in range(2, 9)])


class TestOrbitRoute:
    def test_fixtures(self):
        g = lower_sheared_bd3()
        first_row_x1 = [m for m in g.elements if m.rows[0][1].is_zero()]
        assert g.order == 12 and len(first_row_x1) == 6
        assert sum(m.is_diagonal() for m in g.elements) == 2
        g = tetrahedral_rotations()
        assert g.order == 12 and sum(m.is_diagonal() for m in g.elements) == 4

    @pytest.mark.parametrize("kind,ell", CATALOG)
    def test_catalog_matches_element_product(self, kind, ell):
        g = build_group(kind, ell)
        for k in (1, 2, 3):
            got = compress._orbit_invariant(g, k * g.order)
            assert form_to_json(got) == form_to_json(orbit_product_reference(g, k * g.order))

    @pytest.mark.parametrize("make", [lambda: tn_group(2, (2, 2)), lower_sheared_bd3,
                                      tetrahedral_rotations])
    def test_custom_groups_match_element_product(self, make):
        g = make()
        for k in (1, 2, 3):
            got = invariant_form(g, k * g.order, method="orbit")
            assert form_to_json(got) == form_to_json(orbit_product_reference(g, k * g.order))

    def test_icosahedral_product_count(self, monkeypatch):
        # 12 linear factors, R^10 by binary powering and the generator
        # check, where the element-by-element product made 12,508 products
        g = build_group("icosahedral")
        to_table(g)
        calls = []
        c_mul = K.c_mul

        def counted(*args):
            calls.append(None)
            return c_mul(*args)

        monkeypatch.setattr(K, "c_mul", counted)
        compress._orbit_invariant(g, 120)
        assert 0 < len(calls) <= 2500


def linear_self_compression_reference(g, f):
    """linear_self_compression with both equivariance sides built in CycNum
    form arithmetic, Form.scale and Form.__add__, term by term."""
    d = f.degree
    n = lcm(g.conductor, f.n)
    fe = f if f.n == n else f.embed(n)
    gens = [m if m.n == n else m.embed(n) for m in g.generators]
    nv = g.size
    xs = [Form.monomial(nv, tuple(1 if j == i else 0 for j in range(nv)), n)
          for i in range(nv)]
    maps = tuple(fe * x for x in xs)
    images = [substitute(m, fe) for m in gens]
    if any(img != fe for img in images):
        raise NotInvariant("the form is not invariant under the generators")
    equivariant = True
    for m, img in zip(gens, images):
        for i in range(nv):
            lhs = img * Form(nv, 1, list(m.rows[i]))
            rhs = Form.zero(nv, d + 1, n)
            for j in range(nv):
                rhs = rhs + m.rows[i][j] * maps[j]
            if lhs != rhs:
                equivariant = False
                break
        if not equivariant:
            break
    point = None
    for p in itertools.product(range(max(d, 1) + 1), repeat=nv):
        if gcd(*p) != 1:
            continue
        pc = [CycNum.from_rational(Fraction(x), n) for x in p]
        if not K.c_is_zero(fe.evaluate(pc)):
            point = p
            break
    pc = [CycNum.from_rational(Fraction(x), n) for x in point]
    top = [cyc(n, mp.evaluate(pc)) for mp in maps]
    return {
        "maps": maps,
        "degree": d + 1,
        "equivariant": equivariant,
        "nontrivial": d >= 1,
        "line_point": list(point),
        "line_degree": d + 1 if any(not t.is_zero() for t in top) else 0,
    }


class TestLinearSelfCompression:
    def test_trivial_group_squaring(self):
        g = MatrixGroup((Mat.identity(1, 1),), kind="custom")
        rep = linear_self_compression(g, Form.monomial(1, (1,), 1))
        assert rep["maps"] == (Form.monomial(1, (2,), 1),)
        assert rep["degree"] == 2 and rep["nontrivial"]

    def test_plus_minus_one_cube(self):
        g = tn_group(1, (2,))
        rep = linear_self_compression(g, Form.monomial(1, (2,), g.conductor))
        assert rep["maps"][0] == Form.monomial(1, (3,), g.conductor)
        assert rep["equivariant"]

    def test_t22_example(self):
        g = tn_group(2, (2, 2))
        rep = linear_self_compression(g, Form.monomial(2, (2, 2), g.conductor))
        assert rep["maps"][0] == Form.monomial(2, (3, 2), g.conductor)
        assert rep["maps"][1] == Form.monomial(2, (2, 3), g.conductor)
        assert rep["degree"] == 5 and rep["equivariant"] and rep["nontrivial"]
        assert rep["line_degree"] == 5

    def test_catalog_group(self):
        g = build_group("tetrahedral")
        f = invariant_form(g, 6)
        rep = linear_self_compression(g, f)
        assert rep["degree"] == 7 and rep["equivariant"]
        assert rep["line_degree"] == 7

    def test_line_restriction_degree(self):
        g = build_group("dihedral", 2)
        f = invariant_form(g, 8)
        rep = linear_self_compression(g, f)
        assert rep["line_degree"] == 9 == f.degree + 1

    def test_line_point_matches_full_grid(self):
        # the search skips points whose entries share a factor; the first
        # point off the zero set must be the one the whole grid gives
        def full_grid(f):
            nv = f.nvars
            for p in itertools.product(range(max(f.degree, 1) + 1), repeat=nv):
                pc = [CycNum.from_rational(Fraction(x), f.n) for x in p]
                if any(p) and not K.c_is_zero(f.evaluate(pc)):
                    return list(p)

        cases = [(build_group("icosahedral"), d) for d in (12, 20, 30)]
        cases += [(build_group("octahedral"), d) for d in (8, 12, 18)]
        cases += [(build_group("dihedral", 5), d) for d in (4, 10, 12)]
        for g, d in cases:
            f = invariant_form(g, d)
            assert linear_self_compression(g, f)["line_point"] == full_grid(f)
        rng = random.Random(0x9e1d)
        g = tn_group(2, (2, 2))
        for _ in range(20):
            d = 2 * rng.randrange(1, 7)
            f = Form.zero(2, d, g.conductor)
            for _ in range(rng.randrange(1, 3)):
                a = 2 * rng.randrange(d // 2 + 1)
                f = f + rng.choice([1, -2, 3]) * Form.monomial(2, (a, d - a), g.conductor)
            if f.is_zero():
                continue
            assert linear_self_compression(g, f)["line_point"] == full_grid(f)

    @pytest.mark.parametrize("make", (
        [lambda kind=kind: build_group(kind) for kind in
         ("tetrahedral", "octahedral", "icosahedral")]
        + [lambda ell=ell: build_group("dihedral", ell) for ell in range(2, 6)]
        + [lambda ell=ell: build_group("cyclic", ell) for ell in range(2, 6)]
        + [lower_sheared_bd3]))
    def test_matches_cycnum_reference(self, make):
        # seeded Reynolds degrees below 31 that carry an invariant, and the
        # orbit product at |G| and 2|G|
        g = make()
        rng = random.Random(0x15c + g.order)
        reynolds = [invariant_form(g, d, "reynolds") for d in range(1, 31)]
        forms = rng.sample([f for f in reynolds if f is not None], 3)
        forms += [invariant_form(g, k * g.order, "orbit") for k in (1, 2)]
        for f in forms:
            got = linear_self_compression(g, f)
            assert got == linear_self_compression_reference(g, f)
            assert got["equivariant"]

    def test_not_invariant_rejected(self):
        g = tn_group(1, (2,))
        with pytest.raises(NotInvariant):
            linear_self_compression(g, Form.monomial(1, (1,), g.conductor))


class TestCatalogSweep:
    # every feasible degree in a small window yields a verified certificate
    def test_small_feasible_degrees(self):
        jobs = [("dihedral", 2, 7), ("dihedral", 3, 11), ("cyclic", 4, 7),
                ("tetrahedral", None, 7), ("octahedral", None, 15),
                ("icosahedral", None, 19)]
        for kind, ell, d in jobs:
            g = build_group(kind, ell)
            cert = construct_self_compression(g, d)
            assert all(cert.checks.values()), (kind, ell, d)
            rep = verify_descent(cert)
            assert rep["nontrivial"] and rep["criteria_agree"], (kind, ell, d)

    def test_descent_chart_consistency(self):
        # the reduced fraction passes the functional equation for the
        # Moebius images of the group generators
        g = build_group("cyclic", 3)
        cert = construct_self_compression(g, 5)
        num, den = descent_rational(cert)
        gens = [moebius_of(m) for m in g.generators]
        rep = verify_functional_equation((num, den), gens)
        assert rep["pass"] and rep["degree"] == cert.descent_degree
