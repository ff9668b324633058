import random
from fractions import Fraction
from functools import lru_cache

import pytest

import equimap._kernel as K
from equimap.errors import BothZero, ConductorMismatch, ReducibleChi
from equimap.forms import (
    Form,
    LinMapBasis,
    action_matrix,
    canonical_span,
    diagonal_weights,
    equivariant_basis,
    form_from_json,
    form_gcd,
    form_to_json,
    in_span,
    isotypic_dim_and_basis,
    isotypic_dimension,
    isotypic_projector,
    jacobian_determinant,
    monomial_exponents,
    multiplicity_chi,
    reynolds_operator_matrix,
    substitute,
)
from equimap.groups import (
    Mat,
    build_group,
    chi_stabilizer_characters,
    diagonal_coset_decomposition,
    linear_characters,
)
from equimap.scalars import CycNum, cyc_embed, get_context, one, zero, zeta


@lru_cache(maxsize=None)
def grp(kind, ell=None):
    return build_group(kind, ell)


def rat(q, n):
    return CycNum.from_rational(Fraction(q), n)


def biv(coeffs, n):
    """Bivariate form from plain rational coefficients, degree-lex order."""
    return Form(2, len(coeffs) - 1, [rat(c, n) for c in coeffs])


def rand_form(rng, d, n, span=4):
    return Form(2, d, [rat(rng.randint(-span, span), n) for _ in range(d + 1)])


class TestFormBasics:
    def test_monomial_order_bivariate(self):
        assert monomial_exponents(2, 3) == ((3, 0), (2, 1), (1, 2), (0, 3))

    def test_monomial_order_trivariate(self):
        mons = monomial_exponents(3, 2)
        assert mons[0] == (2, 0, 0)
        assert mons == tuple(sorted(mons, reverse=True))
        assert len(mons) == 6

    def test_add_scale(self):
        f = biv([1, 0, 2], 4)
        g = biv([0, 1, -2], 4)
        assert f + g == biv([1, 1, 0], 4)
        assert f - g == biv([1, -1, 4], 4)
        assert 3 * f == biv([3, 0, 6], 4)

    def test_product_bivariate(self):
        # (x1 + x2)(x1 - x2) = x1^2 - x2^2
        assert biv([1, 1], 4) * biv([1, -1], 4) == biv([1, 0, -1], 4)

    def test_product_trivariate(self):
        x1 = Form.monomial(3, (1, 0, 0), 4)
        x2 = Form.monomial(3, (0, 1, 0), 4)
        x3 = Form.monomial(3, (0, 0, 1), 4)
        s = x1 + x2 + x3
        sq = s * s
        for exps in monomial_exponents(3, 2):
            want = 1 if max(exps) == 2 else 2
            assert sq.coeff(exps).to_fraction() == want

    def test_partial(self):
        f = biv([0, 1, 0, 0], 4)  # x1^2 x2
        assert f.partial(0) == biv([0, 2, 0], 4)
        assert f.partial(1) == biv([1, 0, 0], 4)

    def test_evaluate(self):
        f = biv([0, 1, 0, 0], 4)
        assert f.evaluate([rat(2, 4), rat(3, 4)]).to_fraction() == 12

    def test_euler_identity(self):
        # x*df/dx + y*df/dy = d*f for homogeneous f
        rng = random.Random(20260817)
        for d in (1, 3, 5):
            f = rand_form(rng, d, 12)
            lhs = Form.monomial(2, (1, 0), 12) * f.partial(0) + Form.monomial(
                2, (0, 1), 12
            ) * f.partial(1)
            assert lhs == d * f

    def test_json_roundtrip(self):
        f = Form(2, 2, [zeta(12, 5), zero(12), rat(-3, 12)])
        assert form_from_json(form_to_json(f)) == f

    def test_str(self):
        assert str(biv([1, 0, -1], 4)) == "x1^2 - x2^2"
        assert str(Form.zero(2, 3, 4)) == "0"


class TestSubstitute:
    def test_identity(self):
        rng = random.Random(1)
        f = rand_form(rng, 5, 4)
        assert substitute(Mat.identity(2, 4), f) == f

    def test_scalar_homogeneity(self):
        rng = random.Random(2)
        t = zeta(12)
        m = Mat.diagonal([t, t])
        f = rand_form(rng, 4, 12)
        assert substitute(m, f) == (t**4) * f

    def test_rotation_example(self):
        o, z = one(4), zero(4)
        m = Mat([[z, o], [-o, z]])
        f = biv([0, 1, 0, 0], 4)  # x1^2 x2
        assert substitute(m, f) == biv([0, 0, -1, 0], 4)  # -x1 x2^2

    def test_composition_contravariant(self):
        # (f o a) o b = f o (a b) read through substitute(b, substitute(a, f))
        rng = random.Random(3)
        g = grp("binary-tetrahedral")
        for _ in range(6):
            a, b = rng.choice(g.elements), rng.choice(g.elements)
            f = rand_form(rng, 3, 24)
            assert substitute(b, substitute(a, f)) == substitute(a @ b, f)

    def test_conductor_mismatch(self):
        with pytest.raises(ConductorMismatch):
            substitute(Mat.identity(2, 4), rand_form(random.Random(0), 2, 12))


class TestActionMatrix:
    def test_identity(self):
        g = Mat.identity(2, 4)
        assert action_matrix(g, 3) == Mat.identity(4, 4)

    def test_minus_identity_odd(self):
        m = -Mat.identity(2, 4)
        assert action_matrix(m, 3) == -Mat.identity(4, 4)

    def test_diag_trace_zero(self):
        i4 = zeta(4)
        m = Mat.diagonal([i4, -i4])
        assert action_matrix(m, 3).trace().is_zero()

    def test_homomorphism_q8_full(self):
        g = grp("binary-dihedral", 2)
        mats = {h: action_matrix(h, 3) for h in g.elements}
        for a in g.elements:
            for b in g.elements:
                assert mats[a] @ mats[b] == action_matrix(a @ b, 3)

    def test_homomorphism_sampled(self):
        rng = random.Random(20260817)
        g = grp("binary-octahedral")
        for _ in range(8):
            a, b = rng.choice(g.elements), rng.choice(g.elements)
            assert action_matrix(a, 4) @ action_matrix(b, 4) == action_matrix(
                a @ b, 4
            )

    def test_action_on_form_is_inverse_substitution(self):
        rng = random.Random(5)
        g = grp("binary-dihedral", 3)
        m = g.elements[7]
        f = rand_form(rng, 4, g.conductor)
        acted = action_matrix(m, 4).apply(list(f.coeffs))
        assert Form(2, 4, acted) == substitute(m.inverse(), f)


def null_space_basis(rows, ncols, ctx):
    """Kernel of the row system, by free-column back substitution."""
    rows = [list(r) for r in rows]
    piv = K.rref(rows, ctx.red, ctx.phi, ctx.inv)
    free = [c for c in range(ncols) if c not in piv]
    out = []
    for fc in free:
        v = [ctx.zero] * ncols
        v[fc] = ctx.one
        for r, pc in enumerate(piv):
            v[pc] = K.c_neg(rows[r][fc])
        out.append(v)
    return out


def equivariance_kernel_oracle(g, d):
    """Fixed maps A_1 -> A_d solved as a literal linear system, no Reynolds."""
    ctx = get_context(g.conductor)
    size = d + 1
    rows = []
    for gen in g.generators:
        rd = action_matrix(gen, d)
        r1 = action_matrix(gen, 1)
        # unknowns L[p][q] at index q*size + p; equations rd L - L r1 = 0
        for p in range(size):
            for q in range(2):
                row = [ctx.zero] * (2 * size)
                for k in range(size):
                    row[q * size + k] = K.c_add(
                        row[q * size + k], rd.rows[p][k].raw
                    )
                for j in range(2):
                    row[j * size + p] = K.c_sub(
                        row[j * size + p], r1.rows[j][q].raw
                    )
                rows.append(row)
    return null_space_basis(rows, 2 * size, ctx)


def spans_equal(vecs_a, vecs_b, ctx):
    a = [list(v) for v in vecs_a]
    b = [list(v) for v in vecs_b]
    pa = K.rref(a, ctx.red, ctx.phi, ctx.inv)
    pb = K.rref(b, ctx.red, ctx.phi, ctx.inv)
    return pa == pb and a[: len(pa)] == b[: len(pb)]


def vectorize_basis(basis):
    return [[c.raw for c in f1.coeffs] + [c.raw for c in f2.coeffs] for f1, f2 in basis]


class TestDiagonalWeights:
    @pytest.mark.parametrize("kind,ell", [
        ("binary-tetrahedral", None),
        ("binary-octahedral", None),
        ("binary-icosahedral", None),
        ("binary-dihedral", 3),
    ])
    @pytest.mark.parametrize("d", [0, 1, 7])
    def test_diagonal_of_substitution(self, kind, ell, d):
        g = grp(kind, ell)
        n = g.conductor
        ctx = get_context(n)
        diag = diagonal_coset_decomposition(g)[0]
        weights = diagonal_weights(g, d, n)
        assert len(weights) == len(diag) > 1
        for ci, w in zip(diag, weights):
            (a, b), (c, e) = g.elements[ci].rows
            cols = K.subst_cols(a.raw, b.raw, c.raw, e.raw, d, ctx.red, ctx.phi)
            assert w == [cols[j][j] for j in range(d + 1)]

    def test_lifted_conductor(self):
        g = grp("binary-dihedral", 3)
        m = 2 * g.conductor
        for w, low in zip(diagonal_weights(g, 5, m), diagonal_weights(g, 5, g.conductor)):
            assert w == [cyc_embed(CycNum._wrap(g.conductor, x), m).raw for x in low]


class TestEquivariantBasis:
    def test_tetrahedral_degree1_identity_map(self):
        b = equivariant_basis(grp("binary-tetrahedral"), 1)
        assert len(b) == 1
        f1, f2 = b[0]
        assert f1 == Form.monomial(2, (1, 0), 24)
        assert f2 == Form.monomial(2, (0, 1), 24)

    def test_q8_degree3(self):
        g = grp("binary-dihedral", 2)
        b = equivariant_basis(g, 3)
        assert len(b) == 2
        target = [c.raw for c in biv([0, 0, 0, 1], 4).coeffs] + [
            c.raw for c in biv([-1, 0, 0, 0], 4).coeffs
        ]
        ctx = get_context(4)
        assert spans_equal(
            vectorize_basis(b) + [target], vectorize_basis(b), ctx
        )

    def test_tetrahedral_degree2_empty(self):
        assert len(equivariant_basis(grp("binary-tetrahedral"), 2)) == 0

    @pytest.mark.parametrize("kind,ell,d", [
        ("binary-dihedral", 2, 3),
        ("binary-dihedral", 3, 5),
        ("binary-tetrahedral", None, 5),
        ("binary-tetrahedral", None, 7),
        ("binary-octahedral", None, 7),
    ])
    def test_matches_constraint_kernel_oracle(self, kind, ell, d):
        g = grp(kind, ell)
        ctx = get_context(g.conductor)
        mine = vectorize_basis(equivariant_basis(g, d))
        oracle = equivariance_kernel_oracle(g, d)
        assert spans_equal(mine, oracle, ctx)

    @pytest.mark.parametrize("kind,ell,d", [
        ("binary-dihedral", 2, 3),
        ("binary-dihedral", 4, 7),
        ("binary-tetrahedral", None, 5),
    ])
    def test_geometric_equivariance_all_elements(self, kind, ell, d):
        g = grp(kind, ell)
        for f1, f2 in equivariant_basis(g, d):
            pair = (f1, f2)
            for m in g.elements:
                for i in range(2):
                    lhs = substitute(m, pair[i])
                    rhs = m.rows[i][0] * pair[0] + m.rows[i][1] * pair[1]
                    assert lhs == rhs

    @pytest.mark.parametrize("kind,ell,d", [
        ("binary-dihedral", 2, 3),
        ("binary-dihedral", 3, 5),
        ("binary-tetrahedral", None, 5),
        ("binary-icosahedral", None, 11),
    ])
    def test_reynolds_idempotent_and_rank(self, kind, ell, d):
        g = grp(kind, ell)
        r = reynolds_operator_matrix(g, d)
        assert r @ r == r
        assert len(equivariant_basis(g, d)) == multiplicity_chi(g, d)

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            equivariant_basis(grp("binary-dihedral", 2), 0)

    def test_linmap_basis_json(self):
        b = equivariant_basis(grp("binary-dihedral", 2), 3)
        b2 = LinMapBasis.from_json(b.to_json())
        assert b2.d == b.d and b2.maps == b.maps


class TestMultiplicity:
    def test_tetrahedral_d5(self):
        assert multiplicity_chi(grp("binary-tetrahedral"), 5) == 1

    def test_q8_d3(self):
        assert multiplicity_chi(grp("binary-dihedral", 2), 3) == 2

    @pytest.mark.parametrize("kind,ell", [
        ("binary-dihedral", 2),
        ("binary-dihedral", 5),
        ("binary-tetrahedral", None),
        ("binary-octahedral", None),
        ("binary-icosahedral", None),
    ])
    def test_degree_one(self, kind, ell):
        assert multiplicity_chi(grp(kind, ell), 1) == 1

    def test_cyclic_rejected(self):
        with pytest.raises(ReducibleChi):
            multiplicity_chi(grp("cyclic", 3), 3)

    @pytest.mark.parametrize("kind,ell,dmax", [
        ("binary-dihedral", 2, 6),
        ("binary-tetrahedral", None, 6),
    ])
    def test_matches_literal_trace_sum(self, kind, ell, dmax):
        # the averaged character-pairing sum, evaluated with dense action matrices
        g = grp(kind, ell)
        for d in range(1, dmax + 1):
            acc = zero(g.conductor)
            for m in g.elements:
                acc = acc + action_matrix(m, d).trace() * action_matrix(
                    m.inverse(), 1
                ).trace()
            lit = (acc / g.order).to_fraction()
            assert lit == multiplicity_chi(g, d)


class TestIsotypic:
    def test_q8_trivial_d4(self):
        g = grp("binary-dihedral", 2)
        triv = chi_stabilizer_characters(g)[0]
        dim, basis = isotypic_dim_and_basis(g, triv, 4)
        assert dim == 2
        span = canonical_span(basis)
        assert in_span(biv([1, 0, 0, 0, 1], 4), span)  # x1^4 + x2^4
        assert in_span(biv([0, 0, 1, 0, 0], 4), span)  # x1^2 x2^2

    def test_tetrahedral_trivial_d4_empty(self):
        g = grp("binary-tetrahedral")
        triv = linear_characters(g)[0]
        dim, basis = isotypic_dim_and_basis(g, triv, 4)
        assert dim == 0 and basis == []

    def test_constants(self):
        for kind, ell in [("binary-dihedral", 3), ("binary-octahedral", None)]:
            g = grp(kind, ell)
            triv = linear_characters(g)[0]
            dim, basis = isotypic_dim_and_basis(g, triv, 0)
            assert dim == 1 and len(basis) == 1

    def test_projector_matches_literal_average(self):
        # the coset-factored projector equals the elementwise group average
        g = grp("binary-dihedral", 3)
        d = 4
        for gamma in chi_stabilizer_characters(g):
            acc = None
            for i, m in enumerate(g.elements):
                term = gamma.value_at_inverse(i) * action_matrix(m, d)
                acc = term if acc is None else acc + term
            lit = Mat(
                [
                    [x / g.order for x in row]
                    for row in acc.rows
                ]
            )
            assert isotypic_projector(g, gamma, d) == lit

    def test_projectors_idempotent_orthogonal(self):
        g = grp("binary-dihedral", 2)
        chars = chi_stabilizer_characters(g)
        d = 4
        ps = [isotypic_projector(g, c, d) for c in chars]
        for i, p in enumerate(ps):
            assert p @ p == p
            for j, q in enumerate(ps):
                if i != j:
                    z = p @ q
                    assert all(x.is_zero() for row in z.rows for x in row)

    def test_dimension_recurrence_matches_rank(self):
        rng = random.Random(20260817)
        for kind, ell in [("binary-dihedral", 4), ("binary-tetrahedral", None)]:
            g = grp(kind, ell)
            for gamma in linear_characters(g):
                for d in rng.sample(range(0, 9), 4):
                    dim, basis = isotypic_dim_and_basis(g, gamma, d)
                    assert dim == len(basis) == isotypic_dimension(g, gamma, d)

    @pytest.mark.parametrize("kind,ell", [
        ("binary-dihedral", 2),
        ("binary-dihedral", 3),
        ("binary-tetrahedral", None),
        ("binary-octahedral", None),
        ("binary-icosahedral", None),
    ])
    def test_dim_sum_bounded_by_space(self, kind, ell):
        g = grp(kind, ell)
        chars = linear_characters(g)
        for d in range(41):
            total = sum(isotypic_dimension(g, c, d) for c in chars)
            assert total <= d + 1


def scale_monic(f):
    lead = next(c for c in f.coeffs if not c.is_zero())
    return f.scale(lead.inverse())


class TestFormGcd:
    def test_monomial(self):
        got = form_gcd(biv([0, 1, 0, 0], 4), biv([0, 0, 1, 0], 4))
        assert got == biv([0, 1, 0], 4)  # x1 x2

    def test_difference_of_squares(self):
        got = form_gcd(biv([1, 0, -1], 4), biv([1, -1], 4))
        assert got == biv([1, -1], 4)

    def test_icosahedral_pair_coprime(self):
        p = biv([1, 0, 0, 0, 0, 0, 66, 0, 0, 0, 0, -11], 20)
        q = biv([0, -11, 0, 0, 0, 0, -66, 0, 0, 0, 0, 1], 20)
        got = form_gcd(p, q)
        assert got.degree == 0 and got.coeffs[0].is_one()

    def test_both_zero(self):
        with pytest.raises(BothZero):
            form_gcd(Form.zero(2, 2, 4), Form.zero(2, 3, 4))

    def test_one_zero(self):
        f = biv([2, 4], 4)
        got = form_gcd(f, Form.zero(2, 3, 4))
        assert got == biv([1, 2], 4)

    def test_known_factorizations(self):
        # build pairs from explicit linear factors; the gcd is the common part
        rng = random.Random(20260817)
        n = 12
        for _ in range(12):
            lines = []
            while len(lines) < 4:
                a, b = rng.randint(-3, 3), rng.randint(-3, 3)
                if a == 0 and b == 0:
                    continue
                cand = biv([a, b], n)
                if any(
                    (cand.coeffs[0] * o.coeffs[1] - cand.coeffs[1] * o.coeffs[0]).is_zero()
                    for o in lines
                ):
                    continue
                lines.append(cand)
            common = lines[:2]
            f = common[0] * common[1] * lines[2]
            g = common[0] * common[1] * lines[3]
            want = scale_monic(common[0] * common[1])
            assert form_gcd(f, g) == want

    def test_divides_exactly(self):
        rng = random.Random(7)
        n = 4
        for _ in range(6):
            h = rand_form(rng, 2, n)
            if h.is_zero():
                continue
            a = rand_form(rng, 2, n)
            b = rand_form(rng, 3, n)
            if a.is_zero() or b.is_zero():
                continue
            g = form_gcd(h * a, h * b)
            # gcd must be divisible by h (up to the extra factor gcd(a,b))
            assert g.degree >= 2
            rem = form_gcd(g, scale_monic(h))
            assert rem == scale_monic(h)


class TestJacobian:
    def test_monomials(self):
        f = biv([1, 0, 0, 0], 4)  # x1^3
        g = biv([0, 0, 0, 0, 1], 4)  # x2^4
        jac = jacobian_determinant(f, g)
        assert jac == 12 * Form.monomial(2, (2, 3), 4)

    def test_dependent_pair_vanishes(self):
        f = biv([0, 1, 0, 0], 4)
        jac = jacobian_determinant(f, 5 * f)
        assert jac.is_zero()

    def test_linear_pair(self):
        f = biv([1, 1], 4)
        g = biv([1, -1], 4)
        assert jacobian_determinant(f, g) == Form(2, 0, [rat(-2, 4)])
