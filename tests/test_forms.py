import json
import os
import random
import time
from fractions import Fraction
from functools import lru_cache
from math import prod

import pytest

import equimap._kernel as K
import equimap.compress as compress
import equimap.forms as forms
from equimap.compress import invariant_form
from equimap.errors import BothZero, CheckFailed, ConductorMismatch, ReducibleChi
from equimap.forms import (
    Form,
    _as_int,
    _chi_is_irreducible,
    _hd_classes,
    _int_raw,
    _isotypic_rows,
    _multiplicity,
    _trace_class_average,
    _trace_orders,
    canonical_span,
    diagonal_exponents,
    diagonal_weights,
    equivariant_basis,
    form_from_json,
    form_gcd,
    form_to_json,
    gcd_degree,
    in_span,
    invariant_basis,
    isotypic_dimension,
    isotypic_dims_and_bases,
    jacobian_determinant,
    monomial_exponents,
    multiplicity_chi,
    substitute,
    substitute_all,
)
from equimap.groups import (
    Mat,
    MatrixGroup,
    build_group,
    chi_stabilizer_characters,
    diagonal_coset_decomposition,
    linear_characters,
    tn_group,
    to_table,
)
from equimap.scalars import CycNum, _is_prime, cyc_embed, get_context, one, zero, zeta
from test_compress import (
    diagonal_invariant_reference,
    projector_invariant_reference,
    tetrahedral_rotations,
)
from test_groups import mat_apply, matmul, sheared
from test_kernel import subst_cols

CERTS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "certs")


@lru_cache(maxsize=None)
def grp(kind, ell=None):
    return build_group(kind, ell)


def rat(q, n):
    return CycNum.from_rational(Fraction(q), n)


def cyc(n, raw):
    """The CycNum of a raw scalar over conductor n, for comparisons."""
    return CycNum._wrap(n, raw)


def lin_chars(g):
    """The linear characters of g, raw over its own conductor."""
    n, chars = linear_characters(g)
    assert n == g.conductor
    return chars


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
            assert sq.coeffs[monomial_exponents(3, 2).index(exps)] == want

    def test_partial(self):
        f = biv([0, 1, 0, 0], 4)  # x1^2 x2
        assert f.partial(0) == biv([0, 2, 0], 4)
        assert f.partial(1) == biv([1, 0, 0], 4)

    def test_evaluate(self):
        f = biv([0, 1, 0, 0], 4)
        assert cyc(4, f.evaluate([rat(2, 4), rat(3, 4)])) == 12

    def test_evaluate_matches_cycnum_reference(self):
        # the raw-scalar evaluation against the CycNum-valued sum over
        # monomials, on cyclotomic, integer and Fraction points
        def reference(f, point):
            total = zero(f.n)
            for exps, c in zip(monomial_exponents(f.nvars, f.degree), f.coeffs):
                term = c
                for p, e in zip(point, exps):
                    for _ in range(e):
                        term = term * p
                total = total + term
            return total

        rng = random.Random(20261018)
        for n, nvars in ((1, 2), (5, 2), (12, 3), (20, 2)):
            for d in (0, 1, 4, 7):
                k = len(monomial_exponents(nvars, d))
                for _ in range(4):
                    f = Form(nvars, d, [sum((rat(rng.randint(-3, 3), n) * zeta(n, j)
                                             for j in range(2)), zero(n))
                                        for _ in range(k)])
                    point = [rat(rng.randint(-2, 3), n) + zeta(n, rng.randrange(n))
                             for _ in range(nvars)]
                    assert f.evaluate(point) == reference(f, point).raw
                    ints = [rng.randint(-3, 3) for _ in range(nvars)]
                    fracs = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(nvars)]
                    for pt in (ints, fracs):
                        want = reference(f, [rat(q, n) for q in pt])
                        assert f.evaluate(pt) == want.raw
        f = biv([1, 2, 3], 4)
        with pytest.raises(ConductorMismatch):
            f.evaluate([zeta(5), zeta(5)])
        with pytest.raises(ValueError):
            f.evaluate([1])

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
            assert substitute(b, substitute(a, f)) == substitute(matmul(a, b), f)

    def test_conductor_mismatch(self):
        with pytest.raises(ConductorMismatch):
            substitute(Mat.identity(2, 4), rand_form(random.Random(0), 2, 12))
        with pytest.raises(ConductorMismatch):
            substitute_all(Mat.identity(2, 4), [rand_form(random.Random(0), 2, 4),
                                                rand_form(random.Random(0), 2, 12)])

    def test_substitute_all_matches_one_at_a_time(self):
        rng = random.Random(20261018)
        g = grp("binary-icosahedral")
        const = Form(2, 0, [rat(3, 20)])
        for m in rng.sample(g.elements, 5):
            forms = [rand_form(rng, 9, 20), rand_form(rng, 10, 20), const,
                     rand_form(rng, 1, 20)]
            assert substitute_all(m, forms) == [substitute(m, f) for f in forms]
        # three variables take the general route
        m = Mat([[rat(x, 12) for x in row] for row in ((1, 2, 0), (0, 1, 3), (1, 0, 1))])
        f = Form(3, 2, [rat(k - 2, 12) for k in range(6)])
        assert substitute_all(m, [f, f]) == [substitute(m, f)] * 2

    def test_no_substitution_matrix(self, monkeypatch):
        # a substitution matrix of degree d has (d+1)^2 entries, each at
        # least one product; substituting one form stays within O(d)
        g = grp("binary-icosahedral")
        m = next(x for x in g.elements
                 if not any(c.is_zero() for r in x.rows for c in r))
        d = 120
        f = rand_form(random.Random(4), d, g.conductor)
        calls = []
        c_mul = K.c_mul

        def counted(*args):
            calls.append(None)
            return c_mul(*args)

        monkeypatch.setattr(K, "c_mul", counted)
        img = substitute(m, f)
        assert 0 < len(calls) < 10 * (d + 1)
        monkeypatch.undo()
        assert substitute(m.inverse(), img) == f


def action_matrix(g, d):
    """Matrix of the action f -> f o g^(-1) on the degree-d monomial basis,
    the dense reference for the isotypic pieces."""
    h = g.inverse()
    ctx = get_context(h.n)
    (a, b), (c, e) = h.rows
    cols = subst_cols(a.raw, b.raw, c.raw, e.raw, d, ctx.red, ctx.phi, ctx.inv)
    return Mat([[CycNum._wrap(g.n, cols[j][i]) for j in range(d + 1)]
                for i in range(d + 1)])


def isotypic_projectors(g, gammas, d):
    """The averaging projectors of degree d, one per character in `gammas`,
    as whole matrices: the reference route for the isotypic pieces. The
    diagonal subgroup C acts by a diagonal factor E, and each left coset
    representative r contributes one substitution matrix S(r), shared by
    the characters: P = E * sum over r of gamma(r) S(r) / |G|."""
    if not gammas:
        return []
    ctx = get_context(g.conductor)
    red, phi = ctx.red, ctx.phi
    diag, reps = diagonal_coset_decomposition(g)
    size = d + 1
    weights = diagonal_weights(g, d, g.conductor)
    e_diags = []
    for gamma in gammas:
        e_diag = [ctx.zero] * size
        for ci, w in zip(diag, weights):
            gval = gamma[ci]
            for p in range(size):
                e_diag[p] = K.c_add(e_diag[p], K.c_mul(gval, w[p], red, phi))
        e_diags.append(e_diag)
    dense = [[[ctx.zero] * size for _ in range(size)] for _ in gammas]
    for ri in reps:
        (a, b), (c, e) = g.elements[ri].rows
        cols = subst_cols(a.raw, b.raw, c.raw, e.raw, d, red, phi, ctx.inv)
        for gamma, rows in zip(gammas, dense):
            gval = gamma[ri]
            for j in range(size):
                for i in range(size):
                    if not K.c_is_zero(cols[j][i]):
                        rows[i][j] = K.c_add(rows[i][j], K.c_mul(gval, cols[j][i], red, phi))
    inv_order = (1, *([0] * (phi - 1)), g.order)
    out = []
    for e_diag, rows in zip(e_diags, dense):
        mat = []
        for i in range(size):
            si = K.c_mul(e_diag[i], inv_order, red, phi)
            mat.append([CycNum._wrap(g.conductor, x)
                        for x in K.row_scale(rows[i], si, red, phi)])
        out.append(Mat(mat))
    return out


def isotypic_projector(g, gamma, d):
    return isotypic_projectors(g, [gamma], d)[0]


def projector_dim_and_basis(g, gamma, d):
    """(dimension, canonical form basis) of the gamma-isotypic piece from the
    RREF of the projector's columns, built even where the dimension is 0;
    the rank must equal the character dimension."""
    ctx = get_context(g.conductor)
    p = isotypic_projector(g, gamma, d)
    rows_t = [list(p.raw[j::d + 1]) for j in range(d + 1)]
    rank = len(K.rref(rows_t, ctx.red, ctx.phi, ctx.inv))
    dim = isotypic_dimension(g, gamma, d)
    assert rank == dim
    return dim, [Form(2, d, [CycNum._wrap(g.conductor, x) for x in row])
                 for row in rows_t[:rank]]


def isotypic_rows_reference(g, gammas, dims, d):
    """`forms._isotypic_rows` by the coset route it replaced: the piece as the
    image of P = (1/|G|) sum over g of gamma(g) S(g), factored over the right
    cosets C r' of the diagonal subgroup C as P = M' E / |G| with
    M' = sum over r' of gamma(r') S(r') and E the diagonal factor, so spanned
    by the M' x^(d-p) y^p over the monomials p with E[p] != 0: one
    substitution per coset representative."""
    ctx = get_context(g.conductor)
    red, phi = ctx.red, ctx.phi
    out = [[] for _ in gammas]
    live = [k for k, dim in enumerate(dims) if dim]
    if not live:
        return out
    diag, reps = diagonal_coset_decomposition(g)
    weights = diagonal_weights(g, d, g.conductor)
    survivors = {}
    for k in live:
        e_diag = [ctx.zero] * (d + 1)
        for ci, w in zip(diag, weights):
            gval = gammas[k][ci]
            for p in range(d + 1):
                e_diag[p] = K.c_add(e_diag[p], K.c_mul(gval, w[p], red, phi))
        survivors[k] = [p for p, x in enumerate(e_diag) if not K.c_is_zero(x)]
    monomials = sorted(set().union(*survivors.values()))
    at = {p: i for i, p in enumerate(monomials)}
    units = [[ctx.one if q == p else ctx.zero for q in range(d + 1)] for p in monomials]
    images = {k: [[ctx.zero] * (d + 1) for _ in survivors[k]] for k in live}
    for ri in (reps if monomials else ()):
        r_inv = to_table(g).inv[ri]
        (a, b), (c, e) = g.elements[r_inv].rows
        subst = K.subst_forms(units, a.raw, b.raw, c.raw, e.raw, red, phi, ctx.inv)
        for k in live:
            gval = gammas[k][r_inv]
            for row, p in zip(images[k], survivors[k]):
                K.vec_axpy(row, gval, subst[at[p]], red, phi)
    for k in live:
        rows = images[k]
        rank = len(K.rref(rows, red, phi, ctx.inv))
        if rank != dims[k]:
            raise CheckFailed(f"isotypic rank {rank} != character dimension {dims[k]}")
        out[k] = rows[:rank]
    return out


def trace_class_average_reference(g, d, times_trace):
    """`forms._trace_class_average` by the cyclotomic sum it replaced:
    (1/|G|) sum over trace classes of count * h_d, each term times the trace
    when `times_trace`."""
    ctx = get_context(g.conductor)
    hs, counts, _ = _hd_classes(g, d)
    acc = ctx.zero
    for t, c, h in zip(hs[1], counts, hs[d]):
        w = K.c_mul(_int_raw(c, ctx), h, ctx.red, ctx.phi)
        if times_trace:
            w = K.c_mul(w, t, ctx.red, ctx.phi)
        acc = K.c_add(acc, w)
    return _multiplicity(g, acc, d)


def chi_irreducible_reference(g):
    """<chi, chi> = 1 by the sum of the squared traces."""
    s = sum((cyc(g.conductor, t) ** 2 for t in g.traces()), zero(g.conductor))
    return s == g.order


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
        assert K.c_is_zero(action_matrix(m, 3).trace())

    def test_homomorphism_q8_full(self):
        g = grp("binary-dihedral", 2)
        mats = {h: action_matrix(h, 3) for h in g.elements}
        for a in g.elements:
            for b in g.elements:
                assert matmul(mats[a], mats[b]) == action_matrix(matmul(a, b), 3)

    def test_homomorphism_sampled(self):
        rng = random.Random(20260817)
        g = grp("binary-octahedral")
        for _ in range(8):
            a, b = rng.choice(g.elements), rng.choice(g.elements)
            assert matmul(action_matrix(a, 4), action_matrix(b, 4)) == action_matrix(
                matmul(a, b), 4
            )

    def test_action_on_form_is_inverse_substitution(self):
        rng = random.Random(5)
        g = grp("binary-dihedral", 3)
        m = g.elements[7]
        f = rand_form(rng, 4, g.conductor)
        acted = mat_apply(action_matrix(m, 4), list(f.coeffs))
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
        rd = action_matrix(gen, d).rows
        r1 = action_matrix(gen, 1).rows
        # unknowns L[p][q] at index q*size + p; equations rd L - L r1 = 0
        for p in range(size):
            for q in range(2):
                row = [ctx.zero] * (2 * size)
                for k in range(size):
                    row[q * size + k] = K.c_add(
                        row[q * size + k], rd[p][k].raw
                    )
                for j in range(2):
                    row[j * size + p] = K.c_sub(
                        row[j * size + p], r1[j][q].raw
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


def _reynolds_images(g, d):
    """Reynolds average applied to each elementary map; vectorized [f1|f2].
    The reference for equivariant_basis: O(|reps| d^2) products per degree."""
    ctx = get_context(g.conductor)
    diag, reps = diagonal_coset_decomposition(g)
    size = d + 1
    # weights W[p][q] = sum over diagonal c of (c on monomial p) * (c^-1)[q][q]
    w = [[ctx.zero] * 2 for _ in range(size)]
    for ci, a in zip(diag, diagonal_weights(g, d, g.conductor)):
        cinv = g.elements[to_table(g).inv[ci]]
        for q in range(2):
            b = cinv.rows[q][q].raw
            for p in range(size):
                w[p][q] = K.c_add(w[p][q], K.c_mul(a[p], b, ctx.red, ctx.phi))
    # per representative: columns of S_d(r) and the matrix of r^-1
    rep_cols = []
    rep_inv = []
    for ri in reps:
        m = g.elements[ri]
        (a, b), (c, e) = m.rows
        rep_cols.append(subst_cols(a.raw, b.raw, c.raw, e.raw, d,
                                   ctx.red, ctx.phi, ctx.inv))
        rinv = g.elements[to_table(g).inv[ri]]
        rep_inv.append([[x.raw for x in row] for row in rinv.rows])
    inv_order = (1, *([0] * (ctx.phi - 1)), g.order)
    images = []
    for j in range(2):
        for k in range(size):
            vec = [ctx.zero] * (2 * size)
            for cols, rinv in zip(rep_cols, rep_inv):
                colk = cols[k]
                for q in range(2):
                    rq = rinv[q][j]
                    if K.c_is_zero(rq):
                        continue
                    base = q * size
                    for p in range(size):
                        if not K.c_is_zero(colk[p]):
                            vec[base + p] = K.c_add(
                                vec[base + p],
                                K.c_mul(colk[p], rq, ctx.red, ctx.phi),
                            )
            # apply the diagonal weights and the missing 1/|G|
            out = [ctx.zero] * (2 * size)
            for q in range(2):
                for p in range(size):
                    x = vec[q * size + p]
                    if not K.c_is_zero(x):
                        x = K.c_mul(x, w[p][q], ctx.red, ctx.phi)
                        x = K.c_mul(x, inv_order, ctx.red, ctx.phi)
                        out[q * size + p] = x
            images.append(out)
    return images


def reynolds_operator_matrix(g, d):
    """The averaging operator on maps A_1 -> A_d as a 2(d+1) square matrix."""
    size = d + 1
    images = _reynolds_images(g, d)
    return Mat(
        [
            [CycNum._wrap(g.conductor, images[col][row]) for col in range(2 * size)]
            for row in range(2 * size)
        ]
    )


def reynolds_basis(g, d):
    """RREF rows of the Reynolds images: the equivariant basis by averaging."""
    ctx = get_context(g.conductor)
    rows = _reynolds_images(g, d)
    return rows[:len(K.rref(rows, ctx.red, ctx.phi, ctx.inv))]


def projector_invariant_basis(g, d):
    """RREF basis of the degree-d invariants by the averaging projector."""
    triv = (get_context(g.conductor).one,) * g.order
    return projector_dim_and_basis(g, triv, d)[1]


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
            cols = subst_cols(a.raw, b.raw, c.raw, e.raw, d, ctx.red, ctx.phi, ctx.inv)
            assert w == [cols[j][j] for j in range(d + 1)]

    def test_lifted_conductor(self):
        g = grp("binary-dihedral", 3)
        m = 2 * g.conductor
        for w, low in zip(diagonal_weights(g, 5, m), diagonal_weights(g, 5, g.conductor)):
            assert w == [cyc_embed(CycNum._wrap(g.conductor, x), m).raw for x in low]


    @pytest.mark.parametrize("d", [0, 1, 6])
    @pytest.mark.parametrize("lift", [1, 5])
    def test_odd_conductor_matches_products(self, d, lift):
        # conductor 3: the roots of unity are +-zeta_3^k, so the signs of
        # the lookup are exercised; weights against plain products
        g = tn_group(2, [3, 3])
        n = g.conductor * lift
        ctx = get_context(n)
        diag = diagonal_coset_decomposition(g)[0]
        for ci, w in zip(diag, diagonal_weights(g, d, n)):
            c = g.elements[ci].embed(n) if lift > 1 else g.elements[ci]
            lam, mu = c.rows[0][0], c.rows[1][1]
            assert w == [(lam ** (d - p) * mu ** p).raw for p in range(d + 1)]
        neg = -Mat.identity(2, 3)
        h = MatrixGroup([neg] + list(g.generators))
        for ci, w in zip(diagonal_coset_decomposition(h)[0], diagonal_weights(h, d, 3)):
            lam, mu = h.elements[ci].rows[0][0], h.elements[ci].rows[1][1]
            assert w == [(lam ** (d - p) * mu ** p).raw for p in range(d + 1)]

    @pytest.mark.parametrize("kind,ell", [("binary-icosahedral", None),
                                          ("binary-dihedral", 3)])
    @pytest.mark.parametrize("lift", [1, 3])
    def test_exponents_give_the_eigenvalues(self, kind, ell, lift):
        g = grp(kind, ell)
        n = g.conductor * lift
        diag = diagonal_coset_decomposition(g)[0]
        for ci, pair in zip(diag, diagonal_exponents(g, n)):
            c = g.elements[ci].embed(n)
            for (s, k), x in zip(pair, (c.rows[0][0], c.rows[1][1])):
                assert s * zeta(n, k) == x


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
        assert matmul(r, r) == r
        assert len(equivariant_basis(g, d)) == multiplicity_chi(g, d)

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            equivariant_basis(grp("binary-dihedral", 2), 0)


CATALOG = ([("binary-tetrahedral", None), ("binary-octahedral", None),
            ("binary-icosahedral", None)]
           + [("binary-dihedral", ell) for ell in range(2, 9)]
           + [("cyclic", ell) for ell in range(2, 9)])
NONCYCLIC = [c for c in CATALOG if c[0] != "cyclic"]
SHEARED = [("binary-tetrahedral", None), ("binary-octahedral", None),
           ("binary-dihedral", 3), ("binary-dihedral", 4), ("binary-icosahedral", None)]
ROUTE_GROUPS = ([(kind, ell, False) for kind, ell in CATALOG]
                + [(kind, ell, True) for kind, ell in SHEARED])


@lru_cache(maxsize=None)
def route_group(kind, ell, shear):
    return sheared(grp(kind, ell)) if shear else grp(kind, ell)


def generator_degrees(kind, ell):
    """Degrees of the generators a noncyclic catalog group finds, in order:
    Klein's for the polyhedral groups, and x1^2 x2^2 and the two dihedral
    forms for BD(ell)."""
    if kind == "binary-dihedral":
        return (4, 2 * ell, 2 * ell + 2)
    return {"binary-tetrahedral": (6, 8, 12), "binary-octahedral": (8, 12, 18),
            "binary-icosahedral": (12, 20, 30)}[kind]


class TestInvariantRows:
    """invariant_basis against the averaging references: the projector at
    every degree up to 40, and the trivial isotypic piece built on its own
    at every degree from 41 to 60 and at seeded degrees up to 200, where a
    cyclic group, which reads that piece itself, takes its closed form. Every
    catalog group contains -1, so f(-v) = (-1)^d f(v) leaves no invariant
    of odd degree and no equivariant map of even degree. One group serves
    every degree in a shuffled order, and a fresh group each of a seeded
    few."""

    @pytest.mark.parametrize("kind,ell", CATALOG)
    def test_matches_the_references(self, kind, ell):
        ref = grp(kind, ell)
        assert -Mat.identity(2, ref.conductor) in ref.elements
        rng = random.Random("rows%s%s" % (kind, ell))
        high = rng.sample(range(61, 201), 4)
        degrees = list(range(61)) + high
        fresh = set(high[:2] + rng.sample(range(61), 4))
        reused = build_group(kind, ell)
        rng.shuffle(degrees)
        for e in degrees:
            if e <= 40:
                want = [] if e % 2 else projector_invariant_basis(ref, e)
            elif kind != "cyclic":
                want = as_forms(ref, e, trivial_rows(ref, e))
            if kind == "cyclic":
                # a cyclic group reads the trivial piece itself, so the
                # closed form is its reference above 40
                closed = as_forms(ref, e, cyclic_rows(ref, ell, e))
                assert e > 40 or closed == want
                want = closed
            assert invariant_basis(reused, e) == want
            if e in fresh:
                assert invariant_basis(build_group(kind, ell), e) == want

    @pytest.mark.parametrize("kind,ell", SHEARED)
    def test_custom_groups_match_the_projector(self, kind, ell):
        # a conjugate of a catalog group is custom: it reads the trivial
        # piece at every degree, and looks for no generators
        g = sheared(grp(kind, ell))
        ref = sheared(grp(kind, ell))
        for e in range(21 if kind == "binary-icosahedral" else 31):
            assert invariant_basis(g, e) == projector_invariant_basis(ref, e)
        assert "invariant_generators" not in g._cache

    @pytest.mark.parametrize("kind,ell", NONCYCLIC)
    def test_equivariant_matches_reynolds(self, kind, ell):
        ref = grp(kind, ell)
        g = build_group(kind, ell)
        rng = random.Random("%s%s" % (kind, ell))
        for d in list(range(1, 14, 2)) + [rng.randrange(15, 41, 2)]:
            assert vectorize_basis(equivariant_basis(g, d)) == reynolds_basis(ref, d)
        for d in range(2, 41, 2):
            assert len(equivariant_basis(g, d)) == 0

    @pytest.mark.parametrize("kind,ell", NONCYCLIC)
    def test_generators_invariant(self, kind, ell):
        g = build_group(kind, ell)
        invariant_basis(g, 60)
        gens = g._cache["invariant_generators"]
        assert tuple(k for k, _ in gens) == generator_degrees(kind, ell)
        for k, pows in gens:
            f = Form(2, k, [CycNum._wrap(g.conductor, x) for x in pows[1]])
            assert not f.is_zero()
            for m in g.generators:
                assert substitute(m, f) == f

    @pytest.mark.parametrize("kind,ell", NONCYCLIC)
    def test_product_count_is_molien(self, kind, ell):
        # A^G = C[p, q] + s C[p, q]: the products p^i q^j s^k, k <= 1, of
        # degree e are as many as Molien's count, at every degree to 200
        a, b, c = generator_degrees(kind, ell)
        g = grp(kind, ell)
        for e in range(201):
            products = sum(1 for k in (0, 1) for j in range((e - c * k) // b + 1)
                           if e >= c * k and (e - c * k - b * j) % a == 0)
            assert products == _trace_class_average(g, e, False)

    def test_needs_det_one(self):
        # h_d is the trace on A_d only for det 1, so every route through it
        # refuses other groups
        swap = Mat([[rat(0, 1), rat(1, 1)], [rat(1, 1), rat(0, 1)]])
        for m in (Mat.diagonal([zeta(4), one(4)]), swap,
                  Mat.diagonal([rat(-1, 1), rat(1, 1)])):
            g = MatrixGroup([m])
            triv = (get_context(g.conductor).one,) * g.order
            with pytest.raises(ValueError, match="det 1"):
                invariant_basis(g, 4)
            with pytest.raises(ValueError, match="det 1"):
                equivariant_basis(g, 3)
            with pytest.raises(ValueError, match="det 1"):
                isotypic_dims_and_bases(g, [triv], 2)

    def test_degree_zero_is_the_constant(self):
        g = grp("binary-icosahedral")
        assert invariant_basis(g, 0) == [Form.monomial(2, (0, 0), g.conductor)]


def trivial_rows(g, e):
    """The RREF rows of the trivial isotypic piece of degree e, built on its
    own; the group's store of invariant rows is not read."""
    ctx = get_context(g.conductor)
    return _isotypic_rows(g, [(ctx.one,) * g.order], [_trace_class_average(g, e, False)], e)[0]


def cyclic_rows(g, ell, e):
    """The RREF rows of C(ell)'s invariants of degree e in closed form: its
    generator is diag(z, 1/z) with z of order 2 ell, so they are the
    monomials x1^i x2^j with i = j mod 2 ell, as unit rows."""
    ctx = get_context(g.conductor)
    exps = monomial_exponents(2, e)
    return [[ctx.one if k == j else ctx.zero for k in range(len(exps))]
            for j, (a, b) in enumerate(exps) if (a - b) % (2 * ell) == 0]


def as_forms(g, e, rows):
    return [Form(2, e, [CycNum._wrap(g.conductor, x) for x in row]) for row in rows]


def record(monkeypatch, module, name):
    """The arguments of every call of module.name from now on, in order."""
    calls = []
    fn = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a: calls.append(a) or fn(*a))
    return calls


class TestOneRoute:
    """What each degree costs: a noncyclic catalog group walks its degrees
    only until it knows its three generators, and reads every degree past
    them from their products; a cyclic group's trivial piece substitutes
    nothing."""

    @pytest.mark.parametrize("kind,ell", NONCYCLIC)
    def test_no_trivial_piece_past_the_generators(self, monkeypatch, kind, ell):
        # every degree up to 200, in a shuffled order: a trivial piece is
        # built only at the degree of a generator the products and
        # transvectants miss, and none past the third
        pieces = record(monkeypatch, forms, "_isotypic_rows")
        g = build_group(kind, ell)
        degrees = list(range(201))
        random.Random("pieces%s%s" % (kind, ell)).shuffle(degrees)
        for e in degrees:
            invariant_basis(g, e)
        assert {a[3] for a in pieces} <= set(generator_degrees(kind, ell))

    @pytest.mark.parametrize("kind,ell", [("binary-icosahedral", None),
                                          ("binary-tetrahedral", None), ("binary-dihedral", 2)])
    def test_one_rref_per_degree(self, monkeypatch, kind, ell):
        g = build_group(kind, ell)
        invariant_basis(g, max(generator_degrees(kind, ell)))
        pieces = record(monkeypatch, forms, "_isotypic_rows")
        calls = record(monkeypatch, K, "rref")
        for e in random.Random(kind).sample(range(31, 201), 12):
            calls.clear()
            invariant_basis(g, e)
            assert len(calls) == 1
            # asked again, the degree is read from the store
            invariant_basis(g, e)
            assert len(calls) == 1
        assert pieces == []

    @pytest.mark.parametrize("ell", [2, 5])
    def test_cyclic_substitutes_nothing(self, monkeypatch, ell):
        # a cyclic group has no non-diagonal generator: its invariants are
        # the monomials its diagonal fixes, with no equation to reduce
        substs = record(monkeypatch, K, "subst_forms")
        calls = record(monkeypatch, K, "rref")
        g = build_group("cyclic", ell)
        for e in range(201):
            invariant_basis(g, e)
        assert substs == [] and all(a[0] == [] for a in calls)
        assert "invariant_generators" not in g._cache


def with_fixed_line(g):
    """The 3x3 group of the blocks diag(m, 1) for m in g's generators."""
    n = g.conductor
    return MatrixGroup([Mat([list(r) + [zero(n)] for r in m.rows] + [[zero(n)] * 2 + [one(n)]])
                        for m in g.generators])


def signed_4_cycle():
    """The 4x4 signed permutations generated by x1 -> x2 -> x3 -> x4 -> -x1
    and diag(1, -1, 1, -1): order 16, four diagonal elements."""
    o, z = one(1), zero(1)
    cycle = Mat([[z, o, z, z], [z, z, o, z], [z, z, z, o], [-o, z, z, z]])
    return MatrixGroup([cycle, Mat.diagonal([o, -o, o, -o])])


def swap_group():
    """The order-2 group of x1 <-> x2, of det -1."""
    o, z = one(1), zero(1)
    return MatrixGroup([Mat([[z, o], [o, z]])])


TN_GROUPS = [(2, (2, 2)), (2, (3, 3)), (2, (2, 4)), (3, (2, 2)), (3, (2, 2, 2)), (3, (2, 4)),
             (4, (3,)), (2, (5,))]
TRIVIAL_PIECE_GROUPS = (
    [(f"T{n}({','.join(map(str, factors))})", lambda n=n, factors=factors: tn_group(n, factors), range(13))
     for n, factors in TN_GROUPS]
    + [("tetrahedral-rotations", tetrahedral_rotations,
        [*range(1, 13), *sorted(random.Random("rotations").sample(range(13, 19), 4))]),
       ("BD(3)+1", lambda: with_fixed_line(grp("binary-dihedral", 3)), range(13)),
       ("signed-4-cycle", signed_4_cycle, range(9)),
       ("swap", swap_group, range(13))])


class TestDiagonalInvariant:
    """Groups outside SL2 read the trivial isotypic piece with no count:
    `invariant_form` against the averaging projector summed element by
    element, on diagonal groups T_n, groups in 3 and 4 variables and a 2x2
    group of det -1. An all-diagonal group answers with its first invariant
    monomial, found weight by weight: it never builds the projector, whose
    dim x dim matrix (dim = C(d + n - 1, n - 1)) would not fit in memory for
    four variables at degree 128, and it substitutes and reduces nothing."""

    @pytest.mark.parametrize("name,make,degrees", TRIVIAL_PIECE_GROUPS,
                             ids=[c[0] for c in TRIVIAL_PIECE_GROUPS])
    def test_matches_the_projector(self, name, make, degrees):
        g = make()
        diagonal = all(m.is_diagonal() for m in g.generators)
        for d in degrees:
            want = projector_invariant_reference(g, d)
            assert invariant_form(g, d) == want
            if diagonal:
                assert diagonal_invariant_reference(g, d) == want

    def test_substitution_and_rref_counts(self, monkeypatch):
        # the rotations have one non-diagonal generator, so one substitution
        # of the surviving monomials and one row reduction, where the
        # projector substituted each of the 325 monomials under each of the
        # 12 elements; an all-diagonal group does neither
        g, t = tetrahedral_rotations(), tn_group(3, (2, 4))
        substs = record(monkeypatch, forms, "substitute_all")
        calls = record(monkeypatch, K, "rref")
        f = invariant_form(g, 24)
        assert len(substs) == 1 and len(calls) == 1
        assert len(substs[0][1]) < len(monomial_exponents(3, 24))
        invariant_form(t, 24)
        assert len(substs) == 1 and len(calls) == 1
        monkeypatch.undo()
        assert f == projector_invariant_reference(g, 24)

    @pytest.mark.parametrize("n,factors", [(3, (3,)), (3, (3, 3)), (4, (3,)), (4, (3, 3, 3))])
    def test_degree_128_builds_no_projector(self, monkeypatch, n, factors):
        # orders that do not divide 128, which the orbit product would take
        monkeypatch.setattr(K, "rref", None)
        monkeypatch.setattr(forms, "substitute_all", None)
        g = tn_group(n, factors)
        assert 128 % g.order
        t0 = time.perf_counter()
        f = invariant_form(g, 128)
        assert time.perf_counter() - t0 < 2.0
        exps = monomial_exponents(n, 128)
        (j,) = [j for j, c in enumerate(f.raw) if not K.c_is_zero(c)]
        diags = [[CycNum._wrap(g.conductor, x) for x in m.raw[::n + 1]] for m in g.generators]

        def fixed(e):
            return all(prod((w ** k for w, k in zip(ws, e)), start=one(g.conductor)) == 1
                       for ws in diags)

        # the first monomial that every generator fixes
        assert fixed(exps[j]) and not any(fixed(e) for e in exps[:j])
        assert f == diagonal_invariant_reference(g, 128)


class TestFromGenerators:
    """The isotypic pieces from the generators and the invariant counts
    from the element orders, against the routes they replaced, on the 17
    catalog groups and five of them conjugated by a shear, which leaves
    only +-I diagonal and every generator dense."""

    @pytest.mark.parametrize("kind,ell,shear", ROUTE_GROUPS)
    def test_rows_match_the_coset_route_and_the_projector(self, kind, ell, shear):
        # every linear character at 0, 1, 2 and four seeded degrees to 40:
        # 826 (group, character, degree) cases, byte for byte
        g = route_group(kind, ell, shear)
        chars = lin_chars(g)
        rng = random.Random("route%s%s%s" % (kind, ell, shear))
        for d in [0, 1, 2] + sorted(rng.sample(range(3, 41), 4)):
            dims = [isotypic_dimension(g, gamma, d) for gamma in chars]
            got = _isotypic_rows(g, chars, dims, d)
            assert got == isotypic_rows_reference(g, chars, dims, d)
            for gamma, dim, rows in zip(chars, dims, got):
                want_dim, want = projector_dim_and_basis(g, gamma, d)
                assert (dim, rows) == (want_dim, [list(f.raw) for f in want])

    @pytest.mark.parametrize("kind,ell,shear", ROUTE_GROUPS)
    def test_counts_match_the_cyclotomic_average(self, kind, ell, shear):
        g = route_group(kind, ell, shear)
        t = to_table(g)
        _, _, at = _hd_classes(g, 1)
        assert [_trace_orders(g)[at[i]] for i in range(g.order)] == [
            t.element_order(i) for i in range(g.order)]
        for times_trace in (False, True):
            assert [_trace_class_average(g, d, times_trace) for d in range(121)] == [
                trace_class_average_reference(g, d, times_trace) for d in range(121)]
        assert _chi_is_irreducible(g) == chi_irreducible_reference(g)
        assert _chi_is_irreducible(g) == (kind != "cyclic")

    def test_trivial_piece_of_2i_substitutes_once(self, monkeypatch):
        # one non-diagonal generator, so one substitution where the coset
        # route made one per representative (12)
        g = build_group("binary-icosahedral")
        (triv,) = lin_chars(g)
        calls = []
        subst_forms = K.subst_forms
        monkeypatch.setattr(K, "subst_forms",
                            lambda *a: calls.append(1) or subst_forms(*a))
        ((dim, basis),) = isotypic_dims_and_bases(g, [triv], 12)
        assert dim == len(basis) == 1 and len(calls) == 1

    @pytest.mark.parametrize("kind,ell", [("binary-icosahedral", None),
                                          ("binary-dihedral", 8), ("cyclic", 5)])
    def test_counts_make_no_product_after_the_order_pass(self, monkeypatch, kind, ell):
        g = build_group(kind, ell)
        _trace_orders(g)
        calls = []
        c_mul = K.c_mul
        monkeypatch.setattr(K, "c_mul", lambda *a: calls.append(1) or c_mul(*a))
        for d in range(121):
            _trace_class_average(g, d, False)
            _trace_class_average(g, d, True)
        assert calls == []


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
                acc = acc + cyc(g.conductor, action_matrix(m, d).trace()) * cyc(
                    g.conductor, action_matrix(m.inverse(), 1).trace())
            assert acc / g.order == multiplicity_chi(g, d)

    @pytest.mark.parametrize("kind,ell", [("binary-icosahedral", None),
                                          ("binary-dihedral", 3)])
    def test_scaled_division_matches_the_inverse(self, kind, ell):
        # total / |G| by scaling the denominator, against CycNum division
        # through the norm: same value, same exception text
        g = grp(kind, ell)
        n, rng = g.conductor, random.Random(f"mult-{kind}")
        phi = get_context(n).phi

        def outcome(f):
            try:
                return f()
            except (ValueError, CheckFailed) as exc:
                return type(exc), str(exc)

        totals = [zero(n), CycNum.from_rational(7 * g.order, n)]
        for _ in range(40):
            q = Fraction(rng.randint(-9, 9) * rng.choice([1, g.order, 2 * g.order]),
                         rng.choice([1, 1, 2, 3]))
            x = CycNum.from_rational(q, n)
            if rng.random() < 0.3:
                x = x + rng.randint(1, 4) * zeta(n, rng.randrange(1, phi))
            totals.append(x)
        seen = set()
        for x in totals:
            new = outcome(lambda: _multiplicity(g, x.raw, 5))
            old = outcome(lambda: _as_int((x / g.order).raw))
            if isinstance(old, int) and old < 0:
                old = (CheckFailed, f"character average {old} at degree 5 is negative")
            assert new == old
            q = Fraction(x.raw[0], x.raw[-1] * g.order) if x.is_rational() else None
            seen.add("irrational" if q is None else "non-integral" if q.denominator > 1
                     else "negative" if q < 0 else "multiplicity")
        assert seen == {"irrational", "non-integral", "negative", "multiplicity"}


class TestIsotypic:
    def test_q8_trivial_d4(self):
        g = grp("binary-dihedral", 2)
        triv = chi_stabilizer_characters(g)[0]
        ((dim, basis),) = isotypic_dims_and_bases(g, [triv], 4)
        assert dim == 2
        span = canonical_span(basis)
        assert in_span(biv([1, 0, 0, 0, 1], 4), span)  # x1^4 + x2^4
        assert in_span(biv([0, 0, 1, 0, 0], 4), span)  # x1^2 x2^2

    def test_span_needs_a_form(self):
        with pytest.raises(ValueError):
            canonical_span([])

    def test_tetrahedral_trivial_d4_empty(self):
        g = grp("binary-tetrahedral")
        triv = lin_chars(g)[0]
        ((dim, basis),) = isotypic_dims_and_bases(g, [triv], 4)
        assert dim == 0 and basis == []

    def test_constants(self):
        for kind, ell in [("binary-dihedral", 3), ("binary-octahedral", None)]:
            g = grp(kind, ell)
            triv = lin_chars(g)[0]
            ((dim, basis),) = isotypic_dims_and_bases(g, [triv], 0)
            assert dim == 1 and basis == [Form(2, 0, [one(g.conductor)])]

    @pytest.mark.parametrize("kind,ell", [("binary-dihedral", 2), ("binary-dihedral", 6),
                                          ("binary-octahedral", None)])
    def test_projectors_together_match_one_at_a_time(self, kind, ell):
        # shared factors: the joint build agrees with one build per character
        g = grp(kind, ell)
        assert isotypic_projectors(g, [], 3) == []
        for chars in (chi_stabilizer_characters(g), lin_chars(g)):
            for d in (0, 3, 8):
                assert isotypic_projectors(g, chars, d) == [
                    isotypic_projector(g, c, d) for c in chars]
                assert isotypic_dims_and_bases(g, chars, d) == [
                    projector_dim_and_basis(g, c, d) for c in chars]

    @pytest.mark.parametrize("kind,ell", [
        ("binary-tetrahedral", None),
        ("binary-octahedral", None),
        ("binary-icosahedral", None),
        ("binary-dihedral", 2),
        ("binary-dihedral", 3),
        ("binary-dihedral", 5),
        ("binary-dihedral", 8),
    ])
    def test_monomial_images_match_projector(self, kind, ell):
        # the bases from the generator equations on the surviving monomials
        # are byte for byte the RREF of the whole projector's columns, for every
        # stabilizer character, the trivial one and every linear character
        # (those of 2T and of BD(l), l odd, take values off the reals), at
        # seeded degrees to 40
        g = grp(kind, ell)
        chars = list(chi_stabilizer_characters(g)) + list(lin_chars(g))
        chars.append((get_context(g.conductor).one,) * g.order)
        rng = random.Random("images%s%s" % (kind, ell))
        for d in [0, 1, 2] + sorted(rng.sample(range(3, 41), 5)):
            got = isotypic_dims_and_bases(g, chars, d)
            for gamma, (dim, basis) in zip(chars, got):
                want_dim, want = projector_dim_and_basis(g, gamma, d)
                assert dim == want_dim
                assert [f.raw for f in basis] == [f.raw for f in want]

    @pytest.mark.parametrize("kind,ell", [("cyclic", 4), ("binary-dihedral", 5),
                                          ("binary-icosahedral", None)])
    def test_hd_rows_match_per_element_recurrence(self, kind, ell):
        # the recurrence run once per distinct trace gives, at each element,
        # what it gives run on that element's own trace
        g = build_group(kind, ell)
        hs, counts, at = _hd_classes(g, 3)
        assert len(hs) == 4
        hs, counts, at = _hd_classes(g, 9)
        assert len(at) == g.order and sum(counts) == g.order
        assert len(set(hs[1])) == len(counts) == max(at) + 1
        for i, tr in enumerate(g.traces()):
            tr = cyc(g.conductor, tr)
            h = [one(g.conductor), tr]
            while len(h) <= 9:
                h.append(tr * h[-1] - h[-2])
            assert [row[at[i]] for row in hs] == [x.raw for x in h]
        assert counts == [sum(t == k for t in at) for k in range(len(counts))]

    def test_projector_matches_literal_average(self):
        # the coset-factored projector equals the elementwise group average
        g = grp("binary-dihedral", 3)
        d = 4
        inv = to_table(g).inv
        for gamma in chi_stabilizer_characters(g):
            acc = None
            for i, m in enumerate(g.elements):
                s = cyc(g.conductor, gamma[inv[i]])
                term = [[s * x for x in row] for row in action_matrix(m, d).rows]
                acc = term if acc is None else [[a + b for a, b in zip(ra, rb)]
                                                for ra, rb in zip(acc, term)]
            lit = Mat([[x / g.order for x in row] for row in acc])
            assert isotypic_projector(g, gamma, d) == lit

    def test_projectors_idempotent_orthogonal(self):
        g = grp("binary-dihedral", 2)
        chars = chi_stabilizer_characters(g)
        d = 4
        ps = [isotypic_projector(g, c, d) for c in chars]
        for i, p in enumerate(ps):
            assert matmul(p, p) == p
            for j, q in enumerate(ps):
                if i != j:
                    z = matmul(p, q)
                    assert all(x.is_zero() for row in z.rows for x in row)

    def test_dimension_recurrence_matches_rank(self):
        rng = random.Random(20260817)
        for kind, ell in [("binary-dihedral", 4), ("binary-tetrahedral", None)]:
            g = grp(kind, ell)
            for gamma in lin_chars(g):
                for d in rng.sample(range(0, 9), 4):
                    dim, basis = projector_dim_and_basis(g, gamma, d)
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
        chars = lin_chars(g)
        for d in range(41):
            total = sum(isotypic_dimension(g, c, d) for c in chars)
            assert total <= d + 1


def scale_monic(f):
    lead = next(c for c in f.coeffs if not c.is_zero())
    return (1 / lead) * f


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
        assert got.degree == 0 and got.coeffs[0] == 1

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


def rand_cyc_form(rng, d, n, span=3):
    """A form of degree d whose coefficients are small integer combinations
    of the power basis of Q(zeta_n), some of them zero."""
    phi = get_context(n).phi
    return Form(2, d, [CycNum(n, [rng.randint(-span, span) for _ in range(phi)])
                       if rng.random() < 0.8 else zero(n) for _ in range(d + 1)])


class TestGcdDegree:
    """`gcd_degree` against the exact Euclid of `form_gcd` it skips."""

    @pytest.fixture
    def exact_calls(self, monkeypatch):
        calls = []

        def counted(f, g):
            calls.append((f, g))
            return form_gcd(f, g)

        monkeypatch.setattr(forms, "form_gcd", counted)
        return calls

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 12, 20, 24])
    def test_the_prime(self, n):
        # p = 1 mod n is the least prime above 2^31, omega is a root of Phi_n
        # mod p, and reduction is a ring map on seeded raw scalars
        ctx = get_context(n)
        p, w, powers = ctx.modular()
        assert p > 2 ** 31 and (p - 1) % n == 0 and _is_prime(p)
        assert not any(_is_prime(q) for q in range(2 ** 31 + 1, p) if (q - 1) % n == 0)
        assert sum(c * pow(w, i, p) for i, c in enumerate(ctx.poly)) % p == 0
        assert powers == tuple(pow(w, i, p) for i in range(ctx.phi))
        rng = random.Random(f"mod-p-{n}")
        for _ in range(20):
            a, b = (CycNum(n, [Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                               for _ in range(ctx.phi)]) for _ in range(2))
            (ra, rb, rab, rs) = ctx.mod_p([a.raw, b.raw, (a * b).raw, (a + b).raw])
            assert rab == ra * rb % p and rs == (ra + rb) % p

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 12, 20, 24])
    def test_planted_common_factors(self, n):
        # h * a and h * b share h, of degree 0..8; a and b may share more,
        # and x2 powers are planted on some pairs
        rng = random.Random(f"gcd-degree-{n}")
        ctx = get_context(n)
        for k in range(9):
            h = rand_cyc_form(rng, k, n)
            a = rand_cyc_form(rng, rng.randint(1, 6), n)
            b = rand_cyc_form(rng, rng.randint(1, 6), n)
            if h.is_zero() or a.is_zero() or b.is_zero():
                continue
            if k % 3 == 2:
                a = a * Form.monomial(2, (0, 2), n)
                b = b * Form.monomial(2, (1, 1), n)
            f, g = h * a, h * b
            want = form_gcd(f, g).degree
            assert want >= k
            assert gcd_degree(f, g) == want
            assert forms._modular_gcd_degree(f, g, ctx) == want

    def test_every_certificate_pair(self):
        # every parseable file in perfbench/certs, honest, tampered or forged
        seen = set()
        for name in sorted(os.listdir(CERTS)):
            if name == "MANIFEST.json":
                continue
            with open(os.path.join(CERTS, name)) as fh:
                data = json.load(fh)
            try:
                f, g = (form_from_json(x) for x in data["phi"])
            except (ValueError, KeyError, TypeError, ConductorMismatch):
                continue
            if f.nvars != 2 or f.n != g.n or f.is_zero() or g.is_zero():
                continue
            want = form_gcd(f, g).degree
            assert gcd_degree(f, g) == want, name
            assert forms._modular_gcd_degree(f, g, get_context(f.n)) == want, name
            seen.add(want)
        assert 0 in seen and max(seen) >= 20

    @pytest.mark.parametrize("n", [1, 4, 24])
    def test_a_denominator_of_p_takes_the_exact_route(self, n, exact_calls):
        ctx = get_context(n)
        p = ctx.modular()[0]
        f = biv([1, 0, Fraction(3, p), 1], n) * biv([1, 2], n)
        g = biv([1, -1, 5], n) * biv([1, 2], n)
        assert forms._modular_gcd_degree(f, g, ctx) is None
        assert gcd_degree(f, g) == form_gcd(f, g).degree == 1
        assert len(exact_calls) == 1

    @pytest.mark.parametrize("n", [1, 4, 24])
    def test_a_form_that_vanishes_mod_p_takes_the_exact_route(self, n, exact_calls):
        # every coefficient a multiple of p: coprime, yet 0 mod p
        ctx = get_context(n)
        p = ctx.modular()[0]
        f = biv([p, 0, -3 * p], n)
        g = biv([1, 1, 1, 1], n)
        assert forms._modular_gcd_degree(f, g, ctx) is None
        assert gcd_degree(f, g) == form_gcd(f, g).degree == 0
        assert len(exact_calls) == 1

    def test_coprime_pairs_run_no_exact_gcd(self, exact_calls):
        p = biv([1, 0, 0, 0, 0, 0, 66, 0, 0, 0, 0, -11], 20)
        q = biv([0, -11, 0, 0, 0, 0, -66, 0, 0, 0, 0, 1], 20)
        assert gcd_degree(p, q) == 0
        cert = compress.construct_self_compression(build_group("binary-tetrahedral"), 127)
        assert cert.gcd_degree == 0 and gcd_degree(cert.phi1, cert.phi2) == 0
        assert exact_calls == []

    def test_both_zero_and_mixed_inputs(self):
        with pytest.raises(BothZero):
            gcd_degree(Form.zero(2, 2, 4), Form.zero(2, 3, 4))
        assert gcd_degree(biv([2, 4], 4), Form.zero(2, 3, 4)) == 1
        with pytest.raises(ConductorMismatch):
            gcd_degree(biv([1, 1], 4), biv([1, 1], 8))
        with pytest.raises(ValueError):
            gcd_degree(Form.monomial(3, (1, 0, 0), 4), biv([1, 1], 4))


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
