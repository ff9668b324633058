"""Output checks that share no code with equimap.

Everything here is written from the mathematics, not from the package:

- closed-form Hilbert series from Klein's invariant degrees, expanded by
  counting lattice points rather than by the package's prefix sums;
- the catalog generators as double-precision complex matrices, with
  zeta_n = exp(2 pi i / n), so that exact outputs can be spot-checked at
  random complex points under a relative tolerance;
- subgroup counts by formula and a direct closure check of each subgroup;
- Fraction evaluation of polynomial maps at rational points.

Each checker returns (ok, detail) and never raises on a wrong output.
"""

import cmath
import math
from fractions import Fraction

REL_TOL = 1e-9

# --- closed-form series ---------------------------------------------------

POLYHEDRAL_A = {
    "binary-tetrahedral": 3,
    "binary-octahedral": 4,
    "binary-icosahedral": 6,
}


def _count(n, strides):
    """Number of non-negative vectors k with sum k_i * strides_i = n."""
    if n < 0:
        return 0
    if not strides:
        return 1 if n == 0 else 0
    head, rest = strides[0], strides[1:]
    return sum(_count(n - head * k, rest) for k in range(n // head + 1))


def expand(numerator, strides, upto):
    """Coefficients 0..upto of sum_e t^e / prod_p (1 - t^p)."""
    return [sum(_count(d - e, strides) for e in numerator) for d in range(upto + 1)]


def compression_series(kind, ell, upto):
    """s_d: equivariant self-compressions of degree d.

    Polyhedral groups with a = 3, 4, 6 (2T, 2O, 2I):
    (t^(2a-1) + t^(6a-7)) / ((1-t^(2a))(1-t^(4a-4))) + t^(4a-5) / (1-t^(4a-4)).
    Binary dihedral and cyclic groups of parameter l: t^(2l-1) / (1-t^(2l)).
    """
    if kind in POLYHEDRAL_A:
        a = POLYHEDRAL_A[kind]
        one = expand([2 * a - 1, 6 * a - 7], [2 * a, 4 * a - 4], upto)
        two = expand([4 * a - 5], [4 * a - 4], upto)
        return [x + y for x, y in zip(one, two)]
    return expand([2 * ell - 1], [2 * ell], upto)


def invariant_series(kind, ell, upto):
    """Molien series of the invariant ring, from its generator degrees.

    2T: 6, 8, 12; 2O: 8, 12, 18; 2I: 12, 20, 30 (Klein), each with one
    relation; binary dihedral of order 4l: 4, 2l, 2l+2; cyclic of order 2l
    acting by diag(z, 1/z): 2, 2l, 2l; the diagonal group T2(2,2): 2, 2.
    """
    if kind in POLYHEDRAL_A:
        a = POLYHEDRAL_A[kind]
        return expand([0, 6 * a - 6], [2 * a, 4 * a - 4], upto)
    if kind == "binary-dihedral":
        return expand([0, 2 * ell + 2], [4, 2 * ell], upto)
    if kind == "cyclic":
        return expand([0, 2 * ell], [2, 2 * ell], upto)
    if kind == "tn":
        return expand([0], [2, 2], upto)
    raise ValueError("no invariant series for %r" % kind)


def first_positive_degree(coeffs):
    return next(d for d in range(1, len(coeffs)) if coeffs[d])


# --- complex evaluation ------------------------------------------------------


def zeta(n, k=1):
    return cmath.exp(2j * cmath.pi * k / n)


def _diag(a, b):
    return ((a, 0j), (0j, b))


def generators(kind, ell=None):
    """The catalog generators as complex 2x2 matrices."""
    if kind == "cyclic":
        z = zeta(2 * ell)
        return [_diag(z, 1 / z)]
    if kind == "binary-dihedral":
        z = zeta(2 * ell)
        return [_diag(z, 1 / z), ((0j, 1 + 0j), (-1 + 0j, 0j))]
    if kind in ("binary-tetrahedral", "binary-octahedral"):
        i = 1j
        gens = [
            _diag(i, -i),
            ((0j, 1 + 0j), (-1 + 0j, 0j)),
            ((0.5 * (-1 + i), 0.5 * (1 + i)), (0.5 * (-1 + i), 0.5 * (-1 - i))),
        ]
        if kind == "binary-octahedral":
            gens.append(_diag(zeta(8), zeta(8, -1)))
        return gens
    if kind == "binary-icosahedral":
        z = zeta(5)
        s5 = math.sqrt(5)
        a = -(z - z ** 4) / s5
        b = (z ** 2 - z ** 3) / s5
        return [_diag(-z ** 3, -z ** 2), ((a, b), (b, -a))]
    if kind == "tn":
        return [_diag(-1 + 0j, 1 + 0j), _diag(1 + 0j, -1 + 0j)]
    raise ValueError("no generators for %r" % kind)


def scalar(js):
    """A {"conductor", "coeffs"} scalar as a complex number."""
    n = js["conductor"]
    return sum(float(Fraction(c)) * zeta(n, k) for k, c in enumerate(js["coeffs"]))


def form_coeffs(js):
    """A bivariate form {"nvars": 2, "degree", "coeffs"} as complex coefficients."""
    if js["nvars"] != 2 or len(js["coeffs"]) != js["degree"] + 1:
        raise ValueError("not a bivariate form")
    return [scalar(c) for c in js["coeffs"]]


def matrix(js):
    return tuple(tuple(scalar(x) for x in row) for row in js)


def evaluate(coeffs, x, y):
    """(value, magnitude) of sum_j c_j x^(d-j) y^j; the magnitude bounds rounding."""
    d = len(coeffs) - 1
    val = 0j
    mag = 0.0
    for j, c in enumerate(coeffs):
        term = c * x ** (d - j) * y ** j
        val += term
        mag += abs(term)
    return val, mag


def _partials(coeffs):
    d = len(coeffs) - 1
    dx = [(d - j) * c for j, c in enumerate(coeffs[:-1])]
    dy = [(j + 1) * c for j, c in enumerate(coeffs[1:])]
    return dx, dy


def _apply(g, v):
    return (g[0][0] * v[0] + g[0][1] * v[1], g[1][0] * v[0] + g[1][1] * v[1])


def _close(a, b, scale):
    return abs(a - b) <= REL_TOL * max(scale, 1e-300)


def random_points(rng, count=3):
    """Points of C^2 with moduli in [0.8, 1.25], so high powers stay finite."""
    pts = []
    for _ in range(count):
        pts.append(tuple(
            rng.uniform(0.8, 1.25) * cmath.exp(2j * cmath.pi * rng.random())
            for _ in range(2)
        ))
    return pts


def check_equivariant(pair, gens, points):
    """phi(g v) = g phi(v) for every generator g and point v."""
    for gi, g in enumerate(gens):
        for v in points:
            gv = _apply(g, v)
            lhs = [evaluate(c, *gv) for c in pair]
            rhs = [evaluate(c, *v) for c in pair]
            for i in range(2):
                want = g[i][0] * rhs[0][0] + g[i][1] * rhs[1][0]
                scale = lhs[i][1] + abs(g[i][0]) * rhs[0][1] + abs(g[i][1]) * rhs[1][1]
                if not _close(lhs[i][0], want, scale):
                    return False, "equivariance fails at generator %d" % gi
    return True, ""


def check_invariant(coeffs, gens, points):
    """f(g v) = f(v) for every generator g and point v."""
    for gi, g in enumerate(gens):
        for v in points:
            a, ma = evaluate(coeffs, *_apply(g, v))
            b, mb = evaluate(coeffs, *v)
            if not _close(a, b, ma + mb):
                return False, "invariance fails at generator %d" % gi
    return True, ""


def check_jacobian_nonzero(pair, points):
    """det d(phi1, phi2) is nonzero at some point: the pair is not degenerate."""
    p1, p2 = (_partials(c) for c in pair)
    for v in points:
        a, ma = evaluate(p1[0], *v)
        b, mb = evaluate(p1[1], *v)
        c, mc = evaluate(p2[0], *v)
        d, md = evaluate(p2[1], *v)
        if abs(a * d - b * c) > 1e-6 * (ma * md + mb * mc):
            return True, ""
    return False, "Jacobian vanishes at every sample point"


def check_same_matrices(got, want):
    """Generator matrices read from an output equal the catalog ones."""
    if len(got) != len(want):
        return False, "expected %d generators, got %d" % (len(want), len(got))
    for k, (g, w) in enumerate(zip(got, want)):
        for i in range(2):
            for j in range(2):
                if not _close(g[i][j], w[i][j], 1.0):
                    return False, "generator %d differs from the catalog" % k
    return True, ""


# --- subgroup lattices --------------------------------------------------------


def gaussian_binomial(n, k, q):
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def elementary_abelian_subgroups(k, p=2):
    """Subgroups of (Z/p)^k: the subspaces of F_p^k."""
    return sum(gaussian_binomial(k, j, p) for j in range(k + 1))


def divisor_count(n):
    return sum(1 for d in range(1, n + 1) if n % d == 0)


def check_lattice(mul, subgroups, expected_count=None):
    """Each listed subset is a subgroup, none repeats, trivial and whole present."""
    order = len(mul)
    seen = set()
    for s in subgroups:
        key = frozenset(s)
        if key in seen:
            return False, "subgroup listed twice"
        seen.add(key)
        if order % len(key):
            return False, "subgroup order %d does not divide %d" % (len(key), order)
        for a in key:
            row = mul[a]
            for b in key:
                if row[b] not in key:
                    return False, "listed subset is not closed"
    sizes = sorted(len(s) for s in seen)
    if not seen or sizes[0] != 1 or sizes[-1] != order:
        return False, "trivial or whole group missing"
    if expected_count is not None and len(seen) != expected_count:
        return False, "%d subgroups, expected %d" % (len(seen), expected_count)
    return True, ""


# --- polynomial maps over Q ------------------------------------------------------


def rational(js):
    if js["conductor"] != 1 or len(js["coeffs"]) != 1:
        raise ValueError("not a rational scalar")
    return Fraction(js["coeffs"][0])


def polymap(js):
    """PolyMap JSON as a list of {exps: Fraction} components."""
    return [
        {tuple(m["exps"]): rational(m["coeff"]) for m in comp["monomials"]}
        for comp in js["components"]
    ]


def eval_poly(comp, point):
    total = Fraction(0)
    for exps, c in comp.items():
        term = c
        for x, e in zip(point, exps):
            term *= x ** e
        total += term
    return total


def eval_map(comps, point):
    return tuple(eval_poly(c, point) for c in comps)


def eval_affine(mat, shift, point):
    return tuple(
        shift[i] + sum(mat[i][k] * point[k] for k in range(len(point)))
        for i in range(len(point))
    )


def rational_points(rng, n, count=3):
    return [
        tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(n))
        for _ in range(count)
    ]


def check_origin_normal(comps):
    """No constant terms and identity linear part."""
    n = len(comps)
    for i, comp in enumerate(comps):
        if comp.get((0,) * n, 0) != 0:
            return False, "theta has a constant term"
        for k in range(n):
            e = tuple(1 if j == k else 0 for j in range(n))
            if comp.get(e, 0) != (1 if k == i else 0):
                return False, "theta's linear part is not the identity"
    return True, ""
