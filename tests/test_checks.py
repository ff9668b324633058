"""Proof checks raise typed errors, also under `python -O`.

Each case patches one step so that the check guarding its result must fail,
then runs the public entry point in a `python -O` child process, where every
`assert` is stripped. The check must still raise CheckFailed, or, for a
check that returns a verdict, the verdict must still be false.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
CERT_2O_11 = os.path.join(ROOT, "perfbench", "certs", "2o-d11-honest.json")

SETUP = """
assert False  # stripped under -O; the child would stop here otherwise
from equimap import compress, connect, forms, jordan
from equimap.errors import CheckFailed
from equimap.groups import build_group, cyclic_table, linear_characters, symmetric_table
from equimap.connect import PolyMap
g = build_group("binary-tetrahedral")
triv = linear_characters(g)[1][0]
theta = PolyMap(1, [{(1,): 1, (2,): 1}])
"""

CASES = {
    "rank-vs-dimension": (
        "forms.isotypic_dimension = lambda g, gamma, d: -1",
        "forms.isotypic_dims_and_bases(g, [triv], 6)",
    ),
    "isotypic-generator-skipped": (
        # the equations of the last, non-diagonal generator left out: the
        # others generate BD(2), with three invariants of degree 8 to the
        # one of 2T
        "g.generators = g.generators[:-1]",
        "forms.isotypic_dims_and_bases(g, [triv], 8)",
    ),
    "order-average": (
        # the six elements of order 4 counted as of order 8: the count at
        # degree 2 comes out 1/2
        "orders = forms._trace_orders\n"
        "forms._trace_orders = lambda h: [2 * o if o == 4 else o for o in orders(h)]",
        "forms.invariant_basis(g, 6)",
    ),
    "lift-rank-above-dimension": (
        # degree 12 of 2T holds p^2, the Hessian of q and J(p, q): two
        # independent forms against one
        "average = forms._trace_class_average\n"
        "forms._trace_class_average = lambda g, d, t: min(average(g, d, t), 1)",
        "forms.invariant_basis(g, 12)",
    ),
    "lift-rank-above-undercount": (
        # degree 24 of 2I lies below its third generator (30), so it is
        # walked, and it has no Hessian or Jacobian: only the product p^2,
        # formed even at a count of 0, can pass an average one low there
        "average = forms._trace_class_average\n"
        "forms._trace_class_average = lambda g, d, t: average(g, d, t) - (d == 24 and not t)",
        "forms.invariant_basis(build_group('binary-icosahedral'), 24)",
    ),
    "products-rank-above-undercount": (
        # degree 24 of 2T lies past its three generators: p^4, q^3 and
        # s p^2 against a count one low
        "count = forms._invariant_count\n"
        "forms._invariant_count = lambda g, d: count(g, d) - (d == 24)",
        "forms.invariant_basis(g, 24)",
    ),
    "products-overcount-falls-back": (
        # the three products fall short of a count one high, so the trivial
        # isotypic piece fills the gap, and it must meet the count
        "count = forms._invariant_count\n"
        "forms._invariant_count = lambda g, d: count(g, d) + (d == 24)",
        "forms.invariant_basis(g, 24)",
    ),
    "lifted-piece-vs-dimension": (
        # the trivial piece is read from the store, and its rank must still
        # meet the character average
        "forms.invariant_basis(g, 6)\n"
        "forms.isotypic_dimension = lambda g, gamma, d: 2",
        "forms.isotypic_dims_and_bases(g, [triv], 6)",
    ),
    "lift-projector-vs-dimension": (
        # one invariant claimed at degree 1, where the trivial isotypic
        # piece has none
        "average = forms._trace_class_average\n"
        "forms._trace_class_average = lambda g, d, t: max(average(g, d, t), 1)",
        "forms.invariant_basis(g, 6)",
    ),
    "custom-piece-vs-count": (
        # the 2x2 det-1 generators of BD(3) as a custom group, which reads
        # its trivial isotypic piece: one invariant of degree 4 (x1^2 x2^2)
        # against a count of 2
        "from equimap.groups import MatrixGroup\n"
        "average = forms._trace_class_average\n"
        "forms._trace_class_average = lambda g, d, t: average(g, d, t) + 1",
        "compress.invariant_form(MatrixGroup(build_group('binary-dihedral', 3).generators), 4)",
    ),
    "equivariant-rank": (
        "average = forms._trace_class_average\n"
        "forms._trace_class_average = lambda g, d, t: average(g, d, t) + t",
        "forms.equivariant_basis(g, 5)",
    ),
    "nonnegative-average": (
        "forms._as_int = lambda x: -1",
        "forms.isotypic_dimension(g, triv, 6)",
    ),
    "orbit-invariance": (
        "compress.substitute = lambda m, f: f * f",
        "compress.invariant_form(g, 24, 'orbit')",
    ),
    "zero-remainder": (
        # a claimed common factor 1 + z that does not divide 1 + z^2
        "compress._euclid_raws = lambda a, b, ctx: [ctx.one, ctx.one]",
        "compress.verify_functional_equation(([1, 0, 1], [1]), g.generators)",
    ),
    "descent-gcd-bound": (
        # the gcd degree mod p read as 1; the exact gcd of this pair has
        # degree 6, which no prime can raise the bound above
        "import json\n"
        f"cert = compress.CompressionCertificate.from_json(json.load(open({CERT_2O_11!r})))\n"
        "forms._modular_gcd_degree = lambda f, g, ctx: 1",
        "compress.verify_descent(cert)",
    ),
    "origin-conditions": (
        "connect.check_origin_conditions = lambda t: {'pass': False}",
        "connect.factor_through_origin(theta, (0,))",
    ),
    "reassembly": (
        # theta from the jet at 2s passes the origin conditions; only the
        # proof, Horner composition with the inverse translation x + s, can
        # catch it
        "from equimap import _kernel as K\n"
        "translate = connect._rtranslate\n"
        "connect._rtranslate = lambda comps, shift, ctx: "
        "translate(comps, [K.c_add(v, v) for v in shift], ctx)",
        "connect.factor_through_origin(theta, (1,))",
    ),
    "path-endpoints": (
        "connect.evaluate_path = lambda fam, t: theta",
        "connect.path_family(theta)",
    ),
    "series-nonnegative": (
        "",
        "compress.SeriesTable('S_G', 'cyclic', 2, [1, -1])",
    ),
    "lattice-bottom": (
        "",
        "jordan.SubgroupList(cyclic_table(4), [(0, 1, 2, 3)])",
    ),
    "lattice-top": (
        "jordan.closure = lambda t, seed: (t.id,)",
        "jordan.subgroups(cyclic_table(4))",
    ),
    "j-at-most-J": (
        # J read as 1, below j = [S3 : A3] = 2
        "jordan.m_of = lambda t, cap: 1",
        "jordan.jordan_constants(symmetric_table(3))",
    ),
    "p-group": (
        "t6 = cyclic_table(6)\n"
        "t6.element_order = lambda x: 2",
        "jordan.p_rank(t6, 2)",
    ),
}

# cases whose error must come from one check among several that could fire
MESSAGES = {
    "reassembly": "does not reassemble sigma",
    "descent-gcd-bound": "exact gcd degree 6 exceeds the bound 1 mod ",
    "rank-vs-dimension": "isotypic rank 1 != character dimension -1",
    "isotypic-generator-skipped": "isotypic rank 3 != character dimension 1",
    "order-average": "invariant count 24/48 at degree 2",
    "lift-projector-vs-dimension": "isotypic rank 0 != character dimension 1",
    "lift-rank-above-undercount": "product rank 1 > invariant dimension 0 at degree 24",
    "products-rank-above-undercount": "product rank 3 > invariant dimension 2 at degree 24",
    "products-overcount-falls-back": "isotypic rank 3 != character dimension 4",
    "lifted-piece-vs-dimension": "stored invariant rank 1 != character dimension 2",
    "custom-piece-vs-count": "isotypic rank 1 != character dimension 2",
}


# cases whose check returns a verdict: the patched step must make it false
VERDICTS = {
    "equivariance-lambda-group": (
        # the image of phi1 under each non-diagonal matrix moved at x1^5,
        # whose weight w_0 = lam^5 is lam on the diagonal subgroup of 2T:
        # the check fails at the first non-diagonal generator, and must
        # report the pair as failing
        "from equimap import _kernel as K\n"
        "cert = compress.construct_self_compression(g, 5)\n"
        "exps = forms.diagonal_exponents(g)\n"
        "n = g.conductor\n"
        "print('w_0 is lam', all((s ** 5, 5 * k % n) == (s, k) for (s, k), _ in exps)"
        " and any(a != b for a, b in exps))\n"
        "subst = compress._subst_raws\n"
        "def moved(m, fs):\n"
        "    img = subst(m, fs)\n"
        "    if not m.is_diagonal():\n"
        "        img[0][0] = K.c_add(img[0][0], forms.get_context(n).one)\n"
        "    return img\n"
        "compress._subst_raws = moved",
        "compress.verify_equivariance(g, cert.phi1, cert.phi2)['pass']",
        "w_0 is lam True\n",
    ),
}


def run_optimized(script):
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout


@pytest.mark.parametrize("case", sorted(CASES))
def test_check_survives_optimize(case):
    patch, call = CASES[case]
    out = run_optimized(SETUP + patch + "\n" + f"""
try:
    {call}
except CheckFailed as exc:
    print("raised", type(exc).__name__, exc)
else:
    print("passed silently")
""")
    assert out.startswith("raised"), out
    assert MESSAGES.get(case, "") in out


def test_singular_generator_rejected_under_optimize():
    out = run_optimized(SETUP + """
from equimap.groups import Mat, MatrixGroup
from equimap.scalars import one, zero
try:
    MatrixGroup([Mat([[one(4), zero(4)], [zero(4), zero(4)]])])
except ValueError as exc:
    print("raised", exc)
""")
    assert out == "raised generators must be invertible\n", out


@pytest.mark.parametrize("case", sorted(VERDICTS))
def test_verdict_survives_optimize(case):
    patch, verdict, printed = VERDICTS[case]
    out = run_optimized(SETUP + patch + f"\nprint('verdict', {verdict})\n")
    assert out == printed + "verdict False\n", out
