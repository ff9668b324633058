"""Proof checks raise typed errors, also under `python -O`.

Each case patches one step so that the check guarding its result must fail,
then runs the public entry point in a `python -O` child process, where every
`assert` is stripped. The check must still raise CheckFailed.
"""

import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

SETUP = """
assert False  # stripped under -O; the child would stop here otherwise
from equimap import compress, connect, forms
from equimap.errors import CheckFailed
from equimap.groups import build_group, linear_characters
from equimap.connect import PolyMap
g = build_group("binary-tetrahedral")
triv = linear_characters(g)[0]
theta = PolyMap(1, [{(1,): 1, (2,): 1}])
"""

CASES = {
    "rank-vs-dimension": (
        "forms.isotypic_dimension = lambda g, gamma, d: -1",
        "forms.isotypic_dim_and_basis(g, triv, 6)",
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
        "cert = compress.construct_self_compression(g, 5)\n"
        "x1_plus_x2 = forms.Form(2, 1, [forms.one(g.conductor)] * 2)\n"
        "compress.form_gcd = lambda f, h: x1_plus_x2",
        "compress.descent_rational(cert)",
    ),
    "origin-conditions": (
        "connect.check_origin_conditions = lambda t: {'pass': False}",
        "connect.factor_through_origin(theta, (0,))",
    ),
    "path-endpoints": (
        "connect.evaluate_path = lambda fam, t: theta",
        "connect.path_family(theta)",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_check_survives_optimize(case):
    patch, call = CASES[case]
    script = SETUP + patch + "\n" + f"""
try:
    {call}
except CheckFailed as exc:
    print("raised", type(exc).__name__)
else:
    print("passed silently")
"""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("raised"), out.stdout
