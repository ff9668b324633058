"""Write the certificate files that the `verify` workload checks.

    python3 perfbench/make_certs.py [--out DIR]

From the root of a checkout; DIR defaults to perfbench/certs. Reruns are
byte-identical, so `--out` to a scratch directory followed by `diff -r`
shows whether the committed files are still what the program constructs.

Every file's expected verdict follows from how it was made, never from a
run of the verifier:

- honest: `equimap compress construct` output, unchanged; expect exit 0
  with "pass": true;
- tampered: phi1 gets coefficient 1 at the first monomial x^(d-j) y^j
  whose weight under the group's first generator diag(w, 1/w) differs
  from the weight of x. An equivariant phi1 has coefficient 0 there, so
  the pair is no longer equivariant at that generator; expect exit 1;
- forged: every group generator replaced by the identity matrix, so the
  file no longer describes its group; expect any exit code but 0.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

POLYHEDRAL = (  # (group, degrees, degrees that also get a forged file)
    ("binary-icosahedral", (11, 19), (11,)),
    ("binary-octahedral", (7, 11, 15), (7,)),
    ("binary-tetrahedral", (5, 7, 11, 13, 15, 17), (5,)),
)
DIHEDRAL_DEGREES = {2: (3, 7, 11, 15), 3: (5, 11, 17), 4: (7, 15, 23), 5: (9, 19),
                    6: (11, 23), 7: (13, 27), 8: (15, 31)}
DIHEDRAL_FORGED = {("binary-dihedral", 3, 5), ("cyclic", 4, 7)}
NO_TAMPER = {("binary-icosahedral", None, 19)}  # keeps one pass of the workload short

# order of w in the first generator diag(w, 1/w) of each kind
WEIGHT_ORDER = {"binary-icosahedral": 10, "binary-octahedral": 4,
                "binary-tetrahedral": 4}
SHORT = {"binary-icosahedral": "2i", "binary-octahedral": "2o",
         "binary-tetrahedral": "2t", "binary-dihedral": "bd", "cyclic": "c"}
EXPECT = {"honest": "pass", "tampered": "fail", "forged": "reject"}


def dump(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def tamper(cert, kind, ell):
    order = WEIGHT_ORDER.get(kind) or 2 * ell
    d = cert["d"]
    for j, coeff in enumerate(cert["phi"][0]["coeffs"]):
        if (d - 2 * j - 1) % order:
            if any(Fraction(c) for c in coeff["coeffs"]):
                raise ValueError("phi1 has a monomial of the wrong weight")
            coeff["coeffs"][0] = "1"
            return cert
    raise ValueError("every monomial has the weight of x")


def forge(cert):
    for gen in cert["group"]["generators"]:
        for i, row in enumerate(gen):
            for j, entry in enumerate(row):
                coeffs = ["0"] * len(entry["coeffs"])
                coeffs[0] = "1" if i == j else "0"
                entry["coeffs"] = coeffs
    return cert


def specs():
    for kind, degrees, forged in POLYHEDRAL:
        for d in degrees:
            yield kind, None, d, d in forged
    for ell, degrees in DIHEDRAL_DEGREES.items():
        for d in degrees:
            for kind in ("binary-dihedral", "cyclic"):
                yield kind, ell, d, (kind, ell, d) in DIHEDRAL_FORGED


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", default=os.path.join(HERE, "certs"))
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from equimap.cli import main as cli_main

    os.makedirs(args.out, exist_ok=True)
    files = []
    for kind, ell, d, forged in specs():
        stem = "%s%s-d%d" % (SHORT[kind], "" if ell is None else ell, d)
        argv = ["compress", "construct", "--group", kind, "--degree", str(d)]
        if ell is not None:
            argv += ["--ell", str(ell)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            if cli_main(argv) != 0:
                raise SystemExit("construct failed: %s" % " ".join(argv))
        honest = json.loads(out.getvalue())
        variants = [("honest", honest)]
        if (kind, ell, d) not in NO_TAMPER:
            variants.append(("tampered", tamper(json.loads(out.getvalue()), kind, ell)))
        if forged:
            variants.append(("forged", forge(json.loads(out.getvalue()))))
        for variant, payload in variants:
            name = "%s-%s.json" % (stem, variant)
            text = dump(payload)
            with open(os.path.join(args.out, name), "w") as fh:
                fh.write(text)
            files.append({"file": name, "group": kind, "ell": ell, "degree": d,
                          "variant": variant, "expect": EXPECT[variant],
                          "sha256": hashlib.sha256(text.encode()).hexdigest()})
    with open(os.path.join(args.out, "MANIFEST.json"), "w") as fh:
        fh.write(dump({"files": files}))
    print("wrote %d files to %s" % (len(files), args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
