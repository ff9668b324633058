"""The four workloads: job lists, the program calls they time, and the
checks that judge each output.

A job is one timed unit of program work; it performs one or more
operations, and each operation gets its own verdict. Every job builds its
own groups and tables, so the per-group caches of one job never serve
another; the module-level caches the program keeps are listed in
README.md. The job order is fixed.
"""

import contextlib
import hashlib
import io
import json
import os
import random
from fractions import Fraction

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
CERT_DIR = os.path.join(HERE, "certs")

ORDER = {"binary-tetrahedral": 24, "binary-octahedral": 48, "binary-icosahedral": 120}
SHORT = {"binary-tetrahedral": "2T", "binary-octahedral": "2O",
         "binary-icosahedral": "2I", "binary-dihedral": "BD", "cyclic": "C",
         "tn": "T2(2,2)"}
ELLS = range(2, 9)


class Job:
    """`run()` does the timed work; `check(result, rng)` returns one
    (label, ok, detail) verdict per operation, `ops` of them."""

    __slots__ = ("name", "ops", "run", "check")

    def __init__(self, name, ops, run, check):
        self.name, self.ops, self.run, self.check = name, ops, run, check


def group_order(kind, ell):
    if kind == "cyclic":
        return 2 * ell
    if kind == "binary-dihedral":
        return 4 * ell
    return ORDER[kind]


def label(kind, ell):
    return SHORT[kind] + ("" if ell is None else str(ell))


# --- certify ---------------------------------------------------------------

# Polyhedral certificates stop at these degrees so that one pass fits the
# run budget; the dihedral and cyclic families go to degree 40.
CERTIFY_LIMIT = {"binary-tetrahedral": 23, "binary-octahedral": 23,
                 "binary-icosahedral": 19}
CERTIFY_MAX = 40


def check_certificate(cert_js, eq, desc, kind, ell, d, rng):
    """One self-compression certificate and its two verification reports."""
    s = checks.compression_series(kind, ell, d)
    if not s[d]:
        return False, "closed form has s_%d = 0, so no certificate exists" % d
    if cert_js["d"] != d or any(f["degree"] != d for f in cert_js["phi"]):
        return False, "certificate degree differs from %d" % d
    if not (eq["pass"] and eq["checked"] == group_order(kind, ell)):
        return False, "equivariance report does not cover the group"
    if not (desc["nontrivial"] and desc["criteria_agree"]):
        return False, "descent report is trivial or inconsistent"
    if cert_js["gcd_degree"] > d - 2 or not all(cert_js["checks"].values()):
        return False, "certificate records a failed check"
    gens = checks.generators(kind, ell)
    ok, why = checks.check_same_matrices(
        [checks.matrix(m) for m in cert_js["group"]["generators"]], gens)
    if not ok:
        return ok, why
    pair = [checks.form_coeffs(f) for f in cert_js["phi"]]
    pts = checks.random_points(rng)
    ok, why = checks.check_equivariant(pair, gens, pts)
    if ok:
        ok, why = checks.check_jacobian_nonzero(pair, pts)
    return ok, why


def check_infeasible(raised, kind, ell, d):
    if checks.compression_series(kind, ell, d)[d]:
        return False, "closed form has s_%d != 0" % d
    return raised, "" if raised else "constructed a map where none exists"


def _certify_job(m, kind_ells, degrees, probes):
    """Prove every (kind, ell) at every degree; probe the gap degrees."""
    # modules, not functions, are bound here: the tracer rebinds module globals
    compress, groups = m.compress, m.groups

    def run():
        out = []
        for kind, ell in kind_ells:
            for d in probes:
                g = groups.build_group(kind, ell)
                try:
                    compress.construct_self_compression(g, d)
                    out.append(("probe", kind, ell, d, False))
                except m.errors.InfeasibleDegree:
                    out.append(("probe", kind, ell, d, True))
            for d in degrees:
                g = groups.build_group(kind, ell)
                cert = compress.construct_self_compression(g, d)
                eq = compress.verify_equivariance(cert.group, cert.phi1, cert.phi2, "linear")
                desc = compress.verify_descent(cert)
                out.append(("cert", kind, ell, d, (cert, eq, desc)))
        return out

    def check(result, rng):
        verdicts = []
        for what, kind, ell, d, val in result:
            name = "%s d=%d %s" % (label(kind, ell), d, what)
            if what == "probe":
                verdicts.append((name,) + check_infeasible(val, kind, ell, d))
            else:
                cert, eq, desc = val
                verdicts.append((name,) + check_certificate(
                    cert.to_json(), eq, desc, kind, ell, d, rng))
        return verdicts

    name = "certify %s d=%s" % ("+".join(label(k, l) for k, l in kind_ells),
                                ",".join(map(str, degrees)))
    ops = len(kind_ells) * (len(degrees) + len(probes))
    return Job(name, ops, run, check)


def certify_jobs(m, seed):
    jobs = []
    for kind, limit in CERTIFY_LIMIT.items():
        s = checks.compression_series(kind, None, limit)
        degrees = [d for d in range(2, limit + 1) if s[d]]
        gap = list(range(2, degrees[0]))
        for i, d in enumerate(degrees):
            jobs.append(_certify_job(m, [(kind, None)], [d], gap if i == 0 else []))
    for ell in ELLS:
        s = checks.compression_series("binary-dihedral", ell, CERTIFY_MAX)
        degrees = [d for d in range(2, CERTIFY_MAX + 1) if s[d]]
        gap = list(range(2, degrees[0]))
        # small parameters are cheap: two degrees per job keeps jobs >= 0.1 s
        step = 2 if ell <= 3 else 1
        pair = [("binary-dihedral", ell), ("cyclic", ell)]
        for i in range(0, len(degrees), step):
            jobs.append(_certify_job(m, pair, degrees[i:i + step], gap if i == 0 else []))
    return jobs


# --- invariants ------------------------------------------------------------


def check_invariant_map(f_js, rep_maps_js, rep, kind, ell, d, rng):
    """An invariant form of degree d and its linear self-compression f * x."""
    series = checks.invariant_series(kind, ell, d)
    if not series[d]:
        return False, "closed form has no invariant of degree %d" % d
    if f_js["degree"] != d:
        return False, "invariant has degree %d" % f_js["degree"]
    if not (rep["equivariant"] and rep["nontrivial"] and rep["degree"] == d + 1
            and rep["line_degree"] == d + 1):
        return False, "linear map report records a failed check"
    gens = checks.generators(kind, ell)
    f = checks.form_coeffs(f_js)
    pts = checks.random_points(rng)
    ok, why = checks.check_invariant(f, gens, pts)
    if not ok:
        return ok, why
    maps = [checks.form_coeffs(js) for js in rep_maps_js]
    for v in pts:
        fv, mag = checks.evaluate(f, *v)
        for i in range(2):
            mv, mmag = checks.evaluate(maps[i], *v)
            if abs(mv - fv * v[i]) > checks.REL_TOL * (mmag + mag * abs(v[i])):
                return False, "map %d is not f * x%d" % (i + 1, i + 1)
    return checks.check_equivariant(maps, gens, pts)


def check_no_invariant(found, kind, ell, d):
    if checks.invariant_series(kind, ell, d)[d]:
        return False, "closed form has an invariant of degree %d" % d
    return not found, "found an invariant where none exists" if found else ""


def _group_maker(m, kind, ell):
    if kind == "tn":
        return lambda: m.groups.tn_group(2, [2, 2])
    return lambda: m.groups.build_group(kind, ell)


def _invariant_job(m, specs):
    """specs: (kind, ell, items, gap) tuples. Each gap degree is probed for
    the absence of invariants; each (degree, method) item is an invariant
    form followed by its linear self-compression."""
    compress, forms = m.compress, m.forms

    def run():
        out = []
        for kind, ell, items, gap in specs:
            make = _group_maker(m, kind, ell)
            g = make()
            out += [(kind, ell, "gap", d, compress.invariant_form(g, d) is not None)
                    for d in gap]
            for d, method in items:
                g = make()
                f = compress.invariant_form(g, d, method)
                rep = None if f is None else compress.linear_self_compression(g, f)
                out.append((kind, ell, method, d, (f, rep)))
        return out

    def check(result, rng):
        verdicts = []
        for kind, ell, what, d, val in result:
            name = "%s d=%d %s" % (label(kind, ell), d, what)
            if what == "gap":
                verdicts.append((name,) + check_no_invariant(val, kind, ell, d))
                continue
            f, rep = val
            if f is None:
                verdicts.append((name, False, "no invariant form returned"))
                continue
            verdicts.append((name,) + check_invariant_map(
                forms.form_to_json(f), [forms.form_to_json(x) for x in rep["maps"]],
                rep, kind, ell, d, rng))
        return verdicts

    parts = []
    for kind, ell, items, gap in specs:
        parts.append(label(kind, ell))
        parts += ["gap<%d" % (max(gap) + 1)] if gap else []
        parts += ["%s%d" % (method[0], d) for d, method in items]
    ops = sum(len(items) + len(gap) for _, _, items, gap in specs)
    return Job("invariants " + " ".join(parts), ops, run, check)


def _invariant_degrees(kind, ell, upto, count):
    s = checks.invariant_series(kind, ell, upto)
    return [d for d in range(1, upto + 1) if s[d]][:count]


# (group, how many of its Molien degrees get a Reynolds invariant, orbit degrees)
POLYHEDRAL_INVARIANTS = (("binary-icosahedral", 4, (120,)),
                         ("binary-octahedral", 10, (48,)),
                         ("binary-tetrahedral", 11, (24, 48)))


def invariants_jobs(m, seed):
    jobs = []
    for kind, count, orbits in POLYHEDRAL_INVARIANTS:
        degs = _invariant_degrees(kind, None, 60, count)
        # the gap probes below the first invariant share its job; for 2T,
        # whose low degrees are cheap, so does the second degree
        first = 2 if kind == "binary-tetrahedral" else 1
        lead = [(d, "reynolds") for d in degs[:first]]
        jobs.append(_invariant_job(m, [(kind, None, lead, range(1, degs[0]))]))
        jobs += [_invariant_job(m, [(kind, None, [(d, "reynolds")], ())])
                 for d in degs[first:]]
        jobs += [_invariant_job(m, [(kind, None, [(d, "orbit")], ())]) for d in orbits]
    for ell in ELLS:
        bd = _invariant_degrees("binary-dihedral", ell, 8 * ell, 5)
        cy = _invariant_degrees("cyclic", ell, 4 * ell, 5)
        reynolds = [("binary-dihedral", ell, [(d, "reynolds") for d in bd], range(1, bd[0])),
                    ("cyclic", ell, [(d, "reynolds") for d in cy], ())]
        orbit = [("binary-dihedral", ell, [(4 * ell * k, "orbit") for k in (1, 2, 3)], ()),
                 ("cyclic", ell, [(2 * ell * k, "orbit") for k in (1, 2, 3)], ())]
        if ell == 2:
            reynolds.append(("tn", None, [(2, "reynolds"), (4, "reynolds"), (4, "orbit"),
                                          (8, "orbit")], [1]))
        # small parameters are cheap, so both routes share one job
        if ell <= 3:
            jobs.append(_invariant_job(m, reynolds + orbit))
        else:
            jobs += [_invariant_job(m, reynolds), _invariant_job(m, orbit)]
    return jobs


# --- verify ----------------------------------------------------------------


def load_manifest():
    with open(os.path.join(CERT_DIR, "MANIFEST.json")) as fh:
        return json.load(fh)


def check_verdict(expect, code, stdout):
    """honest: exit 0 and pass; tampered: exit 1; forged: any exit but 0."""
    if expect == "pass":
        try:
            passed = json.loads(stdout)["pass"] is True
        except (ValueError, KeyError, TypeError):
            passed = False
        return (code == 0 and passed), "exit %d" % code
    if expect == "fail":
        return code == 1, "exit %d" % code
    return code != 0, "exit %d" % code


def _verify_job(m, entries):
    cli = m.cli
    paths = [os.path.join(CERT_DIR, e["file"]) for e in entries]

    def run():
        out = []
        for path in paths:
            buf_out, buf_err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(buf_out), contextlib.redirect_stderr(buf_err):
                code = cli.main(["compress", "verify-map", path])
            out.append((code, buf_out.getvalue()))
        return out

    def check(result, rng):
        return [(e["file"],) + check_verdict(e["expect"], code, stdout)
                for e, (code, stdout) in zip(entries, result)]

    return Job("verify " + " ".join(e["file"] for e in entries), len(entries), run, check)


def verify_jobs(m, seed):
    """Polyhedral files one per job. Dihedral and cyclic files of one
    (ell, degree) share a job, two degrees for ell = 2, since each file
    alone takes milliseconds."""
    manifest = load_manifest()
    for e in manifest["files"]:
        with open(os.path.join(CERT_DIR, e["file"]), "rb") as fh:
            if hashlib.sha256(fh.read()).hexdigest() != e["sha256"]:
                raise OSError("%s differs from its manifest entry" % e["file"])
    batches, dihedral = [], {}
    for e in manifest["files"]:
        if e["group"] in ORDER:
            batches.append([e])
        else:
            dihedral.setdefault((e["ell"], e["degree"]), []).append(e)
    batch = []
    for (ell, _), entries in dihedral.items():
        batch += entries
        if ell > 2 or len(batch) >= 8:
            batches.append(batch)
            batch = []
    return [_verify_job(m, b) for b in batches]


def known_faults():
    """Files the program judges wrongly today: `MatrixGroup.from_json`
    rebuilds catalog groups from `kind` and ignores forged generators."""
    return {e["file"] for e in load_manifest()["files"] if e["variant"] == "forged"}


# --- jordan-paths -------------------------------------------------------------

# Subgroup counts known in closed form or from the literature.
KNOWN_SUBGROUPS = {"S3": 6, "S4": 30, "Q8": 6, "SL(2,3)": 15}
# m(G): least index of a normal abelian subgroup.
KNOWN_M = {"S3": 2, "S4": 6, "Q8": 2, "SL(2,3)": 12, "2O": 24}
# p-ranks: the binary polyhedral and dihedral groups have one involution.
KNOWN_P_RANK = {("S3", 2): 1, ("S3", 3): 1, ("S4", 2): 2, ("S4", 3): 1,
                ("Q8", 2): 1, ("SL(2,3)", 2): 1, ("SL(2,3)", 3): 1,
                ("2O", 2): 1, ("2O", 3): 1}


def _tables(m):
    """name -> (table builder, primes for p_rank)."""
    g = m.groups
    out = {
        "S3": (lambda: g.symmetric_table(3), [2, 3]),
        "S4": (lambda: g.symmetric_table(4), [2, 3]),
        "Q8": (lambda: g.to_table(g.build_group("binary-dihedral", 2)), [2]),
        "SL(2,3)": (lambda: g.to_table(g.build_group("binary-tetrahedral")), [2, 3]),
        "2O": (lambda: g.to_table(g.build_group("binary-octahedral")), [2, 3]),
    }
    for ell in range(3, 9):
        out["BD%d" % ell] = ((lambda l=ell: g.to_table(g.build_group("binary-dihedral", l))),
                             sorted({2, *(p for p in (3, 5, 7) if ell % p == 0)}))
    for k in range(1, 6):
        out["(Z/2)^%d" % k] = ((lambda k=k: g.abelian_table([2] * k)), [2])
    for n in (12, 16, 30):
        out["Z/%d" % n] = ((lambda n=n: g.cyclic_table(n)), [p for p in (2, 3, 5) if n % p == 0])
    return out


# Tables per job: the small ones are batched so that no job is tiny.
TABLE_JOBS = (("S4",), ("SL(2,3)",), ("2O",), ("(Z/2)^5",), ("BD7",), ("BD8",),
              ("S3", "Q8", "BD3", "BD4", "BD5"), ("BD6", "Z/12", "Z/16"),
              ("(Z/2)^1", "(Z/2)^2", "(Z/2)^3", "(Z/2)^4", "Z/30"))


def expected_subgroups(name):
    if name.startswith("(Z/2)^"):
        return checks.elementary_abelian_subgroups(int(name[6:]))
    if name.startswith("Z/"):
        return checks.divisor_count(int(name[2:]))
    return KNOWN_SUBGROUPS.get(name)


def expected_m(name):
    if name.startswith("Z/") or name.startswith("(Z/2)"):
        return 1
    if name.startswith("BD"):
        return 2
    return KNOWN_M.get(name)


def expected_p_rank(name, p):
    if name.startswith("(Z/2)^"):
        return int(name[6:])
    if name.startswith("Z/") or name.startswith("BD"):
        return 1
    return KNOWN_P_RANK.get((name, p))


def _is_normal_abelian(mul, inv, s):
    sset = set(s)
    for x in s:
        for y in s:
            if mul[x][y] != mul[y][x]:
                return False
    return all(mul[mul[g][x]][inv[g]] in sset for g in range(len(mul)) for x in s)


def check_table_invariants(name, mul, inv, subs, m_w, consts, ranks):
    verdicts = []
    ok, why = checks.check_lattice(mul, subs, expected_subgroups(name))
    verdicts.append((name + " subgroups", ok, why))
    m_val, witness = m_w
    want = expected_m(name)
    ok = (m_val * len(witness) == len(mul) and _is_normal_abelian(mul, inv, witness)
          and (want is None or m_val == want))
    why = "" if ok else "m=%s, witness of order %d" % (m_val, len(witness))
    verdicts.append((name + " m", ok, why))
    big, small = consts
    ok = big >= m_val and 1 <= small <= big
    verdicts.append((name + " J,j", ok, "" if ok else "J=%s j=%s m=%s" % (big, small, m_val)))
    for p, r in ranks.items():
        want = expected_p_rank(name, p)
        ok = (want is None and r >= 1) or r == want
        verdicts.append(("%s p_rank(%d)" % (name, p), ok, "" if ok else "rank %s" % r))
    return verdicts


def _table_job(m, names):
    j = m.jordan
    tables = _tables(m)

    def run():
        out = []
        for name in names:
            build, primes = tables[name]
            t = build()
            out.append((name, t, j.subgroups(t), j.m_of_witness(t), j.jordan_constants(t),
                        {p: j.p_rank(t, p) for p in primes}))
        return out

    def check(result, rng):
        return [v for name, t, subs, m_w, consts, ranks in result
                for v in check_table_invariants(name, t.mul, t.inv, list(subs), m_w,
                                                consts, ranks)]

    ops = sum(3 + len(tables[n][1]) for n in names)
    return Job("tables " + " ".join(names), ops, run, check)


def check_product(rep, a, b):
    """m, J, j of A x B against the products of the factors' values."""
    if rep["order"] != len(a) * len(b):
        return False, "product order %d" % rep["order"]
    for key in ("m", "J", "j"):
        r = rep[key]
        if r["lower"] != r["a"] * r["b"] or r["product"] < r["lower"]:
            return False, "%s(A x B) = %s < %s" % (key, r["product"], r["a"] * r["b"])
        if not r["holds"]:
            return False, "%s inequality reported as failing" % key
    return True, ""


# Pairs per job, the small products batched together.
PRODUCT_JOBS = ((("Z/2", "S4"),), (("S3", "S3"),), (("S3", "Q8"),), (("Z/6", "S3"),),
                (("Q8", "Q8"),),
                (("Z/2", "Q8"), ("Z/3", "Q8"), ("Z/4", "S3"), ("Z/2", "S3"), ("Q8", "Z/5")))


def _product_job(m, pairs):
    g, j = m.groups, m.jordan

    def table(name):
        if name.startswith("Z/"):
            return g.cyclic_table(int(name[2:]))
        if name == "Q8":
            return g.to_table(g.build_group("binary-dihedral", 2))
        return g.symmetric_table(int(name[1:]))

    def run():
        out = []
        for pair in pairs:
            a, b = table(pair[0]), table(pair[1])
            out.append((a, b, j.product_inequality_check(a, b)))
        return out

    def check(result, rng):
        verdicts = []
        for pair, (a, b, rep) in zip(pairs, result):
            ok, why = check_product(rep, a.mul, b.mul)
            want = tuple(expected_m(n) for n in pair)
            if ok and (rep["m"]["a"], rep["m"]["b"]) != want:
                ok, why = False, "m of the factors is %s, expected %s" % (
                    (rep["m"]["a"], rep["m"]["b"]), want)
            verdicts.append(("%s x %s" % pair, ok, why))
        return verdicts

    return Job("products " + " ".join("%sx%s" % p for p in pairs), len(pairs), run, check)


# Random maps have a fixed shape per slot (dimension, term count, degrees),
# so the seed moves coefficients and exponents but not the amount of work.
PATH_BATCH = 12  # maps of each shape per job
PATH_SHAPES = ((2, 4, 6), (3, 3, 5))  # (dimension, extra terms, max degree)


def _random_higher(rng, n, terms, maxdeg):
    comps = []
    for i in range(n):
        comp = {}
        for t in range(terms):
            d = 2 + (t % (maxdeg - 1))
            e = [0] * n
            for _ in range(d):
                e[rng.randrange(n)] += 1
            comp[tuple(e)] = comp.get(tuple(e), 0) + rng.choice([-3, -2, -1, 1, 2, 3])
        comps.append({e: c for e, c in comp.items() if c})
    return comps


def random_theta(rng, n, terms, maxdeg):
    comps = _random_higher(rng, n, terms, maxdeg)
    for i, comp in enumerate(comps):
        comp[tuple(1 if k == i else 0 for k in range(n))] = 1
    return comps


def _jacobian_det(comps, point):
    n = len(comps)
    rows = []
    for comp in comps:
        row = []
        for k in range(n):
            deriv = {}
            for e, c in comp.items():
                if e[k]:
                    de = e[:k] + (e[k] - 1,) + e[k + 1:]
                    deriv[de] = deriv.get(de, 0) + c * e[k]
            row.append(checks.eval_poly(deriv, point))
        rows.append(row)
    det = Fraction(1)
    for col in range(n):  # Gaussian elimination over Q
        piv = next((r for r in range(col, n) if rows[r][col]), None)
        if piv is None:
            return Fraction(0)
        rows[col], rows[piv] = rows[piv], rows[col]
        det *= rows[col][col] * (1 if piv == col else -1)
        for r in range(col + 1, n):
            f = rows[r][col] / rows[col][col]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return det


def random_sigma(rng, n, terms, maxdeg):
    """(components, point): an affine part plus higher terms, and a rational
    point where the Jacobian is invertible (drawn until one is)."""
    comps = _random_higher(rng, n, terms, maxdeg)
    for i, comp in enumerate(comps):
        comp[(0,) * n] = rng.randint(-4, 4)
        for k in range(n):
            e = tuple(1 if j == k else 0 for j in range(n))
            comp[e] = comp.get(e, 0) + (rng.choice([1, 2, 3]) if k == i else rng.randint(-2, 2))
    comps = [{e: c for e, c in comp.items() if c} for comp in comps]
    while True:
        s = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n))
        if _jacobian_det(comps, s):
            return comps, s


def _polymap_of(m, comps):
    return m.connect.PolyMap(len(comps), [dict(c) for c in comps])


def check_family(theta, fam_js, rep, rng):
    """Conjugation report, and rho(t) = theta(t x)/t at rational t and x."""
    if not rep["pass"]:
        return False, "conjugation identity reported as failing"
    n = len(theta)
    fam = [[(mono["t"], tuple(mono["exps"]), checks.rational(mono["coeff"]))
            for mono in comp["monomials"]] for comp in fam_js["components"]]
    for p in checks.rational_points(rng, n, 2):
        for t0 in (Fraction(0), Fraction(1), Fraction(rng.randint(1, 9), rng.randint(1, 9))):
            got = tuple(sum((c * t0 ** te * checks.eval_poly({e: 1}, p) for te, e, c in comp),
                            Fraction(0)) for comp in fam)
            if t0 == 0:
                want = p
            else:
                want = tuple(v / t0 for v in checks.eval_map(theta, [t0 * x for x in p]))
            if got != want:
                return False, "path at t=%s differs from theta(t x)/t" % t0
    return True, ""


def check_factorization(sigma, s, alpha_js, theta_js, tau_js, rng):
    """sigma = alpha o theta o tau at rational points; theta normalized; tau(s) = 0."""
    theta = checks.polymap(theta_js)
    ok, why = checks.check_origin_normal(theta)
    if not ok:
        return ok, why
    am = [[checks.rational(x) for x in row] for row in alpha_js["matrix"]]
    ash = [checks.rational(x) for x in alpha_js["shift"]]
    tm = [[checks.rational(x) for x in row] for row in tau_js["matrix"]]
    tsh = [checks.rational(x) for x in tau_js["shift"]]
    if any(checks.eval_affine(tm, tsh, s)):
        return False, "tau does not move the point to the origin"
    for p in checks.rational_points(rng, len(sigma), 3):
        back = checks.eval_affine(am, ash, checks.eval_map(theta, checks.eval_affine(tm, tsh, p)))
        if back != checks.eval_map(sigma, p):
            return False, "alpha o theta o tau differs from sigma"
    return True, ""


def _affine_js(m, a):
    cj = m.scalars.cyc_to_json
    return {"matrix": [[cj(v) for v in row] for row in a.matrix],
            "shift": [cj(v) for v in a.shift]}


def _paths_job(m, thetas, sigmas, tag):
    """Conjugation identity and path family for each theta; factorization
    through the origin for each sigma."""
    c = m.connect

    def run():
        fams = []
        for comps in thetas:
            theta = _polymap_of(m, comps)
            fams.append((c.verify_conjugation_identity(theta), c.path_family(theta)))
        facts = [c.factor_through_origin(_polymap_of(m, comps), list(s)) for comps, s in sigmas]
        return fams, facts

    def check(result, rng):
        fams, facts = result
        out = [("%s theta %d" % (tag, i),) + check_family(th, fam.to_json(), rep, rng)
               for i, (th, (rep, fam)) in enumerate(zip(thetas, fams))]
        out += [("%s sigma %d" % (tag, i),) + check_factorization(
            comps, s, _affine_js(m, alpha), theta.to_json(), _affine_js(m, tau), rng)
            for i, ((comps, s), (alpha, theta, tau)) in enumerate(zip(sigmas, facts))]
        return out

    return Job("paths " + tag, len(thetas) + len(sigmas), run, check)


PATH_JOBS = 25


def jordan_paths_jobs(m, seed):
    jobs = [_table_job(m, names) for names in TABLE_JOBS]
    jobs += [_product_job(m, pairs) for pairs in PRODUCT_JOBS]
    rng = random.Random("paths:%d" % seed)
    for k in range(PATH_JOBS):
        # every path job holds every shape, so path jobs cost alike
        thetas, sigmas = [], []
        for n, terms, maxdeg in PATH_SHAPES:
            thetas += [random_theta(rng, n, terms, maxdeg) for _ in range(PATH_BATCH)]
            sigmas += [random_sigma(rng, n, terms, maxdeg) for _ in range(PATH_BATCH)]
        jobs.append(_paths_job(m, thetas, sigmas, str(k)))
    return jobs


WORKLOADS = {
    "certify": certify_jobs,
    "invariants": invariants_jobs,
    "verify": verify_jobs,
    "jordan-paths": jordan_paths_jobs,
}
