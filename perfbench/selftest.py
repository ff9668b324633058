"""Show that every output check rejects a corrupted output.

    python3 perfbench/selftest.py

From the root of a checkout. Each case feeds one checker a correct output
(which it must accept) and a corrupted copy (which it must reject); the
closed-form series are held to the degrees the paper states. Exits 0 when
every case behaves, 1 otherwise. Takes a few seconds.
"""

import copy
import os
import random
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import workloads as W  # noqa: E402
from make_certs import forge  # noqa: E402
from run import import_program  # noqa: E402

RESULTS = []


def case(name, accepted, rejected):
    """accepted: verdict on a correct output; rejected: on a corrupted one."""
    ok = accepted[0] and not rejected[0]
    RESULTS.append(ok)
    print("%s  %s%s" % ("ok  " if ok else "FAIL", name,
                        "" if ok else "  (accept=%s reject=%s)" % (accepted, rejected)))


def bump(scalar_js):
    scalar_js["coeffs"][0] = str(Fraction(scalar_js["coeffs"][0]) + 1)


def bump_first_nonzero(form_js):
    bump(next(c for c in form_js["coeffs"] if any(Fraction(x) for x in c["coeffs"])))
    return form_js


def series_cases():
    first = {("binary-tetrahedral", None): (5, 6), ("binary-octahedral", None): (7, 8),
             ("binary-icosahedral", None): (11, 12)}
    first.update({("binary-dihedral", l): (2 * l - 1, 4) for l in W.ELLS})
    for (kind, ell), (cert_d, inv_d) in first.items():
        s = checks.compression_series(kind, ell, 40)
        i = checks.invariant_series(kind, ell, 40)
        got = (next(d for d in range(2, 41) if s[d]), checks.first_positive_degree(i))
        ok = got == (cert_d, inv_d)
        RESULTS.append(ok)
        print("%s  %s first certificate / invariant degree %s" % (
            "ok  " if ok else "FAIL", W.label(kind, ell), got))


def certificate_cases(m, rng):
    kind, d = "binary-tetrahedral", 5
    cert = m.compress.construct_self_compression(m.groups.build_group(kind), d)
    eq = m.compress.verify_equivariance(cert.group, cert.phi1, cert.phi2, "linear")
    desc = m.compress.verify_descent(cert)
    js = cert.to_json()

    def verdict(js_, eq_=eq, desc_=desc, d_=d):
        return W.check_certificate(js_, eq_, desc_, kind, None, d_, random.Random(1))

    bad = copy.deepcopy(js)
    bump_first_nonzero(bad["phi"][0])
    case("certificate with one changed coefficient", verdict(js), verdict(bad))
    bad = copy.deepcopy(js)
    bad["d"] = 9
    case("certificate claimed at a degree where s_d = 0", verdict(js), verdict(bad, d_=9))
    case("equivariance report short of |G| elements", verdict(js),
         verdict(js, eq_=dict(eq, checked=eq["checked"] - 1)))
    case("descent report with disagreeing criteria", verdict(js),
         verdict(js, desc_=dict(desc, criteria_agree=False)))
    case("certificate with forged generators", verdict(js), verdict(forge(copy.deepcopy(js))))
    case("infeasible degree that constructs a map",
         W.check_infeasible(True, kind, None, 4), W.check_infeasible(False, kind, None, 4))
    case("infeasible verdict at a feasible degree",
         W.check_infeasible(True, kind, None, 4), W.check_infeasible(True, kind, None, 5))


def invariant_cases(m, rng):
    kind, ell, d = "binary-dihedral", 3, 4
    g = m.groups.build_group(kind, ell)
    f = m.compress.invariant_form(g, d)
    rep = m.compress.linear_self_compression(g, f)
    fj = m.forms.form_to_json(f)
    maps = [m.forms.form_to_json(x) for x in rep["maps"]]

    def verdict(fj_, maps_):
        return W.check_invariant_map(fj_, maps_, rep, kind, ell, d, random.Random(2))

    case("invariant with one changed coefficient", verdict(fj, maps),
         verdict(bump_first_nonzero(copy.deepcopy(fj)), maps))
    case("linear map with its coordinates swapped", verdict(fj, maps), verdict(fj, maps[::-1]))
    case("invariant found below the first invariant degree",
         W.check_no_invariant(False, kind, ell, 3), W.check_no_invariant(True, kind, ell, 3))


def verdict_cases():
    honest = '{"pass": true}'
    case("honest file that fails", W.check_verdict("pass", 0, honest),
         W.check_verdict("pass", 1, '{"pass": false}'))
    case("tampered file that passes", W.check_verdict("fail", 1, ""),
         W.check_verdict("fail", 0, honest))
    case("forged file that passes", W.check_verdict("reject", 2, ""),
         W.check_verdict("reject", 0, honest))


def table_cases(m):
    t = m.groups.symmetric_table(4)
    subs = list(m.jordan.subgroups(t))
    m_w = m.jordan.m_of_witness(t)
    consts = m.jordan.jordan_constants(t)
    ranks = {2: m.jordan.p_rank(t, 2), 3: m.jordan.p_rank(t, 3)}

    def verdict(subs_=subs, m_w_=m_w, consts_=consts, ranks_=ranks):
        vs = W.check_table_invariants("S4", t.mul, t.inv, subs_, m_w_, consts_, ranks_)
        return all(ok for _, ok, _ in vs), [v for v in vs if not v[1]]

    case("S4 lattice missing one subgroup", verdict(), verdict(subs_=subs[:-2] + subs[-1:]))
    case("S4 lattice with a subset that is not closed", verdict(),
         verdict(subs_=subs[:-1] + [(t.id, 1, 2)] + subs[-1:]))
    case("wrong m(S4) with its witness", verdict(), verdict(m_w_=(3, subs[1])))
    case("J below m", verdict(), verdict(consts_=(m_w[0] - 1, 1)))
    case("wrong 2-rank of S4", verdict(), verdict(ranks_={2: 1, 3: 1}))
    a, b = m.groups.symmetric_table(3), m.groups.cyclic_table(2)
    rep = m.jordan.product_inequality_check(a, b)
    bad = copy.deepcopy(rep)
    bad["m"]["product"] = bad["m"]["lower"] - 1
    case("m(A x B) below m(A) m(B)", W.check_product(rep, a.mul, b.mul),
         W.check_product(bad, a.mul, b.mul))
    t = m.groups.abelian_table([2, 2, 2])
    subs = list(m.jordan.subgroups(t))
    case("(Z/2)^3 lattice short of its Gaussian-binomial count",
         checks.check_lattice(t.mul, subs, W.expected_subgroups("(Z/2)^3")),
         checks.check_lattice(t.mul, subs[:3] + subs[4:], W.expected_subgroups("(Z/2)^3")))


def path_cases(m, rng):
    comps, s = W.random_sigma(rng, 2, 3, 4)
    sigma = m.connect.PolyMap(2, [dict(c) for c in comps])
    alpha, theta, tau = m.connect.factor_through_origin(sigma, list(s))
    a_js, t_js, tau_js = W._affine_js(m, alpha), theta.to_json(), W._affine_js(m, tau)

    def verdict(theta_js=t_js, tau_=tau_js):
        return W.check_factorization(comps, s, a_js, theta_js, tau_, random.Random(3))

    bad = copy.deepcopy(t_js)
    mono = next(x for x in bad["components"][0]["monomials"] if sum(x["exps"]) >= 2)
    bump(mono["coeff"])
    case("factorization with a changed theta coefficient", verdict(), verdict(theta_js=bad))
    bad_tau = copy.deepcopy(tau_js)
    bad_tau["shift"][0]["coeffs"][0] = "12345"
    case("factorization whose tau misses the point", verdict(), verdict(tau_=bad_tau))
    th = W.random_theta(rng, 2, 3, 4)
    theta = m.connect.PolyMap(2, [dict(c) for c in th])
    rep = m.connect.verify_conjugation_identity(theta)
    fam = m.connect.path_family(theta).to_json()
    bad = copy.deepcopy(fam)
    mono = next(x for x in bad["components"][1]["monomials"] if x["t"] >= 1)
    mono["t"] += 1
    case("path family with a shifted power of t",
         W.check_family(th, fam, rep, random.Random(4)),
         W.check_family(th, bad, rep, random.Random(4)))


def main():
    m = import_program()
    rng = random.Random(0)
    series_cases()
    certificate_cases(m, rng)
    invariant_cases(m, rng)
    verdict_cases()
    table_cases(m)
    path_cases(m, rng)
    print("%d of %d cases behave" % (sum(RESULTS), len(RESULTS)))
    return 0 if all(RESULTS) else 1


if __name__ == "__main__":
    sys.exit(main())
