"""Acceptance battery: every headline result, re-run from scratch.

Each criterion is a function returning a list of (label, status, detail)
rows with status PASS, FAIL, or SKIP; a criterion is skipped only when the
active config cannot cover it (for example a series cutoff below the degree
a check needs). Budgets are wall-clock seconds, scaled by the
EQUIMAP_BUDGET_SCALE environment variable so slow hosts can run the same
battery without spurious failures.
"""

import os
import random
import time
from fractions import Fraction

from .compress import (
    Moebius,
    compression_exists,
    construct_self_compression,
    invariant_form,
    linear_self_compression,
    series_consistency,
    verify_descent,
    verify_equivariance,
    verify_functional_equation,
)
from .connect import (
    PolyMap,
    check_origin_conditions,
    evaluate_path,
    factor_through_origin,
    path_family,
    regular_point,
    verify_conjugation_identity,
)
from .errors import NotFound
from .forms import Form, gcd_degree, jacobian_determinant
from .groups import (
    abelian_table,
    build_group,
    cyclic_table,
    symmetric_table,
    tn_group,
    to_table,
)
from .jordan import (
    homeo_bound,
    m_of,
    nonembeddability_threshold,
    p_rank,
    product_inequality_check,
)
from .scalars import zeta

DEFAULT_CONFIG = {
    "series_upto": 64,
    "subgroup_order_cap": 256,
    # The largest degree a command computes at (`invariant`, `linmap` and
    # `compress construct --degree`, `series --upto`); a larger one exits 3.
    # At 127, `compress construct --group tetrahedral` takes about 10 s and
    # `invariant --group tetrahedral` at 128 about 0.3 s (2 vCPUs); the
    # construction at 199 took 87 s.
    "degree_cap": 128,
    "output": "json",
}

BUDGETS = {1: 60.0, 2: 5.0, 3: 300.0, 4: 600.0, 5: 120.0, 6: 60.0, 7: 60.0,
           8: 1.0}


def budget_scale():
    try:
        return float(os.environ.get("EQUIMAP_BUDGET_SCALE", "1"))
    except ValueError:
        return 1.0


def _row(label, ok, detail=""):
    return (label, "PASS" if ok else "FAIL", detail)


def _criterion_1(cfg):
    """Minimal self-compression degrees across the catalog."""
    targets = [("tetrahedral", None, 5), ("octahedral", None, 7),
               ("icosahedral", None, 11)]
    targets += [("binary-dihedral", l, 2 * l - 1) for l in range(2, 7)]
    targets += [("cyclic", l, 2 * l - 1) for l in range(2, 7)]
    out = []
    for kind, ell, dmin in targets:
        label = kind if ell is None else "%s(%d)" % (kind, ell)
        label = "%s minimal degree %d" % (label, dmin)
        if cfg["series_upto"] < dmin:
            out.append((label, "SKIP", "series_upto < %d" % dmin))
            continue
        ok = (not any(compression_exists(kind, ell, d) for d in range(2, dmin))
              and compression_exists(kind, ell, dmin))
        cert = construct_self_compression(build_group(kind, ell), dmin)
        ok = ok and all(cert.checks.values()) and cert.descent_degree >= 2
        out.append(_row(label, ok))
    return out


def _icosahedral_pair_literals():
    p = (Form.monomial(2, (11, 0), 5)
         + 66 * Form.monomial(2, (6, 5), 5)
         - 11 * Form.monomial(2, (1, 10), 5))
    q = (-11 * Form.monomial(2, (10, 1), 5)
         - 66 * Form.monomial(2, (5, 6), 5)
         + Form.monomial(2, (0, 11), 5))
    return p, q


def _icosahedral_generators():
    from .groups import Mat

    w = zeta(5)
    t = w + w ** 4
    g1 = Mat([[w, 0 * w], [0 * w, w ** 0]])
    g2 = Mat([[t, t ** 0], [t ** 0, -t]])
    return g1, g2


def _criterion_2(cfg):
    """The explicit degree-11 icosahedral map, verified three ways."""
    p, q = _icosahedral_pair_literals()
    g1, g2 = _icosahedral_generators()
    rep = verify_equivariance([g1, g2], p, q, "projective")
    out = [_row("projective equivariance on both generators", rep["pass"])]
    out.append(_row("coprime components", gcd_degree(p, q) == 0))
    pz = [0, -11, 0, 0, 0, 0, 66, 0, 0, 0, 0, 1]
    qz = [1, 0, 0, 0, 0, -66, 0, 0, 0, 0, -11]
    w = zeta(5)
    t = w + w ** 4
    gens = [Moebius(w, 0 * w, 0 * w, w ** 0), Moebius(t, t ** 0, t ** 0, -t)]
    frep = verify_functional_equation((pz, qz), gens)
    out.append(_row(
        "functional equation at degree 11",
        frep["pass"] and frep["degree"] == 11,
    ))
    return out


def _noncyclic_kinds():
    kinds = [("tetrahedral", None), ("octahedral", None), ("icosahedral", None)]
    kinds += [("binary-dihedral", l) for l in range(2, 9)]
    return kinds


def _criterion_3(cfg):
    """Closed-form series against the character computation, d <= 40."""
    upto = min(40, cfg["series_upto"])
    out = []
    for kind, ell in _noncyclic_kinds():
        label = kind if ell is None else "%s(%d)" % (kind, ell)
        rep = series_consistency(build_group(kind, ell), upto)
        ok = rep["series_match"] and rep["equality_holds"] and rep["inequality_holds"]
        if rep.get("theta_dims_equal") is False:
            ok = False
        if upto < 40:
            out.append((label, "SKIP" if ok else "FAIL",
                        "checked only d <= %d" % upto))
        else:
            out.append(_row("%s consistency to 40" % label, ok))
    return out


def _criterion_4(cfg):
    """Construct and fully re-verify a certificate at every degree where a
    self-compression exists (`compression_exists`)."""
    dmax = min(40, cfg["series_upto"])
    out = []
    total = 0
    for kind, ell in _noncyclic_kinds() + [("cyclic", l) for l in range(2, 9)]:
        label = kind if ell is None else "%s(%d)" % (kind, ell)
        g = build_group(kind, ell)
        bad = []
        degrees = [d for d in range(2, dmax + 1) if compression_exists(kind, ell, d)]
        for d in degrees:
            cert = construct_self_compression(g, d)
            eq = verify_equivariance(cert.group, cert.phi1, cert.phi2, "linear")
            drep = verify_descent(cert)
            ok = (
                eq["pass"]
                and eq["checked"] == cert.group.order
                and not jacobian_determinant(cert.phi1, cert.phi2).is_zero()
                and cert.gcd_degree <= d - 2
                and drep["nontrivial"]
                and drep["criteria_agree"]
            )
            if not ok:
                bad.append(d)
        total += len(degrees)
        status = "FAIL" if bad else ("SKIP" if dmax < 40 else "PASS")
        detail = ("failing degrees %s" % bad) if bad else (
            "%d certificates" % len(degrees)
            + ("" if dmax == 40 else ", d <= %d only" % dmax)
        )
        out.append(("%s certificates" % label, status, detail))
    out.append(_row("total certificate count", total >= 1,
                    "%d constructed" % total))
    return out


def _criterion_5(cfg):
    """Invariant forms appear exactly at the right degrees, then map."""
    cases = [
        ("T2(2,2)", tn_group(2, [2, 2]), 2),
        ("Q8", build_group("dihedral", 2), 4),
        ("2T", build_group("tetrahedral"), 6),
        ("2I", build_group("icosahedral"), 12),
    ]
    out = []
    for label, g, first in cases:
        gap_ok = all(invariant_form(g, d) is None for d in range(1, first))
        f = invariant_form(g, first)
        found_ok = f is not None and f.degree == first
        out.append(_row("%s first invariant at degree %d" % (label, first),
                        gap_ok and found_ok))
        if not found_ok:
            continue
        rep = linear_self_compression(g, f)
        out.append(_row(
            "%s linear map certificate" % label,
            rep["equivariant"] and rep["line_degree"] == first + 1,
        ))
        forb = invariant_form(g, g.order, method="orbit")
        orb_ok = forb is not None and forb.degree == g.order
        if orb_ok:
            orep = linear_self_compression(g, forb)
            orb_ok = orep["equivariant"] and orep["line_degree"] == g.order + 1
        out.append(_row("%s orbit invariant at degree %d" % (label, g.order),
                        orb_ok))
    return out


def _criterion_6(cfg):
    cap = cfg["subgroup_order_cap"]
    q8 = to_table(build_group("dihedral", 2))
    s3 = symmetric_table(3)
    s4 = symmetric_table(4)
    out = [
        _row("m(S4) = 6", m_of(s4, cap) == 6),
        _row("m(Q8) = 2", m_of(q8, cap) == 2),
        _row("m(abelian) = 1",
             m_of(cyclic_table(12), cap) == 1
             and m_of(abelian_table([2, 2]), cap) == 1),
    ]
    rep = product_inequality_check(s3, s3, cap)
    out.append(_row("m(S3 x S3) = 4 >= 4",
                    rep["m"]["product"] == 4 and rep["m"]["holds"]))
    pairs = [
        (cyclic_table(2), q8), (cyclic_table(3), q8), (cyclic_table(4), s3),
        (cyclic_table(2), s3), (cyclic_table(2), s4), (s3, s3),
        (q8, cyclic_table(5)), (s3, q8), (cyclic_table(6), s3), (q8, q8),
    ]
    ok = True
    for a, b in pairs:
        r = product_inequality_check(a, b, cap)
        ok = ok and r["m"]["holds"] and r["J"]["holds"] and r["j"]["holds"]
    out.append(_row("product inequalities on 10 pairs", ok))
    out.append(_row("p_rank(Q8, 2) = 1", p_rank(q8, 2, cap) == 1))
    out.append(_row("p_rank((Z/2)^3, 2) = 3",
                    p_rank(abelian_table([2, 2, 2]), 2, cap) == 3))
    out.append(_row("threshold(288) = 8", nonembeddability_threshold(288) == 8))
    return out


def _random_theta(rng, n, maxdeg):
    comps = []
    for i in range(n):
        flat = {tuple(1 if k == i else 0 for k in range(n)): 1}
        for _ in range(rng.randrange(1, 4)):
            d = rng.randrange(2, maxdeg + 1)
            e = [0] * n
            for _ in range(d):
                e[rng.randrange(n)] += 1
            flat[tuple(e)] = flat.get(tuple(e), 0) + rng.choice(
                [-3, -2, -1, 1, 2, 3]
            )
        comps.append(flat)
    return PolyMap(n, comps)


def _criterion_7(cfg):
    rng = random.Random(0xacc7)
    conj_ok = True
    for _ in range(25):
        theta = _random_theta(rng, rng.randrange(1, 4), 5)
        rep = verify_conjugation_identity(theta)
        fam = path_family(theta)
        conj_ok = conj_ok and rep["pass"] and evaluate_path(fam, 0).is_identity() \
            and evaluate_path(fam, 1) == theta
    out = [_row("25 conjugation identities with exact endpoints", conj_ok)]
    done = 0
    reassembled = True
    while done < 10:
        n = rng.randrange(1, 4)
        comps = [dict(c) for c in
                 (_random_theta(rng, n, 4).component(i) for i in range(n))]
        comps[0][(0,) * n] = rng.randrange(1, 5)
        sigma = PolyMap(n, comps)
        try:
            s = regular_point(sigma, bound=2)
        except NotFound:
            continue
        alpha, theta, tau = factor_through_origin(sigma, s)
        back = alpha.to_polymap().compose(theta).compose(tau.to_polymap())
        reassembled = reassembled and back == sigma \
            and check_origin_conditions(theta)["pass"]
        done += 1
    out.append(_row("10 factorizations reassemble exactly", reassembled))
    return out


def _criterion_8(cfg):
    two = homeo_bound(2, 2)
    one_ = homeo_bound(1, 1)
    return [
        _row("homeo_bound(2, 2) -> d = 6",
             two["d"] == 6
             and Fraction(560, 100) < two["low"] <= two["high"]
             < Fraction(561, 100)),
        _row("homeo_bound(1, 1) -> d = 3",
             one_["d"] == 3 and one_["low"] == one_["high"] == 2),
        _row("enclosure width < 1/100",
             two["high"] - two["low"] < Fraction(1, 100)),
    ]


CRITERIA = {
    1: ("minimal self-compression degrees", _criterion_1),
    2: ("explicit icosahedral map", _criterion_2),
    3: ("series consistency to degree 40", _criterion_3),
    4: ("certificate battery", _criterion_4),
    5: ("invariant forms and linear maps", _criterion_5),
    6: ("brute-force group invariants", _criterion_6),
    7: ("connectedness paths", _criterion_7),
    8: ("certified bound enclosures", _criterion_8),
}


def run_criterion(index, cfg=None):
    cfg = dict(DEFAULT_CONFIG, **(cfg or {}))
    name, fn = CRITERIA[index]
    start = time.time()
    checks = fn(cfg)
    elapsed = time.time() - start
    budget = BUDGETS[index] * budget_scale()
    statuses = {s for _, s, _ in checks}
    if "FAIL" in statuses:
        status = "FAIL"
    elif elapsed > budget:
        status = "FAIL"
        checks = checks + [
            ("wall clock", "FAIL", "%.1fs over the %.0fs budget" % (elapsed, budget))
        ]
    elif "SKIP" in statuses:
        status = "SKIP"
    else:
        status = "PASS"
    return {
        "criterion": index,
        "name": name,
        "status": status,
        "elapsed": round(elapsed, 2),
        "budget": budget,
        "checks": [
            {"label": l, "status": s, "detail": d} for l, s, d in checks
        ],
    }


def run_suite(cfg=None):
    rows = [run_criterion(i, cfg) for i in sorted(CRITERIA)]
    return {
        "criteria": rows,
        "pass": all(r["status"] != "FAIL" for r in rows),
    }
