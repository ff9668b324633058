"""Command-line front end.

Exit codes: 0 verified/success, 1 a verification check came back false,
2 invalid input, 3 infeasible request (empty degree, exhausted search,
nothing found, a degree or table order past its configured cap).
Machine-readable errors go to stderr as {"error": ...}.
"""

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import lru_cache

from . import acceptance
from .acceptance import DEFAULT_CONFIG
from .compress import (
    CHECK_CLAIMS,
    Moebius,
    CompressionCertificate,
    construct_self_compression,
    invariant_form,
    linear_self_compression,
    recomputed_claims,
    series,
    verify_descent,
    verify_equivariance,
    verify_functional_equation,
)
from .connect import (
    PolyMap,
    factor_through_origin,
    path_family,
    regular_point,
    verify_conjugation_identity,
)
from .errors import CheckFailed, ConditionsFail, DegreeCapExceeded, Infeasible, NotFound
from .forms import form_to_json
from .groups import (
    GroupTable,
    MatrixGroup,
    build_group,
    linear_characters,
    mat_to_json,
    to_table,
)
from .jordan import (
    homeo_bound,
    jordan_constants,
    m_of_witness,
    nonembeddability_threshold,
    p_rank,
    product_inequality_check,
)
from .scalars import cyc_from_json, frac_from_str, frac_to_str, raw_to_json

SERIES_KIND_ALIASES = {
    "s": "S_G", "s_g": "S_G", "sg": "S_G",
    "chi": "P_chi", "p_chi": "P_chi",
    "1": "P_1", "p_1": "P_1", "one": "P_1",
    "theta": "P_theta", "p_theta": "P_theta",
}


def load_config(path=None, fmt=None):
    cfg = dict(DEFAULT_CONFIG)
    if path is not None:
        with open(path) as fh:
            for ln, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError("config line %d: expected key=value" % ln)
                key, _, val = (s.strip() for s in line.partition("="))
                if key not in cfg:
                    raise ValueError("config line %d: unknown key %r" % (ln, key))
                if key == "output":
                    if val not in ("json", "text"):
                        raise ValueError("output must be json or text")
                    cfg[key] = val
                else:
                    cfg[key] = int(val)
    if fmt is not None:
        cfg["output"] = fmt
    for key, val in cfg.items():
        if key != "output" and val < 1:
            raise ValueError("config %s must be positive" % key)
    return cfg


def _split_descriptor(desc, ell=None):
    """(name, ell) from name or name:ell=k; an explicit ell wins."""
    name, _, tail = desc.partition(":")
    if tail:
        for item in tail.split(","):
            key, _, val = item.partition("=")
            if key.strip() != "ell" or not val:
                raise ValueError("unknown descriptor option %r" % item)
            if ell is None:
                ell = int(val)
    return name, ell


def parse_group(desc, ell=None):
    """Catalog name, name:ell=k, or a generator-matrix JSON file."""
    if desc.endswith(".json") or os.path.sep in desc or os.path.exists(desc):
        with open(desc) as fh:
            return MatrixGroup.from_json(json.load(fh))
    return build_group(*_split_descriptor(desc, ell))


def _group_arg(args):
    """The first --group descriptor; a command that needs one and has none
    has invalid input."""
    if not args.group:
        raise ValueError("supply --group")
    return args.group[0]


def _read_table(path):
    """A table file, checked against the group axioms before any use."""
    with open(path) as fh:
        t = GroupTable.from_json(json.load(fh))
    t.validate()
    return t


def _load_table(args):
    if getattr(args, "table", None):
        return _read_table(args.table[0])
    if getattr(args, "group", None):
        return to_table(parse_group(args.group[0], args.ell))
    raise ValueError("supply --group or --table")


def _two_tables(args):
    sources = []
    for desc in args.group or []:
        sources.append(to_table(parse_group(desc, args.ell)))
    for path in args.table or []:
        sources.append(_read_table(path))
    if len(sources) != 2:
        raise ValueError("product needs exactly two groups or tables")
    return sources


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


# --- subcommand handlers -----------------------------------------------------


def _cmd_group_build(args, cfg):
    return 0, parse_group(_group_arg(args), args.ell).to_json()


def _cmd_group_table(args, cfg):
    return 0, _load_table(args).to_json()


def _cmd_group_chars(args, cfg):
    g = parse_group(_group_arg(args), args.ell)
    n, chars = linear_characters(g)
    return 0, {
        "order": g.order,
        "characters": [[raw_to_json(n, v) for v in c] for c in chars],
    }


def _capped(degree, cfg):
    """The degree, refused (exit 3) past the configured cap, as a table past
    `subgroup_order_cap` is."""
    if degree > cfg["degree_cap"]:
        raise DegreeCapExceeded("degree %d exceeds the cap %d" % (degree, cfg["degree_cap"]))
    return degree


def _cmd_series(args, cfg):
    kind = args.kind or "S_G"
    kind = SERIES_KIND_ALIASES.get(kind.lower(), kind)
    name, ell = _split_descriptor(_group_arg(args), args.ell)
    upto = _capped(args.upto if args.upto is not None else cfg["series_upto"], cfg)
    return 0, series(name, ell, kind, upto).to_json()


def _cmd_compress_construct(args, cfg):
    g = parse_group(_group_arg(args), args.ell)
    _capped(args.degree, cfg)
    cert = construct_self_compression(g, args.degree)
    return 0, cert.to_json()


def _cmd_compress_verify_map(args, cfg):
    data = _read_json(args.file)
    cert = CompressionCertificate.from_json(data)
    eq = verify_equivariance(cert.group, cert.phi1, cert.phi2, "linear")
    descent = verify_descent(cert)
    declared = {"gcd_degree": data["gcd_degree"],
                "descent_degree": data.get("descent_degree")}
    declared.update(("checks." + k, cert.checks.get(k)) for k in CHECK_CLAIMS)
    # a claim matches only in value and type: 1 is not the claim true
    mismatched = sorted(k for k, v in recomputed_claims(cert, eq, descent).items()
                        if type(declared[k]) is not type(v) or declared[k] != v)
    ok = (eq["pass"] and descent["nontrivial"] and descent["criteria_agree"]
          and not mismatched)
    return (0 if ok else 1), {"pass": ok, "equivariance": eq, "descent": descent,
                              "mismatched_claims": mismatched}


def _cmd_compress_verify_fueq(args, cfg):
    data = _read_json(args.file)
    num = [cyc_from_json(v) for v in data["numerator"]]
    den = [cyc_from_json(v) for v in data["denominator"]]
    if args.group:
        gens = list(parse_group(args.group[0], args.ell).generators)
    else:
        gens = [Moebius.from_json(m) for m in data["generators"]]
    rep = verify_functional_equation((num, den), gens)
    return (0 if rep["pass"] else 1), rep


def _cmd_invariant(args, cfg):
    g = parse_group(_group_arg(args), args.ell)
    _capped(args.degree, cfg)
    f = invariant_form(g, args.degree, args.method)
    if f is None:
        raise NotFound("no invariant form of degree %d" % args.degree)
    return 0, {"degree": f.degree, "form": form_to_json(f)}


def _cmd_linmap(args, cfg):
    g = parse_group(_group_arg(args), args.ell)
    _capped(args.degree, cfg)
    f = invariant_form(g, args.degree, args.method)
    if f is None:
        raise NotFound("no invariant form of degree %d" % args.degree)
    rep = linear_self_compression(g, f)
    ok = rep["equivariant"] and rep["nontrivial"]
    payload = {
        "pass": ok,
        "invariant": form_to_json(f),
        "maps": [form_to_json(m) for m in rep["maps"]],
        "degree": rep["degree"],
        "equivariant": rep["equivariant"],
        "nontrivial": rep["nontrivial"],
        "line_point": rep["line_point"],
        "line_degree": rep["line_degree"],
    }
    return (0 if ok else 1), payload


def _cmd_jordan_m(args, cfg):
    t = _load_table(args)
    m, witness = m_of_witness(t, cfg["subgroup_order_cap"])
    return 0, {"m": m, "witness_subgroup": list(witness)}


def _cmd_jordan_constants(args, cfg):
    t = _load_table(args)
    m, witness = m_of_witness(t, cfg["subgroup_order_cap"])
    big, small = jordan_constants(t, cfg["subgroup_order_cap"])
    return 0, {"m": m, "J": big, "j": small, "witness_subgroup": list(witness)}


def _cmd_jordan_product(args, cfg):
    a, b = _two_tables(args)
    rep = product_inequality_check(a, b, cfg["subgroup_order_cap"])
    ok = rep["m"]["holds"] and rep["J"]["holds"] and rep["j"]["holds"]
    return (0 if ok else 1), rep


def _cmd_jordan_prank(args, cfg):
    t = _load_table(args)
    if args.p is None:
        raise ValueError("--p is required")
    return 0, {"p": args.p, "rank": p_rank(t, args.p, cfg["subgroup_order_cap"])}


def _cmd_jordan_threshold(args, cfg):
    return 0, {
        "J": args.value,
        "threshold": nonembeddability_threshold(args.value),
    }


def _cmd_jordan_homeo(args, cfg):
    out = homeo_bound(args.n, args.b)
    return 0, {
        "d": out["d"],
        "low": frac_to_str(out["low"]),
        "high": frac_to_str(out["high"]),
    }


def _affine_json(a):
    return {
        "matrix": mat_to_json(a.linear),
        "shift": [raw_to_json(a.conductor, b) for b in a.offset],
    }


def _parse_point(text):
    """Comma-separated rationals "p/q" or "p"; an empty text is no point."""
    if not text.strip():
        raise ValueError("--point is empty")
    return [frac_from_str(part) for part in text.split(",")]


# the most terms the Taylor shift of `path factor` may expand a map into
# (`PolyMap.shift_terms`); past it the command exits 3 before the shift.
# Just under it a map in 10 variables factors in about 1 s through the CLI,
# and each extra variable of x_2^2...x_n^2 triples the time (2 vCPUs).
PATH_TERMS_CAP = 2 ** 15


def _read_path_map(args, cfg):
    """The map of the file, refused (exit 3) when its degree passes the cap."""
    sigma = PolyMap.from_json(_read_json(args.file))
    _capped(sigma.degree, cfg)
    return sigma


def _cmd_path_factor(args, cfg):
    sigma = _read_path_map(args, cfg)
    s = regular_point(sigma) if args.point is None else _parse_point(args.point)
    terms = sigma.shift_terms(s)
    if terms > PATH_TERMS_CAP:
        raise DegreeCapExceeded("the shift by the point makes %d terms, past the cap %d"
                                % (terms, PATH_TERMS_CAP))
    alpha, theta, tau = factor_through_origin(sigma, s)
    return 0, {
        "point": [frac_to_str(Fraction(v)) for v in s],
        "alpha": _affine_json(alpha),
        "theta": theta.to_json(),
        "tau": _affine_json(tau),
    }


def _cmd_path_family(args, cfg):
    return 0, path_family(_read_path_map(args, cfg)).to_json()


def _cmd_path_check(args, cfg):
    theta = _read_path_map(args, cfg)
    rep = verify_conjugation_identity(theta, max_degree=args.degree)
    return (0 if rep["pass"] else 1), rep


def _cmd_suite(args, cfg):
    report = acceptance.run_suite(cfg)
    return (0 if report["pass"] else 1), report


# --- output rendering ----------------------------------------------------------


def _render_text(payload, indent=0):
    pad = "  " * indent
    lines = []
    if isinstance(payload, dict):
        for key, val in payload.items():
            if isinstance(val, (dict, list)) and val:
                lines.append("%s%s:" % (pad, key))
                lines.extend(_render_text(val, indent + 1))
            else:
                lines.append("%s%s: %s" % (pad, key, val))
    elif isinstance(payload, list):
        for val in payload:
            if isinstance(val, (dict, list)):
                lines.extend(_render_text(val, indent + 1))
            else:
                lines.append("%s- %s" % (pad, val))
    else:
        lines.append("%s%s" % (pad, payload))
    return lines


def _render_suite_text(report):
    lines = []
    for row in report["criteria"]:
        lines.append(
            "%d  %-36s %-4s %7.2fs"
            % (row["criterion"], row["name"], row["status"], row["elapsed"])
        )
        for check in row["checks"]:
            if check["status"] != "PASS":
                lines.append(
                    "     %s: %s %s"
                    % (check["status"], check["label"], check["detail"])
                )
    lines.append("overall: %s" % ("PASS" if report["pass"] else "FAIL"))
    return lines


def _emit(payload, args, cfg, suite=False):
    if cfg["output"] == "text":
        text = "\n".join(
            _render_suite_text(payload) if suite else _render_text(payload)
        )
    else:
        text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


# --- argument parsing ----------------------------------------------------------


def _common_options(default, group_dest):
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=default)
    common.add_argument("--format", choices=("json", "text"), default=default)
    common.add_argument("--out", default=default)
    common.add_argument("--group", action="append", default=default,
                        dest=group_dest, metavar="GROUP")
    common.add_argument("--ell", type=int, default=default)
    return common


@lru_cache(maxsize=None)
def _build_parser():
    """The command-line parser, built once per process: `parse_args` keeps
    no state between calls, and building it costs more than verifying a
    small certificate."""
    # the options every command takes, before or after the subcommand: the
    # top level gives them their defaults, and a subcommand sets one only
    # when it is given there, so it does not reset what came before it. A
    # subcommand's namespace replaces a list the level above collected, so
    # each level appends --group to a list of its own (_parse joins them).
    top = argparse.ArgumentParser(prog="equimap",
                                  parents=[_common_options(None, "group_top")])
    middle = _common_options(argparse.SUPPRESS, "group_middle")
    common = _common_options(argparse.SUPPRESS, "group")
    sub = top.add_subparsers(dest="command", required=True)

    grp = sub.add_parser("group", parents=[middle])
    gsub = grp.add_subparsers(dest="subcommand", required=True)
    gsub.add_parser("build", parents=[common])
    gt = gsub.add_parser("table", parents=[common])
    gt.add_argument("--table", action="append", default=None)
    gsub.add_parser("chars", parents=[common])

    ser = sub.add_parser("series", parents=[common])
    ser.add_argument("--kind", default="S_G")
    ser.add_argument("--upto", type=int, default=None)

    comp = sub.add_parser("compress", parents=[middle])
    csub = comp.add_subparsers(dest="subcommand", required=True)
    cc = csub.add_parser("construct", parents=[common])
    cc.add_argument("--degree", type=int, required=True)
    cvm = csub.add_parser("verify-map", parents=[common])
    cvm.add_argument("file")
    cvf = csub.add_parser("verify-fueq", parents=[common])
    cvf.add_argument("file")

    inv = sub.add_parser("invariant", parents=[common])
    inv.add_argument("--degree", type=int, required=True)
    inv.add_argument("--method", choices=("auto", "reynolds", "orbit"),
                     default="auto")

    lin = sub.add_parser("linmap", parents=[common])
    lin.add_argument("--degree", type=int, required=True)
    lin.add_argument("--method", choices=("auto", "reynolds", "orbit"),
                     default="auto")

    jor = sub.add_parser("jordan", parents=[middle])
    jsub = jor.add_subparsers(dest="subcommand", required=True)
    for name in ("m", "constants", "product", "prank"):
        p = jsub.add_parser(name, parents=[common])
        p.add_argument("--table", action="append", default=None)
        if name == "prank":
            p.add_argument("--p", type=int, default=None)
    jt = jsub.add_parser("threshold", parents=[common])
    jt.add_argument("value", type=int)
    jh = jsub.add_parser("homeo-bound", parents=[common])
    jh.add_argument("n", type=int)
    jh.add_argument("b", type=int)

    pat = sub.add_parser("path", parents=[middle])
    psub = pat.add_subparsers(dest="subcommand", required=True)
    pf = psub.add_parser("factor", parents=[common])
    pf.add_argument("file")
    pf.add_argument("--point", default=None)
    pfa = psub.add_parser("family", parents=[common])
    pfa.add_argument("file")
    pc = psub.add_parser("check", parents=[common])
    pc.add_argument("file")
    pc.add_argument("--degree", type=int, default=None)

    sub.add_parser("suite", parents=[common])
    return top


_HANDLERS = {
    ("group", "build"): _cmd_group_build,
    ("group", "table"): _cmd_group_table,
    ("group", "chars"): _cmd_group_chars,
    ("series", None): _cmd_series,
    ("compress", "construct"): _cmd_compress_construct,
    ("compress", "verify-map"): _cmd_compress_verify_map,
    ("compress", "verify-fueq"): _cmd_compress_verify_fueq,
    ("invariant", None): _cmd_invariant,
    ("linmap", None): _cmd_linmap,
    ("jordan", "m"): _cmd_jordan_m,
    ("jordan", "constants"): _cmd_jordan_constants,
    ("jordan", "product"): _cmd_jordan_product,
    ("jordan", "prank"): _cmd_jordan_prank,
    ("jordan", "threshold"): _cmd_jordan_threshold,
    ("jordan", "homeo-bound"): _cmd_jordan_homeo,
    ("path", "factor"): _cmd_path_factor,
    ("path", "family"): _cmd_path_family,
    ("path", "check"): _cmd_path_check,
    ("suite", None): _cmd_suite,
}


def _error(msg, code):
    sys.stderr.write(json.dumps({"error": str(msg)}) + "\n")
    return code


def _parse(argv):
    """The parsed arguments, with the --group values of every level in
    command-line order as `group` (None when there are none)."""
    args = _build_parser().parse_args(argv)
    args.group = [*(args.group_top or []), *getattr(args, "group_middle", []),
                  *getattr(args, "group", [])] or None
    return args


def main(argv=None):
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = load_config(args.config, args.format)
    except (OSError, ValueError) as exc:
        return _error(exc, 2)
    key = (args.command, getattr(args, "subcommand", None))
    handler = _HANDLERS.get(key)
    if handler is None:
        return _error("unknown command %r" % (key,), 2)
    try:
        code, payload = handler(args, cfg)
    except (CheckFailed, ConditionsFail) as exc:
        return _error(exc, 1)
    except Infeasible as exc:
        return _error(exc, 3)
    except (OSError, KeyError, TypeError, ValueError,
            json.JSONDecodeError) as exc:
        return _error(exc, 2)
    _emit(payload, args, cfg, suite=(args.command == "suite"))
    return code


if __name__ == "__main__":
    sys.exit(main())
