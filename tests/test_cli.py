import contextlib
import copy
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from equimap.acceptance import DEFAULT_CONFIG
from equimap.cli import PATH_TERMS_CAP, load_config, main, parse_group
from equimap.connect import PolyMap
from equimap.groups import abelian_table, build_group, tn_group
from test_compress import tetrahedral_rotations
from test_groups import sheared

# custom groups for the pinned `invariant` outputs, as generator files
GROUP_FILES = {
    "sheared-bd3.json": lambda: sheared(build_group("binary-dihedral", 3)),
    "tetrahedral-rotations.json": tetrahedral_rotations,
    "t4-333.json": lambda: tn_group(4, (3, 3, 3)),
}

CERTS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "certs")
# sha256 over "<file> <exit code>\n<stdout>" of `compress verify-map` on every
# committed certificate, in MANIFEST order
VERIFY_MAP_DIGEST = "342ddcaa5d42ecaef96014c672063d37af49bc01e917653c4ac6d21fe33597a8"
SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def cyc1(v):
    return {"conductor": 1, "coeffs": [str(v)]}


def polymap_json(n, comps):
    return {
        "n": n,
        "components": [
            {"monomials": [{"exps": list(e), "coeff": c if isinstance(c, dict)
                            else cyc1(c)} for e, c in comp]}
            for comp in comps
        ],
    }


def write_polymap(path, n, comps):
    path.write_text(json.dumps(polymap_json(n, comps)))
    return str(path)


REPLACEMENTS = {
    "null": st.none(),
    "list": st.sampled_from([[], [0], [None], [[]]]),
    "string": st.sampled_from(["", "x", "0", "-1", "1/0", "1/2"]),
    "negative": st.integers(-3, -1),
}
FUZZ_FILES = ["c2-d3-honest.json", "c2-d3-tampered.json", "bd2-d3-honest.json",
              "bd3-d5-forged.json", "2t-d5-honest.json", "2t-d5-tampered.json"]


def _node_paths(node, path=()):
    """Every key path into a JSON value, the value itself first."""
    yield path
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for k, v in items:
        yield from _node_paths(v, path + (k,))


def _mutate(draw, doc):
    """One to three structural edits of a JSON document: a key deleted; a
    value set to null, a list, a string or a negative int; a list truncated.
    Nothing grows, so no edit can ask for more work."""
    box = {"doc": doc}
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_node_paths(box["doc"], ("doc",)))))
        parent = box
        for k in path[:-1]:
            parent = parent[k]
        key, node = path[-1], parent[path[-1]]
        edits = ["null", "list", "string", "negative"]
        if isinstance(parent, dict) and parent is not box:
            edits.append("delete")
        if isinstance(node, list) and node:
            edits.append("truncate")
        edit = draw(st.sampled_from(edits))
        if edit == "delete":
            del parent[key]
        elif edit == "truncate":
            parent[key] = node[:draw(st.integers(0, len(node) - 1))]
        else:
            parent[key] = copy.deepcopy(draw(REPLACEMENTS[edit]))
    return box["doc"]


@st.composite
def mutated_certificates(draw):
    """A small committed certificate with one to three structural edits."""
    name = draw(st.sampled_from(FUZZ_FILES))
    with open(os.path.join(CERTS, name)) as fh:
        return _mutate(draw, json.load(fh))


FUZZ_MAPS = [
    polymap_json(2, [[((1, 0), 1), ((0, 2), 1)], [((0, 1), 1), ((3, 0), 1)]]),
    polymap_json(2, [[((0, 0), 1), ((1, 0), 2), ((2, 0), 1)],
                     [((0, 1), 1), ((1, 1), -1)]]),
    polymap_json(1, [[((1,), 1), ((2,), {"conductor": 4, "coeffs": ["0", "1/2"]})]]),
    polymap_json(3, [[((1, 0, 0), 1)], [((0, 1, 0), 1), ((2, 0, 0), 3)],
                     [((0, 0, 1), 1), ((0, 1, 1), -1)]]),
]


@st.composite
def mutated_polymaps(draw):
    """A small path map with one to three structural edits."""
    return _mutate(draw, copy.deepcopy(draw(st.sampled_from(FUZZ_MAPS))))


def moebius_json(a, b, c, e):
    return {k: v if isinstance(v, dict) else cyc1(v)
            for k, v in zip("abce", (a, b, c, e))}


I4 = {"conductor": 4, "coeffs": ["0", "1"]}
# f(z) = num/den with generators z -> m(z); the first three satisfy the
# functional equation, the last does not
FUZZ_FUEQ = [
    {"numerator": [cyc1(v) for v in (0, 0, 0, 1)], "denominator": [cyc1(1)],
     "generators": [moebius_json(-1, 0, 0, 1)]},
    {"numerator": [cyc1(v) for v in (0, 0, 1)], "denominator": [cyc1(1)],
     "generators": [moebius_json(0, 1, 1, 0)]},
    {"numerator": [cyc1(v) for v in (0, 0, 0, 0, 0, 1)],
     "denominator": [cyc1(1), cyc1(0)],
     "generators": [moebius_json(I4, 0, 0, 1)]},
    {"numerator": [cyc1(1), cyc1(1)], "denominator": [cyc1(1)],
     "generators": [moebius_json(-1, 0, 0, 1)]},
]


@st.composite
def mutated_fueq(draw):
    """A small functional-equation file with one to three structural edits."""
    return _mutate(draw, copy.deepcopy(draw(st.sampled_from(FUZZ_FUEQ))))


FUZZ_TABLES = [
    {"order": 4, "mul": [[(i + j) % 4 for j in range(4)] for i in range(4)],
     "names": ["0", "1", "2", "3"]},
    {"order": 6, "mul": [[0, 1, 2, 3, 4, 5], [1, 0, 3, 2, 5, 4],
                         [2, 4, 0, 5, 1, 3], [3, 5, 1, 4, 0, 2],
                         [4, 2, 5, 0, 3, 1], [5, 3, 4, 1, 2, 0]],
     "names": ["012", "021", "102", "120", "201", "210"]},
]


@st.composite
def mutated_tables(draw):
    """A small table file with one to three structural edits."""
    return _mutate(draw, copy.deepcopy(draw(st.sampled_from(FUZZ_TABLES))))


class TestConfig:
    def test_defaults(self):
        cfg = load_config()
        assert cfg["series_upto"] == 64
        assert "alpha_norm_bound" not in cfg
        assert cfg["subgroup_order_cap"] == 256
        assert cfg["output"] == "json"

    def test_file_and_override(self, tmp_path):
        p = tmp_path / "cfg"
        p.write_text("series_upto = 12\noutput=text\n# note\n")
        cfg = load_config(str(p))
        assert cfg["series_upto"] == 12 and cfg["output"] == "text"
        assert load_config(str(p), fmt="json")["output"] == "json"

    def test_malformed(self, tmp_path):
        p = tmp_path / "cfg"
        p.write_text("gibberish\n")
        with pytest.raises(ValueError):
            load_config(str(p))

    def test_unknown_key(self, tmp_path):
        p = tmp_path / "cfg"
        p.write_text("no_such_option=3\n")
        with pytest.raises(ValueError):
            load_config(str(p))

    def test_nonpositive(self, tmp_path):
        p = tmp_path / "cfg"
        p.write_text("series_upto=0\n")
        with pytest.raises(ValueError):
            load_config(str(p))


class TestGroupDescriptors:
    def test_name_with_ell(self):
        g = parse_group("binary-dihedral:ell=3")
        assert g.kind == "binary-dihedral" and g.ell == 3

    def test_flag_wins_over_descriptor(self):
        assert parse_group("cyclic:ell=5", ell=3).ell == 3

    def test_json_file(self, tmp_path):
        code, out, _ = run("group", "build", "--group", "dihedral:ell=2")
        p = tmp_path / "g.json"
        p.write_text(out)
        g = parse_group(str(p))
        assert g.order == 8

    def test_unknown_option(self):
        with pytest.raises(ValueError):
            parse_group("cyclic:bad=1")


class TestGroupCommands:
    def test_build(self):
        code, out, _ = run("group", "build", "--group", "tetrahedral")
        assert code == 0
        assert json.loads(out)["kind"] == "binary-tetrahedral"

    def test_table(self):
        code, out, _ = run("group", "table", "--group", "dihedral", "--ell", "3")
        assert code == 0
        assert json.loads(out)["order"] == 12

    def test_chars(self):
        code, out, _ = run("group", "chars", "--group", "dihedral:ell=2")
        assert code == 0
        assert len(json.loads(out)["characters"]) == 4

    def test_unknown_group(self):
        code, _, err = run("group", "build", "--group", "dodecahedral")
        assert code == 2 and "error" in json.loads(err)

    @pytest.mark.parametrize("argv", [["--group", "2I:ell=3"],
                                      ["--group", "tetrahedral", "--ell", "2"]])
    def test_polyhedral_ell_is_invalid_input(self, argv):
        code, out, err = run("group", "table", *argv)
        assert code == 2 and out == ""
        assert "takes no ell" in json.loads(err)["error"]

    @staticmethod
    def custom_group(tmp_path, rows):
        """A custom group file with one generator over conductor 4."""
        gen = [[{"conductor": 4, "coeffs": [str(x), "0"]} for x in r] for r in rows]
        p = tmp_path / "custom.json"
        p.write_text(json.dumps({"kind": "custom", "generators": [gen]}))
        return str(p)

    @pytest.mark.parametrize("argv", ["group build", "invariant --degree 4"])
    def test_singular_generator_is_invalid_input(self, tmp_path, argv):
        # [[1,0],[0,0]] closes to {I, P}, which is not a group
        f = self.custom_group(tmp_path, [[1, 0], [0, 0]])
        code, out, err = run(*argv.split(), "--group", f)
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": "generators must be invertible"}

    def test_infinite_group_is_invalid_input(self, tmp_path):
        f = self.custom_group(tmp_path, [[1, 1], [0, 1]])
        code, out, err = run("group", "build", "--group", f)
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": "closure exceeded 10000 elements"}


class TestSeriesCommand:
    def test_tetrahedral_s5(self):
        code, out, _ = run("series", "--group", "tetrahedral",
                           "--kind", "S", "--upto", "12")
        assert code == 0
        assert json.loads(out)["coeffs"][5] == 1

    def test_kind_aliases(self):
        for kind in ("S", "S_G", "s_g"):
            code, out, _ = run("series", "--group", "cyclic:ell=2",
                               "--kind", kind, "--upto", "6")
            assert code == 0 and json.loads(out)["coeffs"][3] == 1

    def test_upto_from_config(self, tmp_path):
        p = tmp_path / "cfg"
        p.write_text("series_upto=6\n")
        code, out, _ = run("series", "--group", "cyclic:ell=2",
                           "--config", str(p))
        assert code == 0 and len(json.loads(out)["coeffs"]) == 7

    def test_bad_kind(self):
        code, _, err = run("series", "--group", "tetrahedral",
                           "--kind", "P_theta")
        assert code == 2


class TestDegreeCap:
    """A degree past `degree_cap` is refused before any work: exit 3, a JSON
    error on stderr and nothing on stdout, as a table past
    `subgroup_order_cap` is."""

    CAP = DEFAULT_CONFIG["degree_cap"]

    @pytest.mark.parametrize("argv", [
        "invariant --group tetrahedral --degree 100000000000",
        "linmap --group tetrahedral --degree 100000000000",
        "compress construct --group tetrahedral --degree 100000001",
        "series --group tetrahedral --upto 1000000000",
        f"invariant --group icosahedral --degree {CAP + 1}",
        f"linmap --group icosahedral --degree {CAP + 1}",
        f"compress construct --group tetrahedral --degree {CAP + 1}",
        f"series --group tetrahedral --upto {CAP + 1}",
    ])
    def test_past_the_cap_exits_3(self, argv):
        t0 = time.perf_counter()
        code, out, err = run(*argv.split())
        assert time.perf_counter() - t0 < 1.0
        assert code == 3 and out == ""
        assert "exceeds the cap %d" % self.CAP in json.loads(err)["error"]

    def test_no_traceback_in_a_process(self):
        proc = subprocess.run([sys.executable, "-m", "equimap", "series", "--group",
                               "tetrahedral", "--upto", "1000000000"],
                              capture_output=True, text=True, timeout=60,
                              env=dict(os.environ, PYTHONPATH=SRC))
        assert proc.returncode == 3 and proc.stdout == ""
        assert "Traceback" not in proc.stderr and "error" in json.loads(proc.stderr)

    def test_cap_from_config(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("degree_cap = 12\n")
        code, _, err = run("invariant", "--group", "tetrahedral", "--degree", "13",
                           "--config", p)
        assert code == 3 and "exceeds the cap 12" in json.loads(err)["error"]
        code, out, _ = run("invariant", "--group", "tetrahedral", "--degree", "12",
                           "--config", p)
        assert code == 0 and json.loads(out)["degree"] == 12
        code, out, _ = run("series", "--group", "tetrahedral", "--config", p)
        assert code == 3 and out == ""  # the configured series_upto, 64, is past 12

    def test_cap_admits_the_battery(self):
        assert DEFAULT_CONFIG["series_upto"] <= self.CAP and 120 <= self.CAP


class TestCompressCommands:
    def test_icosahedral_11(self):
        code, out, _ = run("compress", "construct",
                           "--group", "binary-icosahedral", "--degree", "11")
        assert code == 0
        assert json.loads(out)["descent_degree"] == 11

    def test_infeasible_degree(self):
        code, _, err = run("compress", "construct",
                           "--group", "tetrahedral", "--degree", "6")
        assert code == 3 and "error" in json.loads(err)

    def test_byte_identical_reruns(self):
        for argv in ("compress construct --group binary-dihedral:ell=3 --degree 5",
                     "linmap --group icosahedral --degree 120"):
            a = run(*argv.split())
            b = run(*argv.split())
            assert a == b and a[0] == 0

    def test_degree_with_s_d_zero_is_certified(self, tmp_path):
        # s_5 = 0 for Q8, yet not every equivariant map of degree 5 has
        # trivial descent: construct gives a certificate that verifies
        _, out, _ = run("series", "--group", "dihedral:ell=2", "--upto", "5")
        assert json.loads(out)["coeffs"][5] == 0
        code, out, _ = run("compress", "construct", "--group", "dihedral:ell=2",
                           "--degree", "5")
        assert code == 0
        p = tmp_path / "q8-d5.json"
        p.write_text(out)
        code, out, _ = run("compress", "verify-map", str(p))
        assert code == 0 and json.loads(out)["pass"] is True

    def test_infeasible_degree_names_the_group_asked_for(self):
        # a cyclic group takes its certificates from its binary dihedral
        # cover, but the refusal names the cyclic group
        code, out, err = run("compress", "construct", "--group", "cyclic:ell=3",
                             "--degree", "2")
        assert code == 3 and out == ""
        assert json.loads(err) == {"error": "no degree-2 self-compression for cyclic:ell=3: "
                                            "mult 0 <= max of dim A(gamma)_1 = [0, 0]"}

    def test_verify_map_rejects_ell_on_polyhedral_kind(self, tmp_path):
        src = os.path.join(CERTS, "2i-d11-honest.json")
        assert run("compress", "verify-map", src)[0] == 0
        with open(src) as fh:
            cert = json.load(fh)
        assert cert["group"]["ell"] is None
        cert["group"]["ell"] = 3
        p = tmp_path / "ell.json"
        p.write_text(json.dumps(cert))
        code, out, err = run("compress", "verify-map", str(p))
        assert code == 2 and out == ""
        assert "takes no ell" in json.loads(err)["error"]

    def test_verify_map_roundtrip(self, tmp_path):
        code, out, _ = run("compress", "construct", "--group",
                           "dihedral:ell=2", "--degree", "3")
        assert code == 0
        p = tmp_path / "cert.json"
        p.write_text(out)
        code, out2, _ = run("compress", "verify-map", str(p))
        assert code == 0 and json.loads(out2)["pass"]

    def test_verify_map_detects_tampering(self, tmp_path):
        _, out, _ = run("compress", "construct", "--group",
                        "dihedral:ell=2", "--degree", "3")
        cert = json.loads(out)
        cert["phi"][0]["coeffs"][0]["coeffs"][0] = "7"
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(cert))
        code, out2, _ = run("compress", "verify-map", str(p))
        assert code == 1 and not json.loads(out2)["pass"]

    def test_verify_map_rejects_forged_generators(self, tmp_path):
        _, out, _ = run("compress", "construct", "--group",
                        "dihedral:ell=2", "--degree", "3")
        cert = json.loads(out)
        for gen in cert["group"]["generators"]:
            for i, row in enumerate(gen):
                for j, entry in enumerate(row):
                    entry["coeffs"] = ["1" if i == j and k == 0 else "0"
                                       for k in range(len(entry["coeffs"]))]
        p = tmp_path / "forged.json"
        p.write_text(json.dumps(cert))
        code, _, err = run("compress", "verify-map", str(p))
        assert code == 2 and "generators" in json.loads(err)["error"]

    @pytest.mark.parametrize("kind", [None, 5, ["x"]], ids=["null", "int", "list"])
    def test_verify_map_non_string_kind_is_invalid_input(self, tmp_path, kind):
        # a kind that is not a string names no group; the generators alone
        # would make a custom group the file does not declare
        with open(os.path.join(CERTS, "2t-d5-honest.json")) as fh:
            cert = json.load(fh)
        cert["group"]["kind"] = kind
        p = tmp_path / "kind.json"
        p.write_text(json.dumps(cert))
        code, _, err = run("compress", "verify-map", str(p))
        assert code == 2 and "kind" in json.loads(err)["error"]

    @pytest.mark.parametrize("mutate", [
        lambda c: c.update(phi=[]),
        lambda c: c["group"]["generators"].__setitem__(0, []),
        lambda c: c.update(group={"kind": "custom", "generators": []}),
        lambda c: c.update(group={"kind": "custom",
                                  "generators": [[[cyc1(1)]]]}),
        lambda c: c["phi"][0]["coeffs"][0]["coeffs"].__setitem__(0, "1/0"),
        lambda c: c["phi"][0]["coeffs"].__setitem__(
            0, {"conductor": -3, "coeffs": ["1"]}),
        lambda c: c.update(d=0),
        lambda c: c.update(group={"kind": "custom", "generators": [
            [[cyc1(2), cyc1(0)], [cyc1(0), cyc1(1)]]]}),
        lambda c: c["phi"][0]["coeffs"][0]["coeffs"].__setitem__(0, 1),
        lambda c: c.update(group=None),
        lambda c: c.update(d=7),
        lambda c: c["group"].update(conductor=3),
        lambda c: c["phi"][1].update(nvars=-1),
    ], ids=["no-forms", "empty-generator", "no-generators", "1x1-generator",
            "zero-denominator", "negative-conductor", "degree-0",
            "infinite-group", "unquoted-coefficient", "null-group",
            "degree-not-the-forms", "conductor-not-the-groups", "negative-nvars"])
    def test_verify_map_malformed_is_invalid_input(self, tmp_path, mutate):
        _, out, _ = run("compress", "construct", "--group",
                        "dihedral:ell=2", "--degree", "3")
        cert = json.loads(out)
        mutate(cert)
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(cert))
        code, _, err = run("compress", "verify-map", str(p))
        assert code == 2 and "error" in json.loads(err)

    @pytest.mark.parametrize("rows", [
        [[0, 1], [1, 0]], [[-1, 0], [0, 1]], [["i", 0], [0, 1]]],
        ids=["swap", "diag(-1,1)", "diag(i,1)"])
    def test_verify_map_group_outside_sl2_is_invalid_input(self, tmp_path, rows):
        # the h_d recurrence behind the descent check holds only for det 1
        with open(os.path.join(CERTS, "bd2-d3-honest.json")) as fh:
            cert = json.load(fh)

        def entry(x):  # over conductor 4, whose basis is 1, i
            return {"conductor": 4, "coeffs": ["0", "1"] if x == "i" else [str(x), "0"]}

        cert["group"] = {"kind": "custom",
                         "generators": [[[entry(x) for x in r] for r in rows]]}
        p = tmp_path / "outside.json"
        p.write_text(json.dumps(cert))
        code, out, err = run("compress", "verify-map", str(p))
        assert code == 2 and out == "" and "Traceback" not in err
        assert "det 1" in json.loads(err)["error"]

    @settings(derandomize=True, max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(mutated_certificates())
    def test_verify_map_fuzzed_keeps_exit_contract(self, tmp_path, cert):
        p = tmp_path / "fuzz.json"
        p.write_text(json.dumps(cert))
        code, _, err = run("compress", "verify-map", str(p))
        assert code in (0, 1, 2, 3) and "Traceback" not in err
        if code == 2:
            assert "error" in json.loads(err)

    @pytest.mark.parametrize("group", [
        {"kind": "cyclic", "ell": 1000000},
        {"kind": "binary-dihedral", "ell": 1000000},
        {"kind": "cyclic", "ell": 4999},  # just under the closure cap
        {"kind": "binary-dihedral", "ell": 2499},
        {"kind": "custom", "generators": [[[{"conductor": 1000000,
                                              "coeffs": ["1"]}]]]},
    ], ids=["cyclic-1e6", "dihedral-1e6", "cyclic-4999", "dihedral-2499",
            "custom-1e6"])
    def test_verify_map_huge_ell_is_rejected_at_once(self, tmp_path, group):
        # the field of the conductor costs seconds to build at 10**4 and does
        # not end at 10**6, so the conductor is bounded before it is built
        _, out, _ = run("compress", "construct", "--group",
                        "dihedral:ell=2", "--degree", "3")
        cert = json.loads(out)
        cert["group"] = group
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(cert))
        start = time.perf_counter()
        code, _, err = run("compress", "verify-map", str(p))
        assert time.perf_counter() - start < 5
        assert code == 2 and "error" in json.loads(err)

    @pytest.mark.parametrize("field,value", [
        ("gcd_degree", 1),
        ("descent_degree", 99),
        ("descent_degree", None),
        ("checks.equivariant", False),
        ("checks.descent_nontrivial", False),
        ("checks.jacobian_nonzero", False),
        ("checks.jacobian_nonzero", 1),
        ("checks.equivariant", None),
    ], ids=["gcd-degree", "descent-degree", "no-descent-degree", "equivariant",
            "descent-nontrivial", "jacobian-nonzero", "jacobian-as-int",
            "no-equivariant"])
    def test_verify_map_checks_each_claim(self, tmp_path, field, value):
        # each field an honest file declares is compared with its recomputed
        # value; a false claim is a false verdict that names the field
        with open(os.path.join(CERTS, "2i-d11-honest.json")) as fh:
            cert = json.load(fh)
        where, _, key = field.rpartition(".")
        node = cert[where] if where else cert
        if value is None:
            del node[key]
        else:
            node[key] = value
        p = tmp_path / "claim.json"
        p.write_text(json.dumps(cert))
        code, out, _ = run("compress", "verify-map", str(p))
        report = json.loads(out)
        assert code == 1 and report["pass"] is False
        assert report["mismatched_claims"] == [field]

    @pytest.mark.parametrize("edit", [
        lambda c: c.update(alpha=[1.7]),
        lambda c: c.update(alpha=["1"]),
        lambda c: c.update(alpha=[True]),
        lambda c: c.update(gcd_degree="0"),
        lambda c: c.update(gcd_degree=True),
        lambda c: c.update(gcd_degree=0.0),
        lambda c: c.update(descent_degree="11"),
        lambda c: c.update(descent_degree=[11]),
        lambda c: c["checks"].update(minimal_degree=True),
        lambda c: c.update(note="x"),
        lambda c: c["group"].update(order=7),
    ], ids=["alpha-float", "alpha-string", "alpha-bool", "gcd-string", "gcd-bool",
            "gcd-float", "descent-string", "descent-list", "unknown-claim",
            "unknown-top-level-key", "unknown-group-key"])
    def test_verify_map_schema_is_closed(self, tmp_path, edit):
        # alpha entries and the two degrees are checked by type, not
        # coerced, and a key that nothing would check is refused
        with open(os.path.join(CERTS, "2i-d11-honest.json")) as fh:
            cert = json.load(fh)
        edit(cert)
        p = tmp_path / "schema.json"
        p.write_text(json.dumps(cert))
        code, out, err = run("compress", "verify-map", str(p))
        assert code == 2 and out == "" and "Traceback" not in err
        assert "error" in json.loads(err)

    @pytest.mark.parametrize("alpha", [[], [7, 7]], ids=["empty", "two-entries"])
    def test_verify_map_refuses_alpha_of_the_wrong_length(self, tmp_path, alpha):
        # 2I has one equivariant map of degree 11, so alpha has one entry
        with open(os.path.join(CERTS, "2i-d11-honest.json")) as fh:
            cert = json.load(fh)
        assert len(cert["alpha"]) == 1
        cert["alpha"] = alpha
        p = tmp_path / "alpha.json"
        p.write_text(json.dumps(cert))
        code, out, err = run("compress", "verify-map", str(p))
        assert code == 2 and out == "" and "Traceback" not in err
        assert json.loads(err)["error"] == (
            "alpha has %d entries for 1 equivariant maps" % len(alpha))

    def test_verify_map_cyclic_alpha_counts_the_dihedral_maps(self, tmp_path):
        # C(4) takes the certificate of BD(4): alpha has one entry per map of
        # the cover (6 at degree 23), not per map of C(4) itself (12)
        with open(os.path.join(CERTS, "c4-d23-honest.json")) as fh:
            cert = json.load(fh)
        assert len(cert["alpha"]) == 6
        cert["alpha"] += [0] * 6
        p = tmp_path / "cyclic.json"
        p.write_text(json.dumps(cert))
        code, _, err = run("compress", "verify-map", str(p))
        assert code == 2
        assert json.loads(err)["error"] == "alpha has 12 entries for 6 equivariant maps"

    @pytest.mark.parametrize("name,code,sha256", [
        ("2i-d11-tampered.json", 1,
         "7e8e441169e9408d00fece1675660bb657a027ba7758d8a1b8099f72059889d1"),
        ("2o-d15-tampered.json", 1,
         "37b26902ac094bc18c1ea2568aec83d11303527e96c0dd015d5fcc5ac0afd404"),
        ("bd2-d11-tampered.json", 1,
         "88917be33bee25b090d5a900bebe0c9ad23543306795f520f0780150e4796e61"),
        ("2i-d11-honest.json", 0,
         "86cf1550c6361d52bdb8cddbd26d61b1ff220a495cdbde05cd43004e0dfe59b4"),
    ])
    def test_verify_map_pinned_outputs(self, name, code, sha256):
        # the stdout of the element-by-element walk and the direct Jacobian,
        # which the generator proof and the rank claim must reproduce
        got, out, _ = run("compress", "verify-map", os.path.join(CERTS, name))
        assert got == code
        assert hashlib.sha256(out.encode()).hexdigest() == sha256

    def test_verify_map_pinned_on_every_certificate(self):
        # every committed certificate, in MANIFEST order: its name, exit
        # code and stdout under one digest (the directory is only read)
        with open(os.path.join(CERTS, "MANIFEST.json")) as fh:
            files = [e["file"] for e in json.load(fh)["files"]]
        assert len(files) == 98
        h = hashlib.sha256()
        for name in files:
            code, out, _ = run("compress", "verify-map", os.path.join(CERTS, name))
            h.update(f"{name} {code}\n{out}".encode())
        assert h.hexdigest() == VERIFY_MAP_DIGEST

    def test_verify_map_honest_claims_match(self):
        code, out, _ = run("compress", "verify-map",
                           os.path.join(CERTS, "c4-d23-honest.json"))
        assert code == 0 and json.loads(out)["mismatched_claims"] == []

    def test_honest_certificates_rebuild_byte_identical(self):
        # the committed honest files are `compress construct` output; each
        # rebuilds to the same bytes (the directory is only read)
        with open(os.path.join(CERTS, "MANIFEST.json")) as fh:
            manifest = json.load(fh)
        honest = [e for e in manifest["files"] if e["variant"] == "honest"]
        assert len(honest) == 47
        for e in honest:
            argv = ["compress", "construct", "--group", e["group"],
                    "--degree", e["degree"]]
            if e["ell"] is not None:
                argv += ["--ell", e["ell"]]
            code, out, _ = run(*argv)
            with open(os.path.join(CERTS, e["file"])) as fh:
                assert code == 0 and out == fh.read(), e["file"]

    def test_verify_fueq(self, tmp_path):
        pz = [0, -11, 0, 0, 0, 0, 66, 0, 0, 0, 0, 1]
        qz = [1, 0, 0, 0, 0, -66, 0, 0, 0, 0, -11]
        p = tmp_path / "f.json"
        p.write_text(json.dumps({
            "numerator": [cyc1(v) for v in pz],
            "denominator": [cyc1(v) for v in qz],
            "generators": [],
        }))
        code, out, _ = run("compress", "verify-fueq", str(p),
                           "--group", "icosahedral")
        assert code == 0
        assert json.loads(out)["degree"] == 11

    def test_verify_fueq_failure(self, tmp_path):
        p = tmp_path / "f.json"
        # z + 1 does not commute with z -> -z
        p.write_text(json.dumps({
            "numerator": [cyc1(1), cyc1(1)],
            "denominator": [cyc1(1)],
            "generators": [{"a": cyc1(-1), "b": cyc1(0),
                            "c": cyc1(0), "e": cyc1(1)}],
        }))
        code, out, _ = run("compress", "verify-fueq", str(p))
        assert code == 1 and not json.loads(out)["pass"]

    def test_verify_fueq_files(self, tmp_path):
        p = tmp_path / "f.json"
        for doc, want in zip(FUZZ_FUEQ, (0, 0, 0, 1)):
            p.write_text(json.dumps(doc))
            code, out, _ = run("compress", "verify-fueq", str(p))
            assert code == want and json.loads(out)["pass"] == (want == 0)

    def test_verify_fueq_empty_numerator_is_invalid_input(self, tmp_path):
        doc = copy.deepcopy(FUZZ_FUEQ[0])
        doc["numerator"] = []
        p = tmp_path / "f.json"
        p.write_text(json.dumps(doc))
        code, out, err = run("compress", "verify-fueq", str(p))
        assert code == 2 and out == "" and "error" in json.loads(err)

    @settings(derandomize=True, max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(mutated_fueq())
    def test_verify_fueq_fuzzed_keeps_exit_contract(self, tmp_path, doc):
        p = tmp_path / "fuzz.json"
        p.write_text(json.dumps(doc))
        code, _, err = run("compress", "verify-fueq", str(p))
        assert code in (0, 1, 2, 3) and "Traceback" not in err
        if code == 2:
            assert "error" in json.loads(err)


class TestInvariantCommands:
    def test_gap_is_infeasible(self):
        code, _, err = run("invariant", "--group", "dihedral:ell=2",
                           "--degree", "3")
        assert code == 3

    def test_found(self):
        code, out, _ = run("invariant", "--group", "dihedral:ell=2",
                           "--degree", "4")
        assert code == 0 and json.loads(out)["degree"] == 4

    def test_orbit_method(self):
        code, out, _ = run("invariant", "--group", "cyclic:ell=3",
                           "--degree", "6", "--method", "orbit")
        assert code == 0 and json.loads(out)["degree"] == 6

    def test_linmap(self):
        code, out, _ = run("linmap", "--group", "dihedral:ell=2",
                           "--degree", "4")
        d = json.loads(out)
        assert code == 0 and d["line_degree"] == 5 and d["pass"]


class TestJordanCommands:
    def test_m(self):
        code, out, _ = run("jordan", "m", "--group", "dihedral:ell=2")
        d = json.loads(out)
        assert code == 0 and d["m"] == 2 and len(d["witness_subgroup"]) == 4

    def test_constants_report_shape(self):
        code, out, _ = run("jordan", "constants", "--group", "dihedral:ell=2")
        d = json.loads(out)
        assert code == 0
        assert sorted(d) == ["J", "j", "m", "witness_subgroup"]
        assert (d["m"], d["J"], d["j"]) == (2, 2, 2)

    def test_constants_binary_icosahedral(self):
        # SL(2, 5): the center is the best normal abelian subgroup (m = J =
        # 60), and Z/10 the largest abelian subgroup (j = 12)
        code, out, _ = run("jordan", "constants", "--group", "icosahedral")
        d = json.loads(out)
        assert code == 0 and (d["m"], d["J"], d["j"]) == (60, 60, 12)

    def test_product(self):
        code, out, _ = run("jordan", "product", "--group", "cyclic:ell=2",
                           "--group", "dihedral:ell=2")
        d = json.loads(out)
        assert code == 0 and d["m"]["product"] == 2

    def test_product_needs_two(self):
        code, _, _ = run("jordan", "product", "--group", "cyclic:ell=2")
        assert code == 2

    def test_prank(self):
        code, out, _ = run("jordan", "prank", "--group", "dihedral:ell=2",
                           "--p", "2")
        assert code == 0 and json.loads(out)["rank"] == 1

    def test_prank_not_prime(self):
        code, _, _ = run("jordan", "prank", "--group", "dihedral:ell=2",
                         "--p", "6")
        assert code == 2

    def test_prank_large_p(self):
        t0 = time.perf_counter()
        code, out, _ = run("jordan", "prank", "--group", "dihedral:ell=2",
                           "--p", 10**18 + 3)
        assert code == 0 and json.loads(out)["rank"] == 0
        code, _, err = run("jordan", "prank", "--group", "dihedral:ell=2",
                           "--p", (2**61 - 1) ** 2)
        assert code == 2 and "not prime" in json.loads(err)["error"]
        assert time.perf_counter() - t0 < 1.0

    def test_table_file(self, tmp_path):
        _, out, _ = run("group", "table", "--group", "cyclic:ell=4")
        p = tmp_path / "t.json"
        p.write_text(out)
        code, out2, _ = run("jordan", "m", "--table", str(p))
        assert code == 0 and json.loads(out2)["m"] == 1

    def test_abelian_table_needs_no_lattice(self, tmp_path):
        # (Z/2)^7 has 29,212 subgroups; an abelian table answers without them
        p = tmp_path / "t.json"
        p.write_text(json.dumps({"mul": [list(r) for r in abelian_table([2] * 7).mul]}))
        t0 = time.perf_counter()
        code, out, _ = run("jordan", "m", "--table", str(p))
        assert code == 0 and json.loads(out) == {"m": 1, "witness_subgroup": list(range(128))}
        code, out, _ = run("jordan", "constants", "--table", str(p))
        assert code == 0 and json.loads(out) == {"m": 1, "J": 1, "j": 1,
                                                 "witness_subgroup": list(range(128))}
        assert time.perf_counter() - t0 < 5.0
        p.write_text(json.dumps({"mul": [list(r) for r in abelian_table([2] * 9).mul]}))
        code, out, err = run("jordan", "m", "--table", str(p))
        assert code == 3 and out == "" and "exceeds the cap" in json.loads(err)["error"]

    @pytest.mark.parametrize("mul", [
        [[0, 1], [1]],  # not square
        # identity and inverses, but x*x*... never returns to the identity
        [[0, 1, 2, 3, 4], [1, 0, 4, 1, 1], [2, 0, 2, 3, 2], [3, 0, 4, 2, 0],
         [4, 4, 2, 0, 2]],
        [[0, 1, 2, 3], [1, 0, 2, 3], [2, 1, 0, 2], [3, 0, 2, 0]],  # row 2 repeats 2
    ])
    def test_malformed_table_is_invalid_input(self, tmp_path, mul):
        p = tmp_path / "t.json"
        p.write_text(json.dumps({"mul": mul}))
        for cmd in (["m"], ["prank", "--p", "2"]):
            code, out, err = run("jordan", *cmd, "--table", str(p))
            assert code == 2 and out == "" and "error" in json.loads(err)

    @pytest.mark.parametrize("order", [7, 3, "4", 4.0, None])
    def test_declared_order_must_be_the_tables(self, tmp_path, order):
        _, out, _ = run("group", "table", "--group", "cyclic:ell=2")
        doc = json.loads(out)
        assert doc["order"] == 4
        doc["order"] = order
        p = tmp_path / "t.json"
        p.write_text(json.dumps(doc))
        for cmd in (["m"], ["constants"], ["prank", "--p", "2"]):
            code, out, err = run("jordan", *cmd, "--table", str(p))
            assert code == 2 and out == "" and "order" in json.loads(err)["error"]

    def test_short_names_are_invalid_input(self, tmp_path):
        doc = copy.deepcopy(FUZZ_TABLES[1])
        doc["names"] = doc["names"][:5]
        p = tmp_path / "t.json"
        p.write_text(json.dumps(doc))
        for cmd in (["m"], ["constants"], ["prank", "--p", "2"]):
            code, out, err = run("jordan", *cmd, "--table", str(p))
            assert code == 2 and out == "" and "names" in json.loads(err)["error"]

    @settings(derandomize=True, max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(mutated_tables())
    def test_fuzzed_table_keeps_exit_contract(self, tmp_path, doc):
        p = tmp_path / "fuzz.json"
        p.write_text(json.dumps(doc))
        for cmd in (["m"], ["constants"], ["prank", "--p", "2"]):
            code, _, err = run("jordan", *cmd, "--table", str(p))
            assert code in (0, 1, 2, 3) and "Traceback" not in err
            if code == 2:
                assert "error" in json.loads(err)

    def test_non_associative_large_table_is_invalid_input(self, tmp_path,
                                                           perturbed_2i_tables):
        for k, mul in enumerate(perturbed_2i_tables):
            p = tmp_path / f"t{k}.json"
            p.write_text(json.dumps({"mul": mul}))
            for cmd in (["m"], ["prank", "--p", "2"]):
                code, out, err = run("jordan", *cmd, "--table", str(p))
                assert code == 2 and out == ""
                assert "associativity" in json.loads(err)["error"]

    def test_threshold(self):
        code, out, _ = run("jordan", "threshold", "288")
        assert code == 0 and json.loads(out)["threshold"] == 8

    def test_homeo_bound(self):
        code, out, _ = run("jordan", "homeo-bound", "2", "2")
        assert code == 0 and json.loads(out)["d"] == 6

    def test_cap_from_config(self, tmp_path):
        p = tmp_path / "cfg"
        p.write_text("subgroup_order_cap=4\n")
        code, _, err = run("jordan", "m", "--group", "dihedral:ell=2",
                           "--config", str(p))
        assert code == 3


class TestPathCommands:
    def test_check(self, tmp_path):
        f = write_polymap(tmp_path / "t.json", 2,
                          [[((1, 0), 1), ((0, 2), 1)], [((0, 1), 1)]])
        code, out, _ = run("path", "check", f)
        assert code == 0 and json.loads(out)["pass"]

    @pytest.mark.parametrize("degree", ["0", "-3"])
    def test_check_refuses_a_degree_below_one(self, tmp_path, degree):
        f = write_polymap(tmp_path / "t.json", 2,
                          [[((1, 0), 1), ((0, 2), 1)], [((0, 1), 1)]])
        code, out, err = run("path", "check", f, "--degree", degree)
        assert code == 2 and out == "" and "Traceback" not in err
        assert json.loads(err)["error"] == "max_degree must be at least 1, got %s" % degree

    def test_family(self, tmp_path):
        f = write_polymap(tmp_path / "t.json", 2,
                          [[((1, 0), 1), ((0, 2), 1)],
                           [((0, 1), 1), ((3, 0), 1)]])
        code, out, _ = run("path", "family", f)
        texps = [m["t"] for m in json.loads(out)["components"][1]["monomials"]]
        assert code == 0 and texps == [0, 2]

    def test_family_conditions_fail(self, tmp_path):
        f = write_polymap(tmp_path / "t.json", 1, [[((1,), 1), ((0,), 1)]])
        code, _, err = run("path", "family", f)
        assert code == 1 and "error" in json.loads(err)

    def test_factor(self, tmp_path):
        f = write_polymap(tmp_path / "s.json", 2,
                          [[((0, 0), 1), ((1, 0), 1), ((2, 0), 1)],
                           [((0, 1), 1)]])
        code, out, _ = run("path", "factor", f)
        d = json.loads(out)
        assert code == 0 and d["point"] == ["0", "0"]
        assert len(d["theta"]["components"]) == 2

    def test_factor_with_point(self, tmp_path):
        f = write_polymap(tmp_path / "s.json", 2,
                          [[((2, 0), 1), ((0, 1), 1)], [((0, 1), 1), ((1, 0), 3)]])
        code, out, _ = run("path", "factor", f, "--point", "1,2")
        assert code == 0 and json.loads(out)["point"] == ["1", "2"]

    def test_missing_file(self):
        code, _, _ = run("path", "check", "/no/such/file.json")
        assert code == 2

    @pytest.mark.parametrize("point", ["--point=1/0,1", "--point=", "--point= ",
                                       "--point=1,,2", "--point=1,2,3"],
                             ids=["zero-denominator", "empty", "blank",
                                  "empty-entry", "wrong-length"])
    def test_malformed_point_is_invalid_input(self, tmp_path, point):
        # an empty point is not a request for regular_point
        f = write_polymap(tmp_path / "s.json", 2,
                          [[((2, 0), 1), ((0, 1), 1)], [((0, 1), 1), ((1, 0), 3)]])
        code, out, err = run("path", "factor", f, point)
        assert code == 2 and out == "" and "error" in json.loads(err)

    @settings(derandomize=True, max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.text(alphabet="0123456789/,-+ .e_x", max_size=12))
    def test_fuzzed_point_keeps_exit_contract(self, tmp_path, text):
        f = write_polymap(tmp_path / "s.json", 2,
                          [[((2, 0), 1), ((0, 1), 1)], [((0, 1), 1), ((1, 0), 3)]])
        code, _, err = run("path", "factor", f, "--point=" + text)
        assert code in (0, 1, 2, 3) and "Traceback" not in err
        if code == 2:
            assert "error" in json.loads(err)

    @pytest.mark.parametrize("command", ["factor", "family", "check"])
    @pytest.mark.parametrize("payload", [
        polymap_json(1, [[((1,), 1), ((1,), -1), ((2,), 1)]]),
        polymap_json(1, [[((1.5,), 1), ((2,), 1)]]),
        polymap_json(1, [[((True,), 1), ((2,), 1)]]),
        polymap_json(0, []),
        polymap_json(True, [[((1,), 1), ((2,), 1)]]),
    ], ids=["duplicate-monomial", "fractional-exponent", "boolean-exponent",
            "zero-dimension", "boolean-dimension"])
    def test_malformed_map_is_invalid_input(self, tmp_path, command, payload):
        # read without these checks, each is a different map from the file's
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(payload))
        code, _, err = run("path", command, str(p))
        assert code == 2 and "error" in json.loads(err)

    @pytest.mark.parametrize("command", ["factor", "family", "check"])
    def test_degree_past_the_cap_exits_3(self, tmp_path, command):
        # (x + x^E, y + y^E): `path factor` at 1/2,1/3 took 28 s at E = 1000
        cap = DEFAULT_CONFIG["degree_cap"]
        point = ["--point", "1/2,1/3"] if command == "factor" else []
        for top in (cap + 1, 10 ** 6, cap):
            f = write_polymap(tmp_path / "big.json", 2, [[((1, 0), 1), ((top, 0), 1)],
                                                         [((0, 1), 1), ((0, top), 1)]])
            t0 = time.perf_counter()
            code, out, err = run("path", command, f, *point)
            assert time.perf_counter() - t0 < 1.0
            if top == cap:
                assert code == 0 and err == ""
            else:
                assert code == 3 and out == ""
                assert json.loads(err)["error"] == "degree %d exceeds the cap %d" % (top, cap)
        cfg = tmp_path / "c.cfg"
        cfg.write_text("degree_cap = %d\n" % (cap - 1))
        code, out, err = run("path", command, f, *point, "--config", cfg)
        assert code == 3 and out == "" and "exceeds the cap %d" % (cap - 1) in err

    @staticmethod
    def squares_map(n):
        """x + (x_2^2 ... x_n^2, 0, ..., 0): at the all-ones point its shift
        makes 3^(n-1) terms from the one monomial."""
        comps = [[(tuple(int(k == i) for k in range(n)), 1)] for i in range(n)]
        comps[0].append(((0,) + (2,) * (n - 1), 1))
        return comps

    def test_shift_past_the_term_cap_exits_3(self, tmp_path):
        # n = 11 took 2.2 s and wrote 22 MB; each extra variable tripled it
        for n in (11, 14):
            f = write_polymap(tmp_path / "sq.json", n, self.squares_map(n))
            t0 = time.perf_counter()
            code, out, err = run("path", "factor", f, "--point", ",".join(["1"] * n))
            assert time.perf_counter() - t0 < 1.0
            terms = 3 ** (n - 1) + 2 * n
            assert code == 3 and out == "" and json.loads(err)["error"] == \
                "the shift by the point makes %d terms, past the cap %d" % (terms, PATH_TERMS_CAP)
        # without --point the origin is regular: nothing is shifted
        code, out, _ = run("path", "factor", f)
        assert code == 0 and json.loads(out)["point"] == ["0"] * 14

    def test_factor_at_the_term_cap(self, tmp_path):
        """A map just under `PATH_TERMS_CAP` factors within the time that
        set the cap; one more monomial passes it."""
        n = 10
        comps = self.squares_map(n)
        for j in range(3):
            comps[0].append((tuple(3 if 1 + j <= k < 7 + j else 0 for k in range(n)), 1))
        point = ",".join(["1/3"] * n)
        terms = PolyMap(n, [dict(c) for c in comps]).shift_terms([Fraction(1, 3)] * n)
        assert 0.95 * PATH_TERMS_CAP < terms <= PATH_TERMS_CAP
        f = write_polymap(tmp_path / "cap.json", n, comps)
        t0 = time.perf_counter()
        code, out, _ = run("path", "factor", f, "--point", point)
        assert time.perf_counter() - t0 < 3.0
        assert code == 0 and json.loads(out)["point"] == ["1/3"] * n
        comps[0].append((tuple(3 if k >= 4 else 0 for k in range(n)), 1))
        f = write_polymap(tmp_path / "past.json", n, comps)
        code, out, err = run("path", "factor", f, "--point", point)
        assert code == 3 and out == "" and "past the cap" in err

    @settings(derandomize=True, max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(mutated_polymaps())
    def test_fuzzed_map_keeps_exit_contract(self, tmp_path, doc):
        p = tmp_path / "fuzz.json"
        p.write_text(json.dumps(doc))
        for command in ("factor", "family", "check"):
            code, _, err = run("path", command, str(p))
            assert code in (0, 1, 2, 3) and "Traceback" not in err
            if code == 2:
                assert "error" in json.loads(err)


class TestOutputPlumbing:
    def test_out_file(self, tmp_path):
        dest = tmp_path / "out.json"
        code, out, _ = run("jordan", "threshold", "288", "--out", str(dest))
        assert code == 0 and out == ""
        assert json.loads(dest.read_text())["threshold"] == 8

    def test_text_format(self):
        code, out, _ = run("jordan", "threshold", "288", "--format", "text")
        assert code == 0 and "threshold: 8" in out

    def test_bad_subcommand(self):
        code, _, _ = run("compress", "explode")
        assert code == 2

    @pytest.mark.parametrize("moved,argv", [
        ("--format text", "jordan threshold 288"),
        ("--group binary-tetrahedral", "invariant --degree 6"),
        ("--group dihedral --ell 3", "group table"),
        ("--config CFG", "series --group tetrahedral"),
        ("--group tetrahedral", "compress construct --degree 5"),
    ])
    def test_options_before_the_subcommand(self, tmp_path, moved, argv):
        # an option counts wherever it stands: the bytes of the command with
        # the options first, or between the command and its subcommand, are
        # those with the options last
        cfg = tmp_path / "cfg"
        cfg.write_text("series_upto=7\n")
        moved = [str(cfg) if a == "CFG" else a for a in moved.split()]
        argv = argv.split()
        want = run(*argv, *moved)
        assert want[0] == 0 and want[1]
        assert run(*moved, *argv) == want
        assert run(*argv[:1], *moved, *argv[1:]) == want

    def test_group_lists_join_across_levels(self):
        # --group collects in command-line order, whatever level it is at
        want = run("jordan", "product", "--group", "cyclic:ell=3", "--group", "cyclic:ell=4")
        assert want[0] == 0
        for argv in (["--group", "cyclic:ell=3", "jordan", "product", "--group", "cyclic:ell=4"],
                     ["--group", "cyclic:ell=3", "jordan", "--group", "cyclic:ell=4", "product"],
                     ["jordan", "--group", "cyclic:ell=3", "product", "--group", "cyclic:ell=4"]):
            assert run(*argv) == want

    def test_out_before_the_subcommand(self, tmp_path):
        dest = tmp_path / "out.json"
        code, out, _ = run("--out", dest, "invariant", "--degree", "6",
                           "--group", "binary-tetrahedral")
        assert code == 0 and out == ""
        assert json.loads(dest.read_text())["degree"] == 6

    @pytest.mark.parametrize("argv", [
        "group build", "group chars", "series", "compress construct --degree 5",
        "invariant --degree 6", "linmap --degree 6",
        "--format text invariant --degree 6",
    ])
    def test_missing_group_is_invalid_input(self, argv):
        code, out, err = run(*argv.split())
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": "supply --group"}

    def test_json_sorted_keys(self):
        _, out, _ = run("jordan", "constants", "--group", "cyclic:ell=3")
        d = json.loads(out)
        assert list(d) == sorted(d)


    @pytest.mark.parametrize("argv,sha256", [
        ("invariant --group icosahedral --degree 120",
         "601ad0fada47a585fe951fba8b974a7d0189533e9f7476dd712f8d43e4169e2e"),
        ("compress construct --group icosahedral --degree 39",
         "d3e8b74a7e62cdf272f78941dbd2945cbdc66e2df0ed10f5d933a2a0a598df65"),
        ("linmap --group icosahedral --degree 120",
         "2ae3527309352ea8027343df798c70a073cad702fce7b346656ae6866326446e"),
        ("invariant --group cyclic:ell=4 --degree 64",
         "eaf9d056e9fa9e626204b76e9d4329f071974225d5954dc9a579a59b88972a32"),
        ("invariant --group dihedral:ell=5 --degree 100",
         "3854ba3f162786bb618d62b9b2a6fc715df3515f47a78597409c835fe24928da"),
        ("invariant --group tetrahedral --degree 128",
         "bf6b5728e7cefcce555fb062bde2464806dde51bffdc469441c4be6f4891a3f7"),
        ("linmap --group tetrahedral --degree 120",
         "8832ad685328b59a1b506d480c339a4c4e93f3ee387e2703d19e8a2fd54ddd35"),
        # but for 2T at 128, every invariant above is an orbit product (|G|
        # divides a degree past 40); these read the invariant rows instead
        ("invariant --group cyclic:ell=4 --degree 64 --method reynolds",
         "eaf9d056e9fa9e626204b76e9d4329f071974225d5954dc9a579a59b88972a32"),
        ("invariant --group dihedral:ell=5 --degree 100 --method reynolds",
         "ac5a8714329b973134bbac12c5e560cc05a0f43fe22d3886a2e37a83d6ea214b"),
        ("linmap --group tetrahedral --degree 120 --method reynolds",
         "1a9464c6801c585959a6d41844d6be70eef736949056a7a04d1f4cd65aecf45b"),
        # taken with the exact Euclidean gcd at every alpha tried; the 2T and
        # 2O pairs at 127 are coprime, the 2I pair has a gcd of degree 36
        ("compress construct --group tetrahedral --degree 127",
         "b874945dfdf6687ca143fa360501ff321b079ba75026227c255bebbd55d412d0"),
        ("compress construct --group octahedral --degree 127",
         "cdbf84a7e526aeccb1d87007c9f05a3edb92f0d7948ec1e4b3672448217afb62"),
        ("compress construct --group icosahedral --degree 127",
         "cafb35aa57bdb0d017f2681bcab3ba012f6da33b900cb7c19a6547d0972eb57b"),
        # groups read from files in tmp_path (GROUP_FILES), taken with the
        # averaging projector and, for T4(3,3,3), the first invariant
        # monomial summed element by element
        ("invariant --group {tmp}/sheared-bd3.json --degree 8",
         "beab8a3010a1b044819c6dd27faf5e89310f8bd2dc1c4c97b3b622bbaed37de7"),
        ("invariant --group {tmp}/tetrahedral-rotations.json --degree 12",
         "0578db0f6cca911b2c8e44116f25f244bcaa21d718e40f7d47a33406e3fc749d"),
        ("invariant --group {tmp}/t4-333.json --degree 128",
         "c67a4da820e29b148647f4665058da805fbef59a3f31278424c23ea8435f1601"),
    ])
    def test_pinned_outputs(self, tmp_path, argv, sha256):
        # the stdout of the slower routes these outputs were first made with
        # (the Horner substitution, the element-by-element orbit product,
        # the CycNum equivariance sides); a faster route must print the
        # same bytes
        for name, make in GROUP_FILES.items():
            if name in argv:
                (tmp_path / name).write_text(json.dumps(make().to_json()))
        code, out, _ = run(*argv.format(tmp=tmp_path).split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == sha256

    def test_tetrahedral_127_constructs_fast_and_verifies(self, tmp_path):
        # the pair is coprime, which one prime proves: no exact Euclid runs
        # (8.6 s through the CLI with it)
        t0 = time.perf_counter()
        code, out, _ = run("compress", "construct", "--group", "tetrahedral",
                           "--degree", "127")
        assert code == 0 and time.perf_counter() - t0 < 2.0
        p = tmp_path / "2t-127.json"
        p.write_text(out)
        assert run("compress", "verify-map", str(p))[0] == 0

    def test_python_m_runs_the_cli(self):
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.run([sys.executable, "-m", "equimap", "jordan", "threshold", "288"],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["threshold"] == 8


class TestSuiteCommand:
    def test_reduced_suite_skips(self, tmp_path):
        p = tmp_path / "cfg"
        p.write_text("series_upto=5\n")
        code, out, _ = run("suite", "--config", str(p), "--format", "text")
        assert code == 0
        assert "SKIP" in out and "overall: PASS" in out

    def test_malformed_config(self, tmp_path):
        p = tmp_path / "cfg"
        p.write_text("what even is this\n")
        code, _, err = run("suite", "--config", str(p))
        assert code == 2 and "error" in json.loads(err)

    def test_removed_key_is_unknown(self, tmp_path):
        # truncation_order was read by nothing, and is no longer a key
        p = tmp_path / "cfg"
        p.write_text("truncation_order=16\n")
        code, _, err = run("suite", "--config", str(p))
        assert code == 2 and "unknown key 'truncation_order'" in json.loads(err)["error"]

    def test_alpha_bound_is_not_a_key(self, tmp_path):
        # every caller searched at the one bound compress.ALPHA_NORM_BOUND
        p = tmp_path / "cfg"
        p.write_text("alpha_norm_bound=8\n")
        code, _, err = run("suite", "--config", str(p))
        assert code == 2 and "unknown key 'alpha_norm_bound'" in json.loads(err)["error"]


class TestParserReuse:
    def test_one_parser_and_fresh_arguments_per_call(self):
        # the parser is built once; repeated and failed parses leave no
        # state behind in it
        from equimap import cli

        parser = cli._build_parser()
        assert cli._build_parser() is parser
        a = parser.parse_args(["group", "build", "--group", "2T", "--group", "2O"])
        assert run("group", "build", "--no-such-flag")[0] == 2
        b = parser.parse_args(["group", "build", "--group", "2I"])
        assert a.group == ["2T", "2O"] and b.group == ["2I"]
        code, out, _ = run("group", "build", "--group", "binary-tetrahedral")
        assert code == 0 and json.loads(out)["kind"] == "binary-tetrahedral"
