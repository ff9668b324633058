import contextlib
import io
import json
import os

import pytest

from equimap.cli import load_config, main, parse_group


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def cyc1(v):
    return {"conductor": 1, "coeffs": [str(v)]}


def write_polymap(path, n, comps):
    payload = {
        "n": n,
        "components": [
            {
                "monomials": [
                    {"exps": list(e), "coeff": cyc1(c)} for e, c in comp
                ]
            }
            for comp in comps
        ],
    }
    path.write_text(json.dumps(payload))
    return str(path)


class TestConfig:
    def test_defaults(self):
        cfg = load_config()
        assert cfg["series_upto"] == 64
        assert cfg["alpha_norm_bound"] == 8
        assert cfg["subgroup_order_cap"] == 256
        assert cfg["truncation_order"] == 16
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
        a = run("compress", "construct", "--group", "binary-dihedral:ell=3",
                "--degree", "5")
        b = run("compress", "construct", "--group", "binary-dihedral:ell=3",
                "--degree", "5")
        assert a == b and a[0] == 0

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
    ], ids=["no-forms", "empty-generator", "no-generators", "1x1-generator",
            "zero-denominator", "negative-conductor", "degree-0",
            "infinite-group", "unquoted-coefficient", "null-group"])
    def test_verify_map_malformed_is_invalid_input(self, tmp_path, mutate):
        _, out, _ = run("compress", "construct", "--group",
                        "dihedral:ell=2", "--degree", "3")
        cert = json.loads(out)
        mutate(cert)
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(cert))
        code, _, err = run("compress", "verify-map", str(p))
        assert code == 2 and "error" in json.loads(err)

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

    def test_table_file(self, tmp_path):
        _, out, _ = run("group", "table", "--group", "cyclic:ell=4")
        p = tmp_path / "t.json"
        p.write_text(out)
        code, out2, _ = run("jordan", "m", "--table", str(p))
        assert code == 0 and json.loads(out2)["m"] == 1

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

    def test_json_sorted_keys(self):
        _, out, _ = run("jordan", "constants", "--group", "cyclic:ell=3")
        d = json.loads(out)
        assert list(d) == sorted(d)


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
