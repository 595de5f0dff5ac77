import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fixitylab
from fixitylab import cosets
from fixitylab.cli import main
from fixitylab.perm import table_order
from fixitylab.zoo import resolve_group


def run(capsys, argv):
    code = main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_fixity_single_object(capsys):
    code, out, _ = run(capsys, ["fixity", "--group", "sym_4", "--stab-order", "6"])
    assert code == 0
    obj = json.loads(out)
    assert obj == {
        "group": "sym_4",
        "stabilizer_order": 6,
        "degree": 4,
        "fixity": 2,
        "profile": [[2, 4, 2], [2, 8, 0], [3, 3, 1], [4, 4, 0]],
    }


def test_output_deterministic(capsys):
    argv = ["fixity", "--group", "sym_4", "--stab-order", "6"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2


def test_profile_has_no_fixity_key(capsys):
    code, out, _ = run(capsys, ["profile", "--group", "sym_4", "--stab-order", "6"])
    assert code == 0
    obj = json.loads(out)
    assert set(obj) == {"group", "stabilizer_order", "degree", "profile"}


def test_ambiguous_order_yields_array(capsys):
    code, out, _ = run(capsys, ["fixity", "--group", "sym_4", "--stab-order", "4"])
    assert code == 0
    objs = json.loads(out)
    assert isinstance(objs, list) and len(objs) == 3
    assert all(o["stabilizer_order"] == 4 for o in objs)


def test_descriptor_narrows_to_one(capsys):
    code, out, _ = run(
        capsys,
        ["fixity", "--group", "sym_4", "--stab-order", "4", "--stab-descriptor", "C4"],
    )
    assert code == 0
    obj = json.loads(out)
    assert isinstance(obj, dict)
    assert obj["stabilizer_order"] == 4


def test_no_matching_stabilizer(capsys):
    code, _, err = run(capsys, ["fixity", "--group", "sym_4", "--stab-order", "77"])
    assert code == 2
    assert "error:" in err


def test_stab_flags_exclusive(capsys, tmp_path):
    p = tmp_path / "u.grp"
    p.write_text("degree 4\n2 1 3 4\n")
    code, _, err = run(
        capsys,
        ["fixity", "--group", "sym_4", "--stab-order", "6", "--stab-file", str(p)],
    )
    assert code == 2
    assert "exclusive" in err


def test_stab_descriptor_needs_stab_order(capsys, tmp_path):
    # the descriptor narrows the lattice classes of one order; with a
    # generator file alone there is nothing for it to narrow
    p = tmp_path / "s3.grp"
    p.write_text("degree 4\n2 1 3 4\n2 3 1 4\n")
    code, out, err = run(
        capsys,
        ["fixity", "--group", "sym_4", "--stab-file", str(p), "--stab-descriptor", "C5"],
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "--stab-order" in err


def test_stab_flags_required(capsys):
    code, _, err = run(capsys, ["fixity", "--group", "sym_4"])
    assert code == 2
    assert "required" in err


def test_stab_file(capsys, tmp_path):
    p = tmp_path / "u.grp"
    p.write_text("degree 4\n2 1 3 4\n")
    code, out, _ = run(capsys, ["fixity", "--group", "sym_4", "--stab-file", str(p)])
    assert code == 0
    obj = json.loads(out)
    assert obj["stabilizer_order"] == 2
    assert obj["degree"] == 12


def test_fixity_above_the_element_cap_fails_before_counting(capsys, tmp_path, monkeypatch):
    # the profile enumerates G, so a G above the element cap ends in the
    # cap error before the above-cap count walks any cyclic-subgroup orbit
    def walk(*args):
        raise AssertionError("fixity was counted for a report that cannot be printed")

    monkeypatch.setattr(cosets, "cyclic_orbit", walk)
    p = tmp_path / "u.grp"
    p.write_text("degree 8\n1 3 4 5 6 7 8 2\n")  # z -> z + 1 on PG(1, 7)
    argv = ["fixity", "--group", "psl2_7", "--stab-file", str(p), "--element-cap", "100"]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err == "error: group order 168 exceeds element cap 100\n"


def test_stab_file_not_subgroup(capsys, tmp_path):
    p = tmp_path / "u.grp"
    p.write_text("degree 5\n2 1 3 4 5\n")
    code, _, err = run(capsys, ["fixity", "--group", "alt_5", "--stab-file", str(p)])
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("flag", ["--group", "--stab-file"])
def test_group_file_not_utf8(capsys, tmp_path, flag):
    p = tmp_path / "latin1.grp"
    p.write_bytes(b"# caf\xe9\ndegree 4\n2 1 3 4\n")
    argv = {"--group": ["--group", str(p), "--stab-order", "1"],
            "--stab-file": ["--group", "sym_4", "--stab-file", str(p)]}[flag]
    code, out, err = run(capsys, ["fixity", *argv])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "not UTF-8" in err


def test_verify_group_file_not_utf8_fails_its_claim(capsys, tmp_path):
    # the bad file fails its own claim; the claim after it still runs
    p = tmp_path / "latin1.grp"
    p.write_bytes(b"# caf\xe9\ndegree 4\n2 1 3 4\n")
    cat = tmp_path / "cat.json"
    claims = [
        {"id": "bad_file", "mode": "search", "group": str(p), "expected": "none"},
        {"id": "lemma", "mode": "order27"},
    ]
    cat.write_text(json.dumps({"claims": claims}))
    code, out, err = run(capsys, ["verify", "--catalog", str(cat)])
    assert code == 1
    got = {c["id"]: c for c in json.loads(out)["claims"]}
    assert got["bad_file"]["verdict"] == "FAIL" and "not UTF-8" in got["bad_file"]["detail"]
    assert got["lemma"]["verdict"] == "PASS"
    assert "Traceback" not in err


def test_search(capsys):
    code, out, _ = run(capsys, ["search", "--group", "psl2_7"])
    assert code == 0
    obj = json.loads(out)
    assert obj["group"] == "psl2_7" and obj["k"] == 4
    assert obj["classes"] == [
        {"order": 2, "degree": 84, "fixity": 4},
        {"order": 6, "degree": 28, "fixity": 4},
    ]


def test_marks_row(capsys):
    code, out, _ = run(capsys, ["marks", "--group", "sym_4", "--stab-order", "6"])
    assert code == 0
    obj = json.loads(out)
    assert obj["marks"] == [4, 2, 0, 1, 0, 0, 0, 1]


def test_trivial_group_reports_one_action(capsys):
    # the trivial group has one subgroup class, so one stabilizer of order 1
    code, out, _ = run(capsys, ["fixity", "--group", "sym_1", "--stab-order", "1"])
    assert code == 0
    assert json.loads(out) == {
        "group": "sym_1", "stabilizer_order": 1, "degree": 1, "fixity": 0, "profile": [],
    }
    code, out, _ = run(capsys, ["marks", "--group", "cyclic_1", "--stab-order", "1"])
    assert code == 0
    assert json.loads(out) == {
        "group": "cyclic_1", "stabilizer_order": 1, "degree": 1, "marks": [1],
    }


def test_sylow_case(capsys):
    code, out, _ = run(capsys, ["sylow", "--group", "psl2_9", "--stab-order", "18"])
    assert code == 0
    obj = json.loads(out)
    assert obj["case"] == "e"
    assert obj["sylow3_order"] == 9
    assert obj["delta_size"] == 2
    assert obj["orbit_sizes"] == [[1, 2], [9, 2]]


def _write_generator(path, degree, table):
    path.write_text(f"degree {degree}\n" + " ".join(str(v + 1) for v in table) + "\n")


def test_sylow_output_is_pinned_when_3_does_not_divide_u(capsys, tmp_path):
    # case (a) is read from |U| without a Sylow subgroup or coset rows; the
    # JSON is the one the orbit-based classifier printed, byte for byte,
    # for |P| = 1, |P| = 3 and |P| = 9
    _, sz8 = resolve_group("sz8")
    c5 = next(t for t in sz8.element_tables() if table_order(t) == 5)
    _write_generator(tmp_path / "c5.grp", sz8.degree, c5)
    want = {
        ("sz8", "--stab-file", str(tmp_path / "c5.grp")): ("sz8", 5, 5824, 1, 5824, [1, 5824]),
        ("psl2_7", "--stab-order", "7"): ("psl2_7", 7, 24, 3, 24, [3, 8]),
        ("psl2_17", "--stab-order", "4", "--stab-descriptor", "C4"): (
            "psl2_17", 4, 612, 9, 0, [9, 68]
        ),
    }
    for (group, *flags), (name, order, degree, p_order, delta, sizes) in want.items():
        code, out, _ = run(capsys, ["sylow", "--group", group, *flags])
        assert code == 0
        obj = {
            "group": name, "stabilizer_order": order, "degree": degree, "case": "a",
            "sylow3_order": p_order, "delta_size": delta, "orbit_sizes": [sizes],
        }
        assert out == json.dumps(obj, indent=2) + "\n"


def test_sylow_coset_cap_binds_only_when_3_divides_u(capsys):
    # case (a) is read from |U| and the degree, so a coset cap below the
    # degree leaves it answered; with 3 dividing |U| the orbit shapes need
    # the cosets, and the cap is a data error
    argv = ["sylow", "--group", "psl2_9", "--coset-cap", "10", "--stab-order"]
    code, out, _ = run(capsys, [*argv, "10"])
    assert code == 0
    assert json.loads(out) == {
        "group": "psl2_9", "stabilizer_order": 10, "degree": 36, "case": "a",
        "sylow3_order": 9, "delta_size": 0, "orbit_sizes": [[9, 4]],
    }
    code, out, err = run(capsys, [*argv, "18"])
    assert code == 2 and out == ""
    assert err == "error: coset space size 20 exceeds cap 10\n"


def test_out_on_a_directory_is_a_usage_error(capsys, tmp_path):
    cat = tmp_path / "cat.json"
    cat.write_text('{"claims": [{"id": "o27", "mode": "order27"}]}')
    for argv in (["zoo"], ["verify", "--catalog", str(cat)]):
        code, out, err = run(capsys, [*argv, "--out", str(tmp_path)])
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err


def test_cli_import_leaves_the_process_pool_out():
    # only verify --jobs N > 1 needs the pool, so no other run pays its import
    src = str(Path(fixitylab.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    code = "import sys, fixitylab.cli; print('concurrent.futures.process' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def test_zoo(capsys):
    code, out, _ = run(capsys, ["zoo"])
    assert code == 0
    obj = json.loads(out)
    assert "m11" in obj["names"] and "m22" in obj["names"]
    assert "psl2_<q>" in obj["families"]


def test_out_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys,
        ["fixity", "--group", "sym_4", "--stab-order", "6", "--out", str(target)],
    )
    assert code == 0
    assert out == ""
    text = target.read_text()
    assert text.endswith("\n")
    assert json.loads(text)["fixity"] == 2


def test_verify_pass(capsys, tmp_path):
    cat = tmp_path / "cat.json"
    cat.write_text(json.dumps({"claims": [{"id": "o27", "mode": "order27"}]}))
    code, out, err = run(capsys, ["verify", "--catalog", str(cat)])
    assert code == 0
    obj = json.loads(out)
    assert obj["counts"] == {"PASS": 1, "FAIL": 0, "SKIPPED": 0}
    assert "PASS" in err and "o27" in err


def test_verify_fail_exit_code(capsys, tmp_path):
    cat = tmp_path / "cat.json"
    cat.write_text(
        json.dumps(
            {
                "claims": [
                    {"id": "bad", "mode": "search", "group": "psl2_7", "expected": "none"},
                    {"id": "doc", "mode": "documented", "note": "n"},
                ]
            }
        )
    )
    code, out, err = run(capsys, ["verify", "--catalog", str(cat)])
    assert code == 1
    obj = json.loads(out)
    assert obj["counts"]["FAIL"] == 1 and obj["counts"]["SKIPPED"] == 1
    assert "FAIL" in err and "bad" in err


def test_verify_only_filter(capsys, tmp_path):
    cat = tmp_path / "cat.json"
    cat.write_text(
        json.dumps(
            {
                "claims": [
                    {"id": "bad", "mode": "search", "group": "psl2_7", "expected": "none"},
                    {"id": "doc", "mode": "documented", "note": "n"},
                ]
            }
        )
    )
    code, out, _ = run(capsys, ["verify", "--catalog", str(cat), "--only", "doc"])
    assert code == 0
    obj = json.loads(out)
    assert [c["id"] for c in obj["claims"]] == ["doc"]
    # an id the catalog lacks is a usage error, not an empty PASS
    code, out, err = run(capsys, ["verify", "--catalog", str(cat), "--only", "doc,dco"])
    assert code == 2
    assert out == ""
    assert "error:" in err and "dco" in err and "doc" not in err.replace(str(cat), "")


@pytest.mark.parametrize("only", ["", "a,", ",doc", "doc,,bad"])
def test_verify_empty_claim_id_is_a_usage_error(capsys, only):
    # an empty selection would run the whole catalog, and an empty id names
    # no claim: the parser rejects both before any claim runs
    catalog = str(Path(fixitylab.__file__).parent / "data" / "claims.json")
    with pytest.raises(SystemExit) as e:
        main(["verify", "--catalog", catalog, "--only", only])
    assert e.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--only" in captured.err and "empty claim id" in captured.err


def test_verify_missing_catalog(capsys, tmp_path):
    # a catalog that cannot be read, or not as UTF-8, is a data error
    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes(b'{"claims": [{"id": "caf\xe9"}]}')
    for path in (tmp_path / "nope.json", tmp_path, not_utf8):
        code, out, err = run(capsys, ["verify", "--catalog", str(path)])
        assert code == 2, path
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err


def test_verify_malformed_catalog(capsys, tmp_path):
    cat = tmp_path / "cat.json"
    cat.write_text('{"claims": [')
    code, out, err = run(capsys, ["verify", "--catalog", str(cat)])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "not valid JSON" in err


def test_verify_bad_caps(capsys, tmp_path):
    # a cap that is not a positive int is a data error at load, not a crash
    cat = tmp_path / "cat.json"
    claim = {"id": "capped", "mode": "order27", "caps": {"elements": "1000"}}
    cat.write_text(json.dumps({"claims": [claim]}))
    code, out, err = run(capsys, ["verify", "--catalog", str(cat)])
    assert code == 2
    assert out == ""
    assert "error:" in err and "'capped'" in err and "'elements'" in err


def test_verify_malformed_claim_values(capsys, tmp_path):
    # values of the wrong shape stop the load with a data error, exit 2
    cat = tmp_path / "cat.json"
    for claim in (
        {"id": "st", "mode": "stabilizers", "group": "psl2_7", "stabilizers": 5},
        # a stabilizers claim with no stabilizers would check nothing
        {"id": "st", "mode": "stabilizers", "group": "psl2_7", "stabilizers": []},
        {"id": "st", "mode": "search", "group": "psl2_7", "expected": 5},
        {"id": "st", "mode": "search", "group": 5, "expected": "none"},
        {"id": "st", "mode": "psl2_family", "q": "17"},
        {"id": "st", "mode": "psl2_family", "q": True},
        {"id": "st", "mode": ["search"]},
        *(
            {"id": "st", "mode": "stabilizers", "group": "psl2_7",
             "stabilizers": [{"source": source, "descriptor": "C7:C3"}]}
            for source in (
                "cyclic_least:abc", "point_stabilizer:", "cyclic_search:0",
                "cyclic_normalizer_search:-3", "point_stabilizer:-1", "frobenius:3",
            )
        ),
    ):
        cat.write_text(json.dumps({"claims": [claim]}))
        code, out, err = run(capsys, ["verify", "--catalog", str(cat)])
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "'st'" in err


def test_verify_claim_id_not_a_string(capsys, tmp_path):
    # --only selects claims by string id, so any other id is a data error
    cat = tmp_path / "cat.json"
    for cid in (["st"], 7):
        cat.write_text(json.dumps({"claims": [{"id": cid, "mode": "order27"}]}))
        code, out, err = run(capsys, ["verify", "--catalog", str(cat)])
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and repr(cid) in err


def test_verify_cap_flag_bounds_the_claim_cap(capsys):
    # psl2_32_none raises its own subgroup cap to 40,000; a smaller cap given
    # on the command line still binds, so the claim is left undecided
    catalog = str(Path(fixitylab.__file__).parent / "data" / "claims.json")
    argv = ["verify", "--catalog", catalog, "--only", "psl2_32_none", "--subgroup-cap", "100"]
    code, out, err = run(capsys, argv)
    assert code == 0
    (claim,) = json.loads(out)["claims"]
    assert claim["verdict"] == "SKIPPED"
    assert claim["detail"].startswith("cap exceeded:") and "cap 100" in claim["detail"]


def test_usage_errors(capsys):
    with pytest.raises(SystemExit) as e:
        main([])
    assert e.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as e:
        main(["fixity"])
    assert e.value.code == 2
    capsys.readouterr()


def test_unknown_group(capsys):
    code, _, err = run(capsys, ["fixity", "--group", "nope_9", "--stab-order", "2"])
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "flag", ["--element-cap", "--subgroup-cap", "--coset-cap", "--jobs", "--k"]
)
@pytest.mark.parametrize("value", ["0", "-3"])
def test_non_positive_cap_flag_is_a_usage_error(capsys, flag, value):
    # a cap flag, and --jobs, is held to the rule of a catalog cap: a
    # positive int; the parser rejects it before any claim runs.  So is
    # search --k: no nontrivial subgroup has fixity 0 or less
    catalog = str(Path(fixitylab.__file__).parent / "data" / "claims.json")
    if flag == "--k":
        argv = ["search", "--group", "psl2_7"]
    else:
        argv = ["verify", "--catalog", catalog, "--only", "psl2_7_search"]
    with pytest.raises(SystemExit) as e:
        main([*argv, flag, value])
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert flag in err and "positive" in err
