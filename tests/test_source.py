import ast
import importlib.util
import shutil
from pathlib import Path

import pytest

import fixitylab
from fixitylab import enumeration, zoo
from fixitylab.errors import GroupDataError


ROOT = Path(__file__).resolve().parent.parent


def _load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_library_has_no_assert_statements():
    # python -O strips assert statements, and with them any cross-check
    # written as one; the library and the scripts raise instead
    paths = sorted(Path(fixitylab.__file__).parent.glob("*.py"))
    paths += sorted((ROOT / "scripts").glob("*.py"))
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert offenders == []


def _representation_leaks(tree: ast.AST) -> list[int]:
    """Lines that use the bytes-or-tuple table representation: any mention
    of ``bytes`` (a type test, a table built as bytes, bytes.maketrans), the
    padded translate table, ``.translate``, or a comparison with the degree
    255 that decides the representation."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in ("bytes", "padded"):
            lines.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr in ("padded", "maketrans", "translate"):
            lines.append(node.lineno)
        elif isinstance(node, ast.alias) and node.name == "padded":
            lines.append(node.lineno)
        elif isinstance(node, ast.Compare) and any(
            isinstance(x, ast.Constant) and x.value == 255
            for x in (node.left, *node.comparators)
        ):
            lines.append(node.lineno)
    return lines


def test_table_representation_stays_in_perm():
    # perm.py alone knows that a table is bytes up to degree 255 and a tuple
    # above; every other module builds, composes and conjugates tables
    # through its primitives
    src = Path(fixitylab.__file__).parent
    offenders = [
        f"{path.name}:{line}"
        for path in sorted(src.glob("*.py"))
        if path.name != "perm.py"
        for line in _representation_leaks(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert offenders == []


def _calls_outside(callee: str, homes: dict[str, tuple[str, ...]]) -> list[str]:
    """``file:line`` of every call of ``callee`` in the library that is not
    inside one of the functions ``homes`` lists for its module file."""
    src = Path(fixitylab.__file__).parent
    offenders = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = set()
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef) and fn.name in homes.get(path.name, ()):
                allowed.update(map(id, ast.walk(fn)))
        offenders += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == callee
            and id(node) not in allowed
        ]
    return offenders


def test_chains_are_built_in_two_places():
    # one way to build a chain: every PermGroup(...) call is the trivial
    # chain or the end of extend_chain; anything else, a point stabilizer
    # included, is built through them
    assert _calls_outside("PermGroup", {"perm.py": ("_trivial_chain", "extend_chain")}) == []


def test_fixity_reports_are_built_in_one_place():
    # one report shape: every FixityReport(...) call lies inside cosets.fixity
    assert _calls_outside("FixityReport", {"cosets.py": ("fixity",)}) == []


def _function(module: str, name: str) -> ast.AST:
    path = Path(fixitylab.__file__).parent / module
    return next(
        node for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == name
    )


def test_coset_actions_are_built_only_where_cosets_are_read():
    # fixity counts from walks and carries no action; G/U is materialized
    # only for the Sylow-3 orbits and for marks, and the structural lemmas
    # read neither an action nor a list of fixed cosets
    report = _function("cosets.py", "FixityReport")
    assert "action" not in {
        node.target.id for node in report.body if isinstance(node, ast.AnnAssign)
    }
    homes = {"verifier.py": ("classify_sylow3_orbits",), "cosets.py": ("mark", "marks_row")}
    assert _calls_outside("build_coset_action", homes) == []
    lemmas = _function("verifier.py", "check_structural_lemmas")
    called = {
        getattr(node.func, "id", getattr(node.func, "attr", None))
        for node in ast.walk(lemmas) if isinstance(node, ast.Call)
    }
    assert not called & {"fixed_cosets", "build_coset_action"}


def test_group_caches_are_elements_and_context():
    # the only data kept on a PermGroup for its lifetime are its sorted
    # element list and its GroupContext: the class declares no other private
    # field, and no module sets a private attribute on anything but self
    # except those two
    allowed = {"_elements", "_context"}
    paths = sorted(Path(fixitylab.__file__).parent.glob("*.py"))
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in paths}
    group = next(
        node for node in ast.walk(trees["perm.py"])
        if isinstance(node, ast.ClassDef) and node.name == "PermGroup"
    )
    fields = {
        node.target.id for node in group.body
        if isinstance(node, ast.AnnAssign) and node.target.id.startswith("_")
    }
    assert fields == allowed
    set_elsewhere = [
        f"{name}:{node.lineno}"
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
        and node.attr.startswith("_") and node.attr not in allowed
        and not (isinstance(node.value, ast.Name) and node.value.id == "self")
    ]
    assert set_elsewhere == []


def test_perfbench_probes_resolve():
    # the benchmark's tracer wraps the library functions named in its
    # PROBES table; a rename or removal here must not leave a probe dangling
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py"
    )
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    # instrumented() looks every probe up and fails on a dangling one.  The
    # probes must also see the work: a context fills its classes and
    # bundles through the two probed methods when as_context builds it, and
    # the lattice hook counts a lattice once, reading _subgroup_classes
    t = tracer.Tracer()
    with tracer.instrumented(t):
        ctx = enumeration.as_context(zoo.resolve_group("sym_4")[1])
        ctx.subgroup_classes()
        assert t.calls["enumeration.context"] > 0
        assert t.edges[("enumeration.context", "enumeration.context")] == 2
        assert t.counts["enumeration.lattice_classes"] == 11
        ctx.subgroup_classes()
        assert t.counts["enumeration.lattice_classes"] == 11


def test_fixity_survey_script(capsys):
    # the exploration script lists the fixity-4 classes that the lattice
    # search confirms: orders 2 and 6 for psl2_7
    survey = _load_script("fixity_survey")
    assert survey.main(["--groups", "psl2_7"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("psl2_7: order 168, 13 faithful actions")
    assert "  fixity   4:    2 classes  <-- highlighted" in lines
    listed = [line.split() for line in lines if line.startswith("    order")]
    assert [(row[1], row[3], row[5]) for row in listed] == [("2", "84", "8"), ("6", "28", "6")]

    # a subgroup cap of 0 is a usage error, as the CLI's cap flags are
    with pytest.raises(SystemExit) as e:
        survey.main(["--groups", "psl2_7", "--subgroup-cap", "0"])
    assert e.value.code == 2
    assert "positive" in capsys.readouterr().err

    # a cap the lattice exceeds and an unknown group are data errors, as
    # in the CLI: an error line and exit 2, no traceback
    for argv, text in (
        (["--groups", "psl2_7", "--subgroup-cap", "3"], "subgroup-enumeration cap 3"),
        (["--groups", "nosuch"], "nosuch"),
    ):
        assert survey.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and text in captured.err


def test_generator_files_script_keeps_packaged_groups(tmp_path, monkeypatch, capsys):
    # the five constructions build the packaged groups: a rerun leaves each
    # packaged file as it is, and writes a missing or different group anew
    make = _load_script("make_generator_files")
    packaged = Path(fixitylab.__file__).parent / "data"
    names = ["psl3_3", "psu3_3", "psu4_2", "sz8", "m22"]
    for name in names:
        shutil.copy(packaged / f"{name}.grp", tmp_path)
    (tmp_path / "psl3_3.grp").unlink()
    shutil.copy(packaged / "psu3_3.grp", tmp_path / "sz8.grp")
    monkeypatch.setattr(make, "OUT_DIR", tmp_path)
    # an explicit argv: main would otherwise parse pytest's own arguments
    assert make.main([]) == 0
    out = capsys.readouterr().out.splitlines()
    kept = [line.split(":")[0] for line in out if "left as it is" in line]
    assert kept == ["psu3_3", "psu4_2", "m22"]
    for name in names:
        assert (tmp_path / f"{name}.grp").read_bytes() == (packaged / f"{name}.grp").read_bytes()


def test_generator_files_script_reports_a_failed_construction(tmp_path, monkeypatch, capsys):
    # a construction that fails is named on stderr and the script exits 1;
    # the other groups are still built
    make = _load_script("make_generator_files")
    monkeypatch.setattr(make, "OUT_DIR", tmp_path)

    def broken():
        raise GroupDataError("point count 12, expected 13")

    monkeypatch.setattr(make, "make_psl3_3", broken)
    assert make.main([]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("psl3_3: construction failed (point count 12")
    assert "psl3_3" not in captured.out
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "m22.grp", "psu3_3.grp", "psu4_2.grp", "sz8.grp",
    ]


def test_generator_files_script_usage(tmp_path, monkeypatch, capsys):
    # --help prints the usage and builds nothing; an unknown argument exits 2
    make = _load_script("make_generator_files")
    monkeypatch.setattr(make, "OUT_DIR", tmp_path)
    for argv, code in ((["--help"], 0), (["--bogus"], 2)):
        with pytest.raises(SystemExit) as e:
            make.main(argv)
        assert e.value.code == code
    captured = capsys.readouterr()
    assert captured.out.startswith("usage:") and "--bogus" in captured.err
    assert list(tmp_path.iterdir()) == []
