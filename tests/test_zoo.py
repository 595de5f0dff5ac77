import dataclasses
import math
import re

import pytest

from fixitylab.cosets import fixity
from fixitylab.enumeration import _find_element_of_order, is_simple_group, subgroup_closure
from fixitylab.errors import GroupDataError, ParseError, PreconditionError
from fixitylab.perm import Permutation, build_bsgs, orbit_stabilizer, point_stabilizer
from fixitylab.verifier import evaluate_action
from fixitylab import zoo
from fixitylab.zoo import (
    FILE_BACKED,
    GroupSpec,
    _pair_candidates,
    canonical_name,
    dihedral_spec,
    load_group,
    load_spec,
    prime_power,
    resolve_group,
    resolve_spec,
    save_group,
    zoo_names,
)


@pytest.mark.parametrize(
    "selector,order,degree",
    [
        ("sym_5", 120, 5),
        ("alt_6", 360, 6),
        ("cyclic_12", 12, 12),
        ("dihedral_7", 14, 7),
        ("psl2_7", 168, 8),
        ("psl2_8", 504, 9),
        ("psl2_9", 360, 10),
        ("psl2_11", 660, 12),
        ("pgl2_5", 120, 6),
        ("m11", 7920, 11),
        ("m12", 95040, 12),
    ],
)
def test_zoo_orders(selector, order, degree):
    name, g = resolve_group(selector)
    assert name == canonical_name(selector)
    assert g.order == order
    assert g.degree == degree


def test_selector_spellings():
    for sel in ("PSL2(9)", "psl2_9", "PSL2 (9)", "Psl2(9)"):
        assert resolve_group(sel)[0] == "psl2_9"
    assert canonical_name("Sym(4)") == "sym_4"
    with pytest.raises(GroupDataError):
        resolve_group("e8_lattice")


def test_prime_power():
    assert prime_power(8) == (2, 3)
    assert prime_power(27) == (3, 3)
    assert prime_power(7) == (7, 1)
    assert prime_power(12) is None
    assert prime_power(1) is None


def test_constructor_preconditions():
    with pytest.raises(PreconditionError):
        dihedral_spec(2)
    with pytest.raises(PreconditionError):
        resolve_group("psl2_6")


def _orbit_length(g, point):
    tables = g.gen_tables
    return len(orbit_stabilizer(g, point, lambda p, j: tables[j][p])[0])


def test_psl2_transitive_and_simple():
    _, g = resolve_group("psl2_7")
    assert _orbit_length(g, 0) == g.degree
    assert is_simple_group(g)


@pytest.mark.parametrize(
    "name,order,degree",
    [
        ("m22", 443520, 22),
        ("psl3_3", 5616, 13),
        ("psu3_3", 6048, 28),
        ("psu4_2", 25920, 40),
        ("sz8", 29120, 65),
    ],
)
def test_file_backed_groups(name, order, degree):
    _, g = resolve_group(name)
    assert g.order == order
    assert g.degree == degree
    assert _orbit_length(g, 0) == degree


def test_zoo_names_lists_packaged_files():
    names = zoo_names()
    assert "m11" in names and "m12" in names
    for n in FILE_BACKED:
        assert n in names


def test_save_load_round_trip(tmp_path, sym4):
    path = tmp_path / "roundtrip.grp"
    save_group(sym4, path)
    g2 = load_group(path)
    assert g2.order == sym4.order
    assert [p.images for p in g2.generators] == [p.images for p in sym4.generators]


def test_load_spec_errors(tmp_path):
    bad = tmp_path / "bad.grp"

    bad.write_text("order 6\n1 2 3\n")
    with pytest.raises(ParseError):
        load_spec(bad)

    bad.write_text("degree 3\n1 2\n")
    with pytest.raises(ParseError) as e:
        load_spec(bad)
    assert e.value.line == 2

    bad.write_text("degree 3\n1 1 2\n")
    with pytest.raises(ParseError):
        load_spec(bad)

    bad.write_text("")
    with pytest.raises(ParseError):
        load_spec(bad)

    bad.write_bytes(b"# caf\xe9\ndegree 3\n1 2 3\n")
    with pytest.raises(ParseError, match="not UTF-8"):
        load_spec(bad)

    with pytest.raises(GroupDataError):
        load_spec(tmp_path / "missing.grp")


def test_order_pledge_checked(tmp_path):
    path = tmp_path / "wrong.grp"
    path.write_text("degree 3\norder 5\n2 1 3\n")
    with pytest.raises(GroupDataError):
        load_group(path)


def test_comments_and_blank_lines_ignored(tmp_path):
    path = tmp_path / "c.grp"
    path.write_text("# three points\ndegree 3\n\norder 2\n# the swap\n2 1 3\n")
    assert load_group(path).order == 2


def test_env_data_dir(tmp_path, monkeypatch, sym4):
    save_group(sym4, tmp_path / "customgroup.grp")
    monkeypatch.setenv("FIXITYLAB_DATA", str(tmp_path))
    name, g = resolve_group("customgroup")
    assert name == "customgroup" and g.order == 24


def test_path_selector(tmp_path, sym4):
    p = tmp_path / "direct.grp"
    save_group(sym4, p)
    name, g = resolve_group(str(p))
    assert g.order == 24


def test_pgl2_contains_psl2_index_two():
    _, h = resolve_group("psl2_9")
    _, g = resolve_group("pgl2_9")
    assert g.order == 2 * h.order
    assert all(g.contains_table(t) for t in h.gen_tables)


def test_psl2_order_formula():
    for q in (4, 5, 7, 8, 9, 11, 13, 16, 17):
        _, g = resolve_group(f"psl2_{q}")
        assert g.order == q * (q * q - 1) // math.gcd(2, q - 1)


@pytest.mark.parametrize(
    "name",
    [f"psl2_{q}" for q in (8, 9, 16, 17, 25, 27)] + ["m12", "psu4_2", "sz8", "psu3_3"],
)
def test_resolved_group_is_a_generating_pair(name):
    spec = resolve_spec(name)
    assert len(spec.generators) > 2
    whole = build_bsgs(spec.generators, degree=spec.degree)
    g = spec.build()
    assert len(g.generators) == 2
    assert g.order == spec.expected_order == whole.order
    assert all(p in whole for p in g.generators)


@pytest.mark.parametrize("name", ["psu4_2", "psl2_17"])
def test_pair_is_chosen_without_building_the_list(monkeypatch, name):
    # each candidate pair is built once and the listed generators are sifted
    # through its chain; the whole list's chain is never built.  A wrong
    # pledge is reported on the adopted pair's chain with the same text
    sizes = []

    def counted(gens, *args, **kwargs):
        sizes.append(len(gens))
        return build_bsgs(gens, *args, **kwargs)

    monkeypatch.setattr(zoo, "build_bsgs", counted)
    spec = resolve_spec(name)
    g = resolve_group(name)[1]
    tried = [list(p) for p in _pair_candidates(spec.generators)]
    assert sizes == [2] * (tried.index(g.generators) + 1)
    sizes.clear()
    wrong = dataclasses.replace(spec, expected_order=spec.expected_order + 1)
    message = f"{name}: constructed order {g.order}, expected {g.order + 1}"
    with pytest.raises(GroupDataError, match=re.escape(message)):
        wrong.build()
    assert sizes == [2] * (tried.index(g.generators) + 1)


def test_group_with_no_generating_pair_keeps_its_list():
    # C2 x C2 x C2: any two elements generate at most four of the eight
    gens = [Permutation.from_cycles(6, [(i, i + 1)]) for i in (0, 2, 4)]
    g = GroupSpec("c2_cubed", 6, gens, 8).build()
    assert g.order == 8 and g.generators == gens


@pytest.mark.parametrize("name", ["m11", "m22"])
def test_two_generator_spec_is_kept_verbatim(name):
    spec = resolve_spec(name)
    assert len(spec.generators) == 2
    assert spec.build().generators == spec.generators


def _c5_of_psu4_2(g):
    # the element the packaged list's word search finds, in either presentation
    spec_group = build_bsgs(resolve_spec("psu4_2").generators)
    y = Permutation(_find_element_of_order(spec_group, 5), _trusted=True)
    return subgroup_closure(g, [y])


@pytest.mark.parametrize(
    "name,stabilizer,descriptor",
    [
        ("psu4_2", _c5_of_psu4_2, "C5"),
        ("m12", lambda g: point_stabilizer(g, 0), "M11"),
    ],
    ids=["psu4_2_c5", "m12_m11"],
)
def test_pair_and_spec_list_judge_the_action_alike(name, stabilizer, descriptor):
    # the same action G/U judged on the spec's generator list and on the pair
    spec = resolve_spec(name)
    judged = []
    for g in (build_bsgs(spec.generators), spec.build()):
        ev = evaluate_action(fixity(g, stabilizer(g)), descriptor)
        judged.append((ev.report.fixity, ev.report.bundle_fixes, ev.sylow3_case, ev.failures))
    assert judged[0] == judged[1]
    assert judged[0][0] == 4 and judged[0][2] is not None and judged[0][3] == []
