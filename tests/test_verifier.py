import json
from collections import Counter
from dataclasses import asdict, replace
from pathlib import Path

import pytest

import fixitylab.cosets
import fixitylab.enumeration
import fixitylab.verifier
from fixitylab.cosets import (
    Caps,
    build_coset_action,
    fixed_cosets,
)
from fixitylab.enumeration import (
    GroupContext,
    as_context,
    cyclic_orbit,
    subgroup_closure,
    sylow,
)
from fixitylab.errors import (
    CapExceededError,
    FalsificationError,
    GroupDataError,
    PreconditionError,
)
from fixitylab.ffield import p_part
from fixitylab.perm import (
    Permutation,
    build_bsgs,
    compose_tables,
    conjugate_table,
    identity_table,
    invert_table,
    orbit_partition,
    orbit_stabilizer,
    orbit_walk,
    pack_table,
    point_stabilizer,
    table_order,
)
from fixitylab.verifier import (
    StructuralChecks,
    Sylow3Classification,
    _build_stabilizer,
    _find_element_of_order,
    _is_maximal_class,
    _missing_sylow,
    _normal_sylow,
    catalog_report_json,
    check_order27_lemma,
    check_psl2_family,
    check_structural_lemmas,
    classify_sylow3_orbits,
    descriptor_matches,
    descriptor_order,
    evaluate_action,
    load_claims,
    match_descriptors,
    run_claim,
    run_claim_catalog,
    search_fixity_k,
)
from fixitylab.zoo import GroupSpec, psl2_spec, resolve_group
from oracles import normalizer_brute, subgroup_from_tables


def _perm_mod(images):
    return Permutation(pack_table(images))


def _gen_dihedral_9():
    # (C3 x C3) : C2 with the complement inverting; point (a, b) at a + 3b
    def on_pairs(f):
        return _perm_mod([f(i % 3, i // 3) for i in range(9)])

    t1 = on_pairs(lambda a, b: (a + 1) % 3 + 3 * b)
    t2 = on_pairs(lambda a, b: a + 3 * ((b + 1) % 3))
    neg = on_pairs(lambda a, b: (-a) % 3 + 3 * ((-b) % 3))
    g = build_bsgs([t1, t2, neg])
    assert g.order == 18
    return g


def _frobenius_13_3():
    add = _perm_mod([(i + 1) % 13 for i in range(13)])
    mul = _perm_mod([(3 * i) % 13 for i in range(13)])
    g = build_bsgs([add, mul])
    assert g.order == 39
    return g


def test_descriptor_order():
    assert descriptor_order("C5") == 5
    assert descriptor_order("D18") == 18
    assert descriptor_order("C3xC3") == 9
    assert descriptor_order("C13:C3") == 39
    assert descriptor_order("(C5xC5):C6") == 150
    assert descriptor_order("S3") == 6
    assert descriptor_order("A4") == 12
    assert descriptor_order("A5") == 60
    assert descriptor_order("A6") == 360
    assert descriptor_order("PSL2(11)") == 660
    assert descriptor_order("M11") == 7920
    assert descriptor_order("((C3xC3):C3):C8") == 216
    with pytest.raises(GroupDataError):
        descriptor_order("Q8")


def test_descriptor_matches_cyclic_vs_dihedral(group_cache):
    c6 = group_cache("cyclic_6")
    s3 = group_cache("sym_3")
    assert descriptor_matches("C6", c6)
    assert not descriptor_matches("C6", s3)
    assert descriptor_matches("S3", s3)
    assert not descriptor_matches("S3", c6)
    assert descriptor_matches("D6", s3)
    # order gate comes first
    assert not descriptor_matches("C5", c6)


def test_descriptor_same_order_disambiguation(group_cache):
    # two order-18 groups told apart by kernel shape and exponent
    d18 = group_cache("dihedral_9")
    gd = _gen_dihedral_9()
    assert descriptor_matches("D18", d18)
    assert not descriptor_matches("D18", gd)
    assert descriptor_matches("(C3xC3):C2", gd)
    assert not descriptor_matches("(C3xC3):C2", d18)

    # two order-39 groups told apart by the Frobenius split
    f39 = _frobenius_13_3()
    c39 = group_cache("cyclic_39")
    assert descriptor_matches("C13:C3", f39)
    assert not descriptor_matches("C13:C3", c39)
    assert descriptor_matches("C39", c39)
    assert not descriptor_matches("C39", f39)


def test_descriptor_matches_named(group_cache):
    assert descriptor_matches("A4", group_cache("alt_4"))
    assert not descriptor_matches("A4", group_cache("dihedral_6"))
    assert descriptor_matches("A5", group_cache("alt_5"))
    assert not descriptor_matches("A5", group_cache("cyclic_60"))


def test_elementary_abelian_descriptor():
    gd = _gen_dihedral_9()
    translations = next(
        sc for sc in as_context(gd).subgroup_classes() if sc.order == 9
    )
    assert descriptor_matches("C3xC3", translations.representative)
    assert not descriptor_matches("C3xC3", resolve_group("cyclic_9")[1])


def test_match_descriptors(group_cache):
    groups = [group_cache("cyclic_6"), group_cache("sym_3")]
    assert match_descriptors(["S3", "C6"], groups) == [1, 0]
    assert match_descriptors(["C6", "S3"], groups) == [0, 1]
    assert match_descriptors(["C6", "C6"], groups) is None
    assert match_descriptors(["C6"], groups) is None


def test_normal_sylow(sym4, group_cache):
    norm, syl = _normal_sylow(sym4, 2)
    assert not norm and syl.order == 8
    norm, syl = _normal_sylow(group_cache("alt_4"), 2)
    assert norm and syl.order == 4 and as_context(syl).predicates.is_elementary_abelian


def test_search_fixity_4_psl2_7(group_cache):
    g = group_cache("psl2_7")
    hits = search_fixity_k(g, 4)
    assert [(h.subgroup_class.order, h.degree) for h in hits] == [(2, 84), (6, 28)]
    assert all(h.report.fixity == 4 for h in hits)
    again = search_fixity_k(g, 4)
    assert [h.subgroup_class.canonical for h in hits] == [
        h.subgroup_class.canonical for h in again
    ]
    groups = [h.subgroup_class.representative for h in hits]
    assert match_descriptors(["C2", "S3"], groups) == [0, 1]


def test_search_excludes_non_faithful(sym4):
    # k = 2: transitive actions where some element fixes exactly 2 cosets;
    # every reported degree exceeds 2 and every report is confirmed
    for h in search_fixity_k(sym4, 2):
        assert h.degree > 2
        assert h.report.fixity == 2


def test_structural_checks_precondition(sym4):
    with pytest.raises(PreconditionError):
        check_structural_lemmas(fixitylab.cosets.fixity(sym4, point_stabilizer(sym4, 0)))


def test_structural_checks_on_fixity4(psl2_9):
    hits = search_fixity_k(psl2_9, 4)
    assert [h.subgroup_class.order for h in hits] == [2, 6, 6, 9, 10, 18]
    h = hits[0]
    checks = check_structural_lemmas(h.report)
    assert checks.ok
    assert checks.failures == []
    assert h.report.stabilizer.order == 2
    assert h.degree == 180
    assert checks.four_point_order >= 2
    assert checks.ti_samples > 0
    assert checks.h_normalizer_index in (2, 4)
    assert all(idx <= 4 for _, idx in checks.cyclic_indices)


def test_sylow3_cases(psl2_9, group_cache):
    hits = search_fixity_k(psl2_9, 4)
    by_order = {h.subgroup_class.order: h for h in hits}
    cls = classify_sylow3_orbits(psl2_9, by_order[18].report.stabilizer)
    assert cls.case == "e"
    assert cls.p_order == 9
    assert cls.delta_size == 2
    assert cls.orbit_sizes == ((1, 2), (9, 2))
    cls2 = classify_sylow3_orbits(psl2_9, by_order[2].report.stabilizer)
    assert cls2.case == "a"
    assert cls2.delta_size == 0

    # cyclic C9 on cosets of C3: unique length-3 orbit, nothing else
    c9 = group_cache("cyclic_9")
    u3 = subgroup_closure(c9, [c9.generators[0] ** 3])
    assert u3.order == 3
    d = classify_sylow3_orbits(c9, u3)
    assert d.case == "d" and d.delta_size == 3


def _sylow3_by_elements(g, u, action):
    """Oracle: the per-element Sylow-3 classifier.  Every element of P gets
    its coset row, walked out as products inside the coset space, and the
    case-(c) test looks at every point of every non-regular orbit."""
    ctx = as_context(g)
    p_order = p_part(ctx.n, 3)
    assert p_order > 1
    p_grp = sylow(g, 3)
    p_gens, p_tables = p_grp.gen_tables, p_grp.element_tables()
    gen_rows = [
        [action.coset_of(compose_tables(r, gt)) for r in action.canonical_reps]
        for gt in p_gens
    ]
    ident = identity_table(g.degree)
    rows = {ident: list(range(action.degree))}
    queue = [ident]
    while queue:
        cur = queue.pop()
        for gt, grow in zip(p_gens, gen_rows):
            nxt = compose_tables(cur, gt)
            if nxt not in rows:
                rows[nxt] = [grow[i] for i in rows[cur]]
                queue.append(nxt)
    assert len(rows) == p_order
    _, orbits = orbit_partition(action.degree, [rows[gt] for gt in p_gens])
    delta = [o for o in orbits if len(o) <= 3]
    delta_size = sum(len(o) for o in delta)
    outside = [o for o in orbits if len(o) > 3]
    sizes = tuple(sorted(Counter(len(o) for o in orbits).items()))

    def case_c() -> bool:
        nonreg = [o for o in outside if len(o) < p_order]
        if not nonreg:
            return False
        for lam in nonreg:
            for pt in lam:
                stab = [t for t in p_tables if rows[t][pt] == pt]
                if len(stab) != 3:
                    return False
                if sum(1 for mu in lam if all(rows[t][mu] == mu for t in stab)) != 3:
                    return False
        return True

    if all(len(o) == p_order for o in orbits) and u.order % 3:
        case = "a"
    elif delta_size > 4 and p_order <= 9:
        case = "b"
    elif delta_size <= 4 and _is_maximal_class(g.degree, p_tables, 3) and case_c():
        case = "c"
    elif len(delta) == 1 and len(delta[0]) == 3 and all(len(o) == p_order for o in outside):
        case = "d"
    elif (
        1 <= delta_size <= 4
        and any(len(o) == 1 for o in delta)
        and all(len(o) == p_order for o in outside)
    ):
        case = "e"
    else:
        case = None
    return Sylow3Classification(case, p_order, delta_size, sizes)


def test_sylow3_matches_the_per_element_classifier(group_cache):
    # the classifier reads the orbits off P's generators and tests case (c)
    # at one point per orbit; the oracle walks every element of P and tests
    # every point
    pairs = [
        (g, h.subgroup_class.representative, h.report)
        for g in map(group_cache, ["psl2_7", "psl2_8", "psl2_9", "psl2_11", "psl2_13"])
        for h in search_fixity_k(g, 4)
    ]
    m12 = group_cache("m12")
    u = point_stabilizer(m12, 0)
    pairs.append((m12, u, fixitylab.cosets.fixity(m12, u)))
    cases = []
    for g, u, report in pairs:
        got = classify_sylow3_orbits(g, u)
        assert got == _sylow3_by_elements(g, u, build_coset_action(g, u))
        cases.append(got.case)
    assert cases[-1] == "c"
    assert len(pairs) > 10 and {"a", "b", "e"} <= set(cases)


def test_sylow3_matches_the_per_element_classifier_on_every_action(group_cache):
    # P of psl3_3 is extraspecial of order 27, so of maximal class: case (c)
    # is tested on many of its actions and fails on most of them
    g = group_cache("psl3_3")
    cases = []
    for sc in as_context(g).subgroup_classes()[1:-1]:
        u = sc.representative
        action = build_coset_action(g, u)
        want = _sylow3_by_elements(g, u, action)
        if want.case is None:
            with pytest.raises(FalsificationError):
                classify_sylow3_orbits(g, u)
        else:
            assert classify_sylow3_orbits(g, u) == want
        cases.append(want.case)
    assert {None, "a", "c"} == set(cases)


def test_sylow3_no_case_is_falsification(group_cache):
    c27 = group_cache("cyclic_27")
    u = subgroup_closure(c27, [c27.generators[0] ** 9])
    assert u.order == 3
    with pytest.raises(FalsificationError):
        classify_sylow3_orbits(c27, u)


def _sylow3_by_rows(action):
    """Oracle: the orbit-based classifier as it stood before case (a) was
    read from |U|, for an action with 3 not dividing |U|.  The P-orbits come
    from the coset rows of P's generators, and case (a) needs every one of
    them regular."""
    g, u = action.group, action.stabilizer
    p_order = p_part(g.order, 3)
    p_gens = sylow(g, 3).gen_tables if p_order > 1 else []
    rows = [[action.image(c, t) for c in range(action.degree)] for t in p_gens]
    _, orbits = orbit_partition(action.degree, rows)
    delta_size = sum(len(o) for o in orbits if len(o) <= 3)
    sizes = tuple(sorted(Counter(len(o) for o in orbits).items()))
    regular = all(len(o) == p_order for o in orbits)
    return Sylow3Classification("a" if regular and u.order % 3 else None, p_order, delta_size, sizes)


def test_sylow3_case_a_from_u_matches_the_orbits(monkeypatch):
    # every packaged stabilizer and family action with 3 not dividing |U|
    # (m12's U = M11 has order 7920, so it takes the orbit route, and m22's
    # rows, above the element cap, are not classified); the classifier
    # answers from |U| alone, without a Sylow subgroup or a coset action,
    # and must equal the classification its orbits give
    ids = ["psu4_2_stabs", "sz8_stabs"] + [f"psl2_family_q{q}" for q in (17, 19, 27, 29, 31, 41)]
    catalog = Path(fixitylab.verifier.__file__).parent / "data" / "claims.json"
    claims = {c["id"]: c for c in load_claims(catalog)}
    seen = []
    classify = fixitylab.verifier.classify_sylow3_orbits

    def recorded(g, u, caps=Caps()):
        seen.append((g, u, classify(g, u, caps)))
        return seen[-1][2]

    def refuse(*args, **kwargs):
        raise AssertionError("case (a) needs no Sylow subgroup and no coset action")

    monkeypatch.setattr(fixitylab.verifier, "classify_sylow3_orbits", recorded)
    monkeypatch.setattr(fixitylab.verifier, "sylow", refuse)
    monkeypatch.setattr(fixitylab.verifier, "build_coset_action", refuse)
    assert all(run_claim(claims[cid]).verdict == "PASS" for cid in ids)
    monkeypatch.undo()
    assert len(seen) == 12
    p_orders = set()
    for g, u, got in seen:
        assert u.order % 3
        assert got == _sylow3_by_rows(build_coset_action(g, u))
        p_orders.add(got.p_order)
    assert {1, 3, 9, 27, 81} <= p_orders


def test_coset_actions_are_built_only_for_the_sylow3_orbits(monkeypatch, group_cache):
    # fixity and the lemmas read no coset: the only actions a claim builds
    # are the Sylow-3 classifier's, one per row with 3 dividing |U|, and
    # only the classifier asks for a list of fixed cosets (case (c), on m12)
    built, asked, inside = [], [], []
    classify = fixitylab.verifier.classify_sylow3_orbits
    build, fixed = fixitylab.cosets.build_coset_action, fixitylab.cosets.fixed_cosets

    def classifying(g, u, caps=Caps()):
        inside.append(True)
        try:
            return classify(g, u, caps)
        finally:
            inside.pop()

    def counted_build(g, u, *args):
        assert inside, "a coset action built outside the Sylow-3 classifier"
        built.append(u.order)
        return build(g, u, *args)

    def counted_fixed(action, t):
        assert inside, "fixed cosets asked for outside the Sylow-3 classifier"
        asked.append(action.stabilizer.order)
        return fixed(action, t)

    monkeypatch.setattr(fixitylab.verifier, "classify_sylow3_orbits", classifying)
    for module in (fixitylab.cosets, fixitylab.verifier):
        monkeypatch.setattr(module, "build_coset_action", counted_build)
        monkeypatch.setattr(module, "fixed_cosets", counted_fixed)
    rows, failures = check_psl2_family(25)
    assert [r["order"] for r in rows] == [6, 150] and not failures
    m12 = group_cache("m12")
    ev = evaluate_action(fixitylab.cosets.fixity(m12, point_stabilizer(m12, 0)), "M11")
    assert ev.ok and ev.sylow3_case == "c"
    assert built == [6, 150, 7920]
    assert asked and set(asked) == {7920}


def test_order27_lemma():
    rows = check_order27_lemma()
    assert all(r["ok"] for r in rows)
    assert len(rows) == 8
    names = [r["group"] for r in rows]
    assert names.count("exponent3") == 4
    assert names.count("exponent9") == 4
    assert all(r["elements_checked"] > 0 for r in rows)


def test_find_element_of_order(sym4, alt5):
    t = _find_element_of_order(sym4, 4)
    assert table_order(t) == 4
    assert _find_element_of_order(sym4, 4) == t
    assert table_order(_find_element_of_order(alt5, 5)) == 5
    with pytest.raises(GroupDataError):
        _find_element_of_order(sym4, 7)


def test_find_element_of_order_stopped_by_the_cap(group_cache):
    # a word search cut short by the element cap is a cap, not bad data
    sym5 = group_cache("sym_5")
    with pytest.raises(CapExceededError):
        _find_element_of_order(sym5, 6, 3)
    assert table_order(_find_element_of_order(sym5, 6, 120)) == 6
    claim = {
        "id": "c",
        "mode": "stabilizers",
        "group": "sym_5",
        "stabilizers": [{"source": "cyclic_search:6", "descriptor": "C6"}],
        "caps": {"elements": 3},
    }
    r = run_claim(claim)
    assert r.verdict == "SKIPPED" and "words" in r.detail


def test_build_stabilizer(sym4, alt5):
    u = _build_stabilizer(sym4, "point_stabilizer:1", Caps())
    assert u.order == 6
    assert all(t[1] == 1 for t in u.element_tables())

    u = _build_stabilizer(sym4, "cyclic_least:4", Caps())
    assert u.order == 4

    u = _build_stabilizer(alt5, "cyclic_search:5", Caps())
    assert u.order == 5

    u = _build_stabilizer(alt5, "cyclic_normalizer_search:5", Caps())
    assert u.order == 10

    with pytest.raises(GroupDataError):
        _build_stabilizer(sym4, "frobenius:3", Caps())
    with pytest.raises(GroupDataError):
        _build_stabilizer(sym4, "cyclic_least:11", Caps())


def test_run_claim_search_pass():
    r = run_claim(
        {"id": "c", "mode": "search", "group": "psl2_7", "expected": ["C2", "S3"]}
    )
    assert r.verdict == "PASS"
    assert [row["order"] for row in r.rows] == [2, 6]
    assert {row["descriptor"] for row in r.rows} == {"C2", "S3"}
    assert all("sylow3_case" in row for row in r.rows)


def test_run_claim_search_fail_orders():
    r = run_claim(
        {"id": "c", "mode": "search", "group": "psl2_7", "expected": ["C4", "S3"]}
    )
    assert r.verdict == "FAIL"
    assert "orders" in r.detail


def test_run_claim_none_with_hits():
    r = run_claim({"id": "c", "mode": "search", "group": "psl2_7", "expected": "none"})
    assert r.verdict == "FAIL"


def test_run_claim_missing_group_skips():
    r = run_claim({"id": "c", "mode": "search", "group": "j9", "expected": "none"})
    assert r.verdict == "SKIPPED"
    assert "resolve" in r.detail


def test_run_claim_wrong_order_pledge_fails(tmp_path, monkeypatch):
    (tmp_path / "swap3.grp").write_text("degree 3\norder 5\n2 1 3\n")
    monkeypatch.setenv("FIXITYLAB_DATA", str(tmp_path))
    r = run_claim({"id": "c", "mode": "search", "group": "swap3", "expected": "none"})
    assert r.verdict == "FAIL"
    assert "expected 5" in r.detail


def test_run_claim_missing_element_fails():
    # psl2_7 has no element of order 5
    r = run_claim(
        {
            "id": "c",
            "mode": "stabilizers",
            "group": "psl2_7",
            "stabilizers": [{"source": "cyclic_search:5", "descriptor": "C5"}],
        }
    )
    assert r.verdict == "FAIL"
    assert "order divisible by 5" in r.detail


def test_run_claim_point_out_of_range_fails():
    # a point beyond the group's degree is bad data found at run time, so the
    # claim FAILs; the last point still builds its row
    g = resolve_group("psl2_7")[1]
    degree = g.degree

    def claim(source):
        stabs = [{"source": source, "descriptor": "C7:C3"}]
        return {"id": "c", "mode": "stabilizers", "group": "psl2_7", "stabilizers": stabs}

    r = run_claim(claim(f"point_stabilizer:{degree}"))
    assert r.verdict == "FAIL" and r.rows == []
    assert r.detail == f"point_stabilizer:{degree}: the group acts on points 0..{degree - 1}"
    last = run_claim(claim(f"point_stabilizer:{degree - 1}"))
    assert [row["order"] for row in last.rows] == [g.order // degree]
    # run_claim takes claims that no loader checked
    bad = run_claim(claim("cyclic_search:0"))
    assert bad.verdict == "FAIL" and "is not a stabilizer recipe" in bad.detail


def test_run_claim_documented_skips():
    r = run_claim({"id": "c", "mode": "documented", "note": "out of scope"})
    assert r.verdict == "SKIPPED"
    assert r.detail == "out of scope"


def test_run_claim_cap_exceeded_skips():
    r = run_claim(
        {
            "id": "c",
            "mode": "search",
            "group": "m11",
            "expected": "none",
            "caps": {"elements": 100},
        }
    )
    assert r.verdict == "SKIPPED"
    assert "cap" in r.detail


def test_run_claim_stabilizers():
    ok = run_claim(
        {
            "id": "c",
            "mode": "stabilizers",
            "group": "alt_6",
            "stabilizers": [{"source": "cyclic_least:2", "descriptor": "C2"}],
        }
    )
    assert ok.verdict == "PASS"
    assert ok.rows[0]["fixity"] == 4

    bad = run_claim(
        {
            "id": "c",
            "mode": "stabilizers",
            "group": "alt_6",
            "stabilizers": [{"source": "cyclic_least:5", "descriptor": "C5"}],
        }
    )
    assert bad.verdict == "FAIL"
    assert "fixity 2" in bad.detail

    # run_claim takes claims that no loader checked; one that lists no
    # stabilizers runs no check, so it cannot PASS
    empty = run_claim({"id": "c", "mode": "stabilizers", "group": "alt_6", "stabilizers": []})
    assert empty.verdict == "FAIL" and empty.rows == []
    assert "no stabilizers" in empty.detail


def test_stabilizer_claim_on_the_slow_path():
    # psl2_13 has 1092 elements; under a cap of 1000 fixity and descriptor
    # are checked, and the lemmas and the Sylow-3 case, which run only
    # within the element cap, are not
    claim = {
        "id": "c",
        "mode": "stabilizers",
        "group": "psl2_13",
        "stabilizers": [{"source": "cyclic_search:3", "descriptor": "C3"}],
    }
    slow = run_claim({**claim, "caps": {"elements": 1000}})
    assert slow.verdict == "PASS"
    assert slow.rows[0]["fixity"] == 4
    assert "sylow3_case" not in slow.rows[0]
    fast = run_claim(claim)
    assert fast.verdict == "PASS"
    assert fast.rows[0]["sylow3_case"] == "b"
    assert {k: v for k, v in fast.rows[0].items() if k != "sylow3_case"} == slow.rows[0]

    g = resolve_group("psl2_13")[1]
    caps = Caps(elements=1000)
    u = _build_stabilizer(g, "cyclic_search:3", caps)
    report = fixitylab.cosets.fixity(g, u, caps)
    assert report.fixity == 4
    ev = evaluate_action(report, "C3", caps=caps)
    assert ev.sylow3_case is None and ev.failures == []
    assert not ev.ok


def _coset_stabilizer(action, i):
    """Tables of the stabilizer r_i^-1 U r_i of coset i."""
    r = action.canonical_reps[i]
    return [conjugate_table(t, r) for t in action.stabilizer.element_tables()]


def _four_point_stabilizer(action, witness):
    """Sorted tables of the elements fixing every coset the witness fixes."""
    fixed = fixed_cosets(action, witness)
    h_set = set(_coset_stabilizer(action, fixed[0]))
    for lam in fixed[1:]:
        h_set &= set(_coset_stabilizer(action, lam))
    return sorted(h_set)


def _forged_sym7_report(group_cache):
    """Sym(7) on 7 points has fixity 5; this report claims fixity 4 with the
    least 3-cycle (4 5 6) of U = Stab(0) as witness, the representative of
    its U-bundle: it fixes the four points 0-3, and H = Sym{4, 5, 6}, whose
    transpositions fix five."""
    g = group_cache("sym_7")
    report = fixitylab.cosets.fixity(g, point_stabilizer(g, 0))
    assert report.fixity == 5
    return replace(report, fixity=4, witness=_perm_mod([0, 1, 2, 3, 5, 6, 4]).images)


def _lemmas_on_the_action(report):
    """The structural lemmas computed on the coset action and G, as an
    oracle: (i) from |G| over the length of each <y>'s conjugation orbit,
    H as the intersection of the four r^-1 U r, (ii) from the fixed cosets
    of each h in H, and (iv) from the orbits of N_G(H), the stabilizer of
    the 4-set F in G, on F."""
    g, u = report.group, report.stabilizer
    action = build_coset_action(g, u)
    failures = []
    u_ctx = as_context(u)
    cyclic_indices = []
    for b in u_ctx.bundles:
        rec = cyclic_orbit(g, u_ctx.elements[b.rep_index])
        idx, rest = divmod(g.order // rec.length, b.normalizer_order)
        assert rest == 0
        cyclic_indices.append((b.element_order, idx))
        if idx > 4:
            failures.append(f"|N_G(Y):N_U(Y)| = {idx} > 4 for cyclic Y of order {b.element_order}")
    failures += _missing_sylow("stabilizer", u.order, g.order)
    fixed = fixed_cosets(action, report.witness)
    h_tables = _four_point_stabilizer(action, report.witness)
    failures += _missing_sylow("four-point stabilizer", len(h_tables), g.order)
    ti_samples = 0
    for h in h_tables[1:]:
        ti_samples += 1
        fixed_h = fixed_cosets(action, h)
        if fixed_h != fixed:
            failures.append(
                f"TI not shown: an element of order {table_order(h)} in H "
                f"fixes {len(fixed_h)} cosets, more than the fixity 4"
            )
            break
    img = [p.images for p in action.images]
    ngh = orbit_stabilizer(g, frozenset(fixed), lambda s, j: frozenset(img[j][c] for c in s))[1]
    n_gens = ngh.gen_tables
    indices = []
    for lam in fixed:
        idx = len(orbit_walk(lam, lambda c, j: action.image(c, n_gens[j]), len(n_gens))[0])
        assert ngh.order % idx == 0
        indices.append(idx)
        if idx not in (2, 4):
            failures.append(
                f"|N_G(H):N_{{G_a}}(H)| = {idx} for a fixed point of H, expected 2 or 4"
            )
    return StructuralChecks(
        cyclic_indices=cyclic_indices,
        four_point_order=len(h_tables),
        ti_samples=ti_samples,
        h_normalizer_index=indices[0],
        failures=failures,
    )


@pytest.mark.parametrize("name", ["psl2_7", "psl2_9", "psl2_11", "psl2_13", "sym_7"])
def test_h_normalizer_index_matches_brute_force(group_cache, name):
    # lemma (iv) reads |N_G(H) : N_{G_a}(H)| from the U-classes of the four
    # conjugates of H inside U; the oracle intersects an enumerated N_G(H)
    # with the enumerated stabilizer G_a of the first fixed coset, U itself
    g = group_cache(name)
    if name == "sym_7":
        reports = [_forged_sym7_report(group_cache)]
    else:
        reports = [h.report for h in search_fixity_k(g, 4)]
    indices = []
    for report in reports:
        action = build_coset_action(g, report.stabilizer)
        fixed = fixed_cosets(action, report.witness)
        assert fixed[0] == 0
        h_tables = _four_point_stabilizer(action, report.witness)
        assert len(h_tables) >= 2
        h_sub = subgroup_from_tables(g, h_tables, target_order=len(h_tables))
        ngh = normalizer_brute(g, h_sub)
        g_a = frozenset(_coset_stabilizer(action, fixed[0]))
        inside = sum(1 for t in ngh.element_tables() if t in g_a)
        indices.append(ngh.order // inside)
        checks = check_structural_lemmas(report)
        assert checks.four_point_order == len(h_tables)
        assert checks.h_normalizer_index == indices[-1]
    assert indices
    if name == "sym_7":
        # N_G(H) = Sym{0, 1, 2} x Sym{3, 4, 5, 6} moves the four fixed points
        assert indices == [4]


def _recording_lemmas(monkeypatch):
    """The list each call of the verifier's lemma checks appends its
    (report, checks) to."""
    seen = []

    def recording(report, caps=fixitylab.verifier.DEFAULT_CAPS):
        checks = check_structural_lemmas(report, caps)
        seen.append((report, checks))
        return checks

    monkeypatch.setattr(fixitylab.verifier, "check_structural_lemmas", recording)
    return seen


def test_four_point_stabilizer_holds_the_witness(monkeypatch):
    # the witness fixes each of the four cosets it cuts out, so it lies in
    # H and H != 1: lemmas (ii)-(iv) always run, and (iv) always gives the
    # normalizer index; checked on every fixity-4 action of five claims
    seen = _recording_lemmas(monkeypatch)
    catalog = Path(fixitylab.__file__).parent / "data" / "claims.json"
    claims = {c["id"]: c for c in load_claims(catalog)}
    for cid in ("psl2_7_search", "psl2_13_search", "m12_stabs", "psl2_family_q17",
                "psl2_family_q25"):
        assert run_claim(claims[cid]).verdict == "PASS"
    assert len(seen) == 2 + 3 + 1 + 2 + 2
    for report, checks in seen:
        witness = report.witness
        h_tables = _four_point_stabilizer(build_coset_action(report.group, report.stabilizer), witness)
        assert witness in h_tables
        assert checks.four_point_order == len(h_tables) >= 2
        assert checks.h_normalizer_index in (2, 4)


def test_lemmas_match_the_action_oracle(monkeypatch, group_cache):
    # every fixity-4 report the packaged catalog produces within the element
    # cap, the forged Sym(7) report, whose H is not TI, and the seven of
    # Sym(5) give the same checks field by field as the lemmas computed on
    # the coset action and G.  In Sym(5) on the cosets of U = S3 x C2 the
    # witness's G-class meets U in two U-classes, so two carriers start the
    # walks to the four cosets; Sym(5) is not simple, and that action fails
    # lemma (iv)
    seen = _recording_lemmas(monkeypatch)
    catalog = Path(fixitylab.__file__).parent / "data" / "claims.json"
    results = run_claim_catalog(catalog)
    assert Counter(r.verdict for r in results) == {"PASS": 26, "SKIPPED": 10}
    assert len(seen) == 41
    forged = _forged_sym7_report(group_cache)
    sym5 = [h.report for h in search_fixity_k(group_cache("sym_5"), 4)]
    seen += [(r, check_structural_lemmas(r)) for r in [forged, *sym5]]
    for report, checks in seen:
        assert asdict(checks) == asdict(_lemmas_on_the_action(report))
    assert not seen[41][1].ok
    two = [
        checks for report, checks in seen[42:]
        if sum(r is report.orbits[report.bundle_fixes.index(4)] for r in report.orbits) == 2
    ]
    assert len(seen) == 49 and len(two) == 1
    assert two[0].h_normalizer_index == 3 and not two[0].ok


def test_lemmas_walk_no_orbit_of_g(monkeypatch, group_cache):
    # the lemmas read U's context and the report's counts and walks per
    # U-bundle: with every coset action, fixed-coset list, conjugation walk
    # and orbit-stabilizer walk refused, they give the same checks on m12's
    # M11 row and on both psl2_family_q37 rows, while the action-based
    # oracle cannot run
    m12 = group_cache("m12")
    reports = [fixitylab.cosets.fixity(m12, point_stabilizer(m12, 0))]
    with monkeypatch.context() as m:
        seen = _recording_lemmas(m)
        rows, failures = check_psl2_family(37)
    assert failures == [] and [r["descriptor"] for r in rows] == ["C9", "C37:C9"]
    reports += [report for report, _ in seen]

    def refuse(*args, **kwargs):
        raise AssertionError("the lemmas reached for G's action")

    for report in reports:
        want = check_structural_lemmas(report)
        assert want.ok
        with monkeypatch.context() as m:
            m.setattr(fixitylab.cosets.CosetAction, "image", refuse)
            m.setattr(fixitylab.enumeration, "cyclic_conjugation", refuse)
            for name in ("build_coset_action", "fixed_cosets", "orbit_stabilizer"):
                m.setattr(fixitylab.verifier, name, refuse)
            assert asdict(check_structural_lemmas(report)) == asdict(want)
            with pytest.raises(AssertionError, match="reached for G"):
                _lemmas_on_the_action(report)


def test_ti_matches_every_conjugator(group_cache):
    # lemma (ii) decides TI from the fixed cosets of H's elements; the
    # oracle intersects H with its conjugate by every element of G
    pairs = [
        (g, h.subgroup_class.representative, h.report)
        for g in map(group_cache, ["psl2_7", "psl2_9", "psl2_11", "psl2_13"])
        for h in search_fixity_k(g, 4)
    ]
    m12 = group_cache("m12")
    u = point_stabilizer(m12, 0)
    pairs.append((m12, u, fixitylab.cosets.fixity(m12, u)))
    nontrivial = 0
    for g, u, report in pairs:
        h_tables = _four_point_stabilizer(build_coset_action(g, u), report.witness)
        checks = check_structural_lemmas(report)
        assert checks.failures == []
        assert checks.four_point_order == len(h_tables)
        assert checks.ti_samples == len(h_tables) - 1
        assert len(h_tables) >= 2
        nontrivial += 1
        h_set = set(h_tables)
        for s in as_context(g).elements:
            inter = sum(conjugate_table(h, s) in h_set for h in h_tables)
            assert inter in (1, len(h_tables))
    assert nontrivial > 5


def test_ti_failure_names_the_element(group_cache):
    # the forged Sym(7) report makes H = Sym{4, 5, 6}, whose least
    # non-identity element, the transposition (5 6), fixes 5 cosets, so
    # lemma (ii) fails on its first sample; N_G(H) = Sym{0, 1, 2, 3} x H
    # moves the four fixed points, so the index is 4
    checks = check_structural_lemmas(_forged_sym7_report(group_cache))
    assert checks.four_point_order == 6
    ti = [f for f in checks.failures if f.startswith("TI")]
    assert ti == ["TI not shown: an element of order 2 in H fixes 5 cosets, more than the fixity 4"]
    assert checks.ti_samples == 1
    assert checks.h_normalizer_index == 4


def test_lemmas_need_the_witness_to_start_its_walk(group_cache):
    # the four cosets are read from the walk that the witness started, so a
    # witness that is no U-bundle representative, or that represents a
    # later U-bundle of a G-class already walked, is refused
    report = _forged_sym7_report(group_cache)
    for witness in ([1, 2, 0, 3, 4, 5, 6], [0, 1, 2, 3, 6, 4, 5]):
        with pytest.raises(PreconditionError, match="witness"):
            check_structural_lemmas(replace(report, witness=_perm_mod(witness).images))
    g = group_cache("alt_7")
    klein = next(
        sc.representative for sc in as_context(g).subgroup_classes()
        if sc.order == 4 and not as_context(sc.representative).predicates.is_cyclic
        and len(set(map(id, fixitylab.cosets.fixity(g, sc.representative).orbits))) == 1
    )
    fused = fixitylab.cosets.fixity(g, klein)
    u_ctx = as_context(klein)
    assert len(fused.orbits) == 3
    later = u_ctx.elements[u_ctx.bundles[1].rep_index]
    with pytest.raises(PreconditionError, match="witness"):
        check_structural_lemmas(replace(fused, fixity=4, witness=later))


def test_run_claim_order27():
    r = run_claim({"id": "c", "mode": "order27"})
    assert r.verdict == "PASS"
    assert len(r.rows) == 8


@pytest.mark.parametrize("cid", ["psl2_family_q17", "order27_lemma"])
def test_claim_rows_match_reference_bytes(cid):
    # the family and order-27 rows keep their keys, key order and values:
    # the dumped result equals the benchmark's recorded reference output
    catalog = Path(fixitylab.__file__).parent / "data" / "claims.json"
    claim = next(c for c in load_claims(catalog) if c["id"] == cid)
    reference_dir = Path(__file__).resolve().parent.parent / "perfbench" / "reference"
    reference = json.loads((reference_dir / "constructive_stabs.json").read_text())
    want = next(c for c in reference["claims"] if c["id"] == cid)
    assert json.dumps(run_claim(claim).to_dict(), indent=2) == json.dumps(want, indent=2)


def test_run_claim_unknown_mode_skips():
    r = run_claim({"id": "c", "mode": "telepathy"})
    assert r.verdict == "SKIPPED"


def test_family_generic_q17():
    rows, failures = check_psl2_family(17)
    assert failures == []
    assert [r["descriptor"] for r in rows] == ["C4", "C17:C4"]
    assert [r["order"] for r in rows] == [4, 68]
    assert all(r["fixity"] == 4 for r in rows)


@pytest.mark.parametrize("q", [17, 19])
def test_family_above_the_element_cap_is_skipped(q):
    # a family row needs the structural checks, which run on the enumerated
    # group: under a cap below |PSL2(q)| the claim is undecided, not PASS
    claim = {"id": "f", "mode": "psl2_family", "q": q}
    res = run_claim({**claim, "caps": {"elements": 1000}})
    assert res.verdict == "SKIPPED" and res.rows == []
    assert res.detail.startswith("cap exceeded: group order")
    with pytest.raises(CapExceededError):
        check_psl2_family(q, Caps(elements=1000))
    full = run_claim(claim)
    assert full.verdict == "PASS"
    assert all(r["structural_ok"] and r["sylow3_case"] != "-" for r in full.rows)


def test_fields_past_the_old_prime_limit_are_built():
    # GF(101) builds, so a PSL2(101) claim is stopped by the element cap
    # (|PSL2(101)| = 515,100), not falsified; a field past MAX_Q is a cap
    # too.  PSL2(127), the largest prime q up to 128, builds with its order
    for claim in (
        {"id": "f", "mode": "psl2_family", "q": 101},
        {"id": "s", "mode": "search", "group": "psl2_101", "expected": "none"},
    ):
        res = run_claim(claim)
        assert (res.verdict, res.rows) == ("SKIPPED", [])
        assert res.detail == "cap exceeded: group order 515100 exceeds element cap 200000"
    res = run_claim({"id": "f", "mode": "psl2_family", "q": 8191})
    assert res.verdict == "SKIPPED"
    assert res.detail == "cap exceeded: field size 8191^1 exceeds the cap 4096"
    assert psl2_spec(127).build().order == 1_024_128


def test_family_cap_is_checked_before_the_group_is_built(monkeypatch):
    # the order pledge of PSL2(4093) decides the element cap: the claim is
    # SKIPPED with the cap's message, and the group, seconds of work, is
    # never built
    def build(spec):
        pytest.fail(f"{spec.name} was built")

    monkeypatch.setattr(GroupSpec, "build", build)
    res = run_claim({"id": "f", "mode": "psl2_family", "q": 4093})
    assert (res.verdict, res.rows) == ("SKIPPED", [])
    assert res.detail == "cap exceeded: group order 34284294132 exceeds element cap 200000"


def test_family_rejects_bad_q():
    with pytest.raises(PreconditionError):
        check_psl2_family(15)
    with pytest.raises(PreconditionError):
        check_psl2_family(4)
    # the small q are decided by the catalog's lattice searches
    for q in (7, 13):
        with pytest.raises(PreconditionError):
            check_psl2_family(q)


def test_load_claims_validation(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps([{"id": "a"}, {"id": "a"}]))
    with pytest.raises(GroupDataError):
        load_claims(p)
    p.write_text(json.dumps([{"mode": "documented"}]))
    with pytest.raises(GroupDataError):
        load_claims(p)
    p.write_text(json.dumps([{"id": "a"}, {"id": "b"}]))
    assert [c["id"] for c in load_claims(p)] == ["a", "b"]
    p.write_text(json.dumps({"claims": [{"id": "z"}]}))
    assert [c["id"] for c in load_claims(p)] == ["z"]
    # each mode's keys are checked at load, naming the claim
    for bad in (
        {"id": "s", "mode": "search", "group": "psl2_7"},
        {"id": "s", "mode": "stabilizers", "group": "psl2_7", "stabilizers": [{"source": "x"}]},
        {"id": "s", "mode": "psl2_family"},
    ):
        p.write_text(json.dumps([bad]))
        with pytest.raises(GroupDataError, match="'s'"):
            load_claims(p)
    # claims have no target fixity: an old catalog that sets one fails at load
    old = {"id": "s", "mode": "search", "group": "psl2_7", "expected": "none", "k": 4}
    p.write_text(json.dumps([old]))
    with pytest.raises(GroupDataError, match="'s'.*'k'"):
        load_claims(p)
    # a file that is not a list of claim objects is a data error, not a crash
    for text in ('{"claims": [', "{}", '{"claims": ["valid"]}'):
        p.write_text(text)
        with pytest.raises(GroupDataError, match="catalog"):
            load_claims(p)
    # values of the wrong shape are data errors too, naming the claim
    for bad, what in (
        ({"id": "s", "mode": "stabilizers", "group": "psl2_7", "stabilizers": 5}, "not a list"),
        ({"id": "s", "mode": "search", "group": "psl2_7", "expected": 5}, "'expected'"),
        (
            {"id": "s", "mode": "stabilizers", "group": "psl2_7", "stabilizers": ["source"]},
            "'source' is not an object",
        ),
    ):
        p.write_text(json.dumps([bad]))
        with pytest.raises(GroupDataError, match=f"'s'.*{what}"):
            load_claims(p)


_BAD_CAPS = [
    ({"element": 10}, "element"),
    ({"elements": "1000"}, "elements"),
    ({"cosets": 0}, "cosets"),
    ({"subgroups": True}, "subgroups"),
    ({"elements": 1.5}, "elements"),
]


@pytest.mark.parametrize("caps,key", _BAD_CAPS)
def test_bad_caps_are_rejected(tmp_path, caps, key):
    claim = {"id": "capped", "mode": "search", "group": "psl2_7", "expected": "none", "caps": caps}
    p = tmp_path / "c.json"
    p.write_text(json.dumps([claim]))
    with pytest.raises(GroupDataError, match=f"'capped'.*'{key}'"):
        load_claims(p)
    # a claim dict that skipped the loader fails instead of crashing
    r = run_claim(claim)
    assert r.verdict == "FAIL"
    assert "'capped'" in r.detail and f"'{key}'" in r.detail


def test_good_caps_are_merged(tmp_path):
    claim = {"id": "capped", "mode": "order27", "caps": {"elements": 1000, "subgroups": 50}}
    p = tmp_path / "c.json"
    p.write_text(json.dumps([claim, {**claim, "id": "empty", "caps": {}}]))
    assert [c["id"] for c in load_claims(p)] == ["capped", "empty"]
    p.write_text(json.dumps([{**claim, "caps": [1000]}]))
    with pytest.raises(GroupDataError, match="'capped'"):
        load_claims(p)
    assert fixitylab.verifier._merge_caps(Caps(cosets=7), claim["caps"], "capped") == Caps(
        elements=1000, subgroups=50, cosets=7
    )


def test_claims_build_no_context_of_the_claim_group(monkeypatch):
    # stabilizer and family rows within the element cap are judged from the
    # coset action and U alone: every context built is one of a subgroup
    # smaller than the claim's group
    built = []
    init = GroupContext.__init__

    def spy(self, group):
        built.append(group.order)
        init(self, group)

    monkeypatch.setattr(GroupContext, "__init__", spy)
    catalog = Path(fixitylab.__file__).parent / "data" / "claims.json"
    claims = {c["id"]: c for c in load_claims(catalog)}
    # |M12|, |PSU4(2)|, |PSL2(17)|, |PSL2(19)|
    for cid, order in (
        ("m12_stabs", 95040),
        ("psu4_2_stabs", 25920),
        ("psl2_family_q17", 2448),
        ("psl2_family_q19", 3420),
    ):
        built.clear()
        r = run_claim(claims[cid])
        assert r.verdict == "PASS"
        assert all(row["sylow3_case"] in {"a", "b", "c", "d", "e"} for row in r.rows)
        assert built and max(built) < order


def test_m22_cyclic_conjugation_steps_are_bounded(monkeypatch):
    # m22_stabs meets two G-classes of cyclic subgroups, C5 (22,176
    # conjugates) and C11 (8,064).  Walked over all of M22 they took 60,480
    # steps of the conjugation action (2 generators per conjugate), and
    # 24,192 under a point stabilizer G_a = PSL3(4).  Each walk now runs
    # under the stabilizer H of a two-point prefix (a, b): |(a, b)^G| = 462
    # stays below |H| = 960, and a third point c with |c^H| = 20 would not.
    # The walks take 96 states for C5 and 960 for C11; a walk is made by
    # normalizer and once per fixity call for each class it meets, so the
    # claim takes 4,224 steps.  Each of the 4 walks of <y>'s conjugates is
    # two orbit_stabilizer calls on G, walking the 22 points and then the
    # 462 pairs, and one on H, so the claim builds 12 walk trees
    steps = Counter()
    conjugation = fixitylab.enumeration.cyclic_conjugation
    trees = []
    tree_transversal = fixitylab.perm._tree_transversal

    def counted_tree(g, targets):
        trees.append(len(targets) // len(g.generators))  # states walked
        return tree_transversal(g, targets)

    def counted(g, order):
        act = conjugation(g, order)

        def counted_act(c, j):
            steps[order] += 1
            return act(c, j)

        return counted_act

    monkeypatch.setattr(fixitylab.enumeration, "cyclic_conjugation", counted)
    monkeypatch.setattr(fixitylab.perm, "_tree_transversal", counted_tree)
    catalog = Path(fixitylab.__file__).parent / "data" / "claims.json"
    claim = next(c for c in load_claims(catalog) if c["id"] == "m22_stabs")
    assert run_claim(claim).verdict == "PASS"
    assert set(steps) == {5, 11}
    assert sum(steps.values()) <= 4224
    assert trees == [22, 462, 96, 22, 462, 960] * 2


def test_orbit_record_matches_coset_action_normalizer_order(monkeypatch, group_cache):
    # two routes to |N_G(<y>)| for the witness y of each fixity-4 row of
    # psl2_family_q17 and psl2_7_search: |G| over the length of <y>'s
    # conjugation orbit, as lemma (i) reads it from the report's walk, and
    # n |U| / m on the row's coset action, for the n cosets U r that y
    # fixes and the m G-conjugates of <y> in U: the U-bundles of the
    # r y r^-1 hold them all
    reports = []
    fixity = fixitylab.verifier.fixity

    def kept(g, u, caps):
        reports.append(fixity(g, u, caps))
        return reports[-1]

    monkeypatch.setattr(fixitylab.verifier, "fixity", kept)
    rows, failures = check_psl2_family(17)
    assert failures == [] and [r["fixity"] for r in rows] == [4, 4]
    # the search confirms each screened class through fixity too
    assert len(search_fixity_k(group_cache("psl2_7"), 4)) == 2
    rows = [r for r in reports if r.fixity == 4]
    assert len(rows) == 4
    for rep in rows:
        y = rep.witness
        g, u = rep.group, rep.stabilizer
        rec = cyclic_orbit(g, y)
        u_ctx = as_context(u)
        k = rep.bundle_fixes.index(4)
        assert u_ctx.elements[u_ctx.bundles[k].rep_index] == y
        order, idx = check_structural_lemmas(rep).cyclic_indices[k]
        assert order == table_order(y)
        ng = idx * u_ctx.bundles[k].normalizer_order
        assert g.order // rec.length == rec.normalizer.order == ng
        action = build_coset_action(g, u)
        fixed = fixed_cosets(action, y)
        met = {
            u_ctx.bundle_of_class[u_ctx.class_of[u_ctx.index_of(conjugate_table(y, r_inv))]]
            for r_inv in (invert_table(action.canonical_reps[c]) for c in fixed)
        }
        assert len(fixed) * u.order == sum(u_ctx.bundles[b].n_subgroups for b in met) * ng


def test_given_cap_bounds_the_claim_cap():
    merge = fixitylab.verifier._merge_caps
    # a cap given bounds the claim's, whether the claim raises or lowers it
    assert merge(Caps(subgroups=100), {"subgroups": 40000}, "c").subgroups == 100
    assert merge(Caps(subgroups=100), {"subgroups": 50}, "c").subgroups == 50
    # a cap not given leaves the claim's cap, or else the default
    given = replace(fixitylab.verifier.CAPS_NOT_GIVEN, cosets=7)
    assert merge(given, {"subgroups": 40000}, "c") == Caps(subgroups=40000, cosets=7)
    assert merge(fixitylab.verifier.CAPS_NOT_GIVEN, None, "c") == Caps()


def _tiny_catalog(tmp_path):
    claims = [
        {"id": "s7", "mode": "search", "group": "psl2_7", "expected": ["C2", "S3"]},
        {"id": "doc", "mode": "documented", "note": "by hand"},
        {"id": "o27", "mode": "order27"},
    ]
    p = tmp_path / "catalog.json"
    p.write_text(json.dumps({"claims": claims}))
    return p


def test_run_claim_catalog(tmp_path):
    p = _tiny_catalog(tmp_path)
    results = run_claim_catalog(p)
    assert [r.claim_id for r in results] == ["s7", "doc", "o27"]
    assert [r.verdict for r in results] == ["PASS", "SKIPPED", "PASS"]

    only = run_claim_catalog(p, only={"o27"})
    assert [r.claim_id for r in only] == ["o27"]

    parallel = run_claim_catalog(p, jobs=2)
    assert [(r.claim_id, r.verdict) for r in parallel] == [
        (r.claim_id, r.verdict) for r in results
    ]


def test_catalog_report_json(tmp_path):
    p = _tiny_catalog(tmp_path)
    results = run_claim_catalog(p)
    text = catalog_report_json(results)
    assert text == catalog_report_json(run_claim_catalog(p))
    obj = json.loads(text)
    assert obj["counts"] == {"PASS": 2, "FAIL": 0, "SKIPPED": 1}
    assert [c["id"] for c in obj["claims"]] == ["s7", "doc", "o27"]


def test_evaluate_action_builds_one_action(psl2_9, monkeypatch):
    built = []
    original = fixitylab.cosets.build_coset_action

    def counting(*args, **kwargs):
        built.append(args[1].order)
        return original(*args, **kwargs)

    # fixity builds no action; the Sylow-3 case builds one, as 3 divides
    # |U| = 18, and a failed descriptor stops the judgment before it
    monkeypatch.setattr(fixitylab.cosets, "build_coset_action", counting)
    monkeypatch.setattr(fixitylab.verifier, "build_coset_action", counting)
    by_order = {h.subgroup_class.order: h for h in search_fixity_k(psl2_9, 4)}
    u = by_order[18].subgroup_class.representative
    built.clear()
    ev = evaluate_action(fixitylab.cosets.fixity(psl2_9, u), "(C3xC3):C2")
    assert built == [18]
    assert ev.report.fixity == 4 and ev.ok
    assert ev.failures == [] and ev.sylow3_case == "e"

    built.clear()
    wrong = evaluate_action(fixitylab.cosets.fixity(psl2_9, u), "D18")
    assert built == []
    assert wrong.failures == ["does not match D18"]
    assert not wrong.ok and wrong.sylow3_case is None
