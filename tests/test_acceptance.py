"""End-to-end checks for the ten headline behaviors.

Each test pins one headline result: the golden fixed-point profile,
the PSL2(9) fixity-4 table, the small-group searches, the negative rows,
the generic PSL2 family rows, oracle equivalence of the counting routes,
the Burnside invariant, the structural lemma suite, the order-27 coset
identity, and the table-of-marks row.  Time budgets are asserted where the
result is only useful if it is cheap to reproduce.
"""

import json
import time
from pathlib import Path

import pytest

import fixitylab
from fixitylab.cosets import (
    build_coset_action,
    fix_by_class_sum,
    fix_by_normalizer_formula,
    fix_direct,
    fix_frobenius,
    marks_row,
    profile,
)
from fixitylab.enumeration import (
    as_context,
    normalizer,
    subgroup_closure,
    sylow,
)
from fixitylab.perm import Permutation, table_order, table_power
from fixitylab.verifier import (
    check_order27_lemma,
    check_structural_lemmas,
    classify_sylow3_orbits,
    match_descriptors,
    run_claim_catalog,
    search_fixity_k,
)
from fixitylab.zoo import resolve_group

CLAIMS = Path(fixitylab.__file__).parent / "data" / "claims.json"
REFERENCE_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "reference"

POSITIVE_IDS = {
    "psl2_7_search",
    "psl2_8_search",
    "psl2_11_search",
    "psl2_13_search",
    "psu3_3_search",
    "m11_search",
}
NEGATIVE_IDS = {"psl2_4_none", "psl2_16_none", "psl3_3_none", "psl2_32_none"}
FAMILY_IDS = {f"psl2_family_q{q}" for q in (17, 19, 23, 25, 27, 29, 31, 37, 41)}

SWEEP_SELECTORS = (
    ["sym_3", "sym_4", "sym_5", "sym_6"]
    + ["alt_4", "alt_5", "alt_6"]
    + ["psl2_7", "psl2_8"]
    + [f"dihedral_{n}" for n in range(3, 13)]
)


def _order18_stabilizer(g):
    """The (C3xC3):C2 subgroup, built without touching the lattice: the
    Sylow 3-subgroup extended by a squared order-4 element of its
    normalizer."""
    p3 = sylow(g, 3)
    n36 = normalizer(g, p3)
    assert n36.order == 36
    y4 = next(t for t in n36.group.element_tables() if table_order(t) == 4)
    gens = [Permutation(t) for t in p3.group.gen_tables]
    gens.append(Permutation(table_power(y4, 2)))
    u = subgroup_closure(g, gens)
    assert u.order == 18
    return u


@pytest.fixture(scope="module")
def psl2_9_hits(psl2_9):
    start = time.perf_counter()
    hits = search_fixity_k(psl2_9, 4)
    return hits, time.perf_counter() - start


@pytest.fixture(scope="module")
def positive_results():
    start = time.perf_counter()
    results = run_claim_catalog(CLAIMS, only=POSITIVE_IDS)
    return results, time.perf_counter() - start


@pytest.fixture(scope="module")
def negative_results():
    results = run_claim_catalog(CLAIMS, only=NEGATIVE_IDS)
    return results


@pytest.fixture(scope="module")
def family_results():
    start = time.perf_counter()
    results = run_claim_catalog(CLAIMS, only=FAMILY_IDS)
    return results, time.perf_counter() - start


def test_golden_profile_order18_stabilizer(psl2_9):
    u = _order18_stabilizer(psl2_9)
    start = time.perf_counter()
    prof = profile(psl2_9, u)
    elapsed = time.perf_counter() - start
    assert prof.rows == ((2, 8, 4), (3, 9, 2), (3, 9, 2), (4, 4, 0), (5, 5, 0))
    assert elapsed < 1.0


def test_fixity4_search_table(psl2_9_hits):
    hits, elapsed = psl2_9_hits
    assert elapsed < 30.0
    assert sorted((h.degree, h.subgroup_class.order) for h in hits) == [
        (20, 18),
        (36, 10),
        (40, 9),
        (60, 6),
        (60, 6),
        (180, 2),
    ]
    groups = [h.subgroup_class.representative.group for h in hits]
    expected = ["C2", "S3", "S3", "C3xC3", "D10", "(C3xC3):C2"]
    assert match_descriptors(expected, groups) is not None


def test_small_simple_groups_positive(positive_results):
    results, elapsed = positive_results
    assert elapsed < 600.0
    verdicts = {r.claim_id: r.verdict for r in results}
    assert verdicts == {cid: "PASS" for cid in POSITIVE_IDS}
    by_id = {r.claim_id: r for r in results}
    assert sorted(row["order"] for row in by_id["psl2_8_search"].rows) == [2, 6, 14, 18]
    assert sorted(row["order"] for row in by_id["m11_search"].rows) == [5, 55, 660]
    assert [row["order"] for row in by_id["psu3_3_search"].rows] == [216]


def test_small_simple_groups_negative(negative_results):
    verdicts = {r.claim_id: (r.verdict, len(r.rows)) for r in negative_results}
    assert verdicts == {cid: ("PASS", 0) for cid in NEGATIVE_IDS}


def test_generic_psl2_family_rows(family_results):
    results, elapsed = family_results
    assert elapsed < 300.0
    assert all(r.verdict == "PASS" for r in results)
    by_id = {r.claim_id: r for r in results}
    assert [row["descriptor"] for row in by_id["psl2_family_q17"].rows] == [
        "C4",
        "C17:C4",
    ]
    assert [row["descriptor"] for row in by_id["psl2_family_q19"].rows] == ["C5"]
    assert [row["descriptor"] for row in by_id["psl2_family_q25"].rows] == [
        "C6",
        "(C5xC5):C6",
    ]
    assert [row["descriptor"] for row in by_id["psl2_family_q37"].rows] == [
        "C9",
        "C37:C9",
    ]
    for r in results:
        assert all(row["fixity"] == 4 for row in r.rows)


def test_counting_routes_agree_and_burnside_sweep(group_cache):
    start = time.perf_counter()
    checked_actions = 0
    for sel in SWEEP_SELECTORS:
        g = group_cache(sel)
        ctx = as_context(g)
        for sc in as_context(g).subgroup_classes():
            u = sc.representative
            action = build_coset_action(g, u)
            total = 0
            for c in ctx.classes:
                x = c.representative
                d = fix_direct(action, x)
                assert d == fix_by_normalizer_formula(ctx, u, x)
                assert d == fix_by_class_sum(ctx, u, x)
                total += c.size * d
            # Burnside: the action is transitive, so the average number of
            # fixed cosets over the group is exactly 1
            assert total == g.order
            checked_actions += 1
            rec = as_context(u.group).predicates
            if rec.is_frobenius_cyclic_complement:
                for t in u.group.element_tables():
                    o = table_order(t)
                    if o > 1 and rec.frobenius_kernel_order % o != 0:
                        assert fix_frobenius(ctx, u, Permutation(t)) == fix_direct(
                            action, t
                        )
    assert checked_actions > 150
    assert time.perf_counter() - start < 300.0


def test_structural_lemma_suite(
    psl2_9, psl2_9_hits, positive_results, family_results
):
    hits, _ = psl2_9_hits
    cases = []
    for h in hits:
        checks = check_structural_lemmas(h.report)
        assert checks.ok, checks.failures
        cls = classify_sylow3_orbits(psl2_9, h.report.stabilizer)
        cases.append(cls.case)
    assert cases == ["a", "b", "b", "e", "a", "e"]

    # the claim runners execute the same checks internally; a PASS verdict
    # plus a recorded case certifies them for every discovered action
    for r in positive_results[0]:
        assert r.verdict == "PASS"
        for row in r.rows:
            assert row["sylow3_case"] in {"a", "b", "c", "d", "e"}
    for r in family_results[0]:
        assert r.verdict == "PASS"
        for row in r.rows:
            assert row["structural_ok"]
            assert row["sylow3_case"] in {"a", "b", "c", "d", "e"}


def test_burnside_on_search_hits(psl2_9, psl2_9_hits):
    hits, _ = psl2_9_hits
    ctx = as_context(psl2_9)
    for h in hits:
        action = build_coset_action(psl2_9, h.report.stabilizer)
        total = sum(c.size * fix_direct(action, c.representative) for c in ctx.classes)
        assert total == psl2_9.order


def test_order27_coset_identity():
    rows = check_order27_lemma()
    assert all(r["ok"] for r in rows)
    assert len(rows) == 8


def test_marks_row_order18_stabilizer(psl2_9):
    u = _order18_stabilizer(psl2_9)
    row = marks_row(psl2_9, u)
    nonzero = sorted(v for v in row if v)
    assert nonzero == [2, 2, 2, 2, 2, 2, 4, 20]


def test_packaged_catalog_has_no_failures(monkeypatch):
    monkeypatch.delenv("FIXITYLAB_DATA", raising=False)
    results = run_claim_catalog(CLAIMS)
    by_verdict: dict[str, set[str]] = {"PASS": set(), "FAIL": set(), "SKIPPED": set()}
    for r in results:
        by_verdict[r.verdict].add(r.claim_id)
    assert by_verdict["FAIL"] == set()
    assert by_verdict["SKIPPED"] == {
        "j1_stabs",
        "psu4_3_stabs",
        "psp4_4_stabs",
        "psp4_5_stabs",
        "psp4_family",
        "sz_family",
        "omega8_family",
        "d4_family",
        "g2_family",
        "negatives_documented",
    }
    assert len(by_verdict["PASS"]) == 26
    # PASS means every check ran: each fixity-4 row carries its Sylow-3 case
    # and each family row its structural verdict.  m22_stabs is the one
    # exception the README names: M22 is above the element cap, so its
    # fixity is counted on the slow path, which builds no coset action.
    for r in results:
        if r.verdict != "PASS":
            continue
        for row in r.rows:
            if r.claim_id.startswith("psl2_family"):
                assert row["structural_ok"] is True, (r.claim_id, row)
            if row.get("fixity") == 4 and r.claim_id != "m22_stabs":
                assert row.get("sylow3_case", "-") != "-", (r.claim_id, row)
    m22 = next(r for r in results if r.claim_id == "m22_stabs")
    assert m22.rows and all("sylow3_case" not in row for row in m22.rows)
    # every claim the benchmark replays dumps exactly as its stored reference
    dumped = {r.claim_id: json.dumps(r.to_dict(), indent=2) for r in results}
    reference = [
        c
        for workload in ("lattice_search", "constructive_stabs")
        for c in json.loads((REFERENCE_DIR / f"{workload}.json").read_text())["claims"]
    ]
    assert len(reference) == 23
    for want in reference:
        assert dumped[want["id"]] == json.dumps(want, indent=2), want["id"]
