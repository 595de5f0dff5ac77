import dataclasses
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fixitylab.verifier
from fixitylab.cosets import (
    Caps,
    build_coset_action,
    chain_canonicalizer,
    check_homomorphism,
    fix_by_class_sum,
    fix_by_normalizer_formula,
    fix_direct,
    fix_frobenius,
    fixity,
    mark,
    mark_on_action,
    marks_row,
    profile,
    report_json,
)
from fixitylab.enumeration import (
    as_context,
    canonical_generator,
    cyclic_orbit,
    structure_predicates,
    subgroup_closure,
)
from fixitylab.errors import (
    CapExceededError,
    MembershipError,
    PreconditionError,
)
from fixitylab.perm import (
    Permutation,
    build_bsgs,
    compose_tables,
    conjugate_table,
    invert_table,
    pack_table,
    point_stabilizer,
    table_order,
)
from fixitylab.verifier import _build_stabilizer, classify_sylow3_orbits, run_claim_catalog
from fixitylab.zoo import psl2_spec, resolve_group


def _trivial(g):
    return subgroup_closure(g, [])


def test_action_mirrors_natural_action(sym4):
    u = point_stabilizer(sym4, 0)
    action = build_coset_action(sym4, u)
    assert action.degree == 4
    # right multiplication by a generator permutes cosets the same way the
    # generator permutes points, up to the coset labelling
    for img, gen in zip(action.images, sym4.generators):
        assert sorted(img.images) == list(range(4))
        assert table_order(img.images) == gen.order()


def test_action_transitive_and_consistent(psl2_9):
    u = point_stabilizer(psl2_9, 0)
    action = build_coset_action(psl2_9, u)
    assert action.degree == 10
    assert action.canonical_reps[0] == psl2_9.identity_table()
    canon_of = action.coset_index
    for i, r in enumerate(action.canonical_reps):
        # the stored rep is its own canonical form and indexes itself
        assert canon_of[r] == i
        assert min(compose_tables(t, r) for t in action.u_tables) == r


def _brute_canon(u_tables, z):
    # the definition: the least table of U*z
    return min(compose_tables(t, z) for t in u_tables)


def _even(t):
    # t times (0 1) when t is odd; an odd t has degree at least 2
    if sum(len(c) - 1 for c in Permutation(t).cycles()) % 2:
        return compose_tables(t, pack_table([1, 0, *range(2, len(t))]))
    return t


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8).flatmap(
    lambda n: st.tuples(
        st.booleans(),
        st.lists(st.permutations(range(n)), max_size=3),
        st.lists(st.permutations(range(n)), min_size=1, max_size=4),
    )
))
def test_chain_canonicalizer_is_least_table_of_coset(case):
    # U <= sym_n or alt_n generated by up to three drawn elements (none: the
    # trivial group), z drawn from the same group
    in_alt, gens, zs = case
    n = len(zs[0])
    pick = (lambda p: _even(pack_table(p))) if in_alt else pack_table
    u = build_bsgs([pick(p) for p in gens], degree=n)
    canon = chain_canonicalizer(u)
    u_tables = u.element_tables()
    for z in map(pick, zs):
        assert canon(z) == _brute_canon(u_tables, z)


def test_chain_canonicalizer_trivial_group(psl2_9):
    canon = chain_canonicalizer(_trivial(psl2_9).group)
    for z in psl2_9.element_tables()[:50]:
        assert canon(z) == z


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10**6))
def test_chain_canonicalizer_tuple_path(seed):
    n = 300
    # S3 on {0, 150, 299} times a cyclic group of order 4
    u = build_bsgs(
        [
            Permutation.from_cycles(n, [(0, 299, 150)]),
            Permutation.from_cycles(n, [(150, 0), (7, 280)]),
            Permutation.from_cycles(n, [(10, 20, 30, 40), (7, 280)]),
        ]
    )
    assert u.order == 24
    imgs = list(range(n))
    random.Random(seed).shuffle(imgs)
    z = pack_table(imgs)
    assert type(z) is tuple
    assert chain_canonicalizer(u)(z) == _brute_canon(u.element_tables(), z)


def _swap_in_column(action, j, a, b):
    col = list(action.images[j].images)
    col[a], col[b] = col[b], col[a]
    images = list(action.images)
    images[j] = Permutation(pack_table(col))
    return dataclasses.replace(action, images=images)


def test_check_rejects_a_wrong_action(psl2_9):
    action = build_coset_action(psl2_9, point_stabilizer(psl2_9, 0))
    check_homomorphism(action)
    with pytest.raises(MembershipError):
        check_homomorphism(_swap_in_column(action, 1, 2, 5))


def _sym9_three_generators():
    return build_bsgs(
        [
            Permutation.from_cycles(9, [(0, 1)]),
            Permutation.from_cycles(9, [tuple(range(9))]),
            Permutation.from_cycles(9, [(0, 1, 2)]),
        ]
    )


def _check_generator_pairs(action):
    """Oracle: the pair check the edge check replaced.  r_i g_j g_k r_e^-1
    must lie in U for every coset i and generator pair (j, k), e being the
    image of i under image(g_j) then image(g_k)."""
    reps = action.canonical_reps
    gens = action.group.gen_tables
    cols = [img.images for img in action.images]
    for gj, col_j in zip(gens, cols):
        for gk, col_k in zip(gens, cols):
            gjk = compose_tables(gj, gk)
            for i, r in enumerate(reps):
                e = col_k[col_j[i]]
                if compose_tables(compose_tables(r, gjk), invert_table(reps[e])) not in action.u_set:
                    raise MembershipError("induced coset maps are not a homomorphism")


def test_edge_check_rejects_what_the_pair_check_rejects():
    # every edge in U implies every generator pair in U, so no action the
    # pair check rejects gets past the edge check; swapping two entries of
    # any column makes both reject it.  The PSL2(q) are built on the spec's
    # four generators, which the zoo would cut to a generating pair
    groups = [
        build_bsgs(psl2_spec(9).generators),
        _sym9_three_generators(),
        build_bsgs(psl2_spec(25).generators),
    ]
    swaps = 0
    for g in groups:
        action = build_coset_action(g, point_stabilizer(g, 0))
        check_homomorphism(action)
        _check_generator_pairs(action)
        for j in range(len(g.generators)):
            for a in range(action.degree):
                bad = _swap_in_column(action, j, a, (a + 1) % action.degree)
                with pytest.raises(MembershipError):
                    _check_generator_pairs(bad)
                with pytest.raises(MembershipError):
                    check_homomorphism(bad)
                swaps += 1
    assert len(groups[1].generators) == 3 and swaps > 100


def test_check_covers_every_generator_pair():
    # sym_9 on three generators, acting on the nine cosets of a point
    # stabilizer.  A wrong column j shows only on generator j's edges, so
    # each column must be caught.  At |G/U| * |U| * 9 generator pairs, over
    # two million products, a check that scanned U per coset and pair would
    # need a budget; one membership test per edge covers every pair.
    g = _sym9_three_generators()
    u = point_stabilizer(g, 0)
    action = build_coset_action(g, u)
    assert action.degree * u.order * len(g.generators) ** 2 > 2_000_000
    for j in range(len(g.generators)):
        with pytest.raises(MembershipError):
            check_homomorphism(_swap_in_column(action, j, 0, 1))


def test_coset_of(alt5):
    action = build_coset_action(alt5, point_stabilizer(alt5, 0))
    for i, r in enumerate(action.canonical_reps):
        assert all(action.coset_of(compose_tables(t, r)) == i for t in action.u_tables)
    with pytest.raises(MembershipError):
        action.coset_of(pack_table([1, 0, 2, 3, 4]))


def test_coset_stabilizers_are_conjugates(sym4):
    # the stabilizer of coset i is r_i^-1 U r_i, U's tables conjugated by
    # the coset's canonical representative
    u = point_stabilizer(sym4, 0)
    action = build_coset_action(sym4, u)
    for i in range(action.degree):
        tabs = [conjugate_table(t, action.canonical_reps[i]) for t in action.u_tables]
        assert len(tabs) == u.order
        fs = set(tabs)
        assert sym4.identity_table() in fs
        # closed under composition, hence a subgroup of the right size
        assert all(compose_tables(a, b) in fs for a in tabs[:3] for b in tabs[:3])
        # definitional check: members fix coset i, non-members move it
        for t in action.group.element_tables()[:8]:
            z = compose_tables(action.canonical_reps[i], t)
            fixed = min(compose_tables(ut, z) for ut in action.u_tables) == action.canonical_reps[i]
            assert fixed == (t in fs)


@pytest.mark.parametrize(
    "sel,expected",
    [
        ("sym_4", 2),
        ("sym_5", 3),
        ("sym_6", 4),
        ("alt_5", 2),
        ("dihedral_7", 1),
        ("dihedral_6", 2),
    ],
)
def test_known_fixities(group_cache, sel, expected):
    g = group_cache(sel)
    u = point_stabilizer(g, 0)
    rep = fixity(g, u)
    assert rep.fixity == expected
    assert fix_direct(build_coset_action(g, u), rep.witness) == max(rep.bundle_fixes) == expected


def test_witness_attains_max(group_cache):
    g = group_cache("psl2_7")
    ctx = as_context(g)
    for sc in as_context(g).subgroup_classes():
        if sc.order in (1, g.order):
            continue
        rep = fixity(g, sc.representative)
        action = build_coset_action(g, sc.representative)
        nontrivial = [
            fix_direct(action, c.representative)
            for c in ctx.classes
            if c.element_order > 1
        ]
        assert rep.fixity == max(nontrivial)
        assert rep.witness is not None
        assert fix_direct(action, rep.witness) == rep.fixity


@pytest.mark.parametrize("sel", ["sym_4", "alt_5", "psl2_7"])
def test_stabilizer_classes_decide_fixity(group_cache, sel):
    # an element that fixes the coset U r is conjugate into U, so the
    # maximum over U's classes equals the maximum over G's; and the walk
    # that fixity records for each U-bundle gives |N_G(<y>)| with no context
    # of G, checked against |N_G(<y>)| from G's context
    g = group_cache(sel)
    ctx = as_context(g)
    for sc in ctx.subgroup_classes():
        if sc.order in (1, g.order):
            continue
        u = sc.representative
        rep = fixity(g, u)
        action = build_coset_action(g, u)
        over_g = [fix_direct(action, c.representative) for c in ctx.classes]
        assert rep.fixity == max(fx for c, fx in zip(ctx.classes, over_g) if c.element_order > 1)
        u_ctx = as_context(u.group)
        assert len(rep.orbits) == len(u_ctx.bundles)
        for b, rec in zip(u_ctx.bundles, rep.orbits):
            y = u_ctx.elements[b.rep_index]
            gb = ctx.bundles[ctx.bundle_of_class[ctx.class_of[ctx.index_of(y)]]]
            assert rec.contains(y)
            assert g.order // rec.length == rec.normalizer.order == gb.normalizer_order


def test_counting_routes_agree(sym4, alt5):
    for g in (sym4, alt5):
        ctx = as_context(g)
        for sc in as_context(g).subgroup_classes():
            action = build_coset_action(g, sc.representative)
            for c in ctx.classes:
                d = fix_direct(action, c.representative)
                assert d == fix_by_normalizer_formula(ctx, sc.representative, c.representative)
                assert d == fix_by_class_sum(ctx, sc.representative, c.representative)


def test_frobenius_route(alt5):
    # D10 <= Alt(5) is Frobenius with kernel C5, complement C2
    d10 = next(
        sc for sc in as_context(alt5).subgroup_classes() if sc.order == 10
    ).representative
    rec = structure_predicates(d10)
    assert rec.is_frobenius_cyclic_complement
    action = build_coset_action(alt5, d10)
    hits = 0
    for t in d10.group.element_tables():
        if table_order(t) == 2:
            x = Permutation(t)
            assert fix_frobenius(alt5, d10, x) == fix_direct(action, x)
            hits += 1
    assert hits == 5
    # kernel elements are rejected
    five = next(t for t in d10.group.element_tables() if table_order(t) == 5)
    with pytest.raises(PreconditionError):
        fix_frobenius(alt5, d10, Permutation(five))
    # non-Frobenius stabilizer is rejected
    v4 = next(sc for sc in as_context(alt5).subgroup_classes() if sc.order == 4)
    with pytest.raises(PreconditionError):
        fix_frobenius(alt5, v4.representative, Permutation(five))


def test_burnside_count(group_cache):
    for sel in ("sym_4", "alt_5", "dihedral_6"):
        g = group_cache(sel)
        ctx = as_context(g)
        for sc in as_context(g).subgroup_classes():
            action = build_coset_action(g, sc.representative)
            total = sum(c.size * fix_direct(action, c.representative) for c in ctx.classes)
            # orbit counting: average fixed points = number of orbits, and the
            # coset action is transitive
            assert total == g.order


def test_conjugation_invariance(alt5):
    u = point_stabilizer(alt5, 0)
    action = build_coset_action(alt5, u)
    elems = alt5.element_tables()
    for t in elems[::7]:
        for s in elems[1::13]:
            conj = compose_tables(compose_tables(invert_table(s), t), s)
            assert fix_direct(action, t) == fix_direct(action, conj)


def test_slow_path_matches_fast(group_cache):
    # fixity counts from walks of G's cyclic subgroups and enumerates only
    # U, so an element cap below |G| leaves it unchanged; the count of each
    # bundle equals the direct count on the materialized coset action
    small = Caps(elements=100)
    cases = [
        (group_cache(sel), sc.representative)
        for sel in ("psl2_7", "alt_7")
        for sc in as_context(group_cache(sel)).subgroup_classes()
        if 1 < sc.order <= small.elements
    ]
    # the stabilizers of the psu4_2 and sz8 claims
    claimed = (("psu4_2", ["cyclic_least:5"]), ("sz8", ["cyclic_least:5", "cyclic_least:13"]))
    for sel, sources in claimed:
        g = group_cache(sel)
        cases += [(g, _build_stabilizer(g, source, Caps())) for source in sources]
    fused = apart = 0
    for g, u in cases:
        fast = fixity(g, u)
        slow = fixity(g, u, caps=small)
        assert slow.fixity == fast.fixity
        assert slow.bundle_fixes == fast.bundle_fixes
        assert slow.witness == fast.witness
        u_ctx = as_context(u.group)
        reps = [u_ctx.elements[b.rep_index] for b in u_ctx.bundles]
        action = build_coset_action(g, u)
        assert slow.bundle_fixes == [fix_direct(action, y) for y in reps]
        # pairs of U-bundles of one order whose subgroups are conjugate in G,
        # and pairs that are not, by the conjugacy test of cyclic_orbit
        pairs = [
            cyclic_orbit(g, y).contains(z)
            for i, y in enumerate(reps)
            for z in reps[i + 1 :]
            if table_order(y) == table_order(z)
        ]
        fused += any(pairs)
        apart += not all(pairs)
    # some stabilizers of alt_7 have U-bundles fused in G (the three C2 of a
    # Klein four-group), some have bundles of one order that G keeps apart
    # (C3 x C3 holds 3-cycles and products of two 3-cycles)
    assert fused > 0 and apart > 0


def test_fixity_counts_match_the_coset_action_on_the_catalog(monkeypatch):
    # every fixity call the packaged catalog makes within the element cap:
    # the count of each U-bundle, from the walks, equals the direct count
    # of its representative on the explicitly built coset action
    reports = []
    count = fixitylab.verifier.fixity

    def kept(g, u, caps=Caps()):
        reports.append(count(g, u, caps))
        return reports[-1]

    monkeypatch.setattr(fixitylab.verifier, "fixity", kept)
    catalog = Path(fixitylab.__file__).parent / "data" / "claims.json"
    assert all(r.verdict != "FAIL" for r in run_claim_catalog(catalog))
    within = [r for r in reports if r.group.order <= Caps().elements]
    assert len(within) == 41 and len(reports) == 43
    for rep in within:
        u_ctx = as_context(rep.stabilizer.group)
        action = build_coset_action(rep.group, rep.stabilizer)
        direct = [fix_direct(action, u_ctx.elements[b.rep_index]) for b in u_ctx.bundles]
        assert rep.bundle_fixes == direct


def test_profile(sym4, group_cache):
    ctx = as_context(sym4)
    u = point_stabilizer(sym4, 0)
    prof = profile(sym4, u)
    assert len(prof.rows) == len(ctx.bundles)
    assert list(prof.rows) == sorted(prof.rows)
    assert max(r[2] for r in prof.rows) == fixity(sym4, u).fixity
    # natural Sym(4): transpositions fix 2 points, 3-cycles 1, 4-cycles and
    # double transpositions 0
    assert prof.rows == ((2, 4, 2), (2, 8, 0), (3, 3, 1), (4, 4, 0))


def test_mark_values(sym4):
    u = point_stabilizer(sym4, 0)
    assert mark(sym4, u, _trivial(sym4)) == 4
    # m_U(U) = |N(U):U|; a point stabilizer of Sym(4) is self-normalizing
    assert mark(sym4, u, u) == 1
    row = marks_row(sym4, u)
    assert row[0] == 4
    assert row[-1] == 1
    assert all(0 <= r <= 4 for r in row)


def test_marks_row_endpoints(sym4):
    classes = as_context(sym4).subgroup_classes()
    whole = classes[-1]
    assert whole.order == 24
    row = marks_row(sym4, whole.representative)
    assert row == [1] * len(classes)
    row0 = marks_row(sym4, _trivial(sym4))
    assert row0 == [24]


def test_mark_on_action_trivial_gens(sym4):
    u = point_stabilizer(sym4, 0)
    action = build_coset_action(sym4, u)
    assert mark_on_action(action, []) == action.degree


def test_caps_and_membership(group_cache, sym4):
    g = group_cache("psl2_7")
    with pytest.raises(CapExceededError):
        build_coset_action(g, _trivial(g), max_cosets=100)
    # the coset cap bounds materialized actions only: fixity answers the
    # regular action without building 168 cosets, and the Sylow-3 case of
    # a U of order 2 is read from |U|, while marks and the Sylow-3 orbits
    # of a U of order 3 need the 56 cosets
    small = Caps(elements=100, cosets=50)
    rep = fixity(g, _trivial(g), caps=small)
    assert rep.orbits == [] and rep.fixity == 0
    c2, c3 = (
        next(sc.representative for sc in as_context(g).subgroup_classes() if sc.order == k)
        for k in (2, 3)
    )
    coset_cap = Caps(cosets=50)
    assert classify_sylow3_orbits(g, c2, coset_cap).case == "a"
    for call in (
        lambda: classify_sylow3_orbits(g, c3, coset_cap),
        lambda: mark(g, c3, c2, coset_cap),
        lambda: marks_row(g, c3, coset_cap),
    ):
        with pytest.raises(CapExceededError, match="coset space size 56 exceeds cap 50"):
            call()
    sym5 = group_cache("sym_5")
    alt5 = group_cache("alt_5")
    odd = subgroup_closure(sym5, [Permutation(pack_table([1, 0, 2, 3, 4]))])
    with pytest.raises(MembershipError):
        build_coset_action(alt5, odd)
    action = build_coset_action(alt5, point_stabilizer(alt5, 0))
    with pytest.raises(MembershipError):
        fix_direct(action, pack_table([1, 0, 2, 3, 4]))


@pytest.mark.parametrize("caps", [Caps(), Caps(elements=100)], ids=["action", "orbits"])
def test_fixity_rejects_a_stabilizer_outside_the_group(group_cache, caps):
    # a transposition of Sym(8) is no member of PSL2(7) on the 8 points of
    # the projective line; fixity rejects it under the default caps and with
    # the element cap below |G|
    g = group_cache("psl2_7")
    assert g.degree == 8
    u = subgroup_closure(group_cache("sym_8"), [Permutation.from_cycles(8, [(0, 1)])])
    with pytest.raises(MembershipError):
        fixity(g, u, caps)


def test_canonical_generator(sym4):
    elems = sym4.element_tables()
    for t in elems:
        o = table_order(t)
        if o == 1:
            continue
        c = canonical_generator(t, 4)
        assert canonical_generator(c, 4) == c
        # same cyclic subgroup, same label
        powers = {t}
        cur = t
        for _ in range(o - 1):
            cur = compose_tables(cur, t)
            powers.add(cur)
        gens = {p for p in powers if table_order(p) == o}
        assert {canonical_generator(p, 4) for p in gens} == {c}
        assert c == min(gens)


def test_report_json(sym4):
    u = point_stabilizer(sym4, 0)
    rep = fixity(sym4, u)
    prof = profile(sym4, u)
    obj = json.loads(report_json("sym_4", rep, prof))
    assert obj == {
        "group": "sym_4",
        "stabilizer_order": 6,
        "degree": 4,
        "fixity": 2,
        "profile": [[2, 4, 2], [2, 8, 0], [3, 3, 1], [4, 4, 0]],
    }
