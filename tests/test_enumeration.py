import functools
import gc
import hashlib
import json
import math
import weakref
from collections import Counter
from itertools import combinations_with_replacement

import pytest

from fixitylab import enumeration, perm
from fixitylab.cosets import Caps, fixity
from fixitylab.enumeration import (
    GroupContext,
    _cyclic_generators,
    _least_generator,
    as_context,
    centralizer,
    cyclic_conjugation,
    cyclic_orbit,
    euler_phi,
    is_simple_group,
    normalizer,
    p_part,
    prime_divisors,
    prime_power,
    structure_predicates,
    subgroup_closure,
    sylow,
)
from fixitylab.errors import (
    CapExceededError,
    FalsificationError,
    MembershipError,
    PreconditionError,
)
from fixitylab.perm import (
    PermGroup,
    Permutation,
    build_bsgs,
    compose_tables,
    conjugate_table,
    orbit_stabilizer,
    pack_table,
    table_order,
    table_power,
)
from fixitylab.zoo import dihedral_spec, resolve_group
from oracles import normalizer_brute


def test_euler_phi():
    assert [euler_phi(n) for n in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]
    assert euler_phi(97) == 96
    assert euler_phi(100) == 40


def test_is_prime_power():
    assert prime_power(8) == (2, 3)
    assert prime_power(81) == (3, 4)
    assert prime_power(13) == (13, 1)
    assert prime_power(12) is None
    assert prime_power(1) is None


def test_p_part():
    assert p_part(360, 2) == 8
    assert p_part(360, 3) == 9
    assert p_part(360, 7) == 1


def test_elements_sorted_identity_first(sym4):
    elems = as_context(sym4).elements
    assert len(elems) == 24
    assert elems == sorted(elems)
    assert elems[0] == pack_table([0, 1, 2, 3])


def test_class_sizes(sym4, alt5):
    assert sorted(c.size for c in as_context(sym4).classes) == [1, 3, 6, 6, 8]
    assert sorted(c.size for c in as_context(alt5).classes) == [1, 12, 12, 15, 20]


def test_class_equation_and_reps(group_cache):
    for sel in ("sym_4", "alt_5", "dihedral_6", "psl2_7"):
        g = group_cache(sel)
        ctx = as_context(g)
        classes = ctx.classes
        assert sum(c.size for c in classes) == g.order
        for cid, c in enumerate(classes):
            assert c.size * c.centralizer_order == g.order
            assert c.rep_index == min(c.indices)
            assert len(c.indices) == c.size
            assert all(ctx.class_of[i] == cid for i in c.indices)
            assert all(ctx.element_orders[i] == c.element_order for i in c.indices)


def test_bundle_invariants(group_cache):
    for sel in ("sym_4", "alt_5", "psl2_7", "cyclic_12"):
        g = group_cache(sel)
        bundles = as_context(g).bundles
        # every nonidentity element generates exactly one cyclic subgroup
        assert sum(b.n_subgroups * euler_phi(b.element_order) for b in bundles) == g.order - 1
        for b in bundles:
            assert b.n_subgroups * b.normalizer_order == g.order


def test_centralizer_matches_brute(sym4):
    ctx = as_context(sym4)
    for c in ctx.classes:
        z = centralizer(sym4, c.representative)
        assert z.order == c.centralizer_order
        x = c.representative.images
        brute = [e for e in ctx.elements if conjugate_table(x, e) == x]
        assert sorted(z.element_tables()) == brute


def test_normalizer_matches_brute(group_cache):
    for sel in ("sym_4", "alt_5", "dihedral_6"):
        g = group_cache(sel)
        for sc in as_context(g).subgroup_classes():
            fast = normalizer(g, sc.representative)
            brute = normalizer_brute(g, sc.representative)
            assert fast.order == brute.order == sc.normalizer_order
            assert fast.element_tables() == brute.element_tables()


def test_normalizer_label_routes_match_brute(group_cache):
    # a U with one generator takes the cyclic label, any other its set of
    # element tables; on tuple tables (degree 300) both agree with the scan
    # of G, and a cyclic U given by its generator twice takes the set label
    g = group_cache("dihedral_300")
    r, s = g.generators
    cases = [[r**60], [s], [r**50 * s], [r**60, s]]
    for gens in cases:
        u = build_bsgs(gens, degree=g.degree)
        fast = normalizer(g, u)
        brute = normalizer_brute(g, u)
        assert fast.element_tables() == brute.element_tables()
        if len(gens) == 1:
            twice = normalizer(g, build_bsgs(gens * 2, degree=g.degree))
            assert twice.element_tables() == fast.element_tables()


def _chain_data(sub):
    return sub.base, sub.strong_gens, sub.gen_tables


@pytest.mark.parametrize("sel, word", [("alt_7", (0, 1)), ("dihedral_300", (1,)), ("alt_5", ())])
def test_normalizer_ignores_kept_orbits(group_cache, sel, word):
    # normalizer(G, <y>) keeps nothing on G and reads nothing kept, so it
    # returns the same chain on a fresh group, after fixity above the
    # element cap walked
    # that orbit, after a walk from another start or with another seed, and
    # on the group the other tests share; bytes tables (alt_7, alt_5), tuple
    # tables (dihedral_300) and a trivial U given by the identity generator
    # (alt_5)
    def fresh():
        return resolve_group(sel)[1]

    g = fresh()
    y = g.identity_table()
    for j in word:
        y = compose_tables(y, g.gen_tables[j])
    n = table_order(y)
    want = _chain_data(normalizer(g, build_bsgs([y], degree=g.degree)))
    assert n == {(0, 1): 7, (1,): 2, (): 1}[word]

    def slow_walk(h):
        fixity(h, build_bsgs([y], degree=h.degree), Caps(elements=h.order - 1))

    def other_start(h):
        cyclic_orbit(h, conjugate_table(y, h.gen_tables[0]))

    def other_seed(h):
        # y^-1 generates <y>, and differs from y above order 2
        cyclic_orbit(h, table_power(y, -1))

    for walk in (slow_walk, other_start, other_seed):
        h = fresh()
        walk(h)
        first = normalizer(h, build_bsgs([y], degree=h.degree))
        assert _chain_data(first) == want
        # a second call walks afresh, to the same chain
        second = normalizer(h, build_bsgs([y], degree=h.degree))
        assert second is not first and _chain_data(second) == want
    shared = group_cache(sel)
    assert _chain_data(normalizer(shared, build_bsgs([y], degree=shared.degree))) == want


def _whole_group_walk(g, y):
    """The walk cyclic_orbit replaced, kept as an oracle: every G-conjugate
    of <y> by its least generator, N_G(<y>) from the Schreier generators."""
    act = cyclic_conjugation(g, table_order(y))
    index, chain, _ = orbit_stabilizer(g, _least_generator(table_order(y), g.degree)(y), act, [y])
    return list(index), chain


def _sample_elements(g, per_group=10):
    """The identity, then the first elements in breadth-first word order
    over the generators, one per (order, number of fixed points)."""
    ident = g.identity_table()
    seen, queue, out, kinds = {ident}, [ident], [ident], set()
    for t in queue:
        kind = (table_order(t), sum(i == v for i, v in enumerate(t)))
        if kind not in kinds:
            kinds.add(kind)
            out.append(t)
            if len(out) > per_group:
                break
        for h in g.gen_tables:
            nxt = compose_tables(t, h)
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return out


def _intransitive_group():
    # Sym(3) x Sym(4) on {0, 1, 2} and {3, 4, 5, 6}
    cycles = [[(0, 1)], [(0, 1, 2)], [(3, 4)], [(3, 4, 5, 6)]]
    return build_bsgs([Permutation.from_cycles(7, c) for c in cycles])


@pytest.mark.parametrize(
    "sel, brute",
    [("alt_7", True), ("m11", True), ("psl2_13", True), ("psu4_2", True),
     ("sz8", True), ("m12", False), ("intransitive", True), ("dihedral_300", True)],
)
def test_point_stabilizer_walk_matches_whole_group_walk(group_cache, sel, brute):
    # cyclic_orbit walks <y>'s conjugates under the stabilizer H of a base
    # prefix P (two points on alt_7, m12 and the intransitive group, one
    # elsewhere) and tests one coset H u_s per image s of P; the whole-G walk
    # and, where G is enumerated for it, the scan of G give the same
    # normalizer and orbit length.  The samples include the identity and
    # elements with and without fixed points; dihedral_300 has tuple tables,
    # and its rotations of order 300 are left out, as they take seconds on
    # either walk
    g = _intransitive_group() if sel == "intransitive" else group_cache(sel)
    if sel == "dihedral_300":
        r, s = g.generators
        sample = [x.images for x in (r**60, s, r**50 * s)]
        assert [x.fixed_points()[:1] for x in (r**60, s, r**50 * s)] == [[], [0], [125]]
    else:
        sample = _sample_elements(g)
    assert any(t[p] == p for t in sample[1:] for p in range(g.degree))
    assert any(all(t[p] != p for p in range(g.degree)) for t in sample)
    for y in sample:
        rec = cyclic_orbit(g, y)
        members, chain = _whole_group_walk(g, y)
        assert rec.length == len(members)
        assert rec.normalizer.order == chain.order
        assert all(rec.normalizer.contains_table(t) for t in chain.gen_tables)
        if brute:
            want = normalizer_brute(g, build_bsgs([y], degree=g.degree))
            assert rec.normalizer.element_tables() == want.element_tables()
        # the conjugacy test finds conjugates met late in the whole walk
        assert all(rec.contains(m) for m in members[:: max(1, len(members) // 7)])
        assert all(rec.contains(m) for m in members[-3:])


def test_m22_prefix_walk_matches_whole_group_walk(group_cache):
    # M22's walks run under the stabilizer H of a two-point prefix P, the
    # least points y fixes first: a C5 fixes both points of P and seeds the
    # walk with y, a C7 fixes only the first and a C11 neither, so y moves
    # P, lies outside H and seeds nothing.  Each gives the whole-G walk's
    # orbit length and normalizer, and finds conjugates met early and late
    # in it (alt_7's prefix is two points too, and its classes test the
    # non-conjugate pairs in test_conjugacy_test_matches_the_bundles).  The
    # elements are short words in M22's generators: _sample_elements'
    # breadth-first search takes seconds on a group this large
    g = group_cache("m22")
    a, b = g.gen_tables
    cases = [((a,), 5, [True, True]), ((a, b), 7, [True, False]), ((a, a, b, b), 11, [False, False])]
    for word, order, fixes_prefix in cases:
        y = functools.reduce(compose_tables, word)
        assert table_order(y) == order
        rec = cyclic_orbit(g, y)
        assert [y[p] == p for p in rec.points[0]] == fixes_prefix
        members, chain = _whole_group_walk(g, y)
        assert rec.length == len(members)
        assert rec.normalizer.order == chain.order
        assert all(rec.normalizer.contains_table(t) for t in chain.gen_tables)
        assert all(rec.contains(m) for m in members[:: len(members) // 7])
        assert all(rec.contains(m) for m in members[-3:])


@pytest.mark.parametrize(
    "sel, depth", [("m22", 2), ("m12", 2), ("psl2_31", 1), ("sz8", 1), ("sym_5", 1)]
)
def test_base_prefix_grows_while_its_orbit_stays_below_its_stabilizer(group_cache, sel, depth):
    # a point b joins P while |P^G| |b^H| <= |H| / |b^H|: on M22 the pair
    # orbit is 22 * 21 = 462 <= 20160 / 21 and a third point gives 9,240 >
    # 960 / 20; on M12 132 <= 7920 / 11 and then 1,320 > 720 / 10.  PSL2(31)
    # stops at 32 * 31 > 465 / 31, Sz(8) at 65 * 64 > 448 / 64 and Sym(5) at
    # 5 * 4 > 24 / 4, though 5 * 4 <= 24.  These groups are 2-transitive,
    # M22 and M12 3-transitive, so the orbit lengths, and the depth, are the
    # same for every y
    g = group_cache(sel)
    for y in (g.identity_table(), *g.gen_tables):
        assert len(cyclic_orbit(g, y).points[0]) == depth


@pytest.mark.parametrize("sel", ["alt_7", "m11", "psu4_2"])
def test_conjugacy_test_matches_the_bundles(group_cache, sel):
    # two cyclic subgroups are G-conjugate exactly when their generators'
    # classes lie in one bundle of G's context (the identity class in none)
    g = group_cache(sel)
    ctx = as_context(g)
    reps = [ctx.elements[c.rep_index] for c in ctx.classes]
    for i, y in enumerate(reps):
        rec = cyclic_orbit(g, y)
        for j, z in enumerate(reps):
            same = i == j or ctx.bundle_of_class[i] == ctx.bundle_of_class[j] >= 0
            assert rec.contains(z) == same, (i, j)


def test_sylow(group_cache):
    for sel, facts in (
        ("sym_4", {2: 8, 3: 3}),
        ("alt_5", {2: 4, 3: 3, 5: 5}),
        ("alt_6", {2: 8, 3: 9, 5: 5}),
    ):
        g = group_cache(sel)
        for p, expected in facts.items():
            s = sylow(g, p)
            assert s.order == expected == p_part(g.order, p)
            n_p = g.order // normalizer(g, s).order
            assert n_p % p == 1


def test_sylow_preconditions(sym4):
    with pytest.raises(PreconditionError):
        sylow(sym4, 5)
    with pytest.raises(PreconditionError):
        sylow(sym4, 4)


def _two_generated_lattice(ctx):
    """Oracle: canonical forms of all subgroup classes, via 2-generated
    closures.  Complete whenever every subgroup of the group happens to be
    2-generated, which holds for Sym(4) and Alt(5)."""
    elems = ctx.elements
    ident = elems[0]
    sets = {frozenset({0})}
    for a, b in combinations_with_replacement(range(1, ctx.n), 2):
        closure = build_bsgs([elems[a], elems[b]], degree=ctx.group.degree)
        sets.add(frozenset(ctx.index[t] for t in closure.element_tables()))
    canonicals = set()
    while sets:
        start = next(iter(sets))
        seen = {start}
        queue = [start]
        while queue:
            cur = queue.pop()
            for ct in ctx.conj_tables:
                img = frozenset(ct[i] for i in cur)
                if img not in seen:
                    seen.add(img)
                    queue.append(img)
        canonicals.add(min(tuple(sorted(m)) for m in seen))
        sets -= seen
    return canonicals


@pytest.mark.parametrize("sel,n_classes", [("sym_4", 11), ("alt_5", 9)])
def test_subgroup_lattice_vs_oracle(group_cache, sel, n_classes):
    g = group_cache(sel)
    ctx = as_context(g)
    lattice = ctx.subgroup_classes()
    assert len(lattice) == n_classes
    assert {sc.canonical for sc in lattice} == _two_generated_lattice(ctx)
    for sc in lattice:
        assert sc.order == sc.representative.order == len(sc.indices)
        assert g.order % sc.order == 0
        assert sc.class_size * sc.normalizer_order == g.order
    orders = [sc.order for sc in lattice]
    assert orders == sorted(orders)


def test_lattice_orders(sym4, alt5):
    assert [sc.order for sc in as_context(sym4).subgroup_classes()] == [
        1, 2, 2, 3, 4, 4, 4, 6, 8, 12, 24,
    ]
    assert [sc.order for sc in as_context(alt5).subgroup_classes()] == [
        1, 2, 3, 4, 5, 6, 10, 12, 60,
    ]


@pytest.mark.parametrize("sel", ["cyclic_1", "sym_1"])
def test_trivial_group_lattice_has_one_class(sel):
    # the trivial subgroup is the whole group: one class, listed once
    lattice = as_context(resolve_group(sel)[1]).subgroup_classes()
    assert [(sc.order, sc.class_size) for sc in lattice] == [(1, 1)]


def _f20():
    # Frobenius group of order 20: x -> x+1 and x -> 2x on Z/5
    return build_bsgs(
        [Permutation(pack_table([1, 2, 3, 4, 0])), Permutation(pack_table([0, 2, 4, 1, 3]))]
    )


def test_structure_predicates(group_cache):
    c6 = structure_predicates(group_cache("cyclic_6"))
    assert c6.is_cyclic and c6.is_abelian and c6.exponent == 6
    assert not c6.is_elementary_abelian

    d6 = structure_predicates(group_cache("dihedral_6"))
    assert d6.is_dihedral and not d6.is_abelian
    assert d6.n_involutions == 7

    v4 = sylow(group_cache("alt_4"), 2)
    r = structure_predicates(v4)
    assert r.is_elementary_abelian and r.exponent == 2

    a4 = structure_predicates(group_cache("alt_4"))
    assert a4.n_involutions == 3
    assert a4.count_of_order(3) == 8
    assert a4.count_of_order(7) == 0
    assert not a4.is_dihedral

    f20 = structure_predicates(_f20())
    assert f20.is_frobenius_cyclic_complement
    assert f20.frobenius_kernel_order == 5
    assert f20.frobenius_complement_order == 4
    assert not f20.is_cyclic and not f20.is_dihedral


def test_is_simple(group_cache):
    assert is_simple_group(group_cache("alt_5"))
    assert is_simple_group(group_cache("alt_6"))
    assert is_simple_group(group_cache("cyclic_7"))
    assert not is_simple_group(group_cache("sym_4"))
    assert not is_simple_group(group_cache("alt_4"))
    assert not is_simple_group(group_cache("cyclic_6"))


def test_conj_map_is_conjugation_on_indices(alt5):
    # every member of alt_5 (bytes tables), and a spread of members of a
    # degree-300 dihedral group (tuple tables)
    a5, d300 = as_context(alt5), as_context(dihedral_spec(300).build())
    for ctx, hs in ((a5, a5.elements), (d300, d300.elements[::37])):
        for h in hs:
            assert ctx.conj_map(h) == [ctx.index[conjugate_table(e, h)] for e in ctx.elements]


def test_conj_map_on_member_tables(alt5):
    ctx = as_context(alt5)
    some = ctx.elements[::7]
    for h in ctx.elements[::11]:
        full = ctx.conj_map(h)
        assert ctx.conj_map(h, some) == full[::7]


@pytest.mark.parametrize("sel", ["alt_5", "psl2_7", "dihedral_300"])
def test_cyclic_generators(group_cache, sel):
    # every element, bytes tables (alt_5, psl2_7) and tuple tables (degree
    # 300); the oracle is {t^k : gcd(k, |t|) = 1} by table_power, built once
    # per cyclic subgroup: a generator of <s> generates <s> itself
    g = group_cache(sel)
    oracles: list[frozenset] = []
    for t in g.element_tables():
        want = next((w for w in oracles if t in w), None)
        if want is None:
            o = table_order(t)
            want = frozenset(table_power(t, k) for k in range(1, o + 1) if math.gcd(k, o) == 1)
            oracles.append(want)
        gens = _cyclic_generators(t, g.degree)
        assert len(gens) == len(want) and set(gens) == want
        assert _least_generator(table_order(t), g.degree)(t) == min(want)


def test_lattice_predicates_computed_when_read():
    # structure predicates are computed for the classes that are read, once,
    # and kept on the representative's context
    g = resolve_group("psl2_7")[1]
    classes = as_context(g).subgroup_classes()

    def has_record(sc):
        ctx = sc.representative._context
        return ctx is not None and "predicates" in vars(ctx)

    assert not any(map(has_record, classes))
    rec = as_context(classes[3].representative).predicates
    assert as_context(classes[3].representative).predicates is rec
    assert rec == structure_predicates(classes[3].representative)
    assert list(map(has_record, classes)).count(True) == 1


@pytest.mark.parametrize("sel", ["alt_5", "psl2_7", "m11"])
def test_prime_power_cyclic_numbering(group_cache, sel):
    ctx = as_context(group_cache(sel))
    cyc_of, rep = ctx._pp_numbering[:2]
    assert len(rep) == sum(
        b.n_subgroups for b in ctx.bundles if prime_power(b.element_order)
    )
    assert all(a < b for a, b in zip(rep, rep[1:]))
    for i, o in enumerate(ctx.element_orders):
        assert (cyc_of[i] >= 0) == (o > 1 and prime_power(o) is not None)
    for s, r in enumerate(rep):
        y = ctx.elements[r]
        o = ctx.element_orders[r]
        gens = [
            ctx.index[(Permutation(y) ** k).images] for k in range(1, o) if math.gcd(k, o) == 1
        ]
        assert min(gens) == r
        assert {cyc_of[i] for i in gens} == {s}


def test_prime_power_cyclic_count_cross_check():
    # a bundle count that disagrees with the numbering is a falsification,
    # named with both numbers, not an assert that python -O would drop
    ctx = as_context(resolve_group("alt_5")[1])
    bundles = ctx.bundles
    numbered = sum(b.n_subgroups for b in bundles if prime_power(b.element_order))
    bundles[-1].n_subgroups += 1
    with pytest.raises(FalsificationError, match=f"{numbered}.*{numbered + 1}"):
        ctx._pp_numbering[:2]


def _assert_last_class_is_the_group(g, classes):
    # the last class is G itself, whose representative carries the
    # generators and base the zoo built G with; the rows before it are
    # the proper subgroups, which the digests pin
    last = classes[-1]
    assert last.order == g.order and last.class_size == 1
    assert last.representative is g


# sha256 of each lattice's classes in order, the last (G itself) left out:
# (order, canonical, class size, normalizer order, representative generator
# tables, representative base).  The representatives are the first
# extensions the saturation finds, so this pins its exploration order as
# well as its result.
_LATTICE_DIGESTS = {
    "psl2_7": "6cf9ed9f849865813584001af435439d8a13d4c5a1982287e490d610428b2e35",
    "psl2_9": "7d2947a417258c8006b5214f8ac12e8b4ef62dbeda5f770443d1000a749faa64",
}


@pytest.mark.parametrize("sel", sorted(_LATTICE_DIGESTS))
def test_lattice_exploration_order_pinned(group_cache, sel):
    g = group_cache(sel)
    classes = as_context(g).subgroup_classes()
    rows = [
        [
            sc.order, list(sc.canonical), sc.class_size, sc.normalizer_order,
            [list(t) for t in sc.representative.gen_tables],
            list(sc.representative.base),
        ]
        for sc in classes[:-1]
    ]
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == _LATTICE_DIGESTS[sel]
    _assert_last_class_is_the_group(g, classes)


# sha256 of each lattice's classes in order, the last (G itself) left out:
# (order, canonical, class size, normalizer order, representative generator
# tables).  Unlike the pin above it leaves out the base, which is chain
# internals; the generators of a representative are A's followed by the
# extending y, so this still pins the saturation's exploration order.
_LATTICE_ORDER_DIGESTS = {
    "alt_7": "397181e3caf72eb99d024d4c97072c7fdba529726177b44c8f5ef9ebe0251f98",
    "m11": "054b45506d50ddd4b25f386466896f5553fc7c64d7a9ea3b4570af40cb715f9b",
    "psl2_16": "c43cb1218a0493f5c598f1a0aa76b0603fe8c95b486259b4417b3593509bf905",
    "psl3_3": "34ce19d700b27b8103d026b607b54a64121a63f649469dd8d108e8bc908ba4a8",
    "psu3_3": "e0134c199f5dde30fff6a6a6012ffa0243f223f94e148c49b758f5de62f15a03",
    "sym_5": "46caecd5e784a4470a6827458fa8964a780f960ff1ae3cb46539fb9610ca3928",
    "sym_6": "cfde271e104f767a4bbe7669b48754cdae0bf3fd3ecf5cd7f0a7d8f13dc942bf",
}


@pytest.mark.parametrize("sel", sorted(_LATTICE_ORDER_DIGESTS))
def test_lattice_representatives_pinned(group_cache, sel):
    g = group_cache(sel)
    classes = as_context(g).subgroup_classes()
    rows = [
        [
            sc.order, list(sc.canonical), sc.class_size, sc.normalizer_order,
            [list(t) for t in sc.representative.gen_tables],
        ]
        for sc in classes[:-1]
    ]
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == _LATTICE_ORDER_DIGESTS[sel]
    _assert_last_class_is_the_group(g, classes)


# sha256 of each lattice's classes in order, G itself included: (order,
# canonical, class size, normalizer order).  These depend only on G, not on
# which extension found a class first, so a change to the saturation's
# exploration order leaves them as they are while the pins above move.
_LATTICE_INVARIANT_DIGESTS = {
    "alt_7": "a6cc3307fe0663bd34cc21d5c1595a246ad3714e8e160800dc38a7f18ba682d2",
    "m11": "004c5ee333af66fe0926c31427d4ffe4fd73dead0cba2b19051888718acde3cf",
    "psl2_16": "be20182b7dceb47babad9de2edcf2e38b33b90507f620ad8390b33860ef8bf63",
    "psl2_7": "875a4988f569c6a3f86f428428001a33903086e6634b574e5b255d738213f51a",
    "psl2_9": "47a94d8a146c2d7592adc3d08aed5a327a57ea879bcdc458b623153968080867",
    "psl3_3": "bd6bf1f6196421116c90ad4ee48eca3defda9d36a5b2ed499283f32e69cd0a66",
    "psu3_3": "95d6b65c890fd5f3375201c93c4855954c6978d250c61d95f2b048e569f15f68",
    "sym_5": "aa6b2a580b4a6cdee7d256dd1ea5bf0a9bcb31533a6a27f088df1825c79cfdd4",
    "sym_6": "631e81492359685342e3e754c92ef2288749c8c41229332aebaae0193585ce07",
}


@pytest.mark.parametrize("sel", sorted(_LATTICE_DIGESTS.keys() | _LATTICE_ORDER_DIGESTS.keys()))
def test_lattice_class_invariants_pinned(group_cache, sel):
    rows = [
        [sc.order, list(sc.canonical), sc.class_size, sc.normalizer_order]
        for sc in as_context(group_cache(sel)).subgroup_classes()
    ]
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == _LATTICE_INVARIANT_DIGESTS[sel]


def test_saturation_skips_known_extensions(monkeypatch):
    # the saturation builds no chain whose result the marks of G-generating
    # <y> settle, enumerates no extension that equals an overgroup already
    # built from the same class, and tries only the <y> whose <y^p> lies in
    # the class; m11 took 2,877 chain extensions and 939 enumerations before
    # the first two shortcuts, and 1,816 and 243 before the third
    ctx = as_context(resolve_group("m11")[1])
    calls = Counter()
    extend_chain, iter_element_tables = enumeration.extend_chain, PermGroup.iter_element_tables

    def counted_extend(*args, **kwargs):
        calls["extend_chain"] += 1
        return extend_chain(*args, **kwargs)

    def counted_iter(self):
        calls["iter_element_tables"] += 1
        return iter_element_tables(self)

    monkeypatch.setattr(enumeration, "extend_chain", counted_extend)
    monkeypatch.setattr(PermGroup, "iter_element_tables", counted_iter)
    assert len(ctx.subgroup_classes()) == 39
    assert calls["extend_chain"] <= 1058
    assert calls["iter_element_tables"] <= 201


def test_saturation_skips_repeated_conjugation_work(monkeypatch):
    # each normalizer generator's map on the numbered cyclic subgroups is
    # built once per saturation, and orbit_stabilizer composes Schreier
    # generators only until the stabilizer is complete; m11 took 109 such
    # maps and 25,992 table products when every class rebuilt its maps and
    # every Schreier generator was formed
    ctx = as_context(resolve_group("m11")[1])
    calls = Counter()
    conj_map, compose_tables = GroupContext.conj_map, perm.compose_tables

    def counted_conj_map(self, h, members=None):
        if members is not None:
            calls["conj_map"] += 1
        return conj_map(self, h, members)

    def counted_compose(a, b):
        calls["compose_tables"] += 1
        return compose_tables(a, b)

    monkeypatch.setattr(GroupContext, "conj_map", counted_conj_map)
    monkeypatch.setattr(perm, "compose_tables", counted_compose)
    monkeypatch.setattr(enumeration, "compose_tables", counted_compose)
    assert len(ctx.subgroup_classes()) == 39
    assert calls["conj_map"] <= 50
    assert calls["compose_tables"] <= 436


def _subgroup_counts(g):
    """Number of subgroups of each order, summed over the lattice's classes."""
    counts = Counter()
    for sc in as_context(g).subgroup_classes():
        counts[sc.order] += sc.class_size
    return counts


# total numbers of subgroups, from the literature: sym_4, sym_5 and sym_6
# from OEIS A005432, dihedral_8 (order 16) as tau(8) + sigma(8)
_SUBGROUP_TOTALS = {
    "alt_5": 59, "psl2_7": 179, "alt_6": 501, "alt_7": 3786, "m11": 8651,
    "sym_4": 30, "sym_5": 156, "sym_6": 1455, "dihedral_8": 19,
}


@pytest.mark.parametrize("sel", sorted(_SUBGROUP_TOTALS))
def test_lattice_total_subgroup_count(group_cache, sel):
    assert sum(_subgroup_counts(group_cache(sel)).values()) == _SUBGROUP_TOTALS[sel]


@pytest.mark.parametrize(
    "sel", sorted(_SUBGROUP_TOTALS) + ["psl2_8", "psl2_11", "psl2_13", "psl2_16"]
)
def test_lattice_prime_power_counts_are_one_mod_p(group_cache, sel):
    # Frobenius: for every p^k dividing |G| the number of subgroups of order
    # p^k is 1 mod p; a class the saturation missed would show here
    g = group_cache(sel)
    counts = _subgroup_counts(g)
    for p in prime_divisors(g.order):
        q = p
        while g.order % q == 0:
            assert counts[q] % p == 1, (sel, q, counts[q])
            q *= p


def test_subgroup_closure_membership(alt5):
    odd = Permutation(pack_table([1, 0, 2, 3, 4]))
    with pytest.raises(MembershipError):
        subgroup_closure(alt5, [odd])
    # a seed of another degree is no member either
    with pytest.raises(MembershipError):
        subgroup_closure(alt5, [Permutation(pack_table([1, 2, 0, 3]))])
    even = Permutation(pack_table([1, 2, 0, 3, 4]))
    assert subgroup_closure(alt5, [even]).order == 3
    assert subgroup_closure(alt5, []).order == 1


def test_as_context_cached(sym4):
    ctx = as_context(sym4)
    assert as_context(sym4) is ctx
    assert ctx.group is sym4 and sym4._context is ctx


def test_caps(group_cache):
    fresh = resolve_group("alt_5")[1]
    with pytest.raises(CapExceededError):
        as_context(fresh, element_cap=59)
    # the cap binds on a cached context too
    ctx = as_context(fresh)
    assert ctx.n == 60
    with pytest.raises(CapExceededError):
        as_context(fresh, element_cap=10)
    assert as_context(fresh, element_cap=60) is ctx
    with pytest.raises(CapExceededError):
        as_context(group_cache("sym_5")).subgroup_classes(100)


def test_lagrange_over_lattice(group_cache):
    g = group_cache("psl2_7")
    lattice = as_context(g).subgroup_classes()
    assert len(lattice) == 15
    for sc in lattice:
        assert math.gcd(sc.order, g.order) == sc.order


def test_context_freed_with_group():
    # the context lives on its group, so it must not keep the group alive
    g = resolve_group("psl2_7")[1]
    assert len(as_context(g).classes) == 6
    ref = weakref.ref(g)
    del g
    gc.collect()
    assert ref() is None
