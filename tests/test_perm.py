import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fixitylab import perm
from fixitylab.cosets import build_coset_action, chain_canonicalizer
from fixitylab.enumeration import _least_generator, cyclic_conjugation
from fixitylab.errors import (
    DegreeMismatchError,
    FalsificationError,
    MembershipError,
    NotBijectionError,
)
from fixitylab.perm import (
    PermGroup,
    Permutation,
    build_bsgs,
    compose_tables,
    conjugate_table,
    extend_chain,
    identity_table,
    invert_table,
    orbit_partition,
    orbit_stabilizer,
    orbit_walk,
    pack_table,
    point_stabilizer,
    table_action,
    table_order,
    table_power,
)
from fixitylab.zoo import alt_spec, resolve_group, sym_spec


def random_table(degree: int, seed: int):
    rng = random.Random(seed)
    imgs = list(range(degree))
    rng.shuffle(imgs)
    return pack_table(imgs)


# degrees straddle the bytes/tuple representation switch at 255
table_st = st.builds(
    random_table,
    st.sampled_from([1, 2, 5, 17, 100, 255, 256, 300]),
    st.integers(0, 10**6),
)


def paired_tables(n_tables: int):
    return st.tuples(
        st.sampled_from([1, 2, 5, 17, 100, 255, 256, 300]),
        st.lists(st.integers(0, 10**6), min_size=n_tables, max_size=n_tables),
    ).map(lambda t: [random_table(t[0], s) for s in t[1]])


@given(paired_tables(3))
def test_compose_associative(ts):
    a, b, c = ts
    assert compose_tables(compose_tables(a, b), c) == compose_tables(a, compose_tables(b, c))


@given(table_st)
def test_inverse_laws(t):
    n = len(t)
    e = identity_table(n)
    assert compose_tables(t, invert_table(t)) == e
    assert compose_tables(invert_table(t), t) == e
    assert invert_table(invert_table(t)) == t


@given(paired_tables(2))
def test_conjugate_is_inv_g_x_g(ts):
    x, g = ts
    expected = compose_tables(compose_tables(invert_table(g), x), g)
    assert conjugate_table(x, g) == expected


@given(table_st)
def test_order_matches_cycle_lcm(t):
    perm = Permutation(t, _trusted=True)
    lengths = [len(c) for c in perm.cycles()] or [1]
    assert table_order(t) == math.lcm(*lengths)


@given(table_st, st.integers(-12, 12))
def test_power_is_iterated_compose(t, k):
    acc = identity_table(len(t))
    base = t if k >= 0 else invert_table(t)
    for _ in range(abs(k)):
        acc = compose_tables(acc, base)
    assert table_power(t, k) == acc


def test_compose_convention_left_then_right():
    # images of "apply a then b": i -> b[a[i]]
    a = pack_table([1, 2, 0])
    b = pack_table([0, 2, 1])
    assert compose_tables(a, b) == bytes([2, 1, 0])


def test_pack_table_rejects_non_bijections():
    with pytest.raises(NotBijectionError):
        pack_table([0, 0, 1])
    with pytest.raises(NotBijectionError):
        pack_table([0, 3, 1])
    with pytest.raises(NotBijectionError):
        pack_table([0, 1], degree=3)


def test_representation_switches_at_255():
    assert isinstance(pack_table(list(range(255))), bytes)
    assert isinstance(pack_table(list(range(256))), tuple)


def test_permutation_algebra():
    p = Permutation.from_cycles(5, [(0, 1, 2)])
    q = Permutation.from_cycles(5, [(2, 3)])
    assert (p * q).images == pack_table([1, 3, 0, 2, 4])
    assert (~p * p) == Permutation.identity(5)
    assert p ** 3 == Permutation.identity(5)
    assert p ** -1 == ~p
    assert p.order() == 3
    assert p.fixed_points() == [3, 4]
    assert q.cycles() == [(2, 3)]


def test_permutation_is_immutable_and_hashable():
    p = Permutation.from_cycles(4, [(0, 1)])
    with pytest.raises(AttributeError):
        p.images = pack_table([0, 1, 2, 3])
    assert len({p, ~p, p * p}) == 2


def test_degree_mismatch_raises():
    a = pack_table([1, 0])
    b = pack_table([1, 2, 0])
    with pytest.raises(DegreeMismatchError):
        compose_tables(a, b)


def _point_orbit(g, point):
    """The orbit of a point in discovery order and its transversal, a table
    carrying the point to each member, read from orbit_stabilizer's index
    and tree transversal."""
    tables = g.gen_tables
    index, _, transversal = orbit_stabilizer(g, point, lambda p, j: tables[j][p])
    return list(index), {p: transversal(q) for p, q in index.items()}


def test_orbit_and_transversal():
    g = build_bsgs([Permutation.from_cycles(6, [(0, 1, 2, 3, 4, 5)])])
    points, transversal = _point_orbit(g, 2)
    assert sorted(points) == list(range(6))
    for p in points:
        assert transversal[p][2] == p


@pytest.mark.parametrize(
    "n,expected",
    [(1, 1), (2, 2), (3, 6), (4, 24), (5, 120), (6, 720), (7, 5040)],
)
def test_symmetric_group_orders(n, expected):
    gens = [Permutation.from_cycles(n, [(i, i + 1)]) for i in range(n - 1)]
    if not gens:
        gens = [Permutation.identity(1)]
    assert build_bsgs(gens).order == expected


def test_bsgs_membership_is_exact(alt5):
    odd = Permutation.from_cycles(5, [(0, 1)])
    assert not alt5.contains(odd)
    tables = alt5.element_tables()
    assert len(tables) == 60
    assert tables == sorted(tables)
    assert all(alt5.contains_table(t) for t in tables)
    assert alt5.sift(odd.images) != identity_table(5)


def test_trivial_group_needs_explicit_degree():
    g = build_bsgs([], degree=4)
    assert g.order == 1 and g.degree == 4


def test_point_stabilizer_order_and_fixed_point(sym4):
    stab = point_stabilizer(sym4, 2)
    assert isinstance(stab, PermGroup)
    assert stab.order == 6
    assert all(t[2] == 2 for t in stab.element_tables())
    with pytest.raises(ValueError):
        point_stabilizer(sym4, 9)


@pytest.mark.parametrize("name", ["sym_4", "alt_7", "m12", "dihedral_300", "trivial"])
def test_point_stabilizer_is_every_element_fixing_the_point(group_cache, name):
    # oracle: the elements of G that fix p, scanned over all of G; bytes
    # tables (sym_4, alt_7, m12), tuple tables (dihedral_300) and the
    # trivial group on 4 points
    g = build_bsgs([], degree=4) if name == "trivial" else group_cache(name)
    for p in sorted({0, g.degree - 1}):
        stab = point_stabilizer(g, p)
        assert stab.order == g.order // len(_point_orbit(g, p)[0])
        want = [t for t in g.element_tables() if t[p] == p]
        assert stab.element_tables() == want


def test_point_stabilizer_of_trivial_group():
    # a hinted base point that no generator reaches still gets its orbit
    assert build_bsgs([Permutation.identity(4)], base_hint=[0]).order == 1
    assert build_bsgs([Permutation.from_cycles(5, [(0, 1)])], base_hint=[0, 2]).order == 2
    assert point_stabilizer(build_bsgs([], degree=4), 0).order == 1


@settings(max_examples=25)
@given(st.integers(3, 30), st.integers(0, 10**6))
# inputs that once exceeded the deadline, and the slowest degree-30 pair seen
@example(n=26, seed=652)
@example(n=27, seed=0)
@example(n=30, seed=11)
def test_bsgs_order_equals_closure_size(n, seed):
    rng = random.Random(seed)
    imgs1 = list(range(n))
    rng.shuffle(imgs1)
    imgs2 = list(range(n))
    rng.shuffle(imgs2)
    g = build_bsgs([Permutation(pack_table(imgs1)), Permutation(pack_table(imgs2))])
    # breadth-first closure as an order oracle; keep it tractable
    if g.order > 5000:
        return
    elems = {identity_table(n)}
    frontier = [identity_table(n)]
    while frontier:
        cur = frontier.pop()
        for t in g.gen_tables:
            nxt = compose_tables(cur, t)
            if nxt not in elems:
                elems.add(nxt)
                frontier.append(nxt)
    assert len(elems) == g.order


def test_orbit_stabilizer_point_action():
    g = build_bsgs(
        [Permutation.from_cycles(5, [(0, 1, 2, 3, 4)]), Permutation.from_cycles(5, [(0, 1)])]
    )
    index, chain, transversal = orbit_stabilizer(g, 3, lambda p, j: g.gen_tables[j][p])
    points = list(index)
    assert sorted(points) == [0, 1, 2, 3, 4] and points[0] == 3
    assert all(transversal(q)[3] == p for p, q in index.items())
    assert chain.order == 24
    assert all(t[3] == 3 for t in chain.element_tables())


def test_orbit_stabilizer_cross_check():
    # an "action" with an orbit of length 5 cannot be one of a group of order 24
    g = build_bsgs(
        [Permutation.from_cycles(4, [(0, 1, 2, 3)]), Permutation.from_cycles(4, [(0, 1)])]
    )
    with pytest.raises(FalsificationError):
        orbit_stabilizer(g, 0, lambda s, j: (s + 1) % 5)


def _eager_orbit_stabilizer(g, start, act, seed=()):
    """The eager algorithm that orbit_stabilizer replaced: every transversal
    element, its inverse and every Schreier generator formed during the
    walk, then fed to the greedy loop."""
    gen_tables = g.gen_tables
    ident = g.identity_table()
    trans = {start: ident}
    inv_trans = {start: ident}
    members = [start]
    schreier = {}
    for cur in members:
        for j, gt in enumerate(gen_tables):
            nxt = act(cur, j)
            x = compose_tables(trans[cur], gt)
            if nxt not in trans:
                trans[nxt] = x
                inv_trans[nxt] = invert_table(x)
                members.append(nxt)
                continue
            s = compose_tables(x, inv_trans[nxt])
            if s != ident:
                schreier[s] = None
    target = g.order // len(members)
    chain = perm._trivial_chain(g.degree)
    for t in [*seed, *schreier]:
        if chain.order == target:
            break
        if not chain.contains_table(t):
            chain = extend_chain(chain, [t])
    return members, chain


def _assert_matches_eager(g, start, act, seed=()):
    index, chain, _ = orbit_stabilizer(g, start, act, seed)
    members = list(index)
    old_members, old_chain = _eager_orbit_stabilizer(g, start, act, seed)
    assert members == old_members
    assert chain.gen_tables == old_chain.gen_tables
    assert _snapshot(chain) == _snapshot(old_chain)
    assert chain.order * len(members) == g.order


_ORACLE_GROUPS = ("sym_6", "alt_7", "psl2_11", "m11")


@pytest.mark.parametrize("name", _ORACLE_GROUPS)
def test_orbit_stabilizer_matches_eager_on_points(name):
    g = resolve_group(name)[1]
    tables = g.gen_tables
    for p in (0, g.degree - 1):
        _assert_matches_eager(g, p, lambda q, j: tables[j][q])


@pytest.mark.parametrize("name", _ORACLE_GROUPS)
def test_orbit_stabilizer_matches_eager_on_4_subsets(name):
    g = resolve_group(name)[1]
    tables = g.gen_tables
    start = frozenset(range(4))
    _assert_matches_eager(g, start, lambda s, j: frozenset(tables[j][q] for q in s))


@pytest.mark.parametrize("name", _ORACLE_GROUPS)
def test_orbit_stabilizer_matches_eager_on_cyclic_conjugation(name):
    # the normalizer of <c>, seeded with c as normalizer() seeds it
    g = resolve_group(name)[1]
    a, b = g.gen_tables[:2]
    for t in (a, b, compose_tables(a, b), compose_tables(compose_tables(a, b), b)):
        if t != g.identity_table():
            start = _least_generator(table_order(t), g.degree)(t)
            _assert_matches_eager(g, start, cyclic_conjugation(g, table_order(t)), [t])


@settings(max_examples=60)
@given(st.integers(2, 8), st.lists(st.integers(0, 10**6), min_size=1, max_size=3), st.data())
def test_orbit_stabilizer_matches_eager_on_random_groups(degree, seeds, data):
    # small powers too, so that orbits and stabilizers take many sizes
    gens = [table_power(random_table(degree, s), 1 + s % 3) for s in seeds]
    g = build_bsgs(gens, degree=degree)
    tables = g.gen_tables
    p = data.draw(st.integers(0, degree - 1))
    _assert_matches_eager(g, p, lambda q, j: tables[j][q])
    pair = frozenset((p, (p + 1) % degree))
    _assert_matches_eager(g, pair, lambda s, j: frozenset(tables[j][q] for q in s))


@settings(max_examples=25)
@given(st.integers(3, 7), st.integers(0, 10**6))
def test_extend_chain_matches_rebuild(n, seed):
    rng = random.Random(seed)

    def element():
        # small powers too, so that A and <A, B> are often proper subgroups
        return table_power(random_table(n, rng.randrange(10**6)), rng.randrange(1, 4))

    a = [element() for _ in range(rng.randint(1, 2))]
    b = [element() for _ in range(rng.randint(1, 2))]
    chain = build_bsgs(a)
    before = (list(chain.base), [list(lvl) for lvl in chain.strong_gens], chain.order)
    ext = extend_chain(chain, b)
    full = build_bsgs(a + b)
    assert ext.order == full.order
    assert ext.element_tables() == full.element_tables()
    assert [p.images for p in ext.generators] == a + b
    assert (chain.base, chain.strong_gens, chain.order) == before


_AMBIENTS = {
    (name, n): f(n).build()
    for name, f in (("alt", alt_spec), ("sym", sym_spec))
    for n in range(3, 8)
}


def _random_member(g, rng):
    # one transversal element per level, multiplied as in iter_element_tables:
    # every member of g is hit with the same probability
    t = g.identity_table()
    for trans in reversed(g.transversals):
        t = compose_tables(t, rng.choice(list(trans.values())))
    return t


def _snapshot(chain):
    return (
        list(chain.base), [list(lvl) for lvl in chain.strong_gens],
        [dict(tr) for tr in chain.transversals], chain.order,
    )


@settings(max_examples=60)
@given(st.sampled_from(sorted(_AMBIENTS)), st.integers(0, 10**6))
def test_extend_chain_known_order_stop(key, seed):
    g = _AMBIENTS[key]
    rng = random.Random(seed)

    def element():
        # small powers too, so that <A, y> is often a proper subgroup
        return table_power(_random_member(g, rng), rng.randrange(1, 4))

    a = [element() for _ in range(rng.randint(1, 2))]
    y = element()
    chain = build_bsgs(a)
    before = _snapshot(chain)
    ext = extend_chain(chain, [y], ambient=g)
    if build_bsgs(a + [y]).order == g.order:
        assert ext is g
    else:
        assert ext is not g
        assert _snapshot(ext) == _snapshot(extend_chain(chain, [y]))
    assert _snapshot(chain) == before


_CHAIN_AMBIENTS = {**_AMBIENTS, ("alt", 8): alt_spec(8).build(), ("sym", 8): sym_spec(8).build()}


@settings(max_examples=40)
@given(st.sampled_from(sorted(_CHAIN_AMBIENTS)), st.integers(0, 10**6))
def test_extend_chain_levels_are_valid(key, seed):
    g = _CHAIN_AMBIENTS[key]
    rng = random.Random(seed)

    def elements():
        # small powers too, so that the levels grow a few points at a time
        return [
            table_power(_random_member(g, rng), rng.randrange(1, 4))
            for _ in range(rng.randint(1, 2))
        ]

    chain = build_bsgs(elements())
    before = _snapshot(chain), [dict(inv) for inv in chain.inverses]
    ext = extend_chain(chain, elements())
    ident = ext.identity_table()
    for i, b in enumerate(ext.base):
        trans, inv, sgens = ext.transversals[i], ext.inverses[i], ext.strong_gens[i]
        assert set(trans) == set(orbit_walk(b, lambda p, j: sgens[j][p], len(sgens))[0])
        for p, u in trans.items():
            assert u[b] == p
            assert all(u[c] == c for c in ext.base[:i])
            assert u.translate(inv[p]) == ident
    assert ext.order == len(set(ext.iter_element_tables()))
    assert (_snapshot(chain), [dict(inv) for inv in chain.inverses]) == before


def _two_orbit_group():
    return build_bsgs(
        [Permutation.from_cycles(8, [(0, 1, 2)]), Permutation.from_cycles(8, [(3, 4), (5, 6)])]
    )


def test_orbit_partition_point_action():
    g = _two_orbit_group()
    orbit_of, orbits = orbit_partition(g.degree, g.gen_tables)
    assert [o[0] for o in orbits] == [0, 3, 5, 7]
    for p in range(g.degree):
        assert sorted(orbits[orbit_of[p]]) == sorted(_point_orbit(g, p)[0])


def test_orbit_walk_point_action():
    g = _two_orbit_group()
    tables = g.gen_tables
    for p in range(g.degree):
        points = list(orbit_walk(p, lambda q, j: tables[j][q], len(tables))[0])
        assert points[0] == p
        assert sorted(points) == sorted(_point_orbit(g, p)[0])


def _eager_orbit(g, point):
    """A point orbit with each new point's transversal element formed as
    it is discovered, the loop orbit_stabilizer's tree transversal
    replaced."""
    ident = g.identity_table()
    trans = {point: ident}
    queue = [point]
    tables = g.gen_tables
    for pt in queue:
        u = trans[pt]
        for t in tables:
            img = t[pt]
            if img not in trans:
                trans[img] = compose_tables(u, t)
                queue.append(img)
    return queue, trans


def _eager_coset_numbering(g, u):
    """The loop build_coset_action numbered the cosets with before it ran on
    orbit_walk: canonical reps, their index and one image column per
    generator, recorded as the walk goes."""
    canon = chain_canonicalizer(u)
    ident = identity_table(g.degree)
    reps = [ident]
    index = {ident: 0}
    act, as_operand = table_action(g.degree)
    gen_ops = [as_operand(t) for t in g.gen_tables]
    image_cols = [[] for _ in gen_ops]
    i = 0
    while i < len(reps):
        r = reps[i]
        for j, op in enumerate(gen_ops):
            c = canon(act(r, op))
            k = index.get(c)
            if k is None:
                k = len(reps)
                reps.append(c)
                index[c] = k
            image_cols[j].append(k)
        i += 1
    return reps, index, image_cols


def _checked_walk(g, start, act):
    """orbit_walk under g's generators, checked against a log of its calls
    of act: each edge's target numbers act's result, and the first edge
    with target q is the call that first returned q, which is the edge
    _tree_transversal records as discovering q."""
    n = len(g.generators)
    calls = []

    def logged(s, j):
        calls.append(act(s, j))
        return calls[-1]

    index, targets = orbit_walk(start, logged, n)
    members = list(index)
    assert len(targets) == len(calls) == len(members) * n
    for i, s in enumerate(members):
        for j in range(n):
            assert targets[i * n + j] == index[act(s, j)]
    first_call, first_edge = {}, {}
    for e, (s, q) in enumerate(zip(calls, targets)):
        first_call.setdefault(s, e)
        first_edge.setdefault(q, e)
    first_call.pop(start, None)
    first_edge.pop(0, None)
    assert list(first_call) == members[1:]
    assert [first_edge[q] for q in range(1, len(members))] == list(first_call.values())
    found_by = perm._tree_transversal(g, targets)[0]
    assert found_by == [-1, *first_call.values()]
    return index, targets


def _assert_point_orbit_matches_eager(g, p):
    tables = g.gen_tables
    walked, transversal = _point_orbit(g, p)
    points, trans = _eager_orbit(g, p)
    assert walked == points
    assert list(transversal.items()) == list(trans.items())
    _checked_walk(g, p, lambda q, j: tables[j][q])


def _assert_coset_action_matches_eager(g, u):
    action = build_coset_action(g, u)
    reps, index, image_cols = _eager_coset_numbering(g, u)
    assert action.canonical_reps == reps
    assert list(action.coset_index.items()) == list(index.items())
    assert [p.images for p in action.images] == [pack_table(c) for c in image_cols]
    act, as_operand = table_action(g.degree)
    ops = [as_operand(t) for t in g.gen_tables]
    _, targets = _checked_walk(g, reps[0], lambda r, j: action.canon(act(r, ops[j])))
    # the tree transversal element of each coset lies in it
    transversal = perm._tree_transversal(g, targets)[1]
    assert [action.canon(transversal(q)) for q in range(len(reps))] == reps


@pytest.mark.parametrize("name", ["psl2_11", "m11", "alt_7"])
def test_orbit_walk_matches_eager_orbit_and_coset_numbering(name):
    g = resolve_group(name)[1]
    for p in (0, g.degree - 1):
        _assert_point_orbit_matches_eager(g, p)
    _assert_coset_action_matches_eager(g, point_stabilizer(g, 0))
    cyclic = build_bsgs(g.gen_tables[:1], degree=g.degree)
    _assert_coset_action_matches_eager(g, cyclic)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 8), st.lists(st.integers(0, 10**6), min_size=1, max_size=3), st.data())
def test_orbit_walk_matches_eager_on_random_groups(degree, seeds, data):
    gens = [table_power(random_table(degree, s), 1 + s % 3) for s in seeds]
    g = build_bsgs(gens, degree=degree)
    p = data.draw(st.integers(0, degree - 1))
    _assert_point_orbit_matches_eager(g, p)
    _assert_coset_action_matches_eager(g, point_stabilizer(g, p))
    h = g.gen_tables[-1]
    if g.order // table_order(h) <= 2000:
        _assert_coset_action_matches_eager(g, build_bsgs([h], degree=degree))
