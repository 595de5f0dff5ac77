"""Exhaustive structural computations for fully enumerable groups.

Most of it works on a :class:`GroupContext`: the sorted element list of one
group together with lookup tables for conjugation by each generator.
Conjugacy classes, centralizers and the subgroup lattice up to conjugacy
reduce to orbit computations on element indices (or on sorted tuples of them)
under that conjugation action, with Schreier generators supplying the
stabilizers.  ``normalizer`` and ``sylow`` need no context: they label a
subgroup's conjugates, a cyclic subgroup given by one generator by its least
generator and any other by its set of element tables, so G is never
enumerated.  A cyclic subgroup's conjugates are walked under the pointwise
stabilizer of a short base prefix of G, one coset test per image of the
prefix giving the rest of its normalizer (``cyclic_orbit``); the same test
decides whether two cyclic subgroups are conjugate, so no walk is kept on
the group.
"""

from __future__ import annotations

import math
from array import array
from bisect import insort
from collections import Counter, deque
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate, compress, repeat
from typing import Callable

from .errors import CapExceededError, FalsificationError, GroupDataError
from .errors import MembershipError, PreconditionError
from .ffield import euler_phi, is_prime, p_part, prime_divisors, prime_power
from .perm import (
    ImageTable,
    PermGroup,
    Permutation,
    _greedy_chain,
    build_bsgs,
    check_subgroup,
    compose_tables,
    conjugate_table,
    conjugator,
    extend_chain,
    identity_table,
    invert_table,
    orbit_partition,
    orbit_stabilizer,
    orbit_walk,
    table_action,
    table_order,
    table_power,
)

ELEMENT_CAP = 200_000
SUBGROUP_CAP = 10_000


@dataclass(eq=False)
class ConjClass:
    """One conjugacy class of group elements."""

    representative: Permutation
    size: int
    element_order: int
    centralizer_order: int
    rep_index: int
    indices: tuple[int, ...]


@dataclass(eq=False)
class CyclicBundle:
    """One conjugacy class of nontrivial cyclic subgroups.

    Fuses the element classes whose members generate conjugate cyclic
    subgroups; every generator of such a subgroup has the same order and the
    same centralizer order, so the pair (element_order, centralizer_order)
    is well defined per bundle.
    """

    rep_index: int
    element_order: int
    centralizer_order: int
    n_subgroups: int
    normalizer_order: int


@dataclass(frozen=True)
class StructureRecord:
    """Structure flags for one group, computed by definition."""

    order: int
    exponent: int
    is_cyclic: bool
    is_abelian: bool
    is_elementary_abelian: bool
    is_dihedral: bool
    n_involutions: int
    is_frobenius_cyclic_complement: bool
    frobenius_kernel_order: int | None
    frobenius_complement_order: int | None
    order_counts: tuple[tuple[int, int], ...]

    def count_of_order(self, k: int) -> int:
        for o, c in self.order_counts:
            if o == k:
                return c
        return 0


@dataclass(eq=False)
class SubgroupClass:
    """One conjugacy class of subgroups."""

    representative: PermGroup
    normalizer_order: int
    class_size: int
    order: int
    indices: frozenset[int]
    canonical: tuple[int, ...]


class GroupContext:
    """Cached exhaustive data for one fully enumerated group: its conjugacy
    classes and classes of cyclic subgroups, computed when it is built; its
    structure record and subgroup lattice, computed on first use."""

    def __init__(self, group: PermGroup):
        self.group = group
        self.elements: list[ImageTable] = group.element_tables()
        self.n = len(self.elements)
        self.index: dict[ImageTable, int] = {t: i for i, t in enumerate(self.elements)}
        # the identity is lexicographically least: the first moved point of
        # any other element maps strictly upward
        if self.elements[0] != identity_table(group.degree):
            raise FalsificationError(
                f"least element {self.elements[0]!r} is not the identity"
            )
        # called through self, so a wrapper set on the class (perfbench's
        # tracer) sees the work
        self._compute_classes()
        self._compute_bundles()
        self._subgroup_classes: list[SubgroupClass] | None = None
        self._pp_maps: dict[ImageTable, array] = {}

    # -- conjugation action on element indices --------------------------------

    def conj_map(self, h: ImageTable, members: list[ImageTable] | None = None) -> list[int]:
        """Conjugation by a member h: the index of h^-1 * e * h for each table
        e of ``members`` (default: all elements, giving the index map
        i -> index of h^-1 * e_i * h)."""
        if members is None:
            members = self.elements
        return list(map(self.index.__getitem__, map(conjugator(h), members)))

    @cached_property
    def conj_tables(self) -> list[list[int]]:
        """conj_tables[j] = conj_map of the j-th generator."""
        return [self.conj_map(t) for t in self.group.gen_tables]

    def index_of(self, t: ImageTable) -> int:
        """Index of a member of the group."""
        i = self.index.get(t)
        if i is None:
            raise MembershipError("element is not a member of the group")
        return i

    def indices_of(self, sub: PermGroup) -> list[int]:
        """Element indices of a subgroup, in its sorted element order."""
        try:
            return [self.index[t] for t in sub.element_tables()]
        except KeyError:
            raise MembershipError("subgroup element is not a member of the group") from None

    # -- conjugacy classes -----------------------------------------------------

    def _compute_classes(self) -> None:
        n = self.n
        class_of, orbits = orbit_partition(n, self.conj_tables)
        orders = [0] * n
        classes: list[ConjClass] = []
        for members in orbits:
            start = members[0]
            o = table_order(self.elements[start])
            for m in members:
                orders[m] = o
            size = len(members)
            if self.n % size:
                raise MembershipError("class size does not divide the group order")
            classes.append(
                ConjClass(
                    representative=Permutation(self.elements[start], _trusted=True),
                    size=size,
                    element_order=o,
                    centralizer_order=self.n // size,
                    rep_index=start,
                    indices=tuple(sorted(members)),
                )
            )
        if sum(c.size for c in classes) != n:
            raise FalsificationError(
                f"class sizes {[c.size for c in classes]} do not sum to |G| = {n}"
            )
        self.classes = classes
        self.class_of = class_of
        self.element_orders = orders

    # -- classes of cyclic subgroups -------------------------------------------

    def _compute_bundles(self) -> None:
        classes = self.classes
        bundle_of_class = [-1] * len(classes)
        bundles = []
        for cid, c0 in enumerate(classes):
            o = c0.element_order
            if o == 1 or bundle_of_class[cid] >= 0:
                continue
            # the generators of the conjugates of <x> are the conjugates of
            # the generators x^k of <x>: their classes fuse into one bundle,
            # phi(o) generators per subgroup
            x = self.elements[c0.rep_index]
            gens = _cyclic_generators(x, self.group.degree)
            cids = sorted({self.class_of[self.index[t]] for t in gens})
            for c in cids:
                bundle_of_class[c] = len(bundles)
            pairs = {(classes[c].element_order, classes[c].centralizer_order) for c in cids}
            if len(pairs) != 1:
                raise FalsificationError(
                    f"fused classes {cids} have (element order, centralizer order) {sorted(pairs)}"
                )
            n_gen = sum(classes[c].size for c in cids)
            phi = euler_phi(o)
            if n_gen % phi or (self.n * phi) % n_gen:
                raise MembershipError("generator count inconsistent with phi(order)")
            bundles.append(
                CyclicBundle(
                    rep_index=c0.rep_index,
                    element_order=o,
                    centralizer_order=c0.centralizer_order,
                    n_subgroups=n_gen // phi,
                    normalizer_order=self.n * phi // n_gen,
                )
            )
        self.bundles = bundles
        # class id -> bundle id; -1 for the identity class
        self.bundle_of_class = bundle_of_class

    @cached_property
    def predicates(self) -> StructureRecord:
        """Structure flags of the group, computed on first read."""
        return structure_predicates(self.group)

    @cached_property
    def _pp_numbering(self) -> tuple[list[int], list[int], list[int]]:
        """``(cyc_of, rep, root)`` for the cyclic subgroups of prime-power
        order > 1, numbered in order of their least generator index:
        ``cyc_of[i]`` is the subgroup element i generates (-1 for the
        identity and elements of other orders), ``rep[s]`` the least
        generator of subgroup s, and ``root[s]`` the index of y^p for
        y = e_rep[s] of order p^k: the generator of the subgroup of index p
        in <y>, read off the powers that number <y>."""
        index, elements, degree = self.index, self.elements, self.group.degree
        cyc_of = [-1] * self.n
        rep: list[int] = []
        root: list[int] = []
        for i, o in enumerate(self.element_orders):
            if cyc_of[i] >= 0 or (pp := prime_power(o)) is None:
                continue
            powers = _cyclic_tables(elements[i], degree)
            for t in compress(powers, _coprime_mask(o)):
                cyc_of[index[t]] = len(rep)
            rep.append(i)
            root.append(index[powers[pp[0] % o]])
        expected = sum(
            b.n_subgroups for b in self.bundles if prime_power(b.element_order)
        )
        if len(rep) != expected:
            raise FalsificationError(
                f"numbered {len(rep)} cyclic subgroups of prime-power order, "
                f"the bundles count {expected}"
            )
        return cyc_of, rep, root

    # -- subgroup lattice -------------------------------------------------------

    def _subgroup_orbit(
        self, key: tuple[int, ...], chain: PermGroup
    ) -> tuple[dict[tuple[int, ...], int], PermGroup]:
        """Conjugation orbit of a subgroup given as its sorted element-index
        tuple and by its chain, with the normalizer chain.  The orbit's
        members are sorted index tuples too: its length is the class size
        and its least member the class's canonical form."""
        conj = self.conj_tables

        def apply(state: tuple[int, ...], j: int) -> tuple[int, ...]:
            return tuple(sorted(map(conj[j].__getitem__, state)))

        return orbit_stabilizer(self.group, key, apply, chain.gen_tables)[:2]

    def _pp_map(self, t: ImageTable) -> array:
        """Conjugation by a member t on the numbered prime-power cyclic
        subgroups (:attr:`_pp_numbering`): entry s is the subgroup of
        t^-1 * e_rep[s] * t.  Built once per table and kept on the context as
        a C int array, so that every saturation of the group shares it."""
        m = self._pp_maps.get(t)
        if m is None:
            cyc_of, rep, _ = self._pp_numbering
            rep_tables = [self.elements[i] for i in rep]
            m = self._pp_maps[t] = array("I", map(cyc_of.__getitem__, self.conj_map(t, rep_tables)))
        return m

    def _compute_subgroup_classes(
        self,
        seeds: list[tuple[PermGroup, list[ImageTable]]],
        avoid: frozenset[int] = frozenset(),
        leaf_index: int = 1,
    ) -> list[SubgroupClass]:
        """The conjugacy classes of the subgroups that contain a conjugate of
        a seed and meet no bundle in ``avoid`` (ids of bundles of prime
        order), sorted by (order, canonical form); a seed is given as its
        chain and its element tables.  A seed that meets an avoided bundle
        is dropped, and so is every extension that does.  A class of index
        at most ``leaf_index`` is kept but not extended; G itself is found
        only as a seed.  With the seeds 1, G and one cyclic subgroup per
        bundle, nothing avoided and ``leaf_index`` 1, this is the whole
        lattice."""
        # Two shortcuts spare the saturation below chains whose result is
        # already known; neither changes which y is tried, in what order, or
        # the chain built for a proper extension, so the classes are the same.
        # - Inherited generation: ``full`` marks the cyclic subgroups <y> with
        #   <A, y> = G.  A class first found as <P, y0> has a representative
        #   containing P's, so it starts from P's finished marks; N(A)
        #   conjugates <A, y>, so one marked member settles a whole N(A)-orbit
        #   and an orbit that reaches G marks all its members.
        # - Overgroups as ambient: a proper extension S already built from A
        #   contains <A, y> whenever it contains y, so extend_chain runs with
        #   ambient S (the smallest such S), whose known-order stop returns S
        #   exactly when <A, y> = S: a duplicate (or dropped with S), neither
        #   enumerated nor hashed.  Below S the stop never fires, so the
        #   chain is the one built without an ambient.
        n = self.n
        g = self.group
        index = self.index
        # the avoided elements: those of the classes of the avoided bundles
        banned = bytearray(n)
        for c, b in zip(self.classes, self.bundle_of_class):
            if b in avoid:
                for i in c.indices:
                    banned[i] = 1
        records: list[dict] = []
        # every conjugate of every class, keyed by its sorted index tuple
        # (the class's canonical form is the least of them): several times
        # smaller than a frozenset, and the largest store of the saturation
        seen: dict[tuple[int, ...], int] = {}
        queue: deque[int] = deque()

        def add_class(key: tuple[int, ...], chain: PermGroup, parent: int | None = None) -> None:
            keys, norm_chain = self._subgroup_orbit(key, chain)
            cid = len(records)
            records.append(
                {
                    "chain": chain,
                    "indices": frozenset(key),
                    "canonical": min(keys),
                    "class_size": len(keys),
                    # N(A)'s chain is dropped: its generators and order suffice
                    "normalizer_gens": norm_chain.gen_tables,
                    "normalizer_order": norm_chain.order,
                    "parent": parent,
                }
            )
            for key in keys:
                seen[key] = cid
            queue.append(cid)

        for chain, tables in seeds:
            key = tuple(sorted(map(index.__getitem__, tables)))
            if key not in seen and not (avoid and any(map(banned.__getitem__, key))):
                add_class(key, chain)

        # saturate: extend each known class representative A by one y per
        # N_G(A)-orbit of cyclic subgroups <y> of prime-power order p^k with
        # <y> not in A but its subgroup of index p, <y^p>, in A (every <y> of
        # prime order outside A qualifies).  These p-th roots over A suffice:
        # for M maximal in S, some prime-power element z of S lies outside
        # M; the last y of z, z^p, z^(p^2), ... outside M has y^p in M, and
        # S = <M, y>.  Both conditions hold for all of <y>'s generators and
        # are kept by N(A), which fixes A; <A, y^h> = <A, y>^h for h in N(A),
        # so one y per N(A)-orbit of roots suffices.  A root of order p^k > p
        # has its subgroup of order p in A, which avoids every avoided
        # bundle; a root of prime order in an avoided bundle gives only
        # dropped extensions and is never tried.  The avoided elements are a
        # union of classes, so the roots left are still a union of N(A)-orbits.
        # N(A) acts on the subgroups through their least generators: h maps
        # subgroup s to the subgroup of h^-1 * e_rep[s] * h.  The subgroups are
        # numbered by least generator and orbit_partition walks the roots in
        # increasing order, starting each orbit at its least point, so y =
        # rep[orbit[0]] is the least generator of any subgroup in the orbit,
        # and the orbits come in increasing order of y.  The representatives,
        # and so the lattice's representative pins, depend on that order.
        _, rep, root = self._pp_numbering
        n_cyc = len(rep)
        candidates = [s for s in range(n_cyc) if not banned[rep[s]]]

        while queue:
            cid = queue.popleft()
            rec = records[cid]
            chain = rec["chain"]
            if n // chain.order <= leaf_index:
                continue
            fs, parent = rec["indices"], rec["parent"]
            # the parent was dequeued first, so its marks are final
            full = rec["full"] = (
                bytearray(n_cyc) if parent is None else bytearray(records[parent]["full"])
            )
            # (index set, chain) of the proper extensions of A, by order
            overgroups: list[tuple[frozenset[int], PermGroup]] = []
            maps = [self._pp_map(t) for t in rec["normalizer_gens"]]
            roots = [s for s in candidates if root[s] in fs and rep[s] not in fs]
            for members in orbit_partition(n_cyc, maps, roots)[1]:
                if any(map(full.__getitem__, members)):
                    continue
                i = rep[members[0]]
                amb = next((s for s_fs, s in overgroups if i in s_fs), g)
                ext = extend_chain(chain, [self.elements[i]], ambient=amb)
                # <A, y> <= amb: equal orders mean <A, y> = amb, whether the
                # known-order stop returned amb or the chain completed first
                if ext.order == amb.order:
                    if amb is g:
                        for s in members:
                            full[s] = 1
                    continue
                # a chain that is usually discarded needs no cached element
                # list for its index set
                fs2 = frozenset(map(index.__getitem__, ext.iter_element_tables()))
                if len(fs2) != ext.order:
                    raise MembershipError(
                        f"extension enumerated {len(fs2)} elements, BSGS order is {ext.order}"
                    )
                key = tuple(sorted(fs2))
                if key not in seen and not (avoid and any(map(banned.__getitem__, key))):
                    add_class(key, ext, cid)
                insort(overgroups, (fs2, ext), key=lambda p: p[1].order)

        records.sort(key=lambda r: (r["chain"].order, r["canonical"]))
        out = [
            SubgroupClass(
                representative=rec["chain"],
                normalizer_order=rec["normalizer_order"],
                class_size=rec["class_size"],
                order=rec["chain"].order,
                indices=rec["indices"],
                canonical=rec["canonical"],
            )
            for rec in records
        ]
        for c in out:
            if c.class_size * c.normalizer_order != n:
                raise FalsificationError(
                    f"subgroup class of order {c.order}: class size {c.class_size} "
                    f"* normalizer order {c.normalizer_order} != |G| = {n}"
                )
        return out

    def subgroup_classes(self, cap: int = SUBGROUP_CAP) -> list[SubgroupClass]:
        """All conjugacy classes of subgroups, sorted by (order, canonical
        form): the classes above the seeds 1, G and one cyclic subgroup per
        bundle, computed on first use and kept."""
        check_subgroup_cap(self.n, cap)
        if self._subgroup_classes is None:
            g = self.group
            seeds = [(build_bsgs([], degree=g.degree), self.elements[:1])]
            if self.n > 1:
                seeds.append((g, self.elements))
            for b in self.bundles:
                t = self.elements[b.rep_index]
                seeds.append((build_bsgs([t], degree=g.degree), _cyclic_tables(t, g.degree)))
            self._subgroup_classes = self._compute_subgroup_classes(seeds)
        return self._subgroup_classes


def check_subgroup_cap(n: int, cap: int) -> None:
    """Refuse to saturate subgroups of a group of order n above ``cap``."""
    if n > cap:
        raise CapExceededError(f"group order {n} exceeds subgroup-enumeration cap {cap}")


def as_context(g: PermGroup, element_cap: int = ELEMENT_CAP) -> GroupContext:
    """The context of g, built on first use and kept on the group itself.
    The cap is checked on every call, the cached context's too."""
    if g.order > element_cap:
        raise CapExceededError(f"group order {g.order} exceeds element cap {element_cap}")
    if g._context is None:
        g._context = GroupContext(g)
    return g._context


def _cyclic_tables(t: ImageTable, degree: int) -> list[ImageTable]:
    """All powers of t, identity included."""
    ident = identity_table(degree)
    out = [ident]
    # t prepared once as an operand: no length check or padding per power
    act, as_operand = table_action(degree)
    op = as_operand(t)
    cur = t
    while cur != ident:
        out.append(cur)
        cur = act(cur, op)
    return out


@lru_cache(maxsize=128)
def _coprime_mask(n: int) -> tuple[bool, ...]:
    """Entry k is true iff gcd(k, n) = 1: the exponents of the generators of
    a cyclic group of order n."""
    return tuple(math.gcd(k, n) == 1 for k in range(n))


def _cyclic_generators(t: ImageTable, degree: int) -> list[ImageTable]:
    """The generators of <t>: the powers t^k with gcd(k, |t|) = 1, in
    increasing k."""
    powers = _cyclic_tables(t, degree)
    return list(compress(powers, _coprime_mask(len(powers))))


def _least_generator(order: int, degree: int) -> Callable[[ImageTable], ImageTable]:
    """The map t -> least generator of <t> on tables t of the given order:
    the powers t, t^2, ..., t^(order-1) come from one chain of products run
    in C (``accumulate`` over ``table_action``'s act), and the least power
    with exponent coprime to the order is taken.  The identity, of order 1,
    is its own label."""
    act, as_operand = table_action(degree)
    coprime = _coprime_mask(order)[1:]
    steps = order - 2

    def least(t: ImageTable) -> ImageTable:
        powers = accumulate(repeat(as_operand(t), steps), act, initial=t)
        return min(compress(powers, coprime), default=t)

    return least


def cyclic_conjugation(g: PermGroup, order: int):
    """G acting by conjugation on its cyclic subgroups of one order, each
    labelled by its least generator: ``act(c, j)`` is the label of
    <c>^(g_j).  A conjugate keeps the order, so the label is read off its
    powers without finding the order again (:func:`_least_generator`)."""
    conj = [conjugator(h) for h in g.gen_tables]
    least = _least_generator(order, g.degree)
    return lambda c, j: least(conj[j](c))


@dataclass(eq=False)
class CyclicOrbit:
    """The conjugation orbit of a cyclic subgroup <y> of a group G: its
    length |G : N_G(<y>)| and the chain of N_G(<y>).  The orbit is not
    listed; it is held as the walk of <y>'s conjugates under the pointwise
    stabilizer H of a base prefix P = (a, b, ...), ``points`` are the
    images of P under G (tables of P's length), and ``carrier(z, s)`` is an
    element of the coset H u_s (u_s carrying P to s) that conjugates <y> to
    <z>, or None."""

    length: int
    normalizer: PermGroup
    element_order: int
    points: list[ImageTable]
    carrier: Callable[[ImageTable, ImageTable], ImageTable | None]

    def carrier_of(self, z: ImageTable) -> ImageTable | None:
        """An x with <y>^x = <z>, or None when <z> is no G-conjugate of
        <y>: G is the union of the cosets H u_s over the images s of P,
        each tested once."""
        if table_order(z) != self.element_order:
            return None
        return next(filter(None, (self.carrier(z, s) for s in self.points)), None)

    def contains(self, z: ImageTable) -> bool:
        """Whether <z> is a G-conjugate of <y>."""
        return self.carrier_of(z) is not None


def cyclic_orbit(g: PermGroup, y: ImageTable) -> CyclicOrbit:
    """<y>'s conjugation orbit under g, walked under the pointwise
    stabilizer H of a short base prefix P.

    P starts at the least point a that y fixes (or 0 if y fixes none); the
    points y fixes, in increasing order, then those it moves are the
    candidates for the next point.  A candidate b that H moves is appended
    while the prefix orbit stays no longer than its stabilizer,
    |P^G| |b^H| <= |H| / |b^H|, so the label walk under H shrinks faster
    than the coset tests below grow (Seress, ch. 4-5); b^H is one orbit of
    integers, and only an appended b costs a walk of P under g.

    Two walks of :func:`orbit_stabilizer` are kept.  The walk of P under g,
    P held as its table of images, gives P^G, H and the u_s carrying P to
    s, each u_s formed when ``carrier`` first needs it.  The walk of <y>'s
    least-generator label under H gives N_H(<y>) from its Schreier
    generators, with y when y fixes P, and the t_q carrying the label to
    state q.  An element h u_s normalizes <y> exactly when <y>^h =
    <y>^(u_s^-1), that is when the label of <y>^(u_s^-1) lies in the walk,
    at a state q; then t_q u_s normalizes <y>.  So each image s of P is
    tested once: a hit adds t_q u_s, and every image of P under the
    elements found is a hit; a miss rules out s's orbit under them.  At the
    end P^N is that orbit of P, |N_G(<y>)| = |N_H(<y>)| |P^N|, and the
    chain from y, N_H's generators and the hits' elements must have that
    order.  Nothing is kept on g."""
    deg, order = g.degree, table_order(y)
    act, as_operand = table_action(deg)
    # the points y fixes, then those it moves, each in increasing order
    candidates = sorted(range(deg), key=lambda p: y[p] != p)
    ops = [as_operand(t) for t in g.gen_tables]

    def walk_prefix(prefix: list[int]):
        # P's images are tables of y's type, moved as a product P * t
        return orbit_stabilizer(g, type(y)(prefix), lambda s, j: act(s, ops[j]))

    prefix = candidates[:1]
    states, h, u_of = walk_prefix(prefix)
    for b in candidates[1:]:
        b_len = len(orbit_partition(deg, h.gen_tables, (b,))[1][0])
        if len(states) * b_len * b_len > h.order:
            break
        # a b that H fixes leaves P^G and H as they are
        if b_len > 1:
            prefix.append(b)
            states, h, u_of = walk_prefix(prefix)
    least = _least_generator(order, deg)
    seed = [y] if all(y[p] == p for p in prefix) else []
    labels, n_h, t_of = orbit_stabilizer(h, least(y), cyclic_conjugation(h, order), seed)

    def carrier(z: ImageTable, s: ImageTable) -> ImageTable | None:
        u = u_of(states[s])
        q = labels.get(least(conjugate_table(z, invert_table(u))))
        return None if q is None else compose_tables(t_of(q), u)

    gens = [y, *n_h.gen_tables]
    gen_ops = [as_operand(t) for t in gens]

    def orbit_of(s: ImageTable) -> dict[ImageTable, int]:
        return orbit_walk(s, lambda c, j: act(c, gen_ops[j]), len(gen_ops))[0]

    start = next(iter(states))
    hits, missed = orbit_of(start), set()
    for s in states:
        if s in hits or s in missed:
            continue
        x = carrier(y, s)
        if x is None:
            missed.update(orbit_of(s))
        else:
            gens.append(x)
            gen_ops.append(as_operand(x))
            hits = orbit_of(start)
    chain = _greedy_chain(deg, gens)
    if chain.order != n_h.order * len(hits) or g.order % chain.order:
        raise FalsificationError(
            f"normalizer order {chain.order} != |N_H| * |P^N| = {n_h.order} * {len(hits)}"
            f" or does not divide |G| = {g.order}"
        )
    return CyclicOrbit(g.order // chain.order, chain, order, list(states), carrier)


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------

def centralizer(g: PermGroup, x: Permutation, cap: int = ELEMENT_CAP) -> PermGroup:
    """C_G(x), via the conjugation orbit of x and its Schreier generators."""
    ctx = as_context(g, cap)
    t = x.images if isinstance(x, Permutation) else x
    ix = ctx.index_of(t)
    conj = ctx.conj_tables
    return orbit_stabilizer(g, ix, lambda i, j: conj[j][i], [t])[1]


def normalizer(g: PermGroup, u: PermGroup) -> PermGroup:
    """N_G(U), via the conjugation orbit of U with Schreier generators for its
    stabilizer, seeded with U's generators; G is never enumerated.  A U given
    by one generator y has its conjugates labelled by their least generators
    (:func:`cyclic_conjugation`), any other U by their sets of element
    tables, which enumerates U.  The cyclic labels are walked under the
    stabilizer of a base prefix of G (:func:`cyclic_orbit`), the set labels
    under G.  A U outside G raises MembershipError before any walk."""
    check_subgroup(g, u)
    if len(u.generators) == 1:
        return cyclic_orbit(g, u.gen_tables[0]).normalizer
    conj = [conjugator(h) for h in g.gen_tables]

    def act(s: frozenset[ImageTable], j: int) -> frozenset[ImageTable]:
        return frozenset(map(conj[j], s))

    return orbit_stabilizer(g, frozenset(u.element_tables()), act, u.gen_tables)[1]


def sylow(g: PermGroup, p: int, cap: int = ELEMENT_CAP) -> PermGroup:
    """A Sylow p-subgroup, grown through normalizers of p-subgroups from the
    first element of order p in breadth-first word order; G is never
    enumerated, each normalizer is (within ``cap``)."""
    if not is_prime(p):
        raise PreconditionError(f"{p} is not prime")
    if g.order % p:
        raise PreconditionError(f"{p} does not divide the group order {g.order}")
    pp = p_part(g.order, p)
    chain = build_bsgs([_find_element_of_order(g, p, cap)], degree=g.degree)
    while chain.order < pp:
        norm = normalizer(g, chain)
        if norm.order > cap:
            raise CapExceededError(f"normalizer order {norm.order} exceeds element cap {cap}")
        p_elts = (t for t in norm.element_tables() if p_part(o := table_order(t), p) == o > 1)
        t = next((t for t in p_elts if not chain.contains_table(t)), None)
        if t is None:
            raise MembershipError("p-subgroup stalled below the full p-part")
        chain = extend_chain(chain, [t])
        if chain.order != p_part(chain.order, p):
            raise MembershipError("extension left the p-group family")
    return chain


def _find_element_of_order(g: PermGroup, n: int, limit: int = ELEMENT_CAP) -> ImageTable:
    """First element (in breadth-first word order over the generators) whose
    order is divisible by n, raised to the cofactor; deterministic.

    The search stops growing once it has seen ``limit`` elements: if that
    left part of G unseen it raises CapExceededError, and GroupDataError if
    it walked all of G."""
    gen_tables = g.gen_tables
    queue: list[ImageTable] = [identity_table(g.degree)]
    seen: set[ImageTable] = set(queue)
    for t in queue:
        o = table_order(t)
        if o % n == 0:
            return table_power(t, o // n)
        if len(seen) < limit:
            for gt in gen_tables:
                nxt = compose_tables(t, gt)
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    if len(seen) < g.order:
        raise CapExceededError(
            f"no element of order divisible by {n} among the first {len(seen)} "
            f"words (element cap {limit})"
        )
    raise GroupDataError(f"group has no element of order divisible by {n}")


def subgroup_closure(g: PermGroup, seed: list[Permutation]) -> PermGroup:
    """The smallest subgroup of g containing the seed elements."""
    # on the seeds' own degree, so that check_subgroup rejects another degree
    u = build_bsgs(seed, degree=None if seed else g.degree)
    check_subgroup(g, u)
    return u


# ---------------------------------------------------------------------------
# structure predicates
# ---------------------------------------------------------------------------

def structure_predicates(u: PermGroup) -> StructureRecord:
    """Structure flags computed by definition on the element list of u's
    context; ``as_context(u).predicates`` keeps them."""
    ctx = as_context(u)
    tables, orders = ctx.elements, ctx.element_orders
    n = len(tables)
    degree = u.degree
    counts = Counter(orders)
    exponent = math.lcm(*counts.keys())
    max_order = max(orders)
    gen_tables = u.gen_tables

    is_cyclic = max_order == n
    is_abelian = all(
        compose_tables(a, b) == compose_tables(b, a)
        for i, a in enumerate(gen_tables)
        for b in gen_tables[i + 1 :]
    )
    pp = prime_power(n)
    p_prime = pp[0] if pp else None
    is_elem_ab = is_abelian and p_prime is not None and exponent == p_prime
    n_invol = counts.get(2, 0)

    is_dihedral = _dihedral_check(tables, orders, gen_tables, n)
    frob, k_ord, j_ord = _frobenius_cyclic_check(tables, orders, gen_tables, n, degree)

    return StructureRecord(
        order=n,
        exponent=exponent,
        is_cyclic=is_cyclic,
        is_abelian=is_abelian,
        is_elementary_abelian=is_elem_ab,
        is_dihedral=is_dihedral,
        n_involutions=n_invol,
        is_frobenius_cyclic_complement=frob,
        frobenius_kernel_order=k_ord,
        frobenius_complement_order=j_ord,
        order_counts=tuple(sorted(counts.items())),
    )


def _is_nilpotent(orders: list[int]) -> bool:
    """Nilpotent iff, for each prime p, the p-elements number exactly the
    p-part of the order: the Sylow p-subgroup is unique.  ``orders`` holds
    the element orders of the whole group."""
    n = len(orders)
    return all(
        sum(1 for o in orders if p_part(o, p) == o) == p_part(n, p)
        for p in prime_divisors(n)
    )


def _normalized_by(
    gens: list[ImageTable], sub_gens: list[ImageTable], sub_set
) -> bool:
    """Whether <gens> normalizes the subgroup generated by ``sub_gens``,
    whose element tables make up ``sub_set``: every conjugate of a
    generator of it by one of ``gens`` stays inside it."""
    return all(conjugate_table(t, g) in sub_set for t in sub_gens for g in gens)


def _dihedral_check(tables, orders, gen_tables, n: int) -> bool:
    """Order 2m with a normal cyclic C_m inverted by an outside involution."""
    if n < 4 or n % 2:
        return False
    m = n // 2
    for t, o in zip(tables, orders):
        if o != m:
            continue
        powers = set(_cyclic_tables(t, len(t)))
        if not _normalized_by(gen_tables, [t], powers):
            continue
        t_inv = invert_table(t)
        for s, os in zip(tables, orders):
            if os == 2 and s not in powers and conjugate_table(t, s) == t_inv:
                return True
    return False


def _frobenius_cyclic_check(
    tables, orders, gen_tables, n: int, degree: int
) -> tuple[bool, int | None, int | None]:
    """Split n = a*b coprime, kernel of order a = {x : x^a = 1} a normal
    nilpotent subgroup, cyclic complement of order b acting without fixed
    points on the kernel; definitional Frobenius test."""
    ident = identity_table(degree)
    for a in range(2, n):
        if n % a:
            continue
        b = n // a
        if b == 1 or math.gcd(a, b) != 1:
            continue
        kernel = [t for t, o in zip(tables, orders) if a % o == 0]
        if len(kernel) != a:
            continue
        chain = _greedy_chain(degree, kernel, target_order=a)
        if chain.order != a:
            continue
        if not _normalized_by(gen_tables, chain.gen_tables, set(kernel)):
            continue
        if not _is_nilpotent([o for o in orders if a % o == 0]):
            continue
        y = next((t for t, o in zip(tables, orders) if o == b), None)
        if y is None:
            continue
        fpf = all(
            conj(k) != k
            for conj in map(conjugator, _cyclic_tables(y, degree)[1:])
            for k in kernel
            if k != ident
        )
        if fpf:
            return True, a, b
    return False, None, None


def is_simple_group(u: PermGroup) -> bool:
    """No proper nontrivial normal subgroup: every nontrivial class has full
    normal closure."""
    ctx = as_context(u)
    if ctx.n == 1:
        return False
    return all(
        _greedy_chain(
            u.degree, [ctx.elements[m] for m in c.indices], target_order=ctx.n
        ).order == ctx.n
        for c in ctx.classes[1:]
    )
