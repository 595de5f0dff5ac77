"""Exhaustive structural computations for fully enumerable groups.

Most of it works on a :class:`GroupContext`: the sorted element list of one
group together with lookup tables for conjugation by each generator.
Conjugacy classes, centralizers and the subgroup lattice up to conjugacy
reduce to orbit computations on element indices (or on frozensets of them)
under that conjugation action, with Schreier generators supplying the
stabilizers.  ``normalizer`` and ``sylow`` need no context: they label a
subgroup's conjugates, a cyclic subgroup given by one generator by its least
generator and any other by its set of element tables, so G is never
enumerated.  A cyclic subgroup's conjugates are walked under a point
stabilizer of G, one coset test per point giving the rest of its normalizer
(``cyclic_orbit``); the same test decides whether two cyclic subgroups are
conjugate, so no walk is kept on the group.
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
    Subgroup,
    _greedy_chain,
    build_bsgs,
    compose_tables,
    conjugate_table,
    conjugator,
    extend_chain,
    identity_table,
    invert_table,
    orbit,
    orbit_partition,
    orbit_stabilizer,
    orbit_walk,
    point_stabilizer,
    table_action,
    table_order,
    table_power,
    walk_stabilizer,
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
    n_generators: int
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
    is_nilpotent: bool
    p_group_prime: int | None
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

    representative: Subgroup
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
                    n_generators=n_gen,
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
        return structure_predicates(self)

    @cached_property
    def pp_cyclics(self) -> tuple[list[int], list[int]]:
        """``(cyc_of, rep)`` for the cyclic subgroups of prime-power order > 1,
        numbered in order of their least generator index: ``cyc_of[i]`` is
        the subgroup element i generates (-1 for the identity and elements of
        other orders), ``rep[s]`` the least generator of subgroup s."""
        index, elements, degree = self.index, self.elements, self.group.degree
        cyc_of = [-1] * self.n
        rep: list[int] = []
        for i, o in enumerate(self.element_orders):
            if cyc_of[i] >= 0 or prime_power(o) is None:
                continue
            for t in _cyclic_generators(elements[i], degree):
                cyc_of[index[t]] = len(rep)
            rep.append(i)
        expected = sum(
            b.n_subgroups for b in self.bundles if prime_power(b.element_order)
        )
        if len(rep) != expected:
            raise FalsificationError(
                f"numbered {len(rep)} cyclic subgroups of prime-power order, "
                f"the bundles count {expected}"
            )
        return cyc_of, rep

    # -- subgroup lattice -------------------------------------------------------

    def _subgroup_orbit(
        self, fs: frozenset[int], chain: PermGroup
    ) -> tuple[list[frozenset[int]], PermGroup]:
        """Conjugation orbit of a subgroup given as an element-index set and
        by its chain, with the normalizer chain; the orbit's length is the
        class size."""
        conj = self.conj_tables

        def apply_fs(state: frozenset[int], j: int) -> frozenset[int]:
            return frozenset(map(conj[j].__getitem__, state))

        return orbit_stabilizer(self.group, fs, apply_fs, chain.gen_tables)

    def _compute_subgroup_classes(self) -> None:
        # Two shortcuts spare the saturation below chains whose result is
        # already known; neither changes which y is tried, in what order, or
        # the chain built for a proper extension, so the lattice is the same.
        # - Inherited generation: ``full`` marks the cyclic subgroups <y> with
        #   <A, y> = G.  A class first found as <P, y0> has a representative
        #   containing P's, so it starts from P's finished marks; N(A)
        #   conjugates <A, y>, so one marked member settles a whole N(A)-orbit
        #   and an orbit that reaches G marks all its members.
        # - Overgroups as ambient: a proper extension S already built from A
        #   contains <A, y> whenever it contains y, so extend_chain runs with
        #   ambient S (the smallest such S), whose known-order stop returns S
        #   exactly when <A, y> = S: a duplicate, neither enumerated nor hashed.
        #   Below S the stop never fires, so the chain is the one built
        #   without an ambient.
        n = self.n
        g = self.group
        records: list[dict] = []
        # every conjugate of every class, keyed by its sorted index tuple
        # (the class's canonical form is the least of them): several times
        # smaller than a frozenset, and the largest store of the saturation
        seen: dict[tuple[int, ...], int] = {}
        queue: deque[int] = deque()

        def add_class(fs: frozenset[int], chain: PermGroup, parent: int | None = None) -> None:
            orbit_sets, norm_chain = self._subgroup_orbit(fs, chain)
            keys = [tuple(sorted(m)) for m in orbit_sets]
            cid = len(records)
            records.append(
                {
                    "chain": chain,
                    "indices": fs,
                    "canonical": min(keys),
                    "class_size": len(orbit_sets),
                    # N(A)'s chain is dropped: its generators and order suffice
                    "normalizer_gens": norm_chain.gen_tables,
                    "normalizer_order": norm_chain.order,
                    "parent": parent,
                }
            )
            for key in keys:
                seen[key] = cid
            queue.append(cid)

        # seeds: trivial subgroup, the whole group (when it is not the
        # trivial one), one cyclic subgroup per bundle of element classes
        add_class(frozenset({0}), build_bsgs([], degree=g.degree))
        if n > 1:
            add_class(frozenset(range(n)), g)
        for b in self.bundles:
            t = self.elements[b.rep_index]
            fs = frozenset(self.index[tab] for tab in _cyclic_tables(t, g.degree))
            if tuple(sorted(fs)) not in seen:
                add_class(fs, build_bsgs([t], degree=g.degree))

        # saturate: extend each known class representative A by one element y
        # per N_G(A)-class of cyclic subgroups <y> of prime-power order outside
        # A; every subgroup S arises this way from a maximal chain (some
        # prime-power power of any element of S - M lands outside a maximal
        # M < S, and together they generate S).  <A, y> depends only on <y>,
        # and <A, y^h> = <A, y>^h for h in N(A), so one y per class suffices.
        # N(A) acts on the subgroups through their least generators: h maps
        # subgroup s to the subgroup of h^-1 * e_rep[s] * h.  The subgroups are
        # numbered by least generator and orbit_partition starts each orbit at
        # its least point, so y = rep[orbit[0]] is the least generator of any
        # subgroup in the orbit, and the orbits come in increasing order of y:
        # the y, and their order, of a walk over the N(A)-orbits of elements
        # that takes each orbit's least point and skips the generators of a
        # <y> already tried.  The representatives, and so the lattice pins,
        # depend on that order.
        index = self.index
        cyc_of, rep = self.pp_cyclics
        rep_tables = [self.elements[i] for i in rep]
        # each generator's map on the numbered subgroups, built once: N(A)'s
        # generators begin with A's, and A's with its parent's.  The maps
        # live for the whole saturation, so they are kept as C int arrays.
        pp_maps: dict[ImageTable, array] = {}

        def pp_map(t: ImageTable) -> array:
            m = pp_maps.get(t)
            if m is None:
                m = pp_maps[t] = array("I", map(cyc_of.__getitem__, self.conj_map(t, rep_tables)))
            return m

        while queue:
            cid = queue.popleft()
            rec = records[cid]
            chain = rec["chain"]
            if chain.order == n:
                continue
            fs, parent = rec["indices"], rec["parent"]
            # the parent was dequeued first, so its marks are final
            full = rec["full"] = (
                bytearray(len(rep)) if parent is None else bytearray(records[parent]["full"])
            )
            # (index set, chain) of the proper extensions of A, by order
            overgroups: list[tuple[frozenset[int], PermGroup]] = []
            maps = [pp_map(t) for t in rec["normalizer_gens"]]
            for members in orbit_partition(len(rep), maps)[1]:
                i = rep[members[0]]
                # N(A) fixes A, so an orbit lies inside A or outside it
                if i in fs or any(map(full.__getitem__, members)):
                    continue
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
                if tuple(sorted(fs2)) not in seen:
                    add_class(fs2, ext, cid)
                insort(overgroups, (fs2, ext), key=lambda p: p[1].order)

        records.sort(key=lambda r: (r["chain"].order, r["canonical"]))
        out = []
        for rec in records:
            sub = Subgroup(rec["chain"], g)
            out.append(
                SubgroupClass(
                    representative=sub,
                    normalizer_order=rec["normalizer_order"],
                    class_size=rec["class_size"],
                    order=rec["chain"].order,
                    indices=rec["indices"],
                    canonical=rec["canonical"],
                )
            )
        for c in out:
            if c.class_size * c.normalizer_order != n:
                raise FalsificationError(
                    f"subgroup class of order {c.order}: class size {c.class_size} "
                    f"* normalizer order {c.normalizer_order} != |G| = {n}"
                )
        self._subgroup_classes = out

    def subgroup_classes(self, cap: int = SUBGROUP_CAP) -> list[SubgroupClass]:
        """All conjugacy classes of subgroups, sorted by (order, canonical form)."""
        if self.n > cap:
            raise CapExceededError(
                f"group order {self.n} exceeds subgroup-enumeration cap {cap}"
            )
        if self._subgroup_classes is None:
            self._compute_subgroup_classes()
        return self._subgroup_classes


def as_context(g: PermGroup | GroupContext, element_cap: int = ELEMENT_CAP) -> GroupContext:
    """The context of g, built on first use and kept on the group itself.
    The cap is checked on every call, the cached or given context's too."""
    grp = g.group if isinstance(g, GroupContext) else g
    if grp.order > element_cap:
        raise CapExceededError(f"group order {grp.order} exceeds element cap {element_cap}")
    if isinstance(g, GroupContext):
        return g
    if g._context is None:
        g._context = GroupContext(g)
    return g._context


def canonical_form(orbit: list[frozenset[int]]) -> tuple[int, ...]:
    """Label of a subgroup class: its least member as a sorted index tuple."""
    return min(tuple(sorted(m)) for m in orbit)


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


def canonical_generator(t: ImageTable, degree: int) -> ImageTable:
    """The lexicographically least generator of <t>.

    Conjugation commutes with taking powers, so this is a stable label for
    the cyclic subgroup: <a> = <b> iff their canonical generators coincide.
    """
    return _least_generator(table_order(t), degree)(t)


def cyclic_conjugation(g: PermGroup, order: int):
    """G acting by conjugation on its cyclic subgroups of one order, each
    labelled by its canonical generator: ``act(c, j)`` is the label of
    <c>^(g_j).  A conjugate keeps the order, so the label is read off its
    powers without finding the order again (:func:`_least_generator`)."""
    conj = [conjugator(h) for h in g.gen_tables]
    least = _least_generator(order, g.degree)
    return lambda c, j: least(conj[j](c))


@dataclass(eq=False)
class CyclicOrbit:
    """The conjugation orbit of a cyclic subgroup <y> of a group G: its
    length |G : N_G(<y>)| and the chain of N_G(<y>).  The orbit is not
    listed; it is held as the walk of <y>'s conjugates under a point
    stabilizer H = G_a, and ``carrier(z, b)`` is an element of the coset
    H u_b (u_b carrying a to b) that conjugates <y> to <z>, or None."""

    length: int
    normalizer: PermGroup
    element_order: int
    points: list[int]
    carrier: Callable[[ImageTable, int], ImageTable | None]

    def carrier_of(self, z: ImageTable) -> ImageTable | None:
        """An x with <y>^x = <z>, or None when <z> is no G-conjugate of
        <y>: G is the union of the cosets H u_b over the points b of a^G,
        each tested once."""
        if table_order(z) != self.element_order:
            return None
        return next(filter(None, (self.carrier(z, b) for b in self.points)), None)

    def contains(self, z: ImageTable) -> bool:
        """Whether <z> is a G-conjugate of <y>."""
        return self.carrier_of(z) is not None


def cyclic_orbit(g: PermGroup, y: ImageTable) -> CyclicOrbit:
    """<y>'s conjugation orbit under g, walked under the stabilizer H = G_a
    of the least point a that y fixes (or 0 if y fixes none).

    The walk of <y>'s least-generator label under H gives N_H(<y>) from its
    Schreier generators, with y when y lies in H.  An element s u_b
    normalizes <y> exactly when <y>^s = <y>^(u_b^-1), that is when the label
    of <y>^(u_b^-1) lies in the walk, at a state q reached by t_q; then
    t_q u_b normalizes <y>.  So each point b of a^G is tested once: a hit
    adds t_q u_b, and every point of a's orbit under the elements found is
    a hit; a miss rules out b's orbit under them.  At the end a^N is that
    orbit of a, |N_G(<y>)| = |N_H(<y>)| |a^N|, and the chain from y, N_H's
    generators and the hits' elements must have that order.  Nothing is
    kept on g."""
    deg, order = g.degree, table_order(y)
    a = next((p for p, q in enumerate(y) if p == q), 0)
    h = point_stabilizer(g, a).group
    least = _least_generator(order, deg)
    labels, targets = orbit_walk(least(y), cyclic_conjugation(h, order), len(h.generators))
    n_h, transversal = walk_stabilizer(h, len(labels), targets, [y] if y[a] == a else [])
    reps = orbit(g, a).transversal

    def carrier(z: ImageTable, b: int) -> ImageTable | None:
        u = reps[b]
        q = labels.get(least(conjugate_table(z, invert_table(u))))
        return None if q is None else compose_tables(transversal(q), u)

    gens = [y, *n_h.gen_tables]

    def orbit_of(p: int) -> dict[int, int]:
        return orbit_walk(p, lambda c, j: gens[j][c], len(gens))[0]

    hits, missed = orbit_of(a), set()
    for b in reps:
        if b in hits or b in missed:
            continue
        x = carrier(y, b)
        if x is None:
            missed.update(orbit_of(b))
        else:
            gens.append(x)
            hits = orbit_of(a)
    chain = _greedy_chain(deg, gens)
    if chain.order != n_h.order * len(hits) or g.order % chain.order:
        raise FalsificationError(
            f"normalizer order {chain.order} != |N_H| * |a^N| = {n_h.order} * {len(hits)}"
            f" or does not divide |G| = {g.order}"
        )
    return CyclicOrbit(g.order // chain.order, chain, order, list(reps), carrier)


def subgroup_from_tables(
    parent: PermGroup, tables: list[ImageTable], target_order: int | None = None
) -> Subgroup:
    return Subgroup(_greedy_chain(parent.degree, tables, target_order), parent)


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------

def centralizer(
    g: PermGroup | GroupContext, x: Permutation, cap: int = ELEMENT_CAP
) -> Subgroup:
    """C_G(x), via the conjugation orbit of x and its Schreier generators."""
    ctx = as_context(g, cap)
    t = x.images if isinstance(x, Permutation) else x
    ix = ctx.index_of(t)
    conj = ctx.conj_tables
    _, chain = orbit_stabilizer(ctx.group, ix, lambda i, j: conj[j][i], [t])
    return Subgroup(chain, ctx.group)


def normalizer(g: PermGroup | GroupContext, u: Subgroup | PermGroup) -> Subgroup:
    """N_G(U), via the conjugation orbit of U with Schreier generators for its
    stabilizer, seeded with U's generators; G is never enumerated.  A U given
    by one generator y has its conjugates labelled by their least generators
    (:func:`cyclic_conjugation`), any other U by their sets of element
    tables, which enumerates U.  The cyclic labels are walked under a point
    stabilizer of G (:func:`cyclic_orbit`), the set labels under G."""
    grp, ug = _group_of(g), _group_of(u)
    if len(ug.generators) == 1:
        return Subgroup(cyclic_orbit(grp, ug.gen_tables[0]).normalizer, grp)
    conj = [conjugator(h) for h in grp.gen_tables]

    def act(s: frozenset[ImageTable], j: int) -> frozenset[ImageTable]:
        return frozenset(map(conj[j], s))

    _, chain = orbit_stabilizer(grp, frozenset(ug.element_tables()), act, ug.gen_tables)
    return Subgroup(chain, grp)


def normalizer_brute(
    g: PermGroup | GroupContext, u: Subgroup | PermGroup, cap: int = ELEMENT_CAP
) -> Subgroup:
    """N_G(U) by scanning every element of G; small-scale oracle."""
    ctx = as_context(g, cap)
    ug = _group_of(u)
    u_set = frozenset(ug.element_tables())
    members = [e for e in ctx.elements if _normalized_by([e], ug.gen_tables, u_set)]
    return subgroup_from_tables(ctx.group, members, target_order=len(members))


def sylow(g: PermGroup | GroupContext, p: int, cap: int = ELEMENT_CAP) -> Subgroup:
    """A Sylow p-subgroup, grown through normalizers of p-subgroups from the
    first element of order p in breadth-first word order; G is never
    enumerated, each normalizer is (within ``cap``)."""
    grp = _group_of(g)
    if not is_prime(p):
        raise PreconditionError(f"{p} is not prime")
    if grp.order % p:
        raise PreconditionError(f"{p} does not divide the group order {grp.order}")
    pp = p_part(grp.order, p)
    chain = build_bsgs([_find_element_of_order(grp, p, cap)], degree=grp.degree)
    while chain.order < pp:
        norm = normalizer(grp, chain)
        if norm.order > cap:
            raise CapExceededError(f"normalizer order {norm.order} exceeds element cap {cap}")
        p_elts = (t for t in norm.group.element_tables() if p_part(o := table_order(t), p) == o > 1)
        t = next((t for t in p_elts if not chain.contains_table(t)), None)
        if t is None:
            raise MembershipError("p-subgroup stalled below the full p-part")
        chain = extend_chain(chain, [t])
        if chain.order != p_part(chain.order, p):
            raise MembershipError("extension left the p-group family")
    return Subgroup(chain, grp)


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


def subgroup_closure(g: PermGroup, seed: list[Permutation]) -> Subgroup:
    """The smallest subgroup of g containing the seed elements."""
    for s in seed:
        if not g.contains(s):
            raise MembershipError(f"seed {s!r} is not a member of the group")
    return Subgroup(build_bsgs(seed, degree=g.degree), g)


# ---------------------------------------------------------------------------
# structure predicates
# ---------------------------------------------------------------------------

def _group_of(u: Subgroup | PermGroup | GroupContext) -> PermGroup:
    return u if isinstance(u, PermGroup) else u.group


def structure_predicates(u: Subgroup | PermGroup | GroupContext) -> StructureRecord:
    """Structure flags computed by definition on the element list of u's
    context; ``as_context(u).predicates`` keeps them."""
    ctx = as_context(u.group if isinstance(u, Subgroup) else u)
    grp, tables, orders = ctx.group, ctx.elements, ctx.element_orders
    n = len(tables)
    degree = grp.degree
    counts = Counter(orders)
    exponent = math.lcm(*counts.keys())
    max_order = max(orders)
    gen_tables = grp.gen_tables

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
        is_nilpotent=_is_nilpotent(orders),
        p_group_prime=p_prime,
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


def is_simple_group(u: Subgroup | PermGroup) -> bool:
    """No proper nontrivial normal subgroup: every nontrivial class has full
    normal closure."""
    ctx = as_context(_group_of(u))
    if ctx.n == 1:
        return False
    return all(
        _greedy_chain(
            ctx.group.degree, [ctx.elements[m] for m in c.indices], target_order=ctx.n
        ).order == ctx.n
        for c in ctx.classes[1:]
    )
