"""Coset actions and fixed-point counting by four independent routes.

The action of G on the right cosets of U is materialized with one canonical
representative per coset: the lexicographically least image table in U*z.
It is found greedily down a chain of U whose base is U's moved points in
increasing order: at base point b, among the points a of the basic orbit
take the one with the least z[a], and replace z by t_a*z, where t_a is the
transversal element carrying b to a.  Every point before b is fixed by the
rest of the chain, so each step fixes one more entry of the least table;
the cost is the sum of the basic orbit lengths, not |U|.  Coset 0 is U
itself and the remaining cosets are numbered in breadth-first discovery
order over the generators in listed order, so coset numberings, induced
permutations, and every downstream report are bit-exact reproducible.

The induced maps are then checked by membership alone: r_i g_j r_m^-1 must
lie in U for every coset i and generator j, m being the image of i under
image(g_j), so each induced map is the true action of its generator.

Counting routes for the fixed points of x on G/U:

  fix_direct            scan cosets, test r*x*r^-1 in U
  fix_by_normalizer_formula   |{<x>^g <= U}| * |N_G(<x>)| / |U|
  fix_by_class_sum      sum over U-classes of <y>, y in x^G cap U, of
                        |N_G(<y>) : N_U(<y>)|
  fix_frobenius         |N_G(<x>)| / |J| for U Frobenius with nilpotent
                        kernel and cyclic complement J, x outside the kernel

The last three are theorems about the first; the test suite holds them
equal on every enumerable pair.  ``fixity`` counts one generator of each
class of cyclic subgroups of U by the second, walking each G-class of
cyclic subgroups that U meets once per call (:func:`cyclic_orbit`), and
never materializes G/U.  The action is built only where cosets themselves
are read: the Sylow-3 orbit shapes when 3 divides |U|, and marks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, repeat
from typing import Callable, Iterator

from .enumeration import (
    ELEMENT_CAP,
    SUBGROUP_CAP,
    CyclicOrbit,
    GroupContext,
    _cyclic_tables,
    as_context,
    canonical_form,
    cyclic_orbit,
)
from .errors import (
    CapExceededError,
    FalsificationError,
    MembershipError,
    PreconditionError,
)
from .ffield import euler_phi
from .perm import (
    ImageTable,
    PermGroup,
    Permutation,
    Subgroup,
    build_bsgs,
    compose_tables,
    identity_table,
    invert_table,
    orbit_walk,
    pack_table,
    table_action,
    table_order,
)

COSET_CAP = 100_000


@dataclass(frozen=True)
class Caps:
    """Work limits, each overridable per call site; the claim runner reads None as not given."""

    elements: int = ELEMENT_CAP
    subgroups: int = SUBGROUP_CAP
    cosets: int = COSET_CAP


DEFAULT_CAPS = Caps()


@dataclass(eq=False)
class CosetAction:
    """The action of ``group`` on right cosets of ``stabilizer``.

    ``canon`` maps a member z of the group to the canonical representative
    of U*z, the lexicographically least table in it.
    """

    group: PermGroup
    stabilizer: Subgroup
    degree: int
    images: list[Permutation]
    canonical_reps: list[ImageTable]
    coset_index: dict[ImageTable, int]
    u_tables: list[ImageTable]
    u_set: frozenset[ImageTable]
    canon: Callable[[ImageTable], ImageTable]

    @cached_property
    def inv_reps(self) -> list[ImageTable]:
        """Inverses of the canonical reps as operands of ``table_action``
        (padded for byte translation)."""
        _, as_operand = table_action(self.group.degree)
        return [as_operand(invert_table(r)) for r in self.canonical_reps]

    def coset_of(self, t: ImageTable) -> int:
        """Index of the coset U*t, for a member t of the group."""
        k = self.coset_index.get(self.canon(t))
        if k is None:
            raise MembershipError("element lies in no coset of the action")
        return k

    def image(self, c: int, t: ImageTable) -> int:
        """Index of the image of coset c under a member t of the group."""
        return self.coset_of(compose_tables(self.canonical_reps[c], t))


@dataclass(eq=False)
class FixityReport:
    """Fixity of ``group`` on the cosets of ``stabilizer``, the count for each
    of U's bundles, the walk of each bundle's G-class of cyclic subgroups
    (one record shared by the bundles of a class), and the least element of
    the first bundle attaining the fixity (None for U = 1); that bundle is
    the first of its class, so the witness started its class's walk."""

    group: PermGroup
    stabilizer: Subgroup
    fixity: int
    witness: ImageTable | None
    bundle_fixes: list[int]
    orbits: list[CyclicOrbit]


@dataclass(frozen=True)
class FixedPointProfile:
    """Rows (element order, centralizer order, fixed cosets), one per
    conjugacy class of nontrivial cyclic subgroups, sorted."""

    rows: tuple[tuple[int, int, int], ...]


def chain_canonicalizer(u: PermGroup) -> Callable[[ImageTable], ImageTable]:
    """The map z -> least table of U*z, computed down a chain of U.

    The chain's base is U's moved points in increasing order, so at level i
    every point before base[i] is fixed by the rest of the chain: the least
    entry at base[i] is z[a] minimized over the basic orbit, and the tables
    attaining it are the rest of the chain times t_a*z.
    """
    moved = sorted({p for t in u.gen_tables for p, v in enumerate(t) if v != p})
    chain = build_bsgs(u.generators, base_hint=moved, degree=u.degree)
    if chain.order != u.order:
        raise FalsificationError(
            f"chain on U's moved points has order {chain.order}, U has {u.order}"
        )
    act, as_operand = table_action(u.degree)
    # z is kept as an operand (padded for bytes), so t_a*z is act(t_a, z)
    # when t_a is an operand too
    levels = [
        (list(trans), {a: as_operand(t) for a, t in trans.items()})
        for trans in chain.transversals
        if len(trans) > 1
    ]
    deg = u.degree

    def canon(z: ImageTable) -> ImageTable:
        z = as_operand(z)
        for pts, trans in levels:
            z = act(trans[min(pts, key=z.__getitem__)], z)
        return z[:deg]

    return canon


def check_stabilizer(g: PermGroup, u: Subgroup) -> None:
    """Raise MembershipError unless U is a subgroup of G whose order divides |G|."""
    if u.parent is not g:
        for p in u.group.generators:
            if not g.contains(p):
                raise MembershipError("stabilizer is not a subgroup of the group")
    if g.order % u.order:
        raise MembershipError(f"|U| = {u.order} does not divide |G| = {g.order}")


def build_coset_action(
    g: PermGroup,
    u: Subgroup,
    max_cosets: int = COSET_CAP,
    element_cap: int = ELEMENT_CAP,
) -> CosetAction:
    """Materialize G acting on G/U by right multiplication.

    Each coset is labelled by its least table, computed down a chain of U
    (:func:`chain_canonicalizer`), and the cosets are numbered by
    :func:`orbit_walk` from U; generator j's image column is the targets of
    its edges.  :func:`check_homomorphism` then proves, by membership in U,
    that each edge joins the cosets it claims to; a failure raises
    MembershipError.
    """
    check_stabilizer(g, u)
    degree = g.order // u.order
    if degree > max_cosets:
        raise CapExceededError(f"coset space size {degree} exceeds cap {max_cosets}")
    if u.group.order > element_cap:
        raise CapExceededError(
            f"stabilizer order {u.order} exceeds element cap {element_cap}"
        )
    u_tables = u.group.element_tables()
    canon = chain_canonicalizer(u.group)
    ident = identity_table(g.degree)
    if canon(ident) != ident:
        raise FalsificationError(
            f"canonical representative of U is {canon(ident)!r}, not the identity"
        )
    act, as_operand = table_action(g.degree)
    gen_ops = [as_operand(t) for t in g.gen_tables]
    n = len(gen_ops)
    index, targets = orbit_walk(ident, lambda r, j: canon(act(r, gen_ops[j])), n)
    if len(index) != degree:
        raise MembershipError(
            f"reached {len(index)} cosets, index says {degree}"
        )
    action = CosetAction(
        group=g,
        stabilizer=u,
        degree=degree,
        images=[Permutation(pack_table(targets[j::n]), _trusted=True) for j in range(n)],
        canonical_reps=list(index),
        coset_index=index,
        u_tables=u_tables,
        u_set=frozenset(u_tables),
        canon=canon,
    )
    check_homomorphism(action)
    return action


def check_homomorphism(action: CosetAction) -> None:
    """Raise MembershipError unless r_i g_j r_m^-1 lies in U for every coset
    i and generator j, where m is the image of i under image(g_j).

    Each edge then joins U r_i to U r_i g_j, so the induced maps compose as
    the generators do: for every pair (j, k), with m and then e the images
    of i, r_i g_j g_k r_e^-1 = (r_i g_j r_m^-1)(r_m g_k r_e^-1) lies in U,
    as U is closed under products.  One pass per generator covers them all."""
    inv = action.inv_reps
    for gj, img in zip(action.group.gen_tables, action.images):
        if not all(_in_u(action, gj, [inv[m] for m in img.images])):
            raise MembershipError("induced coset maps are not a homomorphism")


def _in_u(action: CosetAction, t: ImageTable, right: list[ImageTable]) -> Iterator[bool]:
    """For each coset i in turn, whether r_i * t * right[i] lies in U, with
    ``right`` given as operands of ``table_action``."""
    act, as_operand = table_action(action.group.degree)
    products = map(act, map(act, action.canonical_reps, repeat(as_operand(t))), right)
    return map(action.u_set.__contains__, products)


# ---------------------------------------------------------------------------
# the four counting routes
# ---------------------------------------------------------------------------

def fixed_cosets(action: CosetAction, t: ImageTable) -> tuple[int, ...]:
    """Indices of the cosets U r with r t r^-1 in U, for a member t of G."""
    return tuple(compress(range(action.degree), _in_u(action, t, action.inv_reps)))


def fix_direct(action: CosetAction, x: Permutation | ImageTable) -> int:
    """Number of cosets U r with r x r^-1 in U."""
    t = x.images if isinstance(x, Permutation) else x
    if not action.group.contains_table(t):
        raise MembershipError("element is not a member of the acting group")
    return len(fixed_cosets(action, t))


def stabilizer_bundle_fixes(ctx: GroupContext, u: Subgroup) -> list[int]:
    """Fixed-coset count on G/U for one generator of each cyclic-subgroup
    class, by the normalizer-formula route; one O(|U|) pass for all rows."""
    boc = ctx.bundle_of_class
    class_of = ctx.class_of
    counts = [0] * len(ctx.bundles)
    for i in ctx.indices_of(u.group):
        b = boc[class_of[i]]
        if b >= 0:
            counts[b] += 1
    uo = u.order
    fixes = []
    for b, cnt in zip(ctx.bundles, counts):
        phi = euler_phi(b.element_order)
        if cnt % phi:
            raise FalsificationError(
                f"{cnt} generators of order-{b.element_order} subgroups in U "
                f"is not a multiple of phi = {phi}"
            )
        val = (cnt // phi) * b.normalizer_order
        if val % uo:
            raise FalsificationError(
                f"normalizer count {val} not divisible by |U| = {uo}"
            )
        fixes.append(val // uo)
    return fixes


def fix_by_normalizer_formula(
    g: PermGroup | GroupContext, u: Subgroup, x: Permutation
) -> int:
    """|{<x>^g <= U}| * |N_G(<x>)| / |U|: the screen's count for the class
    of cyclic subgroups that <x> lies in."""
    ctx = as_context(g)
    ix = ctx.index_of(x.images)
    if ix == 0:
        return ctx.n // u.order
    return stabilizer_bundle_fixes(ctx, u)[ctx.bundle_of_class[ctx.class_of[ix]]]


def fix_by_class_sum(g: PermGroup | GroupContext, u: Subgroup, x: Permutation) -> int:
    """Sum over U-classes of subgroups <y> with y in x^G cap U of the
    normalizer index |N_G(<y>) : N_U(<y>)|."""
    ctx = as_context(g)
    t = x.images
    ix = ctx.index_of(t)
    if ix == 0:
        return ctx.n // u.order
    cx = ctx.class_of[ix]
    ng_order = ctx.bundles[ctx.bundle_of_class[cx]].normalizer_order
    u_gens = u.group.gen_tables
    members = [i for i in ctx.indices_of(u.group) if ctx.class_of[i] == cx]

    def conj_by_u(fs: frozenset[int], j: int) -> frozenset[int]:
        return frozenset(ctx.conj_map(u_gens[j], [ctx.elements[k] for k in fs]))

    seen: set[frozenset[int]] = set()
    total = 0
    for i in members:
        fsy = frozenset(
            ctx.index[tab] for tab in _cyclic_tables(ctx.elements[i], ctx.group.degree)
        )
        if fsy in seen:
            continue
        orbit = orbit_walk(fsy, conj_by_u, len(u_gens))[0]
        seen.update(orbit)
        # |N_U(<y>)| = |U| / (U-orbit length), so the index is
        # |N_G| * orbit / |U|
        val = ng_order * len(orbit)
        if val % u.order:
            raise FalsificationError(
                f"normalizer index {ng_order}*{len(orbit)}/{u.order} is not integral"
            )
        total += val // u.order
    return total


def fix_frobenius(g: PermGroup | GroupContext, u: Subgroup, x: Permutation) -> int:
    """|N_G(<x>)| / |J| for U = K : J Frobenius, x in U outside K."""
    rec = as_context(u.group).predicates
    if not rec.is_frobenius_cyclic_complement:
        raise PreconditionError(
            "stabilizer is not Frobenius with nilpotent kernel and cyclic complement"
        )
    a = rec.frobenius_kernel_order
    b = rec.frobenius_complement_order
    t = x.images
    if not u.group.contains_table(t):
        raise PreconditionError("element must lie in the stabilizer")
    if a % table_order(t) == 0:
        raise PreconditionError("element lies in the Frobenius kernel")
    ctx = as_context(g)
    ix = ctx.index_of(t)
    ng_order = ctx.bundles[ctx.bundle_of_class[ctx.class_of[ix]]].normalizer_order
    if ng_order % b:
        raise FalsificationError(
            f"|N_G(<x>)| = {ng_order} is not divisible by |J| = {b}"
        )
    return ng_order // b


# ---------------------------------------------------------------------------
# fixity, profiles, marks
# ---------------------------------------------------------------------------

def fixity(g: PermGroup, u: Subgroup, caps: Caps = DEFAULT_CAPS) -> FixityReport:
    """Fixity of G on G/U: the largest fixed-coset count of a generator y of
    a class of cyclic subgroups of U.

    An element x that fixes the coset U r has r x r^-1 in U, the two fix
    equally many cosets, and so does every generator of <x>, so one count
    per U-bundle is exact.  y fixes n |N_G(<y>)| / |U| cosets, where the n
    conjugates of <y> inside U fill the U-bundles whose representatives lie
    in <y>'s G-orbit.  Within this call each G-class met is walked once, from
    the first bundle that meets it (:func:`cyclic_orbit`), and the later
    bundles are tested against the classes walked; nothing is kept on G, G
    is never enumerated and no coset is materialized."""
    check_stabilizer(g, u)
    u_ctx = as_context(u.group, caps.elements)
    reps = [u_ctx.elements[b.rep_index] for b in u_ctx.bundles]
    # a bundle joins the first class walked that holds its representative
    walked: list[CyclicOrbit] = []
    orbits = []
    for y in reps:
        rec = next((r for r in walked if r.contains(y)), None)
        if rec is None:
            rec = cyclic_orbit(g, y)
            walked.append(rec)
        orbits.append(rec)
    inside = dict.fromkeys(walked, 0)
    for rec, b in zip(orbits, u_ctx.bundles):
        inside[rec] += b.n_subgroups
    # cyclic_orbit checked that each normalizer order divides |G|
    counts = [inside[rec] * (g.order // rec.length) for rec in orbits]
    if any(c % u.order for c in counts):
        raise FalsificationError(f"counts {counts} are not all divisible by |U| = {u.order}")
    fixes = [c // u.order for c in counts]
    # bundles are numbered in the order of their first class, whose
    # representative is the bundle's least element; bundles of one class
    # share one count, so the first attaining the fixity started its walk
    best = max(fixes, default=0)
    return FixityReport(
        group=g, stabilizer=u, fixity=best,
        witness=reps[fixes.index(best)] if reps else None, bundle_fixes=fixes, orbits=orbits,
    )


def profile(g: PermGroup | GroupContext, u: Subgroup, caps: Caps = DEFAULT_CAPS) -> FixedPointProfile:
    """One row (element order, centralizer order, fixed cosets) per class of
    nontrivial cyclic subgroups, sorted by the triple."""
    ctx = as_context(g, caps.elements)
    fixes = stabilizer_bundle_fixes(ctx, u)
    rows = sorted(
        (b.element_order, b.centralizer_order, fx)
        for b, fx in zip(ctx.bundles, fixes)
    )
    return FixedPointProfile(rows=tuple(rows))


def mark_on_action(action: CosetAction, v_gen_tables: list[ImageTable]) -> int:
    """Cosets fixed simultaneously by every element of V = <v_gen_tables>."""
    if not v_gen_tables:
        return action.degree
    fixed = [set(fixed_cosets(action, t)) for t in v_gen_tables]
    return len(set.intersection(*fixed))


def mark(g: PermGroup, u: Subgroup, v: Subgroup, caps: Caps = DEFAULT_CAPS) -> int:
    action = build_coset_action(g, u, caps.cosets, caps.elements)
    return mark_on_action(action, v.group.gen_tables)


def marks_row(g: PermGroup | GroupContext, u: Subgroup, caps: Caps = DEFAULT_CAPS) -> list[int]:
    """Marks of G/U on each representative of G's subgroup classes, for the
    classes up to and including U's own class in the (order, canonical)
    order of G's lattice."""
    ctx = as_context(g, caps.elements)
    classes = ctx.subgroup_classes(caps.subgroups)
    action = build_coset_action(ctx.group, u, caps.cosets, caps.elements)
    orbit_u, _ = ctx._subgroup_orbit(frozenset(ctx.indices_of(u.group)), u.group)
    canon_u = canonical_form(orbit_u)
    pos = None
    for i, c in enumerate(classes):
        if c.order == u.order and c.canonical == canon_u:
            pos = i
            break
    if pos is None:
        raise FalsificationError("the stabilizer's class is missing from the group's lattice")
    return [
        mark_on_action(action, c.representative.group.gen_tables)
        for c in classes[: pos + 1]
    ]


# ---------------------------------------------------------------------------
# golden-file serialization
# ---------------------------------------------------------------------------

def report_json(group_name: str, rep: FixityReport, prof: FixedPointProfile) -> str:
    obj = {
        "group": group_name,
        "stabilizer_order": rep.stabilizer.order,
        "degree": rep.group.order // rep.stabilizer.order,
        "fixity": rep.fixity,
        "profile": [list(r) for r in prof.rows],
    }
    return json.dumps(obj, indent=2)
