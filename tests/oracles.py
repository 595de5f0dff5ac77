"""Counting routes and a normalizer that the library does not use, kept as
oracles for the tests.

The library counts fixed cosets one way, ``cosets.fixity`` over the walks
of ``cyclic_orbit``, and checks it against ``fix_direct`` on a built coset
action.  These routes count the fixed points of x on G/U from G's context
instead:

  fix_by_normalizer_formula   |{<x>^g <= U}| * |N_G(<x>)| / |U|
  fix_by_class_sum      sum over U-classes of <y>, y in x^G cap U, of
                        |N_G(<y>) : N_U(<y>)|
  fix_frobenius         |N_G(<x>)| / |J| for U Frobenius with nilpotent
                        kernel and cyclic complement J, x outside the kernel

and ``normalizer_brute`` finds N_G(U) by scanning every element of G.
``search_on_the_lattice`` is the fixity search that screens every class of
G's whole subgroup lattice, which ``verifier.search_fixity_k`` must match.
"""

from fixitylab.cosets import DEFAULT_CAPS, Caps, fixity, stabilizer_bundle_fixes
from fixitylab.enumeration import ELEMENT_CAP, _cyclic_tables, _normalized_by, as_context
from fixitylab.errors import FalsificationError, PreconditionError
from fixitylab.perm import (
    ImageTable,
    PermGroup,
    Permutation,
    _greedy_chain,
    check_subgroup,
    orbit_walk,
    table_order,
)
from fixitylab.verifier import FixityHit


def subgroup_from_tables(
    parent: PermGroup, tables: list[ImageTable], target_order: int | None = None
) -> PermGroup:
    """The subgroup of ``parent`` the tables generate."""
    u = _greedy_chain(parent.degree, tables, target_order)
    check_subgroup(parent, u)
    return u


def normalizer_brute(g: PermGroup, u: PermGroup, cap: int = ELEMENT_CAP) -> PermGroup:
    """N_G(U) by scanning every element of G; small-scale oracle."""
    ctx = as_context(g, cap)
    u_set = frozenset(u.element_tables())
    members = [e for e in ctx.elements if _normalized_by([e], u.gen_tables, u_set)]
    return subgroup_from_tables(g, members, target_order=len(members))


def fix_by_normalizer_formula(g: PermGroup, u: PermGroup, x: Permutation) -> int:
    """|{<x>^g <= U}| * |N_G(<x>)| / |U|: the screen's count for the class
    of cyclic subgroups that <x> lies in."""
    ctx = as_context(g)
    ix = ctx.index_of(x.images)
    if ix == 0:
        return ctx.n // u.order
    return stabilizer_bundle_fixes(ctx, u)[ctx.bundle_of_class[ctx.class_of[ix]]]


def fix_by_class_sum(g: PermGroup, u: PermGroup, x: Permutation) -> int:
    """Sum over U-classes of subgroups <y> with y in x^G cap U of the
    normalizer index |N_G(<y>) : N_U(<y>)|."""
    ctx = as_context(g)
    t = x.images
    ix = ctx.index_of(t)
    if ix == 0:
        return ctx.n // u.order
    cx = ctx.class_of[ix]
    ng_order = ctx.bundles[ctx.bundle_of_class[cx]].normalizer_order
    u_gens = u.gen_tables
    members = [i for i in ctx.indices_of(u) if ctx.class_of[i] == cx]

    def conj_by_u(fs: frozenset[int], j: int) -> frozenset[int]:
        return frozenset(ctx.conj_map(u_gens[j], [ctx.elements[k] for k in fs]))

    seen: set[frozenset[int]] = set()
    total = 0
    for i in members:
        fsy = frozenset(ctx.index[tab] for tab in _cyclic_tables(ctx.elements[i], g.degree))
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


def fix_frobenius(g: PermGroup, u: PermGroup, x: Permutation) -> int:
    """|N_G(<x>)| / |J| for U = K : J Frobenius, x in U outside K."""
    rec = as_context(u).predicates
    if not rec.is_frobenius_cyclic_complement:
        raise PreconditionError(
            "stabilizer is not Frobenius with nilpotent kernel and cyclic complement"
        )
    a = rec.frobenius_kernel_order
    b = rec.frobenius_complement_order
    t = x.images
    if not u.contains_table(t):
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


def search_on_the_lattice(g: PermGroup, k: int = 4, caps: Caps = DEFAULT_CAPS) -> list[FixityHit]:
    """Every class 1 < U < G of G's whole subgroup lattice whose coset
    action has fixity exactly k and degree above k, screened by the
    normalizer-formula counts and confirmed by ``fixity``, in the lattice's
    (order, canonical form) order."""
    ctx = as_context(g, caps.elements)
    hits = []
    for sc in ctx.subgroup_classes(caps.subgroups):
        degree = ctx.n // sc.order
        if sc.order == 1 or degree <= k:
            continue
        fixes = stabilizer_bundle_fixes(ctx, sc.representative)
        if (max(fixes) if fixes else 0) != k:
            continue
        rep = fixity(g, sc.representative, caps)
        if rep.fixity != k:
            raise FalsificationError(
                f"screen says fixity {k}, the direct count {rep.fixity}, order {sc.order}"
            )
        hits.append(FixityHit(subgroup_class=sc, degree=degree, report=rep))
    return hits
