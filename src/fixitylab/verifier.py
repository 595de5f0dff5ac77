"""Classification claims and structural side conditions for fixity-4 actions.

This module packages the checks that turn the library into a verification
tool:

  search_fixity_k        find the subgroup classes whose coset actions have
                         fixity exactly k, saturating above subgroups of
                         centralizers that the fixity bounds, never building
                         the whole lattice
  check_structural_lemmas  normalizer-index bounds, TI property of four-point
                         stabilizers, Sylow containment for p >= 5
  classify_sylow3_orbits conclude which of five orbit shapes a Sylow
                         3-subgroup exhibits on one coset space, building
                         the action only when 3 divides |U|
  evaluate_action        descriptor, structural side conditions and Sylow-3
                         case of one fixity report, the last two only on a
                         fixity-4 action with a matching descriptor and a
                         group within the element cap
  check_psl2_family      reproduce the fixity-4 stabilizer rows of PSL2(q)
                         for an odd prime power q >= 17 by direct construction
                         of the quarter-torus and half-Borel subgroups (the
                         small q are catalog search claims)
  check_order27_lemma    conjugation identity y^U = P'y in both nonabelian
                         groups of order 27
  run_claim_catalog      execute a JSON catalog of the above and report
                         PASS / FAIL / SKIPPED per claim

Claimed stabilizer structures are named by descriptor strings ("C5",
"C11:C5", "(C3xC3):C2", ...) that map to order plus predicate requirements
computed by the enumeration layer; matching is a perfect assignment between
expected descriptors and found subgroup classes, never a name comparison.
"""

from __future__ import annotations

import functools
import json
import math
import re
from collections import Counter
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .cosets import (
    Caps,
    DEFAULT_CAPS,
    FixityReport,
    build_coset_action,
    chain_canonicalizer,
    check_stabilizer,
    fixed_cosets,
    fixity,
    stabilizer_bundle_fixes,
)
from .enumeration import (
    SubgroupClass,
    _cyclic_tables,
    _find_element_of_order,
    _normalized_by,
    as_context,
    centralizer,
    check_subgroup_cap,
    is_simple_group,
    normalizer,
    subgroup_closure,
    sylow,
)
from .errors import (
    CapExceededError,
    FalsificationError,
    GroupDataError,
    GroupNotFoundError,
    MembershipError,
    PreconditionError,
)
from .ffield import is_prime, p_part, prime_divisors, prime_power
from .perm import (
    ImageTable,
    PermGroup,
    Permutation,
    _greedy_chain,
    build_bsgs,
    compose_tables,
    conjugate_table,
    conjugator,
    invert_table,
    orbit_partition,
    orbit_stabilizer,
    orbit_walk,
    pack_table,
    point_stabilizer,
    table_action,
    table_order,
)
from .zoo import GroupSpec, psl2_spec, resolve_group

# ---------------------------------------------------------------------------
# stabilizer descriptors
# ---------------------------------------------------------------------------

# descriptor forms with integer parameters; the order of each is the
# product of its parameters
_DESCRIPTOR_FORMS = (
    ("cyclic", re.compile(r"^C(\d+)$")),
    ("dihedral", re.compile(r"^D(\d+)$")),
    ("elementary_abelian", re.compile(r"^C(\d+)xC(\d+)$")),
    ("frobenius", re.compile(r"^C(\d+):C(\d+)$")),
    ("frobenius_elab", re.compile(r"^\(C(\d+)xC(\d+)\):C(\d+)$")),
)
# descriptors that name one group, with its order
_NAMED_ORDERS = {
    "S3": 6, "A4": 12, "A5": 60, "A6": 360, "PSL2(11)": 660, "M11": 7920,
    "((C3xC3):C3):C8": 216,
}


def parse_descriptor(name: str) -> tuple[str, tuple[int, ...]]:
    """(form, params) of a descriptor string: a named group is its own form
    with no params."""
    if name in _NAMED_ORDERS:
        return name, ()
    for form, regex in _DESCRIPTOR_FORMS:
        m = regex.match(name)
        if m:
            return form, tuple(int(x) for x in m.groups())
    raise GroupDataError(f"unknown stabilizer descriptor {name!r}")


def descriptor_order(name: str) -> int:
    """Group order implied by a descriptor string."""
    form, params = parse_descriptor(name)
    return _NAMED_ORDERS[form] if form in _NAMED_ORDERS else math.prod(params)


def _normal_sylow(grp: PermGroup, p: int) -> tuple[bool, PermGroup]:
    """(is the Sylow p-subgroup of grp normal, that subgroup)."""
    syl = sylow(grp, p)
    return _normalized_by(grp.gen_tables, syl.gen_tables, set(syl.element_tables())), syl


def descriptor_matches(name: str, group: PermGroup) -> bool:
    """Does the group satisfy the descriptor?"""
    if group.order != descriptor_order(name):
        return False
    form, params = parse_descriptor(name)
    rec = as_context(group).predicates
    if form == "cyclic":
        return rec.is_cyclic
    if form in ("dihedral", "S3"):
        return rec.is_dihedral
    if form == "elementary_abelian":
        a, b = params
        return a == b and rec.is_elementary_abelian
    if form == "frobenius":
        k, j = params
        return (
            rec.is_frobenius_cyclic_complement
            and rec.frobenius_kernel_order == k
            and rec.frobenius_complement_order == j
        )
    if form == "frobenius_elab":
        a, b, c = params
        # elementary abelian kernel is pinned by the exponent: lcm(a, c)
        # rather than lcm(a*b, c) for the cyclic-kernel group of equal order
        return (
            a == b
            and rec.is_frobenius_cyclic_complement
            and rec.frobenius_kernel_order == a * b
            and rec.frobenius_complement_order == c
            and rec.exponent == math.lcm(a, c)
        )
    if form == "A4":
        return not rec.is_abelian and rec.n_involutions == 3
    if form == "((C3xC3):C3):C8":
        if rec.count_of_order(8) == 0:
            return False
        norm, syl = _normal_sylow(group, 3)
        srec = as_context(syl).predicates
        return (
            norm
            and srec.order == 27
            and not srec.is_abelian
            and srec.exponent == 3
        )
    # A5, A6, PSL2(11), M11: among these orders the simple group is unique
    return is_simple_group(group)


def match_descriptors(expected: list[str], groups: list[PermGroup]) -> list[int] | None:
    """Perfect assignment expected[i] -> groups[assign[i]], or None."""
    n = len(expected)
    if n != len(groups):
        return None
    compat = [[descriptor_matches(d, u) for u in groups] for d in expected]
    assign = [-1] * n
    used = [False] * n

    def extend(i: int) -> bool:
        if i == n:
            return True
        for j in range(n):
            if not used[j] and compat[i][j]:
                used[j] = True
                assign[i] = j
                if extend(i + 1):
                    return True
                used[j] = False
                assign[i] = -1
        return False

    return assign if extend(0) else None


# ---------------------------------------------------------------------------
# fixity-k search
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class FixityHit:
    """One subgroup class whose coset action has the searched fixity."""

    subgroup_class: SubgroupClass
    degree: int
    report: FixityReport


def search_fixity_k(g: PermGroup, k: int = 4, caps: Caps = DEFAULT_CAPS) -> list[FixityHit]:
    """All subgroup classes 1 < U < G whose coset action has fixity exactly k.

    Every x in U fixes the cosets Uc with c in C_G(x), so fixity <= k forces
    |C_G(x) : C_U(x)| <= k for each x != 1 in U.  G's bundles of prime order
    b_1, b_2, ... are taken by element order, then bundle index.  For each
    b_j, with x its representative and H = C_G(x), H's subgroups above <x>
    are saturated without extending a class of index <= k in H; the classes
    of index <= k found (H when there is none) are the seeds, and every
    subgroup of H above <x> of index <= k contains an H-conjugate of one.
    G's classes above the seeds that meet none of b_1..b_(j-1) are the
    candidates.  This is complete: conjugate U so that the x of the first
    b_j it meets lies in it; then C_U(x) contains an H-conjugate of a seed,
    every subgroup between that seed and U avoids b_1..b_(j-1), and the
    saturation's root steps reach U up to G-conjugacy.  Every candidate of
    run j meets b_j, so no class is a candidate in two runs.

    Candidates are screened by the normalizer-formula counts of G's context
    (one O(|U|) pass per class), then every one that passes is counted
    again by :func:`fixity` from its own walks of G's cyclic subgroups; the
    two counts disagreeing is reported as a falsification.
    Degree must exceed k, which also discards non-faithful actions: a kernel
    element would fix all cosets.  Results follow the deterministic
    (order, canonical form) class order.
    """
    ctx = as_context(g, caps.elements)
    check_subgroup_cap(ctx.n, caps.subgroups)
    primes = sorted(
        (b.element_order, bid) for bid, b in enumerate(ctx.bundles) if is_prime(b.element_order)
    )
    candidates: list[SubgroupClass] = []
    for j, (_, bid) in enumerate(primes):
        x = ctx.elements[ctx.bundles[bid].rep_index]
        h = centralizer(g, x, caps.elements)
        h_ctx = as_context(h, caps.elements)
        x_cyclic = (build_bsgs([x], degree=g.degree), _cyclic_tables(x, g.degree))
        seeds = [
            (sc.representative, [h_ctx.elements[i] for i in sc.indices])
            for sc in h_ctx._compute_subgroup_classes([x_cyclic], leaf_index=k)
            if h.order // sc.order <= k
        ] or [(h, h_ctx.elements)]
        candidates += ctx._compute_subgroup_classes(seeds, frozenset(b for _, b in primes[:j]))
    candidates.sort(key=lambda sc: (sc.order, sc.canonical))
    hits: list[FixityHit] = []
    for sc in candidates:
        # every candidate contains an x != 1; G itself has degree 1
        degree = ctx.n // sc.order
        if degree <= k:
            continue
        fixes = stabilizer_bundle_fixes(ctx, sc.representative)
        if (max(fixes) if fixes else 0) != k:
            continue
        rep = fixity(g, sc.representative, caps)
        if rep.fixity != k:
            raise FalsificationError(
                f"normalizer-formula screen says fixity {k} but the direct "
                f"count says {rep.fixity} for a stabilizer of order {sc.order}"
            )
        hits.append(FixityHit(subgroup_class=sc, degree=degree, report=rep))
    return hits


# ---------------------------------------------------------------------------
# structural side conditions
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class StructuralChecks:
    """Outcome of the structural side conditions on one fixity-4 action."""

    cyclic_indices: list[tuple[int, int]]
    four_point_order: int
    ti_samples: int
    h_normalizer_index: int
    failures: list[str]

    @property
    def ok(self) -> bool:
        return not self.failures


def _missing_sylow(what: str, order: int, n: int) -> list[str]:
    """One failure per prime p >= 5 dividing ``order`` whose Sylow p-part of
    n a subgroup of that order misses."""
    return [
        f"{what} of order {order} misses the full Sylow {p}-part {p_part(n, p)} of the group"
        for p in prime_divisors(order)
        if p >= 5 and p_part(order, p) != p_part(n, p)
    ]


def check_structural_lemmas(report: FixityReport, caps: Caps = DEFAULT_CAPS) -> StructuralChecks:
    """Side conditions every fixity-4 action must satisfy, read from the
    report and U; no coset action is built and no orbit of G is walked.

    The witness y started the walk of its G-class (``report.orbits``), so
    the cosets U r it fixes, those with <y>^(r^-1) inside U, are the
    U x^-1 n for n in N_G(<y>) and x carrying <y> to a U-bundle of that
    class (``CyclicOrbit.carrier_of``); U itself is one, r_0 = 1.  H, the
    four-point stabilizer, is the u in U with every r_i u r_i^-1 in U, so
    H holds y and H != 1.

    (i)   |N_G(Y) : N_U(Y)| <= 4 for one Y per U-class of nontrivial cyclic
          subgroups Y <= U: |G| over the length of Y's walk, over |N_U(Y)|;
    (ii)  H is TI: every non-identity element of H fixes exactly the four
          cosets, read from the count of its U-bundle, which decides TI for
          every conjugator (``ti_samples`` counts the elements of H checked);
    (iii) for each prime p >= 5 dividing |U|, U contains a full Sylow
          p-subgroup of G, and so does H for each such p dividing |H|;
    (iv)  |N_G(H) : N_{G_a}(H)| is 2 or 4 for each of the four cosets
          a = U r_a: it is |N_G(H_a) : N_U(H_a)| for H_a = r_a H r_a^-1,
          whose G-conjugates in U are the U-conjugates of the four H_i.

    Failures are collected in the returned record, never silently dropped.
    """
    g, u, y = report.group, report.stabilizer, report.witness
    if report.fixity != 4 or y is None:
        raise PreconditionError(
            "structural checks apply to a confirmed fixity-4 action with a witness"
        )
    u_ctx = as_context(u, caps.elements)
    reps = [u_ctx.elements[b.rep_index] for b in u_ctx.bundles]
    k = reps.index(y) if y in reps else -1
    if k < 0 or report.orbits.index(report.orbits[k]) != k:
        raise PreconditionError("the witness is not the first U-bundle representative of its G-class")

    # (i) normalizer index of cyclic subgroups of U, per U-class
    ng = [g.order // rec.length for rec in report.orbits]
    if any(n % b.normalizer_order for n, b in zip(ng, u_ctx.bundles)):
        raise FalsificationError(f"|N_U(Y)| does not divide |N_G(Y)| = {ng} for some Y")
    cyclic_indices = [(b.element_order, n // b.normalizer_order) for n, b in zip(ng, u_ctx.bundles)]
    failures = [
        f"|N_G(Y):N_U(Y)| = {idx} > 4 for cyclic Y of order {o}"
        for o, idx in cyclic_indices
        if idx > 4
    ]

    # (iii) for p >= 5 the stabilizer contains a full Sylow p-subgroup
    failures += _missing_sylow("stabilizer", u.order, g.order)

    # the four cosets, as the orbits under N_G(<y>) of the U x^-1; U's
    # label, the identity, is the least
    rec = report.orbits[k]
    canon = chain_canonicalizer(u)
    act, as_operand = table_action(g.degree)
    n_ops = [as_operand(t) for t in rec.normalizer.gen_tables]
    fixed: set[ImageTable] = set()
    for z, r in zip(reps, report.orbits):
        if r is rec:
            start = canon(invert_table(rec.carrier_of(z)))
            fixed.update(orbit_walk(start, lambda c, j: canon(act(c, n_ops[j])), len(n_ops))[0])
    if len(fixed) != 4:
        raise FalsificationError(
            f"witness element fixes {len(fixed)} cosets, fixity report says 4"
        )
    # u lies in H exactly when each r_i u r_i^-1 lies in U, and those
    # conjugates make up H_i = r_i H r_i^-1; H's tables are sorted, the
    # identity first
    to_h = [conjugator(invert_table(r)) for r in sorted(fixed)]
    h = [t for t in u_ctx.elements if all(c(t) in u_ctx.index for c in to_h[1:])]
    failures += _missing_sylow("four-point stabilizer", len(h), g.order)

    # (ii) TI, exactly: each h != 1 in H fixes the four cosets and, at
    # fixity 4, nothing else; an h != 1 in H cap H^s then fixes them and
    # their images under s, so s permutes them and H^s = H
    ti_samples = 0
    for t in h[1:]:
        ti_samples += 1
        fixes = report.bundle_fixes[u_ctx.bundle_of_class[u_ctx.class_of[u_ctx.index[t]]]]
        if fixes != 4:
            failures.append(
                f"TI not shown: an element of order {table_order(t)} in H "
                f"fixes {fixes} cosets, more than the fixity 4"
            )
            break

    # (iv) y lies in H and fixes only the four cosets, so H_a fixes exactly
    # the U r_i r_a^-1 and its m G-conjugates in U are the U-classes of the
    # H_i, walked under U's generators; 4 |U| = m |N_G(H_a)|
    conj = u_ctx.conj_tables
    classes: list[dict[frozenset[int], int]] = []
    sizes = []
    for c in to_h:
        h_i = frozenset(u_ctx.index[c(t)] for t in h)
        orbit = next((o for o in classes if h_i in o), None)
        if orbit is None:
            orbit = orbit_walk(h_i, lambda s, j: frozenset(conj[j][i] for i in s), len(conj))[0]
            classes.append(orbit)
        sizes.append(len(orbit))
    inside = sum(map(len, classes))
    if any(4 * n_i % inside for n_i in sizes):
        raise FalsificationError(f"normalizer indices 4*{sizes}/{inside} are not all integers")
    indices = [4 * n_i // inside for n_i in sizes]
    failures += [
        f"|N_G(H):N_{{G_a}}(H)| = {idx} for a fixed point of H, expected 2 or 4"
        for idx in indices
        if idx not in (2, 4)
    ]

    return StructuralChecks(
        cyclic_indices=cyclic_indices,
        four_point_order=len(h),
        ti_samples=ti_samples,
        h_normalizer_index=indices[0],
        failures=failures,
    )


# ---------------------------------------------------------------------------
# Sylow-3 orbit shapes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Sylow3Classification:
    """Which of the five orbit shapes P in Syl_3(G) exhibits on G/U."""

    case: str
    p_order: int
    delta_size: int
    orbit_sizes: tuple[tuple[int, int], ...]


def _commutator(a: ImageTable, b: ImageTable) -> ImageTable:
    return compose_tables(
        compose_tables(compose_tables(invert_table(a), invert_table(b)), a), b
    )


def _commutator_tables(
    degree: int, a_tables: list[ImageTable], b_tables: list[ImageTable]
) -> list[ImageTable]:
    """Elements of [A, B], given the elements of A and of B."""
    comms = sorted({_commutator(a, b) for a in a_tables for b in b_tables})
    return _greedy_chain(degree, comms).element_tables()


def _nilpotency_class(degree: int, tables: list[ImageTable]) -> int:
    """Length of the lower central series; 0 for the trivial group."""
    cur = tables
    c = 0
    while len(cur) > 1:
        nxt = _commutator_tables(degree, cur, tables)
        if len(nxt) >= len(cur):
            raise FalsificationError("lower central series failed to descend")
        cur = nxt
        c += 1
    return c


def _is_maximal_class(degree: int, tables: list[ImageTable], p: int) -> bool:
    pp = prime_power(len(tables))
    if pp is None or pp[0] != p or pp[1] < 2:
        return False
    e = pp[1]
    return e == 2 or _nilpotency_class(degree, tables) == e - 1


def classify_sylow3_orbits(
    g: PermGroup, u: PermGroup, caps: Caps = DEFAULT_CAPS
) -> Sylow3Classification:
    """Orbit shape of a Sylow 3-subgroup P on the coset space G/U.

    Case (a) is read from |U| and the degree.  Otherwise the coset action
    is built, within the caps, and the P-orbits are taken from the coset
    rows of P's generators alone.
    Delta is the union of the P-orbits of length at most 3.  The first of
    five shapes that holds is the case:

      (a) every P-orbit is regular and 3 does not divide |U|: read from |U|
          alone, as the stabilizer P cap U^r of a point U r is a 3-subgroup
          of U^r, trivial when 3 does not divide |U|;
      (b) |Delta| > 4 and |P| <= 9;
      (c) |Delta| <= 4, P is of maximal class, some orbit outside Delta is
          not regular, and on each such orbit the point stabilizers in P
          have order 3 and fix exactly 3 of its points;
      (d) Delta is a single orbit of length 3 and every other orbit is
          regular;
      (e) 1 <= |Delta| <= 4, Delta holds a fixed point of P, and every
          orbit outside Delta is regular.

    A fixity-4 action must show one of them; none matching is reported as
    a falsification with the orbit data.
    """
    check_stabilizer(g, u)
    p_order, degree = p_part(g.order, 3), g.order // u.order
    if u.order % 3:
        return Sylow3Classification(
            case="a", p_order=p_order, delta_size=degree if p_order <= 3 else 0,
            orbit_sizes=((p_order, degree // p_order),),
        )
    action = build_coset_action(g, u, caps.cosets, caps.elements)
    p_grp = sylow(g, 3, caps.elements)
    # each generator prepared once as an operand: no check or padding per coset
    act, as_operand = table_action(g.degree)
    reps = action.canonical_reps
    rows = [[action.coset_of(act(r, op)) for r in reps] for op in map(as_operand, p_grp.gen_tables)]
    _, orbits = orbit_partition(action.degree, rows)

    delta_orbits = [o for o in orbits if len(o) <= 3]
    delta_size = sum(len(o) for o in delta_orbits)
    outside = [o for o in orbits if len(o) > 3]
    size_pairs = tuple(sorted(Counter(len(o) for o in orbits).items()))

    def result(case: str) -> Sylow3Classification:
        return Sylow3Classification(
            case=case, p_order=p_order, delta_size=delta_size, orbit_sizes=size_pairs
        )

    def shows_case_c(lam: list[int]) -> bool:
        # the point stabilizers of one P-orbit are conjugate in P, so they
        # have one order and fix equally many points of the orbit: the
        # stabilizer of its first point decides for all of them
        stab = orbit_stabilizer(p_grp, lam[0], lambda c, j: rows[j][c])[1]
        if stab.order != 3:
            return False
        return len(set(fixed_cosets(action, stab.gen_tables[0])).intersection(lam)) == 3

    if delta_size > 4 and p_order <= 9:
        return result("b")
    if delta_size <= 4 and _is_maximal_class(g.degree, p_grp.element_tables(), 3):
        nonreg = [o for o in outside if len(o) < p_order]
        if nonreg and all(map(shows_case_c, nonreg)):
            return result("c")
    if (
        len(delta_orbits) == 1
        and len(delta_orbits[0]) == 3
        and all(len(o) == p_order for o in outside)
    ):
        return result("d")
    if (
        1 <= delta_size <= 4
        and any(len(o) == 1 for o in delta_orbits)
        and all(len(o) == p_order for o in outside)
    ):
        return result("e")
    raise FalsificationError(
        "no Sylow-3 orbit shape matched: "
        f"|P| = {p_order}, |Delta| = {delta_size}, orbit sizes {size_pairs}"
    )


# ---------------------------------------------------------------------------
# the action pipeline
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class ActionEvaluation:
    """The one judgment of a candidate action G/U.

    ``failures`` lists, in this order, a fixity other than 4, a descriptor
    U does not match, and the failed structural side conditions.  The side
    conditions and the Sylow-3 orbit shape run only when nothing failed
    before them and |G| is within the element cap; above it
    ``sylow3_case`` stays None.  ``ok`` holds only when they ran and
    nothing failed.
    """

    report: FixityReport
    failures: list[str]
    sylow3_case: str | None

    @property
    def ok(self) -> bool:
        return self.sylow3_case is not None and not self.failures


def evaluate_action(
    report: FixityReport, descriptor: str | None = None, caps: Caps = DEFAULT_CAPS
) -> ActionEvaluation:
    """The judgment of the action a fixity report was counted on (see
    ActionEvaluation), ``descriptor`` checked when given."""
    ev = ActionEvaluation(report, [], None)
    if report.fixity != 4:
        ev.failures.append(f"fixity {report.fixity}, wanted 4")
    if descriptor is not None and not descriptor_matches(descriptor, report.stabilizer):
        ev.failures.append(f"does not match {descriptor}")
    # the lemmas need no element of G; they are still held to the element
    # cap, because above it they would give the m22 rows a sylow3_case that
    # the benchmark's recorded reference output does not have yet
    within_element_cap = report.group.order <= caps.elements
    if not ev.failures and within_element_cap:
        ev.failures = check_structural_lemmas(report, caps).failures
        ev.sylow3_case = classify_sylow3_orbits(report.group, report.stabilizer, caps).case
    return ev


# ---------------------------------------------------------------------------
# the PSL2 family
# ---------------------------------------------------------------------------

def _family_descriptor_borel_half(q: int) -> str:
    p, n = prime_power(q)
    j = (q - 1) // 4
    if n == 1:
        return f"C{q}:C{j}"
    if n == 2:
        return f"(C{p}xC{p}):C{j}"
    raise PreconditionError(f"no descriptor form for a degree-{n} kernel")


def _family_row(
    g: PermGroup, u: PermGroup, descriptor: str, caps: Caps, failures: list[str]
) -> dict:
    ev = evaluate_action(fixity(g, u, caps), descriptor, caps)
    failures.extend(f"constructed stabilizer of order {u.order}: {f}" for f in ev.failures)
    return {
        "descriptor": descriptor,
        **action_row(ev.report),
        "sylow3_case": ev.sylow3_case or "-",
        "structural_ok": ev.ok,
    }


def check_psl2_family(q: int, caps: Caps = DEFAULT_CAPS) -> tuple[list[dict], list[str]]:
    """The fixity-4 stabilizer rows of PSL2(q), for an odd prime power
    q >= 17, and the failures found on them.

    The claimed stabilizers are constructed directly (the quarter-torus,
    plus the index-2 subgroup of the Borel subgroup when q = 1 mod 4) and
    each is checked for fixity 4, its descriptor, the structural side
    conditions and the Sylow-3 case.  A PSL2(q) larger than the element
    cap raises CapExceededError, as :func:`evaluate_action` runs those
    checks only within it.
    The small q are decided by the catalog's search claims instead.
    """
    if q < 17 or q % 2 == 0 or not prime_power(q):
        raise PreconditionError(f"q = {q} is outside the covered family range")
    spec = psl2_spec(q)
    # the order pledge decides the cap before the group is built
    if spec.expected_order > caps.elements:
        raise CapExceededError(
            f"group order {spec.expected_order} exceeds element cap {caps.elements}"
        )
    g = spec.build()
    p, n = prime_power(q)
    if q % 4 == 1:
        # the spec lists the n translations, then the torus generator;
        # the built group keeps only a generating pair
        t = spec.generators[n]
        if t.order() != (q - 1) // 2:
            raise GroupDataError(
                f"torus generator has order {t.order()}, wanted {(q - 1) // 2}"
            )
        t2 = t * t
        u1 = subgroup_closure(g, [t2])
        if u1.order != (q - 1) // 4:
            raise GroupDataError(f"torus half has order {u1.order}")
        u2 = subgroup_closure(g, spec.generators[:n] + [t2])
        if u2.order != q * (q - 1) // 4:
            raise GroupDataError(f"half-Borel subgroup has order {u2.order}")
        stabs = [(u1, f"C{(q - 1) // 4}"), (u2, _family_descriptor_borel_half(q))]
    else:
        # every cyclic subgroup of order (q + 1)/4 > 2 lies in a non-split
        # torus, and those tori are conjugate, so the least element of that
        # order gives the quarter-torus up to conjugacy
        u1 = _build_stabilizer(g, f"cyclic_least:{(q + 1) // 4}", caps)
        stabs = [(u1, f"C{(q + 1) // 4}")]
    failures: list[str] = []
    rows = [_family_row(g, u, d, caps, failures) for u, d in stabs]
    return rows, failures


# ---------------------------------------------------------------------------
# the two nonabelian groups of order 27
# ---------------------------------------------------------------------------

def _unitriangular27() -> PermGroup:
    """Exponent-3 group: unitriangular 3x3 matrices over GF(3) acting on
    the 27 row vectors of GF(3)^3, vector (v0, v1, v2) at index v0+3v1+9v2."""

    def mat_perm(mat: tuple[tuple[int, ...], ...]) -> Permutation:
        images = []
        for idx in range(27):
            v = (idx % 3, (idx // 3) % 3, idx // 9)
            w = tuple(
                sum(v[i] * mat[i][j] for i in range(3)) % 3 for j in range(3)
            )
            images.append(w[0] + 3 * w[1] + 9 * w[2])
        return Permutation(pack_table(images), _trusted=True)

    a = mat_perm(((1, 1, 0), (0, 1, 0), (0, 0, 1)))
    b = mat_perm(((1, 0, 0), (0, 1, 1), (0, 0, 1)))
    return GroupSpec("exponent3", 27, [a, b], 27).build()


def _affine27() -> PermGroup:
    """Exponent-9 group: x -> x+1 and x -> 4x on Z/9."""
    a = Permutation(pack_table([(i + 1) % 9 for i in range(9)]), _trusted=True)
    b = Permutation(pack_table([(4 * i) % 9 for i in range(9)]), _trusted=True)
    return GroupSpec("exponent9", 9, [a, b], 27).build()


def check_order27_lemma() -> list[dict]:
    """In both nonabelian groups P of order 27: for every index-3 subgroup U
    and every y in P - U with |C_P(y)| = 9, the class y^U is the coset P'y.

    Both groups have nilpotency class exactly 2 (the abelian candidates are
    excluded by that filter), and each has exactly four index-3 subgroups,
    all normal, giving eight (group, subgroup) pairs in total: one row each.
    """
    rows: list[dict] = []
    for name, g in (("exponent3", _unitriangular27()), ("exponent9", _affine27())):
        ctx = as_context(g)
        tables, rec = ctx.elements, ctx.predicates
        want_exp = 3 if name == "exponent3" else 9
        if rec.is_abelian or rec.exponent != want_exp:
            raise GroupDataError(f"{name} construction has the wrong shape")
        if _nilpotency_class(g.degree, tables) != 2:
            raise GroupDataError(f"{name} construction is not of class 2")
        index3 = [sc for sc in ctx.subgroup_classes() if sc.order == 9]
        if len(index3) != 4 or any(sc.class_size != 1 for sc in index3):
            raise GroupDataError(
                f"{name}: expected 4 normal index-3 subgroups, found "
                f"{[(sc.order, sc.class_size) for sc in index3]}"
            )
        derived = _commutator_tables(g.degree, tables, tables)
        if len(derived) != 3:
            raise GroupDataError(f"{name}: derived subgroup has order {len(derived)}")
        for si, sc in enumerate(index3):
            u_indices = sc.indices
            u_tables = [ctx.elements[i] for i in sorted(u_indices)]
            checked = 0
            ok = True
            for i in range(ctx.n):
                if i in u_indices:
                    continue
                if ctx.classes[ctx.class_of[i]].centralizer_order != 9:
                    continue
                y = ctx.elements[i]
                y_class = {conjugate_table(y, u) for u in u_tables}
                coset = {compose_tables(c, y) for c in derived}
                checked += 1
                if y_class != coset:
                    ok = False
                    break
            rows.append(
                {"group": name, "subgroup_index": si, "elements_checked": checked, "ok": ok}
            )
    return rows


# ---------------------------------------------------------------------------
# claim catalog
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class ClaimResult:
    claim_id: str
    verdict: str
    detail: str
    rows: list[dict]

    def to_dict(self) -> dict:
        return {
            "id": self.claim_id,
            "verdict": self.verdict,
            "detail": self.detail,
            "rows": self.rows,
        }


_CAP_KEYS = tuple(f.name for f in fields(Caps))
# no cap given: each claim runs under its own caps, else the defaults
CAPS_NOT_GIVEN = Caps(elements=None, subgroups=None, cosets=None)


def _merge_caps(base: Caps, spec: dict | None, cid: str) -> Caps:
    """The caps claim ``cid`` runs under: each cap it sets, bounded by the
    same cap of ``base``; a cap None in ``base`` is not given, and the
    claim's or else the default applies.  Each key must name a cap and
    each value be a positive int; anything else raises GroupDataError
    naming the claim and the key."""
    if spec is not None and not isinstance(spec, dict):
        raise GroupDataError(f"claim {cid!r}: caps must be an object, got {spec!r}")
    given = {k: v for k, v in asdict(base).items() if v is not None}
    for key, value in (spec or {}).items():
        # bool is an int subclass, so the type is compared exactly
        if key not in _CAP_KEYS or type(value) is not int or value < 1:
            raise GroupDataError(
                f"claim {cid!r}: bad cap {key!r}: {value!r} "
                f"(caps are {', '.join(_CAP_KEYS)}, each a positive int)"
            )
        given[key] = min(value, given.get(key, value))
    return Caps(**given)


# a stabilizer recipe is "<kind>:<n>"; n may be 0 only for a point stabilizer
_RECIPE_KINDS = ("point_stabilizer", "cyclic_least", "cyclic_search", "cyclic_normalizer_search")


def _parse_recipe(source: str, what: str) -> tuple[str, int]:
    """(kind, n) of a stabilizer recipe, or GroupDataError led by ``what``."""
    kind, _, arg = source.partition(":")
    ok = kind in _RECIPE_KINDS and re.fullmatch("[0-9]+", arg)
    if not ok or (int(arg) == 0 and kind != "point_stabilizer"):
        raise GroupDataError(f"{what}: {source!r} is not a stabilizer recipe <kind>:<n>")
    return kind, int(arg)


def _build_stabilizer(g: PermGroup, source: str, caps: Caps) -> PermGroup:
    kind, n = _parse_recipe(source, "bad source")
    if kind == "point_stabilizer":
        if n >= g.degree:
            raise GroupDataError(f"{source}: the group acts on points 0..{g.degree - 1}")
        return point_stabilizer(g, n)
    if kind == "cyclic_least":
        if g.order > caps.elements:
            raise CapExceededError(f"group order {g.order} exceeds element cap {caps.elements}")
        y = next((t for t in g.element_tables() if table_order(t) == n), None)
        if y is None:
            raise GroupDataError(f"group has no element of order {n}")
        return subgroup_closure(g, [Permutation(y, _trusted=True)])
    y = _find_element_of_order(g, n, caps.elements)
    cyc = subgroup_closure(g, [Permutation(y, _trusted=True)])
    return cyc if kind == "cyclic_search" else normalizer(g, cyc)


def action_row(report: FixityReport) -> dict:
    """The head every output row of an action G/U starts with."""
    u = report.stabilizer
    return {"order": u.order, "degree": report.group.order // u.order, "fixity": report.fixity}


def _run_search_claim(cid: str, claim: dict, g: PermGroup, caps: Caps) -> ClaimResult:
    expected = claim["expected"]
    hits = search_fixity_k(g, 4, caps)
    rows = [action_row(h.report) for h in hits]
    found = sorted(r["order"] for r in rows)
    if expected == "none":
        if hits:
            return ClaimResult(
                cid, "FAIL", f"expected no fixity-4 action, found orders {found}", rows
            )
        return ClaimResult(cid, "PASS", "", rows)
    want = sorted(descriptor_order(d) for d in expected)
    if found != want:
        detail = f"stabilizer orders {found} differ from expected {want}"
        return ClaimResult(cid, "FAIL", detail, rows)
    assign = match_descriptors(expected, [h.subgroup_class.representative for h in hits])
    if assign is None:
        return ClaimResult(cid, "FAIL", "no assignment of descriptors to found classes", rows)
    for i, d in enumerate(expected):
        rows[assign[i]]["descriptor"] = d
    for row, h in zip(rows, hits):
        ev = evaluate_action(h.report, caps=caps)
        if ev.failures:
            return ClaimResult(cid, "FAIL", "; ".join(ev.failures), rows)
        row["sylow3_case"] = ev.sylow3_case
    return ClaimResult(cid, "PASS", "", rows)


def _run_stabilizer_claim(cid: str, claim: dict, g: PermGroup, caps: Caps) -> ClaimResult:
    if not claim["stabilizers"]:
        raise GroupDataError("the claim lists no stabilizers, so no check would run")
    rows: list[dict] = []
    for entry in claim["stabilizers"]:
        source, descriptor = entry["source"], entry["descriptor"]
        u = _build_stabilizer(g, source, caps)
        ev = evaluate_action(fixity(g, u, caps), descriptor, caps)
        row = action_row(ev.report)
        row["descriptor"] = descriptor
        row["source"] = source
        rows.append(row)
        if ev.failures:
            detail = f"stabilizer from {source}: " + "; ".join(ev.failures)
            return ClaimResult(cid, "FAIL", detail, rows)
        if ev.sylow3_case is not None:
            row["sylow3_case"] = ev.sylow3_case
    return ClaimResult(cid, "PASS", "", rows)


# the keys each decidable claim mode reads
_REQUIRED_KEYS = {
    "search": ("group", "expected"),
    "stabilizers": ("group", "stabilizers"),
    "psl2_family": ("q",),
    "order27": (),
}


def run_claim(claim: dict, caps: Caps = CAPS_NOT_GIVEN) -> ClaimResult:
    """Execute one claim.

    SKIPPED means the claim was not decided: it is documented only, its
    mode is unknown, its group cannot be resolved, or a cap was exceeded.
    Every other failure, bad group data included, is FAIL.
    """
    cid = claim["id"]
    mode = claim.get("mode")
    if mode == "documented":
        return ClaimResult(cid, "SKIPPED", claim.get("note", "documented only"), [])
    if mode not in _REQUIRED_KEYS:
        return ClaimResult(cid, "SKIPPED", f"unknown claim mode {mode!r}", [])
    try:
        ccaps = _merge_caps(caps, claim.get("caps"), cid)
        if mode == "order27":
            rows = check_order27_lemma()
            if len(rows) == 8 and all(r["ok"] for r in rows):
                return ClaimResult(cid, "PASS", "", rows)
            return ClaimResult(cid, "FAIL", "a pair failed the coset identity", rows)
        if mode == "psl2_family":
            rows, failures = check_psl2_family(claim["q"], ccaps)
            return ClaimResult(cid, "FAIL" if failures else "PASS", "; ".join(failures), rows)
        name, g = resolve_group(claim["group"])
        if mode == "search":
            return _run_search_claim(cid, claim, g, ccaps)
        return _run_stabilizer_claim(cid, claim, g, ccaps)
    except GroupNotFoundError as e:
        return ClaimResult(cid, "SKIPPED", str(e), [])
    except CapExceededError as e:
        return ClaimResult(cid, "SKIPPED", f"cap exceeded: {e}", [])
    except (GroupDataError, FalsificationError, PreconditionError, MembershipError) as e:
        return ClaimResult(cid, "FAIL", str(e), [])


def _all_str(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def load_claims(path: str | Path) -> list[dict]:
    """The claims of a catalog file, each checked for a string id unique in
    the file, a string ``mode`` if it has one, the keys its mode reads, the
    types of ``group`` and ``q``, the shape of ``expected`` and of
    ``stabilizers``, and its ``caps``.  A file that is not a list of claim
    objects, or a claim that sets ``k`` (every claim decides fixity 4),
    raises GroupDataError, as does a file that cannot be read as UTF-8."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as e:
        raise GroupDataError(f"cannot read catalog {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise GroupDataError(f"catalog {path} is not valid JSON: {e}") from None
    claims = data.get("claims") if isinstance(data, dict) else data
    if not isinstance(claims, list) or not all(isinstance(c, dict) for c in claims):
        raise GroupDataError(f"catalog {path} does not hold a list of claim objects")
    seen: set[str] = set()
    for c in claims:
        if not isinstance(c.get("id"), str):
            raise GroupDataError(f"claim id {c.get('id')!r} is not a string")
        if "k" in c:
            raise GroupDataError(f"claim {c['id']!r} sets 'k'; every claim decides fixity 4")
        if c["id"] in seen:
            raise GroupDataError(f"duplicate claim id {c['id']!r}")
        seen.add(c["id"])
        mode = c.get("mode")
        if mode is not None and not isinstance(mode, str):
            raise GroupDataError(f"claim {c['id']!r}: 'mode' {mode!r} is not a string")
        what = f"{mode} claim {c['id']!r}"
        for key in _REQUIRED_KEYS.get(mode, ()):
            if key not in c:
                raise GroupDataError(f"{what} lacks the key {key!r}")
        if "group" in _REQUIRED_KEYS.get(mode, ()) and not isinstance(c["group"], str):
            raise GroupDataError(f"{what}: 'group' is not a string")
        # bool is an int subclass, so the type is compared exactly
        if mode == "psl2_family" and type(c["q"]) is not int:
            raise GroupDataError(f"{what}: 'q' is not an int")
        if mode == "search" and c["expected"] != "none" and not _all_str(c["expected"]):
            raise GroupDataError(f"{what}: 'expected' is not \"none\" or a list of strings")
        entries = c["stabilizers"] if mode == "stabilizers" else []
        # an empty list would check nothing and PASS
        if not isinstance(entries, list) or (mode == "stabilizers" and not entries):
            raise GroupDataError(f"{what}: 'stabilizers' is not a list of one or more entries")
        for e in entries:
            if not isinstance(e, dict):
                raise GroupDataError(f"{what}: stabilizer entry {e!r} is not an object")
            if not _all_str([e.get("source"), e.get("descriptor")]):
                raise GroupDataError(f"{what}: an entry lacks a string 'source' or 'descriptor'")
            _parse_recipe(e["source"], what)
        _merge_caps(DEFAULT_CAPS, c.get("caps"), c["id"])
    return claims


def run_claim_catalog(
    path: str | Path,
    jobs: int = 1,
    caps: Caps = CAPS_NOT_GIVEN,
    only: set[str] | None = None,
) -> list[ClaimResult]:
    """Execute every claim in a catalog file; results follow catalog order.

    ``only`` selects claims by id; an id the catalog lacks raises
    GroupDataError.  Claims are independent, so jobs > 1 fans them out to
    worker processes, whose results the pool returns in catalog order.
    """
    claims = load_claims(path)
    if only is not None:
        unknown = only - {c["id"] for c in claims}
        if unknown:
            raise GroupDataError(f"no claim with id {', '.join(sorted(unknown))} in {path}")
        claims = [c for c in claims if c["id"] in only]
    if jobs <= 1 or len(claims) <= 1:
        return [run_claim(c, caps) for c in claims]
    # imported here: the process pool costs every serial run its import time
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(functools.partial(run_claim, caps=caps), claims))


def catalog_report_json(results: list[ClaimResult]) -> str:
    counts = {"PASS": 0, "FAIL": 0, "SKIPPED": 0}
    for r in results:
        counts[r.verdict] += 1
    obj = {
        "claims": [r.to_dict() for r in results],
        "counts": counts,
    }
    return json.dumps(obj, indent=2)
