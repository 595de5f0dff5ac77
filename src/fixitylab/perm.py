"""Permutation arithmetic and base-and-strong-generating-set machinery.

Conventions used throughout the package:

* points are 0-based indices 0..degree-1;
* points act on the right and composition reads left to right, so
  ``w^(g*h) = (w^g)^h`` and ``compose_tables(a, b)[i] = b[a[i]]``;
* a permutation is stored as its image table.  For degree <= 255 the table
  is a ``bytes`` object (composition then runs through ``bytes.translate``),
  for larger degrees it is a ``tuple`` of ints.  Both compare
  lexicographically by image table, which every canonical choice in this
  package relies on;
* a subgroup is the PermGroup of its own chain, and :func:`check_subgroup`
  is the one test that it lies in a given group.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

from .errors import (
    DegreeMismatchError,
    FalsificationError,
    MembershipError,
    NotBijectionError,
)

ImageTable = bytes | tuple[int, ...]

_IDENT256 = bytes(range(256))


# ---------------------------------------------------------------------------
# raw image-table arithmetic (hot paths work on these, not on Permutation)
# ---------------------------------------------------------------------------

def identity_table(degree: int) -> ImageTable:
    if degree <= 255:
        return _IDENT256[:degree]
    return tuple(range(degree))


def pack_table(images: Sequence[int], degree: int | None = None) -> ImageTable:
    """Validate and pack an image sequence into the internal representation."""
    imgs = list(images)
    n = len(imgs) if degree is None else degree
    if len(imgs) != n:
        raise NotBijectionError(f"expected {n} images, got {len(imgs)}")
    seen = [False] * n
    for v in imgs:
        if not isinstance(v, int) or not 0 <= v < n:
            raise NotBijectionError(f"image {v!r} out of range 0..{n - 1}")
        if seen[v]:
            raise NotBijectionError(f"image {v} repeated")
        seen[v] = True
    return bytes(imgs) if n <= 255 else tuple(imgs)


def padded(b: bytes) -> bytes:
    """Extend an image table to a 256-byte translate table (identity tail)."""
    return b + _IDENT256[len(b):]


def table_action(degree: int):
    """``(act, as_operand)`` for tables of one degree: ``act(a, as_operand(t))``
    is the image table of a*t with no length check or padding per product.
    The operand is the padded translate table for bytes, the tuple itself
    otherwise (``tuple`` returns a tuple argument unchanged)."""
    if degree <= 255:
        return bytes.translate, padded
    return _act_tuple, tuple


def compose_tables(a: ImageTable, b: ImageTable) -> ImageTable:
    """Image table of a*b, i.e. i -> b[a[i]]."""
    if len(a) != len(b):
        raise DegreeMismatchError(f"degrees {len(a)} and {len(b)} differ")
    if type(a) is bytes:
        return a.translate(b + _IDENT256[len(b):])
    return tuple(b[v] for v in a)


def invert_table(a: ImageTable) -> ImageTable:
    if type(a) is bytes:
        # maketrans sets table[a[i]] = i
        return bytes.maketrans(a, _IDENT256[: len(a)])[: len(a)]
    out = [0] * len(a)
    for i, v in enumerate(a):
        out[v] = i
    return tuple(out)


def conjugator(g: ImageTable) -> Callable[[ImageTable], ImageTable]:
    """The map x -> g^-1 * x * g on tables of g's degree, with g prepared
    once: ``table[g[i]] = g[x[i]]``, no length check or padding per call."""
    d = len(g)
    if type(g) is bytes:
        # maketrans(frm, to) sets table[frm[i]] = to[i] and is the identity
        # elsewhere, so its first d bytes are the conjugate
        pg, maketrans = padded(g), bytes.maketrans
        return lambda x: maketrans(g, x.translate(pg))[:d]
    # table[i] = g[x[g^-1[i]]]: two lookups through C per entry
    g_inv = invert_table(g)
    return lambda x: tuple(map(g.__getitem__, map(x.__getitem__, g_inv)))


def conjugate_table(x: ImageTable, g: ImageTable) -> ImageTable:
    """Image table of g^-1 * x * g."""
    return conjugator(g)(x)


def table_order(a: ImageTable) -> int:
    """Order of the permutation: lcm of its cycle lengths."""
    n = len(a)
    seen = [False] * n
    order = 1
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        p = start
        while not seen[p]:
            seen[p] = True
            p = a[p]
            length += 1
        order = math.lcm(order, length)
    return order


def table_power(a: ImageTable, k: int) -> ImageTable:
    """a**k by square-and-multiply; negative k powers the inverse."""
    if k < 0:
        a = invert_table(a)
        k = -k
    result = identity_table(len(a))
    base = a
    while k:
        if k & 1:
            result = compose_tables(result, base)
        base = compose_tables(base, base)
        k >>= 1
    return result


def fixed_points_of_table(a: ImageTable) -> list[int]:
    return [i for i, v in enumerate(a) if v == i]


def cycles_of_table(a: ImageTable) -> list[tuple[int, ...]]:
    """Nontrivial cycles, each rotated to start at its least point."""
    n = len(a)
    seen = [False] * n
    out = []
    for start in range(n):
        if seen[start] or a[start] == start:
            seen[start] = True
            continue
        cyc = []
        p = start
        while not seen[p]:
            seen[p] = True
            cyc.append(p)
            p = a[p]
        out.append(tuple(cyc))
    return out


# ---------------------------------------------------------------------------
# the public Permutation wrapper
# ---------------------------------------------------------------------------

class Permutation:
    """A permutation of {0, ..., degree-1}, immutable, ordered by image table."""

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int] | ImageTable, _trusted: bool = False):
        if _trusted and isinstance(images, (bytes, tuple)):
            object.__setattr__(self, "images", images)
        else:
            object.__setattr__(self, "images", pack_table(images))

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Permutation is immutable")

    @property
    def degree(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(identity_table(degree), _trusted=True)

    @classmethod
    def from_cycles(cls, degree: int, cycles: Iterable[Sequence[int]]) -> "Permutation":
        imgs = list(range(degree))
        for cyc in cycles:
            for i, p in enumerate(cyc):
                imgs[p] = cyc[(i + 1) % len(cyc)]
        return cls(pack_table(imgs), _trusted=True)

    def __mul__(self, other: "Permutation") -> "Permutation":
        return Permutation(compose_tables(self.images, other.images), _trusted=True)

    def __invert__(self) -> "Permutation":
        return Permutation(invert_table(self.images), _trusted=True)

    def __pow__(self, k: int) -> "Permutation":
        return Permutation(table_power(self.images, k), _trusted=True)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __lt__(self, other: "Permutation") -> bool:
        return self.images < other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def order(self) -> int:
        return table_order(self.images)

    def fixed_points(self) -> list[int]:
        return fixed_points_of_table(self.images)

    def cycles(self) -> list[tuple[int, ...]]:
        return cycles_of_table(self.images)

    def __repr__(self) -> str:
        cyc = self.cycles()
        if not cyc:
            return f"Permutation.identity({self.degree})"
        body = "".join("(" + " ".join(map(str, c)) + ")" for c in cyc)
        return f"Permutation[{body}]"


# ---------------------------------------------------------------------------
# deterministic Schreier-Sims
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class PermGroup:
    """A permutation group with a verified base and strong generating set.

    ``transversals[i]`` maps each point of the i-th basic orbit to a raw
    image table carrying ``base[i]`` to that point and fixing ``base[:i]``,
    and ``inverses[i]`` maps it to the inverse of that element as a sifting
    operand (for bytes, the padded translate table).  ``strong_gens[i]``
    are the strong generators fixing ``base[:i]`` pointwise; the keys of
    ``transversals[i]`` are the orbit of ``base[i]`` under them.  The
    transversal elements depend on the order in which the strong
    generators were found, not only on the group.  Construction is through
    :func:`build_bsgs` and :func:`extend_chain`; instances are immutable.
    """

    degree: int
    generators: list[Permutation]
    base: list[int]
    strong_gens: list[list[ImageTable]]
    transversals: list[dict[int, ImageTable]]
    inverses: list[dict[int, ImageTable]] = field(repr=False, compare=False)
    order: int
    _elements: list[ImageTable] | None = field(default=None, repr=False, compare=False)
    # the enumeration.GroupContext of this group, built by as_context; held
    # here so that it lives exactly as long as the group
    _context: object = field(default=None, repr=False, compare=False)

    @property
    def gen_tables(self) -> list[ImageTable]:
        return [g.images for g in self.generators]

    def identity_table(self) -> ImageTable:
        return identity_table(self.degree)

    def sift(self, table: ImageTable) -> ImageTable:
        """Strip an image table through the transversal chain; identity iff member."""
        act = bytes.translate if type(table) is bytes else _act_tuple
        return _strip(table, self.base, self.inverses, act)

    def contains_table(self, table: ImageTable) -> bool:
        return len(table) == self.degree and self.sift(table) == self.identity_table()

    def contains(self, p: Permutation) -> bool:
        return self.contains_table(p.images)

    def __contains__(self, p: Permutation) -> bool:
        return self.contains(p)

    def iter_element_tables(self) -> Iterator[ImageTable]:
        """All elements as raw tables, as products over the transversal chain.

        Runs exactly |G| compositions; no membership hashing involved.
        """
        act, as_operand = table_action(self.degree)
        level_elems: list[ImageTable] = [self.identity_table()]
        for i in range(len(self.base) - 1, -1, -1):
            nxt: list[ImageTable] = []
            # map keeps the per-element loop in C
            for u in self.transversals[i].values():
                nxt.extend(map(act, level_elems, itertools.repeat(as_operand(u))))
            level_elems = nxt
        return iter(level_elems)

    def element_tables(self) -> list[ImageTable]:
        """Sorted list of all elements as raw tables (cached)."""
        if self._elements is None:
            elems = sorted(self.iter_element_tables())
            if len(elems) != self.order:
                raise MembershipError(
                    f"enumeration produced {len(elems)} elements, BSGS order is {self.order}"
                )
            self._elements = elems
        return self._elements


def _least_moved(table: ImageTable) -> int | None:
    for i, v in enumerate(table):
        if v != i:
            return i
    return None


def _act_tuple(a: tuple[int, ...], t: tuple[int, ...]) -> tuple[int, ...]:
    """Image table of a*t for tuple tables of equal degree."""
    return tuple(map(t.__getitem__, a))


def _strip(g: ImageTable, base: Sequence[int], inverses, act, start: int = 0) -> ImageTable:
    """Residue of g sifted through levels start.. of a chain.

    ``inverses[j]`` maps each point of the j-th basic orbit to the inverse of
    its transversal element as an operand of ``act``.  The residue fixes
    every base point before the first level whose orbit misses its image; it
    is the identity iff g lies in the group of those levels.
    """
    for j in range(start, len(base)):
        inv = inverses[j].get(g[base[j]])
        if inv is None:
            return g
        g = act(g, inv)
    return g


def build_bsgs(
    gens: list[Permutation] | list[ImageTable],
    base_hint: Sequence[int] = (),
    degree: int | None = None,
) -> PermGroup:
    """Deterministic (non-randomized) Schreier-Sims: :func:`extend_chain`
    on the trivial chain whose base is ``base_hint``.

    Base points are chosen as the first moved point of the offending
    generator whenever the chain must grow, after consuming ``base_hint``
    verbatim; the result depends only on the generator order, never on
    randomness.  The trivial group's generator list is the identity.
    """
    if not gens and degree is None:
        raise ValueError("empty generator list needs an explicit degree")
    perms = [g if isinstance(g, Permutation) else Permutation(g) for g in gens]
    deg = degree if degree is not None else perms[0].degree
    tables = [p.images for p in perms] or [identity_table(deg)]
    return extend_chain(_trivial_chain(deg, base_hint), tables)


def _trivial_chain(degree: int, base: Sequence[int] = ()) -> PermGroup:
    """The trivial group with no generators, as a chain on the given base."""
    ident = identity_table(degree)
    inv = padded(ident) if type(ident) is bytes else ident
    return PermGroup(
        degree, [], list(base), [[] for _ in base], [{b: ident} for b in base],
        [{b: inv} for b in base], 1,
    )


def extend_chain(
    chain: PermGroup, tables: Sequence[ImageTable], ambient: PermGroup | None = None
) -> PermGroup:
    """The chain of <chain, tables>; the input chain is left unchanged.

    The tables are inserted as strong generators at level 0 and verified
    bottom-up with the classic pointer walk: every Schreier generator of a
    verified level sifts to the identity.  A level that gains a strong
    generator extends the orbit and transversal it has; existing
    transversal elements and their inverses are kept, so only new points
    cost an inversion.  The result's generators are the chain's followed
    by the tables.

    ``ambient``, a group known to contain the chain and the tables, allows a
    known-order stop: each partial basic orbit lies in its true basic orbit,
    so the product of their lengths is at most |<chain, tables>|, a divisor
    of |ambient|.  Once that product exceeds |ambient|/2 the extension is
    all of ambient, and ambient itself is returned.  A proper extension never
    gets there, so its chain is the one built without ``ambient``.
    """
    deg = chain.degree
    for t in tables:
        if len(t) != deg:
            raise DegreeMismatchError(f"mixed degrees {deg} and {len(t)}")
    ident = identity_table(deg)
    base = list(chain.base)
    sgens = [list(lvl) for lvl in chain.strong_gens]
    transversals = list(chain.transversals)
    inverses = list(chain.inverses)
    # Per level: the strong generators as operands of ``act`` and the
    # verification cursor (index of the next Schreier generator to sift).  A
    # level of the input chain has no operands until it grows, so its scan
    # is empty: it is verified already.
    gen_acts: list[list[ImageTable]] = [[] for _ in base]
    cursor = [0 for _ in base]

    # Every table here has degree deg, checked above, so each is prepared
    # once as an operand of act.
    act, as_operand = table_action(deg)
    if type(ident) is bytes:

        def inverse_operand(t: ImageTable) -> ImageTable:
            # table[t[i]] = i for i < deg, identity above: the padded inverse
            return bytes.maketrans(t, ident)
    else:
        inverse_operand = invert_table

    # Levels whose dicts belong to this call; a level of the input chain is
    # copied once, when it first grows, so the input is left unchanged.
    owned = [False for _ in base]

    def grow_orbit(i: int, g: ImageTable) -> None:
        """Extend level i's orbit, transversal and inverses by the strong
        generator g just appended to it: g on the points the level has,
        then every generator on the new points (Seress, ch. 4)."""
        if not owned[i]:
            transversals[i] = dict(transversals[i])
            inverses[i] = dict(inverses[i])
            gen_acts[i] = [as_operand(h) for h in sgens[i][:-1]]
            owned[i] = True
        trans, ops = transversals[i], gen_acts[i]
        op = as_operand(g)
        ops.append(op)
        new = []
        for pt in list(trans):
            img = g[pt]
            if img not in trans:
                trans[img] = act(trans[pt], op)
                new.append(img)
        for pt in new:
            u = trans[pt]
            for h, hop in zip(sgens[i], ops):
                img = h[pt]
                if img not in trans:
                    trans[img] = act(u, hop)
                    new.append(img)
        inv = inverses[i]
        for pt in new:
            inv[pt] = inverse_operand(trans[pt])
        cursor[i] = 0

    def insert_gen(g: ImageTable, from_level: int) -> int:
        """Record g as a strong generator at levels from_level..j, with a
        new level if g fixes every base point from from_level on; return j."""
        j = from_level
        while j < len(base) and g[base[j]] == base[j]:
            j += 1
        if j == len(base):
            b = _least_moved(g)
            if b is None:
                raise FalsificationError(
                    f"a new base level was requested for the identity {g!r}"
                )
            base.append(b)
            sgens.append([])
            transversals.append({b: ident})
            gen_acts.append([])
            inverses.append({b: inverse_operand(ident)})
            cursor.append(0)
            owned.append(True)
        for lvl in range(from_level, j + 1):
            sgens[lvl].append(g)
            grow_orbit(lvl, g)
        return j

    # seed with the new tables (identities dropped)
    for t in tables:
        if t != ident:
            insert_gen(t, 0)

    # Each level resumes at its cursor: a Schreier generator that sifted to
    # the identity stays a member once the deeper levels have grown and been
    # re-verified, so only a grown level starts its scan again.
    i = len(base) - 1
    while i >= 0:
        if ambient is not None and 2 * math.prod(map(len, transversals)) > ambient.order:
            return ambient
        b = base[i]
        trans, inv, ops = transversals[i], inverses[i], gen_acts[i]
        # dict preserves BFS insertion order: deterministic scan
        pts = list(trans)
        n_gens = len(ops)
        for k in range(cursor[i], len(pts) * n_gens):
            x = act(trans[pts[k // n_gens]], ops[k % n_gens])
            s = act(x, inv[x[b]])
            if s == ident:
                continue
            h = _strip(s, base, inverses, act, i + 1)
            if h == ident:
                continue
            cursor[i] = k
            i = insert_gen(h, i + 1)
            break
        else:
            i -= 1

    order = 1
    for trans in transversals:
        order *= len(trans)
    generators = chain.generators + [Permutation(t, _trusted=True) for t in tables]
    return PermGroup(deg, generators, base, sgens, transversals, inverses, order)


def _greedy_chain(
    degree: int,
    tables: Iterable[ImageTable],
    target_order: int | None = None,
) -> PermGroup:
    """BSGS from a redundant table sequence, keeping only non-member
    generators; the kept tables are the generators of the result.  No table
    is drawn once the chain has ``target_order``, so a lazy sequence stops
    being formed there."""
    chain = _trivial_chain(degree)
    if chain.order == target_order:
        return chain
    for t in tables:
        if not chain.contains_table(t):
            chain = extend_chain(chain, [t])
            if chain.order == target_order:
                break
    return chain


def orbit_walk(start, act, n_gens: int) -> tuple[dict, list[int]]:
    """Orbit of a hashable state, where ``act(state, j)`` is its image under
    the j-th of ``n_gens`` generators: ``(index, targets)``.  ``index``
    numbers the states in breadth-first discovery order (iterating it gives
    the orbit), and ``targets[i * n_gens + j]`` is the number of the image
    of state i under generator j.  The edge that discovered state q is the
    first edge whose target is q."""
    index = {start: 0}
    members = [start]
    targets: list[int] = []
    for cur in members:
        for j in range(n_gens):
            nxt = act(cur, j)
            k = index.get(nxt)
            if k is None:
                k = index[nxt] = len(members)
                members.append(nxt)
            targets.append(k)
    return index, targets


def orbit_partition(
    n: int, tables: Sequence, points: Iterable[int] | None = None
) -> tuple[list[int], list[list[int]]]:
    """Orbits of the points 0..n-1 under index maps, ``tables[j][p]`` being
    the image of p under the j-th generator: ``(orbit_of, orbits)``, the
    orbits numbered by least point and listed in breadth-first order.
    Given ``points``, only their orbits are walked, numbered in the order
    of their first point there (by least point for an invariant set in
    increasing order); ``orbit_of`` is -1 outside them."""
    orbit_of = [-1] * n
    orbits: list[list[int]] = []
    for start in range(n) if points is None else points:
        if orbit_of[start] >= 0:
            continue
        oid = len(orbits)
        orbit_of[start] = oid
        members = [start]
        for cur in members:
            for t in tables:
                nxt = t[cur]
                if orbit_of[nxt] < 0:
                    orbit_of[nxt] = oid
                    members.append(nxt)
        orbits.append(members)
    return orbit_of, orbits


def orbit_stabilizer(
    g: PermGroup, start, act, seed: Sequence[ImageTable] = ()
) -> tuple[dict, PermGroup, Callable[[int], ImageTable]]:
    """Orbit of a state under g, the chain of its stabilizer and the walk's
    tree transversal: ``(index, chain, transversal)``.

    ``act(state, j)`` is the image of a hashable state under the j-th
    generator of g.  ``index`` numbers the orbit's states in breadth-first
    discovery order (:func:`orbit_walk`; iterating it gives the orbit), and
    ``transversal(q)`` carries the start to state number q
    (:func:`_tree_transversal`).  The stabilizer is generated by ``seed``
    (known members of it) followed by the Schreier generators in discovery
    order, kept greedily until the order |G| / |orbit| is reached; any other
    order contradicts the orbit-stabilizer theorem and raises
    FalsificationError.

    The orbit is walked first; the Schreier generators are then formed
    lazily from its edges, so none is composed once the stabilizer is
    complete (Seress, ch. 4).
    """
    index, targets = orbit_walk(start, act, len(g.generators))
    length = len(index)
    if g.order % length:
        raise FalsificationError(f"orbit length {length} does not divide |G| = {g.order}")
    target = g.order // length
    tree = _tree_transversal(g, targets)
    schreier = _schreier_generators(g, targets, tree)
    chain = _greedy_chain(g.degree, itertools.chain(seed, schreier), target_order=target)
    if chain.order != target:
        raise FalsificationError(
            f"stabilizer order {chain.order} != |G|/orbit = {g.order}/{length}"
        )
    return index, chain, tree[1]


def _tree_transversal(
    g: PermGroup, targets: list[int]
) -> tuple[list[int], Callable[[int], ImageTable]]:
    """The spanning tree of :func:`orbit_stabilizer`'s walk under g's
    generators: ``found_by[q]``, the edge that discovered state q (-1 for
    the start), and ``transversal(q)``, the product of the generators along
    the tree path from the start to q, formed on first use and kept."""
    gen_tables = g.gen_tables
    n_gens = len(gen_tables)
    found_by = [-1]
    for e, q in enumerate(targets):
        if q == len(found_by):
            found_by.append(e)
    trans: list[ImageTable | None] = [None] * len(found_by)
    trans[0] = g.identity_table()

    def transversal(q: int) -> ImageTable:
        path = []
        while trans[q] is None:
            path.append(q)
            q = found_by[q] // n_gens
        u = trans[q]
        for p in reversed(path):
            u = trans[p] = compose_tables(u, gen_tables[found_by[p] % n_gens])
        return u

    return found_by, transversal


def _schreier_generators(
    g: PermGroup, targets: list[int], tree: tuple[list[int], Callable[[int], ImageTable]]
) -> Iterator[ImageTable]:
    """The distinct nontrivial Schreier generators u_p * g_j * u_q^-1 of
    :func:`orbit_stabilizer`'s walk under g's generators, one per edge
    (p, j) -> q that did not discover q, in edge order; u_q is the element
    of the walk's tree transversal ``tree`` (:func:`_tree_transversal`),
    whose inverse is kept once formed."""
    gen_tables = g.gen_tables
    n_gens = len(gen_tables)
    ident = g.identity_table()
    found_by, transversal = tree
    inv_trans: dict[int, ImageTable] = {}
    seen: set[ImageTable] = set()
    for e, q in enumerate(targets):
        if found_by[q] == e:
            continue
        u_inv = inv_trans.get(q)
        if u_inv is None:
            u_inv = inv_trans[q] = invert_table(transversal(q))
        x = compose_tables(transversal(e // n_gens), gen_tables[e % n_gens])
        s = compose_tables(x, u_inv)
        if s != ident and s not in seen:
            seen.add(s)
            yield s


def check_subgroup(g: PermGroup, u: PermGroup) -> None:
    """Raise MembershipError unless U <= G: equal degrees, and every
    generator of U sifts to the identity in G."""
    if u.degree != g.degree:
        raise MembershipError(f"subgroup of degree {u.degree} in a group of degree {g.degree}")
    for t in u.gen_tables:
        if not g.contains_table(t):
            raise MembershipError(f"generator {t!r} of the subgroup is not a member of the group")


def point_stabilizer(g: PermGroup, point: int) -> PermGroup:
    """Stabilizer of a point, through :func:`orbit_stabilizer`."""
    if not 0 <= point < g.degree:
        raise ValueError(f"point {point} out of range for degree {g.degree}")
    tables = g.gen_tables
    return orbit_stabilizer(g, point, lambda p, j: tables[j][p])[1]
