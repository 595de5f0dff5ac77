"""Constructors for the groups under study, plus the generator-file format.

File format (text, hand-editable):

    degree N
    order M          <- optional integrity line
    i1 i2 ... iN     <- one generator per line, 1-based images

Projective-line constructions put the point at infinity first, then the
field elements in lexicographic (constant-first) coefficient order, which
fixes every permutation image bit-exactly.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import os
import re
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

from .errors import GroupDataError, GroupNotFoundError, NotBijectionError, ParseError
from .errors import PreconditionError
from .ffield import Field, FieldElement, make_field, prime_power, primitive_element
from .perm import PermGroup, Permutation, build_bsgs, pack_table


@dataclass
class GroupSpec:
    """A named generator list with an optional order pledge.

    :meth:`build` replaces a list of more than two generators by the first
    of these pairs whose chain contains every listed generator, and so
    generates the same group: (g1, g2...gk), (gk, g1...gk), then each
    (gi, gj), i < j, in list order.  Every orbit walk over the built group's
    generators then runs over two of them.  Only if no pair generates the
    group is the whole list's chain built and kept; so is a list of two or
    fewer.  The pledge is checked on the chain kept.  The choice depends
    only on the list.
    """

    name: str
    degree: int
    generators: list[Permutation]
    expected_order: int | None = None

    def build(self) -> PermGroup:
        for pair in _pair_candidates(self.generators):
            g = build_bsgs(list(pair), degree=self.degree)
            if all(map(g.contains, self.generators)):
                break
        else:
            g = build_bsgs(self.generators, degree=self.degree)
        if self.expected_order is not None and g.order != self.expected_order:
            raise GroupDataError(
                f"{self.name}: constructed order {g.order}, expected {self.expected_order}"
            )
        return g


def _pair_candidates(gens: list[Permutation]) -> Iterator[tuple[Permutation, Permutation]]:
    """The candidate generating pairs of :meth:`GroupSpec.build`, in order;
    none for two generators or fewer."""
    if len(gens) <= 2:
        return
    yield gens[0], functools.reduce(operator.mul, gens[1:])
    yield gens[-1], functools.reduce(operator.mul, gens)
    yield from itertools.combinations(gens, 2)


# ---------------------------------------------------------------------------
# elementary families
# ---------------------------------------------------------------------------

def sym_spec(n: int) -> GroupSpec:
    if n < 1:
        raise PreconditionError(f"sym_<n> needs n >= 1, got {n}")
    if n == 1:
        gens = [Permutation.identity(1)]
    elif n == 2:
        gens = [Permutation.from_cycles(2, [(0, 1)])]
    else:
        gens = [
            Permutation.from_cycles(n, [(0, 1)]),
            Permutation.from_cycles(n, [tuple(range(n))]),
        ]
    return GroupSpec(f"sym_{n}", n, gens, math.factorial(n))


def alt_spec(n: int) -> GroupSpec:
    if n < 1:
        raise PreconditionError(f"alt_<n> needs n >= 1, got {n}")
    if n <= 2:
        gens = [Permutation.identity(n)]
    elif n == 3:
        gens = [Permutation.from_cycles(3, [(0, 1, 2)])]
    elif n % 2 == 1:
        gens = [
            Permutation.from_cycles(n, [(0, 1, 2)]),
            Permutation.from_cycles(n, [tuple(range(n))]),
        ]
    else:
        gens = [
            Permutation.from_cycles(n, [(0, 1, 2)]),
            Permutation.from_cycles(n, [tuple(range(1, n))]),
        ]
    return GroupSpec(f"alt_{n}", n, gens, math.factorial(n) // 2 if n > 1 else 1)


def cyclic_spec(n: int) -> GroupSpec:
    if n < 1:
        raise PreconditionError(f"cyclic_<n> needs n >= 1, got {n}")
    return GroupSpec(f"cyclic_{n}", n, [Permutation.from_cycles(n, [tuple(range(n))])], n)


def dihedral_spec(n: int) -> GroupSpec:
    """Dihedral group on n vertices, order 2n (so dihedral_5 is D10)."""
    if n < 3:
        raise PreconditionError(f"dihedral_<n> needs n >= 3, got {n}")
    rot = Permutation.from_cycles(n, [tuple(range(n))])
    refl = Permutation(pack_table([(n - i) % n for i in range(n)]), _trusted=True)
    return GroupSpec(f"dihedral_{n}", n, [rot, refl], 2 * n)


# ---------------------------------------------------------------------------
# projective-line groups
# ---------------------------------------------------------------------------

def _projective_line(field: Field) -> tuple[list[FieldElement | None], dict]:
    """Points of PG(1, q): None encodes infinity, index 0; then field elements."""
    pts: list[FieldElement | None] = [None] + field.elements()
    index = {e: i for i, e in enumerate(pts[1:], start=1)}
    return pts, index

def _moebius_perm(field: Field, fn) -> Permutation:
    """Permutation of the projective line induced by z -> fn(z).

    ``fn`` receives a FieldElement or None (infinity) and returns the same.
    """
    pts, index = _projective_line(field)
    images = []
    for z in pts:
        w = fn(z)
        images.append(0 if w is None else index[w])
    return Permutation(pack_table(images), _trusted=True)


def _psl2_generators(field: Field) -> list[Permutation]:
    lam = primitive_element(field)
    lam2 = lam * lam
    basis = []
    mono = field.one
    x = field.element((0, 1) + (0,) * (field.n - 2)) if field.n > 1 else None
    for i in range(field.n):
        basis.append(mono)
        if field.n > 1 and i + 1 < field.n:
            mono = mono * x
    gens = []
    for beta in basis:
        gens.append(_moebius_perm(field, lambda z, b=beta: None if z is None else z + b))
    gens.append(_moebius_perm(field, lambda z: None if z is None else z * lam2))

    def weyl(z):
        if z is None:
            return field.zero
        if z.is_zero():
            return None
        return -(z.inverse())

    gens.append(_moebius_perm(field, weyl))
    return gens


def psl2_spec(q: int) -> GroupSpec:
    pp = prime_power(q)
    if pp is None or q < 4:
        raise PreconditionError(f"psl2_<q> needs a prime power q >= 4, got {q}")
    field = make_field(*pp)
    order = q * (q * q - 1) // math.gcd(2, q - 1)
    return GroupSpec(f"psl2_{q}", q + 1, _psl2_generators(field), order)


def pgl2_spec(q: int) -> GroupSpec:
    pp = prime_power(q)
    if pp is None or q < 2:
        raise PreconditionError(f"pgl2_<q> needs a prime power q >= 2, got {q}")
    field = make_field(*pp)
    lam = primitive_element(field)
    gens = _psl2_generators(field)
    gens.append(_moebius_perm(field, lambda z: None if z is None else z * lam))
    return GroupSpec(f"pgl2_{q}", q + 1, gens, q * (q * q - 1))


# ---------------------------------------------------------------------------
# Mathieu groups on 11 and 12 points
# ---------------------------------------------------------------------------

def mathieu_spec(name: str) -> GroupSpec:
    key = name.strip().lower()
    c11 = Permutation.from_cycles(11, [tuple(range(11))])
    o4 = Permutation.from_cycles(11, [(2, 6, 10, 7), (3, 9, 4, 5)])
    if key == "m11":
        return GroupSpec("m11", 11, [c11, o4], 7920)
    if key == "m12":
        ext = [
            Permutation(pack_table([*g.images, 11]), _trusted=True) for g in (c11, o4)
        ]
        swap = Permutation.from_cycles(
            12, [(0, 11), (1, 10), (2, 5), (3, 7), (4, 8), (6, 9)]
        )
        return GroupSpec("m12", 12, ext + [swap], 95040)
    raise PreconditionError(f"unknown Mathieu group {name!r} (M11 or M12)")


# ---------------------------------------------------------------------------
# generator files
# ---------------------------------------------------------------------------

def save_group(g: PermGroup, path: str | Path) -> None:
    lines = [f"degree {g.degree}", f"order {g.order}"]
    for p in g.generators:
        lines.append(" ".join(str(v + 1) for v in p.images))
    Path(path).write_text("\n".join(lines) + "\n")


def load_spec(path: str | Path, name: str | None = None) -> GroupSpec:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise GroupDataError(f"cannot read group file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"group file {path} is not UTF-8 text: {exc}") from exc
    degree: int | None = None
    expected: int | None = None
    gens: list[Permutation] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if degree is None:
            m = re.fullmatch(r"degree\s+(\d+)", line)
            if not m:
                raise ParseError(f"expected 'degree N', got {line!r}", lineno)
            degree = int(m.group(1))
            if degree < 1:
                raise ParseError("degree must be positive", lineno)
            continue
        m = re.fullmatch(r"order\s+(\d+)", line)
        if m:
            if expected is not None or gens:
                raise ParseError("order line must come right after the degree line", lineno)
            expected = int(m.group(1))
            continue
        parts = line.split()
        if len(parts) != degree:
            raise ParseError(f"expected {degree} images, got {len(parts)}", lineno)
        try:
            images = [int(s) - 1 for s in parts]
            gens.append(Permutation(pack_table(images, degree), _trusted=True))
        except ValueError as exc:
            raise ParseError(f"non-integer image in {line!r}", lineno) from exc
        except NotBijectionError as exc:
            raise ParseError(str(exc), lineno) from exc
    if degree is None:
        raise ParseError("empty group file", 1)
    return GroupSpec(name or path.stem, degree, gens, expected)


def load_group(path: str | Path) -> PermGroup:
    return load_spec(path).build()


# ---------------------------------------------------------------------------
# name resolution
# ---------------------------------------------------------------------------

ENV_DATA_DIR = "FIXITYLAB_DATA"

_PACKAGED_DATA = Path(__file__).parent / "data"

# groups whose generators ship as data files rather than code
FILE_BACKED = ("m22", "psl3_3", "psu3_3", "psu4_2", "sz8")


def canonical_name(selector: str) -> str:
    s = selector.strip().lower()
    s = s.replace("(", "_").replace(")", "").replace(",", "_").replace(" ", "")
    s = re.sub(r"__+", "_", s).strip("_")
    return s


def zoo_names() -> list[str]:
    """The closed-form constructor names plus packaged file-backed names."""
    names = ["m11", "m12"]
    names += [n for n in FILE_BACKED if (_PACKAGED_DATA / f"{n}.grp").exists()]
    return sorted(names)


def resolve_spec(selector: str) -> GroupSpec:
    """Resolve a group selector: zoo name, packaged data, data dir, or path."""
    name = canonical_name(selector)
    m = re.fullmatch(r"(sym|alt|cyclic|dihedral|psl2|pgl2)_(\d+)", name)
    if m:
        kind, n = m.group(1), int(m.group(2))
        return {
            "sym": sym_spec,
            "alt": alt_spec,
            "cyclic": cyclic_spec,
            "dihedral": dihedral_spec,
            "psl2": psl2_spec,
            "pgl2": pgl2_spec,
        }[kind](n)
    if name in ("m11", "m12"):
        return mathieu_spec(name)
    packaged = _PACKAGED_DATA / f"{name}.grp"
    if packaged.is_file():
        return load_spec(packaged, name)
    env_dir = os.environ.get(ENV_DATA_DIR)
    if env_dir:
        candidate = Path(env_dir) / f"{name}.grp"
        if candidate.is_file():
            return load_spec(candidate, name)
    literal = Path(selector)
    if literal.is_file():
        return load_spec(literal)
    raise GroupNotFoundError(
        f"cannot resolve group {selector!r} (no zoo name, packaged data, or file)"
    )


def resolve_group(selector: str) -> tuple[str, PermGroup]:
    spec = resolve_spec(selector)
    return spec.name, spec.build()
